//! Differential suite for live reconfiguration: epoch/RCU program swaps
//! published concurrently with packet flow on the run-loop sharded
//! datapath.
//!
//! # The invariant set
//!
//! 1. **Zero loss:** every packet fed into a measurement window that
//!    spans swaps is processed — reconfiguration never drops or stalls
//!    traffic.
//! 2. **Atomic attribution:** each packet executes under exactly one
//!    generation — the one current at its dispatch position — so
//!    generation packet counts are an exact function of the input
//!    stream, identical for any worker count.
//! 3. **Synchronous equivalence:** a live run (swaps and entry patches
//!    published mid-flight) merges the same profiles and histograms as a
//!    single-threaded [`SmartNic`] applying the same control ops at the
//!    same stream positions synchronously, for workers 1/2/8.
//! 4. **Deterministic state transitions:** a swap that changes a flow
//!    cache's covered segment resets it at the adoption boundary, per
//!    flow, and one that does not keeps it, so cache statistics and final
//!    occupancy are reproducible and worker-count-invariant.
//! 5. **Chaos convergence:** faults injected *during* mid-flight swaps
//!    still converge to the controller's last-known-good layout, with
//!    every shard running it, zero packets lost, and the rollback
//!    visible in `health` and the journal.
//! 6. **An op is an op:** a cache flush and an instrumentation flip
//!    issued between two feeds of an open window land at that stream
//!    position too — not wherever each shard's worker happens to be.
//! 7. **A rejected op publishes nothing,** and the answer — the error,
//!    or the removed entry — is the control replica's.
//! 8. **No cached walk outlives its generation:** an entry op that flips
//!    the verdict of flows the walk cache answers lands at its stream
//!    position on every shard.
//! 9. **A warm redeploy forwards like a cold one:** a deploy keeps each
//!    flow cache whose covered segment it does not change, and every
//!    packet leaves it as it would have left the same deploy followed by
//!    a flush of every cache. Only cache statistics and modelled latency
//!    may differ.
//! 10. **The warm-up price sees what a deploy keeps:** the flow caches
//!     the controller's warm-up price counts as warm are exactly the
//!     ones the datapath still holds entries in right after the deploy.

use std::collections::{BTreeMap, BTreeSet};

use pipeleon::apply::EntrySite;
use pipeleon::plan::{Candidate, GlobalPlan, Segment, SegmentKind};
use pipeleon::search::Optimizer;
use pipeleon::{apply_plan, partition, OptimizerConfig};
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::{
    CacheRole, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_runtime::{
    graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, InjectedFault,
    RuntimeError, SimTarget, Target,
};
use pipeleon_sim::{
    Applied, BatchStats, ControlOp, EngineMode, ExecObservations, ExecReport, NicBackend, Packet,
    ShardedNic, SmartNic,
};
use pipeleon_workloads::scenarios::AclPipeline;
use pipeleon_workloads::synth::{synthesize, SynthConfig};

mod common;
use common::{
    assert_profiles_identical, control_loop_stimulus, example_programs, key_traffic, SYNTH_SEEDS,
};

/// 1 is the degenerate shard, 2 the smallest real split, 8 more shards
/// than distinct flows in some phases.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Segments per measurement window; a swap is published between every
/// pair, so each run sees `SEGMENTS - 1 = 8` mid-window swaps.
const SEGMENTS: usize = 9;
const SEGMENT_PACKETS: u64 = 400;

/// Three exact-match tables whose `set` actions write distinct values —
/// generation attribution errors surface as action-counter divergence.
fn swap_program() -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::new();
    let keys: Vec<_> = (0..3).map(|i| b.field(&format!("k{i}"))).collect();
    let out = b.field("out");
    let tables: Vec<NodeId> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            b.table(format!("t{i}"))
                .key(k, MatchKind::Exact)
                .action("set", vec![Primitive::set(out, i as u64 + 1)])
                .action_nop("pass")
                .default_action(1)
                .finish()
        })
        .collect();
    (b.seal(tables[0]).unwrap(), tables)
}

fn swap_packet(i: u64) -> Packet {
    Packet::with_slots(vec![i % 24, (i * 7) % 24, (i * 13) % 24, 0])
}

/// Program variant `j` (1-based): the base plus one extra rule, on a
/// table and key that vary with `j`, so every swap changes forwarding.
fn swap_variant(base: &ProgramGraph, tables: &[NodeId], j: u64) -> ProgramGraph {
    let mut g = base.clone();
    let t = tables[(j % 3) as usize];
    g.node_mut(t)
        .unwrap()
        .as_table_mut()
        .unwrap()
        .entries
        .push(TableEntry::new(vec![MatchValue::Exact((j * 2) % 24)], 0));
    g
}

/// One live run: a single measurement window fed in [`SEGMENTS`] chunks,
/// with a full program swap published after every chunk but the last.
fn live_swap_run(
    workers: usize,
) -> (
    BatchStats,
    RuntimeProfile,
    ExecObservations,
    BTreeMap<u64, u64>,
    u64,
) {
    let (g, tables) = swap_program();
    let params = CostParams::bluefield2();
    let mut nic = ShardedNic::new(g.clone(), params, workers).unwrap();
    nic.set_instrumentation(true, 1);
    nic.measure_begin();
    for s in 0..SEGMENTS as u64 {
        let base = s * SEGMENT_PACKETS;
        nic.measure_feed(
            (0..SEGMENT_PACKETS)
                .map(|i| swap_packet(base + i))
                .collect(),
        );
        if s + 1 < SEGMENTS as u64 {
            nic.deploy(swap_variant(&g, &tables, s + 1)).unwrap();
        }
    }
    let stats = nic.measure_end();
    let counts = nic.generation_counts();
    let last_gen = nic.last_swap().map_or(0, |s| s.generation);
    (
        stats,
        nic.take_profile(),
        nic.take_observations(),
        counts,
        last_gen,
    )
}

/// The synchronous single-threaded reference for the same stream: a
/// [`SmartNic`] deploys at exactly the same stream positions.
fn smart_swap_reference() -> (BatchStats, RuntimeProfile, ExecObservations) {
    let (g, tables) = swap_program();
    let mut nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
    nic.set_instrumentation(true, 1);
    nic.measure_begin();
    for s in 0..SEGMENTS as u64 {
        let base = s * SEGMENT_PACKETS;
        nic.measure_feed(
            (0..SEGMENT_PACKETS)
                .map(|i| swap_packet(base + i))
                .collect(),
        );
        if s + 1 < SEGMENTS as u64 {
            nic.deploy(swap_variant(&g, &tables, s + 1)).unwrap();
        }
    }
    let stats = nic.measure_end();
    (stats, nic.take_profile(), nic.take_observations())
}

#[test]
fn mid_window_swaps_lose_nothing_and_attribute_exactly() {
    let total = SEGMENTS as u64 * SEGMENT_PACKETS;
    let (want_stats, want_profile, want_obs) = smart_swap_reference();
    assert_eq!(want_stats.packets, total, "reference lost packets");
    let mut baseline: Option<BTreeMap<u64, u64>> = None;
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let (stats, profile, obs, counts, last_gen) = live_swap_run(workers);
        // Invariant 1: the window spans 8 swaps and drops nothing. Every
        // op is a generation: the instrumentation flip before the window
        // is generation 1, the swaps are 2..=9.
        assert_eq!(stats.packets, total, "{ctx}: packets lost across swaps");
        assert_eq!(last_gen, SEGMENTS as u64, "{ctx}: swap count");
        // Invariant 2: attribution is exact — segment `s` was dispatched
        // after `s` swaps, so it ran under generation `s + 1`, whole.
        assert_eq!(counts.len(), SEGMENTS, "{ctx}: distinct generations");
        for s in 0..SEGMENTS as u64 {
            assert_eq!(
                counts.get(&(s + 1)),
                Some(&SEGMENT_PACKETS),
                "{ctx}: generation {} packet count",
                s + 1
            );
        }
        assert_eq!(
            counts.values().sum::<u64>(),
            total,
            "{ctx}: attribution must partition the stream"
        );
        match &baseline {
            None => baseline = Some(counts),
            Some(b) => assert_eq!(b, &counts, "{ctx}: attribution drifted with workers"),
        }
        // Invariant 3: merged telemetry matches the synchronous
        // reference bit-for-bit.
        assert_profiles_identical(&want_profile, &profile, &ctx);
        assert_eq!(want_obs, obs, "{ctx}: merged histograms diverged");
    }
    // Same seeded run twice at the same worker count: every statistic,
    // float bits included, must reproduce.
    let (s1, p1, o1, c1, _) = live_swap_run(2);
    let (s2, p2, o2, c2, _) = live_swap_run(2);
    assert_eq!(s1.mean_latency_ns.to_bits(), s2.mean_latency_ns.to_bits());
    assert_eq!(s1.p99_latency_ns.to_bits(), s2.p99_latency_ns.to_bits());
    assert_eq!(s1, s2, "rerun: stats not reproducible");
    assert_eq!(p1, p2, "rerun: profile not reproducible");
    assert_eq!(o1, o2, "rerun: observations not reproducible");
    assert_eq!(c1, c2, "rerun: attribution not reproducible");
}

/// Deterministic op-mix generator for the patch stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn live_entry_patches_match_synchronous_smartnic() {
    let (g, tables) = swap_program();
    let params = CostParams::bluefield2();
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let mut live = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        live.set_instrumentation(true, 1);
        let mut sync = SmartNic::new(g.clone(), params.clone()).unwrap();
        sync.set_instrumentation(true, 1);
        let mut rng = Lcg(0xBEEF ^ workers as u64);
        let mut lens = vec![0usize; tables.len()];
        live.measure_begin();
        sync.measure_begin();
        let mut fed = 0u64;
        for chunk in 0..12u64 {
            let base = chunk * 200;
            live.measure_feed((0..200).map(|i| swap_packet(base + i)).collect());
            sync.measure_feed((0..200).map(|i| swap_packet(base + i)).collect());
            fed += 200;
            // One patch between chunks: it publishes as a delta on the
            // live datapath, applies synchronously on the reference.
            let t = (rng.next() % tables.len() as u64) as usize;
            if lens[t] > 0 && rng.next().is_multiple_of(3) {
                let idx = (rng.next() % lens[t] as u64) as usize;
                let a = live.remove_entry(tables[t], idx).unwrap();
                let b = sync.remove_entry(tables[t], idx).unwrap();
                assert_eq!(a, b, "{ctx}: removed different entries");
                lens[t] -= 1;
            } else if chunk == 6 {
                // Exercise the replace-table delta once per run.
                let mut table = sync
                    .graph()
                    .node(tables[t])
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .clone();
                table
                    .entries
                    .push(TableEntry::new(vec![MatchValue::Exact(23)], 0));
                let op = ControlOp::ReplaceTable {
                    node: tables[t],
                    table,
                    next: None,
                };
                live.apply(op.clone()).unwrap();
                sync.apply(op).unwrap();
                lens[t] = sync
                    .graph()
                    .node(tables[t])
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .entries
                    .len();
            } else {
                let e = TableEntry::new(vec![MatchValue::Exact(rng.next() % 24)], 0);
                live.insert_entry(tables[t], e.clone()).unwrap();
                sync.insert_entry(tables[t], e).unwrap();
                lens[t] += 1;
            }
        }
        let ls = live.measure_end();
        let ss = sync.measure_end();
        assert_eq!(ls.packets, fed, "{ctx}: live run lost packets");
        assert_eq!(ss.packets, fed, "{ctx}: reference lost packets");
        assert_profiles_identical(&sync.take_profile(), &live.take_profile(), &ctx);
        assert_eq!(
            sync.take_observations(),
            live.take_observations(),
            "{ctx}: merged histograms diverged"
        );
        // Control plane and every quiesced shard converged to the same
        // patched program as the synchronous reference.
        let want = graph_fingerprint(sync.graph());
        assert_eq!(
            graph_fingerprint(live.graph()),
            want,
            "{ctx}: control graph diverged"
        );
        for (i, sg) in live.shard_graphs().iter().enumerate() {
            assert_eq!(
                graph_fingerprint(sg),
                want,
                "{ctx}: shard {i} did not converge"
            );
        }
    }
}

/// cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]:
/// per-shard LRU state makes swap-boundary placement observable.
fn cached_flow_program() -> (ProgramGraph, NodeId) {
    let mut b = ProgramBuilder::new();
    let x = b.field("x");
    let y = b.field("y");
    let heavy = b
        .table("heavy")
        .key(x, MatchKind::Ternary)
        .action("mark", vec![Primitive::set(y, 1)])
        .default_action(0)
        .entry(TableEntry::with_priority(
            vec![MatchValue::Ternary {
                value: 0,
                mask: 0xF,
            }],
            0,
            1,
        ))
        .finish();
    b.set_next(heavy, None);
    let cache = b
        .table("cache")
        .key(x, MatchKind::Exact)
        .action_nop("hit")
        .action_nop("miss")
        .default_action(1)
        .cache_role(CacheRole::FlowCache)
        .max_entries(64)
        .by_action(vec![None, Some(heavy)])
        .finish();
    (b.seal(cache).unwrap(), cache)
}

#[test]
fn flow_cache_resets_at_the_adoption_boundary_deterministically() {
    // Phase 1 touches 48 flows (eviction-free under the 64-entry cache),
    // then ops land between the feeds, and phase 2 touches only 12 of
    // those flows. A swap that changes the covered segment (a second
    // rule on `heavy`) resets the cache at each shard's adoption
    // boundary: occupancy 12. A swap of the same program keeps it: 48.
    // A flush, then that same swap, with no packet between them: 12, so
    // no shard skips the flush on its way to the later deploy. Profile
    // equality across worker counts proves the boundary falls at the
    // same per-flow stream position everywhere.
    let (g, cache) = cached_flow_program();
    let heavy = g.node(cache).unwrap().next.targets()[1].unwrap();
    let mut changed = g.clone();
    let rules = &mut changed
        .node_mut(heavy)
        .unwrap()
        .as_table_mut()
        .unwrap()
        .entries;
    rules.push(TableEntry::with_priority(
        vec![MatchValue::Ternary {
            value: 1,
            mask: 0xF,
        }],
        0,
        2,
    ));
    let params = CostParams::bluefield2();
    let run = |workers: usize, ops: &[ControlOp]| {
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        nic.set_instrumentation(true, 1);
        nic.measure_begin();
        nic.measure_feed(
            (0..1200u64)
                .map(|i| Packet::with_slots(vec![(i * 7) % 48, 0]))
                .collect(),
        );
        for op in ops {
            nic.apply(op.clone()).unwrap();
        }
        nic.measure_feed(
            (0..600u64)
                .map(|i| Packet::with_slots(vec![i % 12, 0]))
                .collect(),
        );
        let stats = nic.measure_end();
        let occupancy = nic.cache_len(cache);
        (
            stats,
            nic.take_profile(),
            nic.take_observations(),
            occupancy,
        )
    };
    let cases = [
        ("changed segment", vec![ControlOp::Deploy(changed)], 12),
        ("same program", vec![ControlOp::Deploy(g.clone())], 48),
        (
            "flush, then the same program",
            vec![ControlOp::FlushCache(cache), ControlOp::Deploy(g.clone())],
            12,
        ),
    ];
    for (case, ops, want_occupancy) in &cases {
        let mut want: Option<(RuntimeProfile, ExecObservations)> = None;
        for workers in WORKER_COUNTS {
            let ctx = format!("{case}, workers={workers}");
            let (stats, profile, obs, occupancy) = run(workers, ops);
            assert_eq!(stats.packets, 1800, "{ctx}: packets lost across the swap");
            assert_eq!(occupancy, *want_occupancy, "{ctx}: cache occupancy");
            match &want {
                None => want = Some((profile, obs)),
                Some((p, o)) => {
                    assert_profiles_identical(p, &profile, &ctx);
                    assert_eq!(o, &obs, "{ctx}: histograms diverged");
                }
            }
        }
        // Reproducibility at a fixed worker count, stats bits included.
        let (s1, p1, o1, l1) = run(2, ops);
        let (s2, p2, o2, l2) = run(2, ops);
        assert_eq!(s1, s2, "{case}: rerun: stats not reproducible");
        assert_eq!(
            (p1, o1, l1),
            (p2, o2, l2),
            "{case}: rerun: state not reproducible"
        );
    }
}

/// `g` with every non-switch-case pipelet behind one flow cache over the
/// whole pipelet; with `reverse`, the first pipelet of two or more tables
/// runs in reverse order.
fn cached_layout(g: &ProgramGraph, params: &CostParams, reverse: bool) -> ProgramGraph {
    let mut reversed = !reverse;
    let choices = partition(g, 24)
        .into_iter()
        .filter(|p| !p.switch_case)
        .map(|p| {
            let mut order = p.tables.clone();
            if !reversed && order.len() > 1 {
                order.reverse();
                reversed = true;
            }
            Candidate {
                pipelet: p.id,
                order,
                segments: vec![Segment {
                    start: 0,
                    end: p.len(),
                    kind: SegmentKind::Cache,
                }],
                gain: 1.0,
                mem_cost: 0.0,
                update_cost: 0.0,
                group_branch: None,
            }
        })
        .collect();
    let plan = GlobalPlan {
        choices,
        ..GlobalPlan::default()
    };
    let model = CostModel::new(params.clone());
    let cfg = OptimizerConfig::default();
    apply_plan(g, &plan, &model, &RuntimeProfile::empty(), &cfg)
        .expect("a whole-pipelet cache plan applies")
        .graph
}

/// `g` with the default action of its first multi-action table moved to
/// the next action: every miss of that table now ends another way.
fn edited(g: &ProgramGraph) -> ProgramGraph {
    let mut g = g.clone();
    let id = g
        .tables()
        .find(|(_, t)| t.actions.len() > 1)
        .map(|(n, _)| n.id)
        .expect("a table with a second action");
    let t = g.node_mut(id).unwrap().as_table_mut().unwrap();
    t.default_action = (t.default_action + 1) % t.actions.len();
    g
}

/// Runs `chunks[i]` after `deploys[i]` on `nic`, flushing every flow
/// cache after each deploy when `cold`. Returns every packet as it left
/// and the flow-cache hits of the whole run.
fn redeploy_run<N: NicBackend>(
    nic: &mut N,
    deploys: &[ProgramGraph],
    chunks: &[Vec<Packet>],
    cold: bool,
) -> (Vec<Packet>, u64) {
    let (mut out, mut hits) = (Vec::new(), 0);
    for (g, chunk) in deploys.iter().zip(chunks) {
        nic.deploy(g.clone()).unwrap();
        if cold {
            for (n, t) in g.tables() {
                if t.cache_role == CacheRole::FlowCache {
                    nic.apply(ControlOp::FlushCache(n.id)).unwrap();
                }
            }
        }
        let mut batch = chunk.clone();
        nic.process_batch(&mut batch);
        out.extend(batch);
        let stats = nic.take_profile().cache_stats;
        hits += stats.values().map(|s| s.hits).sum::<u64>();
    }
    (out, hits)
}

#[test]
fn warm_redeploys_forward_every_packet_like_cold_ones() {
    let mut corpus = example_programs();
    for &seed in &SYNTH_SEEDS[..4] {
        let cfg = SynthConfig {
            pipelets: 2 + (seed % 3) as usize,
            pipelet_len: 2 + (seed % 2) as usize,
            drop_fraction: 0.25,
            seed,
            ..SynthConfig::default()
        };
        corpus.push((format!("synth seed {seed}"), synthesize(&cfg)));
    }
    let params = CostParams::bluefield2();
    for (name, g) in corpus {
        // Identical, a covered table edited, edited again, one covered
        // set reversed (the other caches keep), and back.
        let (base, edit) = (cached_layout(&g, &params, false), edited(&g));
        let deploys = [
            base.clone(),
            base.clone(),
            cached_layout(&edit, &params, false),
            cached_layout(&edit, &params, false),
            cached_layout(&g, &params, true),
            base.clone(),
        ];
        let chunks: Vec<Vec<Packet>> = (0..deploys.len() as u64)
            .map(|i| key_traffic(&g, 48, 7 + i, 300))
            .collect();
        let mut want: Option<Vec<Packet>> = None;
        for mode in [EngineMode::Compiled, EngineMode::Interpreter] {
            // Workers 0 is the single `SmartNic`.
            for workers in [0, 1, 2, 8] {
                let ctx = format!("{name}, {mode:?}, workers={workers}");
                let run = |cold: bool| {
                    if workers == 0 {
                        let mut nic =
                            SmartNic::with_engine(g.clone(), params.clone(), mode).unwrap();
                        redeploy_run(&mut nic, &deploys, &chunks, cold)
                    } else {
                        let mut nic =
                            ShardedNic::with_engine(g.clone(), params.clone(), workers, mode)
                                .unwrap();
                        redeploy_run(&mut nic, &deploys, &chunks, cold)
                    }
                };
                let (warm, warm_hits) = run(false);
                let (cold, cold_hits) = run(true);
                assert!(warm_hits > cold_hits, "{ctx}: no cache was kept");
                for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
                    assert_eq!(w, c, "{ctx}: packet {i} left differently");
                }
                match &want {
                    None => want = Some(warm),
                    Some(first) => assert_eq!(first, &warm, "{ctx}: differs from the first run"),
                }
            }
        }
    }
}

/// The one choice of `plan` that installs the flow cache over `covered`,
/// stripped of every other segment: a plan of that cache alone.
fn only_cache(plan: &GlobalPlan, covered: &BTreeSet<NodeId>) -> GlobalPlan {
    let set = |tables: &[NodeId]| tables.iter().copied().collect::<BTreeSet<_>>();
    let choice = plan.choices.iter().find_map(|c| match c.group_branch {
        Some(_) => (set(&c.order) == *covered).then(|| c.clone()),
        None => c
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::Cache && set(&c.order[s.start..s.end]) == *covered)
            .map(|s| Candidate {
                segments: vec![*s],
                ..c.clone()
            }),
    });
    GlobalPlan {
        choices: vec![choice.expect("the plan installs the cache")],
        ..GlobalPlan::default()
    }
}

/// At every deploy of the `control_loop` decisions stimulus, before any
/// packet runs, a flow cache holds entries exactly when the warm-up price
/// counts it warm against the plan that ran before. The price is read
/// per cache under a profile in which every cache has keys to miss on, so
/// only warmth can make it 0.
#[test]
fn the_warm_up_price_counts_warm_exactly_the_caches_a_deploy_keeps() {
    let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
    let mut probe = RuntimeProfile::empty();
    probe.total_packets = 1 << 20;
    let (mut deploys, mut warm, mut cold) = (0, 0, 0);
    control_loop_stimulus(|at, c| {
        let running = c.applied().map(|a| a.plan.clone()).unwrap_or_default();
        if !c.tick().expect("tick").deployed {
            return;
        }
        deploys += 1;
        let caches: Vec<(NodeId, BTreeSet<NodeId>, bool)> = c
            .applied()
            .map(|a| {
                a.cache_nodes
                    .iter()
                    .map(|&cache| {
                        let covered: BTreeSet<NodeId> = a
                            .entry_map
                            .tracked()
                            .filter(|&t| {
                                a.entry_map
                                    .sites(t)
                                    .contains(&EntrySite::CoveredByCache { cache })
                            })
                            .collect();
                        let plan = only_cache(&a.plan, &covered);
                        let price = optimizer.warmup_ns(c.original(), &probe, &plan, &running);
                        (cache, covered, price == 0.0)
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (cache, covered, priced_warm) in caches {
            let kept = c.target.nic.executor_mut().cache_len(cache) > 0;
            assert_eq!(
                priced_warm, kept,
                "{at:?}: cache {cache} over {covered:?} priced warm {priced_warm}, kept {kept}"
            );
            warm += usize::from(kept);
            cold += usize::from(!kept);
        }
    });
    assert!(
        deploys > 0 && warm > 0 && cold > 0,
        "{deploys} deploys, {warm} warm, {cold} cold"
    );
}

/// One window over the cached program, fed in four chunks with
/// non-program ops between the first three: an instrumentation flip
/// (off, so the second chunk goes uncounted), then a flush with the flip
/// back on. The traffic inserts fewer entries than the limiter's burst:
/// a binding limit is shard-local by design, see `sharded.rs`.
fn tuning_ops_run<N: NicBackend>(nic: &mut N) -> (BatchStats, RuntimeProfile) {
    let (_, cache) = cached_flow_program();
    let chunk = |lo: u64, flows: u64| -> Vec<Packet> {
        (lo..lo + 400)
            .map(|i| Packet::with_slots(vec![(i * 7) % flows, 0]))
            .collect()
    };
    nic.set_instrumentation(true, 1);
    nic.measure_begin();
    nic.measure_feed(chunk(0, 48));
    nic.set_instrumentation(false, 1);
    nic.measure_feed(chunk(400, 48));
    nic.apply(ControlOp::FlushCache(cache)).unwrap();
    nic.set_instrumentation(true, 1);
    nic.measure_feed(chunk(800, 12));
    nic.measure_feed(chunk(1200, 12));
    (nic.measure_end(), nic.take_profile())
}

#[test]
fn tuning_ops_between_feeds_land_at_a_stream_position() {
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
    let (want_stats, want_profile) = tuning_ops_run(&mut single);
    // Chunks 1, 3 and 4 are counted; chunk 2 ran with counters off.
    assert_eq!(want_profile.total_packets, 1200);
    // The flush emptied 48 flows' worth; chunks 3 and 4 touch 12.
    assert_eq!(single.executor_mut().cache_len(cache), 12);
    let mut baseline: Option<BTreeMap<u64, u64>> = None;
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        let (stats, profile) = tuning_ops_run(&mut nic);
        assert_profiles_identical(&want_profile, &profile, &ctx);
        assert_eq!(stats.packets, want_stats.packets, "{ctx}: packets");
        assert_eq!(stats.dropped, want_stats.dropped, "{ctx}: dropped");
        assert_eq!(stats.migrations, want_stats.migrations, "{ctx}: migrations");
        assert_eq!(
            stats.counter_updates, want_stats.counter_updates,
            "{ctx}: counter updates"
        );
        assert_eq!(nic.cache_len(cache), 12, "{ctx}: cache occupancy");
        // Generation 1 is the flip before the window; each chunk ran
        // whole under the generation current at its dispatch.
        let counts = nic.generation_counts();
        let want_counts = BTreeMap::from([(1, 400), (2, 400), (4, 800)]);
        assert_eq!(counts, want_counts, "{ctx}: attribution");
        match &baseline {
            None => baseline = Some(counts),
            Some(b) => assert_eq!(b, &counts, "{ctx}: attribution drifted with workers"),
        }
    }
}

/// `acl(k0)` → `fwd(k1)`: six fields, no flow cache, so with counters
/// off every repeated header is answered from the walk cache.
fn cached_walk_program() -> (ProgramGraph, NodeId) {
    let mut b = ProgramBuilder::new();
    let keys: Vec<_> = (0..6).map(|i| b.field(&format!("k{i}"))).collect();
    let acl = b
        .table("acl")
        .key(keys[0], MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .finish();
    let fwd = b
        .table("fwd")
        .key(keys[1], MatchKind::Exact)
        .action("out", vec![Primitive::Forward { port: 1 }])
        .finish();
    b.set_next(acl, Some(fwd));
    (b.seal(acl).unwrap(), acl)
}

/// 24 headers, over and over, from packet `lo` on.
fn cached_walk_half(lo: u64) -> Vec<Packet> {
    (lo..lo + 800)
        .map(|i| Packet::with_slots(vec![i % 8, i % 3, 0, 0, 0, 0]))
        .collect()
}

/// A window over the cached flows with a rule inserted between its
/// halves that denies flow `k0 = 5`, then the second half once more,
/// packet by packet: the window and the reports.
fn cached_flow_flip<N: NicBackend>(nic: &mut N, acl: NodeId) -> (BatchStats, Vec<ExecReport>) {
    let deny = TableEntry::new(vec![MatchValue::Exact(5)], 1);
    nic.measure_begin();
    nic.measure_feed(cached_walk_half(0));
    nic.apply(ControlOp::InsertEntry {
        node: acl,
        entry: deny,
    })
    .unwrap();
    nic.measure_feed(cached_walk_half(800));
    let stats = nic.measure_end();
    let reports = nic.process_batch(&mut cached_walk_half(800));
    (stats, reports)
}

/// An entry op that flips the verdict of flows the walk cache answers,
/// between two feeds of a window: every packet dispatched before it
/// forwards, every later packet of the denied flow drops — exactly at
/// the op's generation on 1, 2 or 8 workers, as on the synchronous
/// single NIC.
#[test]
fn an_entry_op_flips_cached_flows_at_its_generation() {
    let (g, acl) = cached_walk_program();
    let params = CostParams::bluefield2();
    let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
    let (want, want_reports) = cached_flow_flip(&mut single, acl);
    // 100 of the second half's 800 packets carry `k0 = 5`.
    assert_eq!((want.packets, want.dropped), (1_600, 100));
    let denied = |i: usize| (800 + i as u64) % 8 == 5;
    for (i, r) in want_reports.iter().enumerate() {
        assert_eq!(r.dropped, denied(i), "reference packet {i}");
    }
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        let (stats, reports) = cached_flow_flip(&mut nic, acl);
        assert_eq!(
            (stats.packets, stats.dropped, stats.p99_latency_ns),
            (want.packets, want.dropped, want.p99_latency_ns),
            "{ctx}: the window"
        );
        assert_eq!(reports, want_reports, "{ctx}: per-packet reports");
        let counts = nic.generation_counts();
        assert_eq!(
            counts,
            BTreeMap::from([(0, 800), (1, 1_600)]),
            "{ctx}: the op is generation 1"
        );
    }
}

#[test]
fn a_rejected_op_publishes_nothing_and_the_replica_answers() {
    let (g, tables) = swap_program();
    let params = CostParams::bluefield2();
    let cond = {
        // A graph with a node that is not a table, to name in a replace.
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let t = b.table("t").key(x, MatchKind::Exact).finish();
        let br = b.branch("br", pipeleon_ir::Condition::eq(x, 1), None, None);
        (b.seal(t).unwrap(), br, t)
    };
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        let mut reference = SmartNic::new(g.clone(), params.clone()).unwrap();
        let valid = TableEntry::new(vec![MatchValue::Exact(5)], 0);
        nic.insert_entry(tables[0], valid.clone()).unwrap();
        reference.insert_entry(tables[0], valid.clone()).unwrap();
        nic.measure_begin();
        nic.measure_feed((0..300).map(swap_packet).collect());
        let before = nic.last_swap().map(|s| s.generation);
        let counts_before = nic.generation_counts();
        // Wrong arity, out of range, and an unknown node: the
        // replica's errors, to the letter.
        let bad: [ControlOp; 3] = [
            ControlOp::InsertEntry {
                node: tables[1],
                entry: TableEntry::new(vec![MatchValue::Exact(1), MatchValue::Exact(2)], 0),
            },
            ControlOp::RemoveEntry {
                node: tables[0],
                index: 7,
            },
            ControlOp::InsertEntry {
                node: NodeId(99),
                entry: valid.clone(),
            },
        ];
        for op in bad {
            let want = reference.apply(op.clone()).unwrap_err();
            assert_eq!(nic.apply(op.clone()).unwrap_err(), want, "{ctx}: {op:?}");
        }
        // A valid remove mid-window returns the replica's entry.
        let removed = nic.remove_entry(tables[0], 0).unwrap();
        assert_eq!(removed, valid, "{ctx}: removed entry");
        nic.measure_feed((300..600).map(swap_packet).collect());
        assert_eq!(nic.measure_end().packets, 600, "{ctx}: packets lost");
        // Exactly one generation was published mid-window (the
        // remove): the first 300 packets ran under the insert's, the
        // rest under the remove's.
        assert_eq!(nic.last_swap().map(|s| s.generation), before);
        let mut want_counts = counts_before;
        *want_counts.entry(1).or_insert(0) = 300;
        want_counts.insert(2, 300);
        assert_eq!(nic.generation_counts(), want_counts, "{ctx}: generations");
        let graphs = nic.shard_graphs();
        for (i, sg) in graphs.iter().enumerate() {
            assert_eq!(
                sg,
                nic.graph(),
                "{ctx}: shard {i} diverged from the replica"
            );
        }
    }
    // A replace naming a node that is not a table.
    let (g, br, t) = cond;
    let table = g.node(t).unwrap().as_table().unwrap().clone();
    let op = ControlOp::ReplaceTable {
        node: br,
        table,
        next: None,
    };
    let want = SmartNic::new(g.clone(), params.clone())
        .unwrap()
        .apply(op.clone())
        .unwrap_err();
    let mut nic = ShardedNic::new(g.clone(), params, 2).unwrap();
    nic.measure_begin();
    nic.measure_feed(
        (0..64u64)
            .map(|i| Packet::with_slots(vec![i % 3]))
            .collect(),
    );
    assert_eq!(nic.apply(op).unwrap_err(), want);
    // And one that only fails once the table is in: wired to nowhere.
    let dangling = ControlOp::ReplaceTable {
        node: t,
        table: g.node(t).unwrap().as_table().unwrap().clone(),
        next: Some(pipeleon_ir::NextHops::Always(Some(NodeId(77)))),
    };
    assert!(nic.apply(dangling).is_err());
    assert_eq!(nic.graph(), &g, "a rejected replace left something behind");
    nic.measure_end();
    assert!(nic.generation_counts().keys().all(|&g| g == 0));
    assert!(nic.shard_graphs().iter().all(|sg| sg == nic.graph()));
    assert_eq!(Ok(Applied::Unchanged), nic.apply(ControlOp::Despecialize));
}

/// Deterministic op-mix for the chaos run's entry churn.
fn chaos_churn<T: Target>(c: &mut Controller<T>, p: &AclPipeline, rng: &mut Lcg, value: u64) {
    let ti = (rng.next() % p.acls.len() as u64) as usize;
    match c.insert_entry(
        p.acls[ti],
        TableEntry::new(vec![MatchValue::Exact(value)], 1),
    ) {
        Ok(()) | Err(RuntimeError::EntryOpFailed { .. }) => {}
        Err(e) => panic!("unexpected insert error: {e}"),
    }
}

#[test]
fn chaos_faults_during_mid_flight_swaps_converge_to_last_known_good() {
    let mut total_rollback_signals = 0u64;
    for &seed in &[1u64, 3, 8, 21] {
        let p = AclPipeline::build(3, 3);
        let mut nic = ShardedNic::new(p.graph.clone(), CostParams::bluefield2(), 4).unwrap();
        nic.set_instrumentation(true, 1);
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let mut target = FaultyTarget::new(SimTarget::live(nic), FaultConfig::chaos(seed));
        target.set_armed(false);
        let mut c = Controller::new(
            target,
            p.graph.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .expect("construction is fault-free");
        c.target.set_armed(true);
        let mut rng = Lcg(seed ^ 0xc0ffee);
        let (mut offered, mut processed) = (0u64, 0u64);
        // A window here stays open across the controller tick: every
        // deploy, retry, and rollback the tick performs publishes as a
        // generation swap mid-window. The tick's profile read drains the
        // first half first, so the swaps land at that stream position.
        let live_window = |c: &mut Controller<FaultyTarget<SimTarget<ShardedNic>>>,
                           w: u64,
                           offered: &mut u64,
                           processed: &mut u64|
         -> pipeleon_runtime::TickReport {
            let n = p.acls.len();
            let mut rates = vec![0.0; n];
            rates[(seed as usize + w as usize) % n] = 0.6;
            let mut gen = p.traffic(&rates, 400, seed * 1000 + w);
            let batch = gen.batch(2_400);
            let mid = batch.len() / 2;
            c.target.inner.nic.measure_begin();
            c.target.inner.nic.measure_feed(batch[..mid].to_vec());
            let r = c
                .tick()
                .unwrap_or_else(|e| panic!("seed {seed}: tick {w} failed: {e}"));
            c.target.inner.nic.measure_feed(batch[mid..].to_vec());
            let s = c.target.inner.nic.measure_end();
            *offered += batch.len() as u64;
            *processed += s.packets;
            r
        };
        for w in 0..6u64 {
            chaos_churn(&mut c, &p, &mut rng, 0x4_0000 + seed * 0x100 + w);
            let _ = live_window(&mut c, w, &mut offered, &mut processed);
        }
        // Healing: faults off, still under live traffic; the controller
        // must converge (pin_pending clears) within a few windows.
        c.target.set_armed(false);
        let mut converged = !c.health().pin_pending;
        for w in 6..11u64 {
            if converged {
                break;
            }
            let r = live_window(&mut c, w, &mut offered, &mut processed);
            converged = !r.health.pin_pending;
        }
        assert!(converged, "seed {seed}: pin_pending never cleared");
        // Invariant 1 under chaos: reconfiguration, retries and
        // rollbacks included, never cost a packet.
        assert_eq!(
            processed, offered,
            "seed {seed}: packets lost during chaotic live swaps"
        );
        // Convergence: the control plane verifiably runs last-known-good
        // and every quiesced shard runs the same program.
        let want = graph_fingerprint(c.last_known_good());
        assert_eq!(
            c.target.fingerprint(),
            Some(want),
            "seed {seed}: target diverged from controller bookkeeping"
        );
        let _ = c.target.inner.nic.measure(Vec::new());
        for (i, sg) in c.target.inner.nic.shard_graphs().iter().enumerate() {
            assert_eq!(
                graph_fingerprint(sg),
                want,
                "seed {seed}: shard {i} did not converge to last-known-good"
            );
        }
        // Every deploy-class fault that fired forced at least a retry,
        // and the health report must say so.
        let deploy_faults = c
            .target
            .op_log()
            .iter()
            .filter(|r| {
                matches!(
                    r.fault,
                    Some(InjectedFault::DeployReject) | Some(InjectedFault::TornDeployStale)
                )
            })
            .count() as u64;
        if deploy_faults > 0 {
            assert!(
                c.health().deploy_retries > 0,
                "seed {seed}: {deploy_faults} deploy faults fired but health shows no retries"
            );
        }
        total_rollback_signals += c.health().rollbacks + c.health().deploy_retries;
        // The journal interleaves the swaps with the faults: live
        // deploys must have been recorded as generation_swap events.
        let jsonl = c.journal().to_jsonl();
        assert!(
            jsonl.contains("\"type\":\"generation_swap\""),
            "seed {seed}: no generation swaps journaled"
        );
    }
    assert!(
        total_rollback_signals > 0,
        "the chaos mix never exercised a deploy retry or rollback"
    );
}
