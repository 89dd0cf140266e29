//! Differential suite for the compiled datapath: the flat, index-addressed
//! [`EngineMode::Compiled`] pipeline must be observationally *bit-identical*
//! to the interpreter it lowers — same per-packet reports (latency bits,
//! drops, migrations, probes, counter updates), same packet mutations, same
//! traces, same merged profiles, batch statistics, and latency histograms —
//! for every example program, a synthetic-program seed matrix, flow-cache
//! programs, mid-stream entry churn, chaos-fault controller runs, and
//! worker counts 1/2/8.
//!
//! A proptest additionally pins the incremental-recompile contract: patching
//! one table after an entry op must be indistinguishable from compiling the
//! final program from scratch. Another holds the compiled engine's flat
//! single-field ways to [`MatchEngine`] lookup by lookup — entry, action and
//! probe count — over adversarial key sets and across every rebuild path.
//! Three more cases do the same for priority tables the compiled engine
//! checks in rank order, across entry ops that cross the one-rule-per-way
//! line, a hot-key guard and its memo.

use pipeleon::opts::{merge, EvalCtx};
use pipeleon::search::Optimizer;
use pipeleon::OptimizerConfig;
use pipeleon_cost::{CostModel, CostParams, Placement, RuntimeProfile, CACHE_INSERTION_RATE};
use pipeleon_ir::{
    Action, CacheRole, FieldRef, MatchKey, MatchKind, MatchValue, NodeId, Primitive,
    ProgramBuilder, ProgramGraph, Table, TableEntry,
};
use pipeleon_runtime::{
    graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, RuntimeError,
    SimTarget, Target,
};
use pipeleon_sim::{
    Applied, BatchStats, ControlOp, EngineMode, ExecReport, Executor, KeyScratch, MatchEngine,
    NicBackend, Packet, PacketTrace, ShardedNic, SmartNic,
};
use pipeleon_workloads::scenarios::{AclPipeline, LoadBalancer};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use proptest::prelude::*;

mod common;
use common::{assert_profiles_identical, example_programs, key_traffic, SYNTH_SEEDS};

/// The sharded-equivalence matrix, reused: 1 is the degenerate shard,
/// 2 the smallest real split, 8 more shards than distinct flows in some
/// phases.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Deterministic op-mix generator (distinct from any engine PRNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// One of `choices`.
    fn pick(&mut self, choices: &[u64]) -> u64 {
        choices[self.next() as usize % choices.len()]
    }
}

fn assert_stats_identical(a: BatchStats, b: BatchStats, ctx: &str) {
    // Bitwise, not approximate: both engines must apply every latency
    // term with identical operands in identical order.
    assert_eq!(
        a.mean_latency_ns.to_bits(),
        b.mean_latency_ns.to_bits(),
        "{ctx}: mean latency"
    );
    assert_eq!(
        a.p99_latency_ns.to_bits(),
        b.p99_latency_ns.to_bits(),
        "{ctx}: p99 latency"
    );
    assert_eq!(a, b, "{ctx}: full stats");
}

fn assert_reports_identical(a: &ExecReport, b: &ExecReport, ctx: &str) {
    assert_eq!(
        a.latency_ns.to_bits(),
        b.latency_ns.to_bits(),
        "{ctx}: latency bits"
    );
    assert_eq!(a, b, "{ctx}: full report");
}

/// A pair of single-worker NICs on the same program, one per engine.
fn nic_pair(g: &ProgramGraph, params: &CostParams, sample_every: u64) -> (SmartNic, SmartNic) {
    let mut interp =
        SmartNic::with_engine(g.clone(), params.clone(), EngineMode::Interpreter).unwrap();
    let mut compiled = SmartNic::new(g.clone(), params.clone()).unwrap();
    if sample_every > 0 {
        interp.set_instrumentation(true, sample_every);
        compiled.set_instrumentation(true, sample_every);
    }
    (interp, compiled)
}

/// Single-worker differential: every packet traced through both engines;
/// reports, packet mutations, traces, profiles and histograms must all be
/// bit-identical.
fn assert_single_worker_identical(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    sample_every: u64,
    ctx: &str,
) {
    let (interp, compiled) = nic_pair(g, params, sample_every);
    assert_pair_identical(interp, compiled, batch, ctx);
}

/// The same, for a pair the caller has set up.
fn assert_pair_identical(
    mut interp: SmartNic,
    mut compiled: SmartNic,
    batch: &[Packet],
    ctx: &str,
) {
    let mut ti = PacketTrace::default();
    let mut tc = PacketTrace::default();
    for (i, p) in batch.iter().enumerate() {
        let mut a = p.clone();
        let mut b = p.clone();
        let ra = interp.process_one_traced(&mut a, &mut ti);
        let rb = compiled.process_one_traced(&mut b, &mut tc);
        assert_reports_identical(&ra, &rb, &format!("{ctx}: packet {i}"));
        assert_eq!(a, b, "{ctx}: packet {i} contents diverged");
        assert_eq!(ti, tc, "{ctx}: packet {i} trace diverged");
    }
    assert_profiles_identical(
        &interp.take_profile(),
        &compiled.take_profile(),
        &format!("{ctx}: single worker"),
    );
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "{ctx}: observations diverged"
    );
}

/// Sharded differential across the worker matrix: merged batch stats,
/// merged profiles and merged histograms per engine must match.
fn assert_sharded_identical(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    sample_every: u64,
    ctx: &str,
) {
    for workers in WORKER_COUNTS {
        let mut interp =
            ShardedNic::with_engine(g.clone(), params.clone(), workers, EngineMode::Interpreter)
                .unwrap();
        let mut compiled = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        if sample_every > 0 {
            interp.set_instrumentation(true, sample_every);
            compiled.set_instrumentation(true, sample_every);
        }
        let ctx = format!("{ctx}: workers={workers}");
        assert_stats_identical(
            interp.measure(batch.to_vec()),
            compiled.measure(batch.to_vec()),
            &ctx,
        );
        assert_profiles_identical(&interp.take_profile(), &compiled.take_profile(), &ctx);
        assert_eq!(
            interp.take_observations(),
            compiled.take_observations(),
            "{ctx}: observations diverged"
        );
    }
}

#[test]
fn example_programs_match_bit_for_bit() {
    let params = CostParams::bluefield2();
    for (name, g) in example_programs() {
        let batch = key_traffic(&g, 300, 0xE0 + name.len() as u64, 1_000);
        assert_single_worker_identical(&g, &params, &batch, 1, &format!("example {name}"));
        assert_sharded_identical(&g, &params, &batch, 1, &format!("example {name}"));
    }
}

#[test]
fn synth_seed_matrix_matches_bit_for_bit() {
    for &seed in &SYNTH_SEEDS {
        let cfg = SynthConfig {
            pipelets: 2 + (seed % 3) as usize,
            pipelet_len: 2 + (seed % 2) as usize,
            match_mix: if seed % 2 == 0 {
                MatchMix::default_mix()
            } else {
                MatchMix::all_exact()
            },
            drop_fraction: if seed.is_multiple_of(3) { 0.25 } else { 0.0 },
            write_fraction: 0.2,
            seed,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        let params = if seed % 2 == 0 {
            CostParams::agilio_cx()
        } else {
            CostParams::emulated_nic()
        };
        let batch = key_traffic(&g, 500, seed * 101, 1_000);
        assert_single_worker_identical(&g, &params, &batch, 4, &format!("synth seed {seed}"));
        assert_sharded_identical(&g, &params, &batch, 4, &format!("synth seed {seed}"));
    }
}

/// What the graph view derives on every visit and lowering bakes once:
/// placement scales and migrations, and the `Fixed` match model's
/// charged probes on multi-way tables (which the
/// seed matrix only pairs with all-exact programs, where the model's
/// multiplier and the realised probe count are both 1).
#[test]
fn placement_and_the_fixed_match_model_match_bit_for_bit() {
    let g = synthesize(&SynthConfig {
        pipelets: 3,
        pipelet_len: 3,
        match_mix: MatchMix::default_mix(),
        drop_fraction: 0.1,
        write_fraction: 0.2,
        seed: 55,
        ..SynthConfig::default()
    });
    let params = CostParams::emulated_nic();
    let placement: Vec<Placement> = (0..g.id_bound())
        .map(|i| [Placement::Asic, Placement::Cpu][usize::from(i % 3 == 1)])
        .collect();
    let batch = key_traffic(&g, 300, 77, 1_000);
    let (mut interp, mut compiled) = nic_pair(&g, &params, 2);
    for nic in [&mut interp, &mut compiled] {
        nic.apply(ControlOp::SetPlacement(placement.clone()))
            .unwrap();
    }
    assert_pair_identical(interp, compiled, &batch, "placed, fixed model");
}

#[test]
fn uninstrumented_runs_also_match() {
    // The raw datapath (what the throughput benchmark times) with
    // sampling entirely off.
    let g = synthesize(&SynthConfig {
        drop_fraction: 0.1,
        seed: 21,
        ..SynthConfig::default()
    });
    let params = CostParams::bluefield2();
    let batch = key_traffic(&g, 400, 9, 2_000);
    let (mut interp, mut compiled) = nic_pair(&g, &params, 0);
    let mut ba = batch.clone();
    let mut bb = batch;
    let ra = interp.process_batch(&mut ba);
    let rb = compiled.process_batch(&mut bb);
    assert_eq!(ra.len(), rb.len());
    for (i, (a, b)) in ra.iter().zip(&rb).enumerate() {
        assert_reports_identical(a, b, &format!("uninstrumented packet {i}"));
    }
    assert_eq!(ba, bb, "uninstrumented packet contents diverged");
}

/// Builds: cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]
/// — the same shape the optimizer's flow-cache plans deploy.
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
fn flow_cache_state_and_charges_match() {
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let (mut interp, mut compiled) = nic_pair(&g, &params, 2);
    // 96 distinct flows against a 64-entry LRU: misses, hits, replays
    // and evictions all occur. Process, flush and reprocess at half the
    // insertion rate, then once more at twenty times it. The clock
    // advances `dt` before each packet, on both NICs.
    let packet = |i: u64| Packet::with_slots(vec![i % 96, 0]);
    let check = |interp: &mut SmartNic, compiled: &mut SmartNic, lo, hi, dt: f64, ctx: &str| {
        for i in lo..hi {
            let now_s = interp.now_s() + dt;
            interp.executor_mut().now_s = now_s;
            compiled.executor_mut().now_s = now_s;
            let mut a = packet(i);
            let mut b = packet(i);
            let ra = interp.process_one(&mut a);
            let rb = compiled.process_one(&mut b);
            assert_reports_identical(&ra, &rb, &format!("{ctx}: packet {i}"));
            assert_eq!(a, b, "{ctx}: packet {i} contents diverged");
        }
        assert_eq!(
            interp.executor_mut().cache_len(cache),
            compiled.executor_mut().cache_len(cache),
            "{ctx}: cache occupancy diverged"
        );
    };
    let (calm, fast) = (2.0 / CACHE_INSERTION_RATE, 0.05 / CACHE_INSERTION_RATE);
    check(&mut interp, &mut compiled, 0, 500, calm, "warm");
    interp.apply(ControlOp::FlushCache(cache)).unwrap();
    compiled.apply(ControlOp::FlushCache(cache)).unwrap();
    assert_eq!(interp.executor_mut().cache_len(cache), 0);
    check(&mut interp, &mut compiled, 500, 900, calm, "post-flush");
    let calm_profile = interp.take_profile();
    let stats = &calm_profile.cache_stats[&cache];
    assert_eq!(stats.insertions, stats.misses, "calm: nothing refused");
    assert_profiles_identical(&calm_profile, &compiled.take_profile(), "flow cache");
    // Faster than the limiter refills: once its burst is spent, misses
    // are refused an install.
    check(&mut interp, &mut compiled, 900, 2_400, fast, "throttled");
    let throttled = interp.take_profile();
    let stats = &throttled.cache_stats[&cache];
    assert!(stats.insertions < stats.misses, "throttled: {stats:?}");
    assert_profiles_identical(&throttled, &compiled.take_profile(), "throttled");
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "flow cache: observations diverged"
    );
    // Per-shard caches behave identically too.
    let batch: Vec<Packet> = (0..1_500).map(packet).collect();
    assert_sharded_identical(&g, &params, &batch, 2, "flow cache");
}

/// Three exact tables in a chain, entries managed at runtime.
fn churn_program() -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::new();
    let keys: Vec<FieldRef> = (0..3).map(|i| b.field(&format!("k{i}"))).collect();
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

fn churn_packet(i: u64) -> Packet {
    Packet::with_slots(vec![i % 24, (i * 7) % 24, (i * 13) % 24, 0])
}

/// [`churn_packet`] with `t0`'s key pinned to [`MAJORITY_K0`] in three
/// packets of four: a clear majority, so a `Specialize` has a guard to
/// plan whenever the sketches have seen enough of it.
fn majority_churn_packet(i: u64) -> Packet {
    let mut p = churn_packet(i);
    if !i.is_multiple_of(4) {
        p.set(FieldRef(0), MAJORITY_K0);
    }
    p
}

/// The key three of every four [`majority_churn_packet`]s carry to `t0`.
const MAJORITY_K0: u64 = 5;

/// Sampled lookups a table's sketch needs before `Specialize` trusts it.
const MIN_WINDOW: u64 = 64;

/// One deterministic entry op applied to both NICs in lock-step.
fn churn_op(
    rng: &mut Lcg,
    lens: &mut [usize],
    tables: &[NodeId],
    mut apply: impl FnMut(NodeId, Option<TableEntry>, usize),
) {
    let t = (rng.next() % tables.len() as u64) as usize;
    if lens[t] > 0 && rng.next().is_multiple_of(3) {
        let idx = (rng.next() % lens[t] as u64) as usize;
        apply(tables[t], None, idx);
        lens[t] -= 1;
    } else {
        let entry = TableEntry::new(vec![MatchValue::Exact(rng.next() % 24)], 0);
        apply(tables[t], Some(entry), 0);
        lens[t] += 1;
    }
}

#[test]
fn mid_stream_entry_churn_stays_identical() {
    let (g, tables) = churn_program();
    let params = CostParams::agilio_cx();
    let (mut interp, mut compiled) = nic_pair(&g, &params, 3);
    let mut rng = Lcg(0xDECAF);
    let mut lens = vec![0usize; tables.len()];
    let mut ops = 0u64;
    for chunk in 0..12u64 {
        let mut ba: Vec<Packet> = (0..96).map(|i| churn_packet(chunk * 96 + i)).collect();
        let mut bb = ba.clone();
        let ra = interp.process_batch(&mut ba);
        let rb = compiled.process_batch(&mut bb);
        for (i, (a, b)) in ra.iter().zip(&rb).enumerate() {
            assert_reports_identical(a, b, &format!("churn chunk {chunk} packet {i}"));
        }
        assert_eq!(ba, bb, "churn chunk {chunk}: packet contents diverged");
        for _ in 0..4 {
            churn_op(&mut rng, &mut lens, &tables, |table, entry, idx| {
                match entry {
                    Some(e) => {
                        interp.insert_entry(table, e.clone()).unwrap();
                        compiled.insert_entry(table, e).unwrap();
                    }
                    None => {
                        let a = interp.remove_entry(table, idx).unwrap();
                        let b = compiled.remove_entry(table, idx).unwrap();
                        assert_eq!(a, b, "removed different entries");
                    }
                }
                ops += 1;
            });
        }
    }
    assert_profiles_identical(&interp.take_profile(), &compiled.take_profile(), "churn");
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "churn: observations diverged"
    );
    // The compiled engine must have patched tables in place, never
    // recompiled the whole pipeline.
    let (full, patched) = compiled.executor_mut().compile_stats();
    assert_eq!(full, 1, "entry churn must not trigger full recompiles");
    assert_eq!(patched, ops, "every entry op patches exactly one node");
    assert_eq!(interp.executor_mut().compile_stats(), (0, 0));
}

/// A compiled NIC that takes entry inserts and removes, table
/// replacements and deploys between packets, its profile, sampling
/// schedule and histograms running on across all of them, reports,
/// measures, traces and profiles exactly what an interpreter NIC that
/// takes the same ops does.
#[test]
fn engines_switched_mid_window_follow_every_op() {
    let (g, tables) = churn_program();
    let params = CostParams::agilio_cx();
    let (mut interp, mut compiled) = nic_pair(&g, &params, 3);
    let mut rng = Lcg(0x1A2E);
    let (mut ti, mut tc) = (PacketTrace::default(), PacketTrace::default());
    let apply_both = |interp: &mut SmartNic, compiled: &mut SmartNic, op: ControlOp| {
        assert_eq!(interp.apply(op.clone()), compiled.apply(op));
    };
    let mut seq = 0u64;
    for phase in 0..4 {
        for step in 0..4 {
            let ctx = format!("phase {phase} step {step}");
            for i in 0..48 {
                seq += 1;
                let (mut a, mut b) = (churn_packet(seq), churn_packet(seq));
                let ra = interp.process_one_traced(&mut a, &mut ti);
                let rb = compiled.process_one_traced(&mut b, &mut tc);
                assert_reports_identical(&ra, &rb, &format!("{ctx}: packet {i}"));
                assert_eq!(a, b, "{ctx}: packet {i} contents diverged");
                assert_eq!(ti, tc, "{ctx}: packet {i} trace diverged");
            }
            let batch: Vec<Packet> = (0..64).map(|i| churn_packet(seq + i)).collect();
            seq += 64;
            assert_stats_identical(interp.measure(batch.clone()), compiled.measure(batch), &ctx);
            for _ in 0..3 {
                let node = tables[rng.next() as usize % tables.len()];
                let t = interp.graph().node(node).unwrap().as_table().unwrap();
                let (kind, len) = (t.keys[0].kind, t.entries.len());
                let op = if len > 0 && rng.next().is_multiple_of(3) {
                    let index = rng.next() as usize % len;
                    ControlOp::RemoveEntry { node, index }
                } else {
                    let value = rng.next() % 24;
                    let mv = match kind {
                        MatchKind::Exact => MatchValue::Exact(value),
                        _ => MatchValue::Ternary { value, mask: 0x1F },
                    };
                    let entry = TableEntry::with_priority(vec![mv], 0, (rng.next() % 3) as i32);
                    ControlOp::InsertEntry { node, entry }
                };
                apply_both(&mut interp, &mut compiled, op);
            }
            if step == 1 {
                // A table turns ternary: several ways, priorities.
                let node = tables[phase % tables.len()];
                let mut table = interp
                    .graph()
                    .node(node)
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .clone();
                table.keys[0].kind = MatchKind::Ternary;
                table.entries = (0..6)
                    .map(|_| {
                        let mv = MatchValue::Ternary {
                            value: rng.next() % 24,
                            mask: rng.pick(&[0x1F, 0x7, 0x3]),
                        };
                        let prio = (rng.next() % 3) as i32;
                        TableEntry::with_priority(vec![mv], (rng.next() % 2) as usize, prio)
                    })
                    .collect();
                let op = ControlOp::ReplaceTable {
                    node,
                    table,
                    next: None,
                };
                apply_both(&mut interp, &mut compiled, op);
            }
            if step == 3 {
                // The program as it stands, with another entry per table.
                let mut next = interp.graph().clone();
                for &node in &tables {
                    let t = next.node_mut(node).and_then(|n| n.as_table_mut()).unwrap();
                    let value = rng.next() % 24;
                    let mv = match t.keys[0].kind {
                        MatchKind::Exact => MatchValue::Exact(value),
                        _ => MatchValue::Ternary { value, mask: 0xF },
                    };
                    t.entries.push(TableEntry::with_priority(vec![mv], 0, 2));
                }
                apply_both(&mut interp, &mut compiled, ControlOp::Deploy(next));
            }
        }
    }
    assert_profiles_identical(&interp.take_profile(), &compiled.take_profile(), "every op");
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "every op: observations diverged"
    );
}

/// Everything observable about one chaos-fault controller run.
#[derive(Debug, PartialEq)]
struct ChaosSignature {
    ticks: Vec<(bool, bool)>,
    reconfigs: usize,
    fingerprint: u64,
    faults: u64,
    health: (u64, u64, u64, bool, bool),
    probe_bits: Vec<(u64, bool)>,
}

/// Runs the chaos-controller loop (fault injection + entry churn + drifting
/// traffic) on one engine and captures every externally visible outcome.
fn chaos_signature(seed: u64, mode: EngineMode) -> ChaosSignature {
    let p = AclPipeline::build(3, 3);
    let mut nic = SmartNic::with_engine(p.graph.clone(), CostParams::bluefield2(), mode).unwrap();
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
    let mut rng = Lcg(seed ^ 0xC0FFEE);
    let mut ticks = Vec::new();
    for w in 0..5u64 {
        let n = p.acls.len();
        let mut rates = vec![0.0; n];
        rates[(seed as usize + w as usize) % n] = 0.6;
        let mut gen = p.traffic(&rates, 300, seed * 1000 + w);
        for mut pkt in gen.batch(2_000) {
            c.target.inner.nic.process_one(&mut pkt);
        }
        let ti = (rng.next() % n as u64) as usize;
        let value = 0x3_0000 + seed * 0x100 + w;
        match c.insert_entry(
            p.acls[ti],
            TableEntry::new(vec![MatchValue::Exact(value)], 1),
        ) {
            Ok(()) | Err(RuntimeError::EntryOpFailed { .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected insert error: {e}"),
        }
        let r = c.tick().unwrap();
        ticks.push((r.deployed, r.health.pin_pending));
    }
    // Healing tick with faults disarmed, then probe the deployed state.
    c.target.set_armed(false);
    let mut gen = p.traffic(&[0.2, 0.2, 0.2], 300, seed * 7919);
    for mut pkt in gen.batch(1_000) {
        c.target.inner.nic.process_one(&mut pkt);
    }
    let _ = c.tick().unwrap();
    let mut probe_bits = Vec::new();
    let mut gen = p.traffic(&[0.3, 0.0, 0.3], 200, seed * 31);
    for mut pkt in gen.batch(500) {
        let r = c.target.inner.nic.process_one(&mut pkt);
        probe_bits.push((r.latency_ns.to_bits(), r.dropped));
    }
    let h = c.health().clone();
    ChaosSignature {
        ticks,
        reconfigs: c.reconfig_count,
        fingerprint: c.target.fingerprint().unwrap(),
        faults: c.target.fault_count(),
        health: (
            h.deploy_retries,
            h.rollbacks,
            h.profile_losses,
            h.degraded,
            h.pin_pending,
        ),
        probe_bits,
    }
}

#[test]
fn chaos_runs_are_engine_invariant() {
    // The controller only sees profiles and stats; since both engines
    // report bit-identical telemetry, every decision — deploys, retries,
    // rollbacks, breaker state, the final deployed layout — must be the
    // same whichever engine the NIC runs.
    for &seed in &SYNTH_SEEDS[..4] {
        let interp = chaos_signature(seed, EngineMode::Interpreter);
        let compiled = chaos_signature(seed, EngineMode::Compiled);
        assert_eq!(interp, compiled, "seed {seed}: chaos runs diverged");
    }
}

/// FxHash's multiplier, which the compiled engine's flat ways hash with.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Spare actions a [`way_table`] declares past its entries, for inserts.
const SPARE_ACTIONS: usize = 4;

/// Fields a [`way_table`] may key on; every probe carries all of them.
const WAY_FIELDS: usize = 3;

/// [`way_table`]'s shapes.
const WAY_SHAPES: usize = 10;

/// A table of `n` entries whose entry set stresses the way layout and
/// the flat ways. Entry `i` runs action `i`, so the action a lookup
/// resolves names the entry it matched; the last action is the miss.
///
/// Single-field `shape`s, one `kind` key on field 0: 0 random keys · 1 a
/// small domain, so keys repeat and lists hold several entries · 2 the
/// extremes (`0`, `u64::MAX` and their neighbours) among random keys · 3
/// keys that all hash to home slot 0 (multiples of the multiplier's
/// inverse), one long probe run · 4 exactly `7·2^k` distinct keys, a way
/// filled to its 7/8 load limit.
///
/// Layout corner cases, whatever `kind`: 5 exact keys each installed
/// about twice, the copies half the table apart (a multi-entry list per
/// key) · 6 two LPM keys whose prefix pairs mostly tie on total length
/// (`/32 /16`, `/16 /32`, `/48 /0`, ...), drawn in shuffled entry order
/// over overlapping values, so the stable specificity sort decides which
/// way a packet hits first · 7 one ternary key whose three mask patterns
/// recur non-adjacently (A B A C B A ...) over overlapping values with
/// tied priorities · 8 three keys, exact + ternary + LPM, in multi-field
/// ways · 9 a ternary key beside a range key: every entry on the scan
/// list, resolved by priority with the ways' rules.
fn way_table(kind: MatchKind, shape: usize, n: usize, rng: &mut Lcg) -> Table {
    let mut fx_inv: u64 = 1;
    for _ in 0..6 {
        fx_inv = fx_inv.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(fx_inv)));
    }
    let n = match shape {
        4 => 7 << (n.max(7) / 7).ilog2(),
        _ => n,
    };
    use MatchKind::{Exact, Lpm, Range, Ternary};
    let kinds = match shape {
        0..=4 => vec![kind],
        5 => vec![Exact],
        6 => vec![Lpm, Lpm],
        7 => vec![Ternary],
        8 => vec![Exact, Ternary, Lpm],
        _ => vec![Ternary, Range],
    };
    let mut t = Table::new("t");
    t.keys = kinds
        .into_iter()
        .enumerate()
        .map(|(f, kind)| MatchKey {
            field: FieldRef(f as u16),
            kind,
        })
        .collect();
    t.actions = (0..n + SPARE_ACTIONS)
        .map(|i| Action::nop(format!("a{i}")))
        .collect();
    t.actions.push(Action::nop("miss"));
    t.default_action = n + SPARE_ACTIONS;
    for i in 0..n as u64 {
        let wide = (rng.next() << 31) ^ rng.next();
        let (matches, prio) = match shape {
            5 => {
                let value = (i % (n as u64 / 2 + 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (vec![MatchValue::Exact(value)], 0)
            }
            6 => {
                let lens = [
                    (32, 16),
                    (16, 32),
                    (48, 0),
                    (0, 48),
                    (24, 24),
                    (64, 64),
                    (8, 8),
                ];
                let (a, b) = lens[rng.next() as usize % lens.len()];
                let mut lpm = |prefix_len| MatchValue::Lpm {
                    value: rng.pick(&[0, 1 << 63])
                        | rng.pick(&[0, 1 << 40])
                        | rng.pick(&[0, 1 << 20]),
                    prefix_len,
                };
                (vec![lpm(a), lpm(b)], 0)
            }
            7 => {
                let mask = [0xFF00, 0x0FF0, 0xF00F][[0, 1, 0, 2, 1, 0][i as usize % 6]];
                let value = rng.next() % 0x1_0000;
                let prio = (rng.next() % 3) as i32;
                (vec![MatchValue::Ternary { value, mask }], prio)
            }
            8 => (
                vec![
                    MatchValue::Exact(rng.pick(&[0, 1, 2, 3])),
                    MatchValue::Ternary {
                        value: rng.pick(&[0, 5, 10, 15]),
                        mask: rng.pick(&[0xF, 0x3, 0]),
                    },
                    MatchValue::Lpm {
                        value: rng.pick(&[0, 1 << 62, 2 << 62, 3 << 62]),
                        prefix_len: rng.pick(&[2, 1, 0]) as u8,
                    },
                ],
                (rng.next() % 4) as i32,
            ),
            9 => {
                let lo = rng.next() % 64;
                let ternary = MatchValue::Ternary {
                    value: rng.pick(&[0, 5, 10, 15]),
                    mask: rng.pick(&[0xF, 0x3, 0]),
                };
                let range = MatchValue::Range {
                    lo,
                    hi: lo + rng.next() % 32,
                };
                (vec![ternary, range], (rng.next() % 4) as i32)
            }
            _ => {
                let value = match shape {
                    1 => rng.next() % (n as u64 / 3 + 1),
                    2 => match rng.next() % 6 {
                        0 => 0,
                        1 => u64::MAX,
                        2 => 1,
                        3 => u64::MAX - 1,
                        _ => wide,
                    },
                    3 => i.wrapping_mul(fx_inv),
                    4 => i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    _ => wide,
                };
                let prio = (rng.next() % 4) as i32;
                let mv = match kind {
                    Exact => MatchValue::Exact(value),
                    Lpm => MatchValue::Lpm {
                        value,
                        prefix_len: [64u8, 48, 32, 8, 0][(rng.next() % 5) as usize],
                    },
                    _ => MatchValue::Ternary {
                        value,
                        mask: [u64::MAX, 0xFFFF_FFFF_0000_0000, 0xFF, 0][(rng.next() % 4) as usize],
                    },
                };
                (vec![mv], prio)
            }
        };
        t.entries
            .push(TableEntry::with_priority(matches, i as usize, prio));
    }
    t.validate().expect("generated table is valid");
    t
}

/// A probe: one value per [`WAY_FIELDS`] field.
type WayProbe = [u64; WAY_FIELDS];

/// An entry of `t` matching exactly `key` on every key field (a one-value
/// range on a range key), running `action` at priority `prio`.
fn entry_at(t: &Table, key: WayProbe, action: usize, prio: i32) -> TableEntry {
    let matches = t.keys.iter().map(|k| {
        let value = key[k.field.0 as usize];
        match k.kind {
            MatchKind::Exact => MatchValue::Exact(value),
            MatchKind::Lpm => MatchValue::Lpm {
                value,
                prefix_len: 64,
            },
            MatchKind::Ternary => MatchValue::Ternary {
                value,
                mask: u64::MAX,
            },
            MatchKind::Range => MatchValue::Range {
                lo: value,
                hi: value,
            },
        }
    });
    TableEntry::with_priority(matches.collect(), action, prio)
}

/// Keys to look up in `t`: installed values (as stored, and with the
/// bits a mask ignores flipped), their neighbours, the extremes, and
/// keys that are not installed.
fn way_probes(t: &Table, rng: &mut Lcg) -> Vec<WayProbe> {
    let mut keys: Vec<WayProbe> = [0, 1, u64::MAX, u64::MAX - 1]
        .map(|v| [v; WAY_FIELDS])
        .to_vec();
    let step = t.entries.len() / 64 + 1;
    for e in t.entries.iter().step_by(step) {
        let mut key = [0; WAY_FIELDS];
        for (mv, k) in e.matches.iter().zip(&t.keys) {
            key[k.field.0 as usize] = match *mv {
                MatchValue::Exact(v) => v,
                MatchValue::Lpm { value, .. } | MatchValue::Ternary { value, .. } => value,
                MatchValue::Range { lo, .. } => lo,
            };
        }
        for vary in [
            |v| v,
            |v| v ^ 0xFF00,
            |v: u64| v.wrapping_add(1),
            |v: u64| v.wrapping_sub(1),
        ] {
            keys.push(key.map(vary));
        }
    }
    for _ in 0..64 {
        keys.push([(); WAY_FIELDS].map(|_| (rng.next() << 31) ^ rng.next()));
    }
    keys
}

/// Every probe through the compiled datapath resolves what
/// [`MatchEngine`] resolves on the table as currently deployed: same
/// action (hence, actions being one per entry, the same entry), same
/// probe count, hit or miss.
fn assert_ways_match_oracle(
    nic: &mut SmartNic,
    node: NodeId,
    probes: &[WayProbe],
    stage: &str,
) -> Result<(), TestCaseError> {
    let table = nic
        .graph()
        .node(node)
        .and_then(|n| n.as_table())
        .expect("table node")
        .clone();
    let oracle = MatchEngine::build(&table);
    let mut scratch = KeyScratch::new();
    let mut trace = PacketTrace::default();
    for k in probes {
        let mut p = Packet::with_slots(k.to_vec());
        let want = oracle.lookup(&table, &p, &mut scratch);
        if let Some(e) = want.entry {
            prop_assert_eq!(table.entries[e].action, want.action);
        }
        let got = nic.process_one_traced(&mut p, &mut trace);
        prop_assert_eq!(
            trace.actions(),
            vec![(node, want.action)],
            "{}: key {:x?} resolved a different entry (oracle entry {:?})",
            stage,
            k,
            want.entry
        );
        prop_assert_eq!(
            got.probes,
            want.probes,
            "{}: key {:x?} probe count",
            stage,
            k
        );
    }
    Ok(())
}

/// A one-table program over [`WAY_FIELDS`] fields.
fn one_table_program(table: Table) -> (ProgramGraph, NodeId) {
    let mut b = ProgramBuilder::new();
    for f in 0..WAY_FIELDS {
        b.field(&format!("k{f}"));
    }
    let node = b.add_table(table);
    (b.seal(node).unwrap(), node)
}

/// A priority table keyed on `kinds` (field `i` for key `i`) whose rules
/// all have distinct mask patterns, so each way of its layout holds one
/// rule: the ranked form. Rule `i` runs action `i`, draws its priority
/// from `0..prios` (small `prios` make ties), and values come from small
/// domains so that rules overlap. `catch_all` makes rule 0 a mask-0
/// ternary rule, which every key matches.
fn ranked_table(kinds: &[MatchKind], rules: usize, prios: u64, catch_all: bool) -> Table {
    let mut rng = Lcg(rules as u64 * 31 + prios);
    let mut masks: Vec<u64> = (1..256).collect();
    let mut t = Table::new("ranked");
    t.keys = kinds
        .iter()
        .enumerate()
        .map(|(f, &kind)| MatchKey {
            field: FieldRef(f as u16),
            kind,
        })
        .collect();
    t.actions = (0..rules + SPARE_ACTIONS)
        .map(|i| Action::nop(format!("a{i}")))
        .collect();
    t.actions.push(Action::nop("miss"));
    t.default_action = rules + SPARE_ACTIONS;
    for i in 0..rules {
        let mask = masks.swap_remove(rng.next() as usize % masks.len());
        let prio = (rng.next() % prios) as i32;
        let matches = kinds.iter().map(|kind| match kind {
            MatchKind::Exact => MatchValue::Exact(rng.next() % 4),
            MatchKind::Lpm => MatchValue::Lpm {
                value: rng.next() << 58,
                prefix_len: (rng.next() % 7) as u8,
            },
            MatchKind::Ternary => MatchValue::Ternary {
                value: rng.next() % 256,
                mask: if catch_all && i == 0 { 0 } else { mask },
            },
            MatchKind::Range => {
                let lo = rng.next() % 64;
                MatchValue::Range {
                    lo,
                    hi: lo + rng.next() % 24,
                }
            }
        });
        t.entries
            .push(TableEntry::with_priority(matches.collect(), i, prio));
    }
    t.validate().expect("generated table is valid");
    t
}

/// Keys over the small domains [`ranked_table`] draws from, and the
/// extremes.
fn ranked_probes() -> Vec<WayProbe> {
    let mut keys: Vec<WayProbe> = (0..512u64)
        .map(|i| [i % 256, (i * 37) % 80, i % 5])
        .collect();
    keys.extend([[0; WAY_FIELDS], [u64::MAX; WAY_FIELDS], [1 << 63, 3, 1]]);
    keys
}

/// The table `opts::merge` builds from `LoadBalancer`'s first two proc
/// tables once they hold `installed` exact keys each: a ternary cross
/// product with one mask pattern per hit/miss combination.
fn merged_proc_pair(installed: [&[u64]; 2]) -> Table {
    let mut lb = LoadBalancer::build();
    for (&node, keys) in lb.regular.iter().zip(installed) {
        let t = lb.graph.node_mut(node).unwrap().as_table_mut().unwrap();
        for &k in keys {
            t.entries
                .push(TableEntry::new(vec![MatchValue::Exact(k)], 0));
        }
    }
    let (model, cfg) = (
        CostModel::new(CostParams::bluefield2()),
        OptimizerConfig::default(),
    );
    let profile = RuntimeProfile::empty();
    let ctx = EvalCtx {
        model: &model,
        cfg: &cfg,
        g: &lb.graph,
        profile: &profile,
        reach: 1.0,
    };
    let merged = merge::materialize(&ctx, &lb.regular[..2], false).expect("proc pair merges");
    let mut table = merged.table;
    assert!(
        table.keys.iter().all(|k| (k.field.0 as usize) < WAY_FIELDS),
        "the proc pair keys on the first flow fields"
    );
    // One action per rule, so the resolved action names the entry.
    let rules = table.entries.len();
    table.actions = (0..=rules).map(|i| Action::nop(format!("r{i}"))).collect();
    for (i, e) in table.entries.iter_mut().enumerate() {
        e.action = i;
    }
    table.default_action = rules;
    table
}

/// `table` alone in a program: the compiled NIC resolves every probe as
/// [`MatchEngine`] does (entry, action, probes), and the two engines'
/// NICs report, trace and profile the same packets bit for bit.
fn assert_table_matches_interpreter(table: Table, probes: &[WayProbe], ctx: &str) {
    let (g, node) = one_table_program(table);
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
    assert_ways_match_oracle(&mut nic, node, probes, ctx).unwrap();
    let batch: Vec<Packet> = probes
        .iter()
        .map(|k| Packet::with_slots(k.to_vec()))
        .collect();
    assert_single_worker_identical(&g, &params, &batch, 1, ctx);
}

/// Priority tables with one rule per way, which the compiled engine
/// checks in rank order, and neighbours that keep the way sweep: no
/// rules (a miss still charges one probe), equal-priority ties, a key
/// installed twice (two rules in one way), a mask-0 catch-all, range
/// rules alone and beside ternary masks, three-key tables, and the
/// merged tables `opts::merge` builds from `LoadBalancer`'s proc pairs
/// (one rule per hit/miss pattern at one key each, several per pattern
/// at more).
#[test]
fn ranked_priority_tables_match_the_interpreter() {
    use MatchKind::{Exact, Lpm, Range, Ternary};
    let probes = ranked_probes();
    let ties = ranked_table(&[Ternary], 12, 2, false);
    let mut key_twice = ties.clone();
    let mut copy = key_twice.entries[3].clone();
    copy.action = 12;
    key_twice.entries.push(copy);
    let cases = [
        ("no rules", ranked_table(&[Ternary], 0, 1, false)),
        ("ties", ties),
        ("key installed twice", key_twice),
        ("catch-all", ranked_table(&[Ternary], 12, 3, true)),
        ("ranges", ranked_table(&[Range], 10, 2, false)),
        (
            "ternary + range",
            ranked_table(&[Ternary, Range], 10, 2, false),
        ),
        (
            "exact + ternary + range",
            ranked_table(&[Exact, Ternary, Range], 10, 3, true),
        ),
        (
            "ternary + range + lpm",
            ranked_table(&[Ternary, Range, Lpm], 10, 3, false),
        ),
        ("merged 1x1", merged_proc_pair([&[3], &[37]])),
        ("merged 3x2", merged_proc_pair([&[3, 7, 11], &[37, 74]])),
    ];
    for (ctx, table) in cases {
        assert_table_matches_interpreter(table, &probes, ctx);
    }
}

/// Entry ops that take a ranked table across the one-rule-per-way line
/// and back: a second rule under an installed key puts the table on its
/// ways, removing it ranks the table again, and a rule under a fresh mask
/// keeps it ranked. Each op patches the one node (no full recompile),
/// and after each the compiled engine resolves what the interpreter does.
#[test]
fn entry_ops_move_a_table_across_the_ranked_line_and_back() {
    let probes = ranked_probes();
    let table = ranked_table(&[MatchKind::Ternary], 12, 2, true);
    let twin = TableEntry {
        action: 12,
        ..table.entries[5].clone()
    };
    let fresh = TableEntry::with_priority(
        vec![MatchValue::Ternary {
            value: 0x1234,
            mask: 0xFFFF,
        }],
        13,
        1,
    );
    let (g, node) = one_table_program(table);
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
    let mut exec = Executor::new(g, params, EngineMode::Compiled).unwrap();
    let ops = [
        ControlOp::InsertEntry { node, entry: twin },
        ControlOp::RemoveEntry { node, index: 12 },
        ControlOp::InsertEntry { node, entry: fresh },
        ControlOp::RemoveEntry { node, index: 0 },
    ];
    assert_ways_match_oracle(&mut nic, node, &probes, "ranked").unwrap();
    exec.process(&mut Packet::with_slots(vec![0; WAY_FIELDS]));
    for (i, op) in ops.into_iter().enumerate() {
        nic.apply(op.clone()).unwrap();
        exec.apply(&op).unwrap();
        exec.process(&mut Packet::with_slots(vec![0; WAY_FIELDS]));
        assert_ways_match_oracle(&mut nic, node, &probes, &format!("after op {i}")).unwrap();
        assert_eq!(
            exec.compile_stats(),
            (1, i as u64 + 1),
            "op {i} patched one node"
        );
    }
}

/// A ranked table behind a hot-key guard: the guard's baked outcome, the
/// lookup memo behind its misses (filled on the first pass over the
/// keys, answering on the second) and the table after `Despecialize`
/// all resolve what the interpreter does.
#[test]
fn specialized_ranked_table_bakes_and_memoises_like_the_interpreter() {
    let probes = ranked_probes();
    let (g, node) = one_table_program(ranked_table(&[MatchKind::Ternary], 12, 2, false));
    let mut nic = SmartNic::new(g, CostParams::bluefield2()).unwrap();
    nic.set_instrumentation(true, 1);
    let hot = probes[7];
    let mut burst: Vec<Packet> = (0..256).map(|_| Packet::with_slots(hot.to_vec())).collect();
    nic.process_batch(&mut burst);
    assert!(nic.specialize(), "a one-key window earns a guard");
    nic.set_instrumentation(false, 1);
    assert_eq!(nic.spec_stats().specialized_tables, 1);
    for pass in ["guarded", "guarded, memo warm"] {
        assert_ways_match_oracle(&mut nic, node, &probes, pass).unwrap();
    }
    let stats = nic.spec_stats();
    assert!(stats.guard_hits > 0, "the hot key took the baked outcome");
    assert!(
        stats.memo_hits >= (probes.len() / 2) as u64,
        "the second pass is answered by the memo: {stats:?}"
    );
    nic.apply(ControlOp::Despecialize).unwrap();
    assert_eq!(nic.spec_stats().specialized_tables, 0);
    assert_ways_match_oracle(&mut nic, node, &probes, "despecialized").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The compiled engine's ways against the [`MatchEngine`] oracle,
    /// lookup by lookup, on 1-10,000-entry tables of every
    /// [`way_table`] shape — as lowered, and after every path that
    /// rebuilds a way or puts a guard in front of it: entry inserts and
    /// removes, a table replacement, `specialize()` and `despecialize()`.
    #[test]
    fn flat_ways_match_the_match_engine_oracle(
        kind in 0usize..3,
        shape in 0usize..WAY_SHAPES,
        size_class in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let kind = [MatchKind::Exact, MatchKind::Ternary, MatchKind::Lpm][kind];
        let mut rng = Lcg(seed);
        let n = [1, 2, 7, 30, 120, 500, 2_000, 10_000][size_class];
        let n = 1 + n / 2 + rng.next() as usize % (n - n / 2);
        let table = way_table(kind, shape, n, &mut rng);
        let spare = table.entries.len();
        let mut probes = way_probes(&table, &mut rng);

        let (g, node) = one_table_program(table);
        let mut nic = SmartNic::new(g, CostParams::bluefield2()).unwrap();
        assert_ways_match_oracle(&mut nic, node, &probes, "lowered")?;

        // A window dominated by one installed key earns a hot-key guard.
        let hot_key = probes[4];
        let specialize = |nic: &mut SmartNic| {
            nic.set_instrumentation(true, 1);
            let mut hot: Vec<Packet> =
                (0..256).map(|_| Packet::with_slots(hot_key.to_vec())).collect();
            nic.process_batch(&mut hot);
            nic.specialize();
            nic.set_instrumentation(false, 1);
        };
        specialize(&mut nic);
        prop_assert!(nic.spec_stats().specialized_tables == 1, "guard installed");
        assert_ways_match_oracle(&mut nic, node, &probes, "specialized")?;

        // Inserts (the first strips the specialization): a second entry
        // under an installed key — a list of several entries — and fresh
        // keys at the extremes.
        let installed = [(hot_key, 9), ([0; WAY_FIELDS], 0), ([u64::MAX; WAY_FIELDS], 1)];
        for (i, (key, prio)) in installed.into_iter().enumerate() {
            let table = nic.graph().node(node).unwrap().as_table().unwrap();
            let entry = entry_at(table, key, spare + i, prio);
            nic.insert_entry(node, entry).unwrap();
        }
        assert_ways_match_oracle(&mut nic, node, &probes, "after inserts")?;
        for _ in 0..2 {
            let len = nic.graph().node(node).unwrap().as_table().unwrap().entries.len();
            nic.remove_entry(node, rng.next() as usize % len).unwrap();
        }
        assert_ways_match_oracle(&mut nic, node, &probes, "after removes")?;
        specialize(&mut nic);
        assert_ways_match_oracle(&mut nic, node, &probes, "re-specialized")?;
        nic.apply(ControlOp::Despecialize).unwrap();
        assert_ways_match_oracle(&mut nic, node, &probes, "despecialized")?;

        let other = way_table(kind, (shape + 1) % WAY_SHAPES, n / 2 + 1, &mut rng);
        probes.extend(way_probes(&other, &mut rng));
        nic.apply(ControlOp::ReplaceTable { node, table: other, next: None }).unwrap();
        assert_ways_match_oracle(&mut nic, node, &probes, "replaced")?;
    }

    /// Incremental-recompile soundness: an executor that compiled early
    /// and patched tables per entry op must be indistinguishable from one
    /// built on the final program after the ops, which compiles it from
    /// scratch, and from the interpreter that took the same ops.
    #[test]
    fn recompile_after_entry_ops_matches_scratch_compile(
        ops in prop::collection::vec((0usize..3, 0u64..64), 1..24),
        traffic_seed in 0u64..1_000,
    ) {
        let (g, tables) = churn_program();
        let params = CostParams::bluefield2();
        let mut patched = Executor::new(g.clone(), params.clone(), EngineMode::Compiled).unwrap();
        let mut oracle = Executor::new(g, params.clone(), EngineMode::Interpreter).unwrap();
        let instrument = ControlOp::SetInstrumentation { enabled: true, sample_every: 2 };
        patched.apply(&instrument).unwrap();
        oracle.apply(&instrument).unwrap();
        for i in 0..64u64 {
            let mut a = churn_packet(traffic_seed + i);
            let mut b = a.clone();
            let ra = patched.process(&mut a);
            let rb = oracle.process(&mut b);
            prop_assert_eq!(ra, rb, "warm packet {} diverged", i);
        }
        let mut lens = vec![0usize; tables.len()];
        for &(t, k) in &ops {
            if lens[t] > 0 && k.is_multiple_of(3) {
                let op = ControlOp::RemoveEntry { node: tables[t], index: (k as usize) % lens[t] };
                let removed = patched.apply(&op).unwrap();
                prop_assert!(matches!(removed, Applied::Removed(_)), "{:?}", removed);
                prop_assert_eq!(oracle.apply(&op).unwrap(), removed);
                lens[t] -= 1;
            } else {
                let entry = TableEntry::new(vec![MatchValue::Exact(k % 24)], 0);
                let op = ControlOp::InsertEntry { node: tables[t], entry };
                patched.apply(&op).unwrap();
                oracle.apply(&op).unwrap();
                lens[t] += 1;
            }
        }
        prop_assert_eq!(patched.take_profile(), oracle.take_profile());
        // The 64 warm packets leave the 1-in-2 sampling schedule where a
        // fresh executor starts it.
        let mut scratch = Executor::new(oracle.graph().clone(), params, EngineMode::Compiled).unwrap();
        scratch.apply(&instrument).unwrap();
        for i in 0..128u64 {
            let mut a = churn_packet(traffic_seed * 31 + i);
            let (mut b, mut c) = (a.clone(), a.clone());
            let ra = patched.process(&mut a);
            let rb = scratch.process(&mut b);
            prop_assert_eq!(ra.latency_ns.to_bits(), rb.latency_ns.to_bits(),
                "post-op packet {} latency diverged", i);
            prop_assert_eq!(ra, rb, "post-op packet {} diverged", i);
            prop_assert_eq!(&a, &b, "post-op packet {} contents diverged", i);
            prop_assert_eq!(rb, oracle.process(&mut c), "post-op packet {} vs the oracle", i);
            prop_assert_eq!(&b, &c, "post-op packet {} contents vs the oracle", i);
        }
        let want = oracle.take_profile();
        prop_assert_eq!(patched.take_profile(), want.clone());
        prop_assert_eq!(scratch.take_profile(), want);
        // The patched executor compiled once and patched per op; the
        // scratch executor compiled once, after the ops, and never patched.
        let (pf, pr) = patched.compile_stats();
        prop_assert_eq!(pf, 1, "patching must never fall back to a full recompile");
        prop_assert_eq!(pr, ops.len() as u64);
        prop_assert_eq!(scratch.compile_stats(), (1, 0));
        prop_assert_eq!(oracle.compile_stats(), (0, 0));
    }

    /// [`live_patch_and_swap_case`] over random op sequences.
    #[test]
    fn live_patch_and_swap_converge_to_scratch(
        ops in prop::collection::vec((0usize..3, 0u64..64, 0u8..10), 1..16),
        split in 0usize..16,
        swap_key in 0u64..24,
        traffic_seed in 0u64..1_000,
    ) {
        live_patch_and_swap_case(&ops, split, swap_key, traffic_seed)?;
    }
}

/// An op is an op: a random [`ControlOp`] sequence — entry patches
/// around a full program swap (`split == 0` is swap-then-patch,
/// `split >= ops.len()` patch-then-swap), with table replacements,
/// instrumentation flips, placements, cache flushes, specialize and
/// despecialize mixed in — with packets between the
/// ops, driven through `Executor::apply`, `SmartNic::apply` and
/// `ShardedNic::apply` at 1/2/8 workers (mid-flight there). Every
/// backend must lose nothing, merge the same
/// sample-1 profile, land on the program a model built from the op
/// list alone describes, and forward probes like a NIC built from
/// that model from scratch.
///
/// The packets are [`majority_churn_packet`]s, and the first
/// [`MIN_WINDOW`] of them arrive before any op, so a `Specialize` finds
/// `t0`'s majority key in the sketches. Returns how many `Specialize`
/// ops the executor was given and how many of them it applied.
fn live_patch_and_swap_case(
    ops: &[(usize, u64, u8)],
    split: usize,
    swap_key: u64,
    traffic_seed: u64,
) -> Result<(usize, usize), TestCaseError> {
    let (g, tables) = churn_program();
    let params = CostParams::bluefield2();
    let split = split.min(ops.len());
    // The swap target: the base program plus one rule on t0. A full
    // deploy replaces the whole program, so pre-swap ops are wiped.
    let mut swapped = g.clone();
    swapped
        .node_mut(tables[0])
        .unwrap()
        .as_table_mut()
        .unwrap()
        .entries
        .push(TableEntry::new(vec![MatchValue::Exact(swap_key)], 0));

    // The op list as data, and the program it describes: `model` is
    // built purely from the ops, no datapath.
    let mut model = g.clone();
    let mut sequence: Vec<ControlOp> = Vec::new();
    let entries = |model: &ProgramGraph, t: usize| {
        model
            .node(tables[t])
            .unwrap()
            .as_table()
            .unwrap()
            .entries
            .len()
    };
    for (i, &(t, k, kind)) in ops.iter().enumerate() {
        if i == split {
            sequence.push(ControlOp::Deploy(swapped.clone()));
            model = swapped.clone();
        }
        let node = tables[t];
        fn table(model: &mut ProgramGraph, node: NodeId) -> &mut Table {
            model.node_mut(node).unwrap().as_table_mut().unwrap()
        }
        sequence.push(match kind {
            0..=3 if entries(&model, t) > 0 && k.is_multiple_of(3) => {
                let index = (k as usize) % entries(&model, t);
                table(&mut model, node).entries.remove(index);
                ControlOp::RemoveEntry { node, index }
            }
            0..=3 => {
                let entry = TableEntry::new(vec![MatchValue::Exact(k % 24)], 0);
                table(&mut model, node).entries.push(entry.clone());
                ControlOp::InsertEntry { node, entry }
            }
            4 => {
                let t = table(&mut model, node);
                t.entries
                    .push(TableEntry::new(vec![MatchValue::Exact(23)], 0));
                ControlOp::ReplaceTable {
                    node,
                    table: t.clone(),
                    next: None,
                }
            }
            5 => ControlOp::SetInstrumentation {
                enabled: k % 2 == 0,
                sample_every: 1,
            },
            7 => ControlOp::Specialize,
            8 => ControlOp::Despecialize,
            _ => match k % 2 {
                0 => ControlOp::SetPlacement(
                    (0..g.id_bound())
                        .map(|i| [Placement::Asic, Placement::Cpu][(i + t) % 2])
                        .collect(),
                ),
                _ => ControlOp::FlushCache(node),
            },
        });
    }
    if split == ops.len() {
        sequence.push(ControlOp::Deploy(swapped.clone()));
        model = swapped;
    }

    // The backends: a bare executor, the single NIC, and the sharded
    // NIC over the worker matrix.
    let mut exec = Executor::new(g.clone(), params.clone(), EngineMode::Compiled).unwrap();
    let mut nics: Vec<(String, Box<dyn NicBackend>)> = vec![(
        "single".into(),
        Box::new(SmartNic::new(g.clone(), params.clone()).unwrap()),
    )];
    for workers in WORKER_COUNTS {
        let nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        nics.push((format!("sharded x{workers}"), Box::new(nic)));
    }
    let instrument = ControlOp::SetInstrumentation {
        enabled: true,
        sample_every: 1,
    };
    exec.apply(&instrument).unwrap();
    for (_, nic) in &mut nics {
        nic.apply(instrument.clone()).unwrap();
        nic.measure_begin();
    }
    let mut fed = 0u64;
    let mut feed = |exec: &mut Executor, nics: &mut Vec<(String, Box<dyn NicBackend>)>| {
        let chunk: Vec<Packet> = (0..8)
            .map(|i| majority_churn_packet(traffic_seed + fed + i))
            .collect();
        fed += 8;
        for p in &chunk {
            exec.process(&mut p.clone());
        }
        for (_, nic) in nics.iter_mut() {
            nic.measure_feed(chunk.clone());
        }
    };
    for _ in 0..MIN_WINDOW / 8 {
        feed(&mut exec, &mut nics);
    }
    // A NIC whose packets went through one executor, in arrival order,
    // plans what the bare executor plans. Across several shards the
    // merged Boyer–Moore sketches may settle on another candidate than
    // one stream's, so how much a `Specialize` finds to do there — and
    // whether a later `Despecialize` has anything to revert — is its own.
    let mut planned = false;
    let (mut asked, mut applied) = (0, 0);
    for op in &sequence {
        let want = exec.apply(op);
        prop_assert!(want.is_ok(), "{:?} rejected: {:?}", op, want);
        if *op == ControlOp::Specialize {
            planned = true;
            asked += 1;
            applied += usize::from(want == Ok(Applied::Done));
        }
        let plan_dependent =
            *op == ControlOp::Specialize || (planned && *op == ControlOp::Despecialize);
        for (name, nic) in &mut nics {
            let got = nic.apply(op.clone());
            let one_stream = name == "single" || name == "sharded x1";
            if one_stream || !plan_dependent {
                prop_assert_eq!(&got, &want, "{}: {:?}", name, op);
            }
        }
        feed(&mut exec, &mut nics);
    }

    // Convergence: every control plane, every quiesced shard and the
    // model fingerprint identically; nothing was lost; the merged
    // profiles are one profile.
    let want = graph_fingerprint(&model);
    prop_assert_eq!(graph_fingerprint(exec.graph()), want, "executor graph");
    let want_profile = exec.take_profile();
    for (name, nic) in &mut nics {
        prop_assert_eq!(nic.measure_end().packets, fed, "{}: lost packets", name);
        prop_assert_eq!(graph_fingerprint(nic.graph()), want, "{}: graph", name);
        let got = nic.take_profile();
        prop_assert_eq!(got.total_packets, want_profile.total_packets, "{}", name);
        let sorted = |p: &pipeleon_cost::RuntimeProfile| {
            let (mut e, mut a): (Vec<_>, Vec<_>) = (p.edges().collect(), p.actions().collect());
            e.sort();
            a.sort();
            (e, a)
        };
        prop_assert_eq!(sorted(&got), sorted(&want_profile), "{}: counters", name);
        prop_assert_eq!(&got.distinct_keys, &want_profile.distinct_keys, "{}", name);
    }
    // And behaviorally: probes through every datapath match a NIC
    // compiled from scratch off the model.
    let mut scratch = SmartNic::new(model, params).unwrap();
    for i in 0..64u64 {
        let probe = churn_packet(traffic_seed * 131 + i);
        let mut want = probe.clone();
        let dropped = scratch.process_one(&mut want).dropped;
        let mut got = probe.clone();
        prop_assert_eq!(
            exec.process(&mut got).dropped,
            dropped,
            "executor: probe {}",
            i
        );
        prop_assert_eq!(&got, &want, "executor: probe {} mutations", i);
        for (name, nic) in &mut nics {
            let mut got = probe.clone();
            prop_assert_eq!(
                nic.process_one(&mut got).dropped,
                dropped,
                "{}: probe {}",
                name,
                i
            );
            prop_assert_eq!(&got, &want, "{}: probe {} mutations", name, i);
        }
    }
    Ok((asked, applied))
}

/// Case 36 of [`live_patch_and_swap_converge_to_scratch`], which failed
/// most runs while `ShardedNic::apply(Specialize)` planned from whatever
/// the workers had got through of the feeds before it: the plan, and so
/// every later answer that depends on one, changed with worker timing.
/// Repeated, since one pass proves nothing about a race.
#[test]
fn specialize_plans_from_the_drained_window_whatever_the_worker_timing() {
    let ops = [
        (0, 49, 3),
        (0, 42, 2),
        (0, 46, 7),
        (0, 39, 0),
        (1, 46, 4),
        (0, 24, 8),
        (2, 36, 3),
        (0, 37, 4),
        (2, 57, 1),
        (2, 13, 2),
        (2, 50, 4),
    ];
    for round in 0..20 {
        live_patch_and_swap_case(&ops, 15, 13, 288)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

/// Fuzz op 7 is a plain `Specialize`: it plans from the traffic alone,
/// and the traffic gives `t0` a majority key. Over fixed op lists, each
/// with at least one `Specialize`, most of those the executor is given
/// must apply a plan — the rest meet the plan already in place, or a
/// window instrumentation was switched off for.
#[test]
fn fuzzed_specialize_ops_plan_from_the_traffic() {
    let mut rng = Lcg(0x5eed);
    let (mut asked, mut applied) = (0, 0);
    for case in 0..12 {
        let mut ops: Vec<(usize, u64, u8)> = (0..10)
            .map(|_| {
                let t = (rng.next() % 3) as usize;
                (t, rng.next() % 64, (rng.next() % 10) as u8)
            })
            .collect();
        ops[case % 10].2 = 7;
        let (split, swap_key, seed) = (rng.next() as usize % 12, rng.next() % 24, rng.next());
        let (a, d) = live_patch_and_swap_case(&ops, split, swap_key, seed % 1_000)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        asked += a;
        applied += d;
    }
    assert!(
        2 * applied >= asked,
        "{applied} of {asked} Specialize ops applied a plan"
    );
}
