//! Differential suite for profile-guided specialization of the compiled
//! datapath (DESIGN.md §17).
//!
//! The contract under test: a specialized pipeline — hot-key guards and
//! the lookup memo behind their misses — is observationally
//! *bit-identical* to the unspecialized compiled engine and the
//! interpreter. Per-packet reports (latency bits, drops, probes), packet
//! mutations, merged profiles, batch statistics and latency histograms
//! must all match across worker counts 1/2/8, with
//! specialization applied mid-window. Live runs additionally publish
//! specialized pipelines through the generation-swap path and must lose
//! zero packets.
//!
//! The walk cache in front of the compiled walk only serves packets
//! with instrumentation off, so it gets its own rows: cached walks vs
//! the per-table guard walk vs both oracles, per packet and per window,
//! over all-hit / partial-hit / all-miss / already-dropped packets,
//! across the same worker matrix, through the live generation chain,
//! and across entry ops that land mid-window.
//!
//! Two proptests pin the lifecycle: entry ops that strip a specialized
//! table followed by an explicit despecialize must be indistinguishable
//! from a scratch compile of the final program, and a controller facing
//! a flipped traffic distribution must de-specialize on the guard-miss
//! signal and re-converge onto the new hot keys.

use pipeleon::config::OptimizerConfig;
use pipeleon::search::Optimizer;
use pipeleon_cost::{CostModel, CostParams, Placement, CACHE_INSERTION_RATE};
use pipeleon_ir::{
    CacheRole, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, TableEntry,
};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget, Target};
use pipeleon_sim::{
    Applied, BatchStats, ControlOp, EngineMode, ExecReport, NicBackend, Packet, PacketTrace,
    ShardedNic, SmartNic, SpecStats,
};
use pipeleon_workloads::scenarios::{
    AclPipeline, DashRouting, L2L3Acl, LoadBalancer, NfComposition, SkewedPipeline,
};
use pipeleon_workloads::traffic::{FieldBias, FlowGen};
use proptest::prelude::*;

/// The sharded-equivalence matrix, reused from the other differentials.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Skew steep enough that the top flow clears the conservative
/// Boyer–Moore majority bar (half a window's sampled lookups) with a
/// guard-miss rate comfortably under the controller's
/// de-specialization threshold.
const HOT_SKEW: f64 = 3.0;

fn params() -> CostParams {
    CostParams::bluefield2()
}

fn assert_stats_identical(a: BatchStats, b: BatchStats, ctx: &str) {
    // Bitwise, not approximate: specialization must apply every latency
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

/// One sharded run: engine `mode`, with an optional mid-window
/// specialization pass between the two halves of the batch.
fn sharded_run(
    s: &SkewedPipeline,
    params: &CostParams,
    workers: usize,
    engine: EngineMode,
    batch: &[Packet],
    specialize: bool,
) -> (
    BatchStats,
    pipeleon_cost::RuntimeProfile,
    pipeleon_sim::ExecObservations,
    pipeleon_sim::SpecStats,
) {
    let mut nic =
        ShardedNic::with_engine(s.graph.clone(), params.clone(), workers, engine).unwrap();
    nic.set_instrumentation(true, 1);
    let mid = batch.len() / 2;
    nic.measure_begin();
    nic.measure_feed(batch[..mid].to_vec());
    if specialize {
        nic.specialize();
    }
    nic.measure_feed(batch[mid..].to_vec());
    let stats = nic.measure_end();
    let spec = nic.spec_stats();
    (stats, nic.take_profile(), nic.take_observations(), spec)
}

/// The tentpole invariant: specialized vs unspecialized vs interpreter,
/// bit-identical merged stats / profiles / histograms, across the worker
/// matrix, with the plan applied mid-window — per cost preset, on Zipf
/// and on uniform traffic (where the plan may be empty, so only
/// bit-identity is asserted), plus the 14-table pipeline with 128
/// ternary rules per classifier.
#[test]
fn specialized_runs_match_both_oracles_bit_for_bit() {
    let small = SkewedPipeline::build(3, 2);
    let big = SkewedPipeline::build_with_entries(8, 4, 128);
    let presets = [
        ("bluefield2", CostParams::bluefield2()),
        ("agilio_cx", CostParams::agilio_cx()),
        ("emulated_nic", CostParams::emulated_nic()),
    ];
    let mut rows = Vec::new();
    for (preset, p) in &presets {
        for skew in [HOT_SKEW, 0.0] {
            rows.push((format!("{preset}/zipf {skew}"), &small, p.clone(), skew));
        }
    }
    rows.push(("14 tables".into(), &big, params(), HOT_SKEW));
    for (row, s, p, skew) in rows {
        let batch = s.traffic(skew, 400, 11).batch(4_000);
        for workers in WORKER_COUNTS {
            let ctx = format!("{row}, workers={workers}");
            let run = |engine, specialize| sharded_run(s, &p, workers, engine, &batch, specialize);
            let (si, pi, oi, _) = run(EngineMode::Interpreter, false);
            let (sc, pc, oc, _) = run(EngineMode::Compiled, false);
            let (ss, ps, os, spec) = run(EngineMode::Compiled, true);
            assert_stats_identical(si, sc, &format!("{ctx}: interp vs compiled"));
            assert_stats_identical(sc, ss, &format!("{ctx}: compiled vs specialized"));
            assert_eq!(pi, pc, "{ctx}: interp vs compiled profile");
            assert_eq!(pc, ps, "{ctx}: compiled vs specialized profile");
            assert_eq!(oi, oc, "{ctx}: interp vs compiled observations");
            assert_eq!(oc, os, "{ctx}: compiled vs specialized observations");
            assert!(
                skew == 0.0 || spec.specializations >= 1,
                "{ctx}: the mid-window pass must have applied a plan"
            );
        }
    }
}

/// Guard fallback, single-threaded and per-packet: after specializing on
/// skewed traffic, both guard hits (the baked hot key) and guard misses
/// (everything else) must produce reports bit-identical to an
/// interpreter that never specialized.
#[test]
fn guard_hits_and_misses_stay_bit_exact_per_packet() {
    let s = SkewedPipeline::build(3, 2);
    let mut interp =
        SmartNic::with_engine(s.graph.clone(), params(), EngineMode::Interpreter).unwrap();
    interp.set_instrumentation(true, 1);
    let mut spec = SmartNic::new(s.graph.clone(), params()).unwrap();
    spec.set_instrumentation(true, 1);
    let mut warm = s.traffic(HOT_SKEW, 200, 5);
    for (i, p) in warm.batch(2_000).into_iter().enumerate() {
        let mut a = p.clone();
        let mut b = p;
        let ra = interp.process_one(&mut a);
        let rb = spec.process_one(&mut b);
        assert_reports_identical(&ra, &rb, &format!("warm packet {i}"));
        assert_eq!(a, b, "warm packet {i} contents diverged");
    }
    assert!(spec.specialize(), "skewed warmup must yield a plan");
    assert!(
        spec.spec_stats().specialized_tables > 0,
        "plan must have specialized at least one table"
    );
    // Mixed probe phase: the Zipf head repeatedly hits the guard, the
    // tail falls through it.
    let mut probe = s.traffic(HOT_SKEW, 200, 6);
    for (i, p) in probe.batch(2_000).into_iter().enumerate() {
        let mut a = p.clone();
        let mut b = p;
        let ra = interp.process_one(&mut a);
        let rb = spec.process_one(&mut b);
        assert_reports_identical(&ra, &rb, &format!("probe packet {i}"));
        assert_eq!(a, b, "probe packet {i} contents diverged");
    }
    let st = spec.spec_stats();
    assert!(st.guard_hits > 0, "hot key must hit the guard: {st:?}");
    assert!(st.guard_misses > 0, "cold keys must fall through: {st:?}");
    assert_eq!(interp.take_profile(), spec.take_profile(), "profiles");
    assert_eq!(
        interp.take_observations(),
        spec.take_observations(),
        "observations"
    );
}

/// Live specialization: the plan publishes through the generation-swap
/// path mid-window, under traffic, at every worker count — losing zero
/// packets and keeping merged stats bit-identical to an unspecialized
/// run at the same worker count (shard merges are float-order sensitive,
/// so the oracle must shard identically). A second window de-specializes
/// live the same way.
#[test]
fn live_specialize_swaps_lose_zero_packets() {
    let s = SkewedPipeline::build(3, 2);
    let batch = s.traffic(HOT_SKEW, 400, 17).batch(4_000);
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        // Oracle: same worker count, never specialized, two windows.
        let mut oracle = ShardedNic::new(s.graph.clone(), params(), workers).unwrap();
        oracle.set_instrumentation(true, 1);
        let w1 = oracle.measure(batch.clone());
        let w2 = oracle.measure(batch.clone());
        let mut nic = ShardedNic::new(s.graph.clone(), params(), workers).unwrap();
        nic.set_instrumentation(true, 1);
        let mid = batch.len() / 2;
        nic.measure_begin();
        nic.measure_feed(batch[..mid].to_vec());
        assert!(nic.specialize(), "{ctx}: live specialize must apply");
        nic.measure_feed(batch[mid..].to_vec());
        let stats = nic.measure_end();
        assert_eq!(
            stats.packets,
            batch.len() as u64,
            "{ctx}: window 1 lost packets"
        );
        assert_stats_identical(w1, stats, &format!("{ctx}: window 1 vs oracle"));
        let swap = nic
            .last_swap()
            .expect("live specialize publishes a generation");
        assert!(swap.generation >= 1, "{ctx}: no generation published");
        assert!(nic.spec_stats().specialized_tables > 0, "{ctx}");
        // Window 2: de-specialize live, same zero-loss requirement.
        nic.measure_begin();
        nic.measure_feed(batch[..mid].to_vec());
        assert_eq!(
            nic.apply(ControlOp::Despecialize),
            Ok(Applied::Done),
            "{ctx}: live despecialize must apply"
        );
        nic.measure_feed(batch[mid..].to_vec());
        let stats = nic.measure_end();
        assert_eq!(
            stats.packets,
            batch.len() as u64,
            "{ctx}: window 2 lost packets"
        );
        assert_stats_identical(w2, stats, &format!("{ctx}: window 2 vs oracle"));
        assert_eq!(
            nic.spec_stats().specialized_tables,
            0,
            "{ctx}: despecialize must strip every table"
        );
        assert!(
            nic.last_swap().expect("second swap").generation > swap.generation,
            "{ctx}: despecialize must publish a newer generation"
        );
    }
}

/// "Specialized" has one meaning: a `Specialize` is `Done` exactly when
/// it leaves a table guarded, so the controller's shed rule (which asks
/// `specialized_tables > 0`) can shed every plan it applied. Every
/// scenario program, under uniform traffic (no key dominates: nothing to
/// plan) and under Zipf traffic (the hot flow dominates every table).
#[test]
fn specialize_is_done_exactly_when_it_guards_a_table() {
    let programs = [
        ("acl_pipeline", AclPipeline::build(4, 3).graph),
        ("load_balancer", LoadBalancer::build().graph),
        ("dash_routing", DashRouting::build().graph),
        ("l2l3_acl", L2L3Acl::build().graph),
        ("nf_composition", NfComposition::build().graph),
        ("skewed_pipeline", SkewedPipeline::build(3, 2).graph),
    ];
    for (name, g) in programs {
        let mut keys = Vec::new();
        for (_, t) in g.tables() {
            keys.extend(t.keys.iter().map(|k| k.field));
        }
        keys.sort();
        keys.dedup();
        for skew in [0.0, HOT_SKEW] {
            let ctx = format!("{name}, zipf {skew}");
            let traffic = FlowGen::new(g.fields.len(), keys.clone(), 400, 41)
                .with_zipf(skew)
                .batch(2_000);
            let mut nic = SmartNic::new(g.clone(), params()).unwrap();
            nic.set_instrumentation(true, 1);
            nic.measure_batch(traffic);
            let applied = nic.apply(ControlOp::Specialize).unwrap();
            let tables = nic.spec_stats().specialized_tables;
            assert_eq!(
                applied == Applied::Done,
                tables > 0,
                "{ctx}: {applied:?} with {tables} specialized tables"
            );
            assert_eq!(tables > 0, skew > 0.0, "{ctx}: {tables} specialized tables");
        }
    }
}

/// The walk-cache fixture: classifiers and flow tables, all guarded. Two
/// tables sit on the CPU, so walks carry migrations.
struct Chain {
    s: SkewedPipeline,
    placement: Vec<Placement>,
    /// The profile window the plan is built from.
    warm: Vec<Packet>,
    /// Zipf traffic (repeated headers and first sightings as they come)
    /// plus, for the hot flow, every partial guard hit, a full miss and
    /// a pre-dropped packet.
    probe: Vec<Packet>,
}

impl Chain {
    fn new() -> Self {
        let s = SkewedPipeline::build(3, 2);
        let mut placement = vec![Placement::Asic; s.graph.id_bound()];
        placement[s.ternary[1].index()] = Placement::Cpu;
        placement[s.exact[1].index()] = Placement::Cpu;
        let warm = Self::traffic(&s, 21).batch(2_000);
        let mut probe = Self::traffic(&s, 22).batch(3_000);
        // Rank 0 is the hot flow; the guards key on the flow fields in
        // order, so knocking field k off the hot value leaves exactly
        // the first k guards matching.
        let hot = s.traffic(HOT_SKEW, 1, 0).next_packet();
        for k in 0..s.flow_fields.len() {
            let mut p = hot.clone();
            p.set(s.flow_fields[k], 999_999);
            probe.insert(k * 400, p);
        }
        let mut miss = hot.clone();
        for &f in &s.flow_fields {
            miss.set(f, 999_998);
        }
        probe.insert(1_700, miss);
        let mut dead = hot;
        dead.dropped = true;
        probe.insert(2_100, dead);
        Self {
            s,
            placement,
            warm,
            probe,
        }
    }

    /// The pipeline's Zipf traffic with one more class value biased in.
    /// On its own the class table's top value holds ~51% of packets, so
    /// whether it gets a guard would depend on how the sketches were
    /// sharded; here it holds ~36%, well under the majority bar, while
    /// the hot flow holds ~83% of the flow keys — every worker count
    /// bakes the same plan and the counters can be compared.
    fn traffic(s: &SkewedPipeline, seed: u64) -> FlowGen {
        s.traffic(HOT_SKEW, 400, seed).with_bias(FieldBias {
            field: s.class_field,
            value: 7,
            probability: 0.3,
        })
    }

    /// Brings a backend to the state the datapath workloads time:
    /// profile window, `specialize()` (or not), instrumentation off.
    fn prepare<N: NicBackend>(&self, nic: &mut N, specialize: bool) {
        nic.set_instrumentation(true, 1);
        nic.measure_batch(self.warm.clone());
        if specialize {
            assert_eq!(
                nic.apply(ControlOp::Specialize),
                Ok(Applied::Done),
                "the profile window must yield a plan"
            );
        }
        nic.set_instrumentation(false, 1);
    }

    fn single(&self, engine: EngineMode, specialize: bool) -> SmartNic {
        let mut nic = SmartNic::with_engine(self.s.graph.clone(), params(), engine).unwrap();
        nic.apply(ControlOp::SetPlacement(self.placement.clone()))
            .unwrap();
        self.prepare(&mut nic, specialize);
        nic
    }

    /// The shards receive the specialized pipeline through the
    /// generation chain.
    fn sharded(&self, workers: usize, specialize: bool) -> ShardedNic {
        let mut nic = ShardedNic::new(self.s.graph.clone(), params(), workers).unwrap();
        nic.apply(ControlOp::SetPlacement(self.placement.clone()))
            .unwrap();
        self.prepare(&mut nic, specialize);
        nic
    }
}

/// What `after` counted beyond `before`: guard hits and guard misses.
fn spec_delta(before: SpecStats, after: SpecStats) -> (u64, u64) {
    (
        after.guard_hits - before.guard_hits,
        after.guard_misses - before.guard_misses,
    )
}

/// Walk-cache hits vs the guard walk vs both oracles, one packet at a
/// time: every report field and every packet's slots / `dropped` /
/// `egress_port`. The guard-walk side is the same specialized pipeline
/// driven under a trace, which the cache never serves; the cached side
/// asks its guards only on the walks the cache did not answer — far
/// fewer, since the hot flow repeats its header.
#[test]
fn walk_cache_hits_match_the_guard_walk_and_both_oracles_per_packet() {
    let fx = Chain::new();
    let mut interp = fx.single(EngineMode::Interpreter, false);
    let mut plain = fx.single(EngineMode::Compiled, false);
    let mut walk = fx.single(EngineMode::Compiled, true);
    let mut cached = fx.single(EngineMode::Compiled, true);
    let (walk0, cached0) = (walk.spec_stats(), cached.spec_stats());
    let mut trace = PacketTrace::default();
    let mut migrations = 0;
    for (i, p) in fx.probe.iter().enumerate() {
        let (mut a, mut b, mut c, mut d) = (p.clone(), p.clone(), p.clone(), p.clone());
        let want = interp.process_one(&mut a);
        let got = [
            ("plain", plain.process_one(&mut b), &b),
            ("walk", walk.process_one_traced(&mut c, &mut trace), &c),
            ("cached", cached.process_one(&mut d), &d),
        ];
        for (who, r, pkt) in got {
            assert_reports_identical(&want, &r, &format!("packet {i}: interp vs {who}"));
            assert_eq!(&a, pkt, "packet {i} contents: interp vs {who}");
        }
        migrations += want.migrations;
    }
    assert!(migrations > 0, "the placement must put migrations in play");
    let (hits, misses) = spec_delta(walk0, walk.spec_stats());
    assert!(misses > 0, "partial hits and cold flows must miss guards");
    let (cached_hits, _) = spec_delta(cached0, cached.spec_stats());
    assert!(
        cached_hits * 10 < hits,
        "the cache must answer the hot flow before its guards: {cached_hits} of {hits}"
    );
}

/// The same, through the sharded datapath at workers 1/2/8, per packet
/// (`process_batch`) and per window (`measure`), plus a sampled window
/// (1 in 64), which the cache stands aside for: every one of its guard
/// visits is the traced walk's.
#[test]
fn walk_cache_hits_match_across_workers_and_shard_modes() {
    let fx = Chain::new();
    let mut interp = fx.single(EngineMode::Interpreter, false);
    let mut want_packets = fx.probe.clone();
    let want_reports = interp.process_batch(&mut want_packets);
    let mut walk = fx.single(EngineMode::Compiled, true);
    let walk0 = walk.spec_stats();
    let mut trace = PacketTrace::default();
    for p in &fx.probe {
        walk.process_one_traced(&mut p.clone(), &mut trace);
    }
    let walked = spec_delta(walk0, walk.spec_stats());
    // One plan whatever the sharding.
    let single0 = fx.single(EngineMode::Compiled, true).spec_stats();
    for workers in [1, 2, 4] {
        let got = fx.sharded(workers, true).spec_stats().specialized_tables;
        assert_eq!(
            got, single0.specialized_tables,
            "workers={workers}: the plan"
        );
    }
    for workers in WORKER_COUNTS {
        let ctx = format!("{workers} workers");
        let mut plain = fx.sharded(workers, false);
        let mut nic = fx.sharded(workers, true);
        let before = nic.spec_stats();
        let mut got = fx.probe.clone();
        let reports = nic.process_batch(&mut got);
        // (Keeps the oracle's packet sequence, which keys the
        // sampled window below, in step.)
        plain.process_batch(&mut fx.probe.clone());
        for (i, (want, r)) in want_reports.iter().zip(&reports).enumerate() {
            assert_reports_identical(want, r, &format!("{ctx}: packet {i}"));
        }
        assert_eq!(want_packets, got, "{ctx}: packet contents");
        let (hits, _) = spec_delta(before, nic.spec_stats());
        assert!(
            hits * 10 < walked.0,
            "{ctx}: the cache answered the hot flow"
        );
        // Float merges are shard-order sensitive: the window oracle
        // must shard identically.
        let want = plain.measure(fx.probe.clone());
        let got = nic.measure(fx.probe.clone());
        assert_stats_identical(want, got, &format!("{ctx}: window"));
        let before = nic.spec_stats();
        plain.set_instrumentation(true, 64);
        nic.set_instrumentation(true, 64);
        let want = plain.measure(fx.probe.clone());
        let got = nic.measure(fx.probe.clone());
        assert_stats_identical(want, got, &format!("{ctx}: sampled window"));
        assert_eq!(plain.take_profile(), nic.take_profile(), "{ctx}: profile");
        assert_eq!(
            spec_delta(before, nic.spec_stats()),
            walked,
            "{ctx}: an instrumented window walks every packet"
        );
    }
}

/// A program with a P4 flow cache is never served by the walk cache:
/// each walk reads and changes that cache's state, which no record
/// holds. Behind the switch the guards are walked one by one, as on a
/// traced twin — while the cached results, hits and misses alike, stay
/// the interpreter's.
#[test]
fn walk_cache_stands_aside_for_a_program_with_a_flow_cache() {
    const HOT: u64 = 7;
    let mut b = ProgramBuilder::new();
    let keys = [b.field("x"), b.field("y"), b.field("z")];
    let (w, out) = (b.field("w"), b.field("out"));
    let chain: Vec<NodeId> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            b.table(format!("t{i}"))
                .key(key, MatchKind::Exact)
                .action(
                    "mark",
                    vec![Primitive::Add {
                        field: out,
                        delta: 1 << (8 * i),
                    }],
                )
                .action_nop("pass")
                .default_action(1)
                .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
                .finish()
        })
        .collect();
    b.set_next(chain[2], None);
    // `w` is in the cache key and nowhere else: one hot flow for the
    // tables, as many cache keys as the traffic has values of `w`.
    let mut cache = b.table("cache");
    for key in keys.into_iter().chain([w]) {
        cache = cache.key(key, MatchKind::Exact);
    }
    let cache = cache
        .action_nop("hit")
        .action_nop("miss")
        .default_action(1)
        .cache_role(CacheRole::FlowCache)
        .max_entries(64)
        .by_action(vec![None, Some(chain[0])])
        .finish();
    let g = b.seal(cache).unwrap();
    let packet = |w: u64, x: u64| Packet::with_slots(vec![x, HOT, HOT, w, 0]);

    let nic = |engine| {
        let mut nic = SmartNic::with_engine(g.clone(), params(), engine).unwrap();
        // The profile window: every packet a new cache key, so every one
        // walks the chain and shows it the hot key. Paced at the cache's
        // insertion rate, so no install is refused: the cached results
        // are the point.
        nic.set_instrumentation(true, 1);
        for i in 0..2_000 {
            nic.executor_mut().now_s = i as f64 / CACHE_INSERTION_RATE;
            nic.process_one(&mut packet(1_000 + i, HOT));
        }
        nic.specialize();
        nic.set_instrumentation(false, 1);
        nic
    };
    let mut interp = nic(EngineMode::Interpreter);
    let mut spec = nic(EngineMode::Compiled);
    let mut traced = nic(EngineMode::Compiled);
    let (before, traced0) = (spec.spec_stats(), traced.spec_stats());
    assert!(
        before.specialized_tables >= 3,
        "the chain is guarded: {before:?}"
    );
    // Four cache keys, over and over: a miss each, then hits; every
    // fifth packet a cold `x`, which misses the first guard too.
    let mut trace = PacketTrace::default();
    for i in 0..400u64 {
        let p = packet(
            i % 4 + 10 * u64::from(i % 5 == 0),
            if i % 5 == 0 { 99 } else { HOT },
        );
        let (mut a, mut b, mut c) = (p.clone(), p.clone(), p);
        let want = interp.process_one(&mut a);
        let got = spec.process_one(&mut b);
        assert_reports_identical(&want, &got, &format!("packet {i}"));
        assert_eq!(a, b, "packet {i} contents");
        assert_eq!(want, traced.process_one_traced(&mut c, &mut trace));
    }
    let (hits, misses) = spec_delta(before, spec.spec_stats());
    assert!(
        hits > 0 && misses > 0,
        "guards walked: {hits} hits, {misses} misses"
    );
    assert_eq!(
        (hits, misses),
        spec_delta(traced0, traced.spec_stats()),
        "every packet walked, as under a trace"
    );
    assert_eq!(
        interp.take_profile(),
        spec.take_profile(),
        "cache statistics"
    );
}

/// An entry op on a guarded table that lands mid-window — on the single
/// NIC, or through the chain on a sharded one — retires every cached
/// walk before the next packet. The replacement makes the hot flow
/// drop, so one stale record served would show in the window.
#[test]
fn entry_ops_mid_window_retire_the_cached_walks() {
    let fx = Chain::new();
    let member = fx.s.exact[0];
    type Op = fn(&mut dyn NicBackend, NodeId);
    let ops: [(&str, Op); 3] = [
        ("insert", |nic, id| {
            let e = TableEntry::new(vec![MatchValue::Exact(123_456)], 0);
            nic.insert_entry(id, e).unwrap();
        }),
        ("remove", |nic, id| {
            nic.remove_entry(id, 0).unwrap();
        }),
        ("replace", |nic, id| {
            let mut t = nic.graph().node(id).unwrap().as_table().unwrap().clone();
            t.actions[0].primitives = vec![Primitive::Drop];
            let op = ControlOp::ReplaceTable {
                node: id,
                table: t,
                next: None,
            };
            nic.apply(op).unwrap();
        }),
    ];
    let mid = fx.probe.len() / 2;
    // One window with `op` between its halves; the stats, and the
    // specialization state right after the op.
    let window = |nic: &mut dyn NicBackend, op: Op| {
        nic.measure_begin();
        nic.measure_feed(fx.probe[..mid].to_vec());
        op(nic, member);
        let after_op = nic.spec_stats();
        nic.measure_feed(fx.probe[mid..].to_vec());
        (nic.measure_end(), after_op)
    };
    let check = |ctx: &str, want: BatchStats, nic: &mut dyn NicBackend, op: Op| {
        let (got, after_op) = window(nic, op);
        assert_stats_identical(want, got, ctx);
        assert_eq!(after_op.specialized_tables, 0, "{ctx}: {after_op:?}");
    };
    for (name, op) in ops {
        let (want, _) = window(&mut fx.single(EngineMode::Interpreter, false), op);
        if name == "replace" {
            assert!(
                want.dropped as usize > mid / 2,
                "the hot flow must now drop"
            );
        }
        let mut nic = fx.single(EngineMode::Compiled, true);
        check(&format!("{name}: single"), want, &mut nic, op);
        // On a sharded NIC the mid-window op is a generation.
        let (want, _) = window(&mut fx.sharded(2, false), op);
        check(
            &format!("{name}: sharded"),
            want,
            &mut fx.sharded(2, true),
            op,
        );
    }
}

/// The lookup memo behind the guards, through every datapath. Zipf 1.0
/// traffic misses the guards five times in six and its cold keys repeat,
/// so most misses are memo hits. Mid-window an entry op rewrites a
/// memoised classifier — every key resolves differently afterwards — and
/// strips the lowering; then the *same* plan is applied again, which
/// hands the table its old region number over a new engine. A shard (or
/// the single NIC) that kept its memo across that would answer the rest
/// of the window from the old rules.
#[test]
fn memoised_guard_misses_survive_entry_ops_and_the_same_plan_again() {
    let fx = Chain::new();
    // `meta.qos`, which no table reads, counts the packets: no header
    // repeats, so the walk cache never answers before the guards.
    let qos = fx.s.graph.fields.get("meta.qos").unwrap();
    let mut cold = fx.s.traffic(1.0, 400, 33).batch(6_000);
    for (i, p) in cold.iter_mut().enumerate() {
        p.set(qos, i as u64);
    }
    let table = fx.s.ternary[0];
    let catch_all = || {
        let any = MatchValue::Ternary { value: 0, mask: 0 };
        TableEntry::with_priority(vec![any], 1, i32::MAX)
    };
    type Op = fn(&mut dyn NicBackend, NodeId, TableEntry);
    let ops: [(&str, Op); 3] = [
        // One more mask pattern to probe, and another action.
        ("insert", |nic, id, rule| {
            nic.insert_entry(id, rule).unwrap()
        }),
        // One pattern fewer.
        ("remove", |nic, id, _| {
            nic.remove_entry(id, 0).unwrap();
        }),
        // Every packet now drops here.
        ("replace", |nic, id, rule| {
            let mut t = nic.graph().node(id).unwrap().as_table().unwrap().clone();
            t.actions[1].primitives = vec![Primitive::Drop];
            t.entries.push(rule);
            let op = ControlOp::ReplaceTable {
                node: id,
                table: t,
                next: None,
            };
            nic.apply(op).unwrap();
        }),
    ];
    let (a, b) = (cold.len() / 3, 2 * cold.len() / 3);
    // One window: a third of the traffic, the op, a third, the plan
    // again, the rest. Returns the window and the memo hits it made.
    let window = |nic: &mut dyn NicBackend, op: Op, specialized: bool, ctx: &str| {
        let before = nic.spec_stats();
        nic.measure_begin();
        nic.measure_feed(cold[..a].to_vec());
        op(nic, table, catch_all());
        assert_eq!(nic.spec_stats().specialized_tables, 0, "{ctx}: stripped");
        nic.measure_feed(cold[a..b].to_vec());
        if specialized {
            let again = nic.apply(ControlOp::Specialize);
            assert_eq!(again, Ok(Applied::Done), "{ctx}: the same plan again");
        }
        nic.measure_feed(cold[b..].to_vec());
        let stats = nic.measure_end();
        let end = nic.spec_stats();
        assert_eq!(end.specialized_tables > 0, specialized, "{ctx}: {end:?}");
        (stats, end.memo_hits - before.memo_hits)
    };
    for (name, op) in ops {
        let mut oracle = fx.single(EngineMode::Interpreter, false);
        let (want, _) = window(&mut oracle, op, false, &format!("{name}: oracle"));
        if name == "replace" {
            assert_eq!(want.dropped as usize, cold.len() - a, "drops after the op");
        }
        let ctx = format!("{name}: single");
        let (got, hits) = window(&mut fx.single(EngineMode::Compiled, true), op, true, &ctx);
        assert_stats_identical(want, got, &ctx);
        assert!(hits as usize > cold.len() / 3, "{ctx}: {hits} memo hits");
        for workers in WORKER_COUNTS {
            let ctx = format!("{name}: workers={workers}");
            // Float merges are shard-order sensitive: the whole window
            // is compared with an unspecialised NIC sharded the same
            // way, the order-free statistics with the oracle.
            let (plain, _) = window(&mut fx.sharded(workers, false), op, false, &ctx);
            let (got, hits) = window(&mut fx.sharded(workers, true), op, true, &ctx);
            assert_stats_identical(plain, got, &ctx);
            assert_eq!(
                (got.packets, got.dropped, got.migrations, got.p99_latency_ns),
                (
                    want.packets,
                    want.dropped,
                    want.migrations,
                    want.p99_latency_ns
                ),
                "{ctx}: vs the single-NIC oracle"
            );
            assert!(hits as usize > cold.len() / 3, "{ctx}: {hits} memo hits");
        }
    }
}

/// Guards on composed keys of 2 and 5 fields (the 5-field hot key is
/// wider than `SmallKey`'s inline words, so it lives on the heap). Each
/// probe is the hot packet with exactly one key word changed — the
/// first, a middle or the last, to 0 or `u64::MAX` — and an entry
/// waits on every such key with another action than the hot key's, so
/// a guard that answered a near key would change the packet. Every
/// probe must miss exactly its own table's guard and hit the other's,
/// and every report, packet and profile must be the interpreter's,
/// instrumented and not. (The program's 9 fields are more than a
/// walk-cache record holds, so the hot packet is walked every time.)
#[test]
fn guards_on_two_and_five_field_keys_miss_on_any_one_word() {
    let mut b = ProgramBuilder::new();
    let two_fields = [b.field("a0"), b.field("a1")];
    let five_fields = [0, 1, 2, 3, 4].map(|i| b.field(&format!("b{i}")));
    let hot_two = [u64::MAX, 1];
    let hot_five = [0, u64::MAX, 3, 0x8000_0000_0000_0000, 5];
    // The hot key, then every key one word away from it.
    let keys = |hot: &[u64]| {
        let mut out = vec![hot.to_vec()];
        for i in 0..hot.len() {
            for w in [0, u64::MAX].into_iter().filter(|&w| w != hot[i]) {
                let mut k = hot.to_vec();
                k[i] = w;
                out.push(k);
            }
        }
        out
    };
    let mut table = |name: &str, fields: &[pipeleon_ir::FieldRef], hot: &[u64]| {
        let out = b.field(&format!("{name}.out"));
        let set = |value| vec![Primitive::Set { field: out, value }];
        let mut t = b.table(name);
        for &f in fields {
            t = t.key(f, MatchKind::Exact);
        }
        t = t
            .action("hot", set(1))
            .action("near", set(2))
            .action("miss", set(3))
            .default_action(2);
        for (i, k) in keys(hot).into_iter().enumerate() {
            let m = k.into_iter().map(MatchValue::Exact).collect();
            t = t.entry(TableEntry::new(m, usize::from(i > 0)));
        }
        t.finish()
    };
    let two = table("two", &two_fields, &hot_two);
    let five = table("five", &five_fields, &hot_five);
    b.set_next(two, Some(five));
    b.set_next(five, None);
    let g = b.seal(two).unwrap();
    let packet = |a: &[u64], b: &[u64]| {
        let mut slots: Vec<u64> = a.iter().chain(b).copied().collect();
        slots.extend([0, 0]);
        Packet::with_slots(slots)
    };
    let hot = packet(&hot_two, &hot_five);
    let near: Vec<Packet> = (keys(&hot_two).into_iter().skip(1))
        .map(|a| packet(&a, &hot_five))
        .chain(
            keys(&hot_five)
                .into_iter()
                .skip(1)
                .map(|b| packet(&hot_two, &b)),
        )
        .collect();
    assert_eq!(near.len(), 2 * (2 + 5) - 3, "one-word-off keys");
    // Each near packet between two hot ones.
    let probe: Vec<Packet> = near
        .iter()
        .flat_map(|p| [hot.clone(), p.clone()])
        .chain([hot.clone()])
        .collect();
    for instrumented in [true, false] {
        let ctx = if instrumented {
            "instrumented"
        } else {
            "uninstrumented"
        };
        let nic = |engine| {
            let mut nic = SmartNic::with_engine(g.clone(), params(), engine).unwrap();
            nic.set_instrumentation(true, 1);
            for i in 0..400 {
                let p = if i % 4 == 3 {
                    &near[i % near.len()]
                } else {
                    &hot
                };
                nic.process_one(&mut p.clone());
            }
            nic
        };
        let mut interp = nic(EngineMode::Interpreter);
        let mut spec = nic(EngineMode::Compiled);
        assert_eq!(
            spec.apply(ControlOp::Specialize),
            Ok(Applied::Done),
            "{ctx}"
        );
        assert_eq!(
            spec.spec_stats().specialized_tables,
            2,
            "{ctx}: both guarded"
        );
        interp.set_instrumentation(instrumented, 1);
        spec.set_instrumentation(instrumented, 1);
        let before = spec.spec_stats();
        for (i, p) in probe.iter().enumerate() {
            let (mut a, mut b) = (p.clone(), p.clone());
            let want = interp.process_one(&mut a);
            let got = spec.process_one(&mut b);
            assert_reports_identical(&want, &got, &format!("{ctx}: packet {i}"));
            assert_eq!(a, b, "{ctx}: packet {i} contents");
        }
        let (hits, misses) = spec_delta(before, spec.spec_stats());
        assert_eq!(
            misses,
            near.len() as u64,
            "{ctx}: one guard miss a near packet"
        );
        assert_eq!(hits, 2 * probe.len() as u64 - misses, "{ctx}: guard hits");
        assert_eq!(interp.take_profile(), spec.take_profile(), "{ctx}: profile");
        assert_eq!(
            interp.take_observations(),
            spec.take_observations(),
            "{ctx}: observations"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Lifecycle soundness: specialize, churn entries (entry ops on a
    /// specialized table auto-strip it), then explicitly despecialize —
    /// the result must be indistinguishable from a NIC built on the
    /// final program after the same ops, which compiles it from scratch,
    /// and from the interpreter that ran them.
    #[test]
    fn entry_ops_then_despecialize_matches_scratch_compile(
        ops in prop::collection::vec((0usize..2, 0u64..16), 1..12),
        traffic_seed in 0u64..500,
    ) {
        let s = SkewedPipeline::build(2, 2);
        let mut spec = SmartNic::new(s.graph.clone(), params()).unwrap();
        spec.set_instrumentation(true, 1);
        // `oracle` interprets throughout; after the ops, `scratch` is one
        // full compile of the final program.
        let mut oracle =
            SmartNic::with_engine(s.graph.clone(), params(), EngineMode::Interpreter).unwrap();
        oracle.set_instrumentation(true, 1);
        let mut warm = s.traffic(HOT_SKEW, 150, traffic_seed);
        for (i, p) in warm.batch(1_000).into_iter().enumerate() {
            let mut a = p.clone();
            let mut b = p;
            let ra = spec.process_one(&mut a);
            let rb = oracle.process_one(&mut b);
            prop_assert_eq!(ra, rb, "warm packet {} diverged", i);
        }
        prop_assert!(spec.specialize(), "skewed warmup must yield a plan");
        // Entry churn on the exact flow tables; ops touching specialized
        // tables strip them (despecializations counts each strip).
        let mut lens = vec![4usize; s.exact.len()];
        for &(t, k) in &ops {
            let table = s.exact[t % s.exact.len()];
            let idx = t % s.exact.len();
            if lens[idx] > 0 && k.is_multiple_of(3) {
                let at = (k as usize) % lens[idx];
                let a = spec.remove_entry(table, at).unwrap();
                let b = oracle.remove_entry(table, at).unwrap();
                prop_assert_eq!(a, b, "removed different entries");
                lens[idx] -= 1;
            } else {
                let e = TableEntry::new(vec![MatchValue::Exact(100 + k)], 0);
                spec.insert_entry(table, e.clone()).unwrap();
                oracle.insert_entry(table, e).unwrap();
                lens[idx] += 1;
            }
        }
        let _ = spec.apply(ControlOp::Despecialize);
        prop_assert_eq!(
            spec.spec_stats().specialized_tables, 0,
            "nothing may stay specialized after an explicit despecialize"
        );
        prop_assert_eq!(spec.take_profile(), oracle.take_profile());
        let mut scratch = SmartNic::new(oracle.graph().clone(), params()).unwrap();
        scratch.set_instrumentation(true, 1);
        let mut probe = s.traffic(HOT_SKEW, 150, traffic_seed + 1);
        for (i, p) in probe.batch(1_000).into_iter().enumerate() {
            let (mut a, mut b, mut c) = (p.clone(), p.clone(), p);
            let ra = spec.process_one(&mut a);
            let rb = scratch.process_one(&mut b);
            prop_assert_eq!(ra.latency_ns.to_bits(), rb.latency_ns.to_bits(),
                "post-op packet {} latency diverged", i);
            prop_assert_eq!(ra, rb, "post-op packet {} diverged", i);
            prop_assert_eq!(&a, &b, "post-op packet {} contents diverged", i);
            prop_assert_eq!(rb, oracle.process_one(&mut c), "post-op packet {} vs the oracle", i);
            prop_assert_eq!(&b, &c, "post-op packet {} contents vs the oracle", i);
        }
        let want = oracle.take_profile();
        prop_assert_eq!(spec.take_profile(), want.clone());
        prop_assert_eq!(scratch.take_profile(), want);
    }

    /// Guard-miss recovery: a controller that specialized onto one traffic
    /// distribution must de-specialize when the hot keys move (every baked
    /// guard misses at once) and then re-converge onto the new hot keys.
    #[test]
    fn controller_despecializes_on_flip_then_reconverges(seed in 0u64..100) {
        let s = SkewedPipeline::build(2, 1);
        let mut nic = SmartNic::new(s.graph.clone(), params()).unwrap();
        nic.set_instrumentation(true, 1);
        // Every optimization is off, so the original (cache-free) layout
        // stays deployed whatever the search sees.
        let optimizer = Optimizer::new(CostModel::new(params())).with_config(OptimizerConfig {
            enable_reorder: false,
            enable_cache: false,
            enable_merge: false,
            enable_groups: false,
            ..OptimizerConfig::default()
        });
        let mut c = Controller::new(
            SimTarget::live(nic),
            s.graph.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .unwrap();
        // Two disjoint flow universes, neither of which hits a `flow0`
        // entry: the flip moves every hot key while every table's action
        // mix, which is all the drift check reads, stays the same.
        let window = |c: &mut Controller<SimTarget>, flipped: bool, w: u64| {
            let universe = if flipped { 2 } else { 1 };
            let mut gen = s
                .traffic(HOT_SKEW, 150, seed * 10 + w)
                .with_flow_base(150 * universe);
            for mut p in gen.batch(1_500) {
                c.target.nic.process_one(&mut p);
            }
            c.tick().unwrap()
        };
        for w in 0..2 {
            window(&mut c, false, w);
        }
        let st = c.target.spec_stats();
        prop_assert!(st.specializations >= 1, "no specialization: {:?}", st);
        prop_assert!(st.specialized_tables > 0, "nothing specialized: {:?}", st);
        // The flip: guards all miss; the next tick must de-specialize, and
        // without drift (no re-optimization), so the miss rate alone did.
        let flip = window(&mut c, true, 100);
        prop_assert!(!flip.reoptimized, "the flip must not drift: {:?}", flip);
        let st = c.target.spec_stats();
        prop_assert!(
            st.despecializations >= 1,
            "flip must de-specialize: {:?}", st
        );
        prop_assert_eq!(c.health().despecializations, st.despecializations);
        // Stable flipped windows: the loop re-converges onto the new
        // distribution and its guards hit again.
        for w in 0..2 {
            window(&mut c, true, 101 + w);
        }
        let st = c.target.spec_stats();
        prop_assert!(
            st.specialized_tables > 0,
            "must re-specialize onto the flipped distribution: {:?}", st
        );
        let hits_before = st.guard_hits;
        window(&mut c, true, 200);
        let st = c.target.spec_stats();
        prop_assert!(
            st.guard_hits > hits_before,
            "re-baked guards must hit flipped traffic: {:?}", st
        );
    }
}
