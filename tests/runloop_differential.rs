//! Differential suite for the sharded datapath: a [`ShardedNic`]
//! (persistent workers fed by SPSC rings, merge deferred to window
//! boundaries) against the single-threaded [`SmartNic`] — the same
//! executor run inline in arrival order, sharing no code with
//! `sharded.rs` — over the example programs, an 8-seed synthetic matrix,
//! a big-table program and a cached-flow program at workers 1/2/8.
//!
//! # The invariant set
//!
//! Global arrival interleaving is *intentionally relaxed* by sharding,
//! so "identical" is asserted per invariant class:
//!
//! **Exact (asserted bitwise):**
//! 1. Final forwarding decisions and packet mutations, packet-for-packet
//!    in input order.
//! 2. Per-flow packet order — asserted through a stateful flow-cache
//!    program where any reordering within a flow flips hit/miss
//!    patterns and thus reports. Flow-cache state is per shard, so the
//!    oracle here is one `SmartNic` per `flow_hash % workers` partition
//!    ([`partitioned_oracle`]).
//! 3. Integer batch statistics: packet, drop, migration and
//!    counter-update counts.
//! 4. The p99 latency — reduced from the merged latency multiset, which
//!    is partition-invariant, so it matches the oracle bit-for-bit — and
//!    the clock.
//! 5. Window-merged profiles and latency histograms at
//!    `sample_every == 1` (every packet sampled ⇒ the sampled set is
//!    trivially schedule-independent).
//! 6. Window-merged profiles and histograms across *worker counts* at
//!    any `sample_every`: sharded sampling is flow-keyed
//!    ([`SampleKeying::FlowKeyed`]), so the sampled set depends only on
//!    `(flow, per-flow index)` — the single-threaded reference is a
//!    [`SmartNic`] with flow-keyed sampling.
//!
//! **Relaxed (asserted within tolerance):**
//! 7. Mean latency and throughput — float sums accumulated per shard
//!    and merged in shard order, so only summation order differs from
//!    the oracle.
//!
//! Invariant 6 is also the satellite regression for the old
//! shared-arrival-index coupling: per-shard sequence stamping must not
//! skew which packets the `LatencyHistogram`s sample, for any worker
//! count.

use pipeleon_cost::CostParams;
use pipeleon_ir::{
    CacheRole, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_sim::{
    BatchStats, EngineMode, ExecObservations, ExecReport, NicBackend, Packet, SampleKeying,
    ShardedNic, SmartNic,
};
use pipeleon_workloads::scenarios::{AclPipeline, DashRouting};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};

mod common;
use common::{assert_profiles_identical, example_programs, key_traffic, SYNTH_SEEDS};

/// 1 is the degenerate shard, 2 the smallest real split, 8 more shards
/// than distinct flows in some phases.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Relative tolerance for the order-relaxed float aggregates. Summation
/// order only perturbs the last ULPs; anything past 1e-9 relative is a
/// real divergence, not reassociation.
const FLOAT_RTOL: f64 = 1e-9;

fn assert_close(a: f64, b: f64, ctx: &str) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= FLOAT_RTOL * scale,
        "{ctx}: {a} vs {b} beyond reassociation tolerance"
    );
}

/// Invariants 3, 4, 7: the merged batch statistics of a sharded
/// measurement against the single NIC's.
fn assert_stats_match(oracle: BatchStats, runloop: BatchStats, ctx: &str) {
    assert_eq!(oracle.packets, runloop.packets, "{ctx}: packets");
    assert_eq!(oracle.dropped, runloop.dropped, "{ctx}: dropped");
    assert_eq!(oracle.migrations, runloop.migrations, "{ctx}: migrations");
    assert_eq!(
        oracle.counter_updates, runloop.counter_updates,
        "{ctx}: counter updates"
    );
    assert_eq!(
        oracle.p99_latency_ns.to_bits(),
        runloop.p99_latency_ns.to_bits(),
        "{ctx}: p99 (partition-invariant multiset reduction) must be exact"
    );
    assert_eq!(oracle.offered_gbps, runloop.offered_gbps, "{ctx}: offered");
    assert_close(
        oracle.mean_latency_ns,
        runloop.mean_latency_ns,
        &format!("{ctx}: mean latency"),
    );
    assert_close(
        oracle.throughput_gbps,
        runloop.throughput_gbps,
        &format!("{ctx}: throughput"),
    );
}

/// Invariants 1+2: process the same batch through a run-loop nic and a
/// single-threaded [`SmartNic`]; every packet must come out mutated
/// identically (same forwarding decision, same writes) in input order.
fn assert_decisions_identical(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    workers: usize,
    ctx: &str,
) {
    let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
    let mut runloop = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
    let mut a = batch.to_vec();
    let mut b = batch.to_vec();
    let ra = single.process_batch(&mut a);
    let rb = runloop.process_batch(&mut b);
    assert_eq!(a, b, "{ctx}: packet mutations diverged");
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        assert_eq!(
            x.dropped, y.dropped,
            "{ctx}: packet {i} forwarding decision"
        );
    }
    // Uninstrumented reports carry no sampling state, so they must be
    // fully identical, latency bits included.
    assert_eq!(ra, rb, "{ctx}: full uninstrumented reports");
}

/// Invariant 6 (and the satellite-3 regression): window-merged profiles
/// and histograms from run-loop nics must be bit-identical for every
/// worker count, with a flow-keyed single-threaded [`SmartNic`] as the
/// reference.
fn assert_window_merge_worker_invariant(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    sample_every: u64,
    ctx: &str,
) {
    let mut reference = SmartNic::new(g.clone(), params.clone()).unwrap();
    reference.set_sample_keying(SampleKeying::FlowKeyed);
    reference.set_instrumentation(true, sample_every);
    reference.measure(batch.to_vec());
    let want_profile = reference.take_profile();
    let want_obs = reference.take_observations();
    assert!(
        want_profile.total_packets > 0,
        "{ctx}: sampling must pick packets"
    );
    for workers in WORKER_COUNTS {
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        nic.set_instrumentation(true, sample_every);
        nic.measure(batch.to_vec());
        let ctx = format!("{ctx}: workers={workers} sample={sample_every}");
        assert_profiles_identical(&want_profile, &nic.take_profile(), &ctx);
        assert_eq!(
            want_obs,
            nic.take_observations(),
            "{ctx}: merged histograms diverged"
        );
    }
}

/// The full matrix for one program: decisions, stats, and window merges
/// at workers 1/2/8.
fn assert_runloop_differential(g: &ProgramGraph, params: &CostParams, batch: &[Packet], ctx: &str) {
    for workers in WORKER_COUNTS {
        let ctx = format!("{ctx}: workers={workers}");
        assert_decisions_identical(g, params, batch, workers, &ctx);

        // Invariants 3/4/7 with instrumentation on.
        let mut oracle = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut runloop = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        oracle.set_instrumentation(true, 1);
        runloop.set_instrumentation(true, 1);
        let so = oracle.measure(batch.to_vec());
        let sr = runloop.measure(batch.to_vec());
        assert_stats_match(so, sr, &ctx);
        assert_eq!(oracle.now_s(), runloop.now_s(), "{ctx}: clocks diverged");

        // Invariant 5: at sample_every == 1 the sampled set is trivially
        // schedule-independent, so profiles and histograms match the
        // oracle bit-for-bit too.
        assert_profiles_identical(&oracle.take_profile(), &runloop.take_profile(), &ctx);
        assert_eq!(
            oracle.take_observations(),
            runloop.take_observations(),
            "{ctx}: sample=1 histograms diverged"
        );
    }
    // Invariant 6 at a sparse sampling rate.
    assert_window_merge_worker_invariant(g, params, batch, 8, ctx);
}

#[test]
fn example_programs_runloop_matches_oracle() {
    let params = CostParams::bluefield2();
    for (name, g) in example_programs() {
        let batch = key_traffic(&g, 300, 0xB0 + name.len() as u64, 1_000);
        assert_runloop_differential(&g, &params, &batch, &format!("example {name}"));
    }
}

#[test]
fn synth_seed_matrix_runloop_matches_oracle() {
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
        assert_runloop_differential(&g, &params, &batch, &format!("synth seed {seed}"));
    }
}

/// State at scale: a 15,000-entry exact table (a 1 MB slot array, past
/// the compiled engine's look-ahead size gate) that drops some flows,
/// then a second one keyed on another field, so each shard's drain loop
/// runs its table-prefetch stage ahead of the scalar walk. Hints must
/// not show in any invariant, at any worker count.
#[test]
fn big_table_program_runloop_matches_oracle() {
    const ENTRIES: u64 = 15_000;
    let key = |flow: u64| flow.wrapping_mul(2_654_435_761) % 1_000_003;
    let mut b = ProgramBuilder::new();
    let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
    let mut acl = b
        .table("acl")
        .key(x, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .action_nop("miss")
        .default_action(2);
    let mut fwd = Vec::new();
    for e in 0..ENTRIES {
        acl = acl.entry(TableEntry::new(
            vec![MatchValue::Exact(key(e))],
            usize::from(e % 9 == 0),
        ));
        fwd.push(TableEntry::new(vec![MatchValue::Exact(key(e) ^ 1)], 0));
    }
    let acl = acl.finish();
    let mut tb = b
        .table("fwd")
        .key(y, MatchKind::Exact)
        .action("mark", vec![Primitive::set(out, 7)])
        .action_nop("miss")
        .default_action(1);
    for e in fwd {
        tb = tb.entry(e);
    }
    tb.finish();
    let g = b.seal(acl).unwrap();
    let batch: Vec<Packet> = (0..2_000u64)
        .map(|i| {
            let flow = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
            // Mostly installed keys; every 13th flow misses both tables.
            let miss = u64::from(flow % 13 == 0) * 5_000_000;
            Packet::with_slots(vec![key(flow % ENTRIES) + miss, key(flow % 977) ^ 1, 0])
        })
        .collect();
    assert_runloop_differential(&g, &CostParams::bluefield2(), &batch, "big tables");
}

/// Builds: cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]
/// — the stateful program for the per-flow-order invariant: whether a
/// packet hits or misses the LRU depends on exactly which packets of its
/// flow ran before it on its shard.
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

/// What a sharded NIC's shards are, with the rings, locks and threads
/// taken away: each `flow_hash % workers` partition of `batch`, in
/// arrival order, through a [`SmartNic`] of its own. Mutates `batch` in
/// place and returns the reports in input order plus the partitions'
/// total occupancy of `cache`.
fn partitioned_oracle(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &mut [Packet],
    workers: usize,
    cache: NodeId,
) -> (Vec<ExecReport>, usize) {
    // Hashed up front: running a packet can rewrite the fields it hashes.
    let shard_of: Vec<u64> = batch
        .iter()
        .map(|p| p.flow_hash() % workers as u64)
        .collect();
    let mut reports = vec![None; batch.len()];
    let mut cached = 0;
    for shard in 0..workers as u64 {
        let at: Vec<usize> = (0..batch.len()).filter(|&i| shard_of[i] == shard).collect();
        let mut part: Vec<Packet> = at.iter().map(|&i| batch[i].clone()).collect();
        let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
        let ran = nic.process_batch(&mut part);
        for ((i, pkt), r) in at.into_iter().zip(part).zip(ran) {
            batch[i] = pkt;
            reports[i] = Some(r);
        }
        cached += nic.executor_mut().cache_len(cache);
    }
    (reports.into_iter().map(Option::unwrap).collect(), cached)
}

#[test]
fn per_flow_order_is_preserved_through_stateful_caches() {
    // Invariant 2, asserted through state: 96 flows against a 64-entry
    // per-shard LRU. The hit/miss (and eviction) pattern each flow sees
    // is a function of the per-shard packet order, so if the run loop
    // reordered packets within a flow — or migrated a flow between
    // shards — reports and final cache occupancy would diverge from the
    // per-partition oracle, which runs each shard's packets in arrival
    // order on a NIC of its own.
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let batch: Vec<Packet> = (0..2_000u64)
        .map(|i| Packet::with_slots(vec![(i * 31) % 96, 0]))
        .collect();
    for workers in WORKER_COUNTS {
        let mut runloop = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        let mut a = batch.clone();
        let mut b = batch.clone();
        let (ra, cached) = partitioned_oracle(&g, &params, &mut a, workers, cache);
        let rb = runloop.process_batch(&mut b);
        assert_eq!(a, b, "workers={workers}: packet mutations diverged");
        assert_eq!(ra, rb, "workers={workers}: cache-path reports diverged");
        assert_eq!(
            cached,
            runloop.cache_len(cache),
            "workers={workers}: final cache occupancy diverged"
        );
    }
}

#[test]
fn sampled_histogram_counts_are_worker_count_invariant() {
    // The satellite-3 regression in isolation, pinning *counts*: the old
    // coupling stamped per-shard sequence numbers into a global-modulo
    // sampling rule, so the number of sampled packets (and hence every
    // histogram mass) drifted with the worker count. Flow-keyed sampling
    // makes the sampled count a pure function of the traffic.
    //
    // The 48-flow working set stays under the 64-entry flow cache on
    // every shard: eviction-free, so per-packet latencies are a pure
    // per-flow function too and the histograms must match bit-for-bit.
    // (Under eviction pressure per-shard LRU state legitimately varies
    // with the worker count — the module-level cache caveat.)
    let (g, _) = cached_flow_program();
    let params = CostParams::bluefield2();
    let batch: Vec<Packet> = (0..4_000u64)
        .map(|i| Packet::with_slots(vec![(i * 7) % 48, 0]))
        .collect();
    for sample_every in [2u64, 8, 64] {
        let mut want: Option<(u64, ExecObservations)> = None;
        for workers in WORKER_COUNTS {
            let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
            nic.set_instrumentation(true, sample_every);
            nic.measure(batch.clone());
            let sampled = nic.take_profile().total_packets;
            let obs = nic.take_observations();
            assert!(sampled > 0, "sample={sample_every}: no packets sampled");
            match &want {
                None => want = Some((sampled, obs)),
                Some((n, o)) => {
                    assert_eq!(
                        *n, sampled,
                        "sample={sample_every} workers={workers}: sampled count drifted"
                    );
                    assert_eq!(
                        *o, obs,
                        "sample={sample_every} workers={workers}: histograms drifted"
                    );
                }
            }
        }
    }
}

#[test]
fn process_one_matches_across_worker_counts() {
    // The single-packet path runs on the caller's thread under the same
    // flow-keyed sampling, so reports and profiles match a flow-keyed
    // single NIC packet for packet.
    let p = AclPipeline::build(4, 2);
    let params = CostParams::bluefield2();
    for workers in WORKER_COUNTS {
        let mut single = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
        single.set_sample_keying(SampleKeying::FlowKeyed);
        let mut sharded = ShardedNic::new(p.graph.clone(), params.clone(), workers).unwrap();
        single.set_instrumentation(true, 4);
        sharded.set_instrumentation(true, 4);
        for i in 0..200u64 {
            let mut a = Packet::new(&p.graph.fields);
            for (k, &f) in p.flow_fields.iter().enumerate() {
                a.set(f, i * 31 + k as u64);
            }
            let mut b = a.clone();
            let ra = single.process_one(&mut a);
            let rb = sharded.process_one(&mut b);
            assert_eq!(ra, rb, "report diverged at packet {i} workers={workers}");
            assert_eq!(a, b, "packet contents diverged at {i} workers={workers}");
        }
        assert_profiles_identical(
            &single.take_profile(),
            &sharded.take_profile(),
            &format!("process_one workers={workers}"),
        );
    }
}

/// A profile taken with packets still in the rings reads the whole
/// stream fed so far: `take_profile` drains first, so every shard closes
/// its window — and restarts its per-flow sample counts — at the same
/// stream position as a flow-keyed single NIC, and both windows match it
/// at any worker count. Each feed moves the sharded clock to its last
/// packet's arrival, as a single NIC's moves, so `window_s` matches too.
#[test]
fn mid_window_profiles_match_across_worker_counts() {
    let p = AclPipeline::build(4, 2);
    let params = CostParams::bluefield2();
    let batch = p.traffic(&[0.1, 0.2, 0.0, 0.3], 300, 45).batch(6_000);
    let (head, tail) = batch.split_at(batch.len() / 2);
    let run = |nic: &mut dyn NicBackend| {
        nic.set_instrumentation(true, 4);
        nic.measure_begin();
        nic.measure_feed(head.to_vec());
        let first = nic.take_profile();
        nic.measure_feed(tail.to_vec());
        nic.measure_end();
        (first, nic.take_profile())
    };
    let mut single = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
    single.set_sample_keying(SampleKeying::FlowKeyed);
    let want = run(&mut single);
    for workers in WORKER_COUNTS {
        let mut nic = ShardedNic::new(p.graph.clone(), params.clone(), workers).unwrap();
        let got = run(&mut nic);
        assert_profiles_identical(&want.0, &got.0, &format!("first half workers={workers}"));
        assert_profiles_identical(&want.1, &got.1, &format!("second half workers={workers}"));
    }
}

/// Past an observer's 65,536-sample budget a distinct-key count is an
/// estimate from a hash sample of the keys, and still one count: both
/// engines, one NIC and the union of 1, 2 or 8 shards' observers report
/// the same number, within 2 % of the truth.
#[test]
fn distinct_counts_agree_past_the_budget() {
    let mut b = ProgramBuilder::new();
    let x = b.field("x");
    let t = b.table("flows").key(x, MatchKind::Exact).finish();
    let g = b.seal(t).unwrap();
    let params = CostParams::bluefield2();
    for keys in [70_000u64, 200_000] {
        let batch: Vec<Packet> = (1..=keys)
            .map(|v| {
                let mut p = Packet::new(&g.fields);
                p.set(x, v);
                p
            })
            .collect();
        let count = |nic: &mut dyn NicBackend| {
            nic.set_instrumentation(true, 1);
            nic.measure_batch(batch.clone());
            nic.take_profile().distinct_keys_of(t).expect("a count")
        };
        let mut counts = Vec::new();
        for engine in [EngineMode::Interpreter, EngineMode::Compiled] {
            let mut single = SmartNic::with_engine(g.clone(), params.clone(), engine).unwrap();
            counts.push((format!("{engine:?} single"), count(&mut single)));
            for workers in WORKER_COUNTS {
                let mut nic =
                    ShardedNic::with_engine(g.clone(), params.clone(), workers, engine).unwrap();
                counts.push((format!("{engine:?} workers={workers}"), count(&mut nic)));
            }
        }
        let want = counts[0].1;
        for (ctx, n) in &counts {
            assert_eq!(*n, want, "{keys} keys, {ctx}");
        }
        let err = (want as f64 - keys as f64).abs() / keys as f64;
        assert!(err < 0.02, "{keys} keys estimated as {want}");
    }
}

/// Distinct-key counts are exact set sizes below the budget, whoever
/// keeps the set: the interpreter or the compiled walk, one NIC or the
/// cross-shard union of 1, 2 or 8 workers. Two consecutive windows with
/// an entry op between them: the second starts from nothing (its fewer
/// flows must read as fewer keys, though the observers keep their
/// capacity), and the op disturbs no observer. DASH has single-field tables, a four-field
/// conntrack table, and ACL fields that are mostly zero.
#[test]
fn distinct_counts_match_across_engines_workers_and_windows() {
    let dash = DashRouting::build();
    let params = CostParams::bluefield2();
    let windows: [Vec<Packet>; 2] = [
        dash.traffic(&[0.2, 0.0, 0.1], 900, 0.6, 41).batch(6_000),
        dash.traffic(&[0.0, 0.3, 0.0], 60, 0.6, 42).batch(3_000),
    ];
    let entry = || TableEntry::new(vec![MatchValue::Exact(77)], 0);
    // Both windows' counts on `nic`, with the entry op between them.
    let run = |nic: &mut dyn NicBackend| {
        nic.set_instrumentation(true, 16);
        nic.measure_batch(windows[0].clone());
        let first = nic.take_profile().distinct_keys;
        nic.insert_entry(dash.metadata[0], entry()).unwrap();
        nic.measure_batch(windows[1].clone());
        (first, nic.take_profile().distinct_keys)
    };
    let single =
        |engine| SmartNic::with_engine(dash.graph.clone(), params.clone(), engine).unwrap();

    let (first, second) = run(&mut single(EngineMode::Interpreter));
    assert!(first[&dash.conntrack] > 500, "{first:?}");
    assert!(second[&dash.conntrack] <= 60, "{second:?}");
    assert!(first.values().all(|&n| n > 0) && second.values().all(|&n| n > 0));
    let want = (first, second);
    assert_eq!(run(&mut single(EngineMode::Compiled)), want, "compiled");
    for engine in [EngineMode::Interpreter, EngineMode::Compiled] {
        for workers in WORKER_COUNTS {
            let mut nic =
                ShardedNic::with_engine(dash.graph.clone(), params.clone(), workers, engine)
                    .unwrap();
            assert_eq!(run(&mut nic), want, "{engine:?} workers={workers}");
        }
    }
}
