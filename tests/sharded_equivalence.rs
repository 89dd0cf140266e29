//! Determinism/equivalence harness for the bit-exact sharded datapath:
//! for worker counts 1, 2, and 8, a [`ShardedNic`] in
//! [`ShardMode::BitExact`] fed the same seeded traffic as a
//! single-threaded [`SmartNic`] must report bit-identical batch
//! statistics and a bit-identical merged runtime profile — every edge
//! counter, every action counter, cache statistics, distinct-key
//! estimates, and the profile window. (The default `RunLoop` mode
//! intentionally relaxes float summation order; its differential suite
//! is `tests/runloop_differential.rs`.)

use pipeleon_cost::CostParams;
use pipeleon_sim::{BatchStats, NicBackend, Packet, ShardMode, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::{AclPipeline, DashRouting};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Asserts profile equality counter-by-counter, then wholesale, so a
/// regression names the first diverging counter instead of dumping two
/// whole profiles.
fn assert_profiles_identical(
    single: &pipeleon_cost::RuntimeProfile,
    sharded: &pipeleon_cost::RuntimeProfile,
    ctx: &str,
) {
    assert_eq!(
        single.total_packets, sharded.total_packets,
        "{ctx}: total_packets"
    );
    let mut single_edges: Vec<_> = single.edges().collect();
    let mut sharded_edges: Vec<_> = sharded.edges().collect();
    single_edges.sort();
    sharded_edges.sort();
    assert_eq!(single_edges, sharded_edges, "{ctx}: edge counters");
    let mut single_actions: Vec<_> = single.actions().collect();
    let mut sharded_actions: Vec<_> = sharded.actions().collect();
    single_actions.sort();
    sharded_actions.sort();
    assert_eq!(single_actions, sharded_actions, "{ctx}: action counters");
    assert_eq!(
        single.cache_stats, sharded.cache_stats,
        "{ctx}: cache stats"
    );
    assert_eq!(
        single.distinct_keys, sharded.distinct_keys,
        "{ctx}: distinct keys"
    );
    assert_eq!(
        single.entry_update_rates, sharded.entry_update_rates,
        "{ctx}: entry update rates"
    );
    assert_eq!(single.window_s, sharded.window_s, "{ctx}: window");
    assert_eq!(single, sharded, "{ctx}: full profile");
}

fn assert_stats_identical(a: BatchStats, b: BatchStats, ctx: &str) {
    // Bitwise, not approximate: the sharded reducer replays the global
    // arrival order, so even float aggregates must match exactly.
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
    assert_eq!(
        a.throughput_gbps.to_bits(),
        b.throughput_gbps.to_bits(),
        "{ctx}: throughput"
    );
    assert_eq!(a, b, "{ctx}: full stats");
}

#[test]
fn dash_routing_matches_single_threaded() {
    let dash = DashRouting::build();
    let params = CostParams::bluefield2();
    for workers in WORKER_COUNTS {
        let mut single = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::with_mode(
            dash.graph.clone(),
            params.clone(),
            workers,
            ShardMode::BitExact,
        )
        .unwrap();
        single.set_instrumentation(true, 16);
        sharded.set_instrumentation(true, 16);
        // Several batches with distinct traffic phases, comparing the
        // merged profile after each (take_profile resets, so each window
        // is checked independently).
        for (phase, rates) in [[0.0, 0.0, 0.0], [0.3, 0.0, 0.1], [0.0, 0.5, 0.0]]
            .iter()
            .enumerate()
        {
            let batch: Vec<Packet> = dash.traffic(rates, 800, 1.1, phase as u64).batch(6_000);
            let ctx = format!("dash workers={workers} phase={phase}");
            assert_stats_identical(single.measure(batch.clone()), sharded.measure(batch), &ctx);
            assert_profiles_identical(&single.take_profile(), &sharded.take_profile(), &ctx);
        }
        assert_eq!(
            single.now_s(),
            sharded.now_s(),
            "clocks diverged at workers={workers}"
        );
    }
}

#[test]
fn acl_pipeline_matches_single_threaded_with_sampling_one() {
    // sample_every = 1 exercises the unscaled counter path.
    let p = AclPipeline::build(6, 4);
    let params = CostParams::emulated_nic();
    for workers in WORKER_COUNTS {
        let mut single = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::with_mode(
            p.graph.clone(),
            params.clone(),
            workers,
            ShardMode::BitExact,
        )
        .unwrap();
        single.set_instrumentation(true, 1);
        sharded.set_instrumentation(true, 1);
        let batch: Vec<Packet> = p.traffic(&[0.2, 0.0, 0.1, 0.0], 400, 7).batch(5_000);
        let ctx = format!("acl workers={workers}");
        assert_stats_identical(single.measure(batch.clone()), sharded.measure(batch), &ctx);
        assert_profiles_identical(&single.take_profile(), &sharded.take_profile(), &ctx);
    }
}

#[test]
fn uninstrumented_runs_also_match() {
    let dash = DashRouting::build();
    let params = CostParams::agilio_cx();
    for workers in WORKER_COUNTS {
        let mut single = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::with_mode(
            dash.graph.clone(),
            params.clone(),
            workers,
            ShardMode::BitExact,
        )
        .unwrap();
        let batch: Vec<Packet> = dash.traffic(&[0.1, 0.1, 0.1], 500, 0.0, 3).batch(4_000);
        let ctx = format!("uninstrumented workers={workers}");
        assert_stats_identical(single.measure(batch.clone()), sharded.measure(batch), &ctx);
    }
}

#[test]
fn sharded_histograms_merge_bit_identically() {
    // The observability layer rides the same sampled path: per-worker
    // latency histograms, merged in shard order, must be bit-identical
    // to the single-threaded histograms for every worker count — both
    // the packet-level histogram and every per-table histogram.
    let dash = DashRouting::build();
    let params = CostParams::bluefield2();
    let mut single = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    single.set_instrumentation(true, 8);
    let batch: Vec<Packet> = dash.traffic(&[0.2, 0.1, 0.0], 600, 1.1, 9).batch(6_000);
    single.measure(batch.clone());
    let reference = single.take_observations();
    assert!(
        !reference.is_empty(),
        "sampled run must record observations"
    );
    for workers in WORKER_COUNTS {
        let mut sharded = ShardedNic::with_mode(
            dash.graph.clone(),
            params.clone(),
            workers,
            ShardMode::BitExact,
        )
        .unwrap();
        sharded.set_instrumentation(true, 8);
        sharded.measure(batch.clone());
        let merged = sharded.take_observations();
        let ctx = format!("observations workers={workers}");
        assert_eq!(
            merged.packet_latency, reference.packet_latency,
            "{ctx}: packet latency histogram"
        );
        assert_eq!(
            merged.per_table.keys().collect::<Vec<_>>(),
            reference.per_table.keys().collect::<Vec<_>>(),
            "{ctx}: instrumented table set"
        );
        for (node, hist) in &reference.per_table {
            assert_eq!(
                merged.per_table.get(node),
                Some(hist),
                "{ctx}: table {node:?} histogram"
            );
        }
        assert_eq!(merged, reference, "{ctx}: full observations");
    }
}

#[test]
fn process_one_matches_across_worker_counts() {
    // The single-packet path uses the same global sequence numbers, so
    // reports and profiles must match too.
    let p = AclPipeline::build(4, 2);
    let params = CostParams::bluefield2();
    for workers in WORKER_COUNTS {
        let mut single = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::with_mode(
            p.graph.clone(),
            params.clone(),
            workers,
            ShardMode::BitExact,
        )
        .unwrap();
        single.set_instrumentation(true, 4);
        sharded.set_instrumentation(true, 4);
        for i in 0..200u64 {
            let mut a = Packet::new(&p.graph.fields);
            let mut b = Packet::new(&p.graph.fields);
            for (k, &f) in p.flow_fields.iter().enumerate() {
                a.set(f, i * 31 + k as u64);
                b.set(f, i * 31 + k as u64);
            }
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

/// Distinct-key counts are exact set sizes, whoever keeps the set: the
/// interpreter or the compiled walk, one NIC or the cross-shard union of
/// 1, 2 or 8 workers in either shard mode. Two consecutive windows with
/// an entry op between them: the second starts from nothing (its fewer
/// flows must read as fewer keys, though the trackers keep their
/// capacity), and the op disturbs no tracker. DASH has single-field
/// tables, a four-field conntrack table, and ACL fields that are mostly
/// zero.
#[test]
fn distinct_counts_match_across_engines_workers_and_windows() {
    use pipeleon_ir::{MatchValue, TableEntry};
    use pipeleon_sim::EngineMode;
    let dash = DashRouting::build();
    let params = CostParams::bluefield2();
    let windows: [Vec<Packet>; 2] = [
        dash.traffic(&[0.2, 0.0, 0.1], 900, 0.6, 41).batch(6_000),
        dash.traffic(&[0.0, 0.3, 0.0], 60, 0.6, 42).batch(3_000),
    ];
    let entry = || TableEntry::new(vec![MatchValue::Exact(77)], 0);

    let mut reference = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    reference.set_engine_mode(EngineMode::Interpreter);
    reference.set_instrumentation(true, 16);
    reference.measure(windows[0].clone());
    let first = reference.take_profile().distinct_keys;
    reference.insert_entry(dash.metadata[0], entry()).unwrap();
    reference.measure(windows[1].clone());
    let second = reference.take_profile().distinct_keys;
    assert!(first[&dash.conntrack] > 500, "{first:?}");
    assert!(second[&dash.conntrack] <= 60, "{second:?}");
    assert!(first.values().all(|&n| n > 0) && second.values().all(|&n| n > 0));

    let mut compiled = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    compiled.set_engine_mode(EngineMode::Compiled);
    compiled.set_instrumentation(true, 16);
    compiled.measure(windows[0].clone());
    assert_eq!(compiled.take_profile().distinct_keys, first, "compiled");
    compiled.insert_entry(dash.metadata[0], entry()).unwrap();
    compiled.measure(windows[1].clone());
    assert_eq!(compiled.take_profile().distinct_keys, second, "compiled");

    for mode in [ShardMode::BitExact, ShardMode::RunLoop] {
        for engine in [EngineMode::Interpreter, EngineMode::Compiled] {
            for workers in WORKER_COUNTS {
                let ctx = format!("{mode:?} {engine:?} workers={workers}");
                let mut nic =
                    ShardedNic::with_mode(dash.graph.clone(), params.clone(), workers, mode)
                        .unwrap();
                nic.set_engine_mode(engine);
                nic.set_instrumentation(true, 16);
                nic.measure(windows[0].clone());
                assert_eq!(nic.take_profile().distinct_keys, first, "{ctx}: first");
                nic.insert_entry(dash.metadata[0], entry()).unwrap();
                nic.measure(windows[1].clone());
                assert_eq!(nic.take_profile().distinct_keys, second, "{ctx}: second");
            }
        }
    }
}
