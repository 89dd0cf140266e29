//! Profile-guided specialization speedup: compiled engine with vs
//! without a [`SpecPlan`](pipeleon_sim::SpecConfig) applied.
//!
//! Wall-clock packets/sec of the compiled datapath on the skewed
//! classifier pipeline ([`SkewedPipeline`]), per target preset
//! (bluefield2, agilio_cx, bmv2 → `emulated_nic`), per worker count
//! (1/2/8, run-loop sharding above 1) and per workload (Zipf-skewed,
//! where the hot-key guards and inline caches earn their keep, and
//! uniform, where no sketch qualifies and specialization must be ~free).
//!
//! Methodology per row: warm a profiling window with instrumentation on
//! (sample-every-1 feeds the hot-key sketches), apply the plan (or
//! don't, for the baseline), switch instrumentation off, then time. The
//! two variants differ by exactly one `specialize()` call. Every row
//! cross-checks bit-identity of the timed traffic against both oracles —
//! the unspecialized compiled engine and the interpreter. Every skewed
//! row also requires that fused guard runs served packets (the
//! `fused_hit_share` column): a derived pass that silently stopped
//! firing would still be bit-identical, just slow.
//!
//! Output: tab-separated table on stdout plus `BENCH_specialize.json`
//! at the repo root (override with `BENCH_SPECIALIZE_OUT`).
//! `SPECIALIZE_SMOKE=1` shrinks batches for CI; the acceptance gate
//! (skewed speedup >= 1.5x single-worker, uniform within 10% — the
//! run-to-run wall-clock noise floor on a shared box) is only asserted
//! on full runs.

use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::CostParams;
use pipeleon_sim::{EngineMode, Packet, ShardedNic, SmartNic, SpecStats};
use pipeleon_workloads::scenarios::SkewedPipeline;
use std::time::Instant;

/// Zipf exponent for the skewed workload: the top flow takes ~83% of
/// packets, far past the sketch's majority bar.
const SKEW: f64 = 3.0;
const FLOWS: usize = 400;

fn presets() -> Vec<(&'static str, CostParams)> {
    vec![
        ("bluefield2", CostParams::bluefield2()),
        ("agilio_cx", CostParams::agilio_cx()),
        ("bmv2", CostParams::emulated_nic()),
    ]
}

/// Batch fingerprint for the bit-identity cross-check: summed latency
/// bits, drops, migrations.
fn fingerprint(reports: &[pipeleon_sim::ExecReport]) -> (u64, u64, u64) {
    let mut lat = 0u64;
    let mut dropped = 0u64;
    let mut migrations = 0u64;
    for r in reports {
        lat = lat.wrapping_add(r.latency_ns.to_bits());
        dropped += r.dropped as u64;
        migrations += r.migrations as u64;
    }
    (lat, dropped, migrations)
}

/// Single-worker run. Warm + profile with instrumentation on, optionally
/// specialize, then time with instrumentation off. Returns
/// (pps, fingerprint, spec stats).
fn run_single(
    s: &SkewedPipeline,
    params: &CostParams,
    engine: EngineMode,
    specialize: bool,
    warm: &[Packet],
    batch: &[Packet],
    reps: u32,
) -> (f64, (u64, u64, u64), SpecStats) {
    let mut nic = SmartNic::new(s.graph.clone(), params.clone()).unwrap();
    nic.set_engine_mode(engine);
    nic.set_instrumentation(true, 1);
    let mut w = warm.to_vec();
    nic.process_batch(&mut w);
    if specialize {
        assert!(nic.specialize(), "profiling window must yield a plan");
    }
    nic.set_instrumentation(false, 1);
    let mut fp = (0, 0, 0);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut work = batch.to_vec();
        let start = Instant::now();
        let reports = nic.process_batch(&mut work);
        // Fastest rep: scheduler noise only ever slows a rep down.
        best = best.min(start.elapsed().as_secs_f64());
        fp = fingerprint(&reports);
    }
    (batch.len() as f64 / best, fp, nic.spec_stats())
}

/// Run-loop sharded run, same protocol; the fingerprint comes from the
/// merged window statistics.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    s: &SkewedPipeline,
    params: &CostParams,
    workers: usize,
    engine: EngineMode,
    specialize: bool,
    warm: &[Packet],
    batch: &[Packet],
    reps: u32,
) -> (f64, (u64, u64, u64), SpecStats) {
    let mut nic = ShardedNic::new(s.graph.clone(), params.clone(), workers).unwrap();
    nic.set_engine_mode(engine);
    nic.set_instrumentation(true, 1);
    nic.measure(warm.to_vec());
    if specialize {
        assert!(nic.specialize(), "profiling window must yield a plan");
    }
    nic.set_instrumentation(false, 1);
    let mut fp = (0, 0, 0);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let work = batch.to_vec();
        let start = Instant::now();
        let stats = nic.measure(work);
        best = best.min(start.elapsed().as_secs_f64());
        fp = (
            stats.mean_latency_ns.to_bits(),
            stats.dropped,
            stats.migrations,
        );
    }
    (batch.len() as f64 / best, fp, nic.spec_stats())
}

struct Row {
    preset: &'static str,
    workload: &'static str,
    workers: usize,
    plain_pps: f64,
    spec_pps: f64,
    specialized_tables: u64,
    guard_hit_rate: f64,
}

fn main() {
    let smoke = std::env::var("SPECIALIZE_SMOKE").is_ok();
    let (warm_n, packets, reps) = if smoke {
        (2_000, 6_000, 1)
    } else {
        (4_000, 30_000, 3)
    };
    banner(
        "specialize",
        "compiled-datapath pps: specialized vs unspecialized (skewed classifier pipeline)",
    );
    println!("# packets_per_rep: {packets}  reps: {reps}  smoke: {smoke}");
    header(&[
        "preset",
        "workload",
        "workers",
        "plain_pps",
        "spec_pps",
        "speedup",
        "spec_tables",
        "guard_hit_rate",
        "fused_hit_share",
        "identical",
    ]);
    // 8 classifiers x 128 ternary rules: each guard hit skips a ~1k-rule
    // priority-scan budget per packet, the regime the 1.5x gate targets.
    let s = SkewedPipeline::build_with_entries(8, 4, 128);
    let mut rows: Vec<Row> = Vec::new();
    for (name, params) in presets() {
        for (workload, skew) in [("skewed", SKEW), ("uniform", 0.0)] {
            let warm = s.traffic(skew, FLOWS, 42).batch(warm_n);
            let batch = s.traffic(skew, FLOWS, 43).batch(packets);
            for workers in [1usize, 2, 8] {
                let (ipp, ifp, plain, pfp, spec, sfp, st) = if workers == 1 {
                    let (ipp, ifp, _) = run_single(
                        &s,
                        &params,
                        EngineMode::Interpreter,
                        false,
                        &warm,
                        &batch,
                        reps,
                    );
                    let (ppp, pfp, _) = run_single(
                        &s,
                        &params,
                        EngineMode::Compiled,
                        false,
                        &warm,
                        &batch,
                        reps,
                    );
                    let (spp, sfp, st) =
                        run_single(&s, &params, EngineMode::Compiled, true, &warm, &batch, reps);
                    (ipp, ifp, ppp, pfp, spp, sfp, st)
                } else {
                    let (ipp, ifp, _) = run_sharded(
                        &s,
                        &params,
                        workers,
                        EngineMode::Interpreter,
                        false,
                        &warm,
                        &batch,
                        reps,
                    );
                    let (ppp, pfp, _) = run_sharded(
                        &s,
                        &params,
                        workers,
                        EngineMode::Compiled,
                        false,
                        &warm,
                        &batch,
                        reps,
                    );
                    let (spp, sfp, st) = run_sharded(
                        &s,
                        &params,
                        workers,
                        EngineMode::Compiled,
                        true,
                        &warm,
                        &batch,
                        reps,
                    );
                    (ipp, ifp, ppp, pfp, spp, sfp, st)
                };
                let _ = ipp;
                assert_eq!(
                    ifp, pfp,
                    "{name}/{workload}/{workers}w: interpreter vs compiled disagree"
                );
                assert_eq!(
                    pfp, sfp,
                    "{name}/{workload}/{workers}w: specialization broke bit-identity"
                );
                let guarded = st.guard_hits + st.guard_misses;
                let hit_rate = if guarded == 0 {
                    0.0
                } else {
                    st.guard_hits as f64 / guarded as f64
                };
                // Instrumentation is off for exactly the timed reps, so
                // those are the packets a run could have served.
                let fused_share = st.fused_hits as f64 / (packets as f64 * f64::from(reps));
                assert!(
                    workload != "skewed" || st.fused_hits > 0,
                    "{name}/{workload}/{workers}w: no packet took a fused guard run \
                     ({} run(s) derived)",
                    st.fused_runs
                );
                row(&[
                    name.to_string(),
                    workload.to_string(),
                    workers.to_string(),
                    f(plain),
                    f(spec),
                    f(spec / plain),
                    st.specialized_tables.to_string(),
                    f(hit_rate),
                    f(fused_share),
                    "true".to_string(),
                ]);
                rows.push(Row {
                    preset: name,
                    workload,
                    workers,
                    plain_pps: plain,
                    spec_pps: spec,
                    specialized_tables: st.specialized_tables,
                    guard_hit_rate: hit_rate,
                });
            }
        }
    }

    // Acceptance gate (full runs only — smoke batches are too small to
    // time meaningfully): single-worker skewed speedup >= 1.5x, uniform
    // within 10% of baseline (best-of-reps wall clock still jitters
    // ~10% run to run on a contended single-CPU host).
    if !smoke {
        for r in rows.iter().filter(|r| r.workers == 1) {
            let speedup = r.spec_pps / r.plain_pps;
            match r.workload {
                "skewed" => assert!(
                    speedup >= 1.5,
                    "{}: skewed speedup {speedup:.3} below the 1.5x gate",
                    r.preset
                ),
                _ => assert!(
                    speedup >= 0.90,
                    "{}: uniform tax {speedup:.3} worse than 10%",
                    r.preset
                ),
            }
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"program\": \"skewed_pipeline_14\",\n  \"packets_per_rep\": {packets},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \"skew\": {SKEW},\n  \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"preset\": \"{}\", \"workload\": \"{}\", \"workers\": {}, \"plain_pps\": {:.1}, \"spec_pps\": {:.1}, \"speedup\": {:.3}, \"specialized_tables\": {}, \"guard_hit_rate\": {:.3}, \"identical\": true}}{}\n",
            r.preset,
            r.workload,
            r.workers,
            r.plain_pps,
            r.spec_pps,
            r.spec_pps / r.plain_pps,
            r.specialized_tables,
            r.guard_hit_rate,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("BENCH_SPECIALIZE_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_specialize.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write BENCH_specialize.json");
    println!("# wrote {out}");
}
