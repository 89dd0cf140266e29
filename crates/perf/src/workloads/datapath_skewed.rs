//! `datapath_skewed`: the specialised, sharded datapath on traffic that
//! exercises specialisation.
//!
//! In-process, closed loop (the caller waits for each window).
//! `SkewedPipeline::build_with_entries(8, 4, 128)`, Zipf 3.0 over 400
//! flows, a one-worker run-loop [`ShardedNic`] on the compiled engine,
//! profile window → `specialize()` → instrumentation off. Hot-key guards
//! skip nearly all lookup work, so what is left — dispatch, the ring,
//! per-packet records, the window merge and the guard path itself — is
//! what this workload weighs. The program has no flow cache, so its
//! modelled latency is exact.

use super::between_ns;
use crate::harness::{Laps, Metrics, Rep, Sample, Samples, Sizes, Workload};
use crate::trace::{Span, Tracer};
use pipeleon_cost::CostParams;
use pipeleon_ir::ProgramGraph;
use pipeleon_sim::{BatchStats, EngineMode, Packet, ShardMode, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::SkewedPipeline;
use std::time::Instant;

const SKEW: f64 = 3.0;
/// Windows a set-up warms the datapath with.
const WARM_WINDOWS: usize = 400;
const FLOWS: usize = 400;
/// Packets per `measure` window: the op.
pub const WINDOW: usize = 4096;
/// Windows per rep.
pub const WINDOWS_PER_REP: usize = 8;
/// Reps per pass over the trace: a rep cycles through a quarter of it,
/// so that a seed's draw of cold flows weighs on the rate four times
/// less than it would with a trace of one rep.
pub const REPS_PER_PASS: usize = 4;

/// Whether two measured windows agree to the bit on everything the
/// emulator accounts.
fn same_window(a: &BatchStats, b: &BatchStats) -> bool {
    a.packets == b.packets
        && a.dropped == b.dropped
        && a.migrations == b.migrations
        && a.counter_updates == b.counter_updates
        && a.mean_latency_ns.to_bits() == b.mean_latency_ns.to_bits()
        && a.p99_latency_ns.to_bits() == b.p99_latency_ns.to_bits()
}

/// State of one set-up.
pub struct Skewed {
    graph: ProgramGraph,
    params: CostParams,
    nic: ShardedNic,
    windows: Vec<Vec<Packet>>,
    /// Each window's statistics the first time it was measured; every
    /// later rep must repeat them to the bit.
    first: Vec<Option<BatchStats>>,
}

impl Workload for Skewed {
    const REPS_PER_SECOND: u64 = 34;

    fn cycle(_smoke: bool) -> u64 {
        REPS_PER_PASS as u64
    }

    fn setup(seed: u64, sizes: Sizes, _epoch: Instant, laps: &mut Laps) -> Self {
        let (ternary, rules, warm_windows) = if sizes.smoke {
            (3, 16, 4)
        } else {
            (8, 128, WARM_WINDOWS)
        };
        let s = SkewedPipeline::build_with_entries(ternary, 4, rules);
        let params = CostParams::bluefield2();
        let profile_window = s.traffic(SKEW, FLOWS, seed).batch(WINDOW);
        let trace = s
            .traffic(SKEW, FLOWS, seed.wrapping_add(1))
            .batch(WINDOW * WINDOWS_PER_REP * REPS_PER_PASS);
        let windows: Vec<Vec<Packet>> = trace.chunks(WINDOW).map(<[Packet]>::to_vec).collect();
        laps.lap();
        let mut nic = ShardedNic::with_mode(s.graph.clone(), params.clone(), 1, ShardMode::RunLoop)
            .expect("skewed pipeline deploys");
        nic.set_engine_mode(EngineMode::Compiled);
        nic.set_instrumentation(true, 1);
        nic.measure(profile_window);
        laps.lap();
        assert!(nic.specialize(), "the profile window must yield a plan");
        nic.set_instrumentation(false, 1);
        laps.lap();
        for i in 0..warm_windows {
            nic.measure(windows[i % windows.len()].clone());
            laps.lap();
        }
        Skewed {
            graph: s.graph,
            params,
            nic,
            first: vec![None; windows.len()],
            windows,
        }
    }

    fn rep(&mut self, rep: u64, tr: &mut Tracer, samples: &mut Samples) -> Rep {
        let mut out = Rep::default();
        let from = rep as usize % REPS_PER_PASS * WINDOWS_PER_REP;
        for w in from..from + WINDOWS_PER_REP {
            let window = &self.windows[w];
            let work = window.clone();
            let t0 = Instant::now();
            let stats = self.nic.measure(work);
            let t1 = Instant::now();
            tr.record("sim.sharded.measure", rep, stats.packets, t0, t1);
            let sample = Sample {
                item: w as u32,
                packets: window.len() as u32,
                ns: between_ns(t0, t1),
                ..Sample::default()
            };
            samples.rate.push(sample);
            samples.op.push(sample);
            out.packets += window.len() as u64;
            out.ops += 1;
            out.model_latency_sum_ns += stats.mean_latency_ns * stats.packets as f64;
            match &self.first[w] {
                None => self.first[w] = Some(stats),
                Some(first) if same_window(first, &stats) => {}
                Some(_) => out.failed += window.len() as u64,
            }
        }
        out
    }

    fn check(&mut self) -> u64 {
        // The interpreter, single-threaded and unspecialised, is the
        // oracle for verdicts and accounted latency.
        let mut oracle =
            SmartNic::new(self.graph.clone(), self.params.clone()).expect("oracle deploys");
        oracle.set_engine_mode(EngineMode::Interpreter);
        let mut wrong = 0;
        for (window, first) in self.windows.iter().zip(&self.first) {
            let want = oracle.measure(window.clone());
            let same = first.as_ref().is_some_and(|got| same_window(got, &want));
            if !same {
                wrong += window.len() as u64;
            }
        }
        wrong
    }

    fn probe_input(&self) -> (ProgramGraph, Vec<Packet>, CostParams) {
        (
            self.graph.clone(),
            self.windows.concat(),
            self.params.clone(),
        )
    }

    fn layers(&mut self, _m: &mut Metrics) {}

    fn finish(self) -> Vec<Span> {
        Vec::new()
    }
}
