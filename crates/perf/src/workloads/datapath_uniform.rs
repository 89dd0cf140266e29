//! `datapath_uniform`: state at scale, on traffic that bypasses
//! specialisation.
//!
//! In-process, closed loop. The `datapath_skewed` program family
//! (`SkewedPipeline::build_with_entries(2, 4, 16)`) with each of the four
//! exact flow tables populated with an entry for every one of 65,536
//! flows, uniform traffic over those flows, a single-threaded compiled
//! [`SmartNic`] fed 256-packet bursts through `process_batch`. Key
//! composition, hash probes and the cache misses of tables that do not
//! fit the core's caches dominate; the sharded path is not involved and
//! `specialize()` finds no hot flow key, so it must cost nothing here.
//! Every rep starts with the tables out of the caches altogether (see
//! [`COLD_BYTES`]): a flow is looked up once a pass, so that is the state
//! a table of this size is in whenever anything else uses the machine.
//!
//! The op (one burst) and the rate are read off the same timed calls,
//! so here `op_p50_us` is derived: 256 packets over `pkts_per_s`.

use super::between_ns;
use crate::harness::{Laps, Metrics, Rep, Sample, Samples, Sizes, Workload};
use crate::trace::{Span, Tracer};
use pipeleon_cost::CostParams;
use pipeleon_ir::{FieldRef, MatchValue, ProgramGraph, TableEntry};
use pipeleon_sim::{EngineMode, Packet, SmartNic};
use pipeleon_workloads::scenarios::SkewedPipeline;
use std::collections::HashSet;
use std::time::Instant;

/// Flows, and entries in each of the four flow tables.
pub const FLOWS: usize = 65_536;
/// Packets per `process_batch` burst: the op.
pub const BURST: usize = 256;
/// Bursts per rep.
pub const BURSTS_PER_REP: usize = 64;
/// Reps per pass over the trace (65,536 packets, one per flow on
/// average): a rep cycles through a quarter of it.
pub const REPS_PER_PASS: usize = 4;

/// Bytes the harness reads through before every rep, outside the timers.
/// The tables (some 20 MB of hot lines) fit the host's shared last-level
/// cache, and whether they *stay* there between two passes depends on
/// what the co-tenants' memory traffic does that minute: the same code
/// ran 2.3 M packets/s in one run and 1.2-1.5 M in the next (four runs
/// out of ten in one set). Starting every rep with the tables in DRAM
/// takes the neighbours out of it: 1.43-1.53 M packets/s over five runs
/// in which the unchilled workload read 1.41-2.27 M. 64 MB did not do it
/// (1.60 M and 1.94 M), nor did 256 or 512 MB once a pass instead of
/// once a rep.
const COLD_BYTES: usize = 256 << 20;

/// Passes over the trace a set-up warms the tables with.
const WARM_PASSES: usize = 4;

/// The value `FlowGen` writes into flow field `field_index` for flow
/// rank `flow` (its rank→value map is seed-independent). [`Uniform::check`]
/// verifies against the generated trace that this still holds.
fn flow_value(flow: u64, field_index: usize) -> u64 {
    flow.wrapping_mul(2_654_435_761)
        .wrapping_add(field_index as u64 * 97)
        % 1_000_003
}

/// State of one set-up.
pub struct Uniform {
    graph: ProgramGraph,
    params: CostParams,
    nic: SmartNic,
    trace: Vec<Packet>,
    work: Vec<Packet>,
    /// Per burst of the trace, the bits of its summed accounted latency
    /// the first time it ran; later passes must repeat them.
    first: Vec<Option<u64>>,
    /// For the trace check: (flow field index, installed values).
    installed: Vec<(usize, HashSet<u64>)>,
    flow_fields: Vec<FieldRef>,
    /// What [`Uniform::chill`] reads through.
    cold: Vec<u64>,
}

impl Uniform {
    /// Reads one word of every cache line of the cold buffer, so that
    /// the tables are out of every cache level when the next rep starts.
    fn chill(&self) {
        let sum = self
            .cold
            .iter()
            .step_by(8)
            .fold(0u64, |sum, word| sum.wrapping_add(*word));
        std::hint::black_box(sum);
    }
}

impl Workload for Uniform {
    const REPS_PER_SECOND: u64 = 14;

    fn cycle(_smoke: bool) -> u64 {
        REPS_PER_PASS as u64
    }

    fn setup(seed: u64, sizes: Sizes, _epoch: Instant, laps: &mut Laps) -> Self {
        let (flows, bursts, warm_passes) = if sizes.smoke {
            (512, 2 * REPS_PER_PASS, 1)
        } else {
            (FLOWS, BURSTS_PER_REP * REPS_PER_PASS, WARM_PASSES)
        };
        // The harness's own buffer is not part of the set-up. Ones, not
        // zeroes: untouched zero pages all map to one physical page and
        // would evict nothing.
        let cold = vec![1u64; if sizes.smoke { 0 } else { COLD_BYTES / 8 }];
        laps.skip();
        let s = SkewedPipeline::build_with_entries(2, 4, 16);
        let mut graph = s.graph.clone();
        let mut installed = Vec::new();
        for (j, &node) in s.exact.iter().enumerate() {
            let field_index = j % s.flow_fields.len();
            let table = graph
                .node_mut(node)
                .and_then(|n| n.as_table_mut())
                .expect("flow table");
            let mut values = HashSet::with_capacity(flows);
            for flow in 0..flows as u64 {
                let v = flow_value(flow, field_index);
                // Two flows can share a value; the key is installed once.
                if values.insert(v) {
                    table
                        .entries
                        .push(TableEntry::new(vec![MatchValue::Exact(v)], 0));
                }
            }
            installed.push((field_index, values));
        }
        graph.validate().expect("populated program is valid");
        let params = CostParams::bluefield2();
        laps.lap();
        let profile_window = s.traffic(0.0, flows, seed).batch(4096);
        let trace = s
            .traffic(0.0, flows, seed.wrapping_add(1))
            .batch(bursts * BURST);
        laps.lap();
        let mut nic = SmartNic::new(graph.clone(), params.clone()).expect("program deploys");
        nic.set_engine_mode(EngineMode::Compiled);
        laps.lap();
        nic.set_instrumentation(true, 1);
        let mut w = profile_window;
        nic.process_batch(&mut w);
        laps.lap();
        // Uniform traffic has no hot key: whatever plan comes back must
        // leave the lookups as they were.
        nic.specialize();
        nic.set_instrumentation(false, 1);
        laps.lap();
        let work = trace[..BURST].to_vec();
        let mut this = Uniform {
            graph,
            params,
            nic,
            first: vec![None; bursts],
            trace,
            work,
            cold,
            installed,
            flow_fields: s.flow_fields,
        };
        laps.lap();
        // The warm-up runs the way the timed phase does: every quarter
        // of a pass from cold tables, the chilling not counted.
        for _ in 0..warm_passes {
            for quarter in this.trace.chunks_exact(this.trace.len() / REPS_PER_PASS) {
                this.chill();
                laps.skip();
                for burst in quarter.chunks_exact(BURST) {
                    this.work.clone_from_slice(burst);
                    this.nic.process_batch(&mut this.work);
                    laps.lap();
                }
            }
        }
        this
    }

    fn rep(&mut self, rep: u64, tr: &mut Tracer, samples: &mut Samples) -> Rep {
        let mut out = Rep::default();
        self.chill();
        let per_rep = self.trace.len() / BURST / REPS_PER_PASS;
        let from = rep as usize % REPS_PER_PASS * per_rep;
        for b in from..from + per_rep {
            let burst = &self.trace[b * BURST..(b + 1) * BURST];
            // Restored in place, outside the timer: the program only ever
            // sees generated packets and the allocator is not timed.
            self.work.clone_from_slice(burst);
            let t0 = Instant::now();
            let reports = self.nic.process_batch(&mut self.work);
            let t1 = Instant::now();
            tr.record("sim.nic.process_batch", rep, BURST as u64, t0, t1);
            let sample = Sample {
                item: b as u32,
                packets: BURST as u32,
                ns: between_ns(t0, t1),
                ..Sample::default()
            };
            samples.rate.push(sample);
            samples.op.push(sample);
            let sum: f64 = reports.iter().map(|r| r.latency_ns).sum();
            out.model_latency_sum_ns += sum;
            match self.first[b] {
                None => self.first[b] = Some(sum.to_bits()),
                Some(bits) if bits == sum.to_bits() => {}
                Some(_) => out.failed += BURST as u64,
            }
        }
        out.packets = (per_rep * BURST) as u64;
        out.ops = per_rep as u64;
        out
    }

    fn check(&mut self) -> u64 {
        // Every generated key must be installed, or the workload is not
        // the one described.
        let stray = self
            .trace
            .iter()
            .filter(|p| {
                self.installed
                    .iter()
                    .any(|(f, values)| !values.contains(&p.get(self.flow_fields[*f])))
            })
            .count() as u64;
        // Verdicts, rewritten packets and accounted latency against the
        // interpreter on the full trace.
        let mut oracle =
            SmartNic::new(self.graph.clone(), self.params.clone()).expect("oracle deploys");
        oracle.set_engine_mode(EngineMode::Interpreter);
        let mut want = self.trace.clone();
        let want_reports = oracle.process_batch(&mut want);
        let mut got = self.trace.clone();
        let got_reports = self.nic.process_batch(&mut got);
        let wrong = (0..want.len())
            .filter(|&i| want[i] != got[i] || want_reports[i] != got_reports[i])
            .count() as u64;
        stray + wrong
    }

    fn probe_input(&self) -> (ProgramGraph, Vec<Packet>, CostParams) {
        (self.graph.clone(), self.trace.clone(), self.params.clone())
    }

    fn layers(&mut self, _m: &mut Metrics) {}

    fn finish(self) -> Vec<Span> {
        Vec::new()
    }
}
