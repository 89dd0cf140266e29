//! Per-module probes: each layer's public calls, alone, on the
//! workload's own program and traffic.
//!
//! The traced run of every workload ends here, with every helper thread
//! stopped. A probe either wraps the public call in a timer or calls the
//! public function alone on the same inputs; counts come from public
//! accessors. Each timing is the fastest of a few passes of fixed work.
//! Metrics of layers a workload does not drive at all (the socket path
//! outside `serve_lb`, the controller outside `control_loop`) read 0.

use crate::harness::Metrics;
use crate::trace::Tracer;
use crate::workloads::between_ns;
use pipeleon::search::Optimizer;
use pipeleon::{apply_plan, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::json::to_json_string;
use pipeleon_ir::{FieldRef, MatchKind, MatchValue, ProgramBuilder, ProgramGraph, TableEntry};
use pipeleon_net::{decode, encode_into, FieldMap};
use pipeleon_obs::LatencyHistogram;
use pipeleon_sim::{EngineMode, NicBackend, Packet, ShardMode, ShardedNic, SmartNic};
use pipeleon_verify::PlanVerifier;
use pipeleon_workloads::traffic::FlowGen;
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::Instant;

/// Every per-module metric as `(name, unit, higher is better)`: the
/// `per_layer` list of `BENCHMARK.json`, in its order.
pub const PER_LAYER: [(&str, &str, bool); 60] = [
    ("net.wire.decode_ns_per_pkt", "ns/pkt", false),
    ("net.wire.encode_ns_per_pkt", "ns/pkt", false),
    ("net.wire.frame_bytes", "B", false),
    ("net.ingest.poll_ns_per_pkt", "ns/pkt", false),
    ("net.ingest.burst_mean", "pkt", true),
    ("net.ingest.idle_polls_per_kpkt", "1/kpkt", false),
    ("net.ingest.server_e2e_p50_us", "us", false),
    ("net.ingest.dropped", "count", false),
    ("net.ingest.unattributed_ns_per_pkt", "ns/pkt", false),
    ("net.client.replay_ns_per_pkt", "ns/pkt", false),
    ("net.client.rtt_w1_p99_us", "us", false),
    ("net.client.rtt_w64_p50_us", "us", false),
    ("net.client.rtt_w64_p99_us", "us", false),
    ("os.loopback.syscall_pair_ns", "ns", false),
    ("sim.nic.process_batch_ns_per_pkt", "ns/pkt", false),
    ("sim.nic.measure_ns_per_pkt", "ns/pkt", false),
    ("sim.nic.accounting_ns_per_pkt", "ns/pkt", false),
    ("sim.nic.take_profile_us", "us", false),
    ("sim.sharded.measure_ns_per_pkt", "ns/pkt", false),
    ("sim.sharded.overhead_ns_per_pkt", "ns/pkt", false),
    ("sim.sharded.null_program_ns_per_pkt", "ns/pkt", false),
    ("sim.exec.interp_ns_per_pkt", "ns/pkt", false),
    ("sim.exec.probes_per_pkt", "1/pkt", false),
    ("sim.exec.counter_updates_per_pkt", "1/pkt", false),
    ("sim.exec.drop_share", "share", false),
    ("sim.compiled.plain_ns_per_pkt", "ns/pkt", false),
    ("sim.compiled.full_compiles", "count", false),
    ("sim.compiled.table_patches", "count", false),
    ("sim.compiled.deploy_us", "us", false),
    ("sim.specialize.guard_hit_share", "share", true),
    ("sim.specialize.specialized_tables", "count", true),
    ("sim.specialize.apply_us", "us", false),
    ("sim.specialize.speedup", "x", true),
    ("sim.cache.occupancy", "count", true),
    ("sim.cache.hit_share", "share", true),
    ("runtime.controller.tick_quiet_us", "us", false),
    ("runtime.controller.tick_reopt_us", "us", false),
    ("runtime.controller.entry_op_us", "us", false),
    ("runtime.controller.reoptimizations", "count", false),
    ("runtime.controller.deploys", "count", false),
    ("runtime.controller.rollbacks", "count", false),
    ("runtime.controller.plan_rejections", "count", false),
    ("runtime.controller.specializations", "count", false),
    ("runtime.controller.despecializations", "count", false),
    ("core.search.optimize_us", "us", false),
    ("core.search.candidates_evaluated", "count", false),
    ("core.search.candidates_rejected", "count", false),
    ("core.search.est_gain_ns", "ns/pkt", true),
    ("core.apply.apply_plan_us", "us", false),
    ("cost.model.expected_latency_us", "us", false),
    ("cost.model.error_pct", "%", false),
    ("verify.plan.verify_us", "us", false),
    ("ir.json.to_string_us", "us", false),
    ("obs.hist.record_ns", "ns", false),
    ("workloads.traffic.gen_ns_per_pkt", "ns/pkt", false),
    ("bench.rep_rate_p50", "1/s", true),
    ("bench.rep_rate_iqr_pct", "%", false),
    ("bench.disturbed_share", "share", false),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.pinned", "bool", true),
];

const BURST: usize = 256;
const WINDOW: usize = 4096;

/// The smallest program there is — one keyless table, one no-op action —
/// so what a sharded `measure` of it costs is dispatch, ring and merge.
fn null_program() -> ProgramGraph {
    let mut b = ProgramBuilder::named("null");
    b.field("x");
    let t = b.table("noop").action_nop("nop").finish();
    b.seal(t).expect("null program is valid")
}

/// A compiled, single-threaded NIC with instrumentation off.
fn compiled_nic(graph: &ProgramGraph, params: &CostParams) -> SmartNic {
    let mut nic = SmartNic::new(graph.clone(), params.clone()).expect("program deploys");
    nic.set_engine_mode(EngineMode::Compiled);
    nic
}

/// Profile window → `specialize()` → instrumentation off, the way the
/// datapath workloads set themselves up. Returns the host ns the
/// `specialize()` call took.
fn specialize_like_the_workloads(nic: &mut impl NicBackend, traffic: &[Packet]) -> u64 {
    nic.set_instrumentation(true, 1);
    nic.measure_batch(traffic[..traffic.len().min(WINDOW)].to_vec());
    let t0 = Instant::now();
    nic.specialize();
    let ns = between_ns(t0, Instant::now());
    nic.set_instrumentation(false, 1);
    ns
}

/// Everything the probes share.
struct Probe<'a> {
    graph: &'a ProgramGraph,
    traffic: &'a [Packet],
    params: &'a CostParams,
    passes: usize,
    tr: &'a mut Tracer,
    m: &'a mut Metrics,
}

impl Probe<'_> {
    /// Host ns of the fastest of `passes` calls of `f` (noise only ever
    /// slows a pass), with a span per call.
    fn fastest(
        &mut self,
        name: &'static str,
        work: u64,
        passes: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let mut fastest = u64::MAX;
        for pass in 0..passes {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            self.tr.record(name, pass as u64, work, t0, t1);
            fastest = fastest.min(between_ns(t0, t1));
        }
        fastest as f64
    }

    /// Host ns per packet of `process_batch` over the traffic in bursts,
    /// restoring each burst outside the timer. A burst is the same work
    /// on every pass, so each is charged at the fastest it ran.
    fn bursts_ns_per_pkt(&mut self, name: &'static str, nic: &mut SmartNic, passes: usize) -> f64 {
        let traffic = self.traffic;
        let mut work = traffic[..BURST.min(traffic.len())].to_vec();
        let bursts = traffic.len() / work.len();
        let mut fastest = vec![u64::MAX; bursts];
        for pass in 0..passes {
            for (burst, fastest) in traffic.chunks_exact(work.len()).zip(&mut fastest) {
                work.clone_from_slice(burst);
                let t0 = Instant::now();
                black_box(nic.process_batch(&mut work));
                let t1 = Instant::now();
                self.tr
                    .record(name, pass as u64, burst.len() as u64, t0, t1);
                *fastest = (*fastest).min(between_ns(t0, t1));
            }
        }
        fastest.iter().sum::<u64>() as f64 / (bursts * work.len()) as f64
    }

    /// Host ns per packet of `measure` over `packets` in windows. The
    /// windows are cloned inside the timed call (`measure` consumes them),
    /// so the clone is priced alone and taken off.
    fn windows_ns_per_pkt(
        &mut self,
        name: &'static str,
        nic: &mut impl NicBackend,
        packets: &[Packet],
    ) -> f64 {
        let passes = self.passes;
        let windows: Vec<&[Packet]> = packets.chunks(WINDOW).collect();
        let total = self.fastest(name, packets.len() as u64, passes, || {
            for w in &windows {
                black_box(nic.measure_batch(w.to_vec()));
            }
        });
        let copy = self.fastest("bench.window_copy", packets.len() as u64, passes, || {
            for w in &windows {
                black_box(w.to_vec());
            }
        });
        (total - copy).max(0.0) / packets.len() as f64
    }

    /// `net.wire` and the bare loopback syscall pair under it.
    fn wire(&mut self) {
        let Ok(map) = FieldMap::from_graph(self.graph) else {
            return;
        };
        let (traffic, passes) = (self.traffic, self.passes);
        let sample = &traffic[..traffic.len().min(1024)];
        let count = sample.len() as u64;
        let mut frame = vec![0u8; map.frame_len()];
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let encode_ns = self.fastest("net.wire.encode", count, passes, || {
            frames.clear();
            for (seq, p) in sample.iter().enumerate() {
                if let Ok(len) = encode_into(&mut frame, p, &map, seq as u64, false) {
                    frames.push(frame[..len].to_vec());
                }
            }
        });
        // Keeping the frames is the probe's doing, not the codec's.
        let copy_ns = self.fastest("bench.frame_copy", count, passes, || {
            for f in &mut frames {
                *f = black_box(f.to_vec());
            }
        });
        let decode_ns = self.fastest("net.wire.decode", count, passes, || {
            for f in &frames {
                black_box(decode(f, &map).is_ok());
            }
        });
        let per = |ns: f64| ns / count.max(1) as f64;
        self.m.timed(
            "net.wire.encode_ns_per_pkt",
            per((encode_ns - copy_ns).max(0.0)),
            "ns/pkt",
        );
        self.m
            .timed("net.wire.decode_ns_per_pkt", per(decode_ns), "ns/pkt");
        self.m
            .exact("net.wire.frame_bytes", map.frame_len() as f64, "B");
        let pair = self.syscall_pair_ns(map.frame_len());
        self.m.timed("os.loopback.syscall_pair_ns", pair, "ns");
    }

    /// A bare `UdpSocket` send + recv of one frame over loopback, on one
    /// thread: the floor under the ingest path, not a layer of the repo.
    fn syscall_pair_ns(&mut self, frame_len: usize) -> f64 {
        const PAIRS: u64 = 2048;
        let (Ok(a), Ok(b)) = (
            UdpSocket::bind(("127.0.0.1", 0)),
            UdpSocket::bind(("127.0.0.1", 0)),
        ) else {
            return 0.0;
        };
        if !b.local_addr().is_ok_and(|addr| a.connect(addr).is_ok()) {
            return 0.0;
        }
        // A lost datagram must not hang the run.
        let _ = b.set_read_timeout(Some(std::time::Duration::from_secs(1)));
        let frame = vec![0x5au8; frame_len];
        let mut rx = vec![0u8; frame_len + 64];
        let passes = self.passes;
        let total = self.fastest("os.loopback.syscall_pair", PAIRS, passes, || {
            for _ in 0..PAIRS {
                if a.send(&frame).is_ok() {
                    let _ = black_box(b.recv(&mut rx));
                }
            }
        });
        total / PAIRS as f64
    }

    /// `sim.nic`, `sim.specialize`, `sim.compiled`, `sim.sharded`: the
    /// compiled datapath, specialised and plain, single and sharded.
    fn datapath(&mut self) {
        let (graph, traffic, params, passes) = (self.graph, self.traffic, self.params, self.passes);

        let mut spec = compiled_nic(graph, params);
        let apply_ns = specialize_like_the_workloads(&mut spec, traffic);
        self.m
            .timed("sim.specialize.apply_us", apply_ns as f64 / 1e3, "us");
        let before = spec.spec_stats();
        let spec_ns = self.bursts_ns_per_pkt("sim.nic.process_batch", &mut spec, passes);
        let after = spec.spec_stats();
        let hits = after.guard_hits - before.guard_hits;
        let guarded = hits + after.guard_misses - before.guard_misses;
        self.m
            .timed("sim.nic.process_batch_ns_per_pkt", spec_ns, "ns/pkt");
        self.m.exact(
            "sim.specialize.guard_hit_share",
            if guarded == 0 {
                0.0
            } else {
                hits as f64 / guarded as f64
            },
            "share",
        );
        self.m.exact(
            "sim.specialize.specialized_tables",
            after.specialized_tables as f64,
            "count",
        );

        let mut plain = compiled_nic(graph, params);
        let plain_ns = self.bursts_ns_per_pkt("sim.compiled.process_batch", &mut plain, passes);
        self.m
            .timed("sim.compiled.plain_ns_per_pkt", plain_ns, "ns/pkt");
        self.m.timed(
            "sim.specialize.speedup",
            if spec_ns > 0.0 {
                plain_ns / spec_ns
            } else {
                0.0
            },
            "x",
        );

        let measure_ns = self.windows_ns_per_pkt("sim.nic.measure", &mut spec, traffic);
        self.m
            .timed("sim.nic.measure_ns_per_pkt", measure_ns, "ns/pkt");
        self.m.timed(
            "sim.nic.accounting_ns_per_pkt",
            measure_ns - spec_ns,
            "ns/pkt",
        );

        // Entry churn must patch the compiled program, not rebuild it.
        let exact_table = graph
            .tables()
            .find(|(_, t)| t.keys.len() == 1 && t.keys[0].kind == MatchKind::Exact)
            .map(|(node, t)| (node.id, t.entries.len()));
        if let Some((table, entries)) = exact_table {
            for k in 0..4u64 {
                let e = TableEntry::new(vec![MatchValue::Exact((1 << 30) | k)], 0);
                if plain.insert_entry(table, e).is_ok() {
                    let _ = plain.remove_entry(table, entries);
                }
            }
            let mut burst = traffic[..BURST.min(traffic.len())].to_vec();
            plain.process_batch(&mut burst);
        }
        let (full, patches) = plain.executor_mut().compile_stats();
        self.m
            .exact("sim.compiled.full_compiles", full as f64, "count");
        self.m
            .exact("sim.compiled.table_patches", patches as f64, "count");
        let deploy_ns = self.fastest("sim.compiled.deploy", 1, passes.min(5), || {
            plain.deploy(graph.clone()).expect("redeploy");
            let mut burst = traffic[..BURST.min(traffic.len())].to_vec();
            black_box(plain.process_batch(&mut burst));
        });
        self.m
            .timed("sim.compiled.deploy_us", deploy_ns / 1e3, "us");

        let mut sharded =
            ShardedNic::with_mode(graph.clone(), params.clone(), 1, ShardMode::RunLoop)
                .expect("program deploys");
        sharded.set_engine_mode(EngineMode::Compiled);
        specialize_like_the_workloads(&mut sharded, traffic);
        let sharded_ns = self.windows_ns_per_pkt("sim.sharded.measure", &mut sharded, traffic);
        self.m
            .timed("sim.sharded.measure_ns_per_pkt", sharded_ns, "ns/pkt");
        self.m.timed(
            "sim.sharded.overhead_ns_per_pkt",
            sharded_ns - measure_ns,
            "ns/pkt",
        );

        let packets: Vec<Packet> = traffic
            .iter()
            .map(|p| Packet::with_slots(vec![p.flow_hash()]))
            .collect();
        let mut null = ShardedNic::with_mode(null_program(), params.clone(), 1, ShardMode::RunLoop)
            .expect("null program deploys");
        null.set_engine_mode(EngineMode::Compiled);
        let null_ns = self.windows_ns_per_pkt("sim.sharded.null", &mut null, &packets);
        self.m
            .timed("sim.sharded.null_program_ns_per_pkt", null_ns, "ns/pkt");
    }

    /// `sim.exec`: the interpreter's speed and the exact per-packet
    /// counts. Returns the sampled profile the controller would see for
    /// this traffic, and the mean latency the emulator accounted for it
    /// with instrumentation off.
    fn interpreter(&mut self) -> (RuntimeProfile, f64) {
        let (graph, traffic, params) = (self.graph, self.traffic, self.params);
        let n = traffic.len() as f64;
        let mut interp = SmartNic::new(graph.clone(), params.clone()).expect("program deploys");
        interp.set_engine_mode(EngineMode::Interpreter);
        let passes = self.passes.min(5);
        let interp_ns = self.bursts_ns_per_pkt("sim.exec.interp", &mut interp, passes);
        self.m
            .timed("sim.exec.interp_ns_per_pkt", interp_ns, "ns/pkt");

        let reports = interp.process_batch(&mut traffic.to_vec());
        let measured_ns = reports.iter().map(|r| r.latency_ns).sum::<f64>() / n;
        let probes: usize = reports.iter().map(|r| r.probes).sum();
        let drops = reports.iter().filter(|r| r.dropped).count();
        self.m
            .exact("sim.exec.probes_per_pkt", probes as f64 / n, "1/pkt");
        self.m
            .exact("sim.exec.drop_share", drops as f64 / n, "share");
        // Counter updates, and the profile they add up to, at the
        // sampling rate the controller runs the datapath at (1 in 64).
        interp.set_instrumentation(true, 64);
        let updates: usize = interp
            .process_batch(&mut traffic.to_vec())
            .iter()
            .map(|r| r.counter_updates)
            .sum();
        self.m.exact(
            "sim.exec.counter_updates_per_pkt",
            updates as f64 / n,
            "1/pkt",
        );
        let mut profile = RuntimeProfile::empty();
        let take_ns = self.fastest("sim.nic.take_profile", 1, 1, || {
            profile = interp.take_profile();
        });
        self.m.timed("sim.nic.take_profile_us", take_ns / 1e3, "us");
        (profile, measured_ns)
    }

    /// `cost`, `core`, `verify`, `ir`: what the controller calls per
    /// re-optimisation, alone, on the profile of this traffic.
    fn control_plane(&mut self, profile: &RuntimeProfile, measured_ns: f64) {
        let (graph, passes) = (self.graph, self.passes);
        let few = passes.min(5);
        let model = CostModel::new(self.params.clone());
        let mut expected = 0.0;
        let expected_ns = self.fastest("cost.model.expected_latency", 1, passes, || {
            expected = black_box(model.expected_latency(graph, profile));
        });
        self.m
            .timed("cost.model.expected_latency_us", expected_ns / 1e3, "us");
        // Fig. 5 as a row: the model, fed the sampled profile, against
        // the emulator it models.
        self.m.exact(
            "cost.model.error_pct",
            if measured_ns > 0.0 {
                100.0 * (expected - measured_ns).abs() / measured_ns
            } else {
                0.0
            },
            "%",
        );

        let optimizer = Optimizer::new(model.clone());
        let mut outcome = None;
        let optimize_ns = self.fastest("core.search.optimize", 1, few, || {
            outcome = optimizer
                .optimize(graph, profile, ResourceLimits::unlimited())
                .ok();
        });
        self.m
            .timed("core.search.optimize_us", optimize_ns / 1e3, "us");
        if let Some(o) = &outcome {
            self.m.exact(
                "core.search.candidates_evaluated",
                o.candidates_evaluated as f64,
                "count",
            );
            self.m.exact(
                "core.search.candidates_rejected",
                o.candidates_rejected as f64,
                "count",
            );
            self.m
                .exact("core.search.est_gain_ns", o.est_gain_ns, "ns/pkt");
            let apply_ns = self.fastest("core.apply.apply_plan", 1, few, || {
                black_box(apply_plan(graph, &o.plan, &model, profile, &optimizer.cfg).is_ok());
            });
            self.m
                .timed("core.apply.apply_plan_us", apply_ns / 1e3, "us");
            let verify_ns = self.fastest("verify.plan.verify", 1, few, || {
                let verifier = PlanVerifier::new(graph);
                for c in &o.plan.choices {
                    black_box(verifier.verify(graph, &c.to_spec()).legal);
                }
            });
            self.m.timed("verify.plan.verify_us", verify_ns / 1e3, "us");
        }

        let json_ns = self.fastest("ir.json.to_string", 1, few, || {
            black_box(to_json_string(graph).map(|s| s.len()).unwrap_or(0));
        });
        self.m.timed("ir.json.to_string_us", json_ns / 1e3, "us");
    }

    /// `obs` and `workloads`: the helpers every layer leans on.
    fn support(&mut self) {
        const RECORDS: u64 = 65_536;
        let (graph, passes) = (self.graph, self.passes);
        let mut hist = LatencyHistogram::new();
        let hist_ns = self.fastest("obs.hist.record", RECORDS, passes, || {
            for i in 0..RECORDS {
                hist.record_ns(black_box(200 + (i.wrapping_mul(2_654_435_761) & 0xffff)));
            }
        });
        black_box(hist.count());
        self.m
            .timed("obs.hist.record_ns", hist_ns / RECORDS as f64, "ns");

        let fields: Vec<_> = (0..graph.fields.len().min(4) as u16)
            .map(FieldRef)
            .collect();
        let gen_ns = self.fastest("workloads.traffic.gen", WINDOW as u64, passes, || {
            let mut gen = FlowGen::new(graph.fields.len(), fields.clone(), 256, 1);
            black_box(gen.batch(WINDOW));
        });
        self.m.timed(
            "workloads.traffic.gen_ns_per_pkt",
            gen_ns / WINDOW as f64,
            "ns/pkt",
        );
    }

    /// What a served packet costs the ingest path beyond its named parts
    /// (only where the workload measured the path itself).
    fn ingest_remainder(&mut self) {
        let Some(poll) = self
            .m
            .get("net.ingest.poll_ns_per_pkt")
            .filter(|&v| v > 0.0)
        else {
            return;
        };
        let named: f64 = [
            "net.wire.decode_ns_per_pkt",
            "sim.nic.process_batch_ns_per_pkt",
            "net.wire.encode_ns_per_pkt",
            "os.loopback.syscall_pair_ns",
        ]
        .iter()
        .map(|name| self.m.get(name).unwrap_or(0.0))
        .sum();
        self.m
            .timed("net.ingest.unattributed_ns_per_pkt", poll - named, "ns/pkt");
    }
}

/// Runs every generic probe and adds its metrics to `m`.
pub fn probe(
    graph: &ProgramGraph,
    traffic: &[Packet],
    params: &CostParams,
    smoke: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let was = tr.enabled();
    tr.set_enabled(true);
    let mut p = Probe {
        graph,
        traffic: &traffic[..traffic.len().min(if smoke { 2048 } else { 16_384 })],
        params,
        passes: if smoke { 3 } else { 9 },
        tr,
        m,
    };
    p.wire();
    p.datapath();
    let (profile, measured_ns) = p.interpreter();
    p.control_plane(&profile, measured_ns);
    p.support();
    p.ingest_remainder();
    p.tr.set_enabled(was);
}

/// Adds a zero for every listed metric the run did not produce, and
/// puts the metrics in `BENCHMARK.json`'s order.
pub fn fill_absent(m: &mut Metrics) {
    let mut ordered = Metrics::default();
    for (name, unit, _) in PER_LAYER {
        match m.0.iter().find(|x| x.name == name) {
            Some(found) => ordered.0.push(found.clone()),
            None => ordered.exact(name, 0.0, unit),
        }
    }
    *m = ordered;
}
