//! `serve_lb`: the socket path, end to end.
//!
//! Closed loop over the host's loopback interface (not a real link):
//! one `NetClient` socket → `IngestServer::poll_once` on a server thread
//! that spins with `yield_now` when idle → a compiled `SmartNic` running
//! `LoadBalancer::build()`; 256 flows, ACL drop rates `[0.05, 0.2]`, the
//! codec's minimum frame. A rep replays 4,096 packets at window 64 (the
//! rate) and then 512 packets at window 1 (the op: one round trip).
//! More than nine tenths of a packet's time here is the codec and the
//! kernel, so wire work shows and datapath work does not; the window-1
//! half drives the same layer the other way round, so batching that
//! waits to fill a burst shows as a worse round trip.

use super::between_ns;
use crate::harness::{Laps, Metrics, Rep, Sample, Samples, Sizes, Workload};
use crate::stats;
use crate::trace::{Span, Tracer};
use pipeleon_cost::CostParams;
use pipeleon_ir::ProgramGraph;
use pipeleon_net::{FieldMap, IngestConfig, IngestServer, IngestStats, NetClient, ReplayReport};
use pipeleon_obs::LatencyHistogram;
use pipeleon_sim::{EngineMode, Packet, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const FLOWS: usize = 256;
const DROP_RATES: [f64; 2] = [0.05, 0.2];
/// Packets of the window-64 half of a rep.
pub const W64_PACKETS: usize = 4096;
/// Packets of the window-1 half of a rep.
pub const W1_PACKETS: usize = 512;
/// Packets per window-64 replay: the trace is replayed chunk by chunk so
/// that one timed call is about a millisecond, not tens.
pub const CHUNK: usize = 256;
/// Window-64 replays a set-up warms the path with.
const WARM_REPLAYS: usize = 800;

/// Which part of the rep a replay is.
#[derive(Clone, Copy)]
enum Half {
    /// Window 64, the given chunk of the trace.
    W64(usize),
    /// Window 1.
    W1,
}

/// What the server thread counted, handed back when it stops.
struct ServerReport {
    ingest: IngestStats,
    nonempty_polls: u64,
    idle_polls: u64,
    /// Per half (window 64, window 1): host ns inside non-empty polls,
    /// and the frames they served, on traced reps.
    busy_ns: [u64; 2],
    busy_frames: [u64; 2],
    e2e_p50_ns: u64,
    spans: Vec<Span>,
}

/// Shared between the driver and the server thread. `SeqCst`
/// throughout: these are control flags, not hot-path data.
struct Shared {
    stop: AtomicBool,
    /// Record spans and time polls (flipped per rep by the traced run).
    tracing: AtomicBool,
    /// `rep * 2 + half`, so server-side spans carry the rep they serve.
    tag: AtomicU64,
}

fn serve(
    mut server: IngestServer,
    mut nic: SmartNic,
    map: FieldMap,
    shared: Arc<Shared>,
    epoch: Instant,
) -> ServerReport {
    let mut tr = Tracer::new(epoch, 1, true);
    let (mut nonempty_polls, mut idle_polls) = (0u64, 0u64);
    let (mut busy_ns, mut busy_frames) = ([0u64; 2], [0u64; 2]);
    while !shared.stop.load(Ordering::SeqCst) {
        let tracing = shared.tracing.load(Ordering::SeqCst);
        let t0 = tracing.then(Instant::now);
        let n = server.poll_once(&mut nic, &map).expect("ingest poll");
        if n == 0 {
            idle_polls += 1;
            std::thread::yield_now();
            continue;
        }
        nonempty_polls += 1;
        if let Some(t0) = t0 {
            let t1 = Instant::now();
            let tag = shared.tag.load(Ordering::SeqCst);
            let half = (tag % 2) as usize;
            busy_ns[half] += between_ns(t0, t1);
            busy_frames[half] += n as u64;
            tr.record("net.ingest.poll_once", tag / 2, n as u64, t0, t1);
        }
    }
    ServerReport {
        ingest: server.stats(),
        nonempty_polls,
        idle_polls,
        busy_ns,
        busy_frames,
        e2e_p50_ns: server.e2e().quantile(0.5).unwrap_or(0),
        spans: tr.take(),
    }
}

/// State of one set-up.
pub struct ServeLb {
    graph: ProgramGraph,
    params: CostParams,
    map: FieldMap,
    client: Option<NetClient>,
    shared: Arc<Shared>,
    server: Option<JoinHandle<ServerReport>>,
    report: Option<ServerReport>,
    w64: Vec<Packet>,
    w1: Vec<Packet>,
    /// Oracle verdicts and summed accounted latency for both halves.
    want64: Vec<Packet>,
    want1: Vec<Packet>,
    model_sum_ns: f64,
    // Traced-run bookkeeping.
    traced_w64_ns: u64,
    rtt_w64: LatencyHistogram,
    rtt_w1: LatencyHistogram,
}

/// Runs `batch` through an in-process interpreter `SmartNic`: the
/// oracle's packets and the sum of their accounted latency.
fn oracle(graph: &ProgramGraph, params: &CostParams, batch: &[Packet]) -> (Vec<Packet>, f64) {
    let mut nic = SmartNic::new(graph.clone(), params.clone()).expect("oracle deploys");
    nic.set_engine_mode(EngineMode::Interpreter);
    let mut out = batch.to_vec();
    let reports = nic.process_batch(&mut out);
    (out, reports.iter().map(|r| r.latency_ns).sum())
}

/// Echoes that differ from the oracle (a failed replay fails them all).
fn wrong_echoes(report: &ReplayReport, want: &[Packet]) -> u64 {
    let mismatched = report
        .echoes
        .iter()
        .zip(want)
        .filter(|(e, w)| {
            e.packet.slots() != w.slots()
                || e.packet.dropped != w.dropped
                || e.packet.egress_port != w.egress_port
        })
        .count() as u64;
    mismatched + report.decode_errors + want.len().saturating_sub(report.echoes.len()) as u64
}

impl ServeLb {
    fn stop_server(&mut self) {
        if let Some(handle) = self.server.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            self.report = Some(handle.join().expect("server thread"));
        }
    }

    /// One replay at `window`; `None` if it timed out or the socket failed.
    fn replay(&mut self, window: usize, half: Half) -> (Option<ReplayReport>, Instant, Instant) {
        let client = self
            .client
            .take()
            .expect("client present")
            .with_window(window);
        let batch = match half {
            Half::W64(chunk) => &self.w64[chunk * CHUNK..(chunk + 1) * CHUNK],
            Half::W1 => &self.w1[..],
        };
        let t0 = Instant::now();
        let report = client.replay(batch, &self.map).ok();
        let t1 = Instant::now();
        self.client = Some(client);
        (report, t0, t1)
    }
}

impl Workload for ServeLb {
    const REPS_PER_SECOND: u64 = 23;

    fn cycle(_smoke: bool) -> u64 {
        1
    }

    fn setup(seed: u64, sizes: Sizes, epoch: Instant, laps: &mut Laps) -> Self {
        let warm_replays = if sizes.smoke { 2 } else { WARM_REPLAYS };
        let lb = LoadBalancer::build();
        let params = CostParams::bluefield2();
        let map = FieldMap::from_graph(&lb.graph).expect("LB wire contract");
        let mut gen = lb.traffic(&DROP_RATES, FLOWS, seed);
        let w64 = gen.batch(W64_PACKETS);
        let w1 = gen.batch(W1_PACKETS);
        let (want64, sum64) = oracle(&lb.graph, &params, &w64);
        let (want1, sum1) = oracle(&lb.graph, &params, &w1);
        laps.lap();

        let mut nic = SmartNic::new(lb.graph.clone(), params.clone()).expect("LB deploys");
        nic.set_engine_mode(EngineMode::Compiled);
        let server =
            IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("server address");
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            tag: AtomicU64::new(0),
        });
        let handle = {
            let (map, shared) = (map.clone(), Arc::clone(&shared));
            std::thread::spawn(move || serve(server, nic, map, shared, epoch))
        };
        let client = NetClient::connect(addr)
            .expect("connect loopback")
            .with_timeout(Duration::from_secs(2));
        let mut this = ServeLb {
            graph: lb.graph,
            params,
            map,
            client: Some(client),
            shared,
            server: Some(handle),
            report: None,
            w64,
            w1,
            want64,
            want1,
            model_sum_ns: sum64 + sum1,
            traced_w64_ns: 0,
            rtt_w64: LatencyHistogram::new(),
            rtt_w1: LatencyHistogram::new(),
        };
        laps.lap();
        for i in 0..warm_replays {
            this.replay(64, Half::W64(i % (W64_PACKETS / CHUNK)));
            laps.lap();
        }
        this.replay(1, Half::W1);
        this
    }

    fn rep(&mut self, rep: u64, tr: &mut Tracer, samples: &mut Samples) -> Rep {
        let tracing = tr.enabled();
        self.shared.tracing.store(tracing, Ordering::SeqCst);
        let mut out = Rep {
            packets: (W64_PACKETS + W1_PACKETS) as u64,
            model_latency_sum_ns: self.model_sum_ns,
            ..Rep::default()
        };

        // Window 64, one chunk of the trace per replay: the rate.
        self.shared.tag.store(rep * 2, Ordering::SeqCst);
        for chunk in 0..W64_PACKETS / CHUNK {
            let span = chunk * CHUNK..(chunk + 1) * CHUNK;
            let (report, t0, t1) = self.replay(64, Half::W64(chunk));
            tr.record("net.client.replay", rep, CHUNK as u64, t0, t1);
            samples.rate.push(Sample {
                item: chunk as u32,
                packets: CHUNK as u32,
                ns: between_ns(t0, t1),
                // The server thread shares the CPU and spins when idle,
                // so a probe here would time the scheduler.
                ..Sample::default()
            });
            match &report {
                Some(r) => out.failed += wrong_echoes(r, &self.want64[span]),
                None => out.failed += CHUNK as u64,
            }
            if tracing {
                self.traced_w64_ns += between_ns(t0, t1);
                for e in report.iter().flat_map(|r| &r.echoes) {
                    self.rtt_w64.record_ns(e.rtt_ns);
                }
            }
        }

        // Window 1: the op is one round trip.
        self.shared.tag.store(rep * 2 + 1, Ordering::SeqCst);
        let (report, t0, t1) = self.replay(1, Half::W1);
        tr.record("net.client.replay", rep, W1_PACKETS as u64, t0, t1);
        match &report {
            Some(r) => {
                out.failed += wrong_echoes(r, &self.want1);
                let rtts: Vec<f64> = r.echoes.iter().map(|e| e.rtt_ns as f64).collect();
                samples.op.push(Sample {
                    item: 0,
                    packets: 1,
                    ns: stats::median(&rtts) as u64,
                    ..Sample::default()
                });
                out.ops += 1;
                if tracing {
                    for e in &r.echoes {
                        self.rtt_w1.record_ns(e.rtt_ns);
                    }
                }
            }
            None => out.failed += W1_PACKETS as u64,
        }
        out
    }

    fn check(&mut self) -> u64 {
        // Echoes were compared per rep; what is left is the server's own
        // view: nothing malformed, nothing dropped.
        self.stop_server();
        let r = self.report.as_ref().expect("server report");
        r.ingest.decode_errors + r.ingest.dropped()
    }

    fn probe_input(&self) -> (ProgramGraph, Vec<Packet>, CostParams) {
        (self.graph.clone(), self.w64.clone(), self.params.clone())
    }

    fn layers(&mut self, m: &mut Metrics) {
        self.stop_server();
        let r = self.report.as_ref().expect("server report");
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let (busy, frames) = (
            r.busy_ns[0] + r.busy_ns[1],
            r.busy_frames[0] + r.busy_frames[1],
        );
        m.timed("net.ingest.poll_ns_per_pkt", per(busy, frames), "ns/pkt");
        m.timed(
            "net.ingest.burst_mean",
            per(r.ingest.frames, r.nonempty_polls),
            "pkt",
        );
        m.timed(
            "net.ingest.idle_polls_per_kpkt",
            1e3 * per(r.idle_polls, r.ingest.frames),
            "1/kpkt",
        );
        m.timed(
            "net.ingest.server_e2e_p50_us",
            r.e2e_p50_ns as f64 / 1e3,
            "us",
        );
        m.exact(
            "net.ingest.dropped",
            (r.ingest.dropped() + r.ingest.decode_errors) as f64,
            "count",
        );
        // On one CPU the client and the server never overlap, so what
        // the window-64 replays took beyond the server's busy time is
        // the client's own cost (plus the switches between the two).
        m.timed(
            "net.client.replay_ns_per_pkt",
            per(
                self.traced_w64_ns.saturating_sub(r.busy_ns[0]),
                r.busy_frames[0],
            ),
            "ns/pkt",
        );
        let q = |h: &LatencyHistogram, q: f64| h.quantile(q).unwrap_or(0) as f64 / 1e3;
        m.timed("net.client.rtt_w1_p99_us", q(&self.rtt_w1, 0.99), "us");
        m.timed("net.client.rtt_w64_p50_us", q(&self.rtt_w64, 0.5), "us");
        m.timed("net.client.rtt_w64_p99_us", q(&self.rtt_w64, 0.99), "us");
    }

    fn finish(mut self) -> Vec<Span> {
        self.stop_server();
        self.report.take().map_or_else(Vec::new, |r| r.spans)
    }
}
