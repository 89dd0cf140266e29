//! Socket-path ingest throughput: how much the wire costs.
//!
//! Packets/sec of the load-balancer scenario served two ways, per
//! engine (interpreter vs compiled) and per worker count (1/2/8):
//!
//! * **inproc** — the generated batch fed straight into the backend's
//!   `process_batch` (SmartNic at 1 worker, run-loop `ShardedNic`
//!   above), the emulator's native path;
//! * **socket** — the identical batch replayed by `NetClient` over a
//!   loopback UDP socket into an `IngestServer` fronting the same
//!   backend: codec + syscalls + scheduling on top of the datapath.
//!
//! The socket rows measure the full windowed request/response round
//! trip, so `socket_pps` is end-to-end serving throughput, not just
//! datapath speed; `wire_cost` = inproc/socket is the slowdown the
//! wire adds per engine/worker point.
//!
//! Output: tab-separated table on stdout plus `BENCH_ingest.json` at
//! the repo root (override with `BENCH_INGEST_OUT`). `INGEST_SMOKE=1`
//! shrinks the replay for CI smoke runs.

use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::CostParams;
use pipeleon_net::{FieldMap, IngestConfig, IngestServer, NetClient};
use pipeleon_sim::{EngineMode, NicBackend, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn engines() -> [(&'static str, EngineMode); 2] {
    [
        ("interp", EngineMode::Interpreter),
        ("compiled", EngineMode::Compiled),
    ]
}

/// In-process pps: best-of-reps `process_batch` on the given backend.
fn run_inproc<N: NicBackend>(nic: &mut N, batch: &[Packet], reps: u32) -> f64 {
    let mut warm = batch.to_vec();
    nic.process_batch(&mut warm);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut work = batch.to_vec();
        let start = Instant::now();
        nic.process_batch(&mut work);
        best = best.min(start.elapsed().as_secs_f64());
    }
    batch.len() as f64 / best
}

/// Socket pps: serve the backend on a loopback socket from a thread,
/// replay the batch through a windowed client, time the full round
/// trip. Best of `reps` replays against a warm server.
fn run_socket<N: NicBackend + Send + 'static>(
    nic: N,
    map: &FieldMap,
    batch: &[Packet],
    reps: u32,
) -> f64 {
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let expect = (u64::from(reps) + 1) * batch.len() as u64;
    let map2 = map.clone();
    let handle = std::thread::spawn(move || {
        let mut nic = nic;
        let deadline = Instant::now() + Duration::from_secs(120);
        while server.stats().responses < expect && Instant::now() < deadline {
            if server.poll_once(&mut nic, &map2).expect("poll") == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let s = server.stats();
        assert_eq!(s.decode_errors, 0, "bench traffic must decode cleanly");
        assert_eq!(s.dropped(), 0, "bench replay must be lossless");
        s
    });
    let client = NetClient::connect(addr)
        .expect("connect")
        .with_window(128)
        .with_timeout(Duration::from_secs(30));
    // Warm-up replay (first-touch compiles, page faults), then time.
    client.replay(batch, map).expect("warm-up replay");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let report = client.replay(batch, map).expect("timed replay");
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(report.echoes.len(), batch.len());
        assert_eq!(report.decode_errors, 0);
    }
    handle.join().expect("server thread");
    batch.len() as f64 / best
}

struct Row {
    engine: &'static str,
    workers: usize,
    inproc_pps: f64,
    socket_pps: f64,
}

fn main() {
    let smoke = std::env::var("INGEST_SMOKE").is_ok();
    let (packets, reps) = if smoke { (2_000, 1) } else { (20_000, 3) };
    banner(
        "ingest",
        "socket-path serving throughput vs in-process datapath (load balancer)",
    );
    println!("# packets_per_rep: {packets}  reps: {reps}  smoke: {smoke}");
    header(&["engine", "workers", "inproc_pps", "socket_pps", "wire_cost"]);
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let map = FieldMap::from_graph(&lb.graph).expect("wire contract");
    let batch = lb.traffic(&[0.05, 0.2], 256, 42).batch(packets);
    let mut rows: Vec<Row> = Vec::new();
    for (engine_name, engine) in engines() {
        for workers in WORKER_COUNTS {
            let (inproc_pps, socket_pps) = if workers == 1 {
                let mut nic = SmartNic::new(lb.graph.clone(), params.clone()).unwrap();
                nic.set_engine_mode(engine);
                let inproc = run_inproc(&mut nic, &batch, reps);
                let mut nic = SmartNic::new(lb.graph.clone(), params.clone()).unwrap();
                nic.set_engine_mode(engine);
                (inproc, run_socket(nic, &map, &batch, reps))
            } else {
                let mut nic = ShardedNic::new(lb.graph.clone(), params.clone(), workers).unwrap();
                nic.set_engine_mode(engine);
                let inproc = run_inproc(&mut nic, &batch, reps);
                let mut nic = ShardedNic::new(lb.graph.clone(), params.clone(), workers).unwrap();
                nic.set_engine_mode(engine);
                (inproc, run_socket(nic, &map, &batch, reps))
            };
            row(&[
                engine_name.to_string(),
                workers.to_string(),
                f(inproc_pps),
                f(socket_pps),
                f(inproc_pps / socket_pps),
            ]);
            rows.push(Row {
                engine: engine_name,
                workers,
                inproc_pps,
                socket_pps,
            });
        }
    }

    // Machine-readable summary for EXPERIMENTS.md and CI.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"program\": \"load_balancer\",\n  \"packets_per_rep\": {packets},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"workers\": {}, \"inproc_pps\": {:.1}, \"socket_pps\": {:.1}, \"wire_cost\": {:.3}}}{}\n",
            r.engine,
            r.workers,
            r.inproc_pps,
            r.socket_pps,
            r.inproc_pps / r.socket_pps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("BENCH_INGEST_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_ingest.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write BENCH_ingest.json");
    println!("# wrote {out}");
}
