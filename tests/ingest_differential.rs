//! Ingest ↔ generator equivalence: the socket path is semantically
//! transparent.
//!
//! The same scenario traffic, driven two ways, must produce identical
//! per-flow forwarding decisions:
//!
//! * **in-process oracle** — the generated batch fed straight into a
//!   single-threaded `SmartNic::process_batch`;
//! * **socket path** — the identical batch replayed by [`NetClient`]
//!   over a real loopback UDP socket into an [`IngestServer`] fronting
//!   a run-loop `ShardedNic`, echoed back as response frames.
//!
//! Equality is bit-exact over the full verdict: every slot, the drop
//! flag, and the egress port (same differential-oracle discipline as
//! `runloop_differential.rs`). The server side must additionally see
//! zero decode errors and record exactly one end-to-end latency sample
//! per frame.
//!
//! A datagram is a train of frames, so the matrix also runs over client
//! windows of one frame, part of a train, one train and more than one
//! train, and the last tests pin what the server does with several
//! peers in one burst, with an over-long datagram and with a train that
//! breaks part-way.

use pipeleon_cost::CostParams;
use pipeleon_ir::ProgramGraph;
use pipeleon_net::{
    encode_into, frames, FieldMap, IngestConfig, IngestServer, IngestStats, NetClient, MAX_DATAGRAM,
};
use pipeleon_sim::{NicBackend, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use std::net::UdpSocket;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

mod common;
use common::{example_programs, key_traffic};

/// Same worker matrix as the run-loop differential suite.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
/// Client windows: one frame per datagram, a short train, the default
/// burst, and more than one train holds (80 LB frames fill a datagram).
const WINDOWS: [usize; 4] = [1, 7, 64, 200];

/// Serves exactly `expect` frames through `nic` on a loopback socket in
/// a background thread, returning the join handle. The thread exits
/// once all frames are answered (or a 30 s safety deadline passes) and
/// reports the server's final stats and e2e sample count.
fn spawn_server<N: NicBackend + Send + 'static>(
    mut nic: N,
    map: FieldMap,
    expect: u64,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<(IngestStats, u64)>,
) {
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().responses < expect && Instant::now() < deadline {
            let received = server.poll_once(&mut nic, &map).expect("poll");
            if received == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        (server.stats(), server.e2e().count())
    });
    (addr, handle)
}

/// The core differential: replay `batch` over the socket against a
/// run-loop `ShardedNic`, compare every echoed verdict bit-for-bit with
/// a single-threaded in-process oracle.
fn assert_socket_matches_oracle(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    workers: usize,
    window: usize,
    ctx: &str,
) {
    let map = FieldMap::from_graph(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));

    let mut oracle_nic = SmartNic::new(g.clone(), params.clone()).expect("oracle nic");
    let mut oracle = batch.to_vec();
    oracle_nic.process_batch(&mut oracle);

    let nic = ShardedNic::new(g.clone(), params.clone(), workers).expect("sharded nic");
    let (addr, server) = spawn_server(nic, map.clone(), batch.len() as u64);

    let client = NetClient::connect(addr)
        .expect("connect")
        .with_window(window)
        .with_timeout(Duration::from_secs(10));
    let report = client
        .replay(batch, &map)
        .unwrap_or_else(|e| panic!("{ctx}: replay failed: {e}"));
    let (stats, e2e_count) = server.join().expect("server thread");

    // Both ends count the same datagrams, and trains form exactly when
    // the window lets them: never at window 1, always above it.
    assert_eq!(stats.datagrams, report.trains_sent, "{ctx}: trains in");
    assert_eq!(
        stats.response_datagrams, report.trains_received,
        "{ctx}: trains out"
    );
    assert_eq!(
        report.trains_sent == batch.len() as u64,
        window == 1,
        "{ctx}: {} datagrams for {} frames",
        report.trains_sent,
        batch.len()
    );

    assert_eq!(report.decode_errors, 0, "{ctx}: client decode errors");
    assert_eq!(stats.decode_errors, 0, "{ctx}: server decode errors");
    assert_eq!(stats.dropped(), 0, "{ctx}: server drops");
    assert_eq!(stats.frames, batch.len() as u64, "{ctx}: frames served");
    assert_eq!(e2e_count, batch.len() as u64, "{ctx}: e2e samples");
    assert_eq!(report.echoes.len(), batch.len(), "{ctx}: echoes");
    for (i, (echo, expect)) in report.echoes.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(echo.seq, i as u64, "{ctx}: echo order");
        assert_eq!(
            echo.packet.slots(),
            expect.slots(),
            "{ctx}: packet {i} slots"
        );
        assert_eq!(
            echo.packet.dropped, expect.dropped,
            "{ctx}: packet {i} drop verdict"
        );
        assert_eq!(
            echo.packet.egress_port, expect.egress_port,
            "{ctx}: packet {i} egress"
        );
        assert_eq!(&echo.packet, expect, "{ctx}: packet {i} full equality");
    }
}

/// The load-balancer scenario (explicit wire contract: IPv4 addresses
/// in real header fields) across the worker matrix.
#[test]
fn load_balancer_scenario_is_identical_over_the_socket() {
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let mut traffic = lb.traffic(&[0.05, 0.25], 64, 11);
    let batch = traffic.batch(512);
    assert!(
        !lb.graph.wire.is_empty(),
        "scenario must declare a wire contract"
    );
    for workers in WORKER_COUNTS {
        for window in WINDOWS {
            assert_socket_matches_oracle(
                &lb.graph,
                &params,
                &batch,
                workers,
                window,
                &format!("load_balancer workers={workers} window={window}"),
            );
        }
    }
}

/// Every example program (no wire contract: inference + residue-only
/// frames) round-trips identically through the socket path.
#[test]
fn example_programs_are_identical_over_the_socket() {
    let params = CostParams::bluefield2();
    for (name, g) in example_programs() {
        let batch = key_traffic(&g, 40, 3, 256);
        assert_socket_matches_oracle(&g, &params, &batch, 2, 64, &format!("example {name}"));
    }
}

/// The interpreter engine serves the identical verdicts the compiled
/// engine does through the same socket path.
#[test]
fn socket_path_is_engine_invariant() {
    use pipeleon_sim::EngineMode;
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let map = FieldMap::from_graph(&lb.graph).expect("map");
    let batch = lb.traffic(&[0.1, 0.0], 32, 23).batch(256);

    let mut echoes = Vec::new();
    for engine in [EngineMode::Compiled, EngineMode::Interpreter] {
        let nic =
            ShardedNic::with_engine(lb.graph.clone(), params.clone(), 2, engine).expect("nic");
        let (addr, server) = spawn_server(nic, map.clone(), batch.len() as u64);
        let client = NetClient::connect(addr)
            .expect("connect")
            .with_timeout(Duration::from_secs(10));
        let report = client.replay(&batch, &map).expect("replay");
        server.join().expect("server thread");
        // RTTs differ run to run; the verdicts must not.
        let verdicts: Vec<Packet> = report.echoes.into_iter().map(|e| e.packet).collect();
        echoes.push(verdicts);
    }
    assert_eq!(
        echoes[0], echoes[1],
        "compiled and interpreter engines must serve identical verdicts"
    );
}

/// Two clients replaying different traffic at once against one server
/// each get exactly their own verdicts: responses are grouped per peer,
/// never per burst. Both use seq = index, so an echo delivered to the
/// wrong peer would be taken for that peer's own and fail its oracle.
#[test]
fn concurrent_clients_each_get_their_own_echoes() {
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let map = FieldMap::from_graph(&lb.graph).expect("map");
    let batches = [
        lb.traffic(&[0.05, 0.25], 64, 31).batch(600),
        lb.traffic(&[0.3, 0.0], 64, 32).batch(600),
    ];
    let nic = SmartNic::new(lb.graph.clone(), params.clone()).expect("nic");
    let (addr, server) = spawn_server(nic, map.clone(), 1200);

    let start = Arc::new(Barrier::new(2));
    let clients: Vec<_> = batches
        .iter()
        .cloned()
        .zip([64, 7])
        .map(|(batch, window)| {
            let (map, start) = (map.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let client = NetClient::connect(addr)
                    .expect("connect")
                    .with_window(window)
                    .with_timeout(Duration::from_secs(10));
                start.wait();
                client.replay(&batch, &map).expect("replay")
            })
        })
        .collect();
    for (i, (client, batch)) in clients.into_iter().zip(&batches).enumerate() {
        let report = client.join().expect("client thread");
        let mut oracle = batch.clone();
        SmartNic::new(lb.graph.clone(), params.clone())
            .expect("oracle nic")
            .process_batch(&mut oracle);
        assert_eq!(report.decode_errors, 0, "client {i}: foreign or bad echoes");
        let echoed: Vec<Packet> = report.echoes.into_iter().map(|e| e.packet).collect();
        assert_eq!(echoed, oracle, "client {i}: verdicts");
    }
    let (stats, _) = server.join().expect("server thread");
    assert_eq!((stats.frames, stats.dropped()), (1200, 0));
}

/// What one poll does with a burst that holds several peers, an
/// over-long datagram and a train that breaks part-way: runs of one
/// peer's packets are answered in one train each, the frames before the
/// break are served and the rest is one decode error, and neither the
/// over-long datagram nor the broken tail is answered.
#[test]
fn one_poll_groups_by_peer_and_drops_damage_unanswered() {
    let lb = LoadBalancer::build();
    let map = FieldMap::from_graph(&lb.graph).expect("map");
    let mut nic = SmartNic::new(lb.graph.clone(), CostParams::bluefield2()).expect("nic");
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let batch = lb.traffic(&[0.0, 0.0], 16, 5).batch(9);
    let peer = || {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        s.connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        s
    };
    let train = |seqs: std::ops::Range<usize>| {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let mut len = 0;
        for seq in seqs {
            len += encode_into(&mut buf[len..], &batch[seq], &map, seq as u64, false).unwrap();
        }
        buf.truncate(len);
        buf
    };
    /// The seqs of each datagram waiting on `s`, in arrival order.
    fn answers(s: &UdpSocket, map: &FieldMap) -> Vec<Vec<u64>> {
        let mut rx = vec![0u8; MAX_DATAGRAM];
        let mut out = Vec::new();
        while let Ok(n) = s.recv(&mut rx) {
            out.push(
                frames(&rx[..n], map)
                    .map(|f| f.expect("response decodes").seq)
                    .collect(),
            );
        }
        out
    }

    // Loopback queues each datagram on the server's socket before its
    // send returns, in order: A A B A(broken) A(over-long) B.
    let (a, b) = (peer(), peer());
    a.send(&train(0..2)).unwrap();
    a.send(&train(2..3)).unwrap();
    b.send(&train(3..5)).unwrap();
    let mut broken = train(5..8);
    broken[2 * map.frame_len() + 12] = 0x86; // the third frame's ethertype
    a.send(&broken).unwrap();
    a.send(&vec![0u8; MAX_DATAGRAM + 1]).unwrap();
    b.send(&train(8..9)).unwrap();

    let handled = server.poll_once(&mut nic, &map).expect("poll");
    let stats = server.stats();
    // 8 frames served + 1 broken tail + 1 over-long datagram.
    assert_eq!(handled, 10);
    assert_eq!(
        (
            stats.datagrams,
            stats.frames,
            stats.decode_errors,
            stats.oversize
        ),
        (6, 8, 1, 1)
    );
    assert_eq!((stats.responses, stats.response_datagrams), (8, 4));
    assert_eq!(server.e2e().count(), 8);
    assert_eq!(
        answers(&a, &map),
        [vec![0, 1, 2], vec![5, 6]],
        "A's two adjacent datagrams share a train; its broken tail and over-long datagram get nothing"
    );
    assert_eq!(answers(&b, &map), [vec![3, 4], vec![8]]);
    assert_eq!(server.poll_once(&mut nic, &map).expect("idle poll"), 0);
}
