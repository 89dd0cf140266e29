//! Allocation-regression guard for the socket path.
//!
//! A steady-state [`IngestServer::poll_once`] allocates once: the report
//! `Vec` that `process_batch` returns. The server decodes every frame
//! into a packet an earlier poll left (`wire::decode_into`) and encodes
//! every response from the map's frame template into its own buffer, so
//! the count does not grow with the train: one frame, a default burst of
//! 64, a maximal train of 80 load-balancer frames (the most a
//! `MAX_DATAGRAM` holds, what a hostile peer sends every time) and a
//! burst one short of full topped up by a maximal train, the most one
//! poll holds. Over a thousand polls of maximal trains the count stays
//! flat, so the kept packets stop at `burst + MAX_DATAGRAM / frame_len`.
//!
//! The peer is a raw `UdpSocket` sending trains encoded before the
//! count starts, and only `poll_once` is counted.
//!
//! Deliberately a single `#[test]` in its own integration-test binary:
//! the allocation counter is process-global, so concurrently running
//! tests would pollute the measurement.

use pipeleon_cost::CostParams;
use pipeleon_net::{encode_into, FieldMap, IngestConfig, IngestServer, MAX_DATAGRAM};
use pipeleon_sim::{Packet, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One server, its NIC and a peer sending it trains.
struct Rig {
    server: IngestServer,
    nic: SmartNic,
    map: FieldMap,
    peer: UdpSocket,
    rx: Vec<u8>,
}

impl Rig {
    /// Sends each train of `trains`, then polls until the server has
    /// handled them, and returns the allocations of the polls.
    fn serve(&mut self, trains: &[&[u8]]) -> u64 {
        let want: usize = trains.iter().map(|t| t.len() / self.map.frame_len()).sum();
        for train in trains {
            self.peer.send(train).expect("send");
        }
        let (mut handled, mut allocs) = (0, 0);
        for _ in 0..1000 {
            let before = ALLOCS.load(Ordering::Relaxed);
            let got = self.server.poll_once(&mut self.nic, &self.map);
            allocs += ALLOCS.load(Ordering::Relaxed) - before;
            handled += got.expect("poll");
            if handled >= want {
                break;
            }
        }
        assert_eq!(handled, want, "the server handled every frame sent");
        // The answers, so the peer's socket never fills.
        let mut answered = 0;
        loop {
            match self.peer.recv(&mut self.rx) {
                Ok(n) => answered += n / self.map.frame_len(),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("recv: {e}"),
            }
        }
        assert_eq!(answered, want, "every frame was answered");
        allocs
    }
}

#[test]
fn steady_state_polls_allocate_only_the_report_vec() {
    let lb = LoadBalancer::build();
    let map = FieldMap::from_graph(&lb.graph).expect("map");
    let max_train = MAX_DATAGRAM / map.frame_len();
    assert_eq!(max_train, 80, "80 load-balancer frames fill a datagram");
    let mut traffic = lb.traffic(&[0.05, 0.2], 256, 7);
    let packets: Vec<Packet> = (0..max_train).map(|_| traffic.next_packet()).collect();
    let train = |n: usize| {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let mut len = 0;
        for (seq, p) in packets[..n].iter().enumerate() {
            len += encode_into(&mut buf[len..], p, &map, seq as u64, false).expect("encode");
        }
        buf.truncate(len);
        buf
    };
    let burst = IngestConfig::default().burst;
    let (one, full, short, max) = (train(1), train(burst), train(burst - 1), train(max_train));

    let server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
    peer.connect(server.local_addr().expect("addr"))
        .expect("connect");
    peer.set_nonblocking(true).expect("nonblocking");
    let nic = SmartNic::new(lb.graph.clone(), CostParams::bluefield2()).expect("nic");
    let mut rig = Rig {
        server,
        nic,
        map,
        peer,
        rx: vec![0u8; MAX_DATAGRAM],
    };
    let shapes: [&[&[u8]]; 4] = [&[&one], &[&full], &[&max], &[&short, &max]];

    // Warm-up: the kept packets, the bookkeeping and the NIC's caches
    // grow to what the largest poll needs.
    for _ in 0..8 {
        for shape in shapes {
            rig.serve(shape);
        }
    }
    for shape in shapes {
        let frames: usize = shape.iter().map(|t| t.len()).sum::<usize>() / rig.map.frame_len();
        assert_eq!(
            rig.serve(shape),
            1,
            "a poll of {frames} frames allocates only the report Vec"
        );
    }
    let allocs: u64 = (0..1000).map(|_| rig.serve(&[&max])).sum();
    assert_eq!(
        allocs, 1000,
        "1,000 polls of maximal trains, one allocation each"
    );

    let stats = rig.server.stats();
    assert_eq!(stats.dropped(), 0, "{stats:?}");
    assert_eq!(stats.responses, stats.frames);
}
