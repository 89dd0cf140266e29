//! # pipeleon-net — the socket-facing ingest subsystem
//!
//! Serves live UDP traffic through the emulated datapath, closing the
//! loop between the wire and the optimizer: real peers send real
//! Ethernet/IPv4/UDP frames, the server decodes them into emulator
//! packets, runs them through a [`NicBackend`](pipeleon_sim::NicBackend)
//! (`SmartNic` or the sharded run-loop), and echoes each verdict back.
//!
//! Module map:
//!
//! * [`fieldmap`] — the declarative wire contract: which packet slots
//!   travel in real header fields ([`FieldMap`], [`WireField`]), built
//!   from a program's serialized [`WireBinding`](pipeleon_ir::WireBinding)
//!   list or by conservative name inference, with the program's frame
//!   template (the bytes all its frames share).
//! * [`wire`] — the frame codec: symmetric [`encode`]/[`decode`] over
//!   Eth/IPv4/UDP plus a slot-residue payload section; total over
//!   arbitrary bytes (typed [`DecodeError`], never a panic). Its serving
//!   forms allocate nothing: [`decode_into`] overwrites a packet the
//!   caller keeps, and [`encode_into`] patches the map's template into
//!   the caller's buffer. A datagram is a train of whole frames back to
//!   back, walked by [`frames`], so both ends pay a syscall pair per
//!   burst rather than per packet.
//! * [`ingest`] — the serving loop: [`IngestServer`] recv-bursts
//!   datagrams, decoding each train as it arrives into packets it keeps
//!   between polls, feeds one `process_batch`, tx-bursts a response
//!   train per peer, and accounts every drop; end-to-end latency lands
//!   in a `pipeleon_e2e_latency_ns` histogram. A steady-state poll
//!   allocates only the report `Vec` that `process_batch` returns.
//! * [`client`] — the loopback traffic driver: [`NetClient`] replays
//!   workload batches over a real socket, one train per window refill,
//!   with per-request RTT capture.
//!
//! No external dependencies and no unsafe code: the crate is plain std
//! `UdpSocket` over the workspace's own IR/sim/obs crates.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fieldmap;
pub mod ingest;
pub mod wire;

pub use client::{ClientError, Echo, NetClient, ReplayReport};
pub use fieldmap::{FieldMap, MapError, WireField};
pub use ingest::{IngestConfig, IngestServer, IngestStats};
pub use wire::{
    decode, decode_into, encode, encode_into, frames, DecodeError, DecodedFrame, EncodeError,
    FrameTag, MAX_DATAGRAM,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_sim::{Packet, SmartNic};
    use pipeleon_workloads::scenarios::LoadBalancer;

    /// End-to-end in one process: bind a server on an OS port, replay a
    /// small scenario batch through it, and check verdicts match a
    /// direct `process_batch` oracle.
    #[test]
    fn loopback_echo_matches_in_process_oracle() {
        let lb = LoadBalancer::build();
        let map = FieldMap::from_graph(&lb.graph).unwrap();
        let mut traffic = lb.traffic(&[0.0, 0.5], 32, 7);
        let packets: Vec<Packet> = (0..64).map(|_| traffic.next_packet()).collect();

        // Oracle: the same packets straight through a SmartNic.
        let params = pipeleon_cost::CostParams::bluefield2();
        let mut oracle_nic = SmartNic::new(lb.graph.clone(), params.clone()).expect("nic");
        let mut oracle = packets.clone();
        oracle_nic.process_batch(&mut oracle);

        let mut server_nic = SmartNic::new(lb.graph.clone(), params).expect("nic");
        let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");

        let client = NetClient::connect(addr).expect("connect").with_window(8);
        // Single-threaded poll interleave: replay in a thread, serve here.
        let handle = {
            let packets = packets.clone();
            let map2 = map.clone();
            std::thread::spawn(move || client.replay(&packets, &map2))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut served = 0u64;
        while served < packets.len() as u64 && std::time::Instant::now() < deadline {
            served = server
                .poll_once(&mut server_nic, &map)
                .map(|_| server.stats().responses)
                .expect("poll");
            if server.stats().frames == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        let report = handle.join().expect("join").expect("replay");

        assert_eq!(report.echoes.len(), packets.len());
        assert_eq!(report.decode_errors, 0);
        assert_eq!(server.stats().decode_errors, 0);
        assert_eq!(server.e2e().count(), packets.len() as u64);
        for (echo, expect) in report.echoes.iter().zip(oracle.iter()) {
            assert_eq!(&echo.packet, expect, "seq {}", echo.seq);
        }
    }
}
