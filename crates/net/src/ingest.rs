//! The socket-facing ingest run-loop.
//!
//! An [`IngestServer`] owns a non-blocking UDP socket, one receive
//! buffer and one response buffer. A datagram is a train of frames (see
//! [`wire`]), and each [`IngestServer::poll_once`] call performs one
//! cycle:
//!
//! 1. **recv-burst** — receive datagrams until the socket is empty or
//!    the burst holds `burst` packets, decoding each datagram's frames
//!    straight into the burst's packets as it arrives (see
//!    [`wire::decode_into`]) and stamping one ingest [`Instant`] per
//!    datagram; malformed input is dropped with per-reason accounting,
//!    never served;
//! 2. **process** — feed the whole burst to the backend's
//!    `process_batch` (one datapath call per burst, matching the
//!    emulator's run-loop batching);
//! 3. **tx-burst** — encode the verdicts into response trains, one per
//!    run of consecutive packets of the same peer (split at
//!    [`wire::MAX_DATAGRAM`]), and send each back, recording end-to-end
//!    latency (ingest timestamp → train handed to the kernel) per frame
//!    into a [`LatencyHistogram`].
//!
//! The server keeps its buffers between polls: the datagram buffers, the
//! burst's packets (decoded into again, never made anew) and its
//! bookkeeping. A steady-state poll allocates once, the report `Vec`
//! that `process_batch` returns, whatever the trains' lengths.
//!
//! Malformed trains: the frames before the first bad one are served; the
//! rest of that datagram, or trailing bytes shorter than a frame, is
//! dropped as **one** `decode_error`, because a frame that does not
//! decode gives no offset to resume from. A datagram longer than
//! [`wire::MAX_DATAGRAM`] is one `oversize` drop. Neither is answered.
//!
//! Overload policy: a poll stops receiving once it holds `burst`
//! packets, so in-flight work is below `burst` plus one train; the
//! server answers what it decoded *this* poll and never waits to fill a
//! train. Anything the kernel socket buffer cannot hold is dropped by
//! the OS before we see it, and anything we cannot decode, encode, or
//! send is dropped *with an explicit counter* — the server never blocks
//! on a slow peer and never buffers unboundedly.

use crate::fieldmap::FieldMap;
use crate::wire::{self, DecodeError};
use pipeleon_obs::{LatencyHistogram, MetricsRegistry};
use pipeleon_sim::{NicBackend, Packet};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Instant;

/// Tuning knobs for an [`IngestServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// A poll cycle stops receiving once it holds this many packets
    /// (bounds in-flight work at `burst` plus one train).
    pub burst: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { burst: 64 }
    }
}

/// Cumulative ingest/egress accounting for one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Datagrams received, well-formed or not.
    pub datagrams: u64,
    /// Well-formed frames decoded and served.
    pub frames: u64,
    /// Trains cut short by a frame the codec rejected (one per datagram).
    pub decode_errors: u64,
    /// Datagrams longer than [`wire::MAX_DATAGRAM`].
    pub oversize: u64,
    /// Responses that failed width validation at encode time.
    pub encode_errors: u64,
    /// Response frames the kernel refused to send.
    pub tx_dropped: u64,
    /// Response frames handed to the kernel.
    pub responses: u64,
    /// Response datagrams handed to the kernel.
    pub response_datagrams: u64,
}

impl IngestStats {
    /// Total drops for any reason.
    pub fn dropped(&self) -> u64 {
        self.decode_errors + self.oversize + self.encode_errors + self.tx_dropped
    }
}

/// Where a received datagram's packets sit in the burst.
#[derive(Clone, Copy)]
struct Origin {
    peer: SocketAddr,
    at: Instant,
    /// Index in the burst of the datagram's first packet.
    first: usize,
}

/// A UDP server that serves live traffic through a [`NicBackend`].
///
/// The server owns the socket and codec state but *borrows* the backend
/// per poll call, so callers can interleave control-plane work (e.g.
/// controller ticks and live reconfiguration) between poll cycles on
/// the very same backend the socket traffic flows through.
pub struct IngestServer {
    socket: UdpSocket,
    config: IngestConfig,
    /// One byte longer than the longest datagram accepted, so a longer
    /// one shows as a full buffer.
    rx: Vec<u8>,
    /// The response train being built.
    tx: Vec<u8>,
    /// Ingest instant of each frame in `tx`.
    tx_at: Vec<Instant>,
    /// The burst: `packets[..live]` in a poll are its packets, decoded
    /// into the ones earlier polls left, so a steady-state poll makes no
    /// packet. At most `burst` plus one train, plus one spare.
    packets: Vec<Packet>,
    seqs: Vec<u64>,
    origins: Vec<Origin>,
    stats: IngestStats,
    e2e: LatencyHistogram,
    last_decode_error: Option<DecodeError>,
}

impl IngestServer {
    /// Binds a non-blocking UDP socket on `addr` (use port 0 to let the
    /// OS pick; read it back with [`IngestServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: IngestConfig) -> io::Result<IngestServer> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(IngestServer {
            socket,
            config,
            rx: vec![0u8; wire::MAX_DATAGRAM + 1],
            tx: vec![0u8; wire::MAX_DATAGRAM],
            tx_at: Vec::new(),
            packets: Vec::new(),
            seqs: Vec::new(),
            origins: Vec::new(),
            stats: IngestStats::default(),
            e2e: LatencyHistogram::new(),
            last_decode_error: None,
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The configuration this server was bound with.
    pub fn config(&self) -> IngestConfig {
        self.config
    }

    /// One recv-burst / process / tx-burst cycle against `nic`.
    ///
    /// Returns the number of packets this cycle handled: frames decoded
    /// plus drops at receipt (0 when the socket was idle — callers
    /// typically sleep briefly before polling again). Real socket errors
    /// other than `WouldBlock` surface as `Err`.
    pub fn poll_once<N: NicBackend>(&mut self, nic: &mut N, map: &FieldMap) -> io::Result<usize> {
        // 1. recv-burst, decoding each datagram into the burst.
        let mut live = 0usize;
        self.seqs.clear();
        self.origins.clear();
        let mut rejected = 0usize;
        while live + rejected < self.config.burst.max(1) {
            let (n, peer) = match self.socket.recv_from(&mut self.rx) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Loopback peers that closed their socket surface async
                // ICMP errors here; nothing was received, not a crash.
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => continue,
                Err(e) => return Err(e),
            };
            let at = Instant::now();
            self.stats.datagrams += 1;
            if n == self.rx.len() {
                // Longer than any train we send; the kernel cut it.
                self.stats.oversize += 1;
                rejected += 1;
                continue;
            }
            let first = live;
            let mut train = wire::frames(&self.rx[..n], map);
            loop {
                if live == self.packets.len() {
                    self.packets.push(Packet::with_slots(Vec::new()));
                }
                match train.next_into(&mut self.packets[live]) {
                    None => break,
                    Some(Ok(tag)) => {
                        self.seqs.push(tag.seq);
                        live += 1;
                    }
                    Some(Err(e)) => {
                        self.stats.decode_errors += 1;
                        self.last_decode_error = Some(e);
                        rejected += 1;
                    }
                }
            }
            if live > first {
                self.origins.push(Origin { peer, at, first });
            }
        }
        self.stats.frames += live as u64;
        let Some(first) = self.origins.first() else {
            return Ok(rejected);
        };

        // 2. one datapath call for the whole burst.
        let _reports = nic.process_batch(&mut self.packets[..live]);

        // 3. tx-burst: one train per run of packets of the same peer.
        let frame_len = map.frame_len();
        let (mut to, mut len) = (first.peer, 0usize);
        for i in 0..self.origins.len() {
            let origin = self.origins[i];
            let end = self.origins.get(i + 1).map_or(live, |next| next.first);
            for k in origin.first..end {
                if len > 0 && (to != origin.peer || len + frame_len > self.tx.len()) {
                    self.send_train(to, len)?;
                    len = 0;
                }
                to = origin.peer;
                match wire::encode_into(
                    &mut self.tx[len..],
                    &self.packets[k],
                    map,
                    self.seqs[k],
                    true,
                ) {
                    Ok(n) => {
                        len += n;
                        self.tx_at.push(origin.at);
                    }
                    Err(_) => self.stats.encode_errors += 1,
                }
            }
        }
        if len > 0 {
            self.send_train(to, len)?;
        }
        Ok(live + rejected)
    }

    /// Sends `tx[..len]`, the train of the frames in `tx_at`, to `peer`.
    fn send_train(&mut self, peer: SocketAddr, len: usize) -> io::Result<()> {
        let frames = self.tx_at.len() as u64;
        let sent = match self.socket.send_to(&self.tx[..len], peer) {
            Ok(_) => {
                let now = Instant::now();
                self.stats.responses += frames;
                self.stats.response_datagrams += 1;
                for at in &self.tx_at {
                    self.e2e.record_duration(now.duration_since(*at));
                }
                Ok(())
            }
            // A full socket buffer or a peer that went away drops the
            // train; the server does not wait for either.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::ConnectionReset =>
            {
                self.stats.tx_dropped += frames;
                Ok(())
            }
            Err(e) => Err(e),
        };
        self.tx_at.clear();
        sent
    }

    /// Cumulative counters since bind.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The end-to-end latency histogram (ingest → response sent).
    pub fn e2e(&self) -> &LatencyHistogram {
        &self.e2e
    }

    /// The most recent codec rejection, for diagnostics.
    pub fn last_decode_error(&self) -> Option<DecodeError> {
        self.last_decode_error
    }

    /// Exports ingest counters and the e2e histogram into `m` under the
    /// `pipeleon_ingest_*` / `pipeleon_e2e_latency_ns` names. Counters
    /// use absolute sets so zero-valued series still render.
    pub fn metrics_into(&self, m: &mut MetricsRegistry) {
        m.help(
            "pipeleon_ingest_frames_total",
            "Well-formed frames decoded and served through the datapath",
        );
        m.counter_set("pipeleon_ingest_frames_total", &[], self.stats.frames);
        m.help(
            "pipeleon_ingest_responses_total",
            "Response frames handed to the kernel",
        );
        m.counter_set("pipeleon_ingest_responses_total", &[], self.stats.responses);
        m.help(
            "pipeleon_ingest_datagrams_total",
            "Datagrams received (rx) and response datagrams sent (tx); frames per datagram is the train length",
        );
        for (dir, v) in [
            ("rx", self.stats.datagrams),
            ("tx", self.stats.response_datagrams),
        ] {
            m.counter_set("pipeleon_ingest_datagrams_total", &[("dir", dir)], v);
        }
        m.help(
            "pipeleon_ingest_dropped_total",
            "Drops by the ingest path, by reason",
        );
        for (reason, v) in [
            ("decode_error", self.stats.decode_errors),
            ("oversize", self.stats.oversize),
            ("encode_error", self.stats.encode_errors),
            ("tx", self.stats.tx_dropped),
        ] {
            m.counter_set("pipeleon_ingest_dropped_total", &[("reason", reason)], v);
        }
        m.help(
            "pipeleon_e2e_latency_ns",
            "End-to-end latency from socket ingest to response handed to the kernel",
        );
        m.merge_histogram("pipeleon_e2e_latency_ns", &[], &self.e2e);
    }
}
