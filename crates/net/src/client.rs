//! The loopback traffic driver.
//!
//! [`NetClient`] replays a pre-built packet batch (e.g. a
//! `crates/workloads` scenario's traffic) against a live
//! [`IngestServer`](crate::IngestServer) over a real UDP socket,
//! capturing the per-request round-trip time and the server's verdict
//! for every packet.
//!
//! Replay is **windowed**: at most `window` requests are outstanding at
//! any moment, which keeps kernel socket buffers from overflowing on
//! loopback and makes the replay lossless in practice. Every request the
//! window allows *now* leaves in one datagram (a train, see
//! [`wire`]), so a window of one is one frame out, one frame back, and a
//! wide window pays a syscall pair per train instead of per packet; the
//! client never holds a request back to fill a train. A request whose
//! response does not arrive within the read timeout is a hard
//! [`ClientError::Timeout`] — tests use this to assert zero loss.

use crate::fieldmap::FieldMap;
use crate::wire::{self, EncodeError};
use pipeleon_sim::Packet;
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// One echoed verdict from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Echo {
    /// The request's sequence number (its index in the replayed batch).
    pub seq: u64,
    /// The post-datapath packet: mutated slots, drop flag, egress port.
    pub packet: Packet,
    /// Round-trip time of the trains that carried it: from the send of
    /// the request's datagram to the receipt of the datagram holding its
    /// response, so echoes that shared both share one value.
    pub rtt_ns: u64,
}

/// The outcome of a full replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Verdicts in sequence order, one per replayed packet.
    pub echoes: Vec<Echo>,
    /// Response trains cut short by a frame that failed to decode, plus
    /// frames carrying an unknown or duplicate sequence number.
    pub decode_errors: u64,
    /// Request datagrams sent.
    pub trains_sent: u64,
    /// Response datagrams received.
    pub trains_received: u64,
}

impl ReplayReport {
    /// Mean round-trip time over the replay, in nanoseconds.
    pub fn mean_rtt_ns(&self) -> f64 {
        if self.echoes.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.echoes.iter().map(|e| u128::from(e.rtt_ns)).sum();
        sum as f64 / self.echoes.len() as f64
    }
}

/// Why a replay failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket operation failed.
    Io(io::Error),
    /// A request packet did not fit the program's wire contract.
    Encode(EncodeError),
    /// The read timeout expired with responses still outstanding.
    Timeout {
        /// Responses received before the timeout.
        received: usize,
        /// Responses expected in total.
        expected: usize,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Encode(e) => write!(f, "encode error: {e}"),
            ClientError::Timeout { received, expected } => {
                write!(f, "timed out with {received}/{expected} responses received")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<EncodeError> for ClientError {
    fn from(e: EncodeError) -> Self {
        ClientError::Encode(e)
    }
}

/// A UDP client that replays packet batches against an ingest server.
pub struct NetClient {
    socket: UdpSocket,
    window: usize,
    timeout: Duration,
}

impl NetClient {
    /// Connects a fresh OS-assigned UDP socket to `server`.
    pub fn connect<A: ToSocketAddrs>(server: A) -> io::Result<NetClient> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(server)?;
        Ok(NetClient {
            socket,
            window: 128,
            timeout: Duration::from_secs(5),
        })
    }

    /// Caps outstanding (sent, unanswered) requests. Clamped to ≥ 1.
    pub fn with_window(mut self, window: usize) -> NetClient {
        self.window = window.max(1);
        self
    }

    /// Per-response read timeout; expiry makes the replay fail hard.
    pub fn with_timeout(mut self, timeout: Duration) -> NetClient {
        self.timeout = timeout;
        self
    }

    /// The client socket's local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Replays `packets` in order (seq = index), windowed, collecting
    /// every verdict. Returns only when **all** responses have arrived
    /// or a timeout/socket error ends the replay.
    pub fn replay(&self, packets: &[Packet], map: &FieldMap) -> Result<ReplayReport, ClientError> {
        self.socket.set_read_timeout(Some(self.timeout))?;
        let n = packets.len();
        let mut echoes: Vec<Option<Echo>> = vec![None; n];
        let mut sent_at: Vec<Option<Instant>> = vec![None; n];
        let mut decode_errors = 0u64;
        let (mut trains_sent, mut trains_received) = (0u64, 0u64);
        let mut received = 0usize;
        let mut tx = vec![0u8; wire::MAX_DATAGRAM];
        let mut rx = vec![0u8; wire::MAX_DATAGRAM];
        // A frame wider than a datagram fails its encode below.
        let per_train = (wire::MAX_DATAGRAM / map.frame_len()).max(1);

        let mut next = 0usize;
        while received < n {
            // Fill the window, one train per send.
            while next < n && next - received < self.window {
                let room = (self.window - (next - received)).min(per_train);
                let train = next..n.min(next + room);
                let mut len = 0usize;
                for seq in train.clone() {
                    len +=
                        wire::encode_into(&mut tx[len..], &packets[seq], map, seq as u64, false)?;
                }
                sent_at[train.clone()].fill(Some(Instant::now()));
                self.socket.send(&tx[..len])?;
                trains_sent += 1;
                next = train.end;
            }
            // Await one response train.
            let got = match self.socket.recv(&mut rx) {
                Ok(got) => got,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(ClientError::Timeout {
                        received,
                        expected: n,
                    });
                }
                Err(e) => return Err(ClientError::Io(e)),
            };
            let now = Instant::now();
            trains_received += 1;
            for frame in wire::frames(&rx[..got], map) {
                let Ok(d) = frame else {
                    decode_errors += 1;
                    continue;
                };
                let seq = d.seq as usize;
                match sent_at.get(seq).copied().flatten() {
                    Some(t0) if echoes[seq].is_none() => {
                        let rtt = now.duration_since(t0);
                        echoes[seq] = Some(Echo {
                            seq: d.seq,
                            packet: d.packet,
                            rtt_ns: u64::try_from(rtt.as_nanos()).unwrap_or(u64::MAX),
                        });
                        received += 1;
                    }
                    // Unknown or duplicate seq: count, keep going.
                    _ => decode_errors += 1,
                }
            }
        }
        Ok(ReplayReport {
            echoes: echoes
                .into_iter()
                .map(|e| e.expect("all received"))
                .collect(),
            decode_errors,
            trains_sent,
            trains_received,
        })
    }
}
