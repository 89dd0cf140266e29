//! The Ethernet/IPv4/UDP frame codec.
//!
//! Every pipeleon frame is a real Ethernet II frame carrying IPv4 and
//! UDP headers followed by a fixed payload trailer:
//!
//! ```text
//! 0        14           34       42
//! | Eth II | IPv4 (IHL=5) | UDP  | payload ...
//!
//! payload := "PLN1"            magic        (4 bytes)
//!            version   u8      == 1
//!            flags     u8      bit0 RESPONSE, bit1 DROPPED, bit2 EGRESS
//!            egress    u32 BE  egress port (valid iff EGRESS flag)
//!            bytes     u16 BE  declared emulator packet length
//!            seq       u64 BE  caller-chosen sequence number
//!            residue_n u16 BE  number of residue slots that follow
//!            residue   residue_n × u64 BE, ascending slot order
//! ```
//!
//! Slots bound by the program's [`FieldMap`] travel in the real header
//! fields; every *unbound* slot travels in the residue section, so the
//! codec is lossless: `decode(encode(p)) == p` for any packet of the
//! program's field space. Header fields that are not bound keep fixed
//! defaults (TTL 64, ports 0, zero MACs).
//!
//! A UDP datagram on the socket path is a **train**: one or more whole
//! frames back to back, nothing between them. Every frame of a program
//! is [`FieldMap::frame_len`] bytes and says so twice (IPv4 total
//! length, UDP length), so a train needs no header of its own and a
//! one-frame train is exactly one [`encode`]d frame. [`frames`] walks a
//! train, into a fresh packet per frame or, through
//! [`Frames::next_into`], into packets the caller keeps; writing one is
//! [`encode_into`] at successive offsets of a [`MAX_DATAGRAM`]-byte
//! buffer.
//!
//! The serving path allocates in neither direction: [`decode_into`]
//! overwrites a packet the caller reuses, and [`encode_into`] copies the
//! map's frame template
//! (every byte that is the same in all of a program's frames, see
//! [`FieldMap::from_graph`]) and patches only what the packet decides:
//! the bound header fields, the flags, egress, byte count, sequence and
//! residue, folding the bound fields into the template's IPv4 checksum
//! sum.
//!
//! Decoding never panics on arbitrary bytes: every malformed input maps
//! to a typed [`DecodeError`].

use crate::fieldmap::{FieldMap, WireField};
use pipeleon_ir::FieldRef;
use pipeleon_sim::Packet;
use std::fmt;

/// Ethernet II header length.
pub const ETH_LEN: usize = 14;
/// IPv4 header length (IHL = 5, no options).
pub const IPV4_LEN: usize = 20;
/// UDP header length.
pub const UDP_LEN: usize = 8;
/// Total Eth + IPv4 + UDP header length.
pub const HDR_LEN: usize = ETH_LEN + IPV4_LEN + UDP_LEN;
/// Fixed payload trailer length (magic..residue_n, excluding residue).
pub const PAYLOAD_FIXED: usize = 4 + 1 + 1 + 4 + 2 + 8 + 2;
/// Payload magic marking a pipeleon frame.
pub const MAGIC: [u8; 4] = *b"PLN1";
/// Payload format version emitted by this codec.
pub const VERSION: u8 = 1;
/// Largest datagram either end sends or accepts: the UDP payload of a
/// 9000-byte jumbo frame (9000 − 20 IPv4 − 8 UDP). A train carries
/// `MAX_DATAGRAM / frame_len` frames at most.
pub const MAX_DATAGRAM: usize = 8972;

/// flags bit: frame is a response (server → client).
pub const FLAG_RESPONSE: u8 = 1 << 0;
/// flags bit: the datapath dropped this packet.
pub const FLAG_DROPPED: u8 = 1 << 1;
/// flags bit: the egress field is meaningful.
pub const FLAG_EGRESS: u8 = 1 << 2;

const ETHERTYPE_IPV4: u16 = 0x0800;
const PROTO_UDP: u8 = 17;

/// Why a byte buffer failed to decode as a pipeleon frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than Eth + IPv4 + UDP + fixed payload trailer.
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes required.
        need: usize,
    },
    /// Ethertype is not IPv4.
    BadEthertype(u16),
    /// IPv4 version/IHL byte is not 0x45 (we accept only option-free
    /// IHL=5 headers).
    BadIhl(u8),
    /// IPv4 protocol is not UDP.
    BadProto(u8),
    /// Payload does not start with the `PLN1` magic.
    BadMagic([u8; 4]),
    /// Payload format version is not [`VERSION`].
    BadVersion(u8),
    /// Residue count disagrees with the program's field map.
    ResidueMismatch {
        /// Count in the frame.
        have: u16,
        /// Count the map requires.
        need: u16,
    },
    /// The IPv4 total-length or UDP-length field disagrees with the
    /// frame the payload describes; in a train, trusting it would
    /// misframe everything that follows.
    BadLength {
        /// Length the header field declares.
        have: u16,
        /// Length the frame actually has from that header on.
        need: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { have, need } => {
                write!(f, "truncated frame: {have} bytes, need {need}")
            }
            DecodeError::BadEthertype(t) => write!(f, "ethertype {t:#06x} is not IPv4"),
            DecodeError::BadIhl(b) => write!(f, "IPv4 version/IHL byte {b:#04x} is not 0x45"),
            DecodeError::BadProto(p) => write!(f, "IPv4 protocol {p} is not UDP"),
            DecodeError::BadMagic(m) => write!(f, "payload magic {m:?} is not PLN1"),
            DecodeError::BadVersion(v) => write!(f, "payload version {v} unsupported"),
            DecodeError::ResidueMismatch { have, need } => {
                write!(
                    f,
                    "residue count {have} does not match program map ({need})"
                )
            }
            DecodeError::BadLength { have, need } => {
                write!(f, "header declares {have} bytes, frame has {need}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a packet could not be encoded into a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A slot value does not fit the bound header field's width.
    ValueTooWide {
        /// Contract name of the header field.
        wire: &'static str,
        /// The offending slot value.
        value: u64,
        /// The field width in bits.
        bits: u32,
    },
    /// The output buffer is smaller than the frame.
    BufferTooSmall {
        /// Bytes available.
        have: usize,
        /// Bytes required.
        need: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ValueTooWide { wire, value, bits } => {
                write!(
                    f,
                    "slot value {value:#x} exceeds {bits}-bit header field {wire}"
                )
            }
            EncodeError::BufferTooSmall { have, need } => {
                write!(f, "encode buffer too small: {have} bytes, need {need}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// What a frame carries besides its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTag {
    /// Caller-chosen sequence number echoed verbatim in responses.
    pub seq: u64,
    /// True when the RESPONSE flag was set (server → client verdict).
    pub response: bool,
}

/// A successfully decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// The reconstructed emulator packet.
    pub packet: Packet,
    /// Caller-chosen sequence number echoed verbatim in responses.
    pub seq: u64,
    /// True when the RESPONSE flag was set (server → client verdict).
    pub response: bool,
}

fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn be64(b: &[u8], at: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[at..at + 8]);
    u64::from_be_bytes(v)
}

fn put16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_be_bytes());
}

fn put32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

fn put64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_be_bytes());
}

/// Length of a frame's fixed part: headers and payload trailer up to
/// the residue.
const FIXED_LEN: usize = HDR_LEN + PAYLOAD_FIXED;

/// The bytes every frame of one program shares, built once per
/// [`FieldMap`]: the fixed part of a frame with the bound header fields,
/// flags, egress, byte count and sequence zero, and the sum of its IPv4
/// header words, to which [`encode_into`] adds the bound fields' words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Template {
    bytes: [u8; FIXED_LEN],
    ip_sum: u32,
}

impl Template {
    /// The template of frames binding `bound` and carrying `residue_n`
    /// residue slots.
    pub(crate) fn new(bound: &[(WireField, FieldRef)], residue_n: usize) -> Template {
        let frame_len = FIXED_LEN + 8 * residue_n;
        let mut b = [0u8; FIXED_LEN];
        put16(&mut b, 12, ETHERTYPE_IPV4);
        // IPv4 (IHL = 5, DF clear, no fragmentation).
        let ip = ETH_LEN;
        b[ip] = 0x45;
        let total_len = (frame_len - ETH_LEN).min(usize::from(u16::MAX)) as u16;
        put16(&mut b, ip + 2, total_len);
        if !bound.iter().any(|(w, _)| *w == WireField::Ipv4Ttl) {
            b[ip + 8] = 64;
        }
        b[ip + 9] = PROTO_UDP;
        // UDP (checksum 0 = unused, legal for IPv4).
        put16(
            &mut b,
            ip + IPV4_LEN + 4,
            (frame_len - ETH_LEN - IPV4_LEN) as u16,
        );
        // Payload trailer.
        b[HDR_LEN..HDR_LEN + 4].copy_from_slice(&MAGIC);
        b[HDR_LEN + 4] = VERSION;
        put16(&mut b, HDR_LEN + 20, residue_n as u16);
        // The checksum word is still zero, so it adds nothing.
        let ip_sum = (ip..ip + IPV4_LEN)
            .step_by(2)
            .map(|at| u32::from(be16(&b, at)))
            .sum();
        Template { bytes: b, ip_sum }
    }
}

/// The sum of a 32-bit value's two 16-bit words.
fn words32(v: u64) -> u32 {
    (v >> 16) as u32 + (v & 0xFFFF) as u32
}

/// Encodes `packet` into `out`, returning the frame length.
///
/// `seq` travels in the payload trailer and is echoed by the server;
/// `response` sets the RESPONSE flag (the server's verdict direction).
/// The packet's `dropped` and `egress_port` verdicts are carried in the
/// payload flags so the codec is symmetric for requests and responses.
/// On an error `out` is left as it was.
pub fn encode_into(
    out: &mut [u8],
    packet: &Packet,
    map: &FieldMap,
    seq: u64,
    response: bool,
) -> Result<usize, EncodeError> {
    let need = map.frame_len();
    if out.len() < need {
        return Err(EncodeError::BufferTooSmall {
            have: out.len(),
            need,
        });
    }
    for (w, fref) in map.bound() {
        let v = packet.get(*fref);
        if v > w.max_value() {
            return Err(EncodeError::ValueTooWide {
                wire: w.name(),
                value: v,
                bits: w.bits(),
            });
        }
    }
    let template = map.template();
    let (head, residue) = out[..need].split_at_mut(FIXED_LEN);
    head.copy_from_slice(&template.bytes);

    // The bound header fields, each checked to fit above.
    let (ip, udp) = (ETH_LEN, ETH_LEN + IPV4_LEN);
    let mut ip_sum = template.ip_sum;
    for &(w, fref) in map.bound() {
        let v = packet.get(fref);
        match w {
            WireField::EthDst => head[0..6].copy_from_slice(&v.to_be_bytes()[2..8]),
            WireField::EthSrc => head[6..12].copy_from_slice(&v.to_be_bytes()[2..8]),
            WireField::Ipv4Src => {
                put32(head, ip + 12, v as u32);
                ip_sum += words32(v);
            }
            WireField::Ipv4Dst => {
                put32(head, ip + 16, v as u32);
                ip_sum += words32(v);
            }
            WireField::Ipv4Ttl => {
                head[ip + 8] = v as u8;
                ip_sum += (v as u32) << 8;
            }
            WireField::UdpSport => put16(head, udp, v as u16),
            WireField::UdpDport => put16(head, udp + 2, v as u16),
        }
    }
    while ip_sum > 0xFFFF {
        ip_sum = (ip_sum & 0xFFFF) + (ip_sum >> 16);
    }
    put16(head, ip + 10, !(ip_sum as u16));

    // Payload trailer: what the packet decides.
    let p = HDR_LEN;
    let mut flags = 0u8;
    if response {
        flags |= FLAG_RESPONSE;
    }
    if packet.dropped {
        flags |= FLAG_DROPPED;
    }
    if let Some(e) = packet.egress_port {
        flags |= FLAG_EGRESS;
        put32(head, p + 6, e);
    }
    head[p + 5] = flags;
    put16(head, p + 10, packet.bytes.min(usize::from(u16::MAX)) as u16);
    put64(head, p + 12, seq);
    for (at, fref) in residue.chunks_exact_mut(8).zip(map.residue()) {
        at.copy_from_slice(&packet.get(*fref).to_be_bytes());
    }
    Ok(need)
}

/// Encodes `packet` into a fresh buffer. See [`encode_into`].
pub fn encode(
    packet: &Packet,
    map: &FieldMap,
    seq: u64,
    response: bool,
) -> Result<Vec<u8>, EncodeError> {
    let mut out = vec![0u8; map.frame_len()];
    let n = encode_into(&mut out, packet, map, seq, response)?;
    out.truncate(n);
    Ok(out)
}

/// Decodes the frame at the head of `buf` under the program's field
/// map into a fresh packet; bytes past that frame are not read (see
/// [`frames`]). See [`decode_into`].
pub fn decode(buf: &[u8], map: &FieldMap) -> Result<DecodedFrame, DecodeError> {
    let mut packet = Packet::with_slots(Vec::new());
    let tag = decode_into(buf, map, &mut packet)?;
    Ok(DecodedFrame {
        packet,
        seq: tag.seq,
        response: tag.response,
    })
}

/// Decodes the frame at the head of `buf` under the program's field map
/// into `packet`, which the caller keeps from frame to frame; bytes past
/// that frame are not read (see [`frames`]).
///
/// On success every slot, `bytes`, `dropped` and `egress_port` are
/// overwritten, so nothing of the packet's last frame survives; only a
/// packet whose slot count is not the map's is given new slots. On an
/// error `packet` is left as it was.
///
/// Total function over arbitrary bytes: every malformed input returns a
/// typed [`DecodeError`], never a panic.
pub fn decode_into(
    buf: &[u8],
    map: &FieldMap,
    packet: &mut Packet,
) -> Result<FrameTag, DecodeError> {
    if buf.len() < FIXED_LEN {
        return Err(DecodeError::Truncated {
            have: buf.len(),
            need: FIXED_LEN,
        });
    }
    let ethertype = be16(buf, 12);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(DecodeError::BadEthertype(ethertype));
    }
    if buf[ETH_LEN] != 0x45 {
        return Err(DecodeError::BadIhl(buf[ETH_LEN]));
    }
    if buf[ETH_LEN + 9] != PROTO_UDP {
        return Err(DecodeError::BadProto(buf[ETH_LEN + 9]));
    }
    let p = HDR_LEN;
    if buf[p..p + 4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&buf[p..p + 4]);
        return Err(DecodeError::BadMagic(m));
    }
    if buf[p + 4] != VERSION {
        return Err(DecodeError::BadVersion(buf[p + 4]));
    }
    let residue_n = be16(buf, p + 20);
    let need_residue = map.residue().len() as u16;
    if residue_n != need_residue {
        return Err(DecodeError::ResidueMismatch {
            have: residue_n,
            need: need_residue,
        });
    }
    let need = map.frame_len();
    if buf.len() < need {
        return Err(DecodeError::Truncated {
            have: buf.len(),
            need,
        });
    }
    // IPv4 total length and UDP length, each counted from its own header.
    for (at, header) in [
        (ETH_LEN + 2, ETH_LEN),
        (ETH_LEN + IPV4_LEN + 4, ETH_LEN + IPV4_LEN),
    ] {
        let have = be16(buf, at);
        if usize::from(have) != need - header {
            return Err(DecodeError::BadLength {
                have,
                need: need - header,
            });
        }
    }

    // The frame is good: from here on every write lands.
    if packet.slots().len() != map.slot_count() {
        *packet = Packet::with_slots(vec![0u64; map.slot_count()]);
    }
    let slots = packet.slots_mut();
    for &(w, fref) in map.bound() {
        let v = match w {
            WireField::EthDst => be64(buf, 0) >> 16,
            WireField::EthSrc => (u64::from(be32(buf, 6)) << 16) | u64::from(be16(buf, 10)),
            WireField::Ipv4Src => u64::from(be32(buf, ETH_LEN + 12)),
            WireField::Ipv4Dst => u64::from(be32(buf, ETH_LEN + 16)),
            WireField::Ipv4Ttl => u64::from(buf[ETH_LEN + 8]),
            WireField::UdpSport => u64::from(be16(buf, ETH_LEN + IPV4_LEN)),
            WireField::UdpDport => u64::from(be16(buf, ETH_LEN + IPV4_LEN + 2)),
        };
        slots[fref.index()] = v;
    }
    for (fref, v) in map
        .residue()
        .iter()
        .zip(buf[FIXED_LEN..need].chunks_exact(8))
    {
        slots[fref.index()] = be64(v, 0);
    }

    let flags = buf[p + 5];
    packet.bytes = usize::from(be16(buf, p + 10));
    packet.dropped = flags & FLAG_DROPPED != 0;
    packet.egress_port = if flags & FLAG_EGRESS != 0 {
        Some(be32(buf, p + 6))
    } else {
        None
    };
    Ok(FrameTag {
        seq: be64(buf, p + 12),
        response: flags & FLAG_RESPONSE != 0,
    })
}

/// Walks the train in `buf`: each whole frame in order, then nothing.
///
/// The walk ends after the first error, because a frame that does not
/// decode gives no trustworthy offset for the one after it. Bytes left
/// over that are shorter than a frame (an empty buffer included: a train
/// has at least one frame) yield [`DecodeError::Truncated`].
pub fn frames<'a>(buf: &'a [u8], map: &'a FieldMap) -> Frames<'a> {
    Frames {
        rest: Some(buf),
        map,
    }
}

/// Iterator over the frames of a train; see [`frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    /// Bytes not yet walked; `None` once the train ended or broke.
    rest: Option<&'a [u8]>,
    map: &'a FieldMap,
}

impl Frames<'_> {
    /// The walk's next step, decoding the next frame into `packet` as
    /// [`decode_into`] does instead of into a fresh packet.
    pub fn next_into(&mut self, packet: &mut Packet) -> Option<Result<FrameTag, DecodeError>> {
        let map = self.map;
        self.step(|buf| decode_into(buf, map, packet))
    }

    /// Decodes the head of the bytes not yet walked with `decode` and
    /// moves past it, or ends the walk if it fails.
    fn step<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
    ) -> Option<Result<T, DecodeError>> {
        let buf = self.rest.take()?;
        let frame = decode(buf);
        if frame.is_ok() {
            // The decode checked that a whole frame is present.
            let tail = &buf[self.map.frame_len()..];
            self.rest = (!tail.is_empty()).then_some(tail);
        }
        Some(frame)
    }
}

impl Iterator for Frames<'_> {
    type Item = Result<DecodedFrame, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let map = self.map;
        self.step(|buf| decode(buf, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::ProgramGraph;

    fn map_for(names: &[&str]) -> (ProgramGraph, FieldMap) {
        let mut g = ProgramGraph::new("t");
        for n in names {
            g.fields.intern(n);
        }
        let m = FieldMap::from_graph(&g).unwrap();
        (g, m)
    }

    #[test]
    fn encode_decode_round_trips_bound_and_residue() {
        let (g, m) = map_for(&["ipv4.src", "ipv4.dst", "meta.a", "meta.b"]);
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ipv4.src").unwrap(), 0xC0A8_0001);
        p.set(g.fields.get("ipv4.dst").unwrap(), 0x0A00_0002);
        p.set(g.fields.get("meta.a").unwrap(), u64::MAX);
        p.set(g.fields.get("meta.b").unwrap(), 7);
        p.bytes = 1400;
        p.egress_port = Some(9);
        let buf = encode(&p, &m, 42, true).unwrap();
        assert_eq!(buf.len(), m.frame_len());
        let d = decode(&buf, &m).unwrap();
        assert_eq!(d.packet, p);
        assert_eq!(d.seq, 42);
        assert!(d.response);
    }

    #[test]
    fn dropped_verdict_round_trips() {
        let (g, m) = map_for(&["x"]);
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("x").unwrap(), 0xDEAD);
        p.dropped = true;
        let buf = encode(&p, &m, 1, true).unwrap();
        let d = decode(&buf, &m).unwrap();
        assert!(d.packet.dropped);
        assert_eq!(d.packet.egress_port, None);
    }

    #[test]
    fn value_too_wide_is_rejected_at_encode() {
        let (g, m) = map_for(&["ipv4.src"]);
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ipv4.src").unwrap(), 1 << 33);
        let err = encode(&p, &m, 0, false).unwrap_err();
        assert!(matches!(err, EncodeError::ValueTooWide { bits: 32, .. }));
    }

    #[test]
    fn malformed_frames_yield_typed_errors() {
        let (_, m) = map_for(&["ipv4.src", "meta.a"]);
        assert!(matches!(
            decode(&[0u8; 10], &m),
            Err(DecodeError::Truncated { .. })
        ));
        let p = Packet::with_slots(vec![1, 2]);
        let mut buf = encode(&p, &m, 0, false).unwrap();
        let good = buf.clone();

        buf[12] = 0x86; // ethertype → not IPv4
        assert!(matches!(
            decode(&buf, &m),
            Err(DecodeError::BadEthertype(_))
        ));
        buf = good.clone();

        buf[ETH_LEN] = 0x46; // IHL = 6
        assert_eq!(decode(&buf, &m), Err(DecodeError::BadIhl(0x46)));
        buf = good.clone();

        buf[ETH_LEN + 9] = 6; // TCP
        assert_eq!(decode(&buf, &m), Err(DecodeError::BadProto(6)));
        buf = good.clone();

        buf[HDR_LEN] = b'X';
        assert!(matches!(decode(&buf, &m), Err(DecodeError::BadMagic(_))));
        buf = good.clone();

        buf[HDR_LEN + 4] = 9;
        assert_eq!(decode(&buf, &m), Err(DecodeError::BadVersion(9)));
        buf = good.clone();

        buf[HDR_LEN + 21] = 7; // residue count
        assert!(matches!(
            decode(&buf, &m),
            Err(DecodeError::ResidueMismatch { .. })
        ));
        buf = good.clone();

        buf.truncate(buf.len() - 1); // chop the residue section
        assert!(matches!(
            decode(&buf, &m),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn ipv4_checksum_is_valid() {
        let (g, m) = map_for(&["ipv4.src", "ipv4.dst"]);
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ipv4.src").unwrap(), 0x0101_0101);
        p.set(g.fields.get("ipv4.dst").unwrap(), 0x0202_0202);
        let buf = encode(&p, &m, 0, false).unwrap();
        // Recomputing over the header with its checksum in place folds to 0.
        let mut sum = 0u32;
        let hdr = &buf[ETH_LEN..ETH_LEN + IPV4_LEN];
        for i in (0..IPV4_LEN).step_by(2) {
            sum += u32::from(be16(hdr, i));
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum, 0xFFFF);
    }
}
