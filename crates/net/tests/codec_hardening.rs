//! Malformed-input hardening for the wire codec.
//!
//! The ingest server feeds `decode` raw bytes straight off a public UDP
//! socket, so the codec must be a *total* function over arbitrary input:
//! every malformed frame maps to a typed [`DecodeError`] (which the
//! server turns into a drop counter), and no input may panic. These
//! properties fuzz that contract, and the structured cases pin the
//! specific error variant each corruption class must produce.
//!
//! A datagram is a train of frames, so the same holds for the train
//! walker: damage anywhere yields the frames before it and one typed
//! error, and a one-frame train is the single-frame datagram it always
//! was, byte for byte.
//!
//! Every decode here runs through both entry points: `decode` into a
//! fresh packet and `decode_into` into packets left over from other
//! frames, which must come out the same or, on an error, untouched. The
//! template encoder is pinned to the field-by-field encoder it replaced,
//! kept below as the reference, byte for byte and error for error.

use pipeleon_ir::{ProgramGraph, WireBinding};
use pipeleon_net::wire::{
    EncodeError, ETH_LEN, FLAG_DROPPED, FLAG_EGRESS, FLAG_RESPONSE, HDR_LEN, IPV4_LEN, MAGIC,
    PAYLOAD_FIXED, VERSION,
};
use pipeleon_net::{
    decode, decode_into, encode, encode_into, frames, DecodeError, DecodedFrame, FieldMap,
    WireField, MAX_DATAGRAM,
};
use pipeleon_sim::Packet;
use proptest::prelude::*;

fn graph(names: &[&str]) -> ProgramGraph {
    let mut g = ProgramGraph::new("hardening");
    for n in names {
        g.fields.intern(n);
    }
    g
}

/// A map with two header-bound slots and two residue slots.
fn mixed_map() -> (ProgramGraph, FieldMap) {
    let g = graph(&["ipv4.src", "ipv4.dst", "meta.state", "meta.cookie"]);
    let m = FieldMap::from_graph(&g).expect("map");
    (g, m)
}

/// A map with residue only (nothing inferable into headers).
fn residue_only_map() -> (ProgramGraph, FieldMap) {
    let g = graph(&["flow.f0", "flow.f1", "flow.f2"]);
    let m = FieldMap::from_graph(&g).expect("map");
    (g, m)
}

/// A map binding every header field the codec carries, by explicit
/// contract, plus two residue slots.
fn header_map() -> (ProgramGraph, FieldMap) {
    let names = ["mac.d", "mac.s", "ip.s", "ip.d", "ttl", "sport", "dport"];
    let mut g = graph(&["meta.a"]);
    for (w, name) in WireField::ALL.into_iter().zip(names) {
        g.fields.intern(name);
        g.wire.push(WireBinding {
            wire: w.name().into(),
            field: name.into(),
        });
    }
    g.fields.intern("meta.b");
    let m = FieldMap::from_graph(&g).expect("map");
    (g, m)
}

/// Packets a server could hold when a frame arrives: empty, or left
/// over from other frames, with fewer, as many or more slots than `m`
/// and every verdict field set.
fn stale_packets(m: &FieldMap) -> Vec<Packet> {
    let n = m.slot_count();
    [0, n - 1, n, n + 3]
        .into_iter()
        .map(|len| {
            let mut p = Packet::with_slots((0..len as u64).map(|i| 0xA5A5_0000 + i).collect());
            p.dropped = true;
            p.egress_port = Some(0xDEAD);
            p.bytes = 1001;
            p
        })
        .collect()
}

/// `decode`, checked against `decode_into` on every stale packet: the
/// same packet, sequence number and flag, or the same typed error with
/// the packet left as it was.
fn decode_both(buf: &[u8], m: &FieldMap) -> Result<DecodedFrame, DecodeError> {
    let fresh = decode(buf, m);
    for stale in stale_packets(m) {
        let mut reused = stale.clone();
        match decode_into(buf, m, &mut reused) {
            Ok(tag) => assert_eq!(
                fresh,
                Ok(DecodedFrame {
                    packet: reused,
                    seq: tag.seq,
                    response: tag.response,
                })
            ),
            Err(e) => {
                assert_eq!(fresh, Err(e));
                assert_eq!(reused, stale, "a failed decode wrote to the packet");
            }
        }
    }
    fresh
}

/// Response frames of the mixed map from raw slot values (seq = index),
/// and the train that carries them, written the way both socket ends
/// write one: `encode_into` at successive offsets of a datagram buffer.
fn train_of(slots: &[(u64, u64, u64, u64)]) -> (FieldMap, Vec<DecodedFrame>, Vec<u8>) {
    let (g, m) = mixed_map();
    let mut sent = Vec::new();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let mut len = 0;
    for (seq, &(src, dst, state, cookie)) in slots.iter().enumerate() {
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ipv4.src").unwrap(), src & 0xFFFF_FFFF);
        p.set(g.fields.get("ipv4.dst").unwrap(), dst & 0xFFFF_FFFF);
        p.set(g.fields.get("meta.state").unwrap(), state);
        p.set(g.fields.get("meta.cookie").unwrap(), cookie);
        let seq = seq as u64;
        len += encode_into(&mut buf[len..], &p, &m, seq, true).expect("encode");
        sent.push(DecodedFrame {
            packet: p,
            seq,
            response: true,
        });
    }
    buf.truncate(len);
    (m, sent, buf)
}

/// Walks `buf` and checks the shape every walk has: decoded frames,
/// then at most one error, then nothing. The same walk into one reused
/// packet, as the server walks, must step through the same frames.
fn walk(buf: &[u8], m: &FieldMap) -> (Vec<DecodedFrame>, Option<DecodeError>) {
    let mut ok = Vec::new();
    let mut err = None;
    for item in frames(buf, m) {
        assert!(err.is_none(), "the walk goes on after an error");
        match item {
            Ok(f) => ok.push(f),
            Err(e) => err = Some(e),
        }
    }
    let mut train = frames(buf, m);
    let mut reused = stale_packets(m).pop().expect("a stale packet");
    let mut steps = 0;
    while let Some(item) = train.next_into(&mut reused) {
        match item {
            Ok(tag) => assert_eq!(
                ok.get(steps),
                Some(&DecodedFrame {
                    packet: reused.clone(),
                    seq: tag.seq,
                    response: tag.response,
                })
            ),
            Err(e) => assert_eq!((steps, err), (ok.len(), Some(e))),
        }
        steps += 1;
    }
    assert_eq!(steps, ok.len() + usize::from(err.is_some()));
    (ok, err)
}

/// The encoder as it was before frame templates, field by field over a
/// zeroed frame: the reference `encode_into` must match byte for byte.
fn reference_encode_into(
    out: &mut [u8],
    packet: &Packet,
    map: &FieldMap,
    seq: u64,
    response: bool,
) -> Result<usize, EncodeError> {
    fn put16(b: &mut [u8], at: usize, v: u16) {
        b[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }
    fn put32(b: &mut [u8], at: usize, v: u32) {
        b[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }
    fn put64(b: &mut [u8], at: usize, v: u64) {
        b[at..at + 8].copy_from_slice(&v.to_be_bytes());
    }
    fn ipv4_checksum(hdr: &[u8]) -> u16 {
        let mut sum = 0u32;
        for i in (0..hdr.len() - 1).step_by(2) {
            if i != 10 {
                sum += u32::from(u16::from_be_bytes([hdr[i], hdr[i + 1]]));
            }
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

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
    let frame = &mut out[..need];
    frame.fill(0);

    // Ethernet II.
    if let Some(f) = map.slot_of(WireField::EthDst) {
        frame[0..6].copy_from_slice(&packet.get(f).to_be_bytes()[2..8]);
    }
    if let Some(f) = map.slot_of(WireField::EthSrc) {
        frame[6..12].copy_from_slice(&packet.get(f).to_be_bytes()[2..8]);
    }
    put16(frame, 12, 0x0800);

    // IPv4 (IHL = 5, DF clear, no fragmentation).
    let ip = ETH_LEN;
    frame[ip] = 0x45;
    let total_len = (need - ETH_LEN).min(usize::from(u16::MAX)) as u16;
    put16(frame, ip + 2, total_len);
    frame[ip + 8] = match map.slot_of(WireField::Ipv4Ttl) {
        Some(f) => packet.get(f) as u8,
        None => 64,
    };
    frame[ip + 9] = 17;
    if let Some(f) = map.slot_of(WireField::Ipv4Src) {
        put32(frame, ip + 12, packet.get(f) as u32);
    }
    if let Some(f) = map.slot_of(WireField::Ipv4Dst) {
        put32(frame, ip + 16, packet.get(f) as u32);
    }
    let csum = ipv4_checksum(&frame[ip..ip + IPV4_LEN]);
    put16(frame, ip + 10, csum);

    // UDP (checksum 0 = unused, legal for IPv4).
    let udp = ETH_LEN + IPV4_LEN;
    if let Some(f) = map.slot_of(WireField::UdpSport) {
        put16(frame, udp, packet.get(f) as u16);
    }
    if let Some(f) = map.slot_of(WireField::UdpDport) {
        put16(frame, udp + 2, packet.get(f) as u16);
    }
    put16(frame, udp + 4, (need - ETH_LEN - IPV4_LEN) as u16);

    // Payload trailer.
    let p = HDR_LEN;
    frame[p..p + 4].copy_from_slice(&MAGIC);
    frame[p + 4] = VERSION;
    let mut flags = 0u8;
    if response {
        flags |= FLAG_RESPONSE;
    }
    if packet.dropped {
        flags |= FLAG_DROPPED;
    }
    if let Some(e) = packet.egress_port {
        flags |= FLAG_EGRESS;
        put32(frame, p + 6, e);
    }
    frame[p + 5] = flags;
    put16(
        frame,
        p + 10,
        packet.bytes.min(usize::from(u16::MAX)) as u16,
    );
    put64(frame, p + 12, seq);
    put16(frame, p + 20, map.residue().len() as u16);
    let mut at = p + PAYLOAD_FIXED;
    for fref in map.residue() {
        put64(frame, at, packet.get(*fref));
        at += 8;
    }
    Ok(need)
}

fn slot_values(frames: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
    prop::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        frames,
    )
}

proptest! {
    /// A train of k frames is the k single-frame datagrams back to back
    /// (for k = 1: exactly `encode`'s bytes) and walks to those k frames.
    #[test]
    fn train_walks_to_exactly_its_frames(slots in slot_values(1..12)) {
        let (m, sent, buf) = train_of(&slots);
        let singles: Vec<u8> = sent
            .iter()
            .flat_map(|f| encode(&f.packet, &m, f.seq, true).expect("encode"))
            .collect();
        prop_assert_eq!(&buf, &singles);
        let (ok, err) = walk(&buf, &m);
        prop_assert_eq!(err, None);
        prop_assert_eq!(ok, sent);
    }

    /// Cutting a train anywhere yields the whole frames before the cut
    /// and, unless the cut falls on a frame boundary, one `Truncated`.
    #[test]
    fn truncated_train_yields_its_whole_frames(
        slots in slot_values(1..8),
        cut_raw in any::<u16>(),
    ) {
        let (m, sent, buf) = train_of(&slots);
        let cut = usize::from(cut_raw) % buf.len();
        let whole = cut / m.frame_len();
        let (ok, err) = walk(&buf[..cut], &m);
        prop_assert_eq!(&ok[..], &sent[..whole]);
        let truncated = matches!(err, Some(DecodeError::Truncated { .. }));
        prop_assert_eq!(truncated, cut == 0 || cut % m.frame_len() != 0);
        prop_assert!(truncated || err.is_none());
    }

    /// Overwriting one byte of a train never panics the walk; the frames
    /// before the damaged one come out intact, and the walk either stops
    /// at the damaged frame with one error or (a value byte) goes on to
    /// the end with every other frame intact.
    #[test]
    fn damaged_train_yields_the_frames_before_the_damage(
        slots in slot_values(1..8),
        pos_raw in any::<u16>(),
        val in any::<u8>(),
    ) {
        let (m, sent, mut buf) = train_of(&slots);
        let pos = usize::from(pos_raw) % buf.len();
        let hit = pos / m.frame_len();
        buf[pos] = val;
        let (ok, err) = walk(&buf, &m);
        if err.is_some() {
            prop_assert_eq!(&ok[..], &sent[..hit]);
        } else {
            prop_assert_eq!(ok.len(), sent.len());
            for (i, (got, want)) in ok.iter().zip(&sent).enumerate() {
                if i != hit {
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// Arbitrary byte soup never panics the decoder, under maps with
    /// and without header bindings.
    #[test]
    fn decode_is_total_over_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let (_, m1) = mixed_map();
        let (_, m2) = residue_only_map();
        // Outcome unconstrained (random bytes are overwhelmingly
        // malformed); the property is "returns, never panics".
        let _ = decode_both(&bytes, &m1);
        let _ = decode_both(&bytes, &m2);
        let _ = walk(&bytes, &m1);
    }

    /// Single-byte corruption of a well-formed frame never panics, and
    /// whenever it still decodes, the sequence/slot payload is sane
    /// (same slot count — the map, not the attacker, sizes the packet).
    #[test]
    fn bit_flips_never_panic(
        src in any::<u64>(),
        cookie in any::<u64>(),
        pos_raw in any::<u16>(),
        val in any::<u8>(),
    ) {
        let (g, m) = mixed_map();
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ipv4.src").unwrap(), src & 0xFFFF_FFFF);
        p.set(g.fields.get("meta.cookie").unwrap(), cookie);
        let mut buf = encode(&p, &m, 9, false).expect("encode");
        let pos = usize::from(pos_raw) % buf.len();
        buf[pos] = val;
        if let Ok(d) = decode_both(&buf, &m) {
            prop_assert_eq!(d.packet.slots().len(), m.slot_count());
        }
    }

    /// Losslessness: encode → decode is the identity over any packet of
    /// the program's field space (header-bound values clamped to their
    /// field width; residue values unconstrained u64).
    #[test]
    fn encode_decode_round_trips(
        src in any::<u64>(),
        dst in any::<u64>(),
        state in any::<u64>(),
        cookie in any::<u64>(),
        seq in any::<u64>(),
        bytes in 0u64..65_536,
        dropped in any::<u8>(),
        egress in any::<u8>(),
    ) {
        let (g, m) = mixed_map();
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ipv4.src").unwrap(), src & 0xFFFF_FFFF);
        p.set(g.fields.get("ipv4.dst").unwrap(), dst & 0xFFFF_FFFF);
        p.set(g.fields.get("meta.state").unwrap(), state);
        p.set(g.fields.get("meta.cookie").unwrap(), cookie);
        p.bytes = bytes as usize;
        p.dropped = dropped & 1 == 1;
        p.egress_port = if egress & 1 == 1 { Some(u32::from(egress)) } else { None };
        let buf = encode(&p, &m, seq, true).expect("encode");
        let d = decode_both(&buf, &m).expect("decode");
        prop_assert_eq!(&d.packet, &p);
        prop_assert_eq!(d.seq, seq);
        prop_assert!(d.response);
    }

    /// Every truncation point of a valid frame yields a typed error.
    #[test]
    fn truncation_always_errors(cut_raw in any::<u16>()) {
        let (g, m) = mixed_map();
        let p = Packet::new(&g.fields);
        let buf = encode(&p, &m, 0, false).expect("encode");
        let cut = usize::from(cut_raw) % buf.len();
        prop_assert!(decode_both(&buf[..cut], &m).is_err());
    }
}

#[test]
fn corruption_classes_map_to_their_error_variants() {
    let (g, m) = mixed_map();
    let p = Packet::new(&g.fields);
    let good = encode(&p, &m, 1, false).expect("encode");

    // Truncated below the fixed header.
    assert!(matches!(
        decode_both(&good[..20], &m),
        Err(DecodeError::Truncated { .. })
    ));

    // Wrong ethertype (ARP).
    let mut b = good.clone();
    b[12] = 0x08;
    b[13] = 0x06;
    assert!(matches!(
        decode_both(&b, &m),
        Err(DecodeError::BadEthertype(0x0806))
    ));

    // Bad IHL (options present — unsupported).
    let mut b = good.clone();
    b[14] = 0x46;
    assert_eq!(decode_both(&b, &m), Err(DecodeError::BadIhl(0x46)));

    // Non-UDP transport.
    let mut b = good.clone();
    b[14 + 9] = 6;
    assert_eq!(decode_both(&b, &m), Err(DecodeError::BadProto(6)));

    // Foreign payload (not a pipeleon frame).
    let mut b = good.clone();
    b[42] = b'H';
    assert!(matches!(decode_both(&b, &m), Err(DecodeError::BadMagic(_))));

    // Future payload version.
    let mut b = good.clone();
    b[42 + 4] = 2;
    assert_eq!(decode_both(&b, &m), Err(DecodeError::BadVersion(2)));

    // A length field that disagrees with the frame present: in a train
    // it would misframe every frame after this one.
    let (ip_len, udp_len) = (good.len() - 14, good.len() - 34);
    let mut b = good.clone();
    b[14 + 3] += 8;
    assert_eq!(
        decode_both(&b, &m),
        Err(DecodeError::BadLength {
            have: ip_len as u16 + 8,
            need: ip_len
        })
    );
    let mut b = good.clone();
    b[34 + 5] -= 1;
    assert_eq!(
        decode_both(&b, &m),
        Err(DecodeError::BadLength {
            have: udp_len as u16 - 1,
            need: udp_len
        })
    );

    // Frame built for a different program (wrong residue count).
    let (g2, m2) = residue_only_map();
    let other = encode(&Packet::new(&g2.fields), &m2, 0, false).expect("encode");
    assert!(matches!(
        decode_both(&other, &m),
        Err(DecodeError::ResidueMismatch { have: 3, need: 2 })
    ));
}

/// The bytes of one frame as the codec wrote them before datagrams were
/// trains: a one-frame train must be this datagram, so old and new peers
/// interoperate frame by frame.
#[test]
fn one_frame_datagram_is_byte_identical_to_the_pre_train_format() {
    const GOLDEN: &str = "000000000000000000000000080045000042000000004011b000c0a800010a000002\
        00000000002e0000504c4e310104000000090578000000000000002a0002\
        11223344556677880000000000000007";
    let (g, m) = mixed_map();
    let mut p = Packet::new(&g.fields);
    p.set(g.fields.get("ipv4.src").unwrap(), 0xC0A8_0001);
    p.set(g.fields.get("ipv4.dst").unwrap(), 0x0A00_0002);
    p.set(g.fields.get("meta.state").unwrap(), 0x1122_3344_5566_7788);
    p.set(g.fields.get("meta.cookie").unwrap(), 7);
    p.bytes = 1400;
    p.egress_port = Some(9);
    let frame = encode(&p, &m, 42, false).expect("encode");
    let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);
    let walked: Vec<_> = frames(&frame, &m).collect();
    assert_eq!(
        walked,
        vec![Ok(DecodedFrame {
            packet: p,
            seq: 42,
            response: false
        })]
    );
}

proptest! {
    /// The template encoder writes what the field-by-field reference
    /// writes, byte for byte (the bytes past the frame untouched), over
    /// every map shape and every flag and egress combination, and refuses
    /// what it refuses with the same error and an untouched buffer: a
    /// header value one bit too wide (the `too_wide`-th bound field, if
    /// the map binds that many), a buffer one byte too short. What
    /// it writes decodes back, into fresh and reused packets alike.
    #[test]
    fn template_encode_matches_the_reference(
        values in prop::collection::vec(any::<u64>(), 9),
        too_wide in 0usize..10,
        seq in any::<u64>(),
        bytes in any::<u32>(),
        egress in any::<u32>(),
        slack in 0usize..3,
        fill in any::<u8>(),
    ) {
        for (g, m) in [mixed_map(), header_map(), residue_only_map()] {
            let mut p = Packet::new(&g.fields);
            for ((fref, _), &v) in g.fields.iter().zip(&values) {
                p.set(fref, v);
            }
            for (k, &(w, fref)) in m.bound().iter().enumerate() {
                let v = p.get(fref) & w.max_value();
                let v = if too_wide == k { v | (w.max_value() + 1) } else { v };
                p.set(fref, v);
            }
            p.bytes = bytes as usize;
            let len = m.frame_len() + slack - 1;
            for response in [false, true] {
                for dropped in [false, true] {
                    for egress_port in [None, Some(egress)] {
                        p.dropped = dropped;
                        p.egress_port = egress_port;
                        let mut want = vec![fill; len];
                        let mut got = want.clone();
                        let wrote = reference_encode_into(&mut want, &p, &m, seq, response);
                        prop_assert_eq!(&encode_into(&mut got, &p, &m, seq, response), &wrote);
                        prop_assert_eq!(&got, &want);
                        if wrote.is_ok() {
                            let mut sent = p.clone();
                            sent.bytes = sent.bytes.min(usize::from(u16::MAX));
                            prop_assert_eq!(
                                decode_both(&got, &m),
                                Ok(DecodedFrame { packet: sent, seq, response })
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The two refusals, each on its own: a TTL of 256 and a buffer one
/// byte short of the frame, the same error as the reference's.
#[test]
fn encode_refusals_match_the_reference() {
    let (g, m) = header_map();
    let mut p = Packet::new(&g.fields);
    p.set(g.fields.get("ttl").unwrap(), 256);
    let mut buf = vec![0u8; m.frame_len()];
    let err = encode_into(&mut buf, &p, &m, 0, false);
    assert_eq!(
        err,
        Err(EncodeError::ValueTooWide {
            wire: "ipv4.ttl",
            value: 256,
            bits: 8
        })
    );
    assert_eq!(err, reference_encode_into(&mut buf, &p, &m, 0, false));
    p.set(g.fields.get("ttl").unwrap(), 255);
    let mut short = vec![0u8; m.frame_len() - 1];
    let err = encode_into(&mut short, &p, &m, 0, false);
    assert_eq!(
        err,
        Err(EncodeError::BufferTooSmall {
            have: m.frame_len() - 1,
            need: m.frame_len()
        })
    );
    assert_eq!(err, reference_encode_into(&mut short, &p, &m, 0, false));
    assert!(buf.iter().chain(&short).all(|&b| b == 0));
}
