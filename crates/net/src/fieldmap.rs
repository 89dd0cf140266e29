//! Declarative header-field → packet-slot bindings.
//!
//! A [`FieldMap`] is the wire contract of one program: which packet
//! slots travel in real Ethernet/IPv4/UDP header fields, and which ride
//! in the frame's slot-residue payload section (see [`crate::wire`] for
//! the frame layout). It is built from a [`ProgramGraph`] — either from
//! the graph's explicit [`pipeleon_ir::WireBinding`] contract (serialized in the
//! program JSON, preserved by optimizer rewrites) or, when the program
//! declares none, by conservative name inference.
//!
//! # Inference rule
//!
//! A program field is inferred into a header binding only when its name
//! exactly matches a wire field name **and** that wire field is at least
//! 32 bits wide (`eth.src`, `eth.dst`, `ipv4.src`, `ipv4.dst`). Narrow
//! header fields (ports, TTL) are never inferred, because emulator slot
//! values routinely exceed their width — a program that wants them must
//! say so in its contract and accept [`crate::EncodeError::ValueTooWide`]
//! when a value does not fit.

use crate::wire::Template;
use pipeleon_ir::{FieldRef, ProgramGraph};
use std::fmt;

/// A physical frame header field the codec knows how to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireField {
    /// Ethernet destination MAC (48 bits).
    EthDst,
    /// Ethernet source MAC (48 bits).
    EthSrc,
    /// IPv4 source address (32 bits).
    Ipv4Src,
    /// IPv4 destination address (32 bits).
    Ipv4Dst,
    /// IPv4 time-to-live (8 bits).
    Ipv4Ttl,
    /// UDP source port (16 bits).
    UdpSport,
    /// UDP destination port (16 bits).
    UdpDport,
}

impl WireField {
    /// All wire fields, in canonical (frame) order.
    pub const ALL: [WireField; 7] = [
        WireField::EthDst,
        WireField::EthSrc,
        WireField::Ipv4Src,
        WireField::Ipv4Dst,
        WireField::Ipv4Ttl,
        WireField::UdpSport,
        WireField::UdpDport,
    ];

    /// The contract vocabulary name (what program JSON writes).
    pub fn name(self) -> &'static str {
        match self {
            WireField::EthDst => "eth.dst",
            WireField::EthSrc => "eth.src",
            WireField::Ipv4Src => "ipv4.src",
            WireField::Ipv4Dst => "ipv4.dst",
            WireField::Ipv4Ttl => "ipv4.ttl",
            WireField::UdpSport => "udp.sport",
            WireField::UdpDport => "udp.dport",
        }
    }

    /// Parses a contract vocabulary name.
    pub fn parse(name: &str) -> Option<WireField> {
        WireField::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Width of the header field in bits.
    pub fn bits(self) -> u32 {
        match self {
            WireField::EthDst | WireField::EthSrc => 48,
            WireField::Ipv4Src | WireField::Ipv4Dst => 32,
            WireField::Ipv4Ttl => 8,
            WireField::UdpSport | WireField::UdpDport => 16,
        }
    }

    /// The largest slot value the header field can carry.
    pub fn max_value(self) -> u64 {
        if self.bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits()) - 1
        }
    }
}

/// Why a [`FieldMap`] could not be built from a program's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The contract names a wire field the codec does not know.
    UnknownWireField(String),
    /// The contract names a program field that is not interned.
    UnknownField(String),
    /// The same wire field is bound twice.
    DuplicateWireField(String),
    /// The same program field is bound to two wire fields.
    DuplicateField(String),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::UnknownWireField(w) => write!(
                f,
                "wire contract names unknown header field {w:?} \
                 (known: eth.dst eth.src ipv4.src ipv4.dst ipv4.ttl udp.sport udp.dport)"
            ),
            MapError::UnknownField(n) => {
                write!(f, "wire contract names unknown program field {n:?}")
            }
            MapError::DuplicateWireField(w) => write!(f, "wire header field {w:?} bound twice"),
            MapError::DuplicateField(n) => {
                write!(f, "program field {n:?} bound to two wire fields")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// The compiled wire contract of one program: header bindings plus the
/// residue slots, in ascending slot order. Decode and encode are exact
/// inverses over this map (see [`crate::wire`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMap {
    bound: Vec<(WireField, FieldRef)>,
    residue: Vec<FieldRef>,
    slot_count: usize,
    template: Template,
}

impl FieldMap {
    /// Builds the map for `g`: from its explicit wire contract when one
    /// is declared, otherwise by the conservative inference rule in the
    /// module docs. The frame template is built here too: every byte
    /// that all of the program's frames share (ethertype, `0x45`, both
    /// lengths, TTL 64 unless bound, UDP, magic, version and the residue
    /// count) and their IPv4 checksum sum, so an encode only patches.
    pub fn from_graph(g: &ProgramGraph) -> Result<FieldMap, MapError> {
        let mut bound: Vec<(WireField, FieldRef)> = Vec::new();
        if g.wire.is_empty() {
            for (fref, name) in g.fields.iter() {
                if let Some(w) = WireField::parse(name) {
                    if w.bits() >= 32 {
                        bound.push((w, fref));
                    }
                }
            }
        } else {
            for b in &g.wire {
                let w = WireField::parse(&b.wire)
                    .ok_or_else(|| MapError::UnknownWireField(b.wire.clone()))?;
                let fref = g
                    .fields
                    .get(&b.field)
                    .ok_or_else(|| MapError::UnknownField(b.field.clone()))?;
                if bound.iter().any(|(bw, _)| *bw == w) {
                    return Err(MapError::DuplicateWireField(b.wire.clone()));
                }
                if bound.iter().any(|(_, bf)| *bf == fref) {
                    return Err(MapError::DuplicateField(b.field.clone()));
                }
                bound.push((w, fref));
            }
        }
        // Canonical frame order keeps encode/decode layout deterministic
        // regardless of contract declaration order.
        bound.sort_by_key(|(w, _)| *w);
        let residue: Vec<FieldRef> = g
            .fields
            .iter()
            .map(|(fref, _)| fref)
            .filter(|fref| !bound.iter().any(|(_, bf)| bf == fref))
            .collect();
        let template = Template::new(&bound, residue.len());
        Ok(FieldMap {
            bound,
            residue,
            slot_count: g.fields.len(),
            template,
        })
    }

    /// Header bindings in canonical frame order.
    pub fn bound(&self) -> &[(WireField, FieldRef)] {
        &self.bound
    }

    /// Slots carried in the residue section, ascending.
    pub fn residue(&self) -> &[FieldRef] {
        &self.residue
    }

    /// Number of slots in the program's field space.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The slot bound to `w`, if any.
    pub fn slot_of(&self, w: WireField) -> Option<FieldRef> {
        self.bound.iter().find(|(bw, _)| *bw == w).map(|&(_, f)| f)
    }

    /// The bytes all of this map's frames share.
    pub(crate) fn template(&self) -> &Template {
        &self.template
    }

    /// Total frame length in bytes for packets under this map.
    pub fn frame_len(&self) -> usize {
        crate::wire::HDR_LEN + crate::wire::PAYLOAD_FIXED + 8 * self.residue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::WireBinding;

    fn graph_with_fields(names: &[&str]) -> ProgramGraph {
        let mut g = ProgramGraph::new("t");
        for n in names {
            g.fields.intern(n);
        }
        g
    }

    #[test]
    fn inference_binds_only_wide_header_names() {
        let g = graph_with_fields(&["ipv4.src", "ipv4.dst", "udp.sport", "ipv4.ttl", "meta.x"]);
        let m = FieldMap::from_graph(&g).unwrap();
        let bound: Vec<&str> = m.bound().iter().map(|(w, _)| w.name()).collect();
        assert_eq!(bound, vec!["ipv4.src", "ipv4.dst"]);
        // Narrow names and metadata ride in the residue, slot order.
        assert_eq!(m.residue().len(), 3);
        assert_eq!(m.slot_count(), 5);
    }

    #[test]
    fn explicit_contract_overrides_inference() {
        let mut g = graph_with_fields(&["sport", "ipv4.src"]);
        g.wire = vec![WireBinding {
            wire: "udp.sport".into(),
            field: "sport".into(),
        }];
        let m = FieldMap::from_graph(&g).unwrap();
        assert_eq!(m.bound().len(), 1);
        assert_eq!(m.slot_of(WireField::UdpSport), g.fields.get("sport"));
        // `ipv4.src` was NOT inferred: the explicit contract is total.
        assert!(m.slot_of(WireField::Ipv4Src).is_none());
    }

    #[test]
    fn contract_errors_are_typed() {
        let mut g = graph_with_fields(&["a", "b"]);
        g.wire = vec![WireBinding {
            wire: "vlan.id".into(),
            field: "a".into(),
        }];
        assert_eq!(
            FieldMap::from_graph(&g),
            Err(MapError::UnknownWireField("vlan.id".into()))
        );
        g.wire = vec![WireBinding {
            wire: "ipv4.src".into(),
            field: "zzz".into(),
        }];
        assert_eq!(
            FieldMap::from_graph(&g),
            Err(MapError::UnknownField("zzz".into()))
        );
        g.wire = vec![
            WireBinding {
                wire: "ipv4.src".into(),
                field: "a".into(),
            },
            WireBinding {
                wire: "ipv4.src".into(),
                field: "b".into(),
            },
        ];
        assert_eq!(
            FieldMap::from_graph(&g),
            Err(MapError::DuplicateWireField("ipv4.src".into()))
        );
        g.wire = vec![
            WireBinding {
                wire: "ipv4.src".into(),
                field: "a".into(),
            },
            WireBinding {
                wire: "ipv4.dst".into(),
                field: "a".into(),
            },
        ];
        assert_eq!(
            FieldMap::from_graph(&g),
            Err(MapError::DuplicateField("a".into()))
        );
    }

    #[test]
    fn wire_field_names_round_trip() {
        for w in WireField::ALL {
            assert_eq!(WireField::parse(w.name()), Some(w));
            assert!(w.max_value() >= 255);
        }
        assert_eq!(WireField::parse("nope"), None);
        assert_eq!(WireField::Ipv4Ttl.max_value(), 255);
        assert_eq!(WireField::UdpSport.max_value(), 65_535);
    }
}
