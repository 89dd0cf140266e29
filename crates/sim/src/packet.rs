//! Packets: flat field-slot arrays over a program's field space.

use pipeleon_ir::{FieldRef, FieldSpace};

/// A packet as the emulator sees it: one `u64` slot per interned header
/// field, plus wire size and disposition metadata.
///
/// All experiments in the paper use 512-byte packets (§5.1), the default
/// here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    slots: Vec<u64>,
    /// Wire size in bytes (payload included).
    pub bytes: usize,
    /// Set once a `Drop` primitive executes.
    pub dropped: bool,
    /// Set by the `Forward` primitive.
    pub egress_port: Option<u32>,
}

impl Packet {
    /// The paper's packet size (§5.1).
    pub const DEFAULT_BYTES: usize = 512;

    /// A zeroed packet sized for `fields`.
    pub fn new(fields: &FieldSpace) -> Self {
        Self::with_slots(vec![0; fields.len()])
    }

    /// A packet with explicit slot values.
    pub fn with_slots(slots: Vec<u64>) -> Self {
        Self {
            slots,
            bytes: Self::DEFAULT_BYTES,
            dropped: false,
            egress_port: None,
        }
    }

    /// Reads a field slot (0 if out of range — packets built for a
    /// narrower field space read unset fields as zero).
    pub fn get(&self, field: FieldRef) -> u64 {
        self.slots.get(field.index()).copied().unwrap_or(0)
    }

    /// Writes a field slot, growing the slot array if needed.
    pub fn set(&mut self, field: FieldRef, value: u64) {
        let idx = field.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        self.slots[idx] = value;
    }

    /// The raw slot array.
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Hints the CPU to pull this packet's header slots into cache.
    /// Burst consumers use it to hide the heap dereference: packets
    /// staged in a ring arrive as structs, but their slot storage is
    /// wherever the producer allocated it, which is a strided walk (and
    /// so invisible to the hardware prefetcher) once traffic is
    /// RSS-split across shards.
    #[inline]
    pub fn prefetch(&self) {
        crate::prefetch::line(self.slots.as_ptr());
    }

    /// A stable flow hash over all slots (FNV-1a), used for RSS dispatch
    /// across cores.
    pub fn flow_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &s in &self.slots {
            for b in s.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip_and_growth() {
        let mut p = Packet::with_slots(vec![1, 2]);
        assert_eq!(p.get(FieldRef(0)), 1);
        assert_eq!(p.get(FieldRef(9)), 0);
        p.set(FieldRef(9), 42);
        assert_eq!(p.get(FieldRef(9)), 42);
        assert_eq!(p.slots().len(), 10);
    }

    #[test]
    fn new_sizes_to_field_space() {
        let mut fs = FieldSpace::new();
        fs.intern("a");
        fs.intern("b");
        let p = Packet::new(&fs);
        assert_eq!(p.slots().len(), 2);
        assert_eq!(p.bytes, 512);
        assert!(!p.dropped);
    }

    #[test]
    fn flow_hash_is_stable_and_discriminates() {
        let a = Packet::with_slots(vec![1, 2, 3]);
        let b = Packet::with_slots(vec![1, 2, 3]);
        let c = Packet::with_slots(vec![1, 2, 4]);
        assert_eq!(a.flow_hash(), b.flow_hash());
        assert_ne!(a.flow_hash(), c.flow_hash());
    }
}
