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

    /// The raw slot array, to write in place (the walk cache replaying a
    /// walk, the wire codec decoding into a kept packet).
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [u64] {
        &mut self.slots
    }

    /// The packet's wire size in bits; `default_bytes` stands in for a
    /// packet that carries no size.
    #[inline]
    pub(crate) fn wire_bits(&self, default_bytes: usize) -> f64 {
        let bytes = if self.bytes > 0 {
            self.bytes
        } else {
            default_bytes
        };
        (bytes * 8) as f64
    }

    /// Hints the CPU to pull this packet's header slots into cache.
    /// Burst consumers use it to hide the heap dereference: packets
    /// staged in a ring arrive as structs, but their slot storage is
    /// wherever the producer allocated it, which is a strided walk (and
    /// so invisible to the hardware prefetcher) once traffic is
    /// RSS-split across shards.
    #[inline]
    pub(crate) fn prefetch(&self) {
        crate::prefetch::line(self.slots.as_ptr());
    }

    /// A stable flow hash over all slots (FNV-1a over their little-endian
    /// bytes, with the multiplier this repo has always used), for RSS
    /// dispatch across cores and shards and for flow-keyed sampling.
    ///
    /// Header fields are narrow, so most of a slot's bytes are high
    /// zeros, and `h ^ 0 == h`: a run of `k` zero bytes is `k` bare
    /// multiplies, folded into one by `PRIME^k`. The bytes below the
    /// highest set one (interior zeros included) take the bytewise step.
    pub fn flow_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &s in &self.slots {
            let live = 8 - (s.leading_zeros() / 8) as usize;
            let mut rest = s;
            for _ in 0..live {
                h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
                rest >>= 8;
            }
            h = h.wrapping_mul(PRIME_POW[8 - live]);
        }
        h
    }
}

const FNV_PRIME: u64 = 0x1000_0000_01b3;
/// `PRIME_POW[k] == FNV_PRIME.pow(k)`, wrapping.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

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

    /// The hash as it was first written — FNV-1a, a byte at a time —
    /// kept as the reference [`Packet::flow_hash`] must equal.
    fn flow_hash_bytewise(slots: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &s in slots {
            for b in s.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn folded_flow_hash_matches_the_bytewise_reference() {
        use rand::{Rng, SeedableRng};
        let check = |slots: Vec<u64>| {
            let want = flow_hash_bytewise(&slots);
            assert_eq!(
                Packet::with_slots(slots.clone()).flow_hash(),
                want,
                "{slots:x?}"
            );
        };
        for edge in [
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![1 << 56],
            vec![0xff],
            vec![0x100],
            vec![0x00ff_00ff],
            vec![0xff00_0000_0000_00ff],
            vec![0; 10],
            vec![0, 7, 0, 0, 1 << 63, 0],
        ] {
            check(edge);
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xf01d);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..=10);
            check(
                (0..len)
                    .map(|_| {
                        // Every leading-zero width, 0 to 64 bits, with
                        // random (often zero) bytes below it.
                        let word = rng.gen::<u64>() & rng.gen::<u64>();
                        word.checked_shr(rng.gen_range(0..=64)).unwrap_or(0)
                    })
                    .collect(),
            );
        }
    }

    /// Shard assignment, RSS core and flow-keyed sampling all hang off
    /// these values: a faster hash that moves them is a different hash.
    #[test]
    fn flow_hash_known_answers_are_pinned() {
        for (slots, want) in [
            (vec![], 0xcbf2_9ce4_8422_2325),
            (vec![1, 2, 3], 0x2872_d322_5e0d_1f05),
            (
                vec![0x0a00_0001, 0xc0a8_0101, 443, 6, 0, 0, 0, 0],
                0x1e4e_6b08_058b_cc96,
            ),
            (vec![u64::MAX, 0, 1 << 56], 0x7485_de69_2e4c_4dca),
        ] {
            assert_eq!(flow_hash_bytewise(&slots), want);
            assert_eq!(Packet::with_slots(slots).flow_hash(), want);
        }
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
