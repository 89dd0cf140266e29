//! Fixed-width inline match keys for the per-packet hot path.
//!
//! Match keys and flow-cache keys both hash short `u64` tuples on every
//! packet. A `Vec<u64>` key heap-allocates per
//! lookup; [`SmallKey`] stores up to [`SmallKey::INLINE_CAP`] components
//! inline on the stack and only boxes wider keys. Because it implements
//! `Borrow<[u64]>` (with a slice-consistent `Hash`/`Eq`), maps keyed by
//! `SmallKey` can be queried with a borrowed `&[u64]` scratch buffer —
//! zero allocations per lookup for any key width.
//!
//! Where this crate compares two composed keys itself — the hot-key
//! guard, [`SmallKey`]'s `PartialEq` and the hot-key sketch — it uses
//! [`same_key`], not slice `==`: for `u64` slices that is a call into
//! the C library's `bcmp`, which costs more than the one to four words
//! a key usually holds. Hash maps probed with a borrowed `[u64]` still
//! compare with slice `==`, inside std.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// Whether two composed keys are equal: the lengths, then the words,
/// compared inline with no library call.
#[inline(always)]
pub(crate) fn same_key(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// A match/cache key: inline up to 4×`u64`, boxed beyond.
#[derive(Debug, Clone)]
pub(crate) enum SmallKey {
    /// Stack-resident key of at most [`SmallKey::INLINE_CAP`] components.
    /// Components beyond `len` are zero and ignored.
    Inline {
        /// Number of live components.
        len: u8,
        /// Component storage (first `len` are live).
        vals: [u64; SmallKey::INLINE_CAP],
    },
    /// Heap-resident key, used only when wider than the inline capacity —
    /// the representation is canonical: `Heap` always holds > 4 values.
    Heap(Box<[u64]>),
}

impl SmallKey {
    /// Maximum number of components stored without heap allocation.
    pub(crate) const INLINE_CAP: usize = 4;

    /// Builds a key from a slice (allocates only beyond the inline cap).
    pub(crate) fn from_slice(v: &[u64]) -> Self {
        if v.len() <= Self::INLINE_CAP {
            let mut vals = [0u64; Self::INLINE_CAP];
            vals[..v.len()].copy_from_slice(v);
            SmallKey::Inline {
                len: v.len() as u8,
                vals,
            }
        } else {
            SmallKey::Heap(v.into())
        }
    }

    /// The key's components.
    pub(crate) fn as_slice(&self) -> &[u64] {
        match self {
            SmallKey::Inline { len, vals } => &vals[..*len as usize],
            SmallKey::Heap(b) => b,
        }
    }
}

impl PartialEq for SmallKey {
    fn eq(&self, other: &Self) -> bool {
        same_key(self.as_slice(), other.as_slice())
    }
}

impl Eq for SmallKey {}

impl Hash for SmallKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `<[u64] as Hash>::hash` exactly so `Borrow<[u64]>`
        // lookups agree with stored keys.
        self.as_slice().hash(state);
    }
}

impl Borrow<[u64]> for SmallKey {
    fn borrow(&self) -> &[u64] {
        self.as_slice()
    }
}

impl From<&[u64]> for SmallKey {
    fn from(v: &[u64]) -> Self {
        Self::from_slice(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhash::FxHashMap;

    #[test]
    fn inline_and_heap_roundtrip() {
        for n in 0..=8usize {
            let v: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            let k = SmallKey::from_slice(&v);
            assert_eq!(k.as_slice(), &v[..]);
            match &k {
                SmallKey::Inline { .. } => assert!(n <= SmallKey::INLINE_CAP),
                SmallKey::Heap(_) => assert!(n > SmallKey::INLINE_CAP),
            }
        }
    }

    #[test]
    fn slice_borrow_lookup_agrees_with_owned_key() {
        let mut m: FxHashMap<SmallKey, u32> = FxHashMap::default();
        let narrow = [1u64, 2, 3];
        let wide = [9u64, 8, 7, 6, 5, 4];
        m.insert(SmallKey::from_slice(&narrow), 1);
        m.insert(SmallKey::from_slice(&wide), 2);
        assert_eq!(m.get(&narrow[..]), Some(&1));
        assert_eq!(m.get(&wide[..]), Some(&2));
        assert_eq!(m.get(&[1u64, 2][..]), None);
    }

    /// `same_key` is slice `==` on every pair of keys 0–6 words wide,
    /// across `INLINE_CAP` into `Heap`: equal keys, keys one word apart
    /// (the first, a middle or the last), and keys of which one is a
    /// prefix of the other. `SmallKey`'s `==` answers the same.
    #[test]
    fn same_key_is_slice_equality() {
        let mut keys: Vec<Vec<u64>> = Vec::new();
        for n in 0..=6usize {
            for fill in [0, u64::MAX, 0x5A5A] {
                let base = vec![fill; n];
                keys.push(base.clone());
                for at in [0, n / 2, n.saturating_sub(1)] {
                    if at < n {
                        for word in [0, 1, u64::MAX, fill ^ 1] {
                            let mut k = base.clone();
                            k[at] = word;
                            keys.push(k);
                        }
                    }
                }
            }
        }
        let mut unequal = 0;
        for a in &keys {
            for b in &keys {
                let want = a.as_slice() == b.as_slice();
                unequal += usize::from(!want);
                assert_eq!(same_key(a, b), want, "{a:?} vs {b:?}");
                let (ka, kb) = (SmallKey::from_slice(a), SmallKey::from_slice(b));
                assert_eq!(ka == kb, want, "{a:?} vs {b:?} as SmallKeys");
            }
        }
        assert!(unequal > 0 && unequal < keys.len() * keys.len());
    }

    #[test]
    fn eq_ignores_dead_inline_slots() {
        let a = SmallKey::from_slice(&[5, 6]);
        let b = SmallKey::Inline {
            len: 2,
            vals: [5, 6, 0, 0],
        };
        assert_eq!(a, b);
        assert_ne!(a, SmallKey::from_slice(&[5, 6, 0]));
    }
}
