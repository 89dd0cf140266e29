//! Exact distinct-key tracking, one tracker per table.
//!
//! Every instrumented packet — sampled or not — notes its composed match
//! key at every table it visits: the optimizer's cache hit-rate estimate
//! (§3.2.2) needs the exact count, which no 1-in-N sample of keys gives.
//! It is the one thing an unsampled packet pays to be watched, so it is
//! kept to a multiply and (usually) one cache line.

use crate::compiled::FX_SEED;
use crate::smallkey::SmallKey;
use fxhash::FxHashSet;
use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::NodeId;

/// Cap on tracked distinct keys per table (the estimate saturates here).
pub(crate) const DISTINCT_TRACK_CAP: usize = 65_536;

/// Slots allocated by the first non-zero key.
const FIRST_SLOTS: usize = 16;

/// An open-addressed set of non-zero `u64` keys: power-of-two slot
/// array, `0` marks an empty slot, home slot from the top bits of one
/// Fx multiply, linear probing, load at most one half so a probe run is
/// short and always ends.
#[derive(Debug, Clone, Default)]
struct FlatSet {
    slots: Box<[u64]>,
    len: usize,
}

impl FlatSet {
    /// Inserts a non-zero key, if it is not already present.
    fn insert(&mut self, key: u64) {
        debug_assert_ne!(key, 0, "zero is the empty-slot marker");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(FX_SEED) >> shift) as usize;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    self.len += 1;
                    return;
                }
                k if k == key => return,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; cap].into_boxed_slice());
        self.len = 0;
        for &k in old.iter().filter(|&&k| k != 0) {
            self.insert(k);
        }
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&k| k != 0)
    }

    /// Empties the set, keeping its slots.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(0);
            self.len = 0;
        }
    }
}

/// The distinct match keys one table saw in a profile window. Single-field
/// keys — most tables — live in a [`FlatSet`], with key `0` held out of
/// band; wider keys keep the general `FxHashSet<SmallKey>`. A one-field
/// and a two-field key are never equal, so the count is the sum. Both
/// halves keep their capacity across [`DistinctKeys::clear`]: a steady
/// window regrows nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistinctKeys {
    narrow: FlatSet,
    has_zero: bool,
    wide: FxHashSet<SmallKey>,
}

impl DistinctKeys {
    /// Distinct keys noted since the last clear.
    pub(crate) fn len(&self) -> usize {
        self.narrow.len + usize::from(self.has_zero) + self.wide.len()
    }

    /// Notes one composed key; a tracker that has reached
    /// [`DISTINCT_TRACK_CAP`] keys learns no new ones.
    #[inline]
    pub(crate) fn note(&mut self, vals: &[u64]) {
        self.note_capped(vals, DISTINCT_TRACK_CAP);
    }

    #[inline]
    fn note_capped(&mut self, vals: &[u64], cap: usize) {
        if self.len() >= cap {
            return;
        }
        match *vals {
            [0] => self.has_zero = true,
            [key] => self.narrow.insert(key),
            // `contains` first, so a repeat key never builds a `SmallKey`.
            _ => {
                if !self.wide.contains(vals) {
                    self.wide.insert(SmallKey::from_slice(vals));
                }
            }
        }
    }

    /// Unions `other` into `self`, uncapped: what one tracker fed both
    /// streams would hold, had neither saturated. [`count_into`] caps the
    /// union's count as [`DistinctKeys::note`] caps one tracker's.
    pub(crate) fn absorb(&mut self, other: &DistinctKeys) {
        self.has_zero |= other.has_zero;
        for key in other.narrow.keys() {
            self.narrow.insert(key);
        }
        self.wide.extend(other.wide.iter().cloned());
    }

    /// Forgets every key, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.narrow.clear();
        self.has_zero = false;
        self.wide.clear();
    }
}

/// Counts a window's trackers (dense by node index) into `profile` —
/// tables that saw no key stay unmeasured — and clears them for the next.
///
/// A count saturates at [`DISTINCT_TRACK_CAP`], so a union of shard
/// trackers reports what one tracker fed every shard's stream would
/// hold. If any shard saturated, so would that one tracker. If none did,
/// the union is exact, and one tracker holds `min(union, cap)` keys.
pub(crate) fn count_into(trackers: &mut [DistinctKeys], profile: &mut RuntimeProfile) {
    for (idx, keys) in trackers.iter_mut().enumerate() {
        if keys.len() > 0 {
            let n = keys.len().min(DISTINCT_TRACK_CAP);
            profile.set_distinct_keys(NodeId(idx as u32), n as u64);
        }
        keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Low enough that random sequences saturate; the rule is the same.
    const TEST_CAP: usize = 96;

    /// The parent's representation, kept as the model: one
    /// `FxHashSet<SmallKey>` per tracker, `contains` then `insert`
    /// below the cap.
    #[derive(Default)]
    struct Model(FxHashSet<SmallKey>);

    impl Model {
        fn note(&mut self, vals: &[u64], cap: usize) {
            if self.0.len() < cap && !self.0.contains(vals) {
                self.0.insert(SmallKey::from_slice(vals));
            }
        }
    }

    /// Keys that collide often (small range), sit on the edges (0,
    /// `u64::MAX`), and come in one, two and five fields.
    fn key(rng: &mut ChaCha8Rng) -> Vec<u64> {
        let word = |rng: &mut ChaCha8Rng| match rng.gen_range(0..8) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.gen(),
            _ => rng.gen_range(0..200),
        };
        let width = [1, 1, 1, 2, 5][rng.gen_range(0..5usize)];
        (0..width).map(|_| word(rng)).collect()
    }

    #[test]
    fn distinct_keys_match_the_hash_set_model() {
        for seed in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut trackers = [DistinctKeys::default(), DistinctKeys::default()];
            let mut models = [Model::default(), Model::default()];
            let mut union = DistinctKeys::default();
            for _ in 0..rng.gen_range(1..600) {
                let t = rng.gen_range(0..2usize);
                match rng.gen_range(0..100) {
                    // A window boundary: union the shards, count, clear.
                    0 => {
                        union.clear();
                        let mut all = FxHashSet::default();
                        for (tr, m) in trackers.iter_mut().zip(&mut models) {
                            union.absorb(tr);
                            all.extend(std::mem::take(&mut m.0));
                            tr.clear();
                            assert_eq!(tr.len(), 0);
                        }
                        assert_eq!(union.len(), all.len(), "seed {seed}: union count");
                    }
                    _ => {
                        let k = key(&mut rng);
                        trackers[t].note_capped(&k, TEST_CAP);
                        models[t].note(&k, TEST_CAP);
                    }
                }
                assert_eq!(trackers[t].len(), models[t].0.len(), "seed {seed}");
                assert!(trackers[t].len() <= TEST_CAP);
            }
        }
    }

    #[test]
    fn distinct_keys_count_exactly_across_every_growth_boundary() {
        let mut t = DistinctKeys::default();
        let mut slots_seen = vec![0];
        for k in 1..=5_000u64 {
            // Spread over the word so probe runs and wraparound happen.
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            t.note(&[key]);
            t.note(&[key]);
            assert_eq!(t.len(), k as usize);
            assert!(
                t.narrow.slots.len() >= 2 * t.narrow.len,
                "load above one half"
            );
            if slots_seen.last() != Some(&t.narrow.slots.len()) {
                slots_seen.push(t.narrow.slots.len());
            }
        }
        assert_eq!(
            slots_seen,
            [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
        );
        let held: FxHashSet<u64> = t.narrow.keys().collect();
        assert_eq!(held.len(), 5_000, "growth lost or duplicated a key");
    }

    #[test]
    fn distinct_keys_saturate_at_the_cap_like_the_set_did() {
        let mut t = DistinctKeys::default();
        for k in 0..DISTINCT_TRACK_CAP as u64 + 100 {
            t.note(&[k]);
        }
        assert_eq!(t.len(), DISTINCT_TRACK_CAP);
        // Saturated: a new key of either width is not learned, a known
        // one is still known.
        t.note(&[u64::MAX]);
        t.note(&[1, 2]);
        t.note(&[0]);
        assert_eq!(t.len(), DISTINCT_TRACK_CAP);
        // A union is exact past the cap; its count saturates.
        let mut other = DistinctKeys::default();
        other.note(&[u64::MAX]);
        other.note(&[1, 2]);
        other.note(&[7]);
        t.absorb(&other);
        assert_eq!(t.len(), DISTINCT_TRACK_CAP + 2);
        let mut trackers = [t];
        let mut profile = RuntimeProfile::empty();
        count_into(&mut trackers, &mut profile);
        let counted = profile.distinct_keys_of(NodeId(0));
        assert_eq!(counted, Some(DISTINCT_TRACK_CAP as u64));
    }

    #[test]
    fn distinct_keys_second_window_sees_none_of_the_first() {
        let mut t = DistinctKeys::default();
        for k in [&[0u64][..], &[9], &[u64::MAX], &[0, 0], &[3, 4, 5, 6, 7]] {
            t.note(k);
        }
        assert_eq!(t.len(), 5);
        let slots = t.narrow.slots.len();
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.narrow.slots.len(), slots, "clear keeps the slots");
        // Each of the first window's keys is new again, counted once.
        for (n, k) in [&[9u64][..], &[0], &[0, 0], &[0]].into_iter().enumerate() {
            t.note(k);
            assert_eq!(t.len(), (n + 1).min(3));
        }
    }
}
