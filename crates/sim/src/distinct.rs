//! Distinct-key counting, one observer per table.
//!
//! Every instrumented packet notes its composed match key at every table
//! it visits: the optimizer's cache hit-rate estimate (§3.2.2) needs a
//! table's distinct-key count, which a sample of keys by hash gives
//! (SHARDS, Waldspurger et al., FAST 2015). An observer keeps a key's
//! hash iff its top `shift` bits are zero and estimates `samples <<
//! shift`: exact up to [`BUDGET`] samples, where the shift is 0. Whether
//! a key is kept depends on its hash alone, so shard observers merge as
//! an exact union. The hash is the Fx fold over the key's words, so a
//! one-field key hashes to `key × FX_SEED`, a bijection.

use crate::walks::fx_step;
use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::NodeId;

/// Samples an observer holds at most; below it a count is exact.
const BUDGET: usize = 65_536;

/// The distinct match keys one table saw in a profile window, as a hash
/// sample: an open-addressed set of non-zero hashes (power-of-two slots,
/// 16 at first, `0` marks an empty one, linear probing, at most half
/// full), with hash 0 held out of band. The slots keep their capacity
/// across [`KeyObserver::clear`]: a steady window regrows nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyObserver {
    slots: Box<[u64]>,
    len: usize,
    has_zero: bool,
    /// A hash is kept iff its top `shift` bits are zero.
    shift: u32,
}

impl KeyObserver {
    /// Hashes held; at most [`BUDGET`].
    fn samples(&self) -> usize {
        self.len + usize::from(self.has_zero)
    }

    /// Exact while the shift is 0, scaled up from the sample above.
    fn estimate(&self) -> u64 {
        (self.samples() as u64) << self.shift
    }

    /// Notes one composed key.
    #[inline]
    pub(crate) fn note(&mut self, vals: &[u64]) {
        self.keep(vals.iter().fold(0, |h, &w| fx_step(h, w)));
    }

    #[inline]
    fn keep(&mut self, hash: u64) {
        if hash.leading_zeros() < self.shift {
            return;
        }
        if self.samples() == BUDGET && !self.contains(hash) {
            self.raise();
            self.keep(hash);
        } else if hash == 0 {
            self.has_zero = true;
        } else {
            self.insert(hash);
        }
    }

    /// The slot holding `hash`, or the empty one that ends its probe run.
    /// The home slot is the hash's top bits below the `shift` zeros every
    /// sample shares: at shift 0, a one-field key's `key × FX_SEED`.
    #[inline]
    fn probe(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = ((hash << self.shift) >> (64 - mask.count_ones())) as usize;
        while self.slots[i] != 0 && self.slots[i] != hash {
            i = (i + 1) & mask;
        }
        i
    }

    fn contains(&self, hash: u64) -> bool {
        match hash {
            0 => self.has_zero,
            _ => self.len > 0 && self.slots[self.probe(hash)] == hash,
        }
    }

    /// Inserts a non-zero hash, if it is not already present.
    #[inline]
    fn insert(&mut self, hash: u64) {
        if (self.len + 1) * 2 > self.slots.len() && !self.contains(hash) {
            self.rehash((self.slots.len() * 2).max(16));
        }
        let i = self.probe(hash);
        if self.slots[i] == 0 {
            self.slots[i] = hash;
            self.len += 1;
        }
    }

    /// Halves the sample: one more top bit of a kept hash must be zero.
    fn raise(&mut self) {
        self.shift += 1;
        self.rehash(self.slots.len());
    }

    /// Re-keeps the held hashes (those the shift still keeps) in `cap`
    /// slots.
    fn rehash(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![0; cap].into_boxed_slice());
        self.len = 0;
        for h in old.iter().copied().filter(|&h| h != 0) {
            self.keep(h);
        }
    }

    /// Unions `other` into `self`: the union is taken at the larger
    /// shift, which then rises until it fits. That is the smallest shift
    /// at which the union's sample fits, whatever the order of the
    /// absorbs: what one observer fed both streams would hold.
    pub(crate) fn absorb(&mut self, other: &KeyObserver) {
        if other.shift > self.shift {
            self.shift = other.shift;
            self.rehash(self.slots.len());
        }
        let zero = other.has_zero.then_some(0);
        for h in other.slots.iter().copied().filter(|&h| h != 0).chain(zero) {
            self.keep(h);
        }
    }

    /// Forgets every key, keeping the slots.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(0);
            self.len = 0;
        }
        self.has_zero = false;
        self.shift = 0;
    }
}

/// Counts a window's observers (dense by node index) into `profile` —
/// tables that saw no key stay unmeasured — and clears them for the next.
pub(crate) fn count_into(observers: &mut [KeyObserver], profile: &mut RuntimeProfile) {
    for (idx, keys) in observers.iter_mut().enumerate() {
        if keys.samples() > 0 {
            profile.set_distinct_keys(NodeId(idx as u32), keys.estimate());
        }
        keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    /// Words that collide often (small range) and sit on the edges (0,
    /// `u64::MAX`).
    fn word(rng: &mut ChaCha8Rng) -> u64 {
        match rng.gen_range(0..8) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.gen(),
            _ => rng.gen_range(0..200),
        }
    }

    /// Below the budget an observer is the exact set of keys it was fed,
    /// and the union of two is the exact union. A table's keys have one
    /// width, so each seed picks one: one, two or five fields.
    #[test]
    fn distinct_keys_match_the_hash_set_model() {
        for seed in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let width = [1, 1, 1, 2, 5][seed as usize % 5];
            let mut observers = [KeyObserver::default(), KeyObserver::default()];
            let mut models: [HashSet<Vec<u64>>; 2] = Default::default();
            let mut union = KeyObserver::default();
            for _ in 0..rng.gen_range(1..600) {
                let t = rng.gen_range(0..2usize);
                match rng.gen_range(0..100) {
                    // A window boundary: union the shards, count, clear.
                    0 => {
                        union.clear();
                        let mut all = HashSet::new();
                        for (o, m) in observers.iter_mut().zip(&mut models) {
                            union.absorb(o);
                            all.extend(std::mem::take(m));
                            o.clear();
                            assert_eq!(o.estimate(), 0);
                        }
                        assert_eq!(union.estimate(), all.len() as u64, "seed {seed}: union");
                    }
                    _ => {
                        let k: Vec<u64> = (0..width).map(|_| word(&mut rng)).collect();
                        observers[t].note(&k);
                        models[t].insert(k);
                    }
                }
                assert_eq!(
                    observers[t].estimate(),
                    models[t].len() as u64,
                    "seed {seed}"
                );
                assert_eq!(observers[t].shift, 0);
            }
        }
    }

    #[test]
    fn distinct_keys_count_exactly_across_every_growth_boundary() {
        let mut t = KeyObserver::default();
        let mut slots_seen = vec![0];
        for k in 1..=5_000u64 {
            // Spread over the word so probe runs and wraparound happen.
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            t.note(&[key]);
            t.note(&[key]);
            assert_eq!(t.estimate(), k);
            assert!(t.slots.len() >= 2 * t.len, "load above one half");
            if slots_seen.last() != Some(&t.slots.len()) {
                slots_seen.push(t.slots.len());
            }
        }
        assert_eq!(
            slots_seen,
            [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
        );
        let held: HashSet<u64> = t.slots.iter().copied().filter(|&h| h != 0).collect();
        assert_eq!(held.len(), 5_000, "growth lost or duplicated a hash");
    }

    /// One-field keys count exactly up to the budget, key 0 among them;
    /// one key more halves the sample, and the slots stop growing there.
    #[test]
    fn distinct_keys_stay_exact_up_to_the_budget() {
        let mut t = KeyObserver::default();
        for k in 0..BUDGET as u64 {
            t.note(&[k]);
        }
        assert_eq!((t.estimate(), t.shift), (BUDGET as u64, 0));
        let slots = t.slots.len();
        t.note(&[u64::MAX]);
        assert_eq!(t.shift, 1);
        assert!(t.samples() <= BUDGET);
        for k in BUDGET as u64..4 * BUDGET as u64 {
            t.note(&[k]);
        }
        assert!(t.samples() <= BUDGET);
        assert_eq!(
            t.slots.len(),
            slots,
            "a sample past the budget grew the slots"
        );
        let truth = 4.0 * BUDGET as f64 + 1.0;
        let err = (t.estimate() as f64 - truth).abs() / truth;
        assert!(err < 0.02, "estimate {} vs {truth}", t.estimate());
    }

    /// The merge law: a two-field key stream that crosses the budget,
    /// split over 1–8 observers (a key may reach several) and absorbed in
    /// any order, leaves the count and shift one observer fed the whole
    /// stream holds.
    #[test]
    fn distinct_keys_merge_like_one_observer_past_the_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(49);
        let keys: Vec<[u64; 2]> = (0..150_000u64).map(|i| [i % 977, i]).collect();
        let mut one = KeyObserver::default();
        for k in &keys {
            one.note(k);
        }
        assert!(one.shift >= 1, "the stream stays under the budget");
        let err = (one.estimate() as f64 - 150_000.0).abs() / 150_000.0;
        assert!(err < 0.02, "estimate {}", one.estimate());
        for parts in 1..=8usize {
            let mut shards = vec![KeyObserver::default(); parts];
            for k in &keys {
                shards[rng.gen_range(0..parts)].note(k);
                if rng.gen_range(0..4) == 0 {
                    shards[rng.gen_range(0..parts)].note(k);
                }
            }
            for i in (1..parts).rev() {
                shards.swap(i, rng.gen_range(0..i + 1));
            }
            let mut union = KeyObserver::default();
            for s in &shards {
                union.absorb(s);
            }
            let got = (union.estimate(), union.shift);
            assert_eq!(got, (one.estimate(), one.shift), "{parts} observers");
        }
    }

    #[test]
    fn distinct_keys_second_window_sees_none_of_the_first() {
        let mut t = KeyObserver::default();
        for k in [0, 9, u64::MAX] {
            t.note(&[k]);
        }
        assert_eq!(t.estimate(), 3);
        let slots = t.slots.len();
        t.clear();
        assert_eq!(t.estimate(), 0);
        assert_eq!(t.slots.len(), slots, "clear keeps the slots");
        // Each of the first window's keys is new again, counted once.
        for (n, k) in [9, 0, 0, 9].into_iter().enumerate() {
            t.note(&[k]);
            assert_eq!(t.estimate(), (n as u64 + 1).min(2));
        }
        // A window past the budget leaves the next one exact.
        for k in 0..2 * BUDGET as u64 {
            t.note(&[k]);
        }
        assert!(t.shift > 0);
        t.clear();
        t.note(&[5]);
        assert_eq!((t.estimate(), t.shift), (1, 0));
    }
}
