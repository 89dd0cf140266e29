//! Flow-cache runtime state: an O(1) LRU map plus a token-bucket insertion
//! rate limiter (paper §3.2.2: "Pipeleon reserves a fixed budget for each
//! cache and adopts LRU eviction when the cache is full. … Pipeleon sets an
//! insertion rate limit for each cache; insertions beyond the limit will be
//! dropped.").

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Slab-backed doubly-linked LRU cache from key `K` to value `V`.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used entry
/// when at capacity. All operations are O(1) expected.
///
/// The hasher is pluggable (`S`, default SipHash): the datapath keys flow
/// caches by `SmallKey` under `FxBuildHasher`, and looks them up by
/// borrowed `&[u64]` scratch slices — no key allocation or clone per
/// lookup.
#[derive(Debug, Clone)]
pub(crate) struct LruCache<K, V, S: BuildHasher = RandomState> {
    capacity: usize,
    map: HashMap<K, usize, S>,
    slots: Vec<Slot<K, V>>,
    head: Option<usize>, // most recently used
    tail: Option<usize>, // least recently used
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: Option<usize>,
    next: Option<usize>,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> LruCache<K, V, S> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: HashMap::default(),
            slots: Vec::new(),
            head: None,
            tail: None,
        }
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> LruCache<K, V, S> {
    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            Some(p) => self.slots[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slots[n].prev = prev,
            None => self.tail = prev,
        }
        self.slots[idx].prev = None;
        self.slots[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = None;
        self.slots[idx].next = self.head;
        if let Some(h) = self.head {
            self.slots[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }

    /// Looks up `key`, refreshing its recency on hit. Accepts any
    /// borrowed form of the key (e.g. a `&[u64]` scratch slice for
    /// `SmallKey` keys) so the hot path never materializes one.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        if self.head != Some(idx) {
            self.detach(idx);
            self.push_front(idx);
        }
        Some(&self.slots[idx].value)
    }

    /// Inserts (or replaces) `key`, evicting the LRU entry if full.
    /// Returns the evicted `(key, value)` pair, if any.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            if self.head != Some(idx) {
                self.detach(idx);
                self.push_front(idx);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            if let Some(lru) = self.tail {
                self.detach(lru);
                let slot = &mut self.slots[lru];
                let old_key = slot.key.clone();
                self.map.remove(&old_key);
                // Move the value out by swapping in the new entry directly.
                let old_value = std::mem::replace(&mut slot.value, value);
                slot.key = key.clone();
                self.map.insert(key, lru);
                self.push_front(lru);
                evicted = Some((old_key, old_value));
                return evicted;
            }
        }
        let idx = self.slots.len();
        self.slots.push(Slot {
            key: key.clone(),
            value,
            prev: None,
            next: None,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Drops every entry (cache invalidation, §3.2.2).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = None;
        self.tail = None;
    }
}

/// Token-bucket rate limiter for cache insertions.
#[derive(Debug, Clone)]
pub(crate) struct RateLimiter {
    rate_per_s: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl RateLimiter {
    /// A limiter refilling `rate_per_s` tokens per second with a burst
    /// budget of `burst` tokens (starts full).
    pub(crate) fn new(rate_per_s: f64, burst: f64) -> Self {
        debug_assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "insertion rate {rate_per_s} is not finite and positive"
        );
        Self {
            rate_per_s,
            burst: burst.max(1.0),
            tokens: burst.max(1.0),
            last_s: 0.0,
        }
    }

    /// Attempts to take one token at simulation time `now_s`.
    pub(crate) fn allow(&mut self, now_s: f64) -> bool {
        if now_s > self.last_s {
            self.tokens = (self.tokens + (now_s - self.last_s) * self.rate_per_s).min(self.burst);
            self.last_s = now_s;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: LruCache<_, _> = LruCache::new(2);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_existing_replaces_and_refreshes() {
        let mut c: LruCache<_, _> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh 1
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn mru_iteration_order() {
        let mut c: LruCache<_, _> = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        // Recency is 1, 3, 2: eviction takes the least recent first.
        assert_eq!(c.insert(4, ()), Some((2, ())));
        assert_eq!(c.insert(5, ()), Some((3, ())));
        assert_eq!(c.insert(6, ()), Some((1, ())));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c: LruCache<_, _> = LruCache::new(4);
        c.insert("x", 1);
        c.insert("y", 2);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&"x"), None);
        c.insert("z", 3);
        assert_eq!(c.len(), 1);
    }

    /// Capacity 0 clamps to 1.
    #[test]
    fn capacity_one_cache_works() {
        for capacity in [0, 1] {
            let mut c: LruCache<_, _> = LruCache::new(capacity);
            c.insert(1, 'a');
            let e = c.insert(2, 'b');
            assert_eq!(e, Some((1, 'a')), "capacity {capacity}");
            assert_eq!(c.get(&2), Some(&'b'));
        }
    }

    #[test]
    fn lru_stress_against_reference_model() {
        // Compare against a naive Vec-based LRU on a random workload.
        let mut fast: LruCache<_, _> = LruCache::new(8);
        let mut slow: Vec<(u64, u64)> = Vec::new(); // front = MRU
        let mut x: u64 = 99;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        for _ in 0..2000 {
            let k = rng() % 16;
            if rng() % 2 == 0 {
                let v = rng();
                fast.insert(k, v);
                if let Some(pos) = slow.iter().position(|(sk, _)| *sk == k) {
                    slow.remove(pos);
                }
                slow.insert(0, (k, v));
                if slow.len() > 8 {
                    slow.pop();
                }
            } else {
                let f = fast.get(&k).copied();
                let s = slow.iter().position(|(sk, _)| *sk == k).map(|p| {
                    let e = slow.remove(p);
                    slow.insert(0, e);
                    slow[0].1
                });
                assert_eq!(f, s);
            }
            assert_eq!(fast.len(), slow.len());
        }
    }

    #[test]
    fn rate_limiter_enforces_rate() {
        let mut rl = RateLimiter::new(10.0, 2.0);
        // Burst of 2 at t=0.
        assert!(rl.allow(0.0));
        assert!(rl.allow(0.0));
        assert!(!rl.allow(0.0));
        // 0.1 s later: one token refilled.
        assert!(rl.allow(0.1));
        assert!(!rl.allow(0.1));
        // Long idle refills to burst only.
        assert!(rl.allow(100.0));
        assert!(rl.allow(100.0));
        assert!(!rl.allow(100.0));
    }
}
