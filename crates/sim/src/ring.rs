//! Fixed-capacity single-producer/single-consumer ring buffer.
//!
//! The hand-off primitive of the sharded datapath
//! ([`ShardedNic`](crate::ShardedNic)): the dispatcher owns one
//! [`Producer`] per worker shard, each worker owns the matching
//! [`Consumer`], and packets flow through without locks — the classic
//! Lamport queue shape used by DPDK-style rx/tx burst rings.
//!
//! Design points:
//!
//! - **Power-of-two capacity, free-running indices.** `head`/`tail` count
//!   monotonically and are reduced modulo capacity with a mask, so
//!   `tail - head` is the length even across wraparound and the
//!   full/empty states never alias.
//! - **Cache-line-padded counters.** `head` (consumer-written) and `tail`
//!   (producer-written) sit on separate 64-byte lines so the two sides
//!   never false-share.
//! - **Cached counterpart indices.** The producer keeps a stale copy of
//!   `head` and only reloads it when the ring looks full (symmetrically
//!   for the consumer and `tail`), so the common case touches one shared
//!   line, not two.
//! - **Burst operations.** [`Producer::push_burst`] and
//!   [`Consumer::pop_burst`] move a run of items with a single
//!   acquire/release pair, which is what makes the per-packet hand-off
//!   cost amortize on the hot path.
//!
//! Memory ordering is the minimal Lamport protocol: each side publishes
//! its own counter with `Release` after writing/consuming slots and reads
//! the other side's with `Acquire` before trusting slot contents. The
//! happens-before graph is documented edge-by-edge on the ordering
//! helpers below and spelled out in DESIGN.md §15; it is verified by the
//! model-checked suite in `crates/sim/tests/model.rs` (build with
//! `RUSTFLAGS="--cfg pipeleon_check"`), which also kills the seeded
//! ordering mutants injectable through `RingOrderings` in model builds.
//! Single-threaded behaviour is property-tested against a `VecDeque`
//! model in `crates/sim/tests/ring_props.rs`.

use crate::sync::{AtomicUsize, CheckCell, Ordering};
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Pads a counter to its own cache line so producer and consumer
/// counters never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// How many slots ahead of its cursor each side prefetches. One shard's
/// ring is written/read as one sequential stream, but a dispatcher
/// feeding many rings round-robin produces more concurrent streams than
/// the hardware prefetcher tracks — explicit hints keep the per-slot
/// cost flat as the ring count grows.
const PREFETCH_SLOTS: usize = 8;

#[inline]
fn prefetch_slot<T>(inner: &Inner<T>, idx: usize) {
    // Model builds skip the hint: a prefetch is not a data access, and
    // routing it through the tracked cell would register a spurious read
    // of a slot the protocol has not handed to this side yet.
    #[cfg(not(pipeleon_check))]
    inner.buf[idx & inner.mask].with(crate::prefetch::line);
    #[cfg(pipeleon_check)]
    let _ = (inner, idx);
}

/// Ordering/bug injection for the model-checked mutant-kill suite: each
/// field weakens one load/store of the Lamport protocol (or reorders a
/// publication against its slot access), and `tests/model.rs` asserts
/// the checker reports a counterexample for every single one. Only
/// exists in `--cfg pipeleon_check` builds; real builds compile the
/// correct orderings as constants.
#[cfg(pipeleon_check)]
#[derive(Clone, Copy, Debug)]
pub struct RingOrderings {
    /// Producer's publication of `tail` (correct: `Release`).
    pub tail_store: Ordering,
    /// Consumer's refresh of `tail` (correct: `Acquire`).
    pub tail_load: Ordering,
    /// Consumer's publication of `head` (correct: `Release`).
    pub head_store: Ordering,
    /// Producer's refresh of `head` (correct: `Acquire`).
    pub head_load: Ordering,
    /// Bug: publish `tail` *before* writing the slot.
    pub publish_before_write: bool,
    /// Bug: publish `head` *before* reading the slot.
    pub advance_before_read: bool,
}

#[cfg(pipeleon_check)]
impl Default for RingOrderings {
    fn default() -> Self {
        // ORDERING: the correct Lamport protocol — each counter is
        // published with Release and refreshed with Acquire; the edge
        // each pair implements is documented on the `Inner` ordering
        // helpers below.
        Self {
            tail_store: Ordering::Release,
            tail_load: Ordering::Acquire,
            head_store: Ordering::Release,
            head_load: Ordering::Acquire,
            publish_before_write: false,
            advance_before_read: false,
        }
    }
}

struct Inner<T> {
    buf: Box<[CheckCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to pop. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    #[cfg(pipeleon_check)]
    ord: RingOrderings,
}

// The four orderings of the Lamport protocol, one helper each so the
// happens-before edge is stated exactly once and the model build can
// substitute a mutant. All compile to constants in real builds.
impl<T> Inner<T> {
    /// ORDERING: Release. Publishes the producer's slot writes in
    /// `[old_tail, new_tail)`: they happen-before any consumer access
    /// that observes the new `tail` through [`Inner::tail_load_ord`].
    #[inline(always)]
    fn tail_store_ord(&self) -> Ordering {
        #[cfg(pipeleon_check)]
        {
            self.ord.tail_store
        }
        #[cfg(not(pipeleon_check))]
        {
            Ordering::Release
        }
    }

    /// ORDERING: Acquire. Synchronizes with the producer's `Release`
    /// store of `tail`: after the load, every slot in `[head, tail)` is
    /// fully written and safe to read.
    #[inline(always)]
    fn tail_load_ord(&self) -> Ordering {
        #[cfg(pipeleon_check)]
        {
            self.ord.tail_load
        }
        #[cfg(not(pipeleon_check))]
        {
            Ordering::Acquire
        }
    }

    /// ORDERING: Release. Publishes the consumer's slot reads in
    /// `[old_head, new_head)`: they happen-before any producer write
    /// that observes the new `head` through [`Inner::head_load_ord`],
    /// so a freed slot is never overwritten mid-read.
    #[inline(always)]
    fn head_store_ord(&self) -> Ordering {
        #[cfg(pipeleon_check)]
        {
            self.ord.head_store
        }
        #[cfg(not(pipeleon_check))]
        {
            Ordering::Release
        }
    }

    /// ORDERING: Acquire. Synchronizes with the consumer's `Release`
    /// store of `head`: after the load, every slot below `head` has
    /// been fully read out and may be rewritten.
    #[inline(always)]
    fn head_load_ord(&self) -> Ordering {
        #[cfg(pipeleon_check)]
        {
            self.ord.head_load
        }
        #[cfg(not(pipeleon_check))]
        {
            Ordering::Acquire
        }
    }
}

// SAFETY: the SPSC protocol partitions slot access — the producer only
// writes slots in `[tail, head + capacity)` and the consumer only reads
// slots in `[head, tail)`, with the Release/Acquire pair on the counters
// ordering the hand-off (verified by the model suite in
// `crates/sim/tests/model.rs`). Items of `T` move across threads, hence
// the `T: Send` bound on both impls.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: see above — `&Inner` only exposes the checked protocol.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access here: drop whatever was pushed but not popped.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            // SAFETY: `[head, tail)` is exactly the set of slots that
            // were written by a push and never read out by a pop, so
            // each holds a live `T`; `&mut self` rules out concurrent
            // access.
            unsafe { self.buf[i & self.mask].get_mut().assume_init_drop() };
        }
    }
}

/// The sending half of an SPSC ring; owned by exactly one thread.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Local mirror of `tail` (we are its only writer).
    tail: usize,
    /// Stale cache of the consumer's `head`; refreshed only when the
    /// ring looks full.
    head_cache: usize,
}

/// The receiving half of an SPSC ring; owned by exactly one thread.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Local mirror of `head` (we are its only writer).
    head: usize,
    /// Stale cache of the producer's `tail`; refreshed only when the
    /// ring looks empty.
    tail_cache: usize,
}

/// Creates an SPSC ring holding at least `capacity` items (rounded up to
/// a power of two, minimum 2).
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    spsc_inner(
        capacity,
        #[cfg(pipeleon_check)]
        RingOrderings::default(),
    )
}

/// Creates a ring with injected (possibly mutant) orderings — the entry
/// point of the model-checked mutant-kill suite. Model builds only.
#[cfg(pipeleon_check)]
pub fn spsc_with_orderings<T>(capacity: usize, ord: RingOrderings) -> (Producer<T>, Consumer<T>) {
    spsc_inner(capacity, ord)
}

fn spsc_inner<T>(
    capacity: usize,
    #[cfg(pipeleon_check)] ord: RingOrderings,
) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[CheckCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| CheckCell::new_uninit(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        #[cfg(pipeleon_check)]
        ord,
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            inner,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Maximum number of items the ring can hold.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Free slots, refreshing the consumer's position.
    pub fn free(&mut self) -> usize {
        // ORDERING: Acquire (see `head_load_ord`) — the consumer's reads
        // of the slots below the loaded `head` happen-before this load,
        // so those slots are ours to overwrite.
        self.head_cache = self.inner.head.0.load(self.inner.head_load_ord());
        self.capacity() - (self.tail - self.head_cache)
    }

    /// Writes `value` into the current tail slot (no publication).
    #[inline(always)]
    fn write_slot(&mut self, value: T) {
        self.inner.buf[self.tail & self.inner.mask].with_mut(|p| {
            // SAFETY: `tail - head_cache < capacity` was just checked,
            // so this slot is outside the consumer's readable window
            // `[head, tail)`; we are the only producer, hence the only
            // writer of it. Writing `MaybeUninit` needs no drop of the
            // previous (already-read-out or never-written) contents.
            unsafe { (*p).write(value) };
        });
    }

    /// Pushes one item; returns it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.tail - self.head_cache == self.capacity() {
            // ORDERING: Acquire (see `head_load_ord`) — refresh the
            // consumer position; freed slots are safe to rewrite.
            self.head_cache = self.inner.head.0.load(self.inner.head_load_ord());
            if self.tail - self.head_cache == self.capacity() {
                return Err(value);
            }
        }
        #[cfg(pipeleon_check)]
        if self.inner.ord.publish_before_write {
            // MUTANT: publish the slot before writing it — the consumer
            // can observe the new tail and read uninitialized memory.
            self.inner
                .tail
                .0
                .store(self.tail + 1, self.inner.tail_store_ord());
            self.write_slot(value);
            self.tail += 1;
            return Ok(());
        }
        self.write_slot(value);
        prefetch_slot(&self.inner, self.tail + PREFETCH_SLOTS);
        self.tail += 1;
        // ORDERING: Release (see `tail_store_ord`) — publishes the slot
        // write above to the consumer's Acquire load of `tail`.
        self.inner
            .tail
            .0
            .store(self.tail, self.inner.tail_store_ord());
        Ok(())
    }

    /// Pushes items from `items` until the ring fills or the iterator
    /// ends, publishing the whole run with one `Release` store. Returns
    /// the number pushed; unpushed items stay in the iterator.
    pub fn push_burst(&mut self, items: &mut impl Iterator<Item = T>) -> usize {
        let free = self.free();
        let mut n = 0;
        while n < free {
            match items.next() {
                Some(v) => {
                    self.write_slot(v);
                    prefetch_slot(&self.inner, self.tail + PREFETCH_SLOTS);
                    self.tail += 1;
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            // ORDERING: Release (see `tail_store_ord`) — one publication
            // covers every slot write of the burst: all of them
            // happen-before a consumer access that observes this tail.
            self.inner
                .tail
                .0
                .store(self.tail, self.inner.tail_store_ord());
        }
        n
    }
}

impl<T> Consumer<T> {
    /// Maximum number of items the ring can hold.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Whether the ring is empty, refreshing the producer's position.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Items currently queued, refreshing the producer's position.
    pub fn len(&mut self) -> usize {
        // ORDERING: Acquire (see `tail_load_ord`) — the producer's slot
        // writes below the loaded `tail` happen-before this load, so
        // every queued slot is fully initialized before we read it.
        self.tail_cache = self.inner.tail.0.load(self.inner.tail_load_ord());
        self.tail_cache - self.head
    }

    /// Reads the current head slot out (no publication).
    #[inline(always)]
    fn read_slot(&self) -> T {
        self.inner.buf[self.head & self.inner.mask].with(|p| {
            // SAFETY: `head < tail_cache` (checked by the caller), and
            // the Acquire load of `tail` ordered the producer's write of
            // this slot before us, so it holds a live `T`; reading it
            // out transfers ownership, and the subsequent `head`
            // publication tells the producer the slot is reusable.
            unsafe { (*p).assume_init_read() }
        })
    }

    /// Pops one item, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            // ORDERING: Acquire (see `tail_load_ord`) — refresh the
            // producer position; queued slots are initialized.
            self.tail_cache = self.inner.tail.0.load(self.inner.tail_load_ord());
            if self.head == self.tail_cache {
                return None;
            }
        }
        #[cfg(pipeleon_check)]
        if self.inner.ord.advance_before_read {
            // MUTANT: free the slot before reading it — the producer can
            // observe the new head and overwrite the slot mid-read.
            self.head += 1;
            self.inner
                .head
                .0
                .store(self.head, self.inner.head_store_ord());
            self.head -= 1;
            let v = self.read_slot();
            self.head += 1;
            return Some(v);
        }
        let v = self.read_slot();
        self.head += 1;
        // ORDERING: Release (see `head_store_ord`) — publishes the slot
        // read above to the producer's Acquire load of `head`, so the
        // producer only rewrites the slot after our read completed.
        self.inner
            .head
            .0
            .store(self.head, self.inner.head_store_ord());
        Some(v)
    }

    /// Pops up to `max` items into `out`, releasing all consumed slots
    /// with one `Release` store. Returns the number popped.
    pub fn pop_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let avail = self.len().min(max);
        for _ in 0..avail {
            prefetch_slot(&self.inner, self.head + PREFETCH_SLOTS);
            let v = self.read_slot();
            self.head += 1;
            out.push(v);
        }
        if avail > 0 {
            // ORDERING: Release (see `head_store_ord`) — one publication
            // covers every slot read of the burst: all of them
            // happen-before a producer write that observes this head.
            self.inner
                .head
                .0
                .store(self.head, self.inner.head_store_ord());
        }
        avail
    }
}

impl<T> fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Producer")
            .field("capacity", &self.capacity())
            .field("tail", &self.tail)
            .finish()
    }
}

impl<T> fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Consumer")
            .field("capacity", &self.capacity())
            .field("head", &self.head)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (p, _c) = spsc::<u32>(3);
        assert_eq!(p.capacity(), 4);
        let (p, _c) = spsc::<u32>(0);
        assert_eq!(p.capacity(), 2);
        let (p, _c) = spsc::<u32>(8);
        assert_eq!(p.capacity(), 8);
    }

    #[test]
    fn fifo_through_wraparound() {
        let (mut p, mut c) = spsc::<u64>(4);
        for round in 0..10u64 {
            for i in 0..4 {
                p.push(round * 4 + i).unwrap();
            }
            assert!(p.push(999).is_err(), "ring must report full");
            for i in 0..4 {
                assert_eq!(c.pop(), Some(round * 4 + i));
            }
            assert_eq!(c.pop(), None);
        }
    }

    #[test]
    fn burst_ops_move_runs() {
        let (mut p, mut c) = spsc::<u32>(8);
        let mut src = (0..20u32).peekable();
        assert_eq!(p.push_burst(&mut src), 8);
        let mut out = Vec::new();
        assert_eq!(c.pop_burst(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(p.push_burst(&mut src), 5);
        out.clear();
        assert_eq!(c.pop_burst(&mut out, 64), 8);
        assert_eq!(out, vec![5, 6, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn unpopped_items_are_dropped_with_the_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                // ORDERING: SeqCst — test-only counter, no data guarded.
                DROPS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let (mut p, mut c) = spsc::<Counted>(4);
        for _ in 0..3 {
            p.push(Counted).unwrap();
        }
        drop(c.pop());
        // ORDERING: SeqCst — test-only counter, no data guarded.
        let before = DROPS.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(before, 1);
        drop(p);
        drop(c);
        // ORDERING: SeqCst — test-only counter, no data guarded.
        assert_eq!(
            DROPS.load(std::sync::atomic::Ordering::SeqCst),
            3,
            "ring must drop leftovers"
        );
    }
}
