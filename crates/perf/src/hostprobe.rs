//! The host-speed probe: was the CPU left alone just now?
//!
//! The CPU the run is pinned to shares its core with a co-tenant's
//! hardware thread. While that thread is busy, code with many
//! independent instructions in flight runs at about half speed and
//! cache-hungry code (the controller's search) at 1.5–1.9x its quiet
//! time, for minutes on end; a dependent chain of multiplies does not
//! notice. Nothing a workload times can tell a slow host from slow
//! code, so the harness asks a kernel it owns: eight interleaved
//! integer chains in registers, no memory, about 25 µs. It runs at its
//! floor when the core is ours and at up to twice that when it is
//! shared, and the floor is the machine's, the same in every run.
//!
//! A workload takes a reading right before and right after a timed call
//! and stores the slower of the two with the sample; the estimator in
//! [`crate::harness`] uses the readings to tell which visits of an item
//! were made on a quiet host. The probe never runs inside a timer.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slices per reading, each timed on its own.
const SLICES: u64 = 4;
/// Iterations of the kernel per slice (about 6 µs).
const ROUNDS: u64 = 5_000;

/// The fastest slice this process has seen. A slice is short enough to
/// fit a gap in the co-tenant's work even when a whole reading never
/// does, so this reaches the machine's floor in every run.
static FASTEST_SLICE_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// One reading: the time in ns the kernel took just now.
pub fn probe_ns() -> u64 {
    let mut total = 0;
    for _ in 0..SLICES {
        let ns = slice_ns();
        // ORDERING: a lone minimum, read after the threads that wrote it
        // have been joined; nothing else is published through it.
        FASTEST_SLICE_NS.fetch_min(ns, Ordering::Relaxed);
        total += ns;
    }
    total
}

/// The fastest a reading can be on this machine, as far as this process
/// has seen; `None` before the first reading.
pub fn floor_ns() -> Option<u64> {
    // ORDERING: see `probe_ns`.
    let slice = FASTEST_SLICE_NS.load(Ordering::Relaxed);
    (slice != u64::MAX).then_some(SLICES * slice)
}

fn slice_ns() -> u64 {
    let t0 = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..black_box(ROUNDS) {
        a = a.wrapping_add(i ^ b);
        b ^= a >> 3;
        c = c.wrapping_add(i | 5);
        d ^= c << 1;
        e = e.wrapping_add(i & g);
        f ^= e >> 2;
        g = g.wrapping_add(i + 1);
        h ^= g << 3;
    }
    black_box(a ^ b ^ c ^ d ^ e ^ f ^ g ^ h);
    u64::try_from(t0.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1)
}
