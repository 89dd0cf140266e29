//! The crate's one software-prefetch site.
//!
//! Two loops hint the cache a few items ahead of their cursor: the ring
//! (slots the other side is about to hand over) and the burst driver
//! `exec::run_burst` (the heap storage of a later packet, and the
//! match-table slots it will probe). Both funnel through [`line()`], so
//! the crate has exactly one `_mm_prefetch` and one `unsafe` block to
//! justify for them.

/// How many packets ahead of the one executing a packet burst loop
/// hints: far enough that a DRAM fetch (~100 ns) completes while the
/// intervening packets execute (100-250 ns each), near enough that the
/// hinted lines — a handful per packet — are still in L1 when their
/// packet arrives.
pub(crate) const AHEAD: usize = 8;

/// Hints the CPU to pull the cache line holding `*p` towards L1.
///
/// A hint, not an access: it has no architectural effect, so callers
/// may pass a pointer to memory that is uninitialized, concurrently
/// written, or about to be replaced. No-op off x86_64, and in model
/// builds (`--cfg pipeleon_check`), where a prefetch is not a data
/// access the checker should see.
#[inline]
pub(crate) fn line<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(pipeleon_check)))]
    // SAFETY: `_mm_prefetch` only hints the cache with an address. It
    // performs no load the memory model can observe and never faults,
    // so it is sound on any pointer value, valid or not. SSE is part of
    // the x86_64 baseline, so the instruction always exists.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(all(target_arch = "x86_64", not(pipeleon_check))))]
    let _ = p;
}
