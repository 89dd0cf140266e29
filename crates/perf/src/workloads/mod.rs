//! The four workloads.

pub mod control_loop;
pub mod datapath_skewed;
pub mod datapath_uniform;
pub mod serve_lb;

use std::time::Instant;

/// Nanoseconds from `t0` to `t1`.
pub fn between_ns(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}
