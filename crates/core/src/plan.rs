//! Optimization plan types shared across the search and apply stages.
//!
//! The rewrite vocabulary ([`Candidate`], [`Segment`], [`SegmentKind`])
//! is defined once, in `pipeleon-verify`, so the plan verifier checks the
//! very value the search built and prices; it is re-exported here for the
//! optimizer's callers. [`GlobalPlan`], the knapsack's selection, is the
//! optimizer's own.

pub use pipeleon_verify::{Candidate, Segment, SegmentKind};

/// The chosen global plan: one candidate per optimized pipelet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalPlan {
    /// Selected candidates (at most one per pipelet).
    pub choices: Vec<Candidate>,
    /// Total estimated gain.
    pub total_gain: f64,
    /// Total memory cost.
    pub total_mem: f64,
    /// Total update-rate cost.
    pub total_update: f64,
}

impl GlobalPlan {
    /// Whether the plan changes anything.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}
