//! Optimizer configuration and resource limits.

use serde::{Deserialize, Serialize};

/// The Eq. 5 resource constraints: total memory and entry-update bandwidth
/// the optimized layout may consume *in addition to* the original program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceLimits {
    /// Extra memory budget in bytes (`M`).
    pub memory_bytes: f64,
    /// Extra entry-update bandwidth in updates/s (`E`).
    pub update_rate: f64,
}

impl ResourceLimits {
    /// Effectively unconstrained (the paper's "without resource limits"
    /// mode, where the best candidate per pipelet wins outright).
    pub fn unlimited() -> Self {
        Self {
            memory_bytes: f64::INFINITY,
            update_rate: f64::INFINITY,
        }
    }

    /// A concrete budget.
    pub fn new(memory_bytes: f64, update_rate: f64) -> Self {
        Self {
            memory_bytes,
            update_rate,
        }
    }
}

/// Tunables of the optimization search. Defaults follow the paper where it
/// states values and otherwise pick conservative settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Fraction of pipelets selected as "hot" (`k`); 1.0 = ESearch.
    pub top_k_fraction: f64,
    /// Pipelets longer than this are split (§4.1.1 "partition long
    /// pipelets"); also bounds candidate enumeration.
    pub max_pipelet_len: usize,
    /// Maximum tables merged into one (the paper restricts merging to two
    /// tables to control memory overhead, §5.2.2).
    pub max_merge_tables: usize,
    /// Reject merges whose materialized cross-product exceeds this many
    /// entries.
    pub max_merge_entries: usize,
    /// Enumerate all permutations for pipelets up to this length; longer
    /// pipelets use a dependency-respecting greedy order.
    pub max_enum_perms: usize,
    /// Keep at most this many table orders per pipelet (best by
    /// drop-aware expected latency) before segment enumeration.
    pub max_orders: usize,
    /// Default estimated hit rate for a new cache (§3.2.2 "uses a default
    /// estimated hit rate for calculation").
    pub default_hit_rate: f64,
    /// Entry capacity of each created cache table.
    pub cache_capacity: usize,
    /// Hit-rate degradation per update/s on covered tables (cache
    /// invalidation pressure): `h = h0 / (1 + coeff · rate)`.
    pub invalidation_coeff: f64,
    /// Whether table reordering is considered (ablation switch).
    pub enable_reorder: bool,
    /// Whether table caching is considered (ablation switch).
    pub enable_cache: bool,
    /// Whether table merging is considered (ablation switch).
    pub enable_merge: bool,
    /// Whether pipelet-group (cross-pipelet) optimization is attempted.
    pub enable_groups: bool,
    /// Measurement window the profile represents, in seconds (converts
    /// packet counts to rates when estimating cache insertion load).
    pub profile_window_s: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            top_k_fraction: 0.3,
            max_pipelet_len: 24,
            max_merge_tables: 2,
            max_merge_entries: 4096,
            max_enum_perms: 5,
            max_orders: 12,
            default_hit_rate: 0.9,
            cache_capacity: 4096,
            invalidation_coeff: 0.05,
            enable_reorder: true,
            enable_cache: true,
            enable_merge: true,
            enable_groups: true,
            profile_window_s: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_infinite() {
        let l = ResourceLimits::unlimited();
        assert!(l.memory_bytes.is_infinite());
        assert!(l.update_rate.is_infinite());
    }

    #[test]
    fn defaults_are_sane() {
        let c = OptimizerConfig::default();
        assert!(c.top_k_fraction > 0.0 && c.top_k_fraction <= 1.0);
        assert!(c.max_merge_tables >= 2);
        assert!((0.0..=1.0).contains(&c.default_hit_rate));
        assert!(c.max_pipelet_len >= 2);
    }
}
