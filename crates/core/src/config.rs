//! Optimizer configuration and resource limits.

/// The Eq. 5 resource constraints: total memory and entry-update bandwidth
/// the optimized layout may consume *in addition to* the original program.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// Whether a layout costing `mem` bytes and `update` updates/s beyond
    /// the original program stays within the budget.
    pub fn fits(&self, mem: f64, update: f64) -> bool {
        mem <= self.memory_bytes && update <= self.update_rate
    }
}

/// What the figures and the CLI vary about the optimization search: the
/// hot-pipelet fraction, the merge width and the ablation switches. The
/// paper's fixed design values (pipelet split length, permutation and
/// order bounds, merge budget, default hit rate, invalidation pressure,
/// cache capacity) are constants of the modules that read them.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Fraction of pipelets selected as "hot" (`k`); 1.0 = ESearch.
    pub top_k_fraction: f64,
    /// Maximum tables merged into one (the paper restricts merging to two
    /// tables to control memory overhead, §5.2.2).
    pub max_merge_tables: usize,
    /// Whether table reordering is considered (ablation switch).
    pub enable_reorder: bool,
    /// Whether table caching is considered (ablation switch).
    pub enable_cache: bool,
    /// Whether table merging is considered (ablation switch).
    pub enable_merge: bool,
    /// Whether pipelet-group (cross-pipelet) optimization is attempted.
    pub enable_groups: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            top_k_fraction: 0.3,
            max_merge_tables: 2,
            enable_reorder: true,
            enable_cache: true,
            enable_merge: true,
            enable_groups: true,
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
    }
}
