//! Resource accounting: the `M(v)` term of Eq. 5.
//!
//! Memory is approximated as entries × per-entry bytes × `m` (LPM/ternary
//! tables are materialized once per hash table, paper §4). The `E(v)`
//! term, entry-update rates from control-plane API monitoring, is read
//! off the profile ([`crate::RuntimeProfile::entry_update_rate`]).

use crate::params::CostParams;
use pipeleon_ir::{ProgramGraph, Table};

/// Insertions per second a flow cache may install: the rate every
/// emulated cache's limiter refills at, and the cap the optimizer's cost
/// model puts on a planned cache's insertion load (its `E(v)`).
pub const CACHE_INSERTION_RATE: f64 = 100_000.0;

/// Entries a flow cache holds: the capacity the optimizer prices a
/// planned cache's memory at (its `M(v)`) and every emulated cache's LRU
/// bound.
pub const CACHE_CAPACITY: usize = 4096;

/// Computes memory consumption for tables and whole programs under a
/// target's cost parameters.
#[derive(Debug, Clone)]
pub struct ResourceModel {
    /// Target parameters (for the `m` multiplier).
    pub params: CostParams,
}

impl ResourceModel {
    /// Creates a resource model for the target.
    pub fn new(params: CostParams) -> Self {
        Self { params }
    }

    /// Memory reserved for a table: its capacity if bounded (caches reserve
    /// their full budget, §3.2.2), otherwise its current entries.
    pub fn table_memory_reserved(&self, table: &Table) -> f64 {
        let m = self.params.memory_accesses(table).max(1.0);
        let entries = table.max_entries.unwrap_or(table.entries.len());
        entries.max(table.entries.len()) as f64 * Table::DEFAULT_ENTRY_BYTES as f64 * m
    }

    /// `Σ M(v)` over all tables in the program, in bytes (reserved sizes).
    pub fn program_memory(&self, g: &ProgramGraph) -> f64 {
        g.tables().map(|(_, t)| self.table_memory_reserved(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::FieldRef;
    use pipeleon_ir::{MatchKey, MatchKind, MatchValue, ProgramBuilder, TableEntry};

    #[test]
    fn table_memory_scales_with_entries_and_m() {
        let rm = ResourceModel::new(CostParams::emulated_nic());
        let mut t = Table::new("tern");
        t.keys = vec![MatchKey {
            field: FieldRef(0),
            kind: MatchKind::Ternary,
        }];
        t.entries.push(TableEntry::new(
            vec![MatchValue::Ternary { value: 0, mask: 1 }],
            0,
        ));
        // Fixed model: ternary m = 3. 1 entry * 32 B * 3.
        assert_eq!(rm.table_memory_reserved(&t), 96.0);
    }

    #[test]
    fn reserved_memory_uses_capacity() {
        let rm = ResourceModel::new(CostParams::bluefield2());
        let mut t = Table::new("cache");
        t.keys = vec![MatchKey {
            field: FieldRef(0),
            kind: MatchKind::Exact,
        }];
        t.max_entries = Some(1000);
        assert_eq!(rm.table_memory_reserved(&t), 1000.0 * 32.0);
        t.max_entries = None;
        assert_eq!(rm.table_memory_reserved(&t), 0.0);
    }

    #[test]
    fn program_totals_sum_tables() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t0 = b
            .table("a")
            .key(f, MatchKind::Exact)
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 0))
            .finish();
        b.table("b")
            .key(f, MatchKind::Exact)
            .entry(TableEntry::new(vec![MatchValue::Exact(2)], 0))
            .finish();
        let g = b.seal(t0).unwrap();
        let rm = ResourceModel::new(CostParams::bluefield2());
        assert_eq!(rm.program_memory(&g), 64.0);
    }
}
