//! Field-level dependency analysis.
//!
//! The paper's transformations must "preserve the program semantics by table
//! dependency analysis" (§3.2). Two tables can be reordered when no
//! read-after-write, write-after-read, or write-after-write hazard exists
//! between them; merging additionally requires that neither table's match
//! keys depend on the other's writes.
//!
//! Drops need no special casing: a drop halts execution, so for packets that
//! survive both orders the field state is identical, and for dropped packets
//! the final state is unobservable. A hazard only exists when one table's
//! *match or condition* reads a field the other *writes* — which is exactly
//! the field-level RAW test below.
//!
//! # Read classes and the predicate hierarchy (audited)
//!
//! [`RwSets`] deliberately keeps two read classes apart:
//!
//! * **match reads** ([`RwSets::match_reads`]) — fields consulted *before*
//!   any action runs: table keys and branch conditions. They select which
//!   action fires, so they are sensitive to any earlier write.
//! * **action reads** ([`RwSets::action_reads`]) — fields read by action
//!   primitives *while* they execute. They matter only for transformations
//!   that change the relative order of primitive execution.
//!
//! The three predicates use those classes differently, giving a strict
//! one-way hierarchy:
//!
//! * [`DependencyAnalysis::commute`] — the strongest: checks **all** reads
//!   plus WAW, because reordering swaps both match evaluation *and*
//!   primitive execution order.
//! * [`DependencyAnalysis::mergeable`] — strictly weaker: only
//!   cross-table *match* RAW matters. A merged table evaluates both key
//!   sets up front, then replays the winning actions' primitives in the
//!   original program order — so action-read RAW and WAW hazards are
//!   harmless (see `waw_hazard_blocks_reorder_but_not_merge` and
//!   `action_read_hazard_blocks_reorder_only` below).
//! * [`DependencyAnalysis::cacheable_segment`] — directional: an earlier
//!   table must not write a *later* table's match field, else the segment
//!   entry key does not determine the outcome. Action reads and WAW are
//!   fine because a cache hit replays the recorded final action, and a
//!   miss executes the segment unchanged.
//!
//! Hence `commute(a, b)` implies `mergeable(a, b)` and
//! `cacheable_segment(&[a, b])`, but **neither converse holds** — merging
//! or caching a pair is often legal when reordering it is not. Regression
//! tests at the bottom of this file pin the hierarchy.

use crate::graph::{Node, NodeKind};
use crate::table::Table;
use crate::types::FieldRef;
use std::borrow::Borrow;

/// The fields a node reads (match keys, branch conditions, action operand
/// reads) and writes (action primitive targets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSets {
    /// Fields read by the key match or branch condition.
    pub match_reads: Vec<FieldRef>,
    /// Fields read by action primitives.
    pub action_reads: Vec<FieldRef>,
    /// Fields written by action primitives (any action of the table).
    pub writes: Vec<FieldRef>,
}

impl RwSets {
    /// All reads (match + action).
    pub fn reads(&self) -> impl Iterator<Item = FieldRef> + '_ {
        self.match_reads
            .iter()
            .chain(self.action_reads.iter())
            .copied()
    }

    fn push_unique(v: &mut Vec<FieldRef>, f: FieldRef) {
        if !v.contains(&f) {
            v.push(f);
        }
    }

    /// Computes the read/write sets of a table.
    pub fn of_table(t: &Table) -> Self {
        let mut s = RwSets::default();
        for k in &t.keys {
            Self::push_unique(&mut s.match_reads, k.field);
        }
        for a in &t.actions {
            for p in &a.primitives {
                if let Some(f) = p.read_field() {
                    Self::push_unique(&mut s.action_reads, f);
                }
                if let Some(f) = p.written_field() {
                    Self::push_unique(&mut s.writes, f);
                }
            }
        }
        s
    }

    /// Computes the read/write sets of any node.
    pub fn of_node(n: &Node) -> Self {
        match &n.kind {
            NodeKind::Table(t) => Self::of_table(t),
            NodeKind::Branch(b) => {
                let mut s = RwSets::default();
                let mut fields = Vec::new();
                b.condition.read_fields(&mut fields);
                for f in fields {
                    Self::push_unique(&mut s.match_reads, f);
                }
                s
            }
        }
    }
}

/// Pairwise dependency queries between nodes.
#[derive(Debug, Clone)]
pub struct DependencyAnalysis;

impl DependencyAnalysis {
    /// Whether executing `a` then `b` is equivalent to `b` then `a`.
    ///
    /// True when there is no data hazard between them:
    /// * no field written by `a` is read (match or action) by `b`, and
    ///   vice versa (RAW / WAR), and
    /// * no field is written by both (WAW).
    pub fn commute(a: &RwSets, b: &RwSets) -> bool {
        let raw_ab = a.writes.iter().any(|w| b.reads().any(|r| r == *w));
        let raw_ba = b.writes.iter().any(|w| a.reads().any(|r| r == *w));
        let waw = a.writes.iter().any(|w| b.writes.contains(w));
        !(raw_ab || raw_ba || waw)
    }

    /// Whether two tables may be merged into one (paper §3.2.3): their key
    /// matches must not depend on each other's writes, because the merged
    /// table matches both keys *before* running either action.
    ///
    /// Action-level hazards (`a` writes a field `b`'s action reads, or
    /// both write the same field) are allowed because the merged action
    /// preserves the original execution order of the primitives. This
    /// makes `mergeable` deliberately **weaker** than [`Self::commute`]:
    /// a mergeable pair need not be reorderable, and a merge must never
    /// be justified by (or used to justify) a reorder.
    pub fn mergeable(a: &RwSets, b: &RwSets) -> bool {
        let match_raw_ab = a.writes.iter().any(|w| b.match_reads.contains(w));
        let match_raw_ba = b.writes.iter().any(|w| a.match_reads.contains(w));
        !(match_raw_ab || match_raw_ba)
    }

    /// Whether a sequence of tables (by their RW sets) can be cached as one
    /// unit keyed on their combined match fields: no table in the segment
    /// may write a field that a *later* table in the segment matches on
    /// (otherwise the cache key at segment entry does not determine the
    /// outcome).
    pub fn cacheable_segment<S: Borrow<RwSets>>(sets: &[S]) -> bool {
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                if sets[i]
                    .borrow()
                    .writes
                    .iter()
                    .any(|w| sets[j].borrow().match_reads.contains(w))
                {
                    return false;
                }
            }
        }
        true
    }

    /// The combined cache key fields for a segment: every field matched by
    /// any table in the segment (deduplicated, in first-seen order). This is
    /// the cross-product key of paper §3.2.2.
    pub fn segment_key_fields(sets: &[RwSets]) -> Vec<FieldRef> {
        let mut out = Vec::new();
        for s in sets {
            for f in &s.match_reads {
                if !out.contains(f) {
                    out.push(*f);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Action, MatchKey, MatchKind, Primitive};

    fn f(i: u16) -> FieldRef {
        FieldRef(i)
    }

    fn table_matching_writing(matches: &[u16], writes: &[u16]) -> Table {
        let mut t = Table::new("t");
        for &m in matches {
            t.keys.push(MatchKey {
                field: f(m),
                kind: MatchKind::Exact,
            });
        }
        let prims = writes.iter().map(|&w| Primitive::set(f(w), 1)).collect();
        t.actions = vec![Action::new("a", prims)];
        t
    }

    #[test]
    fn independent_tables_commute() {
        let a = RwSets::of_table(&table_matching_writing(&[0], &[1]));
        let b = RwSets::of_table(&table_matching_writing(&[2], &[3]));
        assert!(DependencyAnalysis::commute(&a, &b));
        assert!(DependencyAnalysis::mergeable(&a, &b));
    }

    #[test]
    fn raw_hazard_blocks_reorder() {
        // a writes field 1, b matches on field 1.
        let a = RwSets::of_table(&table_matching_writing(&[0], &[1]));
        let b = RwSets::of_table(&table_matching_writing(&[1], &[2]));
        assert!(!DependencyAnalysis::commute(&a, &b));
        assert!(!DependencyAnalysis::mergeable(&a, &b));
    }

    #[test]
    fn waw_hazard_blocks_reorder_but_not_merge() {
        let a = RwSets::of_table(&table_matching_writing(&[0], &[5]));
        let b = RwSets::of_table(&table_matching_writing(&[1], &[5]));
        assert!(!DependencyAnalysis::commute(&a, &b));
        // Merge keeps primitive order, so WAW is fine.
        assert!(DependencyAnalysis::mergeable(&a, &b));
    }

    #[test]
    fn action_read_hazard_blocks_reorder_only() {
        // a writes field 1; b's action reads field 1 (but matches field 2).
        let a = RwSets::of_table(&table_matching_writing(&[0], &[1]));
        let mut tb = table_matching_writing(&[2], &[]);
        tb.actions = vec![Action::new("a", vec![Primitive::add(f(1), 1)])];
        let b = RwSets::of_table(&tb);
        assert!(!DependencyAnalysis::commute(&a, &b));
        assert!(DependencyAnalysis::mergeable(&a, &b));
    }

    #[test]
    fn drop_only_acl_tables_commute() {
        // ACL tables: match disjoint fields, only drop (no field writes).
        let mut ta = table_matching_writing(&[0], &[]);
        ta.actions = vec![Action::nop("permit"), Action::drop_action("deny")];
        let mut tb = table_matching_writing(&[1], &[]);
        tb.actions = vec![Action::nop("permit"), Action::drop_action("deny")];
        let a = RwSets::of_table(&ta);
        let b = RwSets::of_table(&tb);
        assert!(DependencyAnalysis::commute(&a, &b));
    }

    #[test]
    fn cacheable_segment_rejects_internal_match_dependency() {
        // t0 writes field 3, t1 matches on field 3: outcome at segment
        // entry is not determined by the entry key -> not cacheable.
        let s0 = RwSets::of_table(&table_matching_writing(&[0], &[3]));
        let s1 = RwSets::of_table(&table_matching_writing(&[3], &[4]));
        assert!(!DependencyAnalysis::cacheable_segment(&[
            s0.clone(),
            s1.clone()
        ]));
        // Reverse order is fine: t1 matches 3 before t0 writes it.
        assert!(DependencyAnalysis::cacheable_segment(&[s1, s0]));
    }

    #[test]
    fn segment_key_is_deduplicated_union() {
        let s0 = RwSets::of_table(&table_matching_writing(&[0, 1], &[]));
        let s1 = RwSets::of_table(&table_matching_writing(&[1, 2], &[]));
        let key = DependencyAnalysis::segment_key_fields(&[s0, s1]);
        assert_eq!(key, vec![f(0), f(1), f(2)]);
    }

    #[test]
    fn commute_implies_mergeable_and_cacheable() {
        // The hierarchy over a small fixture matrix: wherever commute
        // holds, the weaker predicates must hold in both orders.
        let fixtures = [
            table_matching_writing(&[0], &[1]),
            table_matching_writing(&[2], &[3]),
            table_matching_writing(&[1], &[2]),
            table_matching_writing(&[0, 2], &[5]),
            table_matching_writing(&[5], &[]),
        ];
        for ta in &fixtures {
            for tb in &fixtures {
                let a = RwSets::of_table(ta);
                let b = RwSets::of_table(tb);
                if DependencyAnalysis::commute(&a, &b) {
                    assert!(DependencyAnalysis::mergeable(&a, &b));
                    assert!(DependencyAnalysis::cacheable_segment(&[
                        a.clone(),
                        b.clone()
                    ]));
                    assert!(DependencyAnalysis::cacheable_segment(&[b, a]));
                }
            }
        }
    }

    #[test]
    fn mergeable_does_not_imply_commute() {
        // WAW counterexample: merge keeps primitive order, reorder does not.
        let a = RwSets::of_table(&table_matching_writing(&[0], &[5]));
        let b = RwSets::of_table(&table_matching_writing(&[1], &[5]));
        assert!(DependencyAnalysis::mergeable(&a, &b));
        assert!(!DependencyAnalysis::commute(&a, &b));
    }

    #[test]
    fn cacheable_does_not_imply_commute() {
        // a's action reads a field b writes: a cache over [a, b] is fine
        // (the entry key still determines the outcome), swapping is not.
        let mut ta = table_matching_writing(&[0], &[]);
        ta.actions = vec![Action::new("a", vec![Primitive::add(f(7), 1)])];
        let b_tbl = table_matching_writing(&[1], &[7]);
        let a = RwSets::of_table(&ta);
        let b = RwSets::of_table(&b_tbl);
        assert!(DependencyAnalysis::cacheable_segment(&[
            a.clone(),
            b.clone()
        ]));
        assert!(!DependencyAnalysis::commute(&a, &b));
    }

    #[test]
    fn rw_sets_of_branch_node() {
        use crate::expr::Condition;
        use crate::graph::{Branch, NextHops, Node, NodeKind};
        use crate::types::NodeId;
        let n = Node {
            id: NodeId(0),
            kind: NodeKind::Branch(Branch {
                name: "if".into(),
                condition: Condition::eq(f(4), 1),
            }),
            next: NextHops::Branch {
                on_true: None,
                on_false: None,
            },
        };
        let s = RwSets::of_node(&n);
        assert_eq!(s.match_reads, vec![f(4)]);
        assert!(s.writes.is_empty());
    }
}
