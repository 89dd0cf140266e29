//! Table reordering (§3.2.1).
//!
//! Dropped packets halt execution on run-to-completion SmartNICs, so
//! promoting high-drop-rate tables to earlier positions shortens the
//! expected path. A permutation preserves semantics iff every *inverted*
//! pair of tables commutes (no field-level hazard, see
//! [`pipeleon_ir::DependencyAnalysis`]).
//!
//! Small pipelets (≤ `MAX_ENUM_PERMS` tables) enumerate every valid
//! permutation; longer ones fall back to a dependency-respecting greedy
//! order that repeatedly emits the schedulable table with the best
//! drop-rate-per-cost ratio.

use super::TableTerms;
use pipeleon_ir::DependencyAnalysis;

/// Pipelets up to this many tables enumerate every permutation; longer
/// ones take the greedy order.
const MAX_ENUM_PERMS: usize = 5;

/// The table orders considered for a pipelet, each a permutation of the
/// positions in `tables` (always includes the original order first; no
/// duplicates).
pub fn valid_orders(tables: &[TableTerms]) -> Vec<Vec<usize>> {
    let n = tables.len();
    let original: Vec<usize> = (0..n).collect();
    if n <= 1 {
        return vec![original];
    }
    let commute =
        |a: usize, b: usize| DependencyAnalysis::commute(&tables[a].sets, &tables[b].sets);

    let mut out: Vec<Vec<usize>> = vec![original];
    if n <= MAX_ENUM_PERMS {
        // Enumerate permutations of indices; keep those whose inversions
        // all commute.
        let mut idx: Vec<usize> = (0..n).collect();
        permutohedron_heap(&mut idx, &mut |perm: &[usize]| {
            let valid = (0..n).all(|i| {
                ((i + 1)..n).all(|j| {
                    // perm[i] runs before perm[j]; if that inverts the
                    // original order, the pair must commute.
                    perm[i] < perm[j] || commute(perm[i], perm[j])
                })
            });
            if valid && !out.iter().any(|o| o == perm) {
                out.push(perm.to_vec());
            }
        });
    } else {
        // Greedy: precedence edges between non-commuting pairs; repeatedly
        // pick the ready table with the highest drop rate (ties: cheaper
        // first, then original position).
        let mut emitted = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best: Option<usize> = None;
            for i in 0..n {
                if emitted[i] {
                    continue;
                }
                let ready = (0..i).all(|j| emitted[j] || commute(j, i));
                if !ready {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        if tables[i].drop_rate > tables[b].drop_rate + 1e-12 {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let pick = best.expect("some table is always ready");
            emitted[pick] = true;
            order.push(pick);
        }
        if order != out[0] {
            out.push(order);
        }
    }
    out
}

/// Heap's algorithm over a scratch index buffer, calling `f` for every
/// permutation (including the identity).
fn permutohedron_heap(idx: &mut [usize], f: &mut impl FnMut(&[usize])) {
    let n = idx.len();
    let mut c = vec![0usize; n];
    f(idx);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                idx.swap(0, i);
            } else {
                idx.swap(c[i], i);
            }
            f(idx);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::opts::EvalCtx;
    use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
    use pipeleon_ir::{
        MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
    };

    /// The considered orders of `tables`, as table ids.
    fn orders_of(
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        tables: &[NodeId],
    ) -> Vec<Vec<NodeId>> {
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g,
            profile,
            reach: 1.0,
        };
        valid_orders(&TableTerms::of_each(&ctx, tables))
            .into_iter()
            .map(|perm| perm.into_iter().map(|i| tables[i]).collect())
            .collect()
    }

    /// Three independent ACL-ish tables on distinct fields.
    fn independent3() -> (ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for i in 0..3 {
            let f = b.field(&format!("f{i}"));
            ids.push(
                b.table(format!("acl{i}"))
                    .key(f, MatchKind::Exact)
                    .action_nop("permit")
                    .action_drop("deny")
                    .entry(TableEntry::new(vec![MatchValue::Exact(1)], 1))
                    .finish(),
            );
        }
        (b.seal(ids[0]).unwrap(), ids)
    }

    #[test]
    fn independent_tables_enumerate_all_permutations() {
        let (g, ids) = independent3();
        let orders = orders_of(&g, &RuntimeProfile::empty(), &ids);
        assert_eq!(orders.len(), 6);
        assert_eq!(orders[0], ids, "original order comes first");
    }

    #[test]
    fn dependent_tables_restrict_orders() {
        // t0 writes "y"; t1 matches on "y": t1 cannot move before t0.
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let y = b.field("y");
        let t0 = b
            .table("t0")
            .key(x, MatchKind::Exact)
            .action("w", vec![Primitive::set(y, 1)])
            .finish();
        let t1 = b.table("t1").key(y, MatchKind::Exact).finish();
        let t2 = b.table("t2").key(x, MatchKind::Exact).finish();
        let g = b.seal(t0).unwrap();
        let orders = orders_of(&g, &RuntimeProfile::empty(), &[t0, t1, t2]);
        for o in &orders {
            let p0 = o.iter().position(|&id| id == t0).unwrap();
            let p1 = o.iter().position(|&id| id == t1).unwrap();
            assert!(p0 < p1, "t1 moved before its producer in {o:?}");
        }
        // t2 is free: 3 positions for it × 1 valid (t0,t1) order = 3.
        assert_eq!(orders.len(), 3);
    }

    #[test]
    fn greedy_promotes_high_drop_tables() {
        // 8 independent drop tables (beyond MAX_ENUM_PERMS) with skewed
        // drop rates; greedy must put the highest-drop table first.
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for i in 0..8 {
            let f = b.field(&format!("f{i}"));
            ids.push(
                b.table(format!("acl{i}"))
                    .key(f, MatchKind::Exact)
                    .action_nop("permit")
                    .action_drop("deny")
                    .finish(),
            );
        }
        let g = b.seal(ids[0]).unwrap();
        let mut profile = RuntimeProfile::empty();
        for (i, &id) in ids.iter().enumerate() {
            // Later tables drop more.
            profile.record_action(id, 0, 100 - 10 * i as u64);
            profile.record_action(id, 1, 10 * i as u64);
        }
        let orders = orders_of(&g, &profile, &ids);
        assert_eq!(orders.len(), 2, "original + greedy");
        let greedy = &orders[1];
        assert_eq!(greedy[0], ids[7], "highest drop rate first");
        assert_eq!(greedy[7], ids[0]);
    }

    #[test]
    fn single_table_has_one_order() {
        let (g, ids) = independent3();
        assert_eq!(orders_of(&g, &RuntimeProfile::empty(), &ids[..1]).len(), 1);
    }

    #[test]
    fn heap_permutations_count() {
        let mut count = 0;
        let mut idx = [0, 1, 2, 3];
        permutohedron_heap(&mut idx, &mut |_| count += 1);
        assert_eq!(count, 24);
    }
}
