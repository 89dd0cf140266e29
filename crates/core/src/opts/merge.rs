//! Table merging (§3.2.3): cross-product materialization, the
//! merged-exact-as-cache fallback, and cost estimation.
//!
//! Merging `[T_A, T_B]` produces one table that matches both keys at once
//! and runs the concatenated actions. Preserving semantics requires
//! wildcard rows for "A hit, B missed" etc., which turns exact tables
//! ternary and can *increase* the per-lookup memory accesses (Figure 6) —
//! the cost model captures this via the materialized table's mask
//! patterns. The fallback keeps the original tables and materializes an
//! **exact** merged table holding only the all-hit cross product as a
//! fall-through cache ([`pipeleon_ir::CacheRole::MergedCache`]): misses
//! take the original path and, unlike flow caches, no insertions happen
//! on the data path.
//!
//! Resolution correctness: merged entry priority is the lexicographic
//! combination of each component's within-table resolution rank (LPM
//! prefix length / ternary priority / exact-over-miss), so the merged
//! table picks exactly the combination of winners the sequential tables
//! would have picked.

use super::{EvalCtx, SegmentScore, TableTerms, INVALIDATION_COEFF};
use pipeleon_ir::{
    Action, CacheRole, DependencyAnalysis, MatchKey, MatchKind, MatchValue, NextHops, NodeId,
    Primitive, ProgramGraph, Table, TableEntry,
};

/// A materialized merged table plus the bookkeeping to translate its
/// counters and entries back to the original tables.
#[derive(Debug, Clone)]
pub struct MergedTable {
    /// The merged table definition (entries included).
    pub table: Table,
    /// For each merged action: the `(component node, action index)` pairs
    /// it stands for, truncated after a dropping component (sequential
    /// execution would not have run the rest).
    pub action_map: Vec<Vec<(NodeId, usize)>>,
    /// Index of the miss/default action (as-cache variant falls through
    /// to the originals from here).
    pub miss_action: usize,
}

impl MergedTable {
    /// This table's next hops when it is materialized as a cache: the miss
    /// falls through to `first`, the segment's first original table, and
    /// every hit jumps to `exit`, past the segment.
    pub fn as_cache_hops(&self, first: NodeId, exit: Option<NodeId>) -> NextHops {
        NextHops::ByAction(
            (0..self.table.actions.len())
                .map(|i| {
                    if i == self.miss_action {
                        Some(first)
                    } else {
                        exit
                    }
                })
                .collect(),
        )
    }
}

/// Rows a merged table may materialize (the product of each component's
/// entries + 1): the memory bound on merging (§3.2.3) and the size past
/// which an entry insert reverts a deployed merge.
pub(super) const MAX_MERGE_ENTRIES: usize = 4096;

/// Whether merging `tables` is allowed: ≥ 2 plain single-next tables with
/// keys, pairwise mergeable (no match-on-written-field hazards), within
/// `MAX_MERGE_ENTRIES`; the as-cache variant additionally requires
/// all-exact components (checked in [`materialize`]).
pub fn segment_allowed(tables: &[&TableTerms]) -> bool {
    if tables.len() < 2 || tables.iter().any(|t| !t.coverable) {
        return false;
    }
    let mut product: f64 = 1.0;
    for t in tables {
        product *= (t.entries + 1) as f64;
    }
    if product > MAX_MERGE_ENTRIES as f64 {
        return false;
    }
    for (i, a) in tables.iter().enumerate() {
        for b in &tables[i + 1..] {
            if !DependencyAnalysis::mergeable(&a.sets, &b.sets) {
                return false;
            }
        }
    }
    true
}

/// Within-table resolution rank of each entry, plus the miss rank (0).
/// Higher rank wins; ranks are dense in `1..=n`.
fn resolution_ranks(t: &Table) -> Vec<u64> {
    let mut order: Vec<usize> = (0..t.entries.len()).collect();
    // Losers first: ascending priority proxy, ties lose at higher index.
    let key = |i: usize| -> (i64, i64) {
        let e = &t.entries[i];
        let specificity: i64 = match t.effective_kind() {
            MatchKind::Lpm => e
                .matches
                .iter()
                .map(|m| match *m {
                    MatchValue::Lpm { prefix_len, .. } => prefix_len as i64,
                    MatchValue::Exact(_) => 64,
                    _ => 0,
                })
                .sum(),
            MatchKind::Ternary | MatchKind::Range => e.priority as i64,
            MatchKind::Exact => 0,
        };
        (specificity, -(i as i64))
    };
    order.sort_by_key(|&i| key(i));
    let mut ranks = vec![0u64; t.entries.len()];
    for (pos, &i) in order.iter().enumerate() {
        ranks[i] = pos as u64 + 1;
    }
    ranks
}

/// Converts a component match value into its ternary representation for
/// the plain-merge table.
fn to_ternary(mv: &MatchValue) -> MatchValue {
    match *mv {
        MatchValue::Exact(v) => MatchValue::Ternary {
            value: v,
            mask: u64::MAX,
        },
        MatchValue::Lpm { value, prefix_len } => MatchValue::Ternary {
            value,
            mask: pipeleon_ir::prefix_mask(prefix_len),
        },
        MatchValue::Ternary { .. } => *mv,
        // Ranges cannot be expressed as one mask; callers exclude them.
        MatchValue::Range { .. } => *mv,
    }
}

/// Materializes the merged table for `tables`.
///
/// * `as_cache = false`: a ternary table covering every hit/miss
///   combination (wildcard rows for misses) that fully replaces the
///   originals.
/// * `as_cache = true`: an exact table of the all-hit cross product used
///   as a fall-through cache; requires all-exact components.
///
/// Fails with a reason when the segment is structurally unmergeable.
pub fn materialize(
    ctx: &EvalCtx<'_>,
    tables: &[NodeId],
    as_cache: bool,
) -> Result<MergedTable, String> {
    let terms = TableTerms::of_each(ctx, tables);
    if !segment_allowed(&terms.iter().collect::<Vec<_>>()) {
        return Err("segment not mergeable".into());
    }
    build(ctx.g, tables, as_cache)
}

/// [`materialize`] for tables [`segment_allowed`] already accepted.
fn build(g: &ProgramGraph, tables: &[NodeId], as_cache: bool) -> Result<MergedTable, String> {
    let comps: Vec<&Table> = tables
        .iter()
        .map(|&id| g.node(id).and_then(|n| n.as_table()).expect("checked"))
        .collect();
    if as_cache {
        for t in &comps {
            if t.effective_kind() != MatchKind::Exact {
                return Err("as-cache merge requires all-exact components".into());
            }
            // Range keys inside an exact table are impossible; fine.
        }
    } else if comps.iter().any(|t| t.effective_kind() == MatchKind::Range) {
        return Err("range tables cannot merge into a ternary table".into());
    }

    let name = format!(
        "merge_{}",
        comps
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("__")
    );
    let mut merged = Table::new(name);
    merged.actions.clear();
    merged.cache_role = if as_cache {
        CacheRole::MergedCache
    } else {
        CacheRole::None
    };
    // Keys: the concatenation of component keys.
    for t in &comps {
        for k in &t.keys {
            merged.keys.push(MatchKey {
                field: k.field,
                kind: if as_cache {
                    MatchKind::Exact
                } else {
                    MatchKind::Ternary
                },
            });
        }
    }

    let ranks: Vec<Vec<u64>> = comps.iter().map(|t| resolution_ranks(t)).collect();
    let bases: Vec<u64> = comps.iter().map(|t| t.entries.len() as u64 + 1).collect();

    // Enumerate combinations: option index e_i in 0..=n_i, where n_i means
    // "miss" (plain merge only).
    let mut action_map: Vec<Vec<(NodeId, usize)>> = Vec::new();
    let mut action_index: std::collections::HashMap<Vec<(NodeId, usize)>, usize> =
        std::collections::HashMap::new();
    let mut combo = vec![0usize; comps.len()];
    loop {
        let is_all_hit = combo.iter().zip(&comps).all(|(&c, t)| c < t.entries.len());
        if !as_cache || is_all_hit {
            // Build the merged entry for this combination.
            let mut matches = Vec::with_capacity(merged.keys.len());
            let mut acts: Vec<(NodeId, usize)> = Vec::new();
            let mut priority: i64 = 0;
            for (i, t) in comps.iter().enumerate() {
                let miss = combo[i] >= t.entries.len();
                if miss {
                    for _ in &t.keys {
                        matches.push(MatchValue::ANY);
                    }
                    acts.push((tables[i], t.default_action));
                } else {
                    let e = &t.entries[combo[i]];
                    for mv in &e.matches {
                        matches.push(if as_cache { *mv } else { to_ternary(mv) });
                    }
                    acts.push((tables[i], e.action));
                }
                // Lexicographic rank combination.
                let rank = if miss { 0 } else { ranks[i][combo[i]] };
                priority = priority * bases[i] as i64 + rank as i64;
            }
            // Truncate the executed components after the first drop.
            let mut executed: Vec<(NodeId, usize)> = Vec::new();
            for &(nid, aidx) in &acts {
                executed.push((nid, aidx));
                let drops = g
                    .node(nid)
                    .and_then(|n| n.as_table())
                    .map(|t| t.actions[aidx].drops())
                    .unwrap_or(false);
                if drops {
                    break;
                }
            }
            let action = *action_index.entry(executed.clone()).or_insert_with(|| {
                let mut prims: Vec<Primitive> = Vec::new();
                let mut names = Vec::new();
                for &(nid, aidx) in &executed {
                    let t = g
                        .node(nid)
                        .and_then(|n| n.as_table())
                        .expect("component exists");
                    prims.extend(t.actions[aidx].primitives.iter().copied());
                    names.push(t.actions[aidx].name.clone());
                }
                merged.actions.push(Action::new(names.join("_"), prims));
                action_map.push(executed.clone());
                merged.actions.len() - 1
            });
            merged.entries.push(TableEntry::with_priority(
                matches,
                action,
                priority.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
            ));
        }
        // Advance the mixed-radix combination counter; digit `i` ranges
        // over entries (+1 "miss" option for plain merges).
        let mut i = 0;
        while i < combo.len() {
            combo[i] += 1;
            let radix = comps[i].entries.len() + usize::from(!as_cache);
            if combo[i] < radix {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
        if i >= combo.len() {
            break;
        }
    }

    // The miss/default action: all components run their defaults (plain
    // merge encodes it as the all-wildcard row; as-cache uses it as the
    // fall-through signal).
    let default_acts: Vec<(NodeId, usize)> = tables
        .iter()
        .zip(&comps)
        .map(|(&id, t)| (id, t.default_action))
        .collect();
    let miss_action = match action_index.get(&default_acts) {
        Some(&i) if !as_cache => i,
        _ => {
            merged.actions.push(Action::nop("merged_miss"));
            action_map.push(if as_cache { Vec::new() } else { default_acts });
            merged.actions.len() - 1
        }
    };
    merged.default_action = miss_action;
    if as_cache {
        merged.max_entries = Some(merged.entries.len().max(1));
    }
    merged
        .validate()
        .map_err(|e| format!("merged table invalid: {e}"))?;
    Ok(MergedTable {
        table: merged,
        action_map,
        miss_action,
    })
}

/// The score of merging `tables` (which [`segment_allowed`] accepted),
/// priced from the components without materializing the merged table;
/// `None` when it would not materialize.
///
/// A merged cache's latency reads no row of it. A plain merge's reads
/// its `m`: every row is a combination of one row per component, a hit
/// on one of its entries or its miss row (all wildcards), so the merged
/// table's distinct patterns are `Π_i |P_i ∪ {miss row}|` with `P_i`
/// component `i`'s entry patterns ([`TableEntry::pattern`], which the
/// merged row's ternary form of each value keeps).
pub fn score(ctx: &EvalCtx<'_>, tables: &[&TableTerms], as_cache: bool) -> Option<SegmentScore> {
    let comps = || {
        tables
            .iter()
            .map(|t| ctx.g.node(t.id).and_then(|n| n.as_table()))
    };
    let kinds = || comps().map(|t| t.map(Table::effective_kind));
    if as_cache {
        if kinds().any(|k| k != Some(MatchKind::Exact)) {
            return None;
        }
    } else if kinds().any(|k| k.is_none_or(|k| k == MatchKind::Range))
        || comps().flatten().any(holds_a_range)
    {
        return None;
    }
    let params = &ctx.model.params;
    // Replay / original costs mirror the cache estimate.
    let mut actions = 0.0;
    let mut orig = 0.0;
    let mut survive = 1.0;
    for t in tables {
        actions += survive * t.action_cost;
        orig += survive * t.cost;
        survive *= 1.0 - t.drop_rate;
    }
    let latency = if as_cache {
        let h = estimated_all_hit_rate(tables);
        params.l_mat + h * actions + (1.0 - h) * orig
    } else {
        let m = params.accesses(MatchKind::Ternary, || {
            let rows = comps().flatten().map(miss_and_entry_patterns);
            rows.fold(1, usize::saturating_mul)
        });
        m * params.l_mat + actions
    };
    let (mem, update) = costs(tables, as_cache);
    Some(SegmentScore {
        latency,
        drop_rate: 1.0 - survive,
        mem,
        update,
    })
}

/// Whether an entry of `t` matches a range, which no ternary row of a
/// plain merge expresses.
fn holds_a_range(t: &Table) -> bool {
    let mut values = t.entries.iter().flat_map(|e| &e.matches);
    values.any(|m| matches!(m, MatchValue::Range { .. }))
}

/// The distinct patterns of `t`'s rows in a plain merge: its entries'
/// and its miss row's, all zero, which an entry of all-zero masks
/// shares.
fn miss_and_entry_patterns(t: &Table) -> usize {
    let width = t.keys.len().max(1);
    let miss = std::iter::repeat_n(0, t.keys.len());
    let flat: Vec<u64> = t
        .entries
        .iter()
        .flat_map(TableEntry::pattern)
        .chain(miss)
        .collect();
    let mut rows: Vec<&[u64]> = flat.chunks(width).collect();
    rows.sort_unstable();
    rows.dedup();
    rows.len()
}

/// The probability a packet hits (a non-default entry in) every component
/// table — the merged-cache hit rate — degraded by update churn.
fn estimated_all_hit_rate(tables: &[&TableTerms]) -> f64 {
    let mut h = 1.0;
    let mut update_rate = 0.0;
    for t in tables {
        h *= t.hit_prob;
        update_rate += t.update_rate;
    }
    (h / (1.0 + INVALIDATION_COEFF * update_rate)).clamp(0.0, 1.0)
}

/// `(memory, update-rate)` cost of the merge. Memory is the materialized
/// table (net of freed originals for plain merges); the update cost is the
/// paper's `I(T_AB) = Σ_i I(T_i)·Π_{j≠i} N(T_j)` amplification.
pub fn costs(tables: &[&TableTerms], as_cache: bool) -> (f64, f64) {
    let sizes: Vec<f64> = tables
        .iter()
        .map(|t| t.entries as f64 + if as_cache { 0.0 } else { 1.0 })
        .collect();
    let product: f64 = sizes.iter().product();
    let entry_bytes = Table::DEFAULT_ENTRY_BYTES as f64;
    let mut mem = product * entry_bytes;
    if !as_cache {
        // Plain merge frees the originals.
        let freed: f64 = tables.iter().map(|t| t.entries as f64 * entry_bytes).sum();
        mem = (mem - freed).max(0.0);
    }
    let mut update = 0.0;
    for (i, t) in tables.iter().enumerate() {
        let amplification: f64 = sizes
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, s)| *s)
            .product();
        update += t.update_rate * amplification;
    }
    (mem, update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
    use pipeleon_ir::ProgramBuilder;

    /// Two exact tables: t0 on f0 {10 -> set y=1}, t1 on f1 {20 -> set z=2}.
    fn two_exact() -> (ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let f0 = b.field("f0");
        let f1 = b.field("f1");
        let y = b.field("y");
        let z = b.field("z");
        let t0 = b
            .table("t0")
            .key(f0, MatchKind::Exact)
            .action("set_y", vec![Primitive::set(y, 1)])
            .action_nop("miss0")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(10)], 0))
            .finish();
        let t1 = b
            .table("t1")
            .key(f1, MatchKind::Exact)
            .action("set_z", vec![Primitive::set(z, 2)])
            .action_nop("miss1")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(20)], 0))
            .finish();
        (b.seal(t0).unwrap(), vec![t0, t1])
    }

    fn eval<'a>(
        g: &'a ProgramGraph,
        model: &'a CostModel,
        cfg: &'a OptimizerConfig,
        profile: &'a RuntimeProfile,
    ) -> EvalCtx<'a> {
        EvalCtx {
            model,
            cfg,
            g,
            profile,
            reach: 1.0,
        }
    }

    #[test]
    fn plain_merge_materializes_figure6_cross_product() {
        let (g, ids) = two_exact();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        let m = materialize(&ctx, &ids, false).unwrap();
        // (1+1) x (1+1) combinations, exactly as Figure 6.
        assert_eq!(m.table.entries.len(), 4);
        assert_eq!(m.table.effective_kind(), MatchKind::Ternary);
        // Four distinct mask patterns -> m = 4 (the Figure 6 cost blow-up).
        assert_eq!(m.table.memory_accesses(), 4);
        // Highest priority row is the both-hit row.
        let best = m.table.entries.iter().max_by_key(|e| e.priority).unwrap();
        assert_eq!(
            best.matches,
            vec![
                MatchValue::Ternary {
                    value: 10,
                    mask: u64::MAX
                },
                MatchValue::Ternary {
                    value: 20,
                    mask: u64::MAX
                },
            ]
        );
        let both = &m.action_map[best.action];
        assert_eq!(both, &vec![(ids[0], 0), (ids[1], 0)]);
    }

    #[test]
    fn as_cache_merge_keeps_exact_and_only_hits() {
        let (g, ids) = two_exact();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        let m = materialize(&ctx, &ids, true).unwrap();
        assert_eq!(m.table.entries.len(), 1); // only the all-hit combo
        assert_eq!(m.table.effective_kind(), MatchKind::Exact);
        assert_eq!(m.table.cache_role, CacheRole::MergedCache);
        assert_eq!(m.action_map[m.miss_action], vec![]);
    }

    #[test]
    fn drop_truncates_merged_action() {
        let mut b = ProgramBuilder::new();
        let f0 = b.field("f0");
        let f1 = b.field("f1");
        let y = b.field("y");
        let t0 = b
            .table("acl")
            .key(f0, MatchKind::Exact)
            .action_drop("deny")
            .action_nop("permit")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 0))
            .finish();
        let t1 = b
            .table("mark")
            .key(f1, MatchKind::Exact)
            .action("set_y", vec![Primitive::set(y, 9)])
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(2)], 0))
            .finish();
        let g = b.seal(t0).unwrap();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        let m = materialize(&ctx, &[t0, t1], false).unwrap();
        // Find the (deny, set_y) combination row: its executed list must
        // stop at the deny.
        let deny_row = m
            .table
            .entries
            .iter()
            .find(|e| {
                e.matches[0]
                    == MatchValue::Ternary {
                        value: 1,
                        mask: u64::MAX,
                    }
                    && e.matches[1]
                        == MatchValue::Ternary {
                            value: 2,
                            mask: u64::MAX,
                        }
            })
            .unwrap();
        assert_eq!(m.action_map[deny_row.action], vec![(t0, 0)]);
        // The merged action's primitives must not contain the set_y.
        let prims = &m.table.actions[deny_row.action].primitives;
        assert_eq!(prims, &vec![Primitive::Drop]);
    }

    #[test]
    fn lpm_components_resolve_by_prefix_in_merged_table() {
        let mut b = ProgramBuilder::new();
        let f = b.field("dst");
        let f2 = b.field("other");
        let lpm = b
            .table("lpm")
            .key(f, MatchKind::Lpm)
            .action_nop("short")
            .action_nop("long")
            .action_nop("miss")
            .default_action(2)
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0xAA00_0000_0000_0000,
                    prefix_len: 8,
                }],
                0,
            ))
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0xAABB_0000_0000_0000,
                    prefix_len: 16,
                }],
                1,
            ))
            .finish();
        let ex = b
            .table("ex")
            .key(f2, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(5)], 0))
            .finish();
        let g = b.seal(lpm).unwrap();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        let m = materialize(&ctx, &[lpm, ex], false).unwrap();
        // Rows matching dst=0xAABB…: both the /8 and /16 rows match; the
        // /16 row must carry strictly higher priority.
        let prio_of = |plen_mask: u64| {
            m.table
                .entries
                .iter()
                .filter(|e| {
                    matches!(e.matches[0], MatchValue::Ternary { mask, .. } if mask == plen_mask)
                })
                .map(|e| e.priority)
                .max()
                .unwrap()
        };
        let p8 = prio_of(pipeleon_ir::prefix_mask(8));
        let p16 = prio_of(pipeleon_ir::prefix_mask(16));
        assert!(p16 > p8, "p16={p16} p8={p8}");
    }

    #[test]
    fn as_cache_requires_exact_components() {
        let mut b = ProgramBuilder::new();
        let f = b.field("dst");
        let f2 = b.field("x");
        let lpm = b
            .table("lpm")
            .key(f, MatchKind::Lpm)
            .action_nop("a")
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0,
                    prefix_len: 8,
                }],
                0,
            ))
            .finish();
        let ex = b.table("ex").key(f2, MatchKind::Exact).finish();
        let g = b.seal(lpm).unwrap();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        assert!(materialize(&ctx, &[lpm, ex], true).is_err());
        assert!(materialize(&ctx, &[lpm, ex], false).is_ok());
    }

    #[test]
    fn oversized_merge_rejected() {
        // Two exact tables of `n0` and `n1` entries materialize
        // (n0 + 1)·(n1 + 1) rows.
        let allowed = |n0: u64, n1: u64| {
            let mut b = ProgramBuilder::new();
            let ids: Vec<NodeId> = [("big0", n0), ("big1", n1)]
                .into_iter()
                .map(|(name, n)| {
                    let f = b.field(&format!("{name}.key"));
                    let mut tb = b.table(name).key(f, MatchKind::Exact).action_nop("a");
                    for e in 0..n {
                        tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
                    }
                    tb.finish()
                })
                .collect();
            let g = b.seal(ids[0]).unwrap();
            let model = CostModel::new(CostParams::bluefield2());
            let cfg = OptimizerConfig::default();
            let profile = RuntimeProfile::empty();
            let ctx = eval(&g, &model, &cfg, &profile);
            let terms = TableTerms::of_each(&ctx, &ids);
            segment_allowed(&terms.iter().collect::<Vec<_>>())
        };
        assert_eq!(64 * 64, MAX_MERGE_ENTRIES);
        assert!(allowed(63, 63), "64·64 rows fill the budget exactly");
        assert!(!allowed(63, 64), "64·65 rows exceed it");
    }

    /// `score` against the brute-force oracle's score, which reads `m`
    /// off the table [`materialize`] builds: the four numbers to the bit,
    /// `None` included, for both flavours. Returns the materialized plain
    /// merge's distinct patterns, or `None` when it does not build.
    fn agrees_with_the_materialized_table(ctx: &EvalCtx<'_>, ids: &[NodeId]) -> Option<usize> {
        let terms = TableTerms::of_each(ctx, ids);
        let row: Vec<&TableTerms> = terms.iter().collect();
        assert!(segment_allowed(&row), "{ids:?}");
        for as_cache in [false, true] {
            let bits =
                |s: SegmentScore| [s.latency, s.drop_rate, s.mem, s.update].map(f64::to_bits);
            let got = score(ctx, &row, as_cache).map(bits);
            let kind = crate::plan::SegmentKind::Merge { as_cache };
            let want = super::super::reference::score(ctx, ids, kind).map(|s| s.map(f64::to_bits));
            assert_eq!(got, want, "{ids:?} as_cache={as_cache}");
        }
        materialize(ctx, ids, false)
            .ok()
            .map(|m| m.table.memory_accesses())
    }

    /// The closed-form merge price agrees with the materialized table on
    /// every run of 2 to 4 tables (every `max_merge_tables` the search
    /// takes) that [`segment_allowed`] accepts, in every order the search
    /// tries, over the example, scenario and synthetic programs, under
    /// a per-pattern and a fixed match model, then on hand-made
    /// components the programs do not hold. `seen` counts plain merges,
    /// merged caches, refused merged caches and plain merges past the
    /// pattern cap, so a sweep that stopped producing one fails instead
    /// of passing vacuously.
    #[test]
    fn closed_form_merge_price_matches_the_materialized_table() {
        use crate::pipelet::partition;
        use crate::search::MAX_PIPELET_LEN;
        use pipeleon_ir::json::from_json_string;
        use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
        use pipeleon_workloads::scenarios::{AclPipeline, DashRouting, LoadBalancer};
        use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("examples/programs exists")
            .map(|e| e.expect("a directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty());
        let examples = paths.iter().map(|p| {
            let text = std::fs::read_to_string(p).expect("readable");
            from_json_string(&text).expect("an example program loads")
        });
        let scenarios = [
            LoadBalancer::build().graph,
            AclPipeline::build(10, 4).graph,
            DashRouting::build().graph,
        ];
        let synth = (0..10).map(|seed| {
            synthesize(&SynthConfig {
                pipelets: 4,
                pipelet_len: 3 + (seed as usize % 3),
                match_mix: [MatchMix::default_mix, MatchMix::all_exact][seed as usize % 2](),
                entries_per_table: 1 + (seed as usize % 7),
                seed,
                ..SynthConfig::default()
            })
        });
        let programs: Vec<ProgramGraph> = examples.chain(scenarios).chain(synth).collect();
        let cfg = OptimizerConfig::default();
        let mut seen = [0usize; 4];
        for params in [CostParams::bluefield2(), CostParams::emulated_nic()] {
            let model = CostModel::new(params);
            for (seed, g) in (0..).zip(&programs) {
                let profile = random_profile(g, &ProfileSynthConfig::default(), seed);
                let ctx = eval(g, &model, &cfg, &profile);
                for p in partition(g, MAX_PIPELET_LEN) {
                    if p.switch_case {
                        continue;
                    }
                    let terms = TableTerms::of_each(&ctx, &p.tables);
                    let mut runs = std::collections::BTreeSet::new();
                    for order in super::super::reorder::valid_orders(&terms) {
                        runs.extend((2..=4).flat_map(|w| order.windows(w).map(<[usize]>::to_vec)));
                    }
                    for run in runs {
                        let row: Vec<&TableTerms> = run.iter().map(|&i| &terms[i]).collect();
                        if !segment_allowed(&row) {
                            continue;
                        }
                        let ids: Vec<NodeId> = row.iter().map(|t| t.id).collect();
                        let patterns = agrees_with_the_materialized_table(&ctx, &ids);
                        let exact = row.iter().all(|t| {
                            let t = g.node(t.id).and_then(|n| n.as_table()).expect("a table");
                            t.effective_kind() == MatchKind::Exact
                        });
                        seen[0] += usize::from(patterns.is_some());
                        seen[1 + usize::from(!exact)] += 1;
                        seen[3] += usize::from(patterns > Some(8));
                    }
                }
            }
        }
        assert!(!seen.contains(&0), "{seen:?}");
        closed_form_merge_price_edge_cases();
    }

    /// A table of [`chain`]: its key kinds and its entries' match values.
    type Component = (&'static [MatchKind], Vec<Vec<MatchValue>>);

    /// A program of one table per component, in order.
    fn chain(tables: &[Component]) -> (ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let ids: Vec<NodeId> = tables
            .iter()
            .enumerate()
            .map(|(i, (kinds, entries))| {
                let fields: Vec<_> = (0..kinds.len())
                    .map(|k| b.field(&format!("t{i}.k{k}")))
                    .collect();
                let mut t = b.table(format!("t{i}"));
                for (&f, &kind) in fields.iter().zip(kinds.iter()) {
                    t = t.key(f, kind);
                }
                t = t.action_nop("hit").action_nop("miss").default_action(1);
                for (p, m) in entries.iter().enumerate() {
                    t = t.entry(TableEntry::with_priority(m.clone(), 0, p as i32));
                }
                t.finish()
            })
            .collect();
        (b.seal(ids[0]).unwrap(), ids)
    }

    /// Hand-made components the programs above do not hold.
    fn closed_form_merge_price_edge_cases() {
        use MatchKind::{Exact, Lpm, Range, Ternary};
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let tern = |value, mask| vec![MatchValue::Ternary { value, mask }];
        let lpm = |prefix_len| {
            vec![MatchValue::Lpm {
                value: 0xAB << 56,
                prefix_len,
            }]
        };
        let exact = |v| vec![MatchValue::Exact(v)];
        let range = vec![MatchValue::ANY, MatchValue::Range { lo: 1, hi: 9 }];
        let cases: [(&[Component], Option<usize>); 6] = [
            // An all-zero mask is the miss row's pattern: 2 · 2 rows.
            (
                &[
                    (&[Ternary], vec![tern(0, 0), tern(1, 0xFF)]),
                    (&[Exact], vec![exact(1)]),
                ],
                Some(4),
            ),
            // Three prefix lengths and the miss row: 4 · 2.
            (
                &[
                    (&[Lpm], vec![lpm(8), lpm(16), lpm(24), lpm(24)]),
                    (&[Exact], vec![exact(1)]),
                ],
                Some(8),
            ),
            // A component with no entries has its miss row alone: 4 · 1.
            (
                &[(&[Lpm], vec![lpm(8), lpm(16), lpm(24)]), (&[Exact], vec![])],
                Some(4),
            ),
            // 4 · 4 patterns, past the cap of 8.
            (
                &[
                    (&[Lpm], vec![lpm(8), lpm(16), lpm(24)]),
                    (&[Ternary], vec![tern(1, 1), tern(2, 2), tern(4, 4)]),
                ],
                Some(16),
            ),
            // A range entry in a ternary table: no plain merge builds.
            (
                &[(&[Ternary, Range], vec![range]), (&[Exact], vec![exact(1)])],
                None,
            ),
            // The same table without entries merges.
            (
                &[(&[Ternary, Range], vec![]), (&[Exact], vec![exact(1)])],
                Some(2),
            ),
        ];
        for (tables, patterns) in cases {
            let (g, ids) = chain(tables);
            let ctx = eval(&g, &model, &cfg, &profile);
            assert_eq!(
                agrees_with_the_materialized_table(&ctx, &ids),
                patterns,
                "{tables:?}"
            );
        }
    }

    #[test]
    fn merge_update_rate_amplification() {
        let (g, ids) = two_exact();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let mut profile = RuntimeProfile::empty();
        profile.set_entry_update_rate(ids[0], 10.0);
        let ctx = eval(&g, &model, &cfg, &profile);
        let terms = TableTerms::of_each(&ctx, &ids);
        let (_, upd_plain) = costs(&terms.iter().collect::<Vec<_>>(), false);
        // I(T0)=10, N(T1)+1 = 2 -> 20 updates/s.
        assert!((upd_plain - 20.0).abs() < 1e-9, "got {upd_plain}");
    }

    #[test]
    fn static_tables_make_as_cache_attractive() {
        let (g, ids) = two_exact();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        // All traffic hits entries (action 0).
        let mut profile = RuntimeProfile::empty();
        for &id in &ids {
            profile.record_action(id, 0, 100);
        }
        let ctx = eval(&g, &model, &cfg, &profile);
        let terms = TableTerms::of_each(&ctx, &ids);
        let row: Vec<&TableTerms> = terms.iter().collect();
        let merged_lat = score(&ctx, &row, true).unwrap().latency;
        let plain_lat = ctx.sequence_latency(&ids);
        assert!(
            merged_lat < plain_lat,
            "merged={merged_lat} plain={plain_lat}"
        );
        // The naive ternary merge is *worse* than the original here —
        // exactly the Figure 6 observation.
        let naive_lat = score(&ctx, &row, false).unwrap().latency;
        assert!(naive_lat > plain_lat, "naive={naive_lat} plain={plain_lat}");
    }
}
