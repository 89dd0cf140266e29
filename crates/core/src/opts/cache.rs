//! Table caching (§3.2.2): estimation of cache-segment latency, hit rate,
//! and resource costs.
//!
//! A cache over tables `[T_i..T_j]` is an exact-match table keyed on the
//! union of the segment's match fields. Its expected latency is
//!
//! ```text
//! L = L_mat + h·A_seg + (1−h)·(L_seg + L_insert)
//! ```
//!
//! where `A_seg` is the action-replay cost (hits still execute the
//! recorded actions) and `L_seg` the original segment cost. The hit-rate
//! estimate `h` starts from a default (§3.2.2) and is degraded by two
//! effects the paper calls out: the **cross-product problem** (the joint
//! key space is the product of per-table distinct key counts, which can
//! dwarf the cache capacity) and **invalidation pressure** (entry updates
//! to covered tables flush the cache).

use super::{EvalCtx, SegmentScore, TableTerms, INVALIDATION_COEFF};
use pipeleon_cost::{CostParams, CACHE_CAPACITY, CACHE_INSERTION_RATE};
use pipeleon_ir::{DependencyAnalysis, NodeId, RwSets};

/// The hit rate a new cache is estimated at before the cross-product and
/// invalidation corrections (§3.2.2 "uses a default estimated hit rate
/// for calculation").
pub(super) const DEFAULT_HIT_RATE: f64 = 0.9;

/// Whether a cache over `tables` is semantically allowed: every member is
/// a plain always-next table (no switch-case, no existing cache, not
/// keyless — a keyless table's outcome is constant, so caching it is
/// pointless and would produce an empty cache key) and no member writes
/// a field a later member matches on.
pub fn segment_allowed(tables: &[&TableTerms]) -> bool {
    if tables.is_empty() || tables.iter().any(|t| !t.coverable) {
        return false;
    }
    let sets: Vec<&RwSets> = tables.iter().map(|t| &t.sets).collect();
    DependencyAnalysis::cacheable_segment(&sets)
}

/// The estimated hit rate of a cache over `tables`. A measured hit rate
/// from a previously deployed cache over the same tables takes precedence
/// over the static estimate (§3.2.2 runtime monitoring).
pub fn estimated_hit_rate(ctx: &EvalCtx<'_>, tables: &[&TableTerms]) -> f64 {
    let ids: Vec<NodeId> = tables.iter().map(|t| t.id).collect();
    if let Some(measured) = ctx.profile.cache_hint(&ids) {
        return measured;
    }
    let mut h = DEFAULT_HIT_RATE;
    // Cross-product key space vs. capacity.
    let keyspace = keyspace(tables);
    if keyspace > CACHE_CAPACITY as f64 {
        h *= CACHE_CAPACITY as f64 / keyspace;
    }
    // Invalidation pressure from covered-table entry updates.
    let update_rate: f64 = tables.iter().map(|t| t.update_rate).sum();
    h /= 1.0 + INVALIDATION_COEFF * update_rate;
    h.clamp(0.0, 1.0)
}

/// The score of a cache over `tables`, conditioned on a packet entering
/// it; `None` when the cache is not allowed.
pub fn score(ctx: &EvalCtx<'_>, tables: &[&TableTerms]) -> Option<SegmentScore> {
    if !segment_allowed(tables) {
        return None;
    }
    let h = estimated_hit_rate(ctx, tables);
    let params = &ctx.model.params;
    let w = Walk::of(tables);
    let (mem, update) = costs(ctx, h);
    Some(SegmentScore {
        latency: params.l_mat + h * w.replay + (1.0 - h) * (w.orig + params.l_cache_insert),
        drop_rate: 1.0 - w.survive,
        mem,
        update,
    })
}

/// The cross-product key space of a cache over `tables`: the product of
/// their distinct key counts.
fn keyspace(tables: &[&TableTerms]) -> f64 {
    tables.iter().map(|t| t.distinct_keys).product()
}

/// A packet's way through the tables a cache covers, conditioned on it
/// entering the cache: each table weighted by the share that reaches it
/// (early drops shorten the walk).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// What a miss runs: every table's match and action.
    pub(crate) orig: f64,
    /// What a hit replays: every table's actions.
    pub(crate) replay: f64,
    /// The share that leaves the tables undropped.
    pub(crate) survive: f64,
}

impl Walk {
    /// The walk through `tables`, in order.
    pub(crate) fn of(tables: &[&TableTerms]) -> Self {
        let mut w = Self {
            orig: 0.0,
            replay: 0.0,
            survive: 1.0,
        };
        for t in tables {
            w.replay += w.survive * t.action_cost;
            w.orig += w.survive * t.cost;
            w.survive *= 1.0 - t.drop_rate;
        }
        w
    }
}

/// What starting a cache over `tables` cold costs, in ns: one compulsory
/// miss per key it will hold, `K = min(key space, capacity, entering)`
/// with `entering` the packets that enter it in a window, each miss
/// `orig + l_cache_insert − replay` dearer than the hit it becomes. The
/// key space is the cross product the hit-rate estimate reads.
pub(crate) fn warmup_ns(
    params: &CostParams,
    tables: &[&TableTerms],
    entering: f64,
    orig: f64,
    replay: f64,
) -> f64 {
    let keys = keyspace(tables).min(CACHE_CAPACITY as f64).min(entering);
    keys * (orig + params.l_cache_insert - replay)
}

/// `(memory, update-rate)` cost of creating a cache with hit rate `h`:
/// the reserved capacity, plus the insertion load (misses installing
/// entries, capped by the rate every cache's limiter admits).
pub fn costs(ctx: &EvalCtx<'_>, h: f64) -> (f64, f64) {
    let mem = (CACHE_CAPACITY * pipeleon_ir::Table::DEFAULT_ENTRY_BYTES) as f64;
    let entering = ctx.profile.packet_rate() * ctx.reach;
    let insertions = ((1.0 - h) * entering).min(CACHE_INSERTION_RATE);
    (mem, insertions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
    use pipeleon_ir::{MatchKind, MatchValue, Primitive, ProgramBuilder, ProgramGraph, TableEntry};

    fn fixture(kinds: &[MatchKind]) -> (ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for (i, &k) in kinds.iter().enumerate() {
            let f = b.field(&format!("f{i}"));
            let mut tb = b
                .table(format!("t{i}"))
                .key(f, k)
                .action("a", vec![Primitive::Nop]);
            match k {
                MatchKind::Ternary => {
                    for m in 0..5u64 {
                        tb = tb.entry(TableEntry::with_priority(
                            vec![MatchValue::Ternary {
                                value: m,
                                mask: 0xFF << (8 * m),
                            }],
                            0,
                            m as i32,
                        ));
                    }
                }
                MatchKind::Exact => {
                    tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(1)], 0));
                }
                _ => {}
            }
            ids.push(tb.finish());
        }
        (b.seal(ids[0]).unwrap(), ids)
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

    fn hit_rate(ctx: &EvalCtx<'_>, ids: &[NodeId]) -> f64 {
        estimated_hit_rate(
            ctx,
            &TableTerms::of_each(ctx, ids).iter().collect::<Vec<_>>(),
        )
    }

    fn allowed(ctx: &EvalCtx<'_>, ids: &[NodeId]) -> bool {
        segment_allowed(&TableTerms::of_each(ctx, ids).iter().collect::<Vec<_>>())
    }

    #[test]
    fn caching_expensive_tables_wins() {
        let (g, ids) = fixture(&[MatchKind::Ternary, MatchKind::Ternary]);
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        let cached = score(
            &ctx,
            &TableTerms::of_each(&ctx, &ids).iter().collect::<Vec<_>>(),
        )
        .unwrap()
        .latency;
        let plain = ctx.sequence_latency(&ids);
        assert!(cached < plain, "cached={cached} plain={plain}");
    }

    #[test]
    fn cross_product_degrades_hit_rate() {
        let (g, ids) = fixture(&[MatchKind::Exact, MatchKind::Exact, MatchKind::Exact]);
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let mut profile = RuntimeProfile::empty();
        // Each table sees 40 distinct keys; jointly 64000 >> capacity 4096.
        for &id in &ids {
            profile.set_distinct_keys(id, 40);
        }
        let ctx = eval(&g, &model, &cfg, &profile);
        let h_joint = hit_rate(&ctx, &ids);
        let h_single = hit_rate(&ctx, &ids[..1]);
        assert!(h_single > 0.85, "h_single = {h_single}");
        assert!(h_joint < 0.1, "h_joint = {h_joint}");
    }

    #[test]
    fn invalidation_pressure_degrades_hit_rate() {
        let (g, ids) = fixture(&[MatchKind::Exact, MatchKind::Exact]);
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let mut profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        let h_quiet = hit_rate(&ctx, &ids);
        profile.set_entry_update_rate(ids[0], 500.0);
        let ctx = eval(&g, &model, &cfg, &profile);
        let h_churn = hit_rate(&ctx, &ids);
        assert!(h_churn < h_quiet * 0.2, "quiet={h_quiet} churn={h_churn}");
    }

    #[test]
    fn measured_hint_overrides_estimate() {
        let (g, ids) = fixture(&[MatchKind::Exact, MatchKind::Exact]);
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let mut profile = RuntimeProfile::empty();
        // Static estimate would be ~0.9; a measured 0.2 must win, in any
        // table order.
        profile.set_cache_hint(vec![ids[1], ids[0]], 0.2);
        let ctx = eval(&g, &model, &cfg, &profile);
        assert_eq!(hit_rate(&ctx, &ids), 0.2);
        assert_eq!(hit_rate(&ctx, &[ids[1], ids[0]]), 0.2);
        // A different segment still uses the estimate.
        assert!(hit_rate(&ctx, &ids[..1]) > 0.8);
    }

    #[test]
    fn dependent_segment_disallowed() {
        // t0 writes "y"; t1 matches "y" -> not cacheable as one unit.
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let y = b.field("y");
        let t0 = b
            .table("t0")
            .key(x, MatchKind::Exact)
            .action("w", vec![Primitive::set(y, 1)])
            .finish();
        let t1 = b.table("t1").key(y, MatchKind::Exact).finish();
        let g = b.seal(t0).unwrap();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        assert!(!allowed(&ctx, &[t0, t1]));
        assert!(allowed(&ctx, &[t0]));
        assert!(allowed(&ctx, &[t1]));
    }

    #[test]
    fn keyless_tables_not_cacheable() {
        let mut b = ProgramBuilder::new();
        let t = b.table("keyless").action_nop("a").finish();
        let g = b.seal(t).unwrap();
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let profile = RuntimeProfile::empty();
        let ctx = eval(&g, &model, &cfg, &profile);
        assert!(!allowed(&ctx, &[t]));
    }

    #[test]
    fn costs_reflect_capacity_and_insertions() {
        let (g, ids) = fixture(&[MatchKind::Exact]);
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let mut profile = RuntimeProfile::empty();
        profile.total_packets = 1_000_000;
        profile.window_s = 1.0;
        let ctx = eval(&g, &model, &cfg, &profile);
        let (mem, upd) = costs(&ctx, hit_rate(&ctx, &ids));
        assert_eq!(mem, (CACHE_CAPACITY * 32) as f64);
        // 10% miss of 1M pps = 100k, capped at the insertion limit.
        assert!(upd <= CACHE_INSERTION_RATE + 1e-9);
        assert!(upd > 0.0);
    }
}
