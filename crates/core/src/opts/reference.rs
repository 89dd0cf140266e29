//! The brute-force oracle of [`enumerate_candidates`](super::enumerate_candidates):
//! every segmentation of every kept order, each segment re-derived from
//! the program, the profile and the cost model, and the Pareto set of the
//! whole list. It shares only `valid_orders`, the [`EvalCtx`] accessors,
//! [`merge::materialize`] and the search's constants with the DP: no
//! [`TableTerms`] scores, no segment table, no frontier, no cap. A plan
//! is folded right to left, as the DP composes it, so the two agree to
//! the bit and near-ties cannot blur the comparison.
//! `opts::tests::small_pipelets_match_brute_force` holds the DP to it.

use super::{cache, merge, reorder, EvalCtx, TableTerms, INVALIDATION_COEFF, MAX_ORDERS};
use crate::plan::{Segment, SegmentKind};
use pipeleon_cost::CACHE_CAPACITY;
use pipeleon_ir::{CacheRole, DependencyAnalysis, Node, NodeId, RwSets, Table};

/// `[latency, drop, mem, update]` of a step, conditioned on entering it.
type Score = [f64; 4];
/// A plan's step over `[start, end)`: one uncovered table (`None`) or a
/// segment of that kind.
type Step = (usize, usize, Option<SegmentKind>, Score);
/// A plan: `[gain, mem, update]`, its order and its segments.
pub(super) type Plan = ([f64; 3], Vec<NodeId>, Vec<Segment>);

const KINDS: [SegmentKind; 3] = [
    SegmentKind::Cache,
    SegmentKind::Merge { as_cache: true },
    SegmentKind::Merge { as_cache: false },
];

/// A segment of `kind` over `tables`; `None` when it is not allowed.
pub(super) fn score(ctx: &EvalCtx<'_>, tables: &[NodeId], kind: SegmentKind) -> Option<Score> {
    let (p, profile) = (&ctx.model.params, ctx.profile);
    let nodes: Vec<&Node> = tables.iter().filter_map(|&id| ctx.g.node(id)).collect();
    let comps: Vec<&Table> = nodes.iter().filter_map(|n| n.as_table()).collect();
    let [mut actions, mut orig, mut survive, mut all_hit, mut updates] = [0.0, 0.0, 1.0, 1.0, 0.0];
    for (&id, t) in tables.iter().zip(&comps) {
        actions += survive * ctx.action_cost(id);
        orig += survive * ctx.table_cost(id);
        survive *= 1.0 - ctx.drop_rate(id);
        all_hit *= 1.0 - profile.action_probs(ctx.g, id)[t.default_action];
        updates += profile.entry_update_rate(id);
    }
    let churn = 1.0 + INVALIDATION_COEFF * updates;
    let sizes: Vec<f64> = comps.iter().map(|t| t.entries.len() as f64).collect();
    let bytes = Table::DEFAULT_ENTRY_BYTES as f64;
    let (latency, mem, update) = if let SegmentKind::Merge { as_cache } = kind {
        let merged = merge::materialize(ctx, tables, as_cache).ok()?;
        let h = (all_hit / churn).clamp(0.0, 1.0);
        let latency = match as_cache {
            true => p.l_mat + h * actions + (1.0 - h) * orig,
            false => p.memory_accesses(&merged.table) * p.l_mat + actions,
        };
        let extra = if as_cache { 0.0 } else { 1.0 };
        let rows: Vec<f64> = sizes.iter().map(|n| n + extra).collect();
        let freed = extra * sizes.iter().sum::<f64>() * bytes;
        let mem = (rows.iter().product::<f64>() * bytes - freed).max(0.0);
        let mut update = 0.0;
        for (i, &id) in tables.iter().enumerate() {
            let others = rows.iter().enumerate().filter(|&(j, _)| j != i);
            update += profile.entry_update_rate(id) * others.map(|(_, r)| r).product::<f64>();
        }
        (latency, mem, update)
    } else {
        let sets: Vec<RwSets> = nodes.iter().map(|n| RwSets::of_node(n)).collect();
        let plain = |t: &&Table| t.cache_role == CacheRole::None && !t.keys.is_empty();
        let switch = nodes.iter().any(|n| n.is_switch_case());
        if switch || !comps.iter().all(plain) || !DependencyAnalysis::cacheable_segment(&sets) {
            return None;
        }
        let h = profile.cache_hint(tables).unwrap_or_else(|| {
            let keys = |(&id, n): (&NodeId, &f64)| {
                let known = profile.distinct_keys_of(id);
                known.unwrap_or((*n as u64 + 1).max(2)).max(1) as f64
            };
            let keyspace: f64 = tables.iter().zip(&sizes).map(keys).product();
            let fits = (CACHE_CAPACITY as f64 / keyspace).min(1.0);
            (cache::DEFAULT_HIT_RATE * fits / churn).clamp(0.0, 1.0)
        });
        let misses = (1.0 - h) * (profile.packet_rate() * ctx.reach);
        let latency = p.l_mat + h * actions + (1.0 - h) * (orig + p.l_cache_insert);
        let update = misses.min(pipeleon_cost::CACHE_INSERTION_RATE);
        (latency, CACHE_CAPACITY as f64 * bytes, update)
    };
    Some([latency, 1.0 - survive, mem, update])
}

/// Every way to run an order from `pos` on as a sequence of `steps`:
/// its `[latency, mem, update]`, folded right to left, and its segments.
fn suffixes(steps: &[Step], pos: usize, n: usize) -> Vec<([f64; 3], Vec<Segment>)> {
    if pos == n {
        return vec![([0.0; 3], Vec::new())];
    }
    let mut out = Vec::new();
    for &(start, end, kind, s) in steps.iter().filter(|s| s.0 == pos) {
        for ([l, m, u], rest) in suffixes(steps, end, n) {
            let first = kind.map(|kind| Segment { start, end, kind });
            let v = [s[0] + (1.0 - s[1]) * l, s[2] + m, s[3] + u];
            out.push((v, first.into_iter().chain(rest).collect()));
        }
    }
    out
}

/// The sort key of `[gain, mem, update]`: best gain first.
pub(super) fn key(v: &[f64; 3]) -> (f64, f64, f64) {
    (-v[0], v[1], v[2])
}

/// Every plan of every kept order of `tables`, sorted by [`key`], the
/// Pareto set of those with gain above 1e-12, and whether the original
/// order was kept only because it is added back behind the
/// [`MAX_ORDERS`] fastest.
pub(super) fn brute_force(
    ctx: &EvalCtx<'_>,
    tables: &[NodeId],
) -> (Vec<[f64; 3]>, Vec<Plan>, bool) {
    let (cfg, base) = (ctx.cfg, ctx.sequence_latency(tables));
    let mut orders: Vec<Vec<NodeId>> = vec![tables.to_vec()];
    if cfg.enable_reorder {
        let perms = reorder::valid_orders(&TableTerms::of_each(ctx, tables));
        let ids = |o: &Vec<usize>| o.iter().map(|&i| tables[i]).collect();
        orders = perms.iter().map(ids).collect();
    }
    let mut added_back = false;
    if orders.len() > MAX_ORDERS {
        let original = orders[0].clone();
        let latency = |o: &Vec<NodeId>| ctx.sequence_latency(o);
        orders.sort_by(|a, b| latency(a).partial_cmp(&latency(b)).expect("finite"));
        orders.truncate(MAX_ORDERS);
        added_back = !orders.contains(&original);
        if added_back {
            orders.push(original);
        }
    }
    let mut all: Vec<Plan> = Vec::new();
    for order in orders {
        let n = order.len();
        let table = |i: usize| [ctx.table_cost(order[i]), ctx.drop_rate(order[i]), 0.0, 0.0];
        let mut steps: Vec<Step> = (0..n).map(|i| (i, i + 1, None, table(i))).collect();
        for (start, end) in (0..n).flat_map(|s| (s + 1..=n).map(move |e| (s, e))) {
            let merge = cfg.enable_merge && (2..=cfg.max_merge_tables).contains(&(end - start));
            for (on, kind) in [cfg.enable_cache, merge, merge].into_iter().zip(KINDS) {
                if let Some(s) = on.then(|| score(ctx, &order[start..end], kind)).flatten() {
                    steps.push((start, end, Some(kind), s));
                }
            }
        }
        for ([latency, mem, update], segments) in suffixes(&steps, 0, n) {
            let v = [ctx.reach * (base - latency), mem, update];
            all.push((v, order.clone(), segments));
        }
    }
    all.sort_by(|a, b| key(&a.0).partial_cmp(&key(&b.0)).expect("finite"));
    let mut front: Vec<[f64; 3]> = Vec::new();
    for &(v, ..) in all.iter().filter(|q| q.0[0] > 1e-12) {
        if !front.iter().any(|f| f[1] <= v[1] && f[2] <= v[2]) {
            front.push(v);
        }
    }
    (front, all, added_back)
}
