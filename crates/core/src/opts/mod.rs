//! The three performance optimizations (§3.2) and candidate evaluation.
//!
//! * [`reorder`] — dependency-respecting table reordering (§3.2.1).
//! * [`cache`] — flow-cache segment enumeration and hit-rate estimation
//!   (§3.2.2).
//! * [`merge`] — table merging with cross-product materialization and the
//!   merged-exact-as-cache fallback (§3.2.3).
//!
//! [`enumerate_candidates`] combines them per pipelet: every valid order ×
//! every valid disjoint segmentation, each evaluated against the cost
//! model for gain and resource costs (the `LocalOptimize` of Appendix
//! A.1). A table covered by a merge segment is never simultaneously
//! cached (the paper's conflict rule).
//!
//! The thousands of segmentations of one pipelet are built from a few
//! dozen distinct segments, so nothing is scored per segmentation: every
//! per-table quantity is computed once per search ([`TableTerms`]), every
//! cache or merge segment is scored once per distinct table sequence and
//! kind and shared by all orders containing it, and a right-to-left
//! dynamic program over each order's suffixes keeps only the
//! segmentations no other beats on latency, memory and update rate
//! (DESIGN.md §5).

pub mod cache;
pub mod merge;
#[cfg(test)]
mod reference;
pub mod reorder;

use crate::config::OptimizerConfig;
use crate::plan::{Candidate, Segment, SegmentKind};
use crate::search::MAX_PIPELET_LEN;
use fxhash::FxHashMap;
use pipeleon_cost::{CostModel, RuntimeProfile};
use pipeleon_ir::{CacheRole, NodeId, ProgramGraph, RwSets};

/// Hit-rate degradation per entry update/s on the tables a cache or a
/// merged cache covers (invalidation pressure): `h = h0 / (1 + c · rate)`.
const INVALIDATION_COEFF: f64 = 0.05;

/// Table orders of a pipelet kept (best by drop-aware expected latency,
/// plus the original) before its segmentations are searched.
const MAX_ORDERS: usize = 12;

/// Shared context for evaluating candidates of one pipelet.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The cost model.
    pub model: &'a CostModel,
    /// The search configuration.
    pub cfg: &'a OptimizerConfig,
    /// The (original) program.
    pub g: &'a ProgramGraph,
    /// The runtime profile.
    pub profile: &'a RuntimeProfile,
    /// Probability a packet reaches this pipelet.
    pub reach: f64,
}

impl<'a> EvalCtx<'a> {
    /// Per-table total cost (match + action), conditioned on entry.
    pub fn table_cost(&self, id: NodeId) -> f64 {
        self.model.node_cost(self.g, id, self.profile)
    }

    /// Per-table action-only cost.
    pub fn action_cost(&self, id: NodeId) -> f64 {
        let Some(t) = self.g.node(id).and_then(|n| n.as_table()) else {
            return 0.0;
        };
        let probs = self.profile.action_probs(self.g, id);
        self.model.action_cost(t, &probs)
    }

    /// Per-table drop rate.
    pub fn drop_rate(&self, id: NodeId) -> f64 {
        self.profile.drop_rate(self.g, id)
    }

    /// Expected latency of executing `order` plainly (no segments),
    /// conditioned on entering the pipelet: early drops shorten the walk.
    pub fn sequence_latency(&self, order: &[NodeId]) -> f64 {
        let mut survive = 1.0;
        let mut total = 0.0;
        for &id in order {
            total += survive * self.table_cost(id);
            survive *= 1.0 - self.drop_rate(id);
        }
        total
    }

    /// The combined drop rate of a table run.
    pub fn segment_drop_rate(&self, tables: &[NodeId]) -> f64 {
        1.0 - tables
            .iter()
            .fold(1.0, |s, &id| s * (1.0 - self.drop_rate(id)))
    }
}

/// Everything candidate evaluation asks about one table, derived from the
/// program, the profile and the cost model once per search instead of
/// once per segmentation that contains the table.
#[derive(Debug, Clone)]
pub struct TableTerms {
    /// The table.
    pub id: NodeId,
    /// Its read/write sets.
    pub sets: RwSets,
    /// Whether a cache or merge segment may cover it: a plain always-next
    /// table with keys and no cache role of its own.
    pub coverable: bool,
    /// Installed entries.
    pub entries: usize,
    /// [`EvalCtx::table_cost`].
    pub cost: f64,
    /// [`EvalCtx::action_cost`].
    pub action_cost: f64,
    /// [`EvalCtx::drop_rate`].
    pub drop_rate: f64,
    /// Distinct keys the table sees (profiled, else entries + 1, at least
    /// 2): its factor in a cache's cross-product key space.
    pub distinct_keys: f64,
    /// Entry updates per second.
    pub update_rate: f64,
    /// Probability a packet hits a non-default entry.
    pub hit_prob: f64,
}

impl TableTerms {
    /// The terms of each of `tables` under `ctx`, in order.
    pub fn of_each(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> Vec<Self> {
        tables.iter().map(|&id| Self::of(ctx, id)).collect()
    }

    /// The terms of table `id` under `ctx`.
    pub fn of(ctx: &EvalCtx<'_>, id: NodeId) -> Self {
        let node = ctx.g.node(id);
        let table = node.and_then(|n| n.as_table());
        let entries = table.map_or(0, |t| t.entries.len());
        let miss_prob = table.map_or(1.0, |t| {
            let probs = ctx.profile.action_probs(ctx.g, id);
            probs.get(t.default_action).copied().unwrap_or(0.0)
        });
        Self {
            id,
            sets: node.map(RwSets::of_node).unwrap_or_default(),
            coverable: node.zip(table).is_some_and(|(n, t)| {
                !n.is_switch_case() && t.cache_role == CacheRole::None && !t.keys.is_empty()
            }),
            entries,
            cost: ctx.table_cost(id),
            action_cost: ctx.action_cost(id),
            drop_rate: ctx.drop_rate(id),
            distinct_keys: ctx
                .profile
                .distinct_keys_of(id)
                .unwrap_or_else(|| table.map_or(2, |_| (entries as u64 + 1).max(2)))
                .max(1) as f64,
            update_rate: ctx.profile.entry_update_rate(id),
            hit_prob: 1.0 - miss_prob,
        }
    }
}

/// Expected latency of executing `tables` plainly, in order
/// ([`EvalCtx::sequence_latency`] over precomputed terms).
fn sequence_latency<'t>(tables: impl IntoIterator<Item = &'t TableTerms>) -> f64 {
    let mut survive = 1.0;
    let mut total = 0.0;
    for t in tables {
        total += survive * t.cost;
        survive *= 1.0 - t.drop_rate;
    }
    total
}

/// What covering a run of tables with one cache or merge costs and buys,
/// conditioned on a packet entering the segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentScore {
    /// Expected latency of the segment.
    pub latency: f64,
    /// Probability the segment drops the packet.
    pub drop_rate: f64,
    /// Extra memory (bytes).
    pub mem: f64,
    /// Extra entry-update bandwidth (updates/s).
    pub update: f64,
}

impl SegmentScore {
    /// A table left uncovered: its own cost and drop rate, no extra
    /// resources.
    fn uncovered(t: &TableTerms) -> Self {
        Self {
            latency: t.cost,
            drop_rate: t.drop_rate,
            mem: 0.0,
            update: 0.0,
        }
    }

    /// This step, then `rest`, which only the packets it does not drop
    /// reach: the one latency fold of the search and of
    /// [`score_candidate`].
    fn then(&self, rest: &Price) -> Price {
        Price {
            latency: self.latency + (1.0 - self.drop_rate) * rest.latency,
            mem: self.mem + rest.mem,
            update: self.update + rest.update,
        }
    }
}

/// A run of steps to the end of an order: its expected latency,
/// conditioned on a packet reaching its first step, and its resource
/// costs.
#[derive(Debug, Clone, Copy, Default)]
struct Price {
    latency: f64,
    mem: f64,
    update: f64,
}

/// What has been asked so far about one distinct table sequence. An outer
/// `None` is "not asked yet".
#[derive(Debug, Default)]
struct SegmentEntry {
    /// A cache over the sequence; inner `None` when it is not allowed.
    cache: Option<Option<SegmentScore>>,
    merge_allowed: Option<bool>,
    /// A merge of the sequence, indexed by `as_cache`; inner `None` when
    /// the merged table does not materialize.
    merge: [Option<Option<SegmentScore>>; 2],
}

/// A table sequence (positions in its pipelet's original order) as one
/// word: 5 bits a position, each stored plus one so that sequences of
/// different lengths differ. A pipelet holds at most
/// `MAX_PIPELET_LEN` = 24 tables, so any sequence fits in 120 bits.
fn sequence_key(seq: &[usize]) -> u128 {
    seq.iter().fold(0, |key, &pos| key << 5 | (pos as u128 + 1))
}

/// The segment table of one pipelet: every cache or merge segment the
/// search asks about is scored once per distinct table sequence and kind,
/// whichever orders and segmentations contain it.
struct SegmentTable<'a> {
    ctx: &'a EvalCtx<'a>,
    /// [`sequence_key`] of a table sequence → its entry.
    ids: FxHashMap<u128, usize>,
    entries: Vec<SegmentEntry>,
    /// Segment scorings performed (merge pricings included).
    evals: usize,
}

impl<'a> SegmentTable<'a> {
    fn new(ctx: &'a EvalCtx<'a>) -> Self {
        Self {
            ctx,
            ids: FxHashMap::default(),
            entries: Vec::new(),
            evals: 0,
        }
    }

    /// The entry of table sequence `seq`.
    fn entry_of(&mut self, seq: &[usize]) -> usize {
        let next = self.entries.len();
        let entry = *self.ids.entry(sequence_key(seq)).or_insert(next);
        if entry == next {
            self.entries.push(SegmentEntry::default());
        }
        entry
    }

    fn cache(&mut self, entry: usize, tables: &[&TableTerms]) -> Option<SegmentScore> {
        if let Some(known) = self.entries[entry].cache {
            return known;
        }
        let score = cache::score(self.ctx, tables);
        self.evals += usize::from(score.is_some());
        self.entries[entry].cache = Some(score);
        score
    }

    fn merge_allowed(&mut self, entry: usize, tables: &[&TableTerms]) -> bool {
        *self.entries[entry]
            .merge_allowed
            .get_or_insert_with(|| merge::segment_allowed(tables))
    }

    /// Only for sequences [`Self::merge_allowed`] accepted.
    fn merge(
        &mut self,
        entry: usize,
        tables: &[&TableTerms],
        as_cache: bool,
    ) -> Option<SegmentScore> {
        if let Some(known) = self.entries[entry].merge[usize::from(as_cache)] {
            return known;
        }
        let score = merge::score(self.ctx, tables, as_cache);
        self.evals += 1;
        self.entries[entry].merge[usize::from(as_cache)] = Some(score);
        score
    }
}

/// One non-dominated way to run an order's tables from some position to
/// the end: its price and how it starts.
#[derive(Debug, Clone, Copy)]
struct Suffix {
    price: Price,
    /// Its first step `[pos, end)`: a segment of this kind, or (`None`)
    /// the table at `pos` left uncovered.
    first: Option<SegmentKind>,
    end: usize,
    /// The rest: an index into the frontier at `end`.
    rest: usize,
}

impl Suffix {
    /// `step` over `[pos, end)`, then the `index`-th suffix at `end`.
    fn after(
        step: SegmentScore,
        first: Option<SegmentKind>,
        end: usize,
        (index, rest): (usize, &Suffix),
    ) -> Self {
        Self {
            price: step.then(&rest.price),
            first,
            end,
            rest: index,
        }
    }
}

/// The members of `states` no other member dominates (is at most as slow,
/// as large and as update-hungry as), lowest latency first, at most `cap`
/// of them. Of equal states the first is kept.
fn pareto<T>(mut states: Vec<T>, cap: usize, of: impl Fn(&T) -> &Price) -> Vec<T> {
    let key = |t: &T| (of(t).latency, of(t).mem, of(t).update);
    states.sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite costs"));
    let mut kept: Vec<T> = Vec::new();
    for t in states {
        if kept.len() == cap {
            break;
        }
        if !kept
            .iter()
            .any(|k| of(k).mem <= of(&t).mem && of(k).update <= of(&t).update)
        {
            kept.push(t);
        }
    }
    kept
}

/// The frontier of every suffix of one order (`[pos]` for the suffix
/// from `pos`), built right to left. A step's score is conditioned on
/// entering it and scales what follows by its survival, `(1 − drop) ≥ 0`,
/// so a suffix dominated at `pos` stays dominated behind any prefix and
/// the frontier at `pos` needs only the frontiers to its right.
fn frontiers(
    table: &mut SegmentTable<'_>,
    row: &[&TableTerms],
    perm: &[usize],
    cap: usize,
) -> Vec<Vec<Suffix>> {
    let n = row.len();
    let cfg = table.ctx.cfg;
    let mut at = vec![Vec::new(); n + 1];
    at[n].push(Suffix {
        price: Price::default(),
        first: None,
        end: n,
        rest: 0,
    });
    for pos in (0..n).rev() {
        let mut steps = vec![(pos + 1, None, SegmentScore::uncovered(row[pos]))];
        let max_j = if cfg.enable_cache { n } else { pos };
        for j in (pos + 1)..=max_j {
            let entry = table.entry_of(&perm[pos..j]);
            // Longer segments only get more constrained.
            let Some(score) = table.cache(entry, &row[pos..j]) else {
                break;
            };
            steps.push((j, Some(SegmentKind::Cache), score));
        }
        let max_j = if cfg.enable_merge {
            (pos + cfg.max_merge_tables).min(n)
        } else {
            pos
        };
        for j in (pos + 2)..=max_j {
            let entry = table.entry_of(&perm[pos..j]);
            if !table.merge_allowed(entry, &row[pos..j]) {
                break;
            }
            for as_cache in [true, false] {
                if let Some(score) = table.merge(entry, &row[pos..j], as_cache) {
                    steps.push((j, Some(SegmentKind::Merge { as_cache }), score));
                }
            }
        }
        let states = steps
            .iter()
            .flat_map(|&(end, first, step)| {
                at[end]
                    .iter()
                    .enumerate()
                    .map(move |rest| Suffix::after(step, first, end, rest))
            })
            .collect();
        at[pos] = pareto(states, cap, |s| &s.price);
    }
    at
}

/// The `orders` (original first) whose segmentations are searched: the
/// [`MAX_ORDERS`] most promising by drop-aware expected latency, which
/// bounds the order × segmentation product, with the original order
/// added back as the segments-only baseline when it is not among them.
fn kept_orders(terms: &[TableTerms], orders: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    if orders.len() <= MAX_ORDERS {
        return orders;
    }
    let original = orders[0].clone();
    let mut by_latency: Vec<(f64, Vec<usize>)> = orders
        .into_iter()
        .map(|o| (sequence_latency(o.iter().map(|&i| &terms[i])), o))
        .collect();
    by_latency.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latencies"));
    by_latency.truncate(MAX_ORDERS);
    let mut orders: Vec<Vec<usize>> = by_latency.into_iter().map(|(_, o)| o).collect();
    if !orders.contains(&original) {
        orders.push(original);
    }
    orders
}

/// Enumerates evaluated candidates for one pipelet (identified by
/// `pipelet_id`) whose tables, at most `MAX_PIPELET_LEN` (24) of them, are
/// `tables` in current order: the
/// segmentations of every kept order that no other dominates in
/// `(latency, mem, update)`, at most `max_candidates` of them, lowest
/// latency first, so the best always survives. Candidates with
/// non-positive gain are dropped; the result is sorted by descending
/// gain. Also returns the number of distinct segments scored on the way.
pub fn enumerate_candidates(
    ctx: &EvalCtx<'_>,
    pipelet_id: usize,
    tables: &[NodeId],
    max_candidates: usize,
) -> (Vec<Candidate>, usize) {
    assert!(
        tables.len() <= MAX_PIPELET_LEN,
        "a pipelet of {} tables",
        tables.len()
    );
    let terms = TableTerms::of_each(ctx, tables);
    let baseline = sequence_latency(&terms);
    let orders = if ctx.cfg.enable_reorder {
        kept_orders(&terms, reorder::valid_orders(&terms))
    } else {
        vec![(0..terms.len()).collect()]
    };

    let mut table = SegmentTable::new(ctx);
    let per_order: Vec<Vec<Vec<Suffix>>> = orders
        .iter()
        .map(|perm| {
            let row: Vec<&TableTerms> = perm.iter().map(|&i| &terms[i]).collect();
            frontiers(&mut table, &row, perm, max_candidates)
        })
        .collect();
    let roots = per_order
        .iter()
        .enumerate()
        .flat_map(|(order, at)| at[0].iter().map(move |&s| (order, s)))
        .collect();
    let candidates = pareto(roots, max_candidates, |(_, s)| &s.price)
        .into_iter()
        .map(|(order, root)| (order, root, ctx.reach * (baseline - root.price.latency)))
        .filter(|&(.., gain)| gain > 1e-12)
        .map(|(order, root, gain)| {
            let at = &per_order[order];
            let steps = std::iter::successors(Some((0, root)), |&(_, s)| {
                (s.end < terms.len()).then(|| (s.end, at[s.end][s.rest]))
            });
            Candidate {
                pipelet: pipelet_id,
                order: orders[order].iter().map(|&i| terms[i].id).collect(),
                segments: steps
                    .filter_map(|(start, s)| {
                        s.first.map(|kind| Segment {
                            start,
                            end: s.end,
                            kind,
                        })
                    })
                    .collect(),
                gain,
                mem_cost: root.price.mem,
                update_cost: root.price.update,
                group_branch: None,
            }
        })
        .collect();
    (candidates, table.evals)
}

/// Prices a fixed candidate of the pipelet whose tables are `tables`
/// (in current order) under `ctx`, as [`enumerate_candidates`] prices
/// the candidates it returns: each segment is scored by
/// [`cache::score`] or [`merge::score`], the steps are folded right to
/// left by the search's own fold, and the gain is against running
/// `tables` plainly. Returns `(gain, mem_cost, update_cost)`, the gain
/// possibly negative, or `None` when the candidate is not one of this
/// pipelet's (a group candidate, or an order that is not a permutation
/// of `tables`) or a segment is no longer allowed.
pub fn score_candidate(
    ctx: &EvalCtx<'_>,
    tables: &[NodeId],
    c: &Candidate,
) -> Option<(f64, f64, f64)> {
    if c.group_branch.is_some() || c.order.len() != tables.len() {
        return None;
    }
    let terms = TableTerms::of_each(ctx, tables);
    let row = c
        .order
        .iter()
        .map(|id| terms.iter().find(|t| t.id == *id))
        .collect::<Option<Vec<&TableTerms>>>()?;
    let mut steps = Vec::with_capacity(row.len());
    let mut pos = 0;
    for s in &c.segments {
        if s.start < pos || s.end < s.start || s.end > row.len() {
            return None;
        }
        steps.extend(
            row[pos..s.start]
                .iter()
                .map(|&t| SegmentScore::uncovered(t)),
        );
        let run = &row[s.start..s.end];
        steps.push(match s.kind {
            SegmentKind::Cache => cache::score(ctx, run)?,
            SegmentKind::Merge { as_cache } => {
                if !merge::segment_allowed(run) {
                    return None;
                }
                merge::score(ctx, run, as_cache)?
            }
        });
        pos = s.end;
    }
    steps.extend(row[pos..].iter().map(|&t| SegmentScore::uncovered(t)));
    let price = steps
        .iter()
        .rev()
        .fold(Price::default(), |rest, step| step.then(&rest));
    let gain = ctx.reach * (sequence_latency(&terms) - price.latency);
    Some((gain, price.mem, price.update))
}

#[cfg(test)]
mod tests {
    use super::reference::{brute_force, key};
    use super::*;
    use crate::pipelet::partition;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{DependencyAnalysis, MatchKind, ProgramBuilder};
    use pipeleon_sim::SmartNic;
    use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
    use pipeleon_workloads::scenarios::{AclPipeline, DashRouting, LoadBalancer};
    use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};

    fn ctx_fixture() -> (ProgramGraph, Vec<NodeId>, CostModel, OptimizerConfig) {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for i in 0..3 {
            let f = b.field(&format!("f{i}"));
            ids.push(b.table(format!("t{i}")).key(f, MatchKind::Exact).finish());
        }
        let g = b.seal(ids[0]).unwrap();
        (
            g,
            ids,
            CostModel::new(CostParams::bluefield2()),
            OptimizerConfig::default(),
        )
    }

    #[test]
    fn sequence_latency_sums_table_costs() {
        let (g, ids, model, cfg) = ctx_fixture();
        let profile = RuntimeProfile::empty();
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g: &g,
            profile: &profile,
            reach: 1.0,
        };
        let per_table = ctx.table_cost(ids[0]);
        let total = ctx.sequence_latency(&ids);
        assert!((total - 3.0 * per_table).abs() < 1e-9);
    }

    #[test]
    fn candidate_segments_are_disjoint_and_sorted() {
        let (g, ids, model, cfg) = ctx_fixture();
        let profile = RuntimeProfile::empty();
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g: &g,
            profile: &profile,
            reach: 1.0,
        };
        let (cands, _) = enumerate_candidates(&ctx, 0, &ids, usize::MAX);
        // The whole frontier: the whole-set cache is fastest, a plain merge
        // of the last two tables far smaller, and brute force agrees.
        let of = |c: &Candidate| [c.gain, c.mem_cost, c.update_cost];
        let front: Vec<_> = cands.iter().map(of).collect();
        assert_eq!(front, brute_force(&ctx, &ids).0);
        let shapes: Vec<_> = cands.iter().map(|c| c.segments.clone()).collect();
        let merge = SegmentKind::Merge { as_cache: false };
        let expect = [(0, 3, SegmentKind::Cache), (1, 3, merge)];
        let expect = expect.map(|(start, end, kind)| vec![Segment { start, end, kind }]);
        assert_eq!(shapes, expect, "{cands:?}");
        assert!(cands[0].mem_cost > cands[1].mem_cost, "{cands:?}");
        for c in &cands {
            for w in c.segments.windows(2) {
                assert!(w[0].end <= w[1].start);
            }
        }
    }

    #[test]
    fn candidates_have_positive_gain_and_sorted() {
        let (g, ids, model, cfg) = ctx_fixture();
        let profile = RuntimeProfile::empty();
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g: &g,
            profile: &profile,
            reach: 1.0,
        };
        let (cands, _) = enumerate_candidates(&ctx, 0, &ids, 64);
        for c in &cands {
            assert!(c.gain > 0.0);
        }
        for w in cands.windows(2) {
            assert!(w[0].gain >= w[1].gain);
        }
    }

    /// Five independent ACLs, each dropping more than the one before it:
    /// all 120 orders are valid, and the original is the slowest.
    #[test]
    fn the_original_order_is_kept_behind_the_fastest() {
        let mut b = ProgramBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| {
                let f = b.field(&format!("f{i}"));
                let t = b.table(format!("acl{i}")).key(f, MatchKind::Exact);
                t.action_nop("permit").action_drop("deny").finish()
            })
            .collect();
        let g = b.seal(ids[0]).unwrap();
        let mut profile = RuntimeProfile::empty();
        for (i, &id) in ids.iter().enumerate() {
            profile.record_action(id, 0, 100 - 15 * i as u64);
            profile.record_action(id, 1, 15 * i as u64);
        }
        let (model, cfg) = (
            CostModel::new(CostParams::bluefield2()),
            OptimizerConfig::default(),
        );
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g: &g,
            profile: &profile,
            reach: 1.0,
        };
        let terms = TableTerms::of_each(&ctx, &ids);
        let all = reorder::valid_orders(&terms);
        assert_eq!(all.len(), 120);
        let kept = kept_orders(&terms, all.clone());
        let original: Vec<usize> = (0..5).collect();
        assert_eq!(kept.len(), MAX_ORDERS + 1, "the fastest, then the original");
        assert_eq!(kept.last(), Some(&original));
        let latency = |o: &Vec<usize>| sequence_latency(o.iter().map(|&i| &terms[i]));
        let slowest_kept = kept[..MAX_ORDERS].iter().map(latency).fold(0.0, f64::max);
        let skipped = all.iter().filter(|o| !kept.contains(o));
        assert!(skipped.map(latency).all(|l| l >= slowest_kept));
    }

    /// The load balancer's one 12-table pipelet, under `profile`.
    fn load_balancer_candidates(
        lb: &LoadBalancer,
        profile: &RuntimeProfile,
    ) -> (Vec<Candidate>, usize) {
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let pipelets = partition(&lb.graph, crate::search::MAX_PIPELET_LEN);
        assert_eq!(pipelets.len(), 1);
        assert_eq!(pipelets[0].tables.len(), 12);
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g: &lb.graph,
            profile,
            reach: 1.0,
        };
        enumerate_candidates(&ctx, 0, &pipelets[0].tables, 64)
    }

    /// The search's work as a count: every distinct segment of the load
    /// balancer's 2 kept orders × 12 tables is scored once.
    #[test]
    fn load_balancer_scores_each_segment_once() {
        let lb = LoadBalancer::build();
        let profile = random_profile(&lb.graph, &ProfileSynthConfig::default(), 5);
        let (_, evals) = load_balancer_candidates(&lb, &profile);
        // Per order: n(n+1)/2 cache segments and 2 flavours of n-1 pairs.
        let n = 12;
        let bound = 2 * (n * (n + 1) / 2 + 2 * (n - 1));
        assert_eq!(bound, 200);
        assert!(evals > 0 && evals <= bound, "{evals} segment evaluations");
        // And the count repeats exactly.
        assert_eq!(load_balancer_candidates(&lb, &profile).1, evals);
    }

    /// The blind spot of a capped depth-first walk that tries "leave
    /// `pos` uncovered" first: under the `control_loop` regime that drops
    /// 60 % at the first ACL, the best plan covers the front of the
    /// pipelet, which 1,024 leaves of that walk never reach.
    #[test]
    fn exact_search_reaches_the_front_of_the_pipelet() {
        let lb = LoadBalancer::build();
        let mut nic = SmartNic::new(lb.graph.clone(), CostParams::bluefield2()).expect("LB");
        nic.set_instrumentation(true, 1);
        nic.measure(lb.traffic(&[0.60, 0.05], 700, 4111).batch(4096));
        let (cands, _) = load_balancer_candidates(&lb, &nic.take_profile());
        let best = cands.first().expect("a profitable plan");
        assert!(best.segments.iter().any(|s| s.start == 0), "{best:?}");
    }

    /// Every pipelet of `g`, split to ≤ 8 tables, under a plain and a hinted
    /// profile × the default, each optimization off and longer merges: the
    /// uncapped DP returns the brute-force Pareto set, each candidate is a
    /// brute-force plan with its numbers, and the DP capped at 64 finds the
    /// same best. `seen` counts candidates, reordered ones, caches, merged
    /// caches, plain merges, merges only the row budget refuses and
    /// pipelets whose original order is added back behind the
    /// [`MAX_ORDERS`] fastest, so a sweep that stopped producing one fails
    /// instead of passing vacuously.
    fn sweep(g: &ProgramGraph, seed: u64, seen: &mut [usize; 7]) {
        let pipelets = partition(g, 8);
        let plain = random_profile(g, &ProfileSynthConfig::default(), seed);
        let mut hinted = plain.clone();
        for (k, p) in pipelets.iter().enumerate().filter(|(_, p)| !p.switch_case) {
            hinted.set_distinct_keys(p.tables[0], 40 + 1000 * k as u64);
            if let Some(&second) = p.tables.get(1) {
                hinted.set_cache_hint(vec![second, p.tables[0]], 0.35);
                hinted.set_entry_update_rate(second, 7.5 + k as f64);
            }
            hinted.set_cache_hint(p.tables.clone(), 0.6);
        }
        let configs: [fn(&mut OptimizerConfig); 5] = [
            |_| {},
            |c| c.enable_reorder = false,
            |c| c.enable_cache = false,
            |c| c.enable_merge = false,
            |c| c.max_merge_tables = 3,
        ];
        let model = CostModel::new(CostParams::bluefield2());
        let runs = [&plain, &hinted].map(|p| configs.map(|c| (p, c)));
        for (k, &(profile, tweak)) in runs.iter().flatten().enumerate() {
            let mut cfg = OptimizerConfig::default();
            tweak(&mut cfg);
            let visits = profile.visit_probabilities(g);
            for p in pipelets.iter().filter(|p| !p.switch_case) {
                let what = format!("profile seed {seed}, run {k}, pipelet {}", p.id);
                let reach = visits[p.entry().index()];
                let ctx = EvalCtx {
                    model: &model,
                    cfg: &cfg,
                    g,
                    profile,
                    reach,
                };
                let (dp, _) = enumerate_candidates(&ctx, p.id, &p.tables, usize::MAX);
                let (capped, _) = enumerate_candidates(&ctx, p.id, &p.tables, 64);
                let (front, all, added_back) = brute_force(&ctx, &p.tables);
                let of = |c: &Candidate| [c.gain, c.mem_cost, c.update_cost];
                assert_eq!(dp.iter().map(of).collect::<Vec<_>>(), front, "{what}");
                let best = front.first().map(|f| f[0]);
                assert_eq!(capped.first().map(|c| c.gain), best, "{what}");
                for c in &dp {
                    let at = all.partition_point(|q| key(&q.0) < key(&of(c)));
                    let mut same = all[at..].iter().take_while(|q| q.0 == of(c));
                    let found = same.any(|q| q.1 == c.order && q.2 == c.segments);
                    assert!(found, "{what}: {c:?}");
                    seen[0] += 1;
                    seen[1] += usize::from(c.order != p.tables);
                    for s in &c.segments {
                        seen[match s.kind {
                            SegmentKind::Cache => 2,
                            SegmentKind::Merge { as_cache: true } => 3,
                            SegmentKind::Merge { as_cache: false } => 4,
                        }] += 1;
                    }
                }
                if cfg.enable_merge {
                    let terms = TableTerms::of_each(&ctx, &p.tables);
                    seen[5] += over_budget_runs(&terms, cfg.max_merge_tables);
                }
                seen[6] += usize::from(added_back);
            }
        }
    }

    /// Runs of `terms` (2 to `width` tables) that would merge but for
    /// the row budget.
    fn over_budget_runs(terms: &[TableTerms], width: usize) -> usize {
        let runs = (2..=width).flat_map(|w| terms.windows(w));
        runs.filter(|run| {
            let rows: f64 = run.iter().map(|t| (t.entries + 1) as f64).product();
            let hazard = run.iter().enumerate().any(|(i, a)| {
                let later = &run[i + 1..];
                later
                    .iter()
                    .any(|b| !DependencyAnalysis::mergeable(&a.sets, &b.sets))
            });
            let plain = run.iter().all(|t| t.coverable) && !hazard;
            plain && rows > merge::MAX_MERGE_ENTRIES as f64
        })
        .count()
    }

    /// Re-pricing is the search's own price: every candidate the search
    /// returns, and every group cache, re-scores to its gain, memory and
    /// update costs to the bit, and a searched plan to its total.
    #[test]
    fn score_candidate_reprices_the_search_to_the_bit() {
        use crate::config::ResourceLimits;
        use crate::pipelet::find_groups;
        use crate::plan::GlobalPlan;
        use crate::search::{Optimizer, MAX_PIPELET_LEN};
        let bits = |(gain, mem, update): (f64, f64, f64)| {
            [gain.to_bits(), mem.to_bits(), update.to_bits()]
        };
        let scenarios = [
            LoadBalancer::build().graph,
            AclPipeline::build(10, 4).graph,
            DashRouting::build().graph,
        ];
        let synth = (0..6).map(|seed| {
            synthesize(&SynthConfig {
                pipelets: 6,
                pipelet_len: 3 + (seed as usize % 4),
                seed,
                ..SynthConfig::default()
            })
        });
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let opt = Optimizer::new(model.clone()).esearch();
        // Candidates, candidates that cover something behind a table that
        // drops, and group caches: none may be missing from the sweep.
        let mut seen = [0usize; 3];
        for (seed, g) in (21..).zip(scenarios.into_iter().chain(synth)) {
            let profile = random_profile(&g, &ProfileSynthConfig::default(), seed);
            let visits = profile.visit_probabilities(&g);
            let pipelets = partition(&g, MAX_PIPELET_LEN);
            for p in pipelets.iter().filter(|p| !p.switch_case) {
                let ctx = EvalCtx {
                    model: &model,
                    cfg: &cfg,
                    g: &g,
                    profile: &profile,
                    reach: visits[p.entry().index()],
                };
                let (cands, _) = enumerate_candidates(&ctx, p.id, &p.tables, 64);
                for c in &cands {
                    let what = format!("seed {seed}, pipelet {}: {c:?}", p.id);
                    let got = score_candidate(&ctx, &p.tables, c).expect(&what);
                    assert_eq!(
                        bits(got),
                        bits((c.gain, c.mem_cost, c.update_cost)),
                        "{what}"
                    );
                    seen[0] += 1;
                    let dropping = |id: &NodeId| ctx.drop_rate(*id) > 0.0;
                    let last = c.segments.last().map_or(0, |s| s.end);
                    seen[1] += usize::from(last > 1 && c.order[..last - 1].iter().any(dropping));
                }
            }
            for pg in find_groups(&g, &pipelets) {
                let Some(gc) = opt.group_candidate(&g, &profile, &pipelets, &pg, &visits) else {
                    continue;
                };
                let plan = GlobalPlan {
                    choices: vec![gc.clone()],
                    ..GlobalPlan::default()
                };
                let got = opt.score_plan(&g, &profile, &plan).map(bits);
                let want = bits((gc.gain, gc.mem_cost, gc.update_cost));
                assert_eq!(got, Some(want), "seed {seed}: {gc:?}");
                seen[2] += 1;
            }
            let out = opt
                .optimize(&g, &profile, ResourceLimits::unlimited())
                .unwrap();
            let (gain, ..) = opt.score_plan(&g, &profile, &out.plan).expect("it scores");
            assert_eq!(gain.to_bits(), out.plan.total_gain.to_bits(), "seed {seed}");
        }
        assert!(!seen.contains(&0), "{seen:?}");
    }

    #[test]
    fn small_pipelets_match_brute_force() {
        let (lb, dash) = (LoadBalancer::build().graph, DashRouting::build().graph);
        let scenarios = [lb, dash, AclPipeline::build(10, 4).graph];
        // Lengths on both sides of `MAX_ENUM_PERMS`, so both the permutation
        // and the greedy order paths run; all-exact programs make merged
        // caches materialize. The last has 64 entries a table, so a merge
        // of two would materialize 65·65 rows, past the merge budget.
        let synth = (0..9).map(|seed| {
            synthesize(&SynthConfig {
                pipelets: 4,
                pipelet_len: 3 + (seed as usize % 4),
                match_mix: [MatchMix::all_exact, MatchMix::default_mix][seed as usize % 2](),
                entries_per_table: if seed < 8 {
                    1 + (seed as usize % 3)
                } else {
                    64
                },
                seed,
                ..SynthConfig::default()
            })
        });
        let mut seen = [0; 7];
        for (seed, g) in (11..).zip(scenarios.into_iter().chain(synth)) {
            sweep(&g, seed, &mut seen);
        }
        assert!(seen[0] > 500 && !seen.contains(&0), "{seen:?}");
    }
}
