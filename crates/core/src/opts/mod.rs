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
//! kind and shared by all orders and segmentations containing it, and the
//! depth-first walk over segmentations carries the expected latency of
//! its prefix instead of re-deriving it at each leaf (DESIGN.md §5).

pub mod cache;
pub mod merge;
#[cfg(test)]
mod reference;
pub mod reorder;

use crate::config::OptimizerConfig;
use crate::plan::{Candidate, Segment, SegmentKind};
use pipeleon_cost::{CostModel, RuntimeProfile};
use pipeleon_ir::{CacheRole, NodeId, ProgramGraph, RwSets};
use std::collections::HashMap;
use std::ops::Range;

/// Shared context for evaluating candidates of one pipelet.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The cost model.
    pub model: &'a CostModel,
    /// Optimizer tunables.
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

/// The segment table of one pipelet: every cache or merge segment the
/// walk asks about is scored once per distinct table sequence and kind,
/// whichever orders and segmentations contain it.
struct SegmentTable<'a> {
    ctx: &'a EvalCtx<'a>,
    /// Table sequence (positions in the pipelet's original order) → its
    /// entry.
    ids: HashMap<Box<[usize]>, usize>,
    entries: Vec<SegmentEntry>,
    /// Segment scorings performed (merge materializations included).
    evals: usize,
}

impl<'a> SegmentTable<'a> {
    fn new(ctx: &'a EvalCtx<'a>) -> Self {
        Self {
            ctx,
            ids: HashMap::new(),
            entries: Vec::new(),
            evals: 0,
        }
    }

    /// The entry of table sequence `seq`.
    fn entry_of(&mut self, seq: &[usize]) -> usize {
        if let Some(&e) = self.ids.get(seq) {
            return e;
        }
        self.entries.push(SegmentEntry::default());
        self.ids.insert(seq.into(), self.entries.len() - 1);
        self.entries.len() - 1
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
            .get_or_insert_with(|| merge::segment_allowed(self.ctx.cfg, tables))
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

/// The expected latency, survival probability and resource costs of the
/// part of a segmentation left of the walk's position.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    total: f64,
    survive: f64,
    mem: f64,
    update: f64,
    /// False once a merge segment that does not materialize is part of
    /// the prefix: its leaves count against the cap but are no candidates.
    scored: bool,
}

impl Prefix {
    const START: Self = Self {
        total: 0.0,
        survive: 1.0,
        mem: 0.0,
        update: 0.0,
        scored: true,
    };

    /// The prefix extended by an uncovered table.
    fn table(self, t: &TableTerms) -> Self {
        Self {
            total: self.total + self.survive * t.cost,
            survive: self.survive * (1.0 - t.drop_rate),
            ..self
        }
    }

    /// The prefix extended by a cache or merge segment.
    fn segment(self, s: SegmentScore) -> Self {
        Self {
            total: self.total + self.survive * s.latency,
            survive: self.survive * (1.0 - s.drop_rate),
            mem: self.mem + s.mem,
            update: self.update + s.update,
            scored: self.scored,
        }
    }
}

/// A segmentation with positive gain, in enumeration order.
#[derive(Debug)]
struct Leaf {
    gain: f64,
    /// Index into the orders walked.
    order: usize,
    /// Its segments, as a range of [`Found::segments`].
    segments: Range<usize>,
    mem: f64,
    update: f64,
}

/// The positive-gain leaves of all orders walked so far.
#[derive(Debug, Default)]
struct Found {
    leaves: Vec<Leaf>,
    segments: Vec<Segment>,
}

/// The depth-first walk over the disjoint segmentations of one order.
/// Visits leaves in the order "leave `pos` uncovered, then cache segments
/// `[pos, j)` by ascending `j`, then merge segments by ascending `j`,
/// as-cache flavour first" and stops after `max_segmentations` leaves.
struct Walk<'w, 'a> {
    table: &'w mut SegmentTable<'a>,
    found: &'w mut Found,
    /// The order's tables by position, and the position each had in the
    /// pipelet's original order (the key into the shared segment table).
    row: &'w [&'w TableTerms],
    perm: &'w [usize],
    order: usize,
    baseline: f64,
    leaves: usize,
    current: Vec<Segment>,
}

impl Walk<'_, '_> {
    fn cfg(&self) -> &OptimizerConfig {
        self.table.ctx.cfg
    }

    fn capped(&self) -> bool {
        self.leaves >= self.cfg().max_segmentations.max(1)
    }

    fn walk(&mut self, pos: usize, at: Prefix) {
        if self.capped() {
            return;
        }
        let n = self.row.len();
        if pos >= n {
            self.leaf(at);
            return;
        }
        // Option 1: leave `pos` uncovered.
        self.walk(pos + 1, at.table(self.row[pos]));
        // Option 2: a cache segment [pos, j).
        let max_j = if self.cfg().enable_cache { n } else { 0 };
        for j in (pos + 1)..=max_j {
            if self.capped() {
                break;
            }
            let entry = self.table.entry_of(&self.perm[pos..j]);
            let Some(score) = self.table.cache(entry, &self.row[pos..j]) else {
                // Longer segments only get more constrained.
                break;
            };
            self.cover(pos, j, SegmentKind::Cache, at.segment(score));
        }
        // Option 3: a merge segment [pos, j), j - pos >= 2, both flavours.
        let max_j = if self.cfg().enable_merge {
            (pos + self.cfg().max_merge_tables).min(n)
        } else {
            0
        };
        for j in (pos + 2)..=max_j {
            if self.capped() {
                break;
            }
            let entry = self.table.entry_of(&self.perm[pos..j]);
            if !self.table.merge_allowed(entry, &self.row[pos..j]) {
                break;
            }
            for as_cache in [true, false] {
                if self.capped() {
                    break;
                }
                // Below an unscored prefix only the leaves are counted.
                let score = if at.scored {
                    self.table.merge(entry, &self.row[pos..j], as_cache)
                } else {
                    None
                };
                let next = match score {
                    Some(score) => at.segment(score),
                    None => Prefix {
                        scored: false,
                        ..at
                    },
                };
                self.cover(pos, j, SegmentKind::Merge { as_cache }, next);
            }
        }
    }

    /// Walks the segmentations that cover `[start, end)` with `kind`.
    fn cover(&mut self, start: usize, end: usize, kind: SegmentKind, next: Prefix) {
        self.current.push(Segment { start, end, kind });
        self.walk(end, next);
        self.current.pop();
    }

    fn leaf(&mut self, at: Prefix) {
        self.leaves += 1;
        if !at.scored {
            return;
        }
        let gain = self.table.ctx.reach * (self.baseline - at.total);
        if gain <= 1e-12 {
            return;
        }
        let first = self.found.segments.len();
        self.found.segments.extend_from_slice(&self.current);
        self.found.leaves.push(Leaf {
            gain,
            order: self.order,
            segments: first..self.found.segments.len(),
            mem: at.mem,
            update: at.update,
        });
    }
}

/// Enumerates evaluated candidates for one pipelet (identified by
/// `pipelet_id`) whose tables are `tables` in current order. Candidates
/// with non-positive gain are dropped; the result is sorted by descending
/// gain (ties in enumeration order) and truncated to `max_candidates`.
/// Also returns the number of distinct segments scored on the way.
pub fn enumerate_candidates(
    ctx: &EvalCtx<'_>,
    pipelet_id: usize,
    tables: &[NodeId],
    max_candidates: usize,
) -> (Vec<Candidate>, usize) {
    let terms = TableTerms::of_each(ctx, tables);
    let baseline = sequence_latency(&terms);
    let mut orders = if ctx.cfg.enable_reorder {
        reorder::valid_orders(ctx.cfg, &terms)
    } else {
        vec![(0..terms.len()).collect()]
    };
    // Keep the most promising orders (drop-aware expected latency) to
    // bound the order × segmentation product, always retaining the
    // original order as the segments-only baseline.
    let keep = ctx.cfg.max_orders.max(1);
    if orders.len() > keep {
        let original = orders[0].clone();
        let mut by_latency: Vec<(f64, Vec<usize>)> = orders
            .into_iter()
            .map(|o| (sequence_latency(o.iter().map(|&i| &terms[i])), o))
            .collect();
        by_latency.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latencies"));
        by_latency.truncate(keep);
        orders = by_latency.into_iter().map(|(_, o)| o).collect();
        if !orders.contains(&original) {
            orders.push(original);
        }
    }

    let mut table = SegmentTable::new(ctx);
    let mut found = Found::default();
    for (order, perm) in orders.iter().enumerate() {
        let row: Vec<&TableTerms> = perm.iter().map(|&i| &terms[i]).collect();
        Walk {
            table: &mut table,
            found: &mut found,
            row: &row,
            perm,
            order,
            baseline,
            leaves: 0,
            current: Vec::new(),
        }
        .walk(0, Prefix::START);
    }
    // Stable: equal gains keep their enumeration order.
    found
        .leaves
        .sort_by(|a, b| b.gain.partial_cmp(&a.gain).expect("finite gains"));
    found.leaves.truncate(max_candidates);
    let candidates = found
        .leaves
        .into_iter()
        .map(|leaf| Candidate {
            pipelet: pipelet_id,
            order: orders[leaf.order].iter().map(|&i| terms[i].id).collect(),
            segments: found.segments[leaf.segments].to_vec(),
            gain: leaf.gain,
            mem_cost: leaf.mem,
            update_cost: leaf.update,
            group_branch: None,
        })
        .collect();
    (candidates, table.evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{MatchKind, ProgramBuilder};

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
        // At least a cache over each of [0..1], [0..2], [0..3], [1..2], ….
        assert!(cands.len() > 5);
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
}
