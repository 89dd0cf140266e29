//! The straight-line candidate evaluator, kept as the oracle for
//! [`enumerate_candidates`](super::enumerate_candidates).
//!
//! This is the enumerator as it stood before segment tables: list every
//! segmentation of every order, then for each leaf re-derive each
//! segment's permission, latency and costs from the program, the profile
//! and the cost model. It shares nothing with the production path beyond
//! [`valid_orders`](super::reorder::valid_orders), the accessors of
//! [`EvalCtx`] and [`merge::materialize`](super::merge::materialize) — no
//! [`TableTerms`](super::TableTerms), no memo, no streamed prefix — so the
//! differential tests below catch any way those can go wrong: a segment
//! scored under another's key, a per-table term read at the wrong
//! position, a float summed in another order, a tie broken differently.

use super::{merge, reorder, EvalCtx, TableTerms};
use crate::plan::{Candidate, Segment, SegmentKind};
use pipeleon_ir::{CacheRole, DependencyAnalysis, NodeId, RwSets, Table};

fn cache_segment_allowed(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> bool {
    let mut sets = Vec::with_capacity(tables.len());
    for &id in tables {
        let Some(node) = ctx.g.node(id) else {
            return false;
        };
        let Some(t) = node.as_table() else {
            return false;
        };
        if node.is_switch_case() || t.cache_role != CacheRole::None {
            return false;
        }
        if t.keys.is_empty() {
            return false;
        }
        sets.push(RwSets::of_node(node));
    }
    !tables.is_empty() && DependencyAnalysis::cacheable_segment(&sets)
}

fn cache_hit_rate(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> f64 {
    if let Some(measured) = ctx.profile.cache_hint(tables) {
        return measured;
    }
    let mut h = ctx.cfg.default_hit_rate;
    let mut keyspace: f64 = 1.0;
    for &id in tables {
        let distinct = ctx
            .profile
            .distinct_keys_of(id)
            .unwrap_or_else(|| {
                ctx.g
                    .node(id)
                    .and_then(|n| n.as_table())
                    .map(|t| (t.entries.len() as u64 + 1).max(2))
                    .unwrap_or(2)
            })
            .max(1);
        keyspace *= distinct as f64;
    }
    if keyspace > ctx.cfg.cache_capacity as f64 {
        h *= ctx.cfg.cache_capacity as f64 / keyspace;
    }
    let update_rate: f64 = tables
        .iter()
        .map(|&id| ctx.profile.entry_update_rate(id))
        .sum();
    h /= 1.0 + ctx.cfg.invalidation_coeff * update_rate;
    h.clamp(0.0, 1.0)
}

fn cache_segment_latency(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> Option<(f64, f64)> {
    if !cache_segment_allowed(ctx, tables) {
        return None;
    }
    let h = cache_hit_rate(ctx, tables);
    let params = &ctx.model.params;
    let mut replay = 0.0;
    let mut orig = 0.0;
    let mut survive = 1.0;
    for &id in tables {
        replay += survive * ctx.action_cost(id);
        orig += survive * ctx.table_cost(id);
        survive *= 1.0 - ctx.drop_rate(id);
    }
    let drop = 1.0 - survive;
    let latency = params.l_mat + h * replay + (1.0 - h) * (orig + params.l_cache_insert);
    Some((latency, drop))
}

fn cache_segment_costs(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> (f64, f64) {
    let mem = (ctx.cfg.cache_capacity * Table::DEFAULT_ENTRY_BYTES) as f64;
    let h = cache_hit_rate(ctx, tables);
    let entering = ctx.profile.packet_rate() * ctx.reach;
    let insertions = ((1.0 - h) * entering).min(ctx.cfg.cache_insertion_limit);
    (mem, insertions)
}

fn merge_segment_allowed(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> bool {
    if tables.len() < 2 {
        return false;
    }
    let mut sets = Vec::with_capacity(tables.len());
    let mut product: f64 = 1.0;
    for &id in tables {
        let Some(node) = ctx.g.node(id) else {
            return false;
        };
        let Some(t) = node.as_table() else {
            return false;
        };
        if node.is_switch_case() || t.cache_role != CacheRole::None || t.keys.is_empty() {
            return false;
        }
        product *= (t.entries.len() + 1) as f64;
        sets.push(RwSets::of_node(node));
    }
    if product > ctx.cfg.max_merge_entries as f64 {
        return false;
    }
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            if !DependencyAnalysis::mergeable(&sets[i], &sets[j]) {
                return false;
            }
        }
    }
    true
}

fn merge_segment_latency(
    ctx: &EvalCtx<'_>,
    tables: &[NodeId],
    as_cache: bool,
) -> Option<(f64, f64)> {
    let merged = merge::materialize(ctx, tables, as_cache).ok()?;
    let params = &ctx.model.params;
    let mut actions = 0.0;
    let mut orig = 0.0;
    let mut survive = 1.0;
    for &id in tables {
        actions += survive * ctx.action_cost(id);
        orig += survive * ctx.table_cost(id);
        survive *= 1.0 - ctx.drop_rate(id);
    }
    let drop = 1.0 - survive;
    let latency = if as_cache {
        let h = merge_all_hit_rate(ctx, tables);
        params.l_mat + h * actions + (1.0 - h) * orig
    } else {
        let m = params.memory_accesses(&merged.table);
        m * params.l_mat + actions
    };
    Some((latency, drop))
}

fn merge_all_hit_rate(ctx: &EvalCtx<'_>, tables: &[NodeId]) -> f64 {
    let mut h = 1.0;
    let mut update_rate = 0.0;
    for &id in tables {
        let Some(t) = ctx.g.node(id).and_then(|n| n.as_table()) else {
            return 0.0;
        };
        let probs = ctx.profile.action_probs(ctx.g, id);
        let miss_p = probs.get(t.default_action).copied().unwrap_or(0.0);
        h *= 1.0 - miss_p;
        update_rate += ctx.profile.entry_update_rate(id);
    }
    (h / (1.0 + ctx.cfg.invalidation_coeff * update_rate)).clamp(0.0, 1.0)
}

fn merge_segment_costs(ctx: &EvalCtx<'_>, tables: &[NodeId], as_cache: bool) -> (f64, f64) {
    let comps: Vec<&Table> = tables
        .iter()
        .filter_map(|&id| ctx.g.node(id).and_then(|n| n.as_table()))
        .collect();
    let sizes: Vec<f64> = comps
        .iter()
        .map(|t| t.entries.len() as f64 + if as_cache { 0.0 } else { 1.0 })
        .collect();
    let product: f64 = sizes.iter().product();
    let entry_bytes = Table::DEFAULT_ENTRY_BYTES as f64;
    let mut mem = product * entry_bytes;
    if !as_cache {
        let freed: f64 = comps
            .iter()
            .map(|t| t.entries.len() as f64 * entry_bytes)
            .sum();
        mem = (mem - freed).max(0.0);
    }
    let mut update = 0.0;
    for (i, &id) in tables.iter().enumerate() {
        let rate = ctx.profile.entry_update_rate(id);
        let amplification: f64 = sizes
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, s)| *s)
            .product();
        update += rate * amplification;
    }
    (mem, update)
}

fn candidate_latency(ctx: &EvalCtx<'_>, order: &[NodeId], segments: &[Segment]) -> Option<f64> {
    let mut total = 0.0;
    let mut survive = 1.0;
    let mut i = 0;
    while i < order.len() {
        if let Some(seg) = segments.iter().find(|s| s.start == i) {
            let tables = &order[seg.start..seg.end];
            let (seg_latency, seg_drop) = match seg.kind {
                SegmentKind::Cache => cache_segment_latency(ctx, tables)?,
                SegmentKind::Merge { as_cache } => merge_segment_latency(ctx, tables, as_cache)?,
            };
            total += survive * seg_latency;
            survive *= 1.0 - seg_drop;
            i = seg.end;
        } else {
            let id = order[i];
            total += survive * ctx.table_cost(id);
            survive *= 1.0 - ctx.drop_rate(id);
            i += 1;
        }
    }
    Some(total)
}

fn enumerate_segmentations(ctx: &EvalCtx<'_>, order: &[NodeId]) -> Vec<Vec<Segment>> {
    let mut out = Vec::new();
    let mut current: Vec<Segment> = Vec::new();
    fn recurse(
        ctx: &EvalCtx<'_>,
        order: &[NodeId],
        pos: usize,
        current: &mut Vec<Segment>,
        out: &mut Vec<Vec<Segment>>,
    ) {
        if out.len() >= ctx.cfg.max_segmentations.max(1) {
            return;
        }
        let n = order.len();
        if pos >= n {
            out.push(current.clone());
            return;
        }
        recurse(ctx, order, pos + 1, current, out);
        for j in (pos + 1)..=n {
            if !ctx.cfg.enable_cache {
                break;
            }
            if !cache_segment_allowed(ctx, &order[pos..j]) {
                break;
            }
            current.push(Segment {
                start: pos,
                end: j,
                kind: SegmentKind::Cache,
            });
            recurse(ctx, order, j, current, out);
            current.pop();
        }
        let max_j = if ctx.cfg.enable_merge {
            (pos + ctx.cfg.max_merge_tables).min(n)
        } else {
            0
        };
        for j in (pos + 2)..=max_j {
            if !merge_segment_allowed(ctx, &order[pos..j]) {
                break;
            }
            for as_cache in [true, false] {
                current.push(Segment {
                    start: pos,
                    end: j,
                    kind: SegmentKind::Merge { as_cache },
                });
                recurse(ctx, order, j, current, out);
                current.pop();
            }
        }
    }
    recurse(ctx, order, 0, &mut current, &mut out);
    out
}

fn segment_costs(ctx: &EvalCtx<'_>, order: &[NodeId], segments: &[Segment]) -> (f64, f64) {
    let mut mem = 0.0;
    let mut upd = 0.0;
    for seg in segments {
        let tables = &order[seg.start..seg.end];
        let (m, u) = match seg.kind {
            SegmentKind::Cache => cache_segment_costs(ctx, tables),
            SegmentKind::Merge { as_cache } => merge_segment_costs(ctx, tables, as_cache),
        };
        mem += m;
        upd += u;
    }
    (mem, upd)
}

/// The reference `enumerate_candidates`; also returns how many segments
/// it scored (one per segment of every leaf it evaluated).
pub(super) fn enumerate_candidates(
    ctx: &EvalCtx<'_>,
    pipelet_id: usize,
    tables: &[NodeId],
    max_candidates: usize,
) -> (Vec<Candidate>, usize) {
    let baseline = ctx.sequence_latency(tables);
    let mut orders: Vec<Vec<NodeId>> = if ctx.cfg.enable_reorder {
        reorder::valid_orders(ctx.cfg, &TableTerms::of_each(ctx, tables))
            .into_iter()
            .map(|perm| perm.into_iter().map(|i| tables[i]).collect())
            .collect()
    } else {
        vec![tables.to_vec()]
    };
    if orders.len() > ctx.cfg.max_orders.max(1) {
        let original = orders[0].clone();
        orders.sort_by(|a, b| {
            ctx.sequence_latency(a)
                .partial_cmp(&ctx.sequence_latency(b))
                .expect("finite latencies")
        });
        orders.truncate(ctx.cfg.max_orders.max(1));
        if !orders.contains(&original) {
            orders.push(original);
        }
    }
    let mut out: Vec<Candidate> = Vec::new();
    let mut scored = 0;
    for order in &orders {
        for segments in enumerate_segmentations(ctx, order) {
            scored += segments.len();
            let Some(lat) = candidate_latency(ctx, order, &segments) else {
                continue;
            };
            let gain = ctx.reach * (baseline - lat);
            if gain <= 1e-12 {
                continue;
            }
            let (mem, upd) = segment_costs(ctx, order, &segments);
            out.push(Candidate {
                pipelet: pipelet_id,
                order: order.clone(),
                segments,
                gain,
                mem_cost: mem,
                update_cost: upd,
                group_branch: None,
            });
        }
    }
    out.sort_by(|a, b| b.gain.partial_cmp(&a.gain).expect("finite gains"));
    out.truncate(max_candidates);
    (out, scored)
}

mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::pipelet::partition;
    use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
    use pipeleon_ir::ProgramGraph;
    use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
    use pipeleon_workloads::scenarios::{AclPipeline, DashRouting, LoadBalancer};
    use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};

    /// What the compared candidates exercised, so a sweep that silently
    /// stopped producing merges or reorders fails instead of passing
    /// vacuously.
    #[derive(Debug, Default)]
    struct Seen {
        candidates: usize,
        reordered: usize,
        caches: usize,
        merged_caches: usize,
        plain_merges: usize,
    }

    /// Enumerates every pipelet of `g` both ways and requires the same
    /// candidates in the same order, every float to the bit.
    fn assert_same(
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        cfg: &OptimizerConfig,
        what: &str,
        seen: &mut Seen,
    ) {
        let model = CostModel::new(CostParams::bluefield2());
        let visits = profile.visit_probabilities(g);
        for p in partition(g, cfg.max_pipelet_len) {
            if p.switch_case {
                continue;
            }
            let ctx = EvalCtx {
                model: &model,
                cfg,
                g,
                profile,
                reach: visits[p.entry().index()],
            };
            let (new, _) = super::super::enumerate_candidates(&ctx, p.id, &p.tables, 64);
            let (old, _) = enumerate_candidates(&ctx, p.id, &p.tables, 64);
            assert_eq!(new.len(), old.len(), "{what}, pipelet {}", p.id);
            for (i, (a, b)) in new.iter().zip(&old).enumerate() {
                assert_eq!(a, b, "{what}, pipelet {}, candidate {i}", p.id);
                for (x, y) in [
                    (a.gain, b.gain),
                    (a.mem_cost, b.mem_cost),
                    (a.update_cost, b.update_cost),
                ] {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what}, pipelet {}, candidate {i}: {a:?} vs {b:?}",
                        p.id
                    );
                }
                seen.candidates += 1;
                seen.reordered += usize::from(a.order != p.tables);
                for s in &a.segments {
                    match s.kind {
                        SegmentKind::Cache => seen.caches += 1,
                        SegmentKind::Merge { as_cache: true } => seen.merged_caches += 1,
                        SegmentKind::Merge { as_cache: false } => seen.plain_merges += 1,
                    }
                }
            }
        }
    }

    /// The configurations every program is compared under: the default,
    /// the leaf cap at 1 and 7, one order, each optimization off in turn,
    /// longer merges, and a merge budget every pair with entries exceeds.
    fn configs() -> Vec<(&'static str, OptimizerConfig)> {
        let base = OptimizerConfig::default();
        vec![
            ("default", base.clone()),
            (
                "max_segmentations=1",
                OptimizerConfig {
                    max_segmentations: 1,
                    ..base.clone()
                },
            ),
            (
                "max_segmentations=7",
                OptimizerConfig {
                    max_segmentations: 7,
                    ..base.clone()
                },
            ),
            (
                "max_orders=1",
                OptimizerConfig {
                    max_orders: 1,
                    ..base.clone()
                },
            ),
            (
                "no reorder",
                OptimizerConfig {
                    enable_reorder: false,
                    ..base.clone()
                },
            ),
            (
                "no cache",
                OptimizerConfig {
                    enable_cache: false,
                    ..base.clone()
                },
            ),
            (
                "no merge",
                OptimizerConfig {
                    enable_merge: false,
                    ..base.clone()
                },
            ),
            (
                "max_merge_tables=3",
                OptimizerConfig {
                    max_merge_tables: 3,
                    ..base.clone()
                },
            ),
            (
                "max_merge_entries=3",
                OptimizerConfig {
                    max_merge_entries: 3,
                    ..base
                },
            ),
        ]
    }

    /// `profile` with a measured hit rate for a cache over the first two
    /// and over all tables of every pipelet, an update rate on every
    /// pipelet's second table and a distinct-key estimate on its first.
    fn with_hints(g: &ProgramGraph, mut profile: RuntimeProfile) -> RuntimeProfile {
        for (k, p) in partition(g, OptimizerConfig::default().max_pipelet_len)
            .iter()
            .enumerate()
        {
            if p.switch_case {
                continue;
            }
            profile.set_distinct_keys(p.tables[0], 40 + 1000 * k as u64);
            if let Some(&second) = p.tables.get(1) {
                profile.set_cache_hint(vec![second, p.tables[0]], 0.35);
                profile.set_entry_update_rate(second, 7.5 + k as f64);
            }
            profile.set_cache_hint(p.tables.clone(), 0.6);
        }
        profile
    }

    fn sweep(g: &ProgramGraph, name: &str, seed: u64, seen: &mut Seen) {
        let plain = random_profile(g, &ProfileSynthConfig::default(), seed);
        let hinted = with_hints(g, plain.clone());
        for (profile_name, profile) in [("plain", &plain), ("hinted", &hinted)] {
            for (cfg_name, cfg) in configs() {
                let what = format!("{name}, {profile_name} profile, {cfg_name}");
                assert_same(g, profile, &cfg, &what, seen);
            }
        }
    }

    #[test]
    fn scenario_programs_enumerate_bit_identically() {
        let mut seen = Seen::default();
        sweep(&LoadBalancer::build().graph, "LoadBalancer", 11, &mut seen);
        sweep(&DashRouting::build().graph, "DashRouting", 12, &mut seen);
        sweep(
            &AclPipeline::build(10, 4).graph,
            "AclPipeline",
            13,
            &mut seen,
        );
        assert!(
            seen.candidates > 1000
                && seen.reordered > 0
                && seen.caches > 0
                && seen.merged_caches > 0
                && seen.plain_merges > 0,
            "{seen:?}"
        );
    }

    #[test]
    fn synthesized_programs_enumerate_bit_identically() {
        let mut seen = Seen::default();
        for seed in 0..8u64 {
            // Lengths on both sides of `max_enum_perms`, so both the
            // permutation and the greedy order paths run; all-exact
            // programs make merged caches materialize.
            let g = synthesize(&SynthConfig {
                pipelets: 4,
                pipelet_len: 3 + (seed as usize % 4),
                match_mix: if seed % 2 == 0 {
                    MatchMix::all_exact()
                } else {
                    MatchMix::default_mix()
                },
                entries_per_table: 1 + (seed as usize % 3),
                seed,
                ..SynthConfig::default()
            });
            sweep(&g, &format!("synth seed {seed}"), 100 + seed, &mut seen);
        }
        assert!(
            seen.candidates > 1000
                && seen.reordered > 0
                && seen.caches > 0
                && seen.merged_caches > 0
                && seen.plain_merges > 0,
            "{seen:?}"
        );
    }

    /// The search's work as a count: on the one-pipelet, 12-table load
    /// balancer (2 orders × the 1,024-leaf cap) every distinct segment is
    /// scored once, where the straight-line evaluator scores every
    /// segment of every leaf.
    #[test]
    fn load_balancer_scores_each_segment_once() {
        let lb = LoadBalancer::build();
        let profile = random_profile(&lb.graph, &ProfileSynthConfig::default(), 5);
        let model = CostModel::new(CostParams::bluefield2());
        let cfg = OptimizerConfig::default();
        let pipelets = partition(&lb.graph, cfg.max_pipelet_len);
        assert_eq!(pipelets.len(), 1);
        let tables = &pipelets[0].tables;
        let n = tables.len();
        assert_eq!(n, 12);
        let ctx = EvalCtx {
            model: &model,
            cfg: &cfg,
            g: &lb.graph,
            profile: &profile,
            reach: 1.0,
        };
        let (_, evals) = super::super::enumerate_candidates(&ctx, 0, tables, 64);
        let (_, reference_evals) = enumerate_candidates(&ctx, 0, tables, 64);
        // Per order: n(n+1)/2 cache segments and 2 flavours of n-1 pairs.
        let bound = 2 * (n * (n + 1) / 2 + 2 * (n - 1));
        assert_eq!(bound, 200);
        assert!(evals > 0 && evals <= bound, "{evals} segment evaluations");
        assert!(
            reference_evals > 10 * bound,
            "the reference scored {reference_evals} segments"
        );
        // And the count repeats exactly.
        let (_, again) = super::super::enumerate_candidates(&ctx, 0, tables, 64);
        assert_eq!(evals, again);
    }
}
