//! Plan application: rewriting the program graph and emitting the counter
//! and entry-management maps (§2.3, §4.1.2).
//!
//! Reordering rewires the pipelet chain; caching inserts a
//! [`CacheRole::FlowCache`] switch-case table in front of the covered
//! segment; merging materializes the cross-product table and either
//! replaces the originals (plain merge) or fronts them as a
//! [`CacheRole::MergedCache`] fall-through (merge-as-cache).
//!
//! Because transformations change the program structure, two maps are
//! emitted:
//!
//! * [`CounterMap`] — translates counters collected on the *optimized*
//!   layout back to the original program ("Pipeleon maintains a counter
//!   map that links the optimized program to its original counterpart",
//!   §4.1.2). Flow-cache hits need no mapping — the executor replays and
//!   counts the original actions — but merged-table actions map back to
//!   their component actions here.
//! * [`EntryMap`] — routes control-plane entry operations on original
//!   tables to their new sites: directly, into a merged table (requiring
//!   re-materialization), and/or flushing a covering cache (§2.3
//!   "Pipeleon ensures the same program management APIs").

use crate::config::OptimizerConfig;
use crate::opts::{merge, EvalCtx};
use crate::plan::{Candidate, GlobalPlan, SegmentKind};
use pipeleon_cost::{CostModel, RuntimeProfile, CACHE_CAPACITY};
use pipeleon_ir::{
    Action, CacheRole, IrError, MatchKey, MatchKind, NextHops, NodeId, NodeKind, ProgramGraph,
    RwSets, Table,
};
use std::collections::{HashMap, HashSet};

/// Maps synthetic-node action counters back to original `(node, action)`
/// pairs.
#[derive(Debug, Clone, Default)]
pub struct CounterMap {
    map: HashMap<(NodeId, usize), Vec<(NodeId, usize)>>,
    synthetic: HashSet<NodeId>,
}

impl CounterMap {
    /// Registers a synthetic node whose counters need translation.
    fn add_synthetic(&mut self, node: NodeId) {
        self.synthetic.insert(node);
    }

    fn add_mapping(&mut self, from: (NodeId, usize), to: Vec<(NodeId, usize)>) {
        self.map.insert(from, to);
    }

    /// Replaces every mapping of `node` with a fresh per-action map (used
    /// when a merged table is re-materialized at runtime).
    pub fn replace_mappings(&mut self, node: NodeId, action_map: &[Vec<(NodeId, usize)>]) {
        self.map.retain(|(n, _), _| *n != node);
        for (i, targets) in action_map.iter().enumerate() {
            self.map.insert((node, i), targets.clone());
        }
    }

    /// Translates a profile collected on the optimized program into the
    /// original program's counter space. Cache statistics and synthetic
    /// node ids are preserved (the controller monitors them separately).
    pub fn translate(&self, optimized: &RuntimeProfile) -> RuntimeProfile {
        let mut out = RuntimeProfile::empty();
        out.total_packets = optimized.total_packets;
        out.window_s = optimized.window_s;
        out.cache_stats = optimized.cache_stats.clone();
        for ((node, action), count) in optimized.actions() {
            if let Some(targets) = self.map.get(&(node, action)) {
                for &(n, a) in targets {
                    out.record_action(n, a, count);
                }
            } else if !self.synthetic.contains(&node) {
                out.record_action(node, action, count);
            }
        }
        for (edge, count) in optimized.edges() {
            if !self.synthetic.contains(&edge.node) {
                out.record_edge(edge, count);
            }
        }
        for (&node, &rate) in &optimized.entry_update_rates {
            if !self.synthetic.contains(&node) {
                out.set_entry_update_rate(node, rate);
            }
        }
        for (&node, &d) in &optimized.distinct_keys {
            if !self.synthetic.contains(&node) {
                out.set_distinct_keys(node, d);
            }
        }
        out
    }
}

/// Where an original table's entries live in the optimized layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntrySite {
    /// The table still exists under its original id; operate directly.
    Direct,
    /// The table was merged: updates require re-materializing `merged`
    /// from the current entries of `components`.
    MergedInto {
        /// The merged table node.
        merged: NodeId,
        /// All component tables of the merge, in order.
        components: Vec<NodeId>,
        /// Whether the merged table is a fall-through cache (originals
        /// still present) or a full replacement.
        as_cache: bool,
        /// Where hit actions continue (needed to rebuild the switch-case
        /// wiring when re-materialization changes the action count).
        hit_exit: Option<NodeId>,
    },
    /// A flow cache covers this table: updates must flush it.
    CoveredByCache {
        /// The cache table node.
        cache: NodeId,
    },
}

/// Per-original-table entry routing.
#[derive(Debug, Clone, Default)]
pub struct EntryMap {
    sites: HashMap<NodeId, Vec<EntrySite>>,
}

impl EntryMap {
    fn add(&mut self, table: NodeId, site: EntrySite) {
        self.sites.entry(table).or_default().push(site);
    }

    /// The sites an entry operation on `table` must be applied to.
    /// Untracked tables are simply `Direct`.
    pub fn sites(&self, table: NodeId) -> Vec<EntrySite> {
        self.sites
            .get(&table)
            .cloned()
            .unwrap_or_else(|| vec![EntrySite::Direct])
    }

    /// Tables with non-trivial routing.
    pub fn tracked(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sites.keys().copied()
    }
}

/// The result of applying a [`GlobalPlan`].
#[derive(Debug, Clone)]
pub struct AppliedPlan {
    /// The optimized program.
    pub graph: ProgramGraph,
    /// Counter translation back to the original program.
    pub counter_map: CounterMap,
    /// Entry-operation routing.
    pub entry_map: EntryMap,
    /// All flow-cache nodes created; the controller reads their measured
    /// hit rates back into the next search (§3.2.2 cache monitoring).
    pub cache_nodes: Vec<NodeId>,
    /// Human-readable description of each applied step.
    pub summary: Vec<String>,
    /// The plan this was built from: what runs, for the controller to
    /// re-price against each new search.
    pub plan: GlobalPlan,
}

/// Applies `plan` to (a clone of) `g`.
pub fn apply_plan(
    g: &ProgramGraph,
    plan: &GlobalPlan,
    model: &CostModel,
    profile: &RuntimeProfile,
    cfg: &OptimizerConfig,
) -> Result<AppliedPlan, IrError> {
    let mut out = AppliedPlan {
        graph: g.clone(),
        counter_map: CounterMap::default(),
        entry_map: EntryMap::default(),
        cache_nodes: Vec::new(),
        summary: Vec::new(),
        plan: plan.clone(),
    };
    let mut cache_seq = 0usize;
    for cand in &plan.choices {
        if let Some(branch) = cand.group_branch {
            apply_group_cache(&mut out, branch, cand, &mut cache_seq)?;
        } else {
            apply_pipelet_candidate(&mut out, cand, model, profile, cfg, &mut cache_seq)?;
        }
    }
    out.graph.validate()?;
    Ok(out)
}

/// Name helper keeping cache-table names unique.
fn cache_name(seq: &mut usize, over: &str) -> String {
    *seq += 1;
    format!("cache{}_{over}", *seq)
}

/// Rewires every edge (and the root) pointing at `target` to `to`,
/// skipping the nodes in `skip` (the new node itself, whose fall-through
/// edge legitimately points at `target`).
fn retarget_except(g: &mut ProgramGraph, target: NodeId, to: NodeId, skip: &[NodeId]) {
    let ids: Vec<NodeId> = g.iter_nodes().map(|n| n.id).collect();
    for id in ids {
        if skip.contains(&id) || id == to {
            continue;
        }
        if let Some(n) = g.node_mut(id) {
            n.next.retarget(target, Some(to));
        }
    }
    if g.root() == Some(target) {
        g.set_root(to);
    }
}

fn apply_pipelet_candidate(
    out: &mut AppliedPlan,
    cand: &Candidate,
    model: &CostModel,
    profile: &RuntimeProfile,
    cfg: &OptimizerConfig,
    cache_seq: &mut usize,
) -> Result<(), IrError> {
    let members: HashSet<NodeId> = cand.order.iter().copied().collect();
    // Identify the chain's current entry and exit in the graph.
    let preds = out.graph.predecessors();
    let entry = cand
        .order
        .iter()
        .copied()
        .find(|&id| {
            out.graph.root() == Some(id)
                || preds[id.index()].iter().any(|p| !members.contains(p))
                || preds[id.index()].is_empty()
        })
        .ok_or_else(|| IrError::Invalid("pipelet has no entry".into()))?;
    let exit = cand
        .order
        .iter()
        .copied()
        .find_map(|id| match out.graph.node(id).map(|n| &n.next) {
            Some(NextHops::Always(t)) => match t {
                Some(t) if members.contains(t) => None,
                other => Some(*other),
            },
            _ => None,
        })
        .unwrap_or(None);

    // 1. Rewire the chain in the candidate's order.
    let new_first = cand.order[0];
    if new_first != entry {
        retarget_except(&mut out.graph, entry, new_first, &cand.order);
        out.summary.push(format!(
            "reorder pipelet at {}: new order {:?}",
            entry,
            cand.order
                .iter()
                .map(|id| {
                    out.graph
                        .node(*id)
                        .map(|n| n.name().to_owned())
                        .unwrap_or_else(|| id.to_string())
                })
                .collect::<Vec<_>>()
        ));
    }
    for w in cand.order.windows(2) {
        out.graph
            .node_mut(w[0])
            .ok_or(IrError::UnknownNode(w[0]))?
            .next = NextHops::Always(Some(w[1]));
    }
    out.graph
        .node_mut(*cand.order.last().expect("non-empty order"))
        .expect("member exists")
        .next = NextHops::Always(exit);

    // 2. Apply segments right-to-left so successor positions stay valid.
    let mut entry_at: Vec<NodeId> = cand.order.clone();
    let mut segments = cand.segments.clone();
    segments.sort_by_key(|s| std::cmp::Reverse(s.start));
    for seg in &segments {
        let tables: Vec<NodeId> = cand.order[seg.start..seg.end].to_vec();
        let seg_exit = if seg.end < cand.order.len() {
            Some(entry_at[seg.end])
        } else {
            exit
        };
        let seg_head = entry_at[seg.start];
        let new_node = match seg.kind {
            SegmentKind::Cache => insert_flow_cache(out, &tables, seg_head, seg_exit, cache_seq)?,
            SegmentKind::Merge { as_cache } => insert_merge(
                out, &tables, seg_head, seg_exit, as_cache, model, profile, cfg,
            )?,
        };
        entry_at[seg.start] = new_node;
    }
    Ok(())
}

/// Inserts a flow-cache table in front of `seg_head`, covering `tables`.
fn insert_flow_cache(
    out: &mut AppliedPlan,
    tables: &[NodeId],
    seg_head: NodeId,
    seg_exit: Option<NodeId>,
    cache_seq: &mut usize,
) -> Result<NodeId, IrError> {
    // Cache key: union of the covered tables' match-read fields.
    let mut sets: Vec<RwSets> = Vec::with_capacity(tables.len());
    for &id in tables {
        sets.push(RwSets::of_node(out.graph.expect_node(id)?));
    }
    let key_fields = pipeleon_ir::DependencyAnalysis::segment_key_fields(&sets);
    let head_name = out
        .graph
        .node(seg_head)
        .map(|n| n.name().to_owned())
        .unwrap_or_default();
    let mut table = Table::new(cache_name(cache_seq, &head_name));
    table.keys = key_fields
        .into_iter()
        .map(|field| MatchKey {
            field,
            kind: MatchKind::Exact,
        })
        .collect();
    table.actions = vec![Action::nop("hit"), Action::nop("miss")];
    table.default_action = 1;
    table.cache_role = CacheRole::FlowCache;
    table.max_entries = Some(CACHE_CAPACITY);
    let cache = out.graph.add_node(
        NodeKind::Table(table),
        NextHops::ByAction(vec![seg_exit, Some(seg_head)]),
    );
    retarget_except(&mut out.graph, seg_head, cache, &[cache]);
    out.counter_map.add_synthetic(cache);
    out.cache_nodes.push(cache);
    for &t in tables {
        out.entry_map.add(t, EntrySite::Direct);
        out.entry_map.add(t, EntrySite::CoveredByCache { cache });
    }
    out.summary.push(format!(
        "cache over {:?} (node {cache})",
        tables
            .iter()
            .map(|id| {
                out.graph
                    .node(*id)
                    .map(|n| n.name().to_owned())
                    .unwrap_or_else(|| id.to_string())
            })
            .collect::<Vec<_>>()
    ));
    Ok(cache)
}

/// Materializes and inserts a merged table for `tables`.
#[allow(clippy::too_many_arguments)]
fn insert_merge(
    out: &mut AppliedPlan,
    tables: &[NodeId],
    seg_head: NodeId,
    seg_exit: Option<NodeId>,
    as_cache: bool,
    model: &CostModel,
    profile: &RuntimeProfile,
    cfg: &OptimizerConfig,
) -> Result<NodeId, IrError> {
    let ctx = EvalCtx {
        model,
        cfg,
        g: &out.graph,
        profile,
        reach: 1.0,
    };
    let merged = merge::materialize(&ctx, tables, as_cache).map_err(IrError::Invalid)?;
    let next = if as_cache {
        merged.as_cache_hops(seg_head, seg_exit)
    } else {
        NextHops::Always(seg_exit)
    };
    let node = out.graph.add_node(NodeKind::Table(merged.table), next);
    retarget_except(&mut out.graph, seg_head, node, &[node]);
    out.counter_map.add_synthetic(node);
    for (i, components) in merged.action_map.iter().enumerate() {
        out.counter_map.add_mapping((node, i), components.clone());
    }
    for &t in tables {
        if as_cache {
            out.entry_map.add(t, EntrySite::Direct);
        }
        out.entry_map.add(
            t,
            EntrySite::MergedInto {
                merged: node,
                components: tables.to_vec(),
                as_cache,
                hit_exit: seg_exit,
            },
        );
    }
    if !as_cache {
        // The originals are fully replaced.
        for &t in tables {
            out.graph.remove_node(t);
        }
    }
    out.summary.push(format!(
        "merge{} of {:?} into node {node}",
        if as_cache { " (as cache)" } else { "" },
        tables
    ));
    Ok(node)
}

/// Applies a pipelet-group cache: one flow cache in front of the group's
/// branch, covering every member table; hits jump to the group exit.
fn apply_group_cache(
    out: &mut AppliedPlan,
    branch: NodeId,
    cand: &Candidate,
    cache_seq: &mut usize,
) -> Result<(), IrError> {
    // Cache key: the branch's read fields plus all member match fields.
    let mut sets = vec![RwSets::of_node(out.graph.expect_node(branch)?)];
    for &id in &cand.order {
        sets.push(RwSets::of_node(out.graph.expect_node(id)?));
    }
    let key_fields = pipeleon_ir::DependencyAnalysis::segment_key_fields(&sets);
    let exit = group_exit(&out.graph, branch, &cand.order);
    let branch_name = out
        .graph
        .node(branch)
        .map(|n| n.name().to_owned())
        .unwrap_or_default();
    let mut table = Table::new(cache_name(cache_seq, &format!("group_{branch_name}")));
    table.keys = key_fields
        .into_iter()
        .map(|field| MatchKey {
            field,
            kind: MatchKind::Exact,
        })
        .collect();
    table.actions = vec![Action::nop("hit"), Action::nop("miss")];
    table.default_action = 1;
    table.cache_role = CacheRole::FlowCache;
    table.max_entries = Some(CACHE_CAPACITY);
    let cache = out.graph.add_node(
        NodeKind::Table(table),
        NextHops::ByAction(vec![exit, Some(branch)]),
    );
    retarget_except(&mut out.graph, branch, cache, &[cache]);
    out.counter_map.add_synthetic(cache);
    out.cache_nodes.push(cache);
    for &t in &cand.order {
        out.entry_map.add(t, EntrySite::Direct);
        out.entry_map.add(t, EntrySite::CoveredByCache { cache });
    }
    out.summary
        .push(format!("group cache over branch {branch} (node {cache})"));
    Ok(())
}

/// The node all traffic of a group converges to: the first non-member
/// target reachable from the branch arms.
fn group_exit(g: &ProgramGraph, branch: NodeId, members: &[NodeId]) -> Option<NodeId> {
    let member_set: HashSet<NodeId> = members.iter().copied().collect();
    let mut cur = match g.node(branch).map(|n| n.next.targets()) {
        Some(t) => t.into_iter().flatten().next(),
        None => None,
    };
    while let Some(id) = cur {
        if !member_set.contains(&id) {
            return Some(id);
        }
        cur = match g.node(id).map(|n| n.next.targets()) {
            Some(t) => t.into_iter().flatten().next(),
            None => None,
        };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Segment;
    use pipeleon_cost::{CostParams, CACHE_INSERTION_RATE};
    use pipeleon_ir::{MatchValue, Primitive, ProgramBuilder, TableEntry};

    fn fixture() -> (ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for i in 0..4 {
            let f = b.field(&format!("f{i}"));
            ids.push(
                b.table(format!("t{i}"))
                    .key(f, MatchKind::Exact)
                    .action("a", vec![Primitive::Nop])
                    .action_nop("miss")
                    .default_action(1)
                    .entry(TableEntry::new(vec![MatchValue::Exact(i as u64)], 0))
                    .finish(),
            );
        }
        (b.seal(ids[0]).unwrap(), ids)
    }

    fn plan_with(cand: Candidate) -> GlobalPlan {
        GlobalPlan {
            total_gain: cand.gain,
            total_mem: cand.mem_cost,
            total_update: cand.update_cost,
            choices: vec![cand],
        }
    }

    fn deps() -> (CostModel, RuntimeProfile, OptimizerConfig) {
        (
            CostModel::new(CostParams::bluefield2()),
            RuntimeProfile::empty(),
            OptimizerConfig::default(),
        )
    }

    #[test]
    fn reorder_rewires_chain_and_root() {
        let (g, ids) = fixture();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: vec![ids[2], ids[0], ids[1], ids[3]],
            segments: vec![],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        assert_eq!(applied.graph.root(), Some(ids[2]));
        let order = applied.graph.topo_order().unwrap();
        assert_eq!(order, vec![ids[2], ids[0], ids[1], ids[3]]);
        applied.graph.validate().unwrap();
    }

    #[test]
    fn cache_insertion_wires_hit_and_miss() {
        let (g, ids) = fixture();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: ids.clone(),
            segments: vec![Segment {
                start: 1,
                end: 3,
                kind: SegmentKind::Cache,
            }],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        assert_eq!(applied.cache_nodes.len(), 1);
        let cache = applied.cache_nodes[0];
        // t0 -> cache; cache hit -> t3; cache miss -> t1 -> t2 -> t3.
        let t0 = applied.graph.node(ids[0]).unwrap();
        assert_eq!(t0.next, NextHops::Always(Some(cache)));
        let c = applied.graph.node(cache).unwrap();
        assert_eq!(c.next, NextHops::ByAction(vec![Some(ids[3]), Some(ids[1])]));
        // Cache key = union of t1/t2 key fields.
        assert_eq!(c.as_table().unwrap().keys.len(), 2);
        assert!(applied.counter_map.synthetic.contains(&cache));
        // Entry routing: t1 updates must flush the cache.
        let sites = applied.entry_map.sites(ids[1]);
        assert!(sites.contains(&EntrySite::CoveredByCache { cache }));
        assert!(sites.contains(&EntrySite::Direct));
        applied.graph.validate().unwrap();
    }

    /// A planned cache holds no more entries on the datapath than the
    /// capacity its memory cost was priced at.
    #[test]
    fn planned_cache_holds_at_most_its_priced_capacity() {
        let (g, ids) = fixture();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: ids.clone(),
            segments: vec![Segment {
                start: 1,
                end: 3,
                kind: SegmentKind::Cache,
            }],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        let cache = applied.cache_nodes[0];
        let table = applied.graph.node(cache).unwrap().as_table().unwrap();
        assert_eq!(table.max_entries, Some(CACHE_CAPACITY));
        let key = g.node(ids[1]).unwrap().as_table().unwrap().keys[0].field;
        let mut ex = pipeleon_sim::Executor::new(
            applied.graph,
            model.params,
            pipeleon_sim::EngineMode::Compiled,
        )
        .unwrap();
        // Distinct flows, spaced so the insertion limiter never refuses one.
        for flow in 0..CACHE_CAPACITY as u64 + 1_000 {
            let mut pkt = pipeleon_sim::Packet::new(&g.fields);
            pkt.set(key, flow);
            ex.now_s = flow as f64 / (CACHE_INSERTION_RATE / 2.0);
            ex.process(&mut pkt);
        }
        assert_eq!(ex.cache_len(cache), CACHE_CAPACITY);
    }

    #[test]
    fn plain_merge_replaces_tables() {
        let (g, ids) = fixture();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: ids.clone(),
            segments: vec![Segment {
                start: 0,
                end: 2,
                kind: SegmentKind::Merge { as_cache: false },
            }],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        // Originals are gone; the merged node is the new root.
        assert!(applied.graph.node(ids[0]).is_none());
        assert!(applied.graph.node(ids[1]).is_none());
        let root = applied.graph.root().unwrap();
        let merged = applied.graph.node(root).unwrap();
        assert!(merged.name().starts_with("merge_"));
        assert_eq!(merged.next, NextHops::Always(Some(ids[2])));
        // Counter map translates merged actions back to originals.
        let mut opt_profile = RuntimeProfile::empty();
        // Find the both-hit action via the highest-priority entry.
        let t = merged.as_table().unwrap();
        let best = t.entries.iter().max_by_key(|e| e.priority).unwrap();
        opt_profile.record_action(root, best.action, 42);
        let orig = applied.counter_map.translate(&opt_profile);
        assert_eq!(orig.action_count(ids[0], 0), 42);
        assert_eq!(orig.action_count(ids[1], 0), 42);
        applied.graph.validate().unwrap();
    }

    #[test]
    fn merge_as_cache_keeps_originals() {
        let (g, ids) = fixture();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: ids.clone(),
            segments: vec![Segment {
                start: 0,
                end: 2,
                kind: SegmentKind::Merge { as_cache: true },
            }],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        assert!(applied.graph.node(ids[0]).is_some());
        let root = applied.graph.root().unwrap();
        let merged = applied.graph.node(root).unwrap();
        let t = merged.as_table().unwrap();
        assert_eq!(t.cache_role, CacheRole::MergedCache);
        // Miss falls through to t0; hits jump to t2.
        match &merged.next {
            NextHops::ByAction(v) => {
                assert_eq!(v[t.default_action], Some(ids[0]));
                assert!(v
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != t.default_action)
                    .all(|(_, t)| *t == Some(ids[2])));
            }
            other => panic!("unexpected next {other:?}"),
        }
        applied.graph.validate().unwrap();
    }

    #[test]
    fn combined_reorder_cache_and_merge() {
        let (g, ids) = fixture();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            // Reorder t3 to the front, then merge (t3,t0) and cache (t1,t2).
            order: vec![ids[3], ids[0], ids[1], ids[2]],
            segments: vec![
                Segment {
                    start: 0,
                    end: 2,
                    kind: SegmentKind::Merge { as_cache: true },
                },
                Segment {
                    start: 2,
                    end: 4,
                    kind: SegmentKind::Cache,
                },
            ],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        applied.graph.validate().unwrap();
        // Root is the merged node; its hit target is the cache.
        let root = applied.graph.root().unwrap();
        let merged = applied.graph.node(root).unwrap();
        assert!(merged.name().starts_with("merge_"));
        let cache = applied.cache_nodes[0];
        match &merged.next {
            NextHops::ByAction(v) => {
                let t = merged.as_table().unwrap();
                assert_eq!(v[t.default_action], Some(ids[3]));
                assert!(v
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != t.default_action)
                    .all(|(_, tgt)| *tgt == Some(cache)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reorder_of_multi_predecessor_pipelet_rewires_all_preds() {
        use pipeleon_ir::Condition;
        // Two branch arms converge on a 3-table join pipelet; reordering
        // the join must retarget both arms (and keep semantics).
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let mut join = Vec::new();
        for i in 0..3 {
            let fi = b.field(&format!("j{i}"));
            join.push(
                b.table(format!("join{i}"))
                    .key(fi, MatchKind::Exact)
                    .action("a", vec![Primitive::Nop])
                    .action_nop("miss")
                    .default_action(1)
                    .finish(),
            );
        }
        for w in join.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(join[2], None);
        let l = b.table("l").key(f, MatchKind::Exact).finish();
        b.set_next(l, Some(join[0]));
        let r = b.table("r").key(f, MatchKind::Exact).finish();
        b.set_next(r, Some(join[0]));
        let br = b.branch("br", Condition::lt(f, 5), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: vec![join[2], join[0], join[1]],
            segments: vec![],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        applied.graph.validate().unwrap();
        // Both arms now enter the new head join2.
        assert_eq!(
            applied.graph.node(l).unwrap().next,
            NextHops::Always(Some(join[2]))
        );
        assert_eq!(
            applied.graph.node(r).unwrap().next,
            NextHops::Always(Some(join[2]))
        );
        // And the chain is join2 -> join0 -> join1 -> sink.
        assert_eq!(
            applied.graph.node(join[2]).unwrap().next,
            NextHops::Always(Some(join[0]))
        );
        assert_eq!(
            applied.graph.node(join[1]).unwrap().next,
            NextHops::Always(None)
        );
    }

    #[test]
    fn group_cache_fronts_branch() {
        use pipeleon_ir::Condition;
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let join = b.table("join").key(f, MatchKind::Exact).finish();
        b.set_next(join, None);
        let l = b.table("l").key(f, MatchKind::Exact).finish();
        b.set_next(l, Some(join));
        let r = b.table("r").key(f, MatchKind::Exact).finish();
        b.set_next(r, Some(join));
        let br = b.branch("br", Condition::eq(f, 1), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        let (model, profile, cfg) = deps();
        let cand = Candidate {
            pipelet: 0,
            order: vec![l, r],
            segments: vec![],
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: Some(br),
        };
        let applied = apply_plan(&g, &plan_with(cand), &model, &profile, &cfg).unwrap();
        let cache = applied.cache_nodes[0];
        assert_eq!(applied.graph.root(), Some(cache));
        let c = applied.graph.node(cache).unwrap();
        assert_eq!(c.next, NextHops::ByAction(vec![Some(join), Some(br)]));
        applied.graph.validate().unwrap();
    }
}
