//! The end-to-end optimization search (§4.2, Appendix A.1).
//!
//! `LocalOptimize`: per top-k pipelet, enumerate valid
//! reorder × cache × merge combinations and score them. `GlobalOptimize`:
//! pick at most one candidate per pipelet under the resource limits with
//! the group-knapsack DP. Pipelet groups (cross-pipelet caching, §4.1.1 /
//! §5.4.4) are folded in by a deterministic pre-pass: when a group
//! candidate beats the sum of its members' best individual candidates, it
//! replaces them.

use crate::apply::{apply_plan, AppliedPlan};
use crate::config::{OptimizerConfig, ResourceLimits};
use crate::hotspot::{score_pipelets, top_k};
use crate::knapsack;
use crate::opts::{cache, enumerate_candidates, EvalCtx, TableTerms};
use crate::pipelet::{find_groups, partition, Pipelet, PipeletGroup};
use crate::plan::{Candidate, GlobalPlan};
use pipeleon_cost::{CostModel, RuntimeProfile};
use pipeleon_ir::{IrError, NodeId, ProgramGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on candidates kept per pipelet for the knapsack stage.
const MAX_CANDIDATES_PER_PIPELET: usize = 64;

/// Pipelets longer than this are split (§4.1.1 "partition long
/// pipelets"), which also bounds candidate enumeration.
pub(crate) const MAX_PIPELET_LEN: usize = 24;

/// Per-pipelet candidate cache for [`Optimizer::optimize_incremental`].
///
/// Keyed by pipelet id; an entry is valid while the pipelet's member
/// tables and local-profile signature are unchanged. In-memory only (the
/// signature hash is not stable across processes).
#[derive(Debug, Default)]
pub struct IncrementalState {
    entries: std::collections::HashMap<usize, CachedPipelet>,
}

#[derive(Debug)]
struct CachedPipelet {
    tables: Vec<NodeId>,
    signature: u64,
    /// Shared with the searches that reuse the entry.
    candidates: Arc<[Candidate]>,
}

impl IncrementalState {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached pipelet entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all cached entries (e.g. after the original program changed
    /// structurally).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn lookup(
        &self,
        pipelet: usize,
        tables: &[NodeId],
        signature: u64,
    ) -> Option<Arc<[Candidate]>> {
        let e = self.entries.get(&pipelet)?;
        (e.tables == tables && e.signature == signature).then(|| Arc::clone(&e.candidates))
    }

    fn store(
        &mut self,
        pipelet: usize,
        tables: Vec<NodeId>,
        signature: u64,
        candidates: Arc<[Candidate]>,
    ) {
        self.entries.insert(
            pipelet,
            CachedPipelet {
                tables,
                signature,
                candidates,
            },
        );
    }
}

/// Hashes the parts of the profile a pipelet's candidates depend on:
/// member entry counts, quantized reach, action distributions, update
/// rates, distinct-key estimates, the measured cache hit rates over member
/// tables only, and the packet rate (a cache's insertion cost).
fn pipelet_signature(g: &ProgramGraph, profile: &RuntimeProfile, p: &Pipelet, reach: f64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let q = |x: f64| (x * 1000.0).round() as i64;
    q(reach).hash(&mut h);
    q(profile.packet_rate()).hash(&mut h);
    for &id in &p.tables {
        id.hash(&mut h);
        if let Some(t) = g.node(id).and_then(|n| n.as_table()) {
            t.entries.len().hash(&mut h);
        }
        for prob in profile.action_probs(g, id) {
            q(prob).hash(&mut h);
        }
        q(profile.entry_update_rate(id)).hash(&mut h);
        profile.distinct_keys_of(id).hash(&mut h);
    }
    // Sorted: `HashMap` iteration order differs between runs.
    let mut hints: Vec<(&Vec<NodeId>, i64)> = profile
        .cache_hit_hints
        .iter()
        .filter(|(tables, _)| tables.iter().all(|t| p.tables.contains(t)))
        .map(|(tables, &rate)| (tables, q(rate)))
        .collect();
    hints.sort();
    hints.hash(&mut h);
    h.finish()
}

/// Everything the search produced, for inspection and deployment.
#[derive(Debug)]
pub struct OptimizationOutcome {
    /// The rewritten program plus counter/entry maps.
    pub applied: AppliedPlan,
    /// The chosen plan (pre-application).
    pub plan: GlobalPlan,
    /// Total candidates evaluated across pipelets (search effort, after
    /// safety filtering).
    pub candidates_evaluated: usize,
    /// Candidates discarded because the plan-safety verifier could not
    /// prove them legal (always 0 unless enumeration produced an unsound
    /// rewrite — the verifier is the backstop, not the generator).
    pub candidates_rejected: usize,
    /// Candidates served from the incremental cache instead of
    /// re-enumerated (always 0 for [`Optimizer::optimize`]).
    pub candidates_reused: usize,
    /// Distinct cache/merge segments scored while enumerating (merge
    /// materializations included): the search's work as a count that
    /// repeats exactly, where its wall-clock time cannot.
    pub segment_evals: usize,
    /// Estimated expected-latency reduction (ns/packet).
    pub est_gain_ns: f64,
    /// Wall-clock search time (excluding apply).
    pub search_time: Duration,
}

/// The Pipeleon optimizer: cost model + tunables.
///
/// ```
/// use pipeleon::{Optimizer, ResourceLimits};
/// use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
/// use pipeleon_ir::{MatchKind, ProgramBuilder};
///
/// // A two-table program whose second table drops 90% of traffic.
/// let mut b = ProgramBuilder::new();
/// let f = b.field("x");
/// let work = b
///     .table("work")
///     .key(f, MatchKind::Exact)
///     .action("a", vec![pipeleon_ir::Primitive::Nop])
///     .finish();
/// let acl_key = b.field("acl.key");
/// let acl = b
///     .table("acl")
///     .key(acl_key, MatchKind::Exact)
///     .action_nop("permit")
///     .action_drop("deny")
///     .finish();
/// let program = b.seal(work).unwrap();
///
/// let mut profile = RuntimeProfile::empty();
/// profile.record_action(acl, 0, 100);
/// profile.record_action(acl, 1, 900);
///
/// let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
/// let outcome = optimizer
///     .optimize(&program, &profile, ResourceLimits::unlimited())
///     .unwrap();
/// // A profitable rewrite was found (e.g. promoting the dropping ACL);
/// // the optimized program is valid and ships with counter/entry maps.
/// assert!(outcome.est_gain_ns > 0.0);
/// assert!(!outcome.applied.summary.is_empty());
/// outcome.applied.graph.validate().unwrap();
/// # let _ = (work, acl);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    /// The target cost model.
    pub model: CostModel,
    /// Search configuration.
    pub cfg: OptimizerConfig,
}

impl Optimizer {
    /// An optimizer with default configuration.
    pub fn new(model: CostModel) -> Self {
        Self {
            model,
            cfg: OptimizerConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, cfg: OptimizerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The exhaustive-search baseline: identical search with `k = 100%`.
    pub fn esearch(mut self) -> Self {
        self.cfg.top_k_fraction = 1.0;
        self
    }

    /// Runs the full search and applies the winning plan.
    pub fn optimize(
        &self,
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        limits: ResourceLimits,
    ) -> Result<OptimizationOutcome, IrError> {
        self.optimize_inner(g, profile, limits, None)
    }

    /// Incremental variant (§6 "compile and deploy updates incrementally"):
    /// per-pipelet candidate lists are cached in `state` keyed by a
    /// signature of the pipelet's local profile (reach, action
    /// distributions, update rates, entry counts); unchanged pipelets skip
    /// enumeration entirely.
    pub fn optimize_incremental(
        &self,
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        limits: ResourceLimits,
        state: &mut IncrementalState,
    ) -> Result<OptimizationOutcome, IrError> {
        self.optimize_inner(g, profile, limits, Some(state))
    }

    fn optimize_inner(
        &self,
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        limits: ResourceLimits,
        mut state: Option<&mut IncrementalState>,
    ) -> Result<OptimizationOutcome, IrError> {
        let started = Instant::now();
        g.validate()?;
        let verifier = pipeleon_verify::PlanVerifier::new(g);
        let pipelets = partition(g, MAX_PIPELET_LEN);
        let scores = score_pipelets(&self.model, g, profile, &pipelets);
        let selected = top_k(&scores, self.cfg.top_k_fraction);
        let visits = profile.visit_probabilities(g);

        // LocalOptimize: candidates per selected pipelet.
        let mut groups: Vec<Arc<[Candidate]>> = Vec::new();
        let mut group_of_pipelet: Vec<Option<usize>> = vec![None; pipelets.len()];
        let mut candidates_evaluated = 0usize;
        let mut candidates_reused = 0usize;
        let mut candidates_rejected = 0usize;
        let mut segment_evals = 0usize;
        for &pid in &selected {
            let p = &pipelets[pid];
            if p.switch_case {
                continue;
            }
            let reach = visits.get(p.entry().index()).copied().unwrap_or(0.0);
            let ctx = EvalCtx {
                model: &self.model,
                cfg: &self.cfg,
                g,
                profile,
                reach,
            };
            let signature = state
                .as_ref()
                .map(|_| pipelet_signature(g, profile, p, reach));
            let cached = match (&state, signature) {
                (Some(s), Some(sig)) => s.lookup(pid, &p.tables, sig),
                _ => None,
            };
            let cands = match cached {
                Some(c) => {
                    candidates_reused += c.len();
                    c
                }
                None => {
                    let (mut cands, evals) =
                        enumerate_candidates(&ctx, pid, &p.tables, MAX_CANDIDATES_PER_PIPELET);
                    segment_evals += evals;
                    // Safety gate: only candidates the verifier can prove
                    // legal survive (and get cached for reuse).
                    let enumerated = cands.len();
                    cands.retain(|c| verifier.verify(g, c).legal);
                    candidates_rejected += enumerated - cands.len();
                    candidates_evaluated += cands.len();
                    let cands: Arc<[Candidate]> = cands.into();
                    if let (Some(s), Some(sig)) = (&mut state, signature) {
                        s.store(pid, p.tables.clone(), sig, Arc::clone(&cands));
                    }
                    cands
                }
            };
            if !cands.is_empty() {
                group_of_pipelet[pid] = Some(groups.len());
                groups.push(cands);
            }
        }

        // Pipelet-group pre-pass: replace member groups when the joint
        // cache wins.
        if self.cfg.enable_groups {
            for pg in find_groups(g, &pipelets) {
                // A group is considered when it contains at least one hot
                // pipelet; the joint cache then pulls in the neighboring
                // arms and the join (§4.1.1's "larger code block").
                if !pg.members.iter().any(|m| selected.contains(m)) {
                    continue;
                }
                let Some(gc) = self.group_candidate(g, profile, &pipelets, &pg, &visits) else {
                    continue;
                };
                if !verifier.verify(g, &gc).legal {
                    candidates_rejected += 1;
                    continue;
                }
                candidates_evaluated += 1;
                // The group cache absorbs the member pipelets *and* the
                // common join pipelet (its tables are covered too), so all
                // of their individual candidates conflict with it.
                let mut absorbed: Vec<usize> = pg.members.clone();
                if let Some(exit) = pg.exit {
                    if let Some(jp) = pipelets
                        .iter()
                        .find(|p| !p.switch_case && p.entry() == exit)
                    {
                        absorbed.push(jp.id);
                    }
                }
                let member_best: f64 = absorbed
                    .iter()
                    .filter_map(|&m| group_of_pipelet[m])
                    .filter_map(|gi| {
                        groups[gi]
                            .iter()
                            .map(|c| c.gain)
                            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
                    })
                    .sum();
                if gc.gain > member_best {
                    // Disable the absorbed groups and add the group choice.
                    for &m in &absorbed {
                        if let Some(gi) = group_of_pipelet[m] {
                            groups[gi] = Arc::new([]);
                        }
                    }
                    groups.push(Arc::new([gc]));
                }
            }
        }

        // GlobalOptimize.
        let plan = knapsack::solve(&groups, limits);
        let search_time = started.elapsed();
        let applied = apply_plan(g, &plan, &self.model, profile, &self.cfg)?;
        Ok(OptimizationOutcome {
            est_gain_ns: plan.total_gain,
            applied,
            plan,
            candidates_evaluated,
            candidates_reused,
            candidates_rejected,
            segment_evals,
            search_time,
        })
    }

    /// Builds the joint-cache candidate for a pipelet group: one flow
    /// cache keyed on the branch + member fields, fronting the branch.
    fn group_candidate(
        &self,
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        pipelets: &[Pipelet],
        pg: &PipeletGroup,
        visits: &[f64],
    ) -> Option<Candidate> {
        let reach = visits.get(pg.branch.index()).copied().unwrap_or(0.0);
        if reach <= 0.0 {
            return None;
        }
        let mut member_tables: Vec<NodeId> = pg
            .members
            .iter()
            .flat_map(|&m| pipelets[m].tables.iter().copied())
            .collect();
        let ctx = EvalCtx {
            model: &self.model,
            cfg: &self.cfg,
            g,
            profile,
            reach,
        };
        // The group's common join pipelet extends the cached code block
        // ("several pipelets … form a larger code block with a common
        // branch node", §4.1.1) when it is an ordinary cacheable chain.
        let join_pipelet = pg.exit.and_then(|exit| {
            pipelets
                .iter()
                .find(|p| !p.switch_case && p.entry() == exit)
        });
        if let Some(jp) = join_pipelet {
            member_tables.extend(jp.tables.iter().copied());
        }
        // Every member table must be individually cacheable.
        let terms = TableTerms::of_each(&ctx, &member_tables);
        let members: Vec<&TableTerms> = terms.iter().collect();
        if !members.iter().all(|t| cache::segment_allowed(&[t])) {
            return None;
        }
        // Region latency: branch + probability-weighted arm chains + the
        // join chain (conditioned on reaching it, i.e. surviving an arm).
        let branch_cost = self.model.node_cost(g, pg.branch, profile);
        let slot_probs = profile.slot_probs(g, pg.branch);
        let targets = g.node(pg.branch)?.next.targets();
        let mut region = branch_cost;
        let mut replay = 0.0;
        let mut join_reach = 0.0;
        for (slot, target) in targets.iter().enumerate() {
            let p = slot_probs.get(slot).copied().unwrap_or(0.0);
            let Some(t) = target else { continue };
            // The arm either enters a member pipelet or bypasses.
            if let Some(m) = pg.members.iter().find(|&&m| pipelets[m].entry() == *t) {
                region += p * ctx.sequence_latency(&pipelets[*m].tables);
                let mut survive = 1.0;
                for &id in &pipelets[*m].tables {
                    replay += p * survive * ctx.action_cost(id);
                    survive *= 1.0 - ctx.drop_rate(id);
                }
                join_reach += p * survive;
            } else {
                // Bypass arm goes straight to the join.
                join_reach += p;
            }
        }
        if let Some(jp) = join_pipelet {
            region += join_reach * ctx.sequence_latency(&jp.tables);
            let mut survive = join_reach;
            for &id in &jp.tables {
                replay += survive * ctx.action_cost(id);
                survive *= 1.0 - ctx.drop_rate(id);
            }
        }
        let h = cache::estimated_hit_rate(&ctx, &members);
        let params = &self.model.params;
        let cached = params.l_mat + h * replay + (1.0 - h) * (region + params.l_cache_insert);
        let gain = reach * (region - cached);
        if gain <= 0.0 {
            return None;
        }
        let (mem, upd) = cache::costs(&ctx, h);
        Some(Candidate {
            pipelet: *pg.members.first()?,
            order: member_tables,
            segments: Vec::new(),
            gain,
            mem_cost: mem,
            update_cost: upd,
            group_branch: Some(pg.branch),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{EdgeRef, MatchKind, MatchValue, ProgramBuilder, TableEntry};

    #[test]
    fn incremental_reuses_unchanged_pipelets() {
        use pipeleon_workloads::synth::{synthesize, SynthConfig};
        let g = synthesize(&SynthConfig {
            pipelets: 8,
            pipelet_len: 3,
            seed: 42,
            ..SynthConfig::default()
        });
        let profile = pipeleon_workloads::profiles::random_profile(
            &g,
            &pipeleon_workloads::profiles::ProfileSynthConfig::default(),
            7,
        );
        let opt = Optimizer::new(CostModel::new(CostParams::emulated_nic())).esearch();
        let mut state = IncrementalState::new();
        let first = opt
            .optimize_incremental(&g, &profile, ResourceLimits::unlimited(), &mut state)
            .unwrap();
        assert_eq!(first.candidates_reused, 0);
        assert!(first.candidates_evaluated > 0);
        assert!(first.segment_evals > 0);
        // Identical profile: everything reuses, same plan.
        let second = opt
            .optimize_incremental(&g, &profile, ResourceLimits::unlimited(), &mut state)
            .unwrap();
        assert_eq!(second.candidates_evaluated, 0);
        assert_eq!(second.segment_evals, 0);
        assert_eq!(second.candidates_reused, first.candidates_evaluated);
        assert_eq!(second.plan, first.plan);
        assert!(second.search_time <= first.search_time);
        // Perturb one branch's split: only affected pipelets recompute.
        let mut p2 = profile.clone();
        let branch = g
            .iter_nodes()
            .find(|n| n.as_branch().is_some())
            .map(|n| n.id);
        if let Some(b) = branch {
            p2.record_edge(EdgeRef::new(b, 0), 5_000_000);
            let third = opt
                .optimize_incremental(&g, &p2, ResourceLimits::unlimited(), &mut state)
                .unwrap();
            assert!(
                third.candidates_evaluated < first.candidates_evaluated,
                "only downstream pipelets should recompute: {} vs {}",
                third.candidates_evaluated,
                first.candidates_evaluated
            );
        }
        // The non-incremental path reports zero reuse.
        let plain = opt
            .optimize(&g, &profile, ResourceLimits::unlimited())
            .unwrap();
        assert_eq!(plain.candidates_reused, 0);
    }

    /// A measured cache hit rate and the packet rate are search inputs too:
    /// when only they change, the incremental search must not serve
    /// candidates scored from the old values.
    #[test]
    fn incremental_search_equals_full_search_after_a_cache_hint() {
        use crate::plan::SegmentKind;
        use pipeleon_workloads::synth::{synthesize, SynthConfig};
        let g = synthesize(&SynthConfig {
            pipelets: 8,
            pipelet_len: 3,
            seed: 42,
            ..SynthConfig::default()
        });
        let mut profile = pipeleon_workloads::profiles::random_profile(
            &g,
            &pipeleon_workloads::profiles::ProfileSynthConfig::default(),
            7,
        );
        let opt = Optimizer::new(CostModel::new(CostParams::emulated_nic())).esearch();
        let limits = ResourceLimits::unlimited();
        let mut state = IncrementalState::new();
        let first = opt
            .optimize_incremental(&g, &profile, limits, &mut state)
            .unwrap();
        // The cache the plan deploys turns out to miss every time.
        let (c, s) = first
            .plan
            .choices
            .iter()
            .find_map(|c| {
                let s = c.segments.iter().find(|s| s.kind == SegmentKind::Cache)?;
                Some((c, s))
            })
            .expect("the plan caches something");
        profile.set_cache_hint(c.order[s.start..s.end].to_vec(), 0.0);
        let incremental = opt
            .optimize_incremental(&g, &profile, limits, &mut state)
            .unwrap();
        let full = opt.optimize(&g, &profile, limits).unwrap();
        assert_ne!(full.plan, first.plan);
        assert_eq!(incremental.plan, full.plan);
        // Twice the packet rate doubles every cache's insertion cost.
        profile.total_packets *= 2;
        let incremental = opt
            .optimize_incremental(&g, &profile, limits, &mut state)
            .unwrap();
        let full = opt.optimize(&g, &profile, limits).unwrap();
        assert_eq!(incremental.plan, full.plan);
    }

    /// A drop-heavy ACL at the end of a chain: reordering must promote it.
    fn acl_last_program() -> (ProgramGraph, Vec<NodeId>, RuntimeProfile) {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for i in 0..3 {
            let f = b.field(&format!("f{i}"));
            ids.push(
                b.table(format!("proc{i}"))
                    .key(f, MatchKind::Exact)
                    .action_nop("go")
                    .finish(),
            );
        }
        let facl = b.field("acl_key");
        let acl = b
            .table("acl")
            .key(facl, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 1))
            .finish();
        ids.push(acl);
        let g = b.seal(ids[0]).unwrap();
        let mut prof = RuntimeProfile::empty();
        prof.total_packets = 1000;
        prof.record_action(acl, 0, 250);
        prof.record_action(acl, 1, 750); // 75% drop
        (g, ids, prof)
    }

    #[test]
    fn optimizer_promotes_dropping_acl() {
        let (g, ids, prof) = acl_last_program();
        let model = CostModel::new(CostParams::bluefield2());
        let opt = Optimizer::new(model.clone());
        let out = opt
            .optimize(&g, &prof, ResourceLimits::unlimited())
            .unwrap();
        assert!(out.est_gain_ns > 0.0);
        // The optimized program must run the ACL first.
        assert_eq!(out.applied.graph.root(), Some(ids[3]));
        // And the expected latency must drop.
        let before = model.expected_latency(&g, &prof);
        let after = model.expected_latency(&out.applied.graph, &prof);
        assert!(after < before, "before={before} after={after}");
    }

    #[test]
    fn esearch_gain_at_least_topk_gain() {
        let (g, _, prof) = acl_last_program();
        let model = CostModel::new(CostParams::bluefield2());
        let topk = Optimizer::new(model.clone())
            .with_config(OptimizerConfig {
                top_k_fraction: 0.25,
                ..OptimizerConfig::default()
            })
            .optimize(&g, &prof, ResourceLimits::unlimited())
            .unwrap();
        let esearch = Optimizer::new(model)
            .esearch()
            .optimize(&g, &prof, ResourceLimits::unlimited())
            .unwrap();
        assert!(esearch.est_gain_ns >= topk.est_gain_ns - 1e-9);
        assert!(esearch.candidates_evaluated >= topk.candidates_evaluated);
    }

    #[test]
    fn zero_budget_yields_reorder_only_plans() {
        let (g, _, prof) = acl_last_program();
        let model = CostModel::new(CostParams::bluefield2());
        let out = Optimizer::new(model)
            .optimize(&g, &prof, ResourceLimits::new(0.0, 0.0))
            .unwrap();
        // Caches/merges cost memory; with zero budget only reordering
        // (zero-cost) survives.
        for c in &out.plan.choices {
            assert_eq!(c.mem_cost, 0.0, "{c:?}");
            assert!(c.segments.is_empty());
        }
        assert!(out.applied.cache_nodes.is_empty());
    }

    #[test]
    fn optimized_graph_always_validates() {
        use pipeleon_workloads::synth::{synthesize, SynthConfig};
        let model = CostModel::new(CostParams::emulated_nic());
        for seed in 0..10 {
            let g = synthesize(&SynthConfig {
                pipelets: 6,
                pipelet_len: 3,
                seed,
                ..SynthConfig::default()
            });
            let prof = pipeleon_workloads::profiles::random_profile(
                &g,
                &pipeleon_workloads::profiles::ProfileSynthConfig::default(),
                seed,
            );
            let out = Optimizer::new(model.clone())
                .optimize(&g, &prof, ResourceLimits::unlimited())
                .unwrap();
            out.applied.graph.validate().unwrap();
            // Gains are never negative.
            assert!(out.est_gain_ns >= 0.0);
        }
    }

    #[test]
    fn generator_and_verifier_agree_on_synth_programs() {
        // The safety gate is a backstop: enumeration should never produce
        // a candidate the verifier rejects, across a seed sweep.
        use pipeleon_workloads::synth::{synthesize, SynthConfig};
        let model = CostModel::new(CostParams::emulated_nic());
        for seed in 0..8 {
            let g = synthesize(&SynthConfig {
                pipelets: 6,
                pipelet_len: 4,
                seed,
                ..SynthConfig::default()
            });
            let prof = pipeleon_workloads::profiles::random_profile(
                &g,
                &pipeleon_workloads::profiles::ProfileSynthConfig::default(),
                seed,
            );
            let out = Optimizer::new(model.clone())
                .esearch()
                .optimize(&g, &prof, ResourceLimits::unlimited())
                .unwrap();
            assert_eq!(out.candidates_rejected, 0, "seed {seed}: {:?}", out.plan);
            // Every *chosen* candidate re-verifies independently.
            let verifier = pipeleon_verify::PlanVerifier::new(&g);
            for c in &out.plan.choices {
                let verdict = verifier.verify(&g, c);
                assert!(verdict.legal, "seed {seed}: {}", verdict.render());
            }
        }
    }

    #[test]
    fn group_candidate_replaces_weak_members() {
        use pipeleon_ir::Condition;
        // Diamond of single-table pipelets: individually cacheable with
        // tiny gain; jointly worth more when traffic is localized.
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let fl = b.field("l");
        let fr = b.field("r");
        let join = b.table("join").key(f, MatchKind::Ternary).finish();
        b.set_next(join, None);
        let l = b.table("l").key(fl, MatchKind::Ternary).finish();
        b.set_next(l, Some(join));
        let r = b.table("r").key(fr, MatchKind::Ternary).finish();
        b.set_next(r, Some(join));
        let br = b.branch("br", Condition::lt(f, 500), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        let model = CostModel::new(CostParams::emulated_nic());
        let prof = RuntimeProfile::empty();
        let out = Optimizer::new(model)
            .with_config(OptimizerConfig {
                top_k_fraction: 1.0,
                ..OptimizerConfig::default()
            })
            .optimize(&g, &prof, ResourceLimits::unlimited())
            .unwrap();
        out.applied.graph.validate().unwrap();
        // Either a group cache fronting the branch or per-pipelet caches;
        // with the default estimates the group should win.
        assert!(
            out.plan.choices.iter().any(|c| c.group_branch.is_some()),
            "expected a group-cache choice, got {:?}",
            out.plan.choices
        );
    }
}
