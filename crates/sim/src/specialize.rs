//! Profile-guided specialization of the compiled datapath (Morpheus-style
//! "JIT lite").
//!
//! The verbatim `CompiledPipeline` lowering ignores everything the
//! runtime profile knows — above all, skewed match-key distributions.
//! This module turns a profile window's hot-key sketches into a
//! `SpecPlan` and applies it to a compiled arena. One pass is planned;
//! a second is derived from its result:
//!
//! 1. **Hot-key inline cache / guarded constant propagation** — when a
//!    window's key sketch shows one composed key dominating a table, bake
//!    that key and its fully pre-resolved `LookupOutcome` into the
//!    table. The guard compares the composed key with the hot key word
//!    by word, inline (`smallkey::same_key`, no library call); a hit
//!    skips every hash way and scan entry, a miss falls through to the
//!    unmodified general lookup. Because the outcome is
//!    produced by running the general path on the hot key at plan-apply
//!    time, a guard hit is bit-identical (entry, action, *and* probe
//!    count — which feeds latency accounting) to the path it replaces.
//!    The miss path is remembered too: a guarded single-field table
//!    whose general lookup probes more than one way gets a region of
//!    the walk's `LookupMemo` (`compiled.rs`), so a cold key pays the
//!    m-way sweep once and one slot probe while its slot lasts. The
//!    memo is emptied wherever a specialized lowering is installed,
//!    which is the only way the engine under a region can change.
//! 2. **Guard-run fusion** — pass 1 leaves one guard per table, so a hot
//!    packet still walks every node. A chain of consecutive guarded
//!    tables along their baked successors is resolved ahead of time and
//!    attached to its head: one deduplicated compare set and the
//!    members' latency terms, primitives and exit, in stages a packet
//!    takes as far as it answers. Never planned — derived from the
//!    arena wherever it changes (`CompiledPipeline::derive_fused_runs`),
//!    so it has no plan entry and no fingerprint input.
//!
//! Both passes are *semantics- and accounting-preserving*: the
//! interpreter and the unspecialized compiled engine remain bit-exact
//! oracles for every specialized pipeline, which is what lets specialized
//! generations publish through the live generation-swap path without any
//! new verification machinery. Only host wall-clock changes.
//!
//! De-specialization is cheap by construction: dropping the compiled
//! pipeline and re-lowering yields the verbatim arena (guards exist
//! nowhere but in the compiled artifact).

use crate::compiled::{CStep, CTableSpec, CompiledPipeline, NO_SLOT};
use crate::engine::KeyScratch;
use crate::smallkey::{same_key, SmallKey};
use pipeleon_cost::CostParams;
use pipeleon_ir::{CacheRole, NodeId, NodeKind, ProgramGraph};
use pipeleon_obs::MetricsRegistry;
use std::collections::HashMap;

/// Fraction of a window's sampled lookups the dominant key must account
/// for before a hot-key guard is worth its miss cost: a strict majority,
/// the one bar a Boyer–Moore sketch can certify.
const HOT_FRACTION: f64 = 0.5;

/// Sampled lookups per table before its sketch is trusted.
const MIN_SAMPLES: u64 = 64;

/// Host-side specialization counters, aggregated per NIC backend.
///
/// Guard hit/miss counts are *host telemetry*: on a sharded backend they
/// depend on how packets were partitioned and when plans were adopted,
/// so — unlike profiles and packet reports — they are not invariant
/// across worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Hot-key guard hits (lookups served by the inline cache).
    pub guard_hits: u64,
    /// Hot-key guard misses (fell through to the general lookup).
    pub guard_misses: u64,
    /// Guard misses answered from the walk's lookup memo instead of by
    /// the general lookup (counted in `guard_misses` too). Host
    /// telemetry like the two above: each shard has its own memo, so it
    /// is not invariant across worker counts.
    pub memo_hits: u64,
    /// Packets that took at least one stage of a fused guard run (the
    /// members of the stages taken count in `guard_hits`, as they would
    /// on the per-table walk).
    pub fused_hits: u64,
    /// Tables currently heading a fused guard run.
    pub fused_runs: u64,
    /// Specialization plans applied.
    pub specializations: u64,
    /// Reverts to the verbatim lowering (explicit, or an entry-op
    /// stripping a specialized table).
    pub despecializations: u64,
    /// Tables currently carrying a hot-key guard.
    pub specialized_tables: u64,
    /// Monotonic epoch, bumped by every (de)specialization; lets
    /// journal writers dedup events exactly like generation swaps.
    pub generation: u64,
}

impl SpecStats {
    /// Sets the specialization series, each with its `# HELP` text, in
    /// `metrics` — the one export the controller and `simulate
    /// --metrics-out` share.
    pub fn export(&self, metrics: &mut MetricsRegistry) {
        let counters = [
            (
                "pipeleon_specialize_guard_hits_total",
                "Hot-key guard hits in the specialized compiled datapath",
                self.guard_hits,
            ),
            (
                "pipeleon_specialize_guard_misses_total",
                "Hot-key guard misses (fell through to the general lookup)",
                self.guard_misses,
            ),
            (
                "pipeleon_specialize_memo_hits_total",
                "Guard misses answered from the per-walk lookup memo",
                self.memo_hits,
            ),
            (
                "pipeleon_specialize_fused_hits_total",
                "Packets that took at least one stage of a fused guard run",
                self.fused_hits,
            ),
            (
                "pipeleon_specializations_total",
                "Specialization plans applied to the compiled datapath",
                self.specializations,
            ),
            (
                "pipeleon_despecializations_total",
                "Reverts to the verbatim lowering (drift, misses, entry ops)",
                self.despecializations,
            ),
        ];
        for (name, help, value) in counters {
            metrics.help(name, help);
            metrics.counter_set(name, &[], value);
        }
        let gauges = [
            (
                "pipeleon_specialize_fused_runs",
                "Chains of guarded tables currently fused into staged runs",
                self.fused_runs,
            ),
            (
                "pipeleon_specialized_tables",
                "Tables currently carrying a hot-key guard",
                self.specialized_tables,
            ),
        ];
        for (name, help, value) in gauges {
            metrics.help(name, help);
            metrics.gauge_set(name, &[], value as f64);
        }
    }
}

/// A per-table Boyer–Moore majority sketch over sampled composed keys.
///
/// Constant space, stream-order dependent, and *conservative*: `hits`
/// only counts samples that matched the candidate while it was the
/// candidate, so `hits / samples` under-reports the true frequency of
/// the final majority key. A key clearing the majority bar on this
/// estimate is therefore at least that dominant in truth.
#[derive(Debug, Clone)]
pub(crate) struct HotKeySketch {
    /// Current majority candidate (composed key values).
    pub(crate) candidate: SmallKey,
    /// Boyer–Moore vote balance for the candidate.
    pub(crate) votes: u64,
    /// Samples that matched the current candidate.
    pub(crate) hits: u64,
    /// Total sampled lookups.
    pub(crate) samples: u64,
}

impl Default for HotKeySketch {
    fn default() -> Self {
        Self {
            candidate: SmallKey::from_slice(&[]),
            votes: 0,
            hits: 0,
            samples: 0,
        }
    }
}

impl HotKeySketch {
    /// Feeds one sampled composed key into the sketch.
    #[inline]
    pub(crate) fn observe(&mut self, key: &[u64]) {
        self.samples += 1;
        if self.votes > 0 && same_key(self.candidate.as_slice(), key) {
            self.votes += 1;
            self.hits += 1;
        } else if self.votes == 0 {
            self.candidate = SmallKey::from_slice(key);
            self.votes = 1;
            self.hits = 1;
        } else {
            self.votes -= 1;
        }
    }

    /// Folds a shard's sketch into this one. Same-candidate sketches
    /// add up; disagreeing sketches keep the stronger candidate with
    /// the vote margin reduced by the weaker one, mirroring how the
    /// streaming update cancels votes.
    pub(crate) fn merge(&mut self, other: &HotKeySketch) {
        self.samples += other.samples;
        if other.votes == 0 {
            return;
        }
        if self.votes == 0 {
            self.candidate = other.candidate.clone();
            self.votes = other.votes;
            self.hits = other.hits;
        } else if self.candidate == other.candidate {
            self.votes += other.votes;
            self.hits += other.hits;
        } else if other.votes > self.votes {
            let margin = other.votes - self.votes;
            self.candidate = other.candidate.clone();
            self.votes = margin;
            self.hits = other.hits;
        } else {
            self.votes -= other.votes;
        }
    }

    /// Whether the sketch's candidate clears the dominance bar.
    fn qualifies(&self) -> bool {
        self.samples >= MIN_SAMPLES
            && self.votes > 0
            && self.hits as f64 >= HOT_FRACTION * self.samples as f64
    }
}

/// A specialization plan: which tables get a guard on which key. Built
/// from one window's sketches, applied to a compiled arena,
/// fingerprinted so identical plans are not re-applied and shards can
/// dedup adoption.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpecPlan {
    /// Tables receiving a hot-key guard, with the key to bake.
    pub(crate) hot_keys: Vec<(NodeId, SmallKey)>,
    /// FNV-1a digest of the plan contents (never 0 for a non-empty
    /// plan; 0 is the verbatim-lowering sentinel).
    pub(crate) fingerprint: u64,
}

/// Builds a plan from the hot-key majority sketches taken alongside a
/// profile window (merged across shards).
pub(crate) fn build_plan(
    graph: &ProgramGraph,
    sketches: &HashMap<NodeId, HotKeySketch>,
) -> SpecPlan {
    let mut plan = SpecPlan::default();
    for node in graph.iter_nodes() {
        let NodeKind::Table(t) = &node.kind else {
            continue;
        };
        // Flow-cache switches never run their match engine, and keyless
        // tables have nothing to guard.
        if t.cache_role == CacheRole::FlowCache || t.keys.is_empty() {
            continue;
        }
        if let Some(sk) = sketches.get(&node.id).filter(|sk| sk.qualifies()) {
            plan.hot_keys.push((node.id, sk.candidate.clone()));
        }
    }
    plan.hot_keys.sort_by_key(|(id, _)| *id);
    plan.fingerprint = fingerprint(&plan);
    plan
}

/// FNV-1a over the plan contents: deterministic, and never 0 for a
/// non-empty plan.
fn fingerprint(plan: &SpecPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(plan.hot_keys.len() as u64);
    for (id, key) in &plan.hot_keys {
        mix(id.index() as u64);
        mix(key.as_slice().len() as u64);
        for &v in key.as_slice() {
            mix(v);
        }
    }
    if h == 0 {
        h = 1;
    }
    h
}

/// Applies a plan to a compiled arena. The caller (the executor) is
/// responsible for starting from a verbatim lowering and for stamping
/// `spec_fingerprint` afterwards.
pub(crate) fn apply_plan(cp: &mut CompiledPipeline, plan: &SpecPlan, params: &CostParams) {
    for (id, key) in &plan.hot_keys {
        let slot = cp.slot(*id);
        if slot == NO_SLOT {
            continue;
        }
        if let CStep::Table(ct) = &mut cp.nodes[slot as usize].step {
            if ct.is_flow_cache || !ct.engine.has_keys {
                continue;
            }
            // Bake the outcome by running the general path on the hot
            // key: a guard hit then returns exactly what a miss-path
            // lookup of the same key would.
            let mut scratch = KeyScratch::new();
            scratch.values.extend_from_slice(key.as_slice());
            let hot_outcome = ct.engine.lookup_composed(&mut scratch);
            // A region of its own per memoised table: two tables answer
            // the same key differently.
            let memo_region = ct.engine.memoisable().then(|| {
                cp.memo_regions += 1;
                cp.memo_regions - 1
            });
            ct.spec = Some(Box::new(CTableSpec {
                hot_key: key.clone(),
                hot_outcome,
                memo_region,
            }));
        }
    }
    // The derived pass: fuse the chains of guards just baked.
    cp.derive_fused_runs(params);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_finds_majority_and_underestimates() {
        let mut sk = HotKeySketch::default();
        // 70% of 1000 samples are [7]; the rest cycle through noise.
        for i in 0..1000u64 {
            if i % 10 < 7 {
                sk.observe(&[7]);
            } else {
                sk.observe(&[100 + i]);
            }
        }
        assert_eq!(sk.candidate.as_slice(), &[7]);
        assert_eq!(sk.samples, 1000);
        assert!(sk.hits <= 700, "hits is a conservative underestimate");
        assert!(sk.qualifies());
    }

    #[test]
    fn sketch_merge_agrees_with_plain_sum_on_same_candidate() {
        let (mut a, mut b) = (HotKeySketch::default(), HotKeySketch::default());
        for _ in 0..50 {
            a.observe(&[1, 2]);
            b.observe(&[1, 2]);
        }
        b.observe(&[9, 9]);
        a.merge(&b);
        assert_eq!(a.candidate.as_slice(), &[1, 2]);
        assert_eq!(a.samples, 101);
        assert_eq!(a.hits, 100);
    }

    #[test]
    fn uniform_sketch_never_qualifies() {
        let mut sk = HotKeySketch::default();
        for i in 0..1000u64 {
            sk.observe(&[i % 64]);
        }
        assert!(!sk.qualifies());
    }

    // ------------------------------------------------------------------
    // Guard-run fusion: what `derive_fused_runs` may and may not fuse.
    // ------------------------------------------------------------------

    use crate::compiled::FusedStage;
    use crate::exec::GraphView;
    use pipeleon_cost::Placement;
    use pipeleon_ir::{
        CacheRole, Condition, FieldRef, MatchKind, MatchValue, Primitive, ProgramBuilder,
        TableEntry,
    };

    /// The key value every fixture table is guarded on.
    const HOT: u64 = 7;

    fn test_params() -> CostParams {
        let mut p = CostParams::bluefield2();
        p.l_mat = 10.0;
        p.l_act = 2.0;
        p.l_migration = 100.0;
        p.cpu_scale = 3.0;
        p
    }

    /// A table keyed on `key` whose entry for [`HOT`] runs `hit`; every
    /// other key runs the `miss` no-op.
    fn guarded_table(
        b: &mut ProgramBuilder,
        name: &str,
        key: FieldRef,
        hit: Vec<Primitive>,
    ) -> NodeId {
        b.table(name)
            .key(key, MatchKind::Exact)
            .action("hit", hit)
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
            .finish()
    }

    /// Lowers `g` and bakes a guard into each `(table, hot key)` of
    /// `guards`.
    fn specialized(
        g: &ProgramGraph,
        placement: &[Placement],
        guards: &[(NodeId, u64)],
    ) -> CompiledPipeline {
        let params = test_params();
        let mut view = GraphView::new(g.clone(), params.clone());
        view.placement = placement.to_vec();
        let mut cp = CompiledPipeline::build(&view);
        let plan = SpecPlan {
            hot_keys: guards
                .iter()
                .map(|&(id, key)| (id, SmallKey::from_slice(&[key])))
                .collect(),
            ..SpecPlan::default()
        };
        apply_plan(&mut cp, &plan, &params);
        cp
    }

    fn hot(ids: &[NodeId]) -> Vec<(NodeId, u64)> {
        ids.iter().map(|&id| (id, HOT)).collect()
    }

    /// The stages of the run headed at `id`, if any.
    fn run_at(cp: &CompiledPipeline, id: NodeId) -> Option<&[FusedStage]> {
        match &cp.nodes[cp.slot(id) as usize].step {
            CStep::Table(ct) => ct.fused.as_deref(),
            CStep::Branch { .. } => None,
        }
    }

    /// The run headed at `head` must cover exactly `members` tables and
    /// resume at `exit` (`None`: the sink or a drop).
    fn assert_run(cp: &CompiledPipeline, head: NodeId, members: u64, exit: Option<NodeId>) {
        let run = run_at(cp, head).unwrap_or_else(|| panic!("no run at {head}"));
        let covered: u64 = run.iter().map(|st| st.guards).sum();
        assert_eq!(covered, members, "members of the run at {head}");
        let last = run.last().expect("a run has a stage");
        assert_eq!(last.exit_slot, exit.map_or(NO_SLOT, |id| cp.slot(id)));
    }

    #[test]
    fn fuses_the_maximal_run_and_dedups_its_guards() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let mark = |v| vec![Primitive::set(out, v), Primitive::Nop];
        let t: Vec<NodeId> = [x, y, x, y]
            .iter()
            .enumerate()
            .map(|(i, &f)| guarded_table(&mut b, &format!("t{i}"), f, mark(i as u64)))
            .collect();
        let plain = guarded_table(&mut b, "plain", x, mark(9));
        let lone = guarded_table(&mut b, "lone", y, mark(10));
        let g = b.seal(t[0]).unwrap();
        let mut guards = hot(&t);
        guards.push((lone, HOT));
        let cp = specialized(&g, &[], &guards);
        // One run, headed at t0, ending before the unguarded table; no
        // member heads a run of its own, and a guarded table on its own
        // (length 1) is left to the per-table walk.
        assert_eq!(cp.fused_runs(), 1);
        assert_run(&cp, t[0], 4, Some(plain));
        // Four guards ask two questions, so two stages: t0 alone on x,
        // then everything y decides — t2's x is already answered.
        let [first, rest] = run_at(&cp, t[0]).unwrap() else {
            panic!("two stages");
        };
        assert_eq!(first.guard, [(x, HOT)]);
        assert_eq!(rest.guard, [(y, HOT)]);
        assert_eq!((first.guards, rest.guards), (1, 3));
        assert_eq!((first.probes, rest.probes), (1, 3));
        assert_eq!(first.exit_slot, cp.slot(t[1]));
        // Bodies concatenated in member order, `Nop`s gone.
        assert_eq!(first.prims, [Primitive::set(out, 0)]);
        let want: Vec<Primitive> = (1..4).map(|v| Primitive::set(out, v)).collect();
        assert_eq!(rest.prims, want);
        // Per member: match charge (1 probe × l_mat), action charge (2
        // primitives, the `Nop` included, × l_act).
        assert_eq!(first.deltas, [10.0, 4.0]);
        assert_eq!(rest.deltas, [10.0, 4.0, 10.0, 4.0, 10.0, 4.0]);
        assert_eq!(first.migrations + rest.migrations, 0);
    }

    #[test]
    fn a_written_key_ends_the_run_but_a_downstream_writer_does_not() {
        let mut b = ProgramBuilder::new();
        let (x, y, z) = (b.field("x"), b.field("y"), b.field("z"));
        let t0 = guarded_table(&mut b, "t0", x, vec![Primitive::Nop]);
        // t1's baked action rewrites z, the key t2 is guarded on: t2's
        // guard cannot be checked at the run's entry.
        let t1 = guarded_table(&mut b, "t1", y, vec![Primitive::set(z, HOT)]);
        let t2 = guarded_table(&mut b, "t2", z, vec![Primitive::Nop]);
        // t3 rewrites x, which only t0 — already behind it — is keyed on.
        let t3 = guarded_table(&mut b, "t3", y, vec![Primitive::set(x, 1)]);
        let g = b.seal(t0).unwrap();
        let cp = specialized(&g, &[], &hot(&[t0, t1, t2, t3]));
        assert_eq!(cp.fused_runs(), 2);
        assert_run(&cp, t0, 2, Some(t2));
        assert_run(&cp, t2, 2, None);

        // Only the *baked* action's writes count: here t1's miss action
        // writes z, and a packet taking it misses t1's guard anyway.
        let mut b = ProgramBuilder::new();
        let (x, y, z) = (b.field("x"), b.field("y"), b.field("z"));
        let t0 = guarded_table(&mut b, "t0", x, vec![Primitive::Nop]);
        let t1 = b
            .table("t1")
            .key(y, MatchKind::Exact)
            .action("hit", vec![Primitive::Nop])
            .action("miss", vec![Primitive::set(z, HOT)])
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
            .finish();
        let t2 = guarded_table(&mut b, "t2", z, vec![Primitive::Nop]);
        let g = b.seal(t0).unwrap();
        let cp = specialized(&g, &[], &hot(&[t0, t1, t2]));
        assert_eq!(cp.fused_runs(), 1);
        assert_run(&cp, t0, 3, None);
    }

    #[test]
    fn guards_are_deduplicated_by_field_and_value() {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let t0 = guarded_table(&mut b, "t0", x, vec![Primitive::Nop]);
        let t1 = guarded_table(&mut b, "t1", x, vec![Primitive::Nop]);
        let g = b.seal(t0).unwrap();
        // t1 is guarded on another value of the field t0 pinned. Folding
        // the two into one compare of "x" would let a packet that misses
        // t1's guard take the run; kept apart, no packet takes it.
        let cp = specialized(&g, &[], &[(t0, HOT), (t1, HOT + 1)]);
        let run = run_at(&cp, t0).expect("two guarded tables in a row");
        let asked: Vec<_> = run.iter().flat_map(|st| st.guard.clone()).collect();
        assert_eq!(asked, [(x, HOT), (x, HOT + 1)]);
    }

    #[test]
    fn branches_flow_caches_and_unguarded_tables_bound_a_run() {
        let mut b = ProgramBuilder::new();
        let (x, y) = (b.field("x"), b.field("y"));
        // a0 a1 → branch → (b0 b1 → cache → [miss: c0 c1 | hit: sink]).
        let c0 = guarded_table(&mut b, "c0", x, vec![Primitive::Nop]);
        let c1 = guarded_table(&mut b, "c1", y, vec![Primitive::Nop]);
        b.set_next(c1, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .by_action(vec![None, Some(c0)])
            .finish();
        let b0 = guarded_table(&mut b, "b0", x, vec![Primitive::Nop]);
        let b1 = guarded_table(&mut b, "b1", y, vec![Primitive::Nop]);
        b.set_next(b0, Some(b1));
        b.set_next(b1, Some(cache));
        let br = b.branch("br", Condition::lt(x, 100), Some(b0), None);
        let a0 = guarded_table(&mut b, "a0", x, vec![Primitive::Nop]);
        let a1 = guarded_table(&mut b, "a1", y, vec![Primitive::Nop]);
        b.set_next(a0, Some(a1));
        b.set_next(a1, Some(br));
        let g = b.seal(a0).unwrap();
        // The plan asks for a guard on the cache switch too; `apply_plan`
        // never bakes one there.
        let cp = specialized(&g, &[], &hot(&[a0, a1, b0, b1, cache, c0, c1]));
        assert_eq!(cp.fused_runs(), 3);
        assert_run(&cp, a0, 2, Some(br));
        assert_run(&cp, b0, 2, Some(cache));
        assert_run(&cp, c0, 2, None);
    }

    #[test]
    fn a_baked_drop_ends_the_run_at_its_table() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let t0 = guarded_table(&mut b, "t0", x, vec![Primitive::set(out, 1)]);
        let deny = vec![Primitive::Drop, Primitive::set(out, 2)];
        let t1 = guarded_table(&mut b, "t1", y, deny.clone());
        let t2 = guarded_table(&mut b, "t2", x, vec![Primitive::set(out, 3)]);
        let t3 = guarded_table(&mut b, "t3", y, vec![Primitive::set(out, 4)]);
        let g = b.seal(t0).unwrap();
        let cp = specialized(&g, &[], &hot(&[t0, t1, t2, t3]));
        // Nothing past the drop is part of the run, which resumes
        // nowhere; the dropping action still runs whole, as on the walk.
        assert_run(&cp, t0, 2, None);
        let prims: Vec<_> = run_at(&cp, t0)
            .unwrap()
            .iter()
            .flat_map(|st| st.prims.clone())
            .collect();
        assert_eq!(prims, [vec![Primitive::set(out, 1)], deny].concat());
        // t2 is reachable only by packets that missed t1's guard, and
        // heads its own run.
        assert_run(&cp, t2, 2, None);
    }

    #[test]
    fn a_placement_change_inside_a_run_bakes_the_migration_in_walk_order() {
        let mut b = ProgramBuilder::new();
        let (x, y) = (b.field("x"), b.field("y"));
        let t: Vec<NodeId> = [x, y, x, y]
            .iter()
            .enumerate()
            .map(|(i, &f)| guarded_table(&mut b, &format!("t{i}"), f, vec![Primitive::Nop]))
            .collect();
        let g = b.seal(t[0]).unwrap();
        let mut placement = vec![Placement::Asic; g.id_bound()];
        placement[t[1].index()] = Placement::Cpu;
        placement[t[2].index()] = Placement::Cpu;
        let cp = specialized(&g, &placement, &hot(&t));
        let [first, rest] = run_at(&cp, t[0]).unwrap() else {
            panic!("two stages");
        };
        // ASIC t0 | → CPU (×3) t1 t2, → ASIC t3. The head's own entry
        // migration is the walk's to charge, not the run's; a crossing
        // into a stage's first member is that stage's.
        assert_eq!(first.deltas, [10.0, 2.0]);
        assert_eq!((first.migrations, first.exit_place), (0, Placement::Asic));
        assert_eq!(rest.deltas, [100.0, 30.0, 6.0, 30.0, 6.0, 100.0, 10.0, 2.0]);
        assert_eq!((rest.migrations, rest.exit_place), (2, Placement::Asic));
    }

    #[test]
    fn recompiling_a_member_rederives_the_runs_around_it() {
        let mut b = ProgramBuilder::new();
        let (x, y) = (b.field("x"), b.field("y"));
        let t: Vec<NodeId> = [x, y, x, y, x]
            .iter()
            .enumerate()
            .map(|(i, &f)| guarded_table(&mut b, &format!("t{i}"), f, vec![Primitive::Nop]))
            .collect();
        let mut g = b.seal(t[0]).unwrap();
        let mut cp = specialized(&g, &[], &hot(&t));
        assert_run(&cp, t[0], 5, None);
        // An entry op rebuilds t2 without its guard; the run that baked
        // t2's old outcome must not survive it.
        let entries = &mut g.node_mut(t[2]).unwrap().as_table_mut().unwrap().entries;
        entries.clear();
        assert!(cp.recompile_node(&GraphView::new(g, test_params()), t[2]));
        assert_eq!(cp.fused_runs(), 2);
        assert_run(&cp, t[0], 2, Some(t[2]));
        assert_run(&cp, t[3], 2, None);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let mut plan = SpecPlan {
            hot_keys: vec![(NodeId(3), SmallKey::from_slice(&[42]))],
            fingerprint: 0,
        };
        let f1 = fingerprint(&plan);
        assert_eq!(f1, fingerprint(&plan), "deterministic");
        assert_ne!(f1, 0);
        plan.hot_keys[0].1 = SmallKey::from_slice(&[43]);
        assert_ne!(fingerprint(&plan), f1, "key change changes the plan id");
    }
}
