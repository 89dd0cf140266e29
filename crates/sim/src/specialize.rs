//! Profile-guided specialization of the compiled datapath (Morpheus-style
//! "JIT lite").
//!
//! The verbatim `CompiledPipeline` lowering ignores everything the
//! runtime profile knows: skewed match-key distributions, branches never
//! taken, tables with one hot entry, stable entry sets. This module turns
//! a profile window into a `SpecPlan` of three passes and applies it to a
//! compiled arena:
//!
//! 1. **Hot-key inline cache / guarded constant propagation** — when a
//!    window's key sketch shows one composed key dominating a table, bake
//!    that key and its fully pre-resolved `LookupOutcome` into the
//!    table. The guard is a single slice compare against the composed
//!    key; a hit skips every hash way and scan entry, a miss falls
//!    through to the unmodified general lookup. Because the outcome is
//!    produced by running the general path on the hot key at plan-apply
//!    time, a guard hit is bit-identical (entry, action, *and* probe
//!    count — which feeds latency accounting) to the path it replaces.
//! 2. **Direct-index ways** — a small, stable, single-field exact way
//!    whose keys span a dense range is rewritten from its flat hash form
//!    to a base-offset slot array: lookup is a bounds-checked subtract, no
//!    hashing. Any entry-op rebuild of the engine restores the hash form.
//! 3. **Cold out-of-lining** — the most-probable successor chain from
//!    the root is permuted into a contiguous slot prefix so the hot walk
//!    touches adjacent arena slots; cold branches move to the tail. Pure
//!    layout: every successor reference and the id→slot map are remapped
//!    with it.
//!
//! All three passes are *semantics- and accounting-preserving*: the
//! interpreter and the unspecialized compiled engine remain bit-exact
//! oracles for every specialized pipeline, which is what lets specialized
//! generations publish through the live generation-swap path without any
//! new verification machinery. Only host wall-clock changes.
//!
//! De-specialization is cheap by construction: dropping the compiled
//! pipeline and re-lowering yields the verbatim arena (guards and direct
//! ways exist nowhere but in the compiled artifact).

use crate::compiled::{CEntries, CNext, CStep, CTableSpec, CWayMap, CompiledPipeline, NO_SLOT};
use crate::engine::KeyScratch;
use crate::smallkey::SmallKey;
use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::{CacheRole, MatchValue, NextHops, NodeId, NodeKind, ProgramGraph};
use std::collections::HashMap;

/// Tuning knobs for plan construction. Defaults are deliberately
/// conservative: a key must dominate half of a window's samples before a
/// guard is worth its miss cost, and direct-index arrays stay small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecConfig {
    /// Minimum fraction of a window's sampled lookups the dominant key
    /// must account for before a hot-key guard is installed.
    pub hot_fraction: f64,
    /// Minimum sampled lookups per table before its sketch is trusted.
    pub min_samples: u64,
    /// Maximum key span (`max - min + 1`) for a direct-index way.
    pub direct_span: u64,
    /// Minimum entry count before a direct-index rewrite pays off.
    pub direct_min_entries: usize,
    /// Maximum observed entry-update rate (ops/s) for a table to count
    /// as "stable" enough for a direct-index way.
    pub max_update_rate: f64,
    /// Whether to permute the arena so the hot chain is contiguous.
    pub hot_chain: bool,
}

impl Default for SpecConfig {
    fn default() -> Self {
        Self {
            hot_fraction: 0.5,
            min_samples: 64,
            direct_span: 4096,
            direct_min_entries: 4,
            max_update_rate: 1.0,
            hot_chain: true,
        }
    }
}

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
    /// Specialization plans applied.
    pub specializations: u64,
    /// Reverts to the verbatim lowering (explicit, or an entry-op
    /// stripping a specialized table).
    pub despecializations: u64,
    /// Tables currently carrying a guard or a direct-index way.
    pub specialized_tables: u64,
    /// Monotonic epoch, bumped by every (de)specialization; lets
    /// journal writers dedup events exactly like generation swaps.
    pub generation: u64,
}

/// A per-table Boyer–Moore majority sketch over sampled composed keys.
///
/// Constant space, stream-order dependent, and *conservative*: `hits`
/// only counts samples that matched the candidate while it was the
/// candidate, so `hits / samples` under-reports the true frequency of
/// the final majority key. A key passing [`SpecConfig::hot_fraction`]
/// on this estimate is therefore at least that dominant in truth.
#[derive(Debug, Clone)]
pub struct HotKeySketch {
    /// Current majority candidate (composed key values).
    pub candidate: SmallKey,
    /// Boyer–Moore vote balance for the candidate.
    pub votes: u64,
    /// Samples that matched the current candidate.
    pub hits: u64,
    /// Total sampled lookups.
    pub samples: u64,
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
    pub fn observe(&mut self, key: &[u64]) {
        self.samples += 1;
        if self.votes > 0 && self.candidate.as_slice() == key {
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
    pub fn merge(&mut self, other: &HotKeySketch) {
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

    /// Whether the sketch's candidate clears the config's dominance bar.
    fn qualifies(&self, cfg: &SpecConfig) -> bool {
        self.samples >= cfg.min_samples
            && self.votes > 0
            && self.hits as f64 >= cfg.hot_fraction * self.samples as f64
    }
}

/// A specialization plan: which tables get which pass. Built from one
/// profile window, applied to a compiled arena, fingerprinted so
/// identical plans are not re-applied and shards can dedup adoption.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpecPlan {
    /// Tables receiving a hot-key guard, with the key to bake.
    pub(crate) hot_keys: Vec<(NodeId, SmallKey)>,
    /// Tables whose dense exact ways become direct-index arrays.
    pub(crate) direct: Vec<NodeId>,
    /// Most-probable root chain, in visit order (empty = keep layout).
    pub(crate) chain: Vec<NodeId>,
    /// FNV-1a digest of the plan contents (never 0 for a non-empty
    /// plan; 0 is the verbatim-lowering sentinel).
    pub(crate) fingerprint: u64,
}

impl SpecPlan {
    /// A plan that would change nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.hot_keys.is_empty() && self.direct.is_empty() && self.chain.len() < 2
    }
}

/// Builds a plan from a profile window. `sketches` carries the hot-key
/// majority sketches taken alongside the profile (merged across shards);
/// `profile` supplies visit probabilities for the hot chain and entry
/// update rates for the direct-way stability gate.
pub(crate) fn build_plan(
    graph: &ProgramGraph,
    profile: &RuntimeProfile,
    sketches: &HashMap<NodeId, HotKeySketch>,
    cfg: &SpecConfig,
) -> SpecPlan {
    let mut plan = SpecPlan::default();
    for node in graph.iter_nodes() {
        let NodeKind::Table(t) = &node.kind else {
            continue;
        };
        // Flow-cache switches never run their match engine, and keyless
        // tables have nothing to guard or index.
        if t.cache_role == CacheRole::FlowCache || t.keys.is_empty() {
            continue;
        }
        if let Some(sk) = sketches.get(&node.id) {
            if sk.qualifies(cfg) {
                plan.hot_keys.push((node.id, sk.candidate.clone()));
            }
        }
        if t.keys.len() == 1
            && t.entries.len() >= cfg.direct_min_entries
            && profile.entry_update_rate(node.id) <= cfg.max_update_rate
        {
            let keys: Option<Vec<u64>> = t
                .entries
                .iter()
                .map(|e| match e.matches.as_slice() {
                    [MatchValue::Exact(v)] => Some(*v),
                    _ => None,
                })
                .collect();
            if let Some(keys) = keys {
                let lo = keys.iter().copied().min().unwrap_or(0);
                let hi = keys.iter().copied().max().unwrap_or(0);
                if hi - lo < cfg.direct_span {
                    plan.direct.push(node.id);
                }
            }
        }
    }
    if cfg.hot_chain && !profile.is_empty() {
        plan.chain = hot_chain(graph, profile);
    }
    plan.hot_keys.sort_by_key(|(id, _)| *id);
    plan.direct.sort();
    plan.fingerprint = fingerprint(&plan);
    plan
}

/// Walks the most-probable successor chain from the root. Ties break
/// toward the lower node id, so the chain is deterministic for a given
/// profile.
fn hot_chain(graph: &ProgramGraph, profile: &RuntimeProfile) -> Vec<NodeId> {
    let probs = profile.visit_probabilities(graph);
    let Some(root) = graph.root() else {
        return Vec::new();
    };
    let mut chain = Vec::new();
    let mut seen = vec![false; graph.id_bound()];
    let mut cur = Some(root);
    while let Some(id) = cur {
        if seen.get(id.index()).copied().unwrap_or(true) {
            break;
        }
        seen[id.index()] = true;
        chain.push(id);
        let Some(node) = graph.node(id) else { break };
        let succs: Vec<NodeId> = match &node.next {
            NextHops::Always(t) => t.iter().copied().collect(),
            NextHops::ByAction(v) => v.iter().filter_map(|t| *t).collect(),
            NextHops::Branch { on_true, on_false } => {
                on_true.iter().chain(on_false.iter()).copied().collect()
            }
        };
        cur = succs.into_iter().min_by(|a, b| {
            let pa = probs.get(a.index()).copied().unwrap_or(0.0);
            let pb = probs.get(b.index()).copied().unwrap_or(0.0);
            pb.partial_cmp(&pa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        });
    }
    if chain.len() < 2 {
        chain.clear();
    }
    chain
}

/// FNV-1a over the plan contents. Local (the sim crate cannot depend on
/// the runtime crate's fingerprint helper), deterministic, and never 0
/// for a non-empty plan.
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
    mix(plan.direct.len() as u64);
    for id in &plan.direct {
        mix(id.index() as u64);
    }
    mix(plan.chain.len() as u64);
    for id in &plan.chain {
        mix(id.index() as u64);
    }
    if h == 0 {
        h = 1;
    }
    h
}

/// Applies a plan to a compiled arena. The caller (the executor) is
/// responsible for starting from a verbatim lowering and for stamping
/// `spec_fingerprint` afterwards.
pub(crate) fn apply_plan(cp: &mut CompiledPipeline, plan: &SpecPlan) {
    if plan.chain.len() >= 2 {
        permute_hot_chain(cp, &plan.chain);
    }
    for id in &plan.direct {
        let slot = cp.slot(*id);
        if slot == NO_SLOT {
            continue;
        }
        if let CStep::Table(ct) = &mut cp.nodes[slot as usize].step {
            if ct.is_flow_cache {
                continue;
            }
            for way in &mut ct.engine.ways {
                directify_way(way);
            }
        }
    }
    for (id, key) in &plan.hot_keys {
        let slot = cp.slot(*id);
        if slot == NO_SLOT {
            continue;
        }
        if let CStep::Table(ct) = &mut cp.nodes[slot as usize].step {
            if ct.is_flow_cache || !ct.engine.has_keys {
                continue;
            }
            // Bake the outcome by running the (possibly direct-indexed)
            // general path on the hot key: a guard hit then returns
            // exactly what a miss-path lookup of the same key would.
            let mut scratch = KeyScratch::new();
            scratch.values.extend_from_slice(key.as_slice());
            let hot_outcome = ct.engine.lookup_composed(&mut scratch);
            ct.spec = Some(Box::new(CTableSpec {
                hot_key: key.clone(),
                hot_outcome,
            }));
        }
    }
    // Slots moved and ways changed shape.
    cp.derive_lookahead();
}

/// Rewrites one way from its flat hash form to a direct-index array if
/// it is a single-field way whose keys span a dense range. Masked
/// (non-exact) single-field ways still qualify: the lookup masks before
/// indexing, exactly as the hash form masks before hashing.
fn directify_way(way: &mut crate::compiled::CWay) {
    let CWayMap::U64(m) = &way.map else { return };
    let Some(lo) = m.iter().map(|(k, _)| k).min() else {
        return;
    };
    let hi = m.iter().map(|(k, _)| k).max().unwrap_or(lo);
    let span = (hi - lo) as usize + 1;
    let mut slots: Vec<Option<CEntries>> = vec![None; span];
    for (k, v) in m.iter() {
        slots[(k - lo) as usize] = Some(v);
    }
    way.map = CWayMap::Direct {
        base: lo,
        slots: slots.into_boxed_slice(),
    };
}

/// Permutes the arena so `chain` occupies the leading slots in order,
/// with every other node following in its old relative order. Remaps
/// `slot_of`, the root, and every successor reference; [`NO_SLOT`]
/// stays [`NO_SLOT`]. Purely a layout change.
fn permute_hot_chain(cp: &mut CompiledPipeline, chain: &[NodeId]) {
    let n = cp.nodes.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut taken = vec![false; n];
    for id in chain {
        let slot = cp.slot(*id);
        if slot != NO_SLOT && !taken[slot as usize] {
            order.push(slot);
            taken[slot as usize] = true;
        }
    }
    for slot in 0..n as u32 {
        if !taken[slot as usize] {
            order.push(slot);
        }
    }
    let mut new_of_old = vec![NO_SLOT; n];
    for (new, &old) in order.iter().enumerate() {
        new_of_old[old as usize] = new as u32;
    }
    let remap = |s: u32| {
        if s == NO_SLOT {
            NO_SLOT
        } else {
            new_of_old[s as usize]
        }
    };
    let old_nodes = std::mem::take(&mut cp.nodes);
    let mut new_nodes: Vec<Option<crate::compiled::CNode>> =
        old_nodes.into_iter().map(Some).collect();
    cp.nodes = order
        .iter()
        .map(|&old| {
            let mut node = new_nodes[old as usize].take().expect("slot moved once");
            match &mut node.step {
                CStep::Branch {
                    on_true, on_false, ..
                } => {
                    *on_true = remap(*on_true);
                    *on_false = remap(*on_false);
                }
                CStep::Table(ct) => {
                    ct.hit_slot = remap(ct.hit_slot);
                    ct.miss_slot = remap(ct.miss_slot);
                    match &mut ct.next {
                        CNext::Always(s) => *s = remap(*s),
                        CNext::ByAction(v) => {
                            for s in v.iter_mut() {
                                *s = remap(*s);
                            }
                        }
                    }
                }
            }
            node
        })
        .collect();
    for slot in cp.slot_of.iter_mut() {
        *slot = remap(*slot);
    }
    cp.root = remap(cp.root);
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
        assert!(sk.qualifies(&SpecConfig::default()));
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
        assert!(!sk.qualifies(&SpecConfig::default()));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let mut plan = SpecPlan {
            hot_keys: vec![(NodeId(3), SmallKey::from_slice(&[42]))],
            direct: vec![NodeId(1)],
            chain: vec![NodeId(0), NodeId(3)],
            fingerprint: 0,
        };
        let f1 = fingerprint(&plan);
        assert_eq!(f1, fingerprint(&plan), "deterministic");
        assert_ne!(f1, 0);
        plan.hot_keys[0].1 = SmallKey::from_slice(&[43]);
        assert_ne!(fingerprint(&plan), f1, "key change changes the plan id");
    }
}
