//! Profile-guided specialization of the compiled datapath (Morpheus-style
//! "JIT lite").
//!
//! The verbatim `CompiledPipeline` lowering ignores everything the
//! runtime profile knows — above all, skewed match-key distributions.
//! This module turns a profile window's hot-key sketches into a
//! `SpecPlan` and applies it to a compiled arena:
//!
//! **Hot-key inline cache / guarded constant propagation** — when a
//! window's key sketch shows one composed key dominating a table, bake
//! that key and its fully pre-resolved `LookupOutcome` into the
//! table. The guard compares the composed key with the hot key word
//! by word, inline (`smallkey::same_key`, no library call); a hit
//! skips every hash way and scan entry, a miss falls through to the
//! unmodified general lookup. Because the outcome is
//! produced by running the general path on the hot key at plan-apply
//! time, a guard hit is bit-identical (entry, action, *and* probe
//! count — which feeds latency accounting) to the path it replaces.
//! The miss path is remembered too: a guarded single-field table
//! whose general lookup probes more than one way gets a region of
//! the walk's `LookupMemo` (`compiled.rs`), so a cold key pays the
//! m-way sweep once and one slot probe while its slot lasts. The
//! memo is emptied wherever a specialized lowering is installed,
//! which is the only way the engine under a region can change.
//!
//! Guards leave one compare per table, so a hot packet still walks every
//! node; a packet nothing watches is answered before the walk by the
//! executor's walk cache (`walks.rs`), which serves every repeated flow,
//! not only the hot one. Guards and the memo serve the walks it does
//! not answer: first sightings, and every instrumented or traced packet.
//!
//! The pass is *semantics- and accounting-preserving*: the
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
        let name = "pipeleon_specialized_tables";
        metrics.help(name, "Tables currently carrying a hot-key guard");
        metrics.gauge_set(name, &[], self.specialized_tables as f64);
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
pub(crate) fn apply_plan(cp: &mut CompiledPipeline, plan: &SpecPlan) {
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
