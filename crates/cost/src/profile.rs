//! Runtime profiles: the counters Pipeleon instruments programs with.
//!
//! A [`RuntimeProfile`] carries per-edge and per-action packet counts
//! (from P4 counters, §4.1.2), per-table entry-update rates (from control
//! plane API monitoring, §4), and per-cache hit statistics. Probability
//! helpers convert raw counts into the `P(e_i|…)` and `P(a)` terms of the
//! cost model, with sensible defaults (uniform splits) where counters have
//! seen no traffic.

use pipeleon_ir::{EdgeRef, NextHops, NodeId, NodeKind, ProgramGraph};
use std::collections::HashMap;

/// Hit/miss/insertion statistics for one cache table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries installed (≤ misses; limited by the insertion rate cap).
    pub insertions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `None` if the cache saw no lookups.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Counters and rates collected (or synthesized) for one program layout.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeProfile {
    /// Total packets observed at the program root.
    pub total_packets: u64,
    edge_counts: HashMap<EdgeRef, u64>,
    action_counts: HashMap<(NodeId, usize), u64>,
    /// Entry updates per second per table (insert/delete/modify).
    pub entry_update_rates: HashMap<NodeId, f64>,
    /// Per-cache statistics, keyed by the cache table node.
    pub cache_stats: HashMap<NodeId, CacheStats>,
    /// Number of distinct key values observed per table — drives the
    /// cache cross-product estimate of §3.2.2. The simulator counts them
    /// exactly up to 65,536 a window and estimates them from a hash
    /// sample of the keys above that.
    pub distinct_keys: HashMap<NodeId, u64>,
    /// Measured hit rates of previously deployed caches, keyed by the
    /// sorted set of covered (original) tables. The optimizer prefers
    /// these over its static estimate (§3.2.2: "continuously monitors its
    /// actual performance at runtime").
    pub cache_hit_hints: HashMap<Vec<NodeId>, f64>,
    /// The measurement window this profile covers, in seconds (converts
    /// packet counts to rates).
    pub window_s: f64,
}

impl Default for RuntimeProfile {
    fn default() -> Self {
        Self {
            total_packets: 0,
            edge_counts: HashMap::new(),
            action_counts: HashMap::new(),
            entry_update_rates: HashMap::new(),
            cache_stats: HashMap::new(),
            distinct_keys: HashMap::new(),
            cache_hit_hints: HashMap::new(),
            window_s: 1.0,
        }
    }
}

impl RuntimeProfile {
    /// An empty profile: every probability falls back to uniform defaults.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Approximate distinct key values seen at a table; `None` if never
    /// measured.
    pub fn distinct_keys_of(&self, node: NodeId) -> Option<u64> {
        self.distinct_keys.get(&node).copied()
    }

    /// Records the distinct-key estimate for a table.
    pub fn set_distinct_keys(&mut self, node: NodeId, n: u64) {
        self.distinct_keys.insert(node, n);
    }

    /// The packet arrival rate this profile represents (packets/s).
    pub fn packet_rate(&self) -> f64 {
        if self.window_s > 0.0 {
            self.total_packets as f64 / self.window_s
        } else {
            self.total_packets as f64
        }
    }

    /// Adds `n` packets to an edge counter.
    pub fn record_edge(&mut self, edge: EdgeRef, n: u64) {
        *self.edge_counts.entry(edge).or_insert(0) += n;
    }

    /// Adds `n` packets to a `(table, action)` counter.
    pub fn record_action(&mut self, node: NodeId, action: usize, n: u64) {
        *self.action_counts.entry((node, action)).or_insert(0) += n;
    }

    /// Iterates all edge counters.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeRef, u64)> + '_ {
        self.edge_counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates all `(node, action)` counters.
    pub fn actions(&self) -> impl Iterator<Item = ((NodeId, usize), u64)> + '_ {
        self.action_counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Raw edge counter value.
    pub fn edge_count(&self, edge: EdgeRef) -> u64 {
        self.edge_counts.get(&edge).copied().unwrap_or(0)
    }

    /// Raw action counter value.
    pub fn action_count(&self, node: NodeId, action: usize) -> u64 {
        self.action_counts
            .get(&(node, action))
            .copied()
            .unwrap_or(0)
    }

    /// Sets the entry-update rate (ops/s) of a table.
    pub fn set_entry_update_rate(&mut self, node: NodeId, rate: f64) {
        self.entry_update_rates.insert(node, rate);
    }

    /// Entry-update rate (ops/s) of a table, 0 if unknown.
    pub fn entry_update_rate(&self, node: NodeId) -> f64 {
        self.entry_update_rates.get(&node).copied().unwrap_or(0.0)
    }

    /// Observed hit rate of a cache node, if any lookups were recorded.
    pub fn cache_hit_rate(&self, node: NodeId) -> Option<f64> {
        self.cache_stats.get(&node).and_then(CacheStats::hit_rate)
    }

    /// Records a measured hit rate for a cache covering `tables`.
    pub fn set_cache_hint(&mut self, mut tables: Vec<NodeId>, hit_rate: f64) {
        tables.sort();
        self.cache_hit_hints
            .insert(tables, hit_rate.clamp(0.0, 1.0));
    }

    /// A previously measured hit rate for a cache covering exactly
    /// `tables`, if any.
    pub fn cache_hint(&self, tables: &[NodeId]) -> Option<f64> {
        let mut key: Vec<NodeId> = tables.to_vec();
        key.sort();
        self.cache_hit_hints.get(&key).copied()
    }

    /// Per-action probabilities `P(a)` for a table (Eq. 4b): normalized
    /// action counters, or a uniform distribution if the table saw no
    /// traffic.
    pub fn action_probs(&self, g: &ProgramGraph, node: NodeId) -> Vec<f64> {
        let Some(n) = g.node(node) else {
            return Vec::new();
        };
        let Some(t) = n.as_table() else {
            return Vec::new();
        };
        let counts: Vec<u64> = (0..t.actions.len())
            .map(|i| self.action_count(node, i))
            .collect();
        let total = counts.iter().fold(0u64, |sum, &c| sum.saturating_add(c));
        if total == 0 {
            let u = 1.0 / t.actions.len().max(1) as f64;
            return vec![u; t.actions.len()];
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// The probability a packet *entering* the table leaves it dropped:
    /// `Σ P(a)` over dropping actions.
    pub fn drop_rate(&self, g: &ProgramGraph, node: NodeId) -> f64 {
        let Some(t) = g.node(node).and_then(|n| n.as_table()) else {
            return 0.0;
        };
        self.action_probs(g, node)
            .iter()
            .zip(&t.actions)
            .filter(|(_, a)| a.drops())
            .map(|(p, _)| *p)
            .sum()
    }

    /// The outgoing probability distribution over a node's next-hop slots,
    /// conditioned on the packet having entered the node. Dropping actions
    /// contribute zero to their slot (the packet leaves the pipeline).
    pub fn slot_probs(&self, g: &ProgramGraph, node: NodeId) -> Vec<f64> {
        let Some(n) = g.node(node) else {
            return Vec::new();
        };
        match (&n.kind, &n.next) {
            (NodeKind::Table(t), NextHops::Always(_)) => {
                vec![
                    1.0 - {
                        // Inline drop-rate using action probs.
                        self.action_probs(g, node)
                            .iter()
                            .zip(&t.actions)
                            .filter(|(_, a)| a.drops())
                            .map(|(p, _)| *p)
                            .sum::<f64>()
                    },
                ]
            }
            (NodeKind::Table(t), NextHops::ByAction(slots)) => {
                let probs = self.action_probs(g, node);
                (0..slots.len())
                    .map(|i| {
                        if t.actions[i].drops() {
                            0.0
                        } else {
                            probs.get(i).copied().unwrap_or(0.0)
                        }
                    })
                    .collect()
            }
            (NodeKind::Branch(_), NextHops::Branch { .. }) => {
                let t = self.edge_count(EdgeRef::new(node, 0));
                let f = self.edge_count(EdgeRef::new(node, 1));
                let total = t.saturating_add(f);
                if total == 0 {
                    vec![0.5, 0.5]
                } else {
                    let total = total as f64;
                    vec![t as f64 / total, f as f64 / total]
                }
            }
            // Structurally invalid combinations: treat as opaque pass-through.
            _ => vec![1.0],
        }
    }

    /// The probability each node is visited by a packet, propagated from
    /// the root (`p(root) = 1`). Returned dense, indexed by node id.
    ///
    /// Equivalent to summing `P(π)` over all paths through each node
    /// (Eq. 2a) but linear-time on the DAG.
    pub fn visit_probabilities(&self, g: &ProgramGraph) -> Vec<f64> {
        let mut p = vec![0.0f64; g.id_bound()];
        let Some(root) = g.root() else {
            return p;
        };
        let Ok(order) = g.topo_order() else {
            return p;
        };
        p[root.index()] = 1.0;
        for id in order {
            let prob = p[id.index()];
            if prob == 0.0 {
                continue;
            }
            let Some(n) = g.node(id) else { continue };
            let slot_probs = self.slot_probs(g, id);
            for (slot, target) in n.next.targets().into_iter().enumerate() {
                if let Some(t) = target {
                    p[t.index()] += prob * slot_probs.get(slot).copied().unwrap_or(0.0);
                }
            }
        }
        p
    }

    /// True when nothing has been recorded: no packets, counters, rates,
    /// cache statistics, or hints. Empty profiles act as the identity of
    /// [`RuntimeProfile::merge`] (their `window_s` is ignored).
    pub fn is_empty(&self) -> bool {
        self.total_packets == 0
            && self.edge_counts.is_empty()
            && self.action_counts.is_empty()
            && self.entry_update_rates.is_empty()
            && self.cache_stats.is_empty()
            && self.distinct_keys.is_empty()
            && self.cache_hit_hints.is_empty()
    }

    /// Forgets everything recorded, keeping the maps' capacity: a
    /// recorder that is read out and cleared every window regrows
    /// nothing in the next one. The result equals [`Self::empty`].
    pub fn clear(&mut self) {
        self.total_packets = 0;
        self.edge_counts.clear();
        self.action_counts.clear();
        self.entry_update_rates.clear();
        self.cache_stats.clear();
        self.distinct_keys.clear();
        self.cache_hit_hints.clear();
        self.window_s = 1.0;
    }

    /// Merges another profile shard into this one (sharded datapaths
    /// collect one profile per worker; the merged profile is what a
    /// single instrumentation point would have observed).
    ///
    /// Semantics, chosen so the operation is commutative, associative,
    /// and has [`RuntimeProfile::empty`] as identity:
    /// - packet totals, edge counters, action counters, cache statistics,
    ///   and entry-update rates **sum** per key;
    /// - `distinct_keys` **sum** per table — an upper bound, since shards
    ///   cannot see each other's keys (a sharded NIC counts the union of
    ///   its shards' key observers instead, which merges exactly);
    /// - `cache_hit_hints` union, keeping the **max** rate on conflicts;
    /// - `window_s` is the **max** of both windows (shards cover the same
    ///   wall-clock window, not consecutive ones); an empty side's window
    ///   is ignored.
    pub fn merge(&mut self, other: &RuntimeProfile) {
        if !other.is_empty() {
            if self.is_empty() {
                self.window_s = other.window_s;
            } else {
                self.window_s = self.window_s.max(other.window_s);
            }
        }
        self.total_packets += other.total_packets;
        for (&edge, &n) in &other.edge_counts {
            *self.edge_counts.entry(edge).or_insert(0) += n;
        }
        for (&key, &n) in &other.action_counts {
            *self.action_counts.entry(key).or_insert(0) += n;
        }
        for (&node, &rate) in &other.entry_update_rates {
            *self.entry_update_rates.entry(node).or_insert(0.0) += rate;
        }
        for (&node, s) in &other.cache_stats {
            let e = self.cache_stats.entry(node).or_default();
            e.hits += s.hits;
            e.misses += s.misses;
            e.insertions += s.insertions;
        }
        for (&node, &n) in &other.distinct_keys {
            *self.distinct_keys.entry(node).or_insert(0) += n;
        }
        for (tables, &rate) in &other.cache_hit_hints {
            let e = self.cache_hit_hints.entry(tables.clone()).or_insert(rate);
            *e = e.max(rate);
        }
    }

    /// Scales all counters by `factor` (used when extrapolating sampled
    /// profiles back to full traffic; §5.4.1 packet sampling).
    pub fn scale_counts(&mut self, factor: u64) {
        for v in self.edge_counts.values_mut() {
            *v *= factor;
        }
        for v in self.action_counts.values_mut() {
            *v *= factor;
        }
        self.total_packets *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{Condition, MatchKind, ProgramBuilder};

    /// acl (drop 30%) -> branch (70/30) -> [left table | right table]
    fn program_with_profile() -> (ProgramGraph, RuntimeProfile, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let left = b.table("left").key(f, MatchKind::Exact).finish();
        b.set_next(left, None);
        let right = b.table("right").key(f, MatchKind::Exact).finish();
        b.set_next(right, None);
        let br = b.branch("br", Condition::eq(f, 1), Some(left), Some(right));
        let acl = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .finish();
        b.set_next(acl, Some(br));
        let g = b.seal(acl).unwrap();

        let mut p = RuntimeProfile::empty();
        p.total_packets = 1000;
        p.record_action(acl, 0, 700); // permit
        p.record_action(acl, 1, 300); // deny -> dropped
        p.record_edge(EdgeRef::new(br, 0), 490); // true arm
        p.record_edge(EdgeRef::new(br, 1), 210); // false arm
        (g, p, vec![acl, br, left, right])
    }

    #[test]
    fn action_probs_normalize() {
        let (g, p, ids) = program_with_profile();
        let probs = p.action_probs(&g, ids[0]);
        assert!((probs[0] - 0.7).abs() < 1e-12);
        assert!((probs[1] - 0.3).abs() < 1e-12);
        assert!((p.drop_rate(&g, ids[0]) - 0.3).abs() < 1e-12);
    }

    /// Counts near `u64::MAX` (a hostile profile document) normalize
    /// against a saturated total instead of overflowing it.
    #[test]
    fn probabilities_saturate_their_totals() {
        let (g, _, ids) = program_with_profile();
        let mut p = RuntimeProfile::empty();
        p.record_action(ids[0], 1, u64::MAX);
        p.record_action(ids[0], 0, 5);
        p.record_edge(EdgeRef::new(ids[1], 0), u64::MAX);
        p.record_edge(EdgeRef::new(ids[1], 1), 5);
        assert_eq!(p.action_probs(&g, ids[0]), [5.0 / u64::MAX as f64, 1.0]);
        assert_eq!(p.slot_probs(&g, ids[1]), [1.0, 5.0 / u64::MAX as f64]);
    }

    #[test]
    fn empty_profile_defaults_to_uniform() {
        let (g, _, ids) = program_with_profile();
        let p = RuntimeProfile::empty();
        let probs = p.action_probs(&g, ids[0]);
        assert_eq!(probs, vec![0.5, 0.5]);
        assert_eq!(p.slot_probs(&g, ids[1]), vec![0.5, 0.5]);
    }

    #[test]
    fn visit_probabilities_respect_drops_and_branches() {
        let (g, p, ids) = program_with_profile();
        let v = p.visit_probabilities(&g);
        assert!((v[ids[0].index()] - 1.0).abs() < 1e-12);
        // 30% dropped at the ACL.
        assert!((v[ids[1].index()] - 0.7).abs() < 1e-12);
        // Branch splits 70/30 of the surviving 0.7.
        assert!((v[ids[2].index()] - 0.49).abs() < 1e-12);
        assert!((v[ids[3].index()] - 0.21).abs() < 1e-12);
    }

    #[test]
    fn switch_case_slots_zero_out_dropping_actions() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t1 = b.table("t1").key(f, MatchKind::Exact).finish();
        b.set_next(t1, None);
        let sw = b
            .table("sw")
            .key(f, MatchKind::Exact)
            .action_nop("go")
            .action_drop("die")
            .by_action(vec![Some(t1), None])
            .finish();
        let g = b.seal(sw).unwrap();
        let mut p = RuntimeProfile::empty();
        p.record_action(sw, 0, 60);
        p.record_action(sw, 1, 40);
        let slots = p.slot_probs(&g, sw);
        assert!((slots[0] - 0.6).abs() < 1e-12);
        assert_eq!(slots[1], 0.0);
        let v = p.visit_probabilities(&g);
        assert!((v[t1.index()] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn cache_stats_hit_rate() {
        let s = CacheStats {
            hits: 90,
            misses: 10,
            insertions: 10,
        };
        assert!((s.hit_rate().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), None);
    }

    #[test]
    fn entry_update_rates_accumulate() {
        let (_, mut p, ids) = program_with_profile();
        p.set_entry_update_rate(ids[0], 10.0);
        p.set_entry_update_rate(ids[2], 5.0);
        assert_eq!(p.entry_update_rate(ids[0]), 10.0);
        assert_eq!(p.entry_update_rate(ids[1]), 0.0);
        assert_eq!(p.entry_update_rates.values().sum::<f64>(), 15.0);
    }

    #[test]
    fn clear_leaves_the_empty_profile() {
        let (_, mut p, ids) = program_with_profile();
        p.set_distinct_keys(ids[0], 9);
        p.set_entry_update_rate(ids[0], 2.0);
        p.cache_stats.insert(ids[1], CacheStats::default());
        p.window_s = 0.25;
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p, RuntimeProfile::empty());
    }

    #[test]
    fn scale_counts_multiplies_everything() {
        let (g, mut p, ids) = program_with_profile();
        p.scale_counts(1024);
        assert_eq!(p.total_packets, 1_024_000);
        assert_eq!(p.action_count(ids[0], 0), 700 * 1024);
        // Probabilities are unchanged by scaling.
        assert!((p.drop_rate(&g, ids[0]) - 0.3).abs() < 1e-12);
    }
}
