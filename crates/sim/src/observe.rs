//! Latency observations collected by the executor.
//!
//! [`ExecObservations`] is the histogram side of the profiling loop: the
//! end-to-end latency distribution of sampled packets plus a per-table
//! breakdown, all built from [`LatencyHistogram`]s whose `merge` is
//! bit-exact. A [`crate::ShardedNic`] merges per-shard observations with
//! [`ExecObservations::merge`]; because the sampling decision is driven
//! by the *global* packet sequence number and every histogram aggregate
//! is an integer, the merged result is bit-identical to a
//! single-threaded run for any worker count.

use pipeleon_ir::NodeId;
use pipeleon_obs::LatencyHistogram;
use std::collections::BTreeMap;

/// Latency distributions observed since the last take: end-to-end per
/// sampled packet, and the per-table latency contribution of each table
/// the sampled packets executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecObservations {
    /// End-to-end accounted latency of each sampled packet.
    pub packet_latency: LatencyHistogram,
    /// Latency contributed by each table node (match + actions +
    /// counters) on sampled packets, keyed by node id.
    pub per_table: BTreeMap<NodeId, LatencyHistogram>,
}

impl ExecObservations {
    /// An empty observation set (the identity of
    /// [`ExecObservations::merge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.packet_latency.is_empty() && self.per_table.is_empty()
    }

    /// Records a sampled packet's end-to-end latency.
    pub(crate) fn record_packet(&mut self, ns: f64) {
        self.packet_latency.record(ns);
    }

    /// Records the latency a table contributed to a sampled packet.
    pub(crate) fn record_table(&mut self, node: NodeId, ns: f64) {
        self.per_table.entry(node).or_default().record(ns);
    }

    /// Merges another observation set into this one. Inherits the
    /// commutative/associative/identity laws of
    /// [`LatencyHistogram::merge`]: per-key histograms sum bucket-wise,
    /// so any partition of the same samples merges to the same result.
    pub fn merge(&mut self, other: &ExecObservations) {
        self.packet_latency.merge(&other.packet_latency);
        for (node, hist) in &other.per_table {
            self.per_table.entry(*node).or_default().merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_partition_invariant() {
        let mut a = ExecObservations::new();
        let mut b = ExecObservations::new();
        let mut whole = ExecObservations::new();
        for i in 0..500u64 {
            let ns = (i * 13 % 7000) as f64;
            let node = NodeId((i % 3) as u32);
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            part.record_packet(ns);
            part.record_table(node, ns / 2.0);
            whole.record_packet(ns);
            whole.record_table(node, ns / 2.0);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        assert_eq!(ab, whole, "partition-invariant");
        let mut id = a.clone();
        id.merge(&ExecObservations::new());
        assert_eq!(id, a, "identity");
    }
}
