//! The epoch/RCU generation chain every control operation travels.
//!
//! A [`crate::ShardedNic`] does not take its shards' locks to change
//! what they run (which would serialize the control plane against packet
//! execution). The dispatcher *publishes* each [`ControlOp`] as a
//! numbered generation onto a shared [`GenChain`]; every work item it
//! subsequently dispatches is tagged with the latest generation id, and
//! a shard *adopts* pending generations lazily — the first packet of a
//! burst tagged with a newer generation walks the chain and applies
//! every publication it has not seen yet, in publication order, before
//! any packet of that burst executes.
//!
//! This gives the RCU structure its grace-period shape without a single
//! stop-the-world point:
//!
//! * **Publish**: the dispatcher appends a [`GenNode`] (the op, plus the
//!   lowering it swaps in when it swaps one) and bumps `latest`. Publication
//!   happens-before dispatch on the dispatcher thread, and the SPSC
//!   ring's release/acquire hand-off carries that edge to the workers —
//!   a worker that dequeues an item tagged `g` is guaranteed to see
//!   every chain node with id ≤ `g`.
//! * **Adopt**: shards move forward only (`adopt_to` is monotone), so a
//!   packet is executed by exactly the generation it was dispatched
//!   under — never a torn half-applied state, never an older one.
//! * **Reclaim**: once every shard's *adopted* watermark has passed a
//!   node it can never be read again and is popped from the chain. The
//!   dispatcher reclaims opportunistically at publish time and
//!   exhaustively at quiescence (`wait_idle`), so the chain is empty in
//!   steady state and memory stays bounded under swap storms.

use crate::backend::ControlOp;
use crate::sync::{AtomicU64, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

/// One published generation. `R` is what rides along with the op — in
/// the datapath, the pipeline control lowered for it; the chain itself
/// never looks.
#[derive(Debug)]
pub struct GenNode<R> {
    /// Monotone generation id; ids are dense (latest id = chain length +
    /// reclaimed prefix).
    pub id: u64,
    /// The published operation. Control has already applied it to its
    /// replica before publishing, so shard-side application is
    /// infallible by construction.
    pub op: ControlOp,
    /// The pipeline control lowered for a pipeline-swapping op, when the
    /// compiled engine is on: shards adopt by cloning instead of each
    /// re-lowering (or re-planning) on the datapath.
    pub lowered: Option<R>,
}

/// The shared publication chain. The dispatcher is the only publisher;
/// shards read pending spans under the mutex when they adopt.
#[derive(Debug)]
pub struct GenChain<R> {
    nodes: Mutex<VecDeque<Arc<GenNode<R>>>>,
    /// Highest published generation id (0 = the construction-time
    /// program, which is never on the chain).
    latest: AtomicU64,
}

impl<R> Default for GenChain<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> GenChain<R> {
    /// An empty chain at generation 0.
    pub fn new() -> Self {
        Self {
            nodes: Mutex::new(VecDeque::new()),
            latest: AtomicU64::new(0),
        }
    }

    /// Highest published generation id.
    pub fn latest(&self) -> u64 {
        // ORDERING: Acquire — pairs with the Release store in
        // `publish`: a reader that observes generation id `g` also
        // sees the chain node for `g` (the push_back under the mutex
        // happens-before the Release store of `latest`). On the
        // datapath this edge is belt-and-braces: the dispatcher reads
        // `latest` on its own thread and the ring hand-off carries it
        // to workers; `Acquire` keeps the standalone API safe too.
        self.latest.load(Ordering::Acquire)
    }

    /// Appends a new generation and returns its id.
    pub fn publish(&self, op: ControlOp, lowered: Option<R>) -> u64 {
        let mut nodes = self.nodes.lock().expect("generation chain poisoned");
        // ORDERING: Acquire — same edge as `latest()`; also the mutex
        // guarantees we are the only publisher in flight, so `id` is
        // unique and dense.
        let id = self.latest.load(Ordering::Acquire) + 1;
        nodes.push_back(Arc::new(GenNode { id, op, lowered }));
        // ORDERING: Release — publishes the push_back above: any thread
        // whose Acquire load of `latest` returns `id` finds the node on
        // the chain (forward-only adoption relies on this; verified by
        // the GenChain models in crates/sim/tests/model.rs).
        self.latest.store(id, Ordering::Release);
        id
    }

    /// The pending span `(from, to]` in publication order — everything a
    /// shard at generation `from` must apply to reach `to`.
    pub fn pending(&self, from: u64, to: u64) -> Vec<Arc<GenNode<R>>> {
        let nodes = self.nodes.lock().expect("generation chain poisoned");
        nodes
            .iter()
            .filter(|n| n.id > from && n.id <= to)
            .cloned()
            .collect()
    }

    /// Drops every node with id ≤ `min_adopted` (no shard can ever read
    /// them again).
    pub fn reclaim(&self, min_adopted: u64) {
        let mut nodes = self.nodes.lock().expect("generation chain poisoned");
        while nodes.front().is_some_and(|n| n.id <= min_adopted) {
            nodes.pop_front();
        }
    }

    /// Unreclaimed chain length (test/debug visibility).
    #[cfg(any(test, pipeleon_check))]
    pub fn len(&self) -> usize {
        self.nodes.lock().expect("generation chain poisoned").len()
    }

    /// Whether the chain is fully reclaimed (model-check visibility).
    #[cfg(pipeleon_check)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{MatchValue, NodeId, TableEntry};

    fn patch(v: u64) -> ControlOp {
        ControlOp::InsertEntry {
            node: NodeId(0),
            entry: TableEntry::new(vec![MatchValue::Exact(v)], 0),
        }
    }

    #[test]
    fn publish_numbers_generations_densely() {
        let c = GenChain::<()>::new();
        assert_eq!(c.latest(), 0);
        assert_eq!(c.publish(patch(1), None), 1);
        assert_eq!(c.publish(patch(2), None), 2);
        assert_eq!(c.latest(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pending_returns_the_half_open_span_in_order() {
        let c = GenChain::<()>::new();
        for v in 0..5 {
            c.publish(patch(v), None);
        }
        let span = c.pending(1, 4);
        assert_eq!(span.iter().map(|n| n.id).collect::<Vec<_>>(), [2, 3, 4]);
        assert!(c.pending(4, 4).is_empty());
    }

    #[test]
    fn reclaim_drops_only_the_adopted_prefix() {
        let c = GenChain::<()>::new();
        for v in 0..4 {
            c.publish(patch(v), None);
        }
        c.reclaim(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.pending(0, 4).first().unwrap().id, 3);
        c.reclaim(4);
        assert_eq!(c.len(), 0);
        // Ids keep counting after a full reclaim.
        assert_eq!(c.publish(patch(9), None), 5);
    }
}
