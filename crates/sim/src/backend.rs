//! Abstraction over simulated NIC datapaths, and the control plane as
//! data.
//!
//! [`NicBackend`] is the surface the runtime layer needs from a datapath:
//! the data plane, the reads (program, profile, observations, counters)
//! and one [`NicBackend::apply`] that takes every control operation as a
//! [`ControlOp`] value. [`SmartNic`](crate::SmartNic) (single-threaded)
//! and [`ShardedNic`](crate::ShardedNic) (multi-worker) both implement
//! it, so a `SimTarget` can be backed by either interchangeably.

use crate::exec::ExecReport;
use crate::nic::BatchStats;
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::specialize::SpecStats;
use pipeleon_cost::{CostParams, Placement, RuntimeProfile};
use pipeleon_ir::{IrError, NextHops, NodeId, NodeKind, ProgramGraph, Table, TableEntry};

/// One control-plane operation on a deployed datapath, as a value: what
/// the controller issues, what a fault injector intercepts, what a
/// sharded datapath publishes on its generation chain, and what
/// [`Executor::apply`](crate::Executor::apply) — the only code that
/// changes a deployed datapath — takes.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// Replace the running program. Match engines and the lowering are
    /// rebuilt for the new layout; a flow cache whose covered segment the
    /// new layout does not change keeps its state, every other one starts
    /// cold; the pending profile window, observations, sampling
    /// sequence, placements and instrumentation carry across.
    Deploy(ProgramGraph),
    /// Append an entry to a table.
    InsertEntry {
        /// Target table node.
        node: NodeId,
        /// Entry to append.
        entry: TableEntry,
    },
    /// Remove a table's entry by index.
    RemoveEntry {
        /// Target table node.
        node: NodeId,
        /// Entry index within the node's table.
        index: usize,
    },
    /// Replace a table's definition in place (a re-materialized merge).
    ReplaceTable {
        /// Target table node.
        node: NodeId,
        /// Replacement table contents.
        table: Table,
        /// Replacement next-hop wiring, if it changes.
        next: Option<NextHops>,
    },
    /// Empty one flow cache.
    FlushCache(NodeId),
    /// Turn counter instrumentation on or off.
    SetInstrumentation {
        /// Whether counters update at all.
        enabled: bool,
        /// Update them for one packet in this many (1 = every packet).
        sample_every: u64,
    },
    /// Assign nodes to ASIC/CPU cores (dense by node id).
    SetPlacement(Vec<Placement>),
    /// Specialize the compiled pipeline to the traffic observed: a guard
    /// on every table one key dominates. Swaps the lowering only: the
    /// program, flow caches and the profile window are untouched.
    Specialize,
    /// Revert the compiled pipeline to the verbatim lowering.
    Despecialize,
}

impl ControlOp {
    /// Whether the op replaces the compiled pipeline wholesale: the ops
    /// a backend reports as a [`LiveSwap`], and the ones whose lowering
    /// a publisher builds once for every shard to share.
    pub(crate) fn swaps_pipeline(&self) -> bool {
        matches!(
            self,
            ControlOp::Deploy(_) | ControlOp::Specialize | ControlOp::Despecialize
        )
    }

    /// Applies a table edit — `InsertEntry`, `RemoveEntry` or
    /// `ReplaceTable` — to `graph`. This is the one place an entry op's
    /// effect on a program is written: the executor runs it before
    /// rebuilding the node's engine, and the controller runs it on its
    /// source of truth and on its last-known-good mirror. A rejected op
    /// (an unknown node, a node that is not a table, an index out of
    /// range, an entry the table refuses, a replacement the graph does
    /// not validate with, or an op that is no table edit) leaves `graph`
    /// unchanged.
    pub fn edit_table(&self, graph: &mut ProgramGraph) -> Result<Applied, IrError> {
        let node = match self {
            ControlOp::InsertEntry { node, .. }
            | ControlOp::RemoveEntry { node, .. }
            | ControlOp::ReplaceTable { node, .. } => *node,
            _ => return Err(IrError::Invalid("not a table edit".into())),
        };
        let slot = graph.node_mut(node).ok_or(IrError::UnknownNode(node))?;
        let t = slot.as_table_mut().ok_or(IrError::BadTable {
            table: node,
            reason: "not a table".into(),
        })?;
        match self {
            ControlOp::InsertEntry { entry, .. } => {
                t.entries.push(entry.clone());
                if let Err(reason) = t.validate() {
                    t.entries.pop();
                    return Err(IrError::BadEntry {
                        table: node,
                        reason,
                    });
                }
                Ok(Applied::Done)
            }
            ControlOp::RemoveEntry { index, .. } => {
                if *index >= t.entries.len() {
                    return Err(IrError::BadEntry {
                        table: node,
                        reason: format!("no entry at index {index}"),
                    });
                }
                Ok(Applied::Removed(t.entries.remove(*index)))
            }
            ControlOp::ReplaceTable { table, next, .. } => {
                let old_table = std::mem::replace(t, table.clone());
                let old_next = next
                    .clone()
                    .map(|next| std::mem::replace(&mut slot.next, next));
                let Err(e) = graph.validate() else {
                    return Ok(Applied::Done);
                };
                if let Some(slot) = graph.node_mut(node) {
                    slot.kind = NodeKind::Table(old_table);
                    if let Some(next) = old_next {
                        slot.next = next;
                    }
                }
                Err(e)
            }
            _ => unreachable!("matched as a table edit above"),
        }
    }
}

/// What an accepted [`ControlOp`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// The op took effect.
    Done,
    /// A `RemoveEntry` took effect; this is the entry it removed.
    Removed(TableEntry),
    /// There was nothing to do — a `Specialize` with no plan to apply or
    /// the same plan already in place, a `Despecialize` of a verbatim
    /// pipeline. The datapath is as it was and nothing was published.
    Unchanged,
}

/// What a pipeline swap (`Deploy`, `Specialize`, `Despecialize`) looked
/// like from the datapath's side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSwap {
    /// The generation id the swap was published as (monotone per
    /// backend; every applied op is one generation).
    pub generation: u64,
    /// Packets enqueued but not yet processed at the instant of
    /// publication — they complete under the *old* generation.
    pub in_flight: u64,
    /// Wall-clock latency of the publish step itself (validation +
    /// compile + chain append), in nanoseconds. The datapath never
    /// stalls for this: it is control-plane latency, not downtime.
    pub latency_ns: f64,
}

/// A simulated NIC datapath: the data plane, the reads, and one
/// [`apply`](NicBackend::apply) for the control plane. The per-op
/// methods below it are conveniences that build the [`ControlOp`].
pub trait NicBackend {
    /// The deployed program.
    fn graph(&self) -> &ProgramGraph;

    /// The target parameters.
    fn params(&self) -> &CostParams;

    /// Applies one control operation. It takes effect at this position
    /// of the packet stream: packets already handed to the datapath
    /// complete without it, later ones run with it. A rejected op
    /// changes nothing.
    fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError>;

    /// Takes the profile collected since the last call.
    fn take_profile(&mut self) -> RuntimeProfile;

    /// Takes the latency histograms recorded for sampled packets since
    /// the last call. Sharded datapaths merge per-shard histograms
    /// deterministically before returning.
    fn take_observations(&mut self) -> ExecObservations;

    /// Processes one packet (no arrival pacing).
    fn process_one(&mut self, packet: &mut Packet) -> ExecReport;

    /// Processes a batch of packets in place (no arrival pacing),
    /// returning one report per packet.
    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport>;

    /// Opens a streaming measurement window (see
    /// [`NicBackend::measure_feed`]).
    fn measure_begin(&mut self);

    /// Feeds one chunk of line-rate traffic into the open measurement
    /// window *without waiting for it to drain* — on a sharded backend,
    /// control operations applied between feeds land genuinely
    /// mid-flight. Pacing is continuous across feeds: the chunks of one
    /// begin/feed/end window measure identically to a single
    /// `measure_batch` of their concatenation.
    fn measure_feed(&mut self, packets: Vec<Packet>);

    /// Closes the streaming measurement window: waits for every fed
    /// packet to drain and returns the merged statistics for the whole
    /// window.
    fn measure_end(&mut self) -> BatchStats;

    /// Current simulation time in seconds.
    fn now_s(&self) -> f64;

    /// The most recent pipeline swap, if any.
    fn last_swap(&self) -> Option<LiveSwap>;

    /// Current specialization counters and state.
    fn spec_stats(&self) -> SpecStats;

    /// Runs a batch offered at line rate and reports throughput/latency.
    fn measure_batch(&mut self, packets: Vec<Packet>) -> BatchStats {
        self.measure_begin();
        self.measure_feed(packets);
        self.measure_end()
    }

    /// [`ControlOp::Deploy`].
    fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        self.apply(ControlOp::Deploy(graph)).map(drop)
    }

    /// [`ControlOp::InsertEntry`].
    fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        self.apply(ControlOp::InsertEntry { node, entry }).map(drop)
    }

    /// [`ControlOp::RemoveEntry`]; returns the removed entry.
    fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        match self.apply(ControlOp::RemoveEntry { node, index })? {
            Applied::Removed(entry) => Ok(entry),
            other => unreachable!("a RemoveEntry that succeeds reports its entry, not {other:?}"),
        }
    }

    /// [`ControlOp::SetInstrumentation`].
    fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        let op = ControlOp::SetInstrumentation {
            enabled,
            sample_every,
        };
        let _ = self.apply(op);
    }

    /// [`ControlOp::Specialize`]. Returns `true` if the pipeline changed.
    fn specialize(&mut self) -> bool {
        self.apply(ControlOp::Specialize) == Ok(Applied::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::json::to_json_string;
    use pipeleon_ir::{Condition, MatchKind, MatchValue, ProgramBuilder};

    /// `br` (x < 10) → `acl` (drop x == 13) → sink.
    fn program() -> (ProgramGraph, NodeId, NodeId) {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let acl = b
            .table("acl")
            .key(x, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(13)], 1))
            .finish();
        b.set_next(acl, None);
        let br = b.branch("br", Condition::lt(x, 10), Some(acl), None);
        (b.seal(br).unwrap(), acl, br)
    }

    fn table(g: &ProgramGraph, node: NodeId) -> &Table {
        g.node(node).unwrap().as_table().unwrap()
    }

    #[test]
    fn each_table_edit_takes_effect() {
        let (mut g, acl, br) = program();
        let seven = TableEntry::new(vec![MatchValue::Exact(7)], 1);
        let insert = ControlOp::InsertEntry {
            node: acl,
            entry: seven.clone(),
        };
        assert_eq!(insert.edit_table(&mut g), Ok(Applied::Done));
        assert_eq!(table(&g, acl).entries.last(), Some(&seven));

        let remove = ControlOp::RemoveEntry {
            node: acl,
            index: 0,
        };
        let thirteen = TableEntry::new(vec![MatchValue::Exact(13)], 1);
        assert_eq!(remove.edit_table(&mut g), Ok(Applied::Removed(thirteen)));
        assert_eq!(table(&g, acl).entries, [seven]);

        // A replacement with its own next hops: a switch-case table that
        // goes back to the sink on either action.
        let mut renamed = table(&g, acl).clone();
        renamed.name = "acl_v2".into();
        let replace = ControlOp::ReplaceTable {
            node: acl,
            table: renamed.clone(),
            next: Some(NextHops::ByAction(vec![None, None])),
        };
        assert_eq!(replace.edit_table(&mut g), Ok(Applied::Done));
        assert_eq!(table(&g, acl), &renamed);
        assert_eq!(
            g.node(acl).unwrap().next,
            NextHops::ByAction(vec![None, None])
        );
        assert!(g.node(br).unwrap().as_table().is_none());
        g.validate().unwrap();
    }

    /// An entry whose prefix is longer than the 64-bit key is refused,
    /// on the program and through a NIC, and the table keeps its rules.
    #[test]
    fn an_overlong_prefix_entry_is_refused_and_the_table_kept() {
        let mut b = ProgramBuilder::new();
        let dst = b.field("dst");
        let lpm = |prefix_len| MatchValue::Lpm {
            value: 5,
            prefix_len,
        };
        let route = b
            .table("route")
            .key(dst, MatchKind::Lpm)
            .action_nop("a0")
            .action_nop("a1")
            .entry(TableEntry::new(vec![lpm(64)], 0))
            .finish();
        let mut g = b.seal(route).unwrap();
        let before = to_json_string(&g).unwrap();
        let mut nic =
            crate::SmartNic::new(g.clone(), pipeleon_cost::CostParams::bluefield2()).unwrap();
        for prefix_len in [65, 200, 255] {
            let op = ControlOp::InsertEntry {
                node: route,
                entry: TableEntry::new(vec![lpm(prefix_len)], 1),
            };
            let want = Err(IrError::BadEntry {
                table: route,
                reason: format!("entry 1: prefix length {prefix_len} exceeds 64 bits"),
            });
            assert_eq!(op.edit_table(&mut g), want);
            assert_eq!(
                to_json_string(&g).unwrap(),
                before,
                "/{prefix_len}: program"
            );
            assert_eq!(nic.apply(op), want);
            assert_eq!(
                to_json_string(nic.graph()).unwrap(),
                before,
                "/{prefix_len}: NIC"
            );
        }
    }

    #[test]
    fn a_rejected_table_edit_leaves_the_graph_byte_identical() {
        let (mut g, acl, br) = program();
        let before = to_json_string(&g).unwrap();
        let missing = NodeId(99);
        let one_key = TableEntry::new(vec![MatchValue::Exact(7)], 1);
        let two_keys = TableEntry::new(vec![MatchValue::Exact(7), MatchValue::Exact(8)], 1);
        let same = table(&g, acl).clone();
        let mut no_default = same.clone();
        no_default.default_action = 9;
        let insert = |node, entry: &TableEntry| ControlOp::InsertEntry {
            node,
            entry: entry.clone(),
        };
        let remove = |node, index| ControlOp::RemoveEntry { node, index };
        let replace = |node, table: &Table, next| ControlOp::ReplaceTable {
            node,
            table: table.clone(),
            next,
        };
        let to_missing = Some(NextHops::Always(Some(missing)));
        let cases = [
            (insert(missing, &one_key), ("unknown node", Some(missing))),
            (insert(br, &one_key), ("bad table", Some(br))),
            (insert(acl, &two_keys), ("bad entry", Some(acl))),
            (remove(missing, 0), ("unknown node", Some(missing))),
            (remove(br, 0), ("bad table", Some(br))),
            (remove(acl, 1), ("bad entry", Some(acl))),
            (
                replace(missing, &same, None),
                ("unknown node", Some(missing)),
            ),
            (replace(br, &same, None), ("bad table", Some(br))),
            (replace(acl, &no_default, None), ("bad table", Some(acl))),
            (replace(acl, &same, to_missing), ("invalid", None)),
            (ControlOp::FlushCache(acl), ("invalid", None)),
        ];
        for (op, expected) in cases {
            let err = op.edit_table(&mut g).unwrap_err();
            let refusal = match &err {
                IrError::UnknownNode(n) => ("unknown node", Some(*n)),
                IrError::BadTable { table, .. } => ("bad table", Some(*table)),
                IrError::BadEntry { table, .. } => ("bad entry", Some(*table)),
                _ => ("invalid", None),
            };
            assert_eq!(refusal, expected, "{op:?} was refused with {err:?}");
            assert_eq!(
                to_json_string(&g).unwrap(),
                before,
                "{op:?} changed the graph"
            );
        }
    }
}
