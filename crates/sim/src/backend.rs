//! Abstraction over simulated NIC datapaths, and the control plane as
//! data.
//!
//! [`NicBackend`] is the surface the runtime layer needs from a datapath:
//! the data plane, the reads (program, profile, observations, counters)
//! and one [`NicBackend::apply`] that takes every control operation as a
//! [`ControlOp`] value. [`SmartNic`](crate::SmartNic) (single-threaded)
//! and [`ShardedNic`](crate::ShardedNic) (multi-worker) both implement
//! it, so a `SimTarget` can be backed by either interchangeably.

use crate::exec::{EngineMode, ExecReport};
use crate::nic::BatchStats;
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::specialize::{SpecConfig, SpecStats};
use pipeleon_cost::{CostParams, MemoryTier, Placement, RuntimeProfile};
use pipeleon_ir::{IrError, NextHops, NodeId, ProgramGraph, Table, TableEntry};

/// One control-plane operation on a deployed datapath, as a value: what
/// the controller issues, what a fault injector intercepts, what a
/// sharded datapath publishes on its generation chain, and what
/// [`Executor::apply`](crate::Executor::apply) — the only code that
/// changes a deployed datapath — takes.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// Replace the running program. Match engines, the lowering and
    /// flow-cache state are rebuilt for the new layout; the pending
    /// profile window, observations, sampling sequence, placements,
    /// memory tiers, engine mode and instrumentation carry across.
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
    /// Set a flow cache's insertion rate limit.
    SetCacheInsertionLimit {
        /// The flow-cache node.
        node: NodeId,
        /// Insertions per second.
        rate_per_s: f64,
    },
    /// Turn counter instrumentation on or off.
    SetInstrumentation {
        /// Whether counters update at all.
        enabled: bool,
        /// Update them for one packet in this many (1 = every packet).
        sample_every: u64,
    },
    /// Assign nodes to ASIC/CPU cores (dense by node id).
    SetPlacement(Vec<Placement>),
    /// Assign tables to memory tiers (dense by node id).
    SetMemoryTiers(Vec<MemoryTier>),
    /// Select the engine that runs packets.
    SetEngineMode(EngineMode),
    /// Specialize the compiled pipeline to the traffic observed, under
    /// these planning thresholds. Swaps the lowering only: the program,
    /// flow caches and the profile window are untouched.
    Specialize(SpecConfig),
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
            ControlOp::Deploy(_) | ControlOp::Specialize(_) | ControlOp::Despecialize
        )
    }

    /// Whether the op's effect is still there after a later `Deploy`
    /// (which rebuilds the program, its lowering and its flow caches).
    pub(crate) fn outlives_deploy(&self) -> bool {
        matches!(
            self,
            ControlOp::SetInstrumentation { .. }
                | ControlOp::SetPlacement(_)
                | ControlOp::SetMemoryTiers(_)
                | ControlOp::SetEngineMode(_)
        )
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

    /// The currently selected packet-execution engine.
    fn engine_mode(&self) -> EngineMode;

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

    /// [`ControlOp::Specialize`] under the default thresholds. Returns
    /// `true` if the pipeline changed.
    fn specialize(&mut self) -> bool {
        self.apply(ControlOp::Specialize(SpecConfig::default())) == Ok(Applied::Done)
    }
}
