//! The multicore SmartNIC model: RSS dispatch, line-rate arrival, and
//! throughput/latency measurement.
//!
//! Packets are dispatched to `num_cores` run-to-completion cores by flow
//! hash (RSS). A batch of `n` packets arrives paced at line rate; the
//! achieved throughput is `total_bits / max(arrival_time, busiest core's
//! busy time)`, capping at line rate exactly when the cores keep up — the
//! same observable the paper's TRex measurements produce.

use crate::backend::{Applied, ControlOp, LiveSwap, NicBackend};
use crate::exec::{self, EngineMode, ExecReport, Executor, PacketTrace, SampleKeying};
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::specialize::{HotKeySketch, SpecStats};
use pipeleon_cost::{CostParams, RuntimeProfile};
use pipeleon_ir::{IrError, NodeId, ProgramGraph, TableEntry};
use std::collections::HashMap;
use std::time::Instant;

/// How a [`ShardedNic`](crate::ShardedNic) coordinates its workers:
/// persistent per-worker run loops fed by SPSC rings, the only way left.
/// Survives, with `ShardedNic::with_mode`, only because `crates/perf`
/// still names both; ROADMAP item 1 removes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// See the `sharded` module docs.
    #[default]
    RunLoop,
}

/// Aggregate statistics over one measured batch (all zero for an empty
/// one, but for the offered load).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets dropped by the program.
    pub dropped: u64,
    /// Mean per-packet latency (ns).
    pub mean_latency_ns: f64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: f64,
    /// Achieved throughput (Gbit/s), capped at line rate.
    pub throughput_gbps: f64,
    /// Offered load (Gbit/s) — the line rate.
    pub offered_gbps: f64,
    /// Total ASIC↔CPU migrations.
    pub migrations: u64,
    /// Total counter updates performed.
    pub counter_updates: u64,
}

/// The window accumulator: a measurement window folded in a report at a
/// time. One lives on every [`Lane`] (the [`SmartNic`]'s, each shard's), one
/// on the sharded dispatcher for the shard-order merge — kept across
/// windows, so a steady-state window allocates nothing (a fresh
/// multi-hundred-KB allocation per window pays for consolidating the
/// allocator's small-chunk debris, on the window's wall clock). Floats
/// accumulate in the order reports are added — arrival order on the
/// single NIC, where the statistics equal the record reducer in this
/// file's tests over the same reports to the bit.
#[derive(Debug, Default)]
pub(crate) struct BatchAgg {
    dropped: u64,
    migrations: u64,
    counter_updates: u64,
    bits: f64,
    lat_sum: f64,
    core_busy_ns: Vec<f64>,
    /// One per packet, for the p99.
    latencies: Vec<f64>,
}

impl BatchAgg {
    /// Starts a window over `cores` RSS cores.
    pub(crate) fn reset(&mut self, cores: usize) {
        self.dropped = 0;
        self.migrations = 0;
        self.counter_updates = 0;
        self.bits = 0.0;
        self.lat_sum = 0.0;
        self.core_busy_ns.clear();
        self.core_busy_ns.resize(cores, 0.0);
        self.latencies.clear();
    }

    /// Folds in one packet's report, run on RSS core `core`.
    #[inline]
    pub(crate) fn add(&mut self, core: usize, r: &ExecReport, bits: f64) {
        self.core_busy_ns[core] += r.latency_ns;
        self.latencies.push(r.latency_ns);
        self.lat_sum += r.latency_ns;
        self.bits += bits;
        self.dropped += u64::from(r.dropped);
        self.migrations += r.migrations as u64;
        self.counter_updates += r.counter_updates as u64;
    }

    /// Folds in a shard's whole window (same core count).
    pub(crate) fn absorb(&mut self, shard: &BatchAgg) {
        for (busy, v) in self.core_busy_ns.iter_mut().zip(&shard.core_busy_ns) {
            *busy += v;
        }
        self.latencies.extend_from_slice(&shard.latencies);
        self.lat_sum += shard.lat_sum;
        self.bits += shard.bits;
        self.dropped += shard.dropped;
        self.migrations += shard.migrations;
        self.counter_updates += shard.counter_updates;
    }

    /// The statistics of `window`, now closed, whose reports this holds
    /// (sorts the latency list: the window is over).
    pub(crate) fn finish(&mut self, window: &MeasureStream) -> BatchStats {
        let offered_gbps = window.offered_gbps;
        let n = self.latencies.len() as u64;
        if n == 0 {
            return BatchStats {
                offered_gbps,
                ..BatchStats::default()
            };
        }
        let arrival_ns = n as f64 / window.line_pps * 1e9;
        let busiest_ns = self.core_busy_ns.iter().cloned().fold(0.0f64, f64::max);
        BatchStats {
            packets: n,
            dropped: self.dropped,
            mean_latency_ns: self.lat_sum / n as f64,
            p99_latency_ns: self.p99(),
            throughput_gbps: (self.bits / arrival_ns.max(busiest_ns)).min(offered_gbps),
            offered_gbps,
            migrations: self.migrations,
            counter_updates: self.counter_updates,
        }
    }

    /// Nearest-rank p99 of the latencies collected (at least one): the
    /// smallest value with at least ceil(0.99·n) samples at or below it
    /// — for n = 100 the 99th, not the max. Sorts in place, unstably:
    /// that needs no buffer, and equal latencies are indistinguishable,
    /// so the sorted sequence is the same.
    fn p99(&mut self) -> f64 {
        self.latencies
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        let n = self.latencies.len();
        let rank = ((n as f64 * 0.99).ceil() as usize).clamp(1, n);
        self.latencies[rank - 1]
    }
}

/// A software SmartNIC: an [`Executor`] behind multicore RSS dispatch.
///
/// ```
/// use pipeleon_cost::CostParams;
/// use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
/// use pipeleon_sim::{Packet, SmartNic};
///
/// let mut b = ProgramBuilder::new();
/// let f = b.field("x");
/// let acl = b
///     .table("acl")
///     .key(f, MatchKind::Exact)
///     .action_nop("permit")
///     .action_drop("deny")
///     .entry(TableEntry::new(vec![MatchValue::Exact(13)], 1))
///     .finish();
/// let program = b.seal(acl).unwrap();
///
/// let mut nic = SmartNic::new(program.clone(), CostParams::bluefield2()).unwrap();
/// let mut pkt = Packet::new(&program.fields);
/// pkt.set(f, 13);
/// assert!(nic.process_one(&mut pkt).dropped);
///
/// // Batch measurement at line-rate arrival.
/// let batch: Vec<Packet> = (0..1000)
///     .map(|i| {
///         let mut p = Packet::new(&program.fields);
///         p.set(f, i);
///         p
///     })
///     .collect();
/// let stats = nic.measure(batch);
/// assert_eq!(stats.packets, 1000);
/// assert!(stats.throughput_gbps > 0.0);
/// ```
#[derive(Debug)]
pub struct SmartNic {
    exec: Executor,
    /// The one lane: this NIC is a shard of the sharded datapath run
    /// inline — no ring, no lock, no thread.
    lane: Lane,
    /// Ops applied so far: the one-shard analogue of the sharded
    /// generation chain's ids.
    generation: u64,
    /// The most recent pipeline swap (telemetry).
    last_swap: Option<LiveSwap>,
    /// The last taken profile window, retained for specialize steps that
    /// run right after a window boundary (the controller's tick has
    /// already consumed the live counters by then).
    last_profile: RuntimeProfile,
    /// Hot-key sketches taken with the last profile window.
    last_sketches: HashMap<NodeId, HotKeySketch>,
}

/// An open streaming measurement window (between `measure_begin` and
/// `measure_end`). The pacing parameters are snapshotted when it opens,
/// so every fed chunk continues one arrival schedule: a begin/feed*/end
/// window measures identically to one `measure` call over the
/// concatenated traffic. Whoever holds a copy counts its own packets in
/// `n`: a [`Lane`] the ones it ran (its arrival-pacing index), the
/// sharded dispatcher the ones it fed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeasureStream {
    batch_start_s: f64,
    line_pps: f64,
    pub(crate) cores: usize,
    offered_gbps: f64,
    pub(crate) n: u64,
}

impl MeasureStream {
    /// A window opening at `now_s` on a NIC with these parameters
    /// (§5.1: 512 B on the wire for a packet that carries no size).
    pub(crate) fn open(params: &CostParams, now_s: f64) -> Self {
        Self {
            batch_start_s: now_s,
            line_pps: params.line_rate_pps(Packet::DEFAULT_BYTES),
            cores: params.num_cores.max(1),
            offered_gbps: params.line_rate_gbps,
            n: 0,
        }
    }

    /// The clock when the window closes: its `n` packets' arrival time
    /// after its start.
    pub(crate) fn end_s(&self) -> f64 {
        let arrival_ns = self.n as f64 / self.line_pps * 1e9;
        self.batch_start_s + arrival_ns / 1e9
    }
}

/// A run-to-completion lane's measurement bookkeeping around its
/// executor: the open window and what it has accumulated. A
/// [`SmartNic`] is an [`Executor`] and one of these; a sharded NIC keeps
/// one per shard. Its own struct so a burst loop can lend the executor
/// to [`exec::run_burst`] and still reach this from the per-packet
/// closure.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    /// `None` between windows: packets are forwarded, not measured.
    pub(crate) window: Option<MeasureStream>,
    /// Kept across windows (and reset when one opens), so a window
    /// regrows nothing.
    pub(crate) agg: BatchAgg,
}

impl Lane {
    /// Opens `window` on this lane.
    pub(crate) fn begin(&mut self, window: MeasureStream) {
        debug_assert!(self.window.is_none(), "measurement window already open");
        self.agg.reset(window.cores);
        self.window = Some(window);
    }

    /// The measured step: paces the executor clock by this lane's packet
    /// index (arrival pacing drives rate limiters and phase timing), runs
    /// the packet, and folds its report into the window as RSS core
    /// `core`'s work.
    #[inline]
    pub(crate) fn measure_one(&mut self, exec: &mut Executor, pkt: &mut Packet, core: usize) {
        let w = self.window.as_mut().expect("measure_begin first");
        exec.now_s = w.batch_start_s + w.n as f64 / w.line_pps;
        w.n += 1;
        let bits = pkt.wire_bits(Packet::DEFAULT_BYTES);
        self.agg.add(core, &exec.process(pkt), bits);
    }

    /// Closes the window, leaving what it accumulated in `agg`.
    pub(crate) fn end(&mut self) -> MeasureStream {
        self.window.take().expect("measure_begin first")
    }
}

impl SmartNic {
    /// Deploys `graph` on a NIC with the given target parameters.
    pub fn new(graph: ProgramGraph, params: CostParams) -> Result<Self, IrError> {
        Ok(Self {
            exec: Executor::new(graph, params)?,
            lane: Lane::default(),
            generation: 0,
            last_swap: None,
            last_profile: RuntimeProfile::empty(),
            last_sketches: HashMap::new(),
        })
    }

    /// The deployed program.
    pub fn graph(&self) -> &ProgramGraph {
        self.exec.graph()
    }

    /// The target parameters.
    pub fn params(&self) -> &CostParams {
        self.exec.params()
    }

    /// Direct access to the executor (placement, instrumentation, caches).
    pub fn executor_mut(&mut self) -> &mut Executor {
        &mut self.exec
    }

    /// Applies one control operation now — the one-shard instance of
    /// what a [`ShardedNic`](crate::ShardedNic) publishes on its
    /// generation chain: nothing is ever in flight, so the op's stream
    /// position is "before the next packet". Every op that changes the
    /// datapath is a generation; a pipeline swap is also recorded
    /// ([`SmartNic::last_swap`]).
    pub fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError> {
        let t0 = Instant::now();
        let applied = match &op {
            // The retained window is this NIC's, not the executor's.
            ControlOp::Specialize(cfg) => {
                self.exec
                    .specialize_from(cfg, &self.last_profile, &self.last_sketches)
            }
            op => self.exec.apply(op)?,
        };
        if applied != Applied::Unchanged {
            self.generation += 1;
            if op.swaps_pipeline() {
                self.last_swap = Some(LiveSwap {
                    generation: self.generation,
                    // Single-threaded: nothing is ever in flight at a swap.
                    in_flight: 0,
                    latency_ns: t0.elapsed().as_nanos() as f64,
                });
            }
        }
        Ok(applied)
    }

    /// [`NicBackend::deploy`], for callers without the trait in scope
    /// (as are the five below).
    pub fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        NicBackend::deploy(self, graph)
    }

    /// [`NicBackend::insert_entry`].
    pub fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        NicBackend::insert_entry(self, node, entry)
    }

    /// [`NicBackend::remove_entry`].
    pub fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        NicBackend::remove_entry(self, node, index)
    }

    /// [`NicBackend::set_instrumentation`].
    pub fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        NicBackend::set_instrumentation(self, enabled, sample_every)
    }

    /// [`ControlOp::SetEngineMode`].
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        let _ = self.apply(ControlOp::SetEngineMode(mode));
    }

    /// [`NicBackend::specialize`].
    pub fn specialize(&mut self) -> bool {
        NicBackend::specialize(self)
    }

    /// The most recent pipeline swap, if any.
    pub fn last_swap(&self) -> Option<LiveSwap> {
        self.last_swap
    }

    /// Selects how sampling decisions are keyed (see [`SampleKeying`]).
    /// [`SampleKeying::FlowKeyed`] makes this NIC the single-threaded
    /// reference for the run-loop sharded datapath's sampled counters
    /// and histograms.
    pub fn set_sample_keying(&mut self, keying: SampleKeying) {
        self.exec.set_sample_keying(keying)
    }

    /// Takes the profile collected since the last call. The window (and
    /// its hot-key sketches) is retained for the next specialize step.
    pub fn take_profile(&mut self) -> RuntimeProfile {
        self.last_profile = self.exec.take_profile();
        self.last_sketches = self.exec.take_hot_sketches();
        self.last_profile.clone()
    }

    /// Current specialization counters and state.
    pub fn spec_stats(&self) -> SpecStats {
        self.exec.spec_stats()
    }

    /// Takes the latency histograms recorded for sampled packets since
    /// the last call.
    pub fn take_observations(&mut self) -> ExecObservations {
        self.exec.take_observations()
    }

    /// Current simulation time in seconds.
    pub fn now_s(&self) -> f64 {
        self.exec.now_s
    }

    /// The currently selected packet-execution engine.
    pub fn engine_mode(&self) -> EngineMode {
        self.exec.engine_mode()
    }

    /// Processes one packet (single-core semantics; no arrival pacing).
    pub fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        self.exec.process(packet)
    }

    /// Processes a batch of packets in place (single-core semantics; no
    /// arrival pacing), returning one report per packet. On the compiled
    /// engine the pipeline is compiled once and reused across the whole
    /// batch with zero steady-state heap allocations per packet.
    pub fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        self.exec.process_batch(packets)
    }

    /// Processes one packet with a trace.
    pub fn process_one_traced(
        &mut self,
        packet: &mut Packet,
        trace: &mut PacketTrace,
    ) -> ExecReport {
        self.exec.process_traced(packet, trace)
    }

    /// Runs a batch offered at line rate through the multicore NIC and
    /// reports achieved throughput and latency statistics. Advances the
    /// simulation clock by the batch's arrival time.
    pub fn measure<I>(&mut self, packets: I) -> BatchStats
    where
        I: IntoIterator<Item = Packet>,
    {
        self.measure_begin();
        self.measure_feed(packets);
        self.measure_end()
    }

    /// Opens a streaming measurement window (snapshotting the pacing
    /// parameters and the window's start time).
    pub fn measure_begin(&mut self) {
        let window = MeasureStream::open(self.exec.params(), self.exec.now_s);
        self.lane.begin(window);
    }

    /// Feeds one chunk into the open measurement window; pacing
    /// continues from the previous feed, so control-plane operations
    /// between feeds land at chunk boundaries of one continuous
    /// arrival schedule.
    pub fn measure_feed<I>(&mut self, packets: I)
    where
        I: IntoIterator<Item = Packet>,
    {
        let lane = &mut self.lane;
        let cores = lane.window.as_ref().expect("measure_begin first").cores as u64;
        // A burst is a slice; collecting a `Vec<Packet>` reuses it as is.
        let mut packets: Vec<Packet> = packets.into_iter().collect();
        exec::run_burst(&mut self.exec, &mut packets, |exec, pkt| {
            let core = (pkt.flow_hash() % cores) as usize;
            lane.measure_one(exec, pkt, core);
        });
    }

    /// Closes the measurement window, advancing the clock to the
    /// window's end and returning its statistics.
    pub fn measure_end(&mut self) -> BatchStats {
        let window = self.lane.end();
        self.exec.now_s = window.end_s();
        self.lane.agg.finish(&window)
    }

    /// Convenience: measures the mean per-packet latency of a batch
    /// without arrival pacing (used for cost-model calibration).
    pub fn mean_latency<I>(&mut self, packets: I) -> f64
    where
        I: IntoIterator<Item = Packet>,
    {
        let mut packets: Vec<Packet> = packets.into_iter().collect();
        let mut sum = 0.0;
        exec::run_burst(&mut self.exec, &mut packets, |exec, pkt| {
            sum += exec.process(pkt).latency_ns;
        });
        if packets.is_empty() {
            0.0
        } else {
            sum / packets.len() as f64
        }
    }
}

impl NicBackend for SmartNic {
    fn graph(&self) -> &ProgramGraph {
        SmartNic::graph(self)
    }

    fn params(&self) -> &CostParams {
        SmartNic::params(self)
    }

    fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError> {
        SmartNic::apply(self, op)
    }

    fn take_profile(&mut self) -> RuntimeProfile {
        SmartNic::take_profile(self)
    }

    fn take_observations(&mut self) -> ExecObservations {
        SmartNic::take_observations(self)
    }

    fn engine_mode(&self) -> EngineMode {
        SmartNic::engine_mode(self)
    }

    fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        SmartNic::process_one(self, packet)
    }

    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        SmartNic::process_batch(self, packets)
    }

    fn measure_begin(&mut self) {
        SmartNic::measure_begin(self)
    }

    fn measure_feed(&mut self, packets: Vec<Packet>) {
        SmartNic::measure_feed(self, packets)
    }

    fn measure_end(&mut self) -> BatchStats {
        SmartNic::measure_end(self)
    }

    fn now_s(&self) -> f64 {
        SmartNic::now_s(self)
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        SmartNic::last_swap(self)
    }

    fn spec_stats(&self) -> SpecStats {
        SmartNic::spec_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{MatchKind, Primitive, ProgramBuilder};

    fn linear_program(tables: usize) -> ProgramGraph {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let mut first = None;
        for i in 0..tables {
            let t = b
                .table(format!("t{i}"))
                .key(f, MatchKind::Exact)
                .action("a", vec![Primitive::Nop])
                .finish();
            first.get_or_insert(t);
        }
        b.seal(first.unwrap()).unwrap()
    }

    fn packets(n: usize) -> Vec<Packet> {
        (0..n).map(|i| Packet::with_slots(vec![i as u64])).collect()
    }

    /// What one packet contributed to a measured batch, as a record.
    /// The datapaths fold reports into a [`BatchAgg`] as they arrive;
    /// records and [`from_records`] are the reference that streamed
    /// window is tested against.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct PacketRecord {
        /// RSS core the packet was dispatched to (must be `< num_cores`).
        core: usize,
        latency_ns: f64,
        dropped: bool,
        migrations: u64,
        counter_updates: u64,
        /// Wire size in bits, for throughput conversion.
        bits: f64,
    }

    /// Reduces per-packet records, in arrival order, into batch
    /// statistics. Only a [`BatchAgg`]'s two lists are borrowed; the
    /// reduction is this function's own.
    fn from_records(
        records: &[PacketRecord],
        num_cores: usize,
        line_pps: f64,
        offered_gbps: f64,
    ) -> BatchStats {
        let n = records.len() as u64;
        if n == 0 {
            return BatchStats {
                offered_gbps,
                ..BatchStats::default()
            };
        }
        let mut scratch = BatchAgg::default();
        scratch.reset(num_cores.max(1));
        let mut dropped = 0u64;
        let mut migrations = 0u64;
        let mut counter_updates = 0u64;
        let mut total_bits = 0.0f64;
        for r in records {
            scratch.core_busy_ns[r.core] += r.latency_ns;
            scratch.latencies.push(r.latency_ns);
            migrations += r.migrations;
            counter_updates += r.counter_updates;
            if r.dropped {
                dropped += 1;
            }
            total_bits += r.bits;
        }
        let arrival_ns = n as f64 / line_pps * 1e9;
        let busiest_ns = scratch.core_busy_ns.iter().cloned().fold(0.0f64, f64::max);
        let duration_ns = arrival_ns.max(busiest_ns);
        BatchStats {
            packets: n,
            dropped,
            mean_latency_ns: scratch.latencies.iter().sum::<f64>() / n as f64,
            p99_latency_ns: scratch.p99(),
            throughput_gbps: (total_bits / duration_ns).min(offered_gbps),
            offered_gbps,
            migrations,
            counter_updates,
        }
    }

    /// Nearest-rank p99 over latencies 1..=n ns is exactly ceil(0.99·n).
    /// The pre-fix truncating index `(n·0.99) as usize` returned the max
    /// for n=100 (rank 100) instead of the nearest-rank value (rank 99).
    #[test]
    fn p99_is_nearest_rank() {
        for (n, expected) in [(1u64, 1.0), (99, 99.0), (100, 99.0), (101, 100.0)] {
            let records: Vec<PacketRecord> = (0..n)
                .map(|i| PacketRecord {
                    core: 0,
                    latency_ns: (i + 1) as f64,
                    dropped: false,
                    migrations: 0,
                    counter_updates: 0,
                    bits: 4096.0,
                })
                .collect();
            let s = from_records(&records, 1, 1e6, 100.0);
            assert_eq!(
                s.p99_latency_ns, expected,
                "n={n}: expected nearest-rank p99 {expected}, got {}",
                s.p99_latency_ns
            );
        }
    }

    /// drop-if-13 ACL ahead of `tables` plain tables.
    fn acl_program(tables: usize) -> (ProgramGraph, NodeId) {
        use pipeleon_ir::MatchValue;
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let acl = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(13)], 1))
            .finish();
        for i in 0..tables {
            b.table(format!("t{i}"))
                .key(f, MatchKind::Exact)
                .action("a", vec![Primitive::Nop])
                .finish();
        }
        (b.seal(acl).unwrap(), acl)
    }

    /// The streamed window against the record oracle: a twin NIC runs
    /// the same packets one `process_one` at a time on the same clock,
    /// its reports become [`PacketRecord`]s, and [`from_records`] must
    /// agree with the window to the
    /// bit — one-shot, empty, and begin/feed/feed/end with a control op
    /// between the feeds.
    #[test]
    fn streamed_window_equals_from_records_over_the_same_reports() {
        use pipeleon_ir::MatchValue;
        let params = CostParams::bluefield2();
        let cores = params.num_cores.max(1);
        let line_pps = params.line_rate_pps(Packet::DEFAULT_BYTES);
        let (graph, acl) = acl_program(3);
        let traffic = |n: usize, salt: u64| -> Vec<Packet> {
            (0..n as u64)
                .map(|i| {
                    let mut p = Packet::with_slots(vec![(i * 7 + salt) % 40]);
                    // Own sizes, and some that fall back to the default.
                    p.bytes = [0, 64, 512, 1500][(i % 4) as usize];
                    p
                })
                .collect()
        };
        for mode in [EngineMode::Interpreter, EngineMode::Compiled] {
            let mut nic = SmartNic::new(graph.clone(), params.clone()).unwrap();
            let mut twin = SmartNic::new(graph.clone(), params.clone()).unwrap();
            for n in [&mut nic, &mut twin] {
                n.set_engine_mode(mode);
                n.set_instrumentation(true, 4);
            }
            let oracle =
                |twin: &mut SmartNic, feeds: &[Vec<Packet>], op: &dyn Fn(&mut SmartNic)| {
                    let start = twin.now_s();
                    let mut records = Vec::new();
                    for (k, feed) in feeds.iter().enumerate() {
                        if k > 0 {
                            op(twin);
                        }
                        for pkt in feed {
                            let mut pkt = pkt.clone();
                            twin.executor_mut().now_s = start + records.len() as f64 / line_pps;
                            let core = (pkt.flow_hash() % cores as u64) as usize;
                            let bytes = if pkt.bytes > 0 { pkt.bytes } else { 512 };
                            let r = twin.process_one(&mut pkt);
                            records.push(PacketRecord {
                                core,
                                latency_ns: r.latency_ns,
                                dropped: r.dropped,
                                migrations: r.migrations as u64,
                                counter_updates: r.counter_updates as u64,
                                bits: (bytes * 8) as f64,
                            });
                        }
                    }
                    if !records.is_empty() {
                        let arrival_ns = records.len() as f64 / line_pps * 1e9;
                        twin.executor_mut().now_s = start + arrival_ns / 1e9;
                    }
                    from_records(&records, cores, line_pps, params.line_rate_gbps)
                };
            let same = |got: BatchStats, want: BatchStats, ctx: &str| {
                for (g, w) in [
                    (got.mean_latency_ns, want.mean_latency_ns),
                    (got.p99_latency_ns, want.p99_latency_ns),
                    (got.throughput_gbps, want.throughput_gbps),
                    (got.offered_gbps, want.offered_gbps),
                ] {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{mode:?} {ctx}: {got:?} vs {want:?}"
                    );
                }
                assert_eq!(got, want, "{mode:?} {ctx}");
            };
            let deny_7 = |n: &mut SmartNic| {
                n.insert_entry(acl, TableEntry::new(vec![MatchValue::Exact(7)], 1))
                    .unwrap();
            };

            let window = traffic(1_000, 0);
            let want = oracle(&mut twin, std::slice::from_ref(&window), &|_| {});
            assert!(want.dropped > 0 && want.counter_updates > 0);
            same(nic.measure(window), want, "one shot");

            let want = oracle(&mut twin, &[], &|_| {});
            same(nic.measure(Vec::new()), want, "empty");

            let feeds = [traffic(300, 3), traffic(500, 11)];
            let want = oracle(&mut twin, &feeds, &deny_7);
            nic.measure_begin();
            let [first, second] = feeds;
            nic.measure_feed(first);
            deny_7(&mut nic);
            nic.measure_feed(second);
            same(nic.measure_end(), want, "begin/feed/op/feed/end");
            assert_eq!(
                nic.now_s().to_bits(),
                twin.now_s().to_bits(),
                "{mode:?}: clock"
            );
            assert_eq!(nic.take_profile(), twin.take_profile(), "{mode:?}: profile");
        }
    }

    #[test]
    fn small_program_hits_line_rate() {
        let mut nic = SmartNic::new(linear_program(2), CostParams::bluefield2()).unwrap();
        let s = nic.measure(packets(5000));
        assert_eq!(s.packets, 5000);
        assert!(
            (s.throughput_gbps - s.offered_gbps).abs() < 1e-6,
            "got {} vs offered {}",
            s.throughput_gbps,
            s.offered_gbps
        );
    }

    #[test]
    fn large_program_falls_below_line_rate() {
        let mut nic = SmartNic::new(linear_program(40), CostParams::bluefield2()).unwrap();
        let s = nic.measure(packets(5000));
        assert!(
            s.throughput_gbps < s.offered_gbps * 0.95,
            "got {} vs offered {}",
            s.throughput_gbps,
            s.offered_gbps
        );
        assert!(s.mean_latency_ns > 0.0);
        assert!(s.p99_latency_ns >= s.mean_latency_ns * 0.5);
    }

    #[test]
    fn throughput_monotonically_decreases_with_program_size() {
        let mut prev = f64::INFINITY;
        for n in [5, 15, 30, 45] {
            let mut nic = SmartNic::new(linear_program(n), CostParams::bluefield2()).unwrap();
            let s = nic.measure(packets(3000));
            assert!(
                s.throughput_gbps <= prev + 1e-9,
                "throughput increased with more tables"
            );
            prev = s.throughput_gbps;
        }
    }

    #[test]
    fn clock_advances_with_batches() {
        let mut nic = SmartNic::new(linear_program(2), CostParams::bluefield2()).unwrap();
        assert_eq!(nic.now_s(), 0.0);
        nic.measure(packets(1000));
        let t1 = nic.now_s();
        assert!(t1 > 0.0);
        nic.measure(packets(1000));
        assert!(nic.now_s() > t1);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let mut nic = SmartNic::new(linear_program(2), CostParams::bluefield2()).unwrap();
        let s = nic.measure(Vec::new());
        assert_eq!(s.packets, 0);
        assert_eq!(s.throughput_gbps, 0.0);
    }

    #[test]
    fn mean_latency_matches_process_one() {
        let mut nic = SmartNic::new(linear_program(3), CostParams::bluefield2()).unwrap();
        let single = nic.process_one(&mut Packet::with_slots(vec![7])).latency_ns;
        let mean = nic.mean_latency(packets(100));
        assert!((single - mean).abs() < 1e-9);
    }
}
