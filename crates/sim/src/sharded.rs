//! The sharded multi-worker datapath.
//!
//! [`ShardedNic`] RSS-hashes packets by flow key onto `N` worker shards,
//! each owning a private [`Executor`] with its own runtime-profile shard,
//! and merges per-shard profiles/observations back into one
//! [`RuntimeProfile`] / [`ExecObservations`] at profile-window boundaries
//! (`take_profile` / `take_observations`).
//!
//! # The run loop
//!
//! Persistent worker threads, spawned once at construction and joined on
//! drop, each spinning a DPDK-style run loop: burst-dequeue packets from
//! a private SPSC ring ([`crate::ring`]), execute them, accumulate
//! shard-local aggregates, park when idle. The dispatcher hashes packets
//! onto rings and never waits mid-batch: it is *work-conserving* — when a
//! ring fills, or at end-of-batch drain, the dispatcher executes bursts
//! itself through the same shard-locked path the workers use instead of
//! blocking on them. There is no global arrival stamping, no cross-shard
//! record sort, and no per-batch thread spawn, and on a single-CPU host a
//! batch drains with zero context switches.
//!
//! The oracle is the single-threaded [`SmartNic`](crate::SmartNic): the
//! same [`Executor`] and the same per-packet measured step
//! (`Lane` in `nic.rs`) driven inline in arrival order, sharing
//! nothing else with this file. What sharding **preserves** exactly
//! against it (asserted by `tests/runloop_differential.rs`):
//!
//! - **Forwarding decisions and packet mutations.** A flow lives on
//!   exactly one shard and rings are FIFO, so the k-th packet of a flow
//!   sees the same table/cache state as in a single-threaded run.
//! - **Per-flow packet order.** Same argument.
//! - **Integer batch statistics** (packet/drop/migration/counter-update
//!   counts), the **p99 latency** (reduced from the exact merged
//!   latency multiset, which is partition-invariant) and the **clock**.
//! - **Sampled counters and histograms, for any worker count.** Sampling
//!   is keyed per flow ([`SampleKeying::FlowKeyed`]): the decision for a
//!   packet depends only on `(flow_hash, per-flow index)`, both
//!   partition-invariant, so profiles and latency histograms merged at a
//!   window boundary are bit-identical across worker counts and to a
//!   `SmartNic` with flow-keyed sampling. With `sample_every == 1` every
//!   packet is sampled and profiles also match the `SmartNic` default,
//!   the global-sequence schedule, bit-for-bit.
//!
//! What it **relaxes**:
//!
//! - **Global arrival interleaving.** Floating-point aggregates whose
//!   value depends on summation order — mean latency, core busy time and
//!   hence throughput — are accumulated per shard and summed in shard
//!   order, so they can differ from the single-threaded result in the
//!   last ULPs (they are still deterministic for a fixed worker count).
//! - **Arrival-clock pacing is shard-local.** A shard paces its
//!   executor clock by its own packet index, so time-dependent runtime
//!   state (cache insertion rate limiters) sees per-shard schedules.
//!
//! # Control plane: ops as data on the generation chain
//!
//! Every control operation is a [`ControlOp`] and takes one path
//! ([`NicBackend::apply`]): it is applied to the control replica — which
//! validates it, so a rejected op publishes nothing and the answer is
//! the replica's — then *published* as a numbered generation on an
//! epoch/RCU chain (`GenChain` in `generation.rs`), carrying the pipeline
//! the replica lowered for it when it swaps one (`Deploy`, `Specialize`,
//! `Despecialize`). Every packet dispatched afterwards is tagged with
//! that generation, and a shard adopts pending generations, in order,
//! when the first packet tagged with a newer one reaches it. So an op
//! takes effect at a position of the packet stream, whatever the op:
//!
//! - **No torn reads**: a packet executes under exactly the generation
//!   it was dispatched with — adoption is monotone and happens *between*
//!   packets, never mid-packet.
//! - **No drops or stalls**: publication takes no shard lock while
//!   packets are in flight, and they complete under their old
//!   generation.
//! - **Worker-count-invariant attribution**: the generation tag is a
//!   pure function of the packet's position in the arrival stream
//!   relative to the publishes, so per-generation packet counts (and,
//!   with flow-keyed sampling, merged profiles) are identical for any
//!   worker count — for a flush or an instrumentation flip between two
//!   feeds of an open window as much as for a program swap.
//!
//! When nothing is in flight — between windows — the position is "now":
//! the publish fast-forwards every shard to the latest generation on the
//! spot and reclaims the chain. The same fast-forward ends every drain
//! (`wait_idle`), so the chain is empty in steady state and shard state
//! read between windows is current.
//!
//! Caveat: flow-cache *runtime state* is shard-local. Each shard has its
//! own LRU of the configured capacity and its own insertion rate
//! limiter, so under eviction or rate-limit pressure a sharded run can
//! diverge from a single-threaded one (more aggregate capacity, more
//! aggregate insertion budget). Equivalence holds exactly for programs
//! without flow caches, and for cached programs whose working set and
//! insertion rate stay under the per-shard limits. What holds under
//! pressure too is that each shard behaves as a `SmartNic` fed its
//! `flow_hash % workers` partition alone.

use crate::backend::{Applied, ControlOp, LiveSwap, NicBackend};
use crate::compiled::CompiledPipeline;
use crate::distinct::{self, DistinctKeys};
use crate::exec::{self, EngineMode, ExecReport, Executor, SampleKeying};
use crate::generation::GenChain;
use crate::nic::{BatchAgg, BatchStats, Lane, MeasureStream, ShardMode};
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::ring;
use crate::specialize::{HotKeySketch, SpecStats};
use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use fxhash::FxHashMap;
use pipeleon_cost::{CostParams, RuntimeProfile};
use pipeleon_ir::{IrError, NodeId, ProgramGraph};
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Total in-flight ring slots across all shards. Per-shard capacity is
/// this divided by the worker count (clamped to
/// [`RING_CAPACITY_MIN`]..=[`RING_CAPACITY_MAX`]): a dispatcher can keep
/// well ahead of the workers before hitting backpressure, but the
/// aggregate in-flight window stays bounded so staged items are still
/// cache-warm when their worker dequeues them — with per-shard capacity
/// fixed instead, high worker counts would stage entire batches cold.
const RING_TOTAL_SLOTS: usize = 4096;
const RING_CAPACITY_MIN: usize = 512;
const RING_CAPACITY_MAX: usize = 8192;
/// Maximum items a worker dequeues (and processes under one lock
/// acquisition) per run-loop iteration.
const BURST: usize = 512;
/// Idle spins before a worker parks.
const SPIN_BUDGET: u32 = 64;
/// Items the dispatcher stages per shard before bursting them into the
/// shard's ring (the DPDK tx-burst idiom). Staging through a tiny,
/// constantly reused buffer keeps the dispatcher's write target hot and
/// turns ring-slot writes into sequential runs: pushing items one at a
/// time round-robin across many rings makes every slot write a stray
/// access to a different buffer, which defeats the hardware prefetcher
/// once the ring count grows.
const STAGE_BURST: usize = 64;
/// The most shards [`ShardedNic::new`] builds. Each shard is an OS thread
/// and a ring, and the worker count arrives from the command line, so it
/// is bounded before any of them exists; 64 is eight times the largest
/// count the tests and docs use.
pub const MAX_WORKERS: usize = 64;

/// One unit of work travelling through a shard ring.
#[derive(Debug)]
struct WorkItem {
    /// `process_batch`: position in the caller's input slice (scatter
    /// index). `measure`: the RSS core, which the dispatcher derives from
    /// the flow hash it already computed to pick the shard — so a packet
    /// is hashed once, not once per side of the ring.
    idx: u32,
    /// The generation current when the dispatcher staged this packet.
    /// The shard adopts pending generations up to this id before
    /// executing the packet — so attribution is a pure function of
    /// stream position, independent of worker count and timing.
    gen: u64,
    pkt: Packet,
}

impl Borrow<Packet> for WorkItem {
    fn borrow(&self) -> &Packet {
        &self.pkt
    }
}

/// Everything the consumer side of a shard mutates, behind the shard
/// mutex: the executor state *and* the ring consumer handle. Keeping the
/// consumer inside the mutex makes the datapath *work-conserving*: a
/// burst is dequeued and executed by whoever holds the lock — normally
/// the shard's worker thread, but also the dispatcher when it would
/// otherwise wait (ring-full backpressure, end-of-batch drain). The ring
/// stays single-producer (only the dispatcher pushes) and
/// single-consumer-at-a-time (the mutex serializes the consumer handle,
/// and its lock/unlock edges order the cursor state between alternating
/// drainers).
#[derive(Debug)]
struct ShardState {
    exec: Executor,
    /// Consumer side of the shard's SPSC ring.
    rx: ring::Consumer<WorkItem>,
    lane: ShardLane,
}

/// A shard's bookkeeping around its executor: the measurement [`Lane`]
/// every NIC has, plus what only a ring-fed shard needs — where
/// forwarded results wait, which generation it runs. Its own struct so
/// the burst loop can lend the executor to [`exec::run_burst`] and still
/// reach all of this from the per-item closure.
#[derive(Debug)]
struct ShardLane {
    /// The open measurement window and its shard-local aggregates,
    /// merged deterministically (in shard order) after the window
    /// drains. Between windows items are `process_batch` work.
    measure: Lane,
    /// `process_batch` results awaiting scatter-back.
    out: Vec<(u32, Packet, ExecReport)>,
    /// Generation this shard has adopted (0 = the construction-time
    /// program). Monotone; see [`ShardLane::adopt_to`].
    gen: u64,
    /// Packets executed under `gen` that are not in `gen_packets` yet.
    gen_run: u64,
    /// Packets executed per earlier generation — with `gen_run`, the
    /// "every packet attributable to exactly one generation" ledger. A
    /// run-length tally: the map is touched when the generation changes,
    /// not per packet.
    gen_packets: FxHashMap<u64, u64>,
    /// The shared publication chain (same `Arc` on every shard and the
    /// dispatcher).
    chain: Arc<GenChain<CompiledPipeline>>,
}

impl ShardLane {
    /// Applies every generation in `(self.gen, target]`, in publication
    /// order, then records the new watermark. What the last full deploy
    /// in the span rebuilds anyway (entries, the lowering, flow caches)
    /// is not applied before it: the deploy carries the whole
    /// already-patched program. Forward-only: a fast-forwarded shard
    /// never re-applies or rolls back.
    fn adopt_to(&mut self, exec: &mut Executor, target: u64) {
        if target <= self.gen {
            return;
        }
        let span = self.chain.pending(self.gen, target);
        let last_deploy = span
            .iter()
            .rposition(|n| matches!(n.op, ControlOp::Deploy(_)))
            .unwrap_or(0);
        for (i, node) in span.iter().enumerate() {
            if i >= last_deploy || node.op.outlives_deploy() {
                exec.adopt(&node.op, node.lowered.as_ref());
            }
        }
        if self.gen_run > 0 {
            *self.gen_packets.entry(self.gen).or_insert(0) += self.gen_run;
            self.gen_run = 0;
        }
        self.gen = target;
    }

    fn run_item(&mut self, exec: &mut Executor, item: &mut WorkItem) {
        if item.gen > self.gen {
            self.adopt_to(exec, item.gen);
        }
        self.gen_run += 1;
        if self.measure.window.is_some() {
            self.measure
                .measure_one(exec, &mut item.pkt, item.idx as usize);
        } else {
            // The executor clock is as the dispatcher set it.
            let r = exec.process(&mut item.pkt);
            let pkt = std::mem::replace(&mut item.pkt, Packet::with_slots(Vec::new()));
            self.out.push((item.idx, pkt, r));
        }
    }
}

/// One shard: state behind a mutex plus the idle-detection counters.
#[derive(Debug)]
struct ShardCell {
    state: Mutex<ShardState>,
    /// Items fully processed by the worker (monotone total). The
    /// dispatcher compares it against its own enqueue count to detect
    /// batch drain.
    processed: AtomicU64,
    /// Mirror of the shard's adopted generation, published after each
    /// drained burst. Never ahead of `ShardState::gen`, so the chain
    /// prefix `≤ min(adopted)` is provably unreachable and safe to
    /// reclaim.
    adopted: AtomicU64,
    stop: AtomicBool,
}

/// The persistent worker threads and the dispatcher's ends of their
/// rings, one per shard, index-aligned.
#[derive(Debug)]
struct RunLoopWorkers {
    producers: Vec<ring::Producer<WorkItem>>,
    /// Also the unpark handles (`JoinHandle::thread`).
    joins: Vec<JoinHandle<()>>,
    /// Whether to wake workers mid-dispatch so they overlap with the
    /// arriving batch. Pure scheduler churn on a single-CPU host (the
    /// worker can only run by preempting the dispatcher, and the
    /// work-conserving dispatcher drains every ring itself anyway), so
    /// it is enabled only when real parallelism exists.
    wake_during_dispatch: bool,
}

/// Moves every staged item into the shard's ring, helping drain on
/// ring-full backpressure, and returns how many were moved. `stage` is
/// empty on return. (`STAGE_BURST` never exceeds ring capacity, and the
/// help drain empties the ring, so the loop always terminates.)
fn flush_stage(
    producer: &mut ring::Producer<WorkItem>,
    cell: &ShardCell,
    stage: &mut Vec<WorkItem>,
    help: &mut Vec<WorkItem>,
) -> u64 {
    let n = stage.len() as u64;
    let mut it = stage.drain(..);
    while it.len() > 0 {
        if producer.push_burst(&mut it) == 0 {
            drain_burst(cell, help);
        }
    }
    n
}

/// Dequeues and executes everything currently in `cell`'s ring, one
/// [`BURST`] at a time, under a single shard-lock hold, crediting
/// `processed`. Returns how many items ran (0 when the ring is empty).
/// Called by the shard's worker thread *and* by the dispatcher when it
/// helps out; `buf` is the caller's reusable burst buffer. Draining to
/// empty per lock acquisition matters at high worker counts: every
/// acquisition switches the executing thread onto a different shard's
/// executor state, so fewer, larger drains keep that state hot longer.
fn drain_burst(cell: &ShardCell, buf: &mut Vec<WorkItem>) -> usize {
    let mut st = cell.state.lock().expect("shard state poisoned");
    let ShardState { exec, rx, lane } = &mut *st;
    let mut total = 0usize;
    loop {
        let n = rx.pop_burst(buf, BURST);
        if n == 0 {
            break;
        }
        exec::run_burst(exec, buf, |exec, item| lane.run_item(exec, item));
        buf.clear();
        total += n;
    }
    if total > 0 {
        // ORDERING: Release — publishes the shard-state mutations of
        // this drain (made under the lock above) to the dispatcher's
        // Acquire load in `reclaim_adopted`: a chain node is only
        // reclaimed after the adoption that read it happens-before the
        // reclaim decision.
        cell.adopted.store(lane.gen, Ordering::Release);
        // ORDERING: Release — pairs with the dispatcher's Acquire loads
        // in `wait_idle`/`in_flight`/`flush_stage`: when the dispatcher
        // observes `processed == enqueued`, every item's execution (and
        // its profile/stat writes under the shard lock) happens-before
        // whatever the dispatcher does next with the results.
        cell.processed.fetch_add(total as u64, Ordering::Release);
    }
    total
}

fn worker_loop(cell: Arc<ShardCell>) {
    let mut burst: Vec<WorkItem> = Vec::with_capacity(BURST);
    let mut spins: u32 = 0;
    loop {
        if drain_burst(&cell, &mut burst) == 0 {
            // ORDERING: Acquire — pairs with `Drop`'s Release store:
            // observing `stop` also shows every item enqueued before the
            // flag was raised (checked by the fresh drain above).
            if cell.stop.load(Ordering::Acquire) {
                // Fresh look at the ring *after* observing stop: items
                // enqueued before the flag must still drain. (The
                // drain_burst above re-read the cursors under the lock,
                // so an empty result here really means drained.)
                break;
            }
            spins += 1;
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else {
                // Plain park is safe: every enqueue path unparks after
                // its Release store, and `unpark` tokens make that
                // wakeup stick even if we were not parked yet. `Drop`
                // also unparks after setting `stop`, and
                // the work-conserving dispatcher never depends on this
                // thread making progress.
                thread::park();
                spins = 0;
            }
            continue;
        }
        spins = 0;
    }
}

/// A software SmartNIC whose datapath is sharded over `N` parallel
/// workers by flow hash (RSS). Its API is [`NicBackend`]. See the
/// module docs for the run loop and its determinism guarantees.
#[derive(Debug)]
pub struct ShardedNic {
    shards: Vec<Arc<ShardCell>>,
    /// Control replica: receives every control-plane op but no packets,
    /// so `graph()` / `params()` can be served without locking a shard.
    control: Executor,
    run: RunLoopWorkers,
    /// Items ever enqueued per shard (dispatcher-side totals, compared
    /// against `ShardCell::processed` to detect drain).
    enqueued: Vec<u64>,
    /// Dispatcher-side accumulator for the window-boundary merge, reused
    /// across windows so the merge allocates nothing in steady state.
    merge: BatchAgg,
    /// Dispatcher-side distinct-key unions for `take_profile`, dense by
    /// node index; cleared and reused the same way.
    distinct_union: Vec<DistinctKeys>,
    /// The dispatcher's own burst buffer for helping drain shard rings
    /// (work-conserving dispatch; see [`drain_burst`]).
    help_scratch: Vec<WorkItem>,
    /// Per-shard tx-burst staging buffers (see [`STAGE_BURST`]); always
    /// empty between public calls.
    stage: Vec<Vec<WorkItem>>,
    /// Global simulation clock in seconds.
    now_s: f64,
    /// Clock value at the last `take_profile` (profile window start).
    last_take_s: f64,
    /// The generation publication chain (shared with every shard).
    chain: Arc<GenChain<CompiledPipeline>>,
    /// Cached `chain.latest()` — the dispatcher is the sole publisher,
    /// so its cache is always exact; work items are tagged with it.
    latest_gen: u64,
    /// The most recent pipeline swap (telemetry).
    last_swap: Option<LiveSwap>,
    /// The open measurement window, if any: the copy every shard's lane
    /// opened with, counting the packets fed.
    measuring: Option<MeasureStream>,
    /// The last taken window's merged hot-key sketches, retained so a
    /// specialize step right after a window boundary still sees a full
    /// window.
    last_sketches: HashMap<NodeId, HotKeySketch>,
}

impl ShardedNic {
    /// Deploys `graph` on a NIC with `workers` parallel shards (clamped
    /// to at least 1), each a persistent worker thread behind its ring.
    /// More than [`MAX_WORKERS`] is refused before any ring or thread
    /// exists.
    pub fn new(graph: ProgramGraph, params: CostParams, workers: usize) -> Result<Self, IrError> {
        if workers > MAX_WORKERS {
            return Err(IrError::Invalid(format!(
                "{workers} shard workers exceed the maximum of {MAX_WORKERS}"
            )));
        }
        let workers = workers.max(1);
        let chain = Arc::new(GenChain::new());
        let capacity = (RING_TOTAL_SLOTS / workers).clamp(RING_CAPACITY_MIN, RING_CAPACITY_MAX);
        let mut shards = Vec::with_capacity(workers);
        let mut producers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let mut exec = Executor::new(graph.clone(), params.clone())?;
            exec.set_sample_keying(SampleKeying::FlowKeyed);
            let (tx, rx) = ring::spsc::<WorkItem>(capacity);
            producers.push(tx);
            shards.push(Arc::new(ShardCell {
                state: Mutex::new(ShardState {
                    exec,
                    rx,
                    lane: ShardLane {
                        measure: Lane::default(),
                        out: Vec::new(),
                        gen: 0,
                        gen_run: 0,
                        gen_packets: FxHashMap::default(),
                        chain: Arc::clone(&chain),
                    },
                }),
                processed: AtomicU64::new(0),
                adopted: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }));
        }
        let control = Executor::new(graph, params)?;
        // Nothing below fails: a worker spawned here is joined in `Drop`.
        let joins: Vec<JoinHandle<()>> = shards
            .iter()
            .map(|cell| {
                let cell = Arc::clone(cell);
                thread::Builder::new()
                    .name("pipeleon-shard".into())
                    .spawn(move || worker_loop(cell))
                    .expect("spawn shard worker")
            })
            .collect();
        Ok(Self {
            shards,
            control,
            run: RunLoopWorkers {
                producers,
                joins,
                wake_during_dispatch: thread::available_parallelism().map_or(1, |n| n.get()) > 1,
            },
            enqueued: vec![0; workers],
            merge: BatchAgg::default(),
            distinct_union: Vec::new(),
            help_scratch: Vec::with_capacity(BURST),
            stage: (0..workers)
                .map(|_| Vec::with_capacity(STAGE_BURST))
                .collect(),
            now_s: 0.0,
            last_take_s: 0.0,
            chain,
            latest_gen: 0,
            last_swap: None,
            measuring: None,
            last_sketches: HashMap::new(),
        })
    }

    /// [`ShardedNic::new`], under the name `crates/perf` still calls; it
    /// goes with [`ShardMode`] (ROADMAP item 1).
    #[doc(hidden)]
    pub fn with_mode(
        graph: ProgramGraph,
        params: CostParams,
        workers: usize,
        _mode: ShardMode,
    ) -> Result<Self, IrError> {
        Self::new(graph, params, workers)
    }

    /// Blocks until every shard has processed everything enqueued for
    /// it — by *helping*: the dispatcher drains pending rings itself
    /// through the same [`drain_burst`] path the workers use, instead of
    /// waking them and waiting. On a single-CPU host the whole batch
    /// tail then runs with zero context switches; on multi-CPU hosts
    /// pending shards are unparked first so their workers race the
    /// dispatcher for bursts and the lock arbitrates. Termination is
    /// structural: a shard with `processed < enqueued` always has its
    /// remaining items either in the ring (the next `drain_burst` takes
    /// them) or mid-execution under the shard lock (the lock acquisition
    /// inside `drain_burst` waits them out).
    fn wait_idle(&mut self) {
        let run = &self.run;
        if run.wake_during_dispatch {
            for (i, cell) in self.shards.iter().enumerate() {
                // ORDERING: Acquire — pairs with the worker's Release
                // fetch_add in `drain_burst` (see there); an equal count
                // means all processing effects are visible here.
                if cell.processed.load(Ordering::Acquire) != self.enqueued[i] {
                    run.joins[i].thread().unpark();
                }
            }
        }
        loop {
            let mut all_drained = true;
            for (i, cell) in self.shards.iter().enumerate() {
                // ORDERING: Acquire — same edge as above; the batch is
                // only declared drained once every worker's Release
                // publication has been observed.
                if cell.processed.load(Ordering::Acquire) != self.enqueued[i] {
                    all_drained = false;
                    drain_burst(cell, &mut self.help_scratch);
                }
            }
            if all_drained {
                break;
            }
        }
        self.fast_forward();
    }

    /// Brings every shard to the latest generation and reclaims the
    /// chain. Only called when nothing is in flight, so fast-forwarding
    /// a shard cannot skip a generation a packet still needs — there are
    /// none. This is the RCU grace-period end: all shards reach
    /// `latest_gen`, the whole chain becomes unreachable, and reclaiming
    /// it bounds memory under swap storms. It also zeroes executor
    /// deltas (cache stats reset at adoption) identically on every
    /// shard, keeping window merges worker-count-invariant even when
    /// some shards saw no packets after a publish.
    fn fast_forward(&mut self) {
        let latest = self.latest_gen;
        debug_assert_eq!(
            latest,
            self.chain.latest(),
            "dispatcher is the sole publisher, so its cache is exact"
        );
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            let ShardState { exec, lane, .. } = &mut *st;
            lane.adopt_to(exec, latest);
            // ORDERING: Release — same edge as the `drain_burst`
            // publication: the adoption work under the lock
            // happens-before any reclaim that observes this value.
            cell.adopted.store(latest, Ordering::Release);
        }
        self.chain.reclaim(latest);
    }

    /// Packets enqueued to shard rings but not yet processed.
    fn in_flight(&self) -> u64 {
        self.shards
            .iter()
            .enumerate()
            // ORDERING: Acquire — pairs with `drain_burst`'s Release
            // fetch_add; monotone, so a stale read only overstates the
            // in-flight count (never invents completion).
            .map(|(i, c)| self.enqueued[i] - c.processed.load(Ordering::Acquire))
            .sum()
    }

    /// Drops every chain node all shards have provably adopted (called
    /// opportunistically at publish time; `wait_idle` reclaims the rest).
    fn reclaim_adopted(&self) {
        let min = self
            .shards
            .iter()
            // ORDERING: Acquire — pairs with the Release stores of
            // `adopted` in `drain_burst`/`wait_idle`/`process_one`: a
            // node is dropped only after every shard's walk past it is
            // visible, so no shard can still read a reclaimed node
            // (verified by the GenChain reclaim model).
            .map(|c| c.adopted.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        self.chain.reclaim(min);
    }

    /// Every shard's deployed program, in shard order (cloned out of the
    /// shard mutexes). Identical whenever nothing is in flight; tests
    /// assert it.
    pub fn shard_graphs(&self) -> Vec<ProgramGraph> {
        self.shards
            .iter()
            .map(|c| {
                c.state
                    .lock()
                    .expect("shard state poisoned")
                    .exec
                    .graph()
                    .clone()
            })
            .collect()
    }

    /// Packets executed per generation, merged across shards. Each
    /// packet is counted under exactly one generation — the one it was
    /// dispatched with — so the counts sum to the packets processed and
    /// are identical for any worker count.
    pub fn generation_counts(&self) -> BTreeMap<u64, u64> {
        let mut merged = BTreeMap::new();
        for cell in &self.shards {
            let st = cell.state.lock().expect("shard state poisoned");
            let lane = &st.lane;
            for (&g, &c) in &lane.gen_packets {
                *merged.entry(g).or_insert(0) += c;
            }
            if lane.gen_run > 0 {
                *merged.entry(lane.gen).or_insert(0) += lane.gen_run;
            }
        }
        merged
    }

    /// [`ControlOp::SetEngineMode`].
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        let _ = self.apply(ControlOp::SetEngineMode(mode));
    }

    /// Total live entries in a flow cache's runtime state across shards.
    pub fn cache_len(&self, node: NodeId) -> usize {
        self.shards
            .iter()
            .map(|c| {
                c.state
                    .lock()
                    .expect("shard state poisoned")
                    .exec
                    .cache_len(node)
            })
            .sum()
    }

    /// Streams `(shard, item)` pairs onto the worker rings via the
    /// per-shard tx-burst stage: items collect in a tiny hot buffer and
    /// enter the ring [`STAGE_BURST`] at a time as one sequential slot
    /// run. On ring-full backpressure the dispatcher *helps*: it drains
    /// the full ring itself through the same locked path the workers use
    /// rather than yielding the CPU and hoping a worker runs —
    /// work-conserving on a single-CPU host. When real parallelism
    /// exists, a shard is additionally unparked at every flush so its
    /// worker overlaps with the arriving batch.
    fn dispatch(&mut self, items: impl Iterator<Item = (usize, WorkItem)>) {
        let run = &mut self.run;
        let shards = &self.shards;
        let help = &mut self.help_scratch;
        let enqueued = &mut self.enqueued;
        let stage = &mut self.stage;
        let nw = enqueued.len();
        for (shard, item) in items {
            stage[shard].push(item);
            if stage[shard].len() >= STAGE_BURST {
                enqueued[shard] += flush_stage(
                    &mut run.producers[shard],
                    &shards[shard],
                    &mut stage[shard],
                    help,
                );
                if run.wake_during_dispatch {
                    run.joins[shard].thread().unpark();
                }
            }
        }
        for shard in 0..nw {
            if !stage[shard].is_empty() {
                enqueued[shard] += flush_stage(
                    &mut run.producers[shard],
                    &shards[shard],
                    &mut stage[shard],
                    help,
                );
            }
            // ORDERING: Acquire — pairs with `drain_burst`'s Release
            // fetch_add; a lagging count means the worker may be parked
            // with work pending, so kick it.
            if run.wake_during_dispatch
                && shards[shard].processed.load(Ordering::Acquire) != enqueued[shard]
            {
                run.joins[shard].thread().unpark();
            }
        }
    }

    /// [`NicBackend::measure_batch`] over any packet source. Every
    /// integer statistic, the p99 and the clock equal
    /// [`SmartNic::measure`](crate::SmartNic::measure)'s exactly, the
    /// float aggregates up to summation order (module docs).
    pub fn measure(&mut self, packets: impl IntoIterator<Item = Packet>) -> BatchStats {
        self.measure_batch(packets.into_iter().collect())
    }

    /// [`NicBackend::set_instrumentation`], for `crates/perf`'s
    /// `datapath_skewed.rs`, which calls it and the one below without
    /// the trait in scope.
    #[doc(hidden)]
    pub fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        NicBackend::set_instrumentation(self, enabled, sample_every)
    }

    /// [`NicBackend::specialize`], for `datapath_skewed.rs`.
    #[doc(hidden)]
    pub fn specialize(&mut self) -> bool {
        NicBackend::specialize(self)
    }
}

impl Drop for ShardedNic {
    fn drop(&mut self) {
        for cell in &self.shards {
            // ORDERING: Release — everything enqueued before the drop
            // happens-before the flag: a worker that observes `stop`
            // (Acquire) and then finds its ring empty has provably
            // processed all of it.
            cell.stop.store(true, Ordering::Release);
        }
        for j in self.run.joins.drain(..) {
            j.thread().unpark();
            // A panic while another unwinds aborts: report the worker's
            // only when this drop is not itself part of an unwind.
            if j.join().is_err() && !thread::panicking() {
                panic!("shard worker panicked");
            }
        }
    }
}

impl NicBackend for ShardedNic {
    /// The control replica's: identical on every shard.
    fn graph(&self) -> &ProgramGraph {
        self.control.graph()
    }

    fn params(&self) -> &CostParams {
        self.control.params()
    }

    /// Applies one control operation: validate on the control replica,
    /// publish, tag (see the module docs). Packets already dispatched
    /// complete without the op; every later one runs with it, on
    /// whichever shard. A rejected op publishes nothing, and neither
    /// does one the replica reports as [`Applied::Unchanged`].
    fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError> {
        let t0 = Instant::now();
        let applied = match &op {
            // One plan, from the merged cross-shard window: the retained
            // last one's sketches (read where they lie when nothing has
            // accumulated since) folded with every shard's live ones —
            // drained first, since feeds only dispatch and a plan made
            // from whatever the workers had got through differs from run
            // to run.
            ControlOp::Specialize => {
                self.wait_idle();
                let mut sketches = Cow::Borrowed(&self.last_sketches);
                for cell in &self.shards {
                    let st = cell.state.lock().expect("shard state poisoned");
                    st.exec.peek_hot_sketches_into(&mut sketches);
                }
                self.control.specialize_from(&sketches)
            }
            op => self.control.apply(op)?,
        };
        if applied == Applied::Unchanged {
            return Ok(applied);
        }
        // A swapped pipeline is lowered once, here: adopters clone it
        // instead of each lowering the program mid-burst.
        let swap = op.swaps_pipeline();
        let lowered = swap.then(|| self.control.compiled_clone()).flatten();
        self.latest_gen = self.chain.publish(op, lowered);
        let in_flight = self.in_flight();
        if swap {
            self.last_swap = Some(LiveSwap {
                generation: self.latest_gen,
                in_flight,
                latency_ns: t0.elapsed().as_nanos() as f64,
            });
        }
        if in_flight == 0 {
            self.fast_forward();
        } else {
            self.reclaim_adopted();
        }
        Ok(applied)
    }

    /// Takes the merged profile collected across all shards since the
    /// last call — the window-boundary merge: counters fold via
    /// [`RuntimeProfile::merge`], the window is the global clock delta,
    /// and distinct-key counts come from exact cross-shard unions of the
    /// raw key sets, saturating at the single tracker's cap.
    fn take_profile(&mut self) -> RuntimeProfile {
        let mut merged = RuntimeProfile::empty();
        let mut sketches: HashMap<NodeId, HotKeySketch> = HashMap::new();
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            merged.merge(&st.exec.take_profile_into(&mut self.distinct_union));
            for (node, sk) in st.exec.take_hot_sketches() {
                sketches
                    .entry(node)
                    .and_modify(|e| e.merge(&sk))
                    .or_insert(sk);
            }
        }
        distinct::count_into(&mut self.distinct_union, &mut merged);
        merged.window_s = (self.now_s - self.last_take_s).max(1e-9);
        self.last_take_s = self.now_s;
        self.last_sketches = sketches;
        merged
    }

    /// Takes the merged latency observations across all shards since the
    /// last call — the window-boundary merge. Histogram merging is
    /// bit-exact (integer bucket sums) and the sampled-packet *set* is
    /// partition-invariant (sampling decisions are flow-keyed), so the
    /// merged histograms are identical for any worker count.
    fn take_observations(&mut self) -> ExecObservations {
        let mut merged = ExecObservations::new();
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            merged.merge(&st.exec.take_observations());
        }
        merged
    }

    /// The control replica's: every shard reaches it at the same stream
    /// position.
    fn engine_mode(&self) -> EngineMode {
        self.control.engine_mode()
    }

    /// Processes one packet on the shard its flow hashes to (no arrival
    /// pacing), on the caller's thread. Sampling is flow-keyed, so
    /// reports match a flow-keyed single-threaded run.
    fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        let shard = (packet.flow_hash() % self.shards.len() as u64) as usize;
        let cell = &self.shards[shard];
        let mut st = cell.state.lock().expect("shard state poisoned");
        if self.latest_gen > st.lane.gen {
            let ShardState { exec, lane, .. } = &mut *st;
            lane.adopt_to(exec, self.latest_gen);
            // ORDERING: Release — same edge as the `drain_burst`
            // publication of `adopted` (see there).
            cell.adopted.store(st.lane.gen, Ordering::Release);
        }
        st.lane.gen_run += 1;
        st.exec.now_s = self.now_s;
        st.exec.process(packet)
    }

    /// Processes a batch of packets in place (no arrival pacing),
    /// returning one report per packet in input order: packets stream
    /// through the worker rings and results are scattered back by input
    /// position.
    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        assert!(
            u32::try_from(packets.len()).is_ok(),
            "process_batch is limited to u32::MAX packets"
        );
        let nw = self.shards.len();
        let gen = self.latest_gen;
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.now_s = self.now_s;
            st.lane.out.clear();
        }
        self.dispatch(packets.iter_mut().enumerate().map(|(i, slot)| {
            let pkt = std::mem::replace(slot, Packet::with_slots(Vec::new()));
            let shard = (pkt.flow_hash() % nw as u64) as usize;
            (
                shard,
                WorkItem {
                    idx: i as u32,
                    gen,
                    pkt,
                },
            )
        }));
        self.wait_idle();
        let mut reports: Vec<Option<ExecReport>> = vec![None; packets.len()];
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            for (idx, pkt, r) in st.lane.out.drain(..) {
                packets[idx as usize] = pkt;
                reports[idx as usize] = Some(r);
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every dispatched packet reports back"))
            .collect()
    }

    /// Opens a streaming measurement window: snapshots the pacing
    /// parameters and resets per-shard aggregates. Chunks fed with
    /// [`NicBackend::measure_feed`] continue one arrival schedule;
    /// [`NicBackend::measure_end`] drains and returns the merged stats.
    fn measure_begin(&mut self) {
        debug_assert!(self.measuring.is_none(), "measurement window already open");
        let window = MeasureStream::open(self.params(), self.now_s);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.lane.measure.begin(window);
        }
        self.measuring = Some(window);
    }

    /// Feeds one chunk into the open measurement window. This only
    /// *dispatches* — it does not wait for the chunk to drain, so
    /// control-plane generations published between feeds land genuinely
    /// mid-flight.
    fn measure_feed(&mut self, packets: Vec<Packet>) {
        let nw = self.shards.len() as u64;
        let cores = self.measuring.as_ref().expect("measure_begin first").cores as u64;
        let gen = self.latest_gen;
        let mut n = 0u64;
        self.dispatch(packets.into_iter().map(|pkt| {
            n += 1;
            let hash = pkt.flow_hash();
            // `cores` is a NIC core count; it fits `idx` with room to
            // spare.
            let idx = (hash % cores) as u32;
            ((hash % nw) as usize, WorkItem { idx, gen, pkt })
        }));
        self.measuring.as_mut().expect("measure_begin first").n += n;
    }

    /// Closes the measurement window: waits for every fed packet to
    /// drain (quiescing the generation chain) and returns the merged
    /// statistics for the whole window.
    fn measure_end(&mut self) -> BatchStats {
        self.wait_idle();
        let window = self.measuring.take().expect("measure_begin first");
        self.now_s = window.end_s();
        // Deterministic window-boundary merge, in shard order, into the
        // persistent accumulator. The sorted latency multiset is
        // partition-invariant, so the p99 is exact.
        self.merge.reset(window.cores);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            // Align every shard clock to the batch end so subsequent
            // direct access observes a consistent global time.
            st.exec.now_s = self.now_s;
            st.lane.measure.end();
            self.merge.absorb(&st.lane.measure.agg);
        }
        self.merge.finish(&window)
    }

    fn now_s(&self) -> f64 {
        self.now_s
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        self.last_swap
    }

    /// Current specialization counters: plan/epoch state from the
    /// control replica (shards adopt its lowerings through the
    /// generation chain), guard hit/miss telemetry summed across the
    /// shards that actually execute packets.
    fn spec_stats(&self) -> SpecStats {
        let mut stats = self.control.spec_stats();
        for cell in &self.shards {
            let st = cell.state.lock().expect("shard state poisoned");
            let s = st.exec.spec_stats();
            stats.guard_hits += s.guard_hits;
            stats.guard_misses += s.guard_misses;
            stats.memo_hits += s.memo_hits;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmartNic;
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

    #[test]
    fn more_than_max_workers_is_refused() {
        let Err(err) =
            ShardedNic::new(linear_program(2), CostParams::bluefield2(), MAX_WORKERS + 1)
        else {
            panic!("more than MAX_WORKERS workers must be refused");
        };
        assert!(
            matches!(&err, IrError::Invalid(m) if m.contains(&MAX_WORKERS.to_string())),
            "{err}"
        );
    }

    #[test]
    fn runloop_matches_single_nic_integer_stats_and_decisions() {
        let g = linear_program(8);
        let params = CostParams::bluefield2();
        let mut oracle = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut runloop = ShardedNic::new(g, params, 4).unwrap();
        let a = oracle.measure(packets(4000));
        let b = runloop.measure(packets(4000));
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.counter_updates, b.counter_updates);
        assert_eq!(a.p99_latency_ns.to_bits(), b.p99_latency_ns.to_bits());
        assert!((a.mean_latency_ns - b.mean_latency_ns).abs() < 1e-6);
        assert!((a.throughput_gbps - b.throughput_gbps).abs() < 1e-6);
        assert_eq!(oracle.now_s(), runloop.now_s());
    }

    #[test]
    fn runloop_sampled_profiles_are_worker_count_invariant() {
        // The satellite-3 regression: per-shard sequence stamping must
        // not skew sampling. Flow-keyed sampling makes the sampled
        // *set* identical for every worker count, so window-merged
        // profiles and histograms are bit-identical across 1/2/8
        // workers even at sample_every > 1.
        let g = linear_program(6);
        let params = CostParams::bluefield2();
        let batch = packets(6000);
        let mut reference: Option<(RuntimeProfile, ExecObservations)> = None;
        for workers in [1usize, 2, 8] {
            let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
            nic.set_instrumentation(true, 8);
            nic.measure(batch.clone());
            let got = (nic.take_profile(), nic.take_observations());
            assert!(got.0.total_packets > 0, "sampling must pick packets");
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(want.0, got.0, "profile changed at workers={workers}");
                    assert_eq!(want.1, got.1, "histograms changed at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn runloop_process_batch_preserves_input_order() {
        let g = linear_program(4);
        let params = CostParams::bluefield2();
        let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::new(g, params, 4).unwrap();
        let mut a = packets(1000);
        let mut b = a.clone();
        let ra = single.process_batch(&mut a);
        let rb = sharded.process_batch(&mut b);
        assert_eq!(ra, rb, "uninstrumented reports match packet-for-packet");
        assert_eq!(a, b, "packet mutations match in input order");
    }

    /// A table past the look-ahead size gate puts the drain loop's hint
    /// stage to work on every shard, and changes nothing it computes.
    #[test]
    fn runloop_drain_hints_big_tables_and_stays_identical() {
        use pipeleon_ir::{MatchValue, TableEntry};
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let out = b.field("out");
        let mut tb = b
            .table("big")
            .key(f, MatchKind::Exact)
            .action("mark", vec![Primitive::set(out, 1)])
            .action_nop("miss")
            .default_action(1);
        for k in 0..20_000u64 {
            tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(k * 3)], 0));
        }
        let big = tb.finish();
        let g = b.seal(big).unwrap();
        let params = CostParams::bluefield2();
        let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::new(g, params, 2).unwrap();
        let mut a = packets(3000);
        let mut b = a.clone();
        let ra = single.process_batch(&mut a);
        let rb = sharded.process_batch(&mut b);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
        for cell in &sharded.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            let hinted = st.exec.lookahead_tables();
            assert!(!hinted.is_empty(), "shards hint the big table");
        }
    }

    /// The control replica plans and lowers every specialization but
    /// executes no packet, so its lookup memo never allocates a slot;
    /// each shard's is sized by its own first guard miss and answers.
    #[test]
    fn control_replica_allocates_no_memo_slots() {
        use pipeleon_ir::{MatchValue, TableEntry};
        let mut b = ProgramBuilder::new();
        let (x, out) = (b.field("x"), b.field("out"));
        let tern = |value, mask| vec![MatchValue::Ternary { value, mask }];
        // Two mask patterns, so two ways: a memoised guard miss.
        let acl = b
            .table("acl")
            .key(x, MatchKind::Ternary)
            .action("mark", vec![Primitive::set(out, 1)])
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::with_priority(tern(0x10, 0xF0), 0, 1))
            .entry(TableEntry::with_priority(tern(0x100, 0xF00), 0, 2))
            .finish();
        let g = b.seal(acl).unwrap();
        // Key 7 in three packets of four; the rest cycle through 16 keys.
        let traffic = |n: u64| -> Vec<Packet> {
            let key = |i: u64| {
                if i.is_multiple_of(4) {
                    0x100 + i % 16
                } else {
                    7
                }
            };
            (0..n)
                .map(|i| Packet::with_slots(vec![key(i), 0]))
                .collect()
        };
        let mut nic = ShardedNic::new(g, CostParams::bluefield2(), 2).unwrap();
        nic.set_instrumentation(true, 1);
        nic.measure(traffic(1_000));
        assert_eq!(nic.apply(ControlOp::Specialize), Ok(Applied::Done));
        nic.measure(traffic(1_000));
        assert_eq!(nic.control.memo_slots(), 0, "the replica probed nothing");
        let st = nic.spec_stats();
        assert!(st.memo_hits > 0, "the shards' memos answer: {st:?}");
        for cell in &nic.shards {
            let exec = &cell.state.lock().expect("shard state poisoned").exec;
            let missed = exec.spec_stats().guard_misses > 0;
            assert_eq!(
                exec.memo_slots() > 0,
                missed,
                "a shard sizes its memo on a miss"
            );
        }
    }

    /// Nor does the replica's walk cache allocate: its storage is sized
    /// by the first packet it may serve, and the replica runs none —
    /// not across the ops it applies first, either.
    #[test]
    fn control_replica_allocates_no_walk_cache() {
        let mut nic = ShardedNic::new(linear_program(4), CostParams::bluefield2(), 2).unwrap();
        let repeated = || (0..2_000).map(|i| Packet::with_slots(vec![i % 50]));
        nic.measure(repeated());
        let entry = pipeleon_ir::TableEntry::new(vec![pipeleon_ir::MatchValue::Exact(3)], 0);
        let node = nic.graph().root().unwrap();
        nic.apply(ControlOp::InsertEntry { node, entry }).unwrap();
        nic.measure(repeated());
        assert_eq!(nic.control.walk_cache_bytes(), 0, "the replica ran nothing");
        for cell in &nic.shards {
            let exec = &cell.state.lock().expect("shard state poisoned").exec;
            assert!(exec.walk_cache_bytes() > 0, "a shard sizes its cache");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let nic = ShardedNic::new(linear_program(2), CostParams::bluefield2(), 0).unwrap();
        assert_eq!(nic.shards.len(), 1);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let mut nic = ShardedNic::new(linear_program(2), CostParams::bluefield2(), 4).unwrap();
        let s = nic.measure(Vec::new());
        assert_eq!(s.packets, 0);
        assert_eq!(s.throughput_gbps, 0.0);
        assert_eq!(nic.now_s(), 0.0);
    }

    #[test]
    fn clock_advances_with_batches() {
        let mut nic = ShardedNic::new(linear_program(2), CostParams::bluefield2(), 3).unwrap();
        nic.measure(packets(1000));
        let t1 = nic.now_s();
        assert!(t1 > 0.0);
        nic.measure(packets(1000));
        assert!(nic.now_s() > t1);
    }
}
