#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! # pipeleon-sim — deterministic software SmartNIC emulator
//!
//! The measurement substrate of this reproduction, standing in for the
//! paper's Nvidia BlueField2, Netronome Agilio CX, and BMv2-based emulator
//! (§5.1). It executes Pipeleon IR programs packet-by-packet in a
//! run-to-completion model and accounts latency with the same mechanisms
//! the paper's cost model abstracts: per-hash-table memory accesses for
//! key matches, per-primitive action costs, branch evaluation, counter
//! updates, cache insertions, and ASIC↔CPU packet migrations.
//!
//! * [`packet`] — flat-slot packets over a program's field space.
//! * [`engine`] — exact / LPM / ternary / range match engines implemented
//!   as (multiple) hash tables, reporting how many they probed.
//! * [`exec`] — the run-to-completion [`Executor`]: walks the program DAG,
//!   executes actions for real, maintains cache state, honours placements
//!   (ASIC vs. CPU) with migration costs, and updates P4 counters with
//!   optional sampling. Runs either a reference interpreter or a compiled
//!   datapath ([`EngineMode`]) — a flat slot-addressed lowering of the
//!   program with FxHash match engines and reusable scratch buffers that
//!   executes packets with zero steady-state heap allocations, producing
//!   bit-identical reports, profiles and traces. Flow caches are an LRU
//!   map behind a token-bucket insertion limiter (paper §3.2.2
//!   "optimization considerations"); match and cache keys are inline
//!   up to 4×`u64` and queried by borrowed `&[u64]`.
//! * [`nic`] — [`SmartNic`]: multicore dispatch (RSS by flow hash) and
//!   throughput/latency measurement; an [`Executor`] and one measurement
//!   lane run inline, the arrival-order oracle of the sharded datapath.
//! * [`observe`] — [`ExecObservations`]: mergeable latency histograms
//!   (end-to-end and per-table) recorded for sampled packets, built on
//!   `pipeleon-obs`.
//! * [`ring`] — fixed-capacity SPSC rings (cache-line-padded Lamport
//!   queues with burst enqueue/dequeue), the dispatcher→worker hand-off
//!   of the sharded datapath.
//! * [`sharded`] — [`ShardedNic`]: the same datapath sharded over `N`
//!   parallel worker threads by flow hash, with deterministic merging of
//!   per-shard profiles and batch statistics deferred to profile-window
//!   boundaries.
//! * [`specialize`] — profile-guided specialization of the compiled
//!   datapath: hot-key inline caches behind guards and the lookup memo
//!   behind their misses — bit-exact against the interpreter oracle,
//!   applied and reverted live through the generation chain. In front
//!   of the compiled walk, the walk cache replays whole walks of
//!   repeated headers for packets nothing observes.
//! * [`backend`] — [`ControlOp`], the control plane as data, and
//!   [`NicBackend`], the API of both NICs: the data plane, the reads and
//!   one `apply`, written once per NIC in its trait impl. Runtime targets
//!   are generic over it; callers bring it into scope. What a NIC adds
//!   inherently is its constructors — `new`, and `with_engine`, which
//!   picks the engine for the NIC's life — and what the trait has no
//!   name for (`measure` over any packet source, the executor, shard and
//!   trace accessors).
//!
//! Everything is seeded and deterministic — results are bit-reproducible.
//! A [`ShardedNic`] feeds persistent workers through SPSC rings; checked
//! against a single-threaded [`SmartNic`] on the same traffic, it
//! preserves forwarding decisions, per-flow order, integer statistics,
//! the exact p99, the clock, and — via flow-keyed sampling
//! ([`SampleKeying`]) — worker-count-invariant window-merged profiles
//! and histograms, relaxing only the float summation order of mean
//! latency and throughput.
//!
//! The control plane is data: every operation on a deployed datapath
//! is a [`ControlOp`], applied by one [`NicBackend::apply`]. A sharded
//! datapath publishes it as a numbered generation on an epoch/RCU chain
//! instead of pausing: packets in flight keep executing under the
//! generation they were dispatched with, newly dispatched packets pick
//! up the new one, and old generations are reclaimed once every shard
//! has quiesced past them. Each pipeline swap is reported through
//! [`LiveSwap`] (generation id, packets in flight at publication,
//! publish latency).

pub mod backend;
mod cache;
mod compiled;
mod distinct;
pub mod engine;
pub mod exec;
/// The epoch/RCU generation chain. Private in real builds (an internal
/// detail of [`sharded`]); public under `--cfg pipeleon_check` so the
/// model tests in `crates/sim/tests/model.rs` can drive it directly.
#[cfg(pipeleon_check)]
pub mod generation;
#[cfg(not(pipeleon_check))]
mod generation;
pub mod nic;
pub mod observe;
pub mod packet;
mod prefetch;
pub mod ring;
pub mod sharded;
mod smallkey;
pub mod specialize;
pub(crate) mod sync;
mod walks;

pub use backend::{Applied, ControlOp, LiveSwap, NicBackend};
pub use engine::{KeyScratch, LookupOutcome, MatchEngine};
pub use exec::{EngineMode, ExecReport, Executor, PacketTrace, SampleKeying};
pub use nic::{BatchStats, ShardMode, SmartNic};
pub use observe::ExecObservations;
pub use packet::Packet;
pub use sharded::ShardedNic;
pub use specialize::SpecStats;
