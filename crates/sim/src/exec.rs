//! The run-to-completion executor.
//!
//! Walks a program DAG for one packet at a time, executing branch
//! conditions and action primitives for real, and accounting latency from
//! the same mechanisms the cost model abstracts: hash-table probes for key
//! matches (`probes × L_mat`), primitives (`n_a × L_act`), branch
//! comparisons, counter updates (with optional packet sampling, §5.4.1),
//! flow-cache lookups/insertions (§3.2.2), and ASIC↔CPU migrations
//! (§3.2.4 / Appendix A.2).
//!
//! Flow caches need no side metadata: a [`CacheRole::FlowCache`] table is a
//! switch-case node whose action 0 ("hit") jumps past the covered segment
//! and whose default action ("miss") falls through to the segment head. On
//! a miss the executor records every `(table, action)` executed until
//! control reaches the hit target, then installs that result — so the
//! covered segment is discovered structurally.

use crate::cache::{LruCache, RateLimiter};
use crate::compiled::{CStep, CTable, CompiledPipeline, NO_SLOT};
use crate::distinct::{self, DistinctKeys};
use crate::engine::{KeyScratch, LookupOutcome, MatchEngine};
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::prefetch;
use crate::smallkey::SmallKey;
use crate::specialize::{self, HotKeySketch, SpecPlan, SpecStats};
use fxhash::{FxBuildHasher, FxHashMap};
use pipeleon_cost::{CostParams, MatchCostModel, MemoryTier, Placement, RuntimeProfile};
use pipeleon_ir::{
    CacheRole, EdgeRef, IrError, NextHops, NodeId, NodeKind, Primitive, ProgramGraph, TableEntry,
};
use pipeleon_obs::{Event, EventKind};
use std::collections::HashMap;

/// Per-packet execution report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecReport {
    /// Total accounted latency in ns.
    pub latency_ns: f64,
    /// Whether the packet was dropped.
    pub dropped: bool,
    /// ASIC↔CPU migrations performed.
    pub migrations: usize,
    /// Hash-table probes across all key matches.
    pub probes: usize,
    /// Counter updates actually performed (after sampling).
    pub counter_updates: usize,
}

/// Optional per-packet trace for semantic-equivalence testing.
///
/// Backed by the shared observability [`Event`] type, so per-packet
/// traces and the controller's journal speak one event schema: a trace
/// is a sequence of [`EventKind::Visit`] / [`EventKind::Action`] events
/// (node ids stored raw as `u32`), renderable with the same JSONL
/// machinery as any other event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketTrace {
    /// Visit/action events in execution order. `seq` is the position
    /// within this packet's trace; `t_s` is the simulated arrival time.
    pub events: Vec<Event>,
}

impl PacketTrace {
    /// Discards all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    fn push(&mut self, t_s: f64, kind: EventKind) {
        self.events.push(Event {
            seq: self.events.len() as u64,
            t_s,
            kind,
        });
    }

    /// Nodes visited, in order.
    pub fn visited(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Visit { node } => Some(NodeId(node)),
                _ => None,
            })
            .collect()
    }

    /// `(table, action)` pairs executed (including cache replays).
    pub fn actions(&self) -> Vec<(NodeId, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Action { node, action } => Some((NodeId(node), action as usize)),
                _ => None,
            })
            .collect()
    }

    /// Renders the trace as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

/// The result cached for a flow: the `(table, action)` pairs to replay.
type CachedResult = Vec<(NodeId, usize)>;

/// Which datapath executes packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The reference graph-walking interpreter, kept as the oracle the
    /// differential suite checks the compiled path against.
    Interpreter,
    /// The flat, allocation-free compiled pipeline (the default). Its
    /// reports, profiles, observations and traces are bit-identical to
    /// the interpreter's.
    #[default]
    Compiled,
}

/// How the 1-in-`sample_every` counter-sampling decision is keyed.
///
/// Sampling picks which packets update P4 counters and latency
/// histograms (§5.4.1). The *keying* decides whether that choice depends
/// on global arrival order or only on per-flow order:
///
/// - [`GlobalSeq`](SampleKeying::GlobalSeq) reproduces the classic
///   single-threaded schedule (`packet_seq % sample_every`), which is
///   only partition-invariant if every shard is fed the packet's global
///   arrival index — the barrier the run-loop datapath removes.
/// - [`FlowKeyed`](SampleKeying::FlowKeyed) hashes `(flow_hash,
///   per-flow packet count)` through a splitmix64-style mixer. Since RSS
///   pins a flow to one shard and rings preserve per-flow order, the
///   k-th packet of a flow is the same packet on any worker count, so
///   the *set* of sampled packets — and therefore every sampled counter
///   and histogram — is identical for 1, 2, or N workers without any
///   shared arrival index. Costs one `FxHashMap` entry per live flow
///   while instrumentation is on with `sample_every > 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleKeying {
    /// Global packet-sequence sampling (single-threaded schedule).
    #[default]
    GlobalSeq,
    /// Per-flow deterministic sampling (partition-invariant).
    FlowKeyed,
}

/// splitmix64-style finalizer over a flow hash and that flow's packet
/// count; uniform enough that `mix(..) % sample_every == 0` samples one
/// in `sample_every` packets of every flow.
#[inline]
fn mix_flow_seq(flow_hash: u64, count: u64) -> u64 {
    let mut z = flow_hash ^ count.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct FlowCacheState {
    /// Keyed by inline [`SmallKey`]s hashed with FxHash, queried with a
    /// borrowed `&[u64]` — no per-lookup key allocation or clone.
    lru: LruCache<SmallKey, CachedResult, FxBuildHasher>,
    limiter: RateLimiter,
    hits: u64,
    misses: u64,
    insertions: u64,
}

#[derive(Debug)]
struct PendingInsert {
    cache: NodeId,
    key: SmallKey,
    exit: Option<NodeId>,
    recorded: CachedResult,
}

/// Compiled-path pending cache insert: exits are pre-resolved slots.
#[derive(Debug)]
struct CPending {
    cache: NodeId,
    key: SmallKey,
    exit_slot: u32,
    recorded: CachedResult,
}

/// Default flow-cache capacity when a cache table has no `max_entries`.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default cache insertion rate limit (insertions/s) when unspecified.
pub const DEFAULT_INSERTION_RATE: f64 = 100_000.0;

/// Executes a deployed program packet-by-packet.
#[derive(Debug)]
pub struct Executor {
    graph: ProgramGraph,
    params: CostParams,
    engines: Vec<Option<MatchEngine>>,
    /// Flow-cache runtime state, dense by node index. Shared by both
    /// engine modes, so cache contents survive an engine switch.
    caches: Vec<Option<FlowCacheState>>,
    placement: Vec<Placement>,
    memory_tiers: Vec<MemoryTier>,
    /// Counters collected since the last [`Executor::take_profile`]
    /// (raw, i.e. sampled counts — see [`Executor::sampled_profile`]).
    profile: RuntimeProfile,
    instrumented: bool,
    sample_every: u64,
    packet_seq: u64,
    /// How sampling decisions are keyed (global sequence vs per-flow).
    keying: SampleKeying,
    /// Per-flow packet counts for [`SampleKeying::FlowKeyed`]; touched
    /// only when instrumented with `sample_every > 1`.
    flow_seq: FxHashMap<u64, u64>,
    /// Distinct match keys seen per table this window, dense by node
    /// index. Shared by both engine modes; cleared, never dropped, at
    /// the window boundary.
    distinct: Vec<DistinctKeys>,
    last_profile_take_s: f64,
    /// Latency histograms recorded for sampled packets since the last
    /// [`Executor::take_observations`].
    observed: ExecObservations,
    /// Reusable key-composition buffers (zero allocations per lookup).
    scratch: KeyScratch,
    /// Which datapath runs packets.
    mode: EngineMode,
    /// Lazily built compiled program. Invalidated by deploys, placement
    /// and memory-tier changes; entry ops recompile just the touched
    /// node in place.
    compiled: Option<CompiledPipeline>,
    /// Full pipeline compiles performed (telemetry for tests/benches).
    full_compiles: u64,
    /// Single-node recompiles performed (telemetry for tests/benches).
    table_recompiles: u64,
    /// Hot-key guard hits on specialized tables. Host telemetry: on a
    /// sharded backend these depend on packet partitioning, so they are
    /// not worker-count invariant (profiles and reports remain so).
    spec_guard_hits: u64,
    /// Hot-key guard misses (fell through to the general lookup).
    spec_guard_misses: u64,
    /// Packets that took at least one stage of a fused guard run (the
    /// stages' members are credited to `spec_guard_hits`). Host
    /// telemetry, like them.
    spec_fused_hits: u64,
    /// Specialization plans applied to this executor's pipeline.
    specializations: u64,
    /// Reverts to the verbatim lowering (explicit or entry-op strips).
    despecializations: u64,
    /// Monotonic (de)specialization epoch for event dedup.
    spec_epoch: u64,
    /// Per-table hot-key majority sketches, dense by node index; fed by
    /// sampled lookups in both engine modes, taken at window boundaries
    /// alongside the profile.
    hot_sketch: Vec<Option<HotKeySketch>>,
    /// Simulation clock in seconds, advanced by the NIC harness.
    pub now_s: f64,
}

/// Fraction of a counter update's cost paid by non-sampled packets when
/// sampling is active: the per-packet sample decision (hash + compare)
/// still sits on the data path (§5.4.1).
pub const SAMPLE_CHECK_FRACTION: f64 = 0.12;

impl Executor {
    /// Deploys `graph` on a target described by `params`. Fails if the
    /// program does not validate.
    pub fn new(graph: ProgramGraph, params: CostParams) -> Result<Self, IrError> {
        graph.validate()?;
        let mut ex = Self {
            engines: Vec::new(),
            caches: Vec::new(),
            placement: Vec::new(),
            memory_tiers: Vec::new(),
            profile: RuntimeProfile::empty(),
            instrumented: false,
            sample_every: 1,
            packet_seq: 0,
            keying: SampleKeying::default(),
            flow_seq: FxHashMap::default(),
            distinct: Vec::new(),
            last_profile_take_s: 0.0,
            observed: ExecObservations::new(),
            scratch: KeyScratch::new(),
            mode: EngineMode::default(),
            compiled: None,
            full_compiles: 0,
            table_recompiles: 0,
            spec_guard_hits: 0,
            spec_guard_misses: 0,
            spec_fused_hits: 0,
            specializations: 0,
            despecializations: 0,
            spec_epoch: 0,
            hot_sketch: Vec::new(),
            now_s: 0.0,
            graph,
            params,
        };
        ex.rebuild_all();
        Ok(ex)
    }

    /// The deployed program.
    pub fn graph(&self) -> &ProgramGraph {
        &self.graph
    }

    /// The target parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Replaces the deployed program (live reconfiguration). Cache state
    /// and counters are reset; the clock is preserved.
    pub fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        graph.validate()?;
        self.graph = graph;
        self.profile = RuntimeProfile::empty();
        self.compiled = None;
        self.rebuild_all();
        Ok(())
    }

    /// Adopts an already-validated program as a live generation swap.
    /// Unlike [`Executor::deploy`], the pending profile window, sampled
    /// observations, distinct-key sets, flow sequence counts, packet
    /// sequence, placements, memory tiers, engine mode, and
    /// instrumentation all carry across the swap — the profile window
    /// spans generations, keyed by the (stable) node ids both layouts
    /// share. Match engines and flow-cache runtime state are rebuilt
    /// (the new layout's tables define them); `compiled` installs the
    /// caller's pre-built pipeline so every shard adopting the same
    /// generation shares one lowering instead of re-compiling.
    ///
    /// The caller (a generation chain publisher) has already validated
    /// `graph` on its control replica, so this never fails.
    pub(crate) fn adopt_graph(&mut self, graph: ProgramGraph, compiled: Option<CompiledPipeline>) {
        self.graph = graph;
        self.rebuild_all();
        self.compiled = compiled;
    }

    /// A clone of the compiled pipeline for the current graph, built on
    /// demand — what a generation publisher attaches to a `Deploy` node
    /// when the compiled engine is active (`None` under the interpreter:
    /// adopters then lower lazily like any fresh executor).
    pub(crate) fn compiled_clone(&mut self) -> Option<CompiledPipeline> {
        match self.mode {
            EngineMode::Compiled => {
                self.ensure_compiled();
                self.compiled.clone()
            }
            EngineMode::Interpreter => None,
        }
    }

    /// Enables P4-counter instrumentation, updating counters for one in
    /// `sample_every` packets (1 = every packet; §5.4.1 uses 1/1024).
    pub fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        self.instrumented = enabled;
        self.sample_every = sample_every.max(1);
    }

    /// Overrides the packet sequence number that drives counter sampling.
    /// A sharded NIC assigns each packet its *global* arrival index before
    /// execution so the `packet_seq % sample_every` sampling decision is
    /// identical to a single-threaded run, regardless of worker count.
    pub fn set_packet_seq(&mut self, seq: u64) {
        self.packet_seq = seq;
    }

    /// Selects how counter-sampling decisions are keyed (see
    /// [`SampleKeying`]). Switching resets the per-flow counts so both
    /// keyings start from a clean schedule.
    pub fn set_sample_keying(&mut self, keying: SampleKeying) {
        if self.keying != keying {
            self.keying = keying;
            self.flow_seq.clear();
        }
    }

    /// The active sampling keying.
    pub fn sample_keying(&self) -> SampleKeying {
        self.keying
    }

    /// The per-packet sampling decision: advances the packet sequence
    /// (and, when flow-keyed, the packet's flow count) and reports
    /// whether this packet updates counters and histograms.
    #[inline]
    fn sample_decision(&mut self, packet: &Packet) -> bool {
        self.packet_seq += 1;
        if !self.instrumented {
            return false;
        }
        if self.sample_every <= 1 {
            return true;
        }
        match self.keying {
            SampleKeying::GlobalSeq => self.packet_seq.is_multiple_of(self.sample_every),
            SampleKeying::FlowKeyed => {
                let hash = packet.flow_hash();
                let count = self.flow_seq.entry(hash).or_insert(0);
                *count += 1;
                mix_flow_seq(hash, *count).is_multiple_of(self.sample_every)
            }
        }
    }

    /// Assigns nodes to ASIC/CPU cores (dense by node id; missing =
    /// ASIC). Costs on CPU nodes scale by `cpu_scale`; placement-crossing
    /// hops pay `l_migration`.
    pub fn set_placement(&mut self, placement: Vec<Placement>) {
        self.placement = placement;
        self.compiled = None;
    }

    /// Assigns tables to memory tiers (dense by node id; missing = EMEM).
    /// Key matches of SRAM-resident tables run `sram_speedup`× faster
    /// (§6 hierarchical-memory extension).
    pub fn set_memory_tiers(&mut self, tiers: Vec<MemoryTier>) {
        self.memory_tiers = tiers;
        self.compiled = None;
    }

    fn tier_scale(&self, id: NodeId) -> f64 {
        let tier = self
            .memory_tiers
            .get(id.index())
            .copied()
            .unwrap_or(MemoryTier::Emem);
        self.params.tiers.match_scale(tier)
    }

    /// Inserts an entry into a table and recompiles its engine.
    pub fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        let n = self
            .graph
            .node_mut(node)
            .ok_or(IrError::UnknownNode(node))?;
        let t = n.as_table_mut().ok_or(IrError::BadTable {
            table: node,
            reason: "not a table".into(),
        })?;
        t.entries.push(entry);
        t.validate().map_err(|reason| IrError::BadEntry {
            table: node,
            reason,
        })?;
        self.rebuild_engine(node);
        self.recompile_table(node);
        Ok(())
    }

    /// Removes the entry at `index` from a table and recompiles.
    pub fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        let n = self
            .graph
            .node_mut(node)
            .ok_or(IrError::UnknownNode(node))?;
        let t = n.as_table_mut().ok_or(IrError::BadTable {
            table: node,
            reason: "not a table".into(),
        })?;
        if index >= t.entries.len() {
            return Err(IrError::BadEntry {
                table: node,
                reason: format!("no entry at index {index}"),
            });
        }
        let e = t.entries.remove(index);
        self.rebuild_engine(node);
        self.recompile_table(node);
        Ok(e)
    }

    /// Replaces a table node's definition (and optionally its next-hops)
    /// in place — used when a merged table is re-materialized after a
    /// control-plane update. The engine is recompiled; the node id stays
    /// stable.
    pub fn replace_table(
        &mut self,
        node: NodeId,
        table: pipeleon_ir::Table,
        next: Option<NextHops>,
    ) -> Result<(), IrError> {
        {
            let n = self
                .graph
                .node_mut(node)
                .ok_or(IrError::UnknownNode(node))?;
            if n.as_table().is_none() {
                return Err(IrError::BadTable {
                    table: node,
                    reason: "not a table".into(),
                });
            }
            n.kind = pipeleon_ir::NodeKind::Table(table);
            if let Some(next) = next {
                n.next = next;
            }
        }
        self.graph.validate()?;
        self.rebuild_engine(node);
        self.recompile_table(node);
        Ok(())
    }

    /// Flushes the runtime state of one flow cache (invalidation).
    pub fn flush_cache(&mut self, node: NodeId) {
        if let Some(Some(c)) = self.caches.get_mut(node.index()) {
            c.lru.clear();
        }
    }

    /// Number of live entries in a flow cache's runtime state.
    pub fn cache_len(&self, node: NodeId) -> usize {
        self.caches
            .get(node.index())
            .and_then(|c| c.as_ref())
            .map_or(0, |c| c.lru.len())
    }

    /// Takes the collected (sampled) profile, resetting counters. Cache
    /// hit/miss statistics are merged in (they are maintained unsampled).
    pub fn take_profile(&mut self) -> RuntimeProfile {
        let mut p = self.take_counters();
        distinct::count_into(&mut self.distinct, &mut p);
        p
    }

    /// Like [`Executor::take_profile`], but unions this window's
    /// distinct keys into `union` (dense by node index) instead of
    /// counting them into the profile. A sharded NIC counts the union
    /// across workers — summing per-shard counts would double-count
    /// flows whose packets land on several shards.
    pub(crate) fn take_profile_into(&mut self, union: &mut Vec<DistinctKeys>) -> RuntimeProfile {
        if union.len() < self.distinct.len() {
            union.resize_with(self.distinct.len(), DistinctKeys::default);
        }
        for (all, keys) in union.iter_mut().zip(&mut self.distinct) {
            all.absorb(keys);
            keys.clear();
        }
        self.take_counters()
    }

    /// The window's counters and cache statistics, reset for the next.
    /// The live profile is copied out and cleared rather than moved, so
    /// its maps keep their capacity and the next window's first sampled
    /// packets do not regrow them.
    fn take_counters(&mut self) -> RuntimeProfile {
        let mut p = self.profile.clone();
        self.profile.clear();
        if self.instrumented && self.sample_every > 1 {
            p.scale_counts(self.sample_every);
        }
        p.window_s = (self.now_s - self.last_profile_take_s).max(1e-9);
        self.last_profile_take_s = self.now_s;
        for (idx, state) in self.caches.iter_mut().enumerate() {
            let Some(c) = state else { continue };
            p.cache_stats.insert(
                NodeId(idx as u32),
                pipeleon_cost::CacheStats {
                    hits: c.hits,
                    misses: c.misses,
                    insertions: c.insertions,
                },
            );
            c.hits = 0;
            c.misses = 0;
            c.insertions = 0;
        }
        p
    }

    /// Peeks at the profile without resetting (counts not rescaled).
    pub fn sampled_profile(&self) -> &RuntimeProfile {
        &self.profile
    }

    /// Takes the latency histograms recorded for sampled packets since
    /// the last call, resetting them. Sampling is driven by the global
    /// packet sequence number, so a sharded NIC's per-shard observations
    /// merge bit-identically to a single-threaded run's.
    pub fn take_observations(&mut self) -> ExecObservations {
        std::mem::take(&mut self.observed)
    }

    /// Peeks at the recorded observations without resetting.
    pub fn observations(&self) -> &ExecObservations {
        &self.observed
    }

    fn rebuild_all(&mut self) {
        self.engines = vec![None; self.graph.id_bound()];
        self.caches.clear();
        self.caches.resize_with(self.graph.id_bound(), || None);
        let ids: Vec<NodeId> = self.graph.iter_nodes().map(|n| n.id).collect();
        for id in ids {
            self.rebuild_engine(id);
        }
    }

    fn rebuild_engine(&mut self, id: NodeId) {
        if self.engines.len() < self.graph.id_bound() {
            self.engines.resize(self.graph.id_bound(), None);
        }
        if self.caches.len() < self.graph.id_bound() {
            self.caches.resize_with(self.graph.id_bound(), || None);
        }
        let Some(n) = self.graph.node(id) else { return };
        if let Some(t) = n.as_table() {
            self.engines[id.index()] = Some(MatchEngine::build(t));
            if t.cache_role == CacheRole::FlowCache && self.caches[id.index()].is_none() {
                self.caches[id.index()] = Some(FlowCacheState {
                    lru: LruCache::with_default_hasher(
                        t.max_entries.unwrap_or(DEFAULT_CACHE_CAPACITY),
                    ),
                    limiter: RateLimiter::new(
                        DEFAULT_INSERTION_RATE,
                        DEFAULT_INSERTION_RATE / 100.0,
                    ),
                    hits: 0,
                    misses: 0,
                    insertions: 0,
                });
            }
        }
    }

    /// Sets a flow cache's insertion rate limit (insertions per second).
    pub fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64) {
        if let Some(Some(c)) = self.caches.get_mut(node.index()) {
            c.limiter = RateLimiter::new(rate_per_s, (rate_per_s / 100.0).max(8.0));
        }
    }

    /// Selects which datapath executes packets. Both modes share flow
    /// cache, profile and distinct-key state, so switching mid-stream is
    /// seamless and invisible in the collected statistics.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// The active datapath.
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
    }

    /// `(full pipeline compiles, single-node recompiles)` performed so
    /// far — lets tests assert that entry churn patches the compiled
    /// program in place instead of recompiling from scratch.
    pub fn compile_stats(&self) -> (u64, u64) {
        (self.full_compiles, self.table_recompiles)
    }

    fn ensure_compiled(&mut self) {
        if self.compiled.is_none() {
            self.compiled = Some(CompiledPipeline::build(
                &self.graph,
                &self.params,
                &self.placement,
                &self.memory_tiers,
            ));
            self.full_compiles += 1;
        }
    }

    /// Patches one node of the compiled pipeline after an entry op,
    /// falling back to full invalidation only if the node has no slot.
    ///
    /// If the entry op touches a *specialized* table (hot-key guard or
    /// direct-index way), the whole pipeline de-specializes to the
    /// verbatim lowering instead: the baked outcome and dense key range
    /// may no longer describe the table, and a stale guard is exactly
    /// the divergence specialization promises never to introduce. The
    /// next specialize step re-plans from fresh profile state.
    fn recompile_table(&mut self, id: NodeId) {
        let strip = self
            .compiled
            .as_ref()
            .is_some_and(|cp| cp.spec_fingerprint != 0 && cp.node_is_specialized(id));
        if strip {
            self.compiled = None;
            if self.mode == EngineMode::Compiled {
                self.ensure_compiled();
            }
            self.despecializations += 1;
            self.spec_epoch += 1;
            return;
        }
        if let Some(cp) = self.compiled.as_mut() {
            if cp.recompile_node(
                &self.graph,
                &self.params,
                &self.placement,
                &self.memory_tiers,
                id,
            ) {
                self.table_recompiles += 1;
            } else {
                self.compiled = None;
            }
        }
    }

    /// Applies a specialization plan over the verbatim lowering. Returns
    /// the new spec epoch if the pipeline changed; `None` under the
    /// interpreter (which needs no specializing — it *is* the oracle),
    /// for an empty plan, or when the identical plan is already applied.
    pub(crate) fn specialize_with(&mut self, plan: &SpecPlan) -> Option<u64> {
        if self.mode != EngineMode::Compiled || plan.is_empty() {
            return None;
        }
        self.ensure_compiled();
        let current = self.spec_fingerprint();
        if current == plan.fingerprint {
            return None;
        }
        if current != 0 {
            // Plans always apply over the verbatim lowering, never over
            // a previous plan's arena.
            self.compiled = None;
            self.ensure_compiled();
        }
        let cp = self.compiled.as_mut().expect("just compiled");
        specialize::apply_plan(cp, plan, &self.params);
        cp.spec_fingerprint = plan.fingerprint;
        self.specializations += 1;
        self.spec_epoch += 1;
        Some(self.spec_epoch)
    }

    /// Reverts to the verbatim lowering. Returns the new spec epoch if
    /// the pipeline was specialized, `None` if it already was verbatim.
    pub(crate) fn despecialize(&mut self) -> Option<u64> {
        if self.spec_fingerprint() == 0 {
            return None;
        }
        self.compiled = None;
        if self.mode == EngineMode::Compiled {
            self.ensure_compiled();
        }
        self.despecializations += 1;
        self.spec_epoch += 1;
        Some(self.spec_epoch)
    }

    /// Current specialization counters and state.
    pub fn spec_stats(&self) -> SpecStats {
        SpecStats {
            guard_hits: self.spec_guard_hits,
            guard_misses: self.spec_guard_misses,
            fused_hits: self.spec_fused_hits,
            fused_runs: self.compiled.as_ref().map_or(0, |cp| cp.fused_runs()),
            specializations: self.specializations,
            despecializations: self.despecializations,
            specialized_tables: self
                .compiled
                .as_ref()
                .map_or(0, |cp| cp.specialized_tables()),
            generation: self.spec_epoch,
        }
    }

    /// The applied plan fingerprint (`0` = verbatim lowering).
    pub(crate) fn spec_fingerprint(&self) -> u64 {
        self.compiled.as_ref().map_or(0, |cp| cp.spec_fingerprint)
    }

    /// Takes the per-table hot-key sketches collected since the last
    /// call, resetting them — the sketch window rides the profile window.
    pub(crate) fn take_hot_sketches(&mut self) -> HashMap<NodeId, HotKeySketch> {
        let mut out = HashMap::new();
        for (idx, sk) in self.hot_sketch.iter_mut().enumerate() {
            if let Some(sk) = sk.take() {
                if sk.samples > 0 {
                    out.insert(NodeId(idx as u32), sk);
                }
            }
        }
        out
    }

    /// Folds the live (not-yet-taken) sketches into `out` without
    /// resetting them — lets a specialize step planned mid-window see
    /// the traffic since the last boundary.
    pub(crate) fn peek_hot_sketches_into(&self, out: &mut HashMap<NodeId, HotKeySketch>) {
        for (idx, sk) in self.hot_sketch.iter().enumerate() {
            if let Some(sk) = sk {
                if sk.samples > 0 {
                    out.entry(NodeId(idx as u32))
                        .and_modify(|e| e.merge(sk))
                        .or_insert_with(|| sk.clone());
                }
            }
        }
    }

    /// Feeds the composed key in scratch into the table's hot-key
    /// sketch. Called only for sampled packets, so the sketch cost rides
    /// the same budget as counter updates; no modeled latency attaches
    /// (like distinct-key tracking, it is control-plane analytics).
    #[inline]
    fn note_hot_key(&mut self, id: NodeId) {
        if self.scratch.values.is_empty() {
            return;
        }
        if self.hot_sketch.len() <= id.index() {
            self.hot_sketch.resize_with(id.index() + 1, || None);
        }
        let sk = self.hot_sketch[id.index()].get_or_insert_with(HotKeySketch::default);
        sk.observe(&self.scratch.values);
    }

    /// Notes the composed key in scratch (pre-action packet state) as
    /// seen at table `id`. Runs for every instrumented packet, sampled
    /// or not: the exact count feeds the optimizer's cross-product
    /// estimate. It models control-plane analytics, not a P4 counter, so
    /// it adds no data-path latency.
    #[inline]
    fn note_distinct(&mut self, id: NodeId) {
        if self.scratch.values.is_empty() {
            return;
        }
        if self.distinct.len() <= id.index() {
            self.distinct
                .resize_with(id.index() + 1, DistinctKeys::default);
        }
        self.distinct[id.index()].note(&self.scratch.values);
    }

    /// Processes one packet; see [`Executor::process_traced`] for traces.
    pub fn process(&mut self, packet: &mut Packet) -> ExecReport {
        self.run(packet, None)
    }

    /// Processes one packet and records the visited nodes / executed
    /// actions into `trace`.
    pub fn process_traced(&mut self, packet: &mut Packet, trace: &mut PacketTrace) -> ExecReport {
        trace.clear();
        self.run(packet, Some(trace))
    }

    /// Processes a batch of packets, amortizing engine dispatch: the
    /// compiled program is checked out once per batch instead of once
    /// per packet. Reports are returned in input order and are identical
    /// to processing each packet with [`Executor::process`].
    pub fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        let mut out = Vec::with_capacity(packets.len());
        self.checked_out(|ex, cp| {
            // Look-ahead stage: hint the table slots packet `i + AHEAD`
            // will probe, then run packet `i` through the scalar walk.
            // Hints change no state, so results are the same with the
            // stage or (no table big enough, or the interpreter) without.
            let lookahead = cp.filter(|cp| cp.has_lookahead());
            if let Some(cp) = lookahead {
                for p in packets.iter().take(prefetch::AHEAD) {
                    cp.prefetch_lookups(p);
                }
            }
            for i in 0..packets.len() {
                if let (Some(cp), Some(ahead)) = (lookahead, packets.get(i + prefetch::AHEAD)) {
                    cp.prefetch_lookups(ahead);
                }
                out.push(ex.run_on(cp, &mut packets[i], None));
            }
        });
        out
    }

    /// Runs `body` with the engine checked out once: the compiled
    /// program (built if need be) is moved out of `self` for the
    /// duration — it is immutable while the executor's counters and
    /// caches mutate — and put back after; the interpreter checks out
    /// nothing. `body` runs packets through [`Executor::run_on`] and may
    /// set the clock between them, but must leave the program alone
    /// (no control operation, no engine switch).
    pub(crate) fn checked_out<R>(
        &mut self,
        body: impl FnOnce(&mut Self, Option<&CompiledPipeline>) -> R,
    ) -> R {
        let cp = match self.mode {
            EngineMode::Interpreter => None,
            EngineMode::Compiled => {
                self.ensure_compiled();
                self.compiled.take()
            }
        };
        let r = body(self, cp.as_ref());
        if cp.is_some() {
            self.compiled = cp;
        }
        r
    }

    /// Runs one packet on the engine a [`Executor::checked_out`] body
    /// was handed.
    #[inline]
    pub(crate) fn run_on(
        &mut self,
        cp: Option<&CompiledPipeline>,
        packet: &mut Packet,
        trace: Option<&mut PacketTrace>,
    ) -> ExecReport {
        match cp {
            Some(cp) => self.run_compiled(cp, packet, trace),
            None => self.run_interp(packet, trace),
        }
    }

    /// Whether the deployed compiled program has any table worth a
    /// look-ahead hint (always `false` under the interpreter). Burst
    /// loops outside this module check it once per burst.
    #[inline]
    pub(crate) fn has_lookahead(&self) -> bool {
        self.mode == EngineMode::Compiled
            && self.compiled.as_ref().is_some_and(|cp| cp.has_lookahead())
    }

    /// The look-ahead stage for burst loops that execute through
    /// [`Executor::process`]: hints the table slots `packet` will probe
    /// once its turn comes. See [`CompiledPipeline::prefetch_lookups`].
    #[inline]
    pub(crate) fn prefetch_lookups(&self, packet: &Packet) {
        if let Some(cp) = &self.compiled {
            cp.prefetch_lookups(packet);
        }
    }

    /// The tables on the compiled program's look-ahead list.
    #[cfg(test)]
    pub(crate) fn lookahead_tables(&mut self) -> Vec<NodeId> {
        self.ensure_compiled();
        self.compiled
            .as_ref()
            .map_or_else(Vec::new, |cp| cp.lookahead_tables())
    }

    fn place(&self, id: NodeId) -> Placement {
        self.placement
            .get(id.index())
            .copied()
            .unwrap_or(Placement::Asic)
    }

    fn run(&mut self, packet: &mut Packet, trace: Option<&mut PacketTrace>) -> ExecReport {
        self.checked_out(|ex, cp| ex.run_on(cp, packet, trace))
    }

    fn run_interp(
        &mut self,
        packet: &mut Packet,
        mut trace: Option<&mut PacketTrace>,
    ) -> ExecReport {
        let sampled = self.sample_decision(packet);
        if sampled {
            self.profile.total_packets += 1;
        }
        let mut report = ExecReport {
            latency_ns: self.params.l_base,
            dropped: false,
            migrations: 0,
            probes: 0,
            counter_updates: 0,
        };
        let mut pending: Vec<PendingInsert> = Vec::new();
        let mut cur = self.graph.root();
        let mut prev_place: Option<Placement> = None;

        while let Some(id) = cur {
            // Finalize any cache miss whose covered segment ends here.
            self.finalize_pending(&mut pending, Some(id), &mut report);

            let place = self.place(id);
            if let Some(p) = prev_place {
                if p != place {
                    report.latency_ns += self.params.l_migration;
                    report.migrations += 1;
                }
            }
            prev_place = Some(place);
            let scale = match place {
                Placement::Asic => 1.0,
                Placement::Cpu => self.params.cpu_scale,
            };
            if let Some(t) = trace.as_deref_mut() {
                t.push(self.now_s, EventKind::Visit { node: id.0 });
            }

            // Pull the node's shape out in a narrow scope.
            enum Step {
                Branch { slot: u16, target: Option<NodeId> },
                Table,
            }
            let step = {
                let node = self.graph.node(id).expect("validated graph");
                match (&node.kind, &node.next) {
                    (NodeKind::Branch(b), NextHops::Branch { on_true, on_false }) => {
                        let cond = b.condition.eval(packet.slots());
                        report.latency_ns += self.params.l_branch
                            * b.condition.num_comparisons().max(1) as f64
                            * scale;
                        let (slot, target) = if cond { (0, *on_true) } else { (1, *on_false) };
                        Step::Branch { slot, target }
                    }
                    _ => Step::Table,
                }
            };
            match step {
                Step::Branch { slot, target } => {
                    if sampled {
                        self.profile.record_edge(EdgeRef::new(id, slot), 1);
                        report.counter_updates += 1;
                        report.latency_ns += self.params.l_counter * scale;
                    } else if self.instrumented {
                        report.latency_ns += self.params.l_counter * SAMPLE_CHECK_FRACTION * scale;
                    }
                    cur = target;
                    continue;
                }
                Step::Table => {}
            }

            let is_flow_cache = self
                .graph
                .node(id)
                .and_then(|n| n.as_table())
                .map(|t| t.cache_role == CacheRole::FlowCache)
                .unwrap_or(false);

            let before_ns = report.latency_ns;
            if is_flow_cache {
                cur = self.exec_flow_cache(
                    id,
                    packet,
                    scale,
                    sampled,
                    &mut pending,
                    &mut report,
                    &mut trace,
                );
            } else {
                cur = self.exec_table(
                    id,
                    packet,
                    scale,
                    sampled,
                    &mut pending,
                    &mut report,
                    &mut trace,
                );
            }
            if sampled {
                // Host-side histogram bookkeeping: the modeled counter
                // cost is already charged above, so this adds no
                // simulated latency.
                self.observed
                    .record_table(id, report.latency_ns - before_ns);
            }
            if packet.dropped {
                report.dropped = true;
                break;
            }
        }
        // Segment results that run to the sink (exit == None) or were cut
        // short by a drop still finalize.
        self.finalize_pending(&mut pending, cur, &mut report);
        if packet.dropped {
            // A drop anywhere finalizes all pendings (the cached result
            // replays the drop).
            let mut all = std::mem::take(&mut pending);
            for p in all.drain(..) {
                self.install_pending(p, &mut report);
            }
        }
        if sampled {
            self.observed.record_packet(report.latency_ns);
        }
        report
    }

    /// Executes a regular (or merged-cache) table node; returns the next
    /// node.
    #[allow(clippy::too_many_arguments)]
    fn exec_table(
        &mut self,
        id: NodeId,
        packet: &mut Packet,
        scale: f64,
        sampled: bool,
        pending: &mut [PendingInsert],
        report: &mut ExecReport,
        trace: &mut Option<&mut PacketTrace>,
    ) -> Option<NodeId> {
        // Look up and copy out what we need before mutating self.
        let (outcome, charged_probes, prims, next): (
            LookupOutcome,
            f64,
            Vec<Primitive>,
            Option<NodeId>,
        ) = {
            let node = self.graph.node(id).expect("validated graph");
            let table = node.as_table().expect("table node");
            let engine = self.engines[id.index()].as_ref().expect("engine built");
            let outcome = engine.lookup(table, packet, &mut self.scratch);
            // Under a Fixed match model the charged probes follow the
            // model's multiplier, not the realized way count.
            let charged = match self.params.match_model {
                MatchCostModel::Fixed { .. } => self.params.memory_accesses(table),
                MatchCostModel::PerDistinctPattern { cap } => (outcome.probes.min(cap)) as f64,
            };
            let prims = table.actions[outcome.action].primitives.clone();
            let next = match &node.next {
                NextHops::Always(t) => *t,
                NextHops::ByAction(v) => v[outcome.action],
                NextHops::Branch { .. } => unreachable!("table with branch hops"),
            };
            (outcome, charged, prims, next)
        };
        report.probes += outcome.probes;
        report.latency_ns += charged_probes * self.params.l_mat * scale * self.tier_scale(id);
        report.latency_ns += prims.len() as f64 * self.params.l_act * scale;

        if self.instrumented {
            // The lookup above composed the key into the scratch buffer.
            self.note_distinct(id);
        }
        Self::apply_primitives(packet, &prims);

        for p in pending.iter_mut() {
            p.recorded.push((id, outcome.action));
        }
        if let Some(t) = trace.as_deref_mut() {
            t.push(
                self.now_s,
                EventKind::Action {
                    node: id.0,
                    action: outcome.action as u32,
                },
            );
        }
        if sampled {
            self.note_hot_key(id);
            self.profile.record_action(id, outcome.action, 1);
            report.counter_updates += 1;
            report.latency_ns += self.params.l_counter * scale;
        } else if self.instrumented {
            report.latency_ns += self.params.l_counter * SAMPLE_CHECK_FRACTION * scale;
        }
        next
    }

    /// Executes a flow-cache node; returns the next node.
    #[allow(clippy::too_many_arguments)]
    fn exec_flow_cache(
        &mut self,
        id: NodeId,
        packet: &mut Packet,
        scale: f64,
        sampled: bool,
        pending: &mut Vec<PendingInsert>,
        report: &mut ExecReport,
        trace: &mut Option<&mut PacketTrace>,
    ) -> Option<NodeId> {
        let (key, hit_target, miss_target, default_action) = {
            let node = self.graph.node(id).expect("validated graph");
            let table = node.as_table().expect("cache is a table");
            let key: Vec<u64> = table.keys.iter().map(|k| packet.get(k.field)).collect();
            let (hit_t, miss_t) = match &node.next {
                NextHops::ByAction(v) => (
                    v.first().copied().flatten(),
                    v.get(table.default_action).copied().flatten(),
                ),
                NextHops::Always(t) => (*t, *t),
                NextHops::Branch { .. } => unreachable!("cache with branch hops"),
            };
            (key, hit_t, miss_t, table.default_action)
        };
        // One exact lookup either way.
        report.probes += 1;
        report.latency_ns += self.params.l_mat * scale;

        let cached: Option<CachedResult> = self
            .caches
            .get_mut(id.index())
            .and_then(|c| c.as_mut())
            .and_then(|c| c.lru.get(key.as_slice()).cloned());
        match cached {
            Some(result) => {
                if let Some(Some(c)) = self.caches.get_mut(id.index()) {
                    c.hits += 1;
                }
                if sampled {
                    self.profile.record_action(id, 0, 1);
                    report.counter_updates += 1;
                    report.latency_ns += self.params.l_counter * scale;
                }
                // Replay the recorded actions: execute their primitives and
                // maintain the counter map back to original tables. Outer
                // pending recordings (a cache covering this cache's region)
                // observe the replayed actions too.
                for p in pending.iter_mut() {
                    p.recorded.extend(result.iter().copied());
                }
                for (nid, aidx) in &result {
                    let prims: Vec<Primitive> = self
                        .graph
                        .node(*nid)
                        .and_then(|n| n.as_table())
                        .map(|t| t.actions[*aidx].primitives.clone())
                        .unwrap_or_default();
                    report.latency_ns += prims.len() as f64 * self.params.l_act * scale;
                    Self::apply_primitives(packet, &prims);
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(
                            self.now_s,
                            EventKind::Action {
                                node: nid.0,
                                action: *aidx as u32,
                            },
                        );
                    }
                    if sampled {
                        self.profile.record_action(*nid, *aidx, 1);
                        report.counter_updates += 1;
                        report.latency_ns += self.params.l_counter * scale;
                    }
                }
                hit_target
            }
            None => {
                if let Some(Some(c)) = self.caches.get_mut(id.index()) {
                    c.misses += 1;
                }
                if sampled {
                    self.profile.record_action(id, default_action, 1);
                    report.counter_updates += 1;
                    report.latency_ns += self.params.l_counter * scale;
                }
                pending.push(PendingInsert {
                    cache: id,
                    key: SmallKey::from_slice(&key),
                    exit: hit_target,
                    recorded: Vec::new(),
                });
                miss_target
            }
        }
    }

    fn finalize_pending(
        &mut self,
        pending: &mut Vec<PendingInsert>,
        at: Option<NodeId>,
        report: &mut ExecReport,
    ) {
        let mut i = 0;
        while i < pending.len() {
            if pending[i].exit == at {
                let p = pending.remove(i);
                self.install_pending(p, report);
            } else {
                i += 1;
            }
        }
    }

    fn install_pending(&mut self, p: PendingInsert, report: &mut ExecReport) {
        self.install(p.cache, p.key, p.recorded, report);
    }

    /// Installs a finalized cache result, engine-mode agnostic.
    fn install(
        &mut self,
        cache: NodeId,
        key: SmallKey,
        recorded: CachedResult,
        report: &mut ExecReport,
    ) {
        let now = self.now_s;
        if let Some(Some(c)) = self.caches.get_mut(cache.index()) {
            if c.limiter.allow(now) {
                c.lru.insert(key, recorded);
                c.insertions += 1;
                report.latency_ns += self.params.l_cache_insert;
            }
        }
    }

    // ------------------------------------------------------------------
    // Compiled datapath. Mirrors `run_interp` step for step: every
    // latency term is added in the same order with the same operand
    // values, so reports, profiles, observations and traces are
    // bit-identical across engine modes. The differences are purely
    // mechanical: slot-addressed arena walk instead of `NodeId` map
    // hops, FxHash/SmallKey lookups through reused scratch buffers, and
    // pre-boxed action bodies executed in place — zero steady-state
    // heap allocations per packet.
    // ------------------------------------------------------------------

    fn run_compiled(
        &mut self,
        cp: &CompiledPipeline,
        packet: &mut Packet,
        mut trace: Option<&mut PacketTrace>,
    ) -> ExecReport {
        let sampled = self.sample_decision(packet);
        if sampled {
            self.profile.total_packets += 1;
        }
        let mut report = ExecReport {
            latency_ns: self.params.l_base,
            dropped: false,
            migrations: 0,
            probes: 0,
            counter_updates: 0,
        };
        let mut pending: Vec<CPending> = Vec::new();
        let mut cur: u32 = cp.root;
        let mut prev_place: Option<Placement> = None;

        while cur != NO_SLOT {
            let slot = cur;
            // Finalize any cache miss whose covered segment ends here
            // (cheap emptiness gate: the common case carries no pendings).
            if !pending.is_empty() {
                self.finalize_pending_compiled(&mut pending, slot, &mut report);
            }

            let node = &cp.nodes[slot as usize];
            if let Some(p) = prev_place {
                if p != node.place {
                    report.latency_ns += self.params.l_migration;
                    report.migrations += 1;
                }
            }
            prev_place = Some(node.place);
            let scale = node.scale;
            if let Some(t) = trace.as_deref_mut() {
                t.push(self.now_s, EventKind::Visit { node: node.id.0 });
            }

            match &node.step {
                CStep::Branch {
                    condition,
                    comparisons,
                    on_true,
                    on_false,
                } => {
                    let cond = condition.eval(packet.slots());
                    report.latency_ns += self.params.l_branch * *comparisons * scale;
                    let (edge, target) = if cond {
                        (0u16, *on_true)
                    } else {
                        (1u16, *on_false)
                    };
                    if sampled {
                        self.profile.record_edge(EdgeRef::new(node.id, edge), 1);
                        report.counter_updates += 1;
                        report.latency_ns += self.params.l_counter * scale;
                    } else if self.instrumented {
                        report.latency_ns += self.params.l_counter * SAMPLE_CHECK_FRACTION * scale;
                    }
                    cur = target;
                }
                CStep::Table(ct) => {
                    // Fused guard run: this table heads a chain of
                    // guarded tables resolved ahead of time, in stages.
                    // Each stage the packet answers adds the walk's own
                    // latency terms in the walk's order; the walk
                    // resumes where the last one taken ends — here, at
                    // this table, if none was. Anything the per-table
                    // walk does beyond what a stage bakes (counters,
                    // distinct keys, a trace, a cache recording) keeps
                    // the run out of the way, and the walk counts its
                    // own guard hits and misses.
                    if let Some(stages) = &ct.fused {
                        if !self.instrumented
                            && trace.is_none()
                            && pending.is_empty()
                            && !packet.dropped
                        {
                            for st in stages.iter() {
                                if !st.guard.iter().all(|&(f, v)| packet.get(f) == v) {
                                    break;
                                }
                                for d in &st.deltas {
                                    report.latency_ns += d;
                                }
                                report.probes += st.probes;
                                report.migrations += st.migrations;
                                Self::apply_primitives(packet, &st.prims);
                                self.spec_guard_hits += st.guards;
                                prev_place = Some(st.exit_place);
                                cur = st.exit_slot;
                            }
                            if cur != slot {
                                self.spec_fused_hits += 1;
                                if packet.dropped {
                                    report.dropped = true;
                                    break;
                                }
                                continue;
                            }
                        }
                    }
                    let before_ns = report.latency_ns;
                    cur = if ct.is_flow_cache {
                        self.exec_flow_cache_compiled(
                            cp,
                            node.id,
                            ct,
                            packet,
                            scale,
                            sampled,
                            &mut pending,
                            &mut report,
                            &mut trace,
                        )
                    } else {
                        self.exec_table_compiled(
                            node.id,
                            ct,
                            packet,
                            scale,
                            node.tier_scale,
                            sampled,
                            &mut pending,
                            &mut report,
                            &mut trace,
                        )
                    };
                    if sampled {
                        self.observed
                            .record_table(node.id, report.latency_ns - before_ns);
                    }
                    if packet.dropped {
                        report.dropped = true;
                        break;
                    }
                }
            }
        }
        // Segment results that run to the sink (exit == NO_SLOT) or were
        // cut short by a drop still finalize.
        if !pending.is_empty() {
            self.finalize_pending_compiled(&mut pending, cur, &mut report);
        }
        if packet.dropped {
            let mut all = std::mem::take(&mut pending);
            for p in all.drain(..) {
                self.install(p.cache, p.key, p.recorded, &mut report);
            }
        }
        if sampled {
            self.observed.record_packet(report.latency_ns);
        }
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_table_compiled(
        &mut self,
        id: NodeId,
        ct: &CTable,
        packet: &mut Packet,
        scale: f64,
        tier_scale: f64,
        sampled: bool,
        pending: &mut [CPending],
        report: &mut ExecReport,
        trace: &mut Option<&mut PacketTrace>,
    ) -> u32 {
        // Hot-key guard: compare the composed key against the baked hot
        // key; a hit returns the pre-resolved outcome (identical — entry,
        // action, probes — to what the general path computes for that
        // key), a miss falls through to the unmodified general lookup.
        let outcome = if let Some(sp) = &ct.spec {
            ct.engine.compose_key(packet, &mut self.scratch);
            if self.scratch.values.as_slice() == sp.hot_key.as_slice() {
                self.spec_guard_hits += 1;
                sp.hot_outcome
            } else {
                self.spec_guard_misses += 1;
                ct.engine.lookup_composed(&mut self.scratch)
            }
        } else {
            ct.engine.lookup(packet, &mut self.scratch)
        };
        report.probes += outcome.probes;
        for charge in ct.charges(&outcome, &self.params, scale, tier_scale) {
            report.latency_ns += charge;
        }
        let prims: &[Primitive] = &ct.actions[outcome.action];

        if self.instrumented {
            self.note_distinct(id);
        }
        Self::apply_primitives(packet, prims);

        for p in pending.iter_mut() {
            p.recorded.push((id, outcome.action));
        }
        if let Some(t) = trace.as_deref_mut() {
            t.push(
                self.now_s,
                EventKind::Action {
                    node: id.0,
                    action: outcome.action as u32,
                },
            );
        }
        if sampled {
            self.note_hot_key(id);
            self.profile.record_action(id, outcome.action, 1);
            report.counter_updates += 1;
            report.latency_ns += self.params.l_counter * scale;
        } else if self.instrumented {
            report.latency_ns += self.params.l_counter * SAMPLE_CHECK_FRACTION * scale;
        }
        ct.next_slot(outcome.action)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_flow_cache_compiled(
        &mut self,
        cp: &CompiledPipeline,
        id: NodeId,
        ct: &CTable,
        packet: &mut Packet,
        scale: f64,
        sampled: bool,
        pending: &mut Vec<CPending>,
        report: &mut ExecReport,
        trace: &mut Option<&mut PacketTrace>,
    ) -> u32 {
        // Compose the flow key into the reusable scratch buffer.
        self.scratch.values.clear();
        self.scratch
            .values
            .extend(ct.key_fields.iter().map(|&f| packet.get(f)));
        // One exact lookup either way.
        report.probes += 1;
        report.latency_ns += self.params.l_mat * scale;

        // Replay happens against the borrowed cached result — unlike the
        // interpreter there is no defensive clone (the result only needs
        // disjoint executor fields while it is alive).
        let mut was_hit = false;
        if let Some(Some(c)) = self.caches.get_mut(id.index()) {
            if let Some(result) = c.lru.get(self.scratch.values.as_slice()) {
                was_hit = true;
                if sampled {
                    self.profile.record_action(id, 0, 1);
                    report.counter_updates += 1;
                    report.latency_ns += self.params.l_counter * scale;
                }
                for p in pending.iter_mut() {
                    p.recorded.extend(result.iter().copied());
                }
                for &(nid, aidx) in result.iter() {
                    let rslot = cp.slot(nid);
                    let prims: &[Primitive] = if rslot == NO_SLOT {
                        &[]
                    } else if let CStep::Table(t) = &cp.nodes[rslot as usize].step {
                        &t.actions[aidx]
                    } else {
                        &[]
                    };
                    report.latency_ns += prims.len() as f64 * self.params.l_act * scale;
                    Self::apply_primitives(packet, prims);
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(
                            self.now_s,
                            EventKind::Action {
                                node: nid.0,
                                action: aidx as u32,
                            },
                        );
                    }
                    if sampled {
                        self.profile.record_action(nid, aidx, 1);
                        report.counter_updates += 1;
                        report.latency_ns += self.params.l_counter * scale;
                    }
                }
            }
        }
        if was_hit {
            if let Some(Some(c)) = self.caches.get_mut(id.index()) {
                c.hits += 1;
            }
            return ct.hit_slot;
        }
        if let Some(Some(c)) = self.caches.get_mut(id.index()) {
            c.misses += 1;
        }
        if sampled {
            self.profile.record_action(id, ct.default_action, 1);
            report.counter_updates += 1;
            report.latency_ns += self.params.l_counter * scale;
        }
        pending.push(CPending {
            cache: id,
            key: SmallKey::from_slice(&self.scratch.values),
            exit_slot: ct.hit_slot,
            recorded: Vec::new(),
        });
        ct.miss_slot
    }

    fn finalize_pending_compiled(
        &mut self,
        pending: &mut Vec<CPending>,
        at: u32,
        report: &mut ExecReport,
    ) {
        let mut i = 0;
        while i < pending.len() {
            if pending[i].exit_slot == at {
                let p = pending.remove(i);
                self.install(p.cache, p.key, p.recorded, report);
            } else {
                i += 1;
            }
        }
    }

    fn apply_primitives(packet: &mut Packet, prims: &[Primitive]) {
        for p in prims {
            match *p {
                Primitive::Set { field, value } => packet.set(field, value),
                Primitive::Add { field, delta } => {
                    let v = packet.get(field).wrapping_add(delta);
                    packet.set(field, v);
                }
                Primitive::Sub { field, delta } => {
                    let v = packet.get(field).wrapping_sub(delta);
                    packet.set(field, v);
                }
                Primitive::Copy { dst, src } => {
                    let v = packet.get(src);
                    packet.set(dst, v);
                }
                Primitive::Drop => packet.dropped = true,
                Primitive::Forward { port } => packet.egress_port = Some(port),
                Primitive::Nop => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{Condition, MatchKind, MatchValue, Primitive, ProgramBuilder, TableEntry};

    fn params() -> CostParams {
        let mut p = CostParams::bluefield2();
        p.l_mat = 10.0;
        p.l_act = 2.0;
        p.l_branch = 1.0;
        p.l_base = 0.0;
        p.l_counter = 0.5;
        p.l_cache_insert = 20.0;
        p.l_migration = 100.0;
        p.cpu_scale = 3.0;
        p
    }

    /// acl(drop if x==13) -> rewrite(y=7) -> sink
    fn simple_program() -> (pipeleon_ir::ProgramGraph, NodeId, NodeId) {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let y = b.field("y");
        let acl = b
            .table("acl")
            .key(x, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(13)], 1))
            .finish();
        let rw = b
            .table("rewrite")
            .key(x, MatchKind::Exact)
            .action("set_y", vec![Primitive::set(y, 7)])
            .default_action(0)
            .finish();
        let _ = rw;
        (b.seal(acl).unwrap(), acl, rw)
    }

    #[test]
    fn specialize_stamps_and_clears_the_plan_fingerprint() {
        use crate::smallkey::SmallKey;
        use crate::specialize::SpecPlan;
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params()).unwrap();
        ex.set_engine_mode(EngineMode::Compiled);
        assert_eq!(ex.spec_fingerprint(), 0, "verbatim lowering sentinel");
        let plan = SpecPlan {
            hot_keys: vec![(acl, SmallKey::from_slice(&[1]))],
            direct: vec![],
            chain: vec![],
            fingerprint: 0xABCD,
        };
        assert_eq!(ex.specialize_with(&plan), Some(1), "first spec epoch");
        assert_eq!(ex.spec_fingerprint(), 0xABCD);
        // Re-applying the same plan is a no-op (dedup by fingerprint).
        assert_eq!(ex.specialize_with(&plan), None);
        // Guard hit on the baked key stays bit-exact with the oracle.
        let mut p = Packet::with_slots(vec![1, 0]);
        let r = ex.process(&mut p);
        assert!(!r.dropped);
        assert!((r.latency_ns - 22.0).abs() < 1e-9, "got {}", r.latency_ns);
        assert!(ex.spec_stats().guard_hits > 0);
        assert_eq!(ex.despecialize(), Some(2), "second spec epoch");
        assert_eq!(ex.spec_fingerprint(), 0, "despecialize restores verbatim");
    }

    #[test]
    fn executes_actions_and_accounts_latency() {
        let (g, _, _) = simple_program();
        let y = g.fields.get("y").unwrap();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut p = Packet::with_slots(vec![1, 0]);
        let r = ex.process(&mut p);
        assert!(!r.dropped);
        assert_eq!(p.get(y), 7);
        // acl: 1 probe * 10 + 0 prims; rewrite: 1 probe * 10 + 1 prim * 2.
        assert!((r.latency_ns - 22.0).abs() < 1e-9, "got {}", r.latency_ns);
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn drop_halts_execution() {
        let (g, _, _) = simple_program();
        let y = g.fields.get("y").unwrap();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut p = Packet::with_slots(vec![13, 0]);
        let r = ex.process(&mut p);
        assert!(r.dropped);
        assert_eq!(p.get(y), 0, "rewrite must not run after a drop");
        // acl only: 10 + 1 prim (Drop) * 2 = 12.
        assert!((r.latency_ns - 12.0).abs() < 1e-9, "got {}", r.latency_ns);
    }

    #[test]
    fn branch_routing_and_tracing() {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let t1 = b.table("t1").key(x, MatchKind::Exact).finish();
        b.set_next(t1, None);
        let t2 = b.table("t2").key(x, MatchKind::Exact).finish();
        b.set_next(t2, None);
        let br = b.branch("br", Condition::lt(x, 10), Some(t1), Some(t2));
        let g = b.seal(br).unwrap();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut trace = PacketTrace::default();
        let mut p = Packet::with_slots(vec![5]);
        ex.process_traced(&mut p, &mut trace);
        assert_eq!(trace.visited(), vec![br, t1]);
        let mut p = Packet::with_slots(vec![50]);
        ex.process_traced(&mut p, &mut trace);
        assert_eq!(trace.visited(), vec![br, t2]);
        // The trace shares the journal's event schema and renders as
        // JSONL through the same machinery.
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), trace.events.len());
        assert!(jsonl.contains("\"type\":\"visit\""));
    }

    #[test]
    fn instrumentation_collects_counters_and_costs_latency() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params()).unwrap();
        ex.set_instrumentation(true, 1);
        let mut lat_sum = 0.0;
        for i in 0..10 {
            let mut p = Packet::with_slots(vec![i, 0]);
            lat_sum += ex.process(&mut p).latency_ns;
        }
        let prof = ex.take_profile();
        assert_eq!(prof.action_count(acl, 0), 10);
        // Uninstrumented latency for the same packets is 22 each; with 2
        // counter updates each (+0.5) it is 23.
        assert!((lat_sum - 230.0).abs() < 1e-6, "got {lat_sum}");
        // take_profile resets.
        assert_eq!(ex.sampled_profile().action_count(acl, 0), 0);
    }

    #[test]
    fn sampling_reduces_overhead_and_scales_counts() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params()).unwrap();
        ex.set_instrumentation(true, 4);
        for i in 0..100 {
            let mut p = Packet::with_slots(vec![100 + i, 0]);
            ex.process(&mut p);
        }
        let prof = ex.take_profile();
        // 25 sampled packets, scaled by 4 back to 100.
        assert_eq!(prof.action_count(acl, 0), 100);
    }

    #[test]
    fn observations_record_sampled_packets_only() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params()).unwrap();
        // Uninstrumented: no histogram work at all.
        for i in 0..10 {
            ex.process(&mut Packet::with_slots(vec![100 + i, 0]));
        }
        assert!(ex.observations().is_empty());
        ex.set_instrumentation(true, 4);
        for i in 0..100 {
            ex.process(&mut Packet::with_slots(vec![100 + i, 0]));
        }
        let obs = ex.take_observations();
        assert_eq!(obs.packet_latency.count(), 25, "1-in-4 sampling");
        assert_eq!(obs.per_table[&acl].count(), 25);
        assert!(ex.observations().is_empty(), "take must reset");
    }

    #[test]
    fn entry_api_rebuilds_engine() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut p = Packet::with_slots(vec![99, 0]);
        assert!(!ex.process(&mut p.clone()).dropped);
        ex.insert_entry(acl, TableEntry::new(vec![MatchValue::Exact(99)], 1))
            .unwrap();
        assert!(ex.process(&mut p).dropped);
        let removed = ex.remove_entry(acl, 1).unwrap();
        assert_eq!(removed.matches, vec![MatchValue::Exact(99)]);
        let mut p = Packet::with_slots(vec![99, 0]);
        assert!(!ex.process(&mut p).dropped);
    }

    #[test]
    fn placement_charges_migration_and_scales() {
        let (g, acl, rw) = simple_program();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut placement = vec![Placement::Asic; 8];
        placement[rw.index()] = Placement::Cpu;
        let _ = acl;
        ex.set_placement(placement);
        let mut p = Packet::with_slots(vec![1, 0]);
        let r = ex.process(&mut p);
        assert_eq!(r.migrations, 1);
        // acl 10 + migration 100 + rewrite (10 + 2) * 3 = 146.
        assert!((r.latency_ns - 146.0).abs() < 1e-9, "got {}", r.latency_ns);
    }

    /// Builds: cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]
    fn cached_program() -> (pipeleon_ir::ProgramGraph, NodeId, NodeId) {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let y = b.field("y");
        let heavy = b
            .table("heavy")
            .key(x, MatchKind::Ternary)
            .action("mark", vec![Primitive::set(y, 1)])
            .default_action(0)
            .entry(TableEntry::with_priority(
                vec![MatchValue::Ternary {
                    value: 0,
                    mask: 0xF,
                }],
                0,
                1,
            ))
            .finish();
        b.set_next(heavy, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .max_entries(64)
            .by_action(vec![None, Some(heavy)])
            .finish();
        (b.seal(cache).unwrap(), cache, heavy)
    }

    #[test]
    fn flow_cache_miss_then_hit() {
        let (g, cache, _) = cached_program();
        let y = g.fields.get("y").unwrap();
        let mut ex = Executor::new(g, params()).unwrap();
        // First packet: miss -> heavy path (+ insertion).
        let mut p1 = Packet::with_slots(vec![16, 0]);
        let r1 = ex.process(&mut p1);
        assert_eq!(ex.cache_len(cache), 1);
        // Cache 10 + heavy (1 way ternary -> charged per-pattern 1*10 + 1 prim*2) + insert 20.
        assert!((r1.latency_ns - 42.0).abs() < 1e-9, "got {}", r1.latency_ns);
        assert_eq!(p1.get(y), 1);
        // Second packet, same flow: hit, replays the action.
        let mut p2 = Packet::with_slots(vec![16, 0]);
        let r2 = ex.process(&mut p2);
        assert!((r2.latency_ns - 12.0).abs() < 1e-9, "got {}", r2.latency_ns);
        assert_eq!(p2.get(y), 1, "replayed action must apply");
        let prof = ex.take_profile();
        let stats = prof.cache_stats[&cache];
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn flow_cache_caches_drops() {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let acl = b
            .table("acl")
            .key(x, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(5)], 1))
            .finish();
        b.set_next(acl, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .by_action(vec![None, Some(acl)])
            .finish();
        let g = b.seal(cache).unwrap();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut p = Packet::with_slots(vec![5]);
        assert!(ex.process(&mut p).dropped);
        assert_eq!(ex.cache_len(cache), 1, "drop result must be cached");
        let mut p = Packet::with_slots(vec![5]);
        let r = ex.process(&mut p);
        assert!(r.dropped, "cached drop must replay");
        // Hit: cache 10 + replayed deny (1 prim) 2 = 12.
        assert!((r.latency_ns - 12.0).abs() < 1e-9);
    }

    #[test]
    fn flush_cache_forces_misses() {
        let (g, cache, _) = cached_program();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut p = Packet::with_slots(vec![3, 0]);
        ex.process(&mut p.clone());
        assert_eq!(ex.cache_len(cache), 1);
        ex.flush_cache(cache);
        assert_eq!(ex.cache_len(cache), 0);
        let r = ex.process(&mut p);
        assert!(r.latency_ns > 12.0, "must take the miss path again");
    }

    #[test]
    fn insertion_rate_limit_drops_insertions() {
        let (g, cache, _) = cached_program();
        let mut ex = Executor::new(g, params()).unwrap();
        ex.set_cache_insertion_limit(cache, 0.0); // no insertions allowed
        for i in 0..10 {
            let mut p = Packet::with_slots(vec![i, 0]);
            ex.process(&mut p);
        }
        assert_eq!(ex.cache_len(cache), 0);
        let prof = ex.take_profile();
        assert_eq!(prof.cache_stats[&cache].misses, 10);
        assert_eq!(prof.cache_stats[&cache].insertions, 0);
    }

    #[test]
    fn memory_tiers_scale_match_cost_only() {
        use pipeleon_cost::MemoryTier;
        let (g, acl, rw) = simple_program();
        let mut p = params();
        p.tiers.sram_speedup = 2.0;
        let mut ex = Executor::new(g.clone(), p).unwrap();
        let base = ex.process(&mut Packet::with_slots(vec![1, 0])).latency_ns;
        // Promote the rewrite table to SRAM: its match (10) halves to 5.
        let mut tiers = vec![MemoryTier::Emem; g.id_bound()];
        tiers[rw.index()] = MemoryTier::Sram;
        let _ = acl;
        ex.set_memory_tiers(tiers);
        let fast = ex.process(&mut Packet::with_slots(vec![1, 0])).latency_ns;
        assert!((base - fast - 5.0).abs() < 1e-9, "base={base} fast={fast}");
    }

    /// `n` exact entries on `key` (keys `0..n`, spread by an odd
    /// multiplier), every 7th bound to action 1.
    fn big_exact(
        b: &mut ProgramBuilder,
        name: &str,
        key: pipeleon_ir::FieldRef,
        n: u64,
        actions: [(&str, Vec<Primitive>); 2],
    ) -> NodeId {
        let [(n0, p0), (n1, p1)] = actions;
        let mut tb = b
            .table(name)
            .key(key, MatchKind::Exact)
            .action(n0, p0)
            .action(n1, p1)
            .action_nop("miss")
            .default_action(2);
        for e in 0..n {
            tb = tb.entry(TableEntry::new(
                vec![MatchValue::Exact(e.wrapping_mul(2_654_435_761) % 1_000_003)],
                usize::from(e % 7 == 0),
            ));
        }
        tb.finish()
    }

    /// Big enough to pass the look-ahead size gate (32,768 slots, 1 MB).
    const BIG: u64 = 20_000;

    /// Traffic over two fields: mostly installed keys, some misses.
    fn big_traffic(n: usize) -> Vec<Packet> {
        (0..n as u64)
            .map(|i| {
                let flow = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let key = |f: u64| {
                    if f.is_multiple_of(11) {
                        2_000_000 + f // never installed
                    } else {
                        (f % BIG).wrapping_mul(2_654_435_761) % 1_000_003
                    }
                };
                Packet::with_slots(vec![key(flow), key(flow >> 3), 0])
            })
            .collect()
    }

    /// `process_batch` (with whatever look-ahead the program earns) ≡
    /// per-packet `process` ≡ the interpreter: packets and reports
    /// bit-equal, over burst lengths around the look-ahead distance.
    fn assert_lookahead_inert(g: &pipeleon_ir::ProgramGraph, ctx: &str) {
        let mut batch = Executor::new(g.clone(), params()).unwrap();
        let mut single = Executor::new(g.clone(), params()).unwrap();
        let mut interp = Executor::new(g.clone(), params()).unwrap();
        interp.set_engine_mode(EngineMode::Interpreter);
        let k = prefetch::AHEAD;
        let traffic = big_traffic(3000);
        let mut at = 0;
        for len in [0, 1, k - 1, k, k + 1, 255, 256, 1000] {
            let burst = &traffic[at..at + len];
            at += len;
            let mut got = burst.to_vec();
            let got_reports = batch.process_batch(&mut got);
            assert_eq!(got_reports.len(), len, "{ctx}: burst {len}");
            for (i, p) in burst.iter().enumerate() {
                let (mut a, mut b) = (p.clone(), p.clone());
                let ra = single.process(&mut a);
                let rb = interp.process(&mut b);
                for (who, want, r) in [("process", &a, ra), ("interpreter", &b, rb)] {
                    assert_eq!(&got[i], want, "{ctx}: burst {len} packet {i} vs {who}");
                    assert_eq!(got_reports[i], r, "{ctx}: burst {len} report {i} vs {who}");
                    assert_eq!(
                        got_reports[i].latency_ns.to_bits(),
                        r.latency_ns.to_bits(),
                        "{ctx}: burst {len} latency bits {i} vs {who}"
                    );
                }
            }
        }
    }

    #[test]
    fn lookahead_lists_big_stable_key_tables_and_is_inert() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let mark = |v| vec![Primitive::set(out, v)];
        let t1 = big_exact(&mut b, "t1", x, BIG, [("a", mark(1)), ("b", mark(2))]);
        let t2 = big_exact(&mut b, "t2", y, BIG, [("a", mark(3)), ("b", mark(4))]);
        let g = b.seal(t1).unwrap();
        let mut ex = Executor::new(g.clone(), params()).unwrap();
        assert_eq!(ex.lookahead_tables(), vec![t1, t2]);
        ex.set_engine_mode(EngineMode::Interpreter);
        assert!(!ex.has_lookahead(), "the interpreter takes no hints");
        assert_lookahead_inert(&g, "stable keys");
    }

    #[test]
    fn lookahead_skips_a_table_whose_key_an_upstream_action_writes() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        // t1's action 1 rewrites y, the key t2 matches on: a hint taken
        // from the waiting packet's y would be for the wrong slot.
        let t1 = big_exact(
            &mut b,
            "t1",
            x,
            BIG,
            [
                ("keep", vec![Primitive::Nop]),
                (
                    "rewrite",
                    vec![Primitive::set(y, 2_654_435_761 % 1_000_003)],
                ),
            ],
        );
        big_exact(
            &mut b,
            "t2",
            y,
            BIG,
            [
                ("a", vec![Primitive::set(out, 3)]),
                ("b", vec![Primitive::set(out, 4)]),
            ],
        );
        let g = b.seal(t1).unwrap();
        let mut ex = Executor::new(g.clone(), params()).unwrap();
        assert_eq!(
            ex.lookahead_tables(),
            vec![t1],
            "t2's key is written upstream"
        );
        assert_lookahead_inert(&g, "written key");
        // Downstream writers do not disqualify: flip the order.
        let mut b = ProgramBuilder::new();
        let (x, y) = (b.field("x"), b.field("y"));
        let first = big_exact(
            &mut b,
            "first",
            y,
            BIG,
            [("a", vec![Primitive::Nop]), ("b", vec![Primitive::Nop])],
        );
        let then = big_exact(
            &mut b,
            "then",
            x,
            BIG,
            [
                ("keep", vec![Primitive::Nop]),
                ("rewrite", vec![Primitive::set(y, 5)]),
            ],
        );
        let g = b.seal(first).unwrap();
        let mut ex = Executor::new(g, params()).unwrap();
        assert_eq!(ex.lookahead_tables(), vec![first, then]);
    }

    #[test]
    fn lookahead_is_inert_behind_a_flow_cache() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let mark = |v| vec![Primitive::set(out, v)];
        let big = big_exact(&mut b, "big", x, BIG, [("a", mark(1)), ("b", mark(2))]);
        b.set_next(big, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .key(y, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .max_entries(256)
            .by_action(vec![None, Some(big)])
            .finish();
        let g = b.seal(cache).unwrap();
        let mut ex = Executor::new(g.clone(), params()).unwrap();
        assert_eq!(ex.lookahead_tables(), vec![big], "never the cache switch");
        assert_lookahead_inert(&g, "flow cache");
    }

    #[test]
    fn lookahead_is_inert_when_packets_drop_mid_pipeline() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let acl = big_exact(
            &mut b,
            "acl",
            x,
            BIG,
            [
                ("permit", vec![Primitive::Nop]),
                ("deny", vec![Primitive::Drop]),
            ],
        );
        let fwd = big_exact(
            &mut b,
            "fwd",
            y,
            BIG,
            [
                ("a", vec![Primitive::set(out, 1)]),
                ("b", vec![Primitive::Forward { port: 2 }]),
            ],
        );
        let g = b.seal(acl).unwrap();
        let mut ex = Executor::new(g.clone(), params()).unwrap();
        assert_eq!(ex.lookahead_tables(), vec![acl, fwd]);
        let mut probe = big_traffic(1000);
        let dropped = ex
            .process_batch(&mut probe)
            .iter()
            .filter(|r| r.dropped)
            .count();
        assert!(
            dropped > 50 && dropped < 950,
            "drops and passes both: {dropped}"
        );
        assert_lookahead_inert(&g, "mid-pipeline drops");
    }

    /// Programs whose tables are all cache-sized get an empty list, so
    /// their burst loops take the branch without the look-ahead stage.
    #[test]
    fn lookahead_is_empty_for_small_table_programs() {
        use pipeleon_workloads::scenarios::{LoadBalancer, SkewedPipeline};
        for (name, g) in [
            ("load balancer", LoadBalancer::build().graph),
            (
                "skewed pipeline",
                SkewedPipeline::build_with_entries(8, 4, 128).graph,
            ),
        ] {
            let mut ex = Executor::new(g, params()).unwrap();
            assert!(ex.lookahead_tables().is_empty(), "{name}");
            assert!(!ex.has_lookahead(), "{name}");
        }
    }

    // ------------------------------------------------------------------
    // Fused guard runs at their one consumer: a run hit must be the
    // per-table walk to the bit, and must stand aside whenever the walk
    // does more than the run baked.
    // ------------------------------------------------------------------

    /// The key value every fused-run fixture table is guarded on.
    const HOT: u64 = 7;

    /// `acl(x) → nat(y) → mark(z) → fwd(x)`, each resolving [`HOT`] to an
    /// action with real packet effects; `nat`'s rule is ternary beside a
    /// second mask pattern, so its outcome carries two probes.
    fn fusable_chain() -> (pipeleon_ir::ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let (x, y, z, out) = (b.field("x"), b.field("y"), b.field("z"), b.field("out"));
        let exact = |b: &mut ProgramBuilder, name: &str, key, hit: Vec<Primitive>| {
            b.table(name)
                .key(key, MatchKind::Exact)
                .action("hit", hit)
                .action("miss", vec![Primitive::add(out, 1000)])
                .default_action(1)
                .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
                .finish()
        };
        let acl = exact(
            &mut b,
            "acl",
            x,
            vec![Primitive::set(out, 1), Primitive::Nop],
        );
        let tern = |value, mask| vec![MatchValue::Ternary { value, mask }];
        let nat = b
            .table("nat")
            .key(y, MatchKind::Ternary)
            .action("rewrite", vec![Primitive::add(out, 10)])
            .action("miss", vec![Primitive::add(out, 2000)])
            .default_action(1)
            .entry(TableEntry::with_priority(tern(0x100, 0xF00), 1, 5))
            .entry(TableEntry::with_priority(tern(HOT, 0xFF), 0, 1))
            .finish();
        let mark = exact(
            &mut b,
            "mark",
            z,
            vec![Primitive::Copy { dst: z, src: out }],
        );
        let fwd = exact(&mut b, "fwd", x, vec![Primitive::Forward { port: 3 }]);
        (b.seal(acl).unwrap(), vec![acl, nat, mark, fwd])
    }

    /// A plan guarding each of `ids` on [`HOT`].
    fn hot_plan(ids: &[NodeId]) -> SpecPlan {
        SpecPlan {
            hot_keys: ids
                .iter()
                .map(|&id| (id, SmallKey::from_slice(&[HOT])))
                .collect(),
            fingerprint: 0xF05E,
            ..SpecPlan::default()
        }
    }

    /// The four executors a fused run is judged against, in one place:
    /// `fused` takes run hits; `walk` is the same specialized pipeline
    /// driven under a trace, where runs stand aside, so it *is* the
    /// unfused per-table walk; `plain` and `interp` are the oracles.
    struct Quad {
        fused: Executor,
        walk: Executor,
        plain: Executor,
        interp: Executor,
    }

    impl Quad {
        fn new(
            g: &pipeleon_ir::ProgramGraph,
            params: &CostParams,
            placement: &[Placement],
            plan: &SpecPlan,
        ) -> Self {
            let mk = |specialize: bool, mode| {
                let mut ex = Executor::new(g.clone(), params.clone()).unwrap();
                ex.set_engine_mode(mode);
                ex.set_placement(placement.to_vec());
                if specialize {
                    assert!(ex.specialize_with(plan).is_some());
                }
                ex
            };
            Self {
                fused: mk(true, EngineMode::Compiled),
                walk: mk(true, EngineMode::Compiled),
                plain: mk(false, EngineMode::Compiled),
                interp: mk(false, EngineMode::Interpreter),
            }
        }

        /// Runs `p` through all four and requires every report field and
        /// the whole packet to agree to the bit. Returns the report.
        fn agree_on(&mut self, p: &Packet, ctx: &str) -> ExecReport {
            let mut got = p.clone();
            let r = self.fused.process(&mut got);
            let mut trace = PacketTrace::default();
            let (mut a, mut b, mut c) = (p.clone(), p.clone(), p.clone());
            let others = [
                ("walk", self.walk.process_traced(&mut a, &mut trace), &a),
                ("plain", self.plain.process(&mut b), &b),
                ("interp", self.interp.process(&mut c), &c),
            ];
            for (who, want, pkt) in others {
                assert_eq!(r, want, "{ctx}: report vs {who}");
                assert_eq!(
                    r.latency_ns.to_bits(),
                    want.latency_ns.to_bits(),
                    "{ctx}: latency bits vs {who}"
                );
                assert_eq!(&got, pkt, "{ctx}: packet vs {who}");
            }
            r
        }

        /// The fused executor's guard counters must be the walk's.
        fn assert_guard_counts_match(&self) -> SpecStats {
            let (f, w) = (self.fused.spec_stats(), self.walk.spec_stats());
            assert_eq!(w.fused_hits, 0, "a traced walk takes no run");
            assert_eq!(
                (f.guard_hits, f.guard_misses),
                (w.guard_hits, w.guard_misses)
            );
            f
        }
    }

    /// All-hit, all-miss, every partial hit (first k guards match) and an
    /// already-dropped packet, over ASIC/CPU placements that put a
    /// migration inside the run, on real (non-dyadic) cost parameters.
    #[test]
    fn fused_run_hits_are_the_walk_to_the_bit() {
        let (g, ids) = fusable_chain();
        let mut placement = vec![Placement::Asic; g.id_bound()];
        placement[ids[1].index()] = Placement::Cpu;
        placement[ids[2].index()] = Placement::Cpu;
        let mut q = Quad::new(&g, &CostParams::bluefield2(), &placement, &hot_plan(&ids));
        assert_eq!(q.fused.spec_stats().fused_runs, 1);
        let hit = Packet::with_slots(vec![HOT, HOT, HOT, 0]);
        let r = q.agree_on(&hit, "all guards hit");
        assert_eq!((r.probes, r.migrations), (5, 2));
        assert_eq!(q.fused.spec_stats().fused_hits, 1);
        // First k guards match, guard k+1 does not (fwd shares acl's
        // field, so it cannot miss alone).
        let partial = [
            vec![HOT + 1, HOT, HOT, 0],
            vec![HOT, HOT + 1, HOT, 0],
            vec![HOT, HOT, HOT + 1, 0],
            vec![1, 2, 3, 0],
        ];
        for (k, slots) in partial.into_iter().enumerate() {
            q.agree_on(&Packet::with_slots(slots), &format!("partial hit {k}"));
        }
        // The packets that hit acl's guard took the stages they could
        // answer; the two that missed it took the walk from the head.
        assert_eq!(q.fused.spec_stats().fused_hits, 3);
        let mut dead = hit.clone();
        dead.dropped = true;
        let r = q.agree_on(&dead, "already dropped");
        assert!(r.dropped);
        assert_eq!(q.fused.spec_stats().fused_hits, 3);
        for i in 0..50u64 {
            q.agree_on(&hit, "steady hits");
            let noise = Packet::with_slots(vec![HOT, i % 3 + HOT, HOT, i]);
            q.agree_on(&noise, "mixed");
        }
        let st = q.assert_guard_counts_match();
        assert!(st.fused_hits > 50 && st.guard_misses > 0, "{st:?}");
    }

    /// At `l_base` = 1e16 one ulp is 2.0: each of the run's terms, added
    /// on its own, rounds away exactly as it does on the walk, while any
    /// pre-summed total of them would not.
    #[test]
    fn fused_run_adds_its_terms_one_by_one() {
        let (g, ids) = fusable_chain();
        let mut p = CostParams::bluefield2();
        p.l_base = 1e16;
        p.l_mat = 0.4;
        p.l_act = 0.4;
        p.l_migration = 0.9;
        p.cpu_scale = 1.0;
        let mut placement = vec![Placement::Asic; g.id_bound()];
        placement[ids[2].index()] = Placement::Cpu;
        let mut q = Quad::new(&g, &p, &placement, &hot_plan(&ids));
        let r = q.agree_on(&Packet::with_slots(vec![HOT, HOT, HOT, 0]), "huge base");
        assert_eq!(q.fused.spec_stats().fused_hits, 1);
        assert_eq!(r.latency_ns, 1e16, "every term is below half an ulp");
    }

    #[test]
    fn fused_run_ending_in_a_drop_drops_like_the_walk() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let table = |b: &mut ProgramBuilder, name: &str, key, hit: Vec<Primitive>| {
            b.table(name)
                .key(key, MatchKind::Exact)
                .action("hit", hit)
                .action_nop("miss")
                .default_action(1)
                .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
                .finish()
        };
        let t0 = table(&mut b, "t0", x, vec![Primitive::set(out, 1)]);
        let deny = table(
            &mut b,
            "deny",
            y,
            vec![Primitive::Drop, Primitive::set(out, 2)],
        );
        let after = table(&mut b, "after", x, vec![Primitive::set(out, 3)]);
        let g = b.seal(t0).unwrap();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&[t0, deny, after]));
        let r = q.agree_on(&Packet::with_slots(vec![HOT, HOT, 0]), "baked drop");
        assert!(r.dropped);
        assert_eq!(q.fused.spec_stats().fused_hits, 1);
        // t0 10 + 2, deny 10 + 2 primitives × 2; `after` never runs.
        assert!((r.latency_ns - 26.0).abs() < 1e-9, "got {}", r.latency_ns);
        q.agree_on(&Packet::with_slots(vec![HOT, 0, 0]), "passes the acl");
        q.assert_guard_counts_match();
    }

    /// `t0`'s baked action moves `y` off the value `t1` is guarded on: on
    /// the walk a packet that hit `t0` misses `t1`. A run hoisting
    /// `t1`'s compare above that write would see the packet's old `y`
    /// and serve `t1`'s hot outcome.
    #[test]
    fn a_guard_on_a_written_key_is_checked_where_the_walk_checks_it() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let table = |b: &mut ProgramBuilder, name: &str, key, hit: Vec<Primitive>| {
            b.table(name)
                .key(key, MatchKind::Exact)
                .action("hit", hit)
                .action("miss", vec![Primitive::add(out, 1000)])
                .default_action(1)
                .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
                .finish()
        };
        let t0 = table(&mut b, "t0", x, vec![Primitive::set(y, 5)]);
        let t1 = table(&mut b, "t1", y, vec![Primitive::add(out, 1)]);
        let t2 = table(&mut b, "t2", y, vec![Primitive::add(out, 10)]);
        let g = b.seal(t0).unwrap();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&[t0, t1, t2]));
        for slots in [[HOT, HOT, 0], [HOT, 5, 0], [1, HOT, 0], [1, 5, 0]] {
            q.agree_on(&Packet::with_slots(slots.to_vec()), "written key");
        }
        let st = q.assert_guard_counts_match();
        assert_eq!(st.fused_runs, 1, "t1 and t2 still fuse behind the write");
        assert_eq!(
            st.fused_hits, 1,
            "x misses t0, y = HOT reaches t1 untouched"
        );
    }

    /// The run bakes none of what instrumentation does per table (counter
    /// charges, distinct keys, sketches), so it must not fire while any
    /// of it is on — sampled packet or not.
    #[test]
    fn fused_runs_stand_aside_under_instrumentation() {
        let (g, ids) = fusable_chain();
        for sample_every in [1, 64] {
            let mut q = Quad::new(&g, &CostParams::bluefield2(), &[], &hot_plan(&ids));
            for ex in [&mut q.fused, &mut q.walk, &mut q.plain, &mut q.interp] {
                ex.set_instrumentation(true, sample_every);
            }
            for i in 0..200u64 {
                let slots = vec![HOT, HOT + u64::from(i % 5 == 0), HOT, i];
                q.agree_on(&Packet::with_slots(slots), "instrumented");
            }
            let st = q.assert_guard_counts_match();
            assert_eq!(st.fused_hits, 0, "sample_every {sample_every}");
            assert!(st.guard_hits > 0);
            assert_eq!(q.fused.take_profile(), q.interp.take_profile());
            assert_eq!(q.fused.take_observations(), q.interp.take_observations());
            // Off again, the same pipeline fuses.
            q.fused.set_instrumentation(false, 1);
            q.fused
                .process(&mut Packet::with_slots(vec![HOT, HOT, HOT, 0]));
            assert_eq!(q.fused.spec_stats().fused_hits, 1);
        }
    }

    #[test]
    fn fused_runs_stand_aside_under_a_trace() {
        let (g, ids) = fusable_chain();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&ids));
        let (mut a, mut b) = (PacketTrace::default(), PacketTrace::default());
        let hit = Packet::with_slots(vec![HOT, HOT, HOT, 0]);
        let ra = q.fused.process_traced(&mut hit.clone(), &mut a);
        let rb = q.interp.process_traced(&mut hit.clone(), &mut b);
        assert_eq!(ra, rb);
        assert_eq!(a, b, "a traced packet visits every member");
        assert_eq!(a.visited(), ids);
        assert_eq!(q.fused.spec_stats().fused_hits, 0);
    }

    /// A flow-cache miss records every `(table, action)` up to the
    /// cache's exit; a run taken inside that segment would leave its
    /// members out of the installed result and every later hit would
    /// replay too little.
    #[test]
    fn fused_runs_stand_aside_inside_a_flow_cache_miss_segment() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let table = |b: &mut ProgramBuilder, name: &str, key, v| {
            b.table(name)
                .key(key, MatchKind::Exact)
                .action("hit", vec![Primitive::add(out, v)])
                .action_nop("miss")
                .default_action(1)
                .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
                .finish()
        };
        let t0 = table(&mut b, "t0", x, 1);
        let t1 = table(&mut b, "t1", y, 10);
        b.set_next(t1, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .key(y, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .max_entries(64)
            .by_action(vec![None, Some(t0)])
            .finish();
        let g = b.seal(cache).unwrap();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&[t0, t1]));
        assert_eq!(q.fused.spec_stats().fused_runs, 1);
        let hit = Packet::with_slots(vec![HOT, HOT, 0]);
        // Miss (walks the segment, installs), then two cache hits that
        // replay what the miss recorded.
        for pass in ["miss", "hit", "hit again"] {
            q.agree_on(&hit, pass);
        }
        assert_eq!(q.fused.cache_len(cache), 1);
        assert_eq!(q.fused.spec_stats().fused_hits, 0);
        q.assert_guard_counts_match();
    }

    #[test]
    fn deploy_resets_cache_state() {
        let (g, cache, _) = cached_program();
        let g2 = g.clone();
        let mut ex = Executor::new(g, params()).unwrap();
        let mut p = Packet::with_slots(vec![1, 0]);
        ex.process(&mut p);
        assert_eq!(ex.cache_len(cache), 1);
        ex.deploy(g2).unwrap();
        assert_eq!(ex.cache_len(cache), 0);
    }
}
