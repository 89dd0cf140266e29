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
//! There is one walk (`Walk::run`) for both engine modes. It is generic
//! over a `Provider` — the interpreter's view of the graph, or the
//! compiled pipeline — which says how a node is reached and what a lookup
//! resolves to; every charge, counter, observation, trace event and cache
//! install is the walk's.
//!
//! Flow caches need no side metadata: a [`CacheRole::FlowCache`] table is a
//! switch-case node whose action 0 ("hit") jumps past the covered segment
//! and whose default action ("miss") falls through to the segment head. On
//! a miss the executor records every `(table, action)` executed until
//! control reaches the hit target, then installs that result — so the
//! covered segment is discovered structurally.

use crate::backend::{Applied, ControlOp};
use crate::cache::{LruCache, RateLimiter};
use crate::compiled::{CompiledPipeline, LookupMemo};
use crate::distinct::{self, KeyObserver};
use crate::engine::{KeyScratch, LookupOutcome, MatchEngine};
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::prefetch;
use crate::smallkey::SmallKey;
use crate::specialize::{self, HotKeySketch, SpecPlan, SpecStats};
use crate::walks::WalkCache;
use fxhash::{FxBuildHasher, FxHashMap};
use pipeleon_cost::{
    CacheStats, CostParams, MatchCostModel, Placement, RuntimeProfile, CACHE_CAPACITY,
    CACHE_INSERTION_RATE,
};
use pipeleon_ir::{
    CacheRole, Condition, EdgeRef, IrError, NextHops, Node, NodeId, NodeKind, Primitive,
    ProgramGraph, Table,
};
use pipeleon_obs::{Event, EventKind};
use std::borrow::{Borrow, Cow};
use std::cell::OnceCell;
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

    fn action(&mut self, t_s: f64, node: NodeId, action: usize) {
        let (node, action) = (node.0, action as u32);
        self.push(t_s, EventKind::Action { node, action });
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

/// Which datapath executes packets: chosen when an [`Executor`] (or a
/// NIC) is built, and fixed for its life.
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
///   arrival index — a barrier the sharded datapath does not have.
/// - [`FlowKeyed`](SampleKeying::FlowKeyed) hashes `(flow_hash,
///   per-flow packet count in the profile window)` through a
///   splitmix64-style mixer. Since RSS pins a flow to one shard, rings
///   preserve per-flow order and every shard's window closes at one
///   stream position, the k-th packet of a flow in a window is the same
///   packet on any worker count, so the *set* of sampled packets — and
///   therefore every sampled counter and histogram — is identical for
///   1, 2, or N workers without any shared arrival index. Costs one
///   `FxHashMap` entry per flow seen in the window while instrumentation
///   is on with `sample_every > 1`; `take_profile` empties the map.
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
    /// This window's hits, misses and insertions (maintained unsampled).
    stats: CacheStats,
}

/// A flow-cache miss whose covered segment is still executing: what it
/// has recorded so far, installed once control reaches `exit`.
#[derive(Debug)]
struct PendingInsert<H> {
    cache: NodeId,
    key: SmallKey,
    exit: H,
    recorded: CachedResult,
}

/// Fraction of a counter update's cost paid by non-sampled packets when
/// sampling is active: the per-packet sample decision (hash + compare)
/// still sits on the data path (§5.4.1).
pub(crate) const SAMPLE_CHECK_FRACTION: f64 = 0.12;

/// How [`Walk::run`] reaches and looks up the nodes of a deployed
/// program. The walk owns every accounting step; a provider only says
/// where a cursor points, what the node there does, what a lookup
/// resolves to and what it costs.
/// There are two, kept independent because their agreement is what the
/// differential suites check: [`GraphView`] (the interpreter: `NodeId`
/// hops, [`MatchEngine`], every cost term derived per visit) and
/// [`CompiledPipeline`] (arena slots, its own engines, terms baked at
/// lowering).
pub(crate) trait Provider {
    /// A cursor: a node of the program, or its sink.
    type Handle: Copy + PartialEq;
    /// The node a cursor resolved to.
    type Node<'a>: Copy
    where
        Self: 'a;
    /// A table node, as [`Provider::step`] resolved it.
    type Table<'a>: Copy
    where
        Self: 'a;

    /// Where packets enter.
    fn root(&self) -> Self::Handle;

    /// The node under the cursor; `None` at the sink.
    fn visit(&self, at: Self::Handle) -> Option<Visit<'_, Self>>;

    /// What the node does. Asked apart from [`Provider::visit`], once
    /// the walk has accounted for reaching the node, so that a provider's
    /// own dispatch on the node's kind runs straight into the walk's.
    fn step<'a>(&'a self, node: Self::Node<'a>) -> Step<'a, Self>;

    /// Matches `packet` against the table, leaving the composed key in
    /// `scratch.values`.
    fn lookup(
        &self,
        table: Self::Table<'_>,
        packet: &Packet,
        scratch: &mut KeyScratch,
        spec: &mut SpecStats,
        memo: &mut LookupMemo,
    ) -> LookupOutcome;

    /// The `[match, action]` latency terms of a visit resolving to
    /// `outcome`, on a node whose placement scale is `scale`.
    fn charges(
        &self,
        table: Self::Table<'_>,
        outcome: &LookupOutcome,
        params: &CostParams,
        scale: f64,
    ) -> [f64; 2];

    /// The body of one of the table's actions.
    fn action<'a>(&'a self, table: Self::Table<'a>, action: usize) -> &'a [Primitive];

    /// Where control goes after `action`.
    fn next(&self, table: Self::Table<'_>, action: usize) -> Self::Handle;

    /// Composes a flow-cache switch's key into `scratch.values`.
    fn cache_key(&self, cache: Self::Table<'_>, packet: &Packet, scratch: &mut KeyScratch);

    /// The body a cached `(table, action)` pair replays (empty if the
    /// table is gone).
    fn replayed(&self, table: NodeId, action: usize) -> &[Primitive];
}

/// One node as the walk sees it.
pub(crate) struct Visit<'a, P: Provider + ?Sized + 'a> {
    /// The graph node id (profiles and traces speak `NodeId`).
    pub(crate) id: NodeId,
    pub(crate) place: Placement,
    /// Placement cost scale (1.0 or `cpu_scale`).
    pub(crate) scale: f64,
    pub(crate) node: P::Node<'a>,
}

/// A node's executable shape.
pub(crate) enum Step<'a, P: Provider + ?Sized + 'a> {
    Branch {
        condition: &'a Condition,
        /// `num_comparisons().max(1)`, as the branch charge multiplies it.
        comparisons: f64,
        on_true: P::Handle,
        on_false: P::Handle,
    },
    Table(P::Table<'a>),
    /// A [`CacheRole::FlowCache`] switch: action 0 ("hit") jumps past the
    /// covered segment, the default action ("miss") falls through to it.
    FlowCache {
        table: P::Table<'a>,
        default_action: usize,
    },
}

/// What was deployed: the graph, the target it runs on, where its nodes
/// are placed, and the interpreter's match engines. It is what lowering
/// reads, and it is the interpreter's [`Provider`] — one that holds
/// nothing lowering baked: placement, scales, charged probes and next
/// hops are derived from these fields on every visit.
#[derive(Debug)]
pub(crate) struct GraphView {
    pub(crate) graph: ProgramGraph,
    pub(crate) params: CostParams,
    /// Dense by node index. A table's engine is built by its first
    /// interpreted lookup after the table last changed, so an executor
    /// built with the compiled engine, which never asks, builds none.
    engines: Vec<OnceCell<MatchEngine>>,
    pub(crate) placement: Vec<Placement>,
}

impl GraphView {
    pub(crate) fn new(graph: ProgramGraph, params: CostParams) -> Self {
        Self {
            graph,
            params,
            engines: Vec::new(),
            placement: Vec::new(),
        }
    }
}

impl Provider for GraphView {
    type Handle = Option<NodeId>;
    type Node<'a> = &'a Node;
    type Table<'a> = (&'a Node, &'a Table);

    fn root(&self) -> Option<NodeId> {
        self.graph.root()
    }

    fn visit(&self, at: Option<NodeId>) -> Option<Visit<'_, Self>> {
        let node = self.graph.node(at?)?;
        let place = self
            .placement
            .get(node.id.index())
            .copied()
            .unwrap_or(Placement::Asic);
        let scale = match place {
            Placement::Asic => 1.0,
            Placement::Cpu => self.params.cpu_scale,
        };
        Some(Visit {
            id: node.id,
            place,
            scale,
            node,
        })
    }

    fn step<'a>(&'a self, node: &'a Node) -> Step<'a, Self> {
        match (&node.kind, &node.next) {
            (NodeKind::Branch(b), NextHops::Branch { on_true, on_false }) => Step::Branch {
                condition: &b.condition,
                comparisons: b.condition.num_comparisons().max(1) as f64,
                on_true: *on_true,
                on_false: *on_false,
            },
            (NodeKind::Table(table), _) if table.cache_role == CacheRole::FlowCache => {
                Step::FlowCache {
                    table: (node, table),
                    default_action: table.default_action,
                }
            }
            (NodeKind::Table(table), _) => Step::Table((node, table)),
            _ => unreachable!("validated graph: branch node with non-branch hops"),
        }
    }

    fn lookup(
        &self,
        (node, table): Self::Table<'_>,
        packet: &Packet,
        scratch: &mut KeyScratch,
        _spec: &mut SpecStats,
        _memo: &mut LookupMemo,
    ) -> LookupOutcome {
        let engine = self.engines[node.id.index()].get_or_init(|| MatchEngine::build(table));
        engine.lookup(table, packet, scratch)
    }

    fn charges(
        &self,
        (_, table): Self::Table<'_>,
        outcome: &LookupOutcome,
        params: &CostParams,
        scale: f64,
    ) -> [f64; 2] {
        // Under a Fixed match model the charged probes follow the
        // model's multiplier, not the realized way count.
        let charged = match params.match_model {
            MatchCostModel::Fixed { .. } => params.memory_accesses(table),
            MatchCostModel::PerDistinctPattern { cap } => (outcome.probes.min(cap)) as f64,
        };
        let body = &table.actions[outcome.action].primitives;
        [
            charged * params.l_mat * scale,
            body.len() as f64 * params.l_act * scale,
        ]
    }

    fn action<'a>(&'a self, (_, table): Self::Table<'a>, action: usize) -> &'a [Primitive] {
        &table.actions[action].primitives
    }

    fn next(&self, (node, _): Self::Table<'_>, action: usize) -> Option<NodeId> {
        match &node.next {
            NextHops::Always(to) => *to,
            NextHops::ByAction(v) => v[action],
            NextHops::Branch { .. } => unreachable!("table with branch hops"),
        }
    }

    fn cache_key(&self, (_, table): Self::Table<'_>, packet: &Packet, scratch: &mut KeyScratch) {
        scratch.values.clear();
        let key = table.keys.iter().map(|k| packet.get(k.field));
        scratch.values.extend(key);
    }

    fn replayed(&self, table: NodeId, action: usize) -> &[Primitive] {
        let table = self.graph.node(table).and_then(|n| n.as_table());
        table.map_or(&[], |t| &t.actions[action].primitives)
    }
}

/// The deployed program: what control operations change and a packet's
/// walk only reads.
#[derive(Debug)]
struct Deployed {
    view: GraphView,
    /// Which datapath runs packets, fixed at construction.
    mode: EngineMode,
    /// Lazily built compiled program. Invalidated by deploys and
    /// placement changes; entry ops recompile just the touched node in
    /// place.
    compiled: Option<CompiledPipeline>,
    /// Full pipeline compiles performed (telemetry for tests/benches).
    full_compiles: u64,
    /// Single-node recompiles performed (telemetry for tests/benches).
    table_recompiles: u64,
}

impl Deployed {
    /// The compiled program — lowered now if a deploy, a placement
    /// change, or nothing yet, left none — and the parameters it is
    /// lowered against.
    fn compiled(&mut self) -> (&mut CompiledPipeline, &CostParams) {
        let cp = self.compiled.get_or_insert_with(|| {
            self.full_compiles += 1;
            CompiledPipeline::build(&self.view)
        });
        (cp, &self.view.params)
    }

    /// Drops the lowering, rebuilding the verbatim one at once if the
    /// compiled engine is the one running.
    fn relower(&mut self) {
        self.compiled = None;
        if self.mode == EngineMode::Compiled {
            self.compiled();
        }
    }
}

/// Everything a packet's walk reads and writes besides the packet and
/// the program: flow-cache contents, the profile window, the sampling
/// schedule. Both engine modes write it alike, so what is collected does
/// not depend on the engine an executor was built with.
#[derive(Debug)]
struct Walk {
    /// Flow-cache runtime state, dense by node index.
    caches: Vec<Option<FlowCacheState>>,
    /// Counters collected since the last [`Executor::take_profile`]
    /// (raw, i.e. sampled counts, rescaled when taken).
    profile: RuntimeProfile,
    instrumented: bool,
    sample_every: u64,
    packet_seq: u64,
    /// How sampling decisions are keyed (global sequence vs per-flow).
    keying: SampleKeying,
    /// Per-flow packet counts for [`SampleKeying::FlowKeyed`] this
    /// window; touched only when instrumented with `sample_every > 1`,
    /// cleared, never dropped, at the window boundary.
    flow_seq: FxHashMap<u64, u64>,
    /// One distinct-key observer per table this window, dense by node
    /// index; cleared, never dropped, at the window boundary.
    distinct: Vec<KeyObserver>,
    last_profile_take_s: f64,
    /// Latency histograms recorded for sampled packets since the last
    /// [`Executor::take_observations`].
    observed: ExecObservations,
    /// Reusable key-composition buffers (zero allocations per lookup).
    scratch: KeyScratch,
    /// The live specialization counters (guard and memo hits, plans
    /// applied and reverted, the epoch); what describes the pipeline as
    /// it stands is filled in by [`Executor::spec_stats`].
    spec: SpecStats,
    /// Per-table hot-key majority sketches, dense by node index; fed by
    /// sampled lookups, taken at window boundaries alongside the profile.
    hot_sketch: Vec<Option<HotKeySketch>>,
    /// What the general lookup answered behind the guards of the
    /// specialised lowering now installed; reset with every such install.
    memo: LookupMemo,
    /// Whole compiled walks of unwatched packets, by header; retired by
    /// every control op.
    walks: WalkCache,
}

/// Executes a deployed program packet-by-packet.
#[derive(Debug)]
pub struct Executor {
    program: Deployed,
    walk: Walk,
    /// Simulation clock in seconds, advanced by the NIC harness.
    pub now_s: f64,
}

impl Executor {
    /// Deploys `graph` on a target described by `params`, run by the
    /// `mode` engine for the life of the executor. Fails if the program
    /// does not validate.
    pub fn new(graph: ProgramGraph, params: CostParams, mode: EngineMode) -> Result<Self, IrError> {
        graph.validate()?;
        let mut ex = Self {
            program: Deployed {
                view: GraphView::new(graph, params),
                mode,
                compiled: None,
                full_compiles: 0,
                table_recompiles: 0,
            },
            walk: Walk {
                caches: Vec::new(),
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
                spec: SpecStats::default(),
                hot_sketch: Vec::new(),
                memo: LookupMemo::default(),
                walks: WalkCache::default(),
            },
            now_s: 0.0,
        };
        ex.rebuild_all();
        Ok(ex)
    }

    /// The deployed program.
    pub fn graph(&self) -> &ProgramGraph {
        &self.program.view.graph
    }

    /// The target parameters.
    pub fn params(&self) -> &CostParams {
        &self.program.view.params
    }

    /// Applies one control operation — the only way a deployed datapath
    /// changes. Each op's effect is written once: a table edit in
    /// [`ControlOp::edit_table`], then the node's engine is rebuilt;
    /// every other op in the private method its arm names. A rejected op
    /// leaves the datapath as it was.
    /// [`ControlOp::Specialize`] plans from this executor's own live
    /// window. Every op, applied or not, retires the walk cache.
    pub fn apply(&mut self, op: &ControlOp) -> Result<Applied, IrError> {
        let applied = self.apply_op(op);
        self.walk.walks.invalidate(&self.program.view.graph);
        applied
    }

    fn apply_op(&mut self, op: &ControlOp) -> Result<Applied, IrError> {
        match op {
            ControlOp::Deploy(graph) => return self.deploy(graph.clone()),
            ControlOp::InsertEntry { node, .. }
            | ControlOp::RemoveEntry { node, .. }
            | ControlOp::ReplaceTable { node, .. } => {
                let applied = op.edit_table(&mut self.program.view.graph)?;
                self.rebuild_engine(*node);
                self.recompile_table(*node);
                return Ok(applied);
            }
            ControlOp::FlushCache(node) => self.flush_cache(*node),
            ControlOp::SetInstrumentation {
                enabled,
                sample_every,
            } => self.set_instrumentation(*enabled, *sample_every),
            ControlOp::SetPlacement(placement) => self.set_placement(placement.clone()),
            ControlOp::Specialize => return Ok(self.specialize_from(&HashMap::new())),
            ControlOp::Despecialize => return Ok(self.despecialize()),
        }
        Ok(Applied::Done)
    }

    /// [`ControlOp::Deploy`] of a graph the caller hands over rather than
    /// lends, so it is not cloned.
    pub(crate) fn deploy(&mut self, graph: ProgramGraph) -> Result<Applied, IrError> {
        graph.validate()?;
        self.adopt_graph(graph, None);
        Ok(Applied::Done)
    }

    /// Applies an op its publisher has already applied to — and so
    /// validated on — a control replica holding the same program, which
    /// makes this infallible by construction. `lowered` is the pipeline
    /// the publisher built for a pipeline-swapping op: every adopter
    /// installs a clone of it instead of lowering (or planning) again.
    pub(crate) fn adopt(&mut self, op: &ControlOp, lowered: Option<&CompiledPipeline>) {
        match op {
            ControlOp::Deploy(graph) => self.adopt_graph(graph.clone(), lowered.cloned()),
            ControlOp::Specialize | ControlOp::Despecialize => {
                self.walk.memo.reset();
                self.program.compiled = lowered.cloned();
            }
            op => {
                let _ = self.apply_op(op);
            }
        }
        self.walk.walks.invalidate(&self.program.view.graph);
    }

    /// Swaps in an already-validated program. The pending profile
    /// window, sampled observations, distinct-key observers, flow
    /// sequence counts, packet sequence, placements and instrumentation
    /// all carry across the swap — the profile window spans generations, keyed by
    /// the (stable) node ids both layouts share. Match engines are
    /// rebuilt (the new layout's tables define them). Each flow cache of
    /// the new layout takes over the whole runtime state (entries,
    /// insertion limiter, window statistics) of an old flow cache that
    /// covers the same segment ([`same_segment`]); every other one starts
    /// cold. That is legal because an entry op on a covered table is
    /// followed by a flush of the caches over it, so every live entry is
    /// what the old segment computes for its key, and an equal segment
    /// computes the same. `compiled` installs a publisher's pre-built
    /// pipeline so every shard adopting the same generation shares one
    /// lowering instead of re-compiling.
    fn adopt_graph(&mut self, graph: ProgramGraph, compiled: Option<CompiledPipeline>) {
        let old = std::mem::replace(&mut self.program.view.graph, graph);
        let mut old_caches = std::mem::take(&mut self.walk.caches);
        let (new, caches) = (&self.program.view.graph, &mut self.walk.caches);
        caches.resize_with(new.id_bound(), || None);
        for (node, t) in new.tables() {
            if t.cache_role != CacheRole::FlowCache {
                continue;
            }
            caches[node.id.index()] = old_caches
                .iter_mut()
                .enumerate()
                .find(|(o, state)| {
                    state.is_some() && same_segment(&old, NodeId(*o as u32), new, node.id)
                })
                .and_then(|(_, state)| state.take());
        }
        self.rebuild_all();
        self.program.compiled = compiled;
    }

    /// A clone of the compiled pipeline as it stands, built on demand —
    /// what a generation publisher attaches to a pipeline-swapping op
    /// when the compiled engine is active (`None` under the interpreter:
    /// adopters then lower lazily like any fresh executor).
    pub(crate) fn compiled_clone(&mut self) -> Option<CompiledPipeline> {
        match self.program.mode {
            EngineMode::Compiled => Some(self.program.compiled().0.clone()),
            EngineMode::Interpreter => None,
        }
    }

    /// Enables P4-counter instrumentation, updating counters for one in
    /// `sample_every` packets (1 = every packet; §5.4.1 uses 1/1024).
    fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        self.walk.instrumented = enabled;
        self.walk.sample_every = sample_every.max(1);
    }

    /// Selects how counter-sampling decisions are keyed (see
    /// [`SampleKeying`]). Switching resets the per-flow counts so both
    /// keyings start from a clean schedule.
    pub fn set_sample_keying(&mut self, keying: SampleKeying) {
        if self.walk.keying != keying {
            self.walk.keying = keying;
            self.walk.flow_seq.clear();
        }
    }

    /// Assigns nodes to ASIC/CPU cores (dense by node id; missing =
    /// ASIC). Costs on CPU nodes scale by `cpu_scale`; placement-crossing
    /// hops pay `l_migration`.
    fn set_placement(&mut self, placement: Vec<Placement>) {
        self.program.view.placement = placement;
        self.program.compiled = None;
    }

    /// Flushes the runtime state of one flow cache (invalidation).
    fn flush_cache(&mut self, node: NodeId) {
        if let Some(Some(c)) = self.walk.caches.get_mut(node.index()) {
            c.lru.clear();
        }
    }

    /// Number of live entries in a flow cache's runtime state.
    pub fn cache_len(&self, node: NodeId) -> usize {
        self.walk
            .caches
            .get(node.index())
            .and_then(|c| c.as_ref())
            .map_or(0, |c| c.lru.len())
    }

    /// Takes the collected (sampled) profile, resetting counters. Cache
    /// hit/miss statistics are merged in (they are maintained unsampled).
    pub fn take_profile(&mut self) -> RuntimeProfile {
        let mut p = self.take_counters();
        distinct::count_into(&mut self.walk.distinct, &mut p);
        p
    }

    /// Like [`Executor::take_profile`], but unions this window's
    /// distinct-key observers into `union` (dense by node index) instead
    /// of counting them into the profile. A sharded NIC counts the union
    /// across workers — summing per-shard counts would double-count keys
    /// that several shards' flows share.
    pub(crate) fn take_profile_into(&mut self, union: &mut Vec<KeyObserver>) -> RuntimeProfile {
        if union.len() < self.walk.distinct.len() {
            union.resize_with(self.walk.distinct.len(), KeyObserver::default);
        }
        for (all, keys) in union.iter_mut().zip(&mut self.walk.distinct) {
            all.absorb(keys);
            keys.clear();
        }
        self.take_counters()
    }

    /// The window's counters and cache statistics, reset for the next.
    /// The live profile is copied out and cleared rather than moved, so
    /// its maps keep their capacity and the next window's first sampled
    /// packets do not regrow them. The per-flow packet counts restart
    /// too, so they hold one window's flows, not every flow ever seen.
    fn take_counters(&mut self) -> RuntimeProfile {
        let walk = &mut self.walk;
        let mut p = walk.profile.clone();
        walk.profile.clear();
        walk.flow_seq.clear();
        if walk.instrumented && walk.sample_every > 1 {
            p.scale_counts(walk.sample_every);
        }
        p.window_s = (self.now_s - walk.last_profile_take_s).max(1e-9);
        walk.last_profile_take_s = self.now_s;
        for (idx, state) in walk.caches.iter_mut().enumerate() {
            let Some(c) = state else { continue };
            p.cache_stats
                .insert(NodeId(idx as u32), std::mem::take(&mut c.stats));
        }
        p
    }

    /// Takes the latency histograms recorded for sampled packets since
    /// the last call, resetting them. Which packets are sampled follows
    /// the [`SampleKeying`]: a sharded NIC's shards key per flow
    /// ([`SampleKeying::FlowKeyed`]), so their merged observations are the
    /// same at any worker count and equal a single NIC's under the same
    /// keying, not under the default global sequence.
    pub fn take_observations(&mut self) -> ExecObservations {
        std::mem::take(&mut self.walk.observed)
    }

    /// Resets every match engine and gives each flow cache without
    /// runtime state a cold one.
    fn rebuild_all(&mut self) {
        self.walk.walks.invalidate(&self.program.view.graph);
        // (`rebuild_engine` grows both to the graph's id bound.)
        self.program.view.engines.clear();
        let ids: Vec<NodeId> = self.program.view.graph.iter_nodes().map(|n| n.id).collect();
        for id in ids {
            self.rebuild_engine(id);
        }
    }

    fn rebuild_engine(&mut self, id: NodeId) {
        let (program, caches) = (&mut self.program, &mut self.walk.caches);
        if program.view.engines.len() < program.view.graph.id_bound() {
            program
                .view
                .engines
                .resize_with(program.view.graph.id_bound(), OnceCell::new);
        }
        if caches.len() < program.view.graph.id_bound() {
            caches.resize_with(program.view.graph.id_bound(), || None);
        }
        let Some(n) = program.view.graph.node(id) else {
            return;
        };
        if let Some(t) = n.as_table() {
            program.view.engines[id.index()] = OnceCell::new();
            if t.cache_role == CacheRole::FlowCache && caches[id.index()].is_none() {
                caches[id.index()] = Some(FlowCacheState {
                    lru: LruCache::new(t.max_entries.unwrap_or(CACHE_CAPACITY)),
                    limiter: RateLimiter::new(CACHE_INSERTION_RATE, CACHE_INSERTION_RATE / 100.0),
                    stats: CacheStats::default(),
                });
            }
        }
    }

    /// The engine this executor was built with.
    pub(crate) fn mode(&self) -> EngineMode {
        self.program.mode
    }

    /// `(full pipeline compiles, single-node recompiles)` performed so
    /// far — lets tests assert that entry churn patches the compiled
    /// program in place instead of recompiling from scratch.
    pub fn compile_stats(&self) -> (u64, u64) {
        (self.program.full_compiles, self.program.table_recompiles)
    }

    /// Patches one node of the compiled pipeline after an entry op,
    /// falling back to full invalidation only if the node has no slot.
    ///
    /// If the entry op touches a *specialized* table (one with a hot-key
    /// guard), the whole pipeline de-specializes to the verbatim
    /// lowering instead: the baked outcome may no longer describe the
    /// table, and a stale guard is exactly the divergence specialization
    /// promises never to introduce. The next specialize step re-plans
    /// from fresh profile state.
    fn recompile_table(&mut self, id: NodeId) {
        let program = &mut self.program;
        let strip = program
            .compiled
            .as_ref()
            .is_some_and(|cp| cp.spec_fingerprint != 0 && cp.node_is_specialized(id));
        if strip {
            program.relower();
            self.walk.spec.despecializations += 1;
            self.walk.spec.generation += 1;
            return;
        }
        if let Some(cp) = program.compiled.as_mut() {
            if cp.recompile_node(&program.view, id) {
                program.table_recompiles += 1;
            } else {
                program.compiled = None;
            }
        }
    }

    /// Plans a specialization from `base` (a retained window's hot-key
    /// sketches, possibly merged across shards) plus this executor's own
    /// live window, and applies the plan. [`Applied::Unchanged`] under
    /// the interpreter (which needs no specializing — it *is* the
    /// oracle), for a plan that guards no table, or when the identical
    /// plan is already applied.
    pub(crate) fn specialize_from(&mut self, base: &HashMap<NodeId, HotKeySketch>) -> Applied {
        // Right after a window boundary nothing has accumulated, and the
        // retained sketches are read where they lie.
        let mut sketches = Cow::Borrowed(base);
        self.peek_hot_sketches_into(&mut sketches);
        let plan = specialize::build_plan(self.graph(), &sketches);
        self.walk.walks.invalidate(&self.program.view.graph);
        self.specialize_with(&plan)
    }

    /// Applies a specialization plan over the verbatim lowering.
    fn specialize_with(&mut self, plan: &SpecPlan) -> Applied {
        let program = &mut self.program;
        if program.mode != EngineMode::Compiled || plan.hot_keys.is_empty() {
            return Applied::Unchanged;
        }
        let current = program.compiled().0.spec_fingerprint;
        if current == plan.fingerprint {
            return Applied::Unchanged;
        }
        if current != 0 {
            // Plans always apply over the verbatim lowering, never over
            // a previous plan's arena.
            program.compiled = None;
        }
        let cp = program.compiled().0;
        specialize::apply_plan(cp, plan);
        cp.spec_fingerprint = plan.fingerprint;
        self.walk.memo.reset();
        self.walk.spec.specializations += 1;
        self.walk.spec.generation += 1;
        Applied::Done
    }

    /// Reverts to the verbatim lowering, if the pipeline is specialized.
    fn despecialize(&mut self) -> Applied {
        if self.spec_fingerprint() == 0 {
            return Applied::Unchanged;
        }
        self.program.relower();
        self.walk.spec.despecializations += 1;
        self.walk.spec.generation += 1;
        Applied::Done
    }

    /// Current specialization counters and state.
    pub fn spec_stats(&self) -> SpecStats {
        let cp = self.program.compiled.as_ref();
        SpecStats {
            specialized_tables: cp.map_or(0, |cp| cp.specialized_tables()),
            ..self.walk.spec
        }
    }

    /// The applied plan fingerprint (`0` = verbatim lowering).
    pub(crate) fn spec_fingerprint(&self) -> u64 {
        let cp = self.program.compiled.as_ref();
        cp.map_or(0, |cp| cp.spec_fingerprint)
    }

    /// Takes the per-table hot-key sketches collected since the last
    /// call, resetting them — the sketch window rides the profile window.
    pub(crate) fn take_hot_sketches(&mut self) -> HashMap<NodeId, HotKeySketch> {
        let mut out = HashMap::new();
        for (idx, sk) in self.walk.hot_sketch.iter_mut().enumerate() {
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
    /// the traffic since the last boundary. `out` stays borrowed when
    /// there are none.
    pub(crate) fn peek_hot_sketches_into(&self, out: &mut Cow<'_, HashMap<NodeId, HotKeySketch>>) {
        for (idx, sk) in self.walk.hot_sketch.iter().enumerate() {
            if let Some(sk) = sk {
                if sk.samples > 0 {
                    out.to_mut()
                        .entry(NodeId(idx as u32))
                        .and_modify(|e| e.merge(sk))
                        .or_insert_with(|| sk.clone());
                }
            }
        }
    }

    /// Processes one packet.
    pub fn process(&mut self, packet: &mut Packet) -> ExecReport {
        self.run(packet, None)
    }

    /// Processes one packet and records the visited nodes / executed
    /// actions into `trace`.
    pub(crate) fn process_traced(
        &mut self,
        packet: &mut Packet,
        trace: &mut PacketTrace,
    ) -> ExecReport {
        trace.clear();
        self.run(packet, Some(trace))
    }

    /// Processes a batch of packets through the look-ahead burst loop
    /// (`run_burst`). Reports are returned in input order and are
    /// identical to processing each packet with [`Executor::process`].
    pub fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        let mut out = Vec::with_capacity(packets.len());
        run_burst(self, packets, |ex, p| out.push(ex.process(p)));
        out
    }

    /// The look-ahead stage: hints the walk-cache record `packet` would
    /// be answered from, if its tag is there, and the table slots it
    /// will probe if walked (nothing under the interpreter, or for a
    /// program whose tables are all cache-sized). See
    /// [`CompiledPipeline::prefetch_lookups`].
    #[inline]
    fn hint_lookups(&self, packet: &Packet) {
        if let (EngineMode::Compiled, Some(cp)) = (self.program.mode, &self.program.compiled) {
            if !self.walk.instrumented {
                self.walk.walks.prefetch(packet);
            }
            cp.prefetch_lookups(packet);
        }
    }

    /// The tables on the compiled program's look-ahead list.
    #[cfg(test)]
    pub(crate) fn lookahead_tables(&mut self) -> Vec<NodeId> {
        self.program.compiled().0.lookahead_tables()
    }

    /// Slots the walk's lookup memo holds.
    #[cfg(test)]
    pub(crate) fn memo_slots(&self) -> usize {
        self.walk.memo.allocated_slots()
    }

    /// Bytes the walk cache holds.
    #[cfg(test)]
    pub(crate) fn walk_cache_bytes(&self) -> usize {
        self.walk.walks.allocated_bytes()
    }

    /// One packet through [`Walk::run`], over the provider the engine
    /// mode selects. The program and the walk state are disjoint fields,
    /// so the walk borrows the program in place. A compiled walk nothing
    /// watches (no instrumentation, no trace) goes through the walk
    /// cache: a repeated header is answered from its record, which
    /// advances the packet sequence as the walk would.
    #[inline]
    fn run(&mut self, packet: &mut Packet, trace: Option<&mut PacketTrace>) -> ExecReport {
        let (walk, now_s) = (&mut self.walk, self.now_s);
        match self.program.mode {
            EngineMode::Interpreter => {
                let view = &self.program.view;
                walk.run(view, &view.params, now_s, packet, trace)
            }
            EngineMode::Compiled => {
                let (cp, params) = self.program.compiled();
                let mut admitted = None;
                if trace.is_none() && !walk.instrumented {
                    match walk.walks.lookup(packet) {
                        Ok(report) => {
                            walk.packet_seq += 1;
                            return report;
                        }
                        Err(at) => admitted = at,
                    }
                }
                let report = walk.run(&*cp, params, now_s, packet, trace);
                if let Some(at) = admitted {
                    walk.walks.fill(at, packet, &report);
                }
                report
            }
        }
    }
}

/// The look-ahead burst loop, shared by every entry point that runs
/// packets a burst at a time ([`Executor::process_batch`], the single
/// NIC's `measure_feed`, the shard drain loop).
/// Hints the table slots the packet of item `i + AHEAD` will probe — the
/// first `AHEAD` up front — and, twice as far ahead, that packet's own
/// slot storage, which the table hint reads key fields out of; then
/// hands item `i` and the executor to `each`, which may set the clock,
/// adopt a generation, run the packet and fold its report. Hints change
/// no state, so results are the same with them or (no table big enough,
/// the interpreter) without; the program is asked for its look-ahead
/// list per item because `each` may have replaced it.
pub(crate) fn run_burst<T: Borrow<Packet>>(
    exec: &mut Executor,
    items: &mut [T],
    mut each: impl FnMut(&mut Executor, &mut T),
) {
    for item in items.iter().take(prefetch::AHEAD) {
        exec.hint_lookups(item.borrow());
    }
    for i in 0..items.len() {
        if let Some(far) = items.get(i + 2 * prefetch::AHEAD) {
            far.borrow().prefetch();
        }
        if let Some(near) = items.get(i + prefetch::AHEAD) {
            exec.hint_lookups(near.borrow());
        }
        each(exec, &mut items[i]);
    }
}

impl Walk {
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
    /// or not: the table's observer samples keys by hash, not packets,
    /// and its count (exact up to 65,536 keys a window, estimated from a
    /// hash sample above) feeds the optimizer's cross-product estimate.
    /// It models control-plane analytics, not a P4 counter, so it adds
    /// no data-path latency.
    #[inline]
    fn note_distinct(&mut self, id: NodeId) {
        if self.scratch.values.is_empty() {
            return;
        }
        if self.distinct.len() <= id.index() {
            self.distinct
                .resize_with(id.index() + 1, KeyObserver::default);
        }
        self.distinct[id.index()].note(&self.scratch.values);
    }

    /// Walks one packet through `prog` to completion. Every latency
    /// term, counter, sampled observation, trace event and cache install
    /// of both engine modes is accounted here, in this order; a provider
    /// contributes only what a node is and what its lookup resolves to.
    fn run<P: Provider>(
        &mut self,
        prog: &P,
        params: &CostParams,
        now_s: f64,
        packet: &mut Packet,
        mut trace: Option<&mut PacketTrace>,
    ) -> ExecReport {
        let sampled = self.sample_decision(packet);
        if sampled {
            self.profile.total_packets += 1;
        }
        let mut report = ExecReport {
            latency_ns: params.l_base,
            dropped: false,
            migrations: 0,
            probes: 0,
            counter_updates: 0,
        };
        let mut pending: Vec<PendingInsert<P::Handle>> = Vec::new();
        let mut cur = prog.root();
        let mut prev_place: Option<Placement> = None;

        while let Some(node) = prog.visit(cur) {
            // Finalize any cache miss whose covered segment ends here
            // (cheap emptiness gate: the common case carries no pendings).
            if !pending.is_empty() {
                self.finalize_pending(&mut pending, Some(cur), now_s, params, &mut report);
            }
            if prev_place.is_some_and(|p| p != node.place) {
                report.latency_ns += params.l_migration;
                report.migrations += 1;
            }
            prev_place = Some(node.place);
            let scale = node.scale;
            // What a sampled packet's counter update costs on this node.
            let count_ns = params.l_counter * scale;
            if let Some(t) = trace.as_deref_mut() {
                t.push(now_s, EventKind::Visit { node: node.id.0 });
            }

            let before_ns = report.latency_ns;
            match prog.step(node.node) {
                Step::Branch {
                    condition,
                    comparisons,
                    on_true,
                    on_false,
                } => {
                    let taken = condition.eval(packet.slots());
                    report.latency_ns += params.l_branch * comparisons * scale;
                    let (edge, target) = if taken { (0, on_true) } else { (1, on_false) };
                    if sampled {
                        self.profile.record_edge(EdgeRef::new(node.id, edge), 1);
                        report.counter_updates += 1;
                        report.latency_ns += count_ns;
                    } else if self.instrumented {
                        report.latency_ns += params.l_counter * SAMPLE_CHECK_FRACTION * scale;
                    }
                    cur = target;
                    continue;
                }
                Step::Table(table) => {
                    let outcome = prog.lookup(
                        table,
                        packet,
                        &mut self.scratch,
                        &mut self.spec,
                        &mut self.memo,
                    );
                    report.probes += outcome.probes;
                    for charge in prog.charges(table, &outcome, params, scale) {
                        report.latency_ns += charge;
                    }
                    if self.instrumented {
                        // The lookup composed the key into the scratch buffer.
                        self.note_distinct(node.id);
                    }
                    apply_primitives(packet, prog.action(table, outcome.action));
                    for p in pending.iter_mut() {
                        p.recorded.push((node.id, outcome.action));
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.action(now_s, node.id, outcome.action);
                    }
                    if sampled {
                        self.note_hot_key(node.id);
                        let action = outcome.action;
                        count_action(&mut self.profile, &mut report, node.id, action, count_ns);
                    } else if self.instrumented {
                        report.latency_ns += params.l_counter * SAMPLE_CHECK_FRACTION * scale;
                    }
                    cur = prog.next(table, outcome.action);
                }
                Step::FlowCache {
                    table,
                    default_action,
                } => {
                    prog.cache_key(table, packet, &mut self.scratch);
                    // One exact lookup either way.
                    report.probes += 1;
                    report.latency_ns += params.l_mat * scale;
                    let hit = prog.next(table, 0);
                    let Some(Some(cache)) = self.caches.get_mut(node.id.index()) else {
                        unreachable!("every flow-cache table has runtime state");
                    };
                    // A hit is replayed where it lies in the cache: it
                    // only needs walk state disjoint from `caches`.
                    let result = cache.lru.get(self.scratch.values.as_slice());
                    if sampled {
                        let own = if result.is_some() { 0 } else { default_action };
                        count_action(&mut self.profile, &mut report, node.id, own, count_ns);
                    }
                    if let Some(result) = result {
                        cache.stats.hits += 1;
                        // Outer pending recordings (a cache covering this
                        // cache's region) observe the replayed actions too.
                        for p in pending.iter_mut() {
                            p.recorded.extend(result.iter().copied());
                        }
                        for &(nid, aidx) in result.iter() {
                            let prims = prog.replayed(nid, aidx);
                            report.latency_ns += prims.len() as f64 * params.l_act * scale;
                            apply_primitives(packet, prims);
                            if let Some(t) = trace.as_deref_mut() {
                                t.action(now_s, nid, aidx);
                            }
                            if sampled {
                                count_action(&mut self.profile, &mut report, nid, aidx, count_ns);
                            }
                        }
                        cur = hit;
                    } else {
                        cache.stats.misses += 1;
                        pending.push(PendingInsert {
                            cache: node.id,
                            key: SmallKey::from_slice(&self.scratch.values),
                            exit: hit,
                            recorded: Vec::new(),
                        });
                        cur = prog.next(table, default_action);
                    }
                }
            }
            if sampled {
                // Host-side histogram bookkeeping: the modeled counter
                // cost is already charged above, so this adds no
                // simulated latency.
                self.observed
                    .record_table(node.id, report.latency_ns - before_ns);
            }
            if packet.dropped {
                report.dropped = true;
                break;
            }
        }
        // Segment results that run to the sink or were cut short by a
        // drop still finalize; a drop anywhere finalizes all pendings
        // (the cached result replays the drop).
        if !pending.is_empty() {
            self.finalize_pending(&mut pending, Some(cur), now_s, params, &mut report);
            if packet.dropped {
                self.finalize_pending(&mut pending, None, now_s, params, &mut report);
            }
        }
        if sampled {
            self.observed.record_packet(report.latency_ns);
        }
        report
    }

    /// Installs the pending results whose covered segment ends at `at`
    /// (every one of them for `None`), in the order their misses
    /// happened, where the cache's insertion rate limiter lets it.
    fn finalize_pending<H: PartialEq>(
        &mut self,
        pending: &mut Vec<PendingInsert<H>>,
        at: Option<H>,
        now_s: f64,
        params: &CostParams,
        report: &mut ExecReport,
    ) {
        let mut i = 0;
        while i < pending.len() {
            if at.as_ref().is_some_and(|at| pending[i].exit != *at) {
                i += 1;
                continue;
            }
            let p = pending.remove(i);
            if let Some(Some(c)) = self.caches.get_mut(p.cache.index()) {
                if c.limiter.allow(now_s) {
                    c.lru.insert(p.key, p.recorded);
                    c.stats.insertions += 1;
                    report.latency_ns += params.l_cache_insert;
                }
            }
        }
    }
}

/// Whether flow cache `a` of `old` and flow cache `b` of `new` cover the
/// same segment, so that what `a` cached for a key is what `b`'s miss
/// path computes for it. The two need the same key fields and capacity.
/// Their regions, every node reachable from the miss hop before the hit
/// exit, are walked in lockstep by node id: each pair is one id with an
/// equal table (keys, actions, default action, entries, role) or branch
/// condition and equal next hops. A hop to the hit exit counts as one
/// sentinel on either side, so a segment whose downstream moved still
/// matches. A covered set in another order does not.
fn same_segment(old: &ProgramGraph, a: NodeId, new: &ProgramGraph, b: NodeId) -> bool {
    let (Some(an), Some(bn)) = (old.node(a), new.node(b)) else {
        return false;
    };
    let (NodeKind::Table(at), NodeKind::Table(bt)) = (&an.kind, &bn.kind) else {
        return false;
    };
    let (NextHops::ByAction(ah), NextHops::ByAction(bh)) = (&an.next, &bn.next) else {
        return false;
    };
    if at.keys != bt.keys || at.max_entries != bt.max_entries {
        return false;
    }
    // A hop as the region sees it: `None` for the hit exit.
    let (a_exit, b_exit) = (ah[0], bh[0]);
    let hop = |to: Option<NodeId>, exit: Option<NodeId>| (to != exit).then_some(to);
    let mut seen = vec![false; new.id_bound()];
    let mut pairs = vec![(ah[at.default_action], bh[bt.default_action])];
    while let Some((x, y)) = pairs.pop() {
        let x = hop(x, a_exit);
        if x != hop(y, b_exit) {
            return false;
        }
        // The hit exit, or the sink, on both sides.
        let Some(Some(id)) = x else { continue };
        let (Some(xn), Some(yn)) = (old.node(id), new.node(id)) else {
            return false;
        };
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        if xn.kind != yn.kind
            || std::mem::discriminant(&xn.next) != std::mem::discriminant(&yn.next)
        {
            return false;
        }
        let (xt, yt) = (xn.next.targets(), yn.next.targets());
        if xt.len() != yt.len() {
            return false;
        }
        pairs.extend(xt.into_iter().zip(yt));
    }
    true
}

/// A sampled packet's counter update for `action` of `table`: the
/// profile count and what the update costs on this node.
#[inline]
fn count_action(
    profile: &mut RuntimeProfile,
    report: &mut ExecReport,
    table: NodeId,
    action: usize,
    cost_ns: f64,
) {
    profile.record_action(table, action, 1);
    report.counter_updates += 1;
    report.latency_ns += cost_ns;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::{BatchStats, SmartNic};
    use crate::sharded::ShardedNic;
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        assert_eq!(ex.spec_fingerprint(), 0, "verbatim lowering sentinel");
        let plan = SpecPlan {
            hot_keys: vec![(acl, SmallKey::from_slice(&[1]))],
            fingerprint: 0xABCD,
        };
        assert_eq!(ex.specialize_with(&plan), Applied::Done);
        assert_eq!(ex.spec_stats().generation, 1, "first spec epoch");
        assert_eq!(ex.spec_fingerprint(), 0xABCD);
        // Re-applying the same plan is a no-op (dedup by fingerprint).
        assert_eq!(ex.specialize_with(&plan), Applied::Unchanged);
        // Guard hit on the baked key stays bit-exact with the oracle.
        let mut p = Packet::with_slots(vec![1, 0]);
        let r = ex.process(&mut p);
        assert!(!r.dropped);
        assert!((r.latency_ns - 22.0).abs() < 1e-9, "got {}", r.latency_ns);
        assert!(ex.spec_stats().guard_hits > 0);
        assert_eq!(ex.despecialize(), Applied::Done);
        assert_eq!(ex.spec_stats().generation, 2, "second spec epoch");
        assert_eq!(ex.spec_fingerprint(), 0, "despecialize restores verbatim");
    }

    #[test]
    fn executes_actions_and_accounts_latency() {
        let (g, _, _) = simple_program();
        let y = g.fields.get("y").unwrap();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        assert_eq!(ex.take_profile().action_count(acl, 0), 0);
    }

    #[test]
    fn sampling_reduces_overhead_and_scales_counts() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        ex.set_instrumentation(true, 4);
        for i in 0..100 {
            let mut p = Packet::with_slots(vec![100 + i, 0]);
            ex.process(&mut p);
        }
        let prof = ex.take_profile();
        // 25 sampled packets, scaled by 4 back to 100.
        assert_eq!(prof.action_count(acl, 0), 100);
    }

    /// Flow-keyed sampling counts packets per flow for one window only: a
    /// million distinct flows over eight windows never leave more than
    /// one window's flows in the map, and the map keeps its capacity.
    #[test]
    fn flow_sequence_counts_hold_one_window_of_flows() {
        const WINDOWS: u64 = 8;
        const FLOWS: usize = 125_000;
        let (g, _, _) = simple_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        ex.set_sample_keying(SampleKeying::FlowKeyed);
        ex.set_instrumentation(true, 64);
        let mut flow = 0u64;
        for w in 0..WINDOWS {
            for _ in 0..FLOWS {
                flow += 1;
                ex.process(&mut Packet::with_slots(vec![flow, 0]));
            }
            let held = ex.walk.flow_seq.len();
            assert!(
                (FLOWS * 99 / 100..=FLOWS).contains(&held),
                "window {w}: {held}"
            );
            let capacity = ex.walk.flow_seq.capacity();
            ex.take_profile();
            assert!(ex.walk.flow_seq.is_empty(), "window {w}");
            assert_eq!(ex.walk.flow_seq.capacity(), capacity, "window {w}");
        }
    }

    #[test]
    fn observations_record_sampled_packets_only() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        // Uninstrumented: no histogram work at all.
        for i in 0..10 {
            ex.process(&mut Packet::with_slots(vec![100 + i, 0]));
        }
        assert!(ex.take_observations().is_empty());
        ex.set_instrumentation(true, 4);
        for i in 0..100 {
            ex.process(&mut Packet::with_slots(vec![100 + i, 0]));
        }
        let obs = ex.take_observations();
        assert_eq!(obs.packet_latency.count(), 25, "1-in-4 sampling");
        assert_eq!(obs.per_table[&acl].count(), 25);
        assert!(ex.take_observations().is_empty(), "take must reset");
    }

    #[test]
    fn entry_api_rebuilds_engine() {
        let (g, acl, _) = simple_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        let mut p = Packet::with_slots(vec![99, 0]);
        assert!(!ex.process(&mut p.clone()).dropped);
        let entry = TableEntry::new(vec![MatchValue::Exact(99)], 1);
        ex.apply(&ControlOp::InsertEntry {
            node: acl,
            entry: entry.clone(),
        })
        .unwrap();
        assert!(ex.process(&mut p).dropped);
        let removed = ex.apply(&ControlOp::RemoveEntry {
            node: acl,
            index: 1,
        });
        assert_eq!(removed, Ok(Applied::Removed(entry)));
        let mut p = Packet::with_slots(vec![99, 0]);
        assert!(!ex.process(&mut p).dropped);
    }

    #[test]
    fn placement_charges_migration_and_scales() {
        let (g, acl, rw) = simple_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        let mut p = Packet::with_slots(vec![3, 0]);
        ex.process(&mut p.clone());
        assert_eq!(ex.cache_len(cache), 1);
        ex.flush_cache(cache);
        assert_eq!(ex.cache_len(cache), 0);
        let r = ex.process(&mut p);
        assert!(r.latency_ns > 12.0, "must take the miss path again");
    }

    /// Misses faster than `CACHE_INSERTION_RATE` spend the limiter's
    /// burst and are then refused; the clock's advance refills it.
    #[test]
    fn insertion_rate_limit_drops_insertions() {
        let (g, cache, _) = cached_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        let burst = (CACHE_INSERTION_RATE / 100.0) as u64;
        // The clock stands still: every miss arrives at once.
        for i in 0..burst + 10 {
            ex.process(&mut Packet::with_slots(vec![i, 0]));
        }
        let prof = ex.take_profile();
        assert_eq!(prof.cache_stats[&cache].misses, burst + 10);
        assert_eq!(prof.cache_stats[&cache].insertions, burst);
        ex.now_s = 1.0 / CACHE_INSERTION_RATE;
        for i in 0..2 {
            ex.process(&mut Packet::with_slots(vec![burst + 10 + i, 0]));
        }
        assert_eq!(ex.take_profile().cache_stats[&cache].insertions, 1);
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

    /// The entry points that run packets a burst at a time, all of them
    /// through [`run_burst`].
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        ProcessBatch,
        Measure,
        ShardedMeasure,
    }

    const ENTRIES: [Entry; 3] = [Entry::ProcessBatch, Entry::Measure, Entry::ShardedMeasure];

    /// What a burst through an entry point shows of itself.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Reports(Vec<Packet>, Vec<ExecReport>),
        Stats(BatchStats),
    }

    impl Seen {
        /// The burst's mean latency (0.0 for an empty one), as bits.
        fn mean_bits(&self) -> u64 {
            let mean = match self {
                Seen::Reports(_, reports) if reports.is_empty() => 0.0,
                Seen::Reports(_, reports) => {
                    let sum = reports.iter().fold(0.0, |sum, r| sum + r.latency_ns);
                    sum / reports.len() as f64
                }
                Seen::Stats(stats) => stats.mean_latency_ns,
            };
            mean.to_bits()
        }
    }

    /// A NIC on `g` that bursts are pushed through by one entry point.
    enum Runner {
        Single(Box<SmartNic>),
        Sharded(Box<ShardedNic>),
    }

    impl Runner {
        fn new(entry: Entry, g: &pipeleon_ir::ProgramGraph, mode: EngineMode) -> Self {
            if let Entry::ShardedMeasure = entry {
                let nic = ShardedNic::with_engine(g.clone(), params(), 1, mode).unwrap();
                Runner::Sharded(Box::new(nic))
            } else {
                let nic = SmartNic::with_engine(g.clone(), params(), mode).unwrap();
                Runner::Single(Box::new(nic))
            }
        }

        fn run(&mut self, entry: Entry, burst: &[Packet]) -> Seen {
            match (self, entry) {
                (Runner::Sharded(nic), _) => Seen::Stats(nic.measure(burst.to_vec())),
                (Runner::Single(nic), Entry::ProcessBatch) => {
                    let mut packets = burst.to_vec();
                    let reports = nic.process_batch(&mut packets);
                    Seen::Reports(packets, reports)
                }
                (Runner::Single(nic), _) => Seen::Stats(nic.measure(burst.to_vec())),
            }
        }
    }

    /// A burst through `entry` (with whatever look-ahead the program
    /// earns) ≡ the same burst through it under the interpreter, which
    /// takes no hints, over burst lengths around the look-ahead
    /// distance; for `process_batch`, which shows them, packets and
    /// reports are also bit-equal to per-packet `process`. Returns each
    /// burst's mean latency bits.
    fn assert_lookahead_inert(g: &pipeleon_ir::ProgramGraph, ctx: &str, entry: Entry) -> Vec<u64> {
        let mut hinted = Runner::new(entry, g, EngineMode::Compiled);
        let mut oracle = Runner::new(entry, g, EngineMode::Interpreter);
        let mut single = Executor::new(g.clone(), params(), EngineMode::Compiled).unwrap();
        let k = prefetch::AHEAD;
        let traffic = big_traffic(3000);
        let mut at = 0;
        let mut means = Vec::new();
        for len in [0, 1, k - 1, k, k + 1, 255, 256, 1000] {
            let burst = &traffic[at..at + len];
            at += len;
            let got = hinted.run(entry, burst);
            let want = oracle.run(entry, burst);
            let ctx = format!("{ctx}: {entry:?} burst {len}");
            assert_eq!(got, want, "{ctx}: vs the interpreter");
            assert_eq!(got.mean_bits(), want.mean_bits(), "{ctx}: mean bits");
            means.push(got.mean_bits());
            let Seen::Reports(got, got_reports) = got else {
                continue;
            };
            assert_eq!(got_reports.len(), len, "{ctx}");
            for (i, p) in burst.iter().enumerate() {
                let mut want = p.clone();
                let r = single.process(&mut want);
                assert_eq!(got[i], want, "{ctx}: packet {i} vs process");
                assert_eq!(got_reports[i], r, "{ctx}: report {i} vs process");
                assert_eq!(
                    got_reports[i].latency_ns.to_bits(),
                    r.latency_ns.to_bits(),
                    "{ctx}: latency bits {i} vs process"
                );
            }
        }
        means
    }

    #[test]
    fn lookahead_lists_big_stable_key_tables_and_is_inert() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let mark = |v| vec![Primitive::set(out, v)];
        let t1 = big_exact(&mut b, "t1", x, BIG, [("a", mark(1)), ("b", mark(2))]);
        let t2 = big_exact(&mut b, "t2", y, BIG, [("a", mark(3)), ("b", mark(4))]);
        let g = b.seal(t1).unwrap();
        let mut ex = Executor::new(g.clone(), params(), EngineMode::Compiled).unwrap();
        assert_eq!(ex.lookahead_tables(), vec![t1, t2]);
        // No clock-driven state in this program: every entry point sees
        // the same packets do the same thing.
        let means = ENTRIES.map(|entry| assert_lookahead_inert(&g, "stable keys", entry));
        for (entry, through) in ENTRIES.iter().zip(&means) {
            assert_eq!(through, &means[0], "{entry:?} vs {:?}", ENTRIES[0]);
        }
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
        let mut ex = Executor::new(g.clone(), params(), EngineMode::Compiled).unwrap();
        assert_eq!(
            ex.lookahead_tables(),
            vec![t1],
            "t2's key is written upstream"
        );
        for entry in ENTRIES {
            assert_lookahead_inert(&g, "written key", entry);
        }
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
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
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
        let mut ex = Executor::new(g.clone(), params(), EngineMode::Compiled).unwrap();
        assert_eq!(ex.lookahead_tables(), vec![big], "never the cache switch");
        for entry in ENTRIES {
            assert_lookahead_inert(&g, "flow cache", entry);
        }
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
        let mut ex = Executor::new(g.clone(), params(), EngineMode::Compiled).unwrap();
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
        for entry in ENTRIES {
            assert_lookahead_inert(&g, "mid-pipeline drops", entry);
        }
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
            let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
            assert!(ex.lookahead_tables().is_empty(), "{name}");
        }
    }

    // ------------------------------------------------------------------
    // The walk cache: a hit must be the walk to the bit, and the cache
    // must stand aside whenever something watches the walk.
    // ------------------------------------------------------------------

    /// The key value every guarded-chain table is guarded on.
    const HOT: u64 = 7;

    /// `acl(x) → nat(y) → mark(z) → fwd(x)`, each resolving [`HOT`] to an
    /// action with real packet effects; `nat`'s rule is ternary beside a
    /// second mask pattern, so its outcome carries two probes.
    fn guarded_chain() -> (pipeleon_ir::ProgramGraph, Vec<NodeId>) {
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
        }
    }

    /// The four executors a walk-cache hit is judged against, in one
    /// place: `cached` answers repeated headers from its walk cache;
    /// `walk` is the same specialized pipeline driven under a trace,
    /// which the cache never serves, so it *is* the per-table walk;
    /// `plain` and `interp` are the oracles.
    struct Quad {
        cached: Executor,
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
                let mut ex = Executor::new(g.clone(), params.clone(), mode).unwrap();
                ex.set_placement(placement.to_vec());
                if specialize {
                    assert_eq!(ex.specialize_with(plan), Applied::Done);
                }
                ex
            };
            Self {
                cached: mk(true, EngineMode::Compiled),
                walk: mk(true, EngineMode::Compiled),
                plain: mk(false, EngineMode::Compiled),
                interp: mk(false, EngineMode::Interpreter),
            }
        }

        fn all(&mut self) -> [&mut Executor; 4] {
            [
                &mut self.cached,
                &mut self.walk,
                &mut self.plain,
                &mut self.interp,
            ]
        }

        /// Runs `p` through all four and requires every report field and
        /// the whole packet to agree to the bit. Returns the report.
        fn agree_on(&mut self, p: &Packet, ctx: &str) -> ExecReport {
            let mut got = p.clone();
            let r = self.cached.process(&mut got);
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

        /// The guard counters of the walks the cache did not answer must
        /// be the traced walk's — for the memo fixtures, whose packets
        /// never repeat a header.
        fn assert_guard_counts_match(&self) -> SpecStats {
            let (f, w) = (self.cached.spec_stats(), self.walk.spec_stats());
            assert_eq!(
                (f.guard_hits, f.guard_misses),
                (w.guard_hits, w.guard_misses)
            );
            f
        }
    }

    /// Three sightings of every packet: a tag, a recorded walk, a hit.
    fn thrice(q: &mut Quad, slots: &[u64], ctx: &str) -> ExecReport {
        let p = Packet::with_slots(slots.to_vec());
        let first = q.agree_on(&p, &format!("{ctx}, first"));
        assert!(!q.cached.walk.walks.holds(&p), "{ctx}: seen once");
        assert_eq!(q.agree_on(&p, &format!("{ctx}, second")), first);
        assert!(q.cached.walk.walks.holds(&p), "{ctx}: recorded");
        assert_eq!(q.agree_on(&p, &format!("{ctx}, hit")), first);
        first
    }

    /// All-hit, all-miss and every partial hit of the guards, over
    /// ASIC/CPU placements that put migrations in the walk, on real
    /// (non-dyadic) cost parameters, and at `l_base` = 1e16, where one
    /// ulp is 2.0 and every term rounds away: what a hit returns is the
    /// walk's report, not a sum made again. The packet sequence
    /// advances on every hit, as on the walk.
    #[test]
    fn walk_cache_hits_are_the_walk_to_the_bit() {
        let (g, ids) = guarded_chain();
        let mut placement = vec![Placement::Asic; g.id_bound()];
        placement[ids[1].index()] = Placement::Cpu;
        placement[ids[2].index()] = Placement::Cpu;
        let mut huge = CostParams::bluefield2();
        huge.l_base = 1e16;
        huge.l_mat = 0.4;
        huge.l_migration = 0.9;
        for (name, params) in [("bluefield2", CostParams::bluefield2()), ("huge", huge)] {
            let mut q = Quad::new(&g, &params, &placement, &hot_plan(&ids));
            let r = thrice(&mut q, &[HOT, HOT, HOT, 0], name);
            assert_eq!((r.probes, r.migrations), (5, 2), "{name}");
            for slots in [
                [HOT + 1, HOT, HOT, 0],
                [HOT, HOT + 1, HOT, 0],
                [HOT, HOT, HOT + 1, 0],
                [1, 2, 3, 0],
            ] {
                thrice(&mut q, &slots, &format!("{name}: partial {slots:?}"));
            }
            for i in 0..50u64 {
                q.agree_on(&Packet::with_slots(vec![HOT, HOT, HOT, 0]), "steady");
                let noise = Packet::with_slots(vec![HOT, i % 3 + HOT, HOT, i % 4]);
                q.agree_on(&noise, "mixed");
            }
            assert_eq!(q.cached.walk.packet_seq, q.interp.walk.packet_seq);
        }
        // A walk ending in a drop replays the drop; one whose first
        // table moves the key the next reads is cached by the header it
        // arrived with.
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
        let t0 = table(&mut b, "t0", x, vec![Primitive::set(y, HOT)]);
        let deny = vec![Primitive::Drop, Primitive::set(out, 2)];
        let t1 = table(&mut b, "deny", y, deny);
        let t2 = table(&mut b, "after", x, vec![Primitive::set(out, 3)]);
        let g = b.seal(t0).unwrap();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&[t0, t1, t2]));
        let r = thrice(&mut q, &[HOT, 0, 0], "written key, then a drop");
        assert!(r.dropped);
        thrice(&mut q, &[1, HOT, 0], "a drop without the write");
        thrice(&mut q, &[1, 2, 0], "passes");
    }

    /// Everything the walk does for a watched packet — counters, distinct
    /// keys, sketches, histograms, trace events, flow-cache installs —
    /// is missing from a record, so no watched packet is served or
    /// recorded; nor is one the record cannot describe: already dropped
    /// or forwarded, or narrower than the program's fields.
    #[test]
    fn walk_cache_stands_aside_whenever_the_walk_is_watched() {
        let (g, ids) = guarded_chain();
        let hot = [HOT, HOT, HOT, 0];
        for sample_every in [1, 64] {
            let mut q = Quad::new(&g, &CostParams::bluefield2(), &[], &hot_plan(&ids));
            for ex in q.all() {
                ex.set_instrumentation(true, sample_every);
            }
            for i in 0..200u64 {
                q.agree_on(&Packet::with_slots(hot.to_vec()), "instrumented");
                let p = Packet::with_slots(vec![HOT, HOT + i % 3, HOT, 0]);
                q.agree_on(&p, "instrumented, mixed");
            }
            assert_eq!(q.cached.walk.walks.live(), 0, "1/{sample_every}");
            assert_eq!(q.cached.take_profile(), q.interp.take_profile());
            assert_eq!(q.cached.take_observations(), q.interp.take_observations());
            // Off again, the same executor caches.
            for ex in q.all() {
                ex.set_instrumentation(false, 1);
            }
            thrice(&mut q, &hot, "instrumentation off");
        }
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&ids));
        let (mut a, mut b) = (PacketTrace::default(), PacketTrace::default());
        let hit = Packet::with_slots(hot.to_vec());
        for pass in 0..3 {
            let ra = q.cached.process_traced(&mut hit.clone(), &mut a);
            let rb = q.interp.process_traced(&mut hit.clone(), &mut b);
            assert_eq!((ra, &a), (rb, &b), "trace, pass {pass}");
            assert_eq!(a.visited(), ids, "a traced packet visits every table");
        }
        assert_eq!(q.cached.walk.walks.live(), 0, "traced");
        let mut dropped = hit.clone();
        dropped.dropped = true;
        let mut forwarded = hit.clone();
        forwarded.egress_port = Some(9);
        let narrow = Packet::with_slots(vec![HOT, HOT, HOT]);
        for (what, p) in [
            ("pre-dropped", &dropped),
            ("egress set", &forwarded),
            ("narrow", &narrow),
        ] {
            for pass in 0..3 {
                q.agree_on(p, &format!("{what}, pass {pass}"));
            }
            assert_eq!(q.cached.walk.walks.live(), 0, "{what}");
        }
        let mut interp = Executor::new(g.clone(), params(), EngineMode::Interpreter).unwrap();
        for _ in 0..3 {
            interp.process(&mut hit.clone());
        }
        assert_eq!(interp.walk.walks.allocated_bytes(), 0, "the interpreter");
        // A program with a P4 flow cache: its walks change the cache.
        let (g, _, _) = cached_program();
        let mut ex = Executor::new(g, params(), EngineMode::Compiled).unwrap();
        for _ in 0..3 {
            ex.process(&mut Packet::with_slots(vec![16, 0]));
        }
        assert_eq!(ex.walk.walks.allocated_bytes(), 0, "a flow-cache program");
    }

    /// A header seen once leaves a tag and no record, so traffic that
    /// never repeats writes tags only; its second sighting is recorded.
    #[test]
    fn a_header_seen_once_writes_no_record() {
        let (g, ids) = guarded_chain();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&ids));
        for i in 0..5_000u64 {
            q.agree_on(&Packet::with_slots(vec![i, HOT, i / 7, 0]), "once");
        }
        assert_eq!(q.cached.walk.walks.live(), 0);
        let twice = Packet::with_slots(vec![HOT, HOT, HOT, 0]);
        for _ in 0..2 {
            q.agree_on(&twice, "twice");
        }
        assert_eq!(q.cached.walk.walks.live(), 1);
    }

    /// Two headers with one FxHash share a slot *and* a tag: only the
    /// key compare tells them apart, and neither is ever served the
    /// other's walk.
    #[test]
    fn walk_cache_never_answers_a_colliding_header() {
        // Undo the last word's step: the multiplier is odd, so it has
        // an inverse mod 2^64 (Newton's iteration doubles its bits).
        let k = crate::compiled::FX_SEED;
        let inv = (0..6).fold(k, |i: u64, _| {
            i.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(i)))
        });
        assert_eq!(k.wrapping_mul(inv), 1);
        let hash = |slots: &[u64]| slots.iter().fold(0, |h, &w| crate::walks::fx_step(h, w));
        let head = |slots: &[u64]| hash(&slots[..slots.len() - 1]);
        let (g, ids) = guarded_chain();
        let mut q = Quad::new(&g, &params(), &[], &hot_plan(&ids));
        let hot = [HOT, HOT, HOT, 0];
        // Another header with the hot one's hash: `out` is whatever
        // makes the last step land there.
        let mut mate = [HOT + 1, HOT, HOT, 0];
        mate[3] = hash(&hot).wrapping_mul(inv) ^ head(&mate).rotate_left(5);
        assert_eq!(hash(&mate), hash(&hot));
        let want_hot = thrice(&mut q, &hot, "hot");
        let want_mate = q.agree_on(&Packet::with_slots(mate.to_vec()), "mate");
        assert_ne!(want_hot, want_mate, "the two walks differ");
        // The mate found its tag there, so it took the slot.
        assert!(q
            .cached
            .walk
            .walks
            .holds(&Packet::with_slots(mate.to_vec())));
        for _ in 0..3 {
            assert_eq!(
                q.agree_on(&Packet::with_slots(hot.to_vec()), "hot"),
                want_hot
            );
            let mate = Packet::with_slots(mate.to_vec());
            assert_eq!(q.agree_on(&mate, "mate"), want_mate);
        }
    }

    /// Every control op retires every record, applied directly or
    /// adopted as a shard adopts it: the cached flow is walked again
    /// after the op (here most ops change what that walk does), and
    /// served from the cache again afterwards.
    #[test]
    fn every_control_op_retires_the_walk_cache() {
        let (g, ids) = guarded_chain();
        let (acl, nat) = (ids[0], ids[1]);
        let out = g.fields.get("out").unwrap();
        let hot = [HOT, HOT, HOT, 0];
        let any = MatchValue::Ternary {
            value: HOT,
            mask: u64::MAX,
        };
        let overrule = TableEntry::with_priority(vec![any], 1, 99);
        let mut replaced = g.node(acl).unwrap().as_table().unwrap().clone();
        replaced.actions[0].primitives = vec![Primitive::Drop];
        let mut redeployed = g.clone();
        let t = redeployed.node_mut(nat).unwrap().as_table_mut().unwrap();
        t.actions[0].primitives = vec![Primitive::add(out, 77), Primitive::Nop];
        let mut cpu = vec![Placement::Asic; g.id_bound()];
        cpu[nat.index()] = Placement::Cpu;
        let ops = [
            ControlOp::Deploy(redeployed),
            ControlOp::InsertEntry {
                node: nat,
                entry: overrule,
            },
            ControlOp::RemoveEntry {
                node: acl,
                index: 0,
            },
            ControlOp::ReplaceTable {
                node: acl,
                table: replaced,
                next: None,
            },
            ControlOp::FlushCache(acl),
            ControlOp::SetInstrumentation {
                enabled: false,
                sample_every: 8,
            },
            ControlOp::SetPlacement(cpu),
            ControlOp::Specialize,
            ControlOp::Despecialize,
        ];
        for op in &ops {
            for adopted in [false, true] {
                let ctx = format!("{op:?}, adopted: {adopted}");
                let mut q = Quad::new(&g, &params(), &[], &hot_plan(&ids));
                let before = thrice(&mut q, &hot, &ctx);
                let p = Packet::with_slots(hot.to_vec());
                for ex in q.all() {
                    if adopted {
                        ex.adopt(op, None);
                    } else {
                        let _ = ex.apply(op);
                    }
                }
                assert!(!q.cached.walk.walks.holds(&p), "{ctx}: retired");
                let after = q.agree_on(&p, &format!("{ctx}: walked again"));
                let edits = matches!(
                    op,
                    ControlOp::Deploy(_)
                        | ControlOp::InsertEntry { .. }
                        | ControlOp::RemoveEntry { .. }
                        | ControlOp::ReplaceTable { .. }
                        | ControlOp::SetPlacement(_)
                );
                if edits {
                    assert_ne!(after, before, "{ctx}: the op changes the walk");
                }
                assert!(q.cached.walk.walks.holds(&p), "{ctx}: recorded again");
                assert_eq!(q.agree_on(&p, &format!("{ctx}: served")), after);
            }
        }
    }

    /// Every scenario program and the differential suites' synthetic
    /// seed matrix, on traffic that repeats its headers, through
    /// `process_batch` and `process`: every report and packet is the
    /// interpreter's; then, with instrumentation switched on at 1 in 3
    /// on the global sequence, so that which packets are sampled hangs
    /// on the sequence the cached packets advanced, so are the profile
    /// and the observations.
    #[test]
    fn walk_cache_hits_match_the_interpreter_on_every_program() {
        use pipeleon_workloads::scenarios::{
            AclPipeline, DashRouting, L2L3Acl, LoadBalancer, NfComposition, SkewedPipeline,
        };
        use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
        use pipeleon_workloads::traffic::FlowGen;
        let mut programs = vec![
            ("acl_pipeline".to_string(), AclPipeline::build(4, 3).graph),
            ("load_balancer".into(), LoadBalancer::build().graph),
            ("dash_routing".into(), DashRouting::build().graph),
            ("l2l3_acl".into(), L2L3Acl::build().graph),
            ("nf_composition".into(), NfComposition::build().graph),
            ("skewed".into(), SkewedPipeline::build(3, 2).graph),
        ];
        // The suites' matrix draws keys from 12 fields, more than a
        // record holds, so it is walked every time; at 8 it is cached.
        let seeds = [1, 2, 3, 5, 8, 13, 21, 34u64];
        for (seed, field_pool) in seeds.iter().flat_map(|&s| [(s, 12), (s, 8)]) {
            let g = synthesize(&SynthConfig {
                pipelets: 2 + (seed % 3) as usize,
                pipelet_len: 2 + (seed % 2) as usize,
                match_mix: match seed % 2 {
                    0 => MatchMix::default_mix(),
                    _ => MatchMix::all_exact(),
                },
                drop_fraction: if seed.is_multiple_of(3) { 0.25 } else { 0.0 },
                write_fraction: 0.2,
                field_pool,
                seed,
                ..SynthConfig::default()
            });
            programs.push((format!("synth {seed}/{field_pool}"), g));
        }
        let mut served = 0;
        for (name, g) in programs {
            let mut keys: Vec<_> = g.tables().flat_map(|(_, t)| t.keys.clone()).collect();
            keys.sort_by_key(|k| k.field);
            keys.dedup_by_key(|k| k.field);
            let keys = keys.into_iter().map(|k| k.field).collect();
            // (The workloads crate speaks this crate's published `Packet`.)
            let traffic: Vec<Packet> = FlowGen::new(g.fields.len(), keys, 40, 9)
                .with_zipf(1.1)
                .batch(1_500)
                .iter()
                .map(|p| Packet::with_slots(p.slots().to_vec()))
                .collect();
            let mut cached = Executor::new(g.clone(), params(), EngineMode::Compiled).unwrap();
            let mut interp = Executor::new(g.clone(), params(), EngineMode::Interpreter).unwrap();
            for (i, chunk) in traffic.chunks(100).enumerate() {
                let (mut got, mut want) = (chunk.to_vec(), chunk.to_vec());
                let got_r = match i % 2 {
                    0 => cached.process_batch(&mut got),
                    _ => got.iter_mut().map(|p| cached.process(p)).collect(),
                };
                let want_r = interp.process_batch(&mut want);
                assert_eq!(got_r, want_r, "{name}: chunk {i} reports");
                assert_eq!(got, want, "{name}: chunk {i} packets");
            }
            assert_eq!(cached.walk.packet_seq, interp.walk.packet_seq, "{name}");
            served += usize::from(cached.walk.walks.live() > 0);
            for ex in [&mut cached, &mut interp] {
                ex.set_instrumentation(true, 3);
            }
            let (mut got, mut want) = (traffic.clone(), traffic);
            assert_eq!(
                cached.process_batch(&mut got),
                interp.process_batch(&mut want)
            );
            assert_eq!(cached.take_profile(), interp.take_profile(), "{name}");
            assert_eq!(
                cached.take_observations(),
                interp.take_observations(),
                "{name}"
            );
        }
        // Four scenario programs have at most 8 fields.
        assert_eq!(served, 4 + seeds.len(), "programs the cache served");
    }

    // ------------------------------------------------------------------
    // The lookup memo behind the guard: a memo hit must be the general
    // lookup's answer to the bit, whoever is watching, and must not
    // outlive the lowering it was filled under.
    // ------------------------------------------------------------------

    /// `acl(x) → route(y) → pin(z) → pair(x, y)`, every table guarded on
    /// [`HOT`]: a ternary table over four mask patterns whose rules cold
    /// keys do match, an LPM table over three prefix lengths (probes =
    /// first-hit way + 1), a single-way exact table and a two-field
    /// ternary one. With the plan guarding all four.
    fn memo_chain() -> (pipeleon_ir::ProgramGraph, Vec<NodeId>, SpecPlan) {
        let mut b = ProgramBuilder::new();
        let (x, y, z, out) = (b.field("x"), b.field("y"), b.field("z"), b.field("out"));
        let tern = |value, mask| MatchValue::Ternary { value, mask };
        let acl = b
            .table("acl")
            .key(x, MatchKind::Ternary)
            .action("low", vec![Primitive::add(out, 1)])
            .action("nibble", vec![Primitive::add(out, 10), Primitive::Nop])
            .action(
                "narrow",
                vec![Primitive::add(out, 100), Primitive::Nop, Primitive::Nop],
            )
            .action("tagged", vec![Primitive::set(y, 0x0A0B_0C00_0000_0001)])
            .action("miss", vec![Primitive::add(out, 1000)])
            .default_action(4)
            .entry(TableEntry::with_priority(vec![tern(HOT, 0xFF)], 0, 1))
            .entry(TableEntry::with_priority(vec![tern(0x100, 0xF00)], 1, 5))
            .entry(TableEntry::with_priority(
                vec![tern(0, 0xFFFF_FFFF_0000_0000)],
                2,
                3,
            ))
            .entry(TableEntry::with_priority(
                vec![tern(0xAB << 56, 0xFF << 56)],
                3,
                9,
            ))
            .finish();
        let lpm = |value, prefix_len| vec![MatchValue::Lpm { value, prefix_len }];
        let route = b
            .table("route")
            .key(y, MatchKind::Lpm)
            .action("wide", vec![Primitive::add(out, 2)])
            .action("mid", vec![Primitive::add(out, 20)])
            .action("host", vec![Primitive::Forward { port: 4 }])
            .action("miss", vec![Primitive::add(out, 2000)])
            .default_action(3)
            .entry(TableEntry::new(lpm(0x0A << 56, 8), 0))
            .entry(TableEntry::new(lpm(0x0A0B << 48, 16), 1))
            .entry(TableEntry::new(lpm(0x0A0B0C << 40, 24), 2))
            .finish();
        let pin = b
            .table("pin")
            .key(z, MatchKind::Exact)
            .action("hit", vec![Primitive::add(out, 3)])
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(HOT)], 0))
            .finish();
        let pair = b
            .table("pair")
            .key(x, MatchKind::Ternary)
            .key(y, MatchKind::Ternary)
            .action("hit", vec![Primitive::add(out, 4)])
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::with_priority(
                vec![tern(HOT, 0xFF), tern(0, 0)],
                0,
                1,
            ))
            .entry(TableEntry::with_priority(
                vec![tern(0, 0), tern(HOT, 0xFFFF)],
                0,
                2,
            ))
            .finish();
        let ids = vec![acl, route, pin, pair];
        let mut plan = hot_plan(&ids[..3]);
        plan.hot_keys
            .push((pair, SmallKey::from_slice(&[HOT, HOT])));
        (b.seal(acl).unwrap(), ids, plan)
    }

    /// The memo region of every guarded table of the installed lowering.
    fn memo_regions(ex: &mut Executor) -> Vec<(NodeId, &mut Option<u32>)> {
        let cp = ex.program.compiled().0;
        let guarded = cp.nodes.iter_mut().filter_map(|n| match &mut n.step {
            crate::compiled::CStep::Table(ct) => {
                Some((n.id, &mut ct.spec.as_deref_mut()?.memo_region))
            }
            _ => None,
        });
        guarded.collect()
    }

    /// A [`Quad`] for the memo: `cached` remembers its guard misses;
    /// `walk` is the same specialised pipeline with every region
    /// removed, so each of its guard misses is the full sweep.
    fn memo_quad(g: &pipeleon_ir::ProgramGraph, params: &CostParams, plan: &SpecPlan) -> Quad {
        let mut q = Quad::new(g, params, &[], plan);
        for (_, region) in memo_regions(&mut q.walk) {
            *region = None;
        }
        q
    }

    /// Another key with `key`'s home slot *and* low 32 bits.
    fn slot_mate(key: u64) -> u64 {
        let mut mates = (1..u64::MAX).map(|high| key ^ (high << 32));
        let mate = mates.find(|&m| LookupMemo::home(m) == LookupMemo::home(key));
        mate.expect("one key in 256 shares a home slot")
    }

    #[test]
    fn only_guarded_single_field_multi_probe_tables_get_a_memo_region() {
        let (g, ids, plan) = memo_chain();
        let mut q = Quad::new(&g, &params(), &[], &plan);
        let regions: Vec<_> = memo_regions(&mut q.cached)
            .into_iter()
            .map(|(id, region)| (id, *region))
            .collect();
        // Ternary and LPM: a region each, never shared. The single-way
        // exact table's miss is one probe already; the two-field key is
        // not one `u64`.
        let want = [
            (ids[0], Some(0)),
            (ids[1], Some(1)),
            (ids[2], None),
            (ids[3], None),
        ];
        assert_eq!(regions, want);
        assert!(memo_regions(&mut q.plain).is_empty(), "no guard, no memo");
    }

    #[test]
    fn memo_hits_are_the_general_lookup_to_the_bit() {
        let (g, _, plan) = memo_chain();
        let mut q = memo_quad(&g, &CostParams::bluefield2(), &plan);
        let hits = |q: &Quad| q.cached.spec_stats().memo_hits;
        // No two packets share a header (`out`, which no table reads,
        // counts them), so the walk cache never answers before the memo.
        let sent = std::cell::Cell::new(0);
        let pkt = |x: u64, y: u64| {
            sent.set(sent.get() + 1);
            Packet::with_slots(vec![x, y, HOT, sent.get()])
        };
        // A repeated cold key: swept once, then remembered. The key
        // matches a rule, so the remembered outcome has an entry.
        let r = q.agree_on(&pkt(0x155, HOT), "cold key, first");
        assert_eq!((hits(&q), r.probes), (0, 4 + 3 + 1 + 2));
        assert_eq!(q.agree_on(&pkt(0x155, HOT), "cold key, again"), r);
        assert_eq!(hits(&q), 1);
        // Two keys that share a home slot and their low 32 bits but not
        // their outcome evict each other; neither is ever served the
        // other's answer, and a key refills the slot it lost.
        let (k, mate) = (0x2_0055, slot_mate(0x2_0055));
        let want = [k, mate, k, mate].map(|x| q.agree_on(&pkt(x, HOT), "slot mates"));
        assert_ne!(want[0].latency_ns, want[1].latency_ns, "distinct outcomes");
        assert_eq!(hits(&q), 1, "each visit overwrote the other's slot");
        assert_eq!(q.agree_on(&pkt(mate, HOT), "mate, refilled"), want[1]);
        assert_eq!(hits(&q), 2);
        // No key value is reserved.
        for x in [0, u64::MAX] {
            let before = hits(&q);
            q.agree_on(&pkt(x, HOT), "extreme key, first");
            assert_eq!(hits(&q), before, "{x:#x} was never stored");
            q.agree_on(&pkt(x, HOT), "extreme key, again");
            assert_eq!(hits(&q), before + 1, "{x:#x} is a key like any other");
        }
        // LPM stops at the first way that hits: the remembered probe
        // count is that key's own, not the table's way count.
        let under = [
            (0x0A0B_0C07 << 32, 1),
            (0x0A0B_FF07 << 32, 2),
            (0x0AFF_FF07 << 32, 3),
            (0x0BFF_FF07 << 32, 3),
        ];
        for (y, route_probes) in under {
            let before = hits(&q);
            let r = q.agree_on(&pkt(HOT, y), "lpm, first");
            assert_eq!(r.probes, 4 + route_probes + 1 + 2, "{y:#x}");
            assert_eq!(q.agree_on(&pkt(HOT, y), "lpm, again"), r);
            assert_eq!(hits(&q), before + 1, "{y:#x}");
        }
        // One key value at both memoised tables (acl's `tagged` action
        // rewrites y too): each answers from its own region.
        for (x, y) in [(0x155, 0x155), (0xAB << 56, 0xAB << 56), (0x155, 0x155)] {
            q.agree_on(&pkt(x, y), "same key at two tables");
        }
        let st = q.assert_guard_counts_match();
        assert!(st.memo_hits < st.guard_misses, "{st:?}");
        assert_eq!(q.walk.spec_stats().memo_hits, 0, "no region, no memo");
    }

    /// Nothing the walk does for an observed packet depends on how the
    /// lookup got its outcome, so — unlike the walk cache — the memo serves
    /// instrumented, sampled and traced packets too.
    #[test]
    fn memo_hits_serve_watched_packets() {
        let (g, ids, plan) = memo_chain();
        for sample_every in [1, 64] {
            let mut q = memo_quad(&g, &CostParams::bluefield2(), &plan);
            for ex in [&mut q.cached, &mut q.walk, &mut q.plain, &mut q.interp] {
                ex.set_instrumentation(true, sample_every);
            }
            for i in 0..400u64 {
                let slots = vec![0x100 + i % 7, (0x0A0B_0C00 + i % 5) << 32, HOT, i];
                q.agree_on(&Packet::with_slots(slots), "instrumented");
            }
            let st = q.assert_guard_counts_match();
            assert_eq!(st.memo_hits, 2 * 400 - 7 - 5, "all but first sights");
            assert_eq!(q.cached.take_profile(), q.interp.take_profile());
            assert_eq!(q.cached.take_observations(), q.interp.take_observations());
        }
        let mut q = memo_quad(&g, &params(), &plan);
        let (mut a, mut b) = (PacketTrace::default(), PacketTrace::default());
        let cold = Packet::with_slots(vec![0x155, 0x0A0B << 48, HOT, 0]);
        for pass in 0..2 {
            let ra = q.cached.process_traced(&mut cold.clone(), &mut a);
            let rb = q.interp.process_traced(&mut cold.clone(), &mut b);
            assert_eq!((ra, &a), (rb, &b), "pass {pass}");
            assert_eq!(a.visited(), ids);
        }
        assert_eq!(q.cached.spec_stats().memo_hits, 2);
    }

    /// A flow-cache miss records the action each table of its segment
    /// resolved to; a memo hit inside the segment resolves to the action
    /// the sweep would, so what is installed replays identically.
    #[test]
    fn memo_hits_inside_a_flow_cache_miss_segment_record_the_same_actions() {
        let mut b = ProgramBuilder::new();
        let (x, y, out) = (b.field("x"), b.field("y"), b.field("out"));
        let tern = |value, mask| vec![MatchValue::Ternary { value, mask }];
        let acl = b
            .table("acl")
            .key(x, MatchKind::Ternary)
            .action("low", vec![Primitive::add(out, 1)])
            .action("nibble", vec![Primitive::add(out, 10)])
            .action("miss", vec![Primitive::add(out, 1000)])
            .default_action(2)
            .entry(TableEntry::with_priority(tern(HOT, 0xFF), 0, 1))
            .entry(TableEntry::with_priority(tern(0x100, 0xF00), 1, 5))
            .finish();
        b.set_next(acl, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .key(y, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .max_entries(64)
            .by_action(vec![None, Some(acl)])
            .finish();
        let g = b.seal(cache).unwrap();
        let mut q = memo_quad(&g, &params(), &hot_plan(&[acl]));
        // Two flows with one acl key: the second misses the flow cache
        // and hits the memo; then both replay from the flow cache.
        for (y, pass) in [(1, "sweep"), (2, "memo hit"), (1, "replay"), (2, "replay")] {
            q.agree_on(&Packet::with_slots(vec![0x155, y, 0]), pass);
        }
        assert_eq!(q.cached.cache_len(cache), 2);
        assert_eq!(q.cached.spec_stats().memo_hits, 1);
        q.assert_guard_counts_match();
    }

    /// The stale-slot case: an entry op on a memoised table strips the
    /// lowering, and the same plan — same hot key, same fingerprint —
    /// applied again puts the same region number over a different
    /// engine. What the memo held for the old one must be gone.
    #[test]
    fn respecializing_with_the_same_plan_empties_the_memo() {
        let (g, ids, plan) = memo_chain();
        let mut q = memo_quad(&g, &params(), &plan);
        let cold = Packet::with_slots(vec![0x2_0055, HOT, HOT, 0]);
        let before = q.agree_on(&cold, "fill");
        q.agree_on(&cold, "hit");
        // Now the cold key has a rule of its own.
        let rule = TableEntry::with_priority(
            vec![MatchValue::Ternary {
                value: 0x2_0055,
                mask: u64::MAX,
            }],
            1,
            7,
        );
        let op = ControlOp::InsertEntry {
            node: ids[0],
            entry: rule,
        };
        for ex in [&mut q.cached, &mut q.walk, &mut q.plain, &mut q.interp] {
            ex.apply(&op).unwrap();
        }
        assert_eq!(q.cached.spec_fingerprint(), 0, "the entry op stripped it");
        for ex in [&mut q.cached, &mut q.walk] {
            assert_eq!(ex.specialize_with(&plan), Applied::Done);
        }
        let regions = memo_regions(&mut q.cached);
        assert_eq!(*regions[0].1, Some(0), "acl has its old region number");
        let after = q.agree_on(&cold, "after the insert");
        assert_ne!(after, before, "the new rule decides the key");
    }

    /// cache(keys=[x, z]) -ByAction-> [hit -> tail, miss -> a -> b -> tail],
    /// tail -> sink: a cache over a two-table segment with a table
    /// downstream of its hit exit.
    fn cached_chain() -> (pipeleon_ir::ProgramGraph, [NodeId; 4]) {
        let mut b = ProgramBuilder::new();
        let (x, z, y) = (b.field("x"), b.field("z"), b.field("y"));
        let tail = b.table("tail").key(y, MatchKind::Exact).finish();
        let ta = b
            .table("a")
            .key(x, MatchKind::Exact)
            .action("mark", vec![Primitive::set(y, 1)])
            .action_nop("pass")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 0))
            .finish();
        let tb = b
            .table("b")
            .key(z, MatchKind::Exact)
            .action_drop("deny")
            .action_nop("pass")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(9)], 0))
            .finish();
        b.set_next(ta, Some(tb));
        b.set_next(tb, Some(tail));
        b.set_next(tail, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .key(z, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .max_entries(64)
            .by_action(vec![Some(tail), Some(ta)])
            .finish();
        (b.seal(cache).unwrap(), [cache, ta, tb, tail])
    }

    #[test]
    fn deploy_keeps_a_cache_whose_segment_is_unchanged() {
        let (g, [cache, ta, tb, tail]) = cached_chain();
        for mode in [EngineMode::Compiled, EngineMode::Interpreter] {
            let fill = |ex: &mut Executor| {
                for x in 0..4 {
                    ex.process(&mut Packet::with_slots(vec![x, 0, 0]));
                }
            };
            let mut ex = Executor::new(g.clone(), params(), mode).unwrap();
            fill(&mut ex);
            assert_eq!(ex.cache_len(cache), 4, "{mode:?}");
            // The same program again: every entry stays, and hits.
            ex.apply(&ControlOp::Deploy(g.clone())).unwrap();
            assert_eq!(ex.cache_len(cache), 4, "{mode:?}: identical redeploy");
            fill(&mut ex);
            let stats = ex.take_profile().cache_stats[&cache];
            assert_eq!((stats.hits, stats.misses), (4, 4), "{mode:?}");
            // A table downstream of the hit exit moves: still the same
            // segment.
            let mut moved = g.clone();
            moved
                .node_mut(tail)
                .unwrap()
                .as_table_mut()
                .unwrap()
                .entries = vec![TableEntry::new(vec![MatchValue::Exact(5)], 0)];
            ex.apply(&ControlOp::Deploy(moved)).unwrap();
            assert_eq!(ex.cache_len(cache), 4, "{mode:?}: downstream edit");
            // One covered table's entries change: cold.
            let mut edited = g.clone();
            edited.node_mut(tb).unwrap().as_table_mut().unwrap().entries[0] =
                TableEntry::new(vec![MatchValue::Exact(0)], 0);
            ex.apply(&ControlOp::Deploy(edited)).unwrap();
            assert_eq!(ex.cache_len(cache), 0, "{mode:?}: covered entries");
            let mut p = Packet::with_slots(vec![1, 0, 0]);
            assert!(
                ex.process(&mut p).dropped,
                "{mode:?}: the new entry decides"
            );
            // The covered pair in the other order: cold too.
            ex.apply(&ControlOp::Deploy(g.clone())).unwrap();
            fill(&mut ex);
            assert_eq!(ex.cache_len(cache), 4, "{mode:?}");
            let mut swapped = g.clone();
            swapped.node_mut(cache).unwrap().next = NextHops::ByAction(vec![Some(tail), Some(tb)]);
            swapped.node_mut(tb).unwrap().next = NextHops::Always(Some(ta));
            swapped.node_mut(ta).unwrap().next = NextHops::Always(Some(tail));
            ex.apply(&ControlOp::Deploy(swapped)).unwrap();
            assert_eq!(ex.cache_len(cache), 0, "{mode:?}: covered order");
        }
    }
}
