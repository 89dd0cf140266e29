//! Pins the *order* of the executor's accounting steps.
//!
//! Both engines run one walk over a program provider, so the
//! differential suites can no longer notice a reordered step (a pending
//! insert finalised after the migration check, a charge swapped with its
//! neighbour): both sides would move together. This test replays a fixed
//! stimulus — every scenario program in `pipeleon-workloads`, the
//! differential suites' synthetic seed matrix, a nested flow-cache
//! program, a placed ASIC/CPU program and a
//! specialised pipeline with fused guard runs — under both engines and
//! five sampling regimes, with an entry insert and a cache flush
//! mid-stream, and compares one line of digests per case with a
//! committed fixture: every `ExecReport`, the packets afterwards, the
//! taken profile, the observation histograms, the traces of a traced
//! subset and the guard counters.
//!
//! The fixture was captured at c1c5859, when the interpreter and the
//! compiled engine were still two hand-written walks. When a change is
//! *meant* to alter the accounting, the failing run leaves the new lines
//! in `$CARGO_TARGET_TMPDIR/walk_digests.actual.txt`; review the diff
//! and copy it over `tests/fixtures/walk_digests.txt`.

use pipeleon_cost::{CostParams, Placement, RuntimeProfile};
use pipeleon_ir::{
    CacheRole, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_sim::{
    ControlOp, EngineMode, ExecReport, NicBackend, Packet, PacketTrace, SampleKeying, SmartNic,
};
use pipeleon_workloads::scenarios::{
    AclPipeline, DashRouting, L2L3Acl, LoadBalancer, NfComposition, SkewedPipeline,
};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use pipeleon_workloads::traffic::FlowGen;
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("fixtures/walk_digests.txt");

/// The differential suites' synthetic-program seeds.
const SYNTH_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Packets per case; the entry insert and cache flush land at half.
const PACKETS: usize = 2048;
/// Packets alternate between `process_batch` and per-packet chunks.
const CHUNK: usize = 64;
/// Every `TRACE_EVERY`-th packet of a per-packet chunk runs traced.
const TRACE_EVERY: usize = 7;

/// Uninstrumented, then 1-in-1 and 1-in-64 under both keyings.
const SAMPLINGS: [(&str, u64, SampleKeying); 5] = [
    ("off", 0, SampleKeying::GlobalSeq),
    ("seq/1", 1, SampleKeying::GlobalSeq),
    ("seq/64", 64, SampleKeying::GlobalSeq),
    ("flow/1", 1, SampleKeying::FlowKeyed),
    ("flow/64", 64, SampleKeying::FlowKeyed),
];

/// FNV-1a over whatever a case feeds it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn report(&mut self, r: &ExecReport) {
        self.word(r.latency_ns.to_bits());
        self.word(r.dropped as u64);
        self.word(r.migrations as u64);
        self.word(r.probes as u64);
        self.word(r.counter_updates as u64);
    }

    fn packet(&mut self, p: &Packet) {
        self.word(p.slots().len() as u64);
        for &s in p.slots() {
            self.word(s);
        }
        self.word(p.dropped as u64);
        self.word(p.egress_port.map_or(u64::MAX, u64::from));
    }
}

/// One program with everything a run of it needs.
struct Case {
    name: String,
    graph: ProgramGraph,
    params: CostParams,
    traffic: Vec<Packet>,
    placement: Vec<Placement>,
    /// `(cache, insertions per second)`.
    insertion_limits: Vec<(NodeId, f64)>,
    /// A profile window, then `specialize()`, before the stimulus.
    specialize: bool,
}

impl Case {
    fn new(name: impl Into<String>, graph: ProgramGraph, traffic: Vec<Packet>) -> Self {
        assert_eq!(traffic.len(), PACKETS);
        Self {
            name: name.into(),
            graph,
            params: CostParams::bluefield2(),
            traffic,
            placement: Vec::new(),
            insertion_limits: Vec::new(),
            specialize: false,
        }
    }
}

/// `p` with every latency constant nudged off the binary grid. The
/// presets are whole numbers of nanoseconds, whose sums are exact in any
/// order; with these, adding two terms the other way round shows in a
/// report's last bits.
fn off_grid(mut p: CostParams) -> CostParams {
    p.l_mat *= 1.0137;
    p.l_act *= 0.9871;
    p.l_branch *= 1.0311;
    p.l_base *= 1.0071;
    p.l_cache_insert *= 0.9913;
    p.l_migration *= 1.0043;
    p.cpu_scale *= 1.0191;
    p
}

/// Seeded Zipf traffic over every field any table of `g` matches on.
fn key_traffic(g: &ProgramGraph, flows: usize, seed: u64) -> Vec<Packet> {
    let mut flow_fields = Vec::new();
    for (_, t) in g.tables() {
        for k in &t.keys {
            if !flow_fields.contains(&k.field) {
                flow_fields.push(k.field);
            }
        }
    }
    FlowGen::new(g.fields.len(), flow_fields, flows, seed)
        .with_zipf(1.1)
        .batch(PACKETS)
}

/// `outer(x,y)` covers `a → inner(x) → b → c`; `inner` covers `b`, whose
/// `deny` drops inside both segments; `tail` is the outer hit exit.
/// `outer` holds fewer entries than there are flows (evictions), `inner`
/// is insertion-rate limited by the case. Returns the graph, `inner` and
/// the two segment exits.
fn nested_cache_program() -> (ProgramGraph, NodeId, [NodeId; 2]) {
    let mut b = ProgramBuilder::named("nested_caches");
    let (x, y, z) = (b.field("x"), b.field("y"), b.field("z"));
    let tail = b
        .table("tail")
        .key(x, MatchKind::Lpm)
        .action("fwd", vec![Primitive::Forward { port: 3 }])
        .action_nop("miss")
        .default_action(1)
        .entry(TableEntry::new(
            vec![MatchValue::Lpm {
                value: 0,
                prefix_len: 58,
            }],
            0,
        ))
        .finish();
    b.set_next(tail, None);
    let mut c = b
        .table("c")
        .key(y, MatchKind::Exact)
        .action("tag", vec![Primitive::set(z, 9), Primitive::Nop])
        .action_nop("pass")
        .default_action(1);
    for k in 0..8u64 {
        c = c.entry(TableEntry::new(vec![MatchValue::Exact(k)], 0));
    }
    let c = c.finish();
    b.set_next(c, Some(tail));
    let deny = |value: u64, prio: i32| {
        TableEntry::with_priority(vec![MatchValue::Ternary { value, mask: 0x1F }], 1, prio)
    };
    let bt = b
        .table("b")
        .key(x, MatchKind::Ternary)
        .action("mark", vec![Primitive::Add { field: z, delta: 1 }])
        .action_drop("deny")
        .default_action(0)
        .entry(deny(5, 2))
        .entry(deny(17, 1))
        .finish();
    b.set_next(bt, Some(c));
    let inner = b
        .table("inner")
        .key(x, MatchKind::Exact)
        .action_nop("hit")
        .action_nop("miss")
        .default_action(1)
        .cache_role(CacheRole::FlowCache)
        .max_entries(256)
        .by_action(vec![Some(c), Some(bt)])
        .finish();
    let a = b
        .table("a")
        .key(x, MatchKind::Exact)
        .action("seed", vec![Primitive::set(z, 100)])
        .action_nop("pass")
        .default_action(1)
        .entry(TableEntry::new(vec![MatchValue::Exact(3)], 0))
        .entry(TableEntry::new(vec![MatchValue::Exact(4)], 0))
        .finish();
    b.set_next(a, Some(inner));
    let outer = b
        .table("outer")
        .key(x, MatchKind::Exact)
        .key(y, MatchKind::Exact)
        .action_nop("hit")
        .action_nop("miss")
        .default_action(1)
        .cache_role(CacheRole::FlowCache)
        .max_entries(32)
        .by_action(vec![Some(tail), Some(a)])
        .finish();
    let g = b.seal(outer).expect("nested caches validate");
    (g, inner, [c, tail])
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let acl = AclPipeline::build(3, 3);
    let t = acl.traffic(&[0.3, 0.1, 0.2], 300, 71).batch(PACKETS);
    out.push(Case::new("acl_pipeline", acl.graph, t));
    let lb = LoadBalancer::build();
    let t = lb.traffic(&[0.05, 0.2], 256, 72).batch(PACKETS);
    out.push(Case::new("load_balancer", lb.graph.clone(), t));
    let dash = DashRouting::build();
    let t = dash.traffic(&[0.1, 0.05, 0.2], 300, 1.1, 73).batch(PACKETS);
    out.push(Case::new("dash_routing", dash.graph, t));
    let l2 = L2L3Acl::build();
    let t = key_traffic(&l2.graph, 300, 74);
    out.push(Case::new("l2l3_acl", l2.graph, t));
    let nf = NfComposition::build();
    let t = nf.traffic(&[0.4, 0.3], 300, 75).batch(PACKETS);
    out.push(Case::new("nf_composition", nf.graph.clone(), t));
    let skewed = SkewedPipeline::build(3, 2);
    let t = skewed.traffic(1.2, 400, 76).batch(PACKETS);
    out.push(Case::new("skewed_pipeline", skewed.graph.clone(), t));

    for seed in SYNTH_SEEDS {
        let g = synthesize(&SynthConfig {
            pipelets: 2 + (seed % 3) as usize,
            pipelet_len: 2 + (seed % 2) as usize,
            match_mix: if seed % 2 == 0 {
                MatchMix::default_mix()
            } else {
                MatchMix::all_exact()
            },
            drop_fraction: if seed % 3 == 0 { 0.25 } else { 0.0 },
            write_fraction: 0.2,
            seed,
            ..SynthConfig::default()
        });
        let t = key_traffic(&g, 500, seed * 101);
        let mut case = Case::new(format!("synth_{seed}"), g, t);
        case.params = if seed % 2 == 0 {
            CostParams::agilio_cx()
        } else {
            CostParams::emulated_nic()
        };
        out.push(case);
    }

    let (g, inner, exits) = nested_cache_program();
    let t: Vec<Packet> = (0..PACKETS as u64)
        .map(|i| {
            let flow = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
            Packet::with_slots(vec![flow % 48, (flow / 3) % 11, 0])
        })
        .collect();
    // Once all on the ASIC, once with both segment exits (`c`, `tail`)
    // on the CPU, so an install and a migration land on the same node.
    for (name, cpu) in [("nested_caches", false), ("nested_caches_placed", true)] {
        let mut case = Case::new(name, g.clone(), t.clone());
        case.params = off_grid(CostParams::bluefield2());
        case.insertion_limits = vec![(inner, 4_000.0)];
        if cpu {
            case.placement = vec![Placement::Asic; g.id_bound()];
            for exit in exits {
                case.placement[exit.index()] = Placement::Cpu;
            }
        }
        out.push(case);
    }

    // Branches, three chains and drops, a third of the nodes on the CPU;
    // a Fixed match model too.
    let t = nf.traffic(&[0.3, 0.4], 300, 77).batch(PACKETS);
    for (name, params) in [
        ("placed", CostParams::bluefield2()),
        ("placed_fixed", CostParams::emulated_nic()),
    ] {
        let mut case = Case::new(name, nf.graph.clone(), t.clone());
        case.params = off_grid(params);
        case.placement = (0..nf.graph.id_bound())
            .map(|i| {
                if i % 3 == 1 {
                    Placement::Cpu
                } else {
                    Placement::Asic
                }
            })
            .collect();
        out.push(case);
    }

    // The fused-run fixture of `specialize_differential`: two run
    // members on the CPU, Zipf 3.0 traffic so a hot flow exists.
    let t = skewed.traffic(3.0, 400, 78).batch(PACKETS);
    let mut case = Case::new("specialised_fused", skewed.graph.clone(), t);
    case.placement = vec![Placement::Asic; skewed.graph.id_bound()];
    case.placement[skewed.ternary[1].index()] = Placement::Cpu;
    case.placement[skewed.exact[1].index()] = Placement::Cpu;
    case.params = off_grid(CostParams::bluefield2());
    case.specialize = true;
    out.push(case);
    // And the load balancer the datapath workloads deploy, specialised.
    let t = lb
        .traffic(&[0.05, 0.2], 64, 79)
        .with_zipf(3.0)
        .batch(PACKETS);
    let mut case = Case::new("specialised_lb", lb.graph, t);
    case.params = off_grid(CostParams::agilio_cx());
    case.specialize = true;
    out.push(case);
    out
}

/// The mid-stream entry: the keys of `packet` at the first keyed,
/// non-cache table, bound to action 0.
fn mid_stream_entry(g: &ProgramGraph, packet: &Packet) -> (NodeId, TableEntry) {
    let (node, t) = g
        .tables()
        .find(|(_, t)| !t.keys.is_empty() && t.cache_role != CacheRole::FlowCache)
        .expect("a keyed table");
    let matches = t
        .keys
        .iter()
        .map(|k| {
            let v = packet.get(k.field);
            match k.kind {
                MatchKind::Exact => MatchValue::Exact(v),
                MatchKind::Lpm => MatchValue::Lpm {
                    value: v,
                    prefix_len: 64,
                },
                MatchKind::Ternary => MatchValue::Ternary {
                    value: v,
                    mask: u64::MAX,
                },
                MatchKind::Range => MatchValue::Range { lo: v, hi: v },
            }
        })
        .collect();
    (node.id, TableEntry::with_priority(matches, 0, 1_000))
}

fn sorted_profile(p: &RuntimeProfile) -> String {
    let mut edges: Vec<_> = p.edges().collect();
    edges.sort();
    let mut actions: Vec<_> = p.actions().collect();
    actions.sort();
    let mut caches: Vec<_> = p.cache_stats.iter().collect();
    caches.sort_by_key(|(id, _)| **id);
    let mut distinct: Vec<_> = p.distinct_keys.iter().collect();
    distinct.sort();
    format!(
        "total={} window={:016x} edges={edges:?} actions={actions:?} caches={caches:?} \
         distinct={distinct:?}",
        p.total_packets,
        p.window_s.to_bits(),
    )
}

/// Runs one case on one engine under one sampling regime and renders
/// its line.
fn run(case: &Case, engine: EngineMode, sampling: (&str, u64, SampleKeying)) -> String {
    let (sampling_name, sample_every, keying) = sampling;
    let mut nic = SmartNic::new(case.graph.clone(), case.params.clone()).expect("case deploys");
    nic.set_engine_mode(engine);
    if !case.placement.is_empty() {
        nic.apply(ControlOp::SetPlacement(case.placement.clone()))
            .unwrap();
    }
    for &(cache, rate) in &case.insertion_limits {
        nic.apply(ControlOp::SetCacheInsertionLimit {
            node: cache,
            rate_per_s: rate,
        })
        .unwrap();
    }
    nic.executor_mut().set_sample_keying(keying);
    if case.specialize {
        nic.set_instrumentation(true, 1);
        nic.measure(case.traffic.clone());
        // `false` under the interpreter, which has nothing to specialise.
        nic.specialize();
        nic.take_profile();
        nic.take_observations();
    }
    nic.set_instrumentation(sample_every > 0, sample_every.max(1));

    let (mut reports, mut packets, mut traces) = (Digest::new(), Digest::new(), Digest::new());
    let mut trace = PacketTrace::default();
    let t0 = nic.now_s();
    let caches: Vec<NodeId> = case
        .graph
        .tables()
        .filter(|(_, t)| t.cache_role == CacheRole::FlowCache)
        .map(|(node, _)| node.id)
        .collect();
    for (c, chunk) in case.traffic.chunks(CHUNK).enumerate() {
        let at = c * CHUNK;
        if at == PACKETS / 2 {
            let (table, entry) = mid_stream_entry(&case.graph, &case.traffic[at + 1]);
            nic.insert_entry(table, entry).expect("mid-stream insert");
            for &cache in &caches {
                nic.apply(ControlOp::FlushCache(cache)).unwrap();
            }
        }
        let mut chunk = chunk.to_vec();
        // A microsecond a packet: rate limiters see time pass.
        nic.executor_mut().now_s = t0 + at as f64 * 1e-6;
        if c % 2 == 0 {
            for r in nic.process_batch(&mut chunk) {
                reports.report(&r);
            }
        } else {
            for (i, p) in chunk.iter_mut().enumerate() {
                nic.executor_mut().now_s = t0 + (at + i) as f64 * 1e-6;
                let r = if i % TRACE_EVERY == 0 {
                    let r = nic.process_one_traced(p, &mut trace);
                    traces.bytes(trace.to_jsonl().as_bytes());
                    r
                } else {
                    nic.process_one(p)
                };
                reports.report(&r);
            }
        }
        for p in &chunk {
            packets.packet(p);
        }
    }
    let mut profile = Digest::new();
    profile.bytes(sorted_profile(&nic.take_profile()).as_bytes());
    let mut observed = Digest::new();
    observed.bytes(format!("{:?}", nic.take_observations()).as_bytes());
    let spec = nic.spec_stats();
    let mut line = String::new();
    write!(
        line,
        "case={} engine={engine:?} sampling={sampling_name} reports={:016x} packets={:016x} \
         profile={:016x} observed={:016x} traces={:016x} guards={}/{}/{}",
        case.name,
        reports.0,
        packets.0,
        profile.0,
        observed.0,
        traces.0,
        spec.guard_hits,
        spec.guard_misses,
        spec.fused_hits,
    )
    .expect("write to a String");
    line
}

fn digests() -> String {
    let mut out = String::new();
    for case in cases() {
        for sampling in SAMPLINGS {
            for engine in [EngineMode::Interpreter, EngineMode::Compiled] {
                out.push_str(&run(&case, engine, sampling));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn walk_digests_match_the_pinned_lines() {
    let actual = digests();
    if actual == EXPECTED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("walk_digests.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual lines");
    let first = actual
        .lines()
        .zip(EXPECTED.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(EXPECTED.lines().count()));
    panic!(
        "walk digests diverge at line {first} ({} actual / {} expected lines):\n  \
         actual:   {}\n  expected: {}\nall lines written to {}",
        actual.lines().count(),
        EXPECTED.lines().count(),
        actual.lines().nth(first).unwrap_or("<none>"),
        EXPECTED.lines().nth(first).unwrap_or("<none>"),
        path.display(),
    );
}
