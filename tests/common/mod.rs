//! Stimulus shared by the differential suites and the walk golden test:
//! the example programs, seeded key traffic and the synthetic-program
//! seed matrix, the `control_loop` decisions stimulus, and the one
//! profile comparator. Each suite keeps its own oracle and its other
//! equality checks.

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use pipeleon::Optimizer;
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::{json, MatchValue, ProgramGraph, TableEntry};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget};
use pipeleon_sim::{Packet, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use pipeleon_workloads::traffic::FlowGen;

/// The seed matrix CI runs for the chaos, compiled and run-loop suites
/// and the walk golden test.
pub const SYNTH_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Every `examples/programs/*.json` document, by file stem, in name
/// order.
pub fn example_programs() -> Vec<(String, ProgramGraph)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.path())
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let text = std::fs::read_to_string(&path).unwrap();
        let g = json::from_json_string(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path.file_stem().unwrap().to_string_lossy().into_owned(), g));
    }
    assert!(!out.is_empty(), "no example programs found");
    out
}

/// Seeded Zipf flow traffic over every field any table of `g` matches
/// on.
pub fn key_traffic(g: &ProgramGraph, flows: usize, seed: u64, packets: usize) -> Vec<Packet> {
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
        .batch(packets)
}

/// Counter-by-counter profile comparison, so a regression names the
/// first diverging counter instead of dumping two whole profiles; then
/// the whole profile, so nothing the per-counter checks miss slips by.
pub fn assert_profiles_identical(a: &RuntimeProfile, b: &RuntimeProfile, ctx: &str) {
    assert_eq!(a.total_packets, b.total_packets, "{ctx}: total_packets");
    let mut ae: Vec<_> = a.edges().collect();
    let mut be: Vec<_> = b.edges().collect();
    ae.sort();
    be.sort();
    assert_eq!(ae, be, "{ctx}: edge counters");
    let mut aa: Vec<_> = a.actions().collect();
    let mut ba: Vec<_> = b.actions().collect();
    aa.sort();
    ba.sort();
    assert_eq!(aa, ba, "{ctx}: action counters");
    assert_eq!(a.cache_stats, b.cache_stats, "{ctx}: cache stats");
    assert_eq!(a.distinct_keys, b.distinct_keys, "{ctx}: distinct keys");
    assert_eq!(
        a.entry_update_rates, b.entry_update_rates,
        "{ctx}: entry update rates"
    );
    assert_eq!(a.window_s, b.window_s, "{ctx}: window");
    assert_eq!(a, b, "{ctx}: full profile");
}

/// Where a tick of [`control_loop_stimulus`] falls.
#[derive(Debug, Clone, Copy)]
pub struct StimulusTick {
    pub run: u64,
    pub phase: usize,
    pub window: usize,
}

/// The Fig. 11a stimulus the `control_loop` benchmark uses: a
/// `Controller<SimTarget<SmartNic>>` on `LoadBalancer::build()` sampling
/// one packet in 64, two controller runs of eight phases, a phase being
/// eight inserts, four (`measure` 4,096 + `tick`), eight removes, under
/// alternating ACL drop rates. `tick` is handed each window with its
/// packets measured and runs the controller's tick itself.
pub fn control_loop_stimulus(mut tick: impl FnMut(StimulusTick, &mut Controller<SimTarget>)) {
    const SEED: u64 = 4111;
    const FLOWS: usize = 700;
    const WINDOW: usize = 4096;
    const WINDOWS_PER_PHASE: usize = 4;
    const ENTRY_OPS: usize = 8;
    const RUNS: u64 = 2;
    const RUN_PHASES: usize = 8;
    const REGIMES: [[f64; 2]; 2] = [[0.05, 0.10], [0.60, 0.05]];
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    for run in 0..RUNS {
        let stream = SEED + 1000 * run;
        let mut gens = [0usize, 1].map(|r| lb.traffic(&REGIMES[r], FLOWS, stream + r as u64));
        let mut nic = SmartNic::new(lb.graph.clone(), params.clone()).expect("LB deploys");
        nic.set_instrumentation(true, 64);
        let mut controller = Controller::new(
            SimTarget::live(nic),
            lb.graph.clone(),
            Optimizer::new(CostModel::new(params.clone())),
            ControllerConfig::default(),
        )
        .expect("controller starts");
        for phase in 0..RUN_PHASES {
            for k in 0..ENTRY_OPS {
                let entry = TableEntry::new(vec![MatchValue::Exact(1 << 20 | k as u64)], 0);
                controller
                    .insert_entry(lb.lb[k % 2], entry)
                    .expect("insert on an LB table");
            }
            for window in 0..WINDOWS_PER_PHASE {
                controller.target.nic.measure(gens[phase % 2].batch(WINDOW));
                tick(StimulusTick { run, phase, window }, &mut controller);
            }
            for k in 0..ENTRY_OPS {
                controller
                    .remove_entry(lb.lb[k % 2], 0)
                    .expect("remove from an LB table");
            }
        }
    }
}
