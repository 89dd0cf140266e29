//! Stimulus shared by the differential suites and the walk golden test:
//! the example programs, seeded key traffic and the synthetic-program
//! seed matrix, and the one profile comparator. Each suite keeps its own
//! oracle and its other equality checks.

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::{json, ProgramGraph};
use pipeleon_sim::Packet;
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
