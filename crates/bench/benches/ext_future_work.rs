//! Extensions beyond the paper's prototype — its §6 future-work items,
//! implemented and measured:
//!
//! * **Hierarchical memory** ("Hierarchical memory support"): assign the
//!   hottest tables to an SRAM tier under a capacity budget; sweep the
//!   budget and report predicted + emulated latency.
//! * **Incremental re-optimization** ("compute new optimizations …
//!   incrementally"): cache per-pipelet candidate lists keyed by local
//!   profile signatures; re-optimize after a localized profile change and
//!   compare search effort/time against the from-scratch search.

use pipeleon::hierarchical::assign_tiers;
use pipeleon::{IncrementalState, Optimizer, ResourceLimits};
use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_sim::{ControlOp, SmartNic};
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::scenarios::DashRouting;
use pipeleon_workloads::synth::{synthesize, SynthConfig};

fn memory_tiers() {
    println!("# --- hierarchical memory: SRAM budget sweep (DASH on Agilio model) ---");
    header(&[
        "sram_budget_bytes",
        "tables_promoted",
        "sram_used_bytes",
        "predicted_latency_ns",
        "emulated_latency_ns",
    ]);
    let dash = DashRouting::build();
    for budget in [0.0, 256.0, 1024.0, 4096.0, 65536.0] {
        let mut params = CostParams::agilio_cx();
        params.tiers.sram_capacity_bytes = budget;
        params.tiers.sram_speedup = 3.0;
        let model = CostModel::new(params.clone());
        // Profile from instrumented traffic.
        let mut nic = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
        nic.set_instrumentation(true, 1);
        let mut gen = dash.traffic(&[0.1, 0.1, 0.1], 500, 0.0, 3);
        nic.measure(gen.batch(10_000));
        let profile = nic.take_profile();
        let plan = assign_tiers(&model, &dash.graph, &profile);
        // Measure the assignment on the emulator.
        let mut nic = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
        nic.apply(ControlOp::SetMemoryTiers(plan.tiers.clone()))
            .unwrap();
        let mut gen = dash.traffic(&[0.1, 0.1, 0.1], 500, 0.0, 4);
        let stats = nic.measure(gen.batch(10_000));
        row(&[
            f(budget),
            plan.promoted.len().to_string(),
            f(plan.sram_used),
            f(plan.expected_latency),
            f(stats.mean_latency_ns),
        ]);
    }
}

fn incremental() {
    println!("# --- incremental re-optimization: localized profile change ---");
    header(&[
        "run",
        "candidates_evaluated",
        "candidates_reused",
        "search_time_us",
        "est_gain_ns",
    ]);
    let g = synthesize(&SynthConfig {
        pipelets: 15,
        pipelet_len: 3,
        seed: 11,
        ..SynthConfig::default()
    });
    let base_profile = random_profile(&g, &ProfileSynthConfig::default(), 21);
    let optimizer = Optimizer::new(CostModel::new(CostParams::emulated_nic())).esearch();
    let mut state = IncrementalState::new();
    let report = |label: &str, o: &pipeleon::OptimizationOutcome| {
        row(&[
            label.into(),
            o.candidates_evaluated.to_string(),
            o.candidates_reused.to_string(),
            f(o.search_time.as_secs_f64() * 1e6),
            f(o.est_gain_ns),
        ]);
    };
    let cold = optimizer
        .optimize_incremental(&g, &base_profile, ResourceLimits::unlimited(), &mut state)
        .unwrap();
    report("cold", &cold);
    let warm = optimizer
        .optimize_incremental(&g, &base_profile, ResourceLimits::unlimited(), &mut state)
        .unwrap();
    report("warm_unchanged", &warm);
    // Localized change: shift one branch's split drastically.
    let mut changed = base_profile.clone();
    if let Some(branch) = g.iter_nodes().find(|n| n.as_branch().is_some()) {
        changed.record_edge(pipeleon_ir::EdgeRef::new(branch.id, 1), 10_000_000);
    }
    let localized = optimizer
        .optimize_incremental(&g, &changed, ResourceLimits::unlimited(), &mut state)
        .unwrap();
    report("warm_one_branch_shift", &localized);
    // Global change: fresh random profile.
    let global = random_profile(&g, &ProfileSynthConfig::default(), 99);
    let rerun = optimizer
        .optimize_incremental(&g, &global, ResourceLimits::unlimited(), &mut state)
        .unwrap();
    report("warm_global_shift", &rerun);
}

fn main() {
    banner(
        "Extensions",
        "paper §6 future work: hierarchical memory + incremental re-optimization",
    );
    memory_tiers();
    incremental();
}
