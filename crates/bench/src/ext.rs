//! Extensions beyond the paper's prototype: its §6 future-work items,
//! implemented and measured.

use crate::{cells, Table};
use pipeleon::hierarchical::assign_tiers;
use pipeleon::{IncrementalState, Optimizer, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::EdgeRef;
use pipeleon_sim::{ControlOp, NicBackend, SmartNic};
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::scenarios::DashRouting;
use pipeleon_workloads::synth::{synthesize, SynthConfig};

/// Hierarchical memory ("Hierarchical memory support"): assign the
/// hottest tables of the DASH pipeline to an SRAM tier 3× faster than
/// EMEM under a capacity budget (Agilio model); sweep the budget and
/// report predicted and emulated latency.
pub fn memory_tiers() -> Table {
    let mut t = Table::new(
        "Extension (§6): hierarchical memory, SRAM budget sweep (DASH on Agilio model)",
        "sram_budget_bytes tables_promoted sram_used_bytes predicted_latency_ns emulated_latency_ns",
    );
    let dash = DashRouting::build();
    for budget in [0.0, 256.0, 1024.0, 4096.0, 65536.0] {
        let mut params = CostParams::agilio_cx();
        params.tiers.sram_capacity_bytes = budget;
        params.tiers.sram_speedup = 3.0;
        let model = CostModel::new(params.clone());
        // Profile from instrumented traffic.
        let mut nic = SmartNic::new(dash.graph.clone(), params.clone()).expect("deploys");
        nic.set_instrumentation(true, 1);
        nic.measure(dash.traffic(&[0.1, 0.1, 0.1], 500, 0.0, 3).batch(10_000));
        let plan = assign_tiers(&model, &dash.graph, &nic.take_profile());
        // Measure the assignment on the emulator.
        let mut nic = SmartNic::new(dash.graph.clone(), params).expect("deploys");
        nic.apply(ControlOp::SetMemoryTiers(plan.tiers.clone()))
            .expect("tiers apply");
        let stats = nic.measure(dash.traffic(&[0.1, 0.1, 0.1], 500, 0.0, 4).batch(10_000));
        t.push(cells![
            budget,
            plan.promoted.len(),
            plan.sram_used,
            plan.expected_latency,
            stats.mean_latency_ns
        ]);
    }
    t
}

/// Incremental re-optimization ("compute new optimizations …
/// incrementally"): per-pipelet candidate lists cached under local
/// profile signatures; a 15-pipelet program re-optimized (ESearch) with an
/// unchanged profile, after a localized change and after a global one.
/// `search_time_us` is host clock; the counts repeat exactly.
pub fn incremental() -> Table {
    let mut t = Table::new(
        "Extension (§6): incremental re-optimization after profile changes",
        "run candidates_evaluated candidates_reused search_time_us est_gain_ns",
    );
    let g = synthesize(&SynthConfig {
        pipelets: 15,
        pipelet_len: 3,
        seed: 11,
        ..SynthConfig::default()
    });
    let base = random_profile(&g, &ProfileSynthConfig::default(), 21);
    // Localized change: shift one branch's split drastically.
    let mut one_branch = base.clone();
    if let Some(branch) = g.iter_nodes().find(|n| n.as_branch().is_some()) {
        one_branch.record_edge(EdgeRef::new(branch.id, 1), 10_000_000);
    }
    // Global change: a fresh random profile.
    let global = random_profile(&g, &ProfileSynthConfig::default(), 99);
    let optimizer = Optimizer::new(CostModel::new(CostParams::emulated_nic())).esearch();
    let mut state = IncrementalState::new();
    for (run, profile) in [
        ("cold", &base),
        ("warm_unchanged", &base),
        ("warm_one_branch_shift", &one_branch),
        ("warm_global_shift", &global),
    ] {
        let o = optimizer
            .optimize_incremental(&g, profile, ResourceLimits::unlimited(), &mut state)
            .expect("optimizes");
        t.push(cells![
            run,
            o.candidates_evaluated,
            o.candidates_reused,
            o.search_time.as_secs_f64() * 1e6,
            o.est_gain_ns
        ]);
    }
    t
}
