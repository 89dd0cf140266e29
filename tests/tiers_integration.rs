//! Hierarchical-memory assignment composes with plan optimization: run the
//! top-k search first, then place the optimized layout's hottest tables in
//! SRAM; every stage must improve (or preserve) measured latency, and the
//! tier model's prediction must track the emulator.

use pipeleon::hierarchical::assign_tiers;
use pipeleon::{Optimizer, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_sim::{ControlOp, NicBackend, SmartNic};
use pipeleon_workloads::scenarios::DashRouting;

#[test]
fn tiering_composes_with_plan_optimization() {
    let dash = DashRouting::build();
    let mut params = CostParams::agilio_cx();
    params.tiers.sram_capacity_bytes = 2048.0;
    params.tiers.sram_speedup = 3.0;
    let model = CostModel::new(params.clone());

    // Profile on the original program.
    let mut nic = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 1);
    let traffic = |seed: u64| {
        dash.traffic(&[0.2, 0.1, 0.05], 300, 0.5, seed)
            .batch(12_000)
    };
    nic.measure(traffic(1));
    let profile = nic.take_profile();
    nic.set_instrumentation(false, 1);
    let baseline = nic.measure(traffic(2)).mean_latency_ns;

    // Stage 1: layout optimization.
    let outcome = Optimizer::new(model.clone())
        .esearch()
        .optimize(&dash.graph, &profile, ResourceLimits::unlimited())
        .unwrap();
    let mut nic_opt = SmartNic::new(outcome.applied.graph.clone(), params.clone()).unwrap();
    nic_opt.measure(traffic(3)); // warm caches
    let optimized = nic_opt.measure(traffic(4)).mean_latency_ns;
    assert!(
        optimized < baseline,
        "plan optimization must help: {baseline:.0} -> {optimized:.0}"
    );

    // Stage 2: tier assignment on the *optimized* layout, using counters
    // collected from it.
    nic_opt.set_instrumentation(true, 1);
    nic_opt.measure(traffic(5));
    let opt_profile = nic_opt.take_profile();
    nic_opt.set_instrumentation(false, 1);
    let plan = assign_tiers(&model, &outcome.applied.graph, &opt_profile);
    assert!(
        !plan.promoted.is_empty(),
        "something should fit the SRAM budget"
    );
    assert!(plan.sram_used <= params.tiers.sram_capacity_bytes + 1e-9);
    nic_opt
        .apply(ControlOp::SetMemoryTiers(plan.tiers.clone()))
        .unwrap();
    nic_opt.measure(traffic(6)); // re-warm
    let tiered = nic_opt.measure(traffic(7)).mean_latency_ns;
    assert!(
        tiered < optimized,
        "tiering must further help: {optimized:.0} -> {tiered:.0}"
    );
}

#[test]
fn tier_prediction_tracks_emulator_without_caches() {
    // On a cache-free layout the tiered cost model and the emulator agree
    // closely (no dynamic state to estimate).
    let dash = DashRouting::build();
    let mut params = CostParams::agilio_cx();
    params.tiers.sram_capacity_bytes = 4096.0;
    let model = CostModel::new(params.clone());
    let mut nic = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 1);
    let mut gen = dash.traffic(&[0.0, 0.0, 0.0], 200, 0.0, 9);
    nic.measure(gen.batch(10_000));
    let profile = nic.take_profile();
    let plan = assign_tiers(&model, &dash.graph, &profile);
    nic.set_instrumentation(false, 1);
    nic.apply(ControlOp::SetMemoryTiers(plan.tiers.clone()))
        .unwrap();
    let mut gen = dash.traffic(&[0.0, 0.0, 0.0], 200, 0.0, 10);
    let measured = nic.measure(gen.batch(10_000)).mean_latency_ns;
    let rel = (plan.expected_latency - measured).abs() / measured;
    assert!(
        rel < 0.05,
        "prediction {:.0} vs measured {measured:.0} ({:.1}% off)",
        plan.expected_latency,
        100.0 * rel
    );
}
