//! End-to-end improvement tests: optimized layouts must measurably beat
//! the originals on the emulator, for each optimization family and for
//! the runtime control loop.

use pipeleon::{apply_plan, Optimizer, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget};
use pipeleon_sim::SmartNic;
use pipeleon_workloads::scenarios::{AclPipeline, DashRouting};
use pipeleon_workloads::traffic::FlowGen;

/// Collect a profile by running instrumented traffic, then optimize with
/// it and compare measured mean latency before/after on identical
/// traffic.
fn measure_improvement(
    g: &pipeleon_ir::ProgramGraph,
    params: &CostParams,
    mut traffic: impl FnMut(u64) -> Vec<pipeleon_sim::Packet>,
) -> (f64, f64) {
    let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 1);
    nic.measure(traffic(1));
    let profile = nic.take_profile();
    nic.set_instrumentation(false, 1);
    let before = nic.measure(traffic(2)).mean_latency_ns;

    let optimizer = Optimizer::new(CostModel::new(params.clone())).esearch();
    let outcome = optimizer
        .optimize(g, &profile, ResourceLimits::unlimited())
        .unwrap();
    let applied = apply_plan(g, &outcome.plan, &optimizer.model, &profile, &optimizer.cfg).unwrap();
    let mut nic = SmartNic::new(applied.graph, params.clone()).unwrap();
    // Warm caches, then measure.
    nic.measure(traffic(3));
    let after = nic.measure(traffic(4)).mean_latency_ns;
    (before, after)
}

#[test]
fn reordering_improves_drop_heavy_acl_pipeline() {
    let p = AclPipeline::build(10, 4);
    let params = CostParams::bluefield2();
    let (before, after) = measure_improvement(&p.graph, &params, |seed| {
        p.traffic(&[0.02, 0.02, 0.02, 0.75], 2000, seed)
            .batch(15_000)
    });
    assert!(
        after < before * 0.8,
        "expected >20% latency cut: before={before:.0} after={after:.0}"
    );
}

#[test]
fn caching_improves_locality_heavy_dash_pipeline() {
    let d = DashRouting::build();
    let params = CostParams::agilio_cx();
    let (before, after) = measure_improvement(&d.graph, &params, |seed| {
        d.traffic(&[0.05, 0.05, 0.05], 64, 1.2, seed).batch(15_000)
    });
    assert!(
        after < before,
        "expected improvement: before={before:.0} after={after:.0}"
    );
}

#[test]
fn linear_exact_pipeline_benefits_from_caching() {
    use pipeleon_ir::MatchKind;
    use pipeleon_workloads::scenarios::linear_tables;
    let (g, ids) = linear_tables(12, MatchKind::Ternary, 1, 4);
    let params = CostParams::bluefield2();
    let fields: Vec<_> = (0..4).map(pipeleon_ir::FieldRef).collect();
    let _ = ids;
    let (before, after) = measure_improvement(&g, &params, |seed| {
        FlowGen::new(g.fields.len(), fields.clone(), 200, seed).batch(15_000)
    });
    assert!(
        after < before * 0.7,
        "expected >30% latency cut from caching: before={before:.0} after={after:.0}"
    );
}

#[test]
fn controller_beats_static_baseline_across_phase_changes() {
    let p = AclPipeline::build(8, 4);
    let params = CostParams::bluefield2();
    let mut static_nic = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
    let mut nic = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 64);
    let mut controller = Controller::new(
        SimTarget::live(nic),
        p.graph.clone(),
        Optimizer::new(CostModel::new(params)),
        ControllerConfig::default(),
    )
    .unwrap();

    let phases = [[0.7, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.7]];
    let mut static_total = 0.0;
    let mut managed_total = 0.0;
    for (pi, rates) in phases.iter().enumerate() {
        for w in 0..4 {
            let seed = (pi * 10 + w) as u64;
            let batch = p.traffic(rates, 1000, seed).batch(10_000);
            static_total += static_nic.measure(batch.clone()).throughput_gbps;
            managed_total += controller.target.nic.measure(batch).throughput_gbps;
            controller.tick().unwrap();
        }
    }
    assert!(
        managed_total > static_total * 1.05,
        "managed {managed_total:.1} vs static {static_total:.1}"
    );
    assert!(controller.reconfig_count >= 2);
}

#[test]
fn resource_limits_bound_plan_costs() {
    let d = DashRouting::build();
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(d.graph.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 1);
    let mut gen = d.traffic(&[0.1, 0.1, 0.1], 100, 1.0, 5);
    nic.measure(gen.batch(10_000));
    let profile = nic.take_profile();
    let optimizer = Optimizer::new(CostModel::new(params)).esearch();
    for (mem, upd) in [(1e4, 1e3), (1e6, 1e5), (0.0, 0.0)] {
        let outcome = optimizer
            .optimize(&d.graph, &profile, ResourceLimits::new(mem, upd))
            .unwrap();
        assert!(
            outcome.plan.total_mem <= mem + 1e-9,
            "mem {} > budget {mem}",
            outcome.plan.total_mem
        );
        assert!(
            outcome.plan.total_update <= upd + 1e-9,
            "upd {} > budget {upd}",
            outcome.plan.total_update
        );
    }
}

#[test]
fn bigger_budgets_never_reduce_estimated_gain() {
    let d = DashRouting::build();
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(d.graph.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 1);
    let mut gen = d.traffic(&[0.3, 0.1, 0.1], 100, 1.0, 5);
    nic.measure(gen.batch(10_000));
    let profile = nic.take_profile();
    let optimizer = Optimizer::new(CostModel::new(params)).esearch();
    let mut prev = -1.0;
    for mem in [0.0, 1e4, 1e5, 1e6, 1e8] {
        let outcome = optimizer
            .optimize(&d.graph, &profile, ResourceLimits::new(mem, 1e9))
            .unwrap();
        assert!(
            outcome.est_gain_ns >= prev - 1e-6,
            "gain dropped from {prev} to {} at mem budget {mem}",
            outcome.est_gain_ns
        );
        prev = outcome.est_gain_ns;
    }
}

#[test]
fn cost_model_predictions_track_simulator() {
    // Fig. 5-style: model-predicted vs simulator-measured latency must
    // correlate strongly across program shapes.
    use pipeleon_cost::{Calibrator, RuntimeProfile};
    let params = CostParams::bluefield2();
    let model = CostModel::new(params.clone());
    let profile = RuntimeProfile::empty();
    let cal = Calibrator::default();
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    for n in [5usize, 10, 20, 30] {
        let g = cal.exact_program(n, 2);
        predicted.push(model.expected_latency(&g, &profile));
        let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
        let packets: Vec<_> = (0..2000)
            .map(|i| {
                let mut p = pipeleon_sim::Packet::new(&g.fields);
                p.set(g.fields.get("key").unwrap(), i % 50);
                p
            })
            .collect();
        measured.push(nic.measure(packets).mean_latency_ns);
    }
    // Pearson correlation > 0.99.
    let n = predicted.len() as f64;
    let mx = predicted.iter().sum::<f64>() / n;
    let my = measured.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in predicted.iter().zip(&measured) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    let r = sxy / (sxx * syy).sqrt();
    assert!(r > 0.99, "correlation {r}");
}
