//! Counter-map fidelity (§4.1.2): profiles collected on the *optimized*
//! layout, translated back through the counter map, must match profiles
//! collected on the *original* layout for the same traffic — otherwise the
//! next optimization round would chase phantom hotspots.

use pipeleon::{apply_plan, Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_sim::SmartNic;
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::synth::{synthesize, SynthConfig};
use pipeleon_workloads::traffic::FlowGen;

/// Compares two original-space profiles' per-action probabilities and
/// drop-relevant mass on every original table.
fn assert_profiles_close(
    g: &pipeleon_ir::ProgramGraph,
    a: &RuntimeProfile,
    b: &RuntimeProfile,
    tol: f64,
) {
    for (n, _) in g.tables() {
        let pa = a.action_probs(g, n.id);
        let pb = b.action_probs(g, n.id);
        // Tables that saw traffic in either run must agree on action
        // distributions (cache replays keep original counters alive).
        let seen_a: u64 = (0..pa.len()).map(|i| a.action_count(n.id, i)).sum();
        let seen_b: u64 = (0..pb.len()).map(|i| b.action_count(n.id, i)).sum();
        if seen_a < 200 || seen_b < 200 {
            continue; // too little traffic for a stable distribution
        }
        for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "table {} action {i}: original {x:.3} vs translated {y:.3}",
                n.name()
            );
        }
    }
}

#[test]
fn translated_profiles_match_original_layout_profiles() {
    let params = CostParams::emulated_nic();
    for seed in 0..6u64 {
        let g = synthesize(&SynthConfig {
            pipelets: 5,
            pipelet_len: 3,
            entries_per_table: 6,
            drop_fraction: 0.3,
            seed: seed * 11 + 1,
            ..SynthConfig::default()
        });
        // Plan from a synthetic profile, then measure real traffic on both
        // layouts.
        let plan_profile = random_profile(&g, &ProfileSynthConfig::default(), seed);
        let optimizer =
            Optimizer::new(CostModel::new(params.clone())).with_config(OptimizerConfig {
                top_k_fraction: 1.0,
                ..OptimizerConfig::default()
            });
        let outcome = optimizer
            .optimize(&g, &plan_profile, ResourceLimits::unlimited())
            .unwrap();
        let applied = apply_plan(
            &g,
            &outcome.plan,
            &optimizer.model,
            &plan_profile,
            &optimizer.cfg,
        )
        .unwrap();

        let traffic = |s: u64| {
            let fields: Vec<_> = g.fields.iter().map(|(r, _)| r).collect();
            FlowGen::new(g.fields.len(), fields, 40, s).batch(12_000)
        };
        let mut nic_orig = SmartNic::new(g.clone(), params.clone()).unwrap();
        nic_orig.set_instrumentation(true, 1);
        nic_orig.measure(traffic(7));
        let orig_profile = nic_orig.take_profile();

        let mut nic_opt = SmartNic::new(applied.graph.clone(), params.clone()).unwrap();
        nic_opt.set_instrumentation(true, 1);
        nic_opt.measure(traffic(7));
        let translated = applied.counter_map.translate(&nic_opt.take_profile());

        assert_profiles_close(&g, &orig_profile, &translated, 0.02);
    }
}

#[test]
fn translated_branch_counters_survive() {
    // Branch edges are never synthetic; their counters must pass through.
    let params = CostParams::emulated_nic();
    let g = synthesize(&SynthConfig {
        pipelets: 6,
        pipelet_len: 2,
        seed: 5,
        ..SynthConfig::default()
    });
    let plan_profile = random_profile(&g, &ProfileSynthConfig::default(), 2);
    let optimizer = Optimizer::new(CostModel::new(params.clone())).esearch();
    let outcome = optimizer
        .optimize(&g, &plan_profile, ResourceLimits::unlimited())
        .unwrap();
    let applied = apply_plan(
        &g,
        &outcome.plan,
        &optimizer.model,
        &plan_profile,
        &optimizer.cfg,
    )
    .unwrap();
    let mut nic = SmartNic::new(applied.graph.clone(), params).unwrap();
    nic.set_instrumentation(true, 1);
    let fields: Vec<_> = g.fields.iter().map(|(r, _)| r).collect();
    let mut gen = FlowGen::new(g.fields.len(), fields, 64, 3);
    nic.measure(gen.batch(8_000));
    let translated = applied.counter_map.translate(&nic.take_profile());
    let total_edges: u64 = translated.edges().map(|(_, c)| c).sum();
    // Branches exist in these programs and received traffic.
    let branches = g.iter_nodes().filter(|n| n.as_branch().is_some()).count();
    assert!(branches > 0);
    assert!(total_edges > 0, "branch counters lost in translation");
    // No synthetic node leaks into the translated profile.
    for ((node, _), _) in translated.actions() {
        assert!(
            g.node(node).is_some(),
            "translated profile references node {node} absent from the original"
        );
    }
}
