//! Criterion micro-benchmarks of the optimizer's building blocks: the
//! full top-k search vs. ESearch, pipelet partitioning, hot-pipelet
//! scoring, and plan application.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipeleon::hotspot::score_pipelets;
use pipeleon::pipelet::partition;
use pipeleon::{apply_plan, Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::scenarios::LoadBalancer;
use pipeleon_workloads::synth::{synthesize, SynthConfig};

fn bench_optimize(c: &mut Criterion) {
    let model = CostModel::new(CostParams::emulated_nic());
    let mut group = c.benchmark_group("optimize");
    group.sample_size(20);
    for (label, pn, pl) in [("pn12_pl2", 12usize, 2usize), ("pn15_pl3", 15, 3)] {
        let g = synthesize(&SynthConfig {
            pipelets: pn,
            pipelet_len: pl,
            seed: 7,
            ..SynthConfig::default()
        });
        let profile = random_profile(&g, &ProfileSynthConfig::default(), 9);
        for k in [0.2f64, 1.0] {
            let optimizer = Optimizer::new(model.clone()).with_config(OptimizerConfig {
                top_k_fraction: k,
                ..OptimizerConfig::default()
            });
            group.bench_with_input(
                BenchmarkId::new(label, format!("k{}", (k * 100.0) as u32)),
                &k,
                |b, _| {
                    b.iter(|| {
                        optimizer
                            .optimize(&g, &profile, ResourceLimits::unlimited())
                            .unwrap()
                            .est_gain_ns
                    })
                },
            );
        }
    }
    // One 12-table pipelet: the shape `pipeleon-perf`'s `control_loop`
    // searches every re-optimising tick (2 orders × the 1,024-leaf cap).
    let lb = LoadBalancer::build().graph;
    let profile = random_profile(&lb, &ProfileSynthConfig::default(), 9);
    let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
    group.bench_function("lb_12x1", |b| {
        b.iter(|| {
            optimizer
                .optimize(&lb, &profile, ResourceLimits::unlimited())
                .unwrap()
                .est_gain_ns
        })
    });
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let model = CostModel::new(CostParams::emulated_nic());
    let g = synthesize(&SynthConfig {
        pipelets: 15,
        pipelet_len: 3,
        seed: 3,
        ..SynthConfig::default()
    });
    let profile = random_profile(&g, &ProfileSynthConfig::default(), 4);
    c.bench_function("partition", |b| b.iter(|| partition(&g, 24).len()));
    let pipelets = partition(&g, 24);
    c.bench_function("score_pipelets", |b| {
        b.iter(|| score_pipelets(&model, &g, &profile, &pipelets).len())
    });
    let optimizer = Optimizer::new(model.clone()).esearch();
    let outcome = optimizer
        .optimize(&g, &profile, ResourceLimits::unlimited())
        .unwrap();
    let cfg = OptimizerConfig::default();
    c.bench_function("apply_plan", |b| {
        b.iter(|| {
            apply_plan(&g, &outcome.plan, &model, &profile, &cfg)
                .unwrap()
                .graph
                .num_nodes()
        })
    });
    c.bench_function("expected_latency", |b| {
        b.iter(|| model.expected_latency(&g, &profile))
    });
}

criterion_group!(benches, bench_optimize, bench_components);
criterion_main!(benches);
