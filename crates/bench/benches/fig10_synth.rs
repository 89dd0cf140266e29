//! Figure 10: optimization benefit on synthesized single-pipelet programs
//! across three workload categories — heavy packet drops, small static
//! tables, high traffic locality — by pipelet length (1–2, 2–3, 3–4),
//! attributed per technique. Latency reduction is computed with the cost
//! model, as in the paper ("average optimization performance computed by
//! the cost model"). ~100 programs per category.

use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::ProgramGraph;
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};

#[derive(Clone, Copy)]
enum Category {
    HeavyDrop,
    SmallStatic,
    HighLocality,
}

impl Category {
    fn name(self) -> &'static str {
        match self {
            Category::HeavyDrop => "heavy_packet_drop",
            Category::SmallStatic => "small_static_tables",
            Category::HighLocality => "high_traffic_locality",
        }
    }

    /// Synthesizes a single-pipelet program of the category.
    fn program(self, pl: usize, seed: u64) -> ProgramGraph {
        let base = SynthConfig {
            pipelets: 1,
            pipelet_len: pl,
            seed,
            ..SynthConfig::default()
        };
        let cfg = match self {
            Category::HeavyDrop => SynthConfig {
                drop_fraction: 0.8,
                write_fraction: 0.05,
                match_mix: MatchMix::default_mix(),
                ..base
            },
            Category::SmallStatic => SynthConfig {
                drop_fraction: 0.0,
                write_fraction: 0.05,
                entries_per_table: 3,
                match_mix: MatchMix::all_exact(),
                ..base
            },
            Category::HighLocality => SynthConfig {
                drop_fraction: 0.1,
                write_fraction: 0.05,
                match_mix: MatchMix {
                    exact: 0.2,
                    lpm: 0.3,
                    ternary: 0.5,
                },
                ..base
            },
        };
        synthesize(&cfg)
    }

    /// Synthesizes the category's runtime profile.
    fn profile(self, g: &ProgramGraph, seed: u64) -> RuntimeProfile {
        match self {
            Category::SmallStatic => {
                // All traffic hits installed entries; zero churn.
                let mut p = RuntimeProfile::empty();
                p.total_packets = 1_000_000;
                for (n, _) in g.tables() {
                    p.record_action(n.id, 0, 1_000_000);
                }
                p
            }
            Category::HighLocality => {
                // Few distinct keys per table and stable entries ->
                // caches hit and stay valid.
                let mut p = random_profile(
                    g,
                    &ProfileSynthConfig {
                        updating_fraction: 0.0,
                        ..ProfileSynthConfig::default()
                    },
                    seed,
                );
                for (n, _) in g.tables() {
                    p.set_distinct_keys(n.id, 8);
                }
                p
            }
            Category::HeavyDrop => {
                // Dropping actions dominate where they exist.
                let mut p = random_profile(g, &ProfileSynthConfig::default(), seed);
                for (n, t) in g.tables() {
                    for (i, a) in t.actions.iter().enumerate() {
                        p.record_action(n.id, i, if a.drops() { 900_000 } else { 50_000 });
                    }
                }
                p
            }
        }
    }
}

fn main() {
    banner(
        "Figure 10",
        "latency reduction on synthesized programs by category, pipelet length, technique",
    );
    header(&[
        "category",
        "pipelet_len",
        "technique",
        "mean_latency_reduction_pct",
        "programs",
    ]);
    let params = CostParams::emulated_nic();
    let model = CostModel::new(params);
    type Tweak = fn(&mut OptimizerConfig);
    let techniques: [(&str, Tweak); 3] = [
        ("reordering", |c| {
            c.enable_cache = false;
            c.enable_merge = false;
        }),
        ("merging", |c| {
            c.enable_reorder = false;
            c.enable_cache = false;
        }),
        ("caching", |c| {
            c.enable_reorder = false;
            c.enable_merge = false;
        }),
    ];
    for cat in [
        Category::HeavyDrop,
        Category::SmallStatic,
        Category::HighLocality,
    ] {
        for (pl_label, pl) in [("1~2", 2usize), ("2~3", 3), ("3~4", 4)] {
            for (tech, tweak) in &techniques {
                let mut total = 0.0;
                let mut n = 0usize;
                // ~33 programs per (category, PL) bucket => ~100/category.
                for seed in 0..33u64 {
                    let g = cat.program(pl, seed * 13 + pl as u64);
                    let profile = cat.profile(&g, seed * 7 + 1);
                    let mut cfg = OptimizerConfig {
                        top_k_fraction: 1.0,
                        enable_groups: false,
                        ..OptimizerConfig::default()
                    };
                    tweak(&mut cfg);
                    let optimizer = Optimizer::new(model.clone()).with_config(cfg);
                    let outcome = optimizer
                        .optimize(&g, &profile, ResourceLimits::unlimited())
                        .expect("optimizes");
                    // Estimated reduction: caches are priced at their
                    // estimated hit rates (re-evaluating the fresh graph
                    // would price new caches at uninformed uniform priors).
                    let before = model.expected_latency(&g, &profile);
                    total += (outcome.est_gain_ns / before).max(0.0);
                    n += 1;
                }
                row(&[
                    cat.name().into(),
                    pl_label.into(),
                    (*tech).into(),
                    f(100.0 * total / n as f64),
                    n.to_string(),
                ]);
            }
        }
    }
}
