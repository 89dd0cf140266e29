//! Figure 10: optimization benefit on synthesized single-pipelet programs.

use crate::{cells, Table};
use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
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
            write_fraction: 0.05,
            ..SynthConfig::default()
        };
        synthesize(&match self {
            Category::HeavyDrop => SynthConfig {
                drop_fraction: 0.8,
                match_mix: MatchMix::default_mix(),
                ..base
            },
            Category::SmallStatic => SynthConfig {
                drop_fraction: 0.0,
                entries_per_table: 3,
                match_mix: MatchMix::all_exact(),
                ..base
            },
            Category::HighLocality => SynthConfig {
                drop_fraction: 0.1,
                match_mix: MatchMix {
                    exact: 0.2,
                    lpm: 0.3,
                    ternary: 0.5,
                },
                ..base
            },
        })
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
                let cfg = ProfileSynthConfig {
                    updating_fraction: 0.0,
                    ..ProfileSynthConfig::default()
                };
                let mut p = random_profile(g, &cfg, seed);
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

/// Three workload categories — heavy packet drops, small static tables,
/// high traffic locality — by pipelet length (1–2, 2–3, 3–4), attributed
/// per technique: 33 programs per (category, length) bucket, ~100 per
/// category. Latency reduction is computed with the cost model, as in the
/// paper ("average optimization performance computed by the cost model").
pub fn synthesized() -> Table {
    let mut t = Table::new(
        "Figure 10: mean latency reduction by category, pipelet length, technique",
        "category pipelet_len technique mean_latency_reduction_pct programs",
    );
    let model = CostModel::new(CostParams::emulated_nic());
    // Each technique alone: (name, reorder, merge, cache).
    let techniques = [
        ("reordering", true, false, false),
        ("merging", false, true, false),
        ("caching", false, false, true),
    ];
    for cat in [
        Category::HeavyDrop,
        Category::SmallStatic,
        Category::HighLocality,
    ] {
        for (pl_label, pl) in [("1~2", 2usize), ("2~3", 3), ("3~4", 4)] {
            for (tech, enable_reorder, enable_merge, enable_cache) in techniques {
                let mut total = 0.0;
                let programs = 33u64;
                for seed in 0..programs {
                    let g = cat.program(pl, seed * 13 + pl as u64);
                    let profile = cat.profile(&g, seed * 7 + 1);
                    let cfg = OptimizerConfig {
                        top_k_fraction: 1.0,
                        enable_groups: false,
                        enable_reorder,
                        enable_merge,
                        enable_cache,
                        ..OptimizerConfig::default()
                    };
                    let outcome = Optimizer::new(model.clone())
                        .with_config(cfg)
                        .optimize(&g, &profile, ResourceLimits::unlimited())
                        .expect("optimizes");
                    // Estimated reduction: caches are priced at their
                    // estimated hit rates (re-evaluating the fresh graph
                    // would price new caches at uninformed uniform priors).
                    let before = model.expected_latency(&g, &profile);
                    total += (outcome.est_gain_ns / before).max(0.0);
                }
                let mean = 100.0 * total / programs as f64;
                t.push(cells![cat.name(), pl_label, tech, mean, programs]);
            }
        }
    }
    t
}
