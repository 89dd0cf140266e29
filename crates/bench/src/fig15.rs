//! Figure 15: pipelet-group (cross-pipelet) optimization benefit.
//!
//! Programs dominated by short (one-table) pipelets restrict what
//! per-pipelet optimization can do; letting neighboring pipelets under a
//! common branch be optimized jointly (a group cache) recovers more
//! latency.

use crate::{cells, pct, push_cdf, Table};
use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::synth::{synthesize_diamonds, MatchMix, SynthConfig};

const PROGRAMS: u64 = 60;

const VARIANTS: [(&str, bool); 2] = [("without_group", false), ("with_group", true)];

/// Estimated latency reduction (%) per program at top-k fraction `k`.
fn reductions(k: f64, groups: bool) -> Vec<f64> {
    let model = CostModel::new(CostParams::emulated_nic());
    (0..PROGRAMS)
        .map(|seed| {
            let g = synthesize_diamonds(&SynthConfig {
                pipelets: 11,
                pipelet_len: 1, // short pipelets dominate
                drop_fraction: 0.1,
                match_mix: MatchMix {
                    exact: 0.3,
                    lpm: 0.3,
                    ternary: 0.4,
                },
                seed: seed * 37 + 5,
                ..SynthConfig::default()
            });
            let stable = ProfileSynthConfig {
                updating_fraction: 0.0, // stable entries: caches stay valid
                ..ProfileSynthConfig::default()
            };
            let mut profile = random_profile(&g, &stable, seed * 7 + 2);
            // Locality so caches pay off.
            for (n, _) in g.tables() {
                profile.set_distinct_keys(n.id, 16);
            }
            let outcome = Optimizer::new(model.clone())
                .with_config(OptimizerConfig {
                    top_k_fraction: k,
                    enable_groups: groups,
                    ..OptimizerConfig::default()
                })
                .optimize(&g, &profile, ResourceLimits::unlimited())
                .expect("optimizes");
            // The paper computes Fig. 15 with the cost model, which prices
            // caches at their estimated hit rate.
            let before = model.expected_latency(&g, &profile);
            (100.0 * outcome.est_gain_ns / before).max(0.0)
        })
        .collect()
}

/// (a) mean latency reduction with/without groups per top-k.
pub fn mean_reduction() -> Table {
    let mut t = Table::new(
        "Figure 15(a): average latency reduction, short-pipelet programs",
        "k variant mean_latency_reduction_pct",
    );
    for k in [0.4, 0.5, 0.6] {
        for (variant, groups) in VARIANTS {
            let r = reductions(k, groups);
            let mean = r.iter().sum::<f64>() / r.len() as f64;
            t.push(cells![pct(k), variant, mean]);
        }
    }
    t
}

/// (b) the per-program CDF at k = 50 %.
pub fn reduction_cdf() -> Table {
    let mut t = Table::new(
        "Figure 15(b): per-program CDF at k=50%",
        "variant latency_reduction_pct cdf",
    );
    for (variant, groups) in VARIANTS {
        push_cdf(&mut t, &[variant], &reductions(0.5, groups), 15);
    }
    t
}
