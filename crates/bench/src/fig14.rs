//! Figure 14: top-k effectiveness relative to exhaustive search.

use crate::{pct, push_cdf, ranked_profiles, Table, ENTROPY_LEVELS};
use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_workloads::synth::{synthesize, SynthConfig};

/// The top-k fractions compared with ESearch.
pub const KS: [f64; 4] = [0.2, 0.3, 0.4, 0.5];

/// For each of 40 synthesized programs, 120 random profiles are ranked by the
/// entropy of the pipelet traffic distribution (Appendix A.3); the
/// 10th/50th/90th-percentile-entropy profiles are optimized with top-k ∈
/// {20,30,40,50}% and with ESearch, and the gain ratio
/// `topk_gain / esearch_gain` is reported as a CDF over programs.
pub fn topk_quality() -> Table {
    let mut t = Table::new(
        "Figure 14: top-k gain / ESearch gain CDF at 10th/50th/90th entropy",
        "entropy_pct k gain_ratio cdf",
    );
    let model = CostModel::new(CostParams::emulated_nic());
    // ratios[entropy_level][k] -> samples over programs.
    let mut ratios = vec![vec![Vec::new(); KS.len()]; 3];
    for seed in 0..40 {
        let g = synthesize(&SynthConfig {
            pipelets: 12,
            pipelet_len: 2,
            seed: seed * 101 + 7,
            ..SynthConfig::default()
        });
        let (profiles, picks) = ranked_profiles(&model, &g, 120, seed * 1009);
        for (level, idx) in picks.into_iter().enumerate() {
            let profile = &profiles[idx].1;
            let gain = |cfg: OptimizerConfig| {
                Optimizer::new(model.clone())
                    .with_config(cfg)
                    .optimize(&g, profile, ResourceLimits::unlimited())
                    .expect("optimizes")
                    .est_gain_ns
            };
            let esearch_gain = gain(OptimizerConfig {
                top_k_fraction: 1.0,
                ..OptimizerConfig::default()
            });
            if esearch_gain <= 1e-9 {
                continue;
            }
            for (ki, &k) in KS.iter().enumerate() {
                let topk_gain = gain(OptimizerConfig {
                    top_k_fraction: k,
                    ..OptimizerConfig::default()
                });
                ratios[level][ki].push((topk_gain / esearch_gain).min(1.0));
            }
        }
    }
    for (level, name) in ENTROPY_LEVELS.iter().enumerate() {
        for (ki, &k) in KS.iter().enumerate() {
            push_cdf(&mut t, &[name, &pct(k)], &ratios[level][ki], 10);
        }
    }
    t
}
