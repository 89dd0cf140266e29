//! Figures 18 & 19 (Appendix A.3): traffic distributions by entropy and
//! ESearch effectiveness across them.

use crate::{cells, pipelet_shares, push_cdf, ranked_profiles, Table, ENTROPY_LEVELS};
use pipeleon::{Optimizer, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_workloads::synth::{synthesize, SynthConfig};

fn program(seed: u64) -> pipeleon_ir::ProgramGraph {
    synthesize(&SynthConfig {
        pipelets: 12,
        pipelet_len: 2,
        seed,
        ..SynthConfig::default()
    })
}

/// Figure 18: one 12-pipelet program's pipelet traffic share at the
/// 10th/50th/90th entropy percentiles of 2000 random profiles.
pub fn distributions() -> Table {
    let mut t = Table::new(
        "Figure 18: pipelet traffic share per entropy level",
        "entropy_pct entropy_bits pipelet_id traffic_share",
    );
    let model = CostModel::new(CostParams::emulated_nic());
    let g = program(424242);
    let (ranked, picks) = ranked_profiles(&model, &g, 2000, 0);
    for (name, idx) in ENTROPY_LEVELS.into_iter().zip(picks) {
        let (e, p) = &ranked[idx];
        let shares = pipelet_shares(&model, &g, p);
        let total: f64 = shares.iter().sum();
        for (i, s) in shares.iter().enumerate() {
            t.push(cells![name, *e, i + 1, s / total.max(1e-12)]);
        }
    }
    t
}

/// Figure 19: CDF of `ESearch throughput / original throughput` across
/// 50 programs for the three entropy levels (each program's 150
/// random profiles ranked). The throughput ratio is the cost-model
/// latency ratio, which is what the emulated throughput is proportional
/// to below line rate. Notes: the mean ratio per level,
/// `"mean_ratio_{level}"`.
pub fn esearch_gains() -> Table {
    let mut t = Table::new(
        "Figure 19: ESearch improvement CDF per entropy level",
        "entropy_pct esearch_improvement_ratio cdf",
    );
    let model = CostModel::new(CostParams::emulated_nic());
    let mut ratios = vec![Vec::new(); 3];
    for seed in 0..50 {
        let g = program(seed * 97 + 11);
        let (profiles, picks) = ranked_profiles(&model, &g, 150, seed * 7000);
        for (level, idx) in picks.into_iter().enumerate() {
            let p = &profiles[idx].1;
            let outcome = Optimizer::new(model.clone())
                .esearch()
                .optimize(&g, p, ResourceLimits::unlimited())
                .expect("optimizes");
            // The plan's estimated gain prices caches at their estimated
            // hit rates (the cost model cannot re-price a fresh cache from
            // counters it does not have yet).
            let before = model.expected_latency(&g, p);
            let after = (before - outcome.est_gain_ns).max(1e-9);
            ratios[level].push(before / after);
        }
    }
    for (level, name) in ENTROPY_LEVELS.iter().enumerate() {
        push_cdf(&mut t, &[name], &ratios[level], 12);
        let mean = ratios[level].iter().sum::<f64>() / ratios[level].len() as f64;
        t.note(format!("mean_ratio_{name}"), mean);
    }
    t
}
