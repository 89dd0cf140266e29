//! Figure 13: optimization turnaround time vs. top-k.

use crate::{pct, push_cdf, Table};
use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::synth::{synthesize, SynthConfig};

/// The top-k fractions swept; 1.0 is ESearch.
pub const KS: [f64; 4] = [0.2, 0.3, 0.4, 1.0];

/// The label of top-k fraction `k` in this figure's rows and notes.
pub fn k_label(k: f64) -> String {
    if k >= 1.0 {
        "ESearch(100%)".to_string()
    } else {
        pct(k)
    }
}

/// Search-time CDF over `programs` synthesized programs (100 in the
/// paper-size run) per group of pipelet count (PN) and length (PL), per
/// top-k. A host-clock figure: the paper's absolute times are seconds (a
/// Python prototype), ours are milliseconds, so compare the *relative*
/// ordering: time grows with PN, PL and k, with ESearch slowest. Notes:
/// the candidates each (group, k) evaluated in total,
/// `"{group} {k} candidates_evaluated"`, a count that repeats exactly
/// where the times cannot.
pub fn search_times(programs: u64) -> Table {
    let mut t = Table::new(
        "Figure 13: optimization time CDF per top-k and program group (PN, PL)",
        "group k search_time_us cdf",
    );
    let model = CostModel::new(CostParams::emulated_nic());
    let groups = [
        ("PN=12_PL=2", 12usize, 2usize),
        ("PN=13_PL=3", 13, 3),
        ("PN=15_PL=3", 15, 3),
    ];
    for (group, pn, pl) in groups {
        for k in KS {
            let mut times_us = Vec::new();
            let mut evaluated = 0;
            for seed in 0..programs {
                let g = synthesize(&SynthConfig {
                    pipelets: pn,
                    pipelet_len: pl,
                    seed: seed * 31 + pn as u64,
                    ..SynthConfig::default()
                });
                let profile = random_profile(&g, &ProfileSynthConfig::default(), seed * 17 + 3);
                let outcome = Optimizer::new(model.clone())
                    .with_config(OptimizerConfig {
                        top_k_fraction: k,
                        ..OptimizerConfig::default()
                    })
                    .optimize(&g, &profile, ResourceLimits::unlimited())
                    .expect("optimizes");
                times_us.push(outcome.search_time.as_secs_f64() * 1e6);
                evaluated += outcome.candidates_evaluated;
            }
            let label = k_label(k);
            push_cdf(&mut t, &[group, &label], &times_us, 20);
            t.note(
                format!("{group} {label} candidates_evaluated"),
                evaluated as f64,
            );
        }
    }
    t
}
