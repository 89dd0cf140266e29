//! Runtime-profile synthesis and entropy metrics (§5.4.3, Appendix A.3).
//!
//! The paper randomly synthesizes 2000 runtime profiles per program, ranks
//! them by the entropy of the pipelet traffic distribution, and evaluates
//! the top-k optimizer at the 10th/50th/90th entropy percentiles.

use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::{EdgeRef, NodeKind, ProgramGraph};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Configuration for random profile synthesis.
#[derive(Debug, Clone)]
pub struct ProfileSynthConfig {
    /// Total packets the profile represents.
    pub total_packets: u64,
    /// Skew of branch splits: 0 = always 50/50, 1 = arbitrary in `[0,1]`.
    pub branch_skew: f64,
    /// Maximum per-table entry update rate (ops/s); rates are sampled
    /// uniformly in `[0, max)` for a random subset of tables.
    pub max_update_rate: f64,
    /// Fraction of tables given a nonzero update rate.
    pub updating_fraction: f64,
}

impl Default for ProfileSynthConfig {
    fn default() -> Self {
        Self {
            total_packets: 1_000_000,
            branch_skew: 1.0,
            max_update_rate: 100.0,
            updating_fraction: 0.3,
        }
    }
}

/// Synthesizes a random runtime profile for `g`: every branch gets a random
/// split, every table a random action distribution, and a random subset of
/// tables gets entry-update rates.
pub fn random_profile(g: &ProgramGraph, cfg: &ProfileSynthConfig, seed: u64) -> RuntimeProfile {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut p = RuntimeProfile::empty();
    p.total_packets = cfg.total_packets;
    // Node entry counts propagate root->leaves so counters are consistent
    // with a real packet flow.
    let mut inflow = vec![0.0f64; g.id_bound()];
    if let (Some(root), Ok(order)) = (g.root(), g.topo_order()) {
        inflow[root.index()] = cfg.total_packets as f64;
        for id in order {
            let Some(node) = g.node(id) else { continue };
            let flow = inflow[id.index()];
            match &node.kind {
                NodeKind::Branch(_) => {
                    let split = 0.5 + (rng.gen_range(-0.5..0.5) * cfg.branch_skew);
                    let (t, f) = (flow * split, flow * (1.0 - split));
                    p.record_edge(EdgeRef::new(id, 0), t as u64);
                    p.record_edge(EdgeRef::new(id, 1), f as u64);
                    let targets = node.next.targets();
                    if let Some(Some(n)) = targets.first() {
                        inflow[n.index()] += t;
                    }
                    if let Some(Some(n)) = targets.get(1) {
                        inflow[n.index()] += f;
                    }
                }
                NodeKind::Table(t) => {
                    // Random action distribution via exponential weights.
                    let weights: Vec<f64> = (0..t.actions.len())
                        .map(|_| rng.gen_range(0.01..1.0))
                        .collect();
                    let wsum: f64 = weights.iter().sum();
                    let mut survive = 0.0;
                    let targets = node.next.targets();
                    for (i, a) in t.actions.iter().enumerate() {
                        let share = weights[i] / wsum;
                        p.record_action(id, i, (flow * share) as u64);
                        if !a.drops() {
                            match node.next {
                                pipeleon_ir::NextHops::ByAction(_) => {
                                    if let Some(Some(n)) = targets.get(i) {
                                        inflow[n.index()] += flow * share;
                                    }
                                }
                                _ => survive += share,
                            }
                        }
                    }
                    if let pipeleon_ir::NextHops::Always(Some(n)) = node.next {
                        inflow[n.index()] += flow * survive;
                    }
                    if rng.gen_bool(cfg.updating_fraction) {
                        p.set_entry_update_rate(id, rng.gen_range(0.0..cfg.max_update_rate));
                    }
                }
            }
        }
    }
    p
}

/// Shannon entropy (bits) of a traffic-share distribution. Shares are
/// normalized first; zero shares contribute nothing.
pub fn entropy(shares: &[f64]) -> f64 {
    let total: f64 = shares.iter().filter(|s| **s > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    shares
        .iter()
        .filter(|s| **s > 0.0)
        .map(|s| {
            let p = s / total;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthConfig};

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[1.0]), 0.0);
        assert!((entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[0.25; 4]) - 2.0).abs() < 1e-12);
        // Skewed distribution has lower entropy than uniform.
        assert!(entropy(&[0.9, 0.05, 0.05]) < entropy(&[1.0 / 3.0; 3]));
        // Unnormalized input is normalized.
        assert!((entropy(&[2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_profile_is_deterministic_per_seed() {
        let g = synthesize(&SynthConfig::default());
        let cfg = ProfileSynthConfig::default();
        let a = random_profile(&g, &cfg, 7);
        let b = random_profile(&g, &cfg, 7);
        assert_eq!(a, b);
        let c = random_profile(&g, &cfg, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_profile_probabilities_are_consistent() {
        let g = synthesize(&SynthConfig::default());
        let p = random_profile(&g, &ProfileSynthConfig::default(), 3);
        let visits = p.visit_probabilities(&g);
        let root = g.root().unwrap();
        assert!((visits[root.index()] - 1.0).abs() < 1e-9);
        // All probabilities are valid.
        for v in visits {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "bad visit prob {v}");
        }
    }

    #[test]
    fn update_rates_follow_fraction() {
        let g = synthesize(&SynthConfig {
            pipelets: 10,
            pipelet_len: 4,
            ..SynthConfig::default()
        });
        let all = ProfileSynthConfig {
            updating_fraction: 1.0,
            ..ProfileSynthConfig::default()
        };
        let none = ProfileSynthConfig {
            updating_fraction: 0.0,
            ..ProfileSynthConfig::default()
        };
        let p_all = random_profile(&g, &all, 1);
        let p_none = random_profile(&g, &none, 1);
        let total = |p: &pipeleon_cost::RuntimeProfile| p.entry_update_rates.values().sum::<f64>();
        assert!(total(&p_all) > 0.0);
        assert_eq!(total(&p_none), 0.0);
    }

    #[test]
    fn branch_skew_zero_gives_even_splits() {
        let g = synthesize(&SynthConfig {
            pipelets: 6,
            ..SynthConfig::default()
        });
        let cfg = ProfileSynthConfig {
            branch_skew: 0.0,
            ..ProfileSynthConfig::default()
        };
        let p = random_profile(&g, &cfg, 5);
        for n in g.iter_nodes() {
            if matches!(n.kind, NodeKind::Branch(_)) {
                let t = p.edge_count(EdgeRef::new(n.id, 0)) as f64;
                let f = p.edge_count(EdgeRef::new(n.id, 1)) as f64;
                if t + f > 0.0 {
                    assert!((t / (t + f) - 0.5).abs() < 0.01);
                }
            }
        }
    }
}
