//! Group knapsack over (memory, update-rate) budgets (§4.2, Appendix A.1).
//!
//! Each pipelet is a group contributing at most one candidate; we maximize
//! total gain subject to two additive budgets. Budgets are discretized
//! into `RESOLUTION` units (ceiling on costs, so the chosen plan never
//! exceeds the real budget).

use crate::config::ResourceLimits;
use crate::plan::{Candidate, GlobalPlan};

/// Discretization steps per budget dimension.
pub const RESOLUTION: usize = 64;

/// Selects at most one candidate per group maximizing total gain within
/// `limits`. `groups` maps group key → candidate list (any order).
///
/// With unlimited budgets this degenerates to picking each group's best
/// candidate. Infeasible candidates (cost above the whole budget) are
/// skipped.
pub fn solve<G: AsRef<[Candidate]>>(groups: &[G], limits: ResourceLimits) -> GlobalPlan {
    // Fast path: unconstrained.
    if limits.memory_bytes.is_infinite() && limits.update_rate.is_infinite() {
        let mut plan = GlobalPlan::default();
        for g in groups {
            if let Some(best) = g
                .as_ref()
                .iter()
                .max_by(|a, b| a.gain.partial_cmp(&b.gain).expect("finite gains"))
            {
                if best.gain > 0.0 {
                    plan.total_gain += best.gain;
                    plan.total_mem += best.mem_cost;
                    plan.total_update += best.update_cost;
                    plan.choices.push(best.clone());
                }
            }
        }
        return plan;
    }

    // A cost in units of `budget / RESOLUTION`: every cost is 0 units of
    // an infinite budget, and only a zero cost fits a zero budget.
    let quantize = |cost: f64, budget: f64| -> Option<usize> {
        if cost <= 0.0 || budget.is_infinite() {
            return Some(0);
        }
        if budget <= 0.0 {
            return None;
        }
        let q = (cost / (budget / RESOLUTION as f64)).ceil() as usize;
        (q <= RESOLUTION).then_some(q)
    };
    let (mem_budget, upd_budget) = (limits.memory_bytes, limits.update_rate);

    let m_dim = RESOLUTION + 1;
    let e_dim = RESOLUTION + 1;
    // dp[m][e] = best gain using ≤ m memory units and ≤ e update units.
    let mut dp = vec![vec![0.0f64; e_dim]; m_dim];
    // choice[group][m][e] = Option<candidate index> picked at this cell.
    let mut choices: Vec<Vec<Vec<Option<usize>>>> = Vec::with_capacity(groups.len());

    for group in groups {
        let mut next = dp.clone();
        let mut choice = vec![vec![None; e_dim]; m_dim];
        for (ci, cand) in group.as_ref().iter().enumerate() {
            if cand.gain <= 0.0 {
                continue;
            }
            let (Some(qm), Some(qe)) = (
                quantize(cand.mem_cost, mem_budget),
                quantize(cand.update_cost, upd_budget),
            ) else {
                continue;
            };
            for m in qm..m_dim {
                for e in qe..e_dim {
                    let candidate_gain = dp[m - qm][e - qe] + cand.gain;
                    if candidate_gain > next[m][e] {
                        next[m][e] = candidate_gain;
                        choice[m][e] = Some(ci);
                    }
                }
            }
        }
        dp = next;
        choices.push(choice);
    }

    // Reconstruct from the full-budget cell.
    let mut plan = GlobalPlan::default();
    let (mut m, mut e) = (RESOLUTION, RESOLUTION);
    for gi in (0..groups.len()).rev() {
        if let Some(ci) = choices[gi][m][e] {
            let cand = &groups[gi].as_ref()[ci];
            plan.total_gain += cand.gain;
            plan.total_mem += cand.mem_cost;
            plan.total_update += cand.update_cost;
            plan.choices.push(cand.clone());
            let qm = quantize(cand.mem_cost, mem_budget).expect("was feasible");
            let qe = quantize(cand.update_cost, upd_budget).expect("was feasible");
            m -= qm;
            e -= qe;
        }
    }
    plan.choices.reverse();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::NodeId;

    fn cand(pipelet: usize, gain: f64, mem: f64, upd: f64) -> Candidate {
        Candidate {
            pipelet,
            order: vec![NodeId(pipelet as u32)],
            segments: Vec::new(),
            gain,
            mem_cost: mem,
            update_cost: upd,
            group_branch: None,
        }
    }

    #[test]
    fn unconstrained_picks_best_per_group() {
        let groups = vec![
            vec![cand(0, 10.0, 1e9, 1e9), cand(0, 5.0, 0.0, 0.0)],
            vec![cand(1, 3.0, 1e12, 0.0)],
        ];
        let plan = solve(&groups, ResourceLimits::unlimited());
        assert_eq!(plan.choices.len(), 2);
        assert!((plan.total_gain - 13.0).abs() < 1e-9);
    }

    #[test]
    fn budget_forces_cheaper_choice() {
        let groups = vec![vec![cand(0, 10.0, 1000.0, 0.0), cand(0, 6.0, 100.0, 0.0)]];
        // Budget below the expensive option.
        let plan = solve(&groups, ResourceLimits::new(500.0, 1000.0));
        assert_eq!(plan.choices.len(), 1);
        assert!((plan.total_gain - 6.0).abs() < 1e-9);
        assert_eq!(plan.choices[0].mem_cost, 100.0);
    }

    /// An infinite budget in one dimension prices every cost in it at 0
    /// units; it is not read as a zero budget.
    #[test]
    fn an_infinite_budget_in_one_dimension_fits_every_cost() {
        let groups = vec![vec![cand(0, 10.0, 100.0, 5.0)]];
        for limits in [
            ResourceLimits::new(f64::INFINITY, 1e9),
            ResourceLimits::new(1e9, f64::INFINITY),
        ] {
            let plan = solve(&groups, limits);
            assert_eq!(plan.choices.len(), 1, "{limits:?}");
        }
        // A zero budget still fits only zero costs.
        let plan = solve(&groups, ResourceLimits::new(f64::INFINITY, 0.0));
        assert!(plan.choices.is_empty());
    }

    #[test]
    fn budget_split_across_groups_is_optimal() {
        // Two groups; budget fits (A-cheap + B-expensive) or (A-expensive)
        // alone. Optimal: 7 + 8 = 15 > 12.
        let groups = vec![
            vec![cand(0, 12.0, 900.0, 0.0), cand(0, 7.0, 300.0, 0.0)],
            vec![cand(1, 8.0, 600.0, 0.0)],
        ];
        let plan = solve(&groups, ResourceLimits::new(1000.0, 1000.0));
        assert!((plan.total_gain - 15.0).abs() < 1e-9, "{plan:?}");
        assert!(plan.total_mem <= 1000.0);
    }

    #[test]
    fn knapsack_matches_brute_force_on_random_instances() {
        // Exhaustive comparison on small instances. Costs are multiples of
        // the unit so discretization is exact.
        let mut x: u64 = 12345;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        for trial in 0..30 {
            let limits = ResourceLimits::new(640.0, 640.0); // unit = 10
            let n_groups = 1 + (rng() % 3) as usize;
            let groups: Vec<Vec<Candidate>> = (0..n_groups)
                .map(|g| {
                    (0..(1 + rng() % 3) as usize)
                        .map(|_| {
                            cand(
                                g,
                                (rng() % 100) as f64 + 1.0,
                                ((rng() % 64) * 10) as f64,
                                ((rng() % 64) * 10) as f64,
                            )
                        })
                        .collect()
                })
                .collect();
            let plan = solve(&groups, limits);
            // Brute force over all selections (≤ 4^3).
            let mut best = 0.0f64;
            let mut stack: Vec<(usize, f64, f64, f64)> = vec![(0, 0.0, 0.0, 0.0)];
            while let Some((gi, gain, mem, upd)) = stack.pop() {
                if gi == groups.len() {
                    if gain > best {
                        best = gain;
                    }
                    continue;
                }
                stack.push((gi + 1, gain, mem, upd));
                for c in &groups[gi] {
                    let (m2, u2) = (mem + c.mem_cost, upd + c.update_cost);
                    if m2 <= limits.memory_bytes && u2 <= limits.update_rate {
                        stack.push((gi + 1, gain + c.gain, m2, u2));
                    }
                }
            }
            assert!(
                (plan.total_gain - best).abs() < 1e-6,
                "trial {trial}: dp={} brute={best}",
                plan.total_gain
            );
        }
    }

    #[test]
    fn zero_budget_only_allows_free_candidates() {
        let groups = vec![vec![cand(0, 10.0, 50.0, 0.0), cand(0, 2.0, 0.0, 0.0)]];
        let plan = solve(&groups, ResourceLimits::new(0.0, 0.0));
        assert_eq!(plan.choices.len(), 1);
        assert!((plan.total_gain - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_groups_yield_empty_plan() {
        let plan = solve::<Vec<Candidate>>(&[], ResourceLimits::unlimited());
        assert!(plan.is_empty());
        let plan = solve(&[vec![]], ResourceLimits::new(10.0, 10.0));
        assert!(plan.is_empty());
    }
}
