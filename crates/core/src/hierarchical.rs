//! Hierarchical-memory table placement (paper §6 future work).
//!
//! When a target exposes a fast on-chip tier (e.g. Netronome SRAM vs.
//! EMEM), promoting the tables that contribute the most key-match latency
//! — weighted by their visit probability — buys the largest speedup per
//! byte. Tables have non-uniform sizes, so this is a 0/1 knapsack over the
//! SRAM capacity; we solve it exactly by dynamic programming over
//! discretized capacity (the same approach as the plan knapsack of §4.2).

use pipeleon_cost::{CostModel, MemoryTier, ResourceModel, RuntimeProfile};
use pipeleon_ir::{NodeId, ProgramGraph};

/// A computed tier assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct TierPlan {
    /// Dense per-node tier (indexed by node id).
    pub tiers: Vec<MemoryTier>,
    /// Tables promoted to SRAM.
    pub promoted: Vec<NodeId>,
    /// SRAM bytes consumed.
    pub sram_used: f64,
    /// Expected latency under this assignment (model units).
    pub expected_latency: f64,
    /// Expected latency with everything in EMEM, for comparison.
    pub baseline_latency: f64,
}

/// Capacity discretization steps for the SRAM knapsack.
const RESOLUTION: usize = 128;

/// Assigns tables to SRAM/EMEM maximizing expected-latency savings within
/// the target's `tiers.sram_capacity_bytes`.
pub fn assign_tiers(model: &CostModel, g: &ProgramGraph, profile: &RuntimeProfile) -> TierPlan {
    let resources = ResourceModel::new(model.params.clone());
    let visits = profile.visit_probabilities(g);
    let capacity = model.params.tiers.sram_capacity_bytes.max(0.0);
    let speed_gain = 1.0 - model.params.tiers.match_scale(MemoryTier::Sram);

    // Candidate tables: (node, latency saving, bytes).
    let mut items: Vec<(NodeId, f64, f64)> = Vec::new();
    for (n, t) in g.tables() {
        let p = visits[n.id.index()];
        let saving = p * model.match_cost(t) * speed_gain;
        let bytes = resources.table_memory_reserved(t);
        if saving > 0.0 && bytes > 0.0 {
            items.push((n.id, saving, bytes));
        }
    }

    let mut tiers = vec![MemoryTier::Emem; g.id_bound()];
    let mut promoted = Vec::new();
    let mut sram_used = 0.0;
    if capacity > 0.0 && !items.is_empty() {
        let unit = capacity / RESOLUTION as f64;
        // dp[c] = best saving using ≤ c capacity units; choice tracking
        // per item for reconstruction.
        let mut dp = vec![0.0f64; RESOLUTION + 1];
        let mut take: Vec<Vec<bool>> = Vec::with_capacity(items.len());
        for &(_, saving, bytes) in &items {
            let w = (bytes / unit).ceil() as usize;
            let mut taken = vec![false; RESOLUTION + 1];
            if w <= RESOLUTION {
                for c in (w..=RESOLUTION).rev() {
                    let candidate = dp[c - w] + saving;
                    if candidate > dp[c] {
                        dp[c] = candidate;
                        taken[c] = true;
                    }
                }
            }
            take.push(taken);
        }
        // Reconstruct.
        let mut c = RESOLUTION;
        for (i, &(id, _, bytes)) in items.iter().enumerate().rev() {
            if take[i][c] {
                tiers[id.index()] = MemoryTier::Sram;
                promoted.push(id);
                sram_used += bytes;
                c -= (bytes / unit).ceil() as usize;
            }
        }
        promoted.reverse();
    }
    let baseline_latency = model.expected_latency(g, profile);
    let expected_latency = model.expected(g, profile, &[], &tiers).latency;
    TierPlan {
        tiers,
        promoted,
        sram_used,
        expected_latency,
        baseline_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};

    /// hot (90% reach, ternary, small) and cold (10%, exact, huge) tables.
    fn fixture() -> (ProgramGraph, NodeId, NodeId, RuntimeProfile) {
        use pipeleon_ir::Condition;
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let mut hot_b = b.table("hot").key(x, MatchKind::Ternary).action_nop("a");
        for m in 0..5u64 {
            hot_b = hot_b.entry(TableEntry::with_priority(
                vec![MatchValue::Ternary {
                    value: m,
                    mask: 0xFF << (8 * m),
                }],
                0,
                m as i32,
            ));
        }
        let hot = hot_b.finish();
        b.set_next(hot, None);
        let mut cold_b = b.table("cold").key(x, MatchKind::Exact).action_nop("a");
        for e in 0..100u64 {
            cold_b = cold_b.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
        }
        let cold = cold_b.finish();
        b.set_next(cold, None);
        let br = b.branch("br", Condition::lt(x, 900), Some(hot), Some(cold));
        let g = b.seal(br).unwrap();
        let mut p = RuntimeProfile::empty();
        p.record_edge(pipeleon_ir::EdgeRef::new(br, 0), 900);
        p.record_edge(pipeleon_ir::EdgeRef::new(br, 1), 100);
        (g, hot, cold, p)
    }

    #[test]
    fn hot_table_is_promoted_first() {
        let (g, hot, cold, prof) = fixture();
        let mut params = CostParams::agilio_cx();
        // Capacity fits only the hot table (5 ways × 5 entries × 32 B).
        params.tiers.sram_capacity_bytes = 1000.0;
        let model = CostModel::new(params);
        let plan = assign_tiers(&model, &g, &prof);
        assert_eq!(plan.promoted, vec![hot]);
        assert_eq!(plan.tiers[hot.index()], MemoryTier::Sram);
        assert_eq!(plan.tiers[cold.index()], MemoryTier::Emem);
        assert!(plan.expected_latency < plan.baseline_latency);
    }

    #[test]
    fn zero_capacity_promotes_nothing() {
        let (g, _, _, prof) = fixture();
        let mut params = CostParams::agilio_cx();
        params.tiers.sram_capacity_bytes = 0.0;
        let model = CostModel::new(params);
        let plan = assign_tiers(&model, &g, &prof);
        assert!(plan.promoted.is_empty());
        assert_eq!(plan.expected_latency, plan.baseline_latency);
    }

    #[test]
    fn large_capacity_promotes_everything() {
        let (g, _, _, prof) = fixture();
        let mut params = CostParams::agilio_cx();
        params.tiers.sram_capacity_bytes = 1e9;
        let model = CostModel::new(params);
        let plan = assign_tiers(&model, &g, &prof);
        assert_eq!(plan.promoted.len(), 2);
    }

    #[test]
    fn more_capacity_never_hurts() {
        let (g, _, _, prof) = fixture();
        let mut prev = f64::INFINITY;
        for cap in [0.0, 500.0, 1000.0, 4000.0, 1e6] {
            let mut params = CostParams::agilio_cx();
            params.tiers.sram_capacity_bytes = cap;
            let model = CostModel::new(params);
            let plan = assign_tiers(&model, &g, &prof);
            assert!(
                plan.expected_latency <= prev + 1e-9,
                "latency rose at capacity {cap}"
            );
            prev = plan.expected_latency;
        }
    }

    #[test]
    fn knapsack_respects_capacity() {
        let (g, _, _, prof) = fixture();
        for cap in [100.0, 1000.0, 3000.0] {
            let mut params = CostParams::agilio_cx();
            params.tiers.sram_capacity_bytes = cap;
            let model = CostModel::new(params);
            let plan = assign_tiers(&model, &g, &prof);
            assert!(
                plan.sram_used <= cap + 1e-9,
                "used {} > {cap}",
                plan.sram_used
            );
        }
    }
}
