//! Property test: the heterogeneous-placement DP is optimal on chains.
//!
//! For random small chain programs, random CPU-only sets, and random copy
//! budgets, the DP's expected latency must equal the best placement found
//! by enumerating all 2^n assignments that satisfy the constraints.

use pipeleon::hetero::partition_placement;
use pipeleon_cost::{CostModel, CostParams, Placement, RuntimeProfile};
use pipeleon_ir::{MatchKind, NodeId, Primitive, ProgramBuilder, ProgramGraph};
use proptest::prelude::*;
use std::collections::HashSet;

fn chain(n: usize, prims: &[usize]) -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::new();
    let f = b.field("x");
    let mut ids = Vec::new();
    for i in 0..n {
        ids.push(
            b.table(format!("t{i}"))
                .key(f, MatchKind::Exact)
                .action(
                    "a",
                    vec![Primitive::Nop; prims.get(i).copied().unwrap_or(1)],
                )
                .finish(),
        );
    }
    (b.seal(ids[0]).unwrap(), ids)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn chain_dp_is_optimal(
        n in 2usize..8,
        cpu_mask in any::<u8>(),
        budget in 0usize..4,
        migration in 10.0f64..2000.0,
        cpu_scale in 1.0f64..8.0,
        prims in prop::collection::vec(1usize..6, 8),
    ) {
        let (g, ids) = chain(n, &prims);
        let mut cpu_only = HashSet::new();
        for (i, &id) in ids.iter().enumerate() {
            if (cpu_mask >> i) & 1 == 1 {
                cpu_only.insert(id);
            }
        }
        let mut params = CostParams::emulated_nic();
        params.l_migration = migration;
        params.cpu_scale = cpu_scale;
        let model = CostModel::new(params);
        let profile = RuntimeProfile::empty();
        let plan = partition_placement(&model, &g, &profile, &cpu_only, budget);
        prop_assert!(plan.copied.len() <= budget);

        // Brute force: every placement with forced nodes on CPU and at
        // most `budget` optional nodes on CPU; cost must include the
        // initial ASIC->CPU hop (packets arrive on the wire/ASIC).
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << n) {
            let mut placement = vec![Placement::Asic; g.id_bound()];
            let mut copies = 0;
            let mut ok = true;
            for (i, &id) in ids.iter().enumerate() {
                let on_cpu = (mask >> i) & 1 == 1;
                if cpu_only.contains(&id) && !on_cpu {
                    ok = false;
                    break;
                }
                if on_cpu {
                    placement[id.index()] = Placement::Cpu;
                    if !cpu_only.contains(&id) {
                        copies += 1;
                    }
                }
            }
            if !ok || copies > budget {
                continue;
            }
            let mut cost = model.expected(&g, &profile, &placement, &[]).latency;
            if placement[ids[0].index()] == Placement::Cpu {
                cost += model.params.l_migration; // wire -> CPU entry hop
            }
            best = best.min(cost);
        }
        let mut plan_cost = model.expected(&g, &profile, &plan.placement, &[]).latency;
        if plan.placement[ids[0].index()] == Placement::Cpu {
            plan_cost += model.params.l_migration;
        }
        prop_assert!(
            (plan_cost - best).abs() < 1e-6,
            "dp {plan_cost} vs brute {best} (n={n} mask={cpu_mask:08b} budget={budget})"
        );
    }
}
