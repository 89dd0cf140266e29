//! Heterogeneous ASIC/CPU partitioning with migration minimization
//! (§3.2.4, Appendix A.2).
//!
//! Some tables have ASIC-unsupported match keys or actions and *must* run
//! on CPU cores. A naive partition interleaves placements and pays a
//! migration for every crossing. Pipeleon reduces crossings by **table
//! copying**: running an ASIC-capable table on the CPU cores alongside its
//! CPU-only neighbours, trading the CPU slowdown on that table for saved
//! migrations (Appendix A.2: "copying only one table … does not reduce
//! the needed migration", which the DP below discovers automatically).
//!
//! Chain programs get an exact dynamic program over
//! `(position, placement, copies-used)`; branchy programs fall back to a
//! visit-probability-weighted greedy pass.

use pipeleon_cost::{CostModel, Expected, Placement, RuntimeProfile};
use pipeleon_ir::{NextHops, NodeId, ProgramGraph};
use std::collections::HashSet;

/// A computed placement.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroPlan {
    /// Dense per-node placement (indexed by node id).
    pub placement: Vec<Placement>,
    /// ASIC-capable tables placed on CPU (the "copied" tables).
    pub copied: Vec<NodeId>,
    /// Expected per-packet latency under this placement (model units).
    pub expected_latency: f64,
    /// Expected migrations per packet.
    pub expected_migrations: f64,
}

/// Computes a placement for `g` where `cpu_only` nodes must run on CPU
/// cores, copying at most `max_copies` ASIC-capable tables to CPU.
///
/// Packets are assumed to enter on the ASIC (they arrive from the wire).
pub fn partition_placement(
    model: &CostModel,
    g: &ProgramGraph,
    profile: &RuntimeProfile,
    cpu_only: &HashSet<NodeId>,
    max_copies: usize,
) -> HeteroPlan {
    let placement = if let Some(chain) = as_chain(g) {
        chain_dp(model, g, profile, &chain, cpu_only, max_copies)
    } else {
        greedy(g, cpu_only)
    };
    let Expected {
        latency: expected_latency,
        migrations: expected_migrations,
    } = model.expected(g, profile, &placement);
    let copied = g
        .iter_nodes()
        .filter(|n| {
            !cpu_only.contains(&n.id) && placement.get(n.id.index()) == Some(&Placement::Cpu)
        })
        .map(|n| n.id)
        .collect();
    HeteroPlan {
        placement,
        copied,
        expected_latency,
        expected_migrations,
    }
}

/// Returns the node sequence if `g` is a straight-line chain from the
/// root.
fn as_chain(g: &ProgramGraph) -> Option<Vec<NodeId>> {
    let mut chain = Vec::new();
    let mut cur = g.root();
    let mut seen = HashSet::new();
    while let Some(id) = cur {
        if !seen.insert(id) {
            return None;
        }
        chain.push(id);
        cur = match &g.node(id)?.next {
            NextHops::Always(t) => *t,
            _ => return None,
        };
    }
    (chain.len() == g.num_nodes()).then_some(chain)
}

/// Exact DP over the chain: state = (placement, copies used so far).
fn chain_dp(
    model: &CostModel,
    g: &ProgramGraph,
    profile: &RuntimeProfile,
    chain: &[NodeId],
    cpu_only: &HashSet<NodeId>,
    max_copies: usize,
) -> Vec<Placement> {
    let params = &model.params;
    let k = max_copies + 1;
    let inf = f64::INFINITY;
    // cost[state]: state = placement (0 = Asic, 1 = Cpu) * k + copies.
    // Packets start on the ASIC.
    let mut cost = vec![vec![inf; 2 * k]; chain.len() + 1];
    let mut from: Vec<Vec<usize>> = vec![vec![usize::MAX; 2 * k]; chain.len() + 1];
    cost[0][0] = 0.0; // virtual start: on ASIC, zero copies
    for (i, &id) in chain.iter().enumerate() {
        let node_cost = model.node_cost(g, id, profile);
        let forced_cpu = cpu_only.contains(&id);
        for state in 0..2 * k {
            let c = cost[i][state];
            if c.is_infinite() {
                continue;
            }
            let prev_place = state / k;
            let copies = state % k;
            for place in 0..2usize {
                if forced_cpu && place == 0 {
                    continue;
                }
                let mut copies2 = copies;
                if place == 1 && !forced_cpu {
                    copies2 += 1;
                    if copies2 >= k {
                        continue;
                    }
                }
                let scale = if place == 1 { params.cpu_scale } else { 1.0 };
                let migration = if place != prev_place {
                    params.l_migration
                } else {
                    0.0
                };
                let next_cost = c + node_cost * scale + migration;
                let next_state = place * k + copies2;
                if next_cost < cost[i + 1][next_state] {
                    cost[i + 1][next_state] = next_cost;
                    from[i + 1][next_state] = state;
                }
            }
        }
    }
    // Best terminal state; reconstruct.
    let (mut state, _) = cost[chain.len()]
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite or inf"))
        .expect("non-empty state space");
    let mut placement = vec![Placement::Asic; g.id_bound()];
    for i in (0..chain.len()).rev() {
        let place = state / k;
        placement[chain[i].index()] = if place == 1 {
            Placement::Cpu
        } else {
            Placement::Asic
        };
        state = from[i + 1][state];
    }
    placement
}

/// Greedy fallback for branchy programs: CPU-only nodes on CPU, everything
/// else on ASIC (no copying).
fn greedy(g: &ProgramGraph, cpu_only: &HashSet<NodeId>) -> Vec<Placement> {
    let mut placement = vec![Placement::Asic; g.id_bound()];
    for n in g.iter_nodes() {
        if cpu_only.contains(&n.id) {
            placement[n.id.index()] = Placement::Cpu;
        }
    }
    placement
}

/// Materializes a placement as the paper's §3.2.4 program structure: at
/// every placement-crossing edge a **migration table** (on the source
/// side) writes the `next_tab_id` metadata field, and a **navigation
/// table** (on the destination side) matches `next_tab_id` to restore the
/// processing context, "because its state will be cleaned once it leaves
/// the core".
///
/// Returns the rewritten program plus the placement vector extended to
/// cover the inserted tables (each nav/mig table lives on the side it
/// executes on). The rewritten program is semantically identical — the
/// inserted tables only touch the fresh `meta.next_tab_id` field.
pub fn materialize_partition(
    g: &ProgramGraph,
    placement: &[Placement],
) -> Result<(ProgramGraph, Vec<Placement>), pipeleon_ir::IrError> {
    use pipeleon_ir::{
        Action, MatchKey, MatchKind, MatchValue, NextHops, Primitive, Table, TableEntry,
    };
    let mut out = g.clone();
    let nav_field = out.fields.intern("meta.next_tab_id");
    let place = |id: NodeId| {
        placement
            .get(id.index())
            .copied()
            .unwrap_or(Placement::Asic)
    };
    // Collect crossing edges first (node, slot, from_place, target).
    let mut crossings: Vec<(NodeId, usize, NodeId)> = Vec::new();
    for n in g.iter_nodes() {
        for (slot, target) in n.next.targets().into_iter().enumerate() {
            if let Some(t) = target {
                if place(n.id) != place(t) {
                    crossings.push((n.id, slot, t));
                }
            }
        }
    }
    let mut ext_placement = placement.to_vec();
    let ensure = |v: &mut Vec<Placement>, idx: usize| {
        if v.len() <= idx {
            v.resize(idx + 1, Placement::Asic);
        }
    };
    for (seq, (from, slot, target)) in crossings.into_iter().enumerate() {
        // Navigation table on the destination core: matches next_tab_id
        // and resumes at the stored next table.
        let mut nav = Table::new(format!("nav{seq}_{}", target.0));
        nav.keys = vec![MatchKey {
            field: nav_field,
            kind: MatchKind::Exact,
        }];
        nav.actions = vec![Action::nop("resume")];
        nav.entries = vec![TableEntry::new(vec![MatchValue::Exact(target.0 as u64)], 0)];
        let nav_id = out.add_table(nav, Some(target));
        // Migration table on the source core: records the next table id
        // before the packet leaves the core.
        let mig = Table {
            name: format!("mig{seq}_{}", from.0),
            keys: Vec::new(),
            actions: vec![Action::new(
                "set_next_tab",
                vec![Primitive::set(nav_field, target.0 as u64)],
            )],
            default_action: 0,
            entries: Vec::new(),
            max_entries: None,
            cache_role: pipeleon_ir::CacheRole::None,
        };
        let mig_id = out.add_table(mig, Some(nav_id));
        // Rewire the crossing edge through mig -> nav.
        let node = out.node_mut(from).expect("edge source exists");
        match &mut node.next {
            NextHops::Always(t) => *t = Some(mig_id),
            NextHops::ByAction(v) => v[slot] = Some(mig_id),
            NextHops::Branch { on_true, on_false } => {
                if slot == 0 {
                    *on_true = Some(mig_id);
                } else {
                    *on_false = Some(mig_id);
                }
            }
        }
        // Placement: the migration table runs on the source core, the
        // navigation table on the destination core.
        ensure(&mut ext_placement, mig_id.index());
        ext_placement[mig_id.index()] = place(from);
        ensure(&mut ext_placement, nav_id.index());
        ext_placement[nav_id.index()] = place(target);
    }
    out.validate()?;
    Ok((out, ext_placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{MatchKind, Primitive, ProgramBuilder};

    /// Interleaved chain: A0 C0 A1 C1 A2 (C* = CPU-only), the Appendix A.2
    /// setup.
    fn interleaved(n_pairs: usize) -> (ProgramGraph, Vec<NodeId>, HashSet<NodeId>) {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let mut ids = Vec::new();
        let mut cpu_only = HashSet::new();
        for i in 0..n_pairs {
            let a = b
                .table(format!("asic{i}"))
                .key(f, MatchKind::Exact)
                .action("p", vec![Primitive::Nop])
                .finish();
            ids.push(a);
            let c = b
                .table(format!("cpu{i}"))
                .key(f, MatchKind::Exact)
                .action("unsupported", vec![Primitive::Nop])
                .finish();
            cpu_only.insert(c);
            ids.push(c);
        }
        let tail = b
            .table("tail")
            .key(f, MatchKind::Exact)
            .action("p", vec![Primitive::Nop])
            .finish();
        ids.push(tail);
        (b.seal(ids[0]).unwrap(), ids, cpu_only)
    }

    fn model_with_migration(migration: f64) -> CostModel {
        let mut p = CostParams::emulated_nic();
        p.l_migration = migration;
        p.cpu_scale = 2.0;
        p.l_base = 0.0;
        CostModel::new(p)
    }

    #[test]
    fn forced_nodes_land_on_cpu() {
        let (g, _, cpu_only) = interleaved(2);
        let model = model_with_migration(10.0);
        let prof = RuntimeProfile::empty();
        let plan = partition_placement(&model, &g, &prof, &cpu_only, 0);
        for id in &cpu_only {
            assert_eq!(plan.placement[id.index()], Placement::Cpu);
        }
    }

    #[test]
    fn high_migration_cost_induces_copying() {
        let (g, _, cpu_only) = interleaved(2);
        let prof = RuntimeProfile::empty();
        // Cheap migration: no copies pay off.
        let cheap = partition_placement(&model_with_migration(1.0), &g, &prof, &cpu_only, 4);
        assert!(cheap.copied.is_empty(), "copied = {:?}", cheap.copied);
        // Expensive migration: the interleaved ASIC table gets copied.
        let dear = partition_placement(&model_with_migration(10_000.0), &g, &prof, &cpu_only, 4);
        assert!(!dear.copied.is_empty());
        assert!(dear.expected_migrations < cheap.expected_migrations);
        assert!(
            dear.expected_latency < {
                let no_copy =
                    partition_placement(&model_with_migration(10_000.0), &g, &prof, &cpu_only, 0);
                no_copy.expected_latency
            }
        );
    }

    #[test]
    fn copy_budget_is_respected() {
        let (g, _, cpu_only) = interleaved(4);
        let prof = RuntimeProfile::empty();
        for budget in 0..3 {
            let plan =
                partition_placement(&model_with_migration(5_000.0), &g, &prof, &cpu_only, budget);
            assert!(plan.copied.len() <= budget, "budget {budget}");
        }
    }

    #[test]
    fn more_copy_budget_never_hurts() {
        let (g, _, cpu_only) = interleaved(3);
        let prof = RuntimeProfile::empty();
        let mut prev = f64::INFINITY;
        for budget in 0..5 {
            let plan =
                partition_placement(&model_with_migration(2_000.0), &g, &prof, &cpu_only, budget);
            assert!(
                plan.expected_latency <= prev + 1e-9,
                "budget {budget}: {} > {prev}",
                plan.expected_latency
            );
            prev = plan.expected_latency;
        }
    }

    #[test]
    fn all_asic_when_nothing_forced() {
        let (g, ids, _) = interleaved(2);
        let prof = RuntimeProfile::empty();
        let plan = partition_placement(&model_with_migration(100.0), &g, &prof, &HashSet::new(), 4);
        for id in ids {
            assert_eq!(plan.placement[id.index()], Placement::Asic);
        }
        assert_eq!(plan.expected_migrations, 0.0);
    }

    #[test]
    fn materialized_partition_inserts_nav_and_mig_tables() {
        use pipeleon_cost::RuntimeProfile;
        let (g, _, cpu_only) = interleaved(2);
        let model = model_with_migration(1000.0);
        let prof = RuntimeProfile::empty();
        let plan = partition_placement(&model, &g, &prof, &cpu_only, 0);
        let crossings = plan.expected_migrations;
        let (mat, ext_placement) = materialize_partition(&g, &plan.placement).unwrap();
        mat.validate().unwrap();
        // One nav + one mig table per crossing edge.
        let navs = mat
            .tables()
            .filter(|(n, _)| n.name().starts_with("nav"))
            .count();
        let migs = mat
            .tables()
            .filter(|(n, _)| n.name().starts_with("mig"))
            .count();
        assert_eq!(navs as f64, crossings);
        assert_eq!(migs as f64, crossings);
        assert!(ext_placement.len() >= mat.id_bound() - 1);
        // The materialized program remains semantically identical: run a
        // packet through both and compare all original fields.
        use pipeleon_cost::CostParams;
        use pipeleon_sim::{ControlOp, NicBackend, Packet, SmartNic};
        let params = CostParams::emulated_nic();
        let mut a = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut b = SmartNic::new(mat.clone(), params).unwrap();
        b.apply(ControlOp::SetPlacement(ext_placement)).unwrap();
        for v in 0..16u64 {
            let mut pa = Packet::new(&g.fields);
            pa.set(g.fields.get("x").unwrap(), v);
            let mut pb = Packet::new(&mat.fields);
            pb.set(mat.fields.get("x").unwrap(), v);
            let ra = a.process_one(&mut pa);
            let rb = b.process_one(&mut pb);
            assert_eq!(ra.dropped, rb.dropped);
            assert_eq!(pa.egress_port, pb.egress_port);
            // Same migration count as the accounting model predicts.
            assert_eq!(rb.migrations as f64, crossings);
        }
    }

    #[test]
    fn materializing_uniform_placement_is_identity() {
        let (g, _, _) = interleaved(2);
        let placement = vec![Placement::Asic; g.id_bound()];
        let (mat, _) = materialize_partition(&g, &placement).unwrap();
        assert_eq!(mat.num_nodes(), g.num_nodes());
    }

    #[test]
    fn branchy_program_uses_greedy() {
        use pipeleon_ir::Condition;
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let l = b.table("l").key(f, MatchKind::Exact).finish();
        b.set_next(l, None);
        let r = b.table("r").key(f, MatchKind::Exact).finish();
        b.set_next(r, None);
        let br = b.branch("br", Condition::eq(f, 1), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        let mut cpu_only = HashSet::new();
        cpu_only.insert(r);
        let prof = RuntimeProfile::empty();
        let plan = partition_placement(&model_with_migration(100.0), &g, &prof, &cpu_only, 2);
        assert_eq!(plan.placement[r.index()], Placement::Cpu);
        assert_eq!(plan.placement[l.index()], Placement::Asic);
        // Half the traffic crosses to the CPU.
        assert!((plan.expected_migrations - 0.5).abs() < 1e-9);
    }
}
