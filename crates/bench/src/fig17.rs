//! Figure 17 (Appendix A.2): table copying reduces ASIC↔CPU migration
//! overhead.
//!
//! An interleaved program alternates ASIC-capable tables with tables
//! requiring CPU execution; copying k interleaved tables to the CPU cores
//! removes migrations. Reported as emulated mean packet latency vs. the
//! number of copied tables.

use crate::{cells, Table};
use pipeleon::hetero::partition_placement;
use pipeleon_cost::{CostModel, CostParams, Placement, RuntimeProfile};
use pipeleon_ir::{Condition, MatchKind, NodeId, Primitive, ProgramBuilder, ProgramGraph};
use pipeleon_sim::{ControlOp, Packet, SmartNic};
use std::collections::HashSet;

/// The chain asic0 cpu0 asic1 cpu1 asic2 cpu2 on field `x`, and the
/// CPU-only tables among it.
fn chain(b: &mut ProgramBuilder) -> (Vec<NodeId>, HashSet<NodeId>) {
    let x = b.field("x");
    let ids: Vec<NodeId> = (0..6)
        .map(|i| {
            let (name, action) = [("asic", "fast"), ("cpu", "unsupported")][i % 2];
            b.table(format!("{name}{}", i / 2))
                .key(x, MatchKind::Exact)
                .action(action, vec![Primitive::Nop])
                .finish()
        })
        .collect();
    let cpu_only = ids.iter().skip(1).step_by(2).copied().collect();
    (ids, cpu_only)
}

/// Mean latency of `n` packets through `g` under `placement`; packet `i`
/// sets `x` to `i % 64` and the `steer` field, if any, to
/// `(i * 7919) % 1000`.
fn measure(g: &ProgramGraph, params: &CostParams, placement: Vec<Placement>, n: u64) -> f64 {
    let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
    nic.apply(ControlOp::SetPlacement(placement))
        .expect("placement applies");
    let x = g.fields.get("x").expect("field x");
    let steer = g.fields.get("steer");
    let pkts: Vec<Packet> = (0..n)
        .map(|i| {
            let mut p = Packet::new(&g.fields);
            p.set(x, i % 64);
            if let Some(s) = steer {
                p.set(s, (i * 7919) % 1000);
            }
            p
        })
        .collect();
    nic.measure(pkts).mean_latency_ns
}

fn params_with_migration(l_migration: f64) -> CostParams {
    CostParams {
        l_migration,
        ..CostParams::emulated_nic()
    }
}

/// (a) migration latency sweep, all traffic on the software path: the
/// DP's plan for a budget of 0–4 copies, measured.
pub fn migration_latency() -> Table {
    let mut t = Table::new(
        "Figure 17(a): table copying vs migration latency (all traffic on the software path)",
        "panel migration_latency_ns copied_tables emulated_latency_ns",
    );
    let mut b = ProgramBuilder::named("fig17");
    let (mut ids, cpu_only) = chain(&mut b);
    let x = b.field("x");
    ids.push(
        b.table("tail")
            .key(x, MatchKind::Exact)
            .action("fwd", vec![Primitive::Forward { port: 1 }])
            .finish(),
    );
    let g = b.seal(ids[0]).expect("valid");
    for migration in [100.0, 300.0, 600.0] {
        let params = params_with_migration(migration);
        let model = CostModel::new(params.clone());
        for copies in 0..=4usize {
            let plan = partition_placement(&model, &g, &RuntimeProfile::empty(), &cpu_only, copies);
            let latency = measure(&g, &params, plan.placement, 4000);
            t.push(cells!["a", migration, plan.copied.len(), latency]);
        }
    }
    t
}

/// (b) software traffic share sweep at 400 ns migration: a branch steers
/// the share to the interleaved chain and the rest to a pure-ASIC bypass;
/// the interleaved ASIC tables after `asic0` are copied in chain order.
pub fn software_share() -> Table {
    let mut t = Table::new(
        "Figure 17(b): table copying vs software traffic share (migration 400 ns)",
        "panel software_share copied_tables emulated_latency_ns",
    );
    for share in [0.3, 0.5, 0.7] {
        let mut b = ProgramBuilder::named("fig17b");
        let (sw_ids, cpu_only) = chain(&mut b);
        let x = b.field("x");
        let steer = b.field("steer");
        for w in sw_ids.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(sw_ids[5], None);
        let hw = b
            .table("hw_path")
            .key(x, MatchKind::Exact)
            .action("fast", vec![Primitive::Nop])
            .finish();
        b.set_next(hw, None);
        let threshold = (share * 1000.0) as u64;
        let br = b.branch(
            "steer",
            Condition::lt(steer, threshold),
            Some(sw_ids[0]),
            Some(hw),
        );
        let g = b.seal(br).expect("valid");
        let params = params_with_migration(400.0);
        let model = CostModel::new(params.clone());
        for copies in 0..=4usize {
            let mut plan = partition_placement(&model, &g, &RuntimeProfile::empty(), &cpu_only, 0);
            let mut copied = 0;
            for n in g.iter_nodes() {
                let name = n.name();
                if copied < copies && name.starts_with("asic") && name != "asic0" {
                    plan.placement[n.id.index()] = Placement::Cpu;
                    copied += 1;
                }
            }
            let latency = measure(&g, &params, plan.placement, 6000);
            t.push(cells!["b", share, copied, latency]);
        }
    }
    t
}
