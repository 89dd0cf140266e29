//! Figure 17 (Appendix A.2): table copying reduces ASIC↔CPU migration
//! overhead.
//!
//! An interleaved program alternates ASIC-capable tables with tables
//! requiring CPU execution. Copying k interleaved tables to the CPU cores
//! removes migrations. (a) sweeps the migration latency; (b) sweeps the
//! share of traffic taking the software (CPU) path. Reported as emulated
//! mean packet latency vs. number of copied tables — including the
//! paper's observation that copying *one* table alone does not help.

use pipeleon::hetero::partition_placement;
use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::{CostModel, CostParams, Placement, RuntimeProfile};
use pipeleon_ir::{Condition, MatchKind, NodeId, Primitive, ProgramBuilder, ProgramGraph};
use pipeleon_sim::{ControlOp, Packet, SmartNic};
use std::collections::HashSet;

/// Interleaved chain asic0 cpu0 asic1 cpu1 asic2 cpu2 tail.
fn interleaved() -> (ProgramGraph, HashSet<NodeId>) {
    let mut b = ProgramBuilder::named("fig17");
    let fld = b.field("x");
    let mut ids: Vec<NodeId> = Vec::new();
    let mut cpu_only = HashSet::new();
    for i in 0..3 {
        ids.push(
            b.table(format!("asic{i}"))
                .key(fld, MatchKind::Exact)
                .action("fast", vec![Primitive::Nop])
                .finish(),
        );
        let c = b
            .table(format!("cpu{i}"))
            .key(fld, MatchKind::Exact)
            .action("unsupported", vec![Primitive::Nop])
            .finish();
        cpu_only.insert(c);
        ids.push(c);
    }
    ids.push(
        b.table("tail")
            .key(fld, MatchKind::Exact)
            .action("fwd", vec![Primitive::Forward { port: 1 }])
            .finish(),
    );
    (b.seal(ids[0]).expect("valid"), cpu_only)
}

/// Branch steering `sw_share` of traffic to the interleaved (software-
/// needing) path and the rest to a pure-ASIC bypass.
fn with_software_share(sw_share: f64) -> (ProgramGraph, HashSet<NodeId>, pipeleon_ir::FieldRef) {
    let mut b = ProgramBuilder::named("fig17b");
    let fld = b.field("x");
    let steer = b.field("steer");
    let mut cpu_only = HashSet::new();
    // Software path: interleaved ASIC/CPU tables.
    let mut sw_ids = Vec::new();
    for i in 0..3 {
        sw_ids.push(
            b.table(format!("asic{i}"))
                .key(fld, MatchKind::Exact)
                .action("fast", vec![Primitive::Nop])
                .finish(),
        );
        let c = b
            .table(format!("cpu{i}"))
            .key(fld, MatchKind::Exact)
            .action("unsupported", vec![Primitive::Nop])
            .finish();
        cpu_only.insert(c);
        sw_ids.push(c);
    }
    for w in sw_ids.windows(2) {
        b.set_next(w[0], Some(w[1]));
    }
    b.set_next(*sw_ids.last().unwrap(), None);
    // Hardware bypass.
    let hw = b
        .table("hw_path")
        .key(fld, MatchKind::Exact)
        .action("fast", vec![Primitive::Nop])
        .finish();
    b.set_next(hw, None);
    let threshold = (sw_share * 1000.0) as u64;
    let br = b.branch(
        "steer",
        Condition::lt(steer, threshold),
        Some(sw_ids[0]),
        Some(hw),
    );
    (b.seal(br).expect("valid"), cpu_only, steer)
}

fn main() {
    banner(
        "Figure 17",
        "table copying vs migration latency / software traffic share",
    );

    println!("# --- (a) migration latency sweep (all traffic on the software path) ---");
    header(&[
        "panel",
        "migration_latency_ns",
        "copied_tables",
        "emulated_latency_ns",
    ]);
    let (g, cpu_only) = interleaved();
    for migration in [100.0, 300.0, 600.0] {
        let mut params = CostParams::emulated_nic();
        params.l_migration = migration;
        let model = CostModel::new(params.clone());
        let profile = RuntimeProfile::empty();
        for copies in 0..=4usize {
            // Exact-budget placement: force exactly `copies` by taking the
            // DP plan and measuring it.
            let plan = partition_placement(&model, &g, &profile, &cpu_only, copies);
            let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
            nic.apply(ControlOp::SetPlacement(plan.placement.clone()))
                .unwrap();
            let pkts: Vec<Packet> = (0..4000)
                .map(|i| {
                    let mut p = Packet::new(&g.fields);
                    p.set(g.fields.get("x").unwrap(), i % 64);
                    p
                })
                .collect();
            let stats = nic.measure(pkts);
            row(&[
                "a".into(),
                f(migration),
                plan.copied.len().to_string(),
                f(stats.mean_latency_ns),
            ]);
        }
    }

    println!("# --- (b) software traffic share sweep (migration 400 ns) ---");
    header(&[
        "panel",
        "software_share",
        "copied_tables",
        "emulated_latency_ns",
    ]);
    for share in [0.3, 0.5, 0.7] {
        let (g, cpu_only, steer) = with_software_share(share);
        let mut params = CostParams::emulated_nic();
        params.l_migration = 400.0;
        let model = CostModel::new(params.clone());
        let profile = RuntimeProfile::empty();
        for copies in 0..=4usize {
            // The branchy program uses greedy placement for forced nodes;
            // copy the interleaved ASIC tables manually in chain order.
            let mut plan = partition_placement(&model, &g, &profile, &cpu_only, 0);
            let mut copied = 0;
            for n in g.iter_nodes() {
                let name = n.name();
                if copied < copies && (name.starts_with("asic") || name == "tail") {
                    // Copy interleaved ASIC tables (asic1, asic2, tail are
                    // the ones between/after CPU tables).
                    if name != "asic0" {
                        plan.placement[n.id.index()] = Placement::Cpu;
                        copied += 1;
                    }
                }
            }
            let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
            nic.apply(ControlOp::SetPlacement(plan.placement.clone()))
                .unwrap();
            let pkts: Vec<Packet> = (0..6000)
                .map(|i| {
                    let mut p = Packet::new(&g.fields);
                    p.set(g.fields.get("x").unwrap(), i % 64);
                    p.set(steer, (i * 7919) % 1000);
                    p
                })
                .collect();
            let stats = nic.measure(pkts);
            row(&[
                "b".into(),
                f(share),
                copied.to_string(),
                f(stats.mean_latency_ns),
            ]);
        }
    }
}
