//! §3.2.4 / Appendix A.2: heterogeneous ASIC/CPU partitioning with table
//! copying. A pipeline interleaves ASIC-capable tables with tables whose
//! actions the ASIC cannot run; the naive partition migrates every packet
//! multiple times. Copying interleaved tables to the CPU cores trades
//! slower execution for far fewer migrations.
//!
//! ```sh
//! cargo run --example hetero_offload
//! ```

use pipeleon_suite::cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_suite::ir::{MatchKind, Primitive, ProgramBuilder};
use pipeleon_suite::opt::hetero::partition_placement;
use pipeleon_suite::sim::{ControlOp, NicBackend, SmartNic};
use std::collections::HashSet;

fn main() {
    // Build an interleaved pipeline: asic0 cpu0 asic1 cpu1 asic2 cpu2 tail.
    let mut b = ProgramBuilder::named("hetero");
    let f = b.field("flow.key");
    let mut ids = Vec::new();
    let mut cpu_only = HashSet::new();
    for i in 0..3 {
        ids.push(
            b.table(format!("asic{i}"))
                .key(f, MatchKind::Exact)
                .action("fast", vec![Primitive::Nop])
                .finish(),
        );
        let c = b
            .table(format!("cpu{i}"))
            .key(f, MatchKind::Exact)
            .action("unsupported_crypto", vec![Primitive::Nop, Primitive::Nop])
            .finish();
        cpu_only.insert(c);
        ids.push(c);
    }
    let tail = b
        .table("tail")
        .key(f, MatchKind::Exact)
        .action("fwd", vec![Primitive::Forward { port: 1 }])
        .finish();
    ids.push(tail);
    let g = b.seal(ids[0]).expect("valid");

    let mut params = CostParams::emulated_nic();
    params.l_migration = 400.0;
    let model = CostModel::new(params.clone());
    let profile = RuntimeProfile::empty();

    println!("copy_budget  copied_tables  est_migrations  est_latency_ns  measured_ns");
    for budget in 0..=4 {
        let plan = partition_placement(&model, &g, &profile, &cpu_only, budget);
        // Measure the placement on the emulator.
        let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deployable");
        nic.apply(ControlOp::SetPlacement(plan.placement.clone()))
            .unwrap();
        let packets: Vec<_> = (0..5000)
            .map(|i| {
                let mut p = pipeleon_suite::sim::Packet::new(&g.fields);
                p.set(f, i);
                p
            })
            .collect();
        let measured = nic.measure(packets);
        let copied: Vec<String> = plan
            .copied
            .iter()
            .map(|id| g.node(*id).unwrap().name().to_owned())
            .collect();
        println!(
            "{budget:>11}  {:<13}  {:>14.2}  {:>14.0}  {:>11.0}",
            if copied.is_empty() {
                "-".to_string()
            } else {
                copied.join(",")
            },
            plan.expected_migrations,
            plan.expected_latency,
            measured.mean_latency_ns,
        );
    }
}
