//! Quickstart: build a P4 program, profile it, optimize it, measure the
//! difference on the software SmartNIC.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pipeleon_suite::cost::{CostModel, CostParams};
use pipeleon_suite::ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
use pipeleon_suite::opt::{apply_plan, Optimizer, ResourceLimits};
use pipeleon_suite::sim::SmartNic;
use pipeleon_suite::workloads::traffic::{FieldBias, FlowGen};

fn main() {
    // 1. Build a small pipeline: three processing tables, then an ACL
    //    that (unknown at compile time!) will drop most of the traffic,
    //    then routing.
    let mut b = ProgramBuilder::named("quickstart");
    let flow = b.field("ipv4.dst");
    let acl_key = b.field("acl.key");
    let mut tables = Vec::new();
    for i in 0..3 {
        tables.push(
            b.table(format!("proc{i}"))
                .key(flow, MatchKind::Exact)
                .action_nop("go")
                .finish(),
        );
    }
    let acl = b
        .table("acl")
        .key(acl_key, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(0xBAD)], 1))
        .finish();
    let routing = b
        .table("routing")
        .key(flow, MatchKind::Lpm)
        .action(
            "fwd",
            vec![pipeleon_suite::ir::Primitive::Forward { port: 1 }],
        )
        .entry(TableEntry::new(
            vec![MatchValue::Lpm {
                value: 0,
                prefix_len: 0,
            }],
            0,
        ))
        .finish();
    let _ = (acl, routing);
    let program = b.seal(tables[0]).expect("valid program");
    println!("program: {} tables", program.tables().count());

    // 2. Deploy on the emulated BlueField2 and run profiled traffic where
    //    60% of packets match the deny rule.
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(program.clone(), params.clone()).expect("deployable");
    nic.set_instrumentation(true, 1);
    let mut gen = FlowGen::new(program.fields.len(), vec![flow], 1000, 42).with_bias(FieldBias {
        field: acl_key,
        value: 0xBAD,
        probability: 0.6,
    });
    let before = nic.measure(gen.batch(20_000));
    let profile = nic.take_profile();
    println!(
        "before: {:.1} Gbps, {:.0} ns mean latency, {:.0}% dropped",
        before.throughput_gbps,
        before.mean_latency_ns,
        100.0 * before.dropped as f64 / before.packets as f64
    );

    // 3. Optimize with the runtime profile: the dropping ACL moves first.
    let optimizer = Optimizer::new(CostModel::new(params.clone()));
    let outcome = optimizer
        .optimize(&program, &profile, ResourceLimits::unlimited())
        .expect("optimization succeeds");
    let applied = apply_plan(
        &program,
        &outcome.plan,
        &optimizer.model,
        &profile,
        &optimizer.cfg,
    )
    .expect("the plan builds");
    println!(
        "plan ({} candidates evaluated):",
        outcome.candidates_evaluated
    );
    for step in &applied.summary {
        println!("  - {step}");
    }
    println!(
        "estimated gain: {:.1} ns/packet, search took {:?}",
        outcome.est_gain_ns, outcome.search_time
    );

    // 4. Deploy the optimized layout and re-measure the same workload.
    let mut nic = SmartNic::new(applied.graph.clone(), params).expect("deployable");
    let mut gen = FlowGen::new(program.fields.len(), vec![flow], 1000, 42).with_bias(FieldBias {
        field: acl_key,
        value: 0xBAD,
        probability: 0.6,
    });
    let after = nic.measure(gen.batch(20_000));
    println!(
        "after:  {:.1} Gbps, {:.0} ns mean latency",
        after.throughput_gbps, after.mean_latency_ns
    );
    println!(
        "speedup: {:.2}x throughput, {:.2}x latency",
        after.throughput_gbps / before.throughput_gbps,
        before.mean_latency_ns / after.mean_latency_ns
    );

    // 5. The optimized program is ordinary P4 IR — export it as the
    //    BMv2-style JSON the vendor toolchain would consume.
    let json = pipeleon_suite::ir::json::to_json_string(&applied.graph).unwrap();
    println!("optimized program JSON: {} bytes", json.len());
}
