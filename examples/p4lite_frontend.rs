//! End-to-end with the P4-lite textual frontend: write a pipeline as
//! P4-16-flavoured text, compile it to the IR, profile it on the emulator,
//! optimize, and emit vendor-ready JSON.
//!
//! ```sh
//! cargo run --example p4lite_frontend
//! ```

use pipeleon_suite::cost::{CostModel, CostParams};
use pipeleon_suite::opt::{apply_plan, Optimizer, ResourceLimits};
use pipeleon_suite::p4::parse_program;
use pipeleon_suite::sim::SmartNic;
use pipeleon_suite::workloads::traffic::{FieldBias, FlowGen};

const SOURCE: &str = r#"
program edge_firewall;

fields ipv4.src, ipv4.dst, tcp.dport, meta.tenant, meta.class;

action deny()        { drop; }
action permit()      { }
action set_class()   { meta.class = 2; }
action to_fastpath() { fwd(1); }
action to_slowpath() { fwd(9); }

table tenant_acl {
    key = { meta.tenant: exact; }
    actions = { permit; deny; }
    default_action = permit;
    const entries = { (13) : deny; (77) : deny; }
}

table subnet_acl {
    key = { ipv4.src: ternary; }
    actions = { permit; deny; }
    default_action = permit;
    const entries = {
        (0x0A000000 &&& 0xFF000000) : deny @ 10;
        (0xC0A80000 &&& 0xFFFF0000) : permit @ 5;
    }
}

table classify {
    key = { tcp.dport: range; }
    actions = { set_class; permit; }
    default_action = permit;
    const entries = { (1000..2000) : set_class; }
}

table routing {
    key = { ipv4.dst: lpm; }
    actions = { to_fastpath; to_slowpath; }
    default_action = to_slowpath;
    const entries = { (0xAC10000000000000/16) : to_fastpath; }
}

control {
    tenant_acl;
    subnet_acl;
    if (meta.class != 1) { classify; }
    routing;
}
"#;

fn main() {
    // 1. Compile the text.
    let program = parse_program(SOURCE).expect("P4-lite compiles");
    println!(
        "compiled {:?}: {} tables, {} fields",
        program.name,
        program.tables().count(),
        program.fields.len()
    );

    // 2. Profile with traffic where tenant 13 dominates (high drop rate at
    //    the *first* ACL would be ideal — but the profile has to prove it).
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(program.clone(), params.clone()).expect("deploys");
    nic.set_instrumentation(true, 1);
    let tenant = program.fields.get("meta.tenant").unwrap();
    let flow_fields: Vec<_> = ["ipv4.src", "ipv4.dst", "tcp.dport"]
        .iter()
        .map(|n| program.fields.get(n).unwrap())
        .collect();
    let mut gen = FlowGen::new(program.fields.len(), flow_fields, 3000, 9).with_bias(FieldBias {
        field: tenant,
        value: 13,
        probability: 0.55,
    });
    let before = nic.measure(gen.batch(20_000));
    let profile = nic.take_profile();
    println!(
        "measured: {:.1} Gbps, {:.0}% dropped",
        before.throughput_gbps,
        100.0 * before.dropped as f64 / before.packets as f64
    );

    // 3. Optimize and print the plan + the optimized JSON's size.
    let optimizer = Optimizer::new(CostModel::new(params));
    let outcome = optimizer
        .optimize(&program, &profile, ResourceLimits::unlimited())
        .expect("optimizes");
    let applied = apply_plan(
        &program,
        &outcome.plan,
        &optimizer.model,
        &profile,
        &optimizer.cfg,
    )
    .expect("the plan builds");
    for step in &applied.summary {
        println!("plan: {step}");
    }
    let json = pipeleon_suite::ir::json::to_json_string(&applied.graph).unwrap();
    println!(
        "estimated gain {:.1} ns/packet; optimized IR is {} bytes of JSON",
        outcome.est_gain_ns,
        json.len()
    );
}
