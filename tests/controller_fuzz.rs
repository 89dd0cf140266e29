//! Long-run controller fuzz: random traffic phases, entry churn, and
//! re-optimizations must never break the deployed program, the entry API,
//! or packet semantics.

use pipeleon::search::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{MatchValue, TableEntry};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget};
use pipeleon_sim::{NicBackend, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::{AclPipeline, ACL_DROP_VALUE};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

#[test]
fn controller_survives_random_phases_and_churn() {
    let p = AclPipeline::build(6, 4);
    let params = CostParams::bluefield2();
    let mut nic = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 32);
    let mut c = Controller::new(
        SimTarget::live(nic),
        p.graph.clone(),
        Optimizer::new(CostModel::new(params)),
        ControllerConfig::default(),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(999);
    let mut installed: Vec<(usize, u64)> = Vec::new(); // (acl index, value)
    for window in 0..25u64 {
        // Random drop-rate phase.
        let mut rates = [0.0f64; 4];
        rates[rng.gen_range(0..4usize)] = rng.gen_range(0.0..0.8);
        let mut gen = p.traffic(&rates, 500, window);
        c.target.nic.measure(gen.batch(5_000));

        // Random entry churn through the original-program API.
        for _ in 0..rng.gen_range(0..8) {
            if rng.gen_bool(0.7) || installed.is_empty() {
                let acl = rng.gen_range(0..p.acls.len());
                let value = 0x5000 + rng.gen_range(0..500u64);
                if c.insert_entry(
                    p.acls[acl],
                    TableEntry::new(vec![MatchValue::Exact(value)], 1),
                )
                .is_ok()
                {
                    installed.push((acl, value));
                }
            } else {
                let i = rng.gen_range(0..installed.len());
                let (acl, _) = installed[i];
                // Entry indices: 0 is the preinstalled deny; ours follow.
                let orig_entries = c
                    .original()
                    .node(p.acls[acl])
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .entries
                    .len();
                if orig_entries > 1 {
                    c.remove_entry(p.acls[acl], orig_entries - 1).unwrap();
                    // Keep our shadow list roughly in sync (drop the last
                    // installed entry for that acl).
                    if let Some(pos) = installed.iter().rposition(|(a, _)| *a == acl) {
                        installed.remove(pos);
                    }
                }
            }
        }
        let report = c.tick().unwrap();
        // Invariants every window:
        // 1. The deployed program always validates.
        c.target.nic.graph().validate().unwrap();
        // 2. The preinstalled deny rules still fire post-reconfiguration.
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], ACL_DROP_VALUE);
        assert!(
            c.target.nic.process_one(&mut pkt).dropped,
            "window {window}: preinstalled deny lost (report {report:?})"
        );
        // 3. A clean packet is never spuriously dropped.
        let mut pkt = Packet::new(&p.graph.fields);
        for (i, &f) in p.flow_fields.iter().enumerate() {
            pkt.set(f, 100 + i as u64);
        }
        assert!(
            !c.target.nic.process_one(&mut pkt).dropped,
            "window {window}: clean packet dropped"
        );
    }
    // The controller must have reconfigured at least once under this much
    // drift.
    assert!(c.reconfig_count >= 1);
    // A fault-free run must report clean health: no retries, rollbacks,
    // degraded mode, or pending pins.
    let h = c.health();
    assert!(!h.degraded && !h.pin_pending, "{h:?}");
    assert_eq!(h.deploy_retries, 0);
    assert_eq!(h.rollbacks, 0);
    assert_eq!(h.consecutive_deploy_failures, 0);
    assert_eq!(h.profile_losses, 0);
}

#[test]
fn controller_survives_churn_on_sharded_target() {
    // The same fuzz loop against a 4-worker sharded datapath: the
    // controller's insert/remove/replace operations fan out to every
    // shard, so all shards must stay consistent (identical deployed
    // graphs) and semantics must hold on whatever shard a probe packet
    // hashes to.
    let p = AclPipeline::build(6, 4);
    let params = CostParams::bluefield2();
    let mut nic = ShardedNic::new(p.graph.clone(), params.clone(), 4).unwrap();
    nic.set_instrumentation(true, 32);
    let mut c = Controller::new(
        SimTarget::live(nic),
        p.graph.clone(),
        Optimizer::new(CostModel::new(params)),
        ControllerConfig::default(),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(999);
    let mut installed: Vec<(usize, u64)> = Vec::new();
    for window in 0..15u64 {
        let mut rates = [0.0f64; 4];
        rates[rng.gen_range(0..4usize)] = rng.gen_range(0.0..0.8);
        let mut gen = p.traffic(&rates, 500, window);
        c.target.nic.measure(gen.batch(5_000));

        for _ in 0..rng.gen_range(0..8) {
            if rng.gen_bool(0.7) || installed.is_empty() {
                let acl = rng.gen_range(0..p.acls.len());
                let value = 0x5000 + rng.gen_range(0..500u64);
                if c.insert_entry(
                    p.acls[acl],
                    TableEntry::new(vec![MatchValue::Exact(value)], 1),
                )
                .is_ok()
                {
                    installed.push((acl, value));
                }
            } else {
                let i = rng.gen_range(0..installed.len());
                let (acl, _) = installed[i];
                let orig_entries = c
                    .original()
                    .node(p.acls[acl])
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .entries
                    .len();
                if orig_entries > 1 {
                    c.remove_entry(p.acls[acl], orig_entries - 1).unwrap();
                    if let Some(pos) = installed.iter().rposition(|(a, _)| *a == acl) {
                        installed.remove(pos);
                    }
                }
            }
        }
        let report = c.tick().unwrap();
        // Invariants every window:
        // 1. The deployed program always validates, on every shard, and
        //    entry fan-out left all shards with identical graphs.
        let reference = c.target.nic.graph().clone();
        reference.validate().unwrap();
        for (shard, g) in c.target.nic.shard_graphs().into_iter().enumerate() {
            assert_eq!(
                g, reference,
                "window {window}: shard {shard} diverged from shard 0 (report {report:?})"
            );
        }
        // 2. The preinstalled deny rules still fire post-reconfiguration.
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], ACL_DROP_VALUE);
        assert!(
            c.target.nic.process_one(&mut pkt).dropped,
            "window {window}: preinstalled deny lost (report {report:?})"
        );
        // 3. A clean packet is never spuriously dropped.
        let mut pkt = Packet::new(&p.graph.fields);
        for (i, &f) in p.flow_fields.iter().enumerate() {
            pkt.set(f, 100 + i as u64);
        }
        assert!(
            !c.target.nic.process_one(&mut pkt).dropped,
            "window {window}: clean packet dropped"
        );
        // 4. Our own installed entries fire on whichever shard their
        //    flow hashes to.
        if let Some(&(acl, value)) = installed.last() {
            let mut pkt = Packet::new(&p.graph.fields);
            pkt.set(p.acl_fields[acl], value);
            assert!(
                c.target.nic.process_one(&mut pkt).dropped,
                "window {window}: installed entry ({acl}, {value:#x}) not matching"
            );
        }
    }
    assert!(c.reconfig_count >= 1);
    let h = c.health();
    assert!(!h.degraded && !h.pin_pending, "{h:?}");
    assert_eq!(h.rollbacks, 0);
}

#[test]
fn controller_handles_degenerate_programs() {
    // Single-table program: nothing to optimize, but the loop must be
    // stable and the API must work.
    use pipeleon_ir::{MatchKind, ProgramBuilder};
    let mut b = ProgramBuilder::new();
    let f = b.field("x");
    let t = b
        .table("only")
        .key(f, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .finish();
    let g = b.seal(t).unwrap();
    let params = CostParams::emulated_nic();
    let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
    nic.set_instrumentation(true, 1);
    let mut c = Controller::new(
        SimTarget::live(nic),
        g.clone(),
        Optimizer::new(CostModel::new(params)),
        ControllerConfig::default(),
    )
    .unwrap();
    for i in 0..5 {
        let mut pkt = Packet::new(&g.fields);
        pkt.set(f, i);
        c.target.nic.process_one(&mut pkt);
        c.tick().unwrap();
    }
    c.insert_entry(t, TableEntry::new(vec![MatchValue::Exact(3)], 1))
        .unwrap();
    let mut pkt = Packet::new(&g.fields);
    pkt.set(f, 3);
    assert!(c.target.nic.process_one(&mut pkt).dropped);
}
