//! Chaos differential suite: drive the runtime controller through
//! workload drift + entry churn while a seeded [`FaultyTarget`] injects
//! deploy rejections, torn deploys, entry failures, and profile
//! loss/corruption — then assert the system always converges to a state
//! whose forwarding semantics match a fault-free reference.
//!
//! The reference is the controller's own `original()` program executed
//! directly: the controller rolls failed control-plane ops back, so the
//! original program is by construction "the successful ops only", and any
//! deployed (optimized) layout must stay semantically equivalent to it.
//!
//! The seed matrix (`common::SYNTH_SEEDS`) is the one CI runs as a
//! dedicated step.

use pipeleon::search::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{MatchValue, TableEntry};
use pipeleon_runtime::{
    graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, RuntimeError,
    SimTarget, Target,
};
use pipeleon_sim::{NicBackend, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::AclPipeline;

mod common;
use common::SYNTH_SEEDS;

/// Deterministic op-mix generator, deliberately distinct from the fault
/// schedule's PRNG so churn and faults decorrelate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Shadow model of each ACL table's expected entries (key values), kept
/// in lock-step with ops the controller *accepted*. Index 0 is the
/// preinstalled drop rule and is never removed.
type Shadow = Vec<Vec<u64>>;

fn churn_once<T: Target>(
    c: &mut Controller<T>,
    p: &AclPipeline,
    shadow: &mut Shadow,
    rng: &mut Lcg,
    value: u64,
    seed: u64,
) {
    let ti = rng.below(p.acls.len() as u64) as usize;
    let table = p.acls[ti];
    let do_remove = shadow[ti].len() > 1 && rng.below(3) == 0;
    if do_remove {
        let index = 1 + rng.below(shadow[ti].len() as u64 - 1) as usize;
        match c.remove_entry(table, index) {
            Ok(()) => {
                shadow[ti].remove(index);
            }
            Err(RuntimeError::EntryOpFailed { op: "remove", .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected remove error: {e}"),
        }
    } else {
        match c.insert_entry(table, TableEntry::new(vec![MatchValue::Exact(value)], 1)) {
            Ok(()) => shadow[ti].push(value),
            Err(RuntimeError::EntryOpFailed { op: "insert", .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected insert error: {e}"),
        }
    }
}

/// Asserts the controller's original program matches the shadow model —
/// i.e. failed ops really were rolled back and successful ones kept.
fn assert_shadow_matches<T: Target>(
    c: &Controller<T>,
    p: &AclPipeline,
    shadow: &Shadow,
    seed: u64,
) {
    for (ti, &table) in p.acls.iter().enumerate() {
        let entries = &c
            .original()
            .node(table)
            .unwrap()
            .as_table()
            .unwrap()
            .entries;
        let got: Vec<u64> = entries
            .iter()
            .map(|e| match e.matches[0] {
                MatchValue::Exact(v) => v,
                ref other => panic!("seed {seed}: unexpected key {other:?}"),
            })
            .collect();
        assert_eq!(
            got, shadow[ti],
            "seed {seed}: original table {table} diverged from accepted ops"
        );
    }
}

fn feed_window<N: NicBackend>(
    c: &mut Controller<FaultyTarget<SimTarget<N>>>,
    p: &AclPipeline,
    window: u64,
    seed: u64,
) {
    let n = p.acls.len();
    let mut rates = vec![0.0; n];
    rates[(seed as usize + window as usize) % n] = 0.6;
    let mut gen = p.traffic(&rates, 400, seed * 1000 + window);
    let batch = gen.batch(3000);
    for mut pkt in batch {
        c.target.inner.nic.process_one(&mut pkt);
    }
}

/// The core chaos run: `windows` ticks of drifting traffic + entry churn
/// under an armed chaos schedule, then a healing phase with faults
/// disarmed, then semantic differential against the original program.
fn chaos_run<N, F>(seed: u64, windows: u64, make_nic: F)
where
    N: NicBackend,
    F: Fn(&AclPipeline) -> N,
{
    let p = AclPipeline::build(3, 3);
    let mut nic = make_nic(&p);
    nic.set_instrumentation(true, 1);
    let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
    let mut target = FaultyTarget::new(SimTarget::live(nic), FaultConfig::chaos(seed));
    // Construction must succeed; chaos starts with the run proper.
    target.set_armed(false);
    let mut c = Controller::new(
        target,
        p.graph.clone(),
        optimizer,
        ControllerConfig::default(),
    )
    .expect("construction is fault-free");
    c.target.set_armed(true);

    let mut rng = Lcg(seed ^ 0xc0ffee);
    let mut shadow: Shadow = p
        .acls
        .iter()
        .map(|_| vec![pipeleon_workloads::scenarios::ACL_DROP_VALUE])
        .collect();

    for w in 0..windows {
        feed_window(&mut c, &p, w, seed);
        for i in 0..3u64 {
            let value = 0x1_0000 + seed * 0x1000 + w * 0x10 + i;
            churn_once(&mut c, &p, &mut shadow, &mut rng, value, seed);
        }
        let r = c
            .tick()
            .unwrap_or_else(|e| panic!("seed {seed}: tick {w} failed: {e}"));
        // Health must be internally consistent every tick.
        assert!(
            !(r.deployed && r.health.pin_pending),
            "seed {seed}: deployed while the target was unreachable: {r:?}"
        );
    }
    assert_shadow_matches(&c, &p, &shadow, seed);

    // Healing phase: faults stop; the controller must converge.
    c.target.set_armed(false);
    let mut converged = false;
    for w in windows..windows + 5 {
        feed_window(&mut c, &p, w, seed);
        let r = c
            .tick()
            .unwrap_or_else(|e| panic!("seed {seed}: healing tick failed: {e}"));
        if !r.health.pin_pending {
            converged = true;
            break;
        }
    }
    assert!(converged, "seed {seed}: pin_pending never cleared");

    // Invariant: the target verifiably runs the last-known-good layout.
    assert_eq!(
        c.target.fingerprint().unwrap(),
        graph_fingerprint(c.last_known_good()),
        "seed {seed}: target diverged from controller bookkeeping"
    );
    if c.health().degraded {
        assert_eq!(
            graph_fingerprint(c.last_known_good()),
            graph_fingerprint(c.original()),
            "seed {seed}: degraded mode must pin the original program"
        );
    }
    // Health counters never under-report what the op log shows for
    // profile loss observed after the first window.
    let losses_injected = c
        .target
        .op_log()
        .iter()
        .filter(|r| matches!(r.fault, Some(pipeleon_runtime::InjectedFault::ProfileLoss)))
        .count() as u64;
    assert!(
        c.health().profile_losses <= losses_injected,
        "seed {seed}: health reports more losses than were injected"
    );

    // Differential: deployed semantics vs. the original program over both
    // generator traffic and every churned key value.
    let mut reference = SmartNic::new(c.original().clone(), CostParams::bluefield2()).unwrap();
    let mut gen = p.traffic(&[0.3, 0.3, 0.3], 400, seed * 7919);
    let mut probes = gen.batch(1500);
    for (ti, values) in shadow.iter().enumerate() {
        for &v in values {
            let mut pkt = Packet::new(&p.graph.fields);
            pkt.set(p.acl_fields[ti], v);
            probes.push(pkt);
        }
        // And a value that was never inserted (must pass on both).
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[ti], 0xdead_0000 + ti as u64);
        probes.push(pkt);
    }
    for (i, probe) in probes.into_iter().enumerate() {
        let mut a = probe.clone();
        let mut b = probe;
        let ra = c.target.inner.nic.process_one(&mut a);
        let rb = reference.process_one(&mut b);
        assert_eq!(
            ra.dropped, rb.dropped,
            "seed {seed}: probe {i} forwarding diverged from the fault-free reference"
        );
    }
}

#[test]
fn chaos_differential_smartnic_seed_matrix() {
    for &seed in &SYNTH_SEEDS {
        chaos_run(seed, 6, |p| {
            SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap()
        });
    }
}

#[test]
fn chaos_differential_sharded_runloop_seed_matrix() {
    // The sharded datapath goes through the same Target plumbing; the
    // full matrix exercises it because its generations are adopted by
    // worker threads.
    for &seed in &SYNTH_SEEDS {
        chaos_run(seed, 5, |p| {
            ShardedNic::new(p.graph.clone(), CostParams::bluefield2(), 4).unwrap()
        });
    }
}

#[test]
fn chaos_heavy_entry_faults_never_desync_the_original() {
    // A schedule biased to entry failures: the shadow comparison is the
    // sharp check that rollback bookkeeping is exact.
    for &seed in &SYNTH_SEEDS {
        let p = AclPipeline::build(2, 3);
        let mut nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
        nic.set_instrumentation(true, 1);
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let mut faults = FaultConfig::none(seed);
        faults.entry_fail_p = 0.5;
        let mut target = FaultyTarget::new(SimTarget::live(nic), faults);
        target.set_armed(false);
        let mut c = Controller::new(
            target,
            p.graph.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .unwrap();
        c.target.set_armed(true);
        let mut rng = Lcg(seed ^ 0xfeed);
        let mut shadow: Shadow = p
            .acls
            .iter()
            .map(|_| vec![pipeleon_workloads::scenarios::ACL_DROP_VALUE])
            .collect();
        for w in 0..4u64 {
            feed_window(&mut c, &p, w, seed);
            for i in 0..6u64 {
                let value = 0x2_0000 + seed * 0x1000 + w * 0x20 + i;
                churn_once(&mut c, &p, &mut shadow, &mut rng, value, seed);
            }
            c.tick().unwrap();
        }
        assert_shadow_matches(&c, &p, &shadow, seed);
    }
}
