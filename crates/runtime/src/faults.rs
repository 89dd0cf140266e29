//! Deterministic fault injection for [`Target`] implementations.
//!
//! Runtime re-optimization is only trustworthy if its failure paths are
//! exercised continuously: a deploy that the NIC driver rejects, a *torn*
//! deploy that leaves the old (or the new-but-unacknowledged) program
//! running, an entry insert that fails halfway through the controller's
//! site fan-out, a profiling window that comes back empty or with scaled
//! counters. [`FaultyTarget`] wraps any [`Target`] and injects exactly
//! those faults from a seeded, deterministic schedule, while recording an
//! op log so tests can assert precisely what the target saw.
//!
//! Faults come from two sources, scripted faults first:
//! * [`FaultyTarget::inject_next`] queues exact faults for upcoming ops
//!   of the matching kind (deterministic unit tests);
//! * [`FaultConfig`] probabilities drawn from a SplitMix64 stream seeded
//!   by [`FaultConfig::seed`] (chaos / differential fuzzing).

use crate::target::Target;
use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::IrError;
use pipeleon_sim::{Applied, ControlOp, LiveSwap, SpecStats};
use std::collections::VecDeque;

/// A fault a [`FaultyTarget`] can inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// Deploy returns an error; the running program is unchanged.
    DeployReject,
    /// Deploy returns `Ok` but the running program is *unchanged* — the
    /// torn case only a readback ([`Target::fingerprint`]) can catch.
    TornDeployStale,
    /// Deploy applies the new program but *reports failure* — retrying is
    /// harmless, but naive bookkeeping diverges until verified.
    TornDeployApplied,
    /// An entry insert/remove/replace fails; the site is untouched.
    EntryOpFail,
    /// The profile window is lost: an empty profile is returned.
    ProfileLoss,
    /// Profile counters are scaled by `factor` (a miscalibrated sampler).
    ProfileCorrupt {
        /// Multiplier applied to all counters.
        factor: u64,
    },
    /// The op succeeds but takes `ns` longer (recorded, not slept).
    LatencySpike {
        /// Injected extra latency in nanoseconds.
        ns: f64,
    },
}

impl InjectedFault {
    /// Whether this fault can fire on `op` (`None` = `take_profile`,
    /// which is a read, not an op).
    fn applies_to(&self, op: Option<&ControlOp>) -> bool {
        match self {
            InjectedFault::DeployReject
            | InjectedFault::TornDeployStale
            | InjectedFault::TornDeployApplied => matches!(op, Some(ControlOp::Deploy(_))),
            InjectedFault::EntryOpFail => matches!(
                op,
                Some(
                    ControlOp::InsertEntry { .. }
                        | ControlOp::RemoveEntry { .. }
                        | ControlOp::ReplaceTable { .. }
                )
            ),
            InjectedFault::ProfileLoss | InjectedFault::ProfileCorrupt { .. } => op.is_none(),
            InjectedFault::LatencySpike { .. } => true,
        }
    }
}

/// How the op log (and the journal's `fault_injected` events) spell an
/// op: its class and the node it names.
fn op_label(op: Option<&ControlOp>) -> String {
    match op {
        None => "TakeProfile".into(),
        Some(ControlOp::Deploy(_)) => "Deploy".into(),
        Some(ControlOp::InsertEntry { node, .. }) => format!("InsertEntry({node:?})"),
        Some(ControlOp::RemoveEntry { node, index }) => format!("RemoveEntry({node:?}, {index})"),
        Some(ControlOp::ReplaceTable { node, .. }) => format!("ReplaceTable({node:?})"),
        Some(ControlOp::FlushCache(node)) => format!("FlushCache({node:?})"),
        Some(ControlOp::SetInstrumentation { .. }) => "SetInstrumentation".into(),
        Some(ControlOp::SetPlacement(_)) => "SetPlacement".into(),
        Some(ControlOp::Specialize) => "Specialize".into(),
        Some(ControlOp::Despecialize) => "Despecialize".into(),
    }
}

/// One intercepted operation, with the fault injected into it (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// What the controller asked the target to do: the op's class and
    /// the node it names (`TakeProfile` for a profile read).
    pub op: String,
    /// The fault injected, or `None` for a clean pass-through.
    pub fault: Option<InjectedFault>,
    /// The target's datapath clock when the op was intercepted — lets a
    /// journal interleave faults with traffic-time events (e.g. live
    /// generation swaps) on one timeline. 0 for clock-less targets.
    pub at_s: f64,
}

/// Probabilities of the seeded fault schedule. All probabilities are in
/// `[0, 1]` and evaluated independently per matching op.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Probability a deploy is cleanly rejected.
    pub deploy_reject_p: f64,
    /// Probability a deploy is torn (split between stale/applied by a
    /// further coin flip from the same stream).
    pub torn_deploy_p: f64,
    /// Probability an entry insert/remove/replace fails.
    pub entry_fail_p: f64,
    /// Probability a profile window is lost (empty profile).
    pub profile_loss_p: f64,
    /// Probability profile counters are scaled by a random factor.
    pub profile_corrupt_p: f64,
    /// Probability an op carries a latency spike.
    pub latency_spike_p: f64,
    /// Size of an injected latency spike, nanoseconds.
    pub latency_spike_ns: f64,
    /// Stop injecting after this many faults (`None` = unbounded). Lets
    /// chaos runs provably converge once the budget is spent.
    pub max_faults: Option<u64>,
}

impl FaultConfig {
    /// No faults at all (pass-through wrapper; useful as a baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            deploy_reject_p: 0.0,
            torn_deploy_p: 0.0,
            entry_fail_p: 0.0,
            profile_loss_p: 0.0,
            profile_corrupt_p: 0.0,
            latency_spike_p: 0.0,
            latency_spike_ns: 0.0,
            max_faults: None,
        }
    }

    /// The default chaos mix used by the differential suite: every fault
    /// class enabled at moderate rates.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            deploy_reject_p: 0.25,
            torn_deploy_p: 0.15,
            entry_fail_p: 0.15,
            profile_loss_p: 0.10,
            profile_corrupt_p: 0.10,
            latency_spike_p: 0.05,
            latency_spike_ns: 50_000.0,
            max_faults: None,
        }
    }
}

/// SplitMix64: tiny, deterministic, dependency-free PRNG for the fault
/// schedule (the vendored `rand` stays a dev-dependency).
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A [`Target`] wrapper that injects faults from a deterministic
/// schedule and logs every operation it intercepts.
#[derive(Debug)]
pub struct FaultyTarget<T: Target> {
    /// The wrapped target (accessible for probing in tests).
    pub inner: T,
    cfg: FaultConfig,
    rng: SplitMix64,
    armed: bool,
    injected: u64,
    scripted: VecDeque<InjectedFault>,
    log: Vec<OpRecord>,
    /// Total injected latency, nanoseconds (spikes are recorded, not
    /// slept, so chaos runs stay fast and deterministic).
    pub injected_latency_ns: f64,
}

impl<T: Target> FaultyTarget<T> {
    /// Wraps `inner` with the given fault schedule, armed.
    pub fn new(inner: T, cfg: FaultConfig) -> Self {
        let rng = SplitMix64(cfg.seed ^ 0x5eed_fa17);
        Self {
            inner,
            cfg,
            rng,
            armed: true,
            injected: 0,
            scripted: VecDeque::new(),
            log: Vec::new(),
            injected_latency_ns: 0.0,
        }
    }

    /// Arms or disarms injection. Disarmed, the wrapper is a logging
    /// pass-through (scripted faults are also held).
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Queues `count` copies of `fault` to fire on the next matching ops,
    /// ahead of any probabilistic draw.
    pub fn inject_next(&mut self, fault: InjectedFault, count: u32) {
        for _ in 0..count {
            self.scripted.push_back(fault);
        }
    }

    /// Every intercepted op so far, in order, with injected faults.
    pub fn op_log(&self) -> &[OpRecord] {
        &self.log
    }

    /// Number of faults injected so far.
    pub fn fault_count(&self) -> u64 {
        self.injected
    }

    /// Unwraps the inner target.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Decides the fault (if any) for `op` (`None` = `take_profile`),
    /// logs the op, and accounts it.
    fn roll(&mut self, op: Option<&ControlOp>) -> Option<InjectedFault> {
        let fault = self.pick_fault(op);
        if fault.is_some() {
            self.injected += 1;
        }
        let at_s = self.inner.target_clock_s();
        self.log.push(OpRecord {
            op: op_label(op),
            fault,
            at_s,
        });
        fault
    }

    fn pick_fault(&mut self, op: Option<&ControlOp>) -> Option<InjectedFault> {
        // Specialization is a host-side rewrite of the compiled
        // datapath, not a reconfiguration RPC: it never tears, holds no
        // scripted fault up and draws nothing (so the injected-fault
        // stream is the same whether or not the controller specializes).
        let silent = matches!(op, Some(ControlOp::Specialize | ControlOp::Despecialize));
        if !self.armed || silent {
            return None;
        }
        // Scripted faults win over the probabilistic schedule.
        if let Some(front) = self.scripted.front() {
            if front.applies_to(op) {
                return self.scripted.pop_front();
            }
        }
        if let Some(max) = self.cfg.max_faults {
            if self.injected >= max {
                return None;
            }
        }
        let picked = match op {
            Some(ControlOp::Deploy(_)) => {
                if self.rng.next_f64() < self.cfg.deploy_reject_p {
                    Some(InjectedFault::DeployReject)
                } else if self.rng.next_f64() < self.cfg.torn_deploy_p {
                    Some(if self.rng.next_u64() & 1 == 0 {
                        InjectedFault::TornDeployStale
                    } else {
                        InjectedFault::TornDeployApplied
                    })
                } else {
                    None
                }
            }
            Some(
                ControlOp::InsertEntry { .. }
                | ControlOp::RemoveEntry { .. }
                | ControlOp::ReplaceTable { .. },
            ) => {
                (self.rng.next_f64() < self.cfg.entry_fail_p).then_some(InjectedFault::EntryOpFail)
            }
            None => {
                if self.rng.next_f64() < self.cfg.profile_loss_p {
                    Some(InjectedFault::ProfileLoss)
                } else if self.rng.next_f64() < self.cfg.profile_corrupt_p {
                    Some(InjectedFault::ProfileCorrupt {
                        factor: 2 + (self.rng.next_u64() % 31),
                    })
                } else {
                    None
                }
            }
            // Cache and datapath tuning only ever runs late.
            Some(_) => None,
        };
        if picked.is_some() {
            return picked;
        }
        (self.rng.next_f64() < self.cfg.latency_spike_p).then_some(InjectedFault::LatencySpike {
            ns: self.cfg.latency_spike_ns,
        })
    }

    fn injected_err(what: &str) -> IrError {
        IrError::Invalid(format!("injected fault: {what}"))
    }
}

impl<T: Target> Target for FaultyTarget<T> {
    fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError> {
        match self.roll(Some(&op)) {
            Some(InjectedFault::DeployReject) => Err(Self::injected_err("deploy rejected")),
            // Reported success, but the old program keeps running.
            Some(InjectedFault::TornDeployStale) => Ok(Applied::Done),
            Some(InjectedFault::TornDeployApplied) => {
                self.inner.apply(op)?;
                Err(Self::injected_err("deploy acked late (already applied)"))
            }
            Some(InjectedFault::EntryOpFail) => Err(Self::injected_err(match op {
                ControlOp::InsertEntry { .. } => "entry insert failed",
                ControlOp::RemoveEntry { .. } => "entry remove failed",
                _ => "table replace failed",
            })),
            Some(InjectedFault::LatencySpike { ns }) => {
                self.injected_latency_ns += ns;
                self.inner.apply(op)
            }
            _ => self.inner.apply(op),
        }
    }

    fn take_profile(&mut self) -> RuntimeProfile {
        match self.roll(None) {
            Some(InjectedFault::ProfileLoss) => {
                // The window is gone for the controller *and* the target.
                let _ = self.inner.take_profile();
                RuntimeProfile::empty()
            }
            Some(InjectedFault::ProfileCorrupt { factor }) => {
                let mut p = self.inner.take_profile();
                p.scale_counts(factor);
                p
            }
            Some(InjectedFault::LatencySpike { ns }) => {
                self.injected_latency_ns += ns;
                self.inner.take_profile()
            }
            _ => self.inner.take_profile(),
        }
    }

    fn reconfig_downtime_s(&self) -> f64 {
        self.inner.reconfig_downtime_s()
    }

    /// Readback is assumed reliable: a management-plane query, not the
    /// reconfiguration datapath. This is exactly what lets the controller
    /// detect torn deploys.
    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        self.inner.last_swap()
    }

    fn target_clock_s(&self) -> f64 {
        self.inner.target_clock_s()
    }

    fn spec_stats(&self) -> SpecStats {
        self.inner.spec_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SimTarget;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{MatchKind, MatchValue, NodeId, ProgramBuilder, ProgramGraph, TableEntry};
    use pipeleon_sim::SmartNic;

    fn acl_graph() -> ProgramGraph {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .finish();
        b.seal(t).unwrap()
    }

    fn faulty(cfg: FaultConfig) -> FaultyTarget<SimTarget> {
        let g = acl_graph();
        let nic = SmartNic::new(g, CostParams::bluefield2()).unwrap();
        FaultyTarget::new(SimTarget::live(nic), cfg)
    }

    fn deploy(g: &ProgramGraph) -> ControlOp {
        ControlOp::Deploy(g.clone())
    }

    /// 40 ops under `chaos(seed)`, optionally with a specialize step
    /// after every one of them.
    fn drive(seed: u64, specialize: bool) -> Vec<OpRecord> {
        let mut t = faulty(FaultConfig::chaos(seed));
        let g = acl_graph();
        for i in 0..40u64 {
            match i % 4 {
                0 => drop(t.apply(deploy(&g))),
                1 => drop(t.take_profile()),
                2 => drop(t.apply(ControlOp::InsertEntry {
                    node: NodeId(0),
                    entry: TableEntry::new(vec![MatchValue::Exact(i)], 1),
                })),
                _ => drop(t.apply(ControlOp::FlushCache(NodeId(0)))),
            }
            if specialize {
                let op = match i % 2 {
                    0 => ControlOp::Specialize,
                    _ => ControlOp::Despecialize,
                };
                t.apply(op).unwrap();
            }
        }
        t.op_log().to_vec()
    }

    #[test]
    fn same_seed_gives_identical_schedules() {
        assert_eq!(
            drive(7, false),
            drive(7, false),
            "schedule must be deterministic"
        );
        assert_ne!(
            drive(7, false),
            drive(8, false),
            "different seeds must differ"
        );
        // Specialization is logged, faultless, and draws nothing: the
        // other ops see the schedule they would have seen without it.
        let mut with_spec = drive(7, true);
        let silent = |r: &OpRecord| r.op == "Specialize" || r.op == "Despecialize";
        assert_eq!(with_spec.iter().filter(|r| silent(r)).count(), 40);
        assert!(with_spec.iter().all(|r| !silent(r) || r.fault.is_none()));
        with_spec.retain(|r| !silent(r));
        assert_eq!(with_spec, drive(7, false));
    }

    #[test]
    fn scripted_faults_fire_before_the_schedule() {
        let mut t = faulty(FaultConfig::none(1));
        let g = acl_graph();
        t.inject_next(InjectedFault::DeployReject, 2);
        assert!(t.apply(deploy(&g)).is_err());
        assert!(t.apply(deploy(&g)).is_err());
        assert!(t.apply(deploy(&g)).is_ok());
        assert_eq!(t.fault_count(), 2);
        let faults: Vec<_> = t.op_log().iter().filter_map(|r| r.fault).collect();
        assert_eq!(
            faults,
            vec![InjectedFault::DeployReject, InjectedFault::DeployReject]
        );
    }

    #[test]
    fn torn_stale_deploy_is_visible_only_through_fingerprint() {
        let mut t = faulty(FaultConfig::none(1));
        let before = t.fingerprint().unwrap();
        // A different program (extra entry) that a stale deploy must NOT
        // install despite reporting success.
        let mut g2 = acl_graph();
        g2.node_mut(NodeId(0))
            .unwrap()
            .as_table_mut()
            .unwrap()
            .entries
            .push(TableEntry::new(vec![MatchValue::Exact(9)], 1));
        t.inject_next(InjectedFault::TornDeployStale, 1);
        assert!(t.apply(deploy(&g2)).is_ok(), "torn-stale reports success");
        assert_eq!(t.fingerprint().unwrap(), before, "old program still runs");
        // And the applied-but-reported-failed variant: error, new program.
        t.inject_next(InjectedFault::TornDeployApplied, 1);
        assert!(t.apply(deploy(&g2)).is_err());
        assert_eq!(
            t.fingerprint().unwrap(),
            crate::target::graph_fingerprint(&g2),
            "new program actually runs"
        );
    }

    #[test]
    fn profile_faults_lose_or_scale_windows() {
        let mut t = faulty(FaultConfig::none(1));
        t.inner.nic.set_instrumentation(true, 1);
        let mut pkt = pipeleon_sim::Packet::new(&t.inner.nic.graph().fields);
        t.inner.nic.process_one(&mut pkt);
        t.inject_next(InjectedFault::ProfileLoss, 1);
        assert!(t.take_profile().is_empty(), "window lost");
        // The loss also drained the inner profile.
        let mut pkt = pipeleon_sim::Packet::new(&t.inner.nic.graph().fields);
        t.inner.nic.process_one(&mut pkt);
        t.inject_next(InjectedFault::ProfileCorrupt { factor: 10 }, 1);
        let p = t.take_profile();
        assert_eq!(p.total_packets, 10, "1 packet scaled by 10");
    }

    #[test]
    fn disarmed_wrapper_is_a_pure_passthrough() {
        let mut t = faulty(FaultConfig::chaos(3));
        t.set_armed(false);
        let g = acl_graph();
        for _ in 0..50 {
            t.apply(deploy(&g)).unwrap();
        }
        assert_eq!(t.fault_count(), 0);
        assert_eq!(t.op_log().len(), 50);
    }

    #[test]
    fn max_faults_bounds_the_budget() {
        let mut cfg = FaultConfig::chaos(5);
        cfg.deploy_reject_p = 1.0;
        cfg.max_faults = Some(3);
        let mut t = faulty(cfg);
        let g = acl_graph();
        let failures = (0..10).filter(|_| t.apply(deploy(&g)).is_err()).count();
        assert_eq!(failures, 3, "injection stops at the budget");
    }
}
