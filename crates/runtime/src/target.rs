//! The deployable-target abstraction.

use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::{CacheRole, IrError, NodeId, ProgramGraph};
use pipeleon_sim::{Applied, ControlOp, LiveSwap, NicBackend, SmartNic, SpecStats};

/// A SmartNIC the controller can deploy programs to and profile.
pub trait Target {
    /// Applies one control operation to the running datapath. A
    /// rejected op changes nothing. Targets without a specializing
    /// datapath answer [`ControlOp::Specialize`] and
    /// [`ControlOp::Despecialize`] with [`Applied::Unchanged`].
    fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError>;
    /// Collects and resets the runtime profile (optimized-layout space).
    fn take_profile(&mut self) -> RuntimeProfile;
    /// Seconds of service interruption one reconfiguration costs
    /// (0 for runtime-programmable targets like BlueField2; positive for
    /// reload-based targets like Agilio CX, §5.1).
    fn reconfig_downtime_s(&self) -> f64 {
        0.0
    }
    /// Readback hook: a fingerprint of the program the target is
    /// *actually* running, for post-deploy verification. Targets that
    /// cannot read their program back return `None`; the controller then
    /// trusts the deploy return code alone (and cannot detect torn
    /// deploys).
    fn fingerprint(&self) -> Option<u64> {
        None
    }
    /// The most recent pipeline swap the target performed, if it reports
    /// them (`None` before the first).
    fn last_swap(&self) -> Option<LiveSwap> {
        None
    }
    /// The target's datapath clock in seconds, when it has one. Used to
    /// timestamp control-plane events against traffic time; targets
    /// without a clock report 0.
    fn target_clock_s(&self) -> f64 {
        0.0
    }
    /// The target's specialization counters (zeros for targets without
    /// a specializing datapath).
    fn spec_stats(&self) -> SpecStats {
        SpecStats::default()
    }
}

/// Fingerprint of a program graph: [`pipeleon_ir::json::fingerprint`],
/// the hash of its canonical JSON document. Graphs that fail to export
/// (should not happen for validated graphs) get the sentinel
/// `u64::MAX`.
pub fn graph_fingerprint(g: &ProgramGraph) -> u64 {
    pipeleon_ir::json::fingerprint(g).unwrap_or(u64::MAX)
}

/// [`Target`] wrapper for the software emulator, with configurable
/// reconfiguration downtime. Generic over the datapath backend: the
/// default [`SmartNic`] is single-threaded; a
/// [`ShardedNic`](pipeleon_sim::ShardedNic) runs the same programs over
/// parallel worker shards with deterministically merged profiles.
#[derive(Debug)]
pub struct SimTarget<N: NicBackend = SmartNic> {
    /// The wrapped NIC.
    pub nic: N,
    /// Downtime per reconfiguration in seconds.
    pub downtime_s: f64,
}

impl<N: NicBackend> SimTarget<N> {
    /// A runtime-programmable target (BlueField2-style): no downtime.
    pub fn live(nic: N) -> Self {
        Self {
            nic,
            downtime_s: 0.0,
        }
    }

    /// A reload-based target (Agilio-style) with the given downtime.
    pub fn reloading(nic: N, downtime_s: f64) -> Self {
        Self { nic, downtime_s }
    }
}

impl<N: NicBackend> Target for SimTarget<N> {
    /// A reload-based target restarts its datapath on a deploy, so it
    /// keeps no flow-cache entry across one: each flow cache of the new
    /// program is flushed right after it lands.
    fn apply(&mut self, op: ControlOp) -> Result<Applied, IrError> {
        let reload = self.downtime_s > 0.0 && matches!(op, ControlOp::Deploy(_));
        let applied = self.nic.apply(op)?;
        if reload {
            let caches: Vec<NodeId> = self
                .nic
                .graph()
                .tables()
                .filter(|(_, t)| t.cache_role == CacheRole::FlowCache)
                .map(|(n, _)| n.id)
                .collect();
            for cache in caches {
                self.nic.apply(ControlOp::FlushCache(cache))?;
            }
        }
        Ok(applied)
    }

    fn take_profile(&mut self) -> RuntimeProfile {
        self.nic.take_profile()
    }

    fn reconfig_downtime_s(&self) -> f64 {
        self.downtime_s
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(graph_fingerprint(self.nic.graph()))
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        self.nic.last_swap()
    }

    fn target_clock_s(&self) -> f64 {
        self.nic.now_s()
    }

    fn spec_stats(&self) -> SpecStats {
        self.nic.spec_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_ir::{MatchKind, ProgramBuilder};
    use pipeleon_sim::Packet;

    fn simple_graph() -> ProgramGraph {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t = b.table("t").key(f, MatchKind::Exact).finish();
        b.seal(t).unwrap()
    }

    #[test]
    fn sim_target_passthrough() {
        let g = simple_graph();
        let nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
        let mut t = SimTarget::live(nic);
        assert_eq!(t.reconfig_downtime_s(), 0.0);
        t.apply(ControlOp::Deploy(g)).unwrap();
        let p = t.take_profile();
        assert_eq!(p.total_packets, 0);
    }

    #[test]
    fn fingerprint_tracks_the_deployed_program() {
        let g = simple_graph();
        let nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
        let mut t = SimTarget::live(nic);
        let fp0 = t.fingerprint().unwrap();
        assert_eq!(
            fp0,
            graph_fingerprint(&g),
            "readback matches the source graph"
        );
        // Mutating the running program changes the fingerprint.
        t.apply(ControlOp::InsertEntry {
            node: pipeleon_ir::NodeId(0),
            entry: pipeleon_ir::TableEntry::new(vec![pipeleon_ir::MatchValue::Exact(1)], 0),
        })
        .unwrap();
        assert_ne!(t.fingerprint().unwrap(), fp0);
    }

    /// A reload-based target empties every flow cache on a deploy, even
    /// one the datapath would keep; a live target keeps it.
    #[test]
    fn reloading_target_keeps_no_flow_cache_across_a_deploy() {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let t = b.table("t").key(x, MatchKind::Exact).finish();
        b.set_next(t, None);
        let cache = b
            .table("cache")
            .key(x, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .by_action(vec![None, Some(t)])
            .finish();
        let g = b.seal(cache).unwrap();
        for (downtime_s, kept) in [(0.0, 4), (2.0, 0)] {
            let nic = SmartNic::new(g.clone(), CostParams::agilio_cx()).unwrap();
            let mut target = SimTarget::reloading(nic, downtime_s);
            for v in 0..4 {
                target.nic.process_one(&mut Packet::with_slots(vec![v]));
            }
            assert_eq!(target.nic.executor_mut().cache_len(cache), 4);
            target.apply(ControlOp::Deploy(g.clone())).unwrap();
            let len = target.nic.executor_mut().cache_len(cache);
            assert_eq!(len, kept, "downtime {downtime_s} s");
        }
    }

    #[test]
    fn reloading_target_reports_downtime() {
        let g = simple_graph();
        let nic = SmartNic::new(g, CostParams::agilio_cx()).unwrap();
        let t = SimTarget::reloading(nic, 2.5);
        assert_eq!(t.reconfig_downtime_s(), 2.5);
    }
}
