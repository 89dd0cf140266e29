//! Expected-latency computation (paper Eq. 1–4).
//!
//! `L(G) = Σ_π P(π)·L(π)` is computed in linear time by weighting each
//! node's cost with its visit probability (identical on DAGs because every
//! path's probability distributes over its nodes).

use crate::params::CostParams;
use crate::profile::RuntimeProfile;
use crate::tiers::MemoryTier;
use pipeleon_ir::{CacheRole, NodeId, NodeKind, ProgramGraph, Table};

/// Which core class a node executes on (heterogeneous targets, §3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// ASIC packet-engine cores (fast path).
    #[default]
    Asic,
    /// General-purpose / SoC CPU cores (slow path, `cpu_scale`× cost).
    Cpu,
}

/// What [`CostModel::expected`] yields for one layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Expected per-packet latency `L(G)`, migrations included.
    pub latency: f64,
    /// Expected placement-crossing edges a packet takes.
    pub migrations: f64,
}

/// The approximate cost model, parameterized by a target's [`CostParams`].
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The target parameters in use.
    pub params: CostParams,
}

impl CostModel {
    /// Creates a model over the given target parameters.
    pub fn new(params: CostParams) -> Self {
        Self { params }
    }

    /// `L_match(v) = m_v · L_mat` (Eq. 4a).
    pub fn match_cost(&self, table: &Table) -> f64 {
        self.params.memory_accesses(table) * self.params.l_mat
    }

    /// `L_action(v) = Σ_a P(a) · n_a · L_act` (Eq. 4b), given per-action
    /// probabilities.
    pub fn action_cost(&self, table: &Table, action_probs: &[f64]) -> f64 {
        table
            .actions
            .iter()
            .enumerate()
            .map(|(i, a)| {
                action_probs.get(i).copied().unwrap_or(0.0)
                    * a.num_primitives() as f64
                    * self.params.l_act
            })
            .sum()
    }

    /// The expected cost of executing one node, conditioned on a packet
    /// entering it. Flow caches additionally pay the entry-insertion cost
    /// on the miss (default-action) path.
    pub fn node_cost(&self, g: &ProgramGraph, id: NodeId, profile: &RuntimeProfile) -> f64 {
        let Some(n) = g.node(id) else {
            return 0.0;
        };
        match &n.kind {
            NodeKind::Table(t) => {
                let probs = profile.action_probs(g, id);
                let mut cost = self.match_cost(t) + self.action_cost(t, &probs);
                if t.cache_role == CacheRole::FlowCache {
                    let miss_p = probs.get(t.default_action).copied().unwrap_or(0.0);
                    cost += miss_p * self.params.l_cache_insert;
                }
                cost
            }
            NodeKind::Branch(b) => {
                self.params.l_branch * b.condition.num_comparisons().max(1) as f64
            }
        }
    }

    /// Expected program latency `L(G)` (Eq. 1) with every node on the
    /// ASIC cores and every table in EMEM: [`Self::expected`] over empty
    /// layouts.
    pub fn expected_latency(&self, g: &ProgramGraph, profile: &RuntimeProfile) -> f64 {
        self.expected(g, profile, &[], &[]).latency
    }

    /// `L(G) = Σ_π P(π)·L(π)` (Eq. 1) as one visit-weighted walk: the base
    /// overhead, plus `p(v)·L(v)` per node (Eq. 4), plus
    /// `p(v)·P(slot)·l_migration` per placement-crossing edge.
    ///
    /// A node on [`Placement::Cpu`] (§3.2.4) pays `cpu_scale`× its whole
    /// cost; a table on [`MemoryTier::Sram`] (§6) pays
    /// `tiers.match_scale`× its match part. Both layouts are dense by node
    /// id; missing ids, and empty slices, mean [`Placement::Asic`] and
    /// [`MemoryTier::Emem`].
    pub fn expected(
        &self,
        g: &ProgramGraph,
        profile: &RuntimeProfile,
        placement: &[Placement],
        tiers: &[MemoryTier],
    ) -> Expected {
        let visits = profile.visit_probabilities(g);
        let place = |id: NodeId| placement.get(id.index()).copied().unwrap_or_default();
        let split = placement.contains(&Placement::Cpu);
        // Sum first, add `l_base` last: the flat `L(G)` that figures and
        // run records print depends on this order to the last bit.
        let (mut sum, mut migrations) = (0.0, 0.0);
        for n in g.iter_nodes() {
            let p = visits[n.id.index()];
            if p == 0.0 {
                continue;
            }
            let mut cost = self.node_cost(g, n.id, profile);
            if let (Some(t), Some(MemoryTier::Sram)) = (n.as_table(), tiers.get(n.id.index())) {
                let scale = self.params.tiers.match_scale(MemoryTier::Sram);
                cost += self.match_cost(t) * (scale - 1.0);
            }
            let scale = match place(n.id) {
                Placement::Asic => 1.0,
                Placement::Cpu => self.params.cpu_scale,
            };
            sum += p * cost * scale;
            if !split {
                continue;
            }
            let slot_probs = profile.slot_probs(g, n.id);
            for (slot, target) in n.next.targets().into_iter().enumerate() {
                if target.is_some_and(|t| place(t) != place(n.id)) {
                    let crossing = p * slot_probs.get(slot).copied().unwrap_or(0.0);
                    migrations += crossing;
                    sum += crossing * self.params.l_migration;
                }
            }
        }
        Expected {
            latency: self.params.l_base + sum,
            migrations,
        }
    }

    /// The latency of one concrete path (Eq. 2b), using the profile only
    /// for per-action probabilities inside tables. Used by tests to check
    /// the propagation-based computation against path enumeration.
    pub fn path_latency(&self, g: &ProgramGraph, path: &[NodeId], profile: &RuntimeProfile) -> f64 {
        self.params.l_base
            + path
                .iter()
                .map(|&id| self.node_cost(g, id, profile))
                .sum::<f64>()
    }

    /// The cost contribution of a node subset (a pipelet), weighted by the
    /// probability of reaching each member: `Σ_{v∈S} p(v)·L(v)` — the
    /// `L(G')·P(G')` hot-pipelet score of §4.1.2 generalized to members
    /// with unequal reach.
    pub fn subset_cost(&self, g: &ProgramGraph, nodes: &[NodeId], profile: &RuntimeProfile) -> f64 {
        let visits = profile.visit_probabilities(g);
        nodes
            .iter()
            .map(|&id| {
                visits.get(id.index()).copied().unwrap_or(0.0) * self.node_cost(g, id, profile)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MatchCostModel;
    use pipeleon_ir::{Condition, MatchKind, Primitive, ProgramBuilder};

    fn params() -> CostParams {
        let mut p = CostParams::bluefield2();
        p.l_mat = 10.0;
        p.l_act = 2.0;
        p.l_branch = 1.0;
        p.l_base = 0.0;
        p.l_cache_insert = 100.0;
        p.match_model = MatchCostModel::Fixed {
            lpm: 3.0,
            ternary: 3.0,
            range: 3.0,
        };
        p
    }

    #[test]
    fn single_exact_table_cost() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t = b
            .table("t")
            .key(f, MatchKind::Exact)
            .action("a", vec![Primitive::set(f, 1), Primitive::Nop])
            .finish();
        let g = b.seal(t).unwrap();
        let m = CostModel::new(params());
        // match 1*10 + action 1.0 prob * 2 prims * 2.0 = 14.
        let lat = m.expected_latency(&g, &RuntimeProfile::empty());
        assert!((lat - 14.0).abs() < 1e-9, "got {lat}");
    }

    #[test]
    fn expected_latency_matches_path_enumeration() {
        // Build a branchy program and verify the walk == Σ P(π)L(π), flat
        // and under a CPU placement, an SRAM tier, and both at once.
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let l1 = b
            .table("l1")
            .key(f, MatchKind::Exact)
            .action("a", vec![Primitive::Nop])
            .finish();
        b.set_next(l1, None);
        let l2 = b
            .table("l2")
            .key(f, MatchKind::Lpm)
            .action("a", vec![Primitive::Nop, Primitive::Nop])
            .finish();
        b.set_next(l2, None);
        let br = b.branch("br", Condition::eq(f, 1), Some(l1), Some(l2));
        let head = b
            .table("head")
            .key(f, MatchKind::Exact)
            .action_nop("go")
            .finish();
        b.set_next(head, Some(br));
        let g = b.seal(head).unwrap();

        let mut prof = RuntimeProfile::empty();
        prof.record_edge(pipeleon_ir::EdgeRef::new(br, 0), 30);
        prof.record_edge(pipeleon_ir::EdgeRef::new(br, 1), 70);

        let mut p = params();
        p.cpu_scale = 5.0;
        p.l_migration = 50.0;
        let m = CostModel::new(p);
        // Path enumeration: two paths, head->br->l1 (p=.3), head->br->l2 (p=.7).
        let paths = g.enumerate_paths(16);
        assert_eq!(paths.len(), 2);
        let prob = |path: &[NodeId]| if path.contains(&l1) { 0.3 } else { 0.7 };
        let fast = m.expected_latency(&g, &prof);
        let mut slow = 0.0;
        for p in &paths {
            // path_latency includes l_base once per path; weights sum to 1.
            slow += prob(p) * m.path_latency(&g, p, &prof);
        }
        assert!((fast - slow).abs() < 1e-9, "fast={fast} slow={slow}");

        // One path's latency under a layout, written out from the paper's
        // terms: a CPU node pays cpu_scale× its cost, an SRAM table
        // 1/sram_speedup× its match part, each crossing hop l_migration.
        let on_path = |path: &[NodeId], cpu: &[NodeId], sram: &[NodeId]| {
            let mut lat = m.params.l_base;
            for &id in path {
                let matched = g
                    .node(id)
                    .unwrap()
                    .as_table()
                    .map_or(0.0, |t| m.match_cost(t));
                let tier = if sram.contains(&id) {
                    1.0 / m.params.tiers.sram_speedup
                } else {
                    1.0
                };
                let core = if cpu.contains(&id) {
                    m.params.cpu_scale
                } else {
                    1.0
                };
                lat += (m.node_cost(&g, id, &prof) - matched + matched * tier) * core;
            }
            let hops = path
                .windows(2)
                .filter(|w| cpu.contains(&w[0]) != cpu.contains(&w[1]))
                .count();
            (lat + hops as f64 * m.params.l_migration, hops as f64)
        };
        let layout = |cpu: &[NodeId], sram: &[NodeId]| {
            let mut placement = vec![Placement::Asic; g.id_bound()];
            let mut tiers = vec![MemoryTier::Emem; g.id_bound()];
            cpu.iter()
                .for_each(|id| placement[id.index()] = Placement::Cpu);
            sram.iter()
                .for_each(|id| tiers[id.index()] = MemoryTier::Sram);
            (placement, tiers)
        };
        let (cpu, sram) = ([br, l2], [l2, head]);
        for (cpu, sram) in [(&cpu[..], &[][..]), (&[], &sram), (&cpu, &sram)] {
            let (placement, tiers) = layout(cpu, sram);
            let walk = m.expected(&g, &prof, &placement, &tiers);
            let (mut lat, mut hops) = (0.0, 0.0);
            for p in &paths {
                let (l, h) = on_path(p, cpu, sram);
                lat += prob(p) * l;
                hops += prob(p) * h;
            }
            assert!(
                (walk.latency - lat).abs() < 1e-9,
                "{cpu:?}/{sram:?}: {walk:?} vs {lat}"
            );
            assert!(
                (walk.migrations - hops).abs() < 1e-9,
                "{cpu:?}/{sram:?}: {walk:?} vs {hops}"
            );
            // head->br crosses on every path, br->l1 on 30% of them.
            let crossings = if cpu.is_empty() { 0.0 } else { 1.3 };
            assert!((hops - crossings).abs() < 1e-9, "{cpu:?}: {hops}");
        }
    }

    #[test]
    fn dropped_packets_shorten_expected_latency() {
        // acl(drop 50%) -> big table. Higher drop rate => lower latency.
        let build = || {
            let mut b = ProgramBuilder::new();
            let f = b.field("x");
            let acl = b
                .table("acl")
                .key(f, MatchKind::Exact)
                .action_nop("permit")
                .action_drop("deny")
                .finish();
            let big = b
                .table("big")
                .key(f, MatchKind::Ternary)
                .action("a", vec![Primitive::Nop; 4])
                .finish();
            let _ = big;
            (b.seal(acl).unwrap(), acl)
        };
        let m = CostModel::new(params());
        let (g, acl) = build();
        let mut low_drop = RuntimeProfile::empty();
        low_drop.record_action(acl, 0, 90);
        low_drop.record_action(acl, 1, 10);
        let mut high_drop = RuntimeProfile::empty();
        high_drop.record_action(acl, 0, 10);
        high_drop.record_action(acl, 1, 90);
        assert!(m.expected_latency(&g, &high_drop) < m.expected_latency(&g, &low_drop));
    }

    #[test]
    fn flow_cache_pays_insert_cost_on_miss() {
        use pipeleon_ir::CacheRole;
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let orig = b.table("orig").key(f, MatchKind::Exact).finish();
        b.set_next(orig, None);
        let cache = b
            .table("cache")
            .key(f, MatchKind::Exact)
            .action_nop("hit")
            .action_nop("miss")
            .default_action(1)
            .cache_role(CacheRole::FlowCache)
            .by_action(vec![None, Some(orig)])
            .finish();
        let g = b.seal(cache).unwrap();
        let m = CostModel::new(params());
        let mut prof = RuntimeProfile::empty();
        prof.record_action(cache, 0, 80);
        prof.record_action(cache, 1, 20);
        let cost = m.node_cost(&g, cache, &prof);
        // match 10 + actions 0 + miss 0.2 * 100 insert.
        assert!((cost - 30.0).abs() < 1e-9, "got {cost}");
    }

    #[test]
    fn placement_scales_and_charges_migration() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t0 = b
            .table("t0")
            .key(f, MatchKind::Exact)
            .action("a", vec![Primitive::Nop])
            .finish();
        let t1 = b
            .table("t1")
            .key(f, MatchKind::Exact)
            .action("a", vec![Primitive::Nop])
            .finish();
        let _ = t1;
        let g = b.seal(t0).unwrap();
        let mut p = params();
        p.cpu_scale = 5.0;
        p.l_migration = 50.0;
        let m = CostModel::new(p);
        let prof = RuntimeProfile::empty();
        let all_asic = m.expected(&g, &prof, &[Placement::Asic, Placement::Asic], &[]);
        let base = m.expected_latency(&g, &prof);
        assert_eq!(all_asic.latency, base);
        assert_eq!(all_asic.migrations, 0.0);
        // Node cost each: 10 + 2 = 12. Split placement: t1 on CPU.
        let split = m.expected(&g, &prof, &[Placement::Asic, Placement::Cpu], &[]);
        // t0 12 + migration 50 + t1 12*5 = 122.
        assert!((split.latency - 122.0).abs() < 1e-9, "got {split:?}");
        assert_eq!(split.migrations, 1.0);
    }

    #[test]
    fn subset_cost_weights_by_reach() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let acl = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .finish();
        let tail = b
            .table("tail")
            .key(f, MatchKind::Exact)
            .action("a", vec![Primitive::Nop])
            .finish();
        let g = b.seal(acl).unwrap();
        let m = CostModel::new(params());
        let mut prof = RuntimeProfile::empty();
        prof.record_action(acl, 0, 50);
        prof.record_action(acl, 1, 50);
        let full = m.subset_cost(&g, &[acl, tail], &prof);
        let tail_only = m.subset_cost(&g, &[tail], &prof);
        // tail reached with p=0.5; cost = 0.5*(10+1*... tail has 1 action prob 1 * 1 prim * 2) = 0.5*12.
        assert!((tail_only - 6.0).abs() < 1e-9, "got {tail_only}");
        assert!(full > tail_only);
    }

    #[test]
    fn throughput_decreases_with_program_size() {
        let make = |n: usize| {
            let mut b = ProgramBuilder::new();
            let f = b.field("x");
            let mut first = None;
            for i in 0..n {
                let t = b
                    .table(format!("t{i}"))
                    .key(f, MatchKind::Exact)
                    .action("a", vec![Primitive::Nop])
                    .finish();
                first.get_or_insert(t);
            }
            b.seal(first.unwrap()).unwrap()
        };
        let m = CostModel::new(CostParams::bluefield2());
        let prof = RuntimeProfile::empty();
        let gbps = |g| m.params.throughput_gbps(m.expected_latency(g, &prof), 512);
        let (small, large) = (gbps(&make(5)), gbps(&make(40)));
        assert!(small > large, "small={small} large={large}");
    }
}
