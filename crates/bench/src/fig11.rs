//! Figure 11: runtime profile-guided optimization, three case studies.

use crate::{apply_manual, cells, managed, window, Table};
use pipeleon::plan::SegmentKind;
use pipeleon::{Optimizer, OptimizerConfig};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{CacheRole, MatchValue, TableEntry};
use pipeleon_sim::{ControlOp, SmartNic};
use pipeleon_workloads::scenarios::{DashRouting, LoadBalancer, NfComposition};

/// (a) Service load balancer on the BlueField2 model. The baseline caches
/// the whole program statically; an entry-insertion burst (windows 3–5)
/// invalidates its cache and tanks its throughput, while Pipeleon removes
/// or re-scopes caches. A later ACL drop-rate change (window 6) triggers
/// reordering.
pub fn load_balancer() -> Table {
    let mut t = Table::new(
        "Figure 11(a): load balancer, BlueField2 model",
        "panel time_s baseline_gbps pipeleon_gbps event",
    );
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();

    // Baseline: one whole-program cache, applied statically, never
    // adapted.
    let order: Vec<_> = [&lb.regular[..], &lb.lb, &lb.acls].concat();
    let cfg = OptimizerConfig::default();
    let whole = vec![(0, order.len(), SegmentKind::Cache)];
    let baseline_graph = apply_manual(&lb.graph, order, whole, &params, &cfg).graph;
    let mut baseline = SmartNic::new(baseline_graph, params.clone()).expect("deploys");
    let optimizer = Optimizer::new(CostModel::new(params.clone()));
    let mut controller = managed(&lb.graph, &params, 64, 0.0, optimizer);

    let mut entry_seq = 0u64;
    for w in 0..10u64 {
        if (3..6).contains(&w) {
            for _ in 0..300 {
                entry_seq += 1;
                let table = lb.lb[(entry_seq % 2) as usize];
                let entry = TableEntry::new(vec![MatchValue::Exact(1 << 20 | entry_seq)], 0);
                // Baseline suffers the same churn: its whole-program cache
                // is flushed per insertion (cache invalidation).
                baseline
                    .insert_entry(table, entry.clone())
                    .expect("baseline insert");
                let caches: Vec<_> = baseline
                    .graph()
                    .tables()
                    .filter(|(_, t)| t.cache_role == CacheRole::FlowCache)
                    .map(|(n, _)| n.id)
                    .collect();
                for c in caches {
                    baseline.apply(ControlOp::FlushCache(c)).expect("flush");
                }
                controller.insert_entry(table, entry).expect("insert");
            }
        }
        let rates = if w < 6 { [0.05, 0.10] } else { [0.60, 0.05] };
        let batch = lb.traffic(&rates, 700, w).batch(20_000);
        let (b, m, report) = window(&mut baseline, &mut controller, batch);
        let event = match (w, report.deployed) {
            (3, _) => "high insertion rate starts",
            (6, _) => "dropping-rate change",
            (_, true) => "reoptimized",
            _ => "",
        };
        t.push(cells![
            "a",
            w * 5,
            b.throughput_gbps,
            m.throughput_gbps,
            event
        ]);
    }
    t
}

/// (b) DASH-style packet routing on the Agilio model (reload-based
/// reconfiguration, 2 s downtime): merge small static tables and reorder
/// ACLs first; switch to caching when flows become long-lived with even
/// drop rates (window 6).
pub fn dash_routing() -> Table {
    let mut t = Table::new(
        "Figure 11(b): DASH packet routing, Agilio CX model (reload)",
        "panel time_s baseline_gbps pipeleon_gbps downtime_s event",
    );
    let dash = DashRouting::build();
    let params = CostParams::agilio_cx();
    let mut baseline = SmartNic::new(dash.graph.clone(), params.clone()).expect("deploys");
    let optimizer = Optimizer::new(CostModel::new(params.clone()));
    let mut controller = managed(&dash.graph, &params, 64, 2.0, optimizer);

    for w in 0..12u64 {
        // Phase 1: biased ACL drops, small static tables dominate.
        // Phase 2: even drops + long-lived flows.
        let (rates, flows, zipf) = if w < 6 {
            ([0.55, 0.05, 0.02], 30_000, 0.0)
        } else {
            ([0.10, 0.10, 0.10], 96, 1.1)
        };
        let batch = dash.traffic(&rates, flows, zipf, w).batch(20_000);
        let (b, m, report) = window(&mut baseline, &mut controller, batch);
        let event = match (w, report.deployed) {
            (6, _) => "traffic becomes long-lived / even drops",
            (_, true) => "reoptimized (reload)",
            _ => "",
        };
        t.push(cells![
            "b",
            w * 10,
            b.throughput_gbps,
            m.throughput_gbps,
            report.downtime_s,
            event
        ]);
    }
    t
}

/// (c) NF composition on the emulated NIC model, top-30 % pipelets: the
/// dominant NF (and hence the top-k pipelets) changes every three windows.
/// Note: the steady-state average reduction (windows after each phase's
/// first).
pub fn nf_composition() -> Table {
    let mut t = Table::new(
        "Figure 11(c): NF composition, emulated NIC model",
        "panel window dominant_nf baseline_latency_ns pipeleon_latency_ns reduction_pct",
    );
    let nf = NfComposition::build();
    let params = CostParams::emulated_nic();
    let mut baseline = SmartNic::new(nf.graph.clone(), params.clone()).expect("deploys");
    let optimizer = Optimizer::new(CostModel::new(params.clone())).with_config(OptimizerConfig {
        top_k_fraction: 0.3, // the paper's top-30% pipelet selection
        ..OptimizerConfig::default()
    });
    let mut controller = managed(&nf.graph, &params, 16, 0.0, optimizer);

    let phases = [
        ("NF1", [0.8, 0.1]),
        ("NF2", [0.1, 0.8]),
        ("NF3", [0.1, 0.1]),
    ];
    let mut steady = Vec::new();
    for (p, (label, shares)) in phases.iter().enumerate() {
        for w in 0..3u64 {
            let window_id = p as u64 * 3 + w;
            let batch = nf.traffic(shares, 512, window_id).batch(15_000);
            let (b, m, _) = window(&mut baseline, &mut controller, batch);
            let red = 100.0 * (b.mean_latency_ns - m.mean_latency_ns) / b.mean_latency_ns;
            if w > 0 {
                steady.push(red);
            }
            t.push(cells![
                "c",
                window_id,
                *label,
                b.mean_latency_ns,
                m.mean_latency_ns,
                red
            ]);
        }
    }
    let mean = steady.iter().sum::<f64>() / steady.len() as f64;
    t.note("steady_state_reduction_pct", mean);
    t
}
