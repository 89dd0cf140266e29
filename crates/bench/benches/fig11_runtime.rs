//! Figure 11: runtime profile-guided optimization, three case studies.
//!
//! * (a) Service load balancer on the BlueField2 model: the baseline
//!   caches the whole program statically. An entry-insertion burst
//!   invalidates its cache and tanks its throughput; Pipeleon removes /
//!   re-scopes caches. A later ACL drop-rate change triggers reordering.
//! * (b) DASH-style packet routing on the Agilio model (reload-based
//!   reconfiguration with downtime): merge small static tables + reorder
//!   ACLs first; switch to caching when flows become long-lived with even
//!   drop rates.
//! * (c) NF composition on the emulated NIC model: the dominant NF (and
//!   hence the top-k pipelets) changes over time; reported as average
//!   emulated latency per window, Pipeleon vs. the unoptimized baseline.

use pipeleon::plan::SegmentKind;
use pipeleon::search::Optimizer;
use pipeleon::OptimizerConfig;
use pipeleon_bench::{apply_manual, banner, f, header, row};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{MatchValue, TableEntry};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget};
use pipeleon_sim::{ControlOp, SmartNic};
use pipeleon_workloads::scenarios::{DashRouting, LoadBalancer, NfComposition};

fn case_a_load_balancer() {
    println!("# --- (a) load balancer, BlueField2 model ---");
    header(&["panel", "time_s", "baseline_gbps", "pipeleon_gbps", "event"]);
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();

    // Baseline: one whole-program cache, applied statically, never
    // adapted.
    let order: Vec<_> = lb
        .regular
        .iter()
        .chain(&lb.lb)
        .chain(&lb.acls)
        .copied()
        .collect();
    let n = order.len();
    let baseline_graph = apply_manual(
        &lb.graph,
        order,
        vec![(0, n, SegmentKind::Cache)],
        &params,
        &OptimizerConfig::default(),
    )
    .graph;
    let mut baseline = SmartNic::new(baseline_graph, params.clone()).unwrap();

    let mut managed = SmartNic::new(lb.graph.clone(), params.clone()).unwrap();
    managed.set_instrumentation(true, 64);
    let mut controller = Controller::new(
        SimTarget::live(managed),
        lb.graph.clone(),
        Optimizer::new(CostModel::new(params)),
        ControllerConfig::default(),
    )
    .unwrap();

    let mut entry_seq = 0u64;
    for window in 0..10u64 {
        let t = window * 5;
        // Windows 3..6: high entry-insertion rate on the LB tables.
        let churn = (3..6).contains(&window);
        if churn {
            for _ in 0..300 {
                entry_seq += 1;
                // Baseline suffers the same churn: its whole-program cache
                // is flushed per insertion (cache invalidation).
                baseline
                    .insert_entry(
                        lb.lb[(entry_seq % 2) as usize],
                        TableEntry::new(vec![MatchValue::Exact(1 << 20 | entry_seq)], 0),
                    )
                    .unwrap();
                let caches: Vec<_> = baseline
                    .graph()
                    .tables()
                    .filter(|(_, t)| t.cache_role == pipeleon_ir::CacheRole::FlowCache)
                    .map(|(n, _)| n.id)
                    .collect();
                for c in caches {
                    baseline.apply(ControlOp::FlushCache(c)).unwrap();
                }
                controller
                    .insert_entry(
                        lb.lb[(entry_seq % 2) as usize],
                        TableEntry::new(vec![MatchValue::Exact(1 << 20 | entry_seq)], 0),
                    )
                    .unwrap();
            }
        }
        // Windows 6+: the ACL drop rates shift.
        let rates = if window < 6 {
            [0.05, 0.10]
        } else {
            [0.60, 0.05]
        };
        let mut gen = lb.traffic(&rates, 700, window);
        let batch = gen.batch(20_000);
        let b = baseline.measure(batch.clone());
        let m = controller.target.nic.measure(batch);
        let report = controller.tick().unwrap();
        let event = match (window, report.deployed) {
            (3, _) => "high insertion rate starts",
            (6, _) => "dropping-rate change",
            (_, true) => "reoptimized",
            _ => "",
        };
        row(&[
            "a".into(),
            t.to_string(),
            f(b.throughput_gbps),
            f(m.throughput_gbps),
            event.into(),
        ]);
    }
}

fn case_b_dash_routing() {
    println!("# --- (b) DASH packet routing, Agilio CX model (reload) ---");
    header(&[
        "panel",
        "time_s",
        "baseline_gbps",
        "pipeleon_gbps",
        "downtime_s",
        "event",
    ]);
    let dash = DashRouting::build();
    let params = CostParams::agilio_cx();
    let mut baseline = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    let mut managed = SmartNic::new(dash.graph.clone(), params.clone()).unwrap();
    managed.set_instrumentation(true, 64);
    let mut controller = Controller::new(
        SimTarget::reloading(managed, 2.0),
        dash.graph.clone(),
        Optimizer::new(CostModel::new(params)),
        ControllerConfig::default(),
    )
    .unwrap();

    for window in 0..12u64 {
        let t = window * 10;
        // Phase 1 (0..6): biased ACL drops, small static tables dominate.
        // Phase 2 (6..): even drops + long-lived flows.
        let (rates, flows, zipf) = if window < 6 {
            ([0.55, 0.05, 0.02], 30_000, 0.0)
        } else {
            ([0.10, 0.10, 0.10], 96, 1.1)
        };
        let mut gen = dash.traffic(&rates, flows, zipf, window);
        let batch = gen.batch(20_000);
        let b = baseline.measure(batch.clone());
        let m = controller.target.nic.measure(batch);
        let report = controller.tick().unwrap();
        let event = match (window, report.deployed) {
            (6, _) => "traffic becomes long-lived / even drops",
            (_, true) => "reoptimized (reload)",
            _ => "",
        };
        row(&[
            "b".into(),
            t.to_string(),
            f(b.throughput_gbps),
            f(m.throughput_gbps),
            f(report.downtime_s),
            event.into(),
        ]);
    }
}

fn case_c_nf_composition() {
    println!("# --- (c) NF composition, emulated NIC model ---");
    header(&[
        "panel",
        "window",
        "dominant_nf",
        "baseline_latency_ns",
        "pipeleon_latency_ns",
        "reduction_pct",
    ]);
    let nf = NfComposition::build();
    let params = CostParams::emulated_nic();
    let mut baseline = SmartNic::new(nf.graph.clone(), params.clone()).unwrap();
    let mut managed = SmartNic::new(nf.graph.clone(), params.clone()).unwrap();
    managed.set_instrumentation(true, 16);
    let optimizer = Optimizer::new(CostModel::new(params)).with_config(OptimizerConfig {
        top_k_fraction: 0.3, // the paper's top-30% pipelet selection
        ..OptimizerConfig::default()
    });
    let mut controller = Controller::new(
        SimTarget::live(managed),
        nf.graph.clone(),
        optimizer,
        ControllerConfig::default(),
    )
    .unwrap();

    let phases = [
        ("NF1", [0.8, 0.1]),
        ("NF2", [0.1, 0.8]),
        ("NF3", [0.1, 0.1]),
    ];
    let mut reductions = Vec::new();
    for (p, (label, shares)) in phases.iter().enumerate() {
        for w in 0..3u64 {
            let window = p as u64 * 3 + w;
            let mut gen = nf.traffic(shares, 512, window);
            let batch = gen.batch(15_000);
            let b = baseline.measure(batch.clone());
            let m = controller.target.nic.measure(batch);
            controller.tick().unwrap();
            let red = 100.0 * (b.mean_latency_ns - m.mean_latency_ns) / b.mean_latency_ns;
            if w > 0 {
                reductions.push(red);
            }
            row(&[
                "c".into(),
                window.to_string(),
                (*label).into(),
                f(b.mean_latency_ns),
                f(m.mean_latency_ns),
                f(red),
            ]);
        }
    }
    println!(
        "# steady-state average latency reduction: {:.1}% (paper: 49%)",
        reductions.iter().sum::<f64>() / reductions.len() as f64
    );
}

fn main() {
    banner(
        "Figure 11",
        "runtime profile-guided optimization case studies",
    );
    case_a_load_balancer();
    case_b_dash_routing();
    case_c_nf_composition();
}
