//! Figure 2: profile-guided optimization adapts to traffic changes.

use crate::{cells, managed, window, Table};
use pipeleon::{Optimizer, OptimizerConfig};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_sim::SmartNic;
use pipeleon_workloads::scenarios::AclPipeline;

/// A pipeline of four ACL tables (cloud/tenant/subnet/VM) plus regular
/// tables and routing, whose heavy-drop ACL shifts at t = 24 s and 48 s.
/// The static order's throughput sags; the dynamic (Pipeleon) order
/// recovers to line rate.
pub fn dynamic_vs_static() -> Table {
    let mut t = Table::new(
        "Figure 2: dynamic vs static ACL order under drop-rate changes (BlueField2)",
        "time_s static_gbps dynamic_gbps event",
    );
    let pipeline = AclPipeline::build(12, 4);
    let params = CostParams::bluefield2();
    let mut static_nic = SmartNic::new(pipeline.graph.clone(), params.clone()).expect("deploys");
    // Figure 2 isolates the reordering optimization (the paper applies
    // only dynamic ACL ordering here).
    let optimizer = Optimizer::new(CostModel::new(params.clone())).with_config(OptimizerConfig {
        enable_cache: false,
        enable_merge: false,
        enable_groups: false,
        ..OptimizerConfig::default()
    });
    let mut controller = managed(&pipeline.graph, &params, 64, 0.0, optimizer);

    // Dropping-rate schedule: the dominant ACL rotates (the paper's
    // "dropping rate change" arrows).
    let schedule: [(u64, [f64; 4]); 3] = [
        (0, [0.05, 0.05, 0.70, 0.05]),
        (24, [0.70, 0.05, 0.05, 0.05]),
        (48, [0.05, 0.70, 0.05, 0.05]),
    ];
    // One 4 s profiling window per row.
    for time in (0..72).step_by(4) {
        let (start, rates) = *schedule
            .iter()
            .rev()
            .find(|(start, _)| time >= *start)
            .expect("schedule starts at 0");
        let batch = pipeline.traffic(&rates, 2000, time).batch(20_000);
        let (s, d, report) = window(&mut static_nic, &mut controller, batch);
        let event = if start == time && time > 0 {
            "dropping-rate change"
        } else if report.deployed {
            "reoptimized"
        } else {
            ""
        };
        t.push(cells![time, s.throughput_gbps, d.throughput_gbps, event]);
    }
    t
}
