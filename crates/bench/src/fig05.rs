//! Figure 5: cost-model validation against "hardware" (the emulator).

use crate::{cells, Table};
use pipeleon_cost::{Calibrator, CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::ProgramGraph;
use pipeleon_sim::{Packet, SmartNic};

/// Mean per-packet latency of `g` on the emulator.
///
/// `specific_hit_fraction` packets carry a value matching the programs'
/// most-specific LPM prefix (`0x0002 << 48`, the /24 entry), which the
/// multi-hash LPM engine resolves with a single probe — a real mechanism
/// the cost model's flat `m` deliberately approximates away. Calibration
/// uses 0 (steady miss traffic); validation uses a mix, which is where
/// the model's deviation comes from.
fn measure(g: &ProgramGraph, params: &CostParams, specific_hit_fraction: f64) -> f64 {
    let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
    let key = g.fields.get("key").expect("calibration programs use 'key'");
    let packets: Vec<Packet> = (0..3000)
        .map(|i| {
            let mut p = Packet::new(&g.fields);
            let specific = (i % 100) as f64 / 100.0 < specific_hit_fraction;
            p.set(
                key,
                if specific {
                    (2u64 << 48) | (i % 16)
                } else {
                    i % 64
                },
            );
            p
        })
        .collect();
    nic.mean_latency(packets)
}

/// The §3.1 methodology end to end: benchmark programs on the target, fit
/// `L_mat`/`L_act`/`m` by linear regression, then predict *new* programs
/// and compare with measurement. Four panels, (a) #exact tables,
/// (b) #action primitives, (c) #LPM tables, (d) #ternary tables, all
/// normalized to the measurement, so a perfect model sits at 1.0. Notes:
/// the fitted parameters and the average |deviation| in percent.
pub fn validation() -> Table {
    let mut t = Table::new(
        "Figure 5: cost model vs emulator measurement (normalized throughput)",
        "panel x measured_norm model_norm",
    );
    let hw = CostParams::bluefield2();
    // Calibrate the model from black-box measurements only (the paper's
    // benchmarking suite).
    let calibrator = Calibrator {
        exact_counts: vec![5, 10, 15, 20, 25, 30, 35, 40],
        action_counts: vec![1, 2, 3, 4, 5, 6, 7, 8],
        pattern_counts: vec![10, 12, 14, 16],
        ..Calibrator::default()
    };
    let report = calibrator.run(|g| measure(g, &hw, 0.0));
    let model = CostModel::new(report.to_params(&hw));
    let profile = RuntimeProfile::empty();

    // Validation scenarios: 16 new configurations, 4 per panel, exactly
    // like the paper's Figure 5 axes.
    let program = |panel: &str, x: usize| match panel {
        "a_exact_tables" => calibrator.exact_program(x, 1),
        "b_action_prims" => calibrator.exact_program(20, x),
        "c_lpm_tables" => calibrator.lpm_program(x),
        _ => calibrator.ternary_program(x),
    };
    let mut deviation = 0.0;
    for (panel, xs) in [
        ("a_exact_tables", [12, 18, 28, 38]),
        ("b_action_prims", [2, 4, 6, 8]),
        ("c_lpm_tables", [10, 12, 14, 16]),
        ("d_ternary_tables", [10, 12, 14, 16]),
    ] {
        for x in xs {
            let g = program(panel, x);
            let measured = hw.throughput_gbps(measure(&g, &hw, 0.15), 512);
            let predicted = hw.throughput_gbps(model.expected_latency(&g, &profile), 512);
            let norm = predicted / measured;
            deviation += (norm - 1.0).abs();
            t.push(cells![panel, x, 1.0, norm]);
        }
    }
    t.note("programs_measured", report.programs_measured as f64);
    t.note("l_mat", report.l_mat);
    t.note("l_act", report.l_act);
    t.note("m_lpm", report.m_lpm);
    t.note("m_ternary", report.m_ternary);
    t.note("exact_fit_r2", report.exact_fit.r2);
    t.note("avg_deviation_pct", 100.0 * deviation / t.rows.len() as f64);
    t
}
