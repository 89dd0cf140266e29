//! Figure 12: profiling (counter-instrumentation) overhead, and the
//! sampled instrumentation's overhead bound.

use crate::{cells, micro_packets, micro_pipeline, Table};
use pipeleon_cost::CostParams;
use pipeleon_ir::{MatchKind, ProgramGraph};
use pipeleon_sim::{BatchStats, NicBackend, SmartNic};

/// Packets per run of [`sampled_overhead`].
pub const SAMPLED_PACKETS: usize = 30_000;

/// `n` [`micro_packets`] over `values` key values through `g`,
/// uninstrumented, then through a fresh NIC with 1-in-`sample`
/// instrumentation; the NIC is returned to read its observations.
fn off_on(
    g: &ProgramGraph,
    params: &CostParams,
    sample: u64,
    n: usize,
    values: u64,
) -> (BatchStats, BatchStats, SmartNic) {
    let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
    let off = nic.measure(micro_packets(g, n, values));
    let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
    nic.set_instrumentation(true, sample);
    let on = nic.measure(micro_packets(g, n, values));
    (off, on, nic)
}

/// Latency increase and throughput degradation vs. the number of
/// per-packet counter updates (20/30/40: one action counter per table),
/// for simple (1-primitive) and complex (8-primitive) actions, with and
/// without 1/1024 packet sampling, on the Agilio CX and BlueField2 models;
/// `packets` per run (the paper-size run uses 20,000).
pub fn counter_overhead(packets: usize) -> Table {
    let mut t = Table::new(
        "Figure 12: counter instrumentation overhead (Agilio CX, BlueField2)",
        "target counter_updates variant latency_increase_pct throughput_degradation_pct",
    );
    for params in [CostParams::agilio_cx(), CostParams::bluefield2()] {
        for updates in [20usize, 30, 40] {
            for (variant, prims, sample) in [
                ("simple_action", 1usize, 1u64),
                ("complex_action", 8, 1),
                ("simple_action_sampling_1_1024", 1, 1024),
            ] {
                let (g, _) = micro_pipeline(updates, MatchKind::Exact, prims);
                let (base, inst, _) = off_on(&g, &params, sample, packets, 64);
                let lat_inc =
                    100.0 * (inst.mean_latency_ns - base.mean_latency_ns) / base.mean_latency_ns;
                let tput_deg =
                    100.0 * (base.throughput_gbps - inst.throughput_gbps) / base.throughput_gbps;
                t.push(cells![
                    params.name.as_str(),
                    updates,
                    variant,
                    lat_inc,
                    tput_deg.max(0.0)
                ]);
            }
        }
    }
    t
}

/// The mean-latency cost of leaving sampled instrumentation (counters and
/// latency histograms) on, versus the same run with it off, with the
/// number of packets the histograms recorded. The histograms are
/// host-side bookkeeping and add no simulated latency; what this bounds
/// is the *modelled* per-packet cost: the sampling check on every packet
/// plus the counter and observation work on sampled ones.
pub fn sampled_overhead() -> Table {
    let mut t = Table::new(
        "Figure 12: sampled instrumentation overhead (bound 5%)",
        "target tables sample_every mean_ns_off mean_ns_on overhead_pct sampled_packets",
    );
    for params in [CostParams::bluefield2(), CostParams::agilio_cx()] {
        for tables in [8usize, 16] {
            for sample in [64u64, 1024] {
                let (g, _) = micro_pipeline(tables, MatchKind::Exact, 1);
                let (off, on, mut nic) = off_on(&g, &params, sample, SAMPLED_PACKETS, 4);
                let overhead =
                    100.0 * (on.mean_latency_ns - off.mean_latency_ns) / off.mean_latency_ns;
                t.push(cells![
                    params.name.as_str(),
                    tables,
                    sample,
                    off.mean_latency_ns,
                    on.mean_latency_ns,
                    overhead,
                    nic.take_observations().packet_latency.count()
                ]);
            }
        }
    }
    t
}
