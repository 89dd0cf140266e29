//! Figure 9: microbenchmarks of the three optimizations on the
//! BlueField2-like and Agilio-CX-like targets.

use crate::{apply_manual, cells, micro_packets, micro_pipeline, with_acl_at, Table};
use pipeleon::plan::SegmentKind;
use pipeleon::OptimizerConfig;
use pipeleon_cost::CostParams;
use pipeleon_ir::{CacheRole, MatchKind, ProgramGraph};
use pipeleon_sim::{Packet, SmartNic};
use pipeleon_workloads::traffic::{FieldBias, FlowGen, ZipfSampler};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn targets() -> [CostParams; 2] {
    [CostParams::bluefield2(), CostParams::agilio_cx()]
}

/// (a)/(b) table reordering: throughput as the ACL table moves from the
/// end of a 22-table program to the front, for 25/50/75 % drop rates.
pub fn reordering() -> Table {
    let mut t = Table::new(
        "Figure 9(a/b): reordering, ACL position sweep (BlueField2, Agilio CX)",
        "panel target drop_rate acl_position gbps",
    );
    const TABLES: usize = 22;
    for params in targets() {
        let panel = if params.name == "bluefield2" {
            "a"
        } else {
            "b"
        };
        for drop in [0.25, 0.50, 0.75] {
            for pos in (0..TABLES).step_by(3).chain([TABLES - 1]) {
                let (g, _, acl_field) = with_acl_at(TABLES, pos, 0xDEAD);
                let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
                let flow_fields: Vec<_> = (0..4)
                    .map(|i| g.fields.get(&format!("f{i}")).expect("micro field"))
                    .collect();
                let mut gen = FlowGen::new(g.fields.len(), flow_fields, 1000, pos as u64)
                    .with_bias(FieldBias {
                        field: acl_field,
                        value: 0xDEAD,
                        probability: drop,
                    });
                let stats = nic.measure(gen.batch(12_000));
                t.push(cells![
                    panel,
                    params.name.as_str(),
                    drop,
                    pos,
                    stats.throughput_gbps
                ]);
            }
        }
    }
    t
}

/// Expands a per-replica grouping pattern over the whole program: the
/// paper's option `[1,2,3][4]` caches tables 1–3 together and table 4
/// separately *in each four-table pipelet replica*.
fn replicate_pattern(
    pattern: &[(usize, usize)],
    num_tables: usize,
    kind: SegmentKind,
) -> Vec<(usize, usize, SegmentKind)> {
    let mut out = Vec::new();
    for replica in (0..num_tables).step_by(4) {
        for &(s, e) in pattern {
            if replica + e <= num_tables {
                out.push((replica + s, replica + e, kind));
            }
        }
    }
    out
}

/// The §5.2.1 ~40 000-flow workload: each of the four key fields takes
/// one of 14 values (a base-14 digit of the flow id), so per-table key
/// spaces are tiny (14), pairs/triples still fit a 4096-entry cache
/// (196 / 2744), but the full cross product is 14⁴ = 38 416 — the
/// Figure 9c cross-product blow-up.
fn structured_flows(g: &ProgramGraph, n: usize, seed: u64) -> Vec<Packet> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(14usize.pow(4), 1.05);
    let fields: Vec<_> = (0..4)
        .map(|i| g.fields.get(&format!("f{i}")).expect("micro field"))
        .collect();
    (0..n)
        .map(|_| {
            let flow = zipf.sample(&mut rng) as u64;
            let mut p = Packet::new(&g.fields);
            for (i, &fld) in fields.iter().enumerate() {
                p.set(fld, (flow / 14u64.pow(i as u32)) % 14);
            }
            p
        })
        .collect()
}

/// (c) table caching: the §5.2.1 options `[1][2][3][4]` … `[1,2,3,4]`
/// over a four-table ternary pipelet replicated to 8 tables, with ~40 000
/// flows (per-table key spaces are small but the cross product explodes,
/// so one big cache underperforms several small ones).
pub fn caching() -> Table {
    let mut t = Table::new(
        "Figure 9(c): caching options",
        "panel target option gbps total_cache_entries",
    );
    // Ternary tables: the complex matches caching is meant to bypass.
    let (g, ids) = micro_pipeline(8, MatchKind::Ternary, 1);
    let options: [(&str, &[(usize, usize)]); 5] = [
        ("no_cache", &[]),
        ("[1][2][3][4]", &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        ("[1,2][3][4]", &[(0, 2), (2, 3), (3, 4)]),
        ("[1,2,3][4]", &[(0, 3), (3, 4)]),
        ("[1,2,3,4]", &[(0, 4)]),
    ];
    let cfg = OptimizerConfig::default();
    for params in targets() {
        for (label, pattern) in options {
            let (graph, cache_nodes) = if pattern.is_empty() {
                (g.clone(), Vec::new())
            } else {
                let segs = replicate_pattern(pattern, ids.len(), SegmentKind::Cache);
                let applied = apply_manual(&g, ids.clone(), segs, &params, &cfg);
                (applied.graph, applied.cache_nodes)
            };
            let mut nic = SmartNic::new(graph, params.clone()).expect("deploys");
            // Warm-up to steady state (several simulated milliseconds, so
            // the cache insertion rate limiter is not the bottleneck),
            // then measure (TRex style).
            for w in 0..5 {
                nic.measure(structured_flows(&g, 40_000, w));
            }
            let stats = nic.measure(structured_flows(&g, 40_000, 99));
            let entries: usize = cache_nodes
                .iter()
                .map(|&c| nic.executor_mut().cache_len(c))
                .sum();
            t.push(cells![
                "c",
                params.name.as_str(),
                label,
                stats.throughput_gbps,
                entries
            ]);
        }
    }
    t
}

/// (d) table merging: merged options `[1,2]`, `[1,2,3]`, `[1,2,3,4]` over
/// small static exact tables that all traffic hits (the DASH-style merge
/// case), with the materialized entry counts.
pub fn merging() -> Table {
    let mut t = Table::new(
        "Figure 9(d): merging options",
        "panel target option gbps merged_entries",
    );
    let (g, ids) = micro_pipeline(16, MatchKind::Exact, 1);
    let cfg = OptimizerConfig {
        max_merge_tables: 4,
        ..OptimizerConfig::default()
    };
    let options: [(&str, &[(usize, usize)]); 4] = [
        ("no_merge", &[]),
        ("[1,2]", &[(0, 2)]),
        ("[1,2,3]", &[(0, 3)]),
        ("[1,2,3,4]", &[(0, 4)]),
    ];
    for params in targets() {
        for (label, pattern) in options {
            let (graph, entries) = if pattern.is_empty() {
                (g.clone(), 0)
            } else {
                let kind = SegmentKind::Merge { as_cache: true };
                let segs = replicate_pattern(pattern, ids.len(), kind);
                let applied = apply_manual(&g, ids.clone(), segs, &params, &cfg);
                let merged_entries = applied
                    .graph
                    .tables()
                    .filter(|(_, t)| t.cache_role == CacheRole::MergedCache)
                    .map(|(_, t)| t.entries.len())
                    .sum();
                (applied.graph, merged_entries)
            };
            let mut nic = SmartNic::new(graph, params.clone()).expect("deploys");
            let stats = nic.measure(micro_packets(&g, 20_000, 4));
            t.push(cells![
                "d",
                params.name.as_str(),
                label,
                stats.throughput_gbps,
                entries
            ]);
        }
    }
    t
}
