//! Extensions beyond the paper's prototype: its §6 future-work items,
//! implemented and measured.

use crate::{cells, Table};
use pipeleon::{IncrementalState, Optimizer, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::EdgeRef;
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::synth::{synthesize, SynthConfig};

/// Incremental re-optimization ("compute new optimizations …
/// incrementally"): per-pipelet candidate lists cached under local
/// profile signatures; a 15-pipelet program re-optimized (ESearch) with an
/// unchanged profile, after a localized change and after a global one.
/// `search_time_us` is host clock; the counts repeat exactly.
pub fn incremental() -> Table {
    let mut t = Table::new(
        "Extension (§6): incremental re-optimization after profile changes",
        "run candidates_evaluated candidates_reused search_time_us est_gain_ns",
    );
    let g = synthesize(&SynthConfig {
        pipelets: 15,
        pipelet_len: 3,
        seed: 11,
        ..SynthConfig::default()
    });
    let base = random_profile(&g, &ProfileSynthConfig::default(), 21);
    // Localized change: shift one branch's split drastically.
    let mut one_branch = base.clone();
    if let Some(branch) = g.iter_nodes().find(|n| n.as_branch().is_some()) {
        one_branch.record_edge(EdgeRef::new(branch.id, 1), 10_000_000);
    }
    // Global change: a fresh random profile.
    let global = random_profile(&g, &ProfileSynthConfig::default(), 99);
    let optimizer = Optimizer::new(CostModel::new(CostParams::emulated_nic())).esearch();
    let mut state = IncrementalState::new();
    for (run, profile) in [
        ("cold", &base),
        ("warm_unchanged", &base),
        ("warm_one_branch_shift", &one_branch),
        ("warm_global_shift", &global),
    ] {
        let o = optimizer
            .optimize_incremental(&g, profile, ResourceLimits::unlimited(), &mut state)
            .expect("optimizes");
        t.push(cells![
            run,
            o.candidates_evaluated,
            o.candidates_reused,
            o.search_time.as_secs_f64() * 1e6,
            o.est_gain_ns
        ]);
    }
    t
}
