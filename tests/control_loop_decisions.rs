//! Pins what the controller *decides* on the `control_loop` shape.
//!
//! `pipeleon-perf` checks an episode only against the first episode of
//! the same binary, so a change that shifts a decision (a different
//! candidate winning a tie, a float summed in another order) moves
//! nothing but `model_latency_ns`. This test replays the Fig. 11a
//! stimulus the benchmark uses — a `Controller<SimTarget<SmartNic>>` on
//! `LoadBalancer::build()`, two controller runs of eight phases, a phase
//! being eight inserts, four (`measure` 4,096 + `tick`), eight removes,
//! under alternating ACL drop rates — and compares every tick's decision
//! with a committed fixture: whether it searched, whether it deployed,
//! the estimated gain to the bit, the fingerprint of what runs on the
//! target, and the plan summary.
//!
//! The fixture was re-captured when the capped depth-first segmentation
//! walk gave way to the exact suffix DP (PR 26): every searching tick's
//! estimated gain rose and plans now cover the ACLs at the front of the
//! pipelet. Its `target=` column was re-captured, alone, when the
//! readback fingerprint became a hash of the canonical JSON document
//! instead of FNV-1a over its text: one value per program either way
//! (24 distinct programs map one-to-one). It was re-captured when a
//! plan began to deploy only if it beat the running plan's re-scored
//! gain: the `reoptimized` column stayed, `deployed=true` fell 42 → 31,
//! and every other moved line follows from a different plan running
//! (the cache hit rates and counters a search reads come from it). It
//! was re-captured when a deploy began to keep each flow cache whose
//! covered segment it does not change (10 of the 57 caches installed
//! are kept): the `reoptimized` column stayed and `deployed=true` rose
//! 31 → 39 of 46 searching ticks. A kept cache reports a higher measured
//! hit rate into the next search's cache hints, which re-prices cache
//! candidates: six deploying ticks keep their plan with another
//! estimated gain, eight ticks that kept the running plan now deploy,
//! four deploy another plan, and the rest of the moved lines (the
//! `target=` column of quiet ticks) follow from the plan running then.
//! When a change is *meant* to alter decisions, the failing run leaves
//! the new sequence in
//! `$CARGO_TARGET_TMPDIR/control_loop_decisions.actual.txt`; review the
//! diff and copy it over `tests/fixtures/control_loop_decisions.txt`.

use pipeleon::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{MatchValue, TableEntry};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget, Target};
use pipeleon_sim::SmartNic;
use pipeleon_workloads::scenarios::LoadBalancer;
use std::fmt::Write as _;

const SEED: u64 = 4111;
const FLOWS: usize = 700;
const WINDOW: usize = 4096;
const WINDOWS_PER_PHASE: usize = 4;
const ENTRY_OPS: usize = 8;
const RUNS: u64 = 2;
const RUN_PHASES: usize = 8;
const REGIMES: [[f64; 2]; 2] = [[0.05, 0.10], [0.60, 0.05]];

const EXPECTED: &str = include_str!("fixtures/control_loop_decisions.txt");

/// One line per tick of the whole stimulus.
fn decisions() -> String {
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let mut out = String::new();
    for run in 0..RUNS {
        let stream = SEED + 1000 * run;
        let mut gens = [0usize, 1].map(|r| lb.traffic(&REGIMES[r], FLOWS, stream + r as u64));
        let mut nic = SmartNic::new(lb.graph.clone(), params.clone()).expect("LB deploys");
        nic.set_instrumentation(true, 64);
        let mut controller = Controller::new(
            SimTarget::live(nic),
            lb.graph.clone(),
            Optimizer::new(CostModel::new(params.clone())),
            ControllerConfig::default(),
        )
        .expect("controller starts");
        for phase in 0..RUN_PHASES {
            for k in 0..ENTRY_OPS {
                let entry = TableEntry::new(vec![MatchValue::Exact(1 << 20 | k as u64)], 0);
                controller
                    .insert_entry(lb.lb[k % 2], entry)
                    .expect("insert on an LB table");
            }
            for window in 0..WINDOWS_PER_PHASE {
                controller.target.nic.measure(gens[phase % 2].batch(WINDOW));
                let r = controller.tick().expect("tick");
                writeln!(
                    out,
                    "run={run} phase={phase} tick={window} reoptimized={} deployed={} \
                     est_gain_bits={:016x} target={:016x} summary={}",
                    r.reoptimized,
                    r.deployed,
                    r.est_gain_ns.to_bits(),
                    controller.target.fingerprint().expect("sim readback"),
                    r.summary.join(" | "),
                )
                .expect("write to a String");
            }
            for k in 0..ENTRY_OPS {
                controller
                    .remove_entry(lb.lb[k % 2], 0)
                    .expect("remove from an LB table");
            }
        }
    }
    out
}

#[test]
fn controller_decisions_match_the_pinned_sequence() {
    let actual = decisions();
    if actual == EXPECTED {
        return;
    }
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("control_loop_decisions.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual sequence");
    let first = actual
        .lines()
        .zip(EXPECTED.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(EXPECTED.lines().count()));
    panic!(
        "decision sequence diverges at tick line {first} ({} actual / {} expected lines):\n  \
         actual:   {}\n  expected: {}\nfull sequence written to {}",
        actual.lines().count(),
        EXPECTED.lines().count(),
        actual.lines().nth(first).unwrap_or("<none>"),
        EXPECTED.lines().nth(first).unwrap_or("<none>"),
        path.display(),
    );
}
