//! Pins what the controller *decides* on the `control_loop` shape.
//!
//! `pipeleon-perf` checks an episode only against the first episode of
//! the same binary, so a change that shifts a decision (a different
//! candidate winning a tie, a float summed in another order) moves
//! nothing but `model_latency_ns`. This test replays the Fig. 11a
//! stimulus the benchmark uses (`common::control_loop_stimulus`: a
//! `Controller<SimTarget<SmartNic>>` on `LoadBalancer::build()`, two
//! controller runs of eight phases, a phase being eight inserts, four
//! (`measure` 4,096 + `tick`), eight removes, under alternating ACL drop
//! rates) and compares every tick's decision
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
//! It was re-captured when a deploy began to pay for the flow caches it
//! starts cold (the search's plan deploys only when its gain over the
//! running plan's, times a plan's observed lifetime in packets, exceeds
//! the compulsory misses of its cold caches): `deployed=true` fell
//! 39 → 15 of 46 searching ticks, and 51 of the 64 lines moved. 23 ticks
//! that deployed now keep the running plan: run 0 phase 2 ticks 0/1,
//! phase 3 ticks 0/1/3, phase 4 ticks 0–3, phase 5 ticks 0/1, phase 6
//! tick 0, phase 7 ticks 0/1; run 1 phase 0 tick 3, phase 1 tick 3,
//! phase 2 tick 1, phase 4 tick 1, phase 5 ticks 0/1/3, phase 6 ticks
//! 0/1. Run 1 phase 5 tick 2 no longer searches and run 0 phase 2 tick 2
//! now does (and keeps the running plan): the drift each measures is
//! against a window profiled under another plan. Another plan ran
//! before them, so the profile the search read and its estimated gain
//! moved, on run 0 phase 6 tick 1 and run 1 phase 7 tick 2 (kept either
//! way) and on run 1 phase 1 tick 0, phase 2 tick 0, phase 3 ticks 0/1/3
//! and phase 4 tick 0 (deployed either way). The other 18 lines move in
//! the `target=` column alone: ticks that do not deploy, behind a plan
//! that now runs longer.
//! When a change is *meant* to alter decisions, the failing run leaves
//! the new sequence in
//! `$CARGO_TARGET_TMPDIR/control_loop_decisions.actual.txt`; review the
//! diff and copy it over `tests/fixtures/control_loop_decisions.txt`.
//!
//! A second test pins the same stimulus's journal: the count of each
//! event type over both runs and the three gains of each `plan_kept`
//! event, to the bit, as journaled when every searching tick still
//! built and fingerprinted its plan. A tick now builds a plan only to
//! deploy it, and this holds it to journal what the building tick did.

use pipeleon_obs::EventKind;
use pipeleon_runtime::Target;
use std::collections::BTreeMap;
use std::fmt::Write as _;

mod common;
use common::{control_loop_stimulus, StimulusTick};

const EXPECTED: &str = include_str!("fixtures/control_loop_decisions.txt");

/// One line per tick of the whole stimulus.
fn decisions() -> String {
    let mut out = String::new();
    control_loop_stimulus(|StimulusTick { run, phase, window }, controller| {
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
    });
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

/// The same stimulus's journal: how many events of each type the two
/// runs journal, and the three gains each `plan_kept` event carries.
fn journal() -> (BTreeMap<&'static str, usize>, Vec<[u64; 3]>) {
    let mut counts = BTreeMap::new();
    let mut kept = Vec::new();
    // The run being read and the first sequence number not read yet.
    let mut read = (u64::MAX, 0);
    control_loop_stimulus(|StimulusTick { run, .. }, controller| {
        controller.tick().expect("tick");
        if read.0 != run {
            read = (run, 0);
        }
        for e in controller.journal().iter().filter(|e| e.seq >= read.1) {
            *counts.entry(e.kind.tag()).or_default() += 1;
            if let EventKind::PlanKept {
                candidate_gain_ns,
                running_gain_ns,
                warmup_ns,
                ..
            } = e.kind
            {
                kept.push([candidate_gain_ns, running_gain_ns, warmup_ns].map(f64::to_bits));
            }
        }
        read.1 = controller.journal().total();
    });
    (counts, kept)
}

/// `(candidate_gain_ns, running_gain_ns, warmup_ns)` of each `plan_kept`
/// event, in journal order, as the bits of the `f64`s.
const PLAN_KEPT: [[u64; 3]; 23] = [
    [0x4061cbd254938d6e, 0x4061cbc88e4802f0, 0x40727bcda3ac10ca],
    [0x40631c570a3d70a4, 0x4062740000000000, 0x4112881333333333],
    [0x406258199999999a, 0x4061940000000000, 0x4112906000000000],
    [0x4066f96ad26c15dc, 0x4066e90000000000, 0x41027a4000000000],
    [0x4061650000000000, 0x4061650000000000, 0x4072a192e29f79b4],
    [0x40619e999999999a, 0x4060bd0000000000, 0x4112b9c000000000],
    [0x406296b333333334, 0x4061e00000000000, 0x41080b8000000000],
    [0x4062e16f13f59621, 0x4062330000000000, 0x41127995270d0457],
    [0x406684a8cae7a5cb, 0x40665c0000000000, 0x41033bc000000000],
    [0x4061d50000000000, 0x4061d50000000000, 0x40727bcda3ac10ca],
    [0x4061ffe0864b8a7e, 0x40612d0000000000, 0x4112a507582192e3],
    [0x4058a66666666666, 0x405a407280000000, 0x410fc30000000000],
    [0x4062721a115b1e5f, 0x4062719e9a938682, 0x41287f2fba938682],
    [0x4067bb199999999a, 0x4066750000000000, 0x40f864924924924a],
    [0x405bd7464aa16900, 0x405950df9dd49c34, 0x410fef9300000000],
    [0x4067a80000000000, 0x4067a80000000000, 0x4070000000000000],
    [0x40675c69ee58469f, 0x40675c69ee58469f, 0x407048d3dcb08d3e],
    [0x40669cfae147ae14, 0x40669b3333333333, 0x41033c599999999a],
    [0x40626963b48c2057, 0x4061a3ca1af286bd, 0x410853c000000000],
    [0x4066c18c6318c631, 0x4066c18c6318c631, 0x40706318c6318c63],
    [0x4067b19999999999, 0x4067b19999999999, 0x4070133333333333],
    [0x406626999999999a, 0x4066100000000000, 0x4103290000000000],
    [0x40674dad6b5ad6b5, 0x40674dad6b5ad6b5, 0x40702b5ad6b5ad6b],
];

/// A search that returns the running layout ends its tick without an
/// event, and every other searching tick journals what it journaled
/// when each tick built its plan.
#[test]
fn controller_journal_matches_the_pinned_counts_and_gains() {
    let (counts, kept) = journal();
    let expected = [
        ("deploy", 15),
        ("generation_swap", 18),
        ("plan_kept", 23),
        ("specialize", 1),
        ("window_profiled", 64),
    ];
    assert_eq!(counts, BTreeMap::from(expected), "no plan_rejected either");
    assert_eq!(kept, PLAN_KEPT);
}
