//! Property tests for the dependency predicates and the verifier.
//!
//! * `commute` is symmetric, and implies both `mergeable` and pairwise
//!   `cacheable_segment` (the audited hierarchy — the converses are
//!   deliberately false, see `crates/ir/src/deps.rs`);
//! * program lints and plan-safety verdicts are pure functions of their
//!   inputs: repeated runs and concurrent runs on worker threads produce
//!   identical results;
//! * a verdict ignores the optimizer's numbers: a candidate's `pipelet`,
//!   `gain`, `mem_cost` and `update_cost` never change it.

use pipeleon::pipelet::partition;
use pipeleon_ir::deps::{DependencyAnalysis, RwSets};
use pipeleon_ir::FieldRef;
use pipeleon_verify::{lint_program, Candidate, PlanVerifier, Segment, SegmentKind, Verdict};
use pipeleon_workloads::synth::{synthesize, SynthConfig};
use proptest::prelude::*;

fn rw_sets_strategy() -> impl Strategy<Value = RwSets> {
    let field = 0u16..6;
    (
        prop::collection::vec(field.clone(), 0..3),
        prop::collection::vec(field.clone(), 0..3),
        prop::collection::vec(field, 0..3),
    )
        .prop_map(|(m, a, w)| {
            let uniq = |v: Vec<u16>| {
                let mut out: Vec<FieldRef> = Vec::new();
                for f in v {
                    if !out.contains(&FieldRef(f)) {
                        out.push(FieldRef(f));
                    }
                }
                out
            };
            RwSets {
                match_reads: uniq(m),
                action_reads: uniq(a),
                writes: uniq(w),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn commute_is_symmetric(a in rw_sets_strategy(), b in rw_sets_strategy()) {
        prop_assert_eq!(
            DependencyAnalysis::commute(&a, &b),
            DependencyAnalysis::commute(&b, &a)
        );
        prop_assert_eq!(
            DependencyAnalysis::mergeable(&a, &b),
            DependencyAnalysis::mergeable(&b, &a)
        );
    }

    #[test]
    fn commute_implies_mergeable(a in rw_sets_strategy(), b in rw_sets_strategy()) {
        if DependencyAnalysis::commute(&a, &b) {
            prop_assert!(DependencyAnalysis::mergeable(&a, &b));
        }
    }

    #[test]
    fn commute_implies_pairwise_cacheable(a in rw_sets_strategy(), b in rw_sets_strategy()) {
        if DependencyAnalysis::commute(&a, &b) {
            prop_assert!(DependencyAnalysis::cacheable_segment(&[a.clone(), b.clone()]));
            prop_assert!(DependencyAnalysis::cacheable_segment(&[b, a]));
        }
    }

    #[test]
    fn a_table_commutes_and_merges_with_itself_only_without_hazards(
        s in rw_sets_strategy()
    ) {
        // Self-commute fails exactly when the table writes a field it
        // also reads or writes (WAW with itself is any write at all).
        let self_commutes = DependencyAnalysis::commute(&s, &s);
        prop_assert_eq!(self_commutes, s.writes.is_empty());
        // Self-merge fails exactly on a write to an own match field.
        let self_merges = DependencyAnalysis::mergeable(&s, &s);
        let writes_own_key = s.writes.iter().any(|w| s.match_reads.contains(w));
        prop_assert_eq!(self_merges, !writes_own_key);
    }
}

/// The candidates we probe each synthesized program with, two per
/// pipelet chain: its reverse (no segments) — guaranteed well-shaped, and
/// illegal exactly when some inverted pair fails to commute — and its
/// original order under one cache segment, illegal exactly when a write
/// feeds a later table's match key.
fn probe_candidates(g: &pipeleon_ir::ProgramGraph) -> Vec<Candidate> {
    partition(g, 24)
        .into_iter()
        .filter(|p| p.tables.len() >= 2)
        .flat_map(|p| {
            let mut reversed = p.tables.clone();
            reversed.reverse();
            let cached = Candidate {
                segments: vec![Segment {
                    start: 0,
                    end: p.tables.len(),
                    kind: SegmentKind::Cache,
                }],
                ..Candidate::noop(p.id, p.tables.clone())
            };
            [Candidate::noop(p.id, reversed), cached]
        })
        .collect()
}

fn all_verdicts(g: &pipeleon_ir::ProgramGraph) -> Vec<Verdict> {
    probe_candidates(g)
        .iter()
        .map(|c| PlanVerifier::new(g).verify(g, c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lints_and_verdicts_are_deterministic(
        seed in 0u64..10_000,
        pipelets in 1usize..6,
        pipelet_len in 2usize..5,
        write_fraction in 0.0f64..0.5,
    ) {
        let g = synthesize(&SynthConfig {
            pipelets,
            pipelet_len,
            write_fraction,
            entries_per_table: 4,
            seed,
            ..SynthConfig::default()
        });
        // Repeated runs agree.
        let lints1 = lint_program(&g);
        let lints2 = lint_program(&g);
        prop_assert_eq!(&lints1, &lints2);
        let verdicts = all_verdicts(&g);
        prop_assert_eq!(&verdicts, &all_verdicts(&g));
        // Concurrent runs on 1, 2, and 4 worker threads agree with the
        // serial result (the verifier is a pure function of its inputs).
        for workers in [1usize, 2, 4] {
            let results: Vec<Vec<Verdict>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(|| all_verdicts(&g)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in results {
                prop_assert_eq!(&verdicts, &r);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn verdicts_ignore_the_optimizers_numbers(
        seed in 0u64..10_000,
        pipelets in 1usize..6,
        write_fraction in 0.0f64..0.5,
        pipelet in any::<usize>(),
        gain in any::<f64>(),
        mem_cost in any::<f64>(),
        update_cost in any::<f64>(),
    ) {
        let g = synthesize(&SynthConfig {
            pipelets,
            pipelet_len: 3,
            write_fraction,
            entries_per_table: 4,
            seed,
            ..SynthConfig::default()
        });
        let verifier = PlanVerifier::new(&g);
        for c in probe_candidates(&g) {
            let priced = Candidate {
                pipelet,
                gain,
                mem_cost,
                update_cost,
                ..c.clone()
            };
            prop_assert_eq!(verifier.verify(&g, &c), verifier.verify(&g, &priced));
        }
    }
}
