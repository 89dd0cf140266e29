//! Plan differential suite: for a set of constructed programs, enumerate
//! every single-rewrite plan (all chain permutations, every contiguous
//! cache segment, every merge segment in both flavors), ask the
//! plan-safety verifier for a verdict, and then:
//!
//! * **legal** plans are applied and must preserve forwarding semantics
//!   against the unoptimized program on ~1k seeded packets;
//! * **illegal** plans must be refused by the runtime controller's
//!   [`Controller::deploy_plan`] gate without touching the target — a
//!   rejected plan is *never* silently applied.

use pipeleon::apply::apply_plan;
use pipeleon::plan::{Candidate, GlobalPlan, Segment, SegmentKind};
use pipeleon::{Optimizer, OptimizerConfig};
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::{
    MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_runtime::{Controller, ControllerConfig, RuntimeError, SimTarget, Target};
use pipeleon_sim::{Packet, SmartNic};
use pipeleon_verify::PlanVerifier;

/// Runs `n_packets` deterministic pseudo-random packets through both
/// programs and asserts identical observable outcomes.
fn assert_equivalent(
    original: &ProgramGraph,
    optimized: &ProgramGraph,
    params: &CostParams,
    seed: u64,
    n_packets: usize,
    what: &str,
) {
    let mut nic_a = SmartNic::new(original.clone(), params.clone()).expect("original deploys");
    let mut nic_b = SmartNic::new(optimized.clone(), params.clone()).expect("optimized deploys");
    let n_fields = original.fields.len().max(optimized.fields.len());
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n_packets {
        // Small value domain so packets hit entries and caches see reuse.
        let mut slots = vec![0u64; n_fields];
        for s in slots.iter_mut() {
            *s = next() % 12;
        }
        let mut pa = Packet::with_slots(slots.clone());
        let mut pb = Packet::with_slots(slots.clone());
        let ra = nic_a.process_one(&mut pa);
        let rb = nic_b.process_one(&mut pb);
        assert_eq!(
            ra.dropped, rb.dropped,
            "{what}: packet {i} (slots {slots:?}): drop divergence"
        );
        assert_eq!(
            pa.egress_port, pb.egress_port,
            "{what}: packet {i} (slots {slots:?}): egress divergence"
        );
        if !ra.dropped {
            assert_eq!(
                pa.slots(),
                pb.slots(),
                "{what}: packet {i} (slots {slots:?}): field divergence"
            );
        }
    }
}

/// All permutations of `items` (Heap's algorithm; inputs are tiny).
fn permutations(items: &[NodeId]) -> Vec<Vec<NodeId>> {
    fn heap(v: &mut Vec<NodeId>, k: usize, out: &mut Vec<Vec<NodeId>>) {
        if k <= 1 {
            out.push(v.clone());
            return;
        }
        for i in 0..k {
            heap(v, k - 1, out);
            if k.is_multiple_of(2) {
                v.swap(i, k - 1);
            } else {
                v.swap(0, k - 1);
            }
        }
    }
    let mut v = items.to_vec();
    let mut out = Vec::new();
    let n = v.len();
    heap(&mut v, n, &mut out);
    out
}

/// Every single-rewrite candidate over `chain`: each permutation (no
/// segments), plus each contiguous cache/merge segment on the identity
/// order.
fn single_rewrite_candidates(chain: &[NodeId]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for order in permutations(chain) {
        out.push(Candidate {
            pipelet: 0,
            order,
            segments: Vec::new(),
            gain: 1.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        });
    }
    for start in 0..chain.len() {
        for end in (start + 1)..=chain.len() {
            let mut kinds = vec![SegmentKind::Cache];
            if end - start >= 2 {
                kinds.push(SegmentKind::Merge { as_cache: false });
                kinds.push(SegmentKind::Merge { as_cache: true });
            }
            for kind in kinds {
                out.push(Candidate {
                    pipelet: 0,
                    order: chain.to_vec(),
                    segments: vec![Segment { start, end, kind }],
                    gain: 1.0,
                    mem_cost: 0.0,
                    update_cost: 0.0,
                    group_branch: None,
                });
            }
        }
    }
    out
}

struct Program {
    name: &'static str,
    graph: ProgramGraph,
    chain: Vec<NodeId>,
    /// Expected counts, as a sanity floor: (min legal, min illegal).
    expect: (usize, usize),
}

/// Three drop-only ACLs on disjoint fields: everything commutes, so every
/// permutation, cache, and merge is legal.
fn acl_chain() -> Program {
    let mut b = ProgramBuilder::named("diff_acl_chain");
    let fields: Vec<_> = (0..3).map(|i| b.field(&format!("f{i}"))).collect();
    let mut chain = Vec::new();
    for (i, &f) in fields.iter().enumerate() {
        chain.push(
            b.table(format!("acl{i}"))
                .key(f, MatchKind::Exact)
                .action_nop("permit")
                .action_drop("deny")
                .entry(TableEntry::new(vec![MatchValue::Exact(i as u64 + 3)], 1))
                .finish(),
        );
    }
    Program {
        name: "acl_chain",
        graph: b.seal_sequential().unwrap(),
        chain,
        expect: (10, 0),
    }
}

/// A read-after-write chain: `setter` writes `f1`, `filter` matches `f1`.
/// Any plan that runs `filter` before `setter`, caches across the pair, or
/// merges them is illegal; plans keeping the dependency are legal.
fn raw_chain() -> Program {
    let mut b = ProgramBuilder::named("diff_raw_chain");
    let f0 = b.field("f0");
    let f1 = b.field("f1");
    let f2 = b.field("f2");
    let setter = b
        .table("setter")
        .key(f0, MatchKind::Exact)
        .action("mark_low", vec![Primitive::set(f1, 3)])
        .action("mark_high", vec![Primitive::set(f1, 7)])
        .entry(TableEntry::new(vec![MatchValue::Exact(2)], 1))
        .finish();
    let filter = b
        .table("filter")
        .key(f1, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(7)], 1))
        .finish();
    let acl = b
        .table("acl")
        .key(f2, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(5)], 1))
        .finish();
    Program {
        name: "raw_chain",
        graph: b.seal_sequential().unwrap(),
        chain: vec![setter, filter, acl],
        expect: (3, 3),
    }
}

/// Two exact tables with entries and no writes: merges (both flavors) and
/// caches are legal everywhere.
fn merge_chain() -> Program {
    let mut b = ProgramBuilder::named("diff_merge_chain");
    let f0 = b.field("f0");
    let f1 = b.field("f1");
    let t0 = b
        .table("left")
        .key(f0, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(1)], 1))
        .entry(TableEntry::new(vec![MatchValue::Exact(4)], 0))
        .finish();
    let t1 = b
        .table("right")
        .key(f1, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(2)], 1))
        .finish();
    Program {
        name: "merge_chain",
        graph: b.seal_sequential().unwrap(),
        chain: vec![t0, t1],
        expect: (6, 0),
    }
}

/// A range-keyed table ahead of an exact one: as-cache merges (which
/// require all-exact keys) must be rejected, plain caches stay legal.
fn range_chain() -> Program {
    let mut b = ProgramBuilder::named("diff_range_chain");
    let f0 = b.field("f0");
    let f1 = b.field("f1");
    let meter = b
        .table("meter")
        .key(f0, MatchKind::Range)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::with_priority(
            vec![MatchValue::Range { lo: 8, hi: 11 }],
            1,
            1,
        ))
        .finish();
    let acl = b
        .table("acl")
        .key(f1, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(6)], 1))
        .finish();
    Program {
        name: "range_chain",
        graph: b.seal_sequential().unwrap(),
        chain: vec![meter, acl],
        expect: (5, 1),
    }
}

#[test]
fn every_single_rewrite_plan_is_verified_and_differentially_tested() {
    let params = CostParams::emulated_nic();
    let model = CostModel::new(params.clone());
    let cfg = OptimizerConfig::default();
    let profile = RuntimeProfile::empty();
    for (pi, p) in [acl_chain(), raw_chain(), merge_chain(), range_chain()]
        .into_iter()
        .enumerate()
    {
        // One controller per program, fed only plans the verifier
        // rejects: it must refuse each one without touching the target.
        let nic = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
        let optimizer = Optimizer::new(CostModel::new(params.clone()));
        let mut controller = Controller::new(
            SimTarget::live(nic),
            p.graph.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .unwrap();
        let fingerprint = controller.target.fingerprint().unwrap();
        let (mut legal, mut illegal, mut infeasible) = (0usize, 0usize, 0usize);
        let verifier = PlanVerifier::new(&p.graph);
        for (ci, cand) in single_rewrite_candidates(&p.chain).into_iter().enumerate() {
            let verdict = verifier.verify(&p.graph, &cand);
            let plan = GlobalPlan {
                choices: vec![cand],
                total_gain: 1.0,
                total_mem: 0.0,
                total_update: 0.0,
            };
            if verdict.legal {
                match apply_plan(&p.graph, &plan, &model, &profile, &cfg) {
                    Ok(applied) => {
                        applied.graph.validate().unwrap();
                        let seed = (pi as u64) << 16 | ci as u64;
                        let what = format!("{} candidate {ci}", p.name);
                        assert_equivalent(&p.graph, &applied.graph, &params, seed, 1000, &what);
                        legal += 1;
                    }
                    // Legal but infeasible (e.g. merge entry blow-up):
                    // skipped, never deployed — same as the search would.
                    Err(_) => infeasible += 1,
                }
            } else {
                let err = controller.deploy_plan(&plan).unwrap_err();
                match err {
                    RuntimeError::InvalidCandidate { violations, .. } => {
                        assert!(
                            !violations.is_empty(),
                            "{}: rejected plan must carry violations",
                            p.name
                        );
                    }
                    other => panic!("{}: expected InvalidCandidate, got {other:?}", p.name),
                }
                assert_eq!(
                    controller.target.fingerprint().unwrap(),
                    fingerprint,
                    "{}: rejected plan must not touch the target",
                    p.name
                );
                illegal += 1;
            }
        }
        assert!(
            legal >= p.expect.0,
            "{}: expected at least {} legal plans, saw {legal} ({infeasible} infeasible)",
            p.name,
            p.expect.0
        );
        assert!(
            illegal >= p.expect.1,
            "{}: expected at least {} illegal plans, saw {illegal}",
            p.name,
            p.expect.1
        );
    }
}
