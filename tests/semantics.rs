//! Property tests: every optimizer transformation preserves program
//! semantics.
//!
//! For randomly synthesized programs, random profiles, and random packets,
//! the optimized program must produce exactly the same per-packet outcome
//! as the original: same field contents, same drop decision, same egress
//! port. This exercises reordering (dependency analysis), flow caches
//! (record/replay incl. cached drops), merged tables (cross-product
//! materialization and priority encoding), and pipelet-group caches, with
//! warm and cold cache state.

use pipeleon::{apply_plan, Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_sim::{Packet, SmartNic};
use pipeleon_workloads::profiles::{random_profile, ProfileSynthConfig};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use proptest::prelude::*;

/// Runs `n_packets` deterministic pseudo-random packets through both
/// programs and asserts identical outcomes.
fn assert_equivalent(
    original: &pipeleon_ir::ProgramGraph,
    optimized: &pipeleon_ir::ProgramGraph,
    params: &CostParams,
    seed: u64,
    n_packets: usize,
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
        // Small value domain so packets actually hit entries, repeat
        // packets so caches see hits, larger values occasionally.
        let mut slots = vec![0u64; n_fields];
        for s in slots.iter_mut() {
            *s = match next() % 10 {
                0..=5 => next() % 12,
                6..=8 => next() % 64,
                _ => next() % 100_000,
            };
        }
        let mut pa = Packet::with_slots(slots.clone());
        let mut pb = Packet::with_slots(slots.clone());
        let ra = nic_a.process_one(&mut pa);
        let rb = nic_b.process_one(&mut pb);
        assert_eq!(
            ra.dropped, rb.dropped,
            "packet {i} (slots {slots:?}): drop divergence"
        );
        assert_eq!(
            pa.egress_port, pb.egress_port,
            "packet {i} (slots {slots:?}): egress divergence"
        );
        if !ra.dropped {
            // Dropped packets' field state is unobservable.
            assert_eq!(
                pa.slots(),
                pb.slots(),
                "packet {i} (slots {slots:?}): field divergence"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn optimized_programs_preserve_semantics(
        seed in 0u64..10_000,
        pipelets in 1usize..8,
        pipelet_len in 1usize..5,
        drop_fraction in 0.0f64..0.5,
        write_fraction in 0.0f64..0.4,
        all_exact in any::<bool>(),
    ) {
        let cfg = SynthConfig {
            pipelets,
            pipelet_len,
            drop_fraction,
            write_fraction,
            match_mix: if all_exact { MatchMix::all_exact() } else { MatchMix::default_mix() },
            entries_per_table: 6,
            seed,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        let profile = random_profile(&g, &ProfileSynthConfig::default(), seed ^ 0xABCD);
        let params = CostParams::emulated_nic();
        let optimizer = Optimizer::new(CostModel::new(params.clone()))
            .with_config(OptimizerConfig {
                top_k_fraction: 1.0, // maximize transformation coverage
                ..OptimizerConfig::default()
            });
        let outcome = optimizer
            .optimize(&g, &profile, ResourceLimits::unlimited())
            .expect("optimization succeeds");
        let optimized = apply_plan(&g, &outcome.plan, &optimizer.model, &profile, &optimizer.cfg)
            .expect("the plan builds")
            .graph;
        optimized.validate().expect("optimized validates");
        assert_equivalent(&g, &optimized, &params, seed, 300);
    }

    #[test]
    fn reorder_only_plans_preserve_semantics(
        seed in 0u64..10_000,
        pipelets in 1usize..6,
    ) {
        // Zero budget forbids caches/merges: isolates the reordering +
        // dependency-analysis path.
        let cfg = SynthConfig {
            pipelets,
            pipelet_len: 4,
            drop_fraction: 0.5,
            write_fraction: 0.3,
            seed,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        let profile = random_profile(&g, &ProfileSynthConfig::default(), seed ^ 0x1234);
        let params = CostParams::bluefield2();
        let optimizer = Optimizer::new(CostModel::new(params.clone()));
        let outcome = optimizer
            .optimize(&g, &profile, ResourceLimits::new(0.0, 0.0))
            .expect("optimization succeeds");
        let optimized = apply_plan(&g, &outcome.plan, &optimizer.model, &profile, &optimizer.cfg)
            .expect("the plan builds")
            .graph;
        assert_equivalent(&g, &optimized, &params, seed, 200);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Diamond-chain programs exercise pipelet-group caches (including the
    /// absorbed join pipelet); semantics must survive.
    #[test]
    fn diamond_group_caches_preserve_semantics(
        seed in 0u64..10_000,
        pipelets in 3usize..10,
        pipelet_len in 1usize..3,
    ) {
        use pipeleon_workloads::synth::synthesize_diamonds;
        let cfg = SynthConfig {
            pipelets,
            pipelet_len,
            drop_fraction: 0.2,
            entries_per_table: 5,
            seed,
            ..SynthConfig::default()
        };
        let g = synthesize_diamonds(&cfg);
        let mut profile = random_profile(&g, &ProfileSynthConfig::default(), seed ^ 0x55);
        for (n, _) in g.tables() {
            profile.set_distinct_keys(n.id, 12); // locality: groups trigger
        }
        let params = CostParams::emulated_nic();
        let optimizer = Optimizer::new(CostModel::new(params.clone()))
            .with_config(OptimizerConfig {
                top_k_fraction: 1.0,
                ..OptimizerConfig::default()
            });
        let outcome = optimizer
            .optimize(&g, &profile, ResourceLimits::unlimited())
            .expect("optimization succeeds");
        let optimized = apply_plan(&g, &outcome.plan, &optimizer.model, &profile, &optimizer.cfg)
            .expect("the plan builds")
            .graph;
        assert_equivalent(&g, &optimized, &params, seed, 300);
    }
}

#[test]
fn scenario_programs_preserve_semantics_after_optimization() {
    use pipeleon_workloads::scenarios::{AclPipeline, DashRouting, LoadBalancer, NfComposition};
    let params = CostParams::bluefield2();
    let programs = vec![
        AclPipeline::build(6, 4).graph,
        LoadBalancer::build().graph,
        DashRouting::build().graph,
        NfComposition::build().graph,
    ];
    for (i, g) in programs.into_iter().enumerate() {
        let profile = random_profile(&g, &ProfileSynthConfig::default(), i as u64);
        let optimizer = Optimizer::new(CostModel::new(params.clone())).esearch();
        let outcome = optimizer
            .optimize(&g, &profile, ResourceLimits::unlimited())
            .expect("optimization succeeds");
        let optimized = apply_plan(
            &g,
            &outcome.plan,
            &optimizer.model,
            &profile,
            &optimizer.cfg,
        )
        .expect("the plan builds")
        .graph;
        assert_equivalent(&g, &optimized, &params, i as u64 + 77, 500);
    }
}
