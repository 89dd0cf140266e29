//! The paper's evaluation (§5, Appendix A) as checked claims: each test
//! computes one figure's rows through `pipeleon_bench` and asserts its
//! *shape* (orderings, ratios, crossovers, recoveries). The emulator
//! clock is deterministic, so the assertions are exact; the one
//! host-clock figure (13) and the incremental table are checked on their
//! counts, not their times.
//!
//! Where we miss the paper, [`recorded_gap`] pins our number to the value
//! EXPERIMENTS.md records, beside the paper's, within a stated tolerance:
//! a change that moves it must update the record.
//!
//! Reduced sizes (everything else runs at the paper size the `figures`
//! bench prints): Fig. 13 runs 10 programs per group instead of 100,
//! because each program's candidate count grows with k on its own, so the
//! totals' ordering does not depend on how many are summed; Fig. 12's
//! counter sweep runs 4,096 packets instead of 20,000, because without
//! sampling every packet of these straight-line programs costs the same
//! and with 1-in-1024 sampling a multiple of 1024 keeps the sampled share
//! exact.
//!
//! Runtime: 23.4 s wall (44 s CPU) for the whole file in a debug build on
//! a 2-vCPU KVM guest (`cargo test -q --test paper_claims`, two test
//! threads); the longest test, Fig. 9(c), takes 8.6 s. The budget is 45 s.

use pipeleon_bench::{
    ext, fig02, fig05, fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig17, fig18_19, Table,
    ENTROPY_LEVELS,
};
use pipeleon_cost::CostParams;

/// A place where we miss the paper: ours must stay at the `recorded`
/// value (EXPERIMENTS.md) within `tol`; `paper` is the paper's number.
fn recorded_gap(what: &str, paper: f64, recorded: f64, tol: f64, ours: f64) {
    assert!(
        (ours - recorded).abs() <= tol,
        "{what}: ours {ours:.3} left the recorded {recorded} ± {tol} (paper: {paper})"
    );
}

fn non_increasing(xs: &[f64], slack: f64) -> bool {
    xs.windows(2).all(|w| w[1] <= w[0] * (1.0 + slack))
}

fn increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] > w[0])
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Column `col` of the rows where every `(column, printed value)` matches.
fn select(t: &Table, filters: &[(&str, &str)], col: &str) -> Vec<f64> {
    let mut t = t.clone();
    for (c, v) in filters {
        t = t.filter(c, v);
    }
    assert!(
        !t.rows.is_empty(),
        "no rows for {filters:?} in `{}`",
        t.title
    );
    t.nums(col)
}

/// Fig. 2: the static order never reaches line rate; the dynamic order
/// starts level with it and is at line rate from the second window on,
/// so it recovers within one window of every drop-rate change.
#[test]
fn fig02_dynamic_order_recovers_within_one_window() {
    let t = fig02::dynamic_vs_static();
    let line = CostParams::bluefield2().line_rate_gbps;
    let (stat, dynamic) = (t.nums("static_gbps"), t.nums("dynamic_gbps"));
    assert!((dynamic[0] / stat[0] - 1.0).abs() < 0.01, "{t}");
    assert!(stat.iter().all(|&s| s < 0.7 * line), "{t}");
    assert!(dynamic[1..].iter().all(|&d| d >= line - 1e-9), "{t}");
    let changes: Vec<usize> = (0..t.rows.len())
        .filter(|&r| t.cell(r, "event").to_string() == "dropping-rate change")
        .collect();
    assert_eq!(changes.len(), 2, "{t}");
}

/// Fig. 5: calibration recovers the target's parameters, and the model's
/// average error over the 16 validation programs is within the paper's
/// ~5 %, exact on panels (a), (b) and (d).
#[test]
fn fig05_model_error_averages_under_5pct() {
    let t = fig05::validation();
    let hw = CostParams::bluefield2();
    assert!((t.noted("l_mat") - hw.l_mat).abs() < 1e-6, "{t}");
    assert!((t.noted("l_act") - hw.l_act).abs() < 1e-6, "{t}");
    assert!(t.noted("exact_fit_r2") > 0.9999, "{t}");
    assert!(t.noted("avg_deviation_pct") <= 5.0, "{t}");
    for panel in ["a_exact_tables", "b_action_prims", "d_ternary_tables"] {
        let model = select(&t, &[("panel", panel)], "model_norm");
        assert!(model.iter().all(|m| (m - 1.0).abs() < 1e-3), "{panel}: {t}");
    }
    // Recorded gap: validation traffic hits the /24 way on the first
    // probe, a mechanism the flat `m` averages away.
    let lpm = select(&t, &[("panel", "c_lpm_tables")], "model_norm");
    let worst = lpm.iter().map(|m| 100.0 * (1.0 - m)).fold(0.0, f64::max);
    recorded_gap("Fig. 5(c) LPM worst deviation %", 5.0, 8.7, 0.5, worst);
}

/// Fig. 9(a/b): throughput rises as the ACL moves forward (each position
/// draws its own traffic seed, so a step may wobble by 2 %), and the
/// front-vs-back gain is steeper at a higher drop rate, on both targets.
#[test]
fn fig09ab_acl_forward_gain_is_monotone_and_steeper_at_higher_drop() {
    let t = fig09::reordering();
    for target in ["bluefield2", "agilio_cx"] {
        let mut gains = Vec::new();
        for drop in ["0.250", "0.500", "0.750"] {
            let gbps = select(&t, &[("target", target), ("drop_rate", drop)], "gbps");
            assert!(
                non_increasing(&gbps, 0.02),
                "{target} drop {drop}: {gbps:?}"
            );
            gains.push(gbps[0] / gbps[gbps.len() - 1]);
        }
        assert!(increasing(&gains), "{target}: {gains:?}");
    }
    let front = select(
        &t,
        &[("target", "bluefield2"), ("drop_rate", "0.750")],
        "gbps",
    )[0];
    assert!(front >= CostParams::bluefield2().line_rate_gbps - 1e-9);
}

/// Fig. 9(c): every caching option beats no cache, fewer caches over more
/// tables win, and `[1,2,3][4]` beats the whole-set cache `[1,2,3,4]`,
/// whose key cross product dwarfs its capacity.
#[test]
fn fig09c_three_table_cache_beats_the_whole_set_cache() {
    let t = fig09::caching();
    for target in ["bluefield2", "agilio_cx"] {
        let gbps = |option| select(&t, &[("target", target), ("option", option)], "gbps")[0];
        let split = ["[1][2][3][4]", "[1,2][3][4]", "[1,2,3][4]"].map(gbps);
        assert!(increasing(&split), "{target}: {split:?}");
        assert!(gbps("no_cache") < split[0], "{target}");
        assert!(gbps("[1,2,3][4]") > gbps("[1,2,3,4]"), "{target}: {t}");
        assert!(gbps("no_cache") < gbps("[1,2,3,4]"), "{target}");
    }
}

/// Fig. 9(d): merging more tables gains more; the gains span the paper's
/// 1.2–2.1×, with the materialized entries growing 4× per merged table.
#[test]
fn fig09d_merge_gains_span_1_2_to_2_1x() {
    let t = fig09::merging();
    for target in ["bluefield2", "agilio_cx"] {
        let sel = |col| select(&t, &[("target", target)], col);
        let gbps = sel("gbps");
        let gains: Vec<f64> = gbps[1..].iter().map(|g| g / gbps[0]).collect();
        assert!(increasing(&gains) && gains[0] >= 1.2, "{target}: {gains:?}");
        assert_eq!(sel("merged_entries"), [0.0, 64.0, 256.0, 1024.0]);
        if target == "bluefield2" {
            assert!((gains[2] - 2.1).abs() < 0.05, "{gains:?}");
        } else {
            // The paper's Agilio tops out at 1.8×.
            recorded_gap(
                "Fig. 9(d) Agilio [1,2,3,4] gain ×",
                1.8,
                2.25,
                0.05,
                gains[2],
            );
        }
    }
}

/// Fig. 10: longer pipelets gain more in every category; caching
/// dominates high locality, merging and caching the small static tables,
/// and reordering the heavy drops at PL 3–4. Recorded gaps: at PL 1–2 and
/// 2–3 caching beats reordering on heavy drops, and the smallest
/// category-best reduction is below the paper's range of 27–52 %.
#[test]
fn fig10_longer_pipelets_gain_more_and_each_category_has_its_technique() {
    let t = fig10::synthesized();
    let cell = |cat, pl, tech| {
        let f = [("category", cat), ("pipelet_len", pl), ("technique", tech)];
        select(&t, &f, "mean_latency_reduction_pct")[0]
    };
    let pls = ["1~2", "2~3", "3~4"];
    let techs = ["reordering", "merging", "caching"];
    let mut bests = Vec::new();
    for cat in [
        "heavy_packet_drop",
        "small_static_tables",
        "high_traffic_locality",
    ] {
        let best: Vec<f64> = pls
            .map(|pl| {
                techs
                    .map(|tech| cell(cat, pl, tech))
                    .into_iter()
                    .fold(0.0, f64::max)
            })
            .to_vec();
        assert!(increasing(&best), "{cat}: {best:?}");
        bests.extend(best);
    }
    for pl in pls {
        let locality = techs.map(|tech| cell("high_traffic_locality", pl, tech));
        assert!(
            locality[2] > locality[1] && locality[1] > locality[0],
            "{pl}"
        );
        let small = techs.map(|tech| cell("small_static_tables", pl, tech));
        assert!(
            small[0] < 1e-9 && small[1] > 10.0 && small[2] > 10.0,
            "{pl}"
        );
    }
    let heavy = |pl| techs.map(|tech| cell("heavy_packet_drop", pl, tech));
    let long = heavy("3~4");
    assert!(long[0] > long[1] && long[0] > long[2], "{long:?}");
    for (pl, recorded) in [("1~2", 8.30), ("2~3", 4.89)] {
        let [reorder, _, cache] = heavy(pl);
        let what = format!("Fig. 10 heavy drop PL {pl}: caching − reordering (pp); paper: < 0");
        recorded_gap(&what, 0.0, recorded, 0.05, cache - reorder);
    }
    let low = bests.iter().copied().fold(f64::INFINITY, f64::min);
    recorded_gap(
        "Fig. 10 lowest category-best reduction %",
        27.0,
        10.40,
        0.05,
        low,
    );
}

/// Fig. 11(a): the whole-program cache collapses under the insertion
/// burst and stays degraded; Pipeleon dips for one window and is back at
/// line rate in the next, then holds it across the drop-rate change.
#[test]
fn fig11a_load_balancer_recovers_from_both_events() {
    let t = fig11::load_balancer();
    let line = CostParams::bluefield2().line_rate_gbps;
    let (base, ours) = (t.nums("baseline_gbps"), t.nums("pipeleon_gbps"));
    let event = |w: usize| t.cell(w, "event").to_string();
    assert_eq!(event(3), "high insertion rate starts");
    assert_eq!(event(6), "dropping-rate change");
    assert!(base[..3].iter().all(|&b| b >= line - 1e-9), "{t}");
    assert!(ours[1..3].iter().all(|&m| m >= line - 1e-9), "{t}");
    assert!(ours[3] < 0.8 * line, "the burst costs one window: {t}");
    assert!(base[3..].iter().all(|&b| b < 0.85 * line), "{t}");
    assert!(ours[4..].iter().all(|&m| m >= line - 1e-9), "{t}");
}

/// Fig. 11(b): on the reload-based target Pipeleon reaches line rate in
/// the biased-drop phase and beats the baseline by ≥ 1.5× once flows are
/// long-lived, paying the 2 s downtime on every reconfiguration.
#[test]
fn fig11b_dash_routing_switches_technique_with_the_traffic() {
    let t = fig11::dash_routing();
    let line = CostParams::agilio_cx().line_rate_gbps;
    let (base, ours) = (t.nums("baseline_gbps"), t.nums("pipeleon_gbps"));
    assert!(ours[1..6].iter().all(|&m| m >= line - 1e-9), "{t}");
    assert!(base[..6].iter().all(|&b| b < 0.9 * line), "{t}");
    assert!((7..12).all(|w| ours[w] >= 1.5 * base[w]), "{t}");
    for (w, downtime) in t.nums("downtime_s").into_iter().enumerate() {
        match t.cell(w, "event").to_string().as_str() {
            "reoptimized (reload)" => assert_eq!(downtime, 2.0),
            "" => assert_eq!(downtime, 0.0),
            _ => {}
        }
    }
}

/// Fig. 11(c): each shift of the dominant NF is re-optimized in the next
/// window, and the NF3 phase matches the paper's magnitude. Recorded gap:
/// the steady-state average is 27 %, the paper's 49 %.
#[test]
fn fig11c_nf_composition_tracks_the_dominant_nf() {
    let t = fig11::nf_composition();
    let red = t.nums("reduction_pct");
    for phase in red.chunks(3) {
        assert!(
            phase[0] < 3.0 && phase[1] > phase[0] && phase[2] > phase[0],
            "{t}"
        );
    }
    assert!(red[7] > 45.0 && red[8] > 45.0, "{t}");
    let steady = t.noted("steady_state_reduction_pct");
    recorded_gap(
        "Fig. 11(c) steady-state reduction %",
        49.0,
        27.3,
        0.1,
        steady,
    );
}

/// Fig. 12: counters cost Agilio ~20 % (simple actions), flat in the
/// counter count, less with complex actions; 1/1024 sampling cuts it
/// under 5 %; BlueField2 stays under 2 % without sampling.
#[test]
fn fig12_sampling_cuts_counter_overhead_under_5pct() {
    let t = fig12::counter_overhead(4096);
    let col = "latency_increase_pct";
    let agilio = |variant| select(&t, &[("target", "agilio_cx"), ("variant", variant)], col);
    let simple = agilio("simple_action");
    assert!(simple.iter().all(|&v| (15.0..25.0).contains(&v)), "{t}");
    assert!(
        simple.iter().fold(0.0, |a: f64, &v| a.max(v)) - simple[0] < 2.0,
        "{t}"
    );
    let complex = agilio("complex_action");
    assert!(complex.iter().zip(&simple).all(|(c, s)| c < s), "{t}");
    let sampled = select(&t, &[("variant", "simple_action_sampling_1_1024")], col);
    assert!(sampled.iter().all(|&v| v <= 5.0), "{t}");
    let bf2 = select(&t, &[("target", "bluefield2")], col);
    assert!(bf2.iter().all(|&v| v <= 2.0), "{t}");
}

/// Fig. 12, the folded overhead check: sampled instrumentation costs at
/// most 5 % mean latency on both targets, and the histograms record
/// exactly one packet in `sample_every`.
#[test]
fn fig12_sampled_instrumentation_stays_within_5pct() {
    let t = fig12::sampled_overhead();
    assert!(t.nums("overhead_pct").iter().all(|&o| o <= 5.0), "{t}");
    let every = t.nums("sample_every");
    for (r, sampled) in t.nums("sampled_packets").into_iter().enumerate() {
        let expected = (fig12::SAMPLED_PACKETS as u64 / every[r] as u64) as f64;
        assert_eq!(sampled, expected, "row {r}: {t}");
    }
}

/// Fig. 13 (host clock, so counts): a larger top-k evaluates more
/// candidates in every program group, ESearch the most.
#[test]
fn fig13_candidates_evaluated_grow_with_k() {
    let t = fig13::search_times(10);
    for group in ["PN=12_PL=2", "PN=13_PL=3", "PN=15_PL=3"] {
        let counts: Vec<f64> = fig13::KS
            .map(|k| {
                t.noted(&format!(
                    "{group} {} candidates_evaluated",
                    fig13::k_label(k)
                ))
            })
            .to_vec();
        assert!(increasing(&counts), "{group}: {counts:?}");
        assert_eq!(
            select(&t, &[("group", group)], "cdf").len(),
            20 * fig13::KS.len()
        );
    }
}

/// Fig. 14: top-k quality is monotone in k at every decile and entropy
/// level. Recorded gap: the lower decile of the top-20 % ratio is about
/// 0.5, where the paper reports ≥ 0.7.
#[test]
fn fig14_topk_quality_is_monotone_in_k() {
    let t = fig14::topk_quality();
    for (level, recorded) in ENTROPY_LEVELS.into_iter().zip([0.506, 0.578, 0.534]) {
        let by_k: Vec<Vec<f64>> = ["20%", "30%", "40%", "50%"]
            .map(|k| select(&t, &[("entropy_pct", level), ("k", k)], "gain_ratio"))
            .to_vec();
        for decile in 0..10 {
            let q: Vec<f64> = by_k.iter().map(|r| r[decile]).collect();
            assert!(
                q.windows(2).all(|w| w[1] >= w[0]),
                "{level} decile {decile}: {q:?}"
            );
        }
        let what = format!("Fig. 14 top-20 % lower decile, {level} entropy");
        recorded_gap(&what, 0.7, recorded, 0.001, by_k[0][0]);
    }
}

/// Fig. 15: optimizing pipelet groups beats per-pipelet optimization on
/// average at every k, and its per-program CDF lies right of the other.
#[test]
fn fig15_with_group_beats_without_group() {
    let t = fig15::mean_reduction();
    for k in ["40%", "50%", "60%"] {
        let col = "mean_latency_reduction_pct";
        let with = select(&t, &[("k", k), ("variant", "with_group")], col)[0];
        let without = select(&t, &[("k", k), ("variant", "without_group")], col)[0];
        assert!(with > without + 10.0, "{k}: {t}");
    }
    let cdf = fig15::reduction_cdf();
    let col = "latency_reduction_pct";
    let with = select(&cdf, &[("variant", "with_group")], col);
    let without = select(&cdf, &[("variant", "without_group")], col);
    assert!(with.iter().zip(&without).all(|(w, o)| w > o), "{cdf}");
}

/// Fig. 17: each copied table lowers the emulated latency, and the
/// benefit of copying grows with the migration latency and with the
/// software share of traffic.
#[test]
fn fig17_copying_benefit_grows_with_migration_latency_and_software_share() {
    for (t, axis, values) in [
        (
            fig17::migration_latency(),
            "migration_latency_ns",
            ["100.000", "300.000", "600.000"],
        ),
        (
            fig17::software_share(),
            "software_share",
            ["0.300", "0.500", "0.700"],
        ),
    ] {
        let mut benefit = Vec::new();
        for v in values {
            let lat = select(&t, &[(axis, v)], "emulated_latency_ns");
            assert!(
                non_increasing(&lat, 0.0) && lat[1] < lat[0],
                "{axis} {v}: {t}"
            );
            benefit.push(lat[0] / lat[lat.len() - 1]);
        }
        assert!(increasing(&benefit), "{axis}: {benefit:?}");
    }
}

/// Fig. 18: the higher the entropy level, the less traffic its two
/// busiest pipelets carry.
#[test]
fn fig18_higher_entropy_spreads_traffic() {
    let t = fig18_19::distributions();
    let mut top2 = Vec::new();
    let mut bits = Vec::new();
    for level in ENTROPY_LEVELS {
        let mut shares = select(&t, &[("entropy_pct", level)], "traffic_share");
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        shares.sort_by(|a, b| b.partial_cmp(a).unwrap());
        top2.push(shares[0] + shares[1]);
        bits.push(select(&t, &[("entropy_pct", level)], "entropy_bits")[0]);
    }
    assert!(increasing(&bits), "{t}");
    assert!(top2.windows(2).all(|w| w[1] < w[0]), "{top2:?}");
}

/// Fig. 19: ESearch's improvement is independent of the traffic entropy:
/// the three levels' means lie within 5 % of each other (paper: 1.32× /
/// 1.37× / 1.43×), each above 1.3×.
#[test]
fn fig19_esearch_gain_is_entropy_independent() {
    let t = fig18_19::esearch_gains();
    let means = ENTROPY_LEVELS.map(|l| t.noted(&format!("mean_ratio_{l}")));
    let avg = mean(&means);
    assert!(
        means
            .iter()
            .all(|&m| m > 1.3 && (m / avg - 1.0).abs() < 0.05),
        "{means:?}"
    );
}

/// Incremental re-optimization (host clock, so counts): an unchanged
/// profile reuses every candidate and finds the cold plan's gain, a
/// one-branch shift re-enumerates only the pipelets it touches, and a
/// global shift re-enumerates everything.
#[test]
fn ext_incremental_reuses_unchanged_pipelets() {
    let t = ext::incremental();
    let counts: Vec<(f64, f64)> = t
        .nums("candidates_evaluated")
        .into_iter()
        .zip(t.nums("candidates_reused"))
        .collect();
    assert_eq!(counts, [(38.0, 0.0), (0.0, 38.0), (5.0, 33.0), (35.0, 0.0)]);
    let gain = t.nums("est_gain_ns");
    assert_eq!(gain[0], gain[1], "{t}");
}
