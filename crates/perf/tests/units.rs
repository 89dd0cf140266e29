//! Unit tests for the estimators, the span arithmetic, the JSON writer
//! and the comparison rule.

use pipeleon_perf::compare::{compare, judge, parse_set, Verdict};
use pipeleon_perf::harness::{quiet_op_ns, quiet_rate, quiet_setup_s, Sample, END_TO_END};
use pipeleon_perf::host::parse_cpu_list;
use pipeleon_perf::hostprobe;
use pipeleon_perf::json::Value;
use pipeleon_perf::stats;
use pipeleon_perf::trace::{merge, self_times, totals, Tracer};
use std::time::{Duration, Instant};

#[test]
fn quantiles_interpolate() {
    let s: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(stats::quantile(&s, 0.0), 1.0);
    assert_eq!(stats::quantile(&s, 0.5), 3.0);
    assert_eq!(stats::quantile(&s, 1.0), 5.0);
    assert_eq!(stats::quantile(&s, 0.125), 1.5);
    assert_eq!(stats::median(&[4.0, 1.0]), 2.5);
    assert_eq!(stats::quantile(&[], 0.5), 0.0);
}

#[test]
fn quiet_tail_keeps_samples_beyond_the_reading() {
    let beyond = stats::MIN_BEYOND as f64;
    // Plenty of samples: the tail aimed for.
    assert_eq!(stats::quiet_tail(5000), stats::QUIET_TAIL);
    // Too few for that: back off until MIN_BEYOND lie beyond.
    assert_eq!(stats::quiet_tail(100), beyond / 100.0);
    assert_eq!(stats::quiet_tail(8), beyond / 8.0);
    // Never past the median, however few the samples.
    assert_eq!(stats::quiet_tail(1), 0.5);
    assert_eq!(stats::quiet_tail(0), 0.5);
    for n in [2usize, 8, 20, 100, 199, 200, 201, 20_000] {
        let left = stats::quiet_tail(n) * n as f64;
        assert!(left >= beyond - 1e-9, "n={n}: only {left} samples beyond");
    }
    // Eight visits, one freak reading far below the rest: the estimate
    // sits next to the second fastest, not on the freak.
    let visits = [
        100.0, 1000.0, 1001.0, 1002.0, 1300.0, 1400.0, 1900.0, 2500.0,
    ];
    assert!(stats::quiet_low(&visits) > 850.0);
    assert!(stats::quiet_low(&visits) <= 1000.0);
}

#[test]
fn quiet_estimators_ignore_one_sided_noise() {
    // 1000 reps of a 100-unit op; three quarters of them disturbed by up
    // to +80 %. The quiet estimate stays at the undisturbed value while
    // the median wanders off.
    let times: Vec<f64> = (0..1000)
        .map(|i| {
            if i % 4 == 0 {
                100.0
            } else {
                100.0 + (i % 80) as f64
            }
        })
        .collect();
    assert_eq!(stats::quiet_low(&times), 100.0);
    assert!(stats::median(&times) > 120.0);
    let rates: Vec<f64> = times.iter().map(|t| 1e6 / t).collect();
    assert_eq!(stats::quiet_high(&rates), 1e4);
    assert!(stats::disturbed_share(&rates) > 0.5);
    assert!(stats::iqr_pct(&rates) > 10.0);
}

#[test]
fn setup_time_charges_each_stage_at_its_fastest() {
    // Three set-ups of three stages; each set-up was disturbed in a
    // different stage, so no whole set-up was quiet but every stage was.
    let setups = vec![
        vec![900_000_000, 100_000_000, 50_000_000],
        vec![400_000_000, 700_000_000, 50_000_000],
        vec![400_000_000, 100_000_000, 350_000_000],
    ];
    assert_eq!(quiet_setup_s(&setups), 0.55);
    // Stages that do not line up: the fastest whole set-up.
    let ragged = vec![vec![400_000_000, 100_000_000], vec![300_000_000]];
    assert_eq!(quiet_setup_s(&ragged), 0.3);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles_exclusive(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(
        stats::quartiles_exclusive(&[3.0, 1.0, 2.0]),
        (1.0, 2.0, 3.0)
    );
}

#[test]
fn item_estimators_sum_quiet_time_over_the_whole_trace() {
    // Two items of 100 packets; 20 visits each. Item 0 takes 1000 ns
    // when left alone, item 1 takes 3000 ns; most visits are disturbed.
    let mut samples = Vec::new();
    for visit in 0..20u64 {
        let noise = if visit % 2 == 0 { 0 } else { 700 * visit };
        for (item, base) in [(0u32, 1000u64), (1, 3000)] {
            samples.push(Sample {
                item,
                packets: 100,
                ns: base + noise,
                ..Sample::default()
            });
        }
    }
    // Half the visits are disturbed, by up to 13x; every visit is still
    // charged at its item's quiet time.
    assert_eq!(quiet_rate(&samples, None), 200.0 * 1e9 / 4000.0);
    assert_eq!(quiet_op_ns(&samples, 40, None), 2000.0);
    // An op made of two timed calls: the same quiet time over half the ops.
    assert_eq!(quiet_op_ns(&samples, 20, None), 4000.0);
    // Items are weighted by how often they ran: 30 windows of 100
    // packets at 1000 ns and 10 packet-less control steps at 3000 ns.
    let mut mixed = Vec::new();
    for visit in 0..30u64 {
        mixed.push(Sample {
            item: 0,
            packets: 100,
            ns: 1000 + 50 * (visit % 3),
            ..Sample::default()
        });
        if visit < 10 {
            mixed.push(Sample {
                item: 4,
                packets: 0,
                ns: 3000 + 500 * (visit % 2),
                ..Sample::default()
            });
        }
    }
    assert_eq!(quiet_rate(&mixed, None), 3000.0 * 1e9 / 60_000.0);
    assert_eq!(quiet_op_ns(&mixed, 40, None), 1500.0);
    assert_eq!(quiet_rate(&[], None), 0.0);
    assert_eq!(quiet_op_ns(&[], 0, None), 0.0);
}

#[test]
fn probe_readings_pick_the_calm_visits_and_scale_the_rest() {
    // The probe's floor is 100 ns; a reading within 20 % of it is calm.
    let floor = Some(100);
    let visit = |item: u32, kind: u8, ns: u64, probe_ns: u64| Sample {
        item,
        kind,
        packets: 10,
        ns,
        probe_ns,
    };
    let mut samples = Vec::new();
    // Item 0 (kind 0): quiet time 1000 ns, seen on three calm visits out
    // of nine; a busy host makes it 1.5x slower. Median of the calm
    // visits, not their minimum: a cost that lands on most of them counts.
    for (ns, probe) in [(1000, 100), (1010, 118), (990, 120)] {
        samples.push(visit(0, 0, ns, probe));
    }
    for i in 0..6 {
        samples.push(visit(0, 0, 1500, 170 + i));
    }
    // Item 1 (kind 0) never had a calm visit: its median, 3000 ns, over
    // the 1.5x its kind was slowed by.
    for i in 0..5 {
        samples.push(visit(1, 0, 2900 + 50 * i, 200));
    }
    // Item 2 (kind 1): no item of its kind has both, so it falls back on
    // the slowdown over all kinds.
    for _ in 0..4 {
        samples.push(visit(2, 1, 600, 190));
    }
    // 9 x 1000 + 5 x 2000 + 4 x 400 = 20,600 ns for 180 packets.
    assert_eq!(quiet_rate(&samples, floor), 180.0 * 1e9 / 20_600.0);
    // On a host that was never busy every visit is calm: plain medians.
    let calm: Vec<Sample> = samples
        .iter()
        .map(|s| Sample {
            probe_ns: 100,
            ..*s
        })
        .collect();
    assert_eq!(
        quiet_rate(&calm, floor),
        180.0 * 1e9 / (9.0 * 1500.0 + 5.0 * 3000.0 + 4.0 * 600.0)
    );
    // A run without a single calm visit has nothing to scale by and
    // reads the low quantile, as an unprobed workload does.
    let busy: Vec<Sample> = samples
        .iter()
        .map(|s| Sample {
            probe_ns: 200,
            ..*s
        })
        .collect();
    assert_eq!(quiet_rate(&busy, floor), quiet_rate(&busy, None));
}

#[test]
fn the_host_probe_reads_its_floor() {
    let readings: Vec<u64> = (0..200).map(|_| hostprobe::probe_ns()).collect();
    let floor = hostprobe::floor_ns().expect("a reading was taken");
    let fastest = *readings.iter().min().expect("200 readings");
    // A reading is four slices; the floor is four times the fastest one.
    assert!(floor > 0 && floor <= fastest);
    // The kernel is not optimised away: a reading takes microseconds.
    assert!(fastest > 2_000, "a reading took {fastest} ns");
}

#[test]
fn span_self_time_is_duration_minus_children() {
    let epoch = Instant::now();
    let at = |us: u64| epoch + Duration::from_micros(us);
    let mut driver = Tracer::new(epoch, 0, true);
    let mut server = Tracer::new(epoch, 1, true);
    // rep [0, 100]: replay [10, 90] encloses two server polls.
    driver.record("bench.rep", 7, 64, at(0), at(100));
    driver.record("net.client.replay", 7, 64, at(10), at(90));
    server.record("net.ingest.poll_once", 7, 32, at(20), at(40));
    server.record("net.ingest.poll_once", 7, 32, at(50), at(75));
    // A disabled tracer records nothing.
    let mut off = Tracer::new(epoch, 0, false);
    off.record("bench.rep", 8, 1, at(0), at(1));
    assert!(off.take().is_empty());

    let spans = merge(vec![driver.take(), server.take()]);
    assert_eq!(spans.len(), 4);
    let by_name =
        |n: &str| -> Vec<usize> { spans.iter().filter(|s| s.name == n).map(|s| s.id).collect() };
    let rep = by_name("bench.rep")[0];
    let replay = by_name("net.client.replay")[0];
    assert_eq!(spans[rep].parent, None);
    assert_eq!(spans[replay].parent, Some(rep));
    for poll in by_name("net.ingest.poll_once") {
        assert_eq!(spans[poll].parent, Some(replay));
        assert_eq!(spans[poll].thread, 1);
        assert_eq!(spans[poll].rep, 7);
    }
    let own = self_times(&spans);
    assert_eq!(own[rep], 20_000, "100 - 80 us of replay");
    assert_eq!(own[replay], 35_000, "80 - (20 + 25) us of polls");
    let t = totals(&spans);
    let polls = t.iter().find(|r| r.0 == "net.ingest.poll_once").unwrap();
    assert_eq!(
        (polls.1, polls.2, polls.3, polls.4),
        (2, 45_000, 45_000, 64)
    );
}

#[test]
fn json_writer_round_trips_and_keeps_every_digit() {
    let v = Value::obj()
        .with("correct", Value::Bool(true))
        .with("attempted", Value::Int(1_000_000))
        .with(
            "name",
            Value::Str("a \"quoted\"\\ line\n\ttab \u{1} é".into()),
        )
        .with(
            "metrics",
            Value::obj().with(
                "latency_ms",
                Value::obj()
                    .with("value", Value::Num(1.203_400_000_000_1))
                    .with("unit", Value::Str("ms".into())),
            ),
        )
        .with(
            "list",
            Value::Arr(vec![Value::Null, Value::Num(2.0), Value::Num(-0.5e-7)]),
        );
    let text = v.render();
    assert!(!text.contains('\n'), "one line: {text}");
    assert!(text.contains("1.2034000000001"), "all digits: {text}");
    assert!(
        text.contains("\"attempted\": 1000000"),
        "whole numbers stay whole"
    );
    assert!(text.contains("2.0"), "whole floats stay floats");
    // What was written reads back, digit for digit.
    #[derive(serde::Deserialize)]
    struct Back {
        correct: bool,
        attempted: u64,
        name: String,
        metrics: std::collections::BTreeMap<String, Metric>,
        list: Vec<Option<f64>>,
    }
    #[derive(serde::Deserialize)]
    struct Metric {
        value: f64,
        unit: String,
    }
    let back: Back = serde_json::from_str(&text).expect("valid JSON");
    assert!(back.correct);
    assert_eq!(back.attempted, 1_000_000);
    assert_eq!(back.name, "a \"quoted\"\\ line\n\ttab \u{1} é");
    assert_eq!(back.metrics["latency_ms"].value, 1.203_400_000_000_1);
    assert_eq!(back.metrics["latency_ms"].unit, "ms");
    assert_eq!(back.list, [None, Some(2.0), Some(-0.5e-7)]);
    // Non-finite floats have no JSON spelling.
    assert_eq!(Value::Num(f64::NAN).render(), "null");
}

#[test]
fn cpu_lists_parse() {
    assert_eq!(parse_cpu_list("0-3,7"), vec![0, 1, 2, 3, 7]);
    assert_eq!(parse_cpu_list("1"), vec![1]);
    assert!(parse_cpu_list("unknown").is_empty());
}

fn record(workload: &str, seed: i64, values: [f64; 5]) -> String {
    let mut metrics = Value::obj();
    for (e, v) in END_TO_END.iter().zip(values) {
        metrics = metrics.with(
            e.name,
            Value::obj()
                .with("value", Value::Num(v))
                .with("unit", Value::Str(e.unit.into())),
        );
    }
    Value::obj()
        .with("workload", Value::Str(workload.into()))
        .with("seed", Value::Int(seed))
        .with("trace", Value::Bool(false))
        .with("result", Value::obj().with("metrics", metrics))
        .render()
}

#[test]
fn compare_judges_regress_unresolved_and_ok() {
    let rate = END_TO_END[0];
    assert!(rate.higher_is_better);
    let steady: Vec<f64> = (0..10).map(|i| 1000.0 + f64::from(i)).collect();
    assert!(rate.bound < 0.4);
    // 40 % slower: a regression whatever the spread.
    let slower: Vec<f64> = steady.iter().map(|v| v * 0.6).collect();
    assert_eq!(judge(&rate, &steady, &slower).2, Verdict::Regress);
    // 50 % faster is not a regression.
    let faster: Vec<f64> = steady.iter().map(|v| v * 1.5).collect();
    assert_eq!(judge(&rate, &steady, &faster).2, Verdict::Ok);
    // Same median, but quartiles 40 % apart: cannot tell.
    let wild: Vec<f64> = (0..10).map(|i| 700.0 + 66.0 * f64::from(i)).collect();
    assert_eq!(judge(&rate, &steady, &wild).2, Verdict::Unresolved);
    // For a lower-is-better metric the direction flips.
    let op = END_TO_END[1];
    assert!(!op.higher_is_better);
    assert_eq!(judge(&op, &steady, &faster).2, Verdict::Regress);
    assert_eq!(judge(&op, &steady, &slower).2, Verdict::Ok);
}

/// Ten records of one workload; `shift` is added to the modelled latency
/// and `first_seed` numbers the runs.
fn uniform_set(first_seed: u64, shift: f64) -> String {
    (0..10)
        .map(|i| {
            let jitter = f64::from(i);
            let row = [
                2e6 + jitter,
                120.0,
                488.0 + jitter / 100.0 + shift,
                0.9,
                200.0,
            ];
            record("datapath_uniform", (first_seed + i as u64) as i64, row) + "\n"
        })
        .collect()
}

#[test]
fn compare_holds_modelled_metrics_to_the_bit() {
    let mut a = uniform_set(0, 0.0);
    // Lines that are not untraced run records are skipped.
    a.push_str("{\"note\": \"not a record\"}\n\n");
    let sa = parse_set(&a).unwrap();
    assert_eq!(sa["datapath_uniform"].len(), 10);
    let model = |b: &str| {
        compare(&sa, &parse_set(b).unwrap())
            .into_iter()
            .find(|r| r.metric.name == "model_latency_ns")
            .unwrap()
    };

    let same = compare(&sa, &parse_set(&uniform_set(0, 0.0)).unwrap());
    assert_eq!(same.len(), 5);
    assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
    assert_eq!(model(&uniform_set(0, 0.0)).identical, Some(true));

    // Same seeds, the modelled clock a billionth of a nanosecond worse:
    // far inside any bound on the medians, and still a regression.
    let worse = model(&uniform_set(0, 1e-9));
    assert!(worse.worse_by < 1e-10);
    assert_eq!(
        (worse.identical, worse.verdict),
        (Some(false), Verdict::Regress)
    );
    // Moved, but for the better: reported, not failed.
    let better = model(&uniform_set(0, -1e-9));
    assert_eq!(
        (better.identical, better.verdict),
        (Some(false), Verdict::Ok)
    );
    // No seed in common: nothing to pair, so the medians and the bound
    // decide.
    let other_seeds = model(&uniform_set(100, 1e-9));
    assert_eq!(
        (other_seeds.identical, other_seeds.verdict),
        (None, Verdict::Ok)
    );
    let far = model(&uniform_set(100, 488.0));
    assert_eq!(far.verdict, Verdict::Regress);

    assert!(parse_set("{oops").is_err());
}

#[test]
fn compare_exits_non_zero_on_a_regression() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write the set");
        path
    };
    let a = write("compare_a.jsonl", uniform_set(0, 0.0));
    let same = write("compare_same.jsonl", uniform_set(0, 0.0));
    let moved = write("compare_moved.jsonl", uniform_set(0, 1e-9));
    let run = |b: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_pipeleon-perf"))
            .arg("compare")
            .arg(&a)
            .arg(b)
            .output()
            .expect("pipeleon-perf runs")
    };
    let ok = run(&same);
    assert_eq!(ok.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("ok identical"));
    let bad = run(&moved);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("regress moved"));
}
