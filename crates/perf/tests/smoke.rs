//! Smoke-size runs of all four workloads, traced and untraced, checked
//! against `BENCHMARK.json`.

use pipeleon_perf::harness::{run, RunConfig, END_TO_END, WORKLOADS};
use pipeleon_perf::layers::PER_LAYER;
use pipeleon_perf::selfcheck::differences;
use serde::Deserialize;
use std::collections::BTreeMap;

/// `BENCHMARK.json`, as its contract lays it out.
#[derive(Deserialize)]
struct Bench {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<BenchWorkload>,
    end_to_end: Vec<BenchMetric>,
    per_layer: Vec<BenchMetric>,
}

#[derive(Deserialize)]
struct BenchWorkload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct BenchMetric {
    name: String,
    unit: String,
    better: String,
    /// End-to-end metrics only.
    bound: Option<f64>,
}

/// The last line of a run.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ResultMetric>,
}

#[derive(Deserialize)]
struct ResultMetric {
    value: f64,
    unit: String,
}

/// A run record, as far as its presence is checked.
#[derive(Deserialize)]
struct Record {
    workload: String,
    seed: u64,
    reps: u64,
    host: RecordHost,
    result: ResultLine,
}

#[derive(Deserialize)]
struct RecordHost {
    cpus_online: u64,
    cpus_allowed: String,
    pinned: bool,
    kernel: String,
    rustc: String,
    commit: String,
}

fn benchmark_json() -> Bench {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json has the contract's shape")
}

fn smoke(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 42,
        seconds: 1,
        trace,
        smoke: true,
    }
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn declared(list: &[BenchMetric]) -> Vec<(String, String)> {
    list.iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_code() {
    let bench = benchmark_json();
    assert!(!bench.command.is_empty() && bench.command.len() <= 32);
    assert_eq!(bench.paths, ["crates/perf"]);
    assert!((1..=60).contains(&bench.run_seconds));
    let workloads: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
    for w in &bench.workloads {
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    assert_eq!(bench.end_to_end.len(), END_TO_END.len());
    for (json, code) in bench.end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(
            (json.name.as_str(), json.unit.as_str()),
            (code.name, code.unit)
        );
        let better = if code.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(json.better, better, "{}", code.name);
        assert_eq!(json.bound, Some(code.bound), "{}", code.name);
        assert!(code.bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));

    let per_layer = declared(&bench.per_layer);
    let in_code: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(per_layer, in_code);
    for (json, (name, _, higher)) in bench.per_layer.iter().zip(PER_LAYER) {
        let better = if higher { "higher" } else { "lower" };
        assert_eq!(json.better, better, "{name}");
        assert_eq!(json.bound, None, "{name}");
    }
    for (name, unit) in per_layer.iter().chain(&declared(&bench.end_to_end)) {
        assert!(valid_name(name), "{name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
}

#[test]
fn every_workload_runs_untraced_and_reports_the_end_to_end_metrics() {
    let bench = benchmark_json();
    let want = declared(&bench.end_to_end);
    for workload in WORKLOADS {
        let result = run(&smoke(workload, false)).expect("known workload");
        assert!(result.correct, "{workload}: outputs differ from the oracle");
        assert_eq!(result.failed, 0, "{workload}");
        assert!(result.attempted >= 1, "{workload}");
        assert!(result.spans.is_empty());

        // The last line of a run is this object, on one line, with the
        // declared metrics in the declared order.
        let line = result.result_json().render();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        let back: ResultLine = serde_json::from_str(&line).expect("result line is JSON");
        assert!(back.correct && back.failed == 0 && back.attempted == result.attempted);
        let got: Vec<(String, String)> = result
            .metrics
            .0
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, want, "{workload}");
        assert_eq!(back.metrics.len(), want.len());
        for (name, unit) in &want {
            let m = &back.metrics[name];
            assert_eq!(&m.unit, unit);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload} {name} = {}",
                m.value
            );
            assert_eq!(
                Some(m.value),
                result.metrics.get(name),
                "every digit of {name}"
            );
        }

        // The record `compare` reads carries the run's arguments and host.
        let record: Record =
            serde_json::from_str(&result.record_json().render()).expect("record is JSON");
        assert_eq!(
            (record.workload.as_str(), record.seed, record.reps),
            (workload, 42, result.reps)
        );
        assert_eq!(record.result.attempted, result.attempted);
        let host = record.host;
        assert!(host.cpus_online >= 1 && !host.cpus_allowed.is_empty());
        assert_eq!(host.pinned, result.host.pinned);
        assert!(![host.kernel, host.rustc, host.commit]
            .iter()
            .any(String::is_empty));
    }
}

#[test]
fn every_workload_runs_traced_and_reports_the_per_module_metrics() {
    let bench = benchmark_json();
    let want = declared(&bench.per_layer);
    for workload in WORKLOADS {
        let result = run(&smoke(workload, true)).expect("known workload");
        assert!(result.correct && result.failed == 0, "{workload}");
        let got: Vec<(String, String)> = result
            .metrics
            .0
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{workload} {} = {}", m.name, m.value);
                (m.name.clone(), m.unit.to_string())
            })
            .collect();
        assert_eq!(got, want, "{workload}");

        // Spans: a rep span on every other cycle of reps, layer calls
        // inside them.
        let reps: Vec<_> = result
            .spans
            .iter()
            .filter(|s| s.name == "bench.rep")
            .collect();
        assert_eq!(reps.len() as u64, result.reps / 2, "{workload}");
        assert!(
            result.spans.iter().any(|s| s.parent.is_some()),
            "{workload}"
        );
        for s in &result.spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let p = &result.spans[p];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
    }
    // The layers only one workload drives are measured there.
    let serve = run(&smoke("serve_lb", true)).unwrap();
    assert!(serve.metrics.get("net.ingest.poll_ns_per_pkt").unwrap() > 0.0);
    assert!(serve.metrics.get("net.ingest.burst_mean").unwrap() >= 1.0);
    assert_eq!(serve.metrics.get("net.ingest.dropped"), Some(0.0));
    assert!(serve
        .spans
        .iter()
        .any(|s| s.name == "net.ingest.poll_once" && s.thread == 1));
    let control = run(&smoke("control_loop", true)).unwrap();
    assert!(
        control
            .metrics
            .get("runtime.controller.reoptimizations")
            .unwrap()
            > 0.0
    );
    assert_eq!(
        control.metrics.get("runtime.controller.rollbacks"),
        Some(0.0)
    );
}

#[test]
fn a_fixed_work_run_repeats_to_the_bit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = smoke(workload, trace);
            let (a, b) = (run(&cfg).unwrap(), run(&cfg).unwrap());
            assert_eq!(differences(&a, &b), Vec::<String>::new());
        }
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run(&smoke("nope", false)).is_err());
}
