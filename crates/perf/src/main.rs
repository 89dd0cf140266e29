//! `pipeleon-perf`: run a workload, compare two sets of runs, or check
//! that a run repeats. See the crate's `README.md`.

#![forbid(unsafe_code)]

use pipeleon_perf::compare::{compare, parse_set, render, Verdict};
use pipeleon_perf::harness::{run, RunConfig, RunResult, WORKLOADS};
use pipeleon_perf::host::reexec_pinned;
use pipeleon_perf::selfcheck::selfcheck;
use pipeleon_perf::trace::{span_json, totals};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  pipeleon-perf run --workload <name> [--seed N] [--seconds N] [--trace 0|1]
                    [--smoke] [--out <records.jsonl>]
  pipeleon-perf compare <a.jsonl> <b.jsonl>
  pipeleon-perf selfcheck [--seed N]
workloads: serve_lb, datapath_skewed, datapath_uniform, control_loop";

struct RunArgs {
    cfg: RunConfig,
    out: Option<PathBuf>,
}

/// Strict flag parsing: an unknown or valueless flag is an error, not a
/// silently ignored typo.
fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        cfg: RunConfig {
            workload: String::new(),
            seed: 42,
            seconds: 20,
            trace: false,
            smoke: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.cfg.workload = value()?.to_string(),
            "--seed" => parsed.cfg.seed = number(value()?)?,
            "--seconds" => parsed.cfg.seconds = number(value()?)?,
            "--trace" => parsed.cfg.trace = number(value()?)? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.cfg.smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !WORKLOADS.contains(&parsed.cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=120).contains(&parsed.cfg.seconds) {
        return Err("--seconds must be between 1 and 120".to_string());
    }
    Ok(parsed)
}

/// Where traces go: under the build directory, which `.gitignore` names.
fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("perf")
}

fn write_trace(result: &RunResult) -> std::io::Result<PathBuf> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.jsonl", result.config.workload));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for span in &result.spans {
        writeln!(file, "{}", span_json(span).render())?;
    }
    file.flush()?;
    Ok(path)
}

fn report(result: &RunResult, out: Option<&PathBuf>) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut o = stdout.lock();
    let cfg = &result.config;
    writeln!(
        o,
        "# {} seed={} seconds={} trace={} reps={} host={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        result.reps,
        result.host.to_json().render()
    )?;
    for m in &result.metrics.0 {
        writeln!(o, "{:<40} {:>18} {}", m.name, m.value, m.unit)?;
    }
    if cfg.trace {
        let path = write_trace(result)?;
        writeln!(o, "# {} spans -> {}", result.spans.len(), path.display())?;
        writeln!(
            o,
            "# span                               calls     total_us      self_us        work"
        )?;
        for (name, calls, total, own, work) in totals(&result.spans) {
            writeln!(
                o,
                "# {name:<32} {calls:>7} {:>12.1} {:>12.1} {work:>11}",
                total as f64 / 1e3,
                own as f64 / 1e3
            )?;
        }
    }
    if let Some(path) = out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", result.record_json().render())?;
    }
    writeln!(o, "{}", result.result_json().render())?;
    o.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |msg: String| {
        eprintln!("pipeleon-perf: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("run") => {
            let parsed = match parse_run(&args[1..]) {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            // Smoke runs check plumbing, not speed: they stay in-process.
            if !parsed.cfg.smoke {
                if let Some(code) = reexec_pinned(&args) {
                    return ExitCode::from(u8::try_from(code).unwrap_or(1));
                }
            }
            let result = match run(&parsed.cfg) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            match report(&result, parsed.out.as_ref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pipeleon-perf: writing the report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail("compare takes two files".to_string());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| parse_set(&t).map_err(|e| format!("{p}: {e}")))
            };
            let (sa, sb) = match (read(a), read(b)) {
                (Ok(sa), Ok(sb)) => (sa, sb),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let rows = compare(&sa, &sb);
            print!("{}", render(&rows));
            if rows.is_empty() {
                return fail("the two files share no workload".to_string());
            }
            if rows.iter().any(|r| r.verdict == Verdict::Regress) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("selfcheck") => {
            let seed = match args.as_slice() {
                [_] => 42,
                [_, flag, v] if flag == "--seed" && v.parse::<u64>().is_ok() => {
                    v.parse().expect("checked")
                }
                _ => return fail("selfcheck takes only --seed N".to_string()),
            };
            let (lines, ok) = selfcheck(seed);
            for l in lines {
                println!("{l}");
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        // What `reexec_pinned` starts under `taskset` first, to learn
        // whether pinning works here at all.
        Some("pin-probe") => ExitCode::SUCCESS,
        _ => fail("expected run, compare or selfcheck".to_string()),
    }
}
