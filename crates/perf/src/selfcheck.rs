//! `selfcheck`: a fixed-work run must repeat.
//!
//! Runs every workload twice at smoke size, untraced and traced, with
//! the same arguments, and requires every exact quantity — packets
//! attempted and failed, the modelled latency, every count — to agree to
//! the bit. If it does not, "fixed work" is not fixed and no comparison
//! of counts between two commits means anything.

use crate::harness::{run, RunConfig, RunResult, WORKLOADS};

/// Differences between two runs that should have been identical, one
/// line each.
pub fn differences(a: &RunResult, b: &RunResult) -> Vec<String> {
    let mut out = Vec::new();
    let what = format!("{} trace={}", a.config.workload, u8::from(a.config.trace));
    if a.attempted != b.attempted {
        out.push(format!(
            "{what}: attempted {} vs {}",
            a.attempted, b.attempted
        ));
    }
    if a.failed != b.failed {
        out.push(format!("{what}: failed {} vs {}", a.failed, b.failed));
    }
    for m in a.metrics.0.iter().filter(|m| m.exact) {
        match b.metrics.get(&m.name) {
            Some(v) if v.to_bits() == m.value.to_bits() => {}
            Some(v) => out.push(format!("{what}: {} {} vs {}", m.name, m.value, v)),
            None => out.push(format!("{what}: {} missing from the second run", m.name)),
        }
    }
    out
}

/// Runs the check; returns the report lines and whether it passed.
pub fn selfcheck(seed: u64) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: workload.to_string(),
                seed,
                seconds: 1,
                trace,
                smoke: true,
            };
            let (a, b) = match (run(&cfg), run(&cfg)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    lines.push(format!("{workload}: {e}"));
                    ok = false;
                    continue;
                }
            };
            let mut diffs = differences(&a, &b);
            if !(a.correct && b.correct) {
                diffs.push(format!("{workload}: outputs differ from the oracle"));
            }
            let exact = a.metrics.0.iter().filter(|m| m.exact).count() + 2;
            if diffs.is_empty() {
                lines.push(format!(
                    "{workload} trace={}: {exact} exact quantities identical",
                    u8::from(trace)
                ));
            } else {
                ok = false;
                lines.extend(diffs);
            }
        }
    }
    (lines, ok)
}
