//! `compare <a.jsonl> <b.jsonl>`: is set B worse than set A?
//!
//! Each file holds run records (one JSON object per line, as `run --out`
//! appends them). For every workload and end-to-end metric the report
//! gives both sets' median and quartiles, the relative difference, the
//! bound, and a verdict:
//!
//! * `regress` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, but either set's quartiles lie further
//!   apart than the bound, so "no change" cannot be told from noise;
//! * `ok` — otherwise.
//!
//! A modelled metric repeats to the bit for a seed, so where the two
//! sets share seeds its bound is zero: it is compared bit for bit
//! between runs of the same seed, the report says `identical` or
//! `moved`, and any pair where B is worse is a `regress`. Only sets that
//! share no seed fall back to the medians and the metric's bound, which
//! then covers what the seed itself moves.

use crate::harness::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::quartiles_exclusive;
use serde::Deserialize;
use std::collections::BTreeMap;

/// A run record as `run --out` writes it, as far as `compare` reads it.
/// Fields a line lacks stay `None`, which is how lines that are not run
/// records are told from malformed ones.
#[derive(Deserialize)]
struct Record {
    workload: Option<String>,
    seed: Option<u64>,
    trace: Option<bool>,
    result: Option<RecordResult>,
}

#[derive(Deserialize)]
struct RecordResult {
    #[serde(default)]
    metrics: BTreeMap<String, RecordMetric>,
}

#[derive(Deserialize)]
struct RecordMetric {
    /// `null` where the run wrote a non-finite number.
    value: Option<f64>,
}

/// The untraced records of one workload: `(seed, metric name → value)`.
pub type Runs = Vec<(u64, BTreeMap<String, f64>)>;

/// One set of runs, per workload.
pub type RunSet = BTreeMap<String, Runs>;

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regress,
    /// Not worse by more than the bound, but the spread is wider than it.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regress => "regress",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Parses a JSONL file of run records. Traced records and lines that
/// are not run records are skipped; a malformed line is an error.
pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: Record =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let (Some(workload), Some(result)) = (record.workload, record.result) else {
            continue;
        };
        if record.trace == Some(true) {
            continue;
        }
        let seed = record.seed.unwrap_or(0);
        let metrics = result
            .metrics
            .into_iter()
            .filter_map(|(name, m)| Some((name, m.value?)))
            .collect();
        set.entry(workload).or_default().push((seed, metrics));
    }
    Ok(set)
}

/// One row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: EndToEnd,
    /// `(q1, median, q3)` of set A.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of set B.
    pub b: (f64, f64, f64),
    /// How much worse B's median is than A's, as a share of A's median
    /// (negative = better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile distances, as a share of its
    /// median.
    pub spread: f64,
    /// For modelled metrics: whether every same-seed pair agrees to the
    /// bit (`None` for timed metrics or when no seeds are shared). When
    /// it is `Some`, the verdict rests on the pairs, not on the medians.
    pub identical: Option<bool>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from both sets' values.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (qa, qb) = (quartiles_exclusive(a), quartiles_exclusive(b));
    let worse_by = if qa.1 == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (qa.1 - qb.1) / qa.1
    } else {
        (qb.1 - qa.1) / qa.1
    };
    let share = |q: (f64, f64, f64)| if q.1 == 0.0 { 0.0 } else { (q.2 - q.0) / q.1 };
    let spread = share(qa).max(share(qb));
    let verdict = if worse_by > metric.bound {
        Verdict::Regress
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// Compares two sets, workload by workload and metric by metric.
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for metric in &END_TO_END {
            let values = |runs: &Runs| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(_, m)| m.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, spread, mut verdict) = judge(metric, &va, &vb);
            let pairs = metric
                .exact
                .then(|| same_seed_pairs(ra, rb, metric))
                .flatten();
            if let Some(pairs) = pairs {
                verdict = if pairs.worse {
                    Verdict::Regress
                } else {
                    Verdict::Ok
                };
            }
            rows.push(Row {
                workload: workload.to_string(),
                metric: *metric,
                a: quartiles_exclusive(&va),
                b: quartiles_exclusive(&vb),
                worse_by,
                spread,
                identical: pairs.map(|p| p.identical),
                verdict,
            });
        }
    }
    rows
}

/// What the same-seed pairs of two sets say about a modelled metric.
#[derive(Debug, Clone, Copy)]
struct Pairs {
    /// Every pair agrees to the bit.
    identical: bool,
    /// Some pair differs and B's value is the worse one.
    worse: bool,
}

/// Compares every run of B with the runs of A that had the same seed;
/// `None` when the sets share no seed.
fn same_seed_pairs(a: &Runs, b: &Runs, metric: &EndToEnd) -> Option<Pairs> {
    let mut pairs: Option<Pairs> = None;
    for (seed, mb) in b {
        for (_, ma) in a.iter().filter(|(s, _)| s == seed) {
            if let (Some(&x), Some(&y)) = (ma.get(metric.name), mb.get(metric.name)) {
                let p = pairs.get_or_insert(Pairs {
                    identical: true,
                    worse: false,
                });
                p.identical &= x.to_bits() == y.to_bits();
                p.worse |= if metric.higher_is_better {
                    y < x
                } else {
                    y > x
                };
            }
        }
    }
    pairs
}

/// The report as text, one row per workload × metric.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "workload          metric            A q1/median/q3                   B q1/median/q3                   worse_by  spread  bound  verdict\n",
    );
    for r in rows {
        let q = |(q1, m, q3): (f64, f64, f64)| format!("{q1:.4}/{m:.4}/{q3:.4}");
        let note = match r.identical {
            Some(true) => " identical",
            Some(false) => " moved",
            None => "",
        };
        // Same-seed pairs of a modelled metric are held to the bit.
        let bound = if r.identical.is_some() {
            0.0
        } else {
            r.metric.bound
        };
        out.push_str(&format!(
            "{:<17} {:<17} {:<32} {:<32} {:>+7.2}%  {:>5.2}%  {:>4.1}%  {}{}\n",
            r.workload,
            r.metric.name,
            q(r.a),
            q(r.b),
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * bound,
            r.verdict.as_str(),
            note,
        ));
    }
    out
}
