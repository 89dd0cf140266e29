//! The run: six cold set-ups, a fixed number of reps of fixed work, the
//! correctness check, and the metrics read off them.

use crate::host::{peak_rss_mb, HostInfo};
use crate::hostprobe;
use crate::json::Value;
use crate::layers;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{control_loop, datapath_skewed, datapath_uniform, serve_lb};
use pipeleon_cost::CostParams;
use pipeleon_ir::ProgramGraph;
use pipeleon_sim::Packet;
use std::time::Instant;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve_lb",
    "datapath_skewed",
    "datapath_uniform",
    "control_loop",
];

/// Cold set-ups per run; `setup_s` charges each stage of the set-up at
/// the fastest of them (see [`quiet_setup_s`]).
pub const SETUPS: usize = 6;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Modelled, not timed: two runs with the same arguments must agree
    /// to the bit.
    pub exact: bool,
}

/// The five end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "pkts_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "model_latency_ns",
        unit: "ns/pkt",
        higher_is_better: false,
        bound: 0.03,
        exact: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
        exact: false,
    },
];

/// What `run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed phase is sized to measure: it does this many
    /// seconds' worth of reps at the rate the workload was sized for,
    /// whatever the clock says, so the work is set by the arguments.
    pub seconds: u64,
    /// Traced run: per-module metrics and spans instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Smoke size: a few reps of small inputs (tests and `selfcheck`).
    pub smoke: bool,
}

/// How much work a run does, derived from the [`RunConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Timed reps: a whole number of pairs of cycles.
    pub reps: u64,
    /// Reps after which the workload has visited each of its items
    /// once.
    pub cycle: u64,
    /// Cold set-ups.
    pub setups: usize,
    /// Smoke-sized inputs.
    pub smoke: bool,
}

impl Sizes {
    /// Sizes for `cfg`, given how many reps of the workload fill one
    /// second on the host the workload was sized on and how many reps
    /// make one cycle through its items.
    pub fn of(cfg: &RunConfig, reps_per_second: u64, cycle: u64) -> Sizes {
        let pair = 2 * cycle;
        if cfg.smoke {
            return Sizes {
                reps: 2 * pair,
                cycle,
                setups: 2,
                smoke: true,
            };
        }
        let full = cfg.seconds.max(1) * reps_per_second;
        // The traced run does a fifth of the reps, half of them with
        // spans recorded and half without, to price the recording.
        let asked = if cfg.trace { full / 5 } else { full };
        Sizes {
            reps: asked.div_ceil(pair).max(1) * pair,
            cycle,
            setups: SETUPS,
            smoke: false,
        }
    }
}

/// What one rep measured, beyond the samples it pushed. Restoring
/// inputs and checking outputs happen outside every timer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rep {
    /// Packets offered.
    pub packets: u64,
    /// Packets lost, timed out, or answered differently from the oracle.
    pub failed: u64,
    /// Sum of the emulator's accounted latency over those packets.
    pub model_latency_sum_ns: f64,
    /// Ops completed (an op may be timed as several calls).
    pub ops: u64,
}

/// One timed call. A workload's timed phase visits a small fixed set of
/// *items* (a window of the trace, a burst, a chunk of the replay, a
/// step of the control phase) over and over; the same item always does
/// the same work, so its visits differ only by what the host did to
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Which item of the workload this call was.
    pub item: u32,
    /// Which kind of call it was (a window, a tick, an entry op): items
    /// of one kind are taken to be slowed alike by a busy host.
    pub kind: u8,
    /// Packets the call covered (0 for a pure control-plane step).
    pub packets: u32,
    /// Host time inside the call.
    pub ns: u64,
    /// The slower of the two readings of the host-speed probe taken
    /// right before and right after the call ([`crate::hostprobe`]);
    /// 0 where the workload cannot take one.
    pub probe_ns: u64,
}

/// The timed calls of a run: those the rate is taken over, and the
/// workload's ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples {
    /// Calls whose time counts towards packets per second.
    pub rate: Vec<Sample>,
    /// The calls the ops are made of (for most workloads the same calls
    /// again, one per op).
    pub op: Vec<Sample>,
}

/// A probe reading within this share of the probe's floor says the host
/// left the CPU alone.
pub const CALM_WITHIN: f64 = 0.2;

/// The visits of one item.
struct Item {
    kind: u8,
    packets: u64,
    /// Time and probe reading of each visit.
    visits: Vec<(f64, u64)>,
}

fn by_item(samples: &[Sample]) -> Vec<Item> {
    let mut slots: Vec<Option<Item>> = Vec::new();
    for s in samples {
        let at = s.item as usize;
        if slots.len() <= at {
            slots.resize_with(at + 1, || None);
        }
        let item = slots[at].get_or_insert_with(|| Item {
            kind: s.kind,
            packets: 0,
            visits: Vec::new(),
        });
        item.packets += u64::from(s.packets);
        item.visits.push((s.ns as f64, s.probe_ns));
    }
    slots.into_iter().flatten().collect()
}

/// Each item's *quiet time*: what a visit takes when the host leaves
/// the CPU alone.
///
/// With a probe floor, a visit is *calm* when the probe read within
/// [`CALM_WITHIN`] of the floor both before and after it, and an item's
/// quiet time is the median of its calm visits. An item that had none
/// is charged at the median of all its visits, divided by how much
/// slower than their calm visits the other visits of the items of its
/// kind were in this run (ratio of sums, so long items weigh as they do
/// in the total). Without a floor, or in a run with no calm visit at
/// all, it is the low quantile of the item's visits
/// ([`stats::quiet_low`]).
fn quiet_times(items: &[Item], floor: Option<u64>) -> Vec<f64> {
    let times = |item: &Item| item.visits.iter().map(|v| v.0).collect::<Vec<f64>>();
    let low = || items.iter().map(|i| stats::quiet_low(&times(i))).collect();
    let Some(floor) = floor else {
        return low();
    };
    let limit = floor as f64 * (1.0 + CALM_WITHIN);
    // Per item, the median of its calm visits and of its other visits.
    let median_of = |item: &Item, calm: bool| {
        let t: Vec<f64> = item
            .visits
            .iter()
            .filter(|v| (v.1 > 0 && v.1 as f64 <= limit) == calm)
            .map(|v| v.0)
            .collect();
        (!t.is_empty()).then(|| stats::median(&t))
    };
    let halves: Vec<(Option<f64>, Option<f64>)> = items
        .iter()
        .map(|i| (median_of(i, true), median_of(i, false)))
        .collect();
    if halves.iter().all(|h| h.0.is_none()) {
        return low();
    }
    // How much slower than calm the other visits were, over the items
    // of `kind` (of any kind, if `None`) that had both.
    let slowdown = |kind: Option<u8>| {
        let (busy, calm) = items
            .iter()
            .zip(&halves)
            .filter(|(i, _)| kind.is_none_or(|k| i.kind == k))
            .filter_map(|(_, h)| h.0.zip(h.1))
            .fold((0.0, 0.0), |(b, c), (calm, busy)| (b + busy, c + calm));
        (calm > 0.0).then(|| (busy / calm).max(1.0))
    };
    items
        .iter()
        .zip(&halves)
        .map(|(item, h)| {
            h.0.unwrap_or_else(|| {
                let by = slowdown(Some(item.kind)).or_else(|| slowdown(None));
                stats::median(&times(item)) / by.unwrap_or(1.0)
            })
        })
        .collect()
}

/// The run's time with the disturbance taken out: every visit of every
/// item charged at that item's quiet time. All of the work counts.
fn quiet_total_ns(items: &[Item], floor: Option<u64>) -> f64 {
    items
        .iter()
        .zip(quiet_times(items, floor))
        .map(|(item, q)| item.visits.len() as f64 * q)
        .sum()
}

/// Quiet-rep packet rate: all packets over the run's quiet time.
/// `floor` is the probe's ([`hostprobe::floor_ns`]), if any reading was taken.
pub fn quiet_rate(samples: &[Sample], floor: Option<u64>) -> f64 {
    let items = by_item(samples);
    let packets: u64 = items.iter().map(|i| i.packets).sum();
    let ns = quiet_total_ns(&items, floor);
    if ns == 0.0 {
        0.0
    } else {
        packets as f64 * 1e9 / ns
    }
}

/// Quiet-rep op time in ns: the quiet time of the calls the ops are
/// made of, over the number of ops — the typical op with the
/// disturbance taken out. (Not the median over ops: `control_loop`'s
/// ops come in clusters a search apart, and the median of such a set
/// jumps from one cluster to the next on noise.)
pub fn quiet_op_ns(samples: &[Sample], ops: u64, floor: Option<u64>) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    quiet_total_ns(&by_item(samples), floor) / ops as f64
}

/// Stage clock of one set-up. A set-up is the same work every time, so
/// its stages line up across the run's set-ups, and `setup_s` charges
/// each stage at the fastest it ran: a stage needs to have been left
/// alone in one set-up, not the whole set-up in one piece.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    ns: Vec<u64>,
}

impl Laps {
    fn start() -> Laps {
        Laps {
            last: Instant::now(),
            ns: Vec::new(),
        }
    }

    /// Ends the current stage.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.ns.push(
            u64::try_from(now.saturating_duration_since(self.last).as_nanos()).unwrap_or(u64::MAX),
        );
        self.last = now;
    }

    /// Restarts the stage clock without recording a stage: what ran
    /// since the last lap was the harness's own work, not the set-up's.
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }
}

/// Set-up time in seconds from the stage times of several set-ups: the
/// sum over stages of each stage's minimum. Falls back to the fastest
/// whole set-up if the stages do not line up.
pub fn quiet_setup_s(setups: &[Vec<u64>]) -> f64 {
    let stages = setups.first().map_or(0, Vec::len);
    let ns: u64 = if setups.iter().all(|s| s.len() == stages) {
        (0..stages)
            .map(|i| setups.iter().map(|s| s[i]).min().unwrap_or(0))
            .sum()
    } else {
        setups.iter().map(|s| s.iter().sum()).min().unwrap_or(0)
    };
    ns as f64 / 1e9
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether the value must repeat to the bit between two runs with
    /// the same arguments (counts and modelled numbers).
    pub exact: bool,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a wall-clock metric.
    pub fn timed(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, false);
    }

    /// Adds a metric that must repeat exactly.
    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, true);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, exact: bool) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            exact,
        });
    }

    /// Value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A workload: a cold set-up, a rep of fixed work, a correctness check
/// and — for the traced run — the metrics of the layers only it drives.
pub trait Workload: Sized {
    /// Reps that fill one second on the host the workload was sized on.
    const REPS_PER_SECOND: u64;

    /// Reps after which every item has been visited once.
    fn cycle(smoke: bool) -> u64;

    /// One complete cold set-up: program, tables, NIC or controller or
    /// sockets, generated traffic, warm-up, profile window and
    /// specialization where the workload uses them.
    /// Calls `laps.lap()` at the end of each stage (and of each slice of
    /// the warm-up), the same number of times on every call.
    fn setup(seed: u64, sizes: Sizes, epoch: Instant, laps: &mut Laps) -> Self;

    /// One rep of fixed work.
    fn rep(&mut self, rep: u64, tr: &mut Tracer, out: &mut Samples) -> Rep;

    /// Checks the outputs against the oracle, outside every timer.
    /// Returns the number of packets found wrong.
    fn check(&mut self) -> u64;

    /// Program, traffic and target the generic layer probes run on.
    fn probe_input(&self) -> (ProgramGraph, Vec<Packet>, CostParams);

    /// Metrics of the layers this workload drives, from its own
    /// counters (traced run only).
    fn layers(&mut self, m: &mut Metrics);

    /// Stops whatever the set-up started and hands back the spans other
    /// threads recorded.
    fn finish(self) -> Vec<Span>;
}

/// Everything a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// What was asked.
    pub config: RunConfig,
    /// Where it ran.
    pub host: HostInfo,
    /// Timed reps done.
    pub reps: u64,
    /// Whether every output matched the oracle.
    pub correct: bool,
    /// Packets offered in the timed phase.
    pub attempted: u64,
    /// Packets lost, timed out or wrong.
    pub failed: u64,
    /// The metrics of this run: end-to-end when untraced, per-module
    /// when traced.
    pub metrics: Metrics,
    /// The merged trace (traced run only).
    pub spans: Vec<Span>,
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics.0 {
            metrics = metrics.with(
                &m.name,
                Value::obj()
                    .with("value", Value::Num(m.value))
                    .with("unit", Value::Str(m.unit.to_string())),
            );
        }
        Value::obj()
            .with("correct", Value::Bool(self.correct))
            .with("attempted", Value::Int(self.attempted as i64))
            .with("failed", Value::Int(self.failed as i64))
            .with("metrics", metrics)
    }

    /// The full run record `compare` reads: the result plus workload,
    /// seed, reps and host.
    pub fn record_json(&self) -> Value {
        Value::obj()
            .with("workload", Value::Str(self.config.workload.clone()))
            .with("seed", Value::Int(self.config.seed as i64))
            .with("seconds", Value::Int(self.config.seconds as i64))
            .with("trace", Value::Bool(self.config.trace))
            .with("reps", Value::Int(self.reps as i64))
            .with("host", self.host.to_json())
            .with("result", self.result_json())
    }
}

/// Runs the workload `cfg` names.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "serve_lb" => Ok(run_workload::<serve_lb::ServeLb>(cfg)),
        "datapath_skewed" => Ok(run_workload::<datapath_skewed::Skewed>(cfg)),
        "datapath_uniform" => Ok(run_workload::<datapath_uniform::Uniform>(cfg)),
        "control_loop" => Ok(run_workload::<control_loop::ControlLoop>(cfg)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn run_workload<W: Workload>(cfg: &RunConfig) -> RunResult {
    let epoch = Instant::now();
    let sizes = Sizes::of(cfg, W::REPS_PER_SECOND, W::cycle(cfg.smoke));
    let mut tr = Tracer::new(epoch, 0, false);

    // Cold set-ups. Each is complete and independent, and torn down
    // before the next is timed. Half run before the timed phase — the
    // last of those is the one it uses — and half after it, half a
    // minute later, so one bad stretch of the host cannot slow them all.
    let mut setup_laps: Vec<Vec<u64>> = Vec::with_capacity(sizes.setups);
    let timed_setup = |laps_of: &mut Vec<Vec<u64>>| {
        let mut laps = Laps::start();
        let state = W::setup(cfg.seed, sizes, epoch, &mut laps);
        laps.lap();
        laps_of.push(laps.ns);
        state
    };
    let before = sizes.setups.div_ceil(2);
    let mut w = timed_setup(&mut setup_laps);
    for _ in 1..before {
        w.finish();
        w = timed_setup(&mut setup_laps);
    }

    // Timed phase: a fixed number of reps of fixed work, whatever the
    // clock says, so every count and every modelled number repeats. The
    // traced run records spans on every other rep, and on the other
    // half of the reps in the next cycle through the items, so every item
    // is visited as often with the recording as without and the same run
    // prices the recording; the two kinds of sample are kept apart for
    // that.
    let mut samples = [Samples::default(), Samples::default()];
    let mut reps: Vec<Rep> = Vec::with_capacity(sizes.reps as usize);
    let mut rates: Vec<f64> = Vec::with_capacity(sizes.reps as usize);
    for i in 0..sizes.reps {
        // Position in the cycle plus cycle number: neighbouring reps
        // alternate, and an item recorded in one cycle is not in the next.
        let half = ((i % sizes.cycle + i / sizes.cycle) % 2) as usize;
        tr.set_enabled(cfg.trace && half == 0);
        let out = &mut samples[half];
        let from = out.rate.len();
        let t0 = Instant::now();
        let r = w.rep(i, &mut tr, out);
        tr.record("bench.rep", i, r.packets, t0, Instant::now());
        let (pk, ns) = out.rate[from..].iter().fold((0u64, 0u64), |(p, n), s| {
            (p + u64::from(s.packets), n + s.ns)
        });
        rates.push(if ns == 0 {
            0.0
        } else {
            pk as f64 * 1e9 / ns as f64
        });
        reps.push(r);
    }
    tr.set_enabled(false);

    let wrong = w.check();
    let attempted: u64 = reps.iter().map(|r| r.packets).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + wrong;
    let model_sum: f64 = reps.iter().map(|r| r.model_latency_sum_ns).sum();
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    let [recorded, unrecorded] = samples;
    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    let host = HostInfo::read();
    if cfg.trace {
        let (graph, traffic, params) = w.probe_input();
        w.layers(&mut metrics);
        // The probes run with every helper thread stopped.
        let other = w.finish();
        layers::probe(
            &graph,
            &traffic,
            &params,
            sizes.smoke,
            &mut tr,
            &mut metrics,
        );
        let floor = hostprobe::floor_ns();
        let (q_un, q_tr) = (
            quiet_rate(&unrecorded.rate, floor),
            quiet_rate(&recorded.rate, floor),
        );
        let overhead = if q_tr > 0.0 {
            100.0 * (q_un / q_tr - 1.0)
        } else {
            0.0
        };
        metrics.timed("bench.rep_rate_p50", stats::median(&rates), "1/s");
        metrics.timed("bench.rep_rate_iqr_pct", stats::iqr_pct(&rates), "%");
        metrics.timed(
            "bench.disturbed_share",
            stats::disturbed_share(&rates),
            "share",
        );
        metrics.timed("bench.trace_overhead_pct", overhead, "%");
        metrics.exact("bench.pinned", if host.pinned { 1.0 } else { 0.0 }, "bool");
        layers::fill_absent(&mut metrics);
        spans = trace::merge(vec![tr.take(), other]);
    } else {
        w.finish();
        for _ in before..sizes.setups {
            timed_setup(&mut setup_laps).finish();
        }
        let mut all = recorded;
        all.rate.extend(unrecorded.rate);
        all.op.extend(unrecorded.op);
        let floor = hostprobe::floor_ns();
        let values = [
            quiet_rate(&all.rate, floor),
            quiet_op_ns(&all.op, ops, floor) / 1e3,
            model_sum / attempted.max(1) as f64,
            quiet_setup_s(&setup_laps),
            peak_rss_mb(),
        ];
        for (e, v) in END_TO_END.iter().zip(values) {
            metrics.push(e.name, v, e.unit, e.exact);
        }
    }
    RunResult {
        config: cfg.clone(),
        host,
        reps: sizes.reps,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        spans,
    }
}
