//! The paper's evaluation (§5 and Appendix A) as data.
//!
//! Each figure is a set of functions returning [`Table`]s: the rows the
//! paper plots, measured on the software emulator or computed with the
//! cost model. `benches/figures.rs` prints them as tab-separated rows
//! (comment lines start with `#`), and `tests/paper_claims.rs` in the
//! umbrella crate asserts their shapes. Absolute numbers come from the
//! emulator, so only the *shape* — orderings, ratios, crossovers — is
//! expected to match the paper; see `EXPERIMENTS.md`.

pub mod ext;
pub mod fig02;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig18_19;

use pipeleon::hotspot::score_pipelets;
use pipeleon::pipelet::partition;
use pipeleon::plan::{Candidate, GlobalPlan, Segment, SegmentKind};
use pipeleon::{apply_plan, AppliedPlan, Optimizer, OptimizerConfig};
use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::{
    FieldRef, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget, TickReport};
use pipeleon_sim::{BatchStats, Packet, SmartNic};
use pipeleon_workloads::profiles::{entropy, random_profile, ProfileSynthConfig};
use std::fmt;

/// A figure: its id and the functions computing its tables, in print
/// order.
pub type Figure = (&'static str, &'static [fn() -> Table]);

/// Every figure, in paper order, at the paper's sizes.
pub const FIGURES: &[Figure] = &[
    ("fig02", &[fig02::dynamic_vs_static]),
    ("fig05", &[fig05::validation]),
    (
        "fig09",
        &[fig09::reordering, fig09::caching, fig09::merging],
    ),
    ("fig10", &[fig10::synthesized]),
    (
        "fig11",
        &[
            fig11::load_balancer,
            fig11::dash_routing,
            fig11::nf_composition,
        ],
    ),
    (
        "fig12",
        &[|| fig12::counter_overhead(20_000), fig12::sampled_overhead],
    ),
    ("fig13", &[|| fig13::search_times(100)]),
    ("fig14", &[fig14::topk_quality]),
    ("fig15", &[fig15::mean_reduction, fig15::reduction_cdf]),
    ("fig17", &[fig17::migration_latency, fig17::software_share]),
    (
        "fig18_19",
        &[fig18_19::distributions, fig18_19::esearch_gains],
    ),
    ("ext", &[ext::incremental]),
];

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label, printed as is.
    Text(String),
    /// A count or an index, printed as an integer.
    Int(u64),
    /// A measurement, printed with three decimals.
    Num(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => out.write_str(s),
            Cell::Int(v) => write!(out, "{v}"),
            Cell::Num(v) => write!(out, "{v:.3}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

/// Builds a table row from values convertible to [`Cell`].
macro_rules! cells {
    ($($v:expr),* $(,)?) => { vec![$($crate::Cell::from($v)),*] };
}
pub(crate) use cells;

/// A titled table of rows, plus named summary values (`notes`) that the
/// printer emits as comment lines, since they are not rows of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub title: String,
    /// Column names, one per cell of every row.
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<Cell>>,
    /// `(name, value)` summaries, e.g. a mean over the rows' samples.
    pub notes: Vec<(String, f64)>,
}

impl Table {
    /// An empty table; `header` names its columns, separated by
    /// whitespace.
    pub fn new(title: impl Into<String>, header: &'static str) -> Self {
        Self {
            title: title.into(),
            columns: header.split_whitespace().collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; it must have one cell per column.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width in `{}`",
            self.title
        );
        self.rows.push(row);
    }

    /// Records a named summary value.
    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.push((name.into(), value));
    }

    /// The summary value recorded under `name`.
    pub fn noted(&self, name: &str) -> f64 {
        self.notes
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no note `{name}` in `{}`", self.title))
            .1
    }

    fn column(&self, col: &str) -> usize {
        self.columns
            .iter()
            .position(|c| *c == col)
            .unwrap_or_else(|| panic!("no column `{col}` in `{}`", self.title))
    }

    /// The cell of `row` in column `col`.
    pub fn cell(&self, row: usize, col: &str) -> &Cell {
        &self.rows[row][self.column(col)]
    }

    /// Column `col` as numbers, in row order; panics on a label.
    pub fn nums(&self, col: &str) -> Vec<f64> {
        let i = self.column(col);
        let num = |c: &Cell| match c {
            Cell::Int(v) => *v as f64,
            Cell::Num(v) => *v,
            Cell::Text(s) => panic!("`{s}` in `{col}` is a label, not a number"),
        };
        self.rows.iter().map(|row| num(&row[i])).collect()
    }

    /// The rows whose column `col` prints as `value`.
    pub fn filter(&self, col: &str, value: &str) -> Table {
        let i = self.column(col);
        let mut t = self.clone();
        t.rows.retain(|row| row[i].to_string() == value);
        t
    }
}

/// The TSV printer: title and column header as comments, one line per
/// row, then the notes as comments.
impl fmt::Display for Table {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(out, "# --- {} ---", self.title)?;
        writeln!(out, "# {}", self.columns.join("\t"))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::to_string).collect();
            writeln!(out, "{}", cells.join("\t"))?;
        }
        for (name, v) in &self.notes {
            writeln!(out, "# {name} = {}", Cell::Num(*v))?;
        }
        Ok(())
    }
}

/// Appends a nearest-rank CDF of `samples` at `points` evenly spaced
/// cumulative fractions as `prefix…, value, fraction` rows.
pub(crate) fn push_cdf(t: &mut Table, prefix: &[&str], samples: &[f64], points: usize) {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if s.is_empty() {
        return;
    }
    for i in 0..points {
        let q = (i + 1) as f64 / points as f64;
        let idx = ((s.len() as f64 * q).ceil() as usize - 1).min(s.len() - 1);
        let mut row: Vec<Cell> = prefix.iter().map(|&p| p.into()).collect();
        row.extend(cells![s[idx], q]);
        t.push(row);
    }
}

/// A top-k fraction as the paper labels it ("20%").
pub(crate) fn pct(k: f64) -> String {
    format!("{}%", (k * 100.0) as u32)
}

/// Table `i` of [`micro_pipeline`]. Exact tables install four entries,
/// LPM three prefixes, ternary five distinct masks (§3.1); a miss runs
/// the same action as a hit.
fn plain_table(
    b: &mut ProgramBuilder,
    fields: &[FieldRef],
    i: usize,
    kind: MatchKind,
    prims: usize,
) -> NodeId {
    let mut tb = b
        .table(format!("t{i}"))
        .key(fields[i % 4], kind)
        .action("proc", vec![Primitive::Nop; prims]);
    match kind {
        MatchKind::Exact => {
            for e in 0..4u64 {
                tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
            }
        }
        MatchKind::Lpm => {
            for p in 0..3u8 {
                tb = tb.entry(TableEntry::new(
                    vec![MatchValue::Lpm {
                        value: ((p as u64) + 1) << 40,
                        prefix_len: 8 + 8 * p,
                    }],
                    0,
                ));
            }
        }
        MatchKind::Ternary | MatchKind::Range => {
            for m in 0..5u64 {
                tb = tb.entry(TableEntry::with_priority(
                    vec![MatchValue::Ternary {
                        value: m,
                        mask: 0xFF << (8 * m),
                    }],
                    0,
                    m as i32,
                ));
            }
        }
    }
    tb.action_nop("nop").finish()
}

fn micro_fields(b: &mut ProgramBuilder) -> Vec<FieldRef> {
    (0..4).map(|i| b.field(&format!("f{i}"))).collect()
}

/// The microbenchmark program of §5.2.1: pipelets of four tables each,
/// "replicated with a scale factor N". Table `i` is a `kind`-match on
/// field `f{i % 4}` whose action has `prims` primitives. Returns the graph
/// and table ids in order.
pub(crate) fn micro_pipeline(
    num_tables: usize,
    kind: MatchKind,
    prims: usize,
) -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::named(format!("micro_{num_tables}_{kind:?}"));
    let fields = micro_fields(&mut b);
    let ids: Vec<NodeId> = (0..num_tables)
        .map(|i| plain_table(&mut b, &fields, i, kind, prims))
        .collect();
    (b.seal(ids[0]).expect("valid"), ids)
}

/// An exact [`micro_pipeline`] whose table at `acl_pos` is an ACL keyed on
/// its own field with a deny entry for `drop_value`.
pub(crate) fn with_acl_at(
    num_tables: usize,
    acl_pos: usize,
    drop_value: u64,
) -> (ProgramGraph, Vec<NodeId>, FieldRef) {
    let mut b = ProgramBuilder::named(format!("micro_acl_{num_tables}_{acl_pos}"));
    let fields = micro_fields(&mut b);
    let acl_field = b.field("acl.key");
    let ids: Vec<NodeId> = (0..num_tables)
        .map(|i| {
            if i != acl_pos {
                return plain_table(&mut b, &fields, i, MatchKind::Exact, 1);
            }
            b.table("acl")
                .key(acl_field, MatchKind::Exact)
                .action_nop("permit")
                .action_drop("deny")
                .entry(TableEntry::new(vec![MatchValue::Exact(drop_value)], 1))
                .finish()
        })
        .collect();
    (b.seal(ids[0]).expect("valid"), ids, acl_field)
}

/// `n` packets for a [`micro_pipeline`]: packet `i` sets every `f*` field
/// to `i % values`; with `values` 4 each one hits an installed exact entry.
pub(crate) fn micro_packets(g: &ProgramGraph, n: usize, values: u64) -> Vec<Packet> {
    let fields: Vec<FieldRef> = (0..4)
        .map(|i| g.fields.get(&format!("f{i}")).expect("micro field"))
        .collect();
    (0..n)
        .map(|i| {
            let mut p = Packet::new(&g.fields);
            for &f in &fields {
                p.set(f, i as u64 % values);
            }
            p
        })
        .collect()
}

/// Applies a hand-picked plan (used to measure *specific* layout options
/// rather than whatever the search would choose).
pub(crate) fn apply_manual(
    g: &ProgramGraph,
    order: Vec<NodeId>,
    segments: Vec<(usize, usize, SegmentKind)>,
    params: &CostParams,
    cfg: &OptimizerConfig,
) -> AppliedPlan {
    let cand = Candidate {
        pipelet: 0,
        order,
        segments: segments
            .into_iter()
            .map(|(start, end, kind)| Segment { start, end, kind })
            .collect(),
        gain: 1.0,
        mem_cost: 0.0,
        update_cost: 0.0,
        group_branch: None,
    };
    let plan = GlobalPlan {
        total_gain: 1.0,
        total_mem: 0.0,
        total_update: 0.0,
        choices: vec![cand],
    };
    apply_plan(
        g,
        &plan,
        &CostModel::new(params.clone()),
        &RuntimeProfile::empty(),
        cfg,
    )
    .expect("manual plan applies")
}

/// A controller managing an instrumented `SmartNic` (1-in-`sample`
/// sampling) that runs `g`; `downtime_s` is charged per reconfiguration.
pub(crate) fn managed(
    g: &ProgramGraph,
    params: &CostParams,
    sample: u64,
    downtime_s: f64,
    optimizer: Optimizer,
) -> Controller<SimTarget> {
    let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
    nic.set_instrumentation(true, sample);
    Controller::new(
        SimTarget { nic, downtime_s },
        g.clone(),
        optimizer,
        ControllerConfig::default(),
    )
    .expect("controller starts")
}

/// One profiling window: the same packets through the static `baseline`
/// and the managed NIC, then a controller tick.
pub(crate) fn window(
    baseline: &mut SmartNic,
    controller: &mut Controller<SimTarget>,
    batch: Vec<Packet>,
) -> (BatchStats, BatchStats, TickReport) {
    let b = baseline.measure(batch.clone());
    let m = controller.target.nic.measure(batch);
    (b, m, controller.tick().expect("tick"))
}

/// Traffic share per pipelet under a profile (Appendix A.3).
pub(crate) fn pipelet_shares(model: &CostModel, g: &ProgramGraph, p: &RuntimeProfile) -> Vec<f64> {
    score_pipelets(model, g, p, &partition(g, 24))
        .iter()
        .map(|s| s.reach)
        .collect()
}

/// `n` random profiles of `g` (seeds `seed0..seed0 + n`) with their
/// pipelet-traffic entropy, ranked by entropy, and the indices of the
/// 10th/50th/90th percentile among them.
pub(crate) fn ranked_profiles(
    model: &CostModel,
    g: &ProgramGraph,
    n: u64,
    seed0: u64,
) -> (Vec<(f64, RuntimeProfile)>, [usize; 3]) {
    let mut ranked: Vec<(f64, RuntimeProfile)> = (seed0..seed0 + n)
        .map(|s| {
            let p = random_profile(g, &ProfileSynthConfig::default(), s);
            (entropy(&pipelet_shares(model, g, &p)), p)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite entropy"));
    let len = ranked.len();
    (ranked, [len / 10, len / 2, len * 9 / 10])
}

/// The traffic-entropy percentiles Figures 14, 18 and 19 pick profiles
/// at, as the paper labels them.
pub const ENTROPY_LEVELS: [&str; 3] = ["10th", "50th", "90th"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acl_variant_builds_at_every_position() {
        for pos in [0, 3, 7] {
            let (g, ids, _) = with_acl_at(8, pos, 0xDEAD);
            g.validate().unwrap();
            assert_eq!(g.node(ids[pos]).unwrap().name(), "acl");
        }
    }

    #[test]
    fn manual_plan_applies_cache() {
        let (g, ids) = micro_pipeline(4, MatchKind::Exact, 1);
        let applied = apply_manual(
            &g,
            ids.clone(),
            vec![(0, 4, SegmentKind::Cache)],
            &CostParams::bluefield2(),
            &OptimizerConfig::default(),
        );
        assert_eq!(applied.cache_nodes.len(), 1);
        applied.graph.validate().unwrap();
    }

    #[test]
    fn printer_formats_like_the_figure_rows() {
        let mut t = Table::new("demo", "label count value");
        t.push(cells!["a", 3usize, 0.12345]);
        t.note("mean", 2.0);
        assert_eq!(
            t.to_string(),
            "# --- demo ---\n# label\tcount\tvalue\na\t3\t0.123\n# mean = 2.000\n"
        );
        assert_eq!(t.filter("count", "3").nums("value"), vec![0.12345]);
        assert!(t.filter("label", "b").rows.is_empty());
    }
}
