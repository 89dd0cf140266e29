//! Spans around the calls the harness makes into a layer.
//!
//! Spans are recorded from the benchmark's own files only: one around
//! each call into a layer, never inside the program. They are kept in
//! memory while the run measures and written out when it ends. Each
//! thread records into its own [`Tracer`] against one shared epoch;
//! [`merge`] joins the buffers, numbers the spans and links each span to
//! the narrowest span that encloses it — on one CPU a
//! server-side poll runs *inside* the client call that waits for it, so
//! enclosure is causation.

use crate::json::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the merged trace (assigned by [`merge`]).
    pub id: usize,
    /// `layer.call`, e.g. `net.client.replay`.
    pub name: &'static str,
    /// Recording thread: 0 is the driver, 1 the ingest server.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// The enclosing span (assigned by [`merge`]).
    pub parent: Option<usize>,
    /// The rep the call belongs to: the identifier spans of one unit of
    /// work share.
    pub rep: u64,
    /// Units of work the call covered (packets, entries, ...).
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Disabled tracers record nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `thread`, recording against `epoch` when `enabled`.
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            thread,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run interleaves traced
    /// and untraced reps to price the tracing itself).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        rep: u64,
        work: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            id: 0,
            name,
            thread: self.thread,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            rep,
            work,
        });
    }

    /// Takes the recorded spans.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Joins per-thread buffers into one trace ordered by start time, with
/// ids assigned and each span's parent set to the narrowest span that
/// encloses it in time.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut spans: Vec<Span> = buffers.into_iter().flatten().collect();
    // Outer spans first among equal starts, so a parent precedes its
    // children.
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.end_ns.cmp(&a.end_ns))
            .then(a.thread.cmp(&b.thread))
    });
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        spans[i].id = i;
        while let Some(&top) = open.last() {
            if spans[top].end_ns >= spans[i].end_ns {
                break;
            }
            open.pop();
        }
        spans[i].parent = open.last().copied();
        open.push(i);
    }
    spans
}

/// Self time per span: its duration minus the part of it its children
/// cover. Children of one parent recorded by the harness never overlap
/// each other, so the covered part is the sum of their durations,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Per-name totals over a merged trace: `(name, calls, total_ns,
/// self_ns, work)`, sorted by name.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
        e.3 += s.work;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s, w))| (n, c, t, s, w))
        .collect()
}

/// One span as a JSON line.
pub fn span_json(s: &Span) -> Value {
    Value::obj()
        .with("id", Value::Int(s.id as i64))
        .with("name", Value::Str(s.name.to_string()))
        .with("thread", Value::Int(i64::from(s.thread)))
        .with("start_ns", Value::Int(s.start_ns as i64))
        .with("end_ns", Value::Int(s.end_ns as i64))
        .with(
            "parent",
            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
        )
        .with("rep", Value::Int(s.rep as i64))
        .with("work", Value::Int(s.work as i64))
}
