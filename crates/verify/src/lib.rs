//! # pipeleon-verify — static program lints and plan-safety verification
//!
//! Pipeleon's rewrites (reorder §3.2.1, flow-cache §3.2.2, merge §3.2.3)
//! are only profitable if they are *semantics-preserving*. This crate is
//! the correctness backbone for the rest of the workspace; it has two
//! independent passes:
//!
//! 1. **Program lints** ([`lint_program`]): a dataflow walk over the
//!    [`pipeleon_ir::ProgramGraph`] DAG producing rustc-style typed
//!    diagnostics (`PV0xx` codes) — possibly-uninitialized metadata reads,
//!    unreachable tables, dead actions, branch conditions over fields no
//!    action defines, intra-action dead writes, and shadowed entries.
//! 2. **Plan safety** ([`PlanVerifier`]): for every optimization
//!    [`Candidate`] (the rewrite vocabulary is defined here, once, and the
//!    optimizer re-exports it), prove the rewrite legal with
//!    path-sensitive Bernstein-condition checks over all DAG paths through
//!    the affected region (every inverted pair must commute, cache
//!    segments must be outcome-determined by their entry key, merges need
//!    key-compatibility) and return a machine-readable [`Verdict`].
//!
//! The crate deliberately depends only on `pipeleon-ir` so that the
//! optimizer core, the runtime controller and the CLI can all consume it
//! without cycles.

#![forbid(unsafe_code)]

mod concurrency;
mod lints;
mod plan;

pub use concurrency::{lint_concurrency, lint_concurrency_with_count};
pub use lints::lint_program;
pub use plan::{Candidate, PlanVerifier, Segment, SegmentKind, Verdict, Violation};

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong; `--deny-warnings` promotes it.
    Warning,
    /// The program (or plan) is wrong or would misbehave when deployed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Typed diagnostic codes. `PV0xx` are program lints, `PV1xx` are
/// plan-safety violations, `PV2xx` are memory-model (concurrency)
/// lints over the repository's own datapath sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// PV001: a match key, branch condition, or action operand reads a
    /// metadata field that is not written on every root-to-node path.
    UninitializedRead,
    /// PV002: a node is unreachable from the program root.
    Unreachable,
    /// PV003: a populated table carries an action no entry or default
    /// references.
    DeadAction,
    /// PV004: a branch condition reads a metadata field that no action in
    /// the whole program writes.
    UndefinedBranchField,
    // PV005 (the memory-tier capacity lint) is retired; the number is
    // not reused.
    /// PV006: an action writes a field twice without reading it in
    /// between (the first write is dead).
    SelfConflictingAction,
    /// PV007: two entries of one table have identical match values, so one
    /// of them can never fire.
    ShadowedEntry,
    /// PV101: the candidate is structurally malformed (unknown nodes,
    /// out-of-range or overlapping segments, non-table members, ...).
    PlanShape,
    /// PV102: the candidate inverts two tables that do not commute
    /// (read/write hazard on some execution path).
    ReorderHazard,
    /// PV103: a cache segment is not outcome-determined by its entry key
    /// (internal write feeds a later match, or a member is not cacheable).
    CacheUnsafe,
    /// PV104: a merge segment violates key-compatibility or the
    /// exact-match requirement of merged caches.
    MergeUnsafe,
    /// PV105: the candidate's members are not contiguous along an
    /// execution path (a non-member executes in the middle of the region).
    NonContiguous,
    /// PV201: `Ordering::Relaxed` in a datapath source — outside the
    /// envelope the model-checked protocol proofs cover.
    RelaxedOrdering,
    /// PV202: `unsafe` in a file outside the audited allowlist.
    UnsafeOutsideAllowlist,
    /// PV203: an allowlisted `unsafe` site without a `// SAFETY:`
    /// comment nearby.
    MissingSafetyComment,
    /// PV204: an atomic operation in a datapath source without an
    /// `// ORDERING:` comment stating its happens-before edge.
    MissingOrderingComment,
    /// PV205: a raw `std::sync` primitive in a datapath source instead
    /// of the `crate::sync` facade the model build swaps out.
    RawAtomicOutsideFacade,
}

impl Code {
    /// The canonical `PVnnn` string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UninitializedRead => "PV001",
            Code::Unreachable => "PV002",
            Code::DeadAction => "PV003",
            Code::UndefinedBranchField => "PV004",
            Code::SelfConflictingAction => "PV006",
            Code::ShadowedEntry => "PV007",
            Code::PlanShape => "PV101",
            Code::ReorderHazard => "PV102",
            Code::CacheUnsafe => "PV103",
            Code::MergeUnsafe => "PV104",
            Code::NonContiguous => "PV105",
            Code::RelaxedOrdering => "PV201",
            Code::UnsafeOutsideAllowlist => "PV202",
            Code::MissingSafetyComment => "PV203",
            Code::MissingOrderingComment => "PV204",
            Code::RawAtomicOutsideFacade => "PV205",
        }
    }

    /// The severity this code carries by default.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::Unreachable
            | Code::DeadAction
            | Code::SelfConflictingAction
            | Code::ShadowedEntry => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rendered finding of the lint pass: a code, a severity, a one-line
/// message, and span-ish context lines naming the table/action/edge the
/// finding anchors to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The typed code (`PV0xx`).
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable one-line description.
    pub message: String,
    /// Context lines (innermost first), e.g. `table `acl` (node 3)`.
    pub context: Vec<String>,
}

impl Diagnostic {
    /// Renders the diagnostic in a rustc-style multi-line format.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        for c in &self.context {
            out.push_str("\n  --> ");
            out.push_str(c);
        }
        out
    }

    /// Renders the diagnostic as one JSON object (no external
    /// serialization dependency; strings are escaped by hand).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"context\":[",
            self.code,
            self.severity,
            escape_json(&self.message)
        ));
        for (i, c) in self.context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(c));
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

/// Renders a batch of diagnostics as rustc-style text, one blank line
/// between entries, followed by a summary line.
pub fn render_report(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render_text());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "analysis: {} error(s), {} warning(s)\n",
        errors, warnings
    ));
    out
}

/// Renders a batch of diagnostics as a JSON array.
pub fn render_report_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.render_json());
    }
    out.push(']');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::UninitializedRead.as_str(), "PV001");
        assert_eq!(Code::ShadowedEntry.as_str(), "PV007");
        assert_eq!(Code::ReorderHazard.as_str(), "PV102");
        assert_eq!(Code::UninitializedRead.to_string(), "PV001");
    }

    #[test]
    fn severity_ordering_puts_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let d = Diagnostic {
            code: Code::Unreachable,
            severity: Severity::Warning,
            message: "table `t` is unreachable".into(),
            context: vec!["table `t` (node 3)".into()],
        };
        let s = d.render_text();
        assert!(s.starts_with("warning[PV002]: "));
        assert!(s.contains("\n  --> table `t` (node 3)"));
    }

    #[test]
    fn json_rendering_escapes_quotes() {
        let d = Diagnostic {
            code: Code::DeadAction,
            severity: Severity::Warning,
            message: "action \"x\" is dead".into(),
            context: vec![],
        };
        let s = d.render_json();
        assert!(s.contains("\\\"x\\\""));
        assert!(s.contains("\"code\":\"PV003\""));
    }

    #[test]
    fn report_summary_counts() {
        let diags = vec![
            Diagnostic {
                code: Code::UninitializedRead,
                severity: Severity::Error,
                message: "m".into(),
                context: vec![],
            },
            Diagnostic {
                code: Code::Unreachable,
                severity: Severity::Warning,
                message: "m".into(),
                context: vec![],
            },
        ];
        let txt = render_report(&diags);
        assert!(txt.contains("1 error(s), 1 warning(s)"));
        let json = render_report_json(&diags);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("PV001") && json.contains("PV002"));
    }
}
