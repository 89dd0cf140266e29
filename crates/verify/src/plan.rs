//! The rewrite vocabulary and its plan-safety check: prove a candidate
//! rewrite legal before it is scored, selected, or deployed.
//!
//! A [`Candidate`] proposes a new table order for one pipelet plus
//! cache/merge [`Segment`]s, or a joint "group" cache fronting a branch.
//! The optimizer (`pipeleon-core`, which re-exports these types as
//! `pipeleon::plan`) builds candidates and prices them; the verifier
//! checks the same value. Sharing the type shares no check: the verifier
//! reads only `order`, `segments` and `group_branch`, assumes nothing the
//! optimizer promised about them (the fields are public and hold no
//! invariant), checks their shape itself, and re-derives legality from
//! the program — independently of the enumeration heuristics — with
//! path-sensitive Bernstein-condition checks:
//!
//! * **Reorder** (§3.2.1): every *inverted pair* of tables (not just
//!   adjacent ones) must commute — no read-after-write, write-after-read,
//!   or write-after-write hazard between them.
//! * **Cache** (§3.2.2): every table in the segment must be a plain keyed
//!   program table and no table may write a field a later segment member
//!   matches on, so the outcome is a pure function of the entry key.
//! * **Merge** (§3.2.3): pairwise key-compatibility (no table's write
//!   feeds another's match key) plus the materialization constraints
//!   (merged caches need all-exact components; ternary merges cannot
//!   contain range tables).
//! * **Groups** (§4.1.1): members must lie on the branch's arm/join
//!   chains with a common exit and be cacheable along *every* root-to-exit
//!   path through the region.
//!
//! Every match on [`SegmentKind`] here is exhaustive, so a new rewrite
//! kind does not compile until the verifier handles it. The verdict is
//! machine-readable ([`Verdict`]) so the optimizer can count rejections
//! and the runtime controller can refuse deployment with a typed payload.

use crate::{Code, Severity};
use pipeleon_ir::deps::{DependencyAnalysis, RwSets};
use pipeleon_ir::{MatchKind, NodeId, NodeKind, ProgramGraph};
use std::fmt;

/// What happens to one contiguous run of tables in a candidate's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Create a flow cache in front of the segment (§3.2.2).
    Cache,
    /// Merge the segment into one table (§3.2.3). `as_cache` materializes
    /// the merged exact table as a fall-through cache instead of a ternary
    /// table (avoiding the `m` blow-up of Figure 6).
    Merge {
        /// Whether the merged table is a [`pipeleon_ir::CacheRole::MergedCache`].
        as_cache: bool,
    },
}

/// A contiguous index range `[start, end)` over a candidate's table order,
/// tagged with the transformation applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start index into [`Candidate::order`] (inclusive).
    pub start: usize,
    /// End index (exclusive).
    pub end: usize,
    /// The transformation.
    pub kind: SegmentKind,
}

impl Segment {
    /// Number of tables covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Segments are never empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// One evaluated optimization option for one pipelet (or pipelet group):
/// a table order plus disjoint cache/merge segments, with its estimated
/// gain and resource costs (the `cb.g` / `cb.c` of Appendix A.1).
///
/// The fields are public and hold no invariant: the optimizer builds
/// candidates, and [`PlanVerifier::verify`] reads only `order`,
/// `segments` and `group_branch`, checking their shape itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The pipelet this candidate optimizes.
    pub pipelet: usize,
    /// The (possibly reordered) table sequence.
    pub order: Vec<NodeId>,
    /// Disjoint, sorted segments over `order`.
    pub segments: Vec<Segment>,
    /// Estimated expected-latency reduction (ns, ≥ 0 to be considered).
    pub gain: f64,
    /// Extra memory consumed (bytes).
    pub mem_cost: f64,
    /// Extra entry-update bandwidth consumed (updates/s).
    pub update_cost: f64,
    /// For group candidates: the branch node the group hangs off.
    pub group_branch: Option<NodeId>,
}

impl Candidate {
    /// The candidate itself. The benchmark harness (`crates/perf`) still
    /// calls `to_spec` from when the verifier took a copy of a candidate;
    /// this forward goes with the harness's other pinned names (ROADMAP
    /// item 1). Nothing else calls it.
    #[doc(hidden)]
    pub fn to_spec(&self) -> &Self {
        self
    }

    /// The identity candidate (no change, zero gain/cost).
    pub fn noop(pipelet: usize, order: Vec<NodeId>) -> Self {
        Self {
            pipelet,
            order,
            segments: Vec::new(),
            gain: 0.0,
            mem_cost: 0.0,
            update_cost: 0.0,
            group_branch: None,
        }
    }

    /// Whether this candidate changes anything.
    pub fn is_noop(&self, original_order: &[NodeId]) -> bool {
        self.segments.is_empty() && self.order == original_order
    }
}

/// One reason a candidate is illegal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The typed `PV1xx` code.
    pub code: Code,
    /// Human-readable description naming the offending tables/fields.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", Severity::Error, self.code, self.message)
    }
}

/// The verifier's machine-readable answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether the candidate is provably safe.
    pub legal: bool,
    /// Every violation found (empty iff `legal`).
    pub violations: Vec<Violation>,
}

impl Verdict {
    fn from_violations(violations: Vec<Violation>) -> Self {
        Verdict {
            legal: violations.is_empty(),
            violations,
        }
    }

    /// Renders all violations, one per line.
    pub fn render(&self) -> String {
        if self.legal {
            return "plan verified: no violations".into();
        }
        let lines: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
        lines.join("\n")
    }
}

/// Verifies candidates against one program.
///
/// Construction precomputes the per-node read/write sets;
/// [`PlanVerifier::verify`] must be called with the *same* program the
/// verifier was built from.
#[derive(Debug, Clone)]
pub struct PlanVerifier {
    sets: Vec<Option<RwSets>>,
}

impl PlanVerifier {
    /// Builds a verifier for `g`.
    pub fn new(g: &ProgramGraph) -> Self {
        let mut sets = vec![None; g.num_nodes()];
        for n in g.iter_nodes() {
            sets[n.id.index()] = Some(RwSets::of_node(n));
        }
        PlanVerifier { sets }
    }

    fn rw(&self, id: NodeId) -> Option<&RwSets> {
        self.sets.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Checks `c` against `g` and returns the verdict. Deterministic:
    /// identical inputs always produce identical verdicts (violations in
    /// the same order).
    pub fn verify(&self, g: &ProgramGraph, c: &Candidate) -> Verdict {
        let mut v = Vec::new();
        self.check_shape(g, c, &mut v);
        if !v.is_empty() {
            // Structural problems make the semantic checks meaningless.
            return Verdict::from_violations(v);
        }
        match c.group_branch {
            Some(branch) => self.check_group(g, c, branch, &mut v),
            None => self.check_chain(g, c, &mut v),
        }
        self.check_segments(g, c, &mut v);
        Verdict::from_violations(v)
    }

    /// Structural validity: known nodes, plain program tables, well-formed
    /// disjoint segments.
    fn check_shape(&self, g: &ProgramGraph, c: &Candidate, v: &mut Vec<Violation>) {
        if c.order.is_empty() {
            v.push(Violation {
                code: Code::PlanShape,
                message: "candidate has an empty table order".into(),
            });
            return;
        }
        for (i, &id) in c.order.iter().enumerate() {
            if c.order[..i].contains(&id) {
                v.push(Violation {
                    code: Code::PlanShape,
                    message: format!("node {id} appears more than once in the order"),
                });
            }
            let Some(n) = g.node(id) else {
                v.push(Violation {
                    code: Code::PlanShape,
                    message: format!("order references unknown node {id}"),
                });
                continue;
            };
            let Some(t) = n.as_table() else {
                v.push(Violation {
                    code: Code::PlanShape,
                    message: format!("node {id} is a branch, not a table"),
                });
                continue;
            };
            if t.cache_role != pipeleon_ir::CacheRole::None || n.is_switch_case() {
                v.push(Violation {
                    code: Code::PlanShape,
                    message: format!(
                        "table `{}` (node {id}) is not a plain program table",
                        t.name
                    ),
                });
            }
        }
        let mut prev_end = 0usize;
        for s in &c.segments {
            if s.is_empty() || s.end > c.order.len() {
                v.push(Violation {
                    code: Code::PlanShape,
                    message: format!(
                        "segment [{}, {}) is out of range for an order of {} tables",
                        s.start,
                        s.end,
                        c.order.len()
                    ),
                });
                continue;
            }
            if s.start < prev_end {
                v.push(Violation {
                    code: Code::PlanShape,
                    message: format!(
                        "segment [{}, {}) overlaps or is out of order with the previous segment",
                        s.start, s.end
                    ),
                });
            }
            prev_end = s.end;
            match s.kind {
                // The range check above gives a cache at least one table.
                SegmentKind::Cache => {}
                SegmentKind::Merge { .. } => {
                    if s.len() < 2 {
                        v.push(Violation {
                            code: Code::PlanShape,
                            message: format!(
                                "merge segment [{}, {}) needs at least two tables",
                                s.start, s.end
                            ),
                        });
                    }
                }
            }
        }
        if c.group_branch.is_some() && !c.segments.is_empty() {
            v.push(Violation {
                code: Code::PlanShape,
                message: "group candidates cache their whole region and take no segments".into(),
            });
        }
    }

    /// Chain candidates: reconstruct the original execution order of the
    /// members along the program's edges, require contiguity, and check
    /// every inverted pair for commutativity.
    fn check_chain(&self, g: &ProgramGraph, c: &Candidate, v: &mut Vec<Violation>) {
        let members = &c.order;
        // Each plain table has exactly one next hop; build the member
        // successor relation and find the unique chain entry.
        let next_member = |id: NodeId| -> Option<NodeId> {
            let t = g.node(id)?.next.targets().first().copied().flatten()?;
            members.contains(&t).then_some(t)
        };
        let entries: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&m| !members.iter().any(|&o| o != m && next_member(o) == Some(m)))
            .collect();
        if entries.len() != 1 {
            v.push(Violation {
                code: Code::NonContiguous,
                message: format!(
                    "candidate tables do not form one contiguous chain in the program \
                     ({} chain fragments); a non-member node or branch lies between them",
                    entries.len().max(1)
                ),
            });
            return;
        }
        let mut original = vec![entries[0]];
        while let Some(n) = next_member(*original.last().expect("non-empty")) {
            if original.contains(&n) {
                break;
            }
            original.push(n);
        }
        if original.len() != members.len() {
            v.push(Violation {
                code: Code::NonContiguous,
                message: format!(
                    "only {} of {} candidate tables are reachable along the chain from \
                     table {}; the rest sit on other paths",
                    original.len(),
                    members.len(),
                    entries[0]
                ),
            });
            return;
        }
        // Bernstein check over every inverted pair along the path.
        let pos = |id: NodeId| c.order.iter().position(|&x| x == id).expect("member");
        for i in 0..original.len() {
            for j in (i + 1)..original.len() {
                let (a, b) = (original[i], original[j]);
                if pos(a) > pos(b) && !self.commutes(a, b) {
                    v.push(Violation {
                        code: Code::ReorderHazard,
                        message: format!(
                            "{} and {} are swapped but do not commute: {}",
                            name_of(g, a),
                            name_of(g, b),
                            self.hazard_reason(g, a, b)
                        ),
                    });
                }
            }
        }
    }

    /// Group candidates: every path from the branch must run only member
    /// tables up to a common exit, cover all members between them, and be
    /// cacheable in path order.
    fn check_group(&self, g: &ProgramGraph, c: &Candidate, branch: NodeId, v: &mut Vec<Violation>) {
        let Some(bn) = g.node(branch) else {
            v.push(Violation {
                code: Code::PlanShape,
                message: format!("group branch {branch} does not exist"),
            });
            return;
        };
        if !matches!(bn.kind, NodeKind::Branch(_)) {
            v.push(Violation {
                code: Code::PlanShape,
                message: format!("group node {branch} is not a branch"),
            });
            return;
        }
        let members = &c.order;
        for &m in members {
            let keyed = g
                .node(m)
                .and_then(|n| n.as_table())
                .map(|t| !t.keys.is_empty())
                .unwrap_or(false);
            if !keyed {
                v.push(Violation {
                    code: Code::CacheUnsafe,
                    message: format!(
                        "{} has no match key; it cannot contribute to the group cache key",
                        name_of(g, m)
                    ),
                });
            }
        }
        // Walk every arm: a path is the maximal run of member tables from
        // a branch target; it must end at the same non-member exit
        // everywhere (otherwise a cache hit would skip non-member work).
        // An arm stops at its first non-member or repeated member, so it
        // takes at most `members + 1` steps: the walk needs no budget.
        let mut exits: Vec<Option<NodeId>> = Vec::new();
        let mut covered: Vec<NodeId> = Vec::new();
        for target in bn.next.targets() {
            let mut cur = target;
            let mut seq: Vec<NodeId> = Vec::new();
            loop {
                match cur {
                    Some(id) if members.contains(&id) => {
                        if seq.contains(&id) {
                            break; // cycle guard; validate() forbids this anyway
                        }
                        seq.push(id);
                        cur = g
                            .node(id)
                            .and_then(|n| n.next.targets().first().copied())
                            .flatten();
                    }
                    other => {
                        if !exits.contains(&other) {
                            exits.push(other);
                        }
                        break;
                    }
                }
            }
            // Path-order cacheability (branch reads are part of the key
            // and the branch writes nothing, so members alone decide).
            let sets: Vec<RwSets> = seq.iter().filter_map(|&id| self.rw(id).cloned()).collect();
            if !DependencyAnalysis::cacheable_segment(&sets) {
                let detail = self.first_cache_hazard(g, &seq);
                v.push(Violation {
                    code: Code::CacheUnsafe,
                    message: format!(
                        "group arm through {} is not cacheable: {}",
                        seq.first()
                            .map(|&n| name_of(g, n))
                            .unwrap_or_else(|| "<empty>".into()),
                        detail
                    ),
                });
            }
            for id in seq {
                if !covered.contains(&id) {
                    covered.push(id);
                }
            }
        }
        if exits.len() > 1 {
            v.push(Violation {
                code: Code::NonContiguous,
                message: format!(
                    "group arms leave the cached region at {} different exits; a cache \
                     hit would skip work that only some arms perform",
                    exits.len()
                ),
            });
        }
        for &m in members {
            if !covered.contains(&m) {
                v.push(Violation {
                    code: Code::NonContiguous,
                    message: format!(
                        "{} is not on any arm of branch {}; it cannot belong to this group",
                        name_of(g, m),
                        branch
                    ),
                });
            }
        }
    }

    /// Cache/merge segment legality over the candidate's (post-reorder)
    /// order.
    fn check_segments(&self, g: &ProgramGraph, c: &Candidate, v: &mut Vec<Violation>) {
        for s in &c.segments {
            let tables = &c.order[s.start..s.end];
            match s.kind {
                SegmentKind::Cache => self.check_cache_segment(g, tables, v),
                SegmentKind::Merge { as_cache } => self.check_merge_segment(g, tables, as_cache, v),
            }
        }
    }

    fn check_cache_segment(&self, g: &ProgramGraph, tables: &[NodeId], v: &mut Vec<Violation>) {
        for &id in tables {
            let keyed = g
                .node(id)
                .and_then(|n| n.as_table())
                .map(|t| !t.keys.is_empty())
                .unwrap_or(false);
            if !keyed {
                v.push(Violation {
                    code: Code::CacheUnsafe,
                    message: format!(
                        "{} has no match key; its outcome cannot be cached by key",
                        name_of(g, id)
                    ),
                });
            }
        }
        let sets: Vec<RwSets> = tables
            .iter()
            .filter_map(|&id| self.rw(id).cloned())
            .collect();
        if !DependencyAnalysis::cacheable_segment(&sets) {
            v.push(Violation {
                code: Code::CacheUnsafe,
                message: format!(
                    "cache segment is not outcome-determined by its entry key: {}",
                    self.first_cache_hazard(g, tables)
                ),
            });
        }
    }

    fn check_merge_segment(
        &self,
        g: &ProgramGraph,
        tables: &[NodeId],
        as_cache: bool,
        v: &mut Vec<Violation>,
    ) {
        for i in 0..tables.len() {
            for j in (i + 1)..tables.len() {
                let (Some(a), Some(b)) = (self.rw(tables[i]), self.rw(tables[j])) else {
                    continue;
                };
                if !DependencyAnalysis::mergeable(a, b) {
                    v.push(Violation {
                        code: Code::MergeUnsafe,
                        message: format!(
                            "{} and {} cannot merge: one writes a field the other \
                             matches on, and the merged table matches all keys first",
                            name_of(g, tables[i]),
                            name_of(g, tables[j])
                        ),
                    });
                }
            }
        }
        for &id in tables {
            let Some(t) = g.node(id).and_then(|n| n.as_table()) else {
                continue;
            };
            if t.keys.is_empty() {
                v.push(Violation {
                    code: Code::MergeUnsafe,
                    message: format!("{} has no match key to merge on", name_of(g, id)),
                });
            }
            if as_cache && t.effective_kind() != MatchKind::Exact {
                v.push(Violation {
                    code: Code::MergeUnsafe,
                    message: format!(
                        "merged caches need all-exact components, but {} matches with \
                         {:?} keys",
                        name_of(g, id),
                        t.effective_kind()
                    ),
                });
            }
            if !as_cache && t.effective_kind() == MatchKind::Range {
                v.push(Violation {
                    code: Code::MergeUnsafe,
                    message: format!(
                        "{} uses range keys, which cannot be encoded in a merged \
                         ternary table",
                        name_of(g, id)
                    ),
                });
            }
        }
    }

    fn commutes(&self, a: NodeId, b: NodeId) -> bool {
        match (self.rw(a), self.rw(b)) {
            (Some(sa), Some(sb)) => DependencyAnalysis::commute(sa, sb),
            _ => false,
        }
    }

    /// Human-readable hazard description for a non-commuting pair.
    fn hazard_reason(&self, g: &ProgramGraph, a: NodeId, b: NodeId) -> String {
        let (Some(sa), Some(sb)) = (self.rw(a), self.rw(b)) else {
            return "unknown nodes".into();
        };
        let fname = |f: pipeleon_ir::FieldRef| {
            g.fields
                .name(f)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("<field {}>", f.index()))
        };
        if let Some(f) = sa.writes.iter().find(|w| sb.reads().any(|r| r == **w)) {
            return format!(
                "field `{}` is written by the first and read by the second",
                fname(*f)
            );
        }
        if let Some(f) = sb.writes.iter().find(|w| sa.reads().any(|r| r == **w)) {
            return format!(
                "field `{}` is written by the second and read by the first",
                fname(*f)
            );
        }
        if let Some(f) = sa.writes.iter().find(|w| sb.writes.contains(w)) {
            return format!("both write field `{}`", fname(*f));
        }
        "no hazard found (report a verifier bug)".into()
    }

    /// The first writer→later-matcher pair that breaks cacheability.
    fn first_cache_hazard(&self, g: &ProgramGraph, tables: &[NodeId]) -> String {
        for i in 0..tables.len() {
            for j in (i + 1)..tables.len() {
                let (Some(a), Some(b)) = (self.rw(tables[i]), self.rw(tables[j])) else {
                    continue;
                };
                if let Some(f) = a.writes.iter().find(|w| b.match_reads.contains(w)) {
                    let fname = g
                        .fields
                        .name(*f)
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("<field {}>", f.index()));
                    return format!(
                        "{} writes field `{}` which {} matches on",
                        name_of(g, tables[i]),
                        fname,
                        name_of(g, tables[j])
                    );
                }
            }
        }
        "an internal write feeds a later match key".into()
    }
}

fn name_of(g: &ProgramGraph, id: NodeId) -> String {
    match g.node(id).map(|n| &n.kind) {
        Some(NodeKind::Table(t)) => format!("table `{}` (node {})", t.name, id.index()),
        Some(NodeKind::Branch(b)) => format!("branch `{}` (node {})", b.name, id.index()),
        None => format!("node {}", id.index()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{Condition, MatchKind, Primitive, ProgramBuilder};

    fn verify(g: &ProgramGraph, c: &Candidate) -> Verdict {
        PlanVerifier::new(g).verify(g, c)
    }

    /// Chain of three tables: t0 matches a / writes w0, t1 matches b,
    /// t2 matches w0 (so t0 -> t2 has a RAW hazard).
    fn chain() -> (ProgramGraph, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let fa = b.field("a");
        let fb = b.field("b");
        let fw = b.field("w0");
        let t0 = b
            .table("t0")
            .key(fa, MatchKind::Exact)
            .action("wr", vec![Primitive::set(fw, 1)])
            .finish();
        let t1 = b.table("t1").key(fb, MatchKind::Exact).finish();
        let t2 = b.table("t2").key(fw, MatchKind::Exact).finish();
        let g = b.seal_sequential().unwrap();
        (g, vec![t0, t1, t2])
    }

    fn cand(order: Vec<NodeId>) -> Candidate {
        Candidate::noop(0, order)
    }

    #[test]
    fn segment_len() {
        let s = Segment {
            start: 1,
            end: 4,
            kind: SegmentKind::Cache,
        };
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn noop_candidate_is_noop() {
        let order = vec![NodeId(1), NodeId(2)];
        let c = Candidate::noop(0, order.clone());
        assert!(c.is_noop(&order));
        assert!(!c.is_noop(&[NodeId(2), NodeId(1)]));
    }

    #[test]
    fn identity_order_is_legal() {
        let (g, ids) = chain();
        let verdict = verify(&g, &cand(ids));
        assert!(verdict.legal, "{}", verdict.render());
        assert!(verdict.violations.is_empty());
    }

    #[test]
    fn commuting_swap_is_legal() {
        let (g, ids) = chain();
        // t0 and t1 touch disjoint fields.
        let verdict = verify(&g, &cand(vec![ids[1], ids[0], ids[2]]));
        assert!(verdict.legal, "{}", verdict.render());
    }

    #[test]
    fn raw_hazard_swap_is_rejected() {
        let (g, ids) = chain();
        // t2 matches the field t0 writes; promoting t2 above t0 is unsafe.
        let verdict = verify(&g, &cand(vec![ids[2], ids[0], ids[1]]));
        assert!(!verdict.legal);
        assert_eq!(verdict.violations[0].code, Code::ReorderHazard);
        assert!(verdict.violations[0].message.contains("w0"));
    }

    #[test]
    fn non_adjacent_inversion_is_still_checked() {
        let (g, ids) = chain();
        // Order t2, t1, t0: the t0/t2 inversion is non-adjacent in the
        // original chain but must still be flagged.
        let verdict = verify(&g, &cand(vec![ids[2], ids[1], ids[0]]));
        assert!(!verdict.legal);
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.code == Code::ReorderHazard));
    }

    #[test]
    fn unknown_node_is_plan_shape_error() {
        let (g, mut ids) = chain();
        ids.push(NodeId(99));
        let verdict = verify(&g, &cand(ids));
        assert!(!verdict.legal);
        assert_eq!(verdict.violations[0].code, Code::PlanShape);
    }

    #[test]
    fn duplicate_member_is_plan_shape_error() {
        let (g, ids) = chain();
        let verdict = verify(&g, &cand(vec![ids[0], ids[0], ids[1]]));
        assert!(!verdict.legal);
        assert!(verdict.violations.iter().any(|v| v.code == Code::PlanShape));
    }

    #[test]
    fn overlapping_segments_are_rejected() {
        let (g, ids) = chain();
        let mut s = cand(ids);
        s.segments = vec![
            Segment {
                start: 0,
                end: 2,
                kind: SegmentKind::Cache,
            },
            Segment {
                start: 1,
                end: 3,
                kind: SegmentKind::Cache,
            },
        ];
        let verdict = verify(&g, &s);
        assert!(!verdict.legal);
        assert_eq!(verdict.violations[0].code, Code::PlanShape);
    }

    #[test]
    fn single_table_merge_is_rejected() {
        let (g, ids) = chain();
        let mut s = cand(ids);
        s.segments = vec![Segment {
            start: 0,
            end: 1,
            kind: SegmentKind::Merge { as_cache: false },
        }];
        let verdict = verify(&g, &s);
        assert!(!verdict.legal);
        assert_eq!(verdict.violations[0].code, Code::PlanShape);
    }

    #[test]
    fn cache_over_write_then_match_is_rejected() {
        let (g, ids) = chain();
        // Segment [t0, t1, t2]: t0 writes w0, t2 matches w0.
        let mut s = cand(ids);
        s.segments = vec![Segment {
            start: 0,
            end: 3,
            kind: SegmentKind::Cache,
        }];
        let verdict = verify(&g, &s);
        assert!(!verdict.legal);
        assert_eq!(verdict.violations[0].code, Code::CacheUnsafe);
        assert!(verdict.violations[0].message.contains("w0"));
        // The t0..t1 prefix has no internal hazard and is cacheable.
        let mut ok = cand(verdict_order(&g));
        ok.segments = vec![Segment {
            start: 0,
            end: 2,
            kind: SegmentKind::Cache,
        }];
        assert!(verify(&g, &ok).legal);
    }

    fn verdict_order(g: &ProgramGraph) -> Vec<NodeId> {
        // The chain's original order by construction.
        let mut ids: Vec<NodeId> = g.iter_nodes().map(|n| n.id).collect();
        ids.sort_by_key(|n| n.index());
        ids
    }

    #[test]
    fn merge_with_match_raw_is_rejected() {
        let (g, ids) = chain();
        // t0 writes w0 which t2 matches: their match keys are entangled.
        let mut s = cand(vec![ids[0], ids[1], ids[2]]);
        s.segments = vec![Segment {
            start: 0,
            end: 3,
            kind: SegmentKind::Merge { as_cache: false },
        }];
        let verdict = verify(&g, &s);
        assert!(!verdict.legal);
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.code == Code::MergeUnsafe));
    }

    #[test]
    fn waw_pair_merges_but_does_not_reorder() {
        // Two tables writing the same field: merge keeps primitive order
        // (legal), reorder does not (illegal). Pins the audited hierarchy.
        let mut b = ProgramBuilder::new();
        let fa = b.field("a");
        let fb = b.field("b");
        let fw = b.field("w");
        let t0 = b
            .table("t0")
            .key(fa, MatchKind::Exact)
            .action("w", vec![Primitive::set(fw, 1)])
            .finish();
        let t1 = b
            .table("t1")
            .key(fb, MatchKind::Exact)
            .action("w", vec![Primitive::set(fw, 2)])
            .finish();
        let g = b.seal_sequential().unwrap();
        let mut merge = cand(vec![t0, t1]);
        merge.segments = vec![Segment {
            start: 0,
            end: 2,
            kind: SegmentKind::Merge { as_cache: true },
        }];
        assert!(verify(&g, &merge).legal);
        let swap = verify(&g, &cand(vec![t1, t0]));
        assert!(!swap.legal);
        assert_eq!(swap.violations[0].code, Code::ReorderHazard);
    }

    #[test]
    fn as_cache_merge_needs_exact_keys() {
        let mut b = ProgramBuilder::new();
        let fa = b.field("a");
        let fb = b.field("b");
        let t0 = b.table("t0").key(fa, MatchKind::Ternary).finish();
        let t1 = b.table("t1").key(fb, MatchKind::Exact).finish();
        let g = b.seal_sequential().unwrap();
        let mut s = cand(vec![t0, t1]);
        s.segments = vec![Segment {
            start: 0,
            end: 2,
            kind: SegmentKind::Merge { as_cache: true },
        }];
        let verdict = verify(&g, &s);
        assert!(!verdict.legal);
        assert!(verdict.violations[0].message.contains("all-exact"));
        // The plain ternary merge of the same pair is fine.
        s.segments[0].kind = SegmentKind::Merge { as_cache: false };
        assert!(verify(&g, &s).legal);
    }

    #[test]
    fn members_across_branch_arms_are_non_contiguous() {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let fl = b.field("l");
        let fr = b.field("r");
        let join = b.table("join").key(x, MatchKind::Exact).finish();
        b.set_next(join, None);
        let l = b.table("l").key(fl, MatchKind::Exact).finish();
        b.set_next(l, Some(join));
        let r = b.table("r").key(fr, MatchKind::Exact).finish();
        b.set_next(r, Some(join));
        let br = b.branch("br", Condition::lt(x, 500), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        // l and r sit on different arms: no single chain contains both.
        let verdict = verify(&g, &cand(vec![l, r]));
        assert!(!verdict.legal);
        assert_eq!(verdict.violations[0].code, Code::NonContiguous);
    }

    fn diamond() -> (ProgramGraph, NodeId, Vec<NodeId>) {
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let fl = b.field("l");
        let fr = b.field("r");
        let join = b.table("join").key(x, MatchKind::Exact).finish();
        b.set_next(join, None);
        let l = b.table("l").key(fl, MatchKind::Exact).finish();
        b.set_next(l, Some(join));
        let r = b.table("r").key(fr, MatchKind::Exact).finish();
        b.set_next(r, Some(join));
        let br = b.branch("br", Condition::lt(x, 500), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        (g, br, vec![l, r, join])
    }

    #[test]
    fn group_cache_over_clean_diamond_is_legal() {
        let (g, br, members) = diamond();
        let s = Candidate {
            group_branch: Some(br),
            ..cand(members)
        };
        let verdict = verify(&g, &s);
        assert!(verdict.legal, "{}", verdict.render());
    }

    #[test]
    fn group_arm_writing_join_match_field_is_rejected() {
        // l writes x, join matches x: the entry key no longer determines
        // the join outcome on the left arm.
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let fl = b.field("l");
        let fr = b.field("r");
        let join = b.table("join").key(x, MatchKind::Exact).finish();
        b.set_next(join, None);
        let l = b
            .table("l")
            .key(fl, MatchKind::Exact)
            .action("clobber", vec![Primitive::set(x, 7)])
            .finish();
        b.set_next(l, Some(join));
        let r = b.table("r").key(fr, MatchKind::Exact).finish();
        b.set_next(r, Some(join));
        let br = b.branch("br", Condition::lt(x, 500), Some(l), Some(r));
        let g = b.seal(br).unwrap();
        let s = Candidate {
            group_branch: Some(br),
            ..cand(vec![l, r, join])
        };
        let verdict = verify(&g, &s);
        assert!(!verdict.legal);
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.code == Code::CacheUnsafe && v.message.contains('x')));
    }

    #[test]
    fn group_with_partial_member_coverage_is_rejected() {
        let (g, br, members) = diamond();
        // Claim only one arm + join: the other arm's table is then a
        // non-member between the branch and the exit on its path.
        let s = Candidate {
            group_branch: Some(br),
            ..cand(vec![members[0], members[2]])
        };
        let verdict = verify(&g, &s);
        assert!(!verdict.legal, "{}", verdict.render());
        assert!(verdict
            .violations
            .iter()
            .any(|v| v.code == Code::NonContiguous));
    }

    #[test]
    fn verdicts_are_deterministic() {
        let (g, ids) = chain();
        let bad = cand(vec![ids[2], ids[1], ids[0]]);
        let v1 = verify(&g, &bad);
        let v2 = verify(&g, &bad);
        assert_eq!(v1, v2);
        let verifier = PlanVerifier::new(&g);
        assert_eq!(verifier.verify(&g, &bad), v1);
    }

    #[test]
    fn verdict_renders_each_violation() {
        let (g, ids) = chain();
        let verdict = verify(&g, &cand(vec![ids[2], ids[0], ids[1]]));
        let text = verdict.render();
        assert!(text.contains("error[PV102]"));
        assert!(verify(&g, &cand(ids)).render().contains("no violations"));
    }
}
