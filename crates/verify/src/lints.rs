//! Program lints: a dataflow walk over the IR DAG emitting `PV0xx`
//! diagnostics.
//!
//! ## Field classification
//!
//! The IR has no explicit header/metadata distinction, so the lints use a
//! naming convention ([`META_PREFIXES`]): fields whose names start with
//! `meta.`, `tmp.`, `local.` or `scratch.` are *metadata* — undefined
//! until some action writes them. Every other field is assumed
//! parser-defined (a header) and therefore initialized at the root. This
//! keeps the lints quiet on the workspace's existing programs, which use
//! bare header-style names.
//!
//! ## The must-write dataflow (PV001)
//!
//! `PV001` flags reads of metadata fields that are not written on *every*
//! root-to-node path. We compute, per node, the intersection over all
//! incoming paths of the guaranteed write sets (headers seeded at the
//! root; a table's guaranteed writes are the intersection over all of its
//! actions' write sets, since any action — including the default — may
//! run). The analysis is conservative: a path that drops the packet still
//! counts, so some reported reads may be dynamically unreachable.

use crate::{Code, Diagnostic};
use pipeleon_cost::params::CostParams;
use pipeleon_cost::resources::ResourceModel;
use pipeleon_ir::{CacheRole, Node, NodeKind, ProgramGraph, Table};

/// Field-name prefixes classified as metadata (uninitialized until
/// written). Everything else counts as parser-defined header state.
const META_PREFIXES: [&str; 4] = ["meta.", "tmp.", "local.", "scratch."];

fn is_meta(name: &str) -> bool {
    META_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// A dense bitset over the program's interned fields.
#[derive(Clone, PartialEq)]
struct FieldSet(Vec<u64>);

impl FieldSet {
    fn empty(len: usize) -> Self {
        FieldSet(vec![0; len.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn union_with(&mut self, other: &FieldSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn intersect_with(&mut self, other: &FieldSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }
}

fn node_label(n: &Node) -> String {
    match &n.kind {
        NodeKind::Table(t) => format!("table `{}` (node {})", t.name, n.id.index()),
        NodeKind::Branch(b) => format!("branch `{}` (node {})", b.name, n.id.index()),
    }
}

fn field_name(g: &ProgramGraph, f: pipeleon_ir::FieldRef) -> String {
    g.fields
        .name(f)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("<field {}>", f.index()))
}

/// The write set a table is *guaranteed* to perform, whichever action
/// fires: the intersection over all actions' write sets.
fn guaranteed_writes(t: &Table, len: usize) -> FieldSet {
    let mut out: Option<FieldSet> = None;
    for a in &t.actions {
        let mut w = FieldSet::empty(len);
        for p in &a.primitives {
            if let Some(f) = p.written_field() {
                w.set(f.index());
            }
        }
        match &mut out {
            None => out = Some(w),
            Some(acc) => acc.intersect_with(&w),
        }
    }
    out.unwrap_or_else(|| FieldSet::empty(len))
}

/// Runs every program lint over `g` and returns the findings in a
/// deterministic order (grouped by pass, then by node id). With a
/// target's cost parameters, the resource lint (PV005) also runs against
/// its memory tiers.
pub fn lint_program(g: &ProgramGraph, params: Option<&CostParams>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nf = g.fields.len();
    let reachable = g.reachable();

    // PV002: unreachable nodes.
    for n in g.iter_nodes() {
        if !reachable[n.id.index()] {
            diags.push(Diagnostic {
                code: Code::Unreachable,
                severity: Code::Unreachable.default_severity(),
                message: format!("{} is unreachable from the program root", node_label(n)),
                context: vec![node_label(n)],
            });
        }
    }

    // Fields written by *some* action anywhere in the program (for PV004).
    let mut written_anywhere = FieldSet::empty(nf);
    for n in g.iter_nodes() {
        if let NodeKind::Table(t) = &n.kind {
            for a in &t.actions {
                for p in &a.primitives {
                    if let Some(f) = p.written_field() {
                        written_anywhere.set(f.index());
                    }
                }
            }
        }
    }

    // Header fields are parser-defined at the root.
    let mut headers = FieldSet::empty(nf);
    for (i, name) in (0..nf).map(|i| (i, g.fields.name(pipeleon_ir::FieldRef(i as u16)))) {
        if let Some(name) = name {
            if !is_meta(name) {
                headers.set(i);
            }
        }
    }

    // Must-write dataflow over the reachable DAG (PV001 / PV004).
    if let Ok(topo) = g.topo_order() {
        let mut ins: Vec<Option<FieldSet>> = vec![None; g.num_nodes()];
        if let Some(root) = g.root() {
            ins[root.index()] = Some(headers.clone());
        }
        for &id in &topo {
            if !reachable[id.index()] {
                continue;
            }
            let Some(n) = g.node(id) else { continue };
            let in_set = match &ins[id.index()] {
                Some(s) => s.clone(),
                None => continue,
            };
            check_node_reads(g, n, &in_set, &written_anywhere, &mut diags);
            let mut out = in_set;
            if let NodeKind::Table(t) = &n.kind {
                out.union_with(&guaranteed_writes(t, nf));
            }
            for t in n.next.targets().into_iter().flatten() {
                match &mut ins[t.index()] {
                    slot @ None => *slot = Some(out.clone()),
                    Some(existing) => existing.intersect_with(&out),
                }
            }
        }
    }

    // Per-table lints: PV003 (dead actions), PV006 (self-conflicting
    // actions), PV007 (shadowed entries).
    for n in g.iter_nodes() {
        let Some(t) = n.as_table() else { continue };
        if t.cache_role != CacheRole::None {
            continue; // synthetic cache tables manage their own actions
        }
        lint_table_actions(n, t, &mut diags, reachable[n.id.index()]);
        lint_table_entries(n, t, &mut diags);
    }

    // PV005: reserved footprint vs the target's fast tier.
    if let Some(params) = params {
        let capacity = params.tiers.sram_capacity_bytes;
        let rm = ResourceModel::new(params.clone());
        for n in g.iter_nodes() {
            let Some(t) = n.as_table() else { continue };
            let reserved = rm.table_memory_reserved(t);
            if reserved > capacity {
                diags.push(Diagnostic {
                    code: Code::TierOverflow,
                    severity: Code::TierOverflow.default_severity(),
                    message: format!(
                        "{} reserves {:.0} bytes, exceeding the fast-tier capacity \
                         of {:.0} bytes on target `{}`",
                        node_label(n),
                        reserved,
                        capacity,
                        params.name
                    ),
                    context: vec![node_label(n)],
                });
            }
        }
    }

    diags
}

/// Checks every read performed at `n` (match keys / branch condition at
/// entry, then action operands in primitive order) against the must-write
/// facts `in_set`.
fn check_node_reads(
    g: &ProgramGraph,
    n: &Node,
    in_set: &FieldSet,
    written_anywhere: &FieldSet,
    diags: &mut Vec<Diagnostic>,
) {
    let mut flagged: Vec<(u16, Code)> = Vec::new();
    let flag = |diags: &mut Vec<Diagnostic>,
                flagged: &mut Vec<(u16, Code)>,
                code: Code,
                f: pipeleon_ir::FieldRef,
                site: String| {
        if flagged.contains(&(f.0, code)) {
            return;
        }
        flagged.push((f.0, code));
        let noun = match code {
            Code::UndefinedBranchField => format!(
                "branch condition reads field `{}`, which no action in the program writes",
                field_name(g, f)
            ),
            _ => format!(
                "field `{}` may be read before it is written",
                field_name(g, f)
            ),
        };
        diags.push(Diagnostic {
            code,
            severity: code.default_severity(),
            message: noun,
            context: vec![site, node_label(n)],
        });
    };

    let entry_reads: Vec<pipeleon_ir::FieldRef> = match &n.kind {
        NodeKind::Table(t) => t.keys.iter().map(|k| k.field).collect(),
        NodeKind::Branch(b) => {
            let mut fs = Vec::new();
            b.condition.read_fields(&mut fs);
            fs
        }
    };
    for f in entry_reads {
        let name = field_name(g, f);
        if !is_meta(&name) || in_set.get(f.index()) {
            continue;
        }
        let is_branch = matches!(n.kind, NodeKind::Branch(_));
        if is_branch && !written_anywhere.get(f.index()) {
            flag(
                diags,
                &mut flagged,
                Code::UndefinedBranchField,
                f,
                format!("condition of {}", node_label(n)),
            );
        } else {
            let site = match &n.kind {
                NodeKind::Table(t) => format!("match key of table `{}`", t.name),
                NodeKind::Branch(b) => format!("condition of branch `{}`", b.name),
            };
            flag(diags, &mut flagged, Code::UninitializedRead, f, site);
        }
    }

    if let NodeKind::Table(t) = &n.kind {
        for a in &t.actions {
            let mut live = in_set.clone();
            for p in &a.primitives {
                if let Some(f) = p.read_field() {
                    let name = field_name(g, f);
                    if is_meta(&name) && !live.get(f.index()) {
                        flag(
                            diags,
                            &mut flagged,
                            Code::UninitializedRead,
                            f,
                            format!("action `{}` of table `{}`", a.name, t.name),
                        );
                    }
                }
                if let Some(f) = p.written_field() {
                    live.set(f.index());
                }
            }
        }
    }
}

/// PV003 (dead actions) and PV006 (write-after-write within one action).
fn lint_table_actions(n: &Node, t: &Table, diags: &mut Vec<Diagnostic>, reachable: bool) {
    // PV006 fires regardless of reachability: the action body itself is
    // self-conflicting.
    for a in &t.actions {
        let mut pending: Vec<u16> = Vec::new();
        for p in &a.primitives {
            if let Some(f) = p.read_field() {
                pending.retain(|&x| x != f.0);
            }
            if let Some(f) = p.written_field() {
                if pending.contains(&f.0) {
                    diags.push(Diagnostic {
                        code: Code::SelfConflictingAction,
                        severity: Code::SelfConflictingAction.default_severity(),
                        message: format!(
                            "action `{}` writes field {} twice without reading it; \
                             the first write is dead",
                            a.name,
                            f.index()
                        ),
                        context: vec![
                            format!("action `{}` of table `{}`", a.name, t.name),
                            node_label(n),
                        ],
                    });
                } else {
                    pending.push(f.0);
                }
            }
        }
    }

    // PV003 only makes sense for populated, reachable program tables.
    if !reachable || t.entries.is_empty() {
        return;
    }
    for (i, a) in t.actions.iter().enumerate() {
        let referenced = i == t.default_action || t.entries.iter().any(|e| e.action == i);
        if !referenced {
            diags.push(Diagnostic {
                code: Code::DeadAction,
                severity: Code::DeadAction.default_severity(),
                message: format!(
                    "action `{}` of table `{}` is never referenced by an entry \
                     or as the default",
                    a.name, t.name
                ),
                context: vec![node_label(n)],
            });
        }
    }
}

/// PV007: entries with identical match values shadow one another.
fn lint_table_entries(n: &Node, t: &Table, diags: &mut Vec<Diagnostic>) {
    for j in 1..t.entries.len() {
        if let Some(i) = (0..j).find(|&i| t.entries[i].matches == t.entries[j].matches) {
            diags.push(Diagnostic {
                code: Code::ShadowedEntry,
                severity: Code::ShadowedEntry.default_severity(),
                message: format!(
                    "entry #{j} of table `{}` duplicates the match values of \
                     entry #{i}; one of them can never fire",
                    t.name
                ),
                context: vec![node_label(n)],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use pipeleon_ir::{Condition, MatchKind, MatchValue, Primitive, ProgramBuilder, TableEntry};

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_is_lint_free() {
        let mut b = ProgramBuilder::named("clean");
        let x = b.field("x");
        b.table("t")
            .key(x, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 1))
            .finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn pv001_flags_uninitialized_metadata_match() {
        let mut b = ProgramBuilder::named("p");
        let m = b.field("meta.class");
        b.table("t").key(m, MatchKind::Exact).finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::UninitializedRead]);
        assert!(diags[0].message.contains("meta.class"));
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn pv001_not_emitted_when_every_path_writes_first() {
        let mut b = ProgramBuilder::named("p");
        let m = b.field("meta.class");
        let x = b.field("x");
        b.table("classify")
            .key(x, MatchKind::Exact)
            .action("set_class", vec![Primitive::set(m, 1)])
            .finish();
        b.table("use").key(m, MatchKind::Exact).finish();
        let g = b.seal_sequential().unwrap();
        assert!(lint_program(&g, None).is_empty());
    }

    #[test]
    fn pv001_fires_when_only_one_action_writes() {
        // `classify` writes meta.class in one action but not the other, so
        // the write is not guaranteed.
        let mut b = ProgramBuilder::named("p");
        let m = b.field("meta.class");
        let x = b.field("x");
        b.table("classify")
            .key(x, MatchKind::Exact)
            .action("set_class", vec![Primitive::set(m, 1)])
            .action_nop("skip")
            .finish();
        b.table("use").key(m, MatchKind::Exact).finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::UninitializedRead]);
    }

    #[test]
    fn pv002_flags_unreachable_table() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let t0 = b.table("t0").key(x, MatchKind::Exact).finish();
        let orphan = b.table("orphan").key(x, MatchKind::Exact).finish();
        b.set_next(t0, None);
        b.set_next(orphan, None);
        let g = b.seal(t0).unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::Unreachable]);
        assert!(diags[0].message.contains("orphan"));
    }

    #[test]
    fn pv003_flags_dead_action() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        b.table("t")
            .key(x, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .action("unused", vec![Primitive::set(x, 9)])
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 1))
            .finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::DeadAction]);
        assert!(diags[0].message.contains("unused"));
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn pv004_flags_branch_over_never_written_meta_field() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let m = b.field("meta.flag");
        let t = b.table("t").key(x, MatchKind::Exact).finish();
        b.set_next(t, None);
        let br = b.branch("check", Condition::eq(m, 1), Some(t), Some(t));
        let g = b.seal(br).unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::UndefinedBranchField]);
        assert!(diags[0].message.contains("meta.flag"));
    }

    #[test]
    fn branch_over_written_meta_field_reports_pv001_not_pv004() {
        // Some action writes meta.flag, but not before the branch runs.
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let m = b.field("meta.flag");
        let t = b
            .table("t")
            .key(x, MatchKind::Exact)
            .action("late_write", vec![Primitive::set(m, 1)])
            .finish();
        b.set_next(t, None);
        let br = b.branch("check", Condition::eq(m, 1), Some(t), Some(t));
        let g = b.seal(br).unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::UninitializedRead]);
    }

    #[test]
    fn pv005_flags_table_exceeding_fast_tier() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        b.table("huge")
            .key(x, MatchKind::Exact)
            .max_entries(1 << 20)
            .finish();
        let g = b.seal_sequential().unwrap();
        let params = CostParams::emulated_nic();
        let diags = lint_program(&g, Some(&params));
        assert_eq!(codes(&diags), vec![Code::TierOverflow]);
        assert!(diags[0].message.contains("fast-tier"));
        // Without a target, the resource lint is silent.
        assert!(lint_program(&g, None).is_empty());
    }

    #[test]
    fn pv006_flags_dead_write_within_action() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let y = b.field("y");
        b.table("t")
            .key(y, MatchKind::Exact)
            .action(
                "double_set",
                vec![Primitive::set(x, 1), Primitive::set(x, 2)],
            )
            .finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::SelfConflictingAction]);
    }

    #[test]
    fn pv006_silent_when_intervening_read_exists() {
        // set x; y = x; set x  — the middle copy reads x, so neither write
        // is dead.
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let y = b.field("y");
        b.table("t")
            .action(
                "ok",
                vec![
                    Primitive::set(x, 1),
                    Primitive::Copy { dst: y, src: x },
                    Primitive::set(x, 2),
                ],
            )
            .finish();
        let g = b.seal_sequential().unwrap();
        assert!(lint_program(&g, None).is_empty());
    }

    #[test]
    fn pv007_flags_duplicate_entries() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        b.table("t")
            .key(x, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(7)], 0))
            .entry(TableEntry::new(vec![MatchValue::Exact(7)], 1))
            .finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::ShadowedEntry]);
    }

    #[test]
    fn action_read_of_uninitialized_meta_is_flagged() {
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let m = b.field("meta.acc");
        b.table("t")
            .key(x, MatchKind::Exact)
            .action("bump", vec![Primitive::add(m, 1)])
            .finish();
        let g = b.seal_sequential().unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::UninitializedRead]);
        assert!(diags[0].context[0].contains("bump"));
    }

    #[test]
    fn diamond_requires_writes_on_both_arms() {
        // branch -> {writes on true arm only} -> join reading meta: the
        // false arm does not write, so the join read is flagged.
        let mut b = ProgramBuilder::named("p");
        let x = b.field("x");
        let m = b.field("meta.class");
        let join = b.table("join").key(m, MatchKind::Exact).finish();
        b.set_next(join, None);
        let wt = b
            .table("wt")
            .action("w", vec![Primitive::set(m, 1)])
            .finish();
        b.set_next(wt, Some(join));
        let wf = b.table("wf").action_nop("skip").finish();
        b.set_next(wf, Some(join));
        let br = b.branch("split", Condition::eq(x, 0), Some(wt), Some(wf));
        let g = b.seal(br).unwrap();
        let diags = lint_program(&g, None);
        assert_eq!(codes(&diags), vec![Code::UninitializedRead]);

        // Making both arms write silences it.
        let mut b = ProgramBuilder::named("p2");
        let x = b.field("x");
        let m = b.field("meta.class");
        let join = b.table("join").key(m, MatchKind::Exact).finish();
        b.set_next(join, None);
        let wt = b
            .table("wt")
            .action("w", vec![Primitive::set(m, 1)])
            .finish();
        b.set_next(wt, Some(join));
        let wf = b
            .table("wf")
            .action("w", vec![Primitive::set(m, 2)])
            .finish();
        b.set_next(wf, Some(join));
        let br = b.branch("split", Condition::eq(x, 0), Some(wt), Some(wf));
        let g = b.seal(br).unwrap();
        assert!(lint_program(&g, None).is_empty());
    }
}
