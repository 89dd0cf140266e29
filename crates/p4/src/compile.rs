//! AST → [`ProgramGraph`] compilation.
//!
//! Tables become table nodes; `if`/`else` become branch nodes; `switch`
//! turns its table into a switch-case (per-action next-hop) node; `exit`
//! wires to the sink. Control statements are compiled right-to-left
//! against a continuation node, exactly mirroring run-to-completion
//! execution order.

use crate::ast::*;
use pipeleon_ir::{
    Action, Condition, FieldSpace, MatchKey, MatchKind, MatchValue, NextHops, NodeId, ProgramGraph,
    Table, TableEntry,
};
use std::collections::HashMap;

/// Compiles a parsed [`Program`] into a validated [`ProgramGraph`].
pub fn compile(ast: &Program) -> Result<ProgramGraph, String> {
    let mut g = ProgramGraph::new(ast.name.clone());
    g.fields = FieldSpace::try_from(ast.fields.as_slice()).map_err(|e| e.to_string())?;
    let field = |g: &ProgramGraph, name: &str| -> Result<pipeleon_ir::FieldRef, String> {
        g.fields
            .get(name)
            .ok_or_else(|| format!("undeclared field {name:?} (add it to `fields …;`)"))
    };

    // Action definitions by name.
    let mut action_defs: HashMap<&str, &ActionDef> = HashMap::new();
    for a in &ast.actions {
        if action_defs.insert(a.name.as_str(), a).is_some() {
            return Err(format!("duplicate action {:?}", a.name));
        }
    }
    let lower_action = |g: &ProgramGraph, def: &ActionDef| -> Result<Action, String> {
        let mut prims = Vec::with_capacity(def.primitives.len());
        for p in &def.primitives {
            prims.push(match p {
                PrimStmt::Set { field: f, value } => pipeleon_ir::Primitive::Set {
                    field: field(g, f)?,
                    value: *value,
                },
                PrimStmt::Add { field: f, delta } => pipeleon_ir::Primitive::Add {
                    field: field(g, f)?,
                    delta: *delta,
                },
                PrimStmt::Sub { field: f, delta } => pipeleon_ir::Primitive::Sub {
                    field: field(g, f)?,
                    delta: *delta,
                },
                PrimStmt::Copy { dst, src } => pipeleon_ir::Primitive::Copy {
                    dst: field(g, dst)?,
                    src: field(g, src)?,
                },
                PrimStmt::Drop => pipeleon_ir::Primitive::Drop,
                PrimStmt::Forward(port) => pipeleon_ir::Primitive::Forward { port: *port },
                PrimStmt::Nop => pipeleon_ir::Primitive::Nop,
            });
        }
        Ok(Action::new(def.name.clone(), prims))
    };

    // Create one node per table definition.
    let mut table_nodes: HashMap<&str, NodeId> = HashMap::new();
    for td in &ast.tables {
        if table_nodes.contains_key(td.name.as_str()) {
            return Err(format!("line {}: duplicate table {:?}", td.line, td.name));
        }
        let mut t = Table::new(td.name.clone());
        t.actions.clear();
        for (fname, kind) in &td.keys {
            t.keys.push(MatchKey {
                field: field(&g, fname)?,
                kind: match kind {
                    KeyKind::Exact => MatchKind::Exact,
                    KeyKind::Lpm => MatchKind::Lpm,
                    KeyKind::Ternary => MatchKind::Ternary,
                    KeyKind::Range => MatchKind::Range,
                },
            });
        }
        for aname in &td.actions {
            let def = action_defs.get(aname.as_str()).ok_or_else(|| {
                format!(
                    "line {}: table {:?} references unknown action {:?}",
                    td.line, td.name, aname
                )
            })?;
            t.actions.push(lower_action(&g, def)?);
        }
        if t.actions.is_empty() {
            return Err(format!(
                "line {}: table {:?} declares no actions",
                td.line, td.name
            ));
        }
        t.default_action = match &td.default_action {
            Some(name) => td.actions.iter().position(|a| a == name).ok_or_else(|| {
                format!(
                    "line {}: default_action {:?} is not in table {:?}'s actions",
                    td.line, name, td.name
                )
            })?,
            None => {
                // P4's implicit NoAction.
                t.actions.push(Action::nop("NoAction"));
                t.actions.len() - 1
            }
        };
        t.max_entries = td.size.map(|s| s as usize);
        for (ei, e) in td.entries.iter().enumerate() {
            if e.keys.len() != t.keys.len() {
                return Err(format!(
                    "line {}: entry {ei} of {:?} has {} key values for {} keys",
                    td.line,
                    td.name,
                    e.keys.len(),
                    t.keys.len()
                ));
            }
            let mut matches = Vec::with_capacity(e.keys.len());
            for (kv, key) in e.keys.iter().zip(&t.keys) {
                matches.push(lower_key_value(*kv, key.kind).map_err(|msg| {
                    format!("line {}: entry {ei} of {:?}: {msg}", td.line, td.name)
                })?);
            }
            let action = td
                .actions
                .iter()
                .position(|a| a == &e.action)
                .ok_or_else(|| {
                    format!(
                        "line {}: entry {ei} of {:?} uses action {:?} not in its actions",
                        td.line, td.name, e.action
                    )
                })?;
            t.entries
                .push(TableEntry::with_priority(matches, action, e.priority));
        }
        let id = g.add_table(t, None);
        table_nodes.insert(td.name.as_str(), id);
    }

    // Compile the control block against the sink continuation.
    let mut ctx = ControlCtx {
        table_nodes,
        applied: HashMap::new(),
        branch_seq: 0,
        tables: &ast.tables,
    };
    let root = compile_stmts(&mut g, &mut ctx, &ast.control, None)?
        .ok_or("control block applies no table or branch")?;
    // Every defined table must be applied exactly once.
    for td in &ast.tables {
        if !ctx.applied.contains_key(td.name.as_str()) {
            return Err(format!(
                "line {}: table {:?} is defined but never applied in control",
                td.line, td.name
            ));
        }
    }
    g.set_root(root);
    g.validate().map_err(|e| e.to_string())?;
    Ok(g)
}

fn lower_key_value(kv: KeyValue, kind: MatchKind) -> Result<MatchValue, String> {
    let mv = match (kv, kind) {
        (KeyValue::Exact(v), MatchKind::Exact) => MatchValue::Exact(v),
        (KeyValue::Exact(v), MatchKind::Ternary) => MatchValue::Ternary {
            value: v,
            mask: u64::MAX,
        },
        (KeyValue::Lpm(value, prefix_len), MatchKind::Lpm) => MatchValue::Lpm { value, prefix_len },
        (KeyValue::Exact(value), MatchKind::Lpm) => MatchValue::Lpm {
            value,
            prefix_len: 64,
        },
        (KeyValue::Ternary(value, mask), MatchKind::Ternary) => MatchValue::Ternary { value, mask },
        (KeyValue::Range(lo, hi), MatchKind::Range) => {
            if lo > hi {
                return Err(format!("empty range {lo}..{hi}"));
            }
            MatchValue::Range { lo, hi }
        }
        (KeyValue::Any, MatchKind::Ternary) => MatchValue::ANY,
        (KeyValue::Any, MatchKind::Lpm) => MatchValue::Lpm {
            value: 0,
            prefix_len: 0,
        },
        (KeyValue::Any, MatchKind::Range) => MatchValue::Range {
            lo: 0,
            hi: u64::MAX,
        },
        (kv, kind) => {
            return Err(format!(
                "key value {kv:?} is incompatible with a {kind:?} key"
            ))
        }
    };
    Ok(mv)
}

struct ControlCtx<'a> {
    table_nodes: HashMap<&'a str, NodeId>,
    applied: HashMap<String, usize>,
    branch_seq: usize,
    tables: &'a [TableDef],
}

/// Compiles a statement list; returns the entry node (None = the list is
/// empty or starts by exiting, i.e. flows straight to `cont`/sink).
fn compile_stmts(
    g: &mut ProgramGraph,
    ctx: &mut ControlCtx<'_>,
    stmts: &[Stmt],
    cont: Option<NodeId>,
) -> Result<Option<NodeId>, String> {
    let mut next = cont;
    for (i, stmt) in stmts.iter().enumerate().rev() {
        if matches!(stmt, Stmt::Exit) && i + 1 != stmts.len() {
            return Err("unreachable statements after `exit`".into());
        }
        next = compile_stmt(g, ctx, stmt, next)?;
    }
    Ok(next)
}

fn compile_stmt(
    g: &mut ProgramGraph,
    ctx: &mut ControlCtx<'_>,
    stmt: &Stmt,
    cont: Option<NodeId>,
) -> Result<Option<NodeId>, String> {
    match stmt {
        Stmt::Exit => Ok(None),
        Stmt::Apply(name) => {
            let id = apply_table(g, ctx, name)?;
            g.node_mut(id).expect("table exists").next = NextHops::Always(cont);
            Ok(Some(id))
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            let on_true = compile_stmts(g, ctx, then_block, cont)?.or(cont);
            let on_false = compile_stmts(g, ctx, else_block, cont)?.or(cont);
            // `exit` arms compile to None, which is exactly the sink.
            let on_true = if then_block.last() == Some(&Stmt::Exit) {
                compile_exit_arm(then_block, on_true)
            } else {
                on_true
            };
            let on_false = if else_block.last() == Some(&Stmt::Exit) {
                compile_exit_arm(else_block, on_false)
            } else {
                on_false
            };
            let name = format!("if{}", ctx.branch_seq);
            ctx.branch_seq += 1;
            let id = g.add_branch(
                pipeleon_ir::Branch {
                    name,
                    condition: lower_cond(g, cond)?,
                },
                on_true,
                on_false,
            );
            Ok(Some(id))
        }
        Stmt::Switch { table, arms } => {
            let id = apply_table(g, ctx, table)?;
            let actions: Vec<String> = g
                .node(id)
                .and_then(|n| n.as_table())
                .map(|t| t.actions.iter().map(|a| a.name.clone()).collect())
                .unwrap_or_default();
            let mut targets: Vec<Option<NodeId>> = vec![cont; actions.len()];
            for (arm_action, block) in arms {
                let slot = actions
                    .iter()
                    .position(|a| a == arm_action)
                    .ok_or_else(|| {
                        format!("switch on {table:?}: arm {arm_action:?} is not one of its actions")
                    })?;
                let arm_entry = compile_stmts(g, ctx, block, cont)?;
                targets[slot] = if block.last() == Some(&Stmt::Exit) && arm_entry.is_none() {
                    None
                } else {
                    arm_entry.or(cont)
                };
            }
            g.node_mut(id).expect("table exists").next = NextHops::ByAction(targets);
            Ok(Some(id))
        }
    }
}

/// An arm ending in `exit` whose preceding statements compiled to a chain:
/// the chain already flows to the sink; an arm that is *only* `exit`
/// compiled to None and must stay None (the sink), not fall back to cont.
fn compile_exit_arm(block: &[Stmt], compiled: Option<NodeId>) -> Option<NodeId> {
    if block.len() == 1 {
        None
    } else {
        compiled
    }
}

fn apply_table(g: &ProgramGraph, ctx: &mut ControlCtx<'_>, name: &str) -> Result<NodeId, String> {
    let _ = g;
    let id = *ctx.table_nodes.get(name).ok_or_else(|| {
        let known: Vec<&str> = ctx.tables.iter().map(|t| t.name.as_str()).collect();
        format!("control applies unknown table {name:?} (defined: {known:?})")
    })?;
    let count = ctx.applied.entry(name.to_owned()).or_insert(0);
    *count += 1;
    if *count > 1 {
        return Err(format!(
            "table {name:?} is applied more than once; P4-lite tables are single-use"
        ));
    }
    Ok(id)
}

fn lower_cond(g: &ProgramGraph, c: &Cond) -> Result<Condition, String> {
    let field = |name: &str| {
        g.fields
            .get(name)
            .ok_or_else(|| format!("undeclared field {name:?} in condition"))
    };
    let op = |o: CmpOp| match o {
        CmpOp::Eq => pipeleon_ir::CmpOp::Eq,
        CmpOp::Ne => pipeleon_ir::CmpOp::Ne,
        CmpOp::Lt => pipeleon_ir::CmpOp::Lt,
        CmpOp::Le => pipeleon_ir::CmpOp::Le,
        CmpOp::Gt => pipeleon_ir::CmpOp::Gt,
        CmpOp::Ge => pipeleon_ir::CmpOp::Ge,
    };
    Ok(match c {
        Cond::Compare {
            field: f,
            op: o,
            value,
        } => Condition::Compare {
            field: field(f)?,
            op: op(*o),
            value: *value,
        },
        Cond::CompareFields { lhs, op: o, rhs } => Condition::CompareFields {
            lhs: field(lhs)?,
            op: op(*o),
            rhs: field(rhs)?,
        },
        Cond::And(a, b) => Condition::And(Box::new(lower_cond(g, a)?), Box::new(lower_cond(g, b)?)),
        Cond::Or(a, b) => Condition::Or(Box::new(lower_cond(g, a)?), Box::new(lower_cond(g, b)?)),
        Cond::Not(a) => Condition::Not(Box::new(lower_cond(g, a)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn build(src: &str) -> Result<ProgramGraph, String> {
        compile(&parse(src)?)
    }

    const LINEAR: &str = r#"
        program linear;
        fields a, b;
        action bump() { b = b + 1; }
        action deny() { drop; }
        table t1 { key = { a: exact; } actions = { bump; } const entries = { (1) : bump; } }
        table t2 { key = { b: exact; } actions = { deny; } default_action = deny; }
        control { t1; t2; }
    "#;

    #[test]
    fn linear_program_compiles_and_wires() {
        let g = build(LINEAR).unwrap();
        g.validate().unwrap();
        assert_eq!(g.tables().count(), 2);
        let root = g.root().unwrap();
        assert_eq!(g.node(root).unwrap().name(), "t1");
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 2);
        // Implicit NoAction default was added to t1 (no default_action).
        let t1 = g.node(root).unwrap().as_table().unwrap();
        assert_eq!(t1.actions.last().unwrap().name, "NoAction");
        assert_eq!(t1.default_action, t1.actions.len() - 1);
    }

    #[test]
    fn if_else_builds_branch() {
        let g = build(
            r#"program br; fields a;
               action n() { }
               table t1 { key = { a: exact; } actions = { n; } }
               table t2 { key = { a: exact; } actions = { n; } }
               control { if (a < 10) { t1; } else { t2; } }"#,
        )
        .unwrap();
        let root = g.root().unwrap();
        let b = g.node(root).unwrap();
        assert!(b.as_branch().is_some());
        match b.next {
            NextHops::Branch { on_true, on_false } => {
                assert_eq!(g.node(on_true.unwrap()).unwrap().name(), "t1");
                assert_eq!(g.node(on_false.unwrap()).unwrap().name(), "t2");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn if_without_else_falls_through() {
        let g = build(
            r#"program br; fields a;
               action n() { }
               table t1 { key = { a: exact; } actions = { n; } }
               table t2 { key = { a: exact; } actions = { n; } }
               control { if (a < 10) { t1; } t2; }"#,
        )
        .unwrap();
        let root = g.root().unwrap();
        match g.node(root).unwrap().next {
            NextHops::Branch { on_true, on_false } => {
                let t1 = on_true.unwrap();
                let t2 = on_false.unwrap();
                assert_eq!(g.node(t2).unwrap().name(), "t2");
                // t1 flows to t2 too.
                assert_eq!(g.node(t1).unwrap().next, NextHops::Always(Some(t2)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn exit_wires_to_sink() {
        let g = build(
            r#"program ex; fields a;
               action n() { }
               table t1 { key = { a: exact; } actions = { n; } }
               table t2 { key = { a: exact; } actions = { n; } }
               control { if (a == 0) { exit; } else { t1; } t2; }"#,
        )
        .unwrap();
        let root = g.root().unwrap();
        match g.node(root).unwrap().next {
            NextHops::Branch { on_true, .. } => assert_eq!(on_true, None),
            _ => unreachable!(),
        }
    }

    #[test]
    fn switch_builds_by_action_table() {
        let g = build(
            r#"program sw; fields a;
               action go() { } action stop() { drop; }
               table classify { key = { a: exact; } actions = { go; stop; }
                                default_action = go; }
               table t2 { key = { a: exact; } actions = { go; } }
               control {
                   switch (classify) {
                       stop: { exit; }
                   }
                   t2;
               }"#,
        )
        .unwrap();
        let root = g.root().unwrap();
        let n = g.node(root).unwrap();
        assert!(n.is_switch_case());
        match &n.next {
            NextHops::ByAction(targets) => {
                // go (no arm) -> t2; stop -> sink.
                assert!(targets[0].is_some());
                assert_eq!(targets[1], None);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn errors_are_helpful() {
        // Undeclared field.
        let e = build(
            "program p; fields a; action n() { } table t { key = { ghost: exact; } actions = { n; } } control { t; }",
        )
        .unwrap_err();
        assert!(e.contains("ghost"), "{e}");
        // Unknown action.
        let e = build(
            "program p; fields a; table t { key = { a: exact; } actions = { nope; } } control { t; }",
        )
        .unwrap_err();
        assert!(e.contains("nope"), "{e}");
        // Unapplied table.
        let e = build(
            "program p; fields a; action n() { } table t { key = { a: exact; } actions = { n; } } table u { key = { a: exact; } actions = { n; } } control { t; }",
        )
        .unwrap_err();
        assert!(e.contains("never applied"), "{e}");
        // Double application.
        let e = build(
            "program p; fields a; action n() { } table t { key = { a: exact; } actions = { n; } } control { t; t; }",
        )
        .unwrap_err();
        assert!(e.contains("more than once"), "{e}");
        // Entry arity.
        let e = build(
            "program p; fields a, b; action n() { } table t { key = { a: exact; b: exact; } actions = { n; } entries = { (1) : n; } } control { t; }",
        )
        .unwrap_err();
        assert!(e.contains("key values"), "{e}");
        // Wildcard in an exact key.
        let e = build(
            "program p; fields a; action n() { } table t { key = { a: exact; } actions = { n; } entries = { (_) : n; } } control { t; }",
        )
        .unwrap_err();
        assert!(e.contains("incompatible"), "{e}");
    }

    /// A `fields` list longer than a `FieldRef` addresses is an error,
    /// returned in well under a second, not a panic in the interner.
    #[test]
    fn too_many_fields_are_rejected() {
        let names: Vec<String> = (0..=u16::MAX as usize).map(|i| format!("f{i}")).collect();
        let src = format!(
            "program p; fields {}; action n() {{ }} table t {{ key = {{ f0: exact; }} actions = {{ n; }} }} control {{ t; }}",
            names.join(", ")
        );
        let start = std::time::Instant::now();
        let e = build(&src).unwrap_err();
        assert!(e.contains("field names"), "{e}");
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
    }

    #[test]
    fn compiled_program_runs_on_the_simulator() {
        use pipeleon_cost::CostParams;
        use pipeleon_sim::{Packet, SmartNic};
        let g = build(
            r#"program runme;
               fields ip.dst, acl.key, meta.mark;
               action deny() { drop; }
               action mark() { meta.mark = 7; }
               action out() { fwd(4); }
               table acl {
                   key = { acl.key: exact; }
                   actions = { deny; }
                   const entries = { (13) : deny; }
               }
               table classify {
                   key = { ip.dst: lpm; }
                   actions = { mark; }
                   const entries = { (0xAB00000000000000/8) : mark; }
               }
               table route {
                   key = { ip.dst: exact; }
                   actions = { out; }
                   default_action = out;
               }
               control {
                   acl;
                   if (acl.key != 13) { classify; }
                   route;
               }"#,
        )
        .unwrap();
        let mut nic = SmartNic::new(g.clone(), CostParams::emulated_nic()).unwrap();
        // A denied packet.
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("acl.key").unwrap(), 13);
        assert!(nic.process_one(&mut p).dropped);
        // A marked + routed packet.
        let mut p = Packet::new(&g.fields);
        p.set(g.fields.get("ip.dst").unwrap(), 0xAB00_0000_0000_0001);
        let r = nic.process_one(&mut p);
        assert!(!r.dropped);
        assert_eq!(p.get(g.fields.get("meta.mark").unwrap()), 7);
        assert_eq!(p.egress_port, Some(4));
    }

    #[test]
    fn round_trips_through_json() {
        let g = build(LINEAR).unwrap();
        let s = pipeleon_ir::json::to_json_string(&g).unwrap();
        let g2 = pipeleon_ir::json::from_json_string(&s).unwrap();
        assert_eq!(pipeleon_ir::json::to_json_string(&g2).unwrap(), s);
    }
}
