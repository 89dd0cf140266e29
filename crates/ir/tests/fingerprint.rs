//! `json::fingerprint` agrees with the canonical text: over the scenario
//! programs and synthesized ones, two programs have equal fingerprints
//! exactly when their `to_json_string` texts are equal.

use pipeleon_ir::json::{fingerprint, from_json_string, to_json_string};
use pipeleon_ir::{
    CacheRole, CmpOp, Condition, FieldRef, FieldSpace, MatchValue, NextHops, NodeId, NodeKind,
    Primitive, ProgramGraph, Table, WireBinding,
};
use pipeleon_workloads::scenarios::{
    AclPipeline, DashRouting, L2L3Acl, LoadBalancer, NfComposition, SkewedPipeline,
};
use pipeleon_workloads::synth::{synthesize, synthesize_diamonds, SynthConfig};

const SYNTH_SEEDS: u64 = 32;

fn programs() -> Vec<ProgramGraph> {
    let mut out = vec![
        LoadBalancer::build().graph,
        DashRouting::build().graph,
        L2L3Acl::build().graph,
        NfComposition::build().graph,
        AclPipeline::build(3, 3).graph,
        SkewedPipeline::build(2, 3).graph,
    ];
    for seed in 0..SYNTH_SEEDS {
        let cfg = SynthConfig {
            seed,
            ..SynthConfig::default()
        };
        out.push(synthesize(&cfg));
        out.push(synthesize_diamonds(&cfg));
    }
    out
}

/// The reachable nodes, in id order.
fn reachable(g: &ProgramGraph) -> Vec<NodeId> {
    let reach = g.reachable();
    g.iter_nodes()
        .map(|n| n.id)
        .filter(|id| reach[id.index()])
        .collect()
}

/// The first reachable table `pick` accepts, mutably.
fn table_where(g: &mut ProgramGraph, pick: impl Fn(&Table) -> bool) -> Option<&mut Table> {
    let id = reachable(g)
        .into_iter()
        .find(|&id| g.node(id).unwrap().as_table().is_some_and(&pick))?;
    g.node_mut(id).unwrap().as_table_mut()
}

/// The first `field <op> value` inside a condition.
fn first_compare(c: &mut Condition) -> Option<(&mut CmpOp, &mut u64)> {
    match c {
        Condition::Compare { op, value, .. } => Some((op, value)),
        Condition::And(a, b) | Condition::Or(a, b) => first_compare(a).or_else(|| first_compare(b)),
        Condition::Not(a) => first_compare(a),
        Condition::True | Condition::CompareFields { .. } => None,
    }
}

fn first_branch_condition(g: &mut ProgramGraph) -> Option<&mut Condition> {
    let id = reachable(g)
        .into_iter()
        .find(|&id| g.node(id).unwrap().as_branch().is_some())?;
    match &mut g.node_mut(id).unwrap().kind {
        NodeKind::Branch(b) => Some(&mut b.condition),
        NodeKind::Table(_) => None,
    }
}

fn bump_match(m: &mut MatchValue) {
    match m {
        MatchValue::Exact(v) => *v ^= 1,
        MatchValue::Lpm { value, .. } => *value ^= 1,
        MatchValue::Ternary { value, .. } => *value ^= 1,
        MatchValue::Range { lo, hi } => *hi = hi.wrapping_add(1).max(*lo),
    }
}

fn bump_primitive(p: &mut Primitive) {
    *p = match *p {
        Primitive::Set { field, value } => Primitive::Set {
            field,
            value: value ^ 1,
        },
        Primitive::Add { field, delta } => Primitive::Add {
            field,
            delta: delta ^ 1,
        },
        Primitive::Sub { field, delta } => Primitive::Sub {
            field,
            delta: delta ^ 1,
        },
        Primitive::Copy { dst, src } => Primitive::Copy { dst: src, src: dst },
        Primitive::Forward { port } => Primitive::Forward { port: port ^ 1 },
        Primitive::Drop => Primitive::Nop,
        Primitive::Nop => Primitive::Drop,
    };
}

/// The program with one field renamed; every reference keeps its slot.
fn rename_field(g: &ProgramGraph, slot: usize) -> ProgramGraph {
    let mut fields = FieldSpace::new();
    for (f, name) in g.fields.iter() {
        if f.index() == slot {
            fields.intern(&format!("{name}.renamed"));
        } else {
            fields.intern(name);
        }
    }
    let mut m = g.clone();
    m.fields = fields;
    m
}

/// Every single mutation the fingerprint must see, by name. A mutation
/// a program offers no site for is left out.
fn mutants(g: &ProgramGraph) -> Vec<(&'static str, ProgramGraph)> {
    let mut out = Vec::new();
    let mut m = g.clone();
    if let Some(t) = table_where(&mut m, |t| !t.entries.is_empty() && !t.keys.is_empty()) {
        bump_match(&mut t.entries[0].matches[0]);
        out.push(("entry value", m));
    }
    let mut m = g.clone();
    if let Some(t) = table_where(&mut m, |t| !t.entries.is_empty()) {
        t.entries[0].priority += 1;
        out.push(("entry priority", m));
    }
    let mut m = g.clone();
    if let Some(t) = table_where(&mut m, |t| {
        t.actions.iter().any(|a| !a.primitives.is_empty())
    }) {
        let a = t
            .actions
            .iter_mut()
            .find(|a| !a.primitives.is_empty())
            .unwrap();
        bump_primitive(&mut a.primitives[0]);
        out.push(("primitive", m));
    }
    let mut m = g.clone();
    if let Some(t) = table_where(&mut m, |t| t.actions.len() > 1) {
        t.default_action = (t.default_action + 1) % t.actions.len();
        out.push(("default action", m));
    }
    let mut m = g.clone();
    let hop = reachable(&m).into_iter().find(|&id| {
        let n = m.node(id).unwrap();
        n.as_table().is_some() && n.next.targets().iter().any(Option::is_some)
    });
    if let Some(id) = hop {
        let next = &mut m.node_mut(id).unwrap().next;
        match next {
            NextHops::Always(t) => *t = None,
            NextHops::ByAction(v) => *v.iter_mut().find(|t| t.is_some()).unwrap() = None,
            NextHops::Branch { .. } => unreachable!("a table's next hops"),
        }
        out.push(("next hop", m));
    }
    let mut m = g.clone();
    if let Some((op, _)) = first_branch_condition(&mut m).and_then(first_compare) {
        *op = if *op == CmpOp::Eq {
            CmpOp::Ne
        } else {
            CmpOp::Eq
        };
        out.push(("branch op", m));
    }
    let mut m = g.clone();
    if let Some((_, value)) = first_branch_condition(&mut m).and_then(first_compare) {
        *value ^= 1;
        out.push(("branch constant", m));
    }
    let mut m = g.clone();
    if let Some(t) = table_where(&mut m, |t| t.cache_role == CacheRole::None) {
        t.cache_role = CacheRole::FlowCache;
        out.push(("cache role", m));
    }
    let mut m = g.clone();
    if let Some(t) = table_where(&mut m, |_| true) {
        t.max_entries = Some(t.max_entries.unwrap_or(t.entries.len()) + 1);
        out.push(("max_entries", m));
    }
    if !g.fields.is_empty() {
        out.push(("field name", rename_field(g, g.fields.len() - 1)));
    }
    let mut m = g.clone();
    let field = g.fields.name(FieldRef(0)).unwrap().to_owned();
    match m.wire.first_mut() {
        Some(b) => b.wire.push_str(".moved"),
        None => m.wire.push(WireBinding {
            wire: "ipv4.dst".into(),
            field,
        }),
    }
    out.push(("wire binding", m));
    let mut m = g.clone();
    m.name.push_str(".renamed");
    out.push(("program name", m));
    out
}

#[test]
fn equal_fingerprints_exactly_when_equal_texts() {
    let mut sites = std::collections::BTreeMap::<&str, usize>::new();
    for g in programs() {
        let mut all = vec![("unmutated", g.clone())];
        all.extend(mutants(&g));
        let seen: Vec<(&str, String, u64)> = all
            .iter()
            .map(|(what, m)| {
                *sites.entry(what).or_default() += 1;
                let text = to_json_string(m).unwrap_or_else(|e| panic!("{}: {what}: {e}", g.name));
                (*what, text, fingerprint(m).unwrap())
            })
            .collect();
        for (i, (a, text_a, fp_a)) in seen.iter().enumerate() {
            for (b, text_b, fp_b) in &seen[i + 1..] {
                assert_eq!(
                    fp_a == fp_b,
                    text_a == text_b,
                    "{}: {a} vs {b}: fingerprints {fp_a:016x} / {fp_b:016x}",
                    g.name
                );
            }
        }
        // Every mutation moves the text, so by the check above it moves
        // the fingerprint too.
        for (what, text, _) in &seen[1..] {
            assert_ne!(text, &seen[0].1, "{}: {what} changed nothing", g.name);
        }
    }
    // Each mutation found a site in some program.
    for what in [
        "entry value",
        "entry priority",
        "primitive",
        "default action",
        "next hop",
        "branch op",
        "branch constant",
        "cache role",
        "max_entries",
        "field name",
        "wire binding",
        "program name",
    ] {
        assert!(
            sites.get(what).is_some_and(|&n| n > 0),
            "no site for {what}"
        );
    }
}

#[test]
fn a_json_round_trip_keeps_the_fingerprint() {
    for g in programs() {
        let back = from_json_string(&to_json_string(&g).unwrap()).unwrap();
        assert_eq!(
            fingerprint(&back).unwrap(),
            fingerprint(&g).unwrap(),
            "{}",
            g.name
        );
    }
}

#[test]
fn an_unreachable_node_leaves_the_fingerprint_alone() {
    for g in programs() {
        let mut m = g.clone();
        let orphan = m.add_table(Table::new("orphan"), None);
        assert!(!m.reachable()[orphan.index()]);
        assert_eq!(to_json_string(&m).unwrap(), to_json_string(&g).unwrap());
        assert_eq!(
            fingerprint(&m).unwrap(),
            fingerprint(&g).unwrap(),
            "{}",
            g.name
        );
    }
}

#[test]
fn duplicate_reachable_names_fail_like_the_export() {
    for g in programs() {
        let ids = reachable(&g);
        if ids.len() < 2 {
            continue;
        }
        let mut m = g.clone();
        let taken = m.node(ids[0]).unwrap().name().to_owned();
        match &mut m.node_mut(ids[1]).unwrap().kind {
            NodeKind::Table(t) => t.name = taken,
            NodeKind::Branch(b) => b.name = taken,
        }
        assert!(to_json_string(&m).is_err(), "{}", g.name);
        assert!(fingerprint(&m).is_err(), "{}", g.name);
    }
    // The same name on an unreachable node is not a duplicate.
    let g = LoadBalancer::build().graph;
    let mut m = g.clone();
    let taken = m.node(reachable(&g)[0]).unwrap().name().to_owned();
    m.add_table(Table::new(taken), None);
    assert_eq!(fingerprint(&m).unwrap(), fingerprint(&g).unwrap());
}
