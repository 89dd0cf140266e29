//! BMv2-style JSON round-tripping.
//!
//! Pipeleon is a source-to-source pass over the P4 compiler's intermediate
//! `.json` representation (paper §5.1). This module defines a compact
//! BMv2-flavoured schema — named tables/conditionals with `next_tables`
//! references by name — and converts it to and from [`ProgramGraph`].
//!
//! The schema is deliberately name-based (like BMv2's) rather than
//! id-based so that files are diffable and stable under optimizer rewrites.

use crate::expr::{CmpOp, Condition};
use crate::graph::{Branch, NextHops, NodeKind, ProgramGraph, WireBinding};
use crate::table::{
    Action, CacheRole, MatchKey, MatchKind, MatchValue, Primitive, Table, TableEntry,
};
use crate::types::{FieldSpace, IrError, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Top-level JSON document.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct JsonProgram {
    /// Program name.
    pub name: String,
    /// Header fields, in slot order.
    pub fields: Vec<String>,
    /// The entry node's name.
    pub init_node: String,
    /// Match/action tables.
    pub tables: Vec<JsonTable>,
    /// Conditional branches.
    pub conditionals: Vec<JsonConditional>,
    /// Wire contract: program fields carried in physical frame header
    /// fields when the program is served over sockets (see the net
    /// crate's `FieldMap`). Omitted when empty, so programs without a
    /// contract serialize exactly as before.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub wire: Vec<WireBinding>,
}

/// A table in the JSON schema.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct JsonTable {
    /// Table name (must be unique across tables and conditionals).
    pub name: String,
    /// Key components.
    pub keys: Vec<JsonKey>,
    /// Actions.
    pub actions: Vec<JsonAction>,
    /// Name of the default action.
    pub default_action: String,
    /// Installed entries.
    #[serde(default)]
    pub entries: Vec<JsonEntry>,
    /// Capacity, if bounded.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_entries: Option<usize>,
    /// Cache role for synthetic tables; omitted = plain table.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cache_role: Option<String>,
    /// Next node per action name (switch-case), or a single `"__always__"`
    /// key (straight-line). `null` targets mean the program sink.
    pub next_tables: BTreeMap<String, Option<String>>,
}

/// One key component.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct JsonKey {
    /// Field name (must appear in `fields`).
    pub field: String,
    /// `"exact" | "lpm" | "ternary" | "range"`.
    pub match_type: String,
}

/// One action.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct JsonAction {
    /// Action name (unique within the table).
    pub name: String,
    /// Primitive operations.
    pub primitives: Vec<JsonPrimitive>,
}

/// One primitive operation.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
#[allow(missing_docs)] // field names mirror the JSON schema directly
pub enum JsonPrimitive {
    /// `field = value`
    Set { field: String, value: u64 },
    /// `field += delta`
    Add { field: String, delta: u64 },
    /// `field -= delta`
    Sub { field: String, delta: u64 },
    /// `dst = src`
    Copy { dst: String, src: String },
    /// Drop the packet.
    Drop {},
    /// Set egress port.
    Forward { port: u32 },
    /// Cost-only no-op.
    Nop {},
}

/// One table entry.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct JsonEntry {
    /// Per-key match values.
    pub matches: Vec<JsonMatchValue>,
    /// Action name.
    pub action: String,
    /// Priority (ternary/range).
    #[serde(default)]
    pub priority: i32,
}

/// One match value.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
#[allow(missing_docs)] // field names mirror the JSON schema directly
pub enum JsonMatchValue {
    /// Exact value.
    Exact { value: u64 },
    /// Prefix match.
    Lpm { value: u64, prefix_len: u8 },
    /// Value/mask match.
    Ternary { value: u64, mask: u64 },
    /// Interval match.
    Range { lo: u64, hi: u64 },
}

/// A conditional in the JSON schema.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct JsonConditional {
    /// Branch name (shares the namespace with tables).
    pub name: String,
    /// Condition expression.
    pub expression: JsonCondition,
    /// Target when true (`null` = sink).
    pub true_next: Option<String>,
    /// Target when false (`null` = sink).
    pub false_next: Option<String>,
}

/// Condition expression tree.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
#[allow(missing_docs)] // field names mirror the JSON schema directly
pub enum JsonCondition {
    /// Constant true.
    True {},
    /// `field <op> value`
    Compare {
        field: String,
        op: String,
        value: u64,
    },
    /// `lhs <op> rhs`
    CompareFields {
        lhs: String,
        op: String,
        rhs: String,
    },
    /// Conjunction.
    And {
        a: Box<JsonCondition>,
        b: Box<JsonCondition>,
    },
    /// Disjunction.
    Or {
        a: Box<JsonCondition>,
        b: Box<JsonCondition>,
    },
    /// Negation.
    Not { a: Box<JsonCondition> },
}

const ALWAYS_KEY: &str = "__always__";

fn kind_to_str(k: MatchKind) -> &'static str {
    match k {
        MatchKind::Exact => "exact",
        MatchKind::Lpm => "lpm",
        MatchKind::Ternary => "ternary",
        MatchKind::Range => "range",
    }
}

fn kind_from_str(s: &str) -> Result<MatchKind, IrError> {
    match s {
        "exact" => Ok(MatchKind::Exact),
        "lpm" => Ok(MatchKind::Lpm),
        "ternary" => Ok(MatchKind::Ternary),
        "range" => Ok(MatchKind::Range),
        other => Err(IrError::Json(format!("unknown match_type {other:?}"))),
    }
}

fn op_to_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn op_from_str(s: &str) -> Result<CmpOp, IrError> {
    match s {
        "==" => Ok(CmpOp::Eq),
        "!=" => Ok(CmpOp::Ne),
        "<" => Ok(CmpOp::Lt),
        "<=" => Ok(CmpOp::Le),
        ">" => Ok(CmpOp::Gt),
        ">=" => Ok(CmpOp::Ge),
        other => Err(IrError::Json(format!("unknown comparison op {other:?}"))),
    }
}

fn role_to_str(r: CacheRole) -> Option<String> {
    match r {
        CacheRole::None => None,
        CacheRole::FlowCache => Some("flow_cache".into()),
        CacheRole::MergedCache => Some("merged_cache".into()),
    }
}

fn role_from_str(s: Option<&str>) -> Result<CacheRole, IrError> {
    match s {
        None => Ok(CacheRole::None),
        Some("flow_cache") => Ok(CacheRole::FlowCache),
        Some("merged_cache") => Ok(CacheRole::MergedCache),
        Some(other) => Err(IrError::Json(format!("unknown cache_role {other:?}"))),
    }
}

/// Converts a program graph to the JSON document model.
///
/// Only nodes reachable from the root are emitted; node names must be
/// unique (guaranteed if the program came from [`from_json`] or the
/// builder; duplicate names are rejected).
pub fn to_json(g: &ProgramGraph) -> Result<JsonProgram, IrError> {
    g.validate()?;
    let reach = g.reachable();
    let mut seen: HashSet<&str> = HashSet::new();
    for n in g.iter_nodes().filter(|n| reach[n.id.index()]) {
        if !seen.insert(n.name()) {
            return Err(IrError::Json(format!(
                "duplicate node name {:?}; JSON export requires unique names",
                n.name()
            )));
        }
    }
    // `validate` checked that every edge target is a live node.
    let name = |id: NodeId| -> String { g.node(id).expect("validated").name().to_owned() };
    let name_of = |id: Option<NodeId>| -> Option<String> { id.map(name) };

    let mut tables = Vec::new();
    let mut conditionals = Vec::new();
    for n in g.iter_nodes().filter(|n| reach[n.id.index()]) {
        match &n.kind {
            NodeKind::Table(t) => {
                let mut next_tables = BTreeMap::new();
                match &n.next {
                    NextHops::Always(target) => {
                        next_tables.insert(ALWAYS_KEY.to_owned(), name_of(*target));
                    }
                    NextHops::ByAction(v) => {
                        for (i, target) in v.iter().enumerate() {
                            next_tables.insert(t.actions[i].name.clone(), name_of(*target));
                        }
                    }
                    NextHops::Branch { .. } => {
                        return Err(IrError::Json("table with branch next-hops".into()))
                    }
                }
                tables.push(JsonTable {
                    name: t.name.clone(),
                    keys: t
                        .keys
                        .iter()
                        .map(|k| JsonKey {
                            field: g.fields.name(k.field).unwrap_or("<unknown>").to_owned(),
                            match_type: kind_to_str(k.kind).to_owned(),
                        })
                        .collect(),
                    actions: t.actions.iter().map(|a| action_to_json(g, a)).collect(),
                    default_action: t.actions[t.default_action].name.clone(),
                    entries: t
                        .entries
                        .iter()
                        .map(|e| JsonEntry {
                            matches: e.matches.iter().map(match_value_to_json).collect(),
                            action: t.actions[e.action].name.clone(),
                            priority: e.priority,
                        })
                        .collect(),
                    max_entries: t.max_entries,
                    cache_role: role_to_str(t.cache_role),
                    next_tables,
                });
            }
            NodeKind::Branch(b) => {
                let (on_true, on_false) = match &n.next {
                    NextHops::Branch { on_true, on_false } => (*on_true, *on_false),
                    _ => return Err(IrError::Json("branch without branch next-hops".into())),
                };
                conditionals.push(JsonConditional {
                    name: b.name.clone(),
                    expression: condition_to_json(g, &b.condition),
                    true_next: name_of(on_true),
                    false_next: name_of(on_false),
                });
            }
        }
    }
    let root = g.root().ok_or(IrError::NoRoot)?;
    Ok(JsonProgram {
        name: g.name.clone(),
        fields: g.fields.iter().map(|(_, n)| n.to_owned()).collect(),
        init_node: name(root),
        tables,
        conditionals,
        wire: g.wire.clone(),
    })
}

fn action_to_json(g: &ProgramGraph, a: &Action) -> JsonAction {
    let fname = |f: crate::types::FieldRef| g.fields.name(f).unwrap_or("<unknown>").to_owned();
    JsonAction {
        name: a.name.clone(),
        primitives: a
            .primitives
            .iter()
            .map(|p| match *p {
                Primitive::Set { field, value } => JsonPrimitive::Set {
                    field: fname(field),
                    value,
                },
                Primitive::Add { field, delta } => JsonPrimitive::Add {
                    field: fname(field),
                    delta,
                },
                Primitive::Sub { field, delta } => JsonPrimitive::Sub {
                    field: fname(field),
                    delta,
                },
                Primitive::Copy { dst, src } => JsonPrimitive::Copy {
                    dst: fname(dst),
                    src: fname(src),
                },
                Primitive::Drop => JsonPrimitive::Drop {},
                Primitive::Forward { port } => JsonPrimitive::Forward { port },
                Primitive::Nop => JsonPrimitive::Nop {},
            })
            .collect(),
    }
}

fn match_value_to_json(m: &MatchValue) -> JsonMatchValue {
    match *m {
        MatchValue::Exact(value) => JsonMatchValue::Exact { value },
        MatchValue::Lpm { value, prefix_len } => JsonMatchValue::Lpm { value, prefix_len },
        MatchValue::Ternary { value, mask } => JsonMatchValue::Ternary { value, mask },
        MatchValue::Range { lo, hi } => JsonMatchValue::Range { lo, hi },
    }
}

fn condition_to_json(g: &ProgramGraph, c: &Condition) -> JsonCondition {
    let fname = |f: crate::types::FieldRef| g.fields.name(f).unwrap_or("<unknown>").to_owned();
    match c {
        Condition::True => JsonCondition::True {},
        Condition::Compare { field, op, value } => JsonCondition::Compare {
            field: fname(*field),
            op: op_to_str(*op).to_owned(),
            value: *value,
        },
        Condition::CompareFields { lhs, op, rhs } => JsonCondition::CompareFields {
            lhs: fname(*lhs),
            op: op_to_str(*op).to_owned(),
            rhs: fname(*rhs),
        },
        Condition::And(a, b) => JsonCondition::And {
            a: Box::new(condition_to_json(g, a)),
            b: Box::new(condition_to_json(g, b)),
        },
        Condition::Or(a, b) => JsonCondition::Or {
            a: Box::new(condition_to_json(g, a)),
            b: Box::new(condition_to_json(g, b)),
        },
        Condition::Not(a) => JsonCondition::Not {
            a: Box::new(condition_to_json(g, a)),
        },
    }
}

/// Converts the JSON document model back to a program graph and validates it.
pub fn from_json(doc: &JsonProgram) -> Result<ProgramGraph, IrError> {
    let mut g = ProgramGraph::new(doc.name.clone());
    g.fields = FieldSpace::try_from(doc.fields.as_slice())?;
    // First pass: create all nodes so names can be resolved in any order.
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for t in &doc.tables {
        let id = g.add_table(Table::new(t.name.clone()), None);
        if ids.insert(t.name.clone(), id).is_some() {
            return Err(IrError::Json(format!("duplicate node name {:?}", t.name)));
        }
    }
    for c in &doc.conditionals {
        let id = g.add_branch(
            Branch {
                name: c.name.clone(),
                condition: Condition::True,
            },
            None,
            None,
        );
        if ids.insert(c.name.clone(), id).is_some() {
            return Err(IrError::Json(format!("duplicate node name {:?}", c.name)));
        }
    }
    let resolve = |name: &Option<String>| -> Result<Option<NodeId>, IrError> {
        match name {
            None => Ok(None),
            Some(n) => ids
                .get(n)
                .copied()
                .map(Some)
                .ok_or_else(|| IrError::Json(format!("unknown next node {n:?}"))),
        }
    };

    // Second pass: fill payloads and wire edges.
    for jt in &doc.tables {
        let id = ids[&jt.name];
        let mut table = Table::new(jt.name.clone());
        table.actions.clear();
        for k in &jt.keys {
            let field = g
                .fields
                .get(&k.field)
                .ok_or_else(|| IrError::Json(format!("unknown field {:?}", k.field)))?;
            table.keys.push(MatchKey {
                field,
                kind: kind_from_str(&k.match_type)?,
            });
        }
        for a in &jt.actions {
            table.actions.push(action_from_json(&g, a)?);
        }
        table.default_action = table
            .actions
            .iter()
            .position(|a| a.name == jt.default_action)
            .ok_or_else(|| {
                IrError::Json(format!("unknown default action {:?}", jt.default_action))
            })?;
        for e in &jt.entries {
            let action = table
                .actions
                .iter()
                .position(|a| a.name == e.action)
                .ok_or_else(|| IrError::Json(format!("unknown entry action {:?}", e.action)))?;
            table.entries.push(TableEntry::with_priority(
                e.matches.iter().map(match_value_from_json).collect(),
                action,
                e.priority,
            ));
        }
        table.max_entries = jt.max_entries;
        table.cache_role = role_from_str(jt.cache_role.as_deref())?;

        let next = if jt.next_tables.len() == 1 && jt.next_tables.contains_key(ALWAYS_KEY) {
            NextHops::Always(resolve(&jt.next_tables[ALWAYS_KEY])?)
        } else {
            let mut targets = Vec::with_capacity(table.actions.len());
            for a in &table.actions {
                let t = jt.next_tables.get(&a.name).ok_or_else(|| {
                    IrError::Json(format!(
                        "table {:?}: no next_tables entry for action {:?}",
                        jt.name, a.name
                    ))
                })?;
                targets.push(resolve(t)?);
            }
            NextHops::ByAction(targets)
        };
        let node = g.node_mut(id).expect("node created above");
        node.kind = NodeKind::Table(table);
        node.next = next;
    }
    for jc in &doc.conditionals {
        let id = ids[&jc.name];
        let condition = condition_from_json(&g, &jc.expression)?;
        let on_true = resolve(&jc.true_next)?;
        let on_false = resolve(&jc.false_next)?;
        let node = g.node_mut(id).expect("node created above");
        node.kind = NodeKind::Branch(Branch {
            name: jc.name.clone(),
            condition,
        });
        node.next = NextHops::Branch { on_true, on_false };
    }
    // Wire contract: every bound program field must exist; binding the
    // same wire header field (or the same program field) twice is
    // ambiguous and rejected here, before the codec ever sees it.
    for (i, b) in doc.wire.iter().enumerate() {
        if g.fields.get(&b.field).is_none() {
            return Err(IrError::Json(format!(
                "wire binding {:?}: unknown field {:?}",
                b.wire, b.field
            )));
        }
        for prev in &doc.wire[..i] {
            if prev.wire == b.wire {
                return Err(IrError::Json(format!(
                    "wire header field {:?} bound twice",
                    b.wire
                )));
            }
            if prev.field == b.field {
                return Err(IrError::Json(format!(
                    "program field {:?} bound to two wire fields",
                    b.field
                )));
            }
        }
    }
    g.wire = doc.wire.clone();
    let root = ids
        .get(&doc.init_node)
        .copied()
        .ok_or_else(|| IrError::Json(format!("unknown init_node {:?}", doc.init_node)))?;
    g.set_root(root);
    g.validate()?;
    Ok(g)
}

fn action_from_json(g: &ProgramGraph, a: &JsonAction) -> Result<Action, IrError> {
    let fref = |name: &str| {
        g.fields
            .get(name)
            .ok_or_else(|| IrError::Json(format!("unknown field {name:?}")))
    };
    let mut primitives = Vec::with_capacity(a.primitives.len());
    for p in &a.primitives {
        primitives.push(match p {
            JsonPrimitive::Set { field, value } => Primitive::Set {
                field: fref(field)?,
                value: *value,
            },
            JsonPrimitive::Add { field, delta } => Primitive::Add {
                field: fref(field)?,
                delta: *delta,
            },
            JsonPrimitive::Sub { field, delta } => Primitive::Sub {
                field: fref(field)?,
                delta: *delta,
            },
            JsonPrimitive::Copy { dst, src } => Primitive::Copy {
                dst: fref(dst)?,
                src: fref(src)?,
            },
            JsonPrimitive::Drop {} => Primitive::Drop,
            JsonPrimitive::Forward { port } => Primitive::Forward { port: *port },
            JsonPrimitive::Nop {} => Primitive::Nop,
        });
    }
    Ok(Action::new(a.name.clone(), primitives))
}

fn match_value_from_json(m: &JsonMatchValue) -> MatchValue {
    match *m {
        JsonMatchValue::Exact { value } => MatchValue::Exact(value),
        JsonMatchValue::Lpm { value, prefix_len } => MatchValue::Lpm { value, prefix_len },
        JsonMatchValue::Ternary { value, mask } => MatchValue::Ternary { value, mask },
        JsonMatchValue::Range { lo, hi } => MatchValue::Range { lo, hi },
    }
}

fn condition_from_json(g: &ProgramGraph, c: &JsonCondition) -> Result<Condition, IrError> {
    let fref = |name: &str| {
        g.fields
            .get(name)
            .ok_or_else(|| IrError::Json(format!("unknown field {name:?}")))
    };
    Ok(match c {
        JsonCondition::True {} => Condition::True,
        JsonCondition::Compare { field, op, value } => Condition::Compare {
            field: fref(field)?,
            op: op_from_str(op)?,
            value: *value,
        },
        JsonCondition::CompareFields { lhs, op, rhs } => Condition::CompareFields {
            lhs: fref(lhs)?,
            op: op_from_str(op)?,
            rhs: fref(rhs)?,
        },
        JsonCondition::And { a, b } => Condition::And(
            Box::new(condition_from_json(g, a)?),
            Box::new(condition_from_json(g, b)?),
        ),
        JsonCondition::Or { a, b } => Condition::Or(
            Box::new(condition_from_json(g, a)?),
            Box::new(condition_from_json(g, b)?),
        ),
        JsonCondition::Not { a } => Condition::Not(Box::new(condition_from_json(g, a)?)),
    })
}

/// Serializes a program to a pretty-printed JSON string.
pub fn to_json_string(g: &ProgramGraph) -> Result<String, IrError> {
    let doc = to_json(g)?;
    serde_json::to_string_pretty(&doc).map_err(|e| IrError::Json(e.to_string()))
}

/// A 64-bit fingerprint of the program's canonical document: the
/// [`to_json`] document hashed in place, with no JSON text built.
/// Programs whose [`to_json_string`] texts are equal have equal
/// fingerprints, and the fingerprint fails exactly where [`to_json`]
/// does.
///
/// The hasher is fixed (`Fingerprinter`, below); what it is fed is the
/// derived [`Hash`] of the document types, so a fingerprint is stable
/// within one build but not promised across Rust releases (std's `Hash`
/// for `str` is std's to change).
pub fn fingerprint(g: &ProgramGraph) -> Result<u64, IrError> {
    let mut h = Fingerprinter(0xcbf2_9ce4_8422_2325);
    to_json(g)?.hash(&mut h);
    Ok(h.finish())
}

/// The fixed hasher behind [`fingerprint`]: one Fx-style step
/// `h = (h.rotl(5) ^ w) * K` per 64-bit word. Every integer is one
/// word, its value as a `u64` (a signed one cast to its unsigned type
/// first); a byte string is its length, then its bytes eight at a time
/// as little-endian words, the last one zero-padded.
/// Each step is a bijection of `h` for a fixed word and of the word for
/// a fixed `h`, so two equally long inputs that differ in one word never
/// collide.
struct Fingerprinter(u64);

impl Fingerprinter {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Fingerprinter {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.word(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.word(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
}

/// Parses a program from a JSON string.
pub fn from_json_string(s: &str) -> Result<ProgramGraph, IrError> {
    let doc: JsonProgram = serde_json::from_str(s).map_err(|e| IrError::Json(e.to_string()))?;
    from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::table::MatchKind;

    fn sample_program() -> ProgramGraph {
        let mut b = ProgramBuilder::named("sample");
        let src = b.field("ipv4.src");
        let dst = b.field("ipv4.dst");
        let ttl = b.field("ipv4.ttl");
        let acl = b
            .table("acl")
            .key(src, MatchKind::Ternary)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::with_priority(
                vec![MatchValue::Ternary {
                    value: 10,
                    mask: 0xFF,
                }],
                1,
                5,
            ))
            .finish();
        let route = b
            .table("route")
            .key(dst, MatchKind::Lpm)
            .action(
                "fwd",
                vec![Primitive::sub(ttl, 1), Primitive::Forward { port: 2 }],
            )
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0xC0A8_0000_0000_0000,
                    prefix_len: 16,
                }],
                0,
            ))
            .finish();
        let _ = route;
        let end = b
            .table("classify")
            .key(dst, MatchKind::Exact)
            .action_nop("a")
            .action_nop("b")
            .by_action(vec![None, None])
            .finish();
        let _ = end;
        b.seal(acl).unwrap()
    }

    #[test]
    fn round_trip_preserves_program() {
        let g = sample_program();
        let s = to_json_string(&g).unwrap();
        let g2 = from_json_string(&s).unwrap();
        // Same structure: compare re-serialized output for stability.
        let s2 = to_json_string(&g2).unwrap();
        assert_eq!(s, s2);
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.fields.len(), g.fields.len());
    }

    #[test]
    fn round_trip_with_branch() {
        let mut b = ProgramBuilder::named("br");
        let f = b.field("proto");
        let t1 = b.table("tcp_t").key(f, MatchKind::Exact).finish();
        let t2 = b.table("udp_t").key(f, MatchKind::Exact).finish();
        b.set_next(t1, None);
        b.set_next(t2, None);
        let br = b.branch("is_tcp", Condition::eq(f, 6), Some(t1), Some(t2));
        let g = b.seal(br).unwrap();
        let s = to_json_string(&g).unwrap();
        let g2 = from_json_string(&s).unwrap();
        assert_eq!(
            g2.iter_nodes().filter(|n| n.as_branch().is_some()).count(),
            1
        );
        assert_eq!(to_json_string(&g2).unwrap(), s);
    }

    #[test]
    fn unknown_field_in_json_is_rejected() {
        let g = sample_program();
        let mut doc = to_json(&g).unwrap();
        doc.tables[0].keys[0].field = "nope".into();
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
    }

    #[test]
    fn unknown_next_node_is_rejected() {
        let g = sample_program();
        let mut doc = to_json(&g).unwrap();
        doc.tables[0]
            .next_tables
            .insert(super::ALWAYS_KEY.into(), Some("ghost".into()));
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
    }

    #[test]
    fn duplicate_names_rejected_on_import() {
        let g = sample_program();
        let mut doc = to_json(&g).unwrap();
        let dup = doc.tables[0].clone();
        doc.tables.push(dup);
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
    }

    #[test]
    fn bad_match_type_is_rejected() {
        let g = sample_program();
        let mut doc = to_json(&g).unwrap();
        doc.tables[0].keys[0].match_type = "fuzzy".into();
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
    }

    /// An inverted range is a typed error on load, not a panic in the
    /// `m` count (`Table::memory_accesses`) or a lookup.
    #[test]
    fn inverted_range_is_rejected_on_load() {
        let mut b = ProgramBuilder::named("r");
        let f = b.field("port");
        let t = b
            .table("ports")
            .key(f, MatchKind::Range)
            .action_nop("hit")
            .action_nop("miss")
            .entry(TableEntry::with_priority(
                vec![MatchValue::Range { lo: 5, hi: 10 }],
                0,
                1,
            ))
            .finish();
        let mut doc = to_json(&b.seal(t).unwrap()).unwrap();
        doc.tables[0].entries[0].matches[0] = JsonMatchValue::Range { lo: 11, hi: 10 };
        let text = serde_json::to_string(&doc).unwrap();
        match from_json_string(&text) {
            Err(IrError::BadTable { reason, .. }) => {
                assert!(reason.contains("empty range 11..10"), "{reason}")
            }
            other => panic!("expected BadTable, got {other:?}"),
        }
    }

    /// A document declaring more field names than a `FieldRef` addresses
    /// is a typed error, returned before interning and in well under a
    /// second.
    #[test]
    fn too_many_field_names_are_rejected_on_load() {
        let mut doc = to_json(&sample_program()).unwrap();
        doc.fields = (0..=u16::MAX as usize).map(|i| format!("f{i}")).collect();
        let text = serde_json::to_string(&doc).unwrap();
        let start = std::time::Instant::now();
        match from_json_string(&text) {
            Err(IrError::Invalid(msg)) => assert!(msg.contains("field names"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
    }

    #[test]
    fn cache_role_round_trips() {
        let mut b = ProgramBuilder::named("c");
        let f = b.field("x");
        let t = b
            .table("cache")
            .key(f, MatchKind::Exact)
            .action_nop("hit")
            .cache_role(CacheRole::FlowCache)
            .max_entries(128)
            .finish();
        let g = b.seal(t).unwrap();
        let g2 = from_json_string(&to_json_string(&g).unwrap()).unwrap();
        let (_, t2) = g2.tables().next().unwrap();
        assert_eq!(t2.cache_role, CacheRole::FlowCache);
        assert_eq!(t2.max_entries, Some(128));
    }

    #[test]
    fn wire_contract_round_trips() {
        let mut g = sample_program();
        g.wire = vec![
            WireBinding {
                wire: "ipv4.src".into(),
                field: "ipv4.src".into(),
            },
            WireBinding {
                wire: "ipv4.dst".into(),
                field: "ipv4.dst".into(),
            },
        ];
        let s = to_json_string(&g).unwrap();
        assert!(s.contains("\"wire\""), "{s}");
        let g2 = from_json_string(&s).unwrap();
        assert_eq!(g2.wire, g.wire);
        assert_eq!(to_json_string(&g2).unwrap(), s);
        // Rewrite-style clones carry the contract too.
        assert_eq!(g.clone().wire, g.wire);
    }

    #[test]
    fn empty_wire_contract_is_omitted_from_json() {
        let g = sample_program();
        assert!(g.wire.is_empty());
        let s = to_json_string(&g).unwrap();
        assert!(!s.contains("\"wire\""), "{s}");
    }

    #[test]
    fn wire_contract_rejects_unknown_and_duplicate_bindings() {
        let g = sample_program();
        let mut doc = to_json(&g).unwrap();
        doc.wire = vec![WireBinding {
            wire: "ipv4.src".into(),
            field: "nope".into(),
        }];
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
        let dup_wire = WireBinding {
            wire: "ipv4.src".into(),
            field: "ipv4.src".into(),
        };
        doc.wire = vec![
            dup_wire.clone(),
            WireBinding {
                wire: "ipv4.src".into(),
                field: "ipv4.dst".into(),
            },
        ];
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
        doc.wire = vec![
            dup_wire,
            WireBinding {
                wire: "ipv4.dst".into(),
                field: "ipv4.src".into(),
            },
        ];
        assert!(matches!(from_json(&doc), Err(IrError::Json(_))));
    }

    #[test]
    fn malformed_json_string_errors() {
        assert!(matches!(
            from_json_string("{not json"),
            Err(IrError::Json(_))
        ));
    }
}
