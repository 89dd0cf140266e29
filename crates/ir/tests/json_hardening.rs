//! Hostile program documents: `from_json_string` must refuse each one
//! with its typed `IrError`, never with a panic and never by loading.
//! This table is where the loader's refusals are pinned; a new one is
//! one more row.

use pipeleon_ir::json::from_json_string;
use pipeleon_ir::IrError;

/// A valid document: `check` (x < 10) → `acl` → `route` → sink, with
/// `check`'s false arm to the sink. Each hostile document is this one
/// with a piece of text or two replaced.
const BASE: &str = r#"{
  "name": "hostile",
  "fields": ["x", "y"],
  "init_node": "check",
  "tables": [
    {
      "name": "acl",
      "keys": [{"field": "x", "match_type": "ternary"}],
      "actions": [
        {"name": "permit", "primitives": []},
        {"name": "deny", "primitives": [{"op": "drop"}]}
      ],
      "default_action": "permit",
      "entries": [
        {"matches": [{"kind": "ternary", "value": 3, "mask": 255}], "action": "deny", "priority": 1}
      ],
      "max_entries": 1,
      "next_tables": {"__always__": "route"}
    },
    {
      "name": "route",
      "keys": [{"field": "y", "match_type": "lpm"}],
      "actions": [{"name": "fwd", "primitives": [{"op": "forward", "port": 2}]}],
      "default_action": "fwd",
      "entries": [
        {"matches": [{"kind": "lpm", "value": 5, "prefix_len": 64}], "action": "fwd"}
      ],
      "next_tables": {"__always__": null}
    }
  ],
  "conditionals": [
    {
      "name": "check",
      "expression": {"type": "compare", "field": "x", "op": "<", "value": 10},
      "true_next": "acl",
      "false_next": null
    }
  ]
}"#;

/// The error's variant, by name.
fn variant(e: &IrError) -> &'static str {
    match e {
        IrError::UnknownNode(_) => "UnknownNode",
        IrError::UnknownField(_) => "UnknownField",
        IrError::CyclicGraph { .. } => "CyclicGraph",
        IrError::NoRoot => "NoRoot",
        IrError::BadEntry { .. } => "BadEntry",
        IrError::BadTable { .. } => "BadTable",
        IrError::Invalid(_) => "Invalid",
        IrError::Json(_) => "Json",
    }
}

/// A hostile document: its name, its edits to [`BASE`] as (text,
/// replacement), the error variant it gets and a piece of its message.
type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a str, &'a str);

#[test]
fn hostile_program_documents_return_typed_errors() {
    let ternary_3 = r#"{"kind": "ternary", "value": 3, "mask": 255}"#;
    let two_ternaries = format!("{ternary_3}, {ternary_3}");
    let lpm_64 = r#"{"kind": "lpm", "value": 5, "prefix_len": 64}"#;
    let lpm_64_and_200 = format!(
        r#"{lpm_64}], "action": "fwd"}},
        {{"matches": [{{"kind": "lpm", "value": 5, "prefix_len": 200}}"#
    );
    let to_route = r#""__always__": "route""#;
    let to_sink = r#""__always__": null"#;
    let prefix_64 = r#""prefix_len": 64"#;
    // The base document binds no wire fields; these rows give it some.
    let init = r#""init_node": "check","#;
    let wire = |bindings: &str| format!(r#"{init} "wire": [{bindings}],"#);
    let unknown_field = wire(r#"{"wire": "ipv4.dst", "field": "z"}"#);
    let wire_twice =
        wire(r#"{"wire": "ipv4.dst", "field": "x"}, {"wire": "ipv4.dst", "field": "y"}"#);
    let field_twice =
        wire(r#"{"wire": "ipv4.src", "field": "x"}, {"wire": "ipv4.dst", "field": "x"}"#);
    let cases: [Case; 21] = [
        (
            "unknown next node",
            &[(to_route, r#""__always__": "ghost""#)],
            "Json",
            r#"unknown next node "ghost""#,
        ),
        (
            "unknown init_node",
            &[(r#""init_node": "check""#, r#""init_node": "ghost""#)],
            "Json",
            r#"unknown init_node "ghost""#,
        ),
        (
            "cycle",
            &[(to_sink, r#""__always__": "acl""#)],
            "CyclicGraph",
            "cycle",
        ),
        ("self-loop", &[(to_sink, to_route)], "CyclicGraph", "cycle"),
        (
            "conditional loop",
            &[(to_route, r#""__always__": "check""#)],
            "CyclicGraph",
            "cycle",
        ),
        (
            "duplicate node name",
            &[(r#""name": "route""#, r#""name": "check""#)],
            "Json",
            r#"duplicate node name "check""#,
        ),
        (
            "duplicate table name",
            &[(r#""name": "route""#, r#""name": "acl""#)],
            "Json",
            r#"duplicate node name "acl""#,
        ),
        (
            "unknown key field",
            &[(r#"{"field": "y""#, r#"{"field": "nope""#)],
            "Json",
            r#"unknown field "nope""#,
        ),
        (
            "unknown match_type",
            &[(r#""match_type": "lpm""#, r#""match_type": "fuzzy""#)],
            "Json",
            r#"unknown match_type "fuzzy""#,
        ),
        (
            "wrong match arity",
            &[(ternary_3, &two_ternaries)],
            "BadTable",
            "entry 0 has 2 match values but table has 1 keys",
        ),
        (
            "match kind that does not fit its key",
            &[(ternary_3, r#"{"kind": "exact", "value": 3}"#)],
            "BadTable",
            "incompatible with key kind Ternary",
        ),
        (
            "unknown default action",
            &[(
                r#""default_action": "permit""#,
                r#""default_action": "ghost""#,
            )],
            "Json",
            r#"unknown default action "ghost""#,
        ),
        (
            "table over its max_entries",
            &[(r#""max_entries": 1"#, r#""max_entries": 0"#)],
            "BadTable",
            "exceeding max_entries 0",
        ),
        (
            "inverted range",
            &[
                (r#""match_type": "ternary""#, r#""match_type": "range""#),
                (ternary_3, r#"{"kind": "range", "lo": 9, "hi": 3}"#),
            ],
            "BadTable",
            "empty range 9..3",
        ),
        (
            "prefix of 65 bits",
            &[(prefix_64, r#""prefix_len": 65"#)],
            "BadTable",
            "prefix length 65 exceeds 64 bits",
        ),
        (
            "prefix of 255 bits",
            &[(prefix_64, r#""prefix_len": 255"#)],
            "BadTable",
            "prefix length 255 exceeds 64 bits",
        ),
        (
            "prefix of 256 bits, too wide for its u8",
            &[(prefix_64, r#""prefix_len": 256"#)],
            "Json",
            "256",
        ),
        (
            // /64 beside /200 on the same value: the engines would clamp
            // /200 into the /64 way, the entry rankings read 200.
            "overlong prefix beside its clamp",
            &[(lpm_64, &lpm_64_and_200)],
            "BadTable",
            "entry 1: prefix length 200 exceeds 64 bits",
        ),
        (
            "wire binding to an unknown field",
            &[(init, &unknown_field)],
            "Json",
            r#"wire binding "ipv4.dst": unknown field "z""#,
        ),
        (
            "wire header field bound twice",
            &[(init, &wire_twice)],
            "Json",
            r#"wire header field "ipv4.dst" bound twice"#,
        ),
        (
            "program field bound to two wire fields",
            &[(init, &field_twice)],
            "Json",
            r#"program field "x" bound to two wire fields"#,
        ),
    ];
    assert!(from_json_string(BASE).is_ok(), "the base document loads");
    for (name, edits, want, says) in cases {
        let mut doc = BASE.to_owned();
        for (from, to) in edits {
            assert_eq!(doc.matches(from).count(), 1, "{name}: {from}");
            doc = doc.replace(from, to);
        }
        match from_json_string(&doc) {
            Ok(_) => panic!("{name}: loaded"),
            Err(e) => {
                assert_eq!(variant(&e), want, "{name}: {e}");
                assert!(e.to_string().contains(says), "{name}: {e}");
            }
        }
    }
}
