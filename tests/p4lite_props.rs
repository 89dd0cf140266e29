//! Robustness and round-trip properties of the P4-lite frontend.

use pipeleon_p4::parse_program;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary input never panics the lexer/parser/compiler — it may
    /// only return an error.
    #[test]
    fn arbitrary_input_never_panics(src in ".{0,200}") {
        let _ = parse_program(&src);
    }

    /// Arbitrary ASCII-ish token soup never panics either.
    #[test]
    fn token_soup_never_panics(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "program", "fields", "action", "table", "control", "if",
                "else", "switch", "exit", "key", "actions", "entries",
                "default_action", "size", "const", "drop", "fwd", "nop",
                "a", "b.c", "{", "}", "(", ")", ";", ":", ",", "=", "@",
                "_", "&&&", "/", "..", "+", "-", "==", "!=", "<", "<=",
                "&&", "||", "!", "0", "42", "0xFF",
            ]),
            0..60,
        )
    ) {
        let src = words.join(" ");
        let _ = parse_program(&src);
    }
}

/// Generated well-formed programs always compile, validate, and round-trip
/// through the JSON IR.
#[test]
fn generated_programs_compile_and_round_trip() {
    for n_tables in 1..6usize {
        for branchy in [false, true] {
            let mut src = String::from("program gen;\nfields f0, f1, f2, f3;\n");
            src.push_str("action nopa() { }\naction deny() { drop; }\n");
            for i in 0..n_tables {
                src.push_str(&format!(
                    "table t{i} {{ key = {{ f{}: exact; }} actions = {{ nopa; deny; }} \
                     const entries = {{ ({i}) : deny; }} }}\n",
                    i % 4
                ));
            }
            src.push_str("control {\n");
            if branchy && n_tables >= 2 {
                src.push_str("if (f0 < 100) { t0; } else { t1; }\n");
                for i in 2..n_tables {
                    src.push_str(&format!("t{i};\n"));
                }
            } else {
                for i in 0..n_tables {
                    src.push_str(&format!("t{i};\n"));
                }
            }
            src.push_str("}\n");
            let g = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
            g.validate().unwrap();
            assert_eq!(g.tables().count(), n_tables);
            let js = pipeleon_ir::json::to_json_string(&g).unwrap();
            let g2 = pipeleon_ir::json::from_json_string(&js).unwrap();
            assert_eq!(pipeleon_ir::json::to_json_string(&g2).unwrap(), js);
        }
    }
}

/// P4-lite programs go straight through the whole optimizer pipeline.
#[test]
fn p4lite_programs_optimize_and_stay_equivalent() {
    use pipeleon::{apply_plan, Optimizer, ResourceLimits};
    use pipeleon_cost::{CostModel, CostParams, RuntimeProfile};
    use pipeleon_sim::{Packet, SmartNic};
    let src = r#"
        program opt_me;
        fields a, b, c;
        action deny() { drop; }
        action mark() { c = 1; }
        action keep() { }
        table acl0 { key = { a: exact; } actions = { keep; deny; }
                     default_action = keep; const entries = { (7) : deny; } }
        table acl1 { key = { b: exact; } actions = { keep; deny; }
                     default_action = keep; const entries = { (9) : deny; } }
        table work { key = { c: ternary; } actions = { mark; keep; }
                     default_action = keep;
                     const entries = { (0 &&& 0xF) : mark; } }
        control { work; acl0; acl1; }
    "#;
    let g = parse_program(src).unwrap();
    let acl1 = g.iter_nodes().find(|n| n.name() == "acl1").unwrap().id;
    let mut profile = RuntimeProfile::empty();
    profile.record_action(acl1, 0, 100);
    profile.record_action(acl1, 1, 900); // heavy drop at the LAST table
    let params = CostParams::bluefield2();
    let optimizer = Optimizer::new(CostModel::new(params.clone())).esearch();
    let outcome = optimizer
        .optimize(&g, &profile, ResourceLimits::unlimited())
        .unwrap();
    assert!(outcome.est_gain_ns > 0.0);
    let applied = apply_plan(
        &g,
        &outcome.plan,
        &optimizer.model,
        &profile,
        &optimizer.cfg,
    )
    .unwrap();
    // Semantics: compare both programs on a packet sweep.
    let mut orig = SmartNic::new(g.clone(), params.clone()).unwrap();
    let mut opt = SmartNic::new(applied.graph, params).unwrap();
    for a in 0..12u64 {
        for b in 0..12u64 {
            let mut p1 = Packet::new(&g.fields);
            p1.set(g.fields.get("a").unwrap(), a);
            p1.set(g.fields.get("b").unwrap(), b);
            let mut p2 = p1.clone();
            let r1 = orig.process_one(&mut p1);
            let r2 = opt.process_one(&mut p2);
            assert_eq!(r1.dropped, r2.dropped, "a={a} b={b}");
            if !r1.dropped {
                assert_eq!(p1.slots(), p2.slots(), "a={a} b={b}");
            }
        }
    }
}
