//! Recursive-descent parser for P4-lite.

use crate::ast::*;
use crate::lexer::{lex, Spanned, Token};

/// Parses a P4-lite source string into an AST.
pub fn parse(src: &str) -> Result<Program, String> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.program()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Result<Token, String> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or("unexpected end of input")?
            .token
            .clone();
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Token) -> Result<(), String> {
        let line = self.line();
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(format!("line {line}: expected {want}, found {got}"))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        let line = self.line();
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(format!("line {line}: expected identifier, found {other}")),
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let line = self.line();
        match self.next()? {
            Token::Number(n) => Ok(n),
            other => Err(format!("line {line}: expected number, found {other}")),
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Program, String> {
        if !self.eat_kw("program") {
            return Err(format!(
                "line {}: a P4-lite file starts with `program <name>;`",
                self.line()
            ));
        }
        let name = self.ident()?;
        self.expect(&Token::Semi)?;
        let mut out = Program {
            name,
            fields: Vec::new(),
            actions: Vec::new(),
            tables: Vec::new(),
            control: Vec::new(),
        };
        while self.peek().is_some() {
            let line = self.line();
            if self.eat_kw("fields") {
                out.fields.push(self.ident()?);
                while self.eat(&Token::Comma) {
                    out.fields.push(self.ident()?);
                }
                self.expect(&Token::Semi)?;
            } else if self.eat_kw("action") {
                out.actions.push(self.action_def()?);
            } else if self.eat_kw("table") {
                out.tables.push(self.table_def(line)?);
            } else if self.eat_kw("control") {
                if !out.control.is_empty() {
                    return Err(format!("line {line}: duplicate control block"));
                }
                self.expect(&Token::LBrace)?;
                out.control = self.stmts_until_rbrace()?;
            } else {
                return Err(format!(
                    "line {line}: expected fields/action/table/control, found {}",
                    self.peek().map(ToString::to_string).unwrap_or_default()
                ));
            }
        }
        if out.control.is_empty() {
            return Err("program has no (non-empty) control block".into());
        }
        Ok(out)
    }

    fn action_def(&mut self) -> Result<ActionDef, String> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        self.expect(&Token::RParen)?;
        self.expect(&Token::LBrace)?;
        let mut primitives = Vec::new();
        while !self.eat(&Token::RBrace) {
            primitives.push(self.prim_stmt()?);
        }
        Ok(ActionDef { name, primitives })
    }

    fn prim_stmt(&mut self) -> Result<PrimStmt, String> {
        let line = self.line();
        let head = self.ident()?;
        match head.as_str() {
            "drop" => {
                self.expect(&Token::Semi)?;
                Ok(PrimStmt::Drop)
            }
            "nop" => {
                self.expect(&Token::Semi)?;
                Ok(PrimStmt::Nop)
            }
            "fwd" => {
                self.expect(&Token::LParen)?;
                let port = self.number()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::Semi)?;
                Ok(PrimStmt::Forward(port as u32))
            }
            _ => {
                // field = rhs ;
                self.expect(&Token::Assign)?;
                let stmt = match self.next()? {
                    Token::Number(v) => PrimStmt::Set {
                        field: head,
                        value: v,
                    },
                    Token::Ident(src) => {
                        if self.eat(&Token::Plus) {
                            let delta = self.number()?;
                            if src != head {
                                return Err(format!(
                                    "line {line}: `a = b + c` only supports a = a + c"
                                ));
                            }
                            PrimStmt::Add { field: head, delta }
                        } else if self.eat(&Token::Minus) {
                            let delta = self.number()?;
                            if src != head {
                                return Err(format!(
                                    "line {line}: `a = b - c` only supports a = a - c"
                                ));
                            }
                            PrimStmt::Sub { field: head, delta }
                        } else {
                            PrimStmt::Copy { dst: head, src }
                        }
                    }
                    other => {
                        return Err(format!(
                            "line {line}: expected value or field after `=`, found {other}"
                        ))
                    }
                };
                self.expect(&Token::Semi)?;
                Ok(stmt)
            }
        }
    }

    fn table_def(&mut self, line: usize) -> Result<TableDef, String> {
        let name = self.ident()?;
        self.expect(&Token::LBrace)?;
        let mut t = TableDef {
            name,
            keys: Vec::new(),
            actions: Vec::new(),
            default_action: None,
            size: None,
            entries: Vec::new(),
            line,
        };
        while !self.eat(&Token::RBrace) {
            let item_line = self.line();
            let kw = self.ident()?;
            match kw.as_str() {
                "key" => {
                    self.expect(&Token::Assign)?;
                    self.expect(&Token::LBrace)?;
                    while !self.eat(&Token::RBrace) {
                        let field = self.ident()?;
                        self.expect(&Token::Colon)?;
                        let kind = match self.ident()?.as_str() {
                            "exact" => KeyKind::Exact,
                            "lpm" => KeyKind::Lpm,
                            "ternary" => KeyKind::Ternary,
                            "range" => KeyKind::Range,
                            other => {
                                return Err(format!(
                                    "line {item_line}: unknown match kind {other:?}"
                                ))
                            }
                        };
                        self.expect(&Token::Semi)?;
                        t.keys.push((field, kind));
                    }
                }
                "actions" => {
                    self.expect(&Token::Assign)?;
                    self.expect(&Token::LBrace)?;
                    while !self.eat(&Token::RBrace) {
                        t.actions.push(self.ident()?);
                        self.expect(&Token::Semi)?;
                    }
                }
                "default_action" => {
                    self.expect(&Token::Assign)?;
                    t.default_action = Some(self.ident()?);
                    self.expect(&Token::Semi)?;
                }
                "size" => {
                    self.expect(&Token::Assign)?;
                    t.size = Some(self.number()?);
                    self.expect(&Token::Semi)?;
                }
                "const" | "entries" => {
                    if kw == "const" {
                        let e = self.ident()?;
                        if e != "entries" {
                            return Err(format!(
                                "line {item_line}: expected `entries` after `const`"
                            ));
                        }
                    }
                    self.expect(&Token::Assign)?;
                    self.expect(&Token::LBrace)?;
                    while !self.eat(&Token::RBrace) {
                        t.entries.push(self.entry_def()?);
                    }
                }
                other => return Err(format!("line {item_line}: unknown table item {other:?}")),
            }
        }
        Ok(t)
    }

    fn entry_def(&mut self) -> Result<EntryDef, String> {
        self.expect(&Token::LParen)?;
        let mut keys = vec![self.key_value()?];
        while self.eat(&Token::Comma) {
            keys.push(self.key_value()?);
        }
        self.expect(&Token::RParen)?;
        self.expect(&Token::Colon)?;
        let action = self.ident()?;
        let priority = if self.eat(&Token::At) {
            let line = self.line();
            let n = self.number()?;
            i32::try_from(n)
                .map_err(|_| format!("line {line}: priority {n} exceeds {}", i32::MAX))?
        } else {
            0
        };
        self.expect(&Token::Semi)?;
        Ok(EntryDef {
            keys,
            action,
            priority,
        })
    }

    fn key_value(&mut self) -> Result<KeyValue, String> {
        if self.eat(&Token::Underscore) {
            return Ok(KeyValue::Any);
        }
        let v = self.number()?;
        if self.eat(&Token::MaskSep) {
            Ok(KeyValue::Ternary(v, self.number()?))
        } else if self.eat(&Token::Slash) {
            let line = self.line();
            match self.number()? {
                len @ 0..=64 => Ok(KeyValue::Lpm(v, len as u8)),
                len => Err(format!("line {line}: prefix length {len} exceeds 64 bits")),
            }
        } else if self.eat(&Token::DotDot) {
            Ok(KeyValue::Range(v, self.number()?))
        } else {
            Ok(KeyValue::Exact(v))
        }
    }

    fn stmts_until_rbrace(&mut self) -> Result<Vec<Stmt>, String> {
        let mut out = Vec::new();
        while !self.eat(&Token::RBrace) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, String> {
        self.expect(&Token::LBrace)?;
        self.stmts_until_rbrace()
    }

    fn stmt(&mut self) -> Result<Stmt, String> {
        let line = self.line();
        if self.eat_kw("if") {
            self.expect(&Token::LParen)?;
            let cond = self.cond()?;
            self.expect(&Token::RParen)?;
            let then_block = self.block()?;
            let else_block = if self.eat_kw("else") {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_block,
                else_block,
            });
        }
        if self.eat_kw("switch") {
            self.expect(&Token::LParen)?;
            let table = self.ident()?;
            self.expect(&Token::RParen)?;
            self.expect(&Token::LBrace)?;
            let mut arms = Vec::new();
            while !self.eat(&Token::RBrace) {
                let action = self.ident()?;
                self.expect(&Token::Colon)?;
                arms.push((action, self.block()?));
            }
            return Ok(Stmt::Switch { table, arms });
        }
        if self.eat_kw("exit") {
            self.expect(&Token::Semi)?;
            return Ok(Stmt::Exit);
        }
        match self.next()? {
            Token::Ident(name) => {
                self.expect(&Token::Semi)?;
                Ok(Stmt::Apply(name))
            }
            other => Err(format!("line {line}: expected a statement, found {other}")),
        }
    }

    // cond := and ( "||" and )*
    fn cond(&mut self) -> Result<Cond, String> {
        let mut lhs = self.cond_and()?;
        while self.eat(&Token::OrOr) {
            let rhs = self.cond_and()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    // and := unary ( "&&" unary )*
    fn cond_and(&mut self) -> Result<Cond, String> {
        let mut lhs = self.cond_unary()?;
        while self.eat(&Token::AndAnd) {
            let rhs = self.cond_unary()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cond_unary(&mut self) -> Result<Cond, String> {
        if self.eat(&Token::Bang) {
            return Ok(Cond::Not(Box::new(self.cond_unary()?)));
        }
        if self.eat(&Token::LParen) {
            let c = self.cond()?;
            self.expect(&Token::RParen)?;
            return Ok(c);
        }
        let line = self.line();
        let lhs = self.ident()?;
        let op = match self.next()? {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            other => {
                return Err(format!(
                    "line {line}: expected comparison operator, found {other}"
                ))
            }
        };
        match self.next()? {
            Token::Number(v) => Ok(Cond::Compare {
                field: lhs,
                op,
                value: v,
            }),
            Token::Ident(rhs) => Ok(Cond::CompareFields { lhs, op, rhs }),
            other => Err(format!(
                "line {line}: expected number or field, found {other}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        program demo;
        fields ipv4.dst, meta.x;
        action deny() { drop; }
        action bump() { meta.x = meta.x + 1; fwd(3); }
        table acl {
            key = { ipv4.dst: ternary; }
            actions = { deny; }
            const entries = { (0xFF &&& 0xFF) : deny @ 7; }
        }
        control {
            if (meta.x < 5 && ipv4.dst != 0) { acl; } else { exit; }
        }
    "#;

    #[test]
    fn parses_sample() {
        let p = parse(SAMPLE).unwrap();
        assert_eq!(p.name, "demo");
        assert_eq!(p.fields, vec!["ipv4.dst", "meta.x"]);
        assert_eq!(p.actions.len(), 2);
        assert_eq!(
            p.actions[1].primitives,
            vec![
                PrimStmt::Add {
                    field: "meta.x".into(),
                    delta: 1
                },
                PrimStmt::Forward(3),
            ]
        );
        assert_eq!(p.tables.len(), 1);
        assert_eq!(p.tables[0].entries[0].priority, 7);
        assert!(matches!(p.control[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_all_key_value_forms() {
        let p = parse(
            r#"program k; fields a;
               action x() { }
               table t {
                   key = { a: ternary; }
                   actions = { x; }
                   entries = {
                       (5) : x;
                       (1 &&& 0xF0) : x;
                       (8/24) : x;
                       (1..9) : x;
                       (_) : x;
                   }
               }
               control { t; }"#,
        )
        .unwrap();
        let e = &p.tables[0].entries;
        assert_eq!(e[0].keys, vec![KeyValue::Exact(5)]);
        assert_eq!(e[1].keys, vec![KeyValue::Ternary(1, 0xF0)]);
        assert_eq!(e[2].keys, vec![KeyValue::Lpm(8, 24)]);
        assert_eq!(e[3].keys, vec![KeyValue::Range(1, 9)]);
        assert_eq!(e[4].keys, vec![KeyValue::Any]);
    }

    #[test]
    fn parses_switch() {
        let p = parse(
            r#"program s; fields a;
               action go() { } action stop() { drop; }
               table classify {
                   key = { a: exact; }
                   actions = { go; stop; }
               }
               table t2 { key = { a: exact; } actions = { go; } }
               control {
                   switch (classify) {
                       go: { t2; }
                       stop: { exit; }
                   }
               }"#,
        )
        .unwrap();
        match &p.control[0] {
            Stmt::Switch { table, arms } => {
                assert_eq!(table, "classify");
                assert_eq!(arms.len(), 2);
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_carry_lines() {
        let err = parse("program p;\nfields a;\ncontrol { 5; }").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        let err = parse("program p;\ntable t { bogus = 1; }").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    /// A prefix is at most the key's 64 bits. A longer one is refused
    /// with its line, never truncated to a `u8` (`/256` would be /0, a
    /// catch-all).
    #[test]
    fn prefixes_longer_than_64_bits_are_refused() {
        let src = |len: u32| {
            format!(
                "program l; fields a;\naction x() {{ }}\ntable t {{\n  key = {{ a: lpm; }}\n  \
                 actions = {{ x; }}\n  entries = {{ (8/{len}) : x; }}\n}}\ncontrol {{ t; }}"
            )
        };
        let p = parse(&src(64)).unwrap();
        assert_eq!(p.tables[0].entries[0].keys, vec![KeyValue::Lpm(8, 64)]);
        for len in [65, 256, 300] {
            let err = parse(&src(len)).unwrap_err();
            assert_eq!(err, format!("line 6: prefix length {len} exceeds 64 bits"));
        }
    }

    /// A priority is an `i32`. A larger one is refused with its line,
    /// never wrapped: `@4294967295` would rank as -1 and `@2147483648`
    /// as `i32::MIN`, below every rule it was written to outrank.
    #[test]
    fn priorities_above_i32_max_are_refused() {
        let src = |prio: u64| {
            format!(
                "program l; fields a;\naction x() {{ }}\ntable t {{\n  key = {{ a: exact; }}\n  \
                 actions = {{ x; }}\n  entries = {{ (8) : x @{prio}; }}\n}}\ncontrol {{ t; }}"
            )
        };
        let p = parse(&src(2_147_483_647)).unwrap();
        assert_eq!(p.tables[0].entries[0].priority, i32::MAX);
        for prio in [2_147_483_648, 4_294_967_295] {
            let err = parse(&src(prio)).unwrap_err();
            assert_eq!(err, format!("line 6: priority {prio} exceeds 2147483647"));
        }
    }

    #[test]
    fn requires_program_header_and_control() {
        assert!(parse("fields a;").unwrap_err().contains("program"));
        assert!(parse("program p; fields a;")
            .unwrap_err()
            .contains("control"));
    }

    #[test]
    fn condition_precedence() {
        let p = parse(
            r#"program c; fields a, b;
               action n() { }
               table t { key = { a: exact; } actions = { n; } }
               control { if (a < 1 || b < 2 && !(a == b)) { t; } }"#,
        )
        .unwrap();
        // || binds loosest: Or(a<1, And(b<2, Not(a==b))).
        match &p.control[0] {
            Stmt::If { cond, .. } => match cond {
                Cond::Or(lhs, rhs) => {
                    assert!(matches!(**lhs, Cond::Compare { .. }));
                    assert!(matches!(**rhs, Cond::And(_, _)));
                }
                other => panic!("expected Or at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }
}
