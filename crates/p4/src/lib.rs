#![warn(missing_docs)]

//! # pipeleon-p4 — the P4-lite textual frontend
//!
//! A small, P4-16-flavoured language for writing Pipeleon pipelines as
//! text instead of JSON. It covers exactly what the Pipeleon IR models:
//! header fields, actions built from primitives, match/action tables with
//! exact/LPM/ternary/range keys and const entries, and a control block
//! with sequential application, `if`/`else`, switch-case application, and
//! `exit`.
//!
//! ```
//! use pipeleon_p4::parse_program;
//!
//! let src = r#"
//!     program quickstart;
//!     fields ipv4.dst, acl.key;
//!
//!     action deny() { drop; }
//!     action permit() { }
//!     action fwd_out() { fwd(2); }
//!
//!     table acl {
//!         key = { acl.key: exact; }
//!         actions = { permit; deny; }
//!         default_action = permit;
//!         const entries = { (0xBAD) : deny; }
//!     }
//!     table routing {
//!         key = { ipv4.dst: lpm; }
//!         actions = { fwd_out; }
//!         default_action = fwd_out;
//!         const entries = { (0x0A000000/8) : fwd_out; }
//!     }
//!
//!     control { acl; routing; }
//! "#;
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.tables().count(), 2);
//! ```
//!
//! Grammar sketch (see [`parser`] for details):
//!
//! ```text
//! program      := "program" NAME ";" decl*
//! decl         := "fields" NAME ("," NAME)* ";"
//!               | "action" NAME "(" ")" "{" primitive* "}"
//!               | "table" NAME "{" table-item* "}"
//!               | "control" "{" stmt* "}"
//! primitive    := FIELD "=" rhs ";" | "drop" ";" | "fwd" "(" NUM ")" ";" | "nop" ";"
//! rhs          := NUM | FIELD | FIELD "+" NUM | FIELD "-" NUM
//! table-item   := "key" "=" "{" (FIELD ":" kind ";")* "}"
//!               | "actions" "=" "{" (NAME ";")* "}"
//!               | "default_action" "=" NAME ";"
//!               | "size" "=" NUM ";"
//!               | "const"? "entries" "=" "{" entry* "}"
//! entry        := "(" keyval ("," keyval)* ")" ":" NAME ("@" NUM)? ";"
//! keyval       := NUM | NUM "&&&" NUM | NUM "/" LEN | NUM ".." NUM | "_"
//! stmt         := NAME ";" | "exit" ";"
//!               | "if" "(" cond ")" block ("else" block)?
//!               | "switch" "(" NAME ")" "{" (NAME ":" block)* "}"
//! cond         := or-expr with comparisons, "&&", "||", "!", parens
//! ```
//!
//! `LEN`, an LPM prefix length, is 0–64: a key is one 64-bit value,
//! and a longer prefix is a parse error, not a clamp.

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;

pub use compile::compile;
pub use parser::parse;

use pipeleon_ir::ProgramGraph;

/// Parses and compiles a P4-lite source string into a validated
/// [`ProgramGraph`].
pub fn parse_program(src: &str) -> Result<ProgramGraph, String> {
    compile(&parse(src)?)
}
