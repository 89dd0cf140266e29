//! A small JSON value and its writer. Records are read back with
//! `serde_json`, which the workspace already carries.
//!
//! The crate is std-only, and its output is judged to the last digit, so
//! it writes numbers itself: floats print with Rust's shortest
//! round-trip formatting (every digit that was measured, none that was
//! not) and whole numbers print without a fraction. Objects keep
//! insertion order so records diff line by line.

use std::fmt::Write as _;

/// A JSON value. Whole numbers are kept apart from floats so counts
/// survive a round trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(i64),
    /// A float; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Adds `key: value` to an object (no-op on other variants) and
    /// returns it, for chaining.
    pub fn with(mut self, key: &str, value: Value) -> Value {
        if let Value::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // A float that happens to be whole still reads as a float.
        let _ = write!(out, "{n:.1}");
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('\u{22}');
    out.push_str(&pipeleon_obs::escape_json(s));
    out.push('\u{22}');
}
