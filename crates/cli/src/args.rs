//! Minimal dependency-free argument parsing.

use std::collections::HashMap;

/// Parsed command line: positionals plus `--key value` / `-o value` flags.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// Flags that take no value (presence alone means `true`). Every other
/// flag consumes exactly one value.
const BOOL_FLAGS: &[&str] = &["deny-warnings", "concurrency", "no-specialize"];

/// Parses `argv` (without the program name). Flags take exactly one value
/// unless listed in [`BOOL_FLAGS`]; a trailing valued flag without its
/// value is an error. Any flag parses; which ones a command reads is
/// checked by [`Args::reject_unknown`], before the command runs.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            if BOOL_FLAGS.contains(&name) {
                out.flags.insert(name.to_owned(), "true".to_owned());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} is missing its value"))?;
                out.flags.insert(name.to_owned(), value.clone());
                i += 2;
            }
        } else {
            out.positional.push(a.clone());
            i += 1;
        }
    }
    Ok(out)
}

impl Args {
    /// Fails if a flag outside `known` was given. Flags are parsed
    /// strictly, as in `pipeleon-perf`: a flag the command does not read
    /// is a typo or a removed option, and it has already taken the
    /// argument after it as its value.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), String> {
        let unknown = self.flags.keys().filter(|f| !known.contains(&f.as_str()));
        match unknown.min() {
            Some(flag) => Err(format!("unknown flag --{flag} for `{command}`")),
            None => Ok(()),
        }
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// Optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Numeric flag with a default.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: {v:?} is not a number")),
        }
    }

    /// Boolean flag: `true` iff present on the command line.
    pub fn get_bool(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Integer flag with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: {v:?} is not an integer")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = parse(&v(&[
            "optimize",
            "x.json",
            "--target",
            "agilio_cx",
            "-o",
            "y.json",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["optimize", "x.json"]);
        assert_eq!(a.get("target"), Some("agilio_cx"));
        assert_eq!(a.get("o"), Some("y.json"));
        assert_eq!(a.get_or("missing", "d"), "d");
    }

    #[test]
    fn numeric_flags() {
        let a = parse(&v(&["x", "--top-k", "0.4", "--packets", "100"])).unwrap();
        assert_eq!(a.get_f64("top-k", 0.3).unwrap(), 0.4);
        assert_eq!(a.get_usize("packets", 1).unwrap(), 100);
        assert!(a.get_f64("packets", 0.0).is_ok());
        let b = parse(&v(&["x", "--top-k", "abc"])).unwrap();
        assert!(b.get_f64("top-k", 0.3).is_err());
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&v(&["x", "--target"])).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(&v(&[
            "analyze",
            "p.json",
            "--deny-warnings",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["analyze", "p.json"]);
        assert!(a.get_bool("deny-warnings"));
        assert_eq!(a.get("format"), Some("json"));
        let b = parse(&v(&["analyze", "p.json"])).unwrap();
        assert!(!b.get_bool("deny-warnings"));
    }

    /// A boolean flag leaves the argument after it a positional; any
    /// other flag — one that used to be boolean included — takes it as its
    /// value, which is why a command must refuse flags it does not read.
    #[test]
    fn only_known_boolean_flags_leave_the_next_argument_alone() {
        let a = parse(&v(&["simulate", "--no-specialize", "p.json"])).unwrap();
        assert_eq!(a.positional, vec!["simulate", "p.json"]);
        assert_eq!(a.reject_unknown("simulate", &["no-specialize"]), Ok(()));
        let b = parse(&v(&["simulate", "--verbose", "p.json", "--seed", "7"])).unwrap();
        assert_eq!(b.positional, vec!["simulate"], "p.json was swallowed");
        let err = b.reject_unknown("simulate", &["seed"]).unwrap_err();
        assert!(
            err.contains("--verbose") && err.contains("simulate"),
            "{err}"
        );
    }
}
