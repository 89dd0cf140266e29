//! Minimal dependency-free argument parsing against the usage text.

use std::collections::HashMap;

/// Parsed command line: positionals plus `--key value` / `-o value` flags.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order; the first names the command.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// The flags `command` accepts, read off its lines of `usage` (each line
/// starting `pipeleon <command>` and the indented lines after it): every
/// `--flag` and `-o` token, with whether it takes a value. A flag written
/// `[--flag]`, or followed by `[`, takes none.
pub fn flag_table<'u>(usage: &'u str, command: &str) -> Vec<(&'u str, bool)> {
    let (mut ours, mut words) = (false, Vec::new());
    for line in usage.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("pipeleon ") {
            ours = rest.split_whitespace().next() == Some(command);
        } else if line.is_empty() {
            ours = false;
        }
        if ours {
            words.extend(line.split_whitespace());
        }
    }
    let next_opens = |i: usize| words.get(i + 1).is_none_or(|w| w.starts_with('['));
    let flags = words.iter().enumerate().filter_map(|(i, w)| {
        let w = w.trim_start_matches('[');
        let name = w.strip_prefix("--").or_else(|| w.strip_prefix('-'))?;
        let bare = name.trim_end_matches(']');
        Some((bare, bare == name && !next_opens(i)))
    });
    flags.collect()
}

/// Parses `argv` (without the program name), whose first argument names
/// the command, against `usage`: only the flags in the command's
/// [`flag_table`] are accepted, each followed by its value unless the
/// table shows none. A flag the command does not list is refused before
/// it can take the argument after it as its value.
pub fn parse(argv: &[String], usage: &str) -> Result<Args, String> {
    let command = argv.first().map_or("", String::as_str);
    let table = flag_table(usage, command);
    let mut out = Args::default();
    let mut rest = argv.iter();
    while let Some(a) = rest.next() {
        let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
            out.positional.push(a.clone());
            continue;
        };
        let (_, valued) = table
            .iter()
            .find(|(flag, _)| *flag == name)
            .ok_or_else(|| format!("unknown flag {a} for `{command}`"))?;
        let value: &str = if *valued {
            rest.next()
                .ok_or_else(|| format!("flag {a} is missing its value"))?
        } else {
            "true"
        };
        out.flags.insert(name.to_owned(), value.to_owned());
    }
    Ok(out)
}

impl Args {
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

    const USAGE: &str = "\
tool — a usage text to parse against

USAGE:
  pipeleon optimize <program> [--target T] [--top-k F]
           [--packets N] [-o out.json]
  pipeleon analyze  <program> [--deny-warnings] [--format text|json]
  pipeleon analyze  --concurrency [repo-root]
  pipeleon simulate <program> [--seed S] [--no-specialize]

TARGETS: --not-a-flag";

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn the_flag_table_is_read_off_the_command_s_usage_lines() {
        assert_eq!(
            flag_table(USAGE, "optimize"),
            [
                ("target", true),
                ("top-k", true),
                ("packets", true),
                ("o", true)
            ]
        );
        assert_eq!(
            flag_table(USAGE, "analyze"),
            [
                ("deny-warnings", false),
                ("format", true),
                ("concurrency", false)
            ]
        );
        assert!(flag_table(USAGE, "tool").is_empty());
        assert!(flag_table(USAGE, "TARGETS:").is_empty());
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = parse(
            &v(&[
                "optimize",
                "x.json",
                "--target",
                "agilio_cx",
                "-o",
                "y.json",
            ]),
            USAGE,
        )
        .unwrap();
        assert_eq!(a.positional, vec!["optimize", "x.json"]);
        assert_eq!(a.get("target"), Some("agilio_cx"));
        assert_eq!(a.get("o"), Some("y.json"));
        assert_eq!(a.get_or("missing", "d"), "d");
    }

    #[test]
    fn numeric_flags() {
        let argv = v(&["optimize", "--top-k", "0.4", "--packets", "100"]);
        let a = parse(&argv, USAGE).unwrap();
        assert_eq!(a.get_f64("top-k", 0.3).unwrap(), 0.4);
        assert_eq!(a.get_usize("packets", 1).unwrap(), 100);
        assert!(a.get_f64("packets", 0.0).is_ok());
        let b = parse(&v(&["optimize", "--top-k", "abc"]), USAGE).unwrap();
        assert!(b.get_f64("top-k", 0.3).is_err());
    }

    #[test]
    fn missing_value_is_error() {
        let err = parse(&v(&["optimize", "--target"]), USAGE).unwrap_err();
        assert!(err.contains("--target"), "{err}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let argv = v(&["analyze", "p.json", "--deny-warnings", "--format", "json"]);
        let a = parse(&argv, USAGE).unwrap();
        assert_eq!(a.positional, vec!["analyze", "p.json"]);
        assert!(a.get_bool("deny-warnings"));
        assert_eq!(a.get("format"), Some("json"));
        let b = parse(&v(&["analyze", "--concurrency", "."]), USAGE).unwrap();
        assert_eq!(b.positional, vec!["analyze", "."]);
        assert!(b.get_bool("concurrency") && !b.get_bool("deny-warnings"));
    }

    /// A flag off the command's lines is refused, whether another
    /// command lists it or none does, so it cannot swallow the next
    /// argument as its value.
    #[test]
    fn a_flag_off_the_command_s_lines_is_refused() {
        let a = parse(&v(&["simulate", "--no-specialize", "p.json"]), USAGE).unwrap();
        assert_eq!(a.positional, vec!["simulate", "p.json"]);
        for flag in ["--verbose", "--target", "--deny-warnings", "-o"] {
            let err = parse(&v(&["simulate", flag, "p.json"]), USAGE).unwrap_err();
            assert!(err.contains(flag) && err.contains("simulate"), "{err}");
        }
    }
}
