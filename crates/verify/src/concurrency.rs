//! Memory-model lint for the lock-free datapath (`PV2xx` codes).
//!
//! The deterministic model checker (`pipeleon-check`) proves the ring
//! and generation-chain protocols correct *for the sources as written*;
//! this lint is the static fence that keeps future edits inside the
//! audited envelope the proofs cover:
//!
//! - **PV201** — `Ordering::Relaxed` in a datapath source. The model
//!   suite establishes that every edge of the Lamport/RCU protocols
//!   needs Release/Acquire; a new `Relaxed` means the proof no longer
//!   matches the code and must be re-run, so the lint denies it
//!   outright.
//! - **PV202** — `unsafe` in a file outside the allowlist. Unsafe code
//!   is confined to the few files whose invariants the model checker
//!   (or the allocator-guard test) actually exercises.
//! - **PV203** — an `unsafe` site in an allowlisted *source* file
//!   without a `// SAFETY:` comment in the preceding lines. Test files
//!   under the allowlist are exempt: their accesses run under the
//!   checker, which is stronger than a comment.
//! - **PV204** — an atomic operation (`Ordering::` at a call site) in a
//!   datapath source without an `// ORDERING:` comment nearby stating
//!   the happens-before edge it implements.
//! - **PV205** — a raw `std::sync` atomic or mutex in a datapath
//!   source. The datapath must import synchronization through the
//!   `crate::sync` facade so model builds swap in the tracked shims; a
//!   raw import silently escapes the checker.
//!
//! This is a line-level lint over the repository's own sources (no
//! parsing, no external deps): comments and string literals are
//! stripped before token matching, `#[cfg(test)]` tails of datapath
//! files are skipped for the datapath rules (test counters legitimately
//! use `SeqCst` std atomics), and `vendor/`, `target/` and hidden
//! directories are never scanned.

use crate::{Code, Diagnostic};
use std::fs;
use std::path::{Path, PathBuf};

/// Datapath sources: must use the `crate::sync` facade, documented
/// orderings, and no `Relaxed`.
const DATAPATH: &[&str] = &[
    "crates/sim/src/ring.rs",
    "crates/sim/src/generation.rs",
    "crates/sim/src/sharded.rs",
];

/// Source files allowed to contain `unsafe`, each site requiring a
/// `// SAFETY:` comment (PV203 enforced).
const UNSAFE_SRC_ALLOWLIST: &[&str] = &[
    // The SPSC ring's MaybeUninit slots — protocol verified by the
    // model suite.
    "crates/sim/src/ring.rs",
    // The crate's one `_mm_prefetch` site (packet slots, ring slots
    // and match-table slots all hint through it).
    "crates/sim/src/prefetch.rs",
    // The std-side CheckCell newtype (Send/Sync impls + UnsafeCell).
    "crates/sim/src/sync.rs",
    // The checker's own shims are the instrument, not the subject.
    "crates/check/src/",
];

/// Test files allowed to contain `unsafe` without SAFETY comments:
/// their raw accesses execute under the model checker (or, for the
/// alloc guards of the datapath and the socket path, implement the
/// counting `GlobalAlloc`).
const UNSAFE_TEST_ALLOWLIST: &[&str] = &[
    "crates/sim/tests/model.rs",
    "crates/sim/tests/alloc_guard.rs",
    "crates/net/tests/alloc_guard.rs",
    "crates/check/tests/",
];

/// How many preceding lines may carry the justifying comment. Wide
/// enough for a doc-commented helper whose body is a cfg pair (see
/// `ring.rs`'s ordering helpers), narrow enough that a comment cannot
/// justify a site half a screen away.
const COMMENT_WINDOW: usize = 12;

/// Runs the memory-model lint over the repository rooted at `root`.
/// Scans every first-party `.rs` file (skipping `vendor/`, `target/`,
/// and hidden directories) and returns one diagnostic per violation.
pub fn lint_concurrency(root: &Path) -> Result<Vec<Diagnostic>, String> {
    lint_concurrency_with_count(root).map(|(diags, _)| diags)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "vendor" || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip prefix: {e}"))?;
            out.push(rel_slashes(rel));
        }
    }
    Ok(())
}

fn rel_slashes(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

fn in_list(rel: &str, list: &[&str]) -> bool {
    list.iter().any(|e| {
        if e.ends_with('/') {
            rel.starts_with(e)
        } else {
            rel == *e
        }
    })
}

fn lint_file(rel: &str, text: &str, diags: &mut Vec<Diagnostic>) {
    let datapath = in_list(rel, DATAPATH);
    let unsafe_src_ok = in_list(rel, UNSAFE_SRC_ALLOWLIST);
    let unsafe_test_ok = in_list(rel, UNSAFE_TEST_ALLOWLIST);

    let raw_lines: Vec<&str> = text.lines().collect();
    // Code content with comments and string literals blanked, per line.
    let code_lines: Vec<String> = strip_noncode(text);

    // Datapath rules stop at the file's `#[cfg(test)]` tail: test
    // modules may use std atomics for instrumentation counters.
    let test_tail = raw_lines
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(raw_lines.len());

    for (i, code) in code_lines.iter().enumerate() {
        let lineno = i + 1;
        let at = format!("{rel}:{lineno}");

        if datapath && i < test_tail {
            if code.contains("Ordering::Relaxed") {
                diags.push(diag(
                    Code::RelaxedOrdering,
                    "`Ordering::Relaxed` in a datapath source; the model-checked \
                     protocol proofs cover Release/Acquire only — re-run the model \
                     suite and use the facade's audited orderings instead"
                        .to_string(),
                    &at,
                ));
            }
            if code.contains("std::sync::atomic::Atomic") || code.contains("std::sync::Mutex") {
                diags.push(diag(
                    Code::RawAtomicOutsideFacade,
                    "raw `std::sync` primitive in a datapath source; import it \
                     through `crate::sync` so `--cfg pipeleon_check` builds swap \
                     in the tracked shims"
                        .to_string(),
                    &at,
                ));
            }
            if code.contains("Ordering::")
                && !code.contains("Ordering::Relaxed")
                && !has_comment_nearby(&raw_lines, i, "ORDERING:")
            {
                diags.push(diag(
                    Code::MissingOrderingComment,
                    format!(
                        "atomic operation without an `// ORDERING:` comment within the \
                         preceding {COMMENT_WINDOW} lines stating its happens-before edge"
                    ),
                    &at,
                ));
            }
        }

        if contains_unsafe_token(code) {
            if unsafe_test_ok {
                // Model-checked (or alloc-guard) test code: exempt.
            } else if unsafe_src_ok {
                if !has_comment_nearby(&raw_lines, i, "SAFETY:") {
                    diags.push(diag(
                        Code::MissingSafetyComment,
                        format!(
                            "`unsafe` without a `// SAFETY:` comment within the \
                             preceding {COMMENT_WINDOW} lines"
                        ),
                        &at,
                    ));
                }
            } else {
                diags.push(diag(
                    Code::UnsafeOutsideAllowlist,
                    "`unsafe` outside the audited allowlist; keep unsafe code in \
                     the model-checked datapath files or extend the allowlist in \
                     crates/verify/src/concurrency.rs with a review"
                        .to_string(),
                    &at,
                ));
            }
        }
    }
}

fn diag(code: Code, message: String, at: &str) -> Diagnostic {
    Diagnostic {
        code,
        severity: code.default_severity(),
        message,
        context: vec![at.to_string()],
    }
}

/// Whether any of the `COMMENT_WINDOW` raw lines above `i` (or line `i`
/// itself) carries the given marker (`SAFETY:` / `ORDERING:`) in a
/// comment.
fn has_comment_nearby(raw: &[&str], i: usize, marker: &str) -> bool {
    let lo = i.saturating_sub(COMMENT_WINDOW);
    raw[lo..=i].iter().any(|l| {
        let t = l.trim_start();
        // Accept both standalone comment lines and trailing comments.
        t.contains("//") && l.contains(marker)
    })
}

/// Whether the (comment/string-stripped) line contains the `unsafe`
/// keyword as a standalone token. `unsafe_op_in_unsafe_fn` and
/// `forbid(unsafe_code)` fail the word-boundary check on the trailing
/// `_` and are naturally skipped.
fn contains_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let before_ok = start == 0 || !is_ident(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blanks comments (`//` to end of line, `/* ... */` across lines) and
/// string literals (`"..."`, with escapes; raw strings handled as plain
/// quotes conservatively) so token scans only see code. Char literals
/// like `'"'` are short enough not to matter for our tokens.
fn strip_noncode(text: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block,
        Str,
    }
    let mut st = St::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let b = line.as_bytes();
        let mut keep = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            match st {
                St::Code => {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                        break; // line comment: drop the rest
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        st = St::Block;
                        i += 2;
                    } else if b[i] == b'"' {
                        st = St::Str;
                        keep.push(' ');
                        i += 1;
                    } else {
                        keep.push(b[i] as char);
                        i += 1;
                    }
                }
                St::Block => {
                    if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        st = St::Code;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        st = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        // An unterminated string continues on the next line (multi-line
        // literal); nothing to do — state carries over.
        out.push(keep);
    }
    out
}

/// Convenience used by the CLI and tests: lints the repo and also
/// returns how many files were scanned, for reporting.
pub fn lint_concurrency_with_count(root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    let mut files: Vec<String> = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let n = files.len();
    let mut diags = Vec::new();
    for rel in &files {
        let path: PathBuf = root.join(rel);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        lint_file(rel, &text, &mut diags);
    }
    Ok((diags, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_snippet(rel: &str, text: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        lint_file(rel, text, &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn relaxed_in_datapath_is_denied() {
        let d = lint_snippet(
            "crates/sim/src/ring.rs",
            "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(codes(&d), ["PV201"]);
    }

    #[test]
    fn relaxed_in_comment_or_string_is_ignored() {
        let d = lint_snippet(
            "crates/sim/src/ring.rs",
            "// a Relaxed store via Ordering::Relaxed breaks the sequence\n\
             fn f() { let _ = \"Ordering::Relaxed\"; }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn raw_std_atomic_in_datapath_is_denied() {
        let d = lint_snippet(
            "crates/sim/src/sharded.rs",
            "use std::sync::atomic::AtomicU64;\n",
        );
        assert_eq!(codes(&d), ["PV205"]);
    }

    #[test]
    fn raw_std_mutex_in_datapath_is_denied() {
        let d = lint_snippet("crates/sim/src/sharded.rs", "use std::sync::Mutex;\n");
        assert_eq!(codes(&d), ["PV205"]);
    }

    #[test]
    fn facade_import_is_clean() {
        let d = lint_snippet(
            "crates/sim/src/sharded.rs",
            "use crate::sync::{AtomicU64, Mutex, Ordering};\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn atomic_op_without_ordering_comment_is_flagged() {
        let d = lint_snippet(
            "crates/sim/src/generation.rs",
            "fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n",
        );
        assert_eq!(codes(&d), ["PV204"]);
    }

    #[test]
    fn ordering_comment_within_window_satisfies_pv204() {
        let d = lint_snippet(
            "crates/sim/src/generation.rs",
            "// ORDERING: Acquire — pairs with the publisher's Release.\n\
             fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_test_tail_is_exempt_from_datapath_rules() {
        let d = lint_snippet(
            "crates/sim/src/ring.rs",
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::sync::atomic::AtomicUsize;\n\
                 fn t(a: &AtomicUsize) { a.load(std::sync::atomic::Ordering::SeqCst); }\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_outside_allowlist_is_denied() {
        let d = lint_snippet(
            "crates/core/src/optimizer.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert_eq!(codes(&d), ["PV202"]);
    }

    #[test]
    fn unsafe_in_allowlisted_src_needs_safety_comment() {
        let d = lint_snippet(
            "crates/sim/src/ring.rs",
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        );
        assert_eq!(codes(&d), ["PV203"]);
        let ok = lint_snippet(
            "crates/sim/src/ring.rs",
            "// SAFETY: exclusive access proven by the SPSC protocol.\n\
             fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn model_test_files_may_use_raw_unsafe() {
        let d = lint_snippet(
            "crates/sim/tests/model.rs",
            "fn f(c: &CheckCell<u64>) { c.with(|p| unsafe { *p }); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lint_attributes_are_not_unsafe_tokens() {
        let d = lint_snippet(
            "crates/core/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\n#![forbid(unsafe_code)]\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
