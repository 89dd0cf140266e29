//! Integration tests for the memory-model lint (`PV2xx`).
//!
//! Two halves: the repository's own sources must be lint-clean (this is
//! the same gate CI runs via `pipeleon analyze --concurrency`), and a
//! synthetic repo with one seeded violation per rule must trip exactly
//! the expected diagnostics — proving the gate can actually fail.

use pipeleon_verify::{lint_concurrency, lint_concurrency_with_count};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/verify -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

/// The actual repository must pass its own gate: every atomic in the
/// datapath audited, every unsafe site justified, no raw std::sync in
/// facade-covered files.
#[test]
fn repository_is_concurrency_clean() {
    let (diags, scanned) = lint_concurrency_with_count(&repo_root()).expect("lint must run");
    assert!(
        scanned >= 50,
        "sanity: expected to scan the whole workspace, saw {scanned} files"
    );
    assert!(
        diags.is_empty(),
        "repository violates its own memory-model contract:\n{}",
        diags
            .iter()
            .map(|d| d.render_text())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Builds a throwaway directory tree with the given (path, contents)
/// files and lints it.
fn lint_fixture(files: &[(&str, &str)]) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!(
        "pv2xx-fixture-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    for (rel, text) in files {
        let p = dir.join(rel);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(&p, text).unwrap();
    }
    let diags = lint_concurrency(&dir).expect("lint must run");
    let mut out: Vec<String> = diags
        .iter()
        .map(|d| format!("{} {}", d.code, d.context[0]))
        .collect();
    out.sort();
    fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn seeded_violations_trip_every_rule() {
    let found = lint_fixture(&[
        // PV201 + PV204: a Relaxed op and an undocumented Acquire.
        (
            "crates/sim/src/ring.rs",
            "fn f(a: &AtomicUsize) {\n    a.load(Ordering::Relaxed);\n    a.load(Ordering::Acquire);\n}\n",
        ),
        // PV205: raw std::sync import in a datapath source.
        (
            "crates/sim/src/sharded.rs",
            "use std::sync::atomic::AtomicU64;\n",
        ),
        // PV202: unsafe outside the allowlist.
        (
            "crates/core/src/lib.rs",
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        ),
        // PV203: allowlisted unsafe without a SAFETY comment.
        (
            "crates/sim/src/prefetch.rs",
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        ),
        // Clean file for contrast.
        (
            "crates/cost/src/lib.rs",
            "pub fn add(a: u64, b: u64) -> u64 { a + b }\n",
        ),
    ]);
    assert_eq!(
        found,
        [
            "PV201 crates/sim/src/ring.rs:2",
            "PV202 crates/core/src/lib.rs:1",
            "PV203 crates/sim/src/prefetch.rs:1",
            "PV204 crates/sim/src/ring.rs:3",
            "PV205 crates/sim/src/sharded.rs:1",
        ]
    );
}

/// Vendored code is never the repository's problem: the same violation
/// under `vendor/` is invisible.
#[test]
fn vendor_and_hidden_dirs_are_skipped() {
    let found = lint_fixture(&[
        ("vendor/some-crate/src/lib.rs", "fn f() { unsafe {} }\n"),
        (".hidden/src/lib.rs", "fn f() { unsafe {} }\n"),
        ("crates/ok/src/lib.rs", "pub fn ok() {}\n"),
    ]);
    assert!(found.is_empty(), "{found:?}");
}
