//! Every invariant still fails a CI gate, and the exemptions stay few.
//!
//! `tests/fixtures/gates` is a package outside the workspace that picks up
//! the root `clippy.toml` and holds one violation per diagnostic class:
//! wall-clock types, raw threading, `unwrap`/`expect`/`panic!` under the
//! panic-gated header, NaN-unsafe float comparisons and missing docs. The
//! tests run clippy on it the way CI does (`-D warnings`), and the
//! `analyze` binary, and assert that each class is reported as a failure.

use anubis_xtask::passes::GATED_CRATES;
use anubis_xtask::walk;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The header that makes clippy reject panicking constructs in a crate.
const PANIC_HEADER: &str =
    "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gates")
}

#[test]
fn clippy_rejects_every_compiler_enforced_class() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args(["clippy", "--offline", "--locked", "--quiet"])
        .arg("--message-format=json")
        .arg("--manifest-path")
        .arg(fixture().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("gates-fixture"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    assert!(!output.status.success(), "clippy accepted the fixture");
    // One JSON compiler message per line; match on lint code and message.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let reported = |code: &str, message: &str| {
        stdout.lines().any(|line| {
            line.contains(&format!("\"code\":\"clippy::{code}\"")) && line.contains(message)
        })
    };
    for (code, message) in [
        ("disallowed_types", "disallowed type `std::time::Instant`"),
        (
            "disallowed_types",
            "disallowed type `std::time::SystemTime`",
        ),
        (
            "disallowed_methods",
            "disallowed method `std::thread::spawn`",
        ),
        (
            "disallowed_methods",
            "disallowed method `std::thread::scope`",
        ),
        (
            "disallowed_methods",
            "disallowed method `std::thread::Builder::spawn`",
        ),
        ("unwrap_used", "used `unwrap()`"),
        ("expect_used", "used `expect()`"),
        ("panic", "`panic` should not be present"),
    ] {
        assert!(
            reported(code, message),
            "clippy did not report {code}: {message}\n{stdout}"
        );
    }
}

#[test]
fn analyze_fails_on_nan_unsafe_comparisons_and_missing_docs() {
    let output = Command::new(env!("CARGO_BIN_EXE_anubis-xtask"))
        .arg("analyze")
        .arg("--root")
        .arg(fixture())
        .output()
        .expect("run analyze");
    assert_eq!(output.status.code(), Some(1), "analyze must fail");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for expected in [
        "src/lib.rs:56: A002(partial-cmp-unwrap):",
        "src/lib.rs:61: A002(float-eq):",
        "src/undocumented.rs:1: A009(doc-coverage): module lacks `//!` docs",
        "src/undocumented.rs:3: A009(doc-coverage): public item `pub fn` lacks a doc comment",
    ] {
        assert!(
            stdout
                .lines()
                .any(|line| line.starts_with(expected) && line.ends_with("[enforced]")),
            "missing enforced finding `{expected}`:\n{stdout}"
        );
    }
}

#[test]
fn every_gated_crate_carries_the_panic_header() {
    for name in GATED_CRATES {
        let lib = repo_root().join("crates").join(name).join("src/lib.rs");
        let text = fs::read_to_string(&lib).expect("read gated crate root");
        // rustfmt wraps the attribute, so compare with whitespace removed.
        let squashed: String = text.split_whitespace().collect();
        assert!(
            squashed.contains(&PANIC_HEADER.replace(' ', "")),
            "{} lacks `{PANIC_HEADER}`",
            lib.display()
        );
    }
}

#[test]
fn disallowed_lint_exemptions_are_exactly_the_sanctioned_sites() {
    // Split so this file does not match itself.
    let needle = concat!("allow(clippy::", "disallowed_");
    let root = repo_root();
    let mut sites = Vec::new();
    for path in walk::rust_files(&root).expect("walk repository") {
        let text = fs::read_to_string(root.join(&path)).expect("read source");
        let count = text.matches(needle).count();
        if count > 0 {
            sites.push((path, count));
        }
    }
    let sanctioned = [
        // A wall-clock probe that is ignored by default.
        "crates/nn/tests/timing.rs",
        // The `wallclock` timing facade.
        "crates/obs/src/wall.rs",
        // The deterministic executor's `thread::scope`.
        "crates/parallel/src/lib.rs",
    ];
    let expected: Vec<(String, usize)> = sanctioned.iter().map(|p| ((*p).to_owned(), 1)).collect();
    assert_eq!(sites, expected);
}
