//! End-to-end tests of the `replilint` binary: the exact gate CI runs.
//!
//! Each test builds a throwaway mini-workspace under the target tmp dir,
//! seeds it with a violation, and drives the compiled binary via
//! `CARGO_BIN_EXE_replilint`, asserting on exit codes and output — the
//! same observable surface the CI step depends on.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use replipred_lint::rules::retired::RETIRED;

/// One file per D8 ban path (the file itself, or one inside a subtree),
/// so a mini-workspace has no ban path that matches nothing.
fn ban_path_stubs() -> BTreeSet<String> {
    let scopes = RETIRED.iter().flat_map(|ban| ban.scope.iter());
    scopes
        .map(|s| match s.strip_suffix('/') {
            Some(dir) => format!("{dir}/stub.rs"),
            None => s.to_string(),
        })
        .collect()
}

/// A fresh scratch workspace root, unique per test, with an empty file
/// at every [`ban_path_stubs`] path.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("replilint-cli")
        .join(tag);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(dir.join("crates/sim/src")).expect("mkdir");
    fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    for stub in ban_path_stubs() {
        let path = dir.join(stub);
        fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
        fs::write(path, "").expect("stub");
    }
    dir
}

fn replilint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_replilint"))
        .args(args)
        .output()
        .expect("spawn replilint")
}

const SEEDED_VIOLATION: &str = "\
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
";

#[test]
fn seeded_violation_fails_the_gate() {
    let ws = scratch("violation");
    fs::write(ws.join("crates/sim/src/bad.rs"), SEEDED_VIOLATION).unwrap();
    let out = replilint(&["check", "--root", ws.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "gate must fail on a violation");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("crates/sim/src/bad.rs:2:16: D1 [wall-clock]"),
        "diagnostic with span missing from:\n{stdout}"
    );
    assert!(stdout.contains("1 diagnostic(s)"), "{stdout}");
}

#[test]
fn allow_comment_passes_the_gate() {
    let ws = scratch("allowed");
    let allowed = SEEDED_VIOLATION.replace(
        "std::time::Instant::now()",
        "std::time::Instant::now() // replilint:allow(D1) -- fixture: justified wall-clock read",
    );
    fs::write(ws.join("crates/sim/src/bad.rs"), allowed).unwrap();
    let out = replilint(&["check", "--root", ws.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "allowed violation must pass");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("replilint: clean"), "{stdout}");
}

#[test]
fn json_report_is_machine_readable() {
    let ws = scratch("json");
    fs::write(ws.join("crates/sim/src/bad.rs"), SEEDED_VIOLATION).unwrap();
    let out = replilint(&["check", "--root", ws.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The vendored serde_json has no dynamic Value type, so assert on
    // the serialized fields directly.
    let files_scanned = format!("\"files_scanned\": {}", 1 + ban_path_stubs().len());
    for needle in [
        "\"clean\": false",
        &files_scanned,
        "\"rule\": \"D1\"",
        "\"name\": \"wall-clock\"",
        "\"path\": \"crates/sim/src/bad.rs\"",
        "\"line\": 2",
        "\"col\": 16",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn rules_subcommand_lists_the_registry() {
    let out = replilint(&["rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for id in ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "A0"] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
}

#[test]
fn a_ban_path_that_matches_no_file_fails_the_gate() {
    let ws = scratch("vanished-ban-path");
    let gone = "crates/sidb/src/checkpoint.rs";
    fs::remove_file(ws.join(gone)).unwrap();
    let out = replilint(&["check", "--root", ws.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "a vacuous ban must fail");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(&format!("{gone}:1:1: D8 [retired]: ban path `{gone}`")),
        "{stdout}"
    );
    assert!(stdout.contains("1 diagnostic(s)"), "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = replilint(&["check", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}
