//! Fixture-driven rule tests.
//!
//! Every rule gets three fixtures under `tests/fixtures/d*/`: one that
//! fires (asserted by exact `(rule, line, col)` spans), one that is
//! clean, and one where a `replilint:allow` comment suppresses the hit.
//! Fixtures are analyzed via [`replipred_lint::analyze_source`] with a
//! pretend workspace path, which is what decides rule scope; the same
//! directory is on the walker's skip list so the real workspace scan
//! never sees these deliberately-violating sources.

use replipred_lint::analyze_source;
use replipred_lint::rules::retired::{Retired, RETIRED};

/// A protected-crate library path: D1–D3 apply here.
const SIM: &str = "crates/sim/src/fixture.rs";
/// An unprotected library path: only the workspace-wide rules apply.
const LIB: &str = "crates/mva/src/fixture.rs";

fn spans(path: &str, source: &str) -> Vec<(String, u32, u32)> {
    analyze_source(path, source)
        .into_iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect()
}

fn owned(expected: &[(&str, u32, u32)]) -> Vec<(String, u32, u32)> {
    expected
        .iter()
        .map(|&(r, l, c)| (r.to_string(), l, c))
        .collect()
}

// ---- D1: wall-clock ----

#[test]
fn d1_fires_on_wall_clock_reads() {
    let got = spans(SIM, include_str!("fixtures/d1/firing.rs"));
    assert_eq!(got, owned(&[("D1", 4, 13), ("D1", 5, 13)]));
}

#[test]
fn d1_clean_source_and_test_code_pass() {
    assert_eq!(spans(SIM, include_str!("fixtures/d1/clean.rs")), vec![]);
}

#[test]
fn d1_allow_comment_suppresses() {
    assert_eq!(spans(SIM, include_str!("fixtures/d1/allowed.rs")), vec![]);
}

#[test]
fn d1_does_not_apply_outside_protected_crates() {
    assert_eq!(spans(LIB, include_str!("fixtures/d1/firing.rs")), vec![]);
}

// ---- D2: hash-collections ----

#[test]
fn d2_fires_on_every_hashmap_mention() {
    let got = spans(SIM, include_str!("fixtures/d2/firing.rs"));
    assert_eq!(got, owned(&[("D2", 1, 23), ("D2", 3, 19), ("D2", 4, 5)]));
}

#[test]
fn d2_btree_is_clean() {
    assert_eq!(spans(SIM, include_str!("fixtures/d2/clean.rs")), vec![]);
}

#[test]
fn d2_allow_comment_suppresses() {
    assert_eq!(spans(SIM, include_str!("fixtures/d2/allowed.rs")), vec![]);
}

#[test]
fn d2_suppression_is_load_bearing() {
    // The same source minus its allow comment must fire: the clean
    // verdict above comes from the suppression, not from a scope hole.
    let stripped: String = include_str!("fixtures/d2/allowed.rs")
        .lines()
        .filter(|l| !l.contains("replilint:allow"))
        .map(|l| format!("{l}\n"))
        .collect();
    let got = spans(SIM, &stripped);
    assert_eq!(got, owned(&[("D2", 1, 23)]));
}

// ---- D3: rng-discipline ----

#[test]
fn d3_fires_on_entropy_and_underived_seeds() {
    let got = spans(SIM, include_str!("fixtures/d3/firing.rs"));
    assert_eq!(got, owned(&[("D3", 2, 13), ("D3", 3, 18)]));
}

#[test]
fn d3_seed_derivation_is_clean() {
    assert_eq!(spans(SIM, include_str!("fixtures/d3/clean.rs")), vec![]);
}

#[test]
fn d3_allow_comment_suppresses() {
    assert_eq!(spans(SIM, include_str!("fixtures/d3/allowed.rs")), vec![]);
}

// ---- D4: safety-comment (workspace-wide) ----

#[test]
fn d4_fires_on_undocumented_unsafe() {
    let got = spans(LIB, include_str!("fixtures/d4/firing.rs"));
    assert_eq!(got, owned(&[("D4", 2, 5)]));
}

#[test]
fn d4_safety_comment_is_clean() {
    assert_eq!(spans(LIB, include_str!("fixtures/d4/clean.rs")), vec![]);
}

#[test]
fn d4_allow_comment_suppresses() {
    assert_eq!(spans(LIB, include_str!("fixtures/d4/allowed.rs")), vec![]);
}

// ---- D5: float-cmp-unwrap (workspace-wide) ----

#[test]
fn d5_fires_on_partial_cmp_unwrap() {
    let got = spans(LIB, include_str!("fixtures/d5/firing.rs"));
    assert_eq!(got, owned(&[("D5", 2, 25)]));
}

#[test]
fn d5_total_cmp_is_clean() {
    assert_eq!(spans(LIB, include_str!("fixtures/d5/clean.rs")), vec![]);
}

#[test]
fn d5_allow_comment_suppresses() {
    assert_eq!(spans(LIB, include_str!("fixtures/d5/allowed.rs")), vec![]);
}

// ---- D6: print-discipline (path-class scoped) ----

#[test]
fn d6_fires_in_library_code() {
    let got = spans(LIB, include_str!("fixtures/d6/firing.rs"));
    assert_eq!(got, owned(&[("D6", 2, 5), ("D6", 3, 5)]));
}

#[test]
fn d6_clean_library_returns_data() {
    assert_eq!(spans(LIB, include_str!("fixtures/d6/clean.rs")), vec![]);
}

#[test]
fn d6_allow_file_suppresses_the_module() {
    assert_eq!(spans(LIB, include_str!("fixtures/d6/allowed.rs")), vec![]);
}

// ---- D7: file-io (protected crates) ----

#[test]
fn d7_fires_on_file_io() {
    let got = spans(SIM, include_str!("fixtures/d7/firing.rs"));
    assert_eq!(got, owned(&[("D7", 1, 10), ("D7", 4, 17), ("D7", 6, 13)]));
}

#[test]
fn d7_pure_codecs_and_test_code_pass() {
    assert_eq!(spans(SIM, include_str!("fixtures/d7/clean.rs")), vec![]);
}

#[test]
fn d7_allow_comment_suppresses() {
    assert_eq!(spans(SIM, include_str!("fixtures/d7/allowed.rs")), vec![]);
}

#[test]
fn d7_does_not_apply_outside_protected_crates() {
    assert_eq!(spans(LIB, include_str!("fixtures/d7/firing.rs")), vec![]);
}

// ---- D8: retired (scoped by its own table) ----

/// Inside `crates/repl/src/`, where every ban the D8 fixtures use applies.
const REPL: &str = "crates/repl/src/fixture.rs";

#[test]
fn d8_fires_on_retired_names_in_code_and_comments() {
    let got = spans(REPL, include_str!("fixtures/d8/firing.rs"));
    assert_eq!(
        got,
        owned(&[("D8", 1, 12), ("D8", 1, 17), ("D8", 3, 22), ("D8", 5, 15)])
    );
}

#[test]
fn d8_near_misses_are_clean() {
    assert_eq!(spans(REPL, include_str!("fixtures/d8/clean.rs")), vec![]);
}

#[test]
fn d8_allow_comment_suppresses() {
    assert_eq!(spans(REPL, include_str!("fixtures/d8/allowed.rs")), vec![]);
}

#[test]
fn d8_scope_is_per_ban() {
    // Outside `crates/repl/src/` the redo-log ban (line 1) no longer
    // applies; the workspace-wide bans (lines 3 and 5) still do.
    let got = spans(LIB, include_str!("fixtures/d8/firing.rs"));
    assert_eq!(got, owned(&[("D8", 3, 22), ("D8", 5, 15)]));
    let outside = "benchmark/src/fixture.rs";
    assert_eq!(
        spans(outside, include_str!("fixtures/d8/firing.rs")),
        vec![]
    );
}

/// A file inside `scope`: the file itself, or one nested in the subtree.
fn inside(scope: &str) -> String {
    if scope.ends_with('/') {
        format!("{scope}nested/probe.rs")
    } else {
        scope.to_string()
    }
}

/// Paths just outside `scope`: beside a file, beside a subtree (a name
/// that shares its prefix but not its `/`), and outside every scope.
fn beside(scope: &str) -> Vec<String> {
    let near = match scope.strip_suffix('/') {
        Some(dir) => format!("{dir}_beside/probe.rs"),
        None => format!("{}/probe.rs", scope.rsplit_once('/').map_or("", |(d, _)| d)),
    };
    vec![near, "benchmark/src/probe.rs".to_string()]
}

#[test]
fn d8_every_ban_fires_in_scope_and_nowhere_else() {
    let mut probes = 0;
    for ban in RETIRED {
        let inside: Vec<String> = ban.scope.iter().map(|s| inside(s)).collect();
        let outside: Vec<String> = ban.scope.iter().flat_map(|s| beside(s)).collect();
        for pattern in ban.patterns {
            // How many bans hold `pattern` at `path`: this one inside
            // its scope, and no other ban repeats a pattern.
            let bans_at = |path: &str| {
                let holds = |r: &&Retired| r.patterns.contains(pattern) && r.covers(path);
                RETIRED.iter().filter(holds).count()
            };
            for (source, col) in [
                (format!("fn probe() {{ {pattern} }}\n"), 14),
                (format!("// {pattern}\n"), 4),
            ] {
                for path in &inside {
                    assert_eq!(bans_at(path), 1, "{pattern} at {path}");
                    let got = spans(path, &source);
                    assert_eq!(got, owned(&[("D8", 1, col)]), "{source:?} at {path}");
                    probes += 1;
                }
                for path in &outside {
                    assert!(!ban.covers(path), "{path} is inside {:?}", ban.scope);
                    assert_eq!(bans_at(path), 0, "{pattern} at {path}");
                    assert_eq!(spans(path, &source), vec![], "{source:?} at {path}");
                    probes += 1;
                }
            }
        }
    }
    assert!(probes > 200, "only {probes} probes: is the table empty?");
}

#[test]
fn d6_exempts_presentation_path_classes() {
    let src = include_str!("fixtures/d6/firing.rs");
    for path in [
        "src/main.rs",
        "crates/bench/src/bin/fig6.rs",
        "crates/core/benches/solver.rs",
        "crates/core/tests/golden.rs",
        "crates/core/examples/demo.rs",
    ] {
        assert_eq!(spans(path, src), vec![], "{path} should be exempt");
    }
}
