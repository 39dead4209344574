//! `replilint` — the workspace-native determinism & sim-purity analyzer.
//!
//! The repo's load-bearing contract is that reports are **byte-identical**
//! across `--jobs`, `--seeds`, and replica counts; the paper's
//! prediction-vs-simulation comparison is only trustworthy because a
//! simulated run is a pure function of `(workload, design, seed)`. This
//! crate enforces that contract at the source level, before a stray
//! `HashMap` iteration or wall-clock read ever reaches a golden-snapshot
//! test:
//!
//! | id | name             | scope                         | contract |
//! |----|------------------|-------------------------------|----------|
//! | D1 | wall-clock       | protected crates' `src/`      | no `Instant::now`/`SystemTime::now` outside tests |
//! | D2 | hash-collections | protected crates' `src/`      | no std `HashMap`/`HashSet` (entropy-seeded order) |
//! | D3 | rng-discipline   | protected crates' `src/`      | RNG seeds derived from the configured seed only |
//! | D4 | safety-comment   | whole workspace               | every `unsafe` carries `// SAFETY:` |
//! | D5 | float-cmp-unwrap | whole workspace               | `partial_cmp().unwrap()` → `total_cmp` |
//! | D6 | print-discipline | libraries (not bins/tests/…)  | no `println!`/`eprintln!` in library code |
//! | D7 | file-io          | protected crates' `src/`      | no `std::fs`/`File`/`OpenOptions` — durability is in memory (typed redo log, WAL and checkpoint byte buffers); real I/O is the CLI's job |
//! | D8 | retired          | the paths each ban names      | no name a simplicity change deleted, in code, comments or strings ([`rules::retired::RETIRED`]); a ban path matching no file is a finding |
//!
//! Protected crates: `core`, `sim`, `repl`, `sidb`, `workload`
//! ([`policy::PROTECTED_CRATES`]).
//!
//! Violations that are individually justified are suppressed in place:
//!
//! ```text
//! // replilint:allow(D2) -- FxHasher is seed-free; this map is never iterated
//! // replilint:allow-file(D6) -- presentation helpers for the figure bins
//! ```
//!
//! The `-- <reason>` is mandatory; malformed or unknown-rule allows are
//! reported as `A0` so suppressions cannot rot silently.
//!
//! Run it as a workspace binary:
//!
//! ```sh
//! cargo run -p replipred-lint -- check          # human-readable, exit 1 on findings
//! cargo run -p replipred-lint -- check --json   # machine-readable report
//! cargo run -p replipred-lint -- rules          # the rule table above
//! ```
//!
//! Architecture: a hand-rolled [`lexer`] (no parser dependencies — the
//! build environment is offline) feeds a [`cfgscan`] pass that maps
//! `#[cfg(test)]` regions, a [`rules`] registry that pattern-matches
//! token sequences (D8 matches raw text), and an [`allow`] resolver
//! that applies suppression comments; [`walk`] supplies files in sorted
//! order so the report is byte-deterministic — the analyzer holds
//! itself to the contract it checks.

pub mod allow;
pub mod cfgscan;
pub mod diag;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod walk;

pub use diag::{Diagnostic, Report};
pub use policy::FileInfo;
pub use rules::{registry, Rule};

use std::fs;
use std::io;
use std::path::Path;

/// Analyzes one file's source as if it lived at `rel_path` (workspace-
/// relative, `/`-separated). This is the fixture-test entry point: the
/// pretend path decides which rules apply.
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    analyze_with(rel_path, source, &registry())
}

fn analyze_with(rel_path: &str, source: &str, rules: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let info = FileInfo::classify(rel_path);
    let lexed = lexer::lex(source);
    let test_ranges = cfgscan::test_line_ranges(&lexed.tokens);
    let ctx = rules::FileContext {
        info: &info,
        tokens: &lexed.tokens,
        comments: &lexed.comments,
        test_ranges: &test_ranges,
        source,
    };
    let mut diags = Vec::new();
    for rule in rules {
        if rule.applies(&info) {
            rule.check(&ctx, &mut diags);
        }
    }
    let known: Vec<&str> = rules.iter().map(|r| r.id()).collect();
    let (allows, malformed) = allow::parse(&lexed.comments, &known);
    diags.retain(|d| !allow::suppressed(&allows, &lexed.tokens, &d.rule, d.line));
    for m in malformed {
        diags.push(Diagnostic {
            rule: allow::BAD_ALLOW_ID.to_string(),
            name: allow::BAD_ALLOW_NAME.to_string(),
            path: rel_path.to_string(),
            line: m.line,
            col: m.col,
            message: m.message,
        });
    }
    diag::sort(&mut diags);
    diags
}

/// Checks every `.rs` file under `root` (see [`walk::collect_rs_files`]
/// for the skip list) and returns the aggregate report. A D8 ban path
/// that matches none of those files is reported too
/// ([`rules::retired::unmatched_scopes`]).
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let rules = registry();
    let files = walk::collect_rs_files(root)?;
    let mut diagnostics = Vec::new();
    for (abs, rel) in &files {
        let source = fs::read_to_string(abs)?;
        diagnostics.extend(analyze_with(rel, &source, &rules));
    }
    let scanned: Vec<&str> = files.iter().map(|(_, rel)| rel.as_str()).collect();
    diagnostics.extend(rules::retired::unmatched_scopes(&scanned));
    diag::sort(&mut diagnostics);
    Ok(Report {
        clean: diagnostics.is_empty(),
        files_scanned: files.len(),
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let reg = registry();
        let ids: Vec<&str> = reg.iter().map(|r| r.id()).collect();
        assert_eq!(ids, vec!["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8"]);
        let names: Vec<&str> = reg.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "wall-clock",
                "hash-collections",
                "rng-discipline",
                "safety-comment",
                "float-cmp-unwrap",
                "print-discipline",
                "file-io",
                "retired"
            ]
        );
    }

    #[test]
    fn diagnostics_come_back_sorted() {
        let src = "use std::collections::{HashMap, HashSet};\nfn t() { let _ = std::time::Instant::now(); }\n";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        let keys: Vec<(u32, u32, &str)> = diags
            .iter()
            .map(|d| (d.line, d.col, d.rule.as_str()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(diags.len(), 3);
    }

    #[test]
    fn suppressed_diagnostics_are_dropped_and_bad_allows_reported() {
        let src = "\
// replilint:allow(D2) -- deterministic hasher, never iterated
use std::collections::HashMap;
// replilint:allow(D2)
use std::collections::HashSet;
";
        let diags = analyze_source("crates/sidb/src/x.rs", src);
        // The HashMap is suppressed; the HashSet's allow lacks a reason,
        // so both the D2 and the A0 survive.
        let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, vec!["A0", "D2"]);
        assert_eq!(diags[1].line, 4);
    }
}
