//! D8: names a simplicity change deleted stay out of the paths they
//! lived in. [`RETIRED`] holds literal substrings, matched on raw text
//! (code, comments and strings alike). A scope path that no scanned file
//! matches is itself a finding ([`unmatched_scopes`]), so a ban cannot
//! pass by checking nothing.

// replilint:allow-file(D8) -- the ban table spells every name it bans

use super::{FileContext, Rule};
use crate::diag::Diagnostic;
use crate::policy::FileInfo;

/// One ban: names that must not appear under any of its scope paths.
pub struct Retired {
    /// Literal substrings, matched on raw text.
    pub patterns: &'static [&'static str],
    /// Workspace-relative paths: `dir/` covers its subtree, any other names one file.
    pub scope: &'static [&'static str],
    /// What stays deleted, and why.
    pub reason: &'static str,
    /// The `CHANGES.md` entry that retired the names, by its number.
    pub retired_in: u32,
}

impl Retired {
    /// True when some scope path covers `rel_path`.
    pub fn covers(&self, rel_path: &str) -> bool {
        self.scope.iter().any(|s| scope_covers(s, rel_path))
    }
}

fn scope_covers(scope: &str, rel_path: &str) -> bool {
    rel_path == scope || (scope.ends_with('/') && rel_path.starts_with(scope))
}

/// Every ban, in the order the names were retired.
#[rustfmt::skip]
pub const RETIRED: &[Retired] = &[
    Retired {
        retired_in: 16, reason: "One event path (the boxed-closure engine API stays deleted)",
        patterns: &["BoxedEvent", "schedule_in(", "schedule_at("],
        scope: &["crates/", "src/"],
    },
    Retired {
        retired_in: 17, reason: "One of each above the kernel (a design is a match arm; the per-design types and trait objects stay deleted)",
        patterns: &["dyn Predictor", "dyn Simulator", "DesignSpec", "ScaledStandalone", "impl_simulator", "MultiMasterSim",
            "SingleMasterSim", "MultiMasterModel", "SingleMasterModel", "StandaloneModel", "plan_with"],
        scope: &["crates/", "src/", "tests/"],
    },
    Retired {
        retired_in: 20, reason: "One write path (a checkpoint is a value; what replays a log is a Database)",
        patterns: &["fn fold", "fn merge"],
        scope: &["crates/sidb/src/checkpoint.rs"],
    },
    Retired {
        retired_in: 20, reason: "One event queue (the engine's front-entry and hot-slot caches stay deleted)",
        patterns: &["front:", "hot_slot"],
        scope: &["crates/sim/src/engine.rs"],
    },
    Retired {
        retired_in: 24, reason: "A writeset is shared, not copied (one Arc per commit; spell the bump Arc::clone(&ws))",
        patterns: &["writeset.clone()", ".data.clone()"],
        scope: &["crates/repl/src/kernel.rs", "crates/repl/src/certifier.rs", "crates/repl/src/sm.rs",
            "crates/repl/src/mm.rs", "crates/repl/src/durable.rs"],
    },
    Retired {
        retired_in: 26, reason: "One set of books (a database counts its activity once)",
        patterns: &["StatementLog", "LogTotals", "StatementKind", "set_statement_logging", "with_statement_log",
            "reset_log"],
        scope: &["crates/", "src/", "tests/"],
    },
    Retired {
        retired_in: 28, reason: "A cell clones a seeded image; it never seeds (kernel::build takes &Seeded)",
        patterns: &[".install("],
        scope: &["crates/repl/src/mm.rs", "crates/repl/src/sm.rs", "crates/repl/src/standalone.rs",
            "crates/repl/src/design.rs", "crates/profiler/src/", "src/scenario.rs", "src/validate.rs"],
    },
    Retired {
        retired_in: 34, reason: "A replica's redo log is typed (records share the commit's writeset; no WAL bytes in repl)",
        patterns: &["WalWriter", "wal::"],
        scope: &["crates/repl/src/"],
    },
    Retired {
        retired_in: 35, reason: "One way to run the standalone node (standalone::run; the builder, the borrowed-writeset WAL append and the unread profile field stay deleted)",
        patterns: &["StandaloneSim", "StandaloneOutcome", "run_with_db", "append_commit", "encode_commit",
            "log_disk_is_zero", "pub log_disk"],
        scope: &["crates/", "src/", "tests/"],
    },
    Retired {
        retired_in: 39, reason: "One failure semantics (durability and retention are the run's, never a design's)",
        patterns: &["DURABLE_REJOIN"],
        scope: &["crates/", "src/", "tests/"],
    },
];

/// D8: no retired name under the paths [`RETIRED`] bans it from.
pub struct RetiredNames;

impl Rule for RetiredNames {
    fn id(&self) -> &'static str {
        "D8"
    }

    fn name(&self) -> &'static str {
        "retired"
    }

    fn rationale(&self) -> &'static str {
        "Names a simplicity change deleted stay out of the paths they lived in (one table, raw text, comments included); a ban path that matches no file is a finding too."
    }

    fn applies(&self, info: &FileInfo) -> bool {
        RETIRED.iter().any(|r| r.covers(&info.rel_path))
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        let path = &ctx.info.rel_path;
        for ban in RETIRED.iter().filter(|r| r.covers(path)) {
            for pattern in ban.patterns {
                for (at, _) in ctx.source.match_indices(pattern) {
                    let before = &ctx.source[..at];
                    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
                    let line = before.matches('\n').count() as u32 + 1;
                    let col = before[line_start..].chars().count() as u32 + 1;
                    let (n, why) = (ban.retired_in, ban.reason);
                    let message = format!("`{pattern}` was retired by change {n}: {why}");
                    out.push(self.diag_at(path, line, col, message));
                }
            }
        }
    }
}

/// One D8 diagnostic, anchored at the path itself, for every scope path
/// that matches none of the `scanned` workspace-relative paths.
pub fn unmatched_scopes(scanned: &[&str]) -> Vec<Diagnostic> {
    let scopes = RETIRED
        .iter()
        .flat_map(|ban| ban.scope.iter().map(move |s| (s, ban.reason)));
    scopes
        .filter(|(s, _)| !scanned.iter().any(|p| scope_covers(s, p)))
        .map(|(s, why)| {
            let message =
                format!("ban path `{s}` matches no scanned .rs file, so it checks nothing: {why}");
            RetiredNames.diag_at(s, 1, 1, message)
        })
        .collect()
}
