//! D1–D3 and D7: the determinism rules.
//!
//! These enforce the repo's load-bearing contract — reports are
//! byte-identical across `--jobs`, `--seeds`, and replica counts — at
//! the source level, inside the crates that execute between a seed and
//! a report ([`crate::policy::PROTECTED_CRATES`]). Test code is exempt:
//! a unit test reading the wall clock cannot perturb a report.

use super::{ident_at, matching_paren, path_sep_at, punct_at, FileContext, Rule};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::policy::FileInfo;

/// D1: no wall-clock reads. Simulated time comes from the engine clock;
/// an `Instant::now()` on a hot path silently couples a report to host
/// scheduling.
pub struct WallClock;

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "D1"
    }

    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn rationale(&self) -> &'static str {
        "No Instant::now()/SystemTime::now() in deterministic crates: simulated time must come from the engine clock, never the host's."
    }

    fn applies(&self, info: &FileInfo) -> bool {
        info.in_protected_src
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        let toks = ctx.tokens;
        for i in 0..toks.len() {
            let clock = if ident_at(toks, i, "Instant") {
                "Instant"
            } else if ident_at(toks, i, "SystemTime") {
                "SystemTime"
            } else {
                continue;
            };
            if path_sep_at(toks, i + 1)
                && ident_at(toks, i + 3, "now")
                && !ctx.in_test(toks[i].line)
            {
                out.push(self.diag(
                    ctx,
                    &toks[i],
                    format!(
                        "wall-clock read `{clock}::now()` in a deterministic crate; take time from the simulation clock (sim::SimTime) instead"
                    ),
                ));
            }
        }
    }
}

/// D2: no randomized-iteration-order collections. `std`'s `HashMap` and
/// `HashSet` seed SipHash from process entropy, so iteration order —
/// and anything folded from it — varies run to run. Use `RowMap`, the
/// `FxHashMap` alias (seed-free hasher, for never-iterated maps), or a
/// BTree type with defined order.
pub struct HashCollections;

impl Rule for HashCollections {
    fn id(&self) -> &'static str {
        "D2"
    }

    fn name(&self) -> &'static str {
        "hash-collections"
    }

    fn rationale(&self) -> &'static str {
        "No std HashMap/HashSet in deterministic crates: entropy-seeded iteration order leaks host randomness into anything folded from it. Use RowMap, sidb's FxHashMap alias, or BTreeMap/BTreeSet."
    }

    fn applies(&self, info: &FileInfo) -> bool {
        info.in_protected_src
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        for t in ctx.tokens {
            if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
                continue;
            }
            if ctx.in_test(t.line) {
                continue;
            }
            out.push(self.diag(
                ctx,
                t,
                format!(
                    "`{}` has entropy-seeded iteration order; use RowMap/FxHashMap (deterministic hashing) or BTreeMap/BTreeSet (defined order)",
                    t.text
                ),
            ));
        }
    }
}

/// D3: RNG discipline. Every stream must be derived from the scenario's
/// configured seed (`derive_stream_seed`, `Rng::fork`, or an expression
/// over a `…seed…` binding) so that runs replay exactly; entropy sources
/// and bare literal seeds are rejected.
pub struct RngDiscipline;

/// Identifiers that reach for OS entropy; any appearance is a violation.
const ENTROPY_SOURCES: &[&str] = &["from_entropy", "thread_rng", "OsRng", "getrandom"];

impl Rule for RngDiscipline {
    fn id(&self) -> &'static str {
        "D3"
    }

    fn name(&self) -> &'static str {
        "rng-discipline"
    }

    fn rationale(&self) -> &'static str {
        "RNGs are constructed only from the configured seed via the derivation helpers (derive_stream_seed, Rng::fork); never from entropy or bare literals."
    }

    fn applies(&self, info: &FileInfo) -> bool {
        info.in_protected_src
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        let toks = ctx.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
                continue;
            }
            if ENTROPY_SOURCES.contains(&t.text.as_str()) {
                out.push(self.diag(
                    ctx,
                    t,
                    format!(
                        "`{}` draws OS entropy; deterministic runs must derive every stream from the configured seed",
                        t.text
                    ),
                ));
                continue;
            }
            if t.text != "seed_from_u64" {
                continue;
            }
            // The definition itself (`fn seed_from_u64(seed: u64)`).
            if i > 0 && ident_at(toks, i - 1, "fn") {
                continue;
            }
            // Only calls are analyzed; a bare path mention has no args.
            if !punct_at(toks, i + 1, '(') {
                continue;
            }
            let Some(close) = matching_paren(toks, i + 1) else {
                continue;
            };
            let args = &toks[i + 2..close];
            let derived = args.iter().any(|a| {
                a.kind == TokenKind::Ident
                    && (a.text.to_ascii_lowercase().contains("seed") || a.text == "fork")
            });
            if !derived {
                out.push(self.diag(
                    ctx,
                    t,
                    "seed_from_u64 argument is not derived from a configured seed; route it through derive_stream_seed or a `…seed…` binding".to_string(),
                ));
            }
        }
    }
}

/// D7: no real file I/O. Durable state inside the simulators is modeled
/// in memory (a replica's redo log of typed records sharing each
/// commit's writeset; `WalWriter` frames and `Checkpoint` images as
/// byte buffers) so runs stay hermetic and byte-identical; anything
/// that actually touches the filesystem couples a run to host state and
/// belongs in the CLI layer (`src/main.rs`), which is outside the
/// protected set.
pub struct FileIo;

impl Rule for FileIo {
    fn id(&self) -> &'static str {
        "D7"
    }

    fn name(&self) -> &'static str {
        "file-io"
    }

    fn rationale(&self) -> &'static str {
        "No std::fs / File::open / OpenOptions in deterministic crates: durability is modeled in memory (typed redo-log records, WalWriter and Checkpoint byte buffers); real file persistence lives in the CLI layer."
    }

    fn applies(&self, info: &FileInfo) -> bool {
        info.in_protected_src
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        let toks = ctx.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
                continue;
            }
            // `std::fs` — imports and fully-qualified paths alike.
            if t.text == "fs" && i >= 3 && ident_at(toks, i - 3, "std") && path_sep_at(toks, i - 2)
            {
                out.push(self.diag(
                    ctx,
                    t,
                    "`std::fs` in a deterministic crate; model durable state as in-memory bytes (WalWriter/Checkpoint) and leave file persistence to the CLI".to_string(),
                ));
                continue;
            }
            if t.text == "OpenOptions" {
                out.push(self.diag(
                    ctx,
                    t,
                    "`OpenOptions` opens real files; deterministic crates keep durable state in memory — file persistence belongs to the CLI".to_string(),
                ));
                continue;
            }
            if t.text == "File"
                && path_sep_at(toks, i + 1)
                && (ident_at(toks, i + 3, "open")
                    || ident_at(toks, i + 3, "create")
                    || ident_at(toks, i + 3, "create_new")
                    || ident_at(toks, i + 3, "options"))
            {
                out.push(self.diag(
                    ctx,
                    t,
                    "`File` constructor opens real files; deterministic crates keep durable state in memory — file persistence belongs to the CLI".to_string(),
                ));
            }
        }
    }
}
