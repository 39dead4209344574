//! The repo's benchmark harness, measured from outside: it links the
//! public library API (`replipred::{scenario, validate, model, mva, sim,
//! sidb, workload, repl, profiler}`), times calls into each layer's
//! public functions, and never edits a protected crate.
//!
//! See `README.md` in this directory for the workloads, the metric
//! glossary and the run protocol, and `BENCHMARK.json` at the repo root
//! for the contract the driver runs it under.

pub mod clock;
pub mod diff;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod shadow;
pub mod stats;
pub mod trace;
pub mod workloads;

#[cfg(test)]
mod tests {
    /// The `[profile.release]` table of a manifest: its `key = value`
    /// lines, trimmed, comments dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// Build settings change speed without changing code: the harness
    /// must be built the way the root package is.
    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let own = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest lost its [profile.release]"
        );
        assert_eq!(
            own, root,
            "benchmark/Cargo.toml's [profile.release] drifted"
        );
    }
}
