//! The seven workloads: what one *pass* of each does, what it counts as
//! work, and which invariants its outputs must satisfy.
//!
//! A workload is a `setup` (its inputs, made from the seed) and a `pass`
//! (the fixed work list, timed by the runner). The same pass code runs
//! untraced — through the API a user of the library would call — and
//! traced, where the simulator workloads are re-driven cell by cell
//! through the design registry so a span can be recorded at each layer
//! boundary. Both routes must produce the same `report_digest`.

pub mod predict;
pub mod recover;
pub mod sim;
pub mod store;

use std::collections::BTreeMap;

/// Full-size passes, or the 1/10-size smoke variant (1 pass, < 20 s for
/// all seven workloads — something a CI job can afford).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the checked-in results use.
    Full,
    /// Roughly a tenth of the work.
    Smoke,
}

impl Size {
    /// `full` for [`Size::Full`], `full / 10` (at least 1) for smoke.
    pub fn scaled(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 10).max(1),
        }
    }
}

/// Mean model-vs-simulation errors over a pass's MM + SM cells, percent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelErrors {
    /// Mean relative throughput error.
    pub tput_pct: f64,
    /// Mean relative response-time error.
    pub resp_pct: f64,
    /// Mean abort-rate error, relative to `validate::ABORT_FLOOR`.
    pub abort_pct: f64,
}

/// Operation and correctness accounting of one pass. An *operation* is a
/// cell, prediction, transaction or recovery; it *fails* on `Err`, a
/// caught panic, or a violated invariant. Expected outcomes (snapshot-
/// isolation conflict aborts) are not failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failed check, for the result file.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; `note` describes it if it failed.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failure of an already counted operation.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        // Keep result files readable when something is badly broken.
        if self.notes.len() < 32 {
            self.notes.push(note);
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutput {
    /// Units of work done, the numerator of `ops_per_s`.
    pub ops: u64,
    /// Operation accounting (feeds `fail_frac`).
    pub checks: Checks,
    /// FNV-1a hash of the pass's serialized reports. Information, not a
    /// pin: equal across passes of a run, free to change across commits.
    pub digest: u64,
    /// Model-vs-simulation errors, on the workloads that pair them.
    pub model: Option<ModelErrors>,
    /// Counts that repeat exactly for a given seed.
    pub counts: BTreeMap<String, u64>,
}

impl PassOutput {
    /// Records an exactly repeating count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis: the `state` a fresh hash starts from.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a serializable report (its compact JSON form).
pub fn digest_of<T: serde::Serialize>(report: &T) -> u64 {
    let json = serde_json::to_string(report).expect("reports hold only finite numbers");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

/// `|predicted - measured| / max(measured, floor)`, the error metric of
/// `replipred::validate`.
pub fn rel_error(predicted: f64, measured: f64, floor: f64) -> f64 {
    (predicted - measured).abs() / measured.max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.ok(3);
        c.op(true, || unreachable!());
        c.op(false, || "cell 4: no commits".to_string());
        assert_eq!((c.attempted, c.failed), (5, 1));
        assert_eq!(c.notes, ["cell 4: no commits"]);
    }

    #[test]
    fn smoke_is_a_tenth() {
        assert_eq!(Size::Full.scaled(2_000_000), 2_000_000);
        assert_eq!(Size::Smoke.scaled(2_000_000), 200_000);
        assert_eq!(Size::Smoke.scaled(3), 1);
    }
}
