//! The multi-master certification service (paper Sections 2, 5.1).
//!
//! "Certification is a lightweight stateful service that maintains
//! committed writesets and their versions. The request to certify a
//! transaction contains its writeset and version. The certifier detects
//! write-write conflicts by comparing the writeset of the transaction to
//! be certified to the writesets of the transactions that committed after
//! the version supplied in the request."
//!
//! Determinism makes the certifier trivially replicable with Paxos; the
//! simulation models the replicated certifier's latency (leader + two
//! backups, batched disk writes) as the configured 12 ms delay, which the
//! paper justifies in Section 6.3.2 and which our
//! `sens_certifier` experiment revisits.

use replipred_sidb::{RowMap, WriteSet};
use serde::{Deserialize, Serialize};

/// Version sentinel for "row never certified" in the per-table vectors
/// (global versions start at 1).
const NEVER: u64 = 0;

/// Certification verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Certification {
    /// Committed at the contained global version.
    Commit(u64),
    /// Write-write conflict with a writeset committed after the
    /// transaction's base version.
    Abort,
}

/// The certifier's durable state: the global, totally ordered writeset log.
#[derive(Debug, Default)]
pub struct Certifier {
    /// Certified writesets; `log[i]` has global version `i + 1 + truncated`.
    log: Vec<WriteSet>,
    /// Number of log entries removed by [`Certifier::truncate_applied`].
    truncated: u64,
    /// High-water mark of `log.len()` — the boundedness witness.
    peak: usize,
    /// Newest certified global version per row, one vector per
    /// [`replipred_sidb::TableId`] — certification is O(1) per writeset
    /// item (an array load for dense keys, one integer hash for sparse
    /// ones), with no string handling anywhere.
    newest: Vec<RowMap<u64>>,
    /// Certification requests served.
    pub requests: u64,
    /// Requests rejected with a conflict.
    pub conflicts: u64,
}

impl Certifier {
    /// Creates an empty certifier at global version 0.
    pub fn new() -> Self {
        Certifier::default()
    }

    /// Creates an empty certifier **anchored at** global version
    /// `version`: the next certified writeset commits at `version + 1`.
    ///
    /// This is the first-class alignment between a certifier and replicas
    /// whose databases already carry seeded history — writesets certify
    /// with their local `base_version` as-is, with no caller-side
    /// rebasing arithmetic.
    pub fn new_at(version: u64) -> Self {
        Certifier {
            truncated: version,
            ..Certifier::default()
        }
    }

    /// Latest global version.
    pub fn version(&self) -> u64 {
        self.truncated + self.log.len() as u64
    }

    /// Oldest version still present in the log (0 when nothing was
    /// truncated).
    pub fn truncated_below(&self) -> u64 {
        self.truncated
    }

    /// Writesets currently retained in the log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// High-water mark of the retained writeset count.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Certifies a writeset against the global log. On success the
    /// writeset is appended and assigned the next global version.
    ///
    /// An empty writeset (read-only transaction) always commits *without*
    /// advancing the version — read-only transactions never contact the
    /// certifier in the real system.
    pub fn certify(&mut self, ws: &WriteSet) -> Certification {
        self.requests += 1;
        if ws.is_empty() {
            return Certification::Commit(self.version());
        }
        for (table, row) in ws.keys() {
            let v = self
                .newest
                .get(table.index())
                .and_then(|m| m.get(row.raw()))
                .unwrap_or(NEVER);
            if v > ws.base_version {
                self.conflicts += 1;
                return Certification::Abort;
            }
        }
        let version = self.version() + 1;
        for (table, row) in ws.keys() {
            if table.index() >= self.newest.len() {
                self.newest
                    .resize_with(table.index() + 1, || RowMap::new(NEVER));
            }
            self.newest[table.index()].insert(row.raw(), version);
        }
        self.log.push(ws.clone());
        self.peak = self.peak.max(self.log.len());
        Certification::Commit(version)
    }

    /// The certified writeset at `version` (1-based), if it exists and was
    /// not truncated. Used by replicas to fetch propagation payloads.
    pub fn writeset_at(&self, version: u64) -> Option<&WriteSet> {
        if version == 0 || version <= self.truncated {
            return None;
        }
        self.log.get((version - self.truncated) as usize - 1)
    }

    /// Writesets with versions in `(after, to]`, for catch-up propagation.
    ///
    /// # Panics
    ///
    /// Panics if `after` is below the truncation horizon — the caller
    /// asked for history that no longer exists (it must bootstrap from a
    /// full state transfer instead).
    pub fn writesets_between(&self, after: u64, to: u64) -> &[WriteSet] {
        assert!(
            after >= self.truncated,
            "versions <= {} were truncated; catch-up from {after} is impossible",
            self.truncated
        );
        let lo = ((after - self.truncated) as usize).min(self.log.len());
        let hi = (to.saturating_sub(self.truncated) as usize).min(self.log.len());
        &self.log[lo..hi]
    }

    /// Truncates the log prefix up to and including `version` (safe once
    /// every replica has applied it). The conflict index is kept intact —
    /// certification correctness only needs the newest version per key.
    /// Returns the number of writesets dropped.
    pub fn truncate_applied(&mut self, version: u64) -> usize {
        let keep_from = (version.saturating_sub(self.truncated) as usize).min(self.log.len());
        self.log.drain(..keep_from);
        self.truncated += keep_from as u64;
        keep_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_sidb::{RowId, TableId, Value, WriteItem, WriteOp};

    fn ws(base: u64, rows: &[u64]) -> WriteSet {
        WriteSet {
            base_version: base,
            items: rows
                .iter()
                .map(|&row| WriteItem {
                    table: TableId(0),
                    row: RowId(row),
                    op: WriteOp::Update,
                    data: Some(vec![Value::Int(1)]),
                })
                .collect(),
        }
    }

    #[test]
    fn first_committer_wins_globally() {
        let mut c = Certifier::new();
        // Two writesets from version 0 touching the same row: the second
        // must abort.
        assert_eq!(c.certify(&ws(0, &[5])), Certification::Commit(1));
        assert_eq!(c.certify(&ws(0, &[5])), Certification::Abort);
        assert_eq!(c.conflicts, 1);
    }

    #[test]
    fn non_overlapping_writesets_commit() {
        let mut c = Certifier::new();
        assert_eq!(c.certify(&ws(0, &[1])), Certification::Commit(1));
        assert_eq!(c.certify(&ws(0, &[2])), Certification::Commit(2));
        assert_eq!(c.version(), 2);
    }

    #[test]
    fn fresh_snapshot_sees_no_conflict() {
        let mut c = Certifier::new();
        assert_eq!(c.certify(&ws(0, &[7])), Certification::Commit(1));
        // A transaction that *started after* version 1 may rewrite row 7.
        assert_eq!(c.certify(&ws(1, &[7])), Certification::Commit(2));
    }

    #[test]
    fn stale_snapshot_conflicts_even_transitively() {
        let mut c = Certifier::new();
        assert_eq!(c.certify(&ws(0, &[1])), Certification::Commit(1));
        assert_eq!(c.certify(&ws(1, &[1, 2])), Certification::Commit(2));
        // Base 1 saw version 1 but not version 2, which wrote row 2.
        assert_eq!(c.certify(&ws(1, &[2])), Certification::Abort);
    }

    #[test]
    fn read_only_commits_without_version_bump() {
        let mut c = Certifier::new();
        let empty = WriteSet {
            base_version: 0,
            items: vec![],
        };
        assert_eq!(c.certify(&empty), Certification::Commit(0));
        assert_eq!(c.version(), 0);
    }

    #[test]
    fn propagation_payload_lookup() {
        let mut c = Certifier::new();
        c.certify(&ws(0, &[1]));
        c.certify(&ws(1, &[2]));
        assert_eq!(c.writeset_at(1).unwrap().items[0].row, RowId(1));
        assert_eq!(c.writeset_at(2).unwrap().items[0].row, RowId(2));
        assert!(c.writeset_at(0).is_none());
        assert!(c.writeset_at(3).is_none());
        let between = c.writesets_between(0, 2);
        assert_eq!(between.len(), 2);
        assert_eq!(c.writesets_between(1, 2).len(), 1);
    }

    #[test]
    fn truncation_preserves_certification() {
        let mut c = Certifier::new();
        for i in 0..10u64 {
            assert_eq!(c.certify(&ws(i, &[i])), Certification::Commit(i + 1));
        }
        let dropped = c.truncate_applied(5);
        assert_eq!(dropped, 5);
        assert_eq!(c.version(), 10);
        assert_eq!((c.log_len(), c.peak_len()), (5, 10));
        assert!(c.writeset_at(5).is_none());
        assert_eq!(c.writeset_at(6).unwrap().items[0].row, RowId(5));
        // Conflict detection still works across the truncation horizon.
        assert_eq!(c.certify(&ws(0, &[3])), Certification::Abort);
        assert_eq!(c.certify(&ws(10, &[3])), Certification::Commit(11));
        // Catch-up above the horizon works; the suffix is intact.
        assert_eq!(c.writesets_between(5, 11).len(), 6);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn catch_up_below_truncation_panics() {
        let mut c = Certifier::new();
        for i in 0..4u64 {
            c.certify(&ws(i, &[i]));
        }
        c.truncate_applied(2);
        let _ = c.writesets_between(0, 4);
    }

    #[test]
    fn anchored_certifier_uses_absolute_versions() {
        // Replicas seeded to version 50 talk to the certifier in their
        // own version space — no offset arithmetic anywhere.
        let mut c = Certifier::new_at(50);
        assert_eq!(c.version(), 50);
        assert_eq!(c.certify(&ws(50, &[1])), Certification::Commit(51));
        // A snapshot from before the anchor still conflicts correctly.
        assert_eq!(c.certify(&ws(50, &[1])), Certification::Abort);
        assert_eq!(c.certify(&ws(51, &[1])), Certification::Commit(52));
        assert_eq!(c.writesets_between(50, 52).len(), 2);
    }

    #[test]
    fn partial_overlap_is_a_conflict() {
        let mut c = Certifier::new();
        assert_eq!(c.certify(&ws(0, &[1, 2, 3])), Certification::Commit(1));
        assert_eq!(c.certify(&ws(0, &[3, 4])), Certification::Abort);
        // Row 4 was never committed by the winner, so a disjoint set is ok.
        assert_eq!(c.certify(&ws(0, &[4])), Certification::Commit(2));
    }
}
