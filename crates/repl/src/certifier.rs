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
//! `figures sens-certifier` experiment revisits.

use std::borrow::Borrow;
use std::sync::Arc;

use replipred_sidb::{RowMap, WriteSet};
use serde::{Deserialize, Serialize};

use crate::wslog::WsLog;

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

/// The certifier's durable state: the global, totally ordered writeset
/// log plus the conflict index over it.
#[derive(Debug, Default)]
pub struct Certifier {
    /// Certified writesets, sequenced by global version.
    log: WsLog,
    /// Newest certified global version per row, one vector per
    /// [`replipred_sidb::TableId`] — certification is O(1) per writeset
    /// item (an array load for dense keys, one integer hash for sparse
    /// ones), with no string handling anywhere.
    newest: Vec<RowMap<u64>>,
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
            log: WsLog::anchored_at(version),
            ..Certifier::default()
        }
    }

    /// Latest global version.
    pub fn version(&self) -> u64 {
        self.log.next_seq() - 1
    }

    /// The certified-writeset log, sequenced by global version.
    pub(crate) fn log(&self) -> &WsLog {
        &self.log
    }

    /// The log, for the kernel's vacuum-cadence truncation.
    pub(crate) fn log_mut(&mut self) -> &mut WsLog {
        &mut self.log
    }

    /// Certifies a writeset against the global log. On success the
    /// writeset is appended and assigned the next global version.
    ///
    /// An empty writeset (read-only transaction) always commits *without*
    /// advancing the version — read-only transactions never contact the
    /// certifier in the real system.
    ///
    /// `shared` is a `&WriteSet` or a `&Arc<WriteSet>`: the log keeps a
    /// clone of what it is handed, so a caller that shares one `Arc` per
    /// commit (the multi-master proxy) has it logged by a count bump.
    pub fn certify<W>(&mut self, shared: &W) -> Certification
    where
        W: Borrow<WriteSet> + Clone + Into<Arc<WriteSet>>,
    {
        let ws: &WriteSet = shared.borrow();
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
        let version = self.log.push(shared.clone());
        for (table, row) in ws.keys() {
            if table.index() >= self.newest.len() {
                self.newest
                    .resize_with(table.index() + 1, || RowMap::new(NEVER));
            }
            self.newest[table.index()].insert(row.raw(), version);
        }
        Certification::Commit(version)
    }

    /// Writesets with versions in `(after, to]`, in order, for catch-up
    /// propagation (`to` past the newest version means "up to it").
    ///
    /// # Panics
    ///
    /// Panics if `after` is below the truncation horizon — the caller
    /// asked for history that no longer exists (it must bootstrap from a
    /// full state transfer instead).
    pub fn writesets_between(&self, after: u64, to: u64) -> impl Iterator<Item = &WriteSet> {
        self.log
            .range_from(after + 1, to.min(self.version()))
            .unwrap_or_else(|| {
                panic!("versions after {after} were truncated; catch-up is impossible")
            })
            .map(|ws| &**ws)
    }

    /// Truncates the log prefix up to and including `version` (safe once
    /// every replica has applied it). The conflict index is kept intact —
    /// certification correctness only needs the newest version per key.
    /// Returns the number of writesets dropped.
    pub fn truncate_applied(&mut self, version: u64) -> usize {
        self.log.truncate_below(version + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_sidb::{Database, RowId, TableId, Value, WriteItem, WriteOp};

    fn ws(base: u64, rows: &[u64]) -> WriteSet {
        WriteSet {
            base_version: base,
            items: rows
                .iter()
                .map(|&row| WriteItem {
                    table: TableId(0),
                    row: RowId(row),
                    op: WriteOp::Update,
                    data: Some([Value::Int(1)].into()),
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
        let rows = |after, to| -> Vec<RowId> {
            c.writesets_between(after, to)
                .map(|ws| ws.items[0].row)
                .collect()
        };
        assert_eq!(rows(0, 2), [RowId(1), RowId(2)]);
        assert_eq!(rows(1, 2), [RowId(2)]);
        assert_eq!(rows(0, 99), [RowId(1), RowId(2)], "`to` clamps to the head");
        assert_eq!(rows(2, 2), []);
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
        assert_eq!((c.log().len(), c.log().peak_len()), (5, 10));
        assert!(!c.log().contains(5) && c.log().contains(6));
        // Conflict detection still works across the truncation horizon.
        assert_eq!(c.certify(&ws(0, &[3])), Certification::Abort);
        assert_eq!(c.certify(&ws(10, &[3])), Certification::Commit(11));
        // Catch-up above the horizon works; the suffix is intact.
        let suffix: Vec<RowId> = c
            .writesets_between(5, 11)
            .map(|ws| ws.items[0].row)
            .collect();
        assert_eq!(suffix[0], RowId(5));
        assert_eq!(suffix.len(), 6);
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
        // own version space: writesets certify with their local
        // `base_version` as-is and the first commits at `anchor + 1` — no
        // offset arithmetic anywhere.
        let mut c = Certifier::new_at(50);
        assert_eq!(c.version(), 50);
        assert_eq!(c.certify(&ws(50, &[1])), Certification::Commit(51));
        // A snapshot from before the anchor still conflicts correctly.
        assert_eq!(c.certify(&ws(50, &[1])), Certification::Abort);
        assert_eq!(c.certify(&ws(51, &[1])), Certification::Commit(52));
        assert_eq!(c.writesets_between(50, 52).count(), 2);
    }

    #[test]
    fn anchored_at_a_seeded_database_certifies_its_writesets_unrebased() {
        let mut db = Database::new();
        let table = db.create_table("t", &["v"]).unwrap();
        let seed = db.begin();
        db.insert(seed, table, RowId(1), vec![Value::Int(0)])
            .unwrap();
        db.commit(seed).unwrap();
        let anchor = db.version();
        let mut c = Certifier::new_at(anchor);
        let txn = db.begin();
        db.update(txn, table, RowId(1), vec![Value::Int(1)])
            .unwrap();
        let ws = db.writeset_of(txn).unwrap();
        db.abort(txn).unwrap();
        assert_eq!(ws.base_version, anchor, "the local snapshot, as-is");
        assert_eq!(c.certify(&ws), Certification::Commit(anchor + 1));
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
