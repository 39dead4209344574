//! The database engine: transactions, snapshots, certification, writesets.
//!
//! Everything hot is id-addressed: callers resolve table names to
//! [`TableId`]s once (at schema creation / plan compilation) and address
//! rows as [`RowId`]s. Per statement the engine performs array indexing
//! and at most one integer-hash lookup — no string hashing, no
//! per-statement allocation beyond the row images the caller hands in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, RecoveryReport, TableCheckpoint};
use crate::error::DbError;
use crate::frame;
use crate::ids::{RowId, TableId};
use crate::rowmap::FxHashMap;
use crate::table::Table;
use crate::txn::{PendingWrite, TxnId, TxnState};
use crate::value::{Row, Value};
use crate::wal::{self, WalRecord};
use crate::writeset::{WriteItem, WriteOp, WriteSet};

/// Counters describing engine activity, reported per replica in the
/// experiments, and the log counts the profiler reads `Pr`, `Pw`, `A1`
/// and `U` from (Section 4.1.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbStats {
    /// Committed read-only transactions.
    pub read_only_commits: u64,
    /// Committed update transactions.
    pub update_commits: u64,
    /// Aborts caused by write-write certification failures.
    pub conflict_aborts: u64,
    /// Client-initiated rollbacks.
    pub voluntary_aborts: u64,
    /// Remote writesets applied via [`Database::apply_writeset`].
    pub writesets_applied: u64,
    /// Row reads served.
    pub rows_read: u64,
    /// Row writes buffered.
    pub rows_written: u64,
    /// Write statements of committed update transactions (a row written
    /// twice counts twice) — the numerator of the model parameter `U`.
    pub update_write_stmts: u64,
}

impl DbStats {
    /// The measured standalone abort probability
    /// `A1 = conflict_aborts / (update commits + conflict aborts)` —
    /// exactly how the paper derives `A1` from log counts (Section 4.1.1).
    pub fn abort_probability(&self) -> f64 {
        let attempts = self.update_commits + self.conflict_aborts;
        if attempts == 0 {
            0.0
        } else {
            self.conflict_aborts as f64 / attempts as f64
        }
    }
}

/// Outcome of a successful commit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitInfo {
    /// The committed transaction.
    pub txn: TxnId,
    /// Commit sequence number (database version) this commit produced.
    /// Read-only commits do not advance the version and report the
    /// snapshot they read from.
    pub commit_seq: u64,
    /// Extracted writeset; empty for read-only transactions.
    pub writeset: WriteSet,
}

/// An in-memory snapshot-isolated multi-version database.
///
/// See the crate docs for the isolation semantics. All operations are
/// synchronous and single-threaded; concurrency in the simulated cluster is
/// expressed by interleaving operations of *logically* concurrent
/// transactions, which is exactly what SI's snapshot semantics make
/// well-defined.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Table>,
    /// Name → id resolution happens once per schema/plan, so ordered
    /// lookup is fine — and a `BTreeMap` keeps any future iteration
    /// deterministic by construction.
    names: BTreeMap<String, TableId>,
    active: FxHashMap<TxnId, TxnState>,
    /// Refcounts of active snapshots; the first key is the GC watermark.
    snapshots: BTreeMap<u64, usize>,
    /// Oldest snapshot any future transaction may read: the highest
    /// vacuum watermark seen so far (versions below it are reclaimed).
    min_snapshot: u64,
    next_txn: u64,
    commit_seq: u64,
    stats: DbStats,
}

impl Database {
    /// Creates an empty database at version 0.
    pub fn new() -> Self {
        Database::default()
    }

    /// Current database version (latest commit sequence).
    pub fn version(&self) -> u64 {
        self.commit_seq
    }

    /// Activity counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Resets activity counters (end of measurement warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = DbStats::default();
    }

    /// Number of transactions currently active.
    pub fn active_txns(&self) -> usize {
        self.active.len()
    }

    // ---- schema ----

    /// Creates a table and returns its dense id.
    ///
    /// Ids are assigned in creation order: replicas that create the same
    /// schema in the same order agree on every id, which is what lets
    /// writesets carry [`TableId`]s across the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] on duplicate names.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> Result<TableId, DbError> {
        if self.names.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table::new(name, columns));
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Resolves a table name to its id (cold path; hot paths hold ids).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.names.get(name).copied()
    }

    /// The name of a table id.
    pub fn table_name(&self, table: TableId) -> Option<&str> {
        self.tables.get(table.index()).map(|t| t.name.as_str())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Table names, in id order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name.as_str()).collect()
    }

    /// Rows visible at the latest version in `table`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidTable`] for unknown ids.
    pub fn live_rows(&self, table: TableId) -> Result<usize, DbError> {
        let t = self
            .tables
            .get(table.index())
            .ok_or(DbError::InvalidTable(table))?;
        Ok(t.live_rows_at(self.commit_seq))
    }

    // ---- transactions ----

    /// Begins a transaction, taking a snapshot of the latest committed
    /// state.
    pub fn begin(&mut self) -> TxnId {
        self.begin_at(self.commit_seq)
    }

    /// Begins a transaction on an explicitly *older* snapshot.
    ///
    /// This is the Generalized Snapshot Isolation (GSI) entry point: a
    /// replica may hand out its latest *local* snapshot, which can trail
    /// the globally latest version ([Elnikety 2005]).
    ///
    /// The snapshot must lie inside the retained version window:
    /// `min_snapshot() ..= version()`. The lower bound is a **hard
    /// contract**, not advice — versions below the last
    /// [`Database::vacuum`] watermark (or below a restored checkpoint's
    /// sequence) have been reclaimed, and reading them would silently
    /// return newer data as if it were old. The engine refuses rather
    /// than serve a wrong answer.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` is newer than the current version (a replica
    /// can never see the future) or older than the vacuum watermark
    /// (those versions are gone).
    pub fn begin_at(&mut self, snapshot: u64) -> TxnId {
        assert!(
            snapshot <= self.commit_seq,
            "snapshot {snapshot} is newer than current version {}",
            self.commit_seq
        );
        assert!(
            snapshot >= self.min_snapshot,
            "snapshot {snapshot} predates the vacuum watermark {}: \
             its versions have been garbage-collected",
            self.min_snapshot
        );
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.active.insert(id, TxnState::new(snapshot));
        *self.snapshots.entry(snapshot).or_insert(0) += 1;
        id
    }

    /// Reads a row as of the transaction's snapshot, seeing its own
    /// buffered writes first. Returns a reference — the hot read path
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TxnNotActive`] or [`DbError::InvalidTable`].
    pub fn read(
        &mut self,
        txn: TxnId,
        table: TableId,
        row: RowId,
    ) -> Result<Option<&Row>, DbError> {
        self.check_table(table)?;
        let state = self.active.get(&txn).ok_or(DbError::TxnNotActive(txn))?;
        self.stats.rows_read += 1;
        // Own writes first (read-your-writes).
        if let Some(pending) = state.pending(table, row) {
            return Ok(pending.as_ref());
        }
        let t = &self.tables[table.index()];
        Ok(t.slot_of(row.0)
            .and_then(|slot| t.visible_data(slot, state.snapshot)))
    }

    /// All rows visible to the transaction in `table` (own writes applied),
    /// sorted by row id.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TxnNotActive`] or [`DbError::InvalidTable`].
    pub fn scan(&mut self, txn: TxnId, table: TableId) -> Result<Vec<(RowId, Row)>, DbError> {
        self.check_table(table)?;
        let state = self.state(txn)?;
        let snapshot = state.snapshot;
        let t = &self.tables[table.index()];
        let mut rows: Vec<(RowId, Row)> = Vec::new();
        for (slot, key) in t.entries() {
            let row = RowId(key);
            // Own write overlays the committed version.
            if let Some(pending) = state.pending(table, row) {
                if let Some(data) = pending {
                    rows.push((row, data.clone()));
                }
                continue;
            }
            if let Some(data) = t.visible_data(slot, snapshot) {
                rows.push((row, data.clone()));
            }
        }
        // Own inserts of rows that never existed.
        for w in state.writes() {
            if w.table == table && t.slot_of(w.row.0).is_none() {
                if let Some(data) = &w.data {
                    rows.push((w.row, data.clone()));
                }
            }
        }
        self.stats.rows_read += rows.len() as u64;
        rows.sort_by_key(|(id, _)| id.0);
        Ok(rows)
    }

    /// Buffers an insert.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::DuplicateRow`] when the row id is already visible
    /// in the snapshot (or buffered), plus the usual table/txn/arity errors.
    pub fn insert(
        &mut self,
        txn: TxnId,
        table: TableId,
        row: RowId,
        data: impl Into<Row>,
    ) -> Result<(), DbError> {
        let data = data.into();
        self.check_arity(table, &data)?;
        let state = self.state(txn)?;
        let found = state.find_write(table, row);
        let buffered = found.is_some_and(|i| state.writes()[i].data.is_some());
        let visible = self.snapshot_visible(state.snapshot, table, row);
        if buffered || visible {
            return Err(DbError::DuplicateRow { table, row });
        }
        self.buffer_write(txn, found, table, row, Some(data), visible);
        Ok(())
    }

    /// Buffers an update of an existing row.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchRow`] when the row is not visible in the
    /// snapshot, plus table/txn/arity errors.
    pub fn update(
        &mut self,
        txn: TxnId,
        table: TableId,
        row: RowId,
        data: impl Into<Row>,
    ) -> Result<(), DbError> {
        let data = data.into();
        self.check_arity(table, &data)?;
        let (found, snap_visible) = self.require_visible(txn, table, row)?;
        self.buffer_write(txn, found, table, row, Some(data), snap_visible);
        Ok(())
    }

    /// Buffers a delete of an existing row.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchRow`] when the row is not visible in the
    /// snapshot, plus table/txn errors.
    pub fn delete(&mut self, txn: TxnId, table: TableId, row: RowId) -> Result<(), DbError> {
        self.check_table(table)?;
        let (found, snap_visible) = self.require_visible(txn, table, row)?;
        self.buffer_write(txn, found, table, row, None, snap_visible);
        Ok(())
    }

    /// Commits the transaction under first-committer-wins certification.
    ///
    /// Read-only transactions always commit and do not advance the
    /// database version. Update transactions conflict-check every written
    /// row against the per-table last-committed version vector: a newer
    /// committed version than the transaction's snapshot means a
    /// concurrent committer won.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::WriteWriteConflict`] on certification failure
    /// (the transaction is aborted) or [`DbError::TxnNotActive`].
    pub fn commit(&mut self, txn: TxnId) -> Result<CommitInfo, DbError> {
        let state = self.active.remove(&txn).ok_or(DbError::TxnNotActive(txn))?;
        self.release_snapshot(state.snapshot);
        if state.is_read_only() {
            self.stats.read_only_commits += 1;
            return Ok(CommitInfo {
                txn,
                commit_seq: state.snapshot,
                writeset: WriteSet {
                    base_version: state.snapshot,
                    items: vec![],
                },
            });
        }
        // Certification: one O(1) check per written row against the
        // table's last-committed version vector.
        for w in state.writes() {
            let t = &self.tables[w.table.index()];
            if let Some(slot) = t.slot_of(w.row.0) {
                if t.latest_seq(slot) > state.snapshot {
                    self.stats.conflict_aborts += 1;
                    return Err(DbError::WriteWriteConflict {
                        txn,
                        table: w.table,
                        row: w.row,
                    });
                }
            }
        }
        // Install.
        self.commit_seq += 1;
        let seq = self.commit_seq;
        let write_stmts = state.write_stmts;
        let base_version = state.snapshot;
        let writes = state.into_writes();
        let mut items = Vec::with_capacity(writes.len());
        for w in writes {
            let op = Self::op_of(&w);
            self.install_row(seq, w.table, w.row.0, w.data.clone());
            items.push(WriteItem {
                table: w.table,
                row: w.row,
                op,
                data: w.data,
            });
        }
        self.stats.update_commits += 1;
        self.stats.update_write_stmts += write_stmts;
        Ok(CommitInfo {
            txn,
            commit_seq: seq,
            writeset: WriteSet {
                base_version,
                items,
            },
        })
    }

    /// Extracts the writeset of an *active* transaction without committing
    /// it — the multi-master proxy's eager writeset extraction (paper
    /// Section 5.1: the proxy examines the writeset at SQL COMMIT and
    /// invokes the certification service; the local transaction's effects
    /// are installed via the certified writeset).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TxnNotActive`] for unknown/finished transactions.
    pub fn writeset_of(&self, txn: TxnId) -> Result<WriteSet, DbError> {
        let state = self.state(txn)?;
        let items = state
            .writes()
            .iter()
            .map(|w| WriteItem {
                table: w.table,
                row: w.row,
                op: Self::op_of(w),
                data: w.data.clone(),
            })
            .collect();
        Ok(WriteSet {
            base_version: state.snapshot,
            items,
        })
    }

    /// Aborts the transaction, discarding buffered writes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TxnNotActive`] for unknown/finished transactions.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), DbError> {
        let state = self.active.remove(&txn).ok_or(DbError::TxnNotActive(txn))?;
        self.release_snapshot(state.snapshot);
        self.stats.voluntary_aborts += 1;
        Ok(())
    }

    /// Applies a *remotely certified* writeset, installing a new committed
    /// version without local certification.
    ///
    /// This is the replica-proxy/slave code path: "The slaves process only
    /// committed writesets; there are no aborts at the slaves" (paper
    /// Section 3.3.3). Unknown table ids are an error; missing rows are
    /// created (inserts) or ignored (deletes of unknown rows are
    /// tombstoned), mirroring idempotent log application.
    ///
    /// Returns the new database version.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidTable`] when the writeset references a
    /// table id outside this schema.
    pub fn apply_writeset(&mut self, ws: &WriteSet) -> Result<u64, DbError> {
        self.replay_commit(self.commit_seq + 1, ws)?;
        Ok(self.commit_seq)
    }

    /// Watermark garbage collection: frees row versions no active
    /// snapshot can see (the watermark is the oldest active snapshot, or
    /// the current version when the database is idle).
    ///
    /// Returns the number of versions reclaimed into the arenas' free
    /// lists.
    pub fn vacuum(&mut self) -> usize {
        let watermark = self.watermark();
        // Versions below the watermark are about to be reclaimed, so no
        // future `begin_at` may read below it (see `min_snapshot`).
        self.min_snapshot = self.min_snapshot.max(watermark);
        let freed = self.tables.iter_mut().map(|t| t.vacuum(watermark)).sum();
        // Vacuum is the one operation that rewrites chain links in place,
        // so debug builds re-verify the arena invariants right after it.
        #[cfg(debug_assertions)]
        for t in &self.tables {
            t.assert_invariants();
        }
        freed
    }

    /// Live (non-reclaimed) row versions across all tables — the quantity
    /// [`Database::vacuum`] keeps bounded over long captures.
    pub fn version_count(&self) -> usize {
        self.tables.iter().map(Table::version_count).sum()
    }

    /// The oldest snapshot [`Database::begin_at`] will accept: the
    /// highest vacuum watermark so far (or the checkpoint sequence of a
    /// restored database).
    pub fn min_snapshot(&self) -> u64 {
        self.min_snapshot
    }

    // ---- durability: checkpoint, restore, recover ----

    /// Captures the committed state visible at the current version as a
    /// [`Checkpoint`]: every table in id order, rows sorted by key.
    ///
    /// The capture is a pure read — no transaction is started, no
    /// counters move — so checkpointing never perturbs the engine state
    /// it is imaging.
    pub fn checkpoint(&self) -> Checkpoint {
        let tables = self
            .tables
            .iter()
            .map(|t| {
                let mut rows: Vec<(u64, Row)> = t
                    .entries()
                    .filter_map(|(slot, key)| {
                        t.visible_data(slot, self.commit_seq)
                            .map(|r| (key, r.clone()))
                    })
                    .collect();
                rows.sort_by_key(|(key, _)| *key);
                TableCheckpoint {
                    name: t.name.clone(),
                    columns: t.columns.clone(),
                    rows,
                }
            })
            .collect();
        Checkpoint {
            seq: self.commit_seq,
            tables,
        }
    }

    /// Reconstructs a database from a checkpoint image.
    ///
    /// The result holds exactly the checkpoint's rows, at version
    /// `cp.seq`, with the vacuum watermark pinned there: history below
    /// the checkpoint was collapsed at capture time, so snapshots older
    /// than `cp.seq` are not readable.
    ///
    /// # Panics
    ///
    /// Panics if two tables of `cp` share a name, which neither
    /// [`Database::checkpoint`] nor [`Checkpoint::from_bytes`] produces.
    pub fn restore(cp: &Checkpoint) -> Database {
        let mut db = Database::new();
        for t in &cp.tables {
            let columns: Vec<&str> = t.columns.iter().map(String::as_str).collect();
            let table = db
                .create_table(&t.name, &columns)
                .expect("checkpoint table names are unique");
            for (key, row) in &t.rows {
                db.install_row(cp.seq, table, *key, Some(row.clone()));
            }
        }
        db.commit_seq = cp.seq;
        db.min_snapshot = cp.seq;
        db
    }

    /// Crash recovery: restores `cp`, then replays the valid prefix of
    /// `wal_bytes` on top of it ([`Database::replay`]).
    ///
    /// `from_seq` is the sequence the checkpoint already covers (commits
    /// at or below it are skipped); pass `cp.seq` unless the log and the
    /// checkpoint use different sequence spaces.
    ///
    /// Never panics on arbitrary log bytes: torn tails, corrupt frames,
    /// and malformed records all just shorten the replay.
    pub fn recover(cp: &Checkpoint, wal_bytes: &[u8], from_seq: u64) -> (Database, RecoveryReport) {
        let mut db = Database::restore(cp);
        let report = db.replay(wal_bytes, from_seq);
        (db, report)
    }

    /// Replays the valid prefix of a redo log on top of this database —
    /// the byte front end of [`Database::replay_commit`], under
    /// [`Database::recover`]. A replica's durable image keeps its redo
    /// log as typed records sharing each commit's writeset and installs
    /// them through that same step, without bytes.
    ///
    /// The log is walked a frame (one group commit) at a time: a group's
    /// records are decoded into one reused buffer, their row images
    /// installed, and the next frame read — the log is never
    /// materialized as typed records, so replay memory is one group's,
    /// whatever the log's length. Each row image is decoded in one
    /// allocation. The byte layer stops at the first torn or corrupt
    /// frame, as [`wal::scan`] does, and the report's `wal_valid_len` /
    /// `wal_truncated` describe it.
    ///
    /// Commits at or below `from_seq` are already in the database: the
    /// decoder walks them through the same record grammar, so a malformed
    /// one still rejects its whole frame, but never builds them. A
    /// `CreateTable` of a known name is a no-op; of a new name it
    /// extends the schema in the original creation (= id) order.
    /// Replayed commits must be strictly increasing across the whole log
    /// and above the database's version — the replay stops at the first
    /// non-increasing sequence or unknown table, keeping what preceded it
    /// and distrusting every record after (in that frame and in all later
    /// ones), the same "truncate at first bad frame" posture the byte
    /// layer takes.
    ///
    /// The report counts the commits replayed and names the last one
    /// (`from_seq` when none replayed).
    pub fn replay(&mut self, wal_bytes: &[u8], from_seq: u64) -> RecoveryReport {
        let mut report = RecoveryReport {
            replayed: 0,
            last_seq: from_seq,
            wal_valid_len: 0,
            wal_truncated: false,
        };
        let mut group = Vec::new();
        let mut reader = wal::Reader::new(&[]);
        let mut trusted = true;
        let mut rest = wal_bytes;
        while let Ok((payload, after)) = frame::take(rest) {
            // After a distrusted record only the byte layer is walked on:
            // every commit is checked, none built.
            let covered = if trusted { from_seq } else { u64::MAX };
            if !reader.records(payload, Some(covered), &mut group) {
                break;
            }
            rest = after;
            trusted = trusted && self.replay_records(group.drain(..), &mut report);
            group.clear();
        }
        report.wal_valid_len = wal_bytes.len() - rest.len();
        report.wal_truncated = !rest.is_empty();
        report
    }

    /// Interprets one group's records for [`Database::replay`] (covered
    /// commits are not among them), counting into `report`; `false` once
    /// a record is distrusted.
    fn replay_records(
        &mut self,
        records: impl Iterator<Item = WalRecord>,
        report: &mut RecoveryReport,
    ) -> bool {
        for rec in records {
            match rec {
                WalRecord::CreateTable { name, columns } => {
                    if !self.names.contains_key(&name) {
                        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                        self.create_table(&name, &columns)
                            .expect("name was just checked to be unknown");
                    }
                }
                WalRecord::Commit { seq, writeset } => {
                    // Out of order, or a table the log never created:
                    // distrust the rest.
                    if self.replay_commit(seq, &writeset).is_err() {
                        return false;
                    }
                    report.last_seq = seq;
                    report.replayed += 1;
                }
            }
        }
        true
    }

    /// Installs one logged commit as version `seq`: the one checked step
    /// by which a certified writeset becomes committed state, whether
    /// [`Database::replay`] decoded it from WAL bytes, a durable image
    /// kept it typed, or [`Database::apply_writeset`] received it as the
    /// next version. The row images are shared with `ws`, not copied. A
    /// log may skip sequences, but never repeat or go back.
    ///
    /// # Errors
    ///
    /// [`DbError::StaleCommit`] when `seq` does not advance the database
    /// version, [`DbError::InvalidTable`] on a table outside this schema;
    /// either way nothing of `ws` is installed.
    pub fn replay_commit(&mut self, seq: u64, ws: &WriteSet) -> Result<(), DbError> {
        if seq <= self.commit_seq {
            return Err(DbError::StaleCommit {
                seq,
                version: self.commit_seq,
            });
        }
        self.check_tables(ws)?;
        self.commit_seq = seq;
        for w in &ws.items {
            self.install_row(seq, w.table, w.row.0, w.data.clone());
        }
        self.stats.writesets_applied += 1;
        Ok(())
    }

    /// Fails, before anything of `ws` is installed, on a table outside
    /// this schema.
    fn check_tables(&self, ws: &WriteSet) -> Result<(), DbError> {
        ws.items.iter().try_for_each(|w| self.check_table(w.table))
    }

    /// Installs `data` (`None` = tombstone) as `row`'s version at `seq`:
    /// the one step by which a committed write enters a table.
    #[inline]
    fn install_row(&mut self, seq: u64, table: TableId, row: u64, data: Option<Row>) {
        let t = &mut self.tables[table.index()];
        let slot = t.slot_or_intern(row);
        t.install(slot, seq, data);
    }

    /// Deterministic serialization of the durable state: the version plus
    /// every table's schema and visible rows, sorted by key.
    ///
    /// Two databases holding the same committed state produce identical
    /// strings regardless of how they got there (direct execution, remote
    /// writeset application, or checkpoint + log replay) — this is the
    /// byte-identity oracle the recovery tests compare against.
    pub fn durable_state(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "version={}", self.commit_seq);
        for t in &self.tables {
            let _ = writeln!(out, "table={} columns={:?}", t.name, t.columns);
            let mut rows: Vec<(u64, &Row)> = t
                .entries()
                .filter_map(|(slot, key)| t.visible_data(slot, self.commit_seq).map(|r| (key, r)))
                .collect();
            rows.sort_by_key(|(key, _)| *key);
            for (key, row) in rows {
                let _ = writeln!(out, "  {key}: {row:?}");
            }
        }
        out
    }

    // ---- internal helpers ----

    /// The GC watermark: the oldest active snapshot, or the current
    /// version when no transaction is active.
    fn watermark(&self) -> u64 {
        self.snapshots
            .keys()
            .next()
            .copied()
            .unwrap_or(self.commit_seq)
    }

    fn release_snapshot(&mut self, snapshot: u64) {
        match self.snapshots.get_mut(&snapshot) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.snapshots.remove(&snapshot);
            }
            None => debug_assert!(false, "released a snapshot that was never acquired"),
        }
    }

    fn op_of(w: &PendingWrite) -> WriteOp {
        match (w.data.is_some(), w.visible_before) {
            (true, false) => WriteOp::Insert,
            (true, true) => WriteOp::Update,
            (false, _) => WriteOp::Delete,
        }
    }

    fn state(&self, txn: TxnId) -> Result<&TxnState, DbError> {
        self.active.get(&txn).ok_or(DbError::TxnNotActive(txn))
    }

    #[inline]
    fn check_table(&self, table: TableId) -> Result<(), DbError> {
        if table.index() < self.tables.len() {
            Ok(())
        } else {
            Err(DbError::InvalidTable(table))
        }
    }

    fn check_arity(&self, table: TableId, data: &[Value]) -> Result<(), DbError> {
        let t = self
            .tables
            .get(table.index())
            .ok_or(DbError::InvalidTable(table))?;
        if data.len() != t.columns.len() {
            return Err(DbError::ArityMismatch {
                table,
                got: data.len(),
                expected: t.columns.len(),
            });
        }
        Ok(())
    }

    /// Whether the committed row is visible at `snapshot` (own writes not
    /// consulted).
    #[inline]
    fn snapshot_visible(&self, snapshot: u64, table: TableId, row: RowId) -> bool {
        let t = &self.tables[table.index()];
        t.slot_of(row.0)
            .map(|slot| t.is_visible(slot, snapshot))
            .unwrap_or(false)
    }

    /// Ensures `row` is visible to `txn` (snapshot or own write); returns
    /// the row's buffered-write position, if any, and its snapshot
    /// visibility (for the buffered write's op derivation).
    fn require_visible(
        &self,
        txn: TxnId,
        table: TableId,
        row: RowId,
    ) -> Result<(Option<usize>, bool), DbError> {
        let state = self.state(txn)?;
        let snap_visible = self.snapshot_visible(state.snapshot, table, row);
        let found = state.find_write(table, row);
        let visible = match found {
            Some(i) => state.writes()[i].data.is_some(),
            None => snap_visible,
        };
        if visible {
            Ok((found, snap_visible))
        } else {
            Err(DbError::NoSuchRow { table, row })
        }
    }

    /// Buffers a validated write; `found` is the position the caller's
    /// validation found the row at (one lookup per statement).
    fn buffer_write(
        &mut self,
        txn: TxnId,
        found: Option<usize>,
        table: TableId,
        row: RowId,
        data: Option<Row>,
        snap_visible: bool,
    ) {
        let state = self
            .active
            .get_mut(&txn)
            .expect("caller validated txn is active");
        state.buffer(found, table, row, data, snap_visible);
        state.write_stmts += 1;
        self.stats.rows_written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (Database, TableId) {
        let mut db = Database::new();
        let items = db.create_table("items", &["name", "stock"]).unwrap();
        let t = db.begin();
        for i in 0..10 {
            db.insert(
                t,
                items,
                RowId(i),
                vec![Value::text(format!("item{i}")), Value::Int(100)],
            )
            .unwrap();
        }
        db.commit(t).unwrap();
        (db, items)
    }

    fn cell(db: &mut Database, txn: TxnId, table: TableId, row: u64, col: usize) -> Value {
        db.read(txn, table, RowId(row)).unwrap().unwrap()[col].clone()
    }

    /// The redo log of `records`, a frame every `group` of them.
    fn log_of(records: &[WalRecord], group: usize) -> Vec<u8> {
        let mut wal = wal::WalWriter::new(group);
        for rec in records {
            wal.append(rec);
        }
        wal.into_bytes()
    }

    #[test]
    fn table_ids_are_dense_and_resolvable() {
        let mut db = Database::new();
        let a = db.create_table("a", &["x"]).unwrap();
        let b = db.create_table("b", &["x"]).unwrap();
        assert_eq!(a, TableId(0));
        assert_eq!(b, TableId(1));
        assert_eq!(db.table_id("a"), Some(a));
        assert_eq!(db.table_id("nope"), None);
        assert_eq!(db.table_name(b), Some("b"));
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert_eq!(db.table_count(), 2);
        assert!(matches!(
            db.create_table("a", &["y"]),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn read_your_own_writes() {
        let (mut db, items) = seeded();
        let t = db.begin();
        db.update(
            t,
            items,
            RowId(3),
            vec![Value::text("item3"), Value::Int(7)],
        )
        .unwrap();
        assert_eq!(cell(&mut db, t, items, 3, 1), Value::Int(7));
        // Other transactions still see the old value.
        let t2 = db.begin();
        assert_eq!(cell(&mut db, t2, items, 3, 1), Value::Int(100));
    }

    #[test]
    fn snapshot_is_stable_across_concurrent_commits() {
        let (mut db, items) = seeded();
        let reader = db.begin();
        let writer = db.begin();
        db.update(
            writer,
            items,
            RowId(0),
            vec![Value::text("item0"), Value::Int(1)],
        )
        .unwrap();
        db.commit(writer).unwrap();
        // Reader still sees the pre-update value: snapshot stability.
        assert_eq!(cell(&mut db, reader, items, 0, 1), Value::Int(100));
        // A new transaction sees the update.
        let late = db.begin();
        assert_eq!(cell(&mut db, late, items, 0, 1), Value::Int(1));
    }

    #[test]
    fn first_committer_wins() {
        let (mut db, items) = seeded();
        let t1 = db.begin();
        let t2 = db.begin();
        db.update(t1, items, RowId(5), vec![Value::text("a"), Value::Int(1)])
            .unwrap();
        db.update(t2, items, RowId(5), vec![Value::text("b"), Value::Int(2)])
            .unwrap();
        db.commit(t1).unwrap();
        let err = db.commit(t2).unwrap_err();
        assert!(err.is_conflict());
        assert_eq!(db.stats().conflict_aborts, 1);
        // The winner's value persists.
        let t3 = db.begin();
        assert_eq!(cell(&mut db, t3, items, 5, 1), Value::Int(1));
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let (mut db, items) = seeded();
        let t1 = db.begin();
        let t2 = db.begin();
        db.update(t1, items, RowId(1), vec![Value::text("x"), Value::Int(1)])
            .unwrap();
        db.update(t2, items, RowId(2), vec![Value::text("y"), Value::Int(2)])
            .unwrap();
        assert!(db.commit(t1).is_ok());
        assert!(db.commit(t2).is_ok());
    }

    #[test]
    fn serialized_rewrites_do_not_conflict() {
        let (mut db, items) = seeded();
        for i in 0..5 {
            let t = db.begin();
            db.update(t, items, RowId(9), vec![Value::text("z"), Value::Int(i)])
                .unwrap();
            db.commit(t).unwrap();
        }
        assert_eq!(db.stats().conflict_aborts, 0);
    }

    #[test]
    fn read_only_txn_always_commits_and_keeps_version() {
        let (mut db, items) = seeded();
        let v = db.version();
        let t = db.begin();
        db.read(t, items, RowId(1)).unwrap();
        let info = db.commit(t).unwrap();
        assert!(info.writeset.is_empty());
        assert_eq!(db.version(), v);
        assert_eq!(db.stats().read_only_commits, 1);
    }

    #[test]
    fn readers_never_block_or_abort_writers() {
        let (mut db, items) = seeded();
        let reader = db.begin();
        db.read(reader, items, RowId(4)).unwrap();
        let writer = db.begin();
        db.update(
            writer,
            items,
            RowId(4),
            vec![Value::text("w"), Value::Int(0)],
        )
        .unwrap();
        assert!(db.commit(writer).is_ok());
        assert!(db.commit(reader).is_ok());
    }

    #[test]
    fn writeset_records_ops_and_base_version() {
        let (mut db, items) = seeded();
        let base = db.version();
        let t = db.begin();
        db.update(t, items, RowId(1), vec![Value::text("u"), Value::Int(5)])
            .unwrap();
        db.insert(
            t,
            items,
            RowId(100),
            vec![Value::text("new"), Value::Int(1)],
        )
        .unwrap();
        db.delete(t, items, RowId(2)).unwrap();
        let info = db.commit(t).unwrap();
        let ws = &info.writeset;
        assert_eq!(ws.base_version, base);
        assert_eq!(ws.update_operations(), 3);
        let ops: Vec<_> = ws.items.iter().map(|i| (i.row, i.op)).collect();
        assert!(ops.contains(&(RowId(1), WriteOp::Update)));
        assert!(ops.contains(&(RowId(100), WriteOp::Insert)));
        assert!(ops.contains(&(RowId(2), WriteOp::Delete)));
    }

    #[test]
    fn apply_writeset_installs_remote_commit() {
        let (mut primary, items) = seeded();
        let (mut replica, _) = seeded();
        let t = primary.begin();
        primary
            .update(t, items, RowId(6), vec![Value::text("r"), Value::Int(42)])
            .unwrap();
        let info = primary.commit(t).unwrap();
        let v_before = replica.version();
        replica.apply_writeset(&info.writeset).unwrap();
        assert_eq!(replica.version(), v_before + 1);
        let t2 = replica.begin();
        assert_eq!(cell(&mut replica, t2, items, 6, 1), Value::Int(42));
        assert_eq!(replica.stats().writesets_applied, 1);
    }

    #[test]
    fn apply_writeset_unknown_table_fails() {
        let mut db = Database::new();
        let ws = WriteSet {
            base_version: 0,
            items: vec![WriteItem {
                table: TableId(7),
                row: RowId(1),
                op: WriteOp::Insert,
                data: Some(vec![].into()),
            }],
        };
        assert!(matches!(
            db.apply_writeset(&ws),
            Err(DbError::InvalidTable(TableId(7)))
        ));
    }

    #[test]
    fn gsi_begin_at_older_snapshot() {
        let (mut db, items) = seeded();
        let old_version = db.version();
        let t = db.begin();
        db.update(t, items, RowId(0), vec![Value::text("n"), Value::Int(0)])
            .unwrap();
        db.commit(t).unwrap();
        // A GSI transaction starting on the older snapshot must not see the
        // newer commit.
        let stale = db.begin_at(old_version);
        assert_eq!(cell(&mut db, stale, items, 0, 1), Value::Int(100));
        // And a write from that stale snapshot conflicts (its conflict
        // window includes the newer commit).
        db.update(
            stale,
            items,
            RowId(0),
            vec![Value::text("s"), Value::Int(1)],
        )
        .unwrap();
        assert!(db.commit(stale).unwrap_err().is_conflict());
    }

    #[test]
    #[should_panic(expected = "newer than current version")]
    fn begin_at_future_snapshot_panics() {
        let mut db = Database::new();
        db.begin_at(5);
    }

    /// Regression: `begin_at` used to *document* that snapshots below the
    /// vacuum watermark read garbage — now it refuses them outright.
    #[test]
    #[should_panic(expected = "predates the vacuum watermark")]
    fn begin_at_below_vacuum_watermark_panics() {
        let (mut db, items) = seeded();
        let old_version = db.version();
        let t = db.begin();
        db.update(t, items, RowId(0), vec![Value::text("n"), Value::Int(0)])
            .unwrap();
        db.commit(t).unwrap();
        // No transaction is active, so the watermark advances to the
        // current version and the old version's row images are reclaimed.
        db.vacuum();
        assert_eq!(db.min_snapshot(), db.version());
        // Reading at `old_version` would silently see post-GC state; the
        // engine must panic instead.
        db.begin_at(old_version);
    }

    /// GSI snapshots at or above the watermark stay valid after a vacuum:
    /// the watermark is the oldest *active* snapshot, never beyond it.
    #[test]
    fn vacuum_preserves_active_gsi_snapshots() {
        let (mut db, items) = seeded();
        let pin = db.begin(); // pins the current version as the watermark
        let old_version = db.version();
        let t = db.begin();
        db.update(t, items, RowId(0), vec![Value::text("n"), Value::Int(0)])
            .unwrap();
        db.commit(t).unwrap();
        db.vacuum();
        assert_eq!(db.min_snapshot(), old_version);
        // A new GSI transaction at the pinned (old) version still reads
        // the pre-update value.
        let stale = db.begin_at(old_version);
        assert_eq!(cell(&mut db, stale, items, 0, 1), Value::Int(100));
        db.abort(stale).unwrap();
        db.abort(pin).unwrap();
    }

    #[test]
    fn checkpoint_restore_round_trips_durable_state() {
        let (mut db, items) = seeded();
        for i in 0..5 {
            let t = db.begin();
            db.update(
                t,
                items,
                RowId(i),
                vec![Value::text("u"), Value::Int(i as i64)],
            )
            .unwrap();
            db.commit(t).unwrap();
        }
        let cp = db.checkpoint();
        assert_eq!(cp.seq, db.version());
        assert_eq!(cp.row_count(), 10);
        let restored = Database::restore(&cp);
        assert_eq!(restored.durable_state(), db.durable_state());
        assert_eq!(restored.min_snapshot(), cp.seq);
        // And the byte image round-trips through the codec.
        let reloaded =
            crate::checkpoint::Checkpoint::from_bytes(&cp.to_bytes()).expect("image loads");
        assert_eq!(
            Database::restore(&reloaded).durable_state(),
            db.durable_state()
        );
    }

    /// One history, three ways in: committed here, applied as certified
    /// writesets, replayed from the WAL records of those commits.
    #[test]
    fn commit_apply_and_replay_install_the_same_history() {
        let (mut origin, items) = seeded();
        let genesis = origin.clone();
        let mut applied = genesis.clone();
        let mut records = Vec::new();
        for i in 0..12u64 {
            let t = origin.begin();
            let image = vec![Value::text("w"), Value::Int(i as i64)];
            match i % 4 {
                0 => origin.insert(t, items, RowId(100 + i), image).unwrap(),
                1 => origin.update(t, items, RowId(i % 10), image).unwrap(),
                2 => origin.delete(t, items, RowId(100 + i - 2)).unwrap(),
                _ => {
                    origin.update(t, items, RowId(0), image.clone()).unwrap();
                    origin.delete(t, items, RowId(i % 10)).unwrap();
                    origin.insert(t, items, RowId(200 + i), image).unwrap();
                }
            }
            let info = origin.commit(t).unwrap();
            assert_eq!(applied.apply_writeset(&info.writeset), Ok(info.commit_seq));
            records.push(WalRecord::Commit {
                seq: info.commit_seq,
                writeset: info.writeset,
            });
        }
        let mut replayed = genesis.clone();
        let report = replayed.replay(&log_of(&records, 5), genesis.version());
        assert_eq!((report.replayed, report.last_seq), (12, origin.version()));
        for copy in [&applied, &replayed] {
            assert_eq!(copy.durable_state(), origin.durable_state());
            assert_eq!(copy.version(), origin.version());
            assert_eq!(copy.version_count(), origin.version_count());
        }
    }

    /// The typed front end refuses what the byte replay distrusts, and
    /// installs nothing of a refused commit.
    #[test]
    fn replay_commit_refuses_a_stale_sequence_or_an_unknown_table_whole() {
        let (mut db, items) = seeded();
        let version = db.version();
        let ws = |table| WriteSet {
            base_version: version,
            items: vec![
                WriteItem {
                    table: items,
                    row: RowId(0),
                    op: WriteOp::Delete,
                    data: None,
                },
                WriteItem {
                    table,
                    row: RowId(500),
                    op: WriteOp::Insert,
                    data: Some([Value::text("new"), Value::Int(1)].into()),
                },
            ],
        };
        let before = db.durable_state();
        assert_eq!(
            db.replay_commit(version, &ws(items)),
            Err(DbError::StaleCommit {
                seq: version,
                version
            })
        );
        assert_eq!(
            db.replay_commit(version + 2, &ws(TableId(9))),
            Err(DbError::InvalidTable(TableId(9)))
        );
        assert_eq!(db.durable_state(), before);
        // A log may skip sequences; the images are the writeset's own.
        let shared = ws(items);
        assert_eq!(db.replay_commit(version + 2, &shared), Ok(()));
        assert_eq!(db.version(), version + 2);
        let t = db.begin();
        let row = db.read(t, items, RowId(500)).unwrap().unwrap();
        assert!(std::ptr::eq(
            row.as_ptr(),
            shared.items[1].data.as_ref().unwrap().as_ptr()
        ));
        assert_eq!(db.read(t, items, RowId(0)).unwrap(), None);
    }

    #[test]
    fn replay_skips_what_is_covered_and_stops_at_the_first_bad_record() {
        let create = |name: &str| WalRecord::CreateTable {
            name: name.into(),
            columns: vec!["v".into()],
        };
        // Commit `seq` inserts row `seq` into table `table`.
        let commit = |seq: u64, table: u32| WalRecord::Commit {
            seq,
            writeset: WriteSet {
                base_version: seq - 1,
                items: vec![WriteItem {
                    table: TableId(table),
                    row: RowId(seq),
                    op: WriteOp::Insert,
                    data: Some([Value::Int(seq as i64)].into()),
                }],
            },
        };
        // (what, records, from_seq) → (replayed, last_seq), tables, rows
        // of table 0.
        type Case<'a> = (
            &'a str,
            Vec<WalRecord>,
            u64,
            (u64, u64),
            &'a [&'a str],
            &'a [u64],
        );
        let cases: Vec<Case> = vec![
            (
                "commits at or below from_seq are skipped",
                vec![create("a"), commit(1, 0), commit(2, 0), commit(3, 0)],
                2,
                (1, 3),
                &["a"],
                &[3],
            ),
            (
                "nothing past from_seq: the floor comes back",
                vec![create("a"), commit(1, 0)],
                5,
                (0, 5),
                &["a"],
                &[],
            ),
            (
                "a sequence running backwards ends the replay",
                vec![
                    create("a"),
                    commit(1, 0),
                    commit(3, 0),
                    commit(2, 0),
                    commit(4, 0),
                ],
                0,
                (2, 3),
                &["a"],
                &[1, 3],
            ),
            (
                "so does a repeated one",
                vec![create("a"), commit(1, 0), commit(1, 0), commit(2, 0)],
                0,
                (1, 1),
                &["a"],
                &[1],
            ),
            (
                "and a commit on a table the log never created",
                vec![create("a"), commit(1, 0), commit(2, 5), commit(3, 0)],
                0,
                (1, 1),
                &["a"],
                &[1],
            ),
            (
                "a known CreateTable is a no-op, a new one extends the schema in order",
                vec![
                    create("a"),
                    create("b"),
                    create("a"),
                    commit(1, 1),
                    create("c"),
                ],
                0,
                (1, 1),
                &["a", "b", "c"],
                &[],
            ),
        ];
        // One record a frame, two, and the whole log in one: where the
        // frames fall must not show — the floor, the last sequence and
        // the distrust all carry across them.
        let groups = [1, 2, usize::MAX];
        let runs = cases
            .iter()
            .flat_map(|case| groups.map(|group| (case, group)));
        for ((what, records, from_seq, outcome, tables, rows), group) in runs {
            let what = format!("{what} (group {group})");
            let (from_seq, outcome, tables, rows) = (*from_seq, *outcome, *tables, *rows);
            let log = log_of(records, group);
            let mut db = Database::new();
            let report = db.replay(&log, from_seq);
            assert_eq!((report.replayed, report.last_seq), outcome, "{what}");
            // A distrusted record ends the replay, not the byte scan.
            assert_eq!(
                (report.wal_valid_len, report.wal_truncated),
                (log.len(), false),
                "{what}"
            );
            assert_eq!(db.table_names(), tables, "{what}");
            let mut keys: Vec<u64> = db.tables[0]
                .entries()
                .filter(|&(slot, _)| db.tables[0].is_visible(slot, db.version()))
                .map(|(_, key)| key)
                .collect();
            keys.sort_unstable();
            assert_eq!(keys, rows, "{what}");
            if outcome.0 > 0 {
                assert_eq!(db.version(), outcome.1, "{what}");
            }
        }
    }

    /// A splitmix64 stream: what the generated logs below are drawn from.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn cell(&mut self) -> Value {
            // Half the cells are `Null`, a bare tag, so a mutation often
            // meets a tag in a cell it can rewrite without moving the
            // rest of the record.
            match self.below(10) {
                0 => Value::Bool(self.below(2) == 1),
                1 => Value::Int(self.below(2_000) as i64 - 1_000),
                2 => Value::Float(self.below(1_000) as f64 / 8.0),
                3 => Value::text(["", "a", "né", "漢字", "ünïcödé"][self.below(5) as usize]),
                4 => Value::Bytes((0..self.below(4)).map(|i| i as u8 ^ 0xA5).collect()),
                _ => Value::Null,
            }
        }
    }

    /// A log drawn from `seed`, with one mutation, and a replay floor.
    ///
    /// The log holds 2 – 16 records: `CreateTable`s (some repeating a
    /// name) and commits whose cells use every `Value` variant, deletes
    /// carrying tombstones, and now and then a repeated sequence or a
    /// table no record created; it is sealed a group of 1 – 8 records a
    /// frame. The mutation cuts the log at a drawn byte, or rewrites one
    /// byte of one frame payload — to a small value half the time, so it
    /// lands on tags — and re-seals that frame under a fresh crc, so the
    /// record grammar, not the crc, is what meets it.
    fn mutated_log(seed: u64) -> (Vec<u8>, u64) {
        let mut draw = Draw(seed);
        let mut records = Vec::new();
        let mut names = std::collections::BTreeSet::new();
        let mut seq = 0;
        for _ in 0..2 + draw.below(15) {
            if names.is_empty() || draw.below(5) == 0 {
                let name = format!("t{}", draw.below(4));
                names.insert(name.clone());
                records.push(WalRecord::CreateTable {
                    name,
                    columns: vec!["c".into()],
                });
                continue;
            }
            if draw.below(16) != 0 {
                seq += 1 + draw.below(3);
            }
            let tables = names.len() as u64;
            let items = (0..1 + draw.below(3))
                .map(|_| {
                    let op =
                        [WriteOp::Insert, WriteOp::Update, WriteOp::Delete][draw.below(3) as usize];
                    // One table in sixteen is one no record created.
                    let unknown = u64::from(draw.below(16) == 0);
                    WriteItem {
                        table: TableId(draw.below(tables + unknown) as u32),
                        row: RowId(draw.below(6)),
                        op,
                        data: (op != WriteOp::Delete)
                            .then(|| (0..1 + draw.below(8)).map(|_| draw.cell()).collect()),
                    }
                })
                .collect();
            records.push(WalRecord::Commit {
                seq,
                writeset: WriteSet {
                    base_version: seq.saturating_sub(1),
                    items,
                },
            });
        }
        // The floor leans high, so most cases cover most commits.
        let from_seq = draw.below(seq + 2).max(draw.below(seq + 2));
        let frames: Vec<&[WalRecord]> = records.chunks(1 + draw.below(8) as usize).collect();
        let mut payloads: Vec<Vec<u8>> = frames
            .iter()
            .map(|recs| {
                let mut payload = Vec::new();
                recs.iter()
                    .for_each(|rec| wal::encode_record(&mut payload, rec));
                payload
            })
            .collect();
        let truncate = draw.below(4) == 0;
        if !truncate {
            // Half the rewrites land in a frame that holds a covered
            // commit, which only the checking walk reads.
            let covering: Vec<usize> = (0..frames.len())
                .filter(|&f| {
                    frames[f]
                        .iter()
                        .any(|rec| matches!(rec, WalRecord::Commit { seq, .. } if *seq <= from_seq))
                })
                .collect();
            let frame = if !covering.is_empty() && draw.below(2) == 0 {
                covering[draw.below(covering.len() as u64) as usize]
            } else {
                draw.below(frames.len() as u64) as usize
            };
            let payload = &mut payloads[frame];
            let at = draw.below(payload.len() as u64) as usize;
            payload[at] = if draw.below(2) == 0 {
                draw.below(8) as u8
            } else {
                payload[at] ^ (1 + draw.below(255)) as u8
            };
        }
        let mut log = Vec::new();
        payloads
            .iter()
            .for_each(|payload| frame::put(&mut log, payload));
        if truncate {
            log.truncate(draw.below(log.len() as u64 + 1) as usize);
        }
        (log, from_seq)
    }

    /// The replay covered commits were once built for: every frame
    /// decoded whole, then the commits at or below `from_seq` dropped.
    fn replay_building_every_commit(
        db: &mut Database,
        wal_bytes: &[u8],
        from_seq: u64,
    ) -> RecoveryReport {
        let mut report = RecoveryReport {
            replayed: 0,
            last_seq: from_seq,
            wal_valid_len: 0,
            wal_truncated: false,
        };
        let mut reader = wal::Reader::new(&[]);
        let mut group = Vec::new();
        let mut trusted = true;
        let mut rest = wal_bytes;
        while let Ok((payload, after)) = frame::take(rest) {
            if !reader.records(payload, None, &mut group) {
                break;
            }
            rest = after;
            group.retain(|rec| !matches!(rec, WalRecord::Commit { seq, .. } if *seq <= from_seq));
            trusted = trusted && db.replay_records(group.drain(..), &mut report);
            group.clear();
        }
        report.wal_valid_len = wal_bytes.len() - rest.len();
        report.wal_truncated = !rest.is_empty();
        report
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8_192))]

        /// Checking a covered commit accepts exactly the bytes building
        /// it does: a malformed covered record rejects its frame either
        /// way, and what is replayed past the floor is the same.
        #[test]
        fn covered_commits_are_checked_as_strictly_as_they_are_built(
            seed in 0u64..u64::MAX,
        ) {
            let (log, from_seq) = mutated_log(seed);
            let (mut walked, mut built) = (Database::new(), Database::new());
            proptest::prop_assert_eq!(
                walked.replay(&log, from_seq),
                replay_building_every_commit(&mut built, &log, from_seq)
            );
            proptest::prop_assert_eq!(walked.durable_state(), built.durable_state());
        }
    }

    #[test]
    fn insert_duplicate_rejected() {
        let (mut db, items) = seeded();
        let t = db.begin();
        let err = db
            .insert(t, items, RowId(1), vec![Value::text("dup"), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateRow { .. }));
    }

    #[test]
    fn update_missing_row_rejected() {
        let (mut db, items) = seeded();
        let t = db.begin();
        let err = db
            .update(t, items, RowId(999), vec![Value::text("x"), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchRow { .. }));
    }

    #[test]
    fn delete_then_update_in_same_txn_rejected() {
        let (mut db, items) = seeded();
        let t = db.begin();
        db.delete(t, items, RowId(1)).unwrap();
        let err = db
            .update(t, items, RowId(1), vec![Value::text("x"), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchRow { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (mut db, items) = seeded();
        let t = db.begin();
        let err = db
            .insert(t, items, RowId(50), vec![Value::Int(1)])
            .unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    #[test]
    fn operations_on_finished_txn_rejected() {
        let (mut db, items) = seeded();
        let t = db.begin();
        db.commit(t).unwrap();
        assert!(matches!(
            db.read(t, items, RowId(1)),
            Err(DbError::TxnNotActive(_))
        ));
        assert!(matches!(db.commit(t), Err(DbError::TxnNotActive(_))));
        assert!(matches!(db.abort(t), Err(DbError::TxnNotActive(_))));
    }

    #[test]
    fn voluntary_abort_discards_writes() {
        let (mut db, items) = seeded();
        let t = db.begin();
        db.update(t, items, RowId(1), vec![Value::text("gone"), Value::Int(0)])
            .unwrap();
        db.abort(t).unwrap();
        let t2 = db.begin();
        assert_eq!(cell(&mut db, t2, items, 1, 1), Value::Int(100));
        assert_eq!(db.stats().voluntary_aborts, 1);
    }

    #[test]
    fn scan_sees_snapshot_with_overlay() {
        let (mut db, items) = seeded();
        let t = db.begin();
        db.delete(t, items, RowId(0)).unwrap();
        db.insert(
            t,
            items,
            RowId(200),
            vec![Value::text("extra"), Value::Int(1)],
        )
        .unwrap();
        let rows = db.scan(t, items).unwrap();
        let ids: Vec<u64> = rows.iter().map(|(id, _)| id.raw()).collect();
        assert!(!ids.contains(&0));
        assert!(ids.contains(&200));
        assert_eq!(rows.len(), 10); // 10 seeded - 1 deleted + 1 inserted
    }

    #[test]
    fn vacuum_reclaims_old_versions() {
        let (mut db, items) = seeded();
        for i in 0..20 {
            let t = db.begin();
            db.update(t, items, RowId(1), vec![Value::text("v"), Value::Int(i)])
                .unwrap();
            db.commit(t).unwrap();
        }
        let removed = db.vacuum();
        assert!(removed >= 19, "removed {removed}");
        // Data is still readable.
        let t = db.begin();
        assert_eq!(cell(&mut db, t, items, 1, 1), Value::Int(19));
    }

    #[test]
    fn vacuum_respects_active_snapshots() {
        let (mut db, items) = seeded();
        let old_reader = db.begin(); // pins the current snapshot
        for i in 0..5 {
            let t = db.begin();
            db.update(t, items, RowId(2), vec![Value::text("v"), Value::Int(i)])
                .unwrap();
            db.commit(t).unwrap();
        }
        db.vacuum();
        // The pinned reader must still see its version.
        assert_eq!(cell(&mut db, old_reader, items, 2, 1), Value::Int(100));
    }

    #[test]
    fn vacuum_bounds_version_count_over_long_runs() {
        let (mut db, items) = seeded();
        for round in 0..50 {
            for i in 0..10u64 {
                let t = db.begin();
                db.update(
                    t,
                    items,
                    RowId(i),
                    vec![Value::text("v"), Value::Int(round)],
                )
                .unwrap();
                db.commit(t).unwrap();
            }
            db.vacuum();
        }
        // One live version per row after each vacuum.
        assert_eq!(db.version_count(), 10);
    }

    #[test]
    fn abort_probability_from_stats() {
        let (mut db, items) = seeded();
        db.reset_stats(); // discard the seeding transaction

        // 1 conflict out of 2 update attempts.
        let t1 = db.begin();
        let t2 = db.begin();
        db.update(t1, items, RowId(7), vec![Value::text("a"), Value::Int(1)])
            .unwrap();
        db.update(t2, items, RowId(7), vec![Value::text("b"), Value::Int(2)])
            .unwrap();
        db.commit(t1).unwrap();
        let _ = db.commit(t2);
        assert!((db.stats().abort_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn writeset_of_matches_commit_writeset() {
        let (mut db, items) = seeded();
        let t = db.begin();
        db.update(t, items, RowId(3), vec![Value::text("x"), Value::Int(9)])
            .unwrap();
        db.insert(t, items, RowId(77), vec![Value::text("n"), Value::Int(1)])
            .unwrap();
        let extracted = db.writeset_of(t).unwrap();
        let info = db.commit(t).unwrap();
        assert_eq!(extracted, info.writeset);
    }

    #[test]
    fn writeset_of_requires_active_txn() {
        let (mut db, _) = seeded();
        let t = db.begin();
        db.commit(t).unwrap();
        assert!(matches!(db.writeset_of(t), Err(DbError::TxnNotActive(_))));
    }

    /// Only a committed update transaction adds its write statements to
    /// `U`'s numerator: read-only commits, voluntary and conflict aborts,
    /// and installs that are not local commits leave it alone.
    #[test]
    fn stats_fold_the_transaction_lifecycle() {
        let (mut db, items) = seeded();
        let genesis = db.clone();
        db.reset_stats();
        let image = |v| vec![Value::text("x"), Value::Int(v)];
        let reader = db.begin();
        db.read(reader, items, RowId(1)).unwrap();
        db.commit(reader).unwrap();
        let rollback = db.begin();
        db.update(rollback, items, RowId(2), image(2)).unwrap();
        db.abort(rollback).unwrap();
        let (winner, loser) = (db.begin(), db.begin());
        db.read(winner, items, RowId(1)).unwrap();
        db.update(winner, items, RowId(1), image(3)).unwrap();
        db.insert(winner, items, RowId(50), image(4)).unwrap();
        db.update(loser, items, RowId(1), image(5)).unwrap();
        let info = db.commit(winner).unwrap();
        assert!(db.commit(loser).unwrap_err().is_conflict());
        let expected = DbStats {
            read_only_commits: 1,
            update_commits: 1,
            conflict_aborts: 1,
            voluntary_aborts: 1,
            writesets_applied: 0,
            rows_read: 2,
            rows_written: 4,
            update_write_stmts: 2,
        };
        assert_eq!(db.stats(), expected);
        // A remote apply and a log replay install the same commit without
        // counting a write statement.
        let mut applied = genesis.clone();
        applied.reset_stats();
        applied.apply_writeset(&info.writeset).unwrap();
        let record = WalRecord::Commit {
            seq: info.commit_seq,
            writeset: info.writeset,
        };
        let mut replayed = genesis.clone();
        replayed.reset_stats();
        replayed.replay(&log_of(&[record], 1), genesis.version());
        for copy in [&applied, &replayed] {
            assert_eq!(copy.durable_state(), db.durable_state());
            let stats = copy.stats();
            assert_eq!((stats.writesets_applied, stats.update_write_stmts), (1, 0));
        }
    }

    #[test]
    fn rewriting_same_row_counts_one_row_two_statements() {
        let (mut db, items) = seeded();
        db.reset_stats();
        let t = db.begin();
        db.update(t, items, RowId(1), vec![Value::text("a"), Value::Int(1)])
            .unwrap();
        db.update(t, items, RowId(1), vec![Value::text("b"), Value::Int(2)])
            .unwrap();
        let info = db.commit(t).unwrap();
        // One row in the writeset, the final image wins.
        assert_eq!(info.writeset.update_operations(), 1);
        assert_eq!(
            info.writeset.items[0].data.as_ref().unwrap()[1],
            Value::Int(2)
        );
        // But `U`'s numerator counts both write statements, like
        // PostgreSQL's statement log.
        assert_eq!(db.stats().update_write_stmts, 2);
    }
}
