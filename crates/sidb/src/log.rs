//! Statement logging, the profiler's raw input.
//!
//! Paper, Section 4.1.1: "We take a backup of the database and capture the
//! transaction workload from the standalone database system using the
//! database log file. ... We count the number of read-only and update
//! transactions in the captured log to determine the fractions Pr and Pw.
//! We count the number of aborted update transactions to calculate the
//! abort probability A1."
//!
//! The log is a **streaming aggregator**: every statement folds into
//! [`LogTotals`] as it happens, and transactions fold their commit/abort
//! outcome (with their write-statement count) as they retire. A 60-second
//! capture therefore costs a fixed-size struct instead of an
//! entry-per-statement vector — the profiler reads [`LogTotals`] directly.

use serde::{Deserialize, Serialize};

/// A statement inside a transaction. Retirements are not statements:
/// they fold through [`StatementLog::commit`] / [`StatementLog::abort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatementKind {
    /// Transaction begin.
    Begin,
    /// Row read (SELECT).
    Select,
    /// Row insert.
    Insert,
    /// Row update.
    Update,
    /// Row delete.
    Delete,
}

/// Folded statement-log aggregates — everything the Section-4 profiling
/// pipeline reads from a capture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LogTotals {
    /// BEGIN statements.
    pub begins: u64,
    /// SELECT statements.
    pub selects: u64,
    /// INSERT statements.
    pub inserts: u64,
    /// UPDATE statements.
    pub updates: u64,
    /// DELETE statements.
    pub deletes: u64,
    /// Committed transactions that issued no write statement.
    pub read_commits: u64,
    /// Committed transactions that issued at least one write statement.
    pub update_commits: u64,
    /// Write-write certification aborts.
    pub conflict_aborts: u64,
    /// Client-initiated rollbacks.
    pub voluntary_aborts: u64,
    /// Write statements summed over committed update transactions — the
    /// numerator of the model parameter `U`.
    pub update_ops_sum: u64,
}

impl LogTotals {
    /// Total statements folded (transaction retirements included).
    pub fn statements(&self) -> u64 {
        self.begins
            + self.selects
            + self.inserts
            + self.updates
            + self.deletes
            + self.read_commits
            + self.update_commits
            + self.conflict_aborts
            + self.voluntary_aborts
    }

    /// Committed transactions of either kind.
    pub fn commits(&self) -> u64 {
        self.read_commits + self.update_commits
    }
}

/// A streaming statement log with PostgreSQL-style enable toggle.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatementLog {
    enabled: bool,
    totals: LogTotals,
}

impl StatementLog {
    /// Creates a disabled log (logging off by default, like PostgreSQL).
    pub fn new() -> Self {
        StatementLog::default()
    }

    /// Turns logging on or off (`log_statement` equivalent).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether logging is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The folded aggregates.
    pub fn totals(&self) -> LogTotals {
        self.totals
    }

    /// Folds one statement. No-op while disabled.
    pub fn statement(&mut self, kind: StatementKind) {
        if !self.enabled {
            return;
        }
        match kind {
            StatementKind::Begin => self.totals.begins += 1,
            StatementKind::Select => self.totals.selects += 1,
            StatementKind::Insert => self.totals.inserts += 1,
            StatementKind::Update => self.totals.updates += 1,
            StatementKind::Delete => self.totals.deletes += 1,
        }
    }

    /// Retires a committed transaction, folding its write-statement count
    /// (`0` marks a read-only commit). No-op while disabled.
    pub fn commit(&mut self, write_stmts: u64) {
        if !self.enabled {
            return;
        }
        if write_stmts > 0 {
            self.totals.update_commits += 1;
            self.totals.update_ops_sum += write_stmts;
        } else {
            self.totals.read_commits += 1;
        }
    }

    /// Retires an aborted transaction. No-op while disabled.
    pub fn abort(&mut self, conflict: bool) {
        if !self.enabled {
            return;
        }
        if conflict {
            self.totals.conflict_aborts += 1;
        } else {
            self.totals.voluntary_aborts += 1;
        }
    }

    /// Discards all folded totals (start of a fresh measurement window).
    pub fn reset(&mut self) {
        self.totals = LogTotals::default();
    }

    /// True when nothing has been folded.
    pub fn is_empty(&self) -> bool {
        self.totals.statements() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = StatementLog::new();
        log.statement(StatementKind::Begin);
        log.commit(0);
        assert!(log.is_empty());
        assert_eq!(log.totals().statements(), 0);
    }

    #[test]
    fn statements_fold_into_totals() {
        let mut log = StatementLog::new();
        log.set_enabled(true);
        log.statement(StatementKind::Begin);
        log.statement(StatementKind::Select);
        log.statement(StatementKind::Update);
        log.statement(StatementKind::Update);
        log.commit(2);
        let t = log.totals();
        assert_eq!(t.begins, 1);
        assert_eq!(t.selects, 1);
        assert_eq!(t.updates, 2);
        assert_eq!(t.update_commits, 1);
        assert_eq!(t.update_ops_sum, 2);
        assert_eq!(t.read_commits, 0);
        assert!(!log.is_empty());
    }

    #[test]
    fn commits_classify_by_write_count() {
        let mut log = StatementLog::new();
        log.set_enabled(true);
        log.commit(0);
        log.commit(3);
        let t = log.totals();
        assert_eq!(t.read_commits, 1);
        assert_eq!(t.update_commits, 1);
        assert_eq!(t.update_ops_sum, 3);
        assert_eq!(t.commits(), 2);
    }

    #[test]
    fn aborts_distinguish_conflicts() {
        let mut log = StatementLog::new();
        log.set_enabled(true);
        log.abort(true);
        log.abort(false);
        assert_eq!(log.totals().conflict_aborts, 1);
        assert_eq!(log.totals().voluntary_aborts, 1);
    }

    #[test]
    fn reset_discards_everything() {
        let mut log = StatementLog::new();
        log.set_enabled(true);
        log.statement(StatementKind::Begin);
        log.commit(1);
        log.reset();
        assert!(log.is_empty());
        assert_eq!(log.totals(), LogTotals::default());
    }
}
