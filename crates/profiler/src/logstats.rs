//! Log analysis: `Pr`, `Pw`, `A1` and `U` from log counts.
//!
//! Paper Section 4.1.1: "We count the number of read-only and update
//! transactions in the captured log to determine the fractions Pr and Pw.
//! We count the number of aborted update transactions to calculate the
//! abort probability A1."
//!
//! The engine folds those counts into its [`DbStats`] as transactions
//! retire; [`summarize`] turns them into the derived fractions. No entry
//! vector is ever replayed — a 60-second capture is a fixed-size struct
//! regardless of throughput.

use replipred_sidb::DbStats;
use serde::{Deserialize, Serialize};

/// Aggregates derived from a captured log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogSummary {
    /// Committed read-only transactions.
    pub read_commits: u64,
    /// Committed update transactions.
    pub update_commits: u64,
    /// Certification (write-write) aborts.
    pub conflict_aborts: u64,
    /// Client-initiated rollbacks.
    pub voluntary_aborts: u64,
    /// Fraction of read-only transactions among commits (`Pr`).
    pub pr: f64,
    /// Fraction of update transactions among commits (`Pw`).
    pub pw: f64,
    /// Abort probability of update transactions (`A1`).
    pub a1: f64,
    /// Mean write statements per committed update transaction (`U`).
    pub mean_update_ops: f64,
}

/// Derives the paper's log statistics from the engine's counters.
pub fn summarize(stats: &DbStats) -> LogSummary {
    let commits = stats.read_only_commits + stats.update_commits;
    let share = |count: u64, of: u64| {
        if of == 0 {
            0.0
        } else {
            count as f64 / of as f64
        }
    };
    LogSummary {
        read_commits: stats.read_only_commits,
        update_commits: stats.update_commits,
        conflict_aborts: stats.conflict_aborts,
        voluntary_aborts: stats.voluntary_aborts,
        pr: share(stats.read_only_commits, commits),
        pw: share(stats.update_commits, commits),
        a1: stats.abort_probability(),
        mean_update_ops: share(stats.update_write_stmts, stats.update_commits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_sidb::{Database, RowId, Value};

    /// Drives a real engine past its seeding and returns the counters the
    /// script moved — the same pipeline the profiler uses.
    fn run_and_total(script: impl FnOnce(&mut Database)) -> DbStats {
        let mut db = Database::new();
        let t = db.create_table("t", &["v"]).unwrap();
        let seed = db.begin();
        for i in 0..8u64 {
            db.insert(seed, t, RowId(i), vec![Value::Int(0)]).unwrap();
        }
        db.commit(seed).unwrap();
        db.reset_stats();
        script(&mut db);
        db.stats()
    }

    #[test]
    fn classifies_read_and_update_transactions() {
        let totals = run_and_total(|db| {
            let t = db.table_id("t").unwrap();
            let r = db.begin();
            db.read(r, t, RowId(0)).unwrap();
            db.commit(r).unwrap();
            let w = db.begin();
            db.update(w, t, RowId(1), vec![Value::Int(1)]).unwrap();
            db.update(w, t, RowId(2), vec![Value::Int(1)]).unwrap();
            db.commit(w).unwrap();
        });
        let s = summarize(&totals);
        assert_eq!(s.read_commits, 1);
        assert_eq!(s.update_commits, 1);
        assert!((s.pr - 0.5).abs() < 1e-12);
        assert!((s.mean_update_ops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn counts_conflict_aborts_for_a1() {
        let totals = run_and_total(|db| {
            let t = db.table_id("t").unwrap();
            // Two concurrent writers on the same row: one conflicts.
            let a = db.begin();
            let b = db.begin();
            db.update(a, t, RowId(3), vec![Value::Int(1)]).unwrap();
            db.update(b, t, RowId(3), vec![Value::Int(2)]).unwrap();
            db.commit(a).unwrap();
            assert!(db.commit(b).is_err());
            // Plus one voluntary rollback.
            let c = db.begin();
            db.abort(c).unwrap();
        });
        let s = summarize(&totals);
        assert_eq!(s.conflict_aborts, 1);
        assert_eq!(s.voluntary_aborts, 1);
        // 1 conflict among 2 update attempts.
        assert!((s.a1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let s = summarize(&DbStats::default());
        assert_eq!(s.read_commits, 0);
        assert_eq!(s.pr, 0.0);
        assert_eq!(s.a1, 0.0);
        assert_eq!(s.mean_update_ops, 0.0);
    }

    #[test]
    fn inserts_and_deletes_count_as_update_ops() {
        let totals = run_and_total(|db| {
            let t = db.table_id("t").unwrap();
            let w = db.begin();
            db.insert(w, t, RowId(100), vec![Value::Int(1)]).unwrap();
            db.delete(w, t, RowId(0)).unwrap();
            db.update(w, t, RowId(1), vec![Value::Int(5)]).unwrap();
            db.commit(w).unwrap();
        });
        let s = summarize(&totals);
        assert_eq!(s.update_commits, 1);
        assert!((s.mean_update_ops - 3.0).abs() < 1e-12);
    }
}
