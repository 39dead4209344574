//! Error type for storage-engine operations.

use std::fmt;

use crate::ids::{RowId, TableId};
use crate::txn::TxnId;

/// Errors returned by [`crate::Database`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// First-committer-wins certification failed: another transaction that
    /// ran concurrently already committed a write to the same row.
    WriteWriteConflict {
        /// The aborted transaction.
        txn: TxnId,
        /// Table where the conflict was detected.
        table: TableId,
        /// Conflicting row.
        row: RowId,
    },
    /// The transaction id is unknown or no longer active.
    TxnNotActive(TxnId),
    /// The named table does not exist (name resolution).
    NoSuchTable(String),
    /// The table id is out of range for this database (a writeset or
    /// statement plan compiled against a different schema).
    InvalidTable(TableId),
    /// A table with this name already exists.
    TableExists(String),
    /// The row targeted by an update/delete is not visible in the
    /// transaction's snapshot.
    NoSuchRow {
        /// Table searched.
        table: TableId,
        /// Missing row.
        row: RowId,
    },
    /// An insert targeted a row that is already visible in the snapshot.
    DuplicateRow {
        /// Table.
        table: TableId,
        /// Duplicate row.
        row: RowId,
    },
    /// Row arity does not match the table's column count.
    ArityMismatch {
        /// Table.
        table: TableId,
        /// Supplied cell count.
        got: usize,
        /// Column count of the table.
        expected: usize,
    },
    /// A logged commit's sequence does not advance the database: it is
    /// at or below the version already installed (a log running
    /// backwards, or a record replayed twice).
    StaleCommit {
        /// Sequence of the refused commit.
        seq: u64,
        /// The database version it failed to advance.
        version: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::WriteWriteConflict { txn, table, row } => write!(
                f,
                "write-write conflict: txn {txn:?} lost row {row} of {table} to a first committer"
            ),
            DbError::TxnNotActive(t) => write!(f, "transaction {t:?} is not active"),
            DbError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            DbError::InvalidTable(t) => write!(f, "table id {t} is not part of this schema"),
            DbError::TableExists(t) => write!(f, "table `{t}` already exists"),
            DbError::NoSuchRow { table, row } => {
                write!(f, "row {row} not visible in {table}")
            }
            DbError::DuplicateRow { table, row } => {
                write!(f, "row {row} already exists in {table}")
            }
            DbError::ArityMismatch {
                table,
                got,
                expected,
            } => write!(
                f,
                "arity mismatch on {table}: got {got} cells, expected {expected}"
            ),
            DbError::StaleCommit { seq, version } => {
                write!(f, "commit {seq} does not advance version {version}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// True when the error is the SI certification failure that the client
    /// should respond to by retrying the transaction.
    pub fn is_conflict(&self) -> bool {
        matches!(self, DbError::WriteWriteConflict { .. })
    }
}
