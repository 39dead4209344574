//! Transaction identity and per-transaction state.

use serde::{Deserialize, Serialize};

use crate::ids::{RowId, TableId};
use crate::rowmap::FxHashMap;
use crate::value::Row;

/// Opaque transaction identifier, unique within one [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub(crate) u64);

impl TxnId {
    /// Raw numeric id (stable within a database instance).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Begun, neither committed nor aborted.
    Active,
    /// Successfully committed.
    Committed,
    /// Aborted (explicitly or by certification failure).
    Aborted,
}

/// One buffered row write of an active transaction.
#[derive(Debug, Clone)]
pub(crate) struct PendingWrite {
    pub table: TableId,
    pub row: RowId,
    /// New row image, or `None` for a delete.
    pub data: Option<Row>,
    /// Whether the row was visible in the snapshot when first buffered.
    /// Fixes the writeset op (insert vs update/delete) without any
    /// commit-time visibility lookup — visibility at a fixed snapshot
    /// cannot change.
    pub visible_before: bool,
}

/// Writes a transaction buffers before [`TxnState`] indexes them.
///
/// At or below this count a lookup is a linear scan of the write vector
/// (a transaction of the simulated mixes writes 1–8 rows: a few cache
/// lines, no hashing, no map allocation). Above it — bulk loads, the
/// 10 k-row seed transaction — a `(table, row) → position` map is kept
/// alongside. Measured on `insert` in a k-write transaction (release,
/// best of 5): scan-only costs 32 ns per insert at k = 2, 46 at k = 32,
/// 70 at k = 96, 275 at k = 1 000 and 1 980 at k = 10 000; always
/// indexed it is 41–59 ns for every k ≤ 256 (the map's allocation is
/// paid per transaction) and 114 at k = 10 000. The two cross between
/// k = 48 and k = 64; 32 keeps every simulated transaction on the scan
/// with a margin.
const INDEX_THRESHOLD: usize = 32;

/// Internal state of an active transaction.
///
/// Buffered writes are a flat vector in first-write order, so the
/// writeset comes out allocation-free at commit. Up to
/// [`INDEX_THRESHOLD`] writes a lookup scans that vector — for the
/// handful of rows an OLTP transaction writes, a linear scan beats any
/// keyed structure. Past it the scan makes a bulk transaction
/// quadratic (2 µs per lookup at 10 k rows, and a statement used to do
/// two), so the transaction grows a position index; an empty index
/// allocates nothing, and small transactions pay one length compare for
/// its existence.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnState {
    /// Commit sequence number visible to this transaction (its snapshot).
    pub snapshot: u64,
    /// Buffered writes, deduplicated per `(table, row)`.
    writes: Vec<PendingWrite>,
    /// Position of each buffered write in `writes`; populated (with
    /// every write) exactly while `writes.len() > INDEX_THRESHOLD`.
    index: FxHashMap<(TableId, RowId), usize>,
    /// Write *statements* issued (a row rewritten twice counts twice) —
    /// what a commit folds into `DbStats::update_write_stmts`.
    pub write_stmts: u64,
}

impl TxnState {
    pub(crate) fn new(snapshot: u64) -> Self {
        TxnState {
            snapshot,
            ..TxnState::default()
        }
    }

    /// Buffered writes in first-write order.
    #[inline]
    pub(crate) fn writes(&self) -> &[PendingWrite] {
        &self.writes
    }

    /// Consumes the state, yielding the buffered writes in first-write
    /// order (the commit path moves the row images into the writeset).
    pub(crate) fn into_writes(self) -> Vec<PendingWrite> {
        self.writes
    }

    /// Index of the buffered write for `(table, row)`, if any.
    #[inline]
    pub(crate) fn find_write(&self, table: TableId, row: RowId) -> Option<usize> {
        if self.writes.len() <= INDEX_THRESHOLD {
            self.writes
                .iter()
                .position(|w| w.table == table && w.row == row)
        } else {
            self.index.get(&(table, row)).copied()
        }
    }

    /// The buffered image for `(table, row)`: `Some(&None)` is a
    /// buffered delete, `None` means the row is untouched.
    #[inline]
    pub(crate) fn pending(&self, table: TableId, row: RowId) -> Option<&Option<Row>> {
        self.find_write(table, row).map(|i| &self.writes[i].data)
    }

    /// Buffers a write of `(table, row)`. `found` is the row's
    /// [`TxnState::find_write`] result (the caller looked it up to
    /// validate the statement): a rewrite replaces the image in place
    /// and keeps the first write's position and `visible_before`.
    pub(crate) fn buffer(
        &mut self,
        found: Option<usize>,
        table: TableId,
        row: RowId,
        data: Option<Row>,
        visible_before: bool,
    ) {
        debug_assert_eq!(found, self.find_write(table, row), "stale lookup");
        match found {
            Some(i) => self.writes[i].data = data,
            None => {
                let at = self.writes.len();
                self.writes.push(PendingWrite {
                    table,
                    row,
                    data,
                    visible_before,
                });
                if at > INDEX_THRESHOLD {
                    self.index.insert((table, row), at);
                } else if at == INDEX_THRESHOLD {
                    // This write crosses the threshold: index them all.
                    self.index.extend(
                        self.writes
                            .iter()
                            .enumerate()
                            .map(|(i, w)| ((w.table, w.row), i)),
                    );
                }
            }
        }
    }

    /// True when the transaction has buffered no writes (read-only so far).
    pub(crate) fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn buffer(t: &mut TxnState, table: u32, row: u64, data: Option<Row>) {
        let (table, row) = (TableId(table), RowId(row));
        t.buffer(t.find_write(table, row), table, row, data, true);
    }

    #[test]
    fn fresh_txn_is_read_only() {
        let t = TxnState::new(42);
        assert!(t.is_read_only());
        assert!(t.writes().is_empty());
        assert_eq!(t.snapshot, 42);
    }

    #[test]
    fn buffered_writes_found_per_row() {
        let mut t = TxnState::new(0);
        buffer(&mut t, 0, 1, Some(Row::from([Value::Int(1)])));
        buffer(&mut t, 0, 2, None);
        buffer(&mut t, 1, 1, Some(Row::from([Value::Int(2)])));
        assert_eq!(t.writes().len(), 3);
        assert!(!t.is_read_only());
        assert_eq!(t.find_write(TableId(0), RowId(2)), Some(1));
        assert_eq!(t.find_write(TableId(1), RowId(2)), None);
        // A buffered delete reads back as Some(&None).
        assert_eq!(t.pending(TableId(0), RowId(2)), Some(&None));
        assert_eq!(t.pending(TableId(2), RowId(1)), None);
    }
}
