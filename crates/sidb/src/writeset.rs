//! Transaction writesets: the unit of certification and update propagation.
//!
//! The writeset ([Kemme 2000], paper Section 2) "captures the transaction
//! effects and is used both in certification and in update propagation".
//! Our writesets record, per modified row, the operation and the full new
//! row image, plus the snapshot version the transaction read from — which
//! is exactly what the certifier compares against committed writesets.
//!
//! Rows are addressed by interned [`TableId`]/[`RowId`] pairs, never by
//! name: a writeset item is a flat 4-word record, and applying or
//! certifying one costs an array index instead of a string hash. The
//! image in an item is a shared [`Row`]: extracting a writeset, cloning
//! it and applying it all bump the image's reference count, so the row a
//! transaction wrote is allocated once for the whole cluster.

use serde::{Deserialize, Serialize};

use crate::ids::{RowId, TableId};
use crate::value::{row_wire_size, Row};

/// The kind of row modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteOp {
    /// Row created.
    Insert,
    /// Row image replaced.
    Update,
    /// Row removed.
    Delete,
}

/// One modified row inside a writeset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteItem {
    /// Interned table id (identical on every replica of a schema).
    pub table: TableId,
    /// Row key.
    pub row: RowId,
    /// Operation kind.
    pub op: WriteOp,
    /// New row image (`None` for deletes).
    pub data: Option<Row>,
}

impl WriteItem {
    /// Approximate propagation size in bytes: table id + key + op + payload.
    pub fn wire_size(&self) -> usize {
        let payload = self.data.as_deref().map(row_wire_size).unwrap_or(0);
        4 + 8 + 1 + payload
    }
}

/// The complete writeset of one update transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteSet {
    /// Snapshot (commit sequence) the producing transaction read from.
    /// The certifier checks conflicts against writesets committed *after*
    /// this version.
    pub base_version: u64,
    /// Modified rows, in first-write order.
    pub items: Vec<WriteItem>,
}

impl WriteSet {
    /// True when no rows were modified (the transaction was read-only).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of modified rows — the model parameter `U` ("number of update
    /// operations in each update transaction", Table 1).
    pub fn update_operations(&self) -> usize {
        self.items.len()
    }

    /// Approximate propagation size in bytes (the paper reports ~275 B
    /// average for TPC-W, ~272 B for RUBiS).
    pub fn wire_size(&self) -> usize {
        8 + self.items.iter().map(WriteItem::wire_size).sum::<usize>()
    }

    /// Keys `(table, row)` touched by this writeset.
    pub fn keys(&self) -> impl Iterator<Item = (TableId, RowId)> + '_ {
        self.items.iter().map(|i| (i.table, i.row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn item(table: u32, row: u64) -> WriteItem {
        WriteItem {
            table: TableId(table),
            row: RowId(row),
            op: WriteOp::Update,
            data: Some([Value::Int(1)].into()),
        }
    }

    #[test]
    fn writeset_without_items_is_empty() {
        let empty = WriteSet {
            base_version: 0,
            items: vec![],
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = WriteSet {
            base_version: 0,
            items: vec![item(0, 1)],
        };
        let big = WriteSet {
            base_version: 0,
            items: vec![WriteItem {
                table: TableId(0),
                row: RowId(1),
                op: WriteOp::Update,
                data: Some([Value::Bytes(vec![0u8; 200])].into()),
            }],
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(small.wire_size() > 8);
    }

    #[test]
    fn update_operations_counts_rows() {
        let ws = WriteSet {
            base_version: 7,
            items: vec![item(0, 1), item(0, 2), item(1, 9)],
        };
        assert_eq!(ws.update_operations(), 3);
        let keys: Vec<_> = ws.keys().collect();
        assert_eq!(
            keys,
            vec![
                (TableId(0), RowId(1)),
                (TableId(0), RowId(2)),
                (TableId(1), RowId(9))
            ]
        );
    }

    #[test]
    fn delete_item_has_no_payload_size() {
        let del = WriteItem {
            table: TableId(0),
            row: RowId(4),
            op: WriteOp::Delete,
            data: None,
        };
        assert_eq!(del.wire_size(), 4 + 8 + 1);
    }
}
