//! A transaction's buffered writes, checked against an independent
//! overlay model.
//!
//! The engine keeps a transaction's writes in a vector and looks rows up
//! by linear scan until the transaction has written more than a few
//! dozen rows, then through a position index. The model below knows
//! nothing of either: it is a `BTreeMap` overlay on a fixed seeded key
//! range plus the order keys were first written in. Transactions of
//! 1 … 200 statements over 160 keys land on both sides of the switch —
//! and cross it mid-transaction — so a lookup that disagrees between the
//! two paths shows up as a wrong read, a wrong error or a wrong writeset.

use std::collections::BTreeMap;

use proptest::prelude::*;
use replipred_sidb::{Database, DbError, Row, RowId, TableId, Value, WriteOp};

/// Keys `0..SEEDED` are committed before the transaction starts.
const SEEDED: u64 = 80;
/// Statements draw keys from `0..KEYS`.
const KEYS: u64 = 160;

fn seeded() -> (Database, TableId) {
    let mut db = Database::new();
    let t = db.create_table("t", &["v"]).unwrap();
    let seed = db.begin();
    for key in 0..SEEDED {
        db.insert(seed, t, RowId(key), vec![Value::Int(-1)])
            .unwrap();
    }
    db.commit(seed).unwrap();
    (db, t)
}

/// The model: the transaction's own writes over the seeded range.
#[derive(Default)]
struct Overlay {
    /// Latest buffered image per written key (`None` = deleted).
    writes: BTreeMap<u64, Option<i64>>,
    /// Keys in first-write order.
    order: Vec<u64>,
    /// Write statements that succeeded.
    stmts: u64,
}

impl Overlay {
    fn get(&self, key: u64) -> Option<i64> {
        match self.writes.get(&key) {
            Some(image) => *image,
            None => (key < SEEDED).then_some(-1),
        }
    }

    fn put(&mut self, key: u64, image: Option<i64>) {
        if self.writes.insert(key, image).is_none() {
            self.order.push(key);
        }
        self.stmts += 1;
    }

    /// What the writeset must say about `key`: insert vs update is fixed
    /// by snapshot visibility at first write, a delete is a delete.
    fn op(&self, key: u64) -> WriteOp {
        match (self.writes[&key], key < SEEDED) {
            (None, _) => WriteOp::Delete,
            (Some(_), true) => WriteOp::Update,
            (Some(_), false) => WriteOp::Insert,
        }
    }
}

fn int(v: i64) -> Row {
    Row::from([Value::Int(v)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_transaction_matches_the_overlay_model(
        stmts in collection::vec((0u8..4, 0u64..KEYS, 0u64..1_000), 1..201),
    ) {
        let (mut db, t) = seeded();
        let rows_written_before = db.stats().rows_written;
        let txn = db.begin();
        let mut model = Overlay::default();
        for (i, &(kind, key, pick)) in stmts.iter().enumerate() {
            let v = i as i64;
            // Kind 3 rewrites a row this transaction already wrote.
            let key = match (kind, model.order.len()) {
                (3, n) if n > 0 => model.order[pick as usize % n],
                _ => key,
            };
            let row = RowId(key);
            match kind {
                0 => {
                    let got = db.insert(txn, t, row, int(v));
                    // Insert refuses a row the snapshot holds even when
                    // this transaction has deleted it.
                    if model.writes.get(&key).is_some_and(Option::is_some) || key < SEEDED {
                        prop_assert_eq!(got, Err(DbError::DuplicateRow { table: t, row }));
                    } else {
                        prop_assert_eq!(got, Ok(()));
                        model.put(key, Some(v));
                    }
                }
                1 | 3 => {
                    let got = db.update(txn, t, row, int(v));
                    if model.get(key).is_some() {
                        prop_assert_eq!(got, Ok(()));
                        model.put(key, Some(v));
                    } else {
                        prop_assert_eq!(got, Err(DbError::NoSuchRow { table: t, row }));
                    }
                }
                _ => {
                    let got = db.delete(txn, t, row);
                    if model.get(key).is_some() {
                        prop_assert_eq!(got, Ok(()));
                        model.put(key, None);
                    } else {
                        prop_assert_eq!(got, Err(DbError::NoSuchRow { table: t, row }));
                    }
                }
            }
            // Read-your-writes, on the row just touched.
            let read = db.read(txn, t, row).unwrap().cloned();
            prop_assert_eq!(read, model.get(key).map(int));
        }

        // The whole view, through the scan's own overlay logic.
        let view: Vec<(u64, Row)> = (0..KEYS)
            .filter_map(|key| model.get(key).map(|v| (key, int(v))))
            .collect();
        let scanned: Vec<(u64, Row)> = db
            .scan(txn, t)
            .unwrap()
            .into_iter()
            .map(|(row, data)| (row.0, data))
            .collect();
        prop_assert_eq!(scanned, view.clone());
        prop_assert_eq!(db.stats().rows_written - rows_written_before, model.stmts);

        // The writeset: one item per written row, in first-write order.
        let extracted = db.writeset_of(txn).unwrap();
        let info = db.commit(txn).unwrap();
        prop_assert_eq!(&extracted, &info.writeset);
        let got: Vec<(u64, WriteOp, Option<Row>)> = info
            .writeset
            .items
            .into_iter()
            .map(|item| (item.row.0, item.op, item.data))
            .collect();
        let want: Vec<(u64, WriteOp, Option<Row>)> = model
            .order
            .iter()
            .map(|&key| (key, model.op(key), model.writes[&key].map(int)))
            .collect();
        prop_assert_eq!(got, want);

        // And the committed state is the model's view.
        let after = db.begin();
        let committed: Vec<(u64, Row)> = db
            .scan(after, t)
            .unwrap()
            .into_iter()
            .map(|(row, data)| (row.0, data))
            .collect();
        prop_assert_eq!(committed, view);
    }
}

/// A bulk load is linear in its size: 100 000 rows in one transaction
/// take well under a second. With a per-statement scan of the pending
/// writes it is 5 · 10⁹ comparisons — minutes in a debug build — so a
/// reintroduced quadratic seed shows as this suite timing out.
#[test]
fn seeding_100k_rows_in_one_transaction_is_linear() {
    const ROWS: u64 = 100_000;
    let mut db = Database::new();
    let t = db.create_table("bulk", &["v"]).unwrap();
    let txn = db.begin();
    for key in 0..ROWS {
        db.insert(txn, t, RowId(key), int(key as i64)).unwrap();
    }
    // The last row reads back through the index, and a duplicate of the
    // first is still refused.
    assert_eq!(
        db.read(txn, t, RowId(ROWS - 1)).unwrap(),
        Some(&int(ROWS as i64 - 1))
    );
    assert_eq!(
        db.insert(txn, t, RowId(0), int(0)),
        Err(DbError::DuplicateRow {
            table: t,
            row: RowId(0)
        })
    );
    let info = db.commit(txn).unwrap();
    assert_eq!(info.writeset.items.len(), ROWS as usize);
    assert_eq!(db.live_rows(t).unwrap(), ROWS as usize);
}
