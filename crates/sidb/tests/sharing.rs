//! A row image is one allocation with many holders — the origin's version
//! arena, the extracted writeset, every database the writeset was applied
//! to, every `Database::clone`, every checkpoint and everything restored
//! from one. Sharing is only sound if nobody can change an image another
//! holder sees: editing a row one read (the workloads' read-modify-write)
//! must copy it first.
//!
//! The property below interleaves every way an image gets a new holder
//! with edits through every handle a caller can reach, and checks that
//! each holder still shows what it showed when it was taken.

use proptest::prelude::*;
use replipred_sidb::{Checkpoint, Database, Row, RowId, TableId, Value, WriteSet};

const KEYS: u64 = 6;

fn seeded() -> (Database, TableId) {
    let mut db = Database::new();
    let t = db.create_table("t", &["name", "n"]).unwrap();
    let txn = db.begin();
    for key in 0..KEYS {
        let row = vec![Value::text(format!("row{key}")), Value::Int(0)];
        db.insert(txn, t, RowId(key), row).unwrap();
    }
    db.commit(txn).unwrap();
    (db, t)
}

/// Scribbles over a private clone of `row`: every cell of the clone
/// changes, and `row` itself must not.
fn scribble(row: &Row) {
    let before = format!("{row:?}");
    let mut mine = row.clone();
    for cell in mine.iter_mut() {
        *cell = Value::Bytes(vec![0xEE; 3]);
    }
    assert_ne!(format!("{mine:?}"), before);
    assert_eq!(format!("{row:?}"), before, "an edit reached a shared image");
}

/// Something that holds row images, with what it showed when taken.
enum Holder {
    Db(Box<Database>, String),
    Checkpoint(Checkpoint, String),
    WriteSet(WriteSet, String),
}

impl Holder {
    fn check(&self) -> Result<(), String> {
        let (now, then) = match self {
            Holder::Db(db, then) => (db.durable_state(), then),
            Holder::Checkpoint(cp, then) => (Database::restore(cp).durable_state(), then),
            Holder::WriteSet(ws, then) => (format!("{ws:?}"), then),
        };
        if &now == then {
            Ok(())
        } else {
            Err(format!("a holder changed:\n{then}\nbecame\n{now}"))
        }
    }

    /// Edits a clone of every image this holder can hand out.
    fn scribble(&mut self, t: TableId) {
        match self {
            Holder::Db(db, _) => {
                let txn = db.begin();
                for (_, row) in db.scan(txn, t).unwrap() {
                    scribble(&row);
                }
                for key in 0..KEYS {
                    if let Some(row) = db.read(txn, t, RowId(key)).unwrap() {
                        scribble(row);
                    }
                }
                db.abort(txn).unwrap();
            }
            Holder::Checkpoint(cp, _) => {
                for table in &cp.tables {
                    table.rows.iter().for_each(|(_, row)| scribble(row));
                }
            }
            Holder::WriteSet(ws, _) => {
                ws.items.iter().flat_map(|i| &i.data).for_each(scribble);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_edit_reaches_an_image_somebody_else_holds(
        ops in collection::vec((0u8..7, 0u64..KEYS, 0usize..64), 1..60),
    ) {
        let (mut primary, t) = seeded();
        // Applies every writeset: shares every committed image.
        let mut replica = primary.clone();
        // An old snapshot on the primary, open for the whole run.
        let old = primary.begin();
        let old_view = format!("{:?}", primary.scan(old, t).unwrap());
        let mut holders: Vec<Holder> = Vec::new();
        for (op, key, pick) in ops {
            match op {
                // Read-modify-write through the shared image, the way the
                // workloads do it: clone what `read` returned, edit the
                // clone in place, write it back.
                0..=2 => {
                    let txn = primary.begin();
                    match primary.read(txn, t, RowId(key)).unwrap().cloned() {
                        Some(mut next) if op < 2 => {
                            if let Value::Int(n) = next[1] {
                                next[1] = Value::Int(n + 1);
                            }
                            primary.update(txn, t, RowId(key), next).unwrap();
                        }
                        Some(_) => primary.delete(txn, t, RowId(key)).unwrap(),
                        None => {
                            let row = vec![Value::text("again"), Value::Int(-1)];
                            primary.insert(txn, t, RowId(key), row).unwrap();
                        }
                    }
                    let extracted = primary.writeset_of(txn).unwrap();
                    let info = primary.commit(txn).unwrap();
                    prop_assert_eq!(&extracted, &info.writeset);
                    replica.apply_writeset(&info.writeset).unwrap();
                    let shown = format!("{:?}", info.writeset);
                    holders.push(Holder::WriteSet(info.writeset, shown));
                }
                3 => {
                    let copy = primary.clone();
                    let shown = copy.durable_state();
                    holders.push(Holder::Db(Box::new(copy), shown));
                }
                4 => {
                    let cp = replica.checkpoint();
                    let shown = Database::restore(&cp).durable_state();
                    prop_assert_eq!(&shown, &replica.durable_state());
                    holders.push(Holder::Checkpoint(cp, shown));
                }
                5 => {
                    // A database restored from the newest checkpoint held
                    // (or from one taken now) shares that checkpoint's rows.
                    let newest = holders.iter().rev().find_map(|h| match h {
                        Holder::Checkpoint(cp, _) => Some(cp.clone()),
                        _ => None,
                    });
                    let newest = newest.unwrap_or_else(|| primary.checkpoint());
                    let restored = Database::restore(&newest);
                    let shown = restored.durable_state();
                    holders.push(Holder::Db(Box::new(restored), shown));
                }
                // Collect old versions: a freed version drops one holder.
                _ => {
                    replica.vacuum();
                }
            }
            // Edit through one holder's handles, then through the live
            // databases' — and nobody's image may have moved.
            if !holders.is_empty() {
                let at = pick % holders.len();
                holders[at].scribble(t);
            }
            for row in primary.scan(old, t).unwrap() {
                scribble(&row.1);
            }
            for holder in &holders {
                if let Err(changed) = holder.check() {
                    prop_assert!(false, "{}", changed);
                }
            }
            let old_now = format!("{:?}", primary.scan(old, t).unwrap());
            prop_assert_eq!(old_now, old_view.clone());
            prop_assert_eq!(replica.durable_state(), primary.durable_state());
        }
    }
}

#[test]
fn every_way_an_image_travels_shares_it_and_an_edit_copies_it() {
    let (mut origin, t) = seeded();
    let image = |db: &mut Database, key: u64| -> *const Value {
        let txn = db.begin();
        let at = db.read(txn, t, RowId(key)).unwrap().unwrap().as_ptr();
        db.abort(txn).unwrap();
        at
    };
    // A cloned database, a checkpoint of it and a database restored from
    // that checkpoint hold the origin's allocation.
    let mut copy = origin.clone();
    let cp = origin.checkpoint();
    let mut restored = Database::restore(&cp);
    let seeded_at = image(&mut origin, 2);
    assert_eq!(image(&mut copy, 2), seeded_at);
    assert_eq!(cp.tables[0].rows[2].1.as_ptr(), seeded_at);
    assert_eq!(image(&mut restored, 2), seeded_at);

    // The image a transaction hands in is the committed version, the
    // writeset's item and the version a replica installs.
    let next = Row::from([Value::text("new"), Value::Int(1)]);
    let handed_in = next.as_ptr();
    let txn = origin.begin();
    origin.update(txn, t, RowId(2), next).unwrap();
    let info = origin.commit(txn).unwrap();
    copy.apply_writeset(&info.writeset).unwrap();
    assert_eq!(
        info.writeset.items[0].data.as_ref().unwrap().as_ptr(),
        handed_in
    );
    assert_eq!(image(&mut origin, 2), handed_in);
    assert_eq!(image(&mut copy, 2), handed_in);
    assert_eq!(
        image(&mut restored, 2),
        seeded_at,
        "untouched by the commit"
    );

    // Editing a shared row copies it once; editing a private one does not.
    let mut mine = info.writeset.items[0].data.clone().unwrap();
    mine[1] = Value::Int(99);
    assert_ne!(mine.as_ptr(), handed_in);
    let private = mine.as_ptr();
    mine[1] = Value::Int(100);
    assert_eq!(mine.as_ptr(), private);
    assert_eq!(image(&mut origin, 2), handed_in);
}
