//! `sidb`: the storage engine's transaction path (insert, read, the
//! read-only and update cycles, certification aborts, remote writeset
//! apply, vacuum) and its durability path (WAL encode/scan, checkpoint
//! encode/decode/restore, recovery).

use std::hint::black_box;

use replipred::sidb::{
    scan, Checkpoint, Database, RowId, TableId, Value, WalRecord, WalWriter, WriteSet,
};

use super::{put, Ctx, Metrics};
use crate::clock::{timed, Stopwatch};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::store;

/// Rows per table of the transaction-path engine.
const ROWS: u64 = 10_000;
/// Rows of the durability-path engine (the `recover_roundtrip` size).
const LOG_ROWS: u64 = 4_096;
/// Transactions between vacuums, as often as a simulated replica runs
/// one at the workloads' rates.
const VACUUM_EVERY: u64 = 4_096;

/// The workloads' standard row payload.
fn payload(row: u64) -> Vec<Value> {
    vec![
        Value::Text(format!("row-{row:08}-{}", "x".repeat(48))),
        Value::Int(0),
        Value::Int(row as i64),
    ]
}

/// A database with `tables` tables of `rows` seeded rows each.
fn seeded(tables: usize, rows: u64) -> (Database, Vec<TableId>) {
    let mut db = Database::new();
    let ids: Vec<TableId> = (0..tables)
        .map(|t| {
            db.create_table(&format!("t{t}"), &["payload", "counter", "version"])
                .expect("fresh table name")
        })
        .collect();
    let txn = db.begin();
    for row in 0..rows {
        for &table in &ids {
            db.insert(txn, table, RowId(row), payload(row))
                .expect("fresh row");
        }
    }
    db.commit(txn).expect("seed commit");
    (db, ids)
}

/// Read-modify-write of one row inside `txn`: bump the counter column.
fn bump(db: &mut Database, txn: replipred::sidb::TxnId, table: TableId, row: RowId) {
    let mut next = db
        .read(txn, table, row)
        .expect("active transaction")
        .expect("seeded row")
        .clone();
    if let Value::Int(n) = next[1] {
        next[1] = Value::Int(n + 1);
    }
    db.update(txn, table, row, next).expect("seeded row");
}

/// `count` committed three-row update writesets from a seeded engine.
fn update_writesets(
    db: &mut Database,
    table: TableId,
    rows: u64,
    count: u64,
) -> Vec<(u64, WriteSet)> {
    (0..count)
        .map(|k| {
            let txn = db.begin();
            for i in 0..3u64 {
                bump(db, txn, table, RowId((k * 3 + i * 97) % rows));
            }
            let info = db.commit(txn).expect("a lone writer never conflicts");
            (info.commit_seq, info.writeset)
        })
        .collect()
}

/// Measures the `sidb.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    transaction_path(ctx, m);
    version_lifecycle(ctx, m);
    durability_path(ctx, m);
}

fn transaction_path(ctx: &Ctx, m: &mut Metrics) {
    // One seeding transaction of the size every workload's update table
    // has (10 000 rows): a transaction's pending writes are searched per
    // insert, so the per-row cost depends on the transaction's size.
    let inserts = ctx.n(10_000);
    let insert = ctx.secs_prepared(
        || {
            let mut db = Database::new();
            let table = db.create_table("t", &["payload", "counter", "version"]);
            let rows: Vec<Vec<Value>> = (0..inserts).map(payload).collect();
            (db, table.expect("fresh table name"), rows)
        },
        |(mut db, table, rows)| {
            let txn = db.begin();
            for (row, data) in rows.into_iter().enumerate() {
                db.insert(txn, table, RowId(row as u64), data)
                    .expect("fresh row");
            }
            black_box(db.commit(txn).expect("seed commit").commit_seq);
        },
    );
    put(m, "sidb.insert_ns_per_row", insert * 1e9 / inserts as f64);

    let (mut db, tables) = seeded(2, ROWS);
    let (items, catalog) = (tables[0], tables[1]);

    let reads = ctx.n(2_000_000);
    put(
        m,
        "sidb.read_ns",
        ctx.ns_per_op(reads, || {
            let txn = db.begin();
            for i in 0..reads {
                black_box(db.read(txn, catalog, RowId(i * 7 % ROWS)).expect("active"));
            }
            db.commit(txn).expect("read-only commit");
        }),
    );

    let read_only = ctx.n(200_000);
    put(
        m,
        "sidb.txn_ro_ns",
        ctx.ns_per_op(read_only, || {
            for k in 0..read_only {
                let txn = db.begin();
                for i in 0..10 {
                    black_box(
                        db.read(txn, catalog, RowId((k * 17 + i * 11) % ROWS))
                            .expect("active"),
                    );
                }
                black_box(db.commit(txn).expect("read-only commit").commit_seq);
            }
        }),
    );

    let updates = ctx.n(100_000);
    put(
        m,
        "sidb.txn_rw_ns",
        ctx.ns_per_op(updates, || {
            for k in 0..updates {
                let txn = db.begin();
                for i in 0..6 {
                    black_box(
                        db.read(txn, catalog, RowId((k * 13 + i * 7) % ROWS))
                            .expect("active"),
                    );
                }
                for i in 0..3 {
                    bump(&mut db, txn, items, RowId((k * 13 + i * 31) % ROWS));
                }
                black_box(
                    db.commit(txn)
                        .expect("a lone writer never conflicts")
                        .commit_seq,
                );
                if k % VACUUM_EVERY == 0 {
                    db.vacuum();
                }
            }
        }),
    );

    // Sixteen transactions update one row; the first committer wins, the
    // other fifteen pay for a certification that ends in an abort. Only
    // the losers' commits are timed.
    const RIVALS: u64 = 16;
    let rounds = ctx.n(20_000);
    let mut lost_ns = 0u64;
    for round in 0..rounds {
        let row = RowId(round % ROWS);
        let rivals: Vec<_> = (0..RIVALS)
            .map(|_| {
                let txn = db.begin();
                bump(&mut db, txn, items, row);
                txn
            })
            .collect();
        db.commit(rivals[0]).expect("first committer wins");
        let watch = Stopwatch::start();
        for &loser in &rivals[1..] {
            assert!(db.commit(loser).is_err(), "a later committer must abort");
        }
        lost_ns += watch.nanos();
        if round % 256 == 0 {
            db.vacuum();
        }
    }
    put(
        m,
        "sidb.conflict_abort_ns",
        lost_ns as f64 / (rounds * (RIVALS - 1)) as f64,
    );
}

fn version_lifecycle(ctx: &Ctx, m: &mut Metrics) {
    let (mut primary, tables) = seeded(1, ROWS);
    let writesets: Vec<WriteSet> = update_writesets(&mut primary, tables[0], ROWS, 1_024)
        .into_iter()
        .map(|(_, ws)| ws)
        .collect();

    let (mut replica, _) = seeded(1, ROWS);
    let applies = ctx.n(200_000);
    put(
        m,
        "sidb.apply_ns_per_ws",
        ctx.ns_per_op(applies, || {
            for k in 0..applies {
                black_box(
                    replica
                        .apply_writeset(&writesets[k as usize % 1_024])
                        .expect("known table"),
                );
                if k % VACUUM_EVERY == 0 {
                    replica.vacuum();
                }
            }
        }),
    );

    // Let versions pile up, then time the vacuum that reclaims them.
    let piled = ctx.n(40_000);
    let mut reclaimed = 0;
    let mut samples = Vec::new();
    for _ in 0..ctx.reps() {
        replica.vacuum();
        for k in 0..piled {
            replica
                .apply_writeset(&writesets[k as usize % 1_024])
                .expect("known table");
        }
        let (freed, secs) = timed(|| replica.vacuum());
        reclaimed = freed;
        samples.push(secs);
    }
    let vacuum = median(&samples).expect("at least one repetition");
    put(
        m,
        "sidb.vacuum_ns_per_version",
        vacuum * 1e9 / reclaimed.max(1) as f64,
    );

    // Version growth and GC under contention: `store_write` at a tenth of
    // its size (same generator, same 16 interleaved transactions).
    let mut state = store::setup_write_with(ctx.seed, ctx.n(40_000));
    let raw = store::pass_write(&mut state, &mut Tracer::disabled());
    put(m, "sidb.versions_peak", raw.versions_peak() as f64);
    put(
        m,
        "sidb.versions_reclaimed",
        raw.versions_reclaimed() as f64,
    );
    put(m, "sidb.commit_success_ratio", raw.commit_success_ratio());
}

fn durability_path(ctx: &Ctx, m: &mut Metrics) {
    let (mut db, tables) = seeded(1, LOG_ROWS);
    let base = db.checkpoint();
    let commits = ctx.n(8_192);
    let logged = update_writesets(&mut db, tables[0], LOG_ROWS, commits);
    let wire_bytes: usize = logged.iter().map(|(_, ws)| ws.wire_size()).sum();
    let records: Vec<WalRecord> = logged
        .into_iter()
        .map(|(seq, writeset)| WalRecord::Commit { seq, writeset })
        .collect();

    let mut wal_bytes = Vec::new();
    put(
        m,
        "sidb.wal_append_ns_per_rec",
        ctx.ns_per_op(commits, || {
            let mut wal = WalWriter::new(8);
            for record in &records {
                wal.append(record);
            }
            wal_bytes = wal.into_bytes();
        }),
    );
    put(
        m,
        "sidb.wal_bytes_per_commit",
        wal_bytes.len() as f64 / commits as f64,
    );
    put(
        m,
        "sidb.wal_write_amp",
        wal_bytes.len() as f64 / wire_bytes as f64,
    );
    let scan_s = ctx.secs(|| {
        let scanned = scan(black_box(&wal_bytes));
        assert_eq!(scanned.records.len() as u64, commits);
    });
    put(
        m,
        "sidb.wal_scan_mb_per_s",
        wal_bytes.len() as f64 / 1e6 / scan_s,
    );

    let rows = LOG_ROWS as f64;
    let mut image = Vec::new();
    let checkpoint_s = ctx.secs(|| image = db.checkpoint().to_bytes());
    put(m, "sidb.checkpoint_ns_per_row", checkpoint_s * 1e9 / rows);
    put(
        m,
        "sidb.checkpoint_bytes_per_row",
        image.len() as f64 / rows,
    );
    let mut decoded = None;
    let decode_s = ctx.secs(|| decoded = Checkpoint::from_bytes(black_box(&image)).ok());
    put(
        m,
        "sidb.checkpoint_decode_ns_per_row",
        decode_s * 1e9 / rows,
    );
    let decoded = decoded.expect("the image just encoded decodes");
    let restore_s = ctx.secs(|| {
        black_box(Database::restore(&decoded).version());
    });
    put(m, "sidb.restore_ns_per_row", restore_s * 1e9 / rows);

    // Restore of the 4 096-row base image included (≈ 5 % of the time).
    put(
        m,
        "sidb.recover_ns_per_commit",
        ctx.ns_per_op(commits, || {
            let (recovered, report) = Database::recover(&base, &wal_bytes, base.seq);
            assert_eq!(report.replayed, commits);
            black_box(recovered.version());
        }),
    );
    let state_s = ctx.secs(|| {
        black_box(db.durable_state().len());
    });
    put(m, "sidb.durable_state_ns_per_row", state_s * 1e9 / rows);
}
