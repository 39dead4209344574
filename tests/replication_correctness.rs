//! Replication-correctness tests built directly on the substrates:
//! snapshot-isolation invariants across certified replicas.

use replipred::repl::certifier::{Certification, Certifier};
use replipred::sidb::{Database, Row, RowId, TableId, Value};

fn fresh_replica() -> (Database, TableId) {
    let mut db = Database::new();
    let acct = db.create_table("acct", &["balance"]).unwrap();
    let t = db.begin();
    for i in 0..100u64 {
        db.insert(t, acct, RowId(i), vec![Value::Int(1000)])
            .unwrap();
    }
    db.commit(t).unwrap();
    (db, acct)
}

fn balance(db: &mut Database, txn: replipred::sidb::TxnId, acct: TableId, row: u64) -> i64 {
    match db.read(txn, acct, RowId(row)).unwrap().unwrap()[0] {
        Value::Int(b) => b,
        _ => unreachable!("balance is an int"),
    }
}

/// Runs an update on `origin`, certifies it, and applies the certified
/// writeset to every replica (GSI multi-master commit path).
fn certified_update(
    replicas: &mut [Database],
    certifier: &mut Certifier,
    acct: TableId,
    origin: usize,
    row: u64,
    delta: i64,
    base_offset: u64,
) -> bool {
    let db = &mut replicas[origin];
    let txn = db.begin();
    let bal = match db.read(txn, acct, RowId(row)).unwrap() {
        Some(r) => match r[0] {
            Value::Int(b) => b,
            _ => unreachable!("balance is an int"),
        },
        None => {
            db.abort(txn).unwrap();
            return false;
        }
    };
    db.update(txn, acct, RowId(row), vec![Value::Int(bal + delta)])
        .unwrap();
    let mut ws = db.writeset_of(txn).unwrap();
    db.abort(txn).unwrap();
    ws.base_version -= base_offset;
    match certifier.certify(&ws) {
        Certification::Commit(_) => {
            for r in replicas.iter_mut() {
                r.apply_writeset(&ws).unwrap();
            }
            true
        }
        Certification::Abort => false,
    }
}

#[test]
fn replicas_converge_to_identical_state() {
    let (r0, acct) = fresh_replica();
    let (r1, _) = fresh_replica();
    let (r2, _) = fresh_replica();
    let mut replicas = vec![r0, r1, r2];
    let offset = replicas[0].version();
    let mut certifier = Certifier::new();
    // A deterministic interleaving of updates from all three replicas.
    for step in 0..300u64 {
        let origin = (step % 3) as usize;
        let row = (step * 17) % 100;
        certified_update(&mut replicas, &mut certifier, acct, origin, row, 1, offset);
    }
    // All replicas expose identical committed state.
    let scans: Vec<Vec<(RowId, Row)>> = replicas
        .iter_mut()
        .map(|db| {
            let t = db.begin();
            let rows = db.scan(t, acct).unwrap();
            db.commit(t).unwrap();
            rows
        })
        .collect();
    assert_eq!(scans[0], scans[1]);
    assert_eq!(scans[1], scans[2]);
    // And the same version.
    assert_eq!(replicas[0].version(), replicas[1].version());
}

#[test]
fn no_lost_updates_under_certified_concurrency() {
    // Two replicas race increments on the same row from the same snapshot;
    // exactly one certifies. Total balance must equal seeded + commits.
    let (r0, acct) = fresh_replica();
    let (r1, _) = fresh_replica();
    let mut replicas = [r0, r1];
    let offset = replicas[0].version();
    let mut certifier = Certifier::new();
    let mut commits = 0i64;
    for round in 0..50u64 {
        let row = round % 10;
        // Both replicas prepare concurrent increments against their
        // current (identical) snapshots.
        let mut pending = Vec::new();
        for db in replicas.iter_mut() {
            let txn = db.begin();
            let bal = balance(db, txn, acct, row);
            db.update(txn, acct, RowId(row), vec![Value::Int(bal + 1)])
                .unwrap();
            let mut ws = db.writeset_of(txn).unwrap();
            db.abort(txn).unwrap();
            ws.base_version -= offset;
            pending.push(ws);
        }
        let mut round_commits = 0;
        for ws in pending {
            if let Certification::Commit(_) = certifier.certify(&ws) {
                for db in replicas.iter_mut() {
                    db.apply_writeset(&ws).unwrap();
                }
                round_commits += 1;
            }
        }
        // First committer wins: exactly one of the two conflicting
        // increments commits.
        assert_eq!(round_commits, 1, "round {round}");
        commits += round_commits;
    }
    // Balance conservation: no increment was lost or double-applied.
    let db = &mut replicas[0];
    let t = db.begin();
    let total: i64 = db
        .scan(t, acct)
        .unwrap()
        .iter()
        .map(|(_, r)| match r[0] {
            Value::Int(b) => b,
            _ => unreachable!(),
        })
        .sum();
    assert_eq!(total, 100 * 1000 + commits);
}

#[test]
fn stale_replica_catches_up_in_order() {
    let (r0, acct) = fresh_replica();
    let (r1, _) = fresh_replica();
    let mut replicas = [r0, r1];
    let offset = replicas[0].version();
    let mut certifier = Certifier::new();
    // Apply updates only through replica 0 for a while, leaving replica 1
    // stale, then catch it up from the certifier log.
    let mut applied_on_1 = 0u64;
    for step in 0..20u64 {
        let db = &mut replicas[0];
        let txn = db.begin();
        db.update(txn, acct, RowId(step % 5), vec![Value::Int(step as i64)])
            .unwrap();
        let mut ws = db.writeset_of(txn).unwrap();
        db.abort(txn).unwrap();
        ws.base_version -= offset;
        if let Certification::Commit(_) = certifier.certify(&ws) {
            replicas[0].apply_writeset(&ws).unwrap();
        }
    }
    // Catch-up: replica 1 pulls the missing suffix.
    let behind = replicas[1].version() - offset;
    for ws in certifier.writesets_between(behind, certifier.version()) {
        replicas[1].apply_writeset(ws).unwrap();
        applied_on_1 += 1;
    }
    assert_eq!(applied_on_1, 20);
    assert_eq!(replicas[0].version(), replicas[1].version());
    // Same state.
    let expected = {
        let db = &mut replicas[0];
        let t = db.begin();
        db.scan(t, acct).unwrap()
    };
    let got = {
        let db = &mut replicas[1];
        let t = db.begin();
        db.scan(t, acct).unwrap()
    };
    assert_eq!(expected, got);
}

#[test]
fn read_only_transactions_see_consistent_snapshots_during_replication() {
    let (r0, acct) = fresh_replica();
    let (r1, _) = fresh_replica();
    let mut replicas = vec![r0, r1];
    let offset = replicas[0].version();
    let mut certifier = Certifier::new();
    // Open a long-running reader on replica 1.
    let reader = replicas[1].begin();
    let before = balance(&mut replicas[1], reader, acct, 0);
    // Meanwhile, writes flow through replication.
    for _ in 0..5 {
        certified_update(&mut replicas, &mut certifier, acct, 0, 0, 100, offset);
    }
    // The reader's snapshot is unaffected (snapshot stability under GSI).
    let after = balance(&mut replicas[1], reader, acct, 0);
    assert_eq!(before, after);
    replicas[1].commit(reader).unwrap();
    // A fresh reader sees all five increments.
    let fresh = replicas[1].begin();
    let latest = balance(&mut replicas[1], fresh, acct, 0);
    assert_eq!(latest, before + 500);
}
