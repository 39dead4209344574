//! `recover_roundtrip`: the codec/durability layer on its own — `wal`,
//! `checkpoint`, replay — so a refactor of the frame codecs has a
//! no-slower number, and a torn tail is exercised on every run.
//!
//! The script is the `recover` subcommand's (single-row updates drawn
//! from a splitmix64 stream) widened to 4 096 seeded rows and 100 k
//! commits with group commit 8: run it against one engine while logging
//! every commit to a [`WalWriter`], checkpoint half way, serialize,
//! then cold-start twice from the bytes alone — once from the whole log,
//! once from the log cut at 70 % of its bytes.

use replipred::sidb::{
    Checkpoint, Database, RecoveryReport, RowId, TableId, Value, WalRecord, WalWriter,
};

use super::{fnv1a, PassOutput, Size, FNV_OFFSET};
use crate::trace::Tracer;

const ROWS: u64 = 4_096;
const GROUP_COMMIT: usize = 8;
const TABLE: &str = "acct";

/// Inputs: the seeded engine and the pre-generated script.
#[derive(Debug)]
pub struct RecoverState {
    db: Database,
    table: TableId,
    /// `(row, new balance)` per commit.
    script: Vec<(u64, i64)>,
}

/// Seeds [`ROWS`] accounts and draws the script from `seed`.
pub fn setup(seed: u64, size: Size) -> RecoverState {
    let mut db = Database::new();
    let table = db
        .create_table(TABLE, &["balance"])
        .expect("fresh database");
    let seeding = db.begin();
    for r in 0..ROWS {
        db.insert(seeding, table, RowId(r), vec![Value::Int(0)])
            .expect("seeding a fresh table");
    }
    db.commit(seeding).expect("seed commit");

    let mut stream = seed;
    let mut draw = move || {
        stream = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = stream;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let script = (0..size.scaled(100_000))
        .map(|_| (draw() % ROWS, (draw() % 100_000) as i64))
        .collect();
    RecoverState { db, table, script }
}

/// One cold start: what recovery rebuilt and what it reported.
#[derive(Debug)]
pub struct Recovered {
    db: Database,
    report: RecoveryReport,
}

/// What a pass leaves for its (untimed) check.
#[derive(Debug)]
pub struct RecoverRaw {
    /// Commits the checkpoint covers.
    checkpointed: usize,
    checkpoint_bytes: Vec<u8>,
    wal_bytes: Vec<u8>,
    full: Result<Recovered, String>,
    torn: Result<Recovered, String>,
    errors: Vec<String>,
}

/// One pass: live run with logging → checkpoint → bytes → two recoveries.
pub fn pass(state: &mut RecoverState, tracer: &mut Tracer) -> RecoverRaw {
    let RecoverState { db, table, script } = state;
    let checkpointed = script.len() / 2;
    let mut log = CommitLog {
        wal: WalWriter::new(GROUP_COMMIT),
        errors: Vec::new(),
    };

    log.run(db, *table, &script[..checkpointed], tracer);
    // The mid-run checkpoint: image the engine, serialize the image.
    let span = tracer.enter("sidb.checkpoint");
    let checkpoint = db.checkpoint();
    tracer.exit(span);
    let span = tracer.enter("sidb.checkpoint_encode");
    let checkpoint_bytes = checkpoint.to_bytes();
    tracer.exit(span);
    drop(checkpoint);
    log.run(db, *table, &script[checkpointed..], tracer);
    let wal_bytes = log.wal.into_bytes();

    // Cold start from the bytes alone, whole log then torn log.
    let cut = wal_bytes.len() * 7 / 10;
    let full = recover(&checkpoint_bytes, &wal_bytes, tracer);
    let torn = recover(&checkpoint_bytes, &wal_bytes[..cut], tracer);
    RecoverRaw {
        checkpointed,
        checkpoint_bytes,
        wal_bytes,
        full,
        torn,
        errors: log.errors,
    }
}

/// The live side of a pass: commits run against the engine, each logged.
struct CommitLog {
    wal: WalWriter,
    errors: Vec<String>,
}

impl CommitLog {
    fn run(
        &mut self,
        db: &mut Database,
        table: TableId,
        script: &[(u64, i64)],
        tracer: &mut Tracer,
    ) {
        let span = tracer.enter_batch("sidb.txn_logged", script.len() as u64);
        for &(row, amount) in script {
            let txn = db.begin();
            let committed = db
                .update(txn, table, RowId(row), vec![Value::Int(amount)])
                .and_then(|()| db.commit(txn));
            match committed {
                Ok(info) => {
                    self.wal.append(&WalRecord::Commit {
                        seq: info.commit_seq,
                        writeset: info.writeset,
                    });
                }
                Err(e) => self.errors.push(e.to_string()),
            }
        }
        tracer.exit(span);
    }
}

fn recover(checkpoint: &[u8], wal: &[u8], tracer: &mut Tracer) -> Result<Recovered, String> {
    let span = tracer.enter("sidb.checkpoint_decode");
    let loaded = Checkpoint::from_bytes(checkpoint);
    tracer.exit(span);
    let loaded = loaded.map_err(|e| e.to_string())?;
    let span = tracer.enter("sidb.recover");
    let (db, report) = Database::recover(&loaded, wal, loaded.seq);
    tracer.exit(span);
    Ok(Recovered { db, report })
}

/// Checks a pass against an independent oracle: the balances after `k`
/// commits are the last value the script's first `k` entries wrote to
/// each row. The whole log must rebuild the live engine's durable state;
/// the torn log must rebuild a strict prefix of it.
pub fn check(state: &RecoverState, raw: &mut RecoverRaw) -> PassOutput {
    let commits = state.script.len();
    let mut out = PassOutput::default();
    out.checks.ok(commits as u64);
    if !raw.errors.is_empty() {
        out.checks.failed += raw.errors.len() as u64;
        out.checks
            .notes
            .push(format!("scripted commits failed, first: {}", raw.errors[0]));
    }

    let mut replayed = [0u64; 2];
    let checkpointed = raw.checkpointed;
    for (i, (label, outcome)) in [("whole", &mut raw.full), ("torn", &mut raw.torn)]
        .into_iter()
        .enumerate()
    {
        match outcome {
            Ok(r) => {
                replayed[i] = r.report.replayed;
                let prefix = checkpointed + r.report.replayed as usize;
                let ok = prefix <= commits && matches_prefix(state, &mut r.db, prefix);
                out.checks.op(ok, || {
                    format!(
                        "{label} log: recovered state is not the script's first {prefix} commits"
                    )
                });
            }
            Err(e) => out.checks.op(false, || format!("{label} log: {e}")),
        }
    }
    if let Ok(full) = &raw.full {
        out.checks
            .op(full.db.durable_state() == state.db.durable_state(), || {
                "whole log: recovered durable state differs from the live engine's".to_string()
            });
        out.checks.op(
            full.report.replayed as usize == commits - raw.checkpointed,
            || format!("whole log replayed {} commits", full.report.replayed),
        );
    }
    out.checks.op(replayed[1] < replayed[0], || {
        format!(
            "torn log replayed {} of {} commits: not a strict prefix",
            replayed[1], replayed[0]
        )
    });

    out.ops = replayed[0] + replayed[1];
    out.count("commits_logged", commits as u64);
    out.count("replayed_whole", replayed[0]);
    out.count("replayed_torn", replayed[1]);
    out.count("wal_bytes", raw.wal_bytes.len() as u64);
    out.count("checkpoint_bytes", raw.checkpoint_bytes.len() as u64);
    out.digest = fnv1a(fnv1a(FNV_OFFSET, &raw.wal_bytes), &raw.checkpoint_bytes);
    out
}

/// Whether `db` holds exactly the balances the script's first `prefix`
/// commits leave behind, read back through a transaction.
fn matches_prefix(state: &RecoverState, db: &mut Database, prefix: usize) -> bool {
    let mut expected = vec![0i64; ROWS as usize];
    for &(row, amount) in &state.script[..prefix] {
        expected[row as usize] = amount;
    }
    let Some(table) = db.table_id(TABLE) else {
        return false;
    };
    let txn = db.begin();
    let matches = expected.iter().enumerate().all(|(row, want)| {
        matches!(
            db.read(txn, table, RowId(row as u64)),
            Ok(Some(r)) if r.first() == Some(&Value::Int(*want))
        )
    });
    // A read-only commit leaves the durable state untouched.
    db.commit(txn).is_ok() && matches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_recovers_whole_and_torn_logs() {
        let mut state = setup(11, Size::Smoke);
        let mut tracer = Tracer::enabled();
        let mut raw = pass(&mut state, &mut tracer);
        let out = check(&state, &mut raw);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.notes);
        assert_eq!(out.counts["commits_logged"], 10_000);
        assert_eq!(out.counts["replayed_whole"], 5_000);
        let torn = out.counts["replayed_torn"];
        assert!(
            torn > 0 && torn < 5_000 && torn % GROUP_COMMIT as u64 == 0,
            "{torn}"
        );
        let layers: Vec<&str> = tracer.spans().iter().map(|s| s.layer()).collect();
        assert!(layers.iter().all(|l| *l == "sidb"));

        let mut again = setup(11, Size::Smoke);
        let mut raw = pass(&mut again, &mut Tracer::disabled());
        assert_eq!(check(&again, &mut raw), out);
    }

    #[test]
    fn a_wrong_recovery_is_caught_by_the_oracle() {
        let mut state = setup(3, Size::Smoke);
        let mut raw = pass(&mut state, &mut Tracer::disabled());
        let full = raw.full.as_mut().expect("recovers");
        let prefix = raw.checkpointed + full.report.replayed as usize;
        assert!(matches_prefix(&state, &mut full.db, prefix));
        assert!(!matches_prefix(&state, &mut full.db, prefix - 1));
    }
}
