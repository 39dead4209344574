//! Crash-recovery tests: checkpoint + WAL replay must reconstruct the
//! durable state byte-identically after an *arbitrary* crash point.
//!
//! The oracle is deliberately independent of the recovery code under
//! test: the script records where every sealed frame ends while the log
//! is written, so for any crash offset we can compute — by pure frame
//! arithmetic, without calling `wal::scan` — how many records survived,
//! and replay exactly those into a fresh reference engine. Recovery
//! (checkpoint load + scan + replay) must land on the same
//! `durable_state()` string.

use proptest::prelude::*;
use replipred_sidb::{Checkpoint, Database, RowId, Value, WalRecord, WalWriter};

/// A scripted history with everything the oracle needs.
struct Script {
    /// The full record history, in log order.
    records: Vec<WalRecord>,
    /// The fully flushed log image.
    bytes: Vec<u8>,
    /// `(byte_len, records_sealed)` after each frame seal, starting at
    /// `(0, 0)` — the frame map the crash oracle indexes.
    boundaries: Vec<(usize, usize)>,
    /// Checkpoint taken mid-history.
    checkpoint: Checkpoint,
    /// Records needed to reach the checkpoint's sequence from genesis.
    records_at_cp: usize,
    /// The live engine's final durable state.
    final_state: String,
}

fn log(
    wal: &mut WalWriter,
    records: &mut Vec<WalRecord>,
    boundaries: &mut Vec<(usize, usize)>,
    rec: WalRecord,
) {
    wal.append(&rec);
    records.push(rec);
    let len = wal.bytes().len();
    if len > boundaries.last().expect("seeded with (0, 0)").0 {
        boundaries.push((len, wal.sealed_records()));
    }
}

/// Drives `commits` scripted update transactions against a live engine,
/// mirroring every durable event into a WAL, and checkpoints after
/// `cp_after` of them. A second table is created *after* the checkpoint
/// so recovery must replay schema changes too.
fn build_script(commits: u64, group: usize, cp_after: u64) -> Script {
    assert!(cp_after < commits, "checkpoint must precede some commits");
    let mut db = Database::new();
    let mut wal = WalWriter::new(group);
    let mut records = Vec::new();
    let mut boundaries = vec![(0usize, 0usize)];

    let acct = db.create_table("acct", &["owner", "bal"]).unwrap();
    log(
        &mut wal,
        &mut records,
        &mut boundaries,
        WalRecord::CreateTable {
            name: "acct".into(),
            columns: vec!["owner".into(), "bal".into()],
        },
    );

    let seed = db.begin();
    for r in 0..8u64 {
        db.insert(
            seed,
            acct,
            RowId(r),
            vec![Value::text(format!("o{r}")), Value::Int(0)],
        )
        .unwrap();
    }
    let info = db.commit(seed).unwrap();
    log(
        &mut wal,
        &mut records,
        &mut boundaries,
        WalRecord::Commit {
            seq: info.commit_seq,
            writeset: info.writeset,
        },
    );

    let mut checkpoint = None;
    let mut records_at_cp = 0;
    let mut audit = None;
    for i in 0..commits {
        if i == cp_after {
            checkpoint = Some(db.checkpoint());
            records_at_cp = records.len();
        }
        if i == cp_after + 1 {
            let id = db.create_table("audit", &["note"]).unwrap();
            audit = Some(id);
            log(
                &mut wal,
                &mut records,
                &mut boundaries,
                WalRecord::CreateTable {
                    name: "audit".into(),
                    columns: vec!["note".into()],
                },
            );
        }
        let t = db.begin();
        match (i % 3, audit) {
            (2, Some(audit)) => {
                db.insert(t, audit, RowId(i), vec![Value::text(format!("note{i}"))])
                    .unwrap();
            }
            (0, _) | (2, _) => {
                db.update(
                    t,
                    acct,
                    RowId(i % 8),
                    vec![Value::text(format!("o{}", i % 8)), Value::Int(i as i64)],
                )
                .unwrap();
            }
            (_, _) => {
                db.insert(
                    t,
                    acct,
                    RowId(100 + i),
                    vec![Value::text("new"), Value::Int(-(i as i64))],
                )
                .unwrap();
            }
        }
        let info = db.commit(t).unwrap();
        log(
            &mut wal,
            &mut records,
            &mut boundaries,
            WalRecord::Commit {
                seq: info.commit_seq,
                writeset: info.writeset,
            },
        );
    }

    wal.flush();
    let len = wal.bytes().len();
    if len > boundaries.last().expect("seeded with (0, 0)").0 {
        boundaries.push((len, wal.sealed_records()));
    }
    let final_state = db.durable_state();
    Script {
        records,
        bytes: wal.into_bytes(),
        boundaries,
        checkpoint: checkpoint.expect("cp_after < commits"),
        records_at_cp,
        final_state,
    }
}

/// Replays the first `n` records of the history into a fresh engine —
/// the reference the recovered database must match byte-for-byte.
fn reference(records: &[WalRecord], n: usize) -> Database {
    let mut db = Database::new();
    for rec in &records[..n] {
        match rec {
            WalRecord::CreateTable { name, columns } => {
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                db.create_table(name, &columns).unwrap();
            }
            WalRecord::Commit { writeset, .. } => {
                db.apply_writeset(writeset).unwrap();
            }
        }
    }
    db
}

/// Records durable at a crash that truncates the log to `cut` bytes:
/// every record of every frame that ends at or before the cut.
fn durable_records_at(boundaries: &[(usize, usize)], cut: usize) -> usize {
    boundaries
        .iter()
        .rev()
        .find(|(len, _)| *len <= cut)
        .map(|(_, sealed)| *sealed)
        .unwrap_or(0)
}

/// The state a crash at `cut` must recover to: whichever is further —
/// the checkpoint's coverage or the log's durable prefix. (A checkpoint
/// can never be un-written by losing log bytes.)
fn expected_state(script: &Script, durable: usize) -> String {
    reference(&script.records, durable.max(script.records_at_cp)).durable_state()
}

#[test]
fn full_log_recovers_byte_identically() {
    let script = build_script(30, 4, 7);
    let (recovered, report) =
        Database::recover(&script.checkpoint, &script.bytes, script.checkpoint.seq);
    assert!(!report.wal_truncated);
    assert_eq!(report.wal_valid_len, script.bytes.len());
    assert_eq!(recovered.durable_state(), script.final_state);
    // The recovered engine refuses snapshots the checkpoint collapsed.
    assert_eq!(recovered.min_snapshot(), script.checkpoint.seq);
}

#[test]
fn checkpoint_alone_recovers_when_the_log_is_lost() {
    let script = build_script(20, 3, 9);
    let (recovered, report) = Database::recover(&script.checkpoint, &[], script.checkpoint.seq);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.last_seq, script.checkpoint.seq);
    assert_eq!(recovered.durable_state(), expected_state(&script, 0));
}

#[test]
fn torn_tail_recovers_to_last_whole_group_commit() {
    let script = build_script(25, 4, 5);
    // Cut mid-way through the final frame.
    let cut = script.bytes.len() - 3;
    let durable = durable_records_at(&script.boundaries, cut);
    assert!(durable < script.records.len(), "cut must tear a frame");
    let (recovered, report) = Database::recover(
        &script.checkpoint,
        &script.bytes[..cut],
        script.checkpoint.seq,
    );
    assert!(report.wal_truncated);
    assert_eq!(recovered.durable_state(), expected_state(&script, durable));
}

#[test]
fn corrupt_crc_recovers_to_the_frame_before_the_corruption() {
    let script = build_script(25, 4, 5);
    // Flip one payload bit inside the third frame.
    let (frame_start, sealed_before) = script.boundaries[2];
    let mut bytes = script.bytes.clone();
    bytes[frame_start + 8 + 1] ^= 0x20;
    let (recovered, report) = Database::recover(&script.checkpoint, &bytes, script.checkpoint.seq);
    assert!(report.wal_truncated);
    assert_eq!(report.wal_valid_len, frame_start);
    assert_eq!(
        recovered.durable_state(),
        expected_state(&script, sealed_before)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee: kill the log at an arbitrary byte offset
    /// — mid-frame, mid-header, anywhere — and recovery reconstructs
    /// exactly the reference state replayed to the last whole group
    /// commit. Never panics, never reads past the torn point.
    #[test]
    fn crash_point_sweep_recovers_last_whole_group(
        commits in 8u64..36,
        group in 1usize..6,
        cp_frac in 0u64..8,
        cut_draw in 0u64..100_000,
    ) {
        let cp_after = cp_frac.min(commits - 1);
        let script = build_script(commits, group, cp_after);
        let cut = (cut_draw as usize) % (script.bytes.len() + 1);
        let durable = durable_records_at(&script.boundaries, cut);
        let (recovered, report) =
            Database::recover(&script.checkpoint, &script.bytes[..cut], script.checkpoint.seq);
        prop_assert_eq!(recovered.durable_state(), expected_state(&script, durable));
        // The reported valid prefix is exactly the last frame boundary.
        prop_assert_eq!(report.wal_valid_len, script.boundaries
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(len, _)| *len)
            .unwrap_or(0));
    }

    /// Bit-flip sweep: corrupting any single byte of the log never
    /// panics recovery, and the recovered state is still a legal prefix
    /// state (some whole number of group commits, at least the
    /// checkpoint).
    #[test]
    fn corruption_sweep_never_panics(
        commits in 8u64..24,
        group in 1usize..5,
        byte_draw in 0u64..100_000,
        mask in 1u8..=255,
    ) {
        let script = build_script(commits, group, 3);
        let pos = (byte_draw as usize) % script.bytes.len();
        let mut bytes = script.bytes.clone();
        bytes[pos] ^= mask;
        let (recovered, _) =
            Database::recover(&script.checkpoint, &bytes, script.checkpoint.seq);
        let state = recovered.durable_state();
        let legal = (0..=script.records.len())
            .any(|n| expected_state(&script, n) == state);
        prop_assert!(legal, "recovered state is not any whole-prefix state");
    }
}
