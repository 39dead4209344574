//! The scripted durability round trip behind `replipred recover`:
//! deterministic workload → checkpoint + WAL on disk → cold-start
//! recovery from the files alone → byte-level verification against
//! states recorded from the live database.

use std::path::Path;

use replipred_sidb::{Checkpoint, Database, RowId, Value, WalRecord, WalWriter};

/// Rows of the scripted workload's one table.
const ROWS: u64 = 16;

/// What the round trip did, serialized under `--json`.
#[derive(Debug, serde::Serialize)]
pub struct RecoverOutcome {
    /// Update commits the scripted workload ran.
    pub commits: usize,
    /// Commits per WAL frame.
    pub group_commit: usize,
    /// Where the checkpoint + WAL files were written.
    pub dir: String,
    /// Serialized checkpoint size, bytes.
    pub checkpoint_bytes: usize,
    /// WAL size as recovered (after any `--truncate-at` cut), bytes.
    pub wal_bytes: usize,
    /// Bytes of the WAL that survived frame + crc validation.
    pub wal_valid_bytes: usize,
    /// Whether a torn tail (or the cut) was truncated during the scan.
    pub wal_truncated: bool,
    /// Commits replayed from the WAL on top of the checkpoint.
    pub replayed: u64,
    /// Database version the recovered engine ended at.
    pub last_seq: u64,
    /// Whether the rebuilt database byte-matched the live reference.
    pub verified: bool,
}

/// Runs the round trip in `dir`: 16 seeded accounts and `commits`
/// single-row updates drawn from a splitmix64 stream of `seed` (same
/// seed, same bytes), logged `group_commit` to a WAL frame; the WAL cut
/// at `truncate_at` bytes if given; recovery from the two files.
///
/// # Errors
///
/// A file-system failure (with its path) or an undecodable checkpoint.
pub fn round_trip(
    commits: usize,
    group_commit: usize,
    truncate_at: Option<usize>,
    seed: u64,
    dir: &Path,
) -> Result<RecoverOutcome, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let mut db = Database::new();
    let t = db
        .create_table("acct", &["balance"])
        .expect("fresh database");
    let seeding = db.begin();
    for r in 0..ROWS {
        db.insert(seeding, t, RowId(r), vec![Value::Int(0)])
            .expect("seeding a fresh table");
    }
    db.commit(seeding).expect("seed commit");
    let checkpoint = db.checkpoint();
    let mut wal = WalWriter::new(group_commit.max(1));
    let mut states = vec![db.durable_state()];
    let mut stream = seed;
    let mut draw = move || {
        stream = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = stream;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..commits {
        let row = draw() % ROWS;
        let amount = (draw() % 100_000) as i64;
        let txn = db.begin();
        db.update(txn, t, RowId(row), vec![Value::Int(amount)])
            .expect("seeded row exists");
        let info = db.commit(txn).expect("single writer never conflicts");
        wal.append(&WalRecord::Commit {
            seq: info.commit_seq,
            writeset: info.writeset,
        });
        states.push(db.durable_state());
    }

    // Persist, then recover from the files alone: nothing below survives
    // from the live objects.
    let cp_path = dir.join("checkpoint.sidb");
    let wal_path = dir.join("wal.sidb");
    std::fs::write(&cp_path, checkpoint.to_bytes())
        .map_err(|e| format!("cannot write {}: {e}", cp_path.display()))?;
    let mut wal_bytes = wal.into_bytes();
    if let Some(c) = truncate_at {
        wal_bytes.truncate(c.min(wal_bytes.len()));
    }
    std::fs::write(&wal_path, &wal_bytes)
        .map_err(|e| format!("cannot write {}: {e}", wal_path.display()))?;
    drop((db, checkpoint));

    let cp_image =
        std::fs::read(&cp_path).map_err(|e| format!("cannot read {}: {e}", cp_path.display()))?;
    let cp_loaded =
        Checkpoint::from_bytes(&cp_image).map_err(|e| format!("bad checkpoint: {e}"))?;
    let wal_loaded =
        std::fs::read(&wal_path).map_err(|e| format!("cannot read {}: {e}", wal_path.display()))?;
    let (recovered, report) = Database::recover(&cp_loaded, &wal_loaded, cp_loaded.seq);
    Ok(RecoverOutcome {
        commits,
        group_commit,
        dir: dir.display().to_string(),
        checkpoint_bytes: cp_image.len(),
        wal_bytes: wal_loaded.len(),
        wal_valid_bytes: report.wal_valid_len,
        wal_truncated: report.wal_truncated,
        replayed: report.replayed,
        last_seq: report.last_seq,
        verified: recovered.durable_state() == states[report.replayed as usize],
    })
}

impl RecoverOutcome {
    /// The `recover` text.
    pub fn render(&self) -> String {
        let tail = if self.wal_truncated {
            ", tail truncated"
        } else {
            ""
        };
        let verdict = if self.verified {
            "yes (byte-identical to the live reference)"
        } else {
            "NO"
        };
        format!(
            "dir             {}\n\
             workload        {} commits over {ROWS} rows (group commit {})\n\
             checkpoint      {} B\n\
             wal             {} B ({} B valid{tail})\n\
             replayed        {} commits -> version {}\n\
             verified        {verdict}\n",
            self.dir,
            self.commits,
            self.group_commit,
            self.checkpoint_bytes,
            self.wal_bytes,
            self.wal_valid_bytes,
            self.replayed,
            self.last_seq,
        )
    }
}
