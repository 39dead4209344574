//! Per-replica durability harness: checkpoint + redo log + recovery.
//!
//! Each simulated node, when durability is enabled, mirrors every commit
//! it applies into a [`WalWriter`] and periodically advances its
//! [`Checkpoint`] (at vacuum cadence) by folding that log into the
//! previous image — the log *is* the image's delta, so a tick costs what
//! changed since the last one, not the database size. A crash drops the
//! unsealed group and freezes the rest; a rejoin *actually rebuilds* the
//! node's database from it — checkpoint load + log replay — instead of
//! trusting the in-memory image to have survived, and then replays only
//! the writesets past the durable point from the cluster relay log.
//! Catch-up lag thereby becomes replay cost.
//!
//! Two sequence spaces meet here: WAL records carry the node's *local*
//! database version (what [`Database::recover`] replays by), while the
//! cluster addresses writesets by *relay* sequence. The harness tracks
//! the relay sequence each sealed frame covers so rejoin knows where the
//! relay-log replay must resume.

use replipred_sidb::{scan, Checkpoint, Database, WalWriter, WriteSet};

/// Durable state of one node: the last checkpoint plus the redo log of
/// commits applied since.
#[derive(Debug, Clone)]
pub struct NodeDurability {
    checkpoint: Checkpoint,
    wal: WalWriter,
    group: usize,
    /// Relay sequence the checkpoint covers.
    cp_relay_seq: u64,
    /// Relay sequence covered by sealed (durable) frames.
    durable_relay_seq: u64,
    /// Relay sequence of the last appended (possibly unsealed) record.
    logged_relay_seq: u64,
}

impl NodeDurability {
    /// Captures the node's current state as the initial checkpoint.
    /// `relay_seq` is the cluster writeset sequence that state reflects
    /// (0 for a freshly seeded node).
    pub fn new(db: &Database, relay_seq: u64, group_commit: usize) -> Self {
        Self::at(db.checkpoint(), relay_seq, group_commit)
    }

    /// An empty redo log on top of `checkpoint`, which reflects
    /// `relay_seq`.
    fn at(checkpoint: Checkpoint, relay_seq: u64, group_commit: usize) -> Self {
        NodeDurability {
            checkpoint,
            wal: WalWriter::new(group_commit),
            group: group_commit,
            cp_relay_seq: relay_seq,
            durable_relay_seq: relay_seq,
            logged_relay_seq: relay_seq,
        }
    }

    /// Logs one applied commit: `relay_seq` in cluster space,
    /// `local_version` the database version the commit produced, and the
    /// writeset itself. Sealing a frame (every `group_commit` appends)
    /// advances the durable horizon — the simulated fsync. Relay
    /// sequences are logged in order without gaps, each one past the
    /// last logged (after a crash: past the durable horizon).
    pub fn log(&mut self, relay_seq: u64, local_version: u64, ws: &WriteSet) {
        debug_assert_eq!(
            relay_seq,
            self.logged_relay_seq + 1,
            "relay sequences are logged in order, without gaps"
        );
        self.wal.append_commit(local_version, ws);
        self.logged_relay_seq = relay_seq;
        if self.wal.pending_records() == 0 {
            self.durable_relay_seq = relay_seq;
        }
    }

    /// Advances the checkpoint (vacuum-cadence) and resets the log:
    /// everything applied so far is now in the base image. `db` must be
    /// the database whose every commit since the previous image went
    /// through [`NodeDurability::log`]; the new image is the old one
    /// with the whole redo log (sealed and pending) folded in, which
    /// debug builds check against a full capture of `db`.
    pub fn checkpoint(&mut self, db: &Database, relay_seq: u64) {
        let wal = std::mem::replace(&mut self.wal, WalWriter::new(self.group));
        // `into_bytes` seals the pending group, so the scan sees it too.
        self.checkpoint
            .fold(scan(&wal.into_bytes()).records)
            .expect("a node logs only writesets its own database applied");
        debug_assert_eq!(
            self.checkpoint,
            db.checkpoint(),
            "image + redo log must equal the database at relay {relay_seq}"
        );
        self.cp_relay_seq = relay_seq;
        self.durable_relay_seq = relay_seq;
        self.logged_relay_seq = relay_seq;
    }

    /// Adopts `image` — a foreign node's state, shipped wholesale by a
    /// state transfer — as the new durable baseline at `relay_seq`. The
    /// redo log described the replaced database and is dropped.
    pub fn rebase(&mut self, image: Checkpoint, relay_seq: u64) {
        *self = Self::at(image, relay_seq, self.group);
    }

    /// A crash: the unsealed group never reached the disk and is lost,
    /// so the log ends at the durable horizon again. Without this, the
    /// catch-up after a rejoin would re-log the lost sequences *behind*
    /// the stale records and a second crash would recover a log whose
    /// sequences run backwards.
    pub fn crash(&mut self) {
        self.wal.discard_pending();
        self.logged_relay_seq = self.durable_relay_seq;
    }

    /// The relay sequence recoverable from durable state alone. The
    /// relay log must retain sequences above this for the node to rejoin
    /// without a state transfer.
    pub fn durable_seq(&self) -> u64 {
        self.durable_relay_seq
    }

    /// Rebuilds the database from the checkpoint plus the sealed log
    /// frames. Returns the database, the relay sequence it reflects, and
    /// the number of log records replayed (the replay cost driver).
    pub fn recover(&self) -> (Database, u64, u64) {
        let (db, report) =
            Database::recover(&self.checkpoint, self.wal.bytes(), self.checkpoint.seq);
        debug_assert_eq!(
            report.replayed,
            self.durable_relay_seq - self.cp_relay_seq,
            "sealed frames must cover exactly the durable relay window"
        );
        (db, self.durable_relay_seq, report.replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_sidb::{RowId, Value};

    fn seeded() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", &["v"]).unwrap();
        let seed = db.begin();
        for i in 0..4u64 {
            db.insert(seed, t, RowId(i), vec![Value::Int(0)]).unwrap();
        }
        db.commit(seed).unwrap();
        db
    }

    fn commit_update(db: &mut Database, row: u64, v: i64) -> (u64, WriteSet) {
        let t = db.table_id("t").unwrap();
        let txn = db.begin();
        db.update(txn, t, RowId(row), vec![Value::Int(v)]).unwrap();
        let info = db.commit(txn).unwrap();
        (info.commit_seq, info.writeset)
    }

    #[test]
    fn recovery_loses_only_the_unsealed_group() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 3);
        let mut states = vec![db.durable_state()];
        for i in 0..7u64 {
            let (version, ws) = commit_update(&mut db, i % 4, i as i64 + 1);
            d.log(i + 1, version, &ws);
            states.push(db.durable_state());
        }
        // 7 commits, group 3: two sealed frames → durable through 6.
        assert_eq!(d.durable_seq(), 6);
        let (recovered, relay, replayed) = d.recover();
        assert_eq!(relay, 6);
        assert_eq!(replayed, 6);
        assert_eq!(recovered.durable_state(), states[6]);
    }

    #[test]
    fn a_second_crash_recovers_what_the_first_rejoin_relogged() {
        // Every applied writeset, by relay sequence (1-based).
        let mut db = seeded();
        let genesis = db.clone();
        let mut d = NodeDurability::new(&db, 0, 3);
        let mut history = Vec::new();
        for i in 0..9u64 {
            let (version, ws) = commit_update(&mut db, i % 4, i as i64 + 1);
            if i < 7 {
                d.log(i + 1, version, &ws);
            }
            history.push(ws);
        }
        let oracle = |relay: u64| {
            let mut db = genesis.clone();
            for ws in &history[..relay as usize] {
                db.apply_writeset(ws).unwrap();
            }
            db.durable_state()
        };
        // 7 logged with G = 3: the crash loses the unsealed seventh.
        d.crash();
        let (mut recovered, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (6, 6));
        assert_eq!(recovered.durable_state(), oracle(6));
        // Catch-up re-applies and re-logs 7 … 9 — right behind the
        // sealed frames, not behind a stale copy of 7.
        for seq in 7..=9u64 {
            let version = recovered
                .apply_writeset(&history[seq as usize - 1])
                .unwrap();
            d.log(seq, version, &history[seq as usize - 1]);
        }
        assert_eq!(d.durable_seq(), 9);
        d.crash();
        let (again, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (9, 9));
        assert_eq!(again.durable_state(), oracle(9));
        assert_eq!(again.durable_state(), recovered.durable_state());
    }

    #[test]
    fn checkpoint_folds_the_sealed_and_the_pending_log() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 4);
        for round in 0..3u64 {
            // 6 commits per tick with G = 4: one sealed frame, two pending.
            for i in 0..6u64 {
                let n = round * 6 + i;
                let (version, ws) = commit_update(&mut db, n % 4, n as i64);
                d.log(n + 1, version, &ws);
            }
            d.checkpoint(&db, (round + 1) * 6);
            assert_eq!(d.durable_seq(), (round + 1) * 6);
            let (recovered, relay, replayed) = d.recover();
            assert_eq!((relay, replayed), ((round + 1) * 6, 0));
            assert_eq!(recovered.durable_state(), db.durable_state());
            assert_eq!(recovered.version(), db.version());
        }
    }

    #[test]
    fn rebase_adopts_a_foreign_image_and_drops_the_log() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 2);
        for i in 0..3u64 {
            let (version, ws) = commit_update(&mut db, i, 7);
            d.log(i + 1, version, &ws);
        }
        // A donor that is somewhere else entirely.
        let mut donor = seeded();
        for i in 0..5u64 {
            commit_update(&mut donor, 3 - i % 4, -(i as i64));
        }
        d.rebase(donor.checkpoint(), 40);
        assert_eq!(d.durable_seq(), 40);
        let (recovered, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (40, 0));
        assert_eq!(recovered.durable_state(), donor.durable_state());
        // The rebased node logs on from the donor's position.
        let mut node = recovered;
        let (version, ws) = commit_update(&mut node, 0, 99);
        d.log(41, version, &ws);
        d.checkpoint(&node, 41);
        assert_eq!(d.recover().0.durable_state(), node.durable_state());
    }

    #[test]
    fn checkpoint_resets_the_log_and_advances_the_floor() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 4);
        for i in 0..5u64 {
            let (version, ws) = commit_update(&mut db, i % 4, i as i64);
            d.log(i + 1, version, &ws);
        }
        d.checkpoint(&db, 5);
        assert_eq!(d.durable_seq(), 5);
        let (recovered, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (5, 0));
        assert_eq!(recovered.durable_state(), db.durable_state());
    }
}
