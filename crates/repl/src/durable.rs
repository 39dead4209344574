//! Per-replica durability harness: durable image + redo log + recovery.
//!
//! Each simulated node, when durability is enabled, logs every commit it
//! applies on top of a durable *image* — a [`Database`] of its own,
//! because an image that installs logged commits is a database (and one
//! that shares every row image with the node's live database: the image
//! costs slot arrays, not payloads). The redo log is typed: a record is
//! the local version the commit produced and the commit's one shared
//! [`WriteSet`] — an `Arc` count bump, never an encoding — and a record
//! enters a database through [`Database::replay_commit`], the same
//! checked step [`Database::replay`] runs on every commit it decodes
//! from WAL bytes. Records seal every `group_commit` appends, where the
//! byte log would close a crc frame (the simulated fsync).
//!
//! At vacuum cadence the image installs the whole log and collapses to
//! one version a row, so a tick costs what changed since the last one,
//! not the database size. A crash drops the unsealed group and freezes
//! the rest; a rejoin *actually rebuilds* the node's database from it —
//! a copy of the image plus the sealed records — instead of trusting
//! the in-memory state to have survived, and then replays only the
//! writesets past the durable point from the cluster's writeset log.
//! Catch-up lag thereby becomes replay cost.
//!
//! Two sequence spaces meet here: a record carries the node's *local*
//! database version (what [`Database::replay_commit`] orders by), while
//! the cluster addresses writesets by *relay* sequence. The node logs
//! every relay sequence exactly once, in order, so the relay position
//! of the log is the image's plus a record count.

use std::sync::Arc;

use replipred_sidb::{Database, WriteSet};

/// What one node's redo log has done. Every record logged leaves the
/// log one way — `folded` into the image at a tick, `dropped` by a
/// crash (the unsealed group), `superseded` when a state transfer
/// replaces the image — or is still in it. Plain counts: nothing
/// reports them, so keeping them moves no output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounts {
    /// Records appended by [`NodeDurability::log_shared`].
    pub logged: u64,
    /// Records installed into the image by [`NodeDurability::checkpoint`].
    pub folded: u64,
    /// Unsealed records lost by [`NodeDurability::crash`].
    pub dropped: u64,
    /// Records discarded by [`NodeDurability::rebase`] with the image
    /// they described.
    pub superseded: u64,
    /// Records installed by [`NodeDurability::recover`], summed over
    /// every recovery.
    pub replayed: u64,
}

/// Durable state of one node: the base image plus the redo log of
/// commits applied since.
#[derive(Debug, Clone)]
pub struct NodeDurability {
    /// The database as of the last tick: no sessions, one version a row.
    image: Database,
    /// Commits applied since the image, in order: the local version each
    /// produced and its writeset, shared with the cluster.
    log: Vec<(u64, Arc<WriteSet>)>,
    /// How many records of `log` are sealed (durable): whole groups.
    sealed: usize,
    group: usize,
    /// Relay sequence the image reflects.
    image_relay_seq: u64,
    counts: DurabilityCounts,
}

impl NodeDurability {
    /// Images the node's current state. `relay_seq` is the cluster
    /// writeset sequence that state reflects (0 for a freshly seeded
    /// node).
    ///
    /// # Panics
    ///
    /// Panics if `group_commit` is zero.
    pub fn new(db: &Database, relay_seq: u64, group_commit: usize) -> Self {
        assert!(group_commit >= 1, "group commit batch must be at least 1");
        NodeDurability {
            // Through a capture, not `db.clone()`: a clean copy without
            // the node's open sessions, statistics or version history.
            image: Database::restore(&db.checkpoint()),
            log: Vec::new(),
            sealed: 0,
            group: group_commit,
            image_relay_seq: relay_seq,
            counts: DurabilityCounts::default(),
        }
    }

    /// Logs one applied commit: `relay_seq` in cluster space,
    /// `local_version` the database version the commit produced, and the
    /// writeset itself, shared. Sealing a group (every `group_commit`
    /// appends) advances the durable horizon — the simulated fsync. Relay
    /// sequences are logged in order without gaps, each one past the
    /// last logged (after a crash: past the durable horizon).
    pub fn log_shared(&mut self, relay_seq: u64, local_version: u64, ws: Arc<WriteSet>) {
        debug_assert_eq!(
            relay_seq,
            self.image_relay_seq + self.log.len() as u64 + 1,
            "relay sequences are logged in order, without gaps"
        );
        self.log.push((local_version, ws));
        if self.log.len() - self.sealed >= self.group {
            self.sealed = self.log.len();
        }
        self.counts.logged += 1;
    }

    /// [`NodeDurability::log_shared`] for a caller holding a borrowed
    /// writeset: logs a copy of it.
    pub fn log(&mut self, relay_seq: u64, local_version: u64, ws: &WriteSet) {
        self.log_shared(relay_seq, local_version, Arc::new(ws.clone()));
    }

    /// Advances the image (vacuum-cadence) and resets the log:
    /// everything applied so far is now in the image. `db` must be the
    /// database whose every commit since the previous tick went through
    /// [`NodeDurability::log_shared`]; the image installs the whole redo
    /// log (sealed and pending) and drops the versions it superseded,
    /// which debug builds check against `db`. A tick with nothing logged
    /// does nothing.
    pub fn checkpoint(&mut self, db: &Database, relay_seq: u64) {
        if !self.log.is_empty() {
            self.counts.folded += self.log.len() as u64;
            for (version, ws) in self.log.drain(..) {
                self.image
                    .replay_commit(version, &ws)
                    .expect("a node logs its own commits in version order");
            }
            self.image.vacuum();
        }
        self.sealed = 0;
        debug_assert_eq!(
            self.image.checkpoint(),
            db.checkpoint(),
            "image + redo log must equal the database at relay {relay_seq}"
        );
        self.image_relay_seq = relay_seq;
    }

    /// Adopts `image` — a foreign node's state, shipped wholesale by a
    /// state transfer and restored — as the new durable baseline at
    /// `relay_seq`. The redo log described the replaced database and is
    /// dropped.
    pub fn rebase(&mut self, image: Database, relay_seq: u64) {
        self.counts.superseded += self.log.len() as u64;
        self.log.clear();
        self.sealed = 0;
        self.image = image;
        self.image_relay_seq = relay_seq;
    }

    /// A crash: the unsealed group never reached the disk and is lost,
    /// so the log ends at the durable horizon again. Without this, the
    /// catch-up after a rejoin would re-log the lost sequences *behind*
    /// the stale records and a second crash would recover a log whose
    /// sequences run backwards.
    pub fn crash(&mut self) {
        self.counts.dropped += (self.log.len() - self.sealed) as u64;
        self.log.truncate(self.sealed);
    }

    /// The relay sequence recoverable from durable state alone: the
    /// image's plus one per sealed record. The cluster's log must retain
    /// sequences above this for the node to rejoin without a state
    /// transfer.
    pub fn durable_seq(&self) -> u64 {
        self.image_relay_seq + self.sealed as u64
    }

    /// Rebuilds the database from the image plus the sealed records.
    /// Returns the database, the relay sequence it reflects, and the
    /// number of records replayed (the replay cost driver).
    pub fn recover(&mut self) -> (Database, u64, u64) {
        let mut db = self.image.clone();
        for (version, ws) in &self.log[..self.sealed] {
            db.replay_commit(*version, ws)
                .expect("a node logs its own commits in version order");
        }
        let replayed = self.sealed as u64;
        self.counts.replayed += replayed;
        (db, self.durable_seq(), replayed)
    }

    /// What the redo log has done so far.
    pub fn counts(&self) -> DurabilityCounts {
        self.counts
    }

    /// Records in the log now, sealed and pending.
    pub fn log_len(&self) -> usize {
        self.log.len()
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
    fn checkpoint_replays_the_sealed_and_the_pending_log() {
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
        d.rebase(Database::restore(&donor.checkpoint()), 40);
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
