//! Per-replica durability harness: durable image + redo log + recovery.
//!
//! Each simulated node, when durability is enabled, mirrors every commit
//! it applies into a [`WalWriter`] on top of a durable *image* — a
//! [`Database`] of its own, because an image that has to eat a log is a
//! database (and one that shares every row image with the node's live
//! database: the image costs slot arrays, not payloads). At vacuum
//! cadence the image replays the log ([`Database::replay`], the
//! interpreter crash recovery uses) and collapses to one version a row, so a tick costs what changed since
//! the last one, not the database size. A crash drops the unsealed group
//! and freezes the rest; a rejoin *actually rebuilds* the node's database
//! from it — a copy of the image + replay of the sealed frames — instead
//! of trusting the in-memory state to have survived, and then replays
//! only the writesets past the durable point from the cluster relay log.
//! Catch-up lag thereby becomes replay cost.
//!
//! Two sequence spaces meet here: WAL records carry the node's *local*
//! database version (what [`Database::replay`] orders by), while the
//! cluster addresses writesets by *relay* sequence. The node logs every
//! relay sequence exactly once, in order, so the relay position of the
//! log is the image's plus a record count the [`WalWriter`] already
//! keeps.

use replipred_sidb::{Database, WalWriter, WriteSet};

/// Durable state of one node: the base image plus the redo log of
/// commits applied since.
#[derive(Debug, Clone)]
pub struct NodeDurability {
    /// The database as of the last tick: no sessions, one version a row.
    image: Database,
    wal: WalWriter,
    group: usize,
    /// Relay sequence the image reflects.
    image_relay_seq: u64,
}

impl NodeDurability {
    /// Images the node's current state. `relay_seq` is the cluster
    /// writeset sequence that state reflects (0 for a freshly seeded
    /// node).
    pub fn new(db: &Database, relay_seq: u64, group_commit: usize) -> Self {
        // Through a capture, not `db.clone()`: a clean copy without the
        // node's open sessions, statistics or version history.
        Self::at(Database::restore(&db.checkpoint()), relay_seq, group_commit)
    }

    /// An empty redo log on top of `image`, which reflects `relay_seq`.
    fn at(image: Database, relay_seq: u64, group_commit: usize) -> Self {
        NodeDurability {
            image,
            wal: WalWriter::new(group_commit),
            group: group_commit,
            image_relay_seq: relay_seq,
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
            self.durable_seq() + self.wal.pending_records() as u64 + 1,
            "relay sequences are logged in order, without gaps"
        );
        self.wal.append_commit(local_version, ws);
    }

    /// Advances the image (vacuum-cadence) and resets the log:
    /// everything applied so far is now in the image. `db` must be the
    /// database whose every commit since the previous tick went through
    /// [`NodeDurability::log`]; the image replays the whole redo log
    /// (sealed and pending) and drops the versions it superseded, which
    /// debug builds check against `db`. A tick with nothing logged does
    /// nothing.
    pub fn checkpoint(&mut self, db: &Database, relay_seq: u64) {
        let wal = std::mem::replace(&mut self.wal, WalWriter::new(self.group));
        // `into_bytes` seals the pending group, so the replay sees it too.
        let from = self.image.version();
        if self.image.replay(&wal.into_bytes(), from).replayed > 0 {
            self.image.vacuum();
        }
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
        *self = Self::at(image, relay_seq, self.group);
    }

    /// A crash: the unsealed group never reached the disk and is lost,
    /// so the log ends at the durable horizon again. Without this, the
    /// catch-up after a rejoin would re-log the lost sequences *behind*
    /// the stale records and a second crash would recover a log whose
    /// sequences run backwards.
    pub fn crash(&mut self) {
        self.wal.discard_pending();
    }

    /// The relay sequence recoverable from durable state alone: the
    /// image's plus one per sealed record. The relay log must retain
    /// sequences above this for the node to rejoin without a state
    /// transfer.
    pub fn durable_seq(&self) -> u64 {
        self.image_relay_seq + self.wal.sealed_records() as u64
    }

    /// Rebuilds the database from the image plus the sealed log frames.
    /// Returns the database, the relay sequence it reflects, and the
    /// number of log records replayed (the replay cost driver).
    pub fn recover(&self) -> (Database, u64, u64) {
        let mut db = self.image.clone();
        let replayed = db.replay(self.wal.bytes(), db.version()).replayed;
        debug_assert_eq!(
            replayed,
            self.wal.sealed_records() as u64,
            "every sealed record replays"
        );
        (db, self.durable_seq(), replayed)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use proptest::prelude::*;
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

    /// One committed transaction on `db`: key `key` of `t` is upserted,
    /// or — with `delete` and the row live — deleted.
    fn commit_put(db: &mut Database, key: u64, v: i64, delete: bool) -> WriteSet {
        let t = db.table_id("t").unwrap();
        let row = RowId(key);
        let txn = db.begin();
        let live = db.read(txn, t, row).unwrap().is_some();
        match (live, delete) {
            (true, true) => db.delete(txn, t, row).unwrap(),
            (true, false) => db.update(txn, t, row, vec![Value::Int(v)]).unwrap(),
            (false, _) => db.insert(txn, t, row, vec![Value::Int(v)]).unwrap(),
        }
        db.commit(txn).unwrap().writeset
    }

    /// A slave under test beside the cluster it replicates, with what an
    /// observer outside [`NodeDurability`] knows its durable state must be.
    struct Rig {
        genesis: Database,
        /// Commits every writeset first; `history[k]` is relay `k + 1`.
        cluster: Database,
        history: Vec<WriteSet>,
        node: Database,
        down: bool,
        d: NodeDurability,
        group: u64,
        /// Relay sequence of the image, and records sealed / pending
        /// on top of it.
        image_relay: u64,
        sealed: u64,
        pending: u64,
        /// Every key the image has ever held a version of.
        held: BTreeSet<u64>,
    }

    impl Rig {
        fn new(group: u64) -> Self {
            let genesis = seeded();
            Rig {
                cluster: genesis.clone(),
                history: Vec::new(),
                node: genesis.clone(),
                down: false,
                d: NodeDurability::new(&genesis, 0, group as usize),
                group,
                image_relay: 0,
                sealed: 0,
                pending: 0,
                held: (0..4).collect(),
                genesis,
            }
        }

        /// The node applies and logs relay `seq`.
        fn apply(&mut self, seq: u64) {
            let ws = &self.history[seq as usize - 1];
            let version = self.node.apply_writeset(ws).unwrap();
            self.d.log(seq, version, ws);
            self.pending += 1;
            if self.pending == self.group {
                self.sealed += self.pending;
                self.pending = 0;
            }
        }

        /// A new durable baseline at the node's current position.
        fn rebased(&mut self) {
            self.image_relay = self.history.len() as u64;
            (self.sealed, self.pending) = (0, 0);
        }

        fn oracle(&self, relay: u64) -> Database {
            let mut db = self.genesis.clone();
            for ws in &self.history[..relay as usize] {
                db.apply_writeset(ws).unwrap();
            }
            db
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever a node lives through — commits, ticks, crashes,
        /// recoveries, state transfers, in any order — its durable state
        /// recovers to exactly the history prefix the sealed frames
        /// cover, and a tick leaves the image one version a row.
        #[test]
        fn recovery_equals_the_history_prefix_under_any_interleaving(
            group in 1u64..5,
            ops in collection::vec((0u8..8, 0u64..12, -50i64..50), 1..80),
        ) {
            let mut rig = Rig::new(group);
            for (op, key, v) in ops {
                let mut ticked = false;
                match op {
                    // The cluster commits; a live node applies and logs.
                    0..=3 => {
                        let ws = commit_put(&mut rig.cluster, key, v, op == 3);
                        rig.history.push(ws);
                        if !rig.down {
                            rig.apply(rig.history.len() as u64);
                        }
                    }
                    // Vacuum tick of a live node.
                    4 if !rig.down => {
                        let logged = rig.image_relay + rig.sealed + rig.pending;
                        for ws in &rig.history[rig.image_relay as usize..logged as usize] {
                            rig.held.extend(ws.items.iter().map(|item| item.row.raw()));
                        }
                        ticked = logged > rig.image_relay;
                        rig.d.checkpoint(&rig.node, logged);
                        rig.rebased();
                    }
                    5 if !rig.down => {
                        rig.d.crash();
                        rig.pending = 0;
                        rig.down = true;
                    }
                    // Rejoin: rebuild from durable state, then catch up
                    // from the cluster's history, re-logging.
                    6 if rig.down => {
                        let (db, relay, _) = rig.d.recover();
                        rig.node = db;
                        rig.down = false;
                        for seq in relay + 1..=rig.history.len() as u64 {
                            rig.apply(seq);
                        }
                    }
                    // State transfer from the cluster.
                    7 => {
                        let cp = rig.cluster.checkpoint();
                        rig.held = cp.tables[0].rows.iter().map(|(key, _)| *key).collect();
                        rig.node = Database::restore(&cp);
                        rig.d.rebase(rig.node.clone(), rig.history.len() as u64);
                        rig.rebased();
                        rig.down = false;
                    }
                    _ => {}
                }
                let (recovered, relay, replayed) = rig.d.recover();
                prop_assert_eq!((relay, replayed), (rig.image_relay + rig.sealed, rig.sealed));
                prop_assert_eq!(rig.d.durable_seq(), relay);
                let oracle = rig.oracle(relay);
                prop_assert_eq!(recovered.durable_state(), oracle.durable_state());
                prop_assert_eq!(recovered.version(), oracle.version());
                if ticked {
                    // Nothing sealed yet: what recovered is the image.
                    prop_assert_eq!(recovered.version_count(), rig.held.len());
                }
            }
        }
    }
}
