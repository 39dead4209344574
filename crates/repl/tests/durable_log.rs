//! A node's typed redo log against the history it lived through and
//! against the byte WAL it stands in for.
//!
//! [`NodeDurability`] keeps its redo log as typed records (the local
//! version and the commit's shared writeset) and seals them every
//! `group_commit` appends. The crc-framed [`WalWriter`] is what that log
//! models: the same records appended with the same group size seal into
//! frames at the same points, a crash discards the same unsealed group,
//! and a recovery from the frames replays the same commits. The property
//! here mirrors every logged record into a writer and holds the two to
//! it.

use std::collections::BTreeSet;

use proptest::prelude::*;
use replipred_repl::NodeDurability;
use replipred_sidb::{scan, Database, RowId, Value, WalRecord, WalWriter, WriteSet};

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
    /// The byte WAL of the same records since the image.
    wal: WalWriter,
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
            wal: WalWriter::new(group as usize),
            group,
            image_relay: 0,
            sealed: 0,
            pending: 0,
            held: (0..4).collect(),
            genesis,
        }
    }

    /// The node applies and logs relay `seq`, in both logs.
    fn apply(&mut self, seq: u64) {
        let ws = &self.history[seq as usize - 1];
        let version = self.node.apply_writeset(ws).unwrap();
        self.d.log(seq, version, ws);
        self.wal.append(&WalRecord::Commit {
            seq: version,
            writeset: ws.clone(),
        });
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
        self.wal = WalWriter::new(self.group as usize);
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
    /// recovers to exactly the history prefix the sealed records cover,
    /// the byte WAL of the same records holds exactly the commits that
    /// recovery replays and rebuilds the same database from them, every
    /// record logged is folded, dropped, superseded or still in the log,
    /// and a tick leaves the image one version a row.
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
                    rig.wal.discard_pending();
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

            // The sealed frames carry exactly the commits recovery
            // replayed — the image's version plus one each, up to the
            // recovered version — and replaying them as bytes on the
            // image's state rebuilds the same database.
            let image = rig.oracle(rig.image_relay);
            let framed: Vec<u64> = scan(rig.wal.bytes())
                .records
                .iter()
                .map(|rec| match rec {
                    WalRecord::Commit { seq, .. } => *seq,
                    WalRecord::CreateTable { .. } => unreachable!("a node logs commits only"),
                })
                .collect();
            let replayed_seqs: Vec<u64> = (image.version() + 1..=recovered.version()).collect();
            prop_assert_eq!(&framed, &replayed_seqs);
            let mut via_bytes = image.clone();
            let report = via_bytes.replay(rig.wal.bytes(), image.version());
            prop_assert_eq!(report.replayed, replayed);
            prop_assert_eq!(via_bytes.durable_state(), recovered.durable_state());
            prop_assert_eq!(via_bytes.version(), recovered.version());

            let counts = rig.d.counts();
            prop_assert_eq!(
                counts.logged,
                counts.folded + counts.dropped + counts.superseded + rig.d.log_len() as u64
            );
        }
    }
}
