//! Versioned tables: interned row slots over a shared version-chain arena.
//!
//! Each table interns external row keys ([`crate::RowId`]) into dense
//! *slots* on first touch. Per slot the table keeps the newest committed
//! version's index and commit sequence; the versions themselves live in
//! one arena (`nodes`) as a singly linked chain from newest to oldest,
//! with freed nodes recycled through a free list. The layout gives the
//! hot paths exactly what they need:
//!
//! - **certification** reads `latest[slot]` — one array load, no chain
//!   walk;
//! - **snapshot reads** walk the chain newest-first, which terminates at
//!   the first visible version (chains stay short because the simulators
//!   vacuum on an interval);
//! - **watermark GC** (`Table::vacuum`) frees every node no snapshot at
//!   or after the watermark can see, returning nodes to the free list
//!   without moving survivors. Only a row with more than one version has
//!   anything to free, and the table keeps the list of exactly those
//!   slots (`history`): a slot enters it when `Table::install` takes its
//!   chain from one version to two and leaves it when a vacuum collapses
//!   the chain back to one. A vacuum therefore costs what was written
//!   since the last one, not the table's size.
//!
//! A version's image is a shared [`Row`]: installing one moves or bumps a
//! reference count, cloning a table copies the slot arrays and the arena
//! nodes but no cell, and freeing a version drops one reference.

use crate::rowmap::RowMap;
use crate::value::Row;

/// Sentinel for "no node" in chain links and slot heads.
const NO_NODE: u32 = u32::MAX;
/// Sentinel for "key not interned" in the row index.
const NO_SLOT: u32 = u32::MAX;

/// One committed version in the arena. `data: None` is a tombstone.
#[derive(Debug, Clone)]
struct VersionNode {
    /// Commit sequence that produced this version.
    commit_seq: u64,
    /// Next-older version of the same row, or [`NO_NODE`].
    prev: u32,
    /// Row image; `None` is a delete tombstone.
    data: Option<Row>,
}

/// A named table: fixed column list, row-key interning, version arena.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub name: String,
    pub columns: Vec<String>,
    /// External row key → slot.
    index: RowMap<u32>,
    /// Slot → external row key (scan support).
    keys: Vec<u64>,
    /// Slot → newest version node, or [`NO_NODE`].
    heads: Vec<u32>,
    /// Slot → newest committed sequence (0 before the first commit) —
    /// the per-table last-committed version vector certification reads.
    latest: Vec<u64>,
    /// Version-chain arena.
    nodes: Vec<VersionNode>,
    /// Recycled arena indices.
    free: Vec<u32>,
    /// The slots whose chain holds more than one version, each once, in
    /// the order their second version arrived: all [`Table::vacuum`]
    /// visits.
    history: Vec<u32>,
}

impl Table {
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            index: RowMap::new(NO_SLOT),
            keys: Vec::new(),
            heads: Vec::new(),
            latest: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            history: Vec::new(),
        }
    }

    /// The slot for `key`, if the key was ever written.
    #[inline]
    pub fn slot_of(&self, key: u64) -> Option<u32> {
        self.index.get(key)
    }

    /// Interns `key`, allocating a fresh empty slot on first touch.
    pub fn slot_or_intern(&mut self, key: u64) -> u32 {
        if let Some(slot) = self.index.get(key) {
            return slot;
        }
        let slot = self.keys.len() as u32;
        self.keys.push(key);
        self.heads.push(NO_NODE);
        self.latest.push(0);
        self.index.insert(key, slot);
        slot
    }

    /// Newest committed sequence of the slot (0 when nothing committed).
    #[inline]
    pub fn latest_seq(&self, slot: u32) -> u64 {
        self.latest[slot as usize]
    }

    /// The newest version at or below `snapshot`, if it carries data
    /// (i.e. the row is visible and not tombstoned).
    #[inline]
    pub fn visible_data(&self, slot: u32, snapshot: u64) -> Option<&Row> {
        let mut node = self.heads[slot as usize];
        while node != NO_NODE {
            let n = &self.nodes[node as usize];
            if n.commit_seq <= snapshot {
                return n.data.as_ref();
            }
            node = n.prev;
        }
        None
    }

    /// True when the row is visible (with data) at `snapshot`.
    #[inline]
    pub fn is_visible(&self, slot: u32, snapshot: u64) -> bool {
        self.visible_data(slot, snapshot).is_some()
    }

    /// Installs a committed version for `slot` at `seq`.
    ///
    /// Sequences must be non-decreasing per slot — the database hands out
    /// monotone commit numbers.
    pub fn install(&mut self, slot: u32, seq: u64, data: Option<Row>) {
        debug_assert!(
            self.latest[slot as usize] <= seq,
            "version chain must stay sorted"
        );
        let prev = self.heads[slot as usize];
        // One version becomes two: the row now has history to collect.
        if prev != NO_NODE && self.nodes[prev as usize].prev == NO_NODE {
            self.history.push(slot);
        }
        let node = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = VersionNode {
                    commit_seq: seq,
                    prev,
                    data,
                };
                idx
            }
            None => {
                self.nodes.push(VersionNode {
                    commit_seq: seq,
                    prev,
                    data,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.heads[slot as usize] = node;
        self.latest[slot as usize] = seq;
    }

    /// Watermark GC: frees every version no snapshot at or after
    /// `watermark` can see, keeping (per row) the newest version at or
    /// below the watermark plus everything newer. Returns the number of
    /// versions freed to the arena's free list. Visits only the rows
    /// with history, and forgets the ones it leaves with one version.
    pub fn vacuum(&mut self, watermark: u64) -> usize {
        let mut freed = 0;
        let mut history = std::mem::take(&mut self.history);
        history.retain(|&slot| {
            let head = self.heads[slot as usize];
            let mut node = head;
            // Find the newest node at or below the watermark; everything
            // strictly older is unreachable.
            while node != NO_NODE && self.nodes[node as usize].commit_seq > watermark {
                node = self.nodes[node as usize].prev;
            }
            if node == NO_NODE {
                return true;
            }
            let mut stale = std::mem::replace(&mut self.nodes[node as usize].prev, NO_NODE);
            while stale != NO_NODE {
                let next = self.nodes[stale as usize].prev;
                self.nodes[stale as usize].data = None;
                self.nodes[stale as usize].prev = NO_NODE;
                self.free.push(stale);
                freed += 1;
                stale = next;
            }
            // Still more than one version when the head is newer than
            // the watermark.
            node != head
        });
        self.history = history;
        freed
    }

    /// Number of live (non-free) versions in the arena.
    pub fn version_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Checks the arena's structural invariants, panicking on violation:
    ///
    /// - the slot-indexed arrays agree on the slot count;
    /// - every chain is strictly newest-first (commit sequences strictly
    ///   decrease along `prev` links);
    /// - `latest[slot]` equals the head node's commit sequence — the
    ///   version vector certification reads must describe the chain it
    ///   summarizes, including after [`Table::vacuum`] rewrites links;
    /// - chains reach exactly the non-free nodes (no leaks, no sharing);
    /// - `history` is exactly the slots with more than one version, each
    ///   listed once — what lets [`Table::vacuum`] skip every other slot.
    ///
    /// O(versions); intended for `debug_assertions` call sites and tests.
    #[cfg_attr(not(any(test, debug_assertions)), allow(dead_code))]
    pub fn assert_invariants(&self) {
        assert_eq!(
            self.keys.len(),
            self.heads.len(),
            "{}: keys/heads",
            self.name
        );
        assert_eq!(
            self.keys.len(),
            self.latest.len(),
            "{}: keys/latest",
            self.name
        );
        let mut reachable = 0usize;
        let mut with_history = Vec::new();
        for slot in 0..self.heads.len() {
            let head = self.heads[slot];
            if head == NO_NODE {
                assert_eq!(
                    self.latest[slot], 0,
                    "{}: slot {slot} has no versions but latest != 0",
                    self.name
                );
                continue;
            }
            assert_eq!(
                self.nodes[head as usize].commit_seq, self.latest[slot],
                "{}: slot {slot}: latest[] disagrees with head version",
                self.name
            );
            let mut node = head;
            let mut newer_seq = u64::MAX;
            while node != NO_NODE {
                reachable += 1;
                assert!(
                    reachable <= self.nodes.len(),
                    "{}: slot {slot}: version chain cycles",
                    self.name
                );
                let n = &self.nodes[node as usize];
                assert!(
                    n.commit_seq < newer_seq || newer_seq == u64::MAX,
                    "{}: slot {slot}: chain not strictly newest-first",
                    self.name
                );
                newer_seq = n.commit_seq;
                node = n.prev;
            }
            if self.nodes[head as usize].prev != NO_NODE {
                with_history.push(slot as u32);
            }
        }
        assert_eq!(
            reachable,
            self.version_count(),
            "{}: reachable versions != live arena nodes (leak or cross-link)",
            self.name
        );
        let mut listed = self.history.clone();
        listed.sort_unstable();
        assert_eq!(
            listed, with_history,
            "{}: history list != slots with more than one version",
            self.name
        );
    }

    /// Every interned `(slot, key)` pair, in interning order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(slot, &key)| (slot as u32, key))
    }

    /// Number of rows visible at `snapshot` (excluding tombstones).
    pub fn live_rows_at(&self, snapshot: u64) -> usize {
        self.entries()
            .filter(|&(slot, _)| self.is_visible(slot, snapshot))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;

    fn int(x: i64) -> Option<Row> {
        Some(Row::from([Value::Int(x)]))
    }

    fn table_with_history() -> (Table, u32) {
        let mut t = Table::new("t", &["x"]);
        let slot = t.slot_or_intern(7);
        for (seq, x) in [(1, 10), (5, 50), (9, 90)] {
            t.install(slot, seq, int(x));
        }
        (t, slot)
    }

    #[test]
    fn visibility_respects_snapshot() {
        let (t, slot) = table_with_history();
        assert!(t.visible_data(slot, 0).is_none());
        assert_eq!(t.visible_data(slot, 1).unwrap()[0], Value::Int(10));
        assert_eq!(t.visible_data(slot, 4).unwrap()[0], Value::Int(10));
        assert_eq!(t.visible_data(slot, 5).unwrap()[0], Value::Int(50));
        assert_eq!(t.visible_data(slot, 100).unwrap()[0], Value::Int(90));
        assert_eq!(t.latest_seq(slot), 9);
    }

    #[test]
    fn tombstone_hides_the_row() {
        let (mut t, slot) = table_with_history();
        t.install(slot, 11, None);
        assert!(t.visible_data(slot, 12).is_none());
        assert!(!t.is_visible(slot, 12));
        // The pre-delete snapshot still sees data.
        assert_eq!(t.visible_data(slot, 9).unwrap()[0], Value::Int(90));
    }

    #[test]
    fn vacuum_keeps_watermark_version() {
        let mut t = Table::new("t", &["x"]);
        let slot = t.slot_or_intern(1);
        for (seq, x) in [(1, 1), (3, 3), (7, 7), (9, 9)] {
            t.install(slot, seq, int(x));
        }
        let freed = t.vacuum(7);
        assert_eq!(freed, 2); // versions 1 and 3 dropped
        assert_eq!(t.visible_data(slot, 8).unwrap()[0], Value::Int(7));
        assert_eq!(t.visible_data(slot, 9).unwrap()[0], Value::Int(9));
        assert_eq!(t.version_count(), 2);
    }

    #[test]
    fn vacuum_with_low_watermark_keeps_everything() {
        let mut t = Table::new("t", &["x"]);
        let slot = t.slot_or_intern(1);
        t.install(slot, 5, int(5));
        t.install(slot, 6, int(6));
        assert_eq!(t.vacuum(4), 0);
        assert_eq!(t.version_count(), 2);
    }

    #[test]
    fn freed_nodes_are_recycled() {
        let mut t = Table::new("t", &["x"]);
        let slot = t.slot_or_intern(1);
        for seq in 1..=10 {
            t.install(slot, seq, int(seq as i64));
        }
        assert_eq!(t.vacuum(10), 9);
        let arena_len = t.nodes.len();
        // New installs reuse freed nodes instead of growing the arena.
        for seq in 11..=15 {
            t.install(slot, seq, int(0));
        }
        assert_eq!(t.nodes.len(), arena_len);
    }

    #[test]
    fn live_row_counting() {
        let mut t = Table::new("t", &["x"]);
        let a = t.slot_or_intern(1);
        let b = t.slot_or_intern(2);
        t.install(a, 1, int(1));
        t.install(b, 1, int(2));
        t.install(b, 2, None);
        assert_eq!(t.live_rows_at(1), 2);
        assert_eq!(t.live_rows_at(2), 1);
        assert_eq!(t.live_rows_at(0), 0);
    }

    #[test]
    fn invariants_hold_through_installs_and_vacuum() {
        let mut t = Table::new("t", &["x"]);
        for key in 0..4 {
            let slot = t.slot_or_intern(key);
            for seq in 1..=10 {
                t.install(slot, seq, int(seq as i64));
                t.assert_invariants();
            }
        }
        let untouched = t.slot_or_intern(99); // interned, never written
        t.assert_invariants();
        t.vacuum(6);
        t.assert_invariants();
        t.vacuum(10);
        t.assert_invariants();
        // Recycled nodes must re-link correctly too.
        t.install(untouched, 11, int(0));
        t.install(0, 12, None);
        t.assert_invariants();
    }

    /// The vacuum the table had before it kept a history list: every
    /// slot, every tick. What [`Table::vacuum`] must stay equal to.
    fn full_scan_vacuum(t: &mut Table, watermark: u64) -> usize {
        let mut freed = 0;
        for slot in 0..t.heads.len() {
            let mut node = t.heads[slot];
            while node != NO_NODE && t.nodes[node as usize].commit_seq > watermark {
                node = t.nodes[node as usize].prev;
            }
            if node == NO_NODE {
                continue;
            }
            let mut stale = std::mem::replace(&mut t.nodes[node as usize].prev, NO_NODE);
            while stale != NO_NODE {
                let next = t.nodes[stale as usize].prev;
                t.nodes[stale as usize].data = None;
                t.nodes[stale as usize].prev = NO_NODE;
                t.free.push(stale);
                freed += 1;
                stale = next;
            }
        }
        freed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any interleaving of installs (tombstones included) and vacuums
        /// at any watermark — below every version, between versions,
        /// above all of them: the history-list vacuum frees what the
        /// full scan frees and leaves every readable snapshot as the
        /// full scan leaves it.
        #[test]
        fn vacuum_equals_the_full_scan_reference(
            ops in collection::vec((0u8..6, 0u64..8, 0u64..12), 1..120),
        ) {
            let mut table = Table::new("t", &["x"]);
            // Same installs, vacuumed by the reference (which keeps no
            // history list, so only `table` is held to the invariants).
            let mut twin = Table::new("t", &["x"]);
            let mut seq = 0u64;
            for (op, key, back) in ops {
                if op < 4 {
                    seq += 1;
                    let data = (op != 3).then(|| Row::from([Value::Int(seq as i64)]));
                    for t in [&mut table, &mut twin] {
                        let slot = t.slot_or_intern(key);
                        t.install(slot, seq, data.clone());
                    }
                    table.assert_invariants();
                    continue;
                }
                // `back` reaches from "newer than everything" down past
                // the oldest version.
                let watermark = (seq + 2).saturating_sub(back);
                let freed = table.vacuum(watermark);
                prop_assert_eq!(freed, full_scan_vacuum(&mut twin, watermark));
                table.assert_invariants();
                prop_assert_eq!(table.version_count(), twin.version_count());
                for (slot, _) in table.entries() {
                    for snapshot in watermark..=seq + 1 {
                        prop_assert_eq!(
                            table.visible_data(slot, snapshot),
                            twin.visible_data(slot, snapshot)
                        );
                    }
                    prop_assert_eq!(table.latest_seq(slot), twin.latest_seq(slot));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "latest[] disagrees")]
    fn corrupted_version_vector_is_caught() {
        let (mut t, slot) = table_with_history();
        t.latest[slot as usize] += 1; // simulate a missed latest[] update
        t.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "reachable versions != live arena nodes")]
    fn leaked_arena_node_is_caught() {
        let (mut t, slot) = table_with_history();
        // Detach the chain's tail without freeing it: a GC bug shape.
        let head = t.heads[slot as usize];
        t.nodes[head as usize].prev = NO_NODE;
        t.assert_invariants();
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = Table::new("t", &["x"]);
        let a = t.slot_or_intern(42);
        let b = t.slot_or_intern(42);
        assert_eq!(a, b);
        assert_eq!(t.slot_of(42), Some(a));
        assert_eq!(t.slot_of(43), None);
    }
}
