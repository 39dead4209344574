//! The committed-writeset log: the one totally ordered sequence a
//! lagging replica catches up from.
//!
//! The certifier "maintains committed writesets and their versions"
//! (paper Section 5.1) and the Ganymed-style master ships its committed
//! writesets to the slaves (Figure 5): both are this log. [`WsLog`] is
//! sequence-addressed, supports truncation below the minimum sequence
//! any replica can still need, and an optional hard retention cap for
//! experiments that exercise the checkpoint-fallback rejoin path.
//!
//! An entry is the commit's one shared [`WriteSet`]: the `Arc` the log
//! holds is the one every `WsApply` in flight and every node's apply
//! queue holds, so logging a commit and fanning it out copy nothing.
//!
//! Entry `k` of the deque holds sequence `base + 1 + k`; sequence `s` is
//! available iff `first_seq() <= s <= last_seq()`. A log anchored at a
//! seeded database version ([`WsLog::anchored_at`]) starts with `base` at
//! that version, so sequences are global versions with no rebasing.

use std::collections::vec_deque::{Iter, VecDeque};
use std::sync::Arc;

use replipred_sidb::WriteSet;

/// A truncatable, sequence-addressed log of committed writesets.
#[derive(Debug, Clone, Default)]
pub struct WsLog {
    /// The sequence just below the oldest retained entry: the anchor
    /// plus everything truncated away since.
    base: u64,
    entries: VecDeque<Arc<WriteSet>>,
    /// High-water mark of `entries.len()` — the boundedness witness.
    peak: usize,
}

impl WsLog {
    /// An empty log starting at sequence 1.
    pub fn new() -> Self {
        WsLog::default()
    }

    /// An empty log whose first sequence is `version + 1`: the log of a
    /// cluster whose databases already carry `version` seeded commits.
    pub fn anchored_at(version: u64) -> Self {
        WsLog {
            base: version,
            ..WsLog::default()
        }
    }

    /// Appends the writeset for the next sequence and returns it. A
    /// caller that shares the writeset hands in an `Arc` of it (a count
    /// bump); an owned one is wrapped here.
    pub fn push(&mut self, ws: impl Into<Arc<WriteSet>>) -> u64 {
        self.entries.push_back(ws.into());
        self.peak = self.peak.max(self.entries.len());
        self.base + self.entries.len() as u64
    }

    /// The sequence the next [`WsLog::push`] will occupy.
    pub fn next_seq(&self) -> u64 {
        self.base + self.entries.len() as u64 + 1
    }

    /// Oldest retained sequence (`None` when empty).
    pub fn first_seq(&self) -> Option<u64> {
        (!self.entries.is_empty()).then(|| self.base + 1)
    }

    /// Newest retained sequence (`None` when empty).
    pub fn last_seq(&self) -> Option<u64> {
        (!self.entries.is_empty()).then(|| self.base + self.entries.len() as u64)
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of the retained entry count.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Whether sequence `seq` is still retained.
    pub fn contains(&self, seq: u64) -> bool {
        seq > self.base && seq <= self.base + self.entries.len() as u64
    }

    /// The writesets for sequences `from..=to`, borrowed in order, or
    /// `None` if any of them has been truncated away (the caller must
    /// fall back to a state transfer) or is not logged yet.
    pub fn range_from(&self, from: u64, to: u64) -> Option<Iter<'_, Arc<WriteSet>>> {
        if from > to {
            return Some(self.entries.range(..0));
        }
        if from <= self.base || to > self.base + self.entries.len() as u64 {
            return None;
        }
        let lo = (from - self.base - 1) as usize;
        let hi = (to - self.base) as usize;
        Some(self.entries.range(lo..hi))
    }

    /// Drops every entry below `min_needed` (the minimum sequence any
    /// replica may still replay). Returns the number dropped.
    pub fn truncate_below(&mut self, min_needed: u64) -> usize {
        self.drop_oldest(min_needed.saturating_sub(self.base + 1))
    }

    /// Enforces a hard retention cap: keeps at most `retention` newest
    /// entries (no-op when `retention` is 0 = unbounded). Returns the
    /// number dropped.
    pub fn cap(&mut self, retention: u64) -> usize {
        if retention == 0 {
            return 0;
        }
        self.drop_oldest((self.entries.len() as u64).saturating_sub(retention))
    }

    /// Drops the `n` oldest entries (all of them when fewer are retained).
    fn drop_oldest(&mut self, n: u64) -> usize {
        let n = n.min(self.entries.len() as u64) as usize;
        self.entries.drain(..n);
        self.base += n as u64;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_sidb::WriteSet;

    fn ws() -> WriteSet {
        WriteSet {
            base_version: 0,
            items: Vec::new(),
        }
    }

    #[test]
    fn sequences_are_contiguous_from_one() {
        let mut log = WsLog::new();
        assert_eq!(log.next_seq(), 1);
        assert_eq!(log.push(ws()), 1);
        assert_eq!(log.push(ws()), 2);
        assert_eq!(log.first_seq(), Some(1));
        assert_eq!(log.last_seq(), Some(2));
        assert!(log.contains(1) && log.contains(2));
        assert!(!log.contains(0) && !log.contains(3));
    }

    #[test]
    fn truncation_preserves_addressing() {
        let mut log = WsLog::new();
        for _ in 0..10 {
            log.push(ws());
        }
        assert_eq!(log.truncate_below(5), 4);
        assert_eq!(log.first_seq(), Some(5));
        assert_eq!(log.last_seq(), Some(10));
        assert_eq!(log.len(), 6);
        assert_eq!(log.peak_len(), 10);
        assert!(!log.contains(4));
        assert!(log.contains(5));
        // Addressing stays seq-based after truncation.
        assert_eq!(log.push(ws()), 11);
        assert_eq!(log.range_from(5, 11).map(|v| v.len()), Some(7));
        assert!(log.range_from(4, 11).is_none(), "truncated range is gone");
        assert!(log.range_from(5, 12).is_none(), "12 is not logged yet");
        assert_eq!(log.range_from(12, 11).map(|v| v.len()), Some(0));
    }

    #[test]
    fn anchored_log_lives_in_the_anchored_sequence_space() {
        let mut log = WsLog::anchored_at(50);
        assert_eq!((log.next_seq(), log.first_seq(), log.len()), (51, None, 0));
        for base_version in 50..53 {
            log.push(WriteSet {
                base_version,
                items: Vec::new(),
            });
        }
        assert_eq!((log.first_seq(), log.last_seq()), (Some(51), Some(53)));
        assert_eq!(log.next_seq(), 54);
        assert!(!log.contains(50) && log.contains(51) && log.contains(53));
        assert!(!log.contains(3), "sequences below the anchor never existed");
        let bases = |from, to| -> Option<Vec<u64>> {
            Some(
                log.range_from(from, to)?
                    .map(|ws| ws.base_version)
                    .collect(),
            )
        };
        assert_eq!(bases(51, 53), Some(vec![50, 51, 52]));
        assert_eq!(bases(52, 52), Some(vec![51]));
        assert_eq!(bases(50, 53), None, "the anchor itself is not an entry");
        assert_eq!(bases(1, 3), None);
    }

    #[test]
    fn truncation_and_cap_match_the_certifier_log_table() {
        // `Certifier::truncate_applied(v)` drops the prefix up to and
        // including version v: `truncate_below(v + 1)` on a log anchored
        // where the certifier is. Ten entries each; `(v, dropped)`.
        for anchor in [0u64, 50] {
            for (v, dropped) in [(0, 0), (anchor, 0), (anchor + 5, 5), (anchor + 99, 10)] {
                let mut log = WsLog::anchored_at(anchor);
                for _ in 0..10 {
                    log.push(ws());
                }
                assert_eq!(log.truncate_below(v + 1), dropped, "anchor {anchor} v {v}");
                assert_eq!(log.next_seq(), anchor + 11, "the head never moves");
                assert_eq!((log.len(), log.peak_len()), (10 - dropped, 10));
                let survivor = anchor + dropped as u64 + 1;
                assert!(!log.contains(survivor - 1));
                assert_eq!(log.contains(survivor), dropped < 10);
                // A second truncation at the same floor is a no-op, and
                // the cap counts retained entries, not sequences.
                assert_eq!(log.truncate_below(v + 1), 0);
                assert_eq!(log.cap(4), (10 - dropped).saturating_sub(4));
                assert_eq!(log.next_seq(), anchor + 11);
            }
        }
    }

    #[test]
    fn cap_enforces_hard_retention() {
        let mut log = WsLog::new();
        for _ in 0..10 {
            log.push(ws());
        }
        assert_eq!(log.cap(0), 0, "zero cap means unbounded");
        assert_eq!(log.cap(4), 6);
        assert_eq!(log.first_seq(), Some(7));
        assert_eq!(log.last_seq(), Some(10));
        assert_eq!(log.next_seq(), 11);
    }
}
