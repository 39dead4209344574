//! Crc-framed redo log with group commit.
//!
//! The write-ahead log is a sequence of crc **frames**
//! (`[payload len: u32 LE][crc32(payload): u32 LE][payload bytes]`),
//! each holding one group commit's worth of records.
//!
//! Records (schema creations and committed writesets) accumulate in a
//! pending buffer and are sealed into a frame every `group_commit`
//! records — one simulated fsync per frame, which is what amortizes the
//! fsync cost across the group. Only sealed frames are durable: a crash
//! loses at most the pending (unsealed) tail, and recovery replays the
//! log to the last whole group commit.
//!
//! Torn-tail detection: [`scan`] walks frames front to back and stops at
//! the first short header, short payload, or crc mismatch — it never
//! panics on truncated or corrupted bytes. Everything before the bad
//! frame is trusted (crc-verified); everything from it on is discarded,
//! exactly the "truncate at first bad frame" recovery rule.
//!
//! The read path runs at memory speed. [`crc32`] is slicing-by-8
//! (Kounavis & Berry, ISCC 2005) over an 8 KB table built at compile
//! time: eight independent lookups per eight bytes, bit-identical to the
//! bytewise method. The record grammar is written once and walked two
//! ways: building the typed records, or only checking the bytes, which
//! is how recovery passes over the commits a checkpoint already covers
//! — same tags, lengths and UTF-8 checked, nothing allocated. A decoded
//! row image is one allocation, collected from the reader's scratch row.
//!
//! All encoding is hand-rolled little-endian with length prefixes, so
//! the byte stream is a pure function of the logged records: equal
//! histories produce equal logs on every host, keeping the workspace's
//! byte-determinism contract intact for durable state.

use crate::frame;
use crate::ids::{RowId, TableId};
use crate::value::{Row, Value};
use crate::writeset::{WriteItem, WriteOp, WriteSet};

/// Bytes of one frame header (payload length + crc).
pub const FRAME_HEADER: usize = 8;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-8.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the bytewise table: the crc of one byte `i`.
/// `CRC_TABLES[k][i]` is the crc of byte `i` followed by `k` zero bytes,
/// so the eight lookups of one 8-byte step each carry one byte of it
/// the rest of the way. 8 KB, built at compile time.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 of `bytes` (the polynomial zlib, PNG, and ethernet use).
///
/// Slicing-by-8 (Kounavis & Berry, "A systematic approach to building
/// high performance software-based CRC generators", ISCC 2005): eight
/// independent lookups in an 8 KB compile-time table fold eight bytes a
/// step, where the bytewise method chains one dependent lookup per byte;
/// the tail shorter than eight bytes goes bytewise. Bit-identical to the
/// bytewise method on every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(c);
        let b = w.to_le_bytes();
        c = t[7][b[0] as usize]
            ^ t[6][b[1] as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Records and their binary codec.
// ---------------------------------------------------------------------

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table creation (schema must replay before data).
    CreateTable {
        /// Table name.
        name: String,
        /// Column names, in order.
        columns: Vec<String>,
    },
    /// A committed writeset at sequence `seq`. The sequence space is the
    /// caller's (local commit sequence for a standalone database, cluster
    /// writeset sequence for a replica); recovery only requires it to be
    /// strictly increasing.
    Commit {
        /// Commit sequence number.
        seq: u64,
        /// The committed writeset.
        writeset: WriteSet,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_COMMIT: u8 = 2;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(5);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
    }
}

pub(crate) fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

fn put_writeset(out: &mut Vec<u8>, ws: &WriteSet) {
    put_u64(out, ws.base_version);
    put_u32(out, ws.items.len() as u32);
    for item in &ws.items {
        put_u32(out, item.table.0);
        put_u64(out, item.row.0);
        out.push(match item.op {
            WriteOp::Insert => 0,
            WriteOp::Update => 1,
            WriteOp::Delete => 2,
        });
        match &item.data {
            Some(row) => {
                out.push(1);
                put_row(out, row);
            }
            None => out.push(0),
        }
    }
}

pub(crate) fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::CreateTable { name, columns } => {
            out.push(TAG_CREATE_TABLE);
            put_str(out, name);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, c);
            }
        }
        WalRecord::Commit { seq, writeset } => {
            out.push(TAG_COMMIT);
            put_u64(out, *seq);
            put_writeset(out, writeset);
        }
    }
}

/// How a walk of the record grammar treats what the grammar accepts:
/// [`Build`] makes the typed writeset, [`Check`] makes nothing.
///
/// The grammar — [`Reader::writeset`] and the row and cell rules under
/// it — is written once, generic over the walk, so both walks accept and
/// reject exactly the same bytes: every tag, every length and the UTF-8
/// of every `Text` cell is the grammar's to check, and a walk only
/// decides what to keep of it.
pub(crate) trait Walk {
    /// A row image, as this walk makes it.
    type Row;
    /// A writeset item, as this walk makes it.
    type Item;
    /// Keeps a cell the grammar accepted in the reader's scratch row.
    fn cell(cells: &mut Vec<Value>, cell: impl FnOnce() -> Value);
    /// Makes the row the scratch holds.
    fn row(cells: &mut Vec<Value>) -> Self::Row;
    /// Makes an item the grammar accepted.
    fn item(table: TableId, row: RowId, op: WriteOp, data: Option<Self::Row>) -> Self::Item;
}

/// Builds the typed writeset; each row image is one allocation.
pub(crate) enum Build {}

impl Walk for Build {
    type Row = Row;
    type Item = WriteItem;

    #[inline]
    fn cell(cells: &mut Vec<Value>, cell: impl FnOnce() -> Value) {
        cells.push(cell());
    }

    #[inline]
    fn row(cells: &mut Vec<Value>) -> Row {
        cells.drain(..).collect()
    }

    #[inline]
    fn item(table: TableId, row: RowId, op: WriteOp, data: Option<Row>) -> WriteItem {
        WriteItem {
            table,
            row,
            op,
            data,
        }
    }
}

/// Only checks the bytes: accepts what [`Build`] accepts, and allocates
/// nothing.
pub(crate) enum Check {}

impl Walk for Check {
    type Row = ();
    type Item = ();

    #[inline]
    fn cell(_: &mut Vec<Value>, _: impl FnOnce() -> Value) {}

    #[inline]
    fn row(_: &mut Vec<Value>) {}

    #[inline]
    fn item(_: TableId, _: RowId, _: WriteOp, _: Option<()>) {}
}

/// Bounded-checked byte reader; every accessor returns `None` past the
/// end instead of panicking, which is what makes [`scan`] total.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The cells of the row being read. A row image is collected from it
    /// in one allocation, and it serves every row the reader reads.
    cells: Vec<Value>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            cells: Vec::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        Some(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        Some(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    pub(crate) fn utf8(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        self.utf8().map(str::to_owned)
    }

    /// One cell, kept as the walk `W` keeps cells.
    fn cell<W: Walk>(&mut self) -> Option<()> {
        match self.u8()? {
            0 => W::cell(&mut self.cells, || Value::Null),
            1 => {
                let b = self.u8()? != 0;
                W::cell(&mut self.cells, || Value::Bool(b));
            }
            2 => {
                let i = self.u64()? as i64;
                W::cell(&mut self.cells, || Value::Int(i));
            }
            3 => {
                let bits = self.u64()?;
                W::cell(&mut self.cells, || Value::Float(f64::from_bits(bits)));
            }
            4 => {
                let s = self.utf8()?;
                W::cell(&mut self.cells, || Value::Text(s.to_owned()));
            }
            5 => {
                let b = self.bytes()?;
                W::cell(&mut self.cells, || Value::Bytes(b.to_vec()));
            }
            _ => return None,
        }
        Some(())
    }

    /// One row image, made as the walk `W` makes rows.
    pub(crate) fn row<W: Walk>(&mut self) -> Option<W::Row> {
        // A row that failed part way leaves its cells behind.
        self.cells.clear();
        let n = self.u32()?;
        for _ in 0..n {
            self.cell::<W>()?;
        }
        Some(W::row(&mut self.cells))
    }

    /// One writeset, walked by `W`: its base version and its items as
    /// `W` makes them.
    pub(crate) fn writeset<W: Walk>(&mut self) -> Option<(u64, Vec<W::Item>)> {
        let base_version = self.u64()?;
        let n = self.u32()? as usize;
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let table = TableId(self.u32()?);
            let row = RowId(self.u64()?);
            let op = match self.u8()? {
                0 => WriteOp::Insert,
                1 => WriteOp::Update,
                2 => WriteOp::Delete,
                _ => return None,
            };
            let data = match self.u8()? {
                0 => None,
                1 => Some(self.row::<W>()?),
                _ => return None,
            };
            items.push(W::item(table, row, op, data));
        }
        Some((base_version, items))
    }

    /// Reads one record into `out` — except a commit at or below
    /// `covered`, which is only checked ([`Check`]) and never built.
    fn record(&mut self, covered: Option<u64>, out: &mut Vec<WalRecord>) -> Option<()> {
        match self.u8()? {
            TAG_CREATE_TABLE => {
                let name = self.str()?;
                let n = self.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    columns.push(self.str()?);
                }
                out.push(WalRecord::CreateTable { name, columns });
            }
            TAG_COMMIT => {
                let seq = self.u64()?;
                if covered.is_some_and(|covered| seq <= covered) {
                    self.writeset::<Check>()?;
                } else {
                    let (base_version, items) = self.writeset::<Build>()?;
                    out.push(WalRecord::Commit {
                        seq,
                        writeset: WriteSet {
                            base_version,
                            items,
                        },
                    });
                }
            }
            _ => return None,
        }
        Some(())
    }

    /// Reads one frame payload's records into `out`: all of them, or —
    /// when one is malformed — none, and `false`. Commits at or below
    /// `covered` are checked like the rest but never built, so they are
    /// not in `out` either way. The reader's scratch carries over from
    /// the payload it read before.
    pub(crate) fn records(
        &mut self,
        payload: &'a [u8],
        covered: Option<u64>,
        out: &mut Vec<WalRecord>,
    ) -> bool {
        (self.bytes, self.pos) = (payload, 0);
        let whole_frames = out.len();
        while !self.is_empty() {
            if self.record(covered, out).is_none() {
                out.truncate(whole_frames);
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------
// Writer: group-commit framing.
// ---------------------------------------------------------------------

/// Appends records, sealing a crc frame every `group_commit` records.
///
/// `bytes()` exposes only sealed frames — the durable prefix. Records
/// still pending in the current group are lost on a crash unless
/// [`WalWriter::flush`] sealed them first.
#[derive(Debug, Clone)]
pub struct WalWriter {
    buf: Vec<u8>,
    pending: Vec<u8>,
    pending_records: usize,
    group: usize,
    frames: usize,
    sealed_records: usize,
}

impl WalWriter {
    /// Creates a writer sealing a frame every `group_commit` records.
    ///
    /// # Panics
    ///
    /// Panics if `group_commit` is zero.
    pub fn new(group_commit: usize) -> Self {
        assert!(group_commit >= 1, "group commit batch must be at least 1");
        WalWriter {
            buf: Vec::new(),
            pending: Vec::new(),
            pending_records: 0,
            group: group_commit,
            frames: 0,
            sealed_records: 0,
        }
    }

    /// Appends one record, sealing the group's frame when full.
    pub fn append(&mut self, rec: &WalRecord) {
        encode_record(&mut self.pending, rec);
        self.pending_records += 1;
        if self.pending_records >= self.group {
            self.seal();
        }
    }

    /// Drops the unsealed group: what a crash does to records that never
    /// reached an fsync. The sealed frames are untouched.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
        self.pending_records = 0;
    }

    /// Seals a partially filled group into a frame (an explicit fsync).
    pub fn flush(&mut self) {
        self.seal();
    }

    fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        frame::put(&mut self.buf, &self.pending);
        self.pending.clear();
        self.sealed_records += self.pending_records;
        self.pending_records = 0;
        self.frames += 1;
    }

    /// The durable bytes: every sealed frame, nothing pending.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the durable bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.seal();
        self.buf
    }

    /// Sealed frame count.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Records sealed into frames (durable).
    pub fn sealed_records(&self) -> usize {
        self.sealed_records
    }

    /// Records waiting in the current (unsealed) group.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }
}

// ---------------------------------------------------------------------
// Scan: torn-tail-tolerant recovery read.
// ---------------------------------------------------------------------

/// Result of scanning a log image.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every record recovered from whole, crc-valid frames, in order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (where a repair would truncate).
    pub valid_len: usize,
    /// True when trailing bytes were discarded (torn tail or corruption).
    pub truncated: bool,
}

/// Walks the frames of `bytes`, stopping at the first short read, crc
/// mismatch, or malformed payload. Never panics: arbitrary byte soup
/// yields an empty, fully truncated scan.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut reader = Reader::new(&[]);
    let mut rest = bytes;
    // A torn tail or a crc mismatch ends the scan: distrust everything
    // from the bad frame on.
    while let Ok((payload, after)) = frame::take(rest) {
        if !reader.records(payload, None, &mut records) {
            break;
        }
        rest = after;
    }
    WalScan {
        records,
        valid_len: bytes.len() - rest.len(),
        truncated: !rest.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn sample_ws(seq: u64) -> WriteSet {
        WriteSet {
            base_version: seq.saturating_sub(1),
            items: vec![
                WriteItem {
                    table: TableId(0),
                    row: RowId(seq),
                    op: WriteOp::Update,
                    data: Some(Row::from([
                        Value::Text(format!("v{seq}")),
                        Value::Int(seq as i64),
                        Value::Float(0.5),
                        Value::Bool(true),
                        Value::Null,
                        Value::Bytes(vec![1, 2, 3]),
                    ])),
                },
                WriteItem {
                    table: TableId(1),
                    row: RowId(seq + 100),
                    op: WriteOp::Delete,
                    data: None,
                },
            ],
        }
    }

    fn sample_log(commits: u64, group: usize) -> (WalWriter, Vec<WalRecord>) {
        let mut w = WalWriter::new(group);
        let mut recs = vec![WalRecord::CreateTable {
            name: "items".into(),
            columns: vec!["a".into(), "b".into()],
        }];
        w.append(&recs[0]);
        for seq in 1..=commits {
            let rec = WalRecord::Commit {
                seq,
                writeset: sample_ws(seq),
            };
            w.append(&rec);
            recs.push(rec);
        }
        (w, recs)
    }

    /// The bytewise method [`crc32`] replaced: one dependent table lookup
    /// a byte. The reference the slicing-by-8 loop is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bytewise_crc_at_every_length_and_alignment() {
        // Every tail length (0 – 7 bytes past whole words), several
        // whole words, and every start offset within a word.
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=72 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_equals_the_bytewise_crc_on_drawn_buffers(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn discard_pending_drops_only_the_unsealed_group() {
        // 1 create + 7 commits, group 3: two frames sealed, two pending.
        let (mut w, recs) = sample_log(7, 3);
        assert_eq!((w.sealed_records(), w.pending_records()), (6, 2));
        let sealed = w.bytes().to_vec();
        w.discard_pending();
        assert_eq!(w.pending_records(), 0);
        assert_eq!(w.bytes(), &sealed[..]);
        // The next group starts clean: the lost records never reappear.
        w.append(&WalRecord::Commit {
            seq: 6,
            writeset: sample_ws(6),
        });
        w.flush();
        let got = scan(w.bytes()).records;
        assert_eq!(got[..6], recs[..6]);
        assert_eq!(got.len(), 7);
        assert!(matches!(got[6], WalRecord::Commit { seq: 6, .. }));
    }

    #[test]
    fn round_trip_all_records() {
        let (mut w, recs) = sample_log(10, 4);
        w.flush();
        let got = scan(w.bytes());
        assert_eq!(got.records, recs);
        assert!(!got.truncated);
        assert_eq!(got.valid_len, w.bytes().len());
    }

    #[test]
    fn group_commit_seals_whole_groups_only() {
        let (w, _) = sample_log(10, 4);
        // 11 records, groups of 4: two sealed frames (8 records), 3 pending.
        assert_eq!(w.frames(), 2);
        assert_eq!(w.sealed_records(), 8);
        assert_eq!(w.pending_records(), 3);
        let got = scan(w.bytes());
        assert_eq!(got.records.len(), 8, "pending group is not durable");
        assert!(!got.truncated);
    }

    #[test]
    fn torn_tail_truncates_at_last_whole_frame() {
        let (mut w, _) = sample_log(8, 3);
        w.flush();
        let full = w.bytes().to_vec();
        let whole = scan(&full);
        // Cut mid-way through the last frame.
        let torn = &full[..full.len() - 5];
        let got = scan(torn);
        assert!(got.truncated);
        assert!(got.records.len() < whole.records.len());
        assert_eq!(got.records, whole.records[..got.records.len()]);
        // The valid prefix re-scans identically (idempotent repair).
        let again = scan(&torn[..got.valid_len]);
        assert!(!again.truncated);
        assert_eq!(again.records, got.records);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let (mut w, _) = sample_log(6, 2);
        w.flush();
        let mut bytes = w.bytes().to_vec();
        // Flip one payload bit in the second frame.
        let first_frame_len =
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + FRAME_HEADER;
        bytes[first_frame_len + FRAME_HEADER + 1] ^= 0x40;
        let got = scan(&bytes);
        assert!(got.truncated);
        assert_eq!(got.valid_len, first_frame_len);
        let clean = scan(&bytes[..first_frame_len]);
        assert_eq!(got.records, clean.records);
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let got = scan(&junk);
            assert!(got.records.is_empty() || got.valid_len > 0);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let (mut a, _) = sample_log(20, 5);
        let (mut b, _) = sample_log(20, 5);
        a.flush();
        b.flush();
        assert_eq!(a.bytes(), b.bytes());
    }

    #[test]
    #[should_panic(expected = "group commit batch")]
    fn zero_group_rejected() {
        let _ = WalWriter::new(0);
    }
}
