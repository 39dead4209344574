//! Watermark snapshot checkpoints: the byte format of a durable base
//! image, and the vehicle of a state transfer.
//!
//! A [`Checkpoint`] captures the committed state visible at one version
//! — schema in table-id order, rows sorted by key — so restoring it and
//! replaying the [`crate::wal`] records past its sequence
//! ([`crate::Database::recover`]) reconstructs the database exactly. The
//! byte form is a single crc-guarded frame behind a magic header; like
//! the log, it is a pure function of the captured state, so equal
//! databases produce equal checkpoint bytes. A checkpoint is a value to
//! store or ship; what advances by replaying a log is a database.
//!
//! Capture ([`crate::Database::checkpoint`]) collapses history: the
//! restored database holds one version per row, at the checkpoint
//! sequence. Snapshots older than that sequence are unreadable by
//! construction, which is why [`crate::Database::restore`] pins the
//! vacuum watermark (`min_snapshot`) to it.

use std::collections::BTreeSet;
use std::fmt;

use crate::frame::{self, FrameError};
use crate::value::Row;
use crate::wal::{put_row, put_str, Build, Reader, FRAME_HEADER};

/// Magic prefix of a checkpoint image.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SIDBCKP1";

/// One table's captured schema and visible rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCheckpoint {
    /// Table name.
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// `(row key, data)` pairs visible at the checkpoint sequence,
    /// sorted by key.
    pub rows: Vec<(u64, Row)>,
}

/// The committed state visible at `seq`, for every table in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The database version the image was captured at.
    pub seq: u64,
    /// Tables in id (creation) order.
    pub tables: Vec<TableCheckpoint>,
}

/// Why a checkpoint image failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than magic + frame header.
    TooShort,
    /// Magic prefix mismatch (not a checkpoint image).
    BadMagic,
    /// Payload crc mismatch (torn or corrupted image).
    BadCrc,
    /// Crc passed but the payload did not decode (version skew or a
    /// codec bug).
    Malformed,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort => write!(f, "checkpoint image is too short"),
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::BadCrc => write!(f, "checkpoint crc mismatch"),
            CheckpointError::Malformed => write!(f, "checkpoint payload is malformed"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What a recovery pass did; see [`crate::Database::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Sequence of the last replayed commit (the recovery floor when no
    /// record replayed).
    pub last_seq: u64,
    /// Byte length of the log's valid prefix.
    pub wal_valid_len: usize,
    /// True when the log had a torn or corrupt tail past the prefix.
    pub wal_truncated: bool,
}

impl Checkpoint {
    /// Total captured rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Serializes to the on-disk image: magic, payload length, crc,
    /// payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            put_str(&mut payload, &t.name);
            payload.extend_from_slice(&(t.columns.len() as u32).to_le_bytes());
            for c in &t.columns {
                put_str(&mut payload, c);
            }
            payload.extend_from_slice(&(t.rows.len() as u32).to_le_bytes());
            for (key, row) in &t.rows {
                payload.extend_from_slice(&key.to_le_bytes());
                put_row(&mut payload, row);
            }
        }
        let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + FRAME_HEADER + payload.len());
        out.extend_from_slice(CHECKPOINT_MAGIC);
        frame::put(&mut out, &payload);
        out
    }

    /// Loads an image, verifying magic and crc.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first defect found;
    /// never panics on arbitrary bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + FRAME_HEADER {
            return Err(CheckpointError::TooShort);
        }
        let framed = bytes
            .strip_prefix(CHECKPOINT_MAGIC)
            .ok_or(CheckpointError::BadMagic)?;
        let (payload, _) = frame::take(framed).map_err(|e| match e {
            FrameError::Short => CheckpointError::TooShort,
            FrameError::BadCrc => CheckpointError::BadCrc,
        })?;
        decode_payload(payload).ok_or(CheckpointError::Malformed)
    }
}

/// Decodes a crc-verified payload. Besides the grammar, an image must be
/// one [`crate::Database::restore`] can build as it stands and
/// [`crate::Database::checkpoint`] writes: table names unique, and each
/// table's row keys strictly increasing.
fn decode_payload(payload: &[u8]) -> Option<Checkpoint> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    let mut names = BTreeSet::new();
    for _ in 0..ntables {
        let name = r.utf8()?;
        if !names.insert(name) {
            return None;
        }
        let ncols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            columns.push(r.str()?);
        }
        let nrows = r.u32()? as usize;
        let mut rows: Vec<(u64, Row)> = Vec::with_capacity(nrows.min(65_536));
        for _ in 0..nrows {
            let key = r.u64()?;
            if rows.last().is_some_and(|&(prev, _)| key <= prev) {
                return None;
            }
            rows.push((key, r.row::<Build>()?));
        }
        tables.push(TableCheckpoint {
            name: name.to_owned(),
            columns,
            rows,
        });
    }
    if !r.is_empty() {
        return None; // trailing bytes: not an image we wrote
    }
    Some(Checkpoint { seq, tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Checkpoint {
        Checkpoint {
            seq: 42,
            tables: vec![
                TableCheckpoint {
                    name: "items".into(),
                    columns: vec!["name".into(), "stock".into()],
                    rows: vec![
                        (1, [Value::text("a"), Value::Int(10)].into()),
                        (2, [Value::text("b"), Value::Int(20)].into()),
                    ],
                },
                TableCheckpoint {
                    name: "empty".into(),
                    columns: vec!["x".into()],
                    rows: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), cp);
        assert_eq!(cp.row_count(), 2);
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    /// A crc-valid image that repeats a table name used to load, and
    /// `Database::restore` (so `Database::recover`) then panicked.
    #[test]
    fn an_image_with_a_repeated_table_name_is_malformed() {
        let mut cp = sample();
        cp.tables[1].name = "items".into();
        assert_eq!(
            Checkpoint::from_bytes(&cp.to_bytes()),
            Err(CheckpointError::Malformed)
        );
    }

    /// A crc-valid image that lists a row key twice used to restore two
    /// versions at one sequence, the later silently winning.
    #[test]
    fn an_image_whose_row_keys_do_not_increase_is_malformed() {
        for keys in [[5, 5], [5, 4]] {
            let mut cp = sample();
            for (row, key) in cp.tables[0].rows.iter_mut().zip(keys) {
                row.0 = key;
            }
            assert_eq!(
                Checkpoint::from_bytes(&cp.to_bytes()),
                Err(CheckpointError::Malformed),
                "keys {keys:?}"
            );
        }
    }

    #[test]
    fn corrupt_image_is_rejected_not_panicked() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..4]),
            Err(CheckpointError::TooShort)
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            Checkpoint::from_bytes(&wrong_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            Checkpoint::from_bytes(&flipped),
            Err(CheckpointError::BadCrc)
        );
        let truncated = &bytes[..bytes.len() - 3];
        assert_eq!(
            Checkpoint::from_bytes(truncated),
            Err(CheckpointError::TooShort)
        );
    }
}
