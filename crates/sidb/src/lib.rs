//! An in-memory multi-version storage engine with snapshot isolation,
//! built around interned ids and version-chain arenas.
//!
//! This crate plays the role PostgreSQL 8.0.3 played in the paper: a
//! standalone database engine providing **snapshot isolation (SI)** —
//! the optimistic multi-version concurrency-control model described in
//! Section 2 of the paper ([Berenson 1995]):
//!
//! - When a transaction begins it receives a *snapshot*: the most recent
//!   committed state of the database. The snapshot is unaffected by
//!   concurrently running transactions.
//! - Read-only transactions always commit; they never block and are never
//!   blocked.
//! - An update transaction commits only if it has no **write-write
//!   conflict** with any committed update transaction that ran
//!   concurrently (*first committer wins*); otherwise it aborts.
//! - Conflict granularity is a row (a tuple in a relation).
//!
//! # Architecture
//!
//! The engine is designed so that the per-statement hot path — the paths
//! the cluster simulators execute millions of times per sweep — performs
//! no string hashing and no allocation, and so that a committed row is
//! allocated once however far it travels:
//!
//! - **Shared row images** ([`value`]): a [`Row`] is a copy-on-write
//!   `Arc<[Value]>`. The image a transaction hands to
//!   [`Database::insert`] / [`Database::update`] *is* the version in the
//!   table, the item in the extracted writeset, the version every replica
//!   installs from that writeset and the row of every checkpoint and
//!   durable image; `Clone` on a row, a writeset item or a whole
//!   [`Database`] bumps reference counts and copies no cell. The only
//!   copy is the one a caller makes by mutating a row it shares
//!   (read-modify-write: clone what [`Database::read`] returned, edit it).
//! - **Interning** ([`ids`]): table names resolve once, at schema
//!   creation, to dense [`TableId`]s; rows are addressed by [`RowId`]
//!   keys. Replicas creating the same schema in the same order agree on
//!   every id, so writesets and certification requests carry ids across
//!   the cluster. Inside each table, row keys intern to dense storage
//!   slots via a direct-mapped vector with an Fx-hashed sparse overflow
//!   ([`rowmap`]).
//! - **Version-chain arenas** ([`table`]): committed row versions live in
//!   one arena per table, chained newest-first per row; the newest commit
//!   sequence per row is a flat vector — certification is one array load
//!   per written row. **Watermark GC** ([`Database::vacuum`]) frees every
//!   version below the oldest active snapshot into a free list, so
//!   version counts stay bounded over arbitrarily long captures. Each
//!   table lists the rows that have more than one version, and a vacuum
//!   visits only those: it costs what was written since the last one,
//!   not the size of the database.
//! - **Flat writesets** ([`writeset`]): a [`writeset::WriteSet`] is a
//!   `Vec` of `(TableId, RowId, WriteOp, image)` records, extracted
//!   without re-walking any table ("triggers on all tables", paper
//!   Sections 4.1.1 and 5.1), used for both certification and update
//!   propagation, and applied remotely via [`Database::apply_writeset`]
//!   (the slave/replica-proxy code path).
//! - **Activity counters** ([`DbStats`]): commits, aborts, rows and
//!   write statements fold as transactions retire; the Section-4
//!   profiler reads its log counts from them.
//! - **Durability** ([`wal`], [`checkpoint`]): a crc-framed redo log
//!   with group commit plus watermark snapshot checkpoints. Recovery
//!   ([`Database::recover`]) loads a checkpoint and replays the log's
//!   valid prefix a frame at a time ([`Database::replay`]: one group's
//!   records in memory, whatever the log's length), truncating at the
//!   first torn or corrupt frame. Each decoded commit goes through
//!   [`Database::replay_commit`], the checked step a typed log and a
//!   remote apply use too. The result is byte-identical (per
//!   [`Database::durable_state`]) to a reference engine replayed to the
//!   last whole group commit. Both
//!   byte formats are pure functions of the logged history, keeping the
//!   workspace determinism contract intact for durable state.
//!
//! # Examples
//!
//! ```
//! use replipred_sidb::{Database, RowId, Value};
//!
//! let mut db = Database::new();
//! let items = db.create_table("items", &["name", "stock"]).unwrap();
//! // Seed a row.
//! let t0 = db.begin();
//! db.insert(t0, items, RowId(1), vec![Value::text("book"), Value::Int(10)]).unwrap();
//! db.commit(t0).unwrap();
//!
//! // Two concurrent updates of the same row: first committer wins.
//! let t1 = db.begin();
//! let t2 = db.begin();
//! db.update(t1, items, RowId(1), vec![Value::text("book"), Value::Int(9)]).unwrap();
//! db.update(t2, items, RowId(1), vec![Value::text("book"), Value::Int(8)]).unwrap();
//! assert!(db.commit(t1).is_ok());
//! assert!(db.commit(t2).is_err()); // write-write conflict under SI
//! ```

pub mod checkpoint;
pub mod db;
pub mod error;
mod frame;
pub mod ids;
pub mod rowmap;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;
pub mod writeset;

pub use checkpoint::{Checkpoint, CheckpointError, RecoveryReport, TableCheckpoint};
pub use db::{CommitInfo, Database, DbStats};
pub use error::DbError;
pub use ids::{RowId, TableId};
pub use rowmap::{FxBuildHasher, FxHashMap, RowMap};
pub use txn::{TxnId, TxnStatus};
pub use value::{Row, Value};
pub use wal::{crc32, scan, WalRecord, WalScan, WalWriter, FRAME_HEADER};
pub use writeset::{WriteItem, WriteOp, WriteSet};
