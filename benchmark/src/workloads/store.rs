//! `store_read` and `store_write`: the storage engine and the workload
//! generator driven directly, no simulator on top.
//!
//! `store_read` keeps a single transaction open at a time on one seeded
//! engine (`tpcw-browsing`, 95 % read-only): the read path, begin/commit
//! bookkeeping and the direct-mapped `RowMap`, with no overlapping
//! snapshots. `store_write` is the same layer used the other way: a
//! write-heavy mix with 16 interleaved open transactions, so
//! first-committer-wins aborts happen and version chains build, and every
//! committed writeset is applied to a second engine — update, certify,
//! abort, writeset extraction and apply, version growth and GC, and the
//! sparse-overflow `RowMap` for private rows. A read-path gain that taxes
//! writes shows here.
//!
//! Both run in *rounds* ending in a vacuum, transaction by transaction,
//! traced or not. One transaction is too short for a span of its own
//! (sampling takes 60 ns), and batching the sampling apart from the
//! execution changes what the allocator does (pre-sampling made a traced
//! `store_read` pass 50–60 % slower than an untraced one), so a traced
//! round keeps the interleaving, times every 16th `sample` and
//! `apply_writeset` call, scales the sums up, and records them as
//! aggregate children of the round's `sidb.txn` span
//! ([`Tracer::aggregate`]); the span's self time is then begin / execute
//! / commit.

use replipred::scenario::parse_workload;
use replipred::sidb::{Database, DbError, DbStats, TxnId, WriteSet};
use replipred::sim::Rng;
use replipred::workload::{CompiledWorkload, TxnTemplate, WorkloadSpec};

use super::{fnv1a, PassOutput, Size, FNV_OFFSET};
use crate::clock::Stopwatch;
use crate::trace::Tracer;

/// Seed scale of the read tables (update tables are always full size).
const SEED_SCALE: f64 = 0.05;

/// A seeded engine and its compiled workload.
#[derive(Debug)]
pub struct Engine {
    /// The database.
    pub db: Database,
    /// The plan compiled against it.
    pub plan: CompiledWorkload,
}

impl Engine {
    /// Creates the schema and seeds it at [`SEED_SCALE`].
    pub fn seeded(spec: &WorkloadSpec) -> Engine {
        let mut db = Database::new();
        let plan = spec
            .install(&mut db, SEED_SCALE)
            .expect("a fresh database accepts the workload's schema");
        Engine { db, plan }
    }

    /// Begins a transaction, runs the template's reads and writes, and
    /// leaves it open.
    fn open(&mut self, template: &TxnTemplate) -> Result<TxnId, DbError> {
        let txn = self.db.begin();
        self.plan.execute(&mut self.db, txn, template)?;
        Ok(txn)
    }
}

/// What a store pass leaves for its (untimed) check.
#[derive(Debug, Default)]
pub struct StoreRaw {
    attempts: u64,
    commits: u64,
    conflict_aborts: u64,
    errors: u64,
    applied: u64,
    versions_peak: u64,
    versions_reclaimed: u64,
    first_error: Option<String>,
}

impl StoreRaw {
    fn error(&mut self, e: &DbError) {
        self.errors += 1;
        self.first_error.get_or_insert_with(|| e.to_string());
    }

    /// Version-count high-water mark, sampled where it peaks: right
    /// before each vacuum.
    pub fn versions_peak(&self) -> u64 {
        self.versions_peak
    }

    /// Versions reclaimed by the pass's vacuums.
    pub fn versions_reclaimed(&self) -> u64 {
        self.versions_reclaimed
    }

    /// Commits ÷ attempts.
    pub fn commit_success_ratio(&self) -> f64 {
        self.commits as f64 / self.attempts.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// store_read
// ---------------------------------------------------------------------

/// Inputs of `store_read`.
#[derive(Debug)]
pub struct ReadState {
    seed: u64,
    txns: u64,
    engine: Engine,
}

/// Transactions between vacuums in `store_read`.
const READ_ROUND: u64 = 5_000;

/// Seeds one `tpcw-browsing` engine; a pass runs 2 M transactions on it.
pub fn setup_read(seed: u64, size: Size) -> ReadState {
    let spec = parse_workload("tpcw-browsing").expect("published workload");
    ReadState {
        seed,
        txns: size.scaled(2_000_000),
        engine: Engine::seeded(&spec),
    }
}

/// One pass of `store_read`: `sample → begin → execute → commit`, one
/// open transaction at a time, vacuum every [`READ_ROUND`] transactions.
pub fn pass_read(state: &mut ReadState, tracer: &mut Tracer) -> StoreRaw {
    let mut raw = StoreRaw::default();
    let mut rng = Rng::seed_from_u64(state.seed);
    let engine = &mut state.engine;
    let mut left = state.txns;
    while left > 0 {
        let round = left.min(READ_ROUND);
        left -= round;
        let span = tracer.enter_batch("sidb.txn", round);
        let mut sampling = Nanos::new(tracer);
        for _ in 0..round {
            let template = sampling.time(|| engine.plan.sample(&mut rng));
            run_alone(engine, &template, &mut raw);
        }
        tracer.exit(span);
        tracer.aggregate(span, "workload.sample", round, 0, sampling.total);
        vacuum(&mut engine.db, tracer, &mut raw);
    }
    raw
}

/// Estimates the summed time of many short calls — when tracing; an
/// untraced pass reads no clock. Two clock reads cost as much as the
/// sampling call they would time, so only every [`Nanos::STRIDE`]th call
/// is timed and counted that many times; which calls those are is
/// independent of what the seeded generator makes them do.
struct Nanos {
    on: bool,
    calls: u64,
    total: u64,
}

impl Nanos {
    const STRIDE: u64 = 16;

    fn new(tracer: &Tracer) -> Self {
        Nanos {
            on: tracer.is_enabled(),
            calls: 0,
            total: 0,
        }
    }

    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !self.on || self.calls % Self::STRIDE != 0 {
            return f();
        }
        let watch = Stopwatch::start();
        let out = f();
        self.total += watch.nanos() * Self::STRIDE;
        out
    }
}

fn run_alone(engine: &mut Engine, template: &TxnTemplate, raw: &mut StoreRaw) {
    raw.attempts += 1;
    match engine.open(template).and_then(|txn| engine.db.commit(txn)) {
        Ok(_) => raw.commits += 1,
        Err(e) => raw.error(&e),
    }
}

fn vacuum(db: &mut Database, tracer: &mut Tracer, raw: &mut StoreRaw) {
    raw.versions_peak = raw.versions_peak.max(db.version_count() as u64);
    let span = tracer.enter("sidb.vacuum");
    raw.versions_reclaimed += db.vacuum() as u64;
    tracer.exit(span);
}

/// Checks a `store_read` pass: a lone transaction can neither conflict
/// nor fail.
pub fn check_read(state: &ReadState, raw: &mut StoreRaw) -> PassOutput {
    let mut out = PassOutput {
        ops: raw.attempts,
        ..PassOutput::default()
    };
    out.checks.ok(raw.attempts);
    let stats = state.engine.db.stats();
    if raw.errors > 0 || stats.conflict_aborts > 0 {
        out.checks.failed += raw.errors + stats.conflict_aborts;
        out.checks.notes.push(format!(
            "{} engine errors (first: {:?}), {} conflict aborts with one open transaction",
            raw.errors, raw.first_error, stats.conflict_aborts
        ));
    }
    out.checks.op(raw.commits + raw.errors == raw.attempts, || {
        format!(
            "{} commits + {} errors != {} attempts",
            raw.commits, raw.errors, raw.attempts
        )
    });
    count_engine(&mut out, raw, &stats, &state.engine.db);
    out.digest = engine_digest(&state.engine.db, &stats);
    out
}

fn count_engine(out: &mut PassOutput, raw: &StoreRaw, stats: &DbStats, db: &Database) {
    out.count("commits_read_only", stats.read_only_commits);
    out.count("commits_update", stats.update_commits);
    out.count("conflict_aborts", stats.conflict_aborts);
    out.count("rows_read", stats.rows_read);
    out.count("rows_written", stats.rows_written);
    out.count("versions_peak", raw.versions_peak);
    out.count("versions_reclaimed", raw.versions_reclaimed);
    out.count("versions_end", db.version_count() as u64);
}

/// Cheap fingerprint of an engine's end state: its version and counters.
fn engine_digest(db: &Database, stats: &DbStats) -> u64 {
    let text = format!("{} {} {stats:?}", db.version(), db.version_count());
    fnv1a(FNV_OFFSET, text.as_bytes())
}

// ---------------------------------------------------------------------
// store_write
// ---------------------------------------------------------------------

/// Inputs of `store_write`.
#[derive(Debug)]
pub struct WriteState {
    seed: u64,
    attempts: u64,
    primary: Engine,
    replica: Engine,
}

/// Open transactions interleaved on the primary.
const OPEN_TXNS: usize = 16;
/// Attempts between vacuums of both engines (≈ 2 000 commits).
const WRITE_ROUND: u64 = 2_048;

/// Seeds two engines with `synth:write-heavy,hot=0.5,hot-rows=256`; a
/// pass runs 400 k transaction attempts on the first and applies every
/// committed writeset to the second.
pub fn setup_write(seed: u64, size: Size) -> WriteState {
    setup_write_with(seed, size.scaled(400_000))
}

/// [`setup_write`] with an explicit attempt count (the `sidb` layer
/// drive reuses the workload at a tenth of its size).
pub fn setup_write_with(seed: u64, attempts: u64) -> WriteState {
    let spec = parse_workload("synth:write-heavy,hot=0.5,hot-rows=256")
        .expect("a valid synthetic description");
    WriteState {
        seed,
        attempts,
        primary: Engine::seeded(&spec),
        replica: Engine::seeded(&spec),
    }
}

/// One pass of `store_write`: a sliding window of [`OPEN_TXNS`] open
/// transactions — each step commits the oldest (first committer wins;
/// the loser aborts) and opens a new one in its slot.
pub fn pass_write(state: &mut WriteState, tracer: &mut Tracer) -> StoreRaw {
    let mut raw = StoreRaw::default();
    let mut rng = Rng::seed_from_u64(state.seed);
    let mut open: Vec<Option<TxnId>> = vec![None; OPEN_TXNS];
    let mut slot = 0;
    let mut left = state.attempts;
    let WriteState {
        primary, replica, ..
    } = state;
    while left > 0 {
        let round = left.min(WRITE_ROUND);
        left -= round;
        let span = tracer.enter_batch("sidb.txn", round);
        let mut sampling = Nanos::new(tracer);
        let mut applying = Nanos::new(tracer);
        let applied_before = raw.applied;
        for _ in 0..round {
            let template = sampling.time(|| primary.plan.sample(&mut rng));
            if let Some(ws) = step(primary, &mut open[slot], &template, &mut raw) {
                applying.time(|| apply(replica, &ws, &mut raw));
            }
            slot = (slot + 1) % OPEN_TXNS;
        }
        tracer.exit(span);
        tracer.aggregate(span, "workload.sample", round, 0, sampling.total);
        tracer.aggregate(
            span,
            "sidb.apply",
            raw.applied - applied_before,
            sampling.total,
            applying.total,
        );
        if left == 0 {
            // Drain: the last transactions still open commit in order.
            let span = tracer.enter_batch("sidb.txn", OPEN_TXNS as u64);
            for _ in 0..OPEN_TXNS {
                if let Some(txn) = open[slot].take() {
                    if let Some(ws) = finish(primary, txn, &mut raw) {
                        apply(replica, &ws, &mut raw);
                    }
                }
                slot = (slot + 1) % OPEN_TXNS;
            }
            tracer.exit(span);
        }
        raw.versions_peak = raw.versions_peak.max(replica.db.version_count() as u64);
        vacuum(&mut primary.db, tracer, &mut raw);
        let span = tracer.enter("sidb.vacuum");
        raw.versions_reclaimed += replica.db.vacuum() as u64;
        tracer.exit(span);
    }
    raw
}

/// Commits the slot's transaction, if any, then opens `template` in it.
/// Returns the writeset of a committed update.
fn step(
    primary: &mut Engine,
    slot: &mut Option<TxnId>,
    template: &TxnTemplate,
    raw: &mut StoreRaw,
) -> Option<WriteSet> {
    let committed = slot.take().and_then(|txn| finish(primary, txn, raw));
    raw.attempts += 1;
    match primary.open(template) {
        Ok(txn) => *slot = Some(txn),
        Err(e) => raw.error(&e),
    }
    committed
}

fn finish(primary: &mut Engine, txn: TxnId, raw: &mut StoreRaw) -> Option<WriteSet> {
    match primary.db.commit(txn) {
        Ok(info) => {
            raw.commits += 1;
            (!info.writeset.is_empty()).then_some(info.writeset)
        }
        Err(DbError::WriteWriteConflict { .. }) => {
            raw.conflict_aborts += 1;
            None
        }
        Err(e) => {
            raw.error(&e);
            None
        }
    }
}

fn apply(replica: &mut Engine, ws: &WriteSet, raw: &mut StoreRaw) {
    match replica.db.apply_writeset(ws) {
        Ok(_) => raw.applied += 1,
        Err(e) => raw.error(&e),
    }
}

/// Checks a `store_write` pass: every attempt ended in a commit or a
/// conflict abort, and the replica that applied the committed writesets
/// holds the primary's durable state.
pub fn check_write(state: &WriteState, raw: &mut StoreRaw) -> PassOutput {
    let mut out = PassOutput {
        ops: raw.attempts,
        ..PassOutput::default()
    };
    out.checks.ok(raw.attempts);
    if raw.errors > 0 {
        out.checks.failed += raw.errors;
        out.checks.notes.push(format!(
            "{} engine errors, first: {:?}",
            raw.errors, raw.first_error
        ));
    }
    out.checks.op(
        raw.commits + raw.conflict_aborts + raw.errors == raw.attempts,
        || {
            format!(
                "{} commits + {} aborts + {} errors != {} attempts",
                raw.commits, raw.conflict_aborts, raw.errors, raw.attempts
            )
        },
    );
    // The durable image (version, schema, visible rows sorted by key) is
    // what `durable_state()` prints; comparing the images is the same
    // check at a fifth of the cost, which matters once per pass.
    out.checks.op(
        state.primary.db.checkpoint() == state.replica.db.checkpoint(),
        || "the replica's durable state differs from the primary's".to_string(),
    );
    let stats = state.primary.db.stats();
    count_engine(&mut out, raw, &stats, &state.primary.db);
    out.count("writesets_applied", raw.applied);
    out.digest = engine_digest(&state.primary.db, &stats);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_pass_is_identical_traced_and_untraced() {
        let mut plain = setup_read(5, Size::Smoke);
        plain.txns = 12_000;
        let mut raw = pass_read(&mut plain, &mut Tracer::disabled());
        let a = check_read(&plain, &mut raw);
        assert_eq!(a.checks.failed, 0, "{:?}", a.checks.notes);
        assert_eq!(a.ops, 12_000);

        let mut traced = setup_read(5, Size::Smoke);
        traced.txns = 12_000;
        let mut tracer = Tracer::enabled();
        let mut raw = pass_read(&mut traced, &mut tracer);
        assert_eq!(check_read(&traced, &mut raw), a);
        // 3 rounds: a txn span, its sampling aggregate, a vacuum each.
        assert_eq!(tracer.spans().len(), 9);
        let sampled: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "workload.sample")
            .map(|s| s.calls)
            .sum();
        assert_eq!(sampled, 12_000);
    }

    #[test]
    fn write_pass_aborts_some_and_keeps_the_replica_in_step() {
        let mut plain = setup_write(5, Size::Smoke);
        plain.attempts = 10_000;
        let mut raw = pass_write(&mut plain, &mut Tracer::disabled());
        let a = check_write(&plain, &mut raw);
        assert_eq!(a.checks.failed, 0, "{:?}", a.checks.notes);
        assert!(
            raw.conflict_aborts > 0,
            "the hot rows must produce conflicts"
        );
        assert!(raw.applied > 0 && raw.versions_reclaimed > 0);
        assert!(raw.commit_success_ratio() > 0.5 && raw.commit_success_ratio() < 1.0);

        let mut traced = setup_write(5, Size::Smoke);
        traced.attempts = 10_000;
        let mut raw = pass_write(&mut traced, &mut Tracer::enabled());
        assert_eq!(check_write(&traced, &mut raw), a);
    }
}
