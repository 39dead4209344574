//! Declarative workload descriptions, compiled statement plans and
//! transaction sampling.
//!
//! A [`WorkloadSpec`] names tables by string (it is a serializable,
//! human-editable description). Before a run it is **compiled** against a
//! database schema into a [`CompiledWorkload`]: every table name resolves
//! once to a dense [`TableId`], so the per-statement hot path — sampling
//! a transaction and executing it — performs zero name resolution and
//! allocates nothing but the row images it writes.

use replipred_sidb::{Database, DbError, Row, RowId, TableId, TxnId, Value};
use replipred_sim::Rng;
use serde::{Deserialize, Serialize};

/// One transaction class of a benchmark mix (e.g. "product-detail",
/// "buy-confirm").
///
/// Service demands are *means*; individual transactions sample
/// exponentially around them, matching the distributional assumption the
/// paper's MVA model inherits (Section 3.4, assumption 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnClass {
    /// Class name, for reporting.
    pub name: String,
    /// Relative sampling weight within the mix.
    pub weight: f64,
    /// True for update transactions.
    pub is_update: bool,
    /// Mean CPU demand per attempt, seconds.
    pub cpu: f64,
    /// Mean disk demand per attempt, seconds.
    pub disk: f64,
    /// Rows read by the transaction.
    pub reads: usize,
    /// *Shared* rows written (drawn from the common updatable space —
    /// these can conflict; e.g. TPC-W stock decrements).
    pub writes: usize,
    /// *Private* rows written (drawn from a practically collision-free
    /// keyspace — carts, freshly inserted order/bid rows). They contribute
    /// to the writeset size and `U`, but essentially never conflict,
    /// which is why the paper measures `A1 < 0.023%` on TPC-W.
    #[serde(default)]
    pub private_writes: usize,
}

/// Table that holds private (per-session) rows: carts, order lines, bids.
pub const PRIVATE_TABLE: &str = "session_data";

/// Hot-table stressor configuration: every update transaction writes
/// `writes` uniformly random rows of a small, fully replicated `heap`
/// table ([`crate::heap::HEAP_TABLE`]).
///
/// With `writes = 1` this is exactly the paper's Figure-14 abort
/// stressor; the synthetic workload family ([`crate::synth`]) generalizes
/// it into a *hotspot-skew* knob by steering a fraction of each update
/// transaction's shared writes into the hot table instead of the large
/// uniform update table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStress {
    /// Number of rows in the heap table; smaller → more conflicts.
    pub rows: u64,
    /// Hot-table writes per update transaction (distinct rows, capped at
    /// `rows`). The Figure-14 stressor uses 1.
    pub writes: usize,
}

/// A complete benchmark workload: mix, demands, schema and sampling rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (e.g. `"tpcw-shopping"`).
    pub name: String,
    /// Transaction classes with their weights.
    pub classes: Vec<TxnClass>,
    /// Mean client think time, seconds (paper: 1.0 s effective).
    pub think_time: f64,
    /// Closed-loop clients per replica (`C`, paper Table 2/4).
    pub clients_per_replica: usize,
    /// Mean CPU demand of applying one propagated writeset, seconds.
    pub ws_cpu: f64,
    /// Mean disk demand of applying one propagated writeset, seconds.
    pub ws_disk: f64,
    /// Table update transactions modify.
    pub update_table: String,
    /// Number of updatable rows (`DbUpdateSize`): update targets are drawn
    /// uniformly from `0..db_update_size` (paper assumption 4: no hotspot).
    pub db_update_size: u64,
    /// Read-target tables with their (fully seeded) row counts.
    pub read_tables: Vec<(String, u64)>,
    /// Optional abort stressor.
    pub heap: Option<HeapStress>,
}

/// A sampled transaction, ready to execute against a database and/or a
/// simulated resource pipeline. Row targets are pre-resolved ids — the
/// execution hot path never sees a table name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnTemplate {
    /// Index into [`WorkloadSpec::classes`].
    pub class: usize,
    /// True for update transactions.
    pub is_update: bool,
    /// Sampled CPU demand for this attempt, seconds.
    pub cpu_demand: f64,
    /// Sampled disk demand for this attempt, seconds.
    pub disk_demand: f64,
    /// Rows to read.
    pub reads: Vec<(TableId, RowId)>,
    /// Rows to write.
    pub writes: Vec<(TableId, RowId)>,
}

impl WorkloadSpec {
    /// Fraction of read-only transactions (`Pr`).
    pub fn pr(&self) -> f64 {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        self.classes
            .iter()
            .filter(|c| !c.is_update)
            .map(|c| c.weight)
            .sum::<f64>()
            / total
    }

    /// Fraction of update transactions (`Pw`).
    pub fn pw(&self) -> f64 {
        1.0 - self.pr()
    }

    /// Mean `U`: update operations per update transaction (weighted over
    /// update classes; includes the hot-table writes when configured).
    pub fn mean_update_ops(&self) -> f64 {
        let updates: Vec<&TxnClass> = self.classes.iter().filter(|c| c.is_update).collect();
        let w: f64 = updates.iter().map(|c| c.weight).sum();
        if w == 0.0 {
            return 0.0;
        }
        let base = updates
            .iter()
            .map(|c| c.weight * (c.writes + c.private_writes) as f64)
            .sum::<f64>()
            / w;
        base + self
            .heap
            .map_or(0.0, |h| h.writes.min(h.rows as usize) as f64)
    }

    /// Mean CPU demand of read-only transactions (`rc_cpu`).
    pub fn mean_read_cpu(&self) -> f64 {
        self.class_mean(|c| !c.is_update, |c| c.cpu)
    }

    /// Mean disk demand of read-only transactions (`rc_disk`).
    pub fn mean_read_disk(&self) -> f64 {
        self.class_mean(|c| !c.is_update, |c| c.disk)
    }

    /// Mean CPU demand of update transactions (`wc_cpu`).
    pub fn mean_write_cpu(&self) -> f64 {
        self.class_mean(|c| c.is_update, |c| c.cpu)
    }

    /// Mean disk demand of update transactions (`wc_disk`).
    pub fn mean_write_disk(&self) -> f64 {
        self.class_mean(|c| c.is_update, |c| c.disk)
    }

    fn class_mean(
        &self,
        filter: impl Fn(&TxnClass) -> bool,
        get: impl Fn(&TxnClass) -> f64,
    ) -> f64 {
        let matching: Vec<&TxnClass> = self.classes.iter().filter(|c| filter(c)).collect();
        let w: f64 = matching.iter().map(|c| c.weight).sum();
        if w == 0.0 {
            return 0.0;
        }
        matching.iter().map(|c| c.weight * get(c)).sum::<f64>() / w
    }

    /// Samples a think-time interval (exponential, paper Section 6.1).
    pub fn sample_think(&self, rng: &mut Rng) -> f64 {
        rng.exp(self.think_time)
    }

    /// Creates every table this workload touches. Ids are assigned in a
    /// fixed order (update table, read tables, private table, heap), so
    /// every replica of a workload agrees on them.
    ///
    /// # Errors
    ///
    /// Returns the engine's error when a table already exists.
    pub fn create_schema(&self, db: &mut Database) -> Result<(), DbError> {
        db.create_table(&self.update_table, &["payload", "counter", "version"])?;
        for (table, _) in &self.read_tables {
            if table != &self.update_table {
                db.create_table(table, &["payload", "counter", "version"])?;
            }
        }
        if self.classes.iter().any(|c| c.private_writes > 0) {
            db.create_table(PRIVATE_TABLE, &["payload", "counter", "version"])?;
        }
        if self.heap.is_some() {
            db.create_table(crate::heap::HEAP_TABLE, &["payload", "counter", "version"])?;
        }
        Ok(())
    }

    /// Compiles this spec against a database whose schema was created by
    /// [`WorkloadSpec::create_schema`], resolving every table name to its
    /// id once.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchTable`] when the schema is missing a
    /// table this workload references.
    pub fn compile(&self, db: &Database) -> Result<CompiledWorkload, DbError> {
        let resolve = |name: &str| {
            db.table_id(name)
                .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
        };
        let update_table = resolve(&self.update_table)?;
        let mut read_tables = Vec::with_capacity(self.read_tables.len());
        for (name, rows) in &self.read_tables {
            read_tables.push((resolve(name)?, *rows));
        }
        let private_table = if self.classes.iter().any(|c| c.private_writes > 0) {
            Some(resolve(PRIVATE_TABLE)?)
        } else {
            None
        };
        let heap_table = match self.heap {
            Some(_) => Some(resolve(crate::heap::HEAP_TABLE)?),
            None => None,
        };
        Ok(CompiledWorkload {
            class_weights: self.classes.iter().map(|c| c.weight).collect(),
            update_table,
            read_tables,
            private_table,
            heap_table,
            spec: self.clone(),
        })
    }

    /// One-stop setup for a fresh replica: creates the schema, seeds it
    /// at `scale`, and returns the compiled plan.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn install(&self, db: &mut Database, scale: f64) -> Result<CompiledWorkload, DbError> {
        self.create_schema(db)?;
        let plan = self.compile(db)?;
        plan.seed(db, scale)?;
        Ok(plan)
    }
}

/// A [`WorkloadSpec`] with every table reference resolved to a dense
/// [`TableId`] — the form the simulators and client pools run.
///
/// Compilation happens once per simulated cell: a run installs the spec
/// into one database, each cell compiles its own spec (its clients,
/// think time and mix) against that image and clones it, so every
/// replica runs the same plan against the same table ids.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkload {
    spec: WorkloadSpec,
    /// Pre-extracted class weights (avoids rebuilding per sample).
    class_weights: Vec<f64>,
    update_table: TableId,
    read_tables: Vec<(TableId, u64)>,
    private_table: Option<TableId>,
    heap_table: Option<TableId>,
}

impl CompiledWorkload {
    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The resolved update-table id.
    pub fn update_table(&self) -> TableId {
        self.update_table
    }

    /// The resolved heap-table id, when the abort stressor is on.
    pub fn heap_table(&self) -> Option<TableId> {
        self.heap_table
    }

    /// The resolved private-table id, when any class writes private rows.
    pub fn private_table(&self) -> Option<TableId> {
        self.private_table
    }

    /// Samples one transaction.
    ///
    /// Update targets are drawn *without replacement* from the updatable
    /// row space; read targets are drawn from the read tables.
    pub fn sample(&self, rng: &mut Rng) -> TxnTemplate {
        let spec = &self.spec;
        let class = rng.weighted_index(&self.class_weights);
        let c = &spec.classes[class];
        let cpu_demand = rng.exp(c.cpu);
        let disk_demand = rng.exp(c.disk);
        let mut reads = Vec::with_capacity(c.reads);
        if !self.read_tables.is_empty() {
            for _ in 0..c.reads {
                let (table, rows) = self.read_tables[rng.index(self.read_tables.len())];
                reads.push((table, RowId(rng.below(rows.max(1)))));
            }
        }
        let mut writes = Vec::new();
        if c.is_update {
            // Distinct rows of the update table.
            while writes.len() < c.writes.min(spec.db_update_size as usize) {
                let row = RowId(rng.below(spec.db_update_size));
                if !writes.iter().any(|&(_, r)| r == row) {
                    writes.push((self.update_table, row));
                }
            }
            // Private rows: a 2^48 keyspace makes collisions (and hence
            // conflicts) negligible, like per-session cart rows.
            for _ in 0..c.private_writes {
                let table = self.private_table.expect("compiled with private rows");
                writes.push((table, RowId(rng.next_u64() >> 16)));
            }
            if let Some(h) = spec.heap {
                let table = self.heap_table.expect("compiled with the heap stressor");
                // Distinct hot rows (capped at the table size).
                let start = writes.len();
                let want = h.writes.min(h.rows as usize);
                while writes.len() - start < want {
                    let row = RowId(rng.below(h.rows));
                    if !writes[start..].iter().any(|&(_, r)| r == row) {
                        writes.push((table, row));
                    }
                }
            }
        }
        TxnTemplate {
            class,
            is_update: c.is_update,
            cpu_demand,
            disk_demand,
            reads,
            writes,
        }
    }

    /// Seeds the schema. The update table and heap table are seeded
    /// *fully* (conflict behaviour depends on their exact sizes); read
    /// tables are scaled by `scale` (1.0 = benchmark-standard sizes).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn seed(&self, db: &mut Database, scale: f64) -> Result<(), DbError> {
        let txn = db.begin();
        for row in 0..self.spec.db_update_size {
            db.insert(txn, self.update_table, RowId(row), payload(row))?;
        }
        for &(table, rows) in &self.read_tables {
            if table == self.update_table {
                continue;
            }
            let n = ((rows as f64 * scale).ceil() as u64).max(1);
            for row in 0..n {
                db.insert(txn, table, RowId(row), payload(row))?;
            }
        }
        if let (Some(h), Some(heap)) = (self.spec.heap, self.heap_table) {
            for row in 0..h.rows {
                db.insert(txn, heap, RowId(row), payload(row))?;
            }
        }
        db.commit(txn).expect("seed transaction cannot conflict");
        Ok(())
    }

    /// Executes the template's reads and writes against a database
    /// transaction (the logical part; resource consumption is simulated
    /// separately). Missing read rows are tolerated (scaled-down seeds).
    ///
    /// # Errors
    ///
    /// Propagates engine errors other than missing read rows.
    pub fn execute(
        &self,
        db: &mut Database,
        txn: TxnId,
        template: &TxnTemplate,
    ) -> Result<(), DbError> {
        for &(table, row) in &template.reads {
            // Reads of rows beyond the scaled seed just return None.
            let _ = db.read(txn, table, row)?;
        }
        for &(table, row) in &template.writes {
            // Read-modify-write: bump the counter column, or materialize
            // the row (private/per-session rows are created on first use).
            // Writing into the shared image makes this transaction's copy
            // of it — the one allocation the new version ever is, here,
            // in the writeset and on every replica. `read` misses exactly
            // when `update` would refuse with `NoSuchRow`, so a miss
            // inserts at once.
            match db.read(txn, table, row)? {
                Some(current) => {
                    let mut next = current.clone();
                    if let Value::Int(c) = next[1] {
                        next[1] = Value::Int(c + 1);
                    }
                    db.update(txn, table, row, next)?;
                }
                None => db.insert(txn, table, row, payload(row.raw()))?,
            }
        }
        Ok(())
    }
}

/// Filler of every payload text, after the row number.
const PAYLOAD_FILL: &str = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";

/// Standard row payload: sized so that a `U = 3` writeset is close to
/// the paper's ~275-byte average. The text is `row-`, the row number
/// zero-padded to at least 8 digits, `-` and 48 `x` (61 bytes below row
/// 10⁸), written into one allocation of exactly that size.
fn payload(row: u64) -> Row {
    // u64::MAX has 20 digits; the buffer starts as the zero padding.
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    let mut rest = row;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let number = &digits[start.min(digits.len() - 8)..];
    let mut text = String::with_capacity("row-".len() + number.len() + 1 + PAYLOAD_FILL.len());
    text.push_str("row-");
    text.extend(number.iter().map(|&d| char::from(d)));
    text.push('-');
    text.push_str(PAYLOAD_FILL);
    Row::from([Value::Text(text), Value::Int(0), Value::Int(row as i64)])
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::tpcw;

    fn spec() -> WorkloadSpec {
        tpcw::mix(tpcw::Mix::Shopping)
    }

    fn installed() -> (Database, CompiledWorkload) {
        let mut db = Database::new();
        let plan = spec().install(&mut db, 0.01).unwrap();
        (db, plan)
    }

    #[test]
    fn fractions_match_mix() {
        let s = spec();
        assert!((s.pr() - 0.80).abs() < 1e-12);
        assert!((s.pw() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn class_means_match_table3() {
        let s = spec();
        assert!((s.mean_read_cpu() - 0.04143).abs() < 1e-9);
        assert!((s.mean_read_disk() - 0.01511).abs() < 1e-9);
        assert!((s.mean_write_cpu() - 0.01251).abs() < 1e-9);
        assert!((s.mean_write_disk() - 0.00605).abs() < 1e-9);
    }

    #[test]
    fn sampling_respects_mix_fractions() {
        let (_, plan) = installed();
        let mut rng = Rng::seed_from_u64(7);
        let n = 20_000;
        let updates = (0..n).filter(|_| plan.sample(&mut rng).is_update).count();
        let frac = updates as f64 / n as f64;
        assert!((frac - 0.20).abs() < 0.01, "update fraction {frac}");
    }

    #[test]
    fn sampled_demands_average_to_means() {
        let (_, plan) = installed();
        let mut rng = Rng::seed_from_u64(11);
        let mut read_cpu = 0.0;
        let mut reads = 0usize;
        for _ in 0..50_000 {
            let t = plan.sample(&mut rng);
            if !t.is_update {
                read_cpu += t.cpu_demand;
                reads += 1;
            }
        }
        let mean = read_cpu / reads as f64;
        let want = plan.spec().mean_read_cpu();
        assert!((mean - want).abs() / want < 0.05, "mean {mean}");
    }

    #[test]
    fn update_targets_are_distinct_and_in_range() {
        let (_, plan) = installed();
        let s = plan.spec().clone();
        let mut rng = Rng::seed_from_u64(13);
        for _ in 0..1000 {
            let t = plan.sample(&mut rng);
            if t.is_update {
                let mut rows: Vec<u64> = t.writes.iter().map(|(_, r)| r.raw()).collect();
                rows.sort_unstable();
                let len = rows.len();
                rows.dedup();
                assert_eq!(rows.len(), len, "duplicate write targets");
                assert!(t
                    .writes
                    .iter()
                    .all(|&(tbl, r)| tbl != plan.update_table() || r.raw() < s.db_update_size));
            }
        }
    }

    #[test]
    fn schema_seed_and_execute_roundtrip() {
        let (mut db, plan) = installed();
        assert_eq!(
            db.live_rows(plan.update_table()).unwrap() as u64,
            plan.spec().db_update_size
        );
        let mut rng = Rng::seed_from_u64(17);
        // Execute a handful of sampled transactions serially: all commit.
        for _ in 0..50 {
            let template = plan.sample(&mut rng);
            let txn = db.begin();
            plan.execute(&mut db, txn, &template).unwrap();
            db.commit(txn).unwrap();
        }
        assert!(db.stats().abort_probability() == 0.0);
    }

    #[test]
    fn executing_update_increments_counter() {
        let (mut db, plan) = installed();
        let template = TxnTemplate {
            class: 0,
            is_update: true,
            cpu_demand: 0.01,
            disk_demand: 0.01,
            reads: vec![],
            writes: vec![(plan.update_table(), RowId(5))],
        };
        for _ in 0..3 {
            let txn = db.begin();
            plan.execute(&mut db, txn, &template).unwrap();
            db.commit(txn).unwrap();
        }
        let txn = db.begin();
        let row = db
            .read(txn, plan.update_table(), RowId(5))
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(3));
    }

    #[test]
    fn mean_update_ops_counts_heap_extra() {
        let mut s = spec();
        let base = s.mean_update_ops();
        s.heap = Some(HeapStress {
            rows: 100,
            writes: 1,
        });
        assert!((s.mean_update_ops() - (base + 1.0)).abs() < 1e-12);
        s.heap = Some(HeapStress {
            rows: 100,
            writes: 3,
        });
        assert!((s.mean_update_ops() - (base + 3.0)).abs() < 1e-12);
        // Writes are capped at the table size.
        s.heap = Some(HeapStress { rows: 2, writes: 5 });
        assert!((s.mean_update_ops() - (base + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn compile_requires_the_schema() {
        let db = Database::new();
        assert!(matches!(spec().compile(&db), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn replicas_compile_to_identical_plans() {
        let (_, a) = installed();
        let (_, b) = installed();
        assert_eq!(a, b);
    }

    /// The reference text, through `format!`.
    fn formatted(row: u64) -> String {
        format!("row-{row:08}-{}", "x".repeat(48))
    }

    /// The payload's text, checked to fill its allocation exactly.
    fn text_of(row: u64) -> String {
        match &payload(row)[0] {
            Value::Text(text) => {
                assert_eq!(text.capacity(), text.len(), "row {row}: spare capacity");
                text.clone()
            }
            other => panic!("payload text is {other:?}"),
        }
    }

    #[test]
    fn payload_text_is_the_formatted_text() {
        for row in [0, 9, 10, 99_999_999, 100_000_000, (1 << 48) - 1, u64::MAX] {
            assert_eq!(text_of(row), formatted(row), "row {row}");
        }
        assert_eq!(text_of(7).len(), 61);
        let row = payload(42);
        assert_eq!(row[1..], [Value::Int(0), Value::Int(42)]);
    }

    proptest! {
        #[test]
        fn payload_text_matches_format_for_any_row(row in 0..u64::MAX, shift in 0u32..64) {
            // The shift spreads the draws over every digit count.
            let row = row >> shift;
            prop_assert_eq!(text_of(row), formatted(row));
        }
    }

    #[test]
    fn writeset_size_near_paper_value() {
        // Paper: average TPC-W writeset is 275 bytes. Allow a generous
        // band — what matters is the order of magnitude for LAN transfer.
        let (mut db, plan) = installed();
        let mut rng = Rng::seed_from_u64(23);
        let mut sizes = Vec::new();
        while sizes.len() < 100 {
            let t = plan.sample(&mut rng);
            if !t.is_update {
                continue;
            }
            let txn = db.begin();
            plan.execute(&mut db, txn, &t).unwrap();
            let info = db.commit(txn).unwrap();
            sizes.push(info.writeset.wire_size());
        }
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((150.0..500.0).contains(&avg), "avg writeset {avg} B");
    }
}
