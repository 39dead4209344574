//! Synthetic workload family: a parameterized generator of valid
//! [`WorkloadSpec`]s spanning the continuous workload space around the
//! paper's five published mixes.
//!
//! The paper validates its predictors at five points — the TPC-W and
//! RUBiS mixes. [`SynthSpec`] turns that handful into a *family*:
//! continuous knobs for the update fraction, per-class CPU/disk demand
//! ranges, transaction length (logical operations per transaction),
//! hotspot skew (the fraction of shared writes steered into a small hot
//! table, generalizing the Figure-14 stressor in [`crate::heap`]), think
//! time, and table count/scale. Every combination builds into an
//! installable, profilable, simulatable [`WorkloadSpec`], so the
//! prediction-vs-simulation validation grid (`replipred validate`) can
//! sweep workload space instead of replaying five hand-written points.
//!
//! # Named presets
//!
//! [`SynthSpec::preset`] names the corners of the space (see
//! [`PRESETS`]): `read-only`, `write-heavy`, `long-txn`, `hot-spot`,
//! `ycsb-a` and `ycsb-b`.
//!
//! # Grammar
//!
//! [`parse`] accepts the CLI's `synth:` payload: either a preset name, a
//! comma-separated `key=value` list over the balanced default, or a
//! preset followed by overrides. Demand knobs take a single value or a
//! `lo..hi` range that is spread linearly across the classes:
//!
//! ```text
//! synth:write-heavy
//! synth:pw=0.35,reads=8,writes=4,hot=0.5,hot-rows=256
//! synth:ycsb-a,think=0.5,clients=80
//! ```
//!
//! # Examples
//!
//! ```
//! use replipred_sidb::Database;
//! use replipred_workload::synth::SynthSpec;
//!
//! // A custom point in workload space: 40% updates, long transactions,
//! // half of every update's shared writes aimed at a 256-row hot table.
//! let spec = SynthSpec {
//!     update_fraction: 0.4,
//!     reads_per_txn: 10,
//!     writes_per_txn: 4,
//!     hot_skew: 0.5,
//!     hot_rows: 256,
//!     ..SynthSpec::new()
//! }
//! .build()
//! .unwrap();
//! assert!((spec.pw() - 0.4).abs() < 1e-9);
//!
//! // Every synthetic spec installs against a fresh database like the
//! // published benchmarks do.
//! let mut db = Database::new();
//! let plan = spec.install(&mut db, 0.01).unwrap();
//! let mut rng = replipred_sim::Rng::seed_from_u64(1);
//! assert!(plan.sample(&mut rng).cpu_demand >= 0.0);
//! ```

use crate::spec::{HeapStress, TxnClass, WorkloadSpec};

/// The named presets [`SynthSpec::preset`] understands, spanning the
/// corners of the synthetic workload space.
pub const PRESETS: [&str; 6] = [
    "read-only",
    "write-heavy",
    "long-txn",
    "hot-spot",
    "ycsb-a",
    "ycsb-b",
];

/// What can go wrong while parsing or building a synthetic workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The input named no preset and contained no `key=value` pairs.
    Empty,
    /// The first token was neither a preset name nor `key=value`.
    UnknownPreset(String),
    /// A `key=value` pair used an unknown key.
    UnknownKey(String),
    /// A value failed to parse for its key.
    BadValue {
        /// The knob being set.
        key: String,
        /// The offending value text.
        value: String,
    },
    /// The assembled knobs violate a build-time invariant.
    Invalid(String),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Empty => write!(f, "empty synth workload description"),
            SynthError::UnknownPreset(p) => {
                let known = PRESETS.join(", ");
                write!(f, "unknown synth preset `{p}` (known: {known})")
            }
            SynthError::UnknownKey(k) => write!(f, "unknown synth knob `{k}`"),
            SynthError::BadValue { key, value } => {
                write!(f, "bad value `{value}` for synth knob `{key}`")
            }
            SynthError::Invalid(why) => write!(f, "invalid synth workload: {why}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// One point of the synthetic workload family; the knobs are the fields.
///
/// Start from [`SynthSpec::new`] (the balanced default, a
/// TPC-W-shopping-like 80/20 mix), [`SynthSpec::preset`] or
/// [`SynthSpec::parse`], set fields, then [`SynthSpec::build`] a
/// [`WorkloadSpec`], which validates every knob.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Workload name carried into the generated spec and its reports.
    pub name: String,
    /// Fraction of update transactions (`Pw`), in `[0, 1]`.
    pub update_fraction: f64,
    /// Number of read-only transaction classes (demands spread linearly
    /// across the demand range).
    pub read_classes: usize,
    /// Number of update transaction classes.
    pub update_classes: usize,
    /// Per-class mean CPU demand range `(lo, hi)` for read classes,
    /// seconds. The class mean over equal weights is `(lo + hi) / 2`.
    pub read_cpu: (f64, f64),
    /// Per-class mean disk demand range for read classes, seconds.
    pub read_disk: (f64, f64),
    /// Per-class mean CPU demand range for update classes, seconds.
    pub write_cpu: (f64, f64),
    /// Per-class mean disk demand range for update classes, seconds.
    pub write_disk: (f64, f64),
    /// Writeset-application cost as a fraction of the mean update demand
    /// (the paper's `ws` is always cheaper than the original `wc`).
    pub ws_fraction: f64,
    /// Rows read per transaction — read-only *and* update classes alike
    /// (the read half of the txn-length knob; under snapshot isolation
    /// logical reads never conflict, so this only stretches the
    /// transaction's footprint).
    pub reads_per_txn: usize,
    /// Shared rows written per update transaction (the conflict-prone
    /// half of the txn-length knob; hotspot skew steers a fraction of
    /// these into the hot table).
    pub writes_per_txn: usize,
    /// Private (practically collision-free) rows written per update
    /// transaction — carts, freshly inserted rows.
    pub private_writes: usize,
    /// Fraction of each update's shared writes steered into the small hot
    /// table, in `[0, 1]` (rounded to whole writes per transaction).
    /// Generalizes the Figure-14 stressor: `0.0` is the paper's uniform
    /// assumption 4, higher values concentrate conflicts.
    pub hot_skew: f64,
    /// Rows in the hot table; smaller → more conflicts.
    pub hot_rows: u64,
    /// Mean client think time, seconds (must be positive — the closed
    /// loop needs a pacing delay).
    pub think_time: f64,
    /// Closed-loop clients per replica (`C`).
    pub clients_per_replica: usize,
    /// Number of read-target tables.
    pub tables: usize,
    /// Rows per read table at scale 1.0.
    pub rows_per_table: u64,
    /// Size of the shared updatable row space (`DbUpdateSize`).
    pub update_rows: u64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SynthSpec {
    /// The balanced default: an 80/20 mix with TPC-W-shopping-like
    /// demands, four read classes and two update classes.
    pub fn new() -> Self {
        SynthSpec {
            name: "synth:custom".to_string(),
            update_fraction: 0.20,
            read_classes: 4,
            update_classes: 2,
            read_cpu: (0.02, 0.06),
            read_disk: (0.008, 0.022),
            write_cpu: (0.008, 0.017),
            write_disk: (0.004, 0.008),
            ws_fraction: 0.30,
            reads_per_txn: 4,
            writes_per_txn: 2,
            private_writes: 1,
            hot_skew: 0.0,
            hot_rows: 1024,
            think_time: 1.0,
            clients_per_replica: 40,
            tables: 3,
            rows_per_table: 20_000,
            update_rows: 10_000,
        }
    }

    /// A named corner of the space (see [`PRESETS`]); `None` for unknown
    /// names.
    pub fn preset(name: &str) -> Option<Self> {
        let base = SynthSpec {
            name: format!("synth:{name}"),
            ..SynthSpec::new()
        };
        // YCSB-like: single-record reads and updates, short think time,
        // cheap operations; the two presets differ in the mix.
        let ycsb = |update_fraction| SynthSpec {
            update_fraction,
            read_classes: 1,
            update_classes: 1,
            read_cpu: (0.004, 0.004),
            read_disk: (0.006, 0.006),
            write_cpu: (0.004, 0.004),
            write_disk: (0.008, 0.008),
            ws_fraction: 0.50,
            reads_per_txn: 1,
            writes_per_txn: 1,
            private_writes: 0,
            think_time: 0.25,
            clients_per_replica: 50,
            tables: 1,
            ..base.clone()
        };
        Some(match name {
            // Pure reads: every replica serves its clients locally with no
            // writeset propagation, so multi-master scaling is near-linear
            // (the rubis-browsing corner, at higher load).
            "read-only" => SynthSpec {
                update_fraction: 0.0,
                clients_per_replica: 50,
                ..base
            },
            // 60% updates with expensive writesets: replicas spend most of
            // their capacity applying remote writesets, the anti-corner of
            // linear scaling.
            "write-heavy" => SynthSpec {
                update_fraction: 0.60,
                write_cpu: (0.012, 0.028),
                write_disk: (0.012, 0.028),
                ws_fraction: 0.60,
                reads_per_txn: 2,
                writes_per_txn: 3,
                ..base
            },
            // Long transactions: many logical operations and large
            // demands stretch L(1), widening the conflict window that
            // drives the abort model.
            "long-txn" => SynthSpec {
                update_fraction: 0.30,
                read_cpu: (0.06, 0.14),
                read_disk: (0.03, 0.07),
                write_cpu: (0.03, 0.07),
                write_disk: (0.02, 0.04),
                ws_fraction: 0.40,
                reads_per_txn: 16,
                writes_per_txn: 6,
                private_writes: 2,
                update_rows: 5_000,
                think_time: 2.0,
                clients_per_replica: 30,
                ..base
            },
            // Half of every update's shared writes land in a 128-row hot
            // table: the generalized Figure-14 stressor, with elevated
            // standalone aborts that amplify with the replica count.
            "hot-spot" => SynthSpec {
                hot_skew: 0.5,
                hot_rows: 128,
                ..base
            },
            // 50/50, like YCSB-A.
            "ycsb-a" => ycsb(0.50),
            // 95/5, like YCSB-B.
            "ycsb-b" => ycsb(0.05),
            _ => return None,
        })
    }

    /// Parses the `synth:` payload — a preset name, `key=value` pairs, or
    /// a preset followed by `key=value` overrides.
    ///
    /// # Errors
    ///
    /// Returns the parse-level [`SynthError`] variants; build-time
    /// validation happens in [`SynthSpec::build`].
    pub fn parse(input: &str) -> Result<Self, SynthError> {
        let mut tokens = input
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .peekable();
        let first = tokens.peek().copied().ok_or(SynthError::Empty)?;
        let mut spec = if first.contains('=') {
            SynthSpec::new()
        } else {
            tokens.next();
            SynthSpec::preset(first).ok_or_else(|| SynthError::UnknownPreset(first.to_string()))?
        };
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| SynthError::UnknownKey(token.to_string()))?;
            spec.apply(key.trim(), value.trim())?;
        }
        // The report echoes exactly what the user asked for.
        spec.name = format!("synth:{}", input.trim());
        Ok(spec)
    }

    fn apply(&mut self, key: &str, value: &str) -> Result<(), SynthError> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SynthError> {
            value.parse().map_err(|_| SynthError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            })
        }
        fn range(key: &str, value: &str) -> Result<(f64, f64), SynthError> {
            let (lo, hi) = value.split_once("..").unwrap_or((value, value));
            Ok((num(key, lo)?, num(key, hi)?))
        }
        match key.replace('_', "-").as_str() {
            "pw" | "update-fraction" => self.update_fraction = num(key, value)?,
            "read-classes" => self.read_classes = num(key, value)?,
            "update-classes" => self.update_classes = num(key, value)?,
            "read-cpu" => self.read_cpu = range(key, value)?,
            "read-disk" => self.read_disk = range(key, value)?,
            "write-cpu" => self.write_cpu = range(key, value)?,
            "write-disk" => self.write_disk = range(key, value)?,
            "ws" | "ws-fraction" => self.ws_fraction = num(key, value)?,
            "reads" => self.reads_per_txn = num(key, value)?,
            "writes" => self.writes_per_txn = num(key, value)?,
            "private" => self.private_writes = num(key, value)?,
            "hot" | "hot-skew" => self.hot_skew = num(key, value)?,
            "hot-rows" => self.hot_rows = num(key, value)?,
            "think" => self.think_time = num(key, value)?,
            "clients" => self.clients_per_replica = num(key, value)?,
            "tables" => self.tables = num(key, value)?,
            "rows" => self.rows_per_table = num(key, value)?,
            "update-rows" => self.update_rows = num(key, value)?,
            _ => return Err(SynthError::UnknownKey(key.to_string())),
        }
        Ok(())
    }

    /// Builds the [`WorkloadSpec`], validating every knob.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Invalid`] when a knob is out of range or the
    /// combination is degenerate (e.g. updates requested but no update
    /// operations configured).
    pub fn build(&self) -> Result<WorkloadSpec, SynthError> {
        let invalid = |why: String| Err(SynthError::Invalid(why));
        let pw = self.update_fraction;
        if !(0.0..=1.0).contains(&pw) {
            return invalid(format!("update fraction {pw} must be in [0, 1]"));
        }
        for (name, (lo, hi)) in [
            ("read-cpu", self.read_cpu),
            ("read-disk", self.read_disk),
            ("write-cpu", self.write_cpu),
            ("write-disk", self.write_disk),
        ] {
            if !(lo.is_finite() && hi.is_finite() && lo >= 0.0 && hi >= lo) {
                return invalid(format!(
                    "{name} range {lo}..{hi} must be finite with 0 <= lo <= hi"
                ));
            }
        }
        if !(self.ws_fraction.is_finite() && self.ws_fraction >= 0.0) {
            return invalid(format!(
                "writeset cost fraction {} must be finite and non-negative",
                self.ws_fraction
            ));
        }
        if !(self.think_time.is_finite() && self.think_time > 0.0) {
            return invalid(format!(
                "think time {} must be positive (closed-loop pacing)",
                self.think_time
            ));
        }
        if !(0.0..=1.0).contains(&self.hot_skew) {
            return invalid(format!("hotspot skew {} must be in [0, 1]", self.hot_skew));
        }
        if self.clients_per_replica == 0 {
            return invalid("at least one client per replica is required".into());
        }
        if self.tables == 0 || self.rows_per_table == 0 {
            return invalid("at least one read table with at least one row is required".into());
        }
        if self.update_rows == 0 {
            return invalid("the updatable row space needs at least one row".into());
        }
        let has_updates = pw > 0.0;
        if has_updates {
            if self.update_classes == 0 {
                return invalid("updates requested but no update classes configured".into());
            }
            if self.writes_per_txn + self.private_writes == 0 {
                return invalid("update transactions must write at least one row".into());
            }
            if mean(self.write_cpu) + mean(self.write_disk) <= 0.0 {
                return invalid("update classes need a positive CPU or disk demand".into());
            }
        }
        let pr = 1.0 - pw;
        let has_reads = pr > 0.0;
        if has_reads {
            if self.read_classes == 0 {
                return invalid("reads requested but no read classes configured".into());
            }
            if mean(self.read_cpu) + mean(self.read_disk) <= 0.0 {
                return invalid("read classes need a positive CPU or disk demand".into());
            }
        }
        // Hot writes per update transaction implied by the skew knob.
        let hot_writes = ((self.writes_per_txn as f64) * self.hot_skew).round() as usize;
        if hot_writes > 0 && self.hot_rows == 0 {
            return invalid("hotspot skew needs a hot table with at least one row".into());
        }
        let cold_writes = self.writes_per_txn - hot_writes.min(self.writes_per_txn);

        let mut classes = Vec::new();
        if has_reads {
            let weight = pr / self.read_classes as f64;
            for i in 0..self.read_classes {
                classes.push(TxnClass {
                    name: format!("synth-read-{i}"),
                    weight,
                    is_update: false,
                    cpu: spread(self.read_cpu, i, self.read_classes),
                    disk: spread(self.read_disk, i, self.read_classes),
                    reads: self.reads_per_txn,
                    writes: 0,
                    private_writes: 0,
                });
            }
        }
        if has_updates {
            let weight = pw / self.update_classes as f64;
            for i in 0..self.update_classes {
                classes.push(TxnClass {
                    name: format!("synth-update-{i}"),
                    weight,
                    is_update: true,
                    cpu: spread(self.write_cpu, i, self.update_classes),
                    disk: spread(self.write_disk, i, self.update_classes),
                    reads: self.reads_per_txn,
                    writes: cold_writes,
                    private_writes: self.private_writes,
                });
            }
        }
        let (ws_cpu, ws_disk) = if has_updates {
            (
                mean(self.write_cpu) * self.ws_fraction,
                mean(self.write_disk) * self.ws_fraction,
            )
        } else {
            (0.0, 0.0)
        };
        Ok(WorkloadSpec {
            name: self.name.clone(),
            classes,
            think_time: self.think_time,
            clients_per_replica: self.clients_per_replica,
            ws_cpu,
            ws_disk,
            update_table: "synth_updates".to_string(),
            db_update_size: self.update_rows,
            read_tables: (0..self.tables)
                .map(|i| (format!("synth_reads_{i}"), self.rows_per_table))
                .collect(),
            heap: (has_updates && hot_writes > 0).then_some(HeapStress {
                rows: self.hot_rows,
                writes: hot_writes,
            }),
        })
    }
}

/// Builds the [`WorkloadSpec`] for a `synth:` payload (preset name,
/// `key=value` list, or preset plus overrides) — the one-stop entry the
/// workload registry calls.
///
/// # Errors
///
/// Returns [`SynthError`] for unknown presets/keys, unparsable values,
/// and invalid knob combinations.
pub fn parse(input: &str) -> Result<WorkloadSpec, SynthError> {
    SynthSpec::parse(input)?.build()
}

/// Mean of a demand range under equal class weights.
fn mean((lo, hi): (f64, f64)) -> f64 {
    (lo + hi) / 2.0
}

/// Linear spread of a demand range across `k` classes: class `i` gets
/// `lo + (hi-lo) * i/(k-1)` (the midpoint for a single class), so the
/// equal-weight mean is exactly `(lo + hi) / 2`.
fn spread((lo, hi): (f64, f64), i: usize, k: usize) -> f64 {
    if k <= 1 {
        mean((lo, hi))
    } else {
        lo + (hi - lo) * i as f64 / (k - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_sidb::Database;
    use replipred_sim::Rng;

    #[test]
    fn every_preset_builds_and_installs() {
        for name in PRESETS {
            let spec = SynthSpec::preset(name)
                .unwrap_or_else(|| panic!("preset {name} missing"))
                .build()
                .unwrap_or_else(|e| panic!("preset {name}: {e}"));
            assert_eq!(spec.name, format!("synth:{name}"));
            let total: f64 = spec.classes.iter().map(|c| c.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{name}: weights sum {total}");
            assert!((spec.pr() + spec.pw() - 1.0).abs() < 1e-12);
            let mut db = Database::new();
            spec.install(&mut db, 0.01)
                .unwrap_or_else(|e| panic!("preset {name} install: {e}"));
        }
    }

    #[test]
    fn demand_means_hit_range_midpoints() {
        let spec = parse("read-cpu=0.02..0.06,write-disk=0.01..0.03").unwrap();
        assert!((spec.mean_read_cpu() - 0.04).abs() < 1e-12);
        assert!((spec.mean_write_disk() - 0.02).abs() < 1e-12);
        // A single class collapses the range to its midpoint.
        let one = parse("read-classes=1,read-cpu=0.02..0.06").unwrap();
        assert!((one.classes[0].cpu - 0.04).abs() < 1e-12);
    }

    #[test]
    fn reads_per_txn_applies_to_every_class() {
        let spec = parse("pw=0.5,reads=12").unwrap();
        assert!(spec.classes.iter().all(|c| c.reads == 12));
    }

    #[test]
    fn hot_skew_splits_writes_between_tables() {
        let spec = parse("writes=4,hot=0.5,hot-rows=64").unwrap();
        let heap = spec.heap.expect("skew > 0 compiles a hot table");
        assert_eq!(heap.rows, 64);
        assert_eq!(heap.writes, 2);
        let update_class = spec.classes.iter().find(|c| c.is_update).unwrap();
        assert_eq!(update_class.writes, 2, "cold writes are the remainder");
        // U counts both halves plus the private rows.
        assert!((spec.mean_update_ops() - (2.0 + 2.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn full_skew_moves_every_write_to_the_hot_table() {
        let spec = parse("writes=3,hot=1.0").unwrap();
        assert_eq!(spec.heap.unwrap().writes, 3);
        assert!(spec.classes.iter().all(|c| c.writes == 0));
    }

    #[test]
    fn zero_skew_keeps_the_uniform_assumption() {
        let spec = SynthSpec::new().build().unwrap();
        assert!(spec.heap.is_none());
    }

    #[test]
    fn read_only_preset_has_no_update_machinery() {
        let spec = SynthSpec::preset("read-only").unwrap().build().unwrap();
        assert_eq!(spec.pw(), 0.0);
        assert!(spec.classes.iter().all(|c| !c.is_update));
        assert_eq!(spec.ws_cpu, 0.0);
        assert_eq!(spec.mean_update_ops(), 0.0);
    }

    #[test]
    fn hot_spot_preset_samples_hot_rows() {
        let spec = SynthSpec::preset("hot-spot").unwrap().build().unwrap();
        let mut db = Database::new();
        let plan = spec.install(&mut db, 0.01).unwrap();
        let heap = plan.heap_table().expect("hot table compiled");
        let mut rng = Rng::seed_from_u64(5);
        let mut hot = 0usize;
        for _ in 0..500 {
            let t = plan.sample(&mut rng);
            if t.is_update {
                hot += t.writes.iter().filter(|&&(tbl, _)| tbl == heap).count();
                assert!(t
                    .writes
                    .iter()
                    .all(|&(tbl, r)| tbl != heap || r.raw() < 128));
            }
        }
        assert!(hot > 0, "hot table never written");
    }

    #[test]
    fn parse_accepts_presets_pairs_and_overrides() {
        assert_eq!(
            parse("write-heavy").unwrap().name,
            "synth:write-heavy".to_string()
        );
        let custom = parse("pw=0.35,reads=8,write-cpu=0.01..0.03").unwrap();
        assert!((custom.pw() - 0.35).abs() < 1e-12);
        assert!((custom.mean_write_cpu() - 0.02).abs() < 1e-12);
        assert_eq!(custom.name, "synth:pw=0.35,reads=8,write-cpu=0.01..0.03");
        let tweaked = parse("ycsb-a,think=0.5,clients=80").unwrap();
        assert!((tweaked.think_time - 0.5).abs() < 1e-12);
        assert_eq!(tweaked.clients_per_replica, 80);
        // Underscores are accepted as key separators.
        let underscored = parse("hot_rows=99,hot_skew=1.0").unwrap();
        assert_eq!(underscored.heap.unwrap().rows, 99);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse(""), Err(SynthError::Empty));
        assert!(matches!(
            parse("no-such-preset"),
            Err(SynthError::UnknownPreset(_))
        ));
        assert!(matches!(
            parse("pw=0.2,bogus=1"),
            Err(SynthError::UnknownKey(_))
        ));
        assert!(matches!(
            parse("pw=plenty"),
            Err(SynthError::BadValue { .. })
        ));
        assert!(matches!(parse("pw=1.5"), Err(SynthError::Invalid(_))));
        assert!(matches!(parse("think=0"), Err(SynthError::Invalid(_))));
        assert!(matches!(
            parse("pw=0.5,writes=0,private=0"),
            Err(SynthError::Invalid(_))
        ));
    }

    #[test]
    fn build_rejects_degenerate_ranges() {
        for degenerate in [
            "read-cpu=0.05..0.01",
            "read-cpu=-0.01..0.01",
            "tables=0",
            "update-rows=0",
        ] {
            assert!(
                matches!(parse(degenerate), Err(SynthError::Invalid(_))),
                "{degenerate}"
            );
        }
    }
}
