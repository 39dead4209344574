//! The metric registry: every name the harness emits, with its unit,
//! direction, layer, and the end-to-end metric and workload it is
//! expected to move. Later issues refer to these names verbatim.
//!
//! `BENCHMARK.json` at the repo root declares the same names to the
//! driver (a unit test keeps the two in step); its schema has no room
//! for the layer → end-to-end → workload map, so that lives here and in
//! `README.md`.

use serde::Deserialize;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before `diff` says `worse`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the old value, declared in `BENCHMARK.json` — or
    /// `floor`, in the metric's own unit, where that is more: a rise of
    /// at most `floor` is within the bound whatever its share.
    Contract {
        /// Absolute rise that is always allowed (0: none).
        floor: f64,
    },
    /// An absolute rise in the metric's own unit (percentage points for
    /// the `model_*` errors, 0 for `fail_frac`: any rise fails).
    Absolute(f64),
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// Repeats exactly for a given seed (so `diff` demands equality).
    pub exact: bool,
}

/// The eight end-to-end metrics, same names on every workload. The first
/// four are the ones `BENCHMARK.json` declares under `end_to_end` (never
/// zero, defined everywhere); `fail_frac` travels in the contract line as
/// `failed`/`attempted`, and the three `model_*` errors, undefined on
/// five workloads, stay in the result files, where `diff` gates them.
/// `setup_s` is microseconds of spec parsing on four workloads, hence its
/// floor. What each one means is in `README.md`'s glossary.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Contract { floor: 0.05 },
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Contract { floor: 0.0 },
        exact: false,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Contract { floor: 0.0 },
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Contract { floor: 0.0 },
        exact: false,
    },
    EndToEnd {
        name: "fail_frac",
        unit: "fraction",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
        exact: true,
    },
    EndToEnd {
        name: "model_tput_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Absolute(1.0),
        exact: true,
    },
    EndToEnd {
        name: "model_resp_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Absolute(1.0),
        exact: true,
    },
    EndToEnd {
        name: "model_abort_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: Bound::Absolute(3.0),
        exact: true,
    },
];

/// Names of the end-to-end metrics `BENCHMARK.json` lists under
/// `end_to_end` (the rest of [`END_TO_END`] is carried as described
/// there).
pub const CONTRACT_END_TO_END: [&str; 4] = ["setup_s", "wall_s", "ops_per_s", "peak_rss_mb"];

/// The relative bound `BENCHMARK.json` declares for each of them: the
/// contract's widest, and box-specific. The issue asked 10 % for all but
/// `setup_s`; across ten runs on the reference box the spread of an
/// 8-second timing is 3–17 %, and `peak_rss_mb` of `store_read` lands on
/// 76.9 or 86.3 MB (`results/FINDINGS.md` §6), and the driver refuses a
/// bound narrower than the spread. Tightening it on a steadier host is a
/// follow-up — change it here and in `BENCHMARK.json` together.
pub const CONTRACT_BOUND: f64 = 0.25;

/// Per-layer metrics `BENCHMARK.json` does not declare: they need the
/// root-built `replipred` binary, which the driver's checkout never has,
/// and a declared metric must have a value in every traced run.
pub const HARNESS_ONLY: [&str; 2] = ["cli.predict_spawn_ms", "cli.recover_spawn_ms"];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the layer is the part before the first dot.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metric and workload(s) it is expected to move.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const SIM: &str = "wall_s/ops_per_s on sweep_long, phases_faults";
const SIDB_TXN: &str = "wall_s on store_read, store_write; sweep_long via the txn path";
const SIDB_WRITE: &str = "wall_s on store_write; sweep_long, phases_faults via apply";
const SIDB_DUR: &str = "wall_s on recover_roundtrip; phases_faults via NodeDurability";
const INSTALL: &str = "wall_s on validate_quick (dominant term); setup_s on store_*";
const WL_TXN: &str = "wall_s on sweep_long, store_read, store_write";
const REPL: &str = "wall_s/ops_per_s on sweep_long, phases_faults";
const REPL_DUR: &str = "wall_s on phases_faults";
const PROFILER: &str = "wall_s on validate_quick";
const MODEL: &str = "wall_s/ops_per_s on predict_plan only";
const SCENARIO: &str = "wall_s on validate_quick";
const CLI: &str =
    "none (process spawn; absent unless the root binary is built, not in BENCHMARK.json)";
const ATTR: &str = "share of the traced pass of the run's own workload";

/// The 82 per-layer metrics, in layer order.
pub const PER_LAYER: [PerLayer; 82] = [
    // sim
    lower("sim.engine_ns_per_event", "ns", SIM),
    lower("sim.engine_cancel_ns", "ns", SIM),
    lower("sim.fcfs_ns_per_job", "ns", SIM),
    lower("sim.ps_ns_per_job", "ns", SIM),
    lower("sim.rng_ns_per_draw", "ns", SIM),
    lower("sim.stats_record_ns", "ns", SIM),
    higher(
        "sim.pool_speedup_j2",
        "ratio",
        "none here by design (end-to-end runs use jobs = 1); users' --jobs wall-clock",
    ),
    // sidb
    lower("sidb.insert_ns_per_row", "ns", INSTALL),
    lower("sidb.read_ns", "ns", SIDB_TXN),
    lower("sidb.txn_ro_ns", "ns", SIDB_TXN),
    lower("sidb.txn_rw_ns", "ns", SIDB_TXN),
    lower("sidb.conflict_abort_ns", "ns", SIDB_WRITE),
    lower("sidb.apply_ns_per_ws", "ns", SIDB_WRITE),
    lower("sidb.vacuum_ns_per_version", "ns", SIDB_WRITE),
    lower("sidb.versions_peak", "count", "peak_rss_mb on store_write"),
    higher(
        "sidb.versions_reclaimed",
        "count",
        "peak_rss_mb on store_write",
    ),
    higher(
        "sidb.commit_success_ratio",
        "ratio",
        "ops_per_s on store_write",
    ),
    lower("sidb.wal_append_ns_per_rec", "ns", SIDB_DUR),
    higher("sidb.wal_scan_mb_per_s", "MB/s", SIDB_DUR),
    lower("sidb.wal_bytes_per_commit", "count", SIDB_DUR),
    lower("sidb.wal_write_amp", "ratio", SIDB_DUR),
    lower("sidb.checkpoint_ns_per_row", "ns", SIDB_DUR),
    lower("sidb.checkpoint_bytes_per_row", "count", SIDB_DUR),
    lower("sidb.checkpoint_decode_ns_per_row", "ns", SIDB_DUR),
    lower("sidb.restore_ns_per_row", "ns", SIDB_DUR),
    lower("sidb.recover_ns_per_commit", "ns", SIDB_DUR),
    lower("sidb.durable_state_ns_per_row", "ns", SIDB_DUR),
    // workload
    lower("workload.install_ms.tpcw-shopping", "ms", INSTALL),
    lower("workload.install_ms.rubis-bidding", "ms", INSTALL),
    lower("workload.install_ms.synth-write-heavy", "ms", INSTALL),
    lower("workload.install_ns_per_row", "ns", INSTALL),
    lower("workload.sample_ns", "ns", WL_TXN),
    lower("workload.execute_ns_per_txn", "ns", WL_TXN),
    lower("workload.client_next_ns", "ns", SIM),
    lower(
        "workload.synth_parse_us",
        "us",
        "setup_s on the simulator workloads",
    ),
    // repl
    lower("repl.cell_ms.standalone", "ms", REPL),
    lower("repl.cell_ms.mm", "ms", REPL),
    lower("repl.cell_ms.sm", "ms", REPL),
    lower("repl.host_us_per_sim_txn.standalone", "us", REPL),
    lower("repl.host_us_per_sim_txn.mm", "us", REPL),
    lower("repl.host_us_per_sim_txn.sm", "us", REPL),
    lower(
        "repl.scaling_cost_ratio.mm",
        "ratio",
        "wall_s on sweep_long",
    ),
    lower(
        "repl.scaling_cost_ratio.sm",
        "ratio",
        "wall_s on sweep_long",
    ),
    lower("repl.durable_cost_ratio.mm", "ratio", REPL_DUR),
    lower("repl.durable_cost_ratio.sm", "ratio", REPL_DUR),
    lower("repl.certify_ns", "ns", REPL),
    lower("repl.certify_conflict_ns", "ns", REPL),
    lower("repl.wslog_push_ns", "ns", REPL),
    lower("repl.wslog_range_ns", "ns", REPL_DUR),
    lower("repl.durable_log_ns", "ns", REPL_DUR),
    lower("repl.durable_checkpoint_ms", "ms", REPL_DUR),
    lower("repl.durable_recover_ms", "ms", REPL_DUR),
    // profiler
    lower("profiler.profile_ms.tpcw-shopping", "ms", PROFILER),
    lower("profiler.profile_ms.rubis-bidding", "ms", PROFILER),
    lower("profiler.profile_ms.synth-write-heavy", "ms", PROFILER),
    lower("profiler.replay_ms", "ms", PROFILER),
    // mva
    lower("mva.exact_us_n640", "us", MODEL),
    lower("mva.schweitzer_us_n640", "us", MODEL),
    lower("mva.multiclass_exact_us", "us", MODEL),
    lower("mva.multiclass_approx_us", "us", MODEL),
    // core
    lower("core.standalone_predict_us", "us", MODEL),
    lower("core.mm_predict_us_n16", "us", MODEL),
    lower("core.sm_predict_us_n8", "us", MODEL),
    lower("core.sm_predict_us_n16", "us", MODEL),
    lower("core.sm_curve16_ms", "ms", MODEL),
    lower("core.plan_us", "us", MODEL),
    lower("core.schedule_parse_us", "us", "setup_s on phases_faults"),
    // scenario
    lower("scenario.predict_sweep_ms", "ms", MODEL),
    lower("scenario.overhead_frac", "fraction", SCENARIO),
    lower("scenario.report_json_ms", "ms", SCENARIO),
    lower(
        "scenario.parse_workload_us",
        "us",
        "setup_s on the simulator workloads",
    ),
    // cli
    lower("cli.predict_spawn_ms", "ms", CLI),
    lower("cli.recover_spawn_ms", "ms", CLI),
    // attribution of the run's own workload
    lower("attr.profiler_share", "fraction", ATTR),
    lower("attr.predict_share", "fraction", ATTR),
    lower("attr.install_share", "fraction", ATTR),
    lower("attr.sample_share", "fraction", ATTR),
    lower("attr.sidb_txn_share", "fraction", ATTR),
    lower("attr.sidb_apply_share", "fraction", ATTR),
    lower("attr.residual_share", "fraction", ATTR),
    lower(
        "trace.overhead_frac",
        "fraction",
        "traced vs untraced pass of the run's own workload",
    ),
    lower(
        "host.cpu_s",
        "s",
        "diagnostic: process CPU time of the traced run",
    ),
];

/// The seven `attr.*` names, in the order their shares are reported.
pub const ATTR_METRICS: [&str; 7] = [
    "attr.profiler_share",
    "attr.predict_share",
    "attr.install_share",
    "attr.sample_share",
    "attr.sidb_txn_share",
    "attr.sidb_apply_share",
    "attr.residual_share",
];

/// The seven workloads, in run order.
pub const WORKLOADS: [&str; 7] = [
    "validate_quick",
    "sweep_long",
    "phases_faults",
    "predict_plan",
    "store_read",
    "store_write",
    "recover_roundtrip",
];

/// `BENCHMARK.json` as the driver's contract defines it.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    /// The run command.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Declared workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Declared end-to-end metrics, with bounds.
    pub end_to_end: Vec<EndToEndDecl>,
    /// Declared per-layer metrics.
    pub per_layer: Vec<PerLayerDecl>,
}

/// A workload entry of [`Contract`].
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Workload name.
    pub name: String,
    /// Why it exists, one line.
    pub why: String,
}

/// An end-to-end entry of [`Contract`].
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the old value by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer entry of [`Contract`].
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayerDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// The repo's `BENCHMARK.json`, embedded at build time so `diff` and the
/// self-tests need no file lookup.
pub const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

impl Contract {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns the parser's message when the file is not valid JSON of
    /// the contract's shape.
    pub fn load() -> Result<Contract, String> {
        serde_json::from_str(CONTRACT_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    /// The declared relative bound of an end-to-end metric.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
            .collect();
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(!m.moves.is_empty(), "{}: no expected effect", m.name);
        }
    }

    #[test]
    fn attr_contract_and_harness_only_names_are_registered() {
        for a in ATTR_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == a), "{a}");
        }
        for c in CONTRACT_END_TO_END {
            let e = END_TO_END.iter().find(|e| e.name == c).expect(c);
            assert!(matches!(e.bound, Bound::Contract { .. }), "{c}");
        }
        for h in HARNESS_ONLY {
            assert!(PER_LAYER.iter().any(|m| m.name == h), "{h}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let c = Contract::load().expect("BENCHMARK.json parses");
        assert_eq!(c.paths, ["benchmark"]);
        assert!((1..=60).contains(&c.run_seconds));
        // The driver appends --workload/--seed/--seconds/--trace to this.
        assert_eq!(c.command.last().map(String::as_str), Some("run"));
        assert!(c.command.iter().any(|a| a == "benchmark/Cargo.toml"));

        let declared: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(declared, WORKLOADS);
        for w in &c.workloads {
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }

        let e2e: Vec<&str> = c.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, CONTRACT_END_TO_END);
        for d in &c.end_to_end {
            let m = END_TO_END.iter().find(|m| m.name == d.name).expect("known");
            assert_eq!(
                (d.unit.as_str(), d.better.as_str(), d.bound),
                (m.unit, m.better.key(), CONTRACT_BOUND),
                "{}",
                d.name
            );
        }

        let expected: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .filter(|m| !HARNESS_ONLY.contains(&m.name))
            .map(|m| (m.name, m.unit, m.better.key()))
            .collect();
        let declared: Vec<(&str, &str, &str)> = c
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        assert_eq!(declared, expected);
        assert!(declared.len() <= 128);
        assert!(CONTRACT_JSON.len() <= 64 * 1024);
    }
}
