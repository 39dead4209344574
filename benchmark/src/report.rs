//! What a run leaves behind: the per-workload result, the result file
//! that collects them (`result.json` or `result.traced.json`, and the
//! checked-in `results/BENCH_*.json`), and the one-line summary the
//! driver reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::layers::Metrics;
use crate::metrics::Contract;
use crate::stats::Summary;
use crate::trace::LayerRow;

/// One workload's measurements from one process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics present).
    pub traced: bool,
    /// Whether this was a smoke run (1 pass, 1/10 sizes).
    pub smoke: bool,
    /// Untraced timed passes.
    pub passes: usize,
    /// Wall-clock of the timed passes, seconds.
    pub wall: Summary,
    /// The same, pass by pass in run order (every run made is reported).
    pub wall_samples: Vec<f64>,
    /// In-process set-up times, seconds.
    pub setup: Summary,
    /// Work units of one pass (numerator of `ops_per_s`).
    pub ops_per_pass: u64,
    /// The eight end-to-end metrics; `None` is "n/a on this workload".
    pub end_to_end: BTreeMap<String, Option<f64>>,
    /// Operations attempted over all passes, plus run-level checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `failed == 0`.
    pub correct: bool,
    /// Hash of the pass's serialized reports (hex): information, not a
    /// pin. Equal across passes and runs of one seed and commit.
    pub report_digest: String,
    /// Counts that repeat exactly for a given seed.
    pub counts: BTreeMap<String, u64>,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Per-layer metrics (traced runs): the workload's own `attr.*`,
    /// `trace.*`, `host.*`, and the layer drives' if they ran in this
    /// process; `None` is "does not apply here".
    pub per_layer: Metrics,
    /// Layer, calls, self time, share of the traced pass (traced runs).
    pub layer_table: Vec<LayerRow>,
}

/// Where the numbers were taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the tree measured (or `unknown`).
    pub commit: String,
    /// `run_seconds` the runs were given.
    pub run_seconds: f64,
}

/// What one `run --workload all` measured, and nothing else: the header
/// describes every entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Where and how the numbers were taken.
    pub header: Header,
    /// One entry per workload run.
    pub results: Vec<WorkloadResult>,
    /// The workload-independent layer drives, run once (traced runs).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub layers: Metrics,
    /// One line per layer whose drives failed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub layer_notes: Vec<String>,
}

impl ResultFile {
    /// Parses a result file.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for malformed input.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The untraced result of `workload`, if the file has one.
    pub fn untraced(&self, workload: &str) -> Option<&WorkloadResult> {
        self.results
            .iter()
            .find(|r| r.workload == workload && !r.traced)
    }
}

/// A metric as the driver reads it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContractMetric {
    /// As measured, all digits.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContractLine {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every `end_to_end` metric (untraced) or every `per_layer` metric
    /// (traced) that `BENCHMARK.json` declares.
    pub metrics: BTreeMap<String, ContractMetric>,
}

impl ContractLine {
    /// Builds the line for `result`: every declared per-layer metric for
    /// a traced run, every declared end-to-end metric for an untraced
    /// one. `BENCHMARK.json` declares only metrics every run of that kind
    /// measures, so one is missing from the line only if its drives
    /// failed (and then `correct` is false) or were left to the caller.
    pub fn of(result: &WorkloadResult, contract: &Contract) -> ContractLine {
        let (declared, source): (Vec<(&String, &String)>, _) = if result.traced {
            let decls = contract.per_layer.iter();
            (
                decls.map(|d| (&d.name, &d.unit)).collect(),
                &result.per_layer,
            )
        } else {
            let decls = contract.end_to_end.iter();
            (
                decls.map(|d| (&d.name, &d.unit)).collect(),
                &result.end_to_end,
            )
        };
        let metrics = declared
            .into_iter()
            .filter_map(|(name, unit)| {
                let value = source.get(name).copied().flatten()?;
                let unit = unit.clone();
                Some((name.clone(), ContractMetric { value, unit }))
            })
            .collect();
        ContractLine {
            correct: result.correct,
            attempted: result.attempted.max(1),
            failed: result.failed,
            metrics,
        }
    }

    /// The line as compact JSON.
    pub fn json(&self) -> String {
        serde_json::to_string(self).expect("metric values are finite")
    }
}
