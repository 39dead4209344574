//! The Section-6 validation, industrialized: a prediction-vs-simulation
//! **error grid** over *workloads × designs × replica points*.
//!
//! [`ValidationGrid`] profiles each workload once on the standalone
//! system (the paper's Section-4 pipeline — predictions are driven purely
//! by standalone profiling, exactly like the paper's validation), drives
//! [`Scenario`]s over the measured profile ([`Scenario::from_parts`]),
//! pairs every predicted point with its simulated measurement, and folds
//! the per-cell relative errors (throughput, response time, abort rate)
//! into per-design mean/max summaries. This is what `replipred validate`
//! prints and what regression tests assert against: any modelling or
//! simulator change that degrades prediction quality moves these numbers.
//!
//! # Determinism
//!
//! The grid inherits [`Scenario`]'s contract: the report is byte-identical
//! for every [`ValidationGrid::jobs`] value; parallelism only changes
//! wall-clock time.
//!
//! # The standalone anchor
//!
//! The replicated designs (`mm`, `sm`) are validated at every replica
//! point; the `standalone` design only at `n = 1`. That is a choice, not
//! a limitation: its predictor and its simulator follow the same
//! scale-point rule — `n·C` clients offered to *one* node, reported as
//! `replicas = n` (`tests/design_axis.rs`) — so they describe the same
//! system at every `n`. The grid keeps the anchor because its report is
//! pinned (the benchmark's `validate_quick` digest, the cell counts in
//! `tests/validate_grid.rs`); without 1 among the replica points,
//! standalone contributes no cells.
//!
//! # Error metric
//!
//! `|predicted - measured| / max(measured, floor)`. Throughput and
//! response time use a vanishing floor (they are strictly positive in any
//! closed-loop run). Abort rates sit near zero on the paper's workloads —
//! a 0.01% vs 0.02% disagreement is a 100% relative error with no
//! modelling significance — so the abort error is taken relative to at
//! least [`ABORT_FLOOR`] (0.1% aborts), keeping every cell finite and
//! read-only workloads (0 vs 0) at exactly zero error.

use serde::{Deserialize, Serialize};

use replipred_core::report::Design;
use replipred_profiler::Profiler;
use replipred_repl::{Seeded, SimConfig};
use replipred_sim::pool::map_parallel;
use replipred_workload::WorkloadSpec;

use crate::scenario::{parse_workload, Scenario, ScenarioError, DEFAULT_SEED, PUBLISHED_WORKLOADS};

/// Synthetic presets included in the default grid, spanning the corners
/// of workload space around the five published mixes.
pub const DEFAULT_SYNTH_WORKLOADS: [&str; 4] = [
    "synth:read-only",
    "synth:write-heavy",
    "synth:hot-spot",
    "synth:ycsb-a",
];

/// Abort-rate error floor: errors are relative to at least this abort
/// probability (0.1%), because near-zero measured rates make the raw
/// relative error meaningless (see the module docs).
pub const ABORT_FLOOR: f64 = 1e-3;

/// The default workload set: the five published mixes plus
/// [`DEFAULT_SYNTH_WORKLOADS`].
pub fn default_workloads() -> Vec<String> {
    PUBLISHED_WORKLOADS
        .iter()
        .map(|w| w.to_string())
        .chain(DEFAULT_SYNTH_WORKLOADS.iter().map(|w| w.to_string()))
        .collect()
}

/// A declarative error-grid run: workloads × designs × replica points,
/// built fluently like [`Scenario`] and reported as a
/// [`ValidationReport`].
#[derive(Debug, Clone)]
pub struct ValidationGrid {
    workloads: Vec<String>,
    specs: Option<Vec<WorkloadSpec>>,
    designs: Vec<Design>,
    replicas: Vec<usize>,
    seed: u64,
    seeds: usize,
    jobs: usize,
    sim_template: Option<SimConfig>,
}

impl Default for ValidationGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl ValidationGrid {
    /// The full default grid: all default workloads × all designs ×
    /// replica points `{1, 2, 4}`, seed 2009.
    pub fn new() -> Self {
        ValidationGrid {
            workloads: default_workloads(),
            specs: None,
            designs: Design::ALL.to_vec(),
            replicas: vec![1, 2, 4],
            seed: DEFAULT_SEED,
            seeds: 1,
            jobs: 1,
            sim_template: None,
        }
    }

    /// The workload names to validate (published or `synth:`).
    pub fn workloads(mut self, workloads: Vec<String>) -> Self {
        self.workloads = workloads;
        self.specs = None;
        self
    }

    /// Typed workload specs to validate, bypassing name parsing — the
    /// programmatic mirror of [`ValidationGrid::workloads`] (like
    /// [`Scenario::from_spec`] next to [`Scenario::workload`]). Replaces
    /// any previously set name list.
    pub fn specs(mut self, specs: Vec<WorkloadSpec>) -> Self {
        self.specs = Some(specs);
        self
    }

    /// The designs to validate (default: all three).
    pub fn designs(mut self, designs: Vec<Design>) -> Self {
        self.designs = designs;
        self
    }

    /// The replica points of the grid (default `{1, 2, 4}`).
    pub fn replicas(mut self, replicas: impl IntoIterator<Item = usize>) -> Self {
        self.replicas = replicas.into_iter().collect();
        self
    }

    /// Seed for profiling and simulation (default 2009).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seed replications per simulated cell (default 1); with ≥ 2 the
    /// measured side of every cell is the replication mean.
    pub fn seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds.max(1);
        self
    }

    /// Worker threads for the simulation cells (default 1). The report is
    /// identical for every value.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Template for the simulation windows (default: 15 s warm-up, 60 s
    /// measurement — the windows the repo's model-vs-simulation
    /// tolerances are calibrated at).
    pub fn sim_config(mut self, template: SimConfig) -> Self {
        self.sim_template = Some(template);
        self
    }

    fn windows(&self) -> SimConfig {
        self.sim_template.clone().unwrap_or_else(|| SimConfig {
            warmup: 15.0,
            duration: 60.0,
            ..SimConfig::quick(0, 0)
        })
    }

    /// Runs the grid: each workload is profiled once (Section-4
    /// pipeline), then the replicated designs predict + simulate at every
    /// replica point and standalone at its `n = 1` anchor only; errors
    /// fold into per-design summaries. Each workload is seeded twice per
    /// run: once by its profiling pipeline (capture and both replays share
    /// that image) and once for all of its grid cells.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::EmptyScenario`] when the grid has no
    /// workloads, designs or replica points, and propagates workload
    /// parse and model errors.
    pub fn run(&self) -> Result<ValidationReport, ScenarioError> {
        if self.designs.is_empty() {
            return Err(ScenarioError::EmptyScenario("designs"));
        }
        if self.replicas.is_empty() {
            return Err(ScenarioError::EmptyScenario("replica points"));
        }
        // Standalone is validated at its n = 1 anchor only (module docs),
        // so it runs in a separate single-point sub-grid.
        let replicated: Vec<Design> = self
            .designs
            .iter()
            .copied()
            .filter(|&d| d != Design::Standalone)
            .collect();
        let standalone_anchor =
            self.designs.contains(&Design::Standalone) && self.replicas.contains(&1);
        // Resolve the workload set up front — typed specs as given, or
        // every name parsed eagerly so registry errors surface in input
        // order before any profiling or simulation time is spent.
        let specs = match &self.specs {
            Some(specs) => specs.clone(),
            None => {
                let mut parsed = Vec::with_capacity(self.workloads.len());
                for name in &self.workloads {
                    parsed.push(parse_workload(name)?);
                }
                parsed
            }
        };
        if specs.is_empty() {
            return Err(ScenarioError::EmptyScenario("workloads"));
        }
        // Workloads are independent (profiling included), so the grid
        // fans them out over the worker budget; each workload's own
        // simulation cells split the remainder. The per-workload result
        // is jobs-invariant (Scenario's contract), so the report does not
        // depend on how the budget divides.
        let inner_jobs = (self.jobs / specs.len().max(1)).max(1);
        let outputs = map_parallel(self.jobs, specs, |spec| {
            self.run_workload(spec, &replicated, standalone_anchor, inner_jobs)
        });
        let mut workloads = Vec::with_capacity(outputs.len());
        for output in outputs {
            workloads.push(output?);
        }
        let summaries = summarize(&self.designs, &workloads);
        Ok(ValidationReport {
            seed: self.seed,
            seeds: self.seeds,
            replicas: self.replicas.clone(),
            workloads,
            summaries,
        })
    }

    /// One workload of the grid: profile once (Section-4 pipeline), run
    /// the replicated sub-grid and the standalone `n = 1` anchor from the
    /// same measurement and on clones of one seeded image, and fold the
    /// cells in the caller's design order.
    fn run_workload(
        &self,
        spec: WorkloadSpec,
        replicated: &[Design],
        standalone_anchor: bool,
        jobs: usize,
    ) -> Result<WorkloadValidation, ScenarioError> {
        let profile = Profiler::new(spec.clone())
            .seed(self.seed)
            .profile()
            .profile;
        let windows = self.windows();
        let seeded = Seeded::install(&spec, windows.seed_scale);
        let sub_grid = |designs: Vec<Design>, replicas: Vec<usize>| {
            Scenario::from_parts(profile.clone(), spec.clone())
                .designs(designs)
                .replicas(replicas)
                .seed(self.seed)
                .seeds(self.seeds)
                .jobs(jobs)
                .simulate(true)
                .sim_config(windows.clone())
                .run_seeded(Some(&seeded))
        };
        let mut reports = Vec::new();
        if !replicated.is_empty() {
            reports.push(sub_grid(replicated.to_vec(), self.replicas.clone())?);
        }
        if standalone_anchor {
            reports.push(sub_grid(vec![Design::Standalone], vec![1])?);
        }
        let mut cells = Vec::new();
        for &design in &self.designs {
            let Some(d) = reports.iter().find_map(|r| r.design(design)) else {
                continue;
            };
            for (predicted, (m_tput, m_resp, m_abort)) in d.compared() {
                cells.push(CellError {
                    design,
                    replicas: predicted.replicas,
                    predicted_throughput_tps: predicted.throughput_tps,
                    measured_throughput_tps: m_tput,
                    throughput_error: rel_error(predicted.throughput_tps, m_tput, 1e-9),
                    predicted_response_time: predicted.response_time,
                    measured_response_time: m_resp,
                    response_error: rel_error(predicted.response_time, m_resp, 1e-9),
                    predicted_abort_rate: predicted.abort_rate,
                    measured_abort_rate: m_abort,
                    abort_error: rel_error(predicted.abort_rate, m_abort, ABORT_FLOOR),
                });
            }
        }
        let clients = reports
            .first()
            .map(|r| r.clients_per_replica)
            .unwrap_or(spec.clients_per_replica);
        Ok(WorkloadValidation {
            workload: spec.name.clone(),
            clients_per_replica: clients,
            cells,
        })
    }
}

/// Splits a comma-separated workload list: commas separate workloads,
/// except that `k=v` tokens continue the preceding `synth:` description
/// (the synth knob grammar itself uses commas —
/// `synth:hot-spot,hot-rows=64,tpcw-shopping` is two workloads). This is
/// the grammar behind `replipred validate --workload`.
pub fn split_workloads(value: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for token in value.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match out.last_mut() {
            // A bare `k=v` token continues the previous synth description;
            // a token with its own `synth:` prefix always starts a new
            // workload, even when its first knob carries an `=`.
            Some(last)
                if token.contains('=')
                    && !token.starts_with("synth:")
                    && last.starts_with("synth:") =>
            {
                last.push(',');
                last.push_str(token);
            }
            _ => out.push(token.to_string()),
        }
    }
    out
}

/// The doubling replica points `1, 2, 4, ..` up to and including `max` —
/// how `replipred validate --replicas N` picks its grid points.
pub fn doubling_points(max: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut n = 1;
    while n < max {
        points.push(n);
        n *= 2;
    }
    points.push(max);
    points
}

/// `|predicted - measured| / max(measured, floor)` — always finite.
pub(crate) fn rel_error(predicted: f64, measured: f64, floor: f64) -> f64 {
    (predicted - measured).abs() / measured.max(floor)
}

fn summarize(designs: &[Design], workloads: &[WorkloadValidation]) -> Vec<DesignErrorSummary> {
    let mut summaries = Vec::new();
    for &design in designs {
        let errors: Vec<&CellError> = workloads
            .iter()
            .flat_map(|w| w.cells.iter())
            .filter(|c| c.design == design)
            .collect();
        if errors.is_empty() {
            continue;
        }
        let fold = |get: fn(&CellError) -> f64| {
            let mut sum = 0.0;
            let mut max = 0.0f64;
            for c in &errors {
                let e = get(c);
                sum += e;
                max = max.max(e);
            }
            (sum / errors.len() as f64, max)
        };
        let (mean_throughput_error, max_throughput_error) = fold(|c| c.throughput_error);
        let (mean_response_error, max_response_error) = fold(|c| c.response_error);
        let (mean_abort_error, max_abort_error) = fold(|c| c.abort_error);
        summaries.push(DesignErrorSummary {
            design,
            cells: errors.len(),
            mean_throughput_error,
            max_throughput_error,
            mean_response_error,
            max_response_error,
            mean_abort_error,
            max_abort_error,
        });
    }
    summaries
}

/// One grid cell: a design at a replica point within one workload, with
/// both sides of the comparison and their relative errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellError {
    /// The design evaluated.
    pub design: Design,
    /// Replica count of this point.
    pub replicas: usize,
    /// Model-predicted throughput, tps.
    pub predicted_throughput_tps: f64,
    /// Simulated throughput (replication mean when seeds ≥ 2), tps.
    pub measured_throughput_tps: f64,
    /// Relative throughput error.
    pub throughput_error: f64,
    /// Model-predicted response time, seconds.
    pub predicted_response_time: f64,
    /// Simulated response time, seconds.
    pub measured_response_time: f64,
    /// Relative response-time error.
    pub response_error: f64,
    /// Model-predicted update abort rate.
    pub predicted_abort_rate: f64,
    /// Simulated update abort rate.
    pub measured_abort_rate: f64,
    /// Abort-rate error, relative to at least [`ABORT_FLOOR`].
    pub abort_error: f64,
}

/// All grid cells of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadValidation {
    /// Workload name (published or `synth:` description).
    pub workload: String,
    /// Clients per replica the comparison ran at.
    pub clients_per_replica: usize,
    /// Per-design × replica-point cells, in design-then-replica order.
    pub cells: Vec<CellError>,
}

/// Mean/max relative errors of one design across every cell of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignErrorSummary {
    /// The design summarized.
    pub design: Design,
    /// Number of cells aggregated.
    pub cells: usize,
    /// Mean relative throughput error across cells.
    pub mean_throughput_error: f64,
    /// Worst-cell relative throughput error.
    pub max_throughput_error: f64,
    /// Mean relative response-time error.
    pub mean_response_error: f64,
    /// Worst-cell relative response-time error.
    pub max_response_error: f64,
    /// Mean abort-rate error (relative to at least [`ABORT_FLOOR`]).
    pub mean_abort_error: f64,
    /// Worst-cell abort-rate error.
    pub max_abort_error: f64,
}

/// The serializable result of one [`ValidationGrid::run`] — what
/// `replipred validate --json` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Base seed used for profiling/simulation.
    pub seed: u64,
    /// Seed replications per simulated cell.
    pub seeds: usize,
    /// Replica points of the grid.
    pub replicas: Vec<usize>,
    /// Per-workload cells, in the order the workloads were given.
    pub workloads: Vec<WorkloadValidation>,
    /// Per-design mean/max errors across the whole grid (designs with no
    /// cells — standalone without the `n = 1` anchor — are omitted).
    pub summaries: Vec<DesignErrorSummary>,
}

impl ValidationReport {
    /// The summary for `design`, if it contributed any cells.
    pub fn summary(&self, design: Design) -> Option<&DesignErrorSummary> {
        self.summaries.iter().find(|s| s.design == design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_covers_published_and_synth_corners() {
        let w = default_workloads();
        assert_eq!(
            w.len(),
            PUBLISHED_WORKLOADS.len() + DEFAULT_SYNTH_WORKLOADS.len()
        );
        assert!(w.iter().filter(|n| n.starts_with("synth:")).count() >= 3);
        for name in &w {
            parse_workload(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn empty_grids_are_rejected() {
        assert!(matches!(
            ValidationGrid::new().workloads(vec![]).run(),
            Err(ScenarioError::EmptyScenario("workloads"))
        ));
        assert!(matches!(
            ValidationGrid::new().designs(vec![]).run(),
            Err(ScenarioError::EmptyScenario("designs"))
        ));
        assert!(matches!(
            ValidationGrid::new().replicas([]).run(),
            Err(ScenarioError::EmptyScenario("replica points"))
        ));
    }

    #[test]
    fn typed_specs_replace_the_name_list() {
        let spec = parse_workload("synth:ycsb-b").unwrap();
        let grid = ValidationGrid::new().specs(vec![spec]);
        assert!(matches!(
            grid.clone().specs(vec![]).run(),
            Err(ScenarioError::EmptyScenario("workloads"))
        ));
        // Setting names again drops the typed specs.
        assert!(matches!(
            grid.workloads(vec![]).run(),
            Err(ScenarioError::EmptyScenario("workloads"))
        ));
    }

    #[test]
    fn workload_splitting_keeps_synth_descriptions_whole() {
        assert_eq!(
            split_workloads("tpcw-shopping,rubis-bidding"),
            vec!["tpcw-shopping", "rubis-bidding"]
        );
        assert_eq!(
            split_workloads("synth:hot-spot,hot-rows=64,tpcw-shopping"),
            vec!["synth:hot-spot,hot-rows=64", "tpcw-shopping"]
        );
        assert_eq!(
            split_workloads("synth:pw=0.4,writes=3,synth:read-only"),
            vec!["synth:pw=0.4,writes=3", "synth:read-only"]
        );
        // A second synth description starts a new workload even when its
        // first knob carries an `=`.
        assert_eq!(
            split_workloads("synth:hot-spot,synth:pw=0.4,writes=3"),
            vec!["synth:hot-spot", "synth:pw=0.4,writes=3"]
        );
        // A k=v token with no preceding synth: description stands alone
        // (and fails workload resolution with a clear error later).
        assert_eq!(split_workloads("reads=3"), vec!["reads=3"]);
        assert!(split_workloads(" , ,").is_empty());
    }

    #[test]
    fn doubling_points_cover_one_to_max() {
        assert_eq!(doubling_points(1), vec![1]);
        assert_eq!(doubling_points(2), vec![1, 2]);
        assert_eq!(doubling_points(4), vec![1, 2, 4]);
        assert_eq!(doubling_points(6), vec![1, 2, 4, 6]);
        assert_eq!(doubling_points(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn rel_error_uses_the_floor() {
        assert_eq!(rel_error(11.0, 10.0, 1e-9), 0.1);
        // 0 vs 0 aborts: exactly zero error, not 0/0.
        assert_eq!(rel_error(0.0, 0.0, ABORT_FLOOR), 0.0);
        // Tiny measured rates do not explode the error.
        assert!(rel_error(0.002, 0.0, ABORT_FLOOR) <= 2.0);
    }

    #[test]
    fn single_cell_grid_reports_standalone_anchor_only() {
        let report = ValidationGrid::new()
            .workloads(vec!["synth:ycsb-b".into()])
            .replicas([1, 2])
            .sim_config(SimConfig {
                warmup: 2.0,
                duration: 8.0,
                ..SimConfig::quick(0, 0)
            })
            .run()
            .unwrap();
        assert_eq!(report.workloads.len(), 1);
        let cells = &report.workloads[0].cells;
        let standalone: Vec<_> = cells
            .iter()
            .filter(|c| c.design == Design::Standalone)
            .collect();
        assert_eq!(standalone.len(), 1, "standalone pinned to n = 1");
        assert_eq!(standalone[0].replicas, 1);
        for design in [Design::MultiMaster, Design::SingleMaster] {
            let n: Vec<_> = cells.iter().filter(|c| c.design == design).collect();
            assert_eq!(n.len(), 2, "{design}: both replica points");
        }
        // Every error is finite (the JSON contract).
        for c in cells {
            assert!(c.throughput_error.is_finite());
            assert!(c.response_error.is_finite());
            assert!(c.abort_error.is_finite());
        }
        assert_eq!(report.summaries.len(), 3);
        assert_eq!(report.summary(Design::Standalone).unwrap().cells, 1);
    }
}
