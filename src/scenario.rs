//! The shared experiment driver: one [`Scenario`] describes *workload ×
//! design set × replica range × seeds*, and [`Scenario::run`] turns it
//! into a serializable [`ScenarioReport`] by driving the analytical
//! predictors and/or the mechanistic simulators through the design
//! registry.
//!
//! Every front end — the `replipred` CLI (`predict`, `simulate`,
//! `sweep`), the paper's figures and tables ([`crate::figures`]), and
//! library users — expresses experiments this way instead of
//! hand-rolling a predict→simulate→report loop per design.
//!
//! # Parallelism and determinism
//!
//! Predictor curves run inline (they cost microseconds, and model errors
//! must surface before simulation time is spent). The simulation grid
//! then decomposes into independent *cells* — one run per design ×
//! replica point × seed replication — and [`Scenario::jobs`] fans them
//! out over a deterministic scoped thread pool
//! ([`replipred_sim::pool`]); results are reassembled in grid order, so
//! **the report is byte-for-byte identical for every job count**,
//! including the serial `jobs(1)` default. [`Scenario::seeds`] replicates every simulated cell under
//! derived seeds and aggregates the replications into mean ± 95% CI rows
//! ([`ReplicationSummary`]); `measured` always holds the base-seed run,
//! so adding replications refines the error bars without moving the
//! curve.
//!
//! ```
//! use replipred::model::Design;
//! use replipred::scenario::Scenario;
//!
//! let report = Scenario::published("tpcw-shopping")
//!     .unwrap()
//!     .designs(vec![Design::MultiMaster, Design::SingleMaster])
//!     .replicas(1..=4)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.designs.len(), 2);
//! let mm = &report.designs[0].predicted.as_ref().unwrap();
//! assert_eq!(mm.points.len(), 4);
//! ```

use serde::{Deserialize, Serialize};

use replipred_core::report::{Design, ScalabilityCurve};
use replipred_core::{ModelError, SystemConfig, WorkloadProfile};
use replipred_profiler::Profiler;
use replipred_repl::{DurabilityConfig, RunReport, Schedule, Seeded, SimConfig, SimulatorRegistry};
use replipred_sim::pool::map_parallel;
use replipred_sim::rng::derive_stream_seed;
use replipred_sim::stats::mean_ci95;
use replipred_workload::spec::WorkloadSpec;
use replipred_workload::synth::{self, SynthError};
use replipred_workload::{rubis, tpcw};

/// The workload names the paper publishes profiles for (Tables 2-5).
pub const PUBLISHED_WORKLOADS: [&str; 5] = [
    "tpcw-browsing",
    "tpcw-shopping",
    "tpcw-ordering",
    "rubis-browsing",
    "rubis-bidding",
];

/// The paper's cluster size: the longest curve the tools draw by default
/// and the ceiling of the capacity planner's search.
pub const PAPER_CLUSTER: usize = 16;

/// The seed of every run that does not name one: the paper's year.
pub const DEFAULT_SEED: u64 = 2009;

/// Clients per replica `C` when nothing names one: no `--clients`, and a
/// profile whose name the workload registry cannot resolve.
pub const DEFAULT_CLIENTS: usize = 50;

/// The published profile for `name`, if it is one of
/// [`PUBLISHED_WORKLOADS`].
pub fn published_profile(name: &str) -> Option<WorkloadProfile> {
    match name {
        "tpcw-browsing" => Some(WorkloadProfile::tpcw_browsing()),
        "tpcw-shopping" => Some(WorkloadProfile::tpcw_shopping()),
        "tpcw-ordering" => Some(WorkloadProfile::tpcw_ordering()),
        "rubis-browsing" => Some(WorkloadProfile::rubis_browsing()),
        "rubis-bidding" => Some(WorkloadProfile::rubis_bidding()),
        _ => None,
    }
}

/// The mechanistic workload spec for `name`, if it is one of
/// [`PUBLISHED_WORKLOADS`].
pub fn workload_spec(name: &str) -> Option<WorkloadSpec> {
    match name {
        "tpcw-browsing" => Some(tpcw::mix(tpcw::Mix::Browsing)),
        "tpcw-shopping" => Some(tpcw::mix(tpcw::Mix::Shopping)),
        "tpcw-ordering" => Some(tpcw::mix(tpcw::Mix::Ordering)),
        "rubis-browsing" => Some(rubis::mix(rubis::Mix::Browsing)),
        "rubis-bidding" => Some(rubis::mix(rubis::Mix::Bidding)),
        _ => None,
    }
}

/// The workload registry: resolves any workload *name* the tools accept —
/// one of the [`PUBLISHED_WORKLOADS`], or a synthetic-family description
/// `synth:<preset>` / `synth:k=v,...` / `synth:<preset>,k=v,...` (see
/// [`replipred_workload::synth`] for the knob grammar).
///
/// # Errors
///
/// Returns [`ScenarioError::UnknownWorkload`] for unregistered names and
/// [`ScenarioError::Synth`] for malformed `synth:` descriptions.
pub fn parse_workload(name: &str) -> Result<WorkloadSpec, ScenarioError> {
    if let Some(spec) = workload_spec(name) {
        return Ok(spec);
    }
    match name.strip_prefix("synth:") {
        Some(payload) => synth::parse(payload).map_err(ScenarioError::Synth),
        None => Err(ScenarioError::UnknownWorkload(name.to_string())),
    }
}

/// What can go wrong while building or running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The workload name is not one of [`PUBLISHED_WORKLOADS`] (and not a
    /// `synth:` description).
    UnknownWorkload(String),
    /// A `synth:` workload description failed to parse or build.
    Synth(SynthError),
    /// Simulation was requested but the scenario only has an analytical
    /// profile (no mechanistic workload to simulate).
    SimulationUnavailable(String),
    /// The scenario has no replica points or no designs.
    EmptyScenario(&'static str),
    /// A model rejected its inputs or failed to solve.
    Model(ModelError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownWorkload(w) => {
                write!(f, "unknown workload `{w}` (published: ")?;
                for (i, name) in PUBLISHED_WORKLOADS.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(name)?;
                }
                f.write_str("; synthetic: synth:<preset> or synth:k=v,...)")
            }
            ScenarioError::Synth(e) => write!(f, "{e}"),
            ScenarioError::SimulationUnavailable(w) => write!(
                f,
                "workload `{w}` has only an analytical profile; simulation needs \
                 a mechanistic workload (use a published workload name)"
            ),
            ScenarioError::EmptyScenario(what) => write!(f, "scenario has no {what}"),
            ScenarioError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

/// Where the scenario's workload parameters come from.
#[derive(Debug, Clone)]
enum Source {
    /// A published profile plus its mechanistic workload: predictors use
    /// the paper's table values, simulators run the real thing.
    Published {
        profile: WorkloadProfile,
        spec: WorkloadSpec,
    },
    /// An explicit profile (e.g. `@profile.json`): predictors only.
    Profile(WorkloadProfile),
    /// A mechanistic workload: the profile is *measured* by the Section-4
    /// profiling pipeline at run time, then both sides run (what the
    /// paper's validation figures do).
    Profiled(WorkloadSpec),
}

/// A declarative experiment: workload × design set × replica range ×
/// seeds. Built fluently, run once, reported as a [`ScenarioReport`].
#[derive(Debug, Clone)]
pub struct Scenario {
    source: Source,
    designs: Vec<Design>,
    replicas: Vec<usize>,
    clients: Option<usize>,
    seed: u64,
    seeds: usize,
    jobs: usize,
    predict: bool,
    simulate: bool,
    sim_template: Option<SimConfig>,
    schedule: Option<Schedule>,
    durability: Option<DurabilityConfig>,
}

impl Scenario {
    fn new(source: Source) -> Self {
        Scenario {
            source,
            designs: vec![Design::MultiMaster, Design::SingleMaster],
            replicas: (1..=PAPER_CLUSTER).collect(),
            clients: None,
            seed: DEFAULT_SEED,
            seeds: 1,
            jobs: 1,
            predict: true,
            simulate: false,
            sim_template: None,
            schedule: None,
            durability: None,
        }
    }

    /// A scenario over one of the [`PUBLISHED_WORKLOADS`]: predictors use
    /// the published profile, simulators (if enabled) run the mechanistic
    /// workload.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownWorkload`] for other names.
    pub fn published(name: &str) -> Result<Self, ScenarioError> {
        match (published_profile(name), workload_spec(name)) {
            (Some(profile), Some(spec)) => Ok(Scenario::new(Source::Published { profile, spec })),
            _ => Err(ScenarioError::UnknownWorkload(name.to_string())),
        }
    }

    /// A scenario over any registered workload *name*: one of the
    /// [`PUBLISHED_WORKLOADS`] (predictors use the published profile) or a
    /// `synth:` description (the profile is measured by the Section-4
    /// pipeline at run time, as in [`Scenario::from_spec`]).
    ///
    /// # Errors
    ///
    /// Propagates [`parse_workload`]'s errors.
    pub fn workload(name: &str) -> Result<Self, ScenarioError> {
        if published_profile(name).is_some() {
            Scenario::published(name)
        } else {
            Ok(Scenario::from_spec(parse_workload(name)?))
        }
    }

    /// A scenario over an explicit profile (e.g. loaded from
    /// `profile --json` output). Prediction only: there is no mechanistic
    /// workload to simulate.
    pub fn from_profile(profile: WorkloadProfile) -> Self {
        Scenario::new(Source::Profile(profile))
    }

    /// A scenario over an explicit profile *and* its mechanistic
    /// workload: predictors use the given profile, simulators run the
    /// spec. For callers that already measured the profile (the validate
    /// grid profiles each workload once, then runs several sub-grids) —
    /// [`Scenario::from_spec`] would re-profile on every run.
    pub fn from_parts(profile: WorkloadProfile, spec: WorkloadSpec) -> Self {
        Scenario::new(Source::Published { profile, spec })
    }

    /// A scenario over a mechanistic workload spec. At run time the
    /// profile is *measured* on the standalone simulation by the paper's
    /// Section-4 pipeline — predictions are then driven purely by
    /// standalone profiling, exactly like the paper's validation.
    pub fn from_spec(spec: WorkloadSpec) -> Self {
        Scenario::new(Source::Profiled(spec))
    }

    /// The designs to compare (default: multi-master vs single-master).
    pub fn designs(mut self, designs: Vec<Design>) -> Self {
        self.designs = designs;
        self
    }

    /// Compares all known designs, standalone baseline included.
    pub fn all_designs(self) -> Self {
        let designs = Design::ALL.to_vec();
        self.designs(designs)
    }

    /// The replica counts to evaluate (default: `1..=16`).
    pub fn replicas(mut self, range: impl IntoIterator<Item = usize>) -> Self {
        self.replicas = range.into_iter().collect();
        self
    }

    /// Clients per replica (default: the workload's published `C`).
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = Some(clients);
        self
    }

    /// Seed for profiling and simulation runs (default 2009).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of seed replications per simulated cell (default 1; zero is
    /// treated as 1). Replication `0` uses [`Scenario::seed`] itself, so
    /// `measured` is unchanged by replication; replication `k > 0` uses a
    /// seed derived deterministically from `(seed, k)`. With two or more
    /// replications every design gains [`DesignReport::replicated`] rows
    /// aggregating throughput/response/abort into mean ± 95% CI.
    pub fn seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds.max(1);
        self
    }

    /// Number of worker threads for running the scenario's cells
    /// (default 1 = serial; zero is treated as 1). The report is
    /// identical for every job count — parallelism only changes
    /// wall-clock time. Use [`replipred_sim::pool::default_jobs`] for
    /// one-per-core.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables/disables the analytical predictors (default on).
    pub fn predict(mut self, on: bool) -> Self {
        self.predict = on;
        self
    }

    /// Enables/disables the mechanistic simulation (default off; needs a
    /// workload spec, i.e. a published or [`Scenario::from_spec`]
    /// scenario).
    pub fn simulate(mut self, on: bool) -> Self {
        self.simulate = on;
        self
    }

    /// Template for simulation runs (windows, delays, MPL). The scenario
    /// overrides its `replicas` per point and its `seed` with
    /// [`Scenario::seed`]. Default: [`SimConfig::quick`].
    pub fn sim_config(mut self, template: SimConfig) -> Self {
        self.sim_template = Some(template);
        self
    }

    /// A time-phased [`Schedule`] applied to every simulated cell:
    /// replica crashes and rejoins, certifier outages, client-population
    /// ramps, and phase markers, all at absolute simulation times.
    /// Reports of scheduled runs carry a
    /// [`replipred_repl::TransientReport`] in
    /// [`RunReport::transient`] (windowed throughput/response/abort,
    /// recovery time, SLO-violation window). An empty schedule leaves
    /// every run byte-identical to an unscheduled one.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Redo-log durability for every simulated cell: commits pay the
    /// amortized group-commit disk term and crashed replicas rejoin by
    /// recovering from their checkpoint + WAL (see
    /// [`replipred_repl::config::DurabilityConfig`]). Default: off.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// The seed of replication `rep`: the base seed for `rep == 0`, a
    /// deterministically derived stream seed otherwise.
    fn replication_seed(&self, rep: usize) -> u64 {
        if rep == 0 {
            self.seed
        } else {
            derive_stream_seed(self.seed, rep as u64)
        }
    }

    /// Resolves what the scenario predicts and simulates: the workload
    /// profile (published, given, or measured now by the Section-4
    /// pipeline at the scenario's seed), the system configuration both
    /// sides share, and the mechanistic workload timed to that
    /// configuration (`None` for a profile-only scenario). The
    /// configuration is [`SystemConfig::lan_cluster`] at the resolved
    /// client count ([`Scenario::clients`], else the workload's own `C`)
    /// with the workload's think time, and the mechanistic workload runs
    /// at that same client count.
    /// [`Scenario::run`] is this plus the grid; callers that drive the
    /// model directly (the planner) use it to describe the same system.
    pub fn resolve(&self) -> (WorkloadProfile, SystemConfig, Option<WorkloadSpec>) {
        let (profile, spec) = match &self.source {
            Source::Published { profile, spec } => (profile.clone(), Some(spec.clone())),
            Source::Profile(profile) => (profile.clone(), None),
            Source::Profiled(spec) => {
                let measured = Profiler::new(spec.clone()).seed(self.seed).profile();
                (measured.profile, Some(spec.clone()))
            }
        };
        // Reference spec for deployment parameters: the scenario's own
        // spec, else whatever the registry resolves under the profile's
        // name — so an `@profile.json` of a published *or* synthetic
        // workload predicts at the same C and think time as the named
        // workload. Unresolvable names fall back to [`DEFAULT_CLIENTS`],
        // Z = 1.0 s.
        let reference = match &spec {
            Some(s) => Some(s.clone()),
            None => parse_workload(&profile.name).ok(),
        };
        let clients = self
            .clients
            .or_else(|| reference.as_ref().map(|s| s.clients_per_replica))
            .unwrap_or(DEFAULT_CLIENTS);
        // Model and simulation must describe the same system: the
        // configuration adopts the workload's think time (the published
        // mixes all use the paper's 1.0 s, but synthetic workloads roam),
        // and the resolved per-replica client count drives both sides.
        let mut config = SystemConfig::lan_cluster(clients);
        if let Some(s) = reference.as_ref() {
            config.think_time = s.think_time;
        }
        // A [`Scenario::clients`] override re-times the simulated clients
        // too, never just the predictor's closed network.
        let spec = spec.map(|mut s| {
            s.clients_per_replica = clients;
            s
        });
        (profile, config, spec)
    }

    /// Runs the scenario: predictor curves and/or simulator measurements
    /// for every design, over the replica points.
    ///
    /// Predictor curves run inline (microseconds; model errors surface
    /// before any simulation time is spent), then the independent
    /// simulation cells execute on up to [`Scenario::jobs`] threads;
    /// results are reassembled in grid order, so the report does not
    /// depend on the job count. A simulating run seeds its workload once,
    /// before the cells start, and every cell runs on clones of that one
    /// image (a [`Scenario::from_spec`] run seeds once more, inside its
    /// profiling pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::EmptyScenario`] for empty design/replica
    /// sets, [`ScenarioError::SimulationUnavailable`] when simulation is
    /// requested on a profile-only scenario, and propagates model errors.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        self.run_seeded(None)
    }

    /// [`Scenario::run`], with the cells cloned from `seeded` when the
    /// caller already holds an image of the scenario's workload at the
    /// template's seed scale (the validate grid's sub-grids share one).
    pub(crate) fn run_seeded(
        &self,
        seeded: Option<&Seeded>,
    ) -> Result<ScenarioReport, ScenarioError> {
        if self.designs.is_empty() {
            return Err(ScenarioError::EmptyScenario("designs"));
        }
        if self.replicas.is_empty() {
            return Err(ScenarioError::EmptyScenario("replica points"));
        }
        let (profile, config, spec) = self.resolve();
        if self.simulate && spec.is_none() {
            return Err(ScenarioError::SimulationUnavailable(profile.name.clone()));
        }
        // Checked here because a simulate-only run builds no predictor.
        config.validate()?;

        // Predictor curves run inline first: they cost microseconds, and
        // any model error must surface *before* simulation time is spent.
        let mut curves: Vec<Option<ScalabilityCurve>> = Vec::with_capacity(self.designs.len());
        for &design in &self.designs {
            curves.push(if self.predict {
                let predictor = design.predictor(profile.clone(), config.clone())?;
                Some(predictor.curve_at(&self.replicas)?)
            } else {
                None
            });
        }

        // Decompose the simulation grid into independent cells, in a fixed
        // order that the reassembly below mirrors exactly.
        struct Cell {
            design: Design,
            n: usize,
            rep: usize,
        }
        let mut cells = Vec::new();
        if self.simulate {
            for &design in &self.designs {
                for &n in &self.replicas {
                    for rep in 0..self.seeds {
                        cells.push(Cell { design, n, rep });
                    }
                }
            }
        }
        let template = self
            .sim_template
            .clone()
            .unwrap_or_else(|| SimConfig::quick(0, 0));
        // One image behind every cell: the workers clone it, none seeds.
        let image = match (&spec, seeded) {
            (Some(spec), None) if self.simulate => Some(Seeded::install(spec, template.seed_scale)),
            _ => None,
        };
        let seeded = seeded.or(image.as_ref());
        let spec_ref = &spec;
        let outputs = map_parallel(self.jobs, cells, |cell| {
            let spec = spec_ref.as_ref().expect("checked above");
            let seeded = seeded.expect("a simulating run is seeded above");
            let seed = self.replication_seed(cell.rep);
            let mut cfg = SimConfig {
                replicas: cell.n,
                seed,
                ..template.clone()
            };
            if let Some(schedule) = &self.schedule {
                cfg.schedule = schedule.clone();
            }
            if let Some(durability) = &self.durability {
                cfg.durability = durability.clone();
            }
            cell.design.simulator(spec.clone(), cfg).run_from(seeded)
        });

        // Reassemble in grid order (identical for every job count).
        let mut outputs = outputs.into_iter();
        let mut designs = Vec::with_capacity(self.designs.len());
        for (&design, predicted) in self.designs.iter().zip(curves) {
            let mut measured = Vec::new();
            let mut replicated = Vec::new();
            if self.simulate {
                for &n in &self.replicas {
                    let mut throughput = Vec::with_capacity(self.seeds);
                    let mut response = Vec::with_capacity(self.seeds);
                    let mut abort = Vec::with_capacity(self.seeds);
                    for rep in 0..self.seeds {
                        let run = outputs.next().expect("cell order mirrors construction");
                        throughput.push(run.throughput_tps);
                        response.push(run.response_time);
                        abort.push(run.abort_rate);
                        if rep == 0 {
                            measured.push(run);
                        }
                    }
                    if self.seeds > 1 {
                        let (throughput_tps, throughput_ci95) = mean_ci95(&throughput);
                        let (response_time, response_ci95) = mean_ci95(&response);
                        let (abort_rate, abort_ci95) = mean_ci95(&abort);
                        replicated.push(ReplicationSummary {
                            replicas: n,
                            seeds: self.seeds,
                            throughput_tps,
                            throughput_ci95: throughput_ci95.unwrap_or(0.0),
                            response_time,
                            response_ci95: response_ci95.unwrap_or(0.0),
                            abort_rate,
                            abort_ci95: abort_ci95.unwrap_or(0.0),
                        });
                    }
                }
            }
            designs.push(DesignReport {
                design,
                predicted,
                measured,
                replicated,
            });
        }
        Ok(ScenarioReport {
            workload: profile.name.clone(),
            seed: self.seed,
            seeds: self.seeds,
            clients_per_replica: config.clients_per_replica,
            replicas: self.replicas.clone(),
            designs,
        })
    }
}

/// Mean ± 95% confidence interval over the seed replications of one
/// replica point (present when [`Scenario::seeds`] ≥ 2). Half-widths come
/// from [`replipred_sim::stats::mean_ci95`] over the per-seed runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationSummary {
    /// Replica count of this point.
    pub replicas: usize,
    /// Number of seed replications aggregated.
    pub seeds: usize,
    /// Mean committed throughput across replications, tps.
    pub throughput_tps: f64,
    /// 95% CI half-width of the throughput mean.
    pub throughput_ci95: f64,
    /// Mean response time across replications, seconds.
    pub response_time: f64,
    /// 95% CI half-width of the response-time mean.
    pub response_ci95: f64,
    /// Mean update abort rate across replications.
    pub abort_rate: f64,
    /// 95% CI half-width of the abort-rate mean.
    pub abort_ci95: f64,
}

/// One design's results within a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// The design evaluated.
    pub design: Design,
    /// Predicted scalability curve (present when prediction is enabled).
    pub predicted: Option<ScalabilityCurve>,
    /// Simulated measurements at the base seed, one per replica point
    /// (empty when simulation is disabled). Independent of
    /// [`Scenario::seeds`].
    pub measured: Vec<RunReport>,
    /// Mean ± CI across seed replications, one per replica point (empty
    /// unless [`Scenario::seeds`] ≥ 2 and simulation is enabled).
    #[serde(default)]
    pub replicated: Vec<ReplicationSummary>,
}

impl DesignReport {
    /// Predicted and measured results paired by replica point, for
    /// side-by-side validation output. Empty unless both sides ran.
    pub fn paired(&self) -> Vec<(&replipred_core::Prediction, &RunReport)> {
        match &self.predicted {
            Some(curve) => curve.points.iter().zip(&self.measured).collect(),
            None => Vec::new(),
        }
    }

    /// Every predicted point next to its measurement `(throughput,
    /// response time, abort rate)` — the replication mean when seeds ≥ 2,
    /// else the base-seed run. Empty unless both sides ran.
    pub fn compared(&self) -> impl Iterator<Item = (&replipred_core::Prediction, (f64, f64, f64))> {
        let points = self.predicted.iter().flat_map(|curve| &curve.points);
        points.zip(&self.measured).enumerate().map(|(i, (p, m))| {
            let measured = match self.replicated.get(i) {
                Some(r) => (r.throughput_tps, r.response_time, r.abort_rate),
                None => (m.throughput_tps, m.response_time, m.abort_rate),
            };
            (p, measured)
        })
    }
}

/// The serializable result of one [`Scenario::run`] — what
/// `replipred sweep --json` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Workload name (profile name).
    pub workload: String,
    /// Base seed used for profiling/simulation.
    pub seed: u64,
    /// Seed replications per simulated cell.
    #[serde(default)]
    pub seeds: usize,
    /// Clients per replica (`C`).
    pub clients_per_replica: usize,
    /// Replica points evaluated.
    pub replicas: Vec<usize>,
    /// Per-design results, in the order the designs were given.
    pub designs: Vec<DesignReport>,
}

impl ScenarioReport {
    /// The report for `design`, if it was part of the scenario.
    pub fn design(&self, design: Design) -> Option<&DesignReport> {
        self.designs.iter().find(|d| d.design == design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_rejected() {
        assert!(matches!(
            Scenario::published("tpcw-nope"),
            Err(ScenarioError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn workload_registry_resolves_synth_names() {
        let spec = parse_workload("synth:write-heavy").unwrap();
        assert_eq!(spec.name, "synth:write-heavy");
        assert!((spec.pw() - 0.60).abs() < 1e-9);
        assert!(matches!(
            parse_workload("synth:no-such-preset"),
            Err(ScenarioError::Synth(_))
        ));
        assert!(matches!(
            parse_workload("nope"),
            Err(ScenarioError::UnknownWorkload(_))
        ));
        assert_eq!(
            parse_workload("tpcw-shopping").unwrap().name,
            "tpcw-shopping"
        );
    }

    #[test]
    fn workload_constructor_routes_published_and_synth_sources() {
        // Published names keep the published profile (no profiling run is
        // needed for prediction-only scenarios).
        let report = Scenario::workload("rubis-browsing")
            .unwrap()
            .designs(vec![Design::MultiMaster])
            .replicas([1])
            .run()
            .unwrap();
        assert_eq!(report.workload, "rubis-browsing");
        // Synth names profile live: the report carries the synth name and
        // a measurable curve.
        let report = Scenario::workload("synth:ycsb-b")
            .unwrap()
            .designs(vec![Design::MultiMaster])
            .replicas([1, 2])
            .run()
            .unwrap();
        assert_eq!(report.workload, "synth:ycsb-b");
        let curve = report.designs[0].predicted.as_ref().unwrap();
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].throughput_tps > 0.0);
    }

    #[test]
    fn clients_override_retimes_the_simulated_workload_too() {
        let (_, config, spec) = Scenario::published("tpcw-shopping")
            .unwrap()
            .clients(7)
            .resolve();
        assert_eq!(config.clients_per_replica, 7);
        assert_eq!(spec.unwrap().clients_per_replica, 7);
    }

    #[test]
    fn profile_file_of_a_synth_workload_adopts_its_deployment_parameters() {
        // An `@profile.json` whose name is a synth description predicts
        // at the synth point's client count (and think time), exactly
        // like a published-profile file does for published names.
        let mut profile = WorkloadProfile::tpcw_shopping();
        profile.name = "synth:ycsb-b,clients=20".to_string();
        let report = Scenario::from_profile(profile)
            .designs(vec![Design::MultiMaster])
            .replicas([1])
            .run()
            .unwrap();
        assert_eq!(report.clients_per_replica, 20);
        // Unresolvable names keep the C = 50 fallback.
        let mut profile = WorkloadProfile::tpcw_shopping();
        profile.name = "my-custom-profile".to_string();
        let report = Scenario::from_profile(profile)
            .designs(vec![Design::MultiMaster])
            .replicas([1])
            .run()
            .unwrap();
        assert_eq!(report.clients_per_replica, 50);
    }

    #[test]
    fn profile_only_scenario_cannot_simulate() {
        let s = Scenario::from_profile(WorkloadProfile::tpcw_shopping())
            .replicas([2])
            .simulate(true);
        assert!(matches!(
            s.run(),
            Err(ScenarioError::SimulationUnavailable(_))
        ));
    }

    #[test]
    fn empty_sets_are_rejected() {
        let s = Scenario::published("tpcw-shopping").unwrap();
        assert!(matches!(
            s.clone().designs(vec![]).run(),
            Err(ScenarioError::EmptyScenario("designs"))
        ));
        assert!(matches!(
            s.replicas([]).run(),
            Err(ScenarioError::EmptyScenario("replica points"))
        ));
    }

    #[test]
    fn predict_only_run_covers_all_designs() {
        let report = Scenario::published("tpcw-shopping")
            .unwrap()
            .all_designs()
            .replicas([1, 4])
            .run()
            .unwrap();
        assert_eq!(report.workload, "tpcw-shopping");
        assert_eq!(report.designs.len(), 3);
        for d in &report.designs {
            let curve = d.predicted.as_ref().expect("prediction enabled");
            assert_eq!(curve.design, d.design);
            assert_eq!(curve.points.len(), 2);
            assert!(d.measured.is_empty());
        }
        // The registry preserves the requested order.
        let keys: Vec<_> = report.designs.iter().map(|d| d.design).collect();
        assert_eq!(keys, Design::ALL.to_vec());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = Scenario::published("rubis-browsing")
            .unwrap()
            .designs(vec![Design::MultiMaster])
            .replicas([1, 2])
            .run()
            .unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn parallel_run_matches_serial() {
        let scenario = Scenario::published("tpcw-shopping")
            .unwrap()
            .all_designs()
            .replicas([1, 2])
            .seed(7)
            .simulate(true)
            .sim_config(SimConfig {
                warmup: 2.0,
                duration: 8.0,
                ..SimConfig::quick(0, 0)
            });
        let serial = scenario.clone().jobs(1).run().unwrap();
        let parallel = scenario.jobs(4).run().unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn seed_replications_add_ci_rows_without_moving_measured() {
        let scenario = Scenario::published("tpcw-shopping")
            .unwrap()
            .designs(vec![Design::MultiMaster])
            .replicas([2])
            .seed(11)
            .simulate(true)
            .sim_config(SimConfig {
                warmup: 2.0,
                duration: 8.0,
                ..SimConfig::quick(0, 0)
            });
        let single = scenario.clone().run().unwrap();
        let replicated = scenario.seeds(3).jobs(2).run().unwrap();
        let d1 = single.design(Design::MultiMaster).unwrap();
        let d3 = replicated.design(Design::MultiMaster).unwrap();
        // The base-seed measurement is replication 0: unchanged.
        assert_eq!(d1.measured, d3.measured);
        assert!(d1.replicated.is_empty());
        assert_eq!(d3.replicated.len(), 1);
        let summary = &d3.replicated[0];
        assert_eq!(summary.replicas, 2);
        assert_eq!(summary.seeds, 3);
        assert!(summary.throughput_tps > 0.0);
        // Three distinct seeds: the CI half-width is strictly positive.
        assert!(summary.throughput_ci95 > 0.0);
    }

    #[test]
    fn simulation_pairs_with_prediction() {
        let report = Scenario::published("tpcw-shopping")
            .unwrap()
            .designs(vec![Design::MultiMaster])
            .replicas([2])
            .seed(7)
            .simulate(true)
            .sim_config(SimConfig {
                warmup: 2.0,
                duration: 10.0,
                ..SimConfig::quick(0, 0)
            })
            .run()
            .unwrap();
        let d = report.design(Design::MultiMaster).unwrap();
        let paired = d.paired();
        assert_eq!(paired.len(), 1);
        let (predicted, measured) = paired[0];
        assert_eq!(predicted.replicas, 2);
        assert_eq!(measured.replicas, 2);
        assert!(measured.throughput_tps > 0.0);
    }
}
