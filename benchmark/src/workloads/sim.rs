//! The three simulator workloads: `validate_quick` (many short cells —
//! set-up-bound), `sweep_long` (few long cells — the steady-state path)
//! and `phases_faults` (the crash / rejoin / durable paths).
//!
//! Untraced passes go through the user-facing drivers
//! ([`ValidationGrid::run`], [`Scenario::run`]) with `jobs = 1`. Traced
//! passes re-drive the same cells through the design registry
//! (`Design::predictor`, `Design::simulator`) so each layer boundary gets
//! a span; [`CellGroup::run_direct`] mirrors `Scenario::run` step by
//! step, and the equal `report_digest` of the two routes is the check
//! that it does. Replica seeding (`WorkloadSpec::install`) happens inside
//! every simulated cell, so it is inside the timed pass — users pay it on
//! every cell.

use replipred::model::{Design, Schedule, SystemConfig, WorkloadProfile};
use replipred::profiler::Profiler;
use replipred::repl::{DurabilityConfig, RunReport, SimConfig, SimulatorRegistry};
use replipred::scenario::{
    parse_workload, published_profile, DesignReport, Scenario, ScenarioReport,
};
use replipred::validate::{CellError, ValidationGrid, WorkloadValidation, ABORT_FLOOR};
use replipred::workload::WorkloadSpec;

use super::{digest_of, rel_error, Checks, ModelErrors, PassOutput, Size};
use crate::shadow;
use crate::trace::Tracer;

/// One simulated cell of a traced pass: what the shadow replay needs to
/// redo its work through the lower layers.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Cell id, shared by the cell's spans.
    pub id: u32,
    /// The workload the cell ran.
    pub spec: WorkloadSpec,
    /// The design simulated.
    pub design: Design,
    /// The exact configuration the simulator got.
    pub cfg: SimConfig,
    /// What it reported (the op counts the shadow replay scales).
    pub report: RunReport,
}

/// Cells that share a workload and windows: one `Scenario` of the
/// untraced pass.
#[derive(Debug, Clone)]
pub struct CellGroup {
    /// Registry name (`tpcw-shopping`, `synth:write-heavy`, ...).
    pub name: String,
    /// The parsed workload.
    pub spec: WorkloadSpec,
    /// Designs, in report order.
    pub designs: Vec<Design>,
    /// Replica points.
    pub replicas: Vec<usize>,
    /// Window/delay template; `replicas` and `seed` are set per cell.
    pub windows: SimConfig,
    /// Whether predictor curves are computed beside the simulation.
    pub predict: bool,
    /// Time-phased schedule, for the fault cells.
    pub schedule: Option<Schedule>,
    /// Durability, for the `--durable` cells.
    pub durability: Option<DurabilityConfig>,
}

impl CellGroup {
    fn new(name: &str, designs: &[Design], replicas: &[usize], windows: SimConfig) -> Self {
        CellGroup {
            name: name.to_string(),
            spec: parse_workload(name).expect("benchmark workload names are registered"),
            designs: designs.to_vec(),
            replicas: replicas.to_vec(),
            windows,
            predict: true,
            schedule: None,
            durability: None,
        }
    }

    /// The group as the `Scenario` a library user would build.
    fn scenario(&self, seed: u64) -> Scenario {
        let mut s = Scenario::workload(&self.name)
            .expect("benchmark workload names are registered")
            .designs(self.designs.clone())
            .replicas(self.replicas.iter().copied())
            .seed(seed)
            .jobs(1)
            .predict(self.predict)
            .simulate(true)
            .sim_config(self.windows.clone());
        if let Some(schedule) = &self.schedule {
            s = s.schedule(schedule.clone());
        }
        if let Some(durability) = &self.durability {
            s = s.durability(durability.clone());
        }
        s
    }

    /// The same cells driven directly through the design registry, with a
    /// span per layer call. `profile` is the already measured profile
    /// (the validate grid profiles once per workload); `None` resolves it
    /// the way `Scenario::workload` does — published table values, or a
    /// live profiling run for synthetic workloads.
    fn run_direct(
        &self,
        seed: u64,
        profile: Option<&WorkloadProfile>,
        tracer: &mut Tracer,
        cells: &mut Vec<SimCell>,
    ) -> Result<ScenarioReport, String> {
        let profile = match profile.cloned().or_else(|| published_profile(&self.name)) {
            Some(p) => p,
            None => profile_live(&self.spec, seed, tracer),
        };
        let mut config = SystemConfig::lan_cluster(self.spec.clients_per_replica);
        config.think_time = self.spec.think_time;

        let mut curves = Vec::with_capacity(self.designs.len());
        for &design in &self.designs {
            curves.push(if self.predict {
                let span = tracer.enter("core.predictor");
                let predictor = design.predictor(profile.clone(), config.clone());
                tracer.exit(span);
                let predictor = predictor.map_err(|e| e.to_string())?;
                let span = tracer.enter_batch("core.curve_at", self.replicas.len() as u64);
                let curve = predictor.curve_at(&self.replicas);
                tracer.exit(span);
                Some(curve.map_err(|e| e.to_string())?)
            } else {
                None
            });
        }

        let mut designs = Vec::with_capacity(self.designs.len());
        for (&design, predicted) in self.designs.iter().zip(curves) {
            let mut measured = Vec::with_capacity(self.replicas.len());
            for &n in &self.replicas {
                let mut cfg = SimConfig {
                    replicas: n,
                    seed,
                    ..self.windows.clone()
                };
                if let Some(schedule) = &self.schedule {
                    cfg.schedule = schedule.clone();
                }
                if let Some(durability) = &self.durability {
                    cfg.durability = durability.clone();
                }
                let id = cells.len() as u32;
                tracer.set_cell(Some(id));
                let span = tracer.enter("repl.simulate");
                let report = design.simulator(self.spec.clone(), cfg.clone()).run();
                tracer.exit(span);
                tracer.set_cell(None);
                let cell = SimCell {
                    id,
                    spec: self.spec.clone(),
                    design,
                    cfg,
                    report: report.clone(),
                };
                // Right after the cell, while the host runs at the speed
                // the cell saw; cut out of the pass's time afterwards.
                shadow::replay_cell(&cell, tracer);
                cells.push(cell);
                measured.push(report);
            }
            designs.push(DesignReport {
                design,
                predicted,
                measured,
                replicated: Vec::new(),
            });
        }
        Ok(ScenarioReport {
            workload: profile.name.clone(),
            seed,
            seeds: 1,
            clients_per_replica: config.clients_per_replica,
            replicas: self.replicas.clone(),
            designs,
        })
    }
}

fn profile_live(spec: &WorkloadSpec, seed: u64, tracer: &mut Tracer) -> WorkloadProfile {
    tracer.time("profiler.profile", || {
        Profiler::new(spec.clone()).seed(seed).profile().profile
    })
}

/// Inputs of one simulator workload, made in set-up.
#[derive(Debug, Clone)]
pub struct SimState {
    seed: u64,
    kind: Kind,
    groups: Vec<CellGroup>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `ValidationGrid` over the groups' workloads.
    Validate,
    /// One `Scenario` per group.
    Scenarios,
}

/// `validate_quick`: the headline `validate` grid over two published
/// mixes and two synthetic corners × all designs × n ∈ {1, 2, 4}, default
/// 15 s + 60 s virtual windows, live profiling included (28 cells, 60
/// replica installs).
pub fn setup_validate_quick(seed: u64, size: Size) -> SimState {
    let (names, replicas, windows): (&[&str], &[usize], SimConfig) = match size {
        Size::Full => (
            &[
                "tpcw-shopping",
                "rubis-bidding",
                "synth:write-heavy",
                "synth:hot-spot",
            ],
            &[1, 2, 4],
            validate_windows(15.0, 60.0),
        ),
        Size::Smoke => (
            &["tpcw-shopping", "synth:write-heavy"],
            &[1, 2],
            validate_windows(2.0, 6.0),
        ),
    };
    let groups = names
        .iter()
        .map(|name| CellGroup::new(name, &Design::ALL, replicas, windows.clone()))
        .collect();
    SimState {
        seed,
        kind: Kind::Validate,
        groups,
    }
}

fn validate_windows(warmup: f64, duration: f64) -> SimConfig {
    SimConfig {
        warmup,
        duration,
        ..SimConfig::quick(0, 0)
    }
}

/// `sweep_long`: few cells, long windows (200 s + 600 s virtual), so the
/// steady-state path does most of the work: `tpcw-shopping × {mm, sm} × 8`
/// and `synth:write-heavy × {mm, sm} × 4`. Predictor curves ride along
/// (microseconds) so the workload carries the accuracy metrics.
pub fn setup_sweep_long(seed: u64, size: Size) -> SimState {
    let windows = match size {
        Size::Full => validate_windows(200.0, 600.0),
        Size::Smoke => validate_windows(20.0, 60.0),
    };
    let replicated = [Design::MultiMaster, Design::SingleMaster];
    SimState {
        seed,
        kind: Kind::Scenarios,
        groups: vec![
            CellGroup::new("tpcw-shopping", &replicated, &[8], windows.clone()),
            CellGroup::new("synth:write-heavy", &replicated, &[4], windows),
        ],
    }
}

/// `phases_faults`: four phased cells at 60 s + 540 s virtual, n = 4 —
/// crash + flash crowd + join on MM; crash + certifier outage + join on
/// durable MM; master crash and rejoin on durable SM with a 64-entry
/// relay log; slave crash and rejoin on durable SM with an 8-entry log
/// (forcing the checkpoint state-transfer fallback).
pub fn setup_phases_faults(seed: u64, size: Size) -> SimState {
    // Smoke runs compress the timeline tenfold; event times scale along.
    let (windows, k) = match size {
        Size::Full => (validate_windows(60.0, 540.0), 1.0),
        Size::Smoke => (validate_windows(6.0, 54.0), 0.1),
    };
    let t = |secs: f64| secs * k;
    let durable = |log_retention| DurabilityConfig {
        enabled: true,
        log_retention,
        ..DurabilityConfig::default()
    };
    let cell = |name: &str,
                design: Design,
                schedule: Schedule,
                durability: Option<DurabilityConfig>| CellGroup {
        predict: false,
        schedule: Some(schedule.window(t(10.0))),
        durability,
        ..CellGroup::new(name, &[design], &[4], windows.clone())
    };
    SimState {
        seed,
        kind: Kind::Scenarios,
        groups: vec![
            cell(
                "tpcw-shopping",
                Design::MultiMaster,
                Schedule::new()
                    .crash(t(100.0), 1)
                    .flash_crowd(t(150.0), 2.0, t(60.0))
                    .join(t(300.0), 1),
                None,
            ),
            cell(
                "tpcw-shopping",
                Design::MultiMaster,
                Schedule::new()
                    .crash(t(100.0), 1)
                    .certifier_down(t(150.0))
                    .certifier_up(t(170.0))
                    .join(t(300.0), 1),
                Some(durable(0)),
            ),
            cell(
                "tpcw-shopping",
                Design::SingleMaster,
                Schedule::new().crash(t(100.0), 0).join(t(300.0), 0),
                Some(durable(64)),
            ),
            cell(
                "synth:write-heavy",
                Design::SingleMaster,
                Schedule::new().crash(t(100.0), 1).join(t(300.0), 1),
                Some(durable(8)),
            ),
        ],
    }
}

/// What a pass leaves for its (untimed) check.
#[derive(Debug)]
pub struct SimRaw {
    reports: Result<Reports, String>,
    /// The simulated cells of a traced pass (empty when untraced).
    pub cells: Vec<SimCell>,
}

#[derive(Debug)]
enum Reports {
    Validation(Vec<WorkloadValidation>),
    Scenarios(Vec<ScenarioReport>),
}

/// One pass of a simulator workload. Untraced: the user-facing drivers.
/// Traced: the same cells through the registry, spans recorded, each
/// cell followed by its shadow replay.
pub fn pass(state: &mut SimState, tracer: &mut Tracer) -> SimRaw {
    let mut cells = Vec::new();
    let reports = match state.kind {
        Kind::Validate => if tracer.is_enabled() {
            validate_direct(state, tracer, &mut cells)
        } else {
            validate_grid(state, 1)
        }
        .map(Reports::Validation),
        Kind::Scenarios => state
            .groups
            .iter()
            .map(|group| {
                if tracer.is_enabled() {
                    let span = tracer.enter("scenario.run");
                    let report = group.run_direct(state.seed, None, tracer, &mut cells);
                    tracer.exit(span);
                    report
                } else {
                    group.scenario(state.seed).run().map_err(|e| e.to_string())
                }
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Reports::Scenarios),
    };
    SimRaw { reports, cells }
}

/// The determinism contract, checked once per traced `validate_quick`
/// run: the grid's report is byte-identical for `jobs = 2` and `jobs = 1`.
pub fn check_jobs_identity(state: &SimState, serial_digest: u64) -> Checks {
    let mut checks = Checks::default();
    let parallel = validate_grid(state, 2).map(|w| digest_of(&w));
    checks.op(parallel == Ok(serial_digest), || {
        format!("jobs = 2 digest {parallel:?} differs from the jobs = 1 digest {serial_digest:x}")
    });
    checks
}

/// Checks a pass's reports and folds them into ops, errors and counts.
pub fn check(state: &SimState, raw: &mut SimRaw) -> PassOutput {
    let mut out = PassOutput::default();
    match &raw.reports {
        Ok(Reports::Validation(workloads)) => fold_validation(workloads, state, &mut out),
        Ok(Reports::Scenarios(reports)) => fold_scenarios(reports, state, &mut out),
        Err(error) => {
            // The driver returned `Err`: every cell of the pass failed.
            let cells: usize = state
                .groups
                .iter()
                .map(|g| g.designs.len() * g.replicas.len())
                .sum();
            out.checks.attempted += cells as u64;
            out.checks.failed += cells as u64;
            out.checks.notes.push(format!("driver error: {error}"));
        }
    }
    out
}

fn validate_grid(state: &SimState, jobs: usize) -> Result<Vec<WorkloadValidation>, String> {
    let first = &state.groups[0];
    ValidationGrid::new()
        .specs(state.groups.iter().map(|g| g.spec.clone()).collect())
        .designs(first.designs.clone())
        .replicas(first.replicas.iter().copied())
        .seed(state.seed)
        .jobs(jobs)
        .sim_config(first.windows.clone())
        .run()
        .map(|report| report.workloads)
        .map_err(|e| e.to_string())
}

/// `ValidationGrid::run_workload`, re-driven: profile once, run the
/// replicated sub-grid and the standalone `n = 1` anchor from the same
/// measurement, fold the cells in design order.
fn validate_direct(
    state: &SimState,
    tracer: &mut Tracer,
    cells: &mut Vec<SimCell>,
) -> Result<Vec<WorkloadValidation>, String> {
    let mut workloads = Vec::with_capacity(state.groups.len());
    for group in &state.groups {
        let span = tracer.enter("scenario.validate_workload");
        let profile = profile_live(&group.spec, state.seed, tracer);
        let replicated: Vec<Design> = group
            .designs
            .iter()
            .copied()
            .filter(|&d| d != Design::Standalone)
            .collect();
        let mut reports = Vec::new();
        if !replicated.is_empty() {
            let sub = CellGroup {
                designs: replicated,
                ..group.clone()
            };
            reports.push(sub.run_direct(state.seed, Some(&profile), tracer, cells)?);
        }
        if group.designs.contains(&Design::Standalone) && group.replicas.contains(&1) {
            let sub = CellGroup {
                designs: vec![Design::Standalone],
                replicas: vec![1],
                ..group.clone()
            };
            reports.push(sub.run_direct(state.seed, Some(&profile), tracer, cells)?);
        }
        let mut errors = Vec::new();
        for &design in &group.designs {
            let Some(d) = reports.iter().find_map(|r| r.design(design)) else {
                continue;
            };
            for (p, m) in d.paired() {
                errors.push(CellError {
                    design,
                    replicas: p.replicas,
                    predicted_throughput_tps: p.throughput_tps,
                    measured_throughput_tps: m.throughput_tps,
                    throughput_error: rel_error(p.throughput_tps, m.throughput_tps, 1e-9),
                    predicted_response_time: p.response_time,
                    measured_response_time: m.response_time,
                    response_error: rel_error(p.response_time, m.response_time, 1e-9),
                    predicted_abort_rate: p.abort_rate,
                    measured_abort_rate: m.abort_rate,
                    abort_error: rel_error(p.abort_rate, m.abort_rate, ABORT_FLOOR),
                });
            }
        }
        workloads.push(WorkloadValidation {
            workload: group.spec.name.clone(),
            clients_per_replica: reports
                .first()
                .map_or(group.spec.clients_per_replica, |r| r.clients_per_replica),
            cells: errors,
        });
        tracer.exit(span);
    }
    Ok(workloads)
}

/// Accumulates the three error means over MM + SM cells.
#[derive(Default)]
struct ErrorMeans {
    cells: u64,
    tput: f64,
    resp: f64,
    abort: f64,
    /// Throughput error over the published mixes only (the `validate`
    /// band the repo's tests hold at < 20 %).
    published_cells: u64,
    published_tput: f64,
}

impl ErrorMeans {
    fn add(&mut self, published: bool, tput: f64, resp: f64, abort: f64) {
        self.cells += 1;
        self.tput += tput;
        self.resp += resp;
        self.abort += abort;
        if published {
            self.published_cells += 1;
            self.published_tput += tput;
        }
    }

    fn finish(self, out: &mut PassOutput) {
        if self.cells > 0 {
            let n = self.cells as f64;
            out.model = Some(ModelErrors {
                tput_pct: 100.0 * self.tput / n,
                resp_pct: 100.0 * self.resp / n,
                abort_pct: 100.0 * self.abort / n,
            });
        }
        if self.published_cells > 0 {
            let mean = self.published_tput / self.published_cells as f64;
            out.checks.op(mean < 0.20, || {
                format!(
                    "published-mix MM/SM mean throughput error {mean:.3} is outside the 20% band"
                )
            });
        }
    }
}

fn is_published(name: &str) -> bool {
    published_profile(name).is_some()
}

fn fold_validation(workloads: &[WorkloadValidation], state: &SimState, out: &mut PassOutput) {
    out.digest = digest_of(&workloads.to_vec());
    let window = state.groups[0].windows.duration;
    let mut means = ErrorMeans::default();
    let mut commits = 0u64;
    for w in workloads {
        for c in &w.cells {
            let sane = c.measured_throughput_tps > 0.0
                && c.measured_response_time.is_finite()
                && (0.0..=1.0).contains(&c.measured_abort_rate)
                && c.predicted_throughput_tps.is_finite()
                && c.predicted_throughput_tps > 0.0;
            out.checks.op(sane, || {
                format!(
                    "{} {} n={}: implausible cell {c:?}",
                    w.workload, c.design, c.replicas
                )
            });
            // The grid reports rates, not counts: commits in the window
            // are throughput × window length (exact, up to rounding).
            commits += (c.measured_throughput_tps * window).round() as u64;
            if c.design != Design::Standalone {
                means.add(
                    is_published(&w.workload),
                    c.throughput_error,
                    c.response_error,
                    c.abort_error,
                );
            }
        }
    }
    out.ops = commits;
    out.count("cells", out.checks.attempted);
    out.count("window_commits", commits);
    means.finish(out);
}

fn fold_scenarios(reports: &[ScenarioReport], state: &SimState, out: &mut PassOutput) {
    out.digest = digest_of(&reports.to_vec());
    let mut means = ErrorMeans::default();
    let (mut commits, mut aborts, mut applied) = (0u64, 0u64, 0u64);
    for (report, group) in reports.iter().zip(&state.groups) {
        for d in &report.designs {
            for run in &d.measured {
                let sane = run.read_commits + run.update_commits > 0
                    && (0.0..=1.0).contains(&run.abort_rate)
                    && run.mean_cpu_utilization.is_finite()
                    && run.mean_disk_utilization.is_finite()
                    && run.max_utilization.is_finite();
                out.checks.op(sane, || {
                    format!(
                        "{} {} n={}: implausible run",
                        run.workload, d.design, run.replicas
                    )
                });
                commits += run.read_commits + run.update_commits;
                aborts += run.conflict_aborts;
                applied += run.writesets_applied;
                if let Some(schedule) = &group.schedule {
                    check_phased(run, schedule, out);
                }
            }
            if d.design != Design::Standalone {
                for (p, m) in d.paired() {
                    means.add(
                        is_published(&group.name),
                        rel_error(p.throughput_tps, m.throughput_tps, 1e-9),
                        rel_error(p.response_time, m.response_time, 1e-9),
                        rel_error(p.abort_rate, m.abort_rate, ABORT_FLOOR),
                    );
                }
            }
        }
    }
    out.ops = commits + aborts;
    out.count("cells", out.checks.attempted);
    out.count("window_commits", commits);
    out.count("window_conflict_aborts", aborts);
    out.count("window_writesets_applied", applied);
    means.finish(out);
}

/// A phased cell must echo every scheduled event, in firing order, and
/// its transient windows must account for every commit of the run.
fn check_phased(run: &RunReport, schedule: &Schedule, out: &mut PassOutput) {
    let Some(t) = &run.transient else {
        out.checks.fail(format!(
            "{}: scheduled run has no transient report",
            run.workload
        ));
        return;
    };
    let scheduled = schedule.sorted_events();
    let echoed = t.events.len() == scheduled.len()
        && t.events.iter().zip(&scheduled).all(|(e, s)| e.at == s.at);
    if !echoed {
        out.checks.fail(format!(
            "{}: {} events scheduled, {} echoed",
            run.workload,
            scheduled.len(),
            t.events.len()
        ));
    }
    let windowed: u64 = t.windows.iter().map(|w| w.commits).sum();
    if windowed != run.read_commits + run.update_commits {
        out.checks.fail(format!(
            "{}: windows hold {windowed} commits, the run reports {}",
            run.workload,
            run.read_commits + run.update_commits
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_routes_agree_on_a_small_grid() {
        let mut state = setup_validate_quick(11, Size::Smoke);
        let mut raw = pass(&mut state, &mut Tracer::disabled());
        assert!(raw.cells.is_empty());
        let plain = check(&state, &mut raw);
        let mut tracer = Tracer::enabled();
        let mut raw = pass(&mut state, &mut tracer);
        let traced = check(&state, &mut raw);
        let cells = raw.cells;
        assert_eq!(
            plain, traced,
            "registry route must reproduce the grid's report"
        );
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.notes);
        // 2 workloads × (mm, sm at n = 1, 2 + the standalone anchor).
        assert_eq!(cells.len(), 10);
        assert!(plain.model.is_some() && plain.ops > 0);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for expected in ["profiler.profile", "core.curve_at", "repl.simulate"] {
            assert!(names.contains(&expected), "no {expected} span");
        }
    }

    #[test]
    fn phased_cells_echo_their_events_and_account_for_commits() {
        let mut state = setup_phases_faults(3, Size::Smoke);
        let mut raw = pass(&mut state, &mut Tracer::disabled());
        let plain = check(&state, &mut raw);
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.notes);
        assert_eq!(plain.checks.attempted, 4);
        let mut raw = pass(&mut state, &mut Tracer::enabled());
        let traced = check(&state, &mut raw);
        let cells = raw.cells;
        assert_eq!(plain, traced);
        assert_eq!(cells.len(), 4);
        assert!(cells[1].cfg.durability.enabled && !cells[0].cfg.durability.enabled);
    }
}
