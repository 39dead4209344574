//! The paper's evaluation (Section 6) as one table: every figure, table,
//! ablation and sensitivity sweep is a row of [`ARTIFACTS`], rendered to
//! text by `replipred figures <key>… | --all | --list`.
//!
//! The evaluation is one shape repeated — Figures 6–13 are
//! (TPC-W | RUBiS) × (MM | SM) × (throughput | response time), Tables 2–5
//! are (TPC-W | RUBiS) × (parameters | demands) — so those twelve rows are
//! pure data rendered straight from a [`ScenarioReport`]: the **model
//! prediction** (driven by standalone profiling) next to the **measured
//! value** (the cluster simulation, our stand-in for the authors'
//! 16-machine prototype). The other eight rows carry a function. A
//! [`Session`] remembers each workload × design grid it has run, so a
//! throughput figure and its response-time twin simulate once.

use std::fmt::{self, Write as _};

use replipred_core::planner::{plan, Slo};
use replipred_core::{
    AbortModel, Design, Prediction, ResourceDemands, SystemConfig, WorkloadProfile,
};
use replipred_mva::{approx, exact, multiclass, network::CenterKind, ClosedNetwork};
use replipred_profiler::Profiler;
use replipred_repl::{SimConfig, SimulatorRegistry};
use replipred_sim::pool::map_parallel;
use replipred_workload::spec::WorkloadSpec;
use replipred_workload::{heap, rubis, tpcw};

use crate::scenario::{DesignReport, Scenario, ScenarioReport, DEFAULT_SEED, PAPER_CLUSTER};
use crate::validate::rel_error;

/// How the artifacts run: `--seed`, `--seeds`, `--jobs` and `--full`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed for profiling and simulation (default 2009, the paper's year).
    pub seed: u64,
    /// Seed replications per simulated point (default 1); with ≥ 2 every
    /// figure's measured column is the replication mean.
    pub seeds: usize,
    /// Worker threads for simulation cells (default 1). Output is
    /// identical for every value.
    pub jobs: usize,
    /// Paper-length windows (10 min warm-up, 15 min measurement) and the
    /// full replica sweep 1..=16, instead of the quick 20 s / 60 s windows
    /// at N ∈ {1, 2, 4, 8, 12, 16}.
    pub full: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: DEFAULT_SEED,
            seeds: 1,
            jobs: 1,
            full: false,
        }
    }
}

/// The two benchmark families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// TPC-W: browsing, shopping, ordering (Tables 2–3, Figures 6–9).
    Tpcw,
    /// RUBiS: browsing, bidding (Tables 4–5, Figures 10–13).
    Rubis,
}

impl Family {
    /// The family's mixes in paper order.
    fn mixes(self) -> Vec<WorkloadSpec> {
        match self {
            Family::Tpcw => tpcw::Mix::ALL.into_iter().map(tpcw::mix).collect(),
            Family::Rubis => rubis::Mix::ALL.into_iter().map(rubis::mix).collect(),
        }
    }
}

/// The y-axis of a scalability figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Committed transactions per second (Figures 6, 8, 10, 12).
    Throughput,
    /// Average response time (Figures 7, 9, 11, 13).
    Response,
}

/// What an artifact is made of.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Measured vs predicted metric of every mix of the family on the
    /// design, across the replica sweep.
    Curve(Family, Design, Metric),
    /// The family's mix parameters (`Pr`, `Pw`, `C`, `Z`).
    Params(Family),
    /// The family's service demands, recovered by the profiling pipeline.
    Demands(Family),
    /// Anything else: the function renders the lines below the title.
    Bespoke(fn(&mut Session, &mut String) -> fmt::Result),
}

/// One row of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// What `replipred figures <key>` calls it.
    pub key: &'static str,
    /// The title line of its output.
    pub title: &'static str,
    /// Its data.
    pub kind: Kind,
}

const fn row(key: &'static str, title: &'static str, kind: Kind) -> Artifact {
    Artifact { key, title, kind }
}

use Design::{MultiMaster as Mm, SingleMaster as Sm};
use Family::{Rubis, Tpcw};
use Kind::{Bespoke, Curve, Demands, Params};
use Metric::{Response, Throughput};

/// Every artifact of the evaluation, in the order `--all` prints them.
#[rustfmt::skip]
pub static ARTIFACTS: [Artifact; 20] = [
    row("table2", "Table 2. TPC-W parameters.", Params(Tpcw)),
    row("table3", "Table 3. Measured service demands (in ms) for TPC-W.", Demands(Tpcw)),
    row("table4", "Table 4. RUBiS parameters.", Params(Rubis)),
    row("table5", "Table 5. Measured service demands (in ms) for RUBiS.", Demands(Rubis)),
    row("fig6", "Figure 6. TPC-W throughput on MM system.", Curve(Tpcw, Mm, Throughput)),
    row("fig7", "Figure 7. TPC-W response time on MM system.", Curve(Tpcw, Mm, Response)),
    row("fig8", "Figure 8. TPC-W throughput on SM system.", Curve(Tpcw, Sm, Throughput)),
    row("fig9", "Figure 9. TPC-W response time on SM system.", Curve(Tpcw, Sm, Response)),
    row("fig10", "Figure 10. RUBiS throughput on MM system.", Curve(Rubis, Mm, Throughput)),
    row("fig11", "Figure 11. RUBiS response time on MM system.", Curve(Rubis, Mm, Response)),
    row("fig12", "Figure 12. RUBiS throughput on SM system.", Curve(Rubis, Sm, Throughput)),
    row("fig13", "Figure 13. RUBiS response time on SM system.", Curve(Rubis, Sm, Response)),
    row("fig14", "Figure 14. TPC-W shopping MM abort probabilities.", Bespoke(abort_scaling)),
    row("ablation-certifier-model", "Ablation: delay-center certifier (model) vs mechanistic (sim).", Bespoke(certifier_model)),
    row("ablation-cw-fixed-point", "Ablation: conflict-window fixed point (MM, TPC-W shopping, N=16).", Bespoke(cw_fixed_point)),
    row("ablation-mva-exact-vs-approx", "Ablation: exact vs approximate single-class MVA.", Bespoke(mva_exact_vs_approx)),
    row("ablation-profiled-vs-truth", "Ablation: profiled parameters vs ground truth (MM, TPC-W shopping).", Bespoke(profiled_vs_truth)),
    row("sens-certifier", "Sensitivity: certifier delay (MM, TPC-W shopping, N=8).", Bespoke(sens_certifier)),
    row("sens-network-delay", "Sensitivity: load balancer / network delay (MM, TPC-W shopping, N=8).", Bespoke(sens_network_delay)),
    row("capacity-planner", "Capacity planning from standalone profiling (TPC-W shopping).", Bespoke(capacity_planner)),
];

/// The artifact `key` names, if any.
pub fn find(key: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.key == key)
}

/// One `figures` invocation: the options plus every model-vs-simulation
/// grid run so far, keyed by workload name × design.
#[derive(Debug)]
pub struct Session {
    opts: Options,
    grids: Vec<(String, Design, ScenarioReport)>,
}

impl Session {
    /// A session with no grid run yet.
    pub fn new(opts: Options) -> Self {
        Session {
            opts,
            grids: Vec::new(),
        }
    }

    /// Renders one artifact: its title line, then its rows.
    pub fn render(&mut self, artifact: &Artifact) -> String {
        let mut out = format!("# {}\n", artifact.title);
        match artifact.kind {
            Curve(family, design, metric) => self.curve(&mut out, family, design, metric),
            Params(family) => params(&mut out, family),
            Demands(family) => self.demands(&mut out, family),
            Bespoke(render) => render(self, &mut out),
        }
        .expect("writing to a String cannot fail");
        out
    }

    /// Replica sweep for the current mode.
    fn sweep(&self) -> Vec<usize> {
        if self.opts.full {
            (1..=PAPER_CLUSTER).collect()
        } else {
            vec![1, 2, 4, 8, 12, PAPER_CLUSTER]
        }
    }

    /// Simulation windows for the current mode.
    fn sim_config(&self, replicas: usize) -> SimConfig {
        if self.opts.full {
            SimConfig::paper(replicas, self.opts.seed)
        } else {
            SimConfig::quick(replicas, self.opts.seed)
        }
    }

    /// Profiles the workload on the standalone system (the paper's
    /// Section-4 pipeline) and returns the resulting model input.
    fn profile(&self, spec: &WorkloadSpec) -> WorkloadProfile {
        Profiler::new(spec.clone())
            .seed(self.opts.seed)
            .profile()
            .profile
    }

    /// The model-vs-simulation comparison of one workload on one design
    /// across the sweep, through the shared [`Scenario`] driver: the
    /// profile is measured on the standalone simulation, then predictor
    /// and simulator run side by side. Run once per session.
    fn grid(&mut self, spec: &WorkloadSpec, design: Design) -> &DesignReport {
        let known = |(w, d, _): &(String, Design, ScenarioReport)| *w == spec.name && *d == design;
        let i = self.grids.iter().position(known).unwrap_or_else(|| {
            let report = Scenario::from_spec(spec.clone())
                .designs(vec![design])
                .replicas(self.sweep())
                .seed(self.opts.seed)
                .seeds(self.opts.seeds)
                .jobs(self.opts.jobs)
                .simulate(true)
                .sim_config(self.sim_config(0))
                .run()
                .expect("profiled inputs are valid");
            self.grids.push((spec.name.clone(), design, report));
            self.grids.len() - 1
        });
        &self.grids[i].2.designs[0]
    }

    /// Figures 6–13: one series per mix, measured and predicted columns.
    fn curve(
        &mut self,
        out: &mut String,
        family: Family,
        design: Design,
        metric: Metric,
    ) -> fmt::Result {
        writeln!(
            out,
            "{}",
            match metric {
                Throughput => "# (throughput in committed transactions/second)",
                Response => "# (average response time in milliseconds)",
            }
        )?;
        writeln!(
            out,
            "{:<18} {:>3} {:>12} {:>12} {:>8}",
            "workload", "N", "measured", "model", "err%"
        )?;
        for spec in family.mixes() {
            let name = &spec.name;
            let compared = self.grid(&spec, design).compared();
            let rows: Vec<(usize, f64, f64)> = compared
                .map(|(p, (tput, resp, _))| match metric {
                    Throughput => (p.replicas, tput, p.throughput_tps),
                    Response => (p.replicas, resp * 1e3, p.response_time * 1e3),
                })
                .collect();
            for &(n, measured, model) in &rows {
                writeln!(
                    out,
                    "{name:<18} {n:>3} {measured:>12.1} {model:>12.1} {:>7.1}%",
                    100.0 * rel_error(model, measured, 1e-9)
                )?;
            }
            if let (Throughput, Some(first), Some(last)) = (metric, rows.first(), rows.last()) {
                writeln!(
                    out,
                    "# {name}: measured speedup {:.1}x, predicted speedup {:.1}x",
                    last.1 / first.1,
                    last.2 / first.2
                )?;
            }
        }
        Ok(())
    }

    /// Tables 3 and 5: the profiling pipeline run against the simulated
    /// standalone database. Table 3 prints the recovered rc/wc/ws next to
    /// the paper's published values — the simulator's ground-truth means.
    fn demands(&self, out: &mut String, family: Family) -> fmt::Result {
        let with_paper = family == Tpcw;
        let mut header = format!(
            "{:<10} {:<9} {:>10} {:>10} {:>12}",
            "Mix", "Resource", "Read(rc)", "Write(wc)", "Writeset(ws)"
        );
        if with_paper {
            write!(header, " | {:>28}", "paper (rc / wc / ws)")?;
        }
        writeln!(out, "{header}")?;
        let cells = |d: &ResourceDemands| [d.read * 1e3, d.write * 1e3, d.writeset * 1e3];
        for spec in family.mixes() {
            let p = self.profile(&spec);
            let rows = [(short_name(&spec), "CPU", p.cpu), ("", "Disk", p.disk)];
            for ((mix, resource, ours), paper) in rows.into_iter().zip(ground_truth(&spec)) {
                let [rc, wc, ws] = cells(&ours);
                let mut row = format!("{mix:<10} {resource:<9} {rc:>10.2} {wc:>10.2} {ws:>12.2}");
                if with_paper {
                    let [rc, wc, ws] = cells(&paper);
                    write!(row, " | {rc:>8.2} {wc:>8.2} {ws:>8.2}")?;
                }
                writeln!(out, "{row}")?;
            }
        }
        Ok(())
    }
}

/// The workload's ground-truth mean demands, `[cpu, disk]` — for the
/// published mixes, the paper's Table 3 / Table 5 values.
fn ground_truth(spec: &WorkloadSpec) -> [ResourceDemands; 2] {
    let cpu = ResourceDemands {
        read: spec.mean_read_cpu(),
        write: spec.mean_write_cpu(),
        writeset: spec.ws_cpu,
    };
    let disk = ResourceDemands {
        read: spec.mean_read_disk(),
        write: spec.mean_write_disk(),
        writeset: spec.ws_disk,
    };
    [cpu, disk]
}

/// `browsing` of `tpcw-browsing`: the mix name without its family prefix.
fn short_name(spec: &WorkloadSpec) -> &str {
    spec.name.split_once('-').map_or(&spec.name, |(_, mix)| mix)
}

/// Tables 2 and 4: the mix parameters as published.
fn params(out: &mut String, family: Family) -> fmt::Result {
    writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>20} {:>12}",
        "Mix", "Read(Pr)", "Write(Pw)", "Clients/Replica(C)", "Think(Z)"
    )?;
    for s in family.mixes() {
        writeln!(
            out,
            "{:<10} {:>8.0}% {:>8.0}% {:>20} {:>9} ms",
            short_name(&s),
            100.0 * s.pr(),
            100.0 * s.pw(),
            s.clients_per_replica,
            (s.think_time * 1e3) as u64
        )?;
    }
    Ok(())
}

fn shopping() -> WorkloadSpec {
    tpcw::mix(tpcw::Mix::Shopping)
}

/// The multi-master model's prediction for `profile` at `n` replicas.
fn predict_mm(profile: &WorkloadProfile, config: SystemConfig, n: usize) -> Prediction {
    let model = Mm.predictor(profile.clone(), config);
    model
        .and_then(|m| m.predict(n))
        .expect("published and profiled inputs are valid")
}

/// Figure 14: multi-master abort probability vs replica count for
/// elevated standalone abort rates (TPC-W shopping + heap-table stressor,
/// Section 6.3.3).
///
/// The paper dials `A1` to 0.24%, 0.53% and 0.90% by shrinking an
/// in-memory heap table that every update transaction additionally
/// writes; `A_N` then grows with the replica count (measured 10%, 17%,
/// 29% at N=16). We pick heap sizes with the inverted abort formula,
/// measure the resulting `A1` on the standalone simulation, and compare
/// the measured replicated abort rate with the model's prediction.
fn abort_scaling(s: &mut Session, out: &mut String) -> fmt::Result {
    let base = shopping();
    // A1 is a rare-event probability (~0.2-1%); at ~5 updates/s a 60 s
    // window sees a couple of conflicts at most. Calibration runs use
    // long windows.
    let calibration = SimConfig {
        warmup: 30.0,
        duration: 1800.0,
        ..s.sim_config(1)
    };
    // Calibrate the heap sizes from a baseline standalone run.
    let baseline = Design::Standalone
        .simulator(base.clone(), calibration.clone())
        .run();
    let update_rate = baseline.update_commits as f64 / baseline.duration;
    let l1 = baseline.update_response_time;
    writeln!(
        out,
        "# calibration: standalone update rate {update_rate:.1}/s, L(1) {:.1} ms",
        l1 * 1e3
    )?;
    writeln!(
        out,
        "{:<10} {:>10} {:>3} {:>14} {:>14}",
        "target A1", "heap rows", "N", "measured A_N", "model A_N"
    )?;
    for target_a1 in [0.0024, 0.0053, 0.0090] {
        let rows = heap::heap_rows_for_a1(target_a1, update_rate, l1);
        let spec = heap::with_heap_stress(&base, rows);
        // Measure the *actual* standalone A1 with the heap installed.
        let a1 = Design::Standalone
            .simulator(spec.clone(), calibration.clone())
            .run()
            .abort_rate;
        let profile = s.profile(&spec).with_a1(a1.max(1e-6));
        let model = Mm
            .predictor(profile, SystemConfig::lan_cluster(spec.clients_per_replica))
            .expect("valid inputs");
        writeln!(
            out,
            "# target A1 {:.2}% -> heap {rows} rows, measured standalone A1 {:.2}%",
            100.0 * target_a1,
            100.0 * a1
        )?;
        // Replica points are independent simulation cells: fan them out
        // over the pool (row order is preserved regardless of job count).
        let measured = map_parallel(s.opts.jobs, s.sweep(), |n| {
            Mm.simulator(spec.clone(), s.sim_config(n)).run()
        });
        for (n, measured) in s.sweep().into_iter().zip(measured) {
            let predicted = model.predict(n).expect("valid inputs").abort_rate;
            writeln!(
                out,
                "{:>9.2}% {rows:>10} {n:>3} {:>13.2}% {:>13.2}%",
                100.0 * target_a1,
                100.0 * measured.abort_rate,
                100.0 * predicted
            )?;
        }
    }
    Ok(())
}

/// Ablation: certifier as a delay center vs the
/// mechanistic certifier. The model treats certification as a fixed
/// 12 ms delay; the simulation has a real certifier with version-based
/// conflict detection. Comparing MM predictions against simulation across
/// the sweep isolates how much that approximation costs.
fn certifier_model(s: &mut Session, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "{:>3} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "N", "sim tps", "model tps", "err%", "sim A_N", "model A_N"
    )?;
    for (p, (tput, _, abort)) in s.grid(&shopping(), Mm).compared() {
        writeln!(
            out,
            "{:>3} {tput:>12.1} {:>12.1} {:>7.1}% {:>11.3}% {:>11.3}%",
            p.replicas,
            p.throughput_tps,
            100.0 * rel_error(p.throughput_tps, tput, 1e-9),
            100.0 * abort,
            100.0 * p.abort_rate
        )?;
    }
    Ok(())
}

/// Ablation: the conflict-window fixed point.
///
/// The paper interleaves the CW(N)/A_N update with MVA's client
/// iteration, which "slightly underestimates the abort probability".
/// This ablation compares the interleaved scheme against a naive
/// fixed CW = L(1) + certification (no feedback) across elevated A1
/// values, showing when the feedback matters.
fn cw_fixed_point(_: &mut Session, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "{:>8} {:>16} {:>16}",
        "A1", "A16 interleaved", "A16 naive(CW=L1)"
    )?;
    for a1 in [0.0024, 0.0053, 0.0090] {
        let profile = WorkloadProfile::tpcw_shopping().with_a1(a1);
        let config = SystemConfig::lan_cluster(40);
        let interleaved = predict_mm(&profile, config.clone(), 16).abort_rate;
        let naive =
            AbortModel::new(a1, profile.l1).replicated(profile.l1 + config.certifier_delay, 16);
        writeln!(
            out,
            "{:>7.2}% {:>15.2}% {:>15.2}%",
            100.0 * a1,
            100.0 * interleaved,
            100.0 * naive
        )?;
    }
    out.push_str(
        "# The interleaved scheme widens CW(N) with congestion, raising\n\
         # A_N above the naive estimate — the paper's Figure-14 trend.\n",
    );
    Ok(())
}

/// Ablation: exact vs Schweitzer-approximate MVA.
/// Quantifies the approximation error across population sizes.
// Solver cost on this network is measured by the benchmark's model layer
// (`mva.exact_us_n640`, `mva.schweitzer_us_n640`), not here.
fn mva_exact_vs_approx(_: &mut Session, out: &mut String) -> fmt::Result {
    let net = ClosedNetwork::builder()
        .queueing("cpu", 0.0414)
        .queueing("disk", 0.0151)
        .delay("cert", 0.012)
        .think_time(1.0)
        .build()
        .expect("valid network");
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>8}",
        "N", "exact tps", "approx tps", "err%"
    )?;
    for n in [10usize, 40, 160, 640, 2560, 10240] {
        let e = exact::solve(&net, n).expect("solves");
        let a = approx::solve_single(&net, n).expect("solves");
        writeln!(
            out,
            "{n:>6} {:>12.2} {:>12.2} {:>7.2}%",
            e.throughput,
            a.throughput,
            100.0 * (a.throughput - e.throughput).abs() / e.throughput,
        )?;
    }
    writeln!(out, "# Two-class master station (reads + writes):")?;
    let mc = multiclass::MulticlassNetwork::new(
        vec![
            ("cpu".into(), CenterKind::Queueing),
            ("disk".into(), CenterKind::Queueing),
        ],
        vec![vec![0.0414, 0.0151], vec![0.0125, 0.0061]],
        vec![1.0, 1.0],
    )
    .expect("valid network");
    writeln!(
        out,
        "{:>12} {:>12} {:>12} {:>8}",
        "pops", "exact tps", "approx tps", "err%"
    )?;
    for pops in [[20usize, 10], [80, 40], [320, 160]] {
        let e = multiclass::solve_exact(&mc, &pops).expect("solves");
        let a = approx::solve_multiclass(&mc, &pops).expect("solves");
        let (et, at) = (e.total_throughput(), a.total_throughput());
        writeln!(
            out,
            "{:>12} {et:>12.2} {at:>12.2} {:>7.2}%",
            format!("{}+{}", pops[0], pops[1]),
            100.0 * (at - et).abs() / et
        )?;
    }
    Ok(())
}

/// Ablation: model driven by *profiled* parameters vs
/// the workload's ground-truth means. Quantifies how much prediction
/// error the measurement pipeline itself introduces.
fn profiled_vs_truth(s: &mut Session, out: &mut String) -> fmt::Result {
    let spec = shopping();
    let profiled = s.profile(&spec);
    let [cpu, disk] = ground_truth(&spec);
    let mut truth = WorkloadProfile {
        name: "truth".into(),
        pr: spec.pr(),
        pw: spec.pw(),
        a1: profiled.a1,
        cpu,
        disk,
        l1: profiled.l1,
        update_ops: spec.mean_update_ops(),
        db_update_size: spec.db_update_size as f64,
    };
    truth
        .estimate_l1(spec.clients_per_replica, 1.0)
        .expect("valid");
    let config = SystemConfig::lan_cluster(spec.clients_per_replica);
    let m_prof = Mm
        .predictor(profiled, config.clone())
        .expect("valid inputs");
    let m_truth = Mm.predictor(truth, config).expect("valid inputs");
    writeln!(
        out,
        "{:>3} {:>14} {:>14} {:>8}",
        "N", "tput(profiled)", "tput(truth)", "gap%"
    )?;
    for n in s.sweep() {
        let a = m_prof.predict(n).expect("valid").throughput_tps;
        let b = m_truth.predict(n).expect("valid").throughput_tps;
        writeln!(
            out,
            "{n:>3} {a:>14.1} {b:>14.1} {:>7.2}%",
            100.0 * (a - b).abs() / b
        )?;
    }
    Ok(())
}

/// Sensitivity analysis, paper Section 6.3.2: the certifier delay.
///
/// The paper models the replicated certifier (leader + 2 backups, batched
/// disk writes) as a 12 ms delay center and argues queueing there is
/// negligible. This experiment (a) sweeps the delay in the model, and
/// (b) cross-checks the delay-center approximation against the
/// mechanistic simulation at the paper's 12 ms.
fn sens_certifier(s: &mut Session, out: &mut String) -> fmt::Result {
    let spec = shopping();
    let profile = s.profile(&spec);
    writeln!(
        out,
        "{:>14} {:>14} {:>14} {:>14} {:>14}",
        "cert delay", "model tps", "model resp", "sim tps", "sim resp"
    )?;
    // Each delay point is an independent model+simulation cell; fan them
    // out over the pool (row order is preserved regardless of job count).
    let delays = vec![0.0, 6.0, 12.0, 24.0, 48.0];
    let rows = map_parallel(s.opts.jobs, delays, |delay_ms| {
        let config = SystemConfig {
            certifier_delay: delay_ms / 1e3,
            ..SystemConfig::lan_cluster(40)
        };
        let p = predict_mm(&profile, config, 8);
        let sim_config = SimConfig {
            certifier_delay: delay_ms / 1e3,
            ..s.sim_config(8)
        };
        (delay_ms, p, Mm.simulator(spec.clone(), sim_config).run())
    });
    for (delay_ms, p, sim) in rows {
        writeln!(
            out,
            "{delay_ms:>11.0} ms {:>14.1} {:>11.1} ms {:>14.1} {:>11.1} ms",
            p.throughput_tps,
            p.response_time * 1e3,
            sim.throughput_tps,
            sim.response_time * 1e3
        )?;
    }
    out.push_str(
        "# Throughput is insensitive to the certifier delay (a delay\n\
         # center adds residence, not contention): the paper's 12 ms\n\
         # approximation is adequate.\n",
    );
    Ok(())
}

/// Sensitivity analysis, paper Section 6.3.1: load-balancer and network
/// delay. The paper argues the combined delay is ~1 ms and folded into
/// the effective think time; this sweep shows model throughput is nearly
/// insensitive to LB delays in the LAN range and only degrades at
/// WAN-like delays (where the paper says the model does not apply).
fn sens_network_delay(_: &mut Session, out: &mut String) -> fmt::Result {
    let profile = WorkloadProfile::tpcw_shopping();
    writeln!(
        out,
        "{:>12} {:>12} {:>14}",
        "lb delay", "tput (tps)", "response (ms)"
    )?;
    for delay_ms in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0] {
        let config = SystemConfig {
            lb_delay: delay_ms / 1e3,
            ..SystemConfig::lan_cluster(40)
        };
        let p = predict_mm(&profile, config, 8);
        writeln!(
            out,
            "{delay_ms:>9.1} ms {:>12.1} {:>14.1}",
            p.throughput_tps,
            p.response_time * 1e3
        )?;
    }
    Ok(())
}

/// The paper's motivating application (Section 1): capacity planning.
/// Given a throughput/latency SLO, find the cheapest deployment for each
/// design — from standalone profiling only, before building anything.
fn capacity_planner(s: &mut Session, out: &mut String) -> fmt::Result {
    let spec = shopping();
    let profile = s.profile(&spec);
    let config = SystemConfig::lan_cluster(spec.clients_per_replica);
    writeln!(
        out,
        "{:>12} {:>14} {:>14} {:>10} {:>12}",
        "SLO (tps)", "design", "replicas", "pred tps", "pred resp"
    )?;
    for target in [50.0, 100.0, 200.0, 300.0, 400.0] {
        let slo = Slo {
            min_throughput_tps: target,
            max_response_time: Some(0.5),
            max_abort_rate: None,
        };
        let plans = plan(&profile, &config, &slo, PAPER_CLUSTER).expect("valid inputs");
        if plans.is_empty() {
            writeln!(
                out,
                "{target:>12.0} {:>14} {:>14} {:>10} {:>12}",
                "infeasible", "-", "-", "-"
            )?;
        }
        for p in plans {
            writeln!(
                out,
                "{target:>12.0} {:>14} {:>14} {:>10.1} {:>9.1} ms",
                p.design.key(),
                p.replicas,
                p.prediction.throughput_tps,
                p.prediction.response_time * 1e3
            )?;
        }
    }
    Ok(())
}
