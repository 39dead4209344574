//! Single-node simulation: the profiling target.
//!
//! This is the "standalone database" of the paper's title — the system the
//! profiler measures (Section 4) and the `N = 1` anchor of every measured
//! scalability curve. One database engine, one CPU (processor sharing),
//! one disk (FCFS), `C` closed-loop clients.
//!
//! It is the replica kernel's one-node policy: no load-balancer hop, no
//! propagation, updates commit under the node's own snapshot isolation,
//! and cluster events in a shared schedule are acknowledged as ignored.
//! On top of that it carries what the profiler needs — a transaction
//! filter for the replay segments, and the final database, whose
//! activity counters are the captured log, handed back with the report.
//! The profiler's capture and replays run on clones of one [`Seeded`]
//! image ([`StandaloneSim::run_with_db_from`]).

use std::convert::Infallible;

use replipred_core::ScheduleEvent;
use replipred_sidb::Database;
use replipred_workload::client::ClientId;
use replipred_workload::spec::{TxnTemplate, WorkloadSpec};

use crate::config::SimConfig;
use crate::kernel::{self, Attempt, Policy, Seeded, Sim, World};
use crate::metrics::RunReport;
use crate::wslog::WsLog;

/// One-node closed-loop simulation: what the design registry runs for
/// [`replipred_core::Design::Standalone`], plus the profiler's controls.
pub struct StandaloneSim {
    spec: WorkloadSpec,
    cfg: SimConfig,
    /// Restrict sampling to a transaction subset (profiler replay mode).
    filter: TxnFilter,
}

/// Which transactions the clients submit (profiler log-replay segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnFilter {
    /// The full mix.
    All,
    /// Read-only transactions only (the profiler's `rc` replay).
    ReadsOnly,
    /// Update transactions only (the profiler's `wc` replay).
    UpdatesOnly,
}

/// Result of a standalone run: the report plus the final database (whose
/// measurement-window stats the profiler consumes).
pub struct StandaloneOutcome {
    /// Measured performance.
    pub report: RunReport,
    /// The database after the run, its stats covering the measurement
    /// window.
    pub db: Database,
}

/// The one-node design: everything runs on node 0 and commits locally.
struct Solo {
    filter: TxnFilter,
    /// Never appended to: a single node propagates nothing.
    log: WsLog,
}

impl Policy for Solo {
    type Ev = Infallible;
    const LB_HOP: bool = false;
    /// Never drawn from: a single node propagates nothing.
    const WS_SALT: u64 = 0;
    /// Nothing to rejoin; durability is the fsync surcharge only.
    const DURABLE_REJOIN: bool = false;

    fn label(_: &World<Self>, _: usize) -> String {
        "db".to_string()
    }

    /// Rejection-samples the mix to honor the profiler's replay filter.
    fn sample(w: &mut World<Self>, client: ClientId) -> TxnTemplate {
        let mut t = w.pool.next_transaction(client);
        let mut guard = 0;
        loop {
            let ok = match w.policy.filter {
                TxnFilter::All => true,
                TxnFilter::ReadsOnly => !t.is_update,
                TxnFilter::UpdatesOnly => t.is_update,
            };
            if ok || guard > 10_000 {
                return t;
            }
            t = w.pool.next_transaction(client);
            guard += 1;
        }
    }

    fn route(_: &World<Self>, _: &TxnTemplate) -> Option<usize> {
        Some(0)
    }

    fn commit_update(engine: &mut Sim<Self>, a: Attempt) {
        if let Some((a, _)) = kernel::commit_local(engine, a) {
            kernel::respond(engine, &a);
        }
    }

    fn fire(_: &mut Sim<Self>, ev: Infallible) {
        match ev {}
    }

    /// Crash, rejoin and certifier events have no meaning on one node —
    /// a shared schedule can drive a standalone baseline next to the
    /// cluster designs.
    fn cluster_event(_: &mut Sim<Self>, _: &ScheduleEvent) -> bool {
        false
    }

    fn log(&self) -> &WsLog {
        &self.log
    }

    fn log_mut(&mut self) -> &mut WsLog {
        &mut self.log
    }
}

impl StandaloneSim {
    /// Creates a simulation of the full mix.
    pub fn new(spec: WorkloadSpec, cfg: SimConfig) -> Self {
        StandaloneSim {
            spec,
            cfg,
            filter: TxnFilter::All,
        }
    }

    /// Restricts the submitted transactions (profiler replay segments).
    pub fn with_filter(mut self, filter: TxnFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Seeds the workload, runs the simulation to completion and returns
    /// the report and the final database state. Every call seeds its own
    /// image; a caller running several simulations of one workload seeds
    /// once and calls [`StandaloneSim::run_with_db_from`].
    ///
    /// # Panics
    ///
    /// Panics if the workload references tables it did not declare
    /// (a workload-spec bug, not a data error).
    pub fn run_with_db(self) -> StandaloneOutcome {
        let seeded = Seeded::install(&self.spec, self.cfg.seed_scale);
        self.run_with_db_from(&seeded)
    }

    /// Runs the simulation on a clone of `seeded` and returns the report
    /// and the final database state; `seeded` is left as it was.
    ///
    /// # Panics
    ///
    /// Panics if `seeded` was not seeded from this workload's tables at
    /// this configuration's `seed_scale`.
    pub fn run_with_db_from(self, seeded: &Seeded) -> StandaloneOutcome {
        let solo = Solo {
            filter: self.filter,
            log: WsLog::new(),
        };
        let (report, mut world) = kernel::run(seeded, &self.spec, &self.cfg, 1, |_| solo);
        let db = world.nodes.remove(0).db;
        StandaloneOutcome { report, db }
    }

    /// Seeds the workload and runs the simulation, returning only the
    /// report.
    pub fn run(self) -> RunReport {
        self.run_with_db().report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_workload::{rubis, tpcw};

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(1, seed)
        }
    }

    #[test]
    fn shopping_throughput_near_mva_prediction() {
        // The mechanistic simulation and the analytical model must agree
        // on the standalone operating point (cross-validation of the two
        // artifacts).
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let d_cpu = 0.8 * spec.mean_read_cpu() + 0.2 * spec.mean_write_cpu();
        let d_disk = 0.8 * spec.mean_read_disk() + 0.2 * spec.mean_write_disk();
        let network = replipred_mva::ClosedNetwork::builder()
            .queueing("cpu", d_cpu)
            .queueing("disk", d_disk)
            .think_time(1.0)
            .build()
            .unwrap();
        let mva = replipred_mva::exact::solve(&network, 40).unwrap();
        let report = StandaloneSim::new(spec, quick_cfg(1)).run();
        let rel = (report.throughput_tps - mva.throughput).abs() / mva.throughput;
        assert!(
            rel < 0.10,
            "sim {} vs MVA {} (rel {rel})",
            report.throughput_tps,
            mva.throughput
        );
        assert!(report.response_time > 0.0 && report.response_time < 1.0);
    }

    #[test]
    fn read_only_mix_has_no_aborts() {
        let report = StandaloneSim::new(rubis::mix(rubis::Mix::Browsing), quick_cfg(2)).run();
        assert_eq!(report.conflict_aborts, 0);
        assert_eq!(report.update_commits, 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn utilization_law_holds_in_simulation() {
        // U_cpu ~= X * D_cpu: the simulated utilization must match the
        // operational law within noise.
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let d_cpu = 0.8 * spec.mean_read_cpu() + 0.2 * spec.mean_write_cpu();
        let report = StandaloneSim::new(spec, quick_cfg(3)).run();
        let expect = report.throughput_tps * d_cpu;
        assert!(
            (report.mean_cpu_utilization - expect).abs() < 0.05,
            "sim U {} vs law {}",
            report.mean_cpu_utilization,
            expect
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = StandaloneSim::new(tpcw::mix(tpcw::Mix::Shopping), quick_cfg(11)).run();
        let b = StandaloneSim::new(tpcw::mix(tpcw::Mix::Shopping), quick_cfg(12)).run();
        assert_ne!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn filters_restrict_the_mix() {
        let reads = StandaloneSim::new(tpcw::mix(tpcw::Mix::Shopping), quick_cfg(5))
            .with_filter(TxnFilter::ReadsOnly)
            .run();
        assert_eq!(reads.update_commits, 0);
        assert!(reads.read_commits > 0);
        let updates = StandaloneSim::new(tpcw::mix(tpcw::Mix::Shopping), quick_cfg(5))
            .with_filter(TxnFilter::UpdatesOnly)
            .run();
        assert_eq!(updates.read_commits, 0);
        assert!(updates.update_commits > 0);
    }

    #[test]
    fn abort_rate_is_small_for_standard_tpcw() {
        // Paper: A1 < 0.023% for all TPC-W mixes. Our mechanistic A1 must
        // also be tiny (same DbUpdateSize, similar rates).
        let report = StandaloneSim::new(tpcw::mix(tpcw::Mix::Ordering), quick_cfg(13)).run();
        assert!(report.abort_rate < 0.01, "A1 = {}", report.abort_rate);
    }

    #[test]
    fn ramps_apply_and_cluster_events_are_ignored() {
        let base = StandaloneSim::new(tpcw::mix(tpcw::Mix::Shopping), quick_cfg(31)).run();
        let cfg = SimConfig {
            schedule: replipred_core::Schedule::new()
                .crash(15.0, 0)
                .flash_crowd(20.0, 2.0, 20.0)
                .window(5.0),
            ..quick_cfg(31)
        };
        let surged = StandaloneSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = surged.transient.as_ref().expect("transient present");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(
            echoed,
            ["crash replica 0 (ignored)", "clients x2", "clients x1"]
        );
        assert!(
            surged.throughput_tps > base.throughput_tps,
            "doubled population must lift throughput: base={} surged={}",
            base.throughput_tps,
            surged.throughput_tps
        );
    }
}
