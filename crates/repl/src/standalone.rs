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
//! With durability on, the node logs every commit into its redo log and
//! checkpoints it at vacuum cadence like any replica; no crash reaches
//! it, so it never recovers from them.
//! [`run`] is the one way to run it, for the design registry
//! ([`TxnFilter::All`]) and the profiler alike: it takes a transaction
//! filter for the replay segments and hands back the final database,
//! whose activity counters are the captured log, next to the report. The
//! profiler's capture and replays run on clones of one [`Seeded`] image.

use std::convert::Infallible;

use replipred_core::ScheduleEvent;
use replipred_sidb::Database;
use replipred_workload::client::ClientId;
use replipred_workload::spec::{TxnTemplate, WorkloadSpec};

use crate::config::SimConfig;
use crate::kernel::{self, Attempt, Policy, Seeded, Sim, World};
use crate::metrics::RunReport;
use crate::wslog::WsLog;

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

impl TxnFilter {
    /// Whether a transaction of this kind is submitted.
    fn admits(self, is_update: bool) -> bool {
        match self {
            TxnFilter::All => true,
            TxnFilter::ReadsOnly => !is_update,
            TxnFilter::UpdatesOnly => is_update,
        }
    }
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

    fn label(_: &World<Self>, _: usize) -> String {
        "db".to_string()
    }

    /// Rejection-samples the mix to honor the profiler's replay filter;
    /// [`run`] checks that some class can pass it.
    fn sample(w: &mut World<Self>, client: ClientId) -> TxnTemplate {
        loop {
            let t = w.pool.next_transaction(client);
            if w.policy.filter.admits(t.is_update) {
                return t;
            }
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

/// Runs the one-node simulation on a clone of `seeded`, its clients
/// submitting only what `filter` admits, and returns the report and the
/// final database, its stats covering the measurement window. `seeded`
/// is left as it was.
///
/// # Panics
///
/// Panics if no class of positive weight passes `filter`, or if `seeded`
/// was not seeded from this workload's tables at `cfg.seed_scale`.
pub fn run(
    seeded: &Seeded,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    filter: TxnFilter,
) -> (RunReport, Database) {
    assert!(
        spec.classes
            .iter()
            .any(|c| c.weight > 0.0 && filter.admits(c.is_update)),
        "workload {}: no transaction class passes {filter:?}",
        spec.name
    );
    let solo = Solo {
        filter,
        log: WsLog::new(),
    };
    let (report, mut world) = kernel::run(seeded, spec, cfg, 1, |_| solo);
    (report, world.nodes.remove(0).db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_workload::{rubis, synth, tpcw};

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(1, seed)
        }
    }

    /// Seeds `spec` and runs it through `filter`.
    fn simulate(spec: WorkloadSpec, cfg: SimConfig, filter: TxnFilter) -> RunReport {
        let seeded = Seeded::install(&spec, cfg.seed_scale);
        run(&seeded, &spec, &cfg, filter).0
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
        let report = simulate(spec, quick_cfg(1), TxnFilter::All);
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
        let report = simulate(
            rubis::mix(rubis::Mix::Browsing),
            quick_cfg(2),
            TxnFilter::All,
        );
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
        let report = simulate(spec, quick_cfg(3), TxnFilter::All);
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
        let a = simulate(
            tpcw::mix(tpcw::Mix::Shopping),
            quick_cfg(11),
            TxnFilter::All,
        );
        let b = simulate(
            tpcw::mix(tpcw::Mix::Shopping),
            quick_cfg(12),
            TxnFilter::All,
        );
        assert_ne!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn filters_restrict_the_mix() {
        // Shopping, and a mix whose reads are 0.02 %: a replay draws
        // until the filter admits, however rare the admitted class.
        let rare_reads = SimConfig {
            warmup: 1.0,
            duration: 10.0,
            ..SimConfig::quick(1, 2)
        };
        let mixes = [
            (tpcw::mix(tpcw::Mix::Shopping), quick_cfg(5)),
            (synth::parse("pw=0.9998").unwrap(), rare_reads),
        ];
        for (spec, cfg) in mixes {
            let reads = simulate(spec.clone(), cfg.clone(), TxnFilter::ReadsOnly);
            assert_eq!(reads.update_commits, 0, "{}", spec.name);
            assert!(reads.read_commits > 0, "{}", spec.name);
            let updates = simulate(spec.clone(), cfg, TxnFilter::UpdatesOnly);
            assert_eq!(updates.read_commits, 0, "{}", spec.name);
            assert!(updates.update_commits > 0, "{}", spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "no transaction class passes ReadsOnly")]
    fn a_filter_no_class_passes_is_refused() {
        let spec = synth::parse("pw=1").unwrap();
        simulate(spec, quick_cfg(6), TxnFilter::ReadsOnly);
    }

    #[test]
    fn abort_rate_is_small_for_standard_tpcw() {
        // Paper: A1 < 0.023% for all TPC-W mixes. Our mechanistic A1 must
        // also be tiny (same DbUpdateSize, similar rates).
        let report = simulate(
            tpcw::mix(tpcw::Mix::Ordering),
            quick_cfg(13),
            TxnFilter::All,
        );
        assert!(report.abort_rate < 0.01, "A1 = {}", report.abort_rate);
    }

    #[test]
    fn ramps_apply_and_cluster_events_are_ignored() {
        let base = simulate(
            tpcw::mix(tpcw::Mix::Shopping),
            quick_cfg(31),
            TxnFilter::All,
        );
        let cfg = SimConfig {
            schedule: replipred_core::Schedule::new()
                .crash(15.0, 0)
                .flash_crowd(20.0, 2.0, 20.0)
                .window(5.0),
            ..quick_cfg(31)
        };
        let surged = simulate(tpcw::mix(tpcw::Mix::Shopping), cfg, TxnFilter::All);
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
