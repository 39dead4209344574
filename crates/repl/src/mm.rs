//! The multi-master cluster simulation (paper Figures 1 and 4).
//!
//! Architecture, mirroring the Tashkent-style prototype:
//!
//! - A load balancer forwards each incoming transaction to the least
//!   loaded replica (and adds a small LAN delay).
//! - Every replica executes reads and updates locally against its own
//!   snapshot-isolation engine; snapshots are the replica's *local* latest
//!   version (GSI: possibly stale, never blocking).
//! - At commit, the replica proxy extracts the update's writeset and
//!   invokes the certification service (a 12 ms round trip). The certifier
//!   orders and conflict-checks writesets globally (first committer wins).
//! - Certified writesets are propagated to *all* replicas and applied in
//!   global order. On the origin replica the application is free (the
//!   update's own execution already paid `wc`); on the other `N−1`
//!   replicas it costs the sampled `ws` CPU/disk demands — exactly the
//!   `(N−1)·Pw·ws` term of the analytical model.
//! - Aborted updates are retried by the client against a fresh snapshot.
//!
//! The node lifecycle is the replica kernel's; this module is the
//! multi-master *policy*: any-replica routing, the certifier round trip
//! (with its outage stall), and the certifier log as the catch-up
//! source. Time-phased schedules ([`SimConfig::schedule`]) inject faults
//! and load swings mid-run: a crashed replica stops serving and its
//! in-flight work fails over to the survivors; a rejoining replica
//! replays the writesets it missed (a deterministic state-transfer lag)
//! before taking load; a certifier outage queues certification requests
//! until restart; client-population ramps park or wake closed-loop
//! clients. A disabled schedule leaves the run byte-identical to a
//! schedule-free build.

use std::collections::VecDeque;
use std::sync::Arc;

use replipred_core::ScheduleEvent;
use replipred_sidb::{Database, WriteSet};
use replipred_workload::spec::{TxnTemplate, WorkloadSpec};

use crate::certifier::{Certification, Certifier};
use crate::config::SimConfig;
use crate::kernel::{self, Attempt, Ev, Policy, Seeded, Sim, World};
use crate::metrics::RunReport;
use crate::wslog::WsLog;

/// The certifier-based design's state.
pub(crate) struct Mm {
    certifier: Certifier,
    certifier_delay: f64,
    /// False during an injected certifier outage.
    certifier_up: bool,
    /// Certification requests stalled by an outage, drained in FIFO
    /// order at restart (their stall time shows up as response time).
    cert_stalled: VecDeque<CertRequest>,
}

/// An update whose writeset is on its way to the certification service.
/// Its local transaction is already rolled back: local effects are
/// installed through the certified writeset, in global order.
pub(crate) struct CertRequest {
    attempt: Attempt,
    /// The commit's one shared writeset: what the certifier logs, every
    /// replica's apply carries and every database installs from.
    writeset: Arc<WriteSet>,
}

impl Policy for Mm {
    /// The certifier round trip elapsed: certify and resolve.
    type Ev = CertRequest;
    const LB_HOP: bool = true;
    const WS_SALT: u64 = 0xD15C_0FFE;

    fn label(_: &World<Self>, node: usize) -> String {
        format!("replica{node}")
    }

    fn route(w: &World<Self>, _: &TxnTemplate) -> Option<usize> {
        kernel::least_loaded(w)
    }

    /// Extracts the writeset and sends it to the certifier. The certifier
    /// is anchored at the seeded version, so the local `base_version` is
    /// already in the global numbering.
    fn commit_update(engine: &mut Sim<Self>, a: Attempt) {
        let w = engine.world_mut();
        let db = &mut w.nodes[a.node].db;
        let writeset = Arc::new(db.writeset_of(a.txn).expect("transaction is active"));
        db.abort(a.txn).expect("transaction is active");
        let delay = w.policy.certifier_delay;
        let request = CertRequest {
            attempt: a,
            writeset,
        };
        engine.schedule_event_in(delay, Ev::Design(request));
    }

    fn fire(engine: &mut Sim<Self>, request: CertRequest) {
        certify(engine, request);
    }

    fn cluster_event(engine: &mut Sim<Self>, ev: &ScheduleEvent) -> bool {
        match ev {
            ScheduleEvent::CertifierDown => {
                std::mem::replace(&mut engine.world_mut().policy.certifier_up, false)
            }
            ScheduleEvent::CertifierUp => {
                let was_up = std::mem::replace(&mut engine.world_mut().policy.certifier_up, true);
                // Re-certify the stalled requests in arrival order; their
                // queueing time is part of their response time.
                while let Some(request) = engine.world_mut().policy.cert_stalled.pop_front() {
                    certify(engine, request);
                }
                !was_up
            }
            other => kernel::node_event(engine, other),
        }
    }

    /// The certifier's log, appended to by every successful `certify`.
    /// Every replica — the origin included — retires certified writesets
    /// through `mark_ready`, so `apply_next` is each one's log position.
    fn log(&self) -> &WsLog {
        self.certifier.log()
    }

    fn log_mut(&mut self) -> &mut WsLog {
        self.certifier.log_mut()
    }
}

/// Resolves a certification round trip: commit propagates the writeset to
/// every replica, abort retries the client's transaction.
///
/// Fault handling: a request whose origin replica died while the round
/// trip was in flight is dropped and its client fails over (the origin's
/// local execution state is gone); during a certifier outage requests
/// queue and are re-certified in order at restart.
fn certify(engine: &mut Sim<Mm>, request: CertRequest) {
    let w = engine.world_mut();
    if kernel::stale(w, &request.attempt) {
        let a = request.attempt;
        kernel::place(engine, (a.client, a.template, a.started));
        return;
    }
    if !w.policy.certifier_up {
        w.policy.cert_stalled.push_back(request);
        return;
    }
    let CertRequest { attempt, writeset } = request;
    match w.policy.certifier.certify(&writeset) {
        Certification::Commit(version) => {
            // Remote replicas first consume the sampled ws demands, then
            // retire in order. The origin pays nothing (its execution
            // already did the work) and retires as soon as the prefix
            // allows.
            kernel::fan_out(engine, attempt.node, version, &writeset);
            kernel::mark_ready(engine, attempt.node, version, writeset);
            kernel::respond(engine, &attempt);
        }
        Certification::Abort => kernel::conflict(engine, attempt),
    }
}

/// Runs the multi-master cluster of `cfg.replicas` replicas cloned from
/// `seeded`.
///
/// # Panics
///
/// Panics if `cfg.replicas` is zero or `seeded` does not fit `spec`.
pub(crate) fn run(seeded: &Seeded, spec: &WorkloadSpec, cfg: &SimConfig) -> (RunReport, World<Mm>) {
    kernel::run(seeded, spec, cfg, cfg.replicas, policy(cfg))
}

/// The design's initial state over the freshly seeded replicas.
fn policy(cfg: &SimConfig) -> impl FnOnce(&mut [Database]) -> Mm + '_ {
    |dbs| Mm {
        // Anchor the certifier at the seeded database version:
        // writesets certify with their local base_version as-is.
        certifier: Certifier::new_at(dbs[0].version()),
        certifier_delay: cfg.certifier_delay,
        certifier_up: true,
        cert_stalled: VecDeque::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Simulator, SimulatorRegistry};
    use replipred_core::Design;
    use replipred_core::Schedule;
    use replipred_workload::{heap, rubis, tpcw};

    fn sim(spec: WorkloadSpec, cfg: SimConfig) -> Simulator {
        Design::MultiMaster.simulator(spec, cfg)
    }

    fn quick(n: usize, seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(n, seed)
        }
    }

    fn run_shopping(cfg: &SimConfig) -> (RunReport, World<Mm>) {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        run(&Seeded::install(&spec, cfg.seed_scale), &spec, cfg)
    }

    #[test]
    fn browsing_scales_with_replicas() {
        let x1 = sim(tpcw::mix(tpcw::Mix::Browsing), quick(1, 1))
            .run()
            .throughput_tps;
        let x4 = sim(tpcw::mix(tpcw::Mix::Browsing), quick(4, 1))
            .run()
            .throughput_tps;
        assert!(
            x4 > 3.3 * x1,
            "browsing should scale near-linearly: x1={x1} x4={x4}"
        );
    }

    #[test]
    fn ordering_scales_sublinearly() {
        let x1 = sim(tpcw::mix(tpcw::Mix::Ordering), quick(1, 2))
            .run()
            .throughput_tps;
        let x8 = sim(tpcw::mix(tpcw::Mix::Ordering), quick(8, 2))
            .run()
            .throughput_tps;
        let speedup = x8 / x1;
        assert!(
            (3.0..7.5).contains(&speedup),
            "ordering speedup {speedup} (x1={x1}, x8={x8})"
        );
    }

    #[test]
    fn writesets_propagate_to_all_replicas() {
        let report = sim(tpcw::mix(tpcw::Mix::Shopping), quick(3, 3)).run();
        // Each committed update is applied on N-1 = 2 remote replicas.
        let expected = report.update_commits * 2;
        let ratio = report.writesets_applied as f64 / expected as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "applied {} vs expected {expected}",
            report.writesets_applied
        );
        // Paper: ~275-byte average writesets.
        assert!(
            (100.0..600.0).contains(&report.mean_writeset_bytes),
            "ws bytes {}",
            report.mean_writeset_bytes
        );
    }

    #[test]
    fn one_commit_is_one_allocation_in_the_log_and_on_every_replica() {
        let cfg = SimConfig {
            vacuum_interval: 0.0,
            ..quick(4, 9)
        };
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let seeded = Seeded::install(&spec, cfg.seed_scale);
        let mut engine = kernel::build(&seeded, &spec, &cfg, 4, policy(&cfg));
        // Until all four replicas retired the first certified writeset.
        let first = engine.world().policy.certifier.version() + 1;
        while engine.world().nodes.iter().any(|n| n.apply_next <= first) {
            assert!(engine.step());
        }
        let w = engine.world_mut();
        let mut entry = w.policy.log().range_from(first, first).expect("retained");
        let logged = Arc::clone(entry.next().expect("one entry"));
        assert!(!logged.is_empty());
        for item in &logged.items {
            // The origin's version, the three remote ones and the log
            // entry's image: one allocation, five holders.
            let image = item.data.as_ref().expect("the mix deletes nothing");
            for node in &mut w.nodes {
                let txn = node.db.begin_at(first);
                let installed = node.db.read(txn, item.table, item.row).unwrap().unwrap();
                assert_eq!(installed.as_ptr(), image.as_ptr());
                node.db.abort(txn).unwrap();
            }
        }
    }

    #[test]
    fn replicas_converge_after_quiescence() {
        // Total order: every replica retires the certifier's sequence, so
        // once each has applied the log's tail it has not retired yet,
        // all of them hold the same state.
        let (report, world) = run_shopping(&quick(2, 5));
        assert!(report.update_commits > 0);
        let states = world.drained();
        assert!(states[0].is_some(), "replica 0 is Up");
        assert!(states.iter().all(|s| *s == states[0]), "replicas diverged");
    }

    #[test]
    fn heap_stress_raises_abort_rate() {
        let base = sim(tpcw::mix(tpcw::Mix::Shopping), quick(4, 7))
            .run()
            .abort_rate;
        let stressed = sim(
            heap::with_heap_stress(&tpcw::mix(tpcw::Mix::Shopping), 48),
            quick(4, 7),
        )
        .run()
        .abort_rate;
        assert!(
            stressed > base + 0.002,
            "stressed {stressed} vs base {base}"
        );
    }

    #[test]
    fn read_only_mix_never_contacts_certifier() {
        let report = sim(rubis::mix(rubis::Mix::Browsing), quick(2, 9)).run();
        assert_eq!(report.conflict_aborts, 0);
        assert_eq!(report.writesets_applied, 0);
    }

    #[test]
    fn conflict_window_stays_bounded_under_saturation() {
        // With admission control, even a heavily loaded ordering cluster
        // keeps open-snapshot windows (hence abort rates) bounded — the
        // paper's assumption 5 in action.
        let report = sim(tpcw::mix(tpcw::Mix::Ordering), quick(8, 31)).run();
        assert!(
            report.abort_rate < 0.05,
            "A_8 should stay small for standard TPC-W: {}",
            report.abort_rate
        );
        assert!(report.throughput_tps > 100.0);
    }

    #[test]
    fn crash_and_rejoin_reports_recovery() {
        let cfg = SimConfig {
            schedule: Schedule::new().crash(20.0, 1).join(30.0, 1).window(2.0),
            ..quick(2, 31)
        };
        let a = sim(tpcw::mix(tpcw::Mix::Shopping), cfg.clone()).run();
        let t = a.transient.as_ref().expect("schedule enables transient");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(echoed, ["crash replica 1", "rejoin replica 1"]);
        assert!(a.update_commits > 0, "survivor keeps committing updates");
        assert!(
            t.recovery_time.is_some(),
            "throughput should recover after the rejoin"
        );
        let b = sim(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        assert_eq!(a, b, "phased runs must stay deterministic");
    }

    #[test]
    fn certifier_log_stays_bounded_under_steady_load() {
        // The certifier once kept every certified writeset for the whole
        // run; vacuum-cadence truncation below the slowest replica must
        // keep the high-water mark well below the total. (`log_seq` is
        // offset by the seeded version here, so the window's own commit
        // count — a lower bound on the total — is the yardstick.)
        let (report, world) = run_shopping(&quick(3, 50));
        let probe = world.probe();
        assert!(
            report.update_commits > 200,
            "need steady update load: {}",
            report.update_commits
        );
        assert!(probe.log_seq > report.update_commits);
        assert!(
            (probe.log_peak as u64) < report.update_commits / 2,
            "peak {} must stay bounded vs {} commits in the window",
            probe.log_peak,
            report.update_commits
        );
        assert!(probe.log_len <= probe.log_peak);
    }

    #[test]
    fn down_replica_pins_the_certifier_log_until_it_rejoins() {
        // Truncation stops at the crashed replica's position, so its
        // rejoin replays from the log — and the report is exactly what
        // an untruncated log would have produced.
        let cfg = SimConfig {
            schedule: Schedule::new().crash(15.0, 1).join(40.0, 1).window(5.0),
            ..quick(2, 35)
        };
        let (report, world) = run_shopping(&cfg);
        let probe = world.probe();
        assert!(
            probe.log_peak as u64 > report.update_commits / 3,
            "25 s of a 40 s window were pinned: peak {} vs {} commits",
            probe.log_peak,
            report.update_commits
        );
        assert!(
            (probe.log_len as u64) < report.update_commits / 3,
            "after the rejoin the log drains: {} retained",
            probe.log_len
        );
        let applied: Vec<u64> = world.nodes.iter().map(|n| n.apply_next).collect();
        assert!(
            applied[1] + 20 > applied[0],
            "replica 1 caught up: {applied:?}"
        );
    }

    #[test]
    fn certifier_outage_stalls_then_releases_updates() {
        let cfg = SimConfig {
            schedule: Schedule::new()
                .certifier_down(20.0)
                .certifier_up(28.0)
                .window(2.0),
            ..quick(2, 32)
        };
        let report = sim(tpcw::mix(tpcw::Mix::Ordering), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        assert_eq!(t.events.len(), 2);
        // Updates stall during the outage but the backlog drains: commits
        // still happen overall and the run terminates.
        assert!(report.update_commits > 0);
        let outage_updates: u64 = t
            .windows
            .iter()
            .filter(|w| w.start >= 20.0 && w.end <= 28.0)
            .map(|w| w.update_commits)
            .sum();
        let before_updates: u64 = t
            .windows
            .iter()
            .filter(|w| w.end <= 20.0)
            .map(|w| w.update_commits)
            .sum();
        assert!(
            outage_updates < before_updates,
            "outage windows ({outage_updates}) should commit fewer updates \
             than the pre-fault windows ({before_updates})"
        );
    }

    #[test]
    fn all_replicas_down_strands_no_work() {
        // Crash the only replica and bring it back: every in-flight and
        // newly arriving transaction strands, then drains at rejoin. The
        // accounting must balance (no lost clients, run keeps going).
        let cfg = SimConfig {
            schedule: Schedule::new().crash(15.0, 0).join(25.0, 0).window(5.0),
            ..quick(1, 34)
        };
        let report = sim(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        assert!(report.throughput_tps > 0.0, "work resumes after rejoin");
        assert!(
            t.slo_violation_secs > 0.0,
            "a full blackout must register as SLO violation time"
        );
    }
}
