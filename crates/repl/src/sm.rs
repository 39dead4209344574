//! The single-master cluster simulation (paper Figures 2 and 5).
//!
//! Architecture, mirroring the Ganymed-style prototype:
//!
//! - The load balancer sends every update transaction to the master and
//!   every read-only transaction to the least loaded replica (master
//!   included — the master's spare capacity serves reads, which is how
//!   read-dominated mixes keep scaling).
//! - The master executes updates under local snapshot isolation; its own
//!   concurrency control aborts write-write conflicts (no certifier).
//! - On commit, the master's proxy extracts the writeset (table triggers)
//!   and the load balancer relays it to every slave, which applies it in
//!   commit order at the sampled `ws` CPU/disk cost.
//! - Slaves never abort: they apply only committed writesets and serve
//!   read-only transactions from (possibly slightly stale) snapshots.
//!
//! The node lifecycle is the replica kernel's; this module is the
//! single-master *policy*: master-for-updates routing, master-local
//! commit plus relay-log append, the relay log as the catch-up source,
//! and what a crash or rejoin means for mastership — election of the
//! most caught-up live node and its promotion once it has applied the
//! whole log.

use std::collections::VecDeque;
use std::convert::Infallible;

use replipred_workload::spec::{TxnTemplate, WorkloadSpec};

use crate::config::SimConfig;
use crate::kernel::{self, Attempt, NodeState, Policy, Seeded, Sim, Waiter, World};
use crate::metrics::RunReport;
use crate::wslog::WsLog;

/// The master/slaves design's state.
pub(crate) struct Sm {
    /// Index of the current master (0 until a failover promotes a slave).
    master: usize,
    /// Slave under promotion: updates queue until it has applied the
    /// full writeset log, then it becomes the master.
    promoting: Option<usize>,
    /// Committed writesets awaiting replay by lagging replicas, sequenced
    /// by master commit order. The kernel truncates it at vacuum cadence
    /// and applies the run's retention cap; rejoiners that fall behind
    /// the cap take a checkpoint state transfer.
    ws_log: WsLog,
    /// Updates waiting for a live master (crash or promotion in
    /// progress), drained in FIFO order once one exists.
    pending_updates: VecDeque<Waiter>,
}

impl Sm {
    /// Whether updates can run right now.
    fn has_master(w: &World<Self>) -> bool {
        w.policy.promoting.is_none() && w.nodes[w.policy.master].state == NodeState::Up
    }
}

impl Policy for Sm {
    type Ev = Infallible;
    const LB_HOP: bool = true;
    const WS_SALT: u64 = 0x5A5A_1234;

    fn label(w: &World<Self>, node: usize) -> String {
        if node == w.policy.master {
            "master".to_string()
        } else {
            format!("slave{node}")
        }
    }

    /// Updates to the master; reads to the least loaded live node.
    fn route(w: &World<Self>, template: &TxnTemplate) -> Option<usize> {
        if template.is_update {
            Sm::has_master(w).then_some(w.policy.master)
        } else {
            kernel::least_loaded(w)
        }
    }

    /// Updates wait for a master; reads strand until a node rejoins.
    fn park(w: &mut World<Self>, waiter: Waiter) {
        if waiter.1.is_update {
            w.policy.pending_updates.push_back(waiter);
        } else {
            w.stranded.push_back(waiter);
        }
    }

    /// Master-local SI certification, then relay: the writeset is logged
    /// and sent to every live slave, which retire strictly in master
    /// commit order. The master's own `apply_next` is the log head — its
    /// database holds everything it committed — and [`kernel::commit_local`]
    /// has already advanced it past this commit.
    fn commit_update(engine: &mut Sim<Self>, a: Attempt) {
        debug_assert_eq!(a.node, engine.world().policy.master);
        let Some((a, writeset)) = kernel::commit_local(engine, a) else {
            return;
        };
        let w = engine.world_mut();
        let seq = w.policy.ws_log.next_seq();
        debug_assert_eq!(
            w.nodes[a.node].apply_next,
            seq + 1,
            "a master has applied the whole log"
        );
        kernel::fan_out(engine, a.node, seq, &writeset);
        engine.world_mut().policy.ws_log.push(writeset);
        kernel::respond(engine, &a);
    }

    fn fire(_: &mut Sim<Self>, ev: Infallible) {
        match ev {}
    }

    fn retired(engine: &mut Sim<Self>, _: usize) {
        try_complete_promotion(engine);
    }

    /// Losing the master — or the slave being promoted — calls an
    /// election.
    fn crashed(engine: &mut Sim<Self>, node: usize) {
        let w = engine.world();
        if w.nodes[w.policy.master].state != NodeState::Up || w.policy.promoting == Some(node) {
            elect(engine);
        }
    }

    /// A rejoined node stands for election if the cluster is masterless.
    fn caught_up(engine: &mut Sim<Self>, _: usize) {
        let w = engine.world();
        if w.policy.promoting.is_none() && w.nodes[w.policy.master].state != NodeState::Up {
            elect(engine);
        }
        try_complete_promotion(engine);
    }

    fn log(&self) -> &WsLog {
        &self.ws_log
    }

    fn log_mut(&mut self) -> &mut WsLog {
        &mut self.ws_log
    }
}

/// Picks the most caught-up live node as the promotion candidate (ties
/// break toward the lowest index). With no live node the cluster waits:
/// updates queue until a rejoin completes and triggers a new election.
fn elect(engine: &mut Sim<Sm>) {
    let w = engine.world_mut();
    let mut best: Option<(usize, u64)> = None;
    for (i, node) in w.nodes.iter().enumerate() {
        if node.state == NodeState::Up && best.map_or(true, |(_, apply)| node.apply_next > apply) {
            best = Some((i, node.apply_next));
        }
    }
    w.policy.promoting = best.map(|(i, _)| i);
    if best.is_some() {
        try_complete_promotion(engine);
    }
}

/// Completes a pending promotion once the candidate has applied the full
/// writeset log, then releases the queued updates to the new master.
fn try_complete_promotion(engine: &mut Sim<Sm>) {
    let w = engine.world_mut();
    match w.policy.promoting {
        Some(c) if w.nodes[c].apply_next == w.policy.ws_log.next_seq() => {
            w.policy.master = c;
            w.policy.promoting = None;
        }
        _ => return,
    }
    while Sm::has_master(engine.world()) {
        let Some(waiter) = engine.world_mut().policy.pending_updates.pop_front() else {
            return;
        };
        kernel::place(engine, waiter);
    }
}

/// Runs the single-master cluster: 1 master and `cfg.replicas - 1`
/// slaves, all cloned from `seeded`.
///
/// # Panics
///
/// Panics if `cfg.replicas` is zero or `seeded` does not fit `spec`.
pub(crate) fn run(seeded: &Seeded, spec: &WorkloadSpec, cfg: &SimConfig) -> (RunReport, World<Sm>) {
    kernel::run(seeded, spec, cfg, cfg.replicas, |_| Sm {
        master: 0,
        promoting: None,
        ws_log: WsLog::new(),
        pending_updates: VecDeque::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;
    use crate::design::{Simulator, SimulatorRegistry};
    use replipred_core::Design;
    use replipred_core::Schedule;
    use replipred_workload::{rubis, tpcw};

    fn sim(spec: WorkloadSpec, cfg: SimConfig) -> Simulator {
        Design::SingleMaster.simulator(spec, cfg)
    }

    fn quick(n: usize, seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(n, seed)
        }
    }

    fn run_shopping(cfg: &SimConfig) -> (RunReport, World<Sm>) {
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
        assert!(x4 > 3.2 * x1, "x1={x1} x4={x4}");
    }

    #[test]
    fn ordering_saturates_at_the_master() {
        // Paper Figure 8: ordering saturates around 4 replicas.
        let x4 = sim(tpcw::mix(tpcw::Mix::Ordering), quick(4, 2))
            .run()
            .throughput_tps;
        let x8 = sim(tpcw::mix(tpcw::Mix::Ordering), quick(8, 2))
            .run()
            .throughput_tps;
        assert!(x8 < 1.25 * x4, "ordering should saturate: x4={x4} x8={x8}");
    }

    #[test]
    fn master_is_the_bottleneck_for_update_mixes() {
        let report = sim(tpcw::mix(tpcw::Mix::Ordering), quick(6, 3)).run();
        assert!(
            report.bottleneck.starts_with("master"),
            "bottleneck {}",
            report.bottleneck
        );
    }

    #[test]
    fn slaves_apply_every_committed_writeset() {
        let report = sim(tpcw::mix(tpcw::Mix::Shopping), quick(3, 4)).run();
        let expected = report.update_commits * 2; // two slaves
        let ratio = report.writesets_applied as f64 / expected as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "applied {} expected {expected}",
            report.writesets_applied
        );
    }

    #[test]
    fn read_only_mix_spreads_over_all_nodes() {
        let report = sim(rubis::mix(rubis::Mix::Browsing), quick(4, 5)).run();
        assert_eq!(report.conflict_aborts, 0);
        // With perfect spreading all nodes are similarly utilized; the max
        // must not be wildly above the mean.
        assert!(report.max_utilization < report.mean_cpu_utilization * 1.5 + 0.1);
    }

    #[test]
    fn admission_control_bounds_concurrency_without_capping_throughput() {
        // A generous MPL (32, default) and a tight-but-sufficient MPL (8)
        // must deliver similar throughput: the pool only limits *open
        // snapshots*, not the served load, as long as it exceeds the
        // concurrency knee of the node.
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let wide = sim(spec.clone(), quick(2, 21)).run();
        let tight_cfg = SimConfig {
            mpl: 8,
            ..quick(2, 21)
        };
        let tight = sim(spec, tight_cfg).run();
        let rel = (wide.throughput_tps - tight.throughput_tps).abs() / wide.throughput_tps;
        assert!(
            rel < 0.10,
            "wide {} vs tight {}",
            wide.throughput_tps,
            tight.throughput_tps
        );
    }

    #[test]
    fn tiny_mpl_serializes_and_lowers_throughput() {
        // MPL = 1 forces one transaction at a time per node: a real
        // throughput ceiling far below the default.
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let wide = sim(spec.clone(), quick(2, 22)).run();
        let serial_cfg = SimConfig {
            mpl: 1,
            ..quick(2, 22)
        };
        let serial = sim(spec, serial_cfg).run();
        assert!(
            serial.throughput_tps < 0.8 * wide.throughput_tps,
            "serial {} vs wide {}",
            serial.throughput_tps,
            wide.throughput_tps
        );
    }

    #[test]
    fn master_crash_promotes_a_slave() {
        // Kill the master mid-run: a slave is promoted once it has the
        // full writeset log, queued updates drain to it, and update
        // commits keep flowing for the rest of the run.
        let cfg = SimConfig {
            schedule: Schedule::new().crash(20.0, 0).window(2.0),
            ..quick(3, 41)
        };
        let a = sim(tpcw::mix(tpcw::Mix::Shopping), cfg.clone()).run();
        let t = a.transient.as_ref().expect("transient present");
        assert_eq!(t.events[0].event, "crash replica 0");
        assert!(a.update_commits > 0, "promoted slave serves updates");
        let tail_updates: u64 = t
            .windows
            .iter()
            .filter(|w| w.start >= 25.0)
            .map(|w| w.update_commits)
            .sum();
        assert!(
            tail_updates > 0,
            "updates must keep committing after the failover"
        );
        let b = sim(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        assert_eq!(a, b, "failover runs must stay deterministic");
    }

    #[test]
    fn crashed_master_rejoins_as_slave() {
        let cfg = SimConfig {
            schedule: Schedule::new().crash(18.0, 0).join(28.0, 0).window(2.0),
            ..quick(2, 42)
        };
        let report = sim(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(echoed, ["crash replica 0", "rejoin replica 0"]);
        assert!(report.update_commits > 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn certifier_events_are_ignored_in_single_master() {
        let cfg = SimConfig {
            schedule: Schedule::new()
                .certifier_down(20.0)
                .certifier_up(25.0)
                .window(5.0),
            ..quick(2, 43)
        };
        let report = sim(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(
            echoed,
            ["certifier down (ignored)", "certifier up (ignored)"]
        );
    }

    #[test]
    fn relay_log_stays_bounded_under_steady_load() {
        // Pre-WsLog the relay log grew linearly with committed writesets;
        // vacuum-cadence truncation must keep the high-water mark well
        // below the total.
        let (report, world) = run_shopping(&quick(3, 50));
        let probe = world.probe();
        assert!(report.update_commits > 0);
        assert!(
            probe.log_seq > 200,
            "need steady update load: {}",
            probe.log_seq
        );
        assert!(
            (probe.log_peak as u64) < probe.log_seq / 2,
            "peak {} must stay bounded vs {} total",
            probe.log_peak,
            probe.log_seq
        );
        assert!(probe.log_len <= probe.log_peak);
    }

    #[test]
    fn group_commit_surcharge_taxes_update_throughput() {
        // An exaggerated fsync cost with no batching (group 1) must show
        // up as lost throughput on an update-heavy mix.
        let spec = tpcw::mix(tpcw::Mix::Ordering);
        let base = sim(spec.clone(), quick(2, 52)).run();
        let cfg = SimConfig {
            durability: DurabilityConfig {
                enabled: true,
                group_commit: 1,
                fsync_disk: 0.05,
                log_retention: 0,
            },
            ..quick(2, 52)
        };
        let taxed = sim(spec, cfg).run();
        assert!(
            taxed.throughput_tps < 0.9 * base.throughput_tps,
            "taxed {} vs base {}",
            taxed.throughput_tps,
            base.throughput_tps
        );
    }

    #[test]
    fn sm_and_mm_similar_at_low_update_fractions() {
        // With few updates both designs are read-limited and should land
        // near each other.
        let sm = sim(tpcw::mix(tpcw::Mix::Browsing), quick(4, 7))
            .run()
            .throughput_tps;
        let mm = Design::MultiMaster
            .simulator(tpcw::mix(tpcw::Mix::Browsing), quick(4, 7))
            .run()
            .throughput_tps;
        let rel = (sm - mm).abs() / mm;
        assert!(rel < 0.15, "sm={sm} mm={mm}");
    }
}
