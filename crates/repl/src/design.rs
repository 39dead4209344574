//! Design-polymorphic simulation: the [`Simulator`] and the simulator
//! side of the design registry.
//!
//! Mirrors `replipred_core`'s `Predictor`: callers pick a [`Design`],
//! hand the registry a workload and a [`SimConfig`], and get a simulator
//! back. [`Design`] is a closed enum, so the simulator is one struct
//! whose `run` `match`es onto the replica kernel under that design's
//! policy.
//!
//! ```
//! use replipred_core::Design;
//! use replipred_repl::design::SimulatorRegistry;
//! use replipred_repl::SimConfig;
//! use replipred_workload::tpcw;
//!
//! let spec = tpcw::mix(tpcw::Mix::Shopping);
//! let sim = Design::MultiMaster.simulator(spec, SimConfig::quick(2, 42));
//! let report = sim.run();
//! assert!(report.throughput_tps > 0.0);
//! ```

use replipred_core::Design;
use replipred_workload::spec::WorkloadSpec;

use crate::config::SimConfig;
use crate::kernel::Seeded;
use crate::metrics::RunReport;
use crate::standalone::{self, TxnFilter};
use crate::{mm, sm};

/// A mechanistic cluster simulation of one replication design running
/// one workload at the scale point `cfg.replicas`.
pub struct Simulator {
    design: Design,
    spec: WorkloadSpec,
    cfg: SimConfig,
}

impl Simulator {
    /// The design this simulator measures.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The workload being simulated.
    pub fn workload(&self) -> &str {
        &self.spec.name
    }

    /// Seeds the workload, then runs warm-up plus the measurement window
    /// and reports. Every call seeds its own image; a caller running
    /// several cells of one workload seeds once ([`Seeded::install`]) and
    /// calls [`Simulator::run_from`] per cell.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.replicas` is zero under a replicated design.
    pub fn run(self) -> RunReport {
        let seeded = Seeded::install(&self.spec, self.cfg.seed_scale);
        self.run_from(&seeded)
    }

    /// Runs warm-up plus the measurement window on replicas cloned from
    /// `seeded`, and reports. The image is left as it was, so any number
    /// of cells — any design, replica count, seed or client count — can
    /// run from one image, in any order, and each reports exactly what
    /// [`Simulator::run`] would.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.replicas` is zero under a replicated design, or if
    /// `seeded` was not seeded from this workload's tables at
    /// `cfg.seed_scale`.
    pub fn run_from(mut self, seeded: &Seeded) -> RunReport {
        match self.design {
            // Scale point `n` offers the whole n·C-client load to the one
            // standalone node and reports `replicas = n`, so measured rows
            // line up with the predictor side, which does the same; the
            // deployment is still one machine, as `clients` shows.
            Design::Standalone => {
                let n = self.cfg.replicas.max(1);
                self.spec.clients_per_replica *= n;
                let mut report = standalone::run(seeded, &self.spec, &self.cfg, TxnFilter::All).0;
                report.replicas = n;
                report
            }
            Design::MultiMaster => mm::run(seeded, &self.spec, &self.cfg).0,
            Design::SingleMaster => sm::run(seeded, &self.spec, &self.cfg).0,
        }
    }
}

/// The simulator side of the design registry, mirroring
/// `Design::predictor(profile, config)`: `design.simulator(spec, cfg)`.
/// An extension trait because `replipred_core`, which owns [`Design`],
/// cannot depend on this crate.
pub trait SimulatorRegistry {
    /// Builds the simulator for this design over `workload`.
    fn simulator(&self, workload: WorkloadSpec, cfg: SimConfig) -> Simulator;
}

impl SimulatorRegistry for Design {
    fn simulator(&self, spec: WorkloadSpec, cfg: SimConfig) -> Simulator {
        Simulator {
            design: *self,
            spec,
            cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;
    use crate::durable::DurabilityCounts;
    use crate::kernel::{Policy, World};
    use replipred_core::Schedule;
    use replipred_workload::tpcw;

    /// A short run per design: n = 2 for the clusters (the standalone
    /// scale point then offers 2·C clients to its one machine).
    fn quick(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(2, seed)
        }
    }

    fn simulate(design: Design, cfg: SimConfig) -> RunReport {
        design.simulator(tpcw::mix(tpcw::Mix::Shopping), cfg).run()
    }

    #[test]
    fn equal_seeds_give_identical_runs_in_every_design() {
        for design in Design::ALL {
            let (a, b) = (simulate(design, quick(11)), simulate(design, quick(11)));
            assert_eq!(a, b, "{design}");
            assert!(a.update_commits > 0, "{design}");
        }
    }

    #[test]
    fn eventless_schedule_only_adds_transient_windows() {
        // Turning on windowed collection without any events must not
        // perturb the run: the steady-state numbers stay bit-identical.
        for design in Design::ALL {
            let plain = simulate(design, quick(30));
            let cfg = SimConfig {
                schedule: Schedule::new().window(5.0),
                ..quick(30)
            };
            let mut windowed = simulate(design, cfg);
            let transient = windowed
                .transient
                .take()
                .expect("windowing enables transient");
            assert_eq!(plain, windowed, "{design}");
            assert!(!transient.windows.is_empty(), "{design}");
            assert!(transient.events.is_empty(), "{design}");
            assert!(
                transient.recovery_time.is_none(),
                "{design}: no fault, no recovery"
            );
            let window_commits: u64 = transient.windows.iter().map(|w| w.commits).sum();
            assert_eq!(
                window_commits,
                plain.read_commits + plain.update_commits,
                "{design}"
            );
        }
    }

    #[test]
    fn flash_crowd_raises_load_then_subsides() {
        for design in Design::ALL {
            let base = simulate(design, quick(33));
            let cfg = SimConfig {
                schedule: Schedule::new().flash_crowd(15.0, 2.0, 20.0).window(5.0),
                ..quick(33)
            };
            let surged = simulate(design, cfg);
            let t = surged.transient.as_ref().expect("transient present");
            let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
            assert_eq!(echoed, ["clients x2", "clients x1"], "{design}");
            assert!(
                surged.throughput_tps > base.throughput_tps,
                "{design}: doubling clients for half the window should lift \
                 throughput: base={} surged={}",
                base.throughput_tps,
                surged.throughput_tps
            );
        }
    }

    #[test]
    fn registry_covers_every_design() {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        for design in Design::ALL {
            let cfg = SimConfig {
                warmup: 2.0,
                duration: 5.0,
                ..SimConfig::quick(2, 7)
            };
            let sim = design.simulator(spec.clone(), cfg);
            assert_eq!(sim.design(), design);
            assert_eq!(sim.workload(), "tpcw-shopping");
            let report = sim.run();
            assert!(report.throughput_tps > 0.0, "{design}: no throughput");
        }
    }

    #[test]
    fn standalone_scale_point_offers_full_load() {
        // At scale point 3, the standalone baseline is one machine
        // absorbing all 3·C clients (C = 40 for the shopping mix).
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let cfg = SimConfig {
            warmup: 2.0,
            duration: 5.0,
            ..SimConfig::quick(3, 7)
        };
        let report = Design::Standalone.simulator(spec, cfg).run();
        // `replicas` is the scale point (lining up with the predictor);
        // `clients` shows the whole load landed on the one machine.
        assert_eq!(report.replicas, 3);
        assert_eq!(report.clients, 120);
    }

    /// The designs that crash, rejoin and propagate.
    const CLUSTERS: [Design; 2] = [Design::MultiMaster, Design::SingleMaster];

    /// What the crash-and-rejoin tests read off a finished cluster run.
    struct Rejoined {
        report: RunReport,
        state_transfers: u64,
        /// Per node: its redo log's counts and length, when durable.
        durable: Vec<Option<(DurabilityCounts, usize)>>,
        /// Per node: its state once it retired the log's tail (`None`
        /// unless it ended Up).
        drained: Vec<Option<String>>,
    }

    impl Rejoined {
        fn of<P: Policy>((report, world): (RunReport, World<P>)) -> Self {
            Rejoined {
                report,
                state_transfers: world.probe().state_transfers,
                durable: world
                    .nodes
                    .iter()
                    .map(|n| n.durable.as_ref().map(|d| (d.counts(), d.log_len())))
                    .collect(),
                drained: world.drained(),
            }
        }

        /// Whether every node ended Up and in the same state.
        fn converged(&self) -> bool {
            self.drained[0].is_some() && self.drained.iter().all(|s| *s == self.drained[0])
        }
    }

    /// Runs tpcw-shopping on `design`'s cluster.
    fn cluster(design: Design, cfg: &SimConfig) -> Rejoined {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let seeded = Seeded::install(&spec, cfg.seed_scale);
        match design {
            Design::MultiMaster => Rejoined::of(mm::run(&seeded, &spec, cfg)),
            Design::SingleMaster => Rejoined::of(sm::run(&seeded, &spec, cfg)),
            Design::Standalone => unreachable!("the standalone node never crashes"),
        }
    }

    fn durable(mut cfg: SimConfig) -> SimConfig {
        cfg.durability = DurabilityConfig {
            enabled: true,
            ..DurabilityConfig::default()
        };
        cfg
    }

    #[test]
    fn durable_crash_rejoin_recovers_from_the_redo_log() {
        // With durability on, crashed replica 0 (the master, under
        // single-master) rebuilds from its image + redo log and replays
        // only the log's tail — never a full state transfer while the
        // log is unbounded.
        let cfg = SimConfig {
            schedule: Schedule::new().crash(18.0, 0).join(28.0, 0).window(2.0),
            ..durable(quick(42))
        };
        for design in CLUSTERS {
            let a = cluster(design, &cfg);
            assert_eq!(
                a.state_transfers, 0,
                "{design}: unbounded log: rejoin must replay, not transfer"
            );
            let (counts, _) = a.durable[0].expect("durability is on");
            assert!(counts.replayed > 0, "{design}: {counts:?}");
            let t = a.report.transient.as_ref().expect("transient present");
            let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
            assert_eq!(echoed, ["crash replica 0", "rejoin replica 0"], "{design}");
            assert!(a.report.update_commits > 0, "{design}");
            assert!(a.converged(), "{design}: replicas diverged");
            let b = simulate(design, cfg.clone());
            assert_eq!(
                a.report, b,
                "{design}: durable recovery must stay deterministic"
            );
        }
    }

    #[test]
    fn two_crashes_in_one_vacuum_interval_lose_no_writeset() {
        // Vacuum (and with it the checkpoint) ticks every 10 s, so both
        // crashes of replica 1 fall between the ticks at 30 and 40: the
        // second recovery replays what the first rejoin re-logged. A
        // stale unsealed group left in the log by the first crash made
        // that replay stop short and the node skip writesets for good.
        let cfg = SimConfig {
            warmup: 20.0,
            duration: 25.0,
            schedule: Schedule::new()
                .crash(31.0, 1)
                .join(33.0, 1)
                .crash(36.0, 1)
                .join(38.0, 1)
                .window(5.0),
            durability: DurabilityConfig {
                enabled: true,
                group_commit: 8,
                ..DurabilityConfig::default()
            },
            ..SimConfig::quick(3, 2009)
        };
        for design in CLUSTERS {
            let r = cluster(design, &cfg);
            assert_eq!(r.state_transfers, 0, "{design}");
            // Replica 1 rejoined, and once every replica retired the
            // log's tail, all of them — the single-master master
            // included — hold the same state.
            assert!(r.converged(), "{design}: replicas diverged");
        }
    }

    #[test]
    fn every_logged_record_is_folded_dropped_or_still_in_the_log() {
        // Replica 0 crashes and rejoins, then replica 1 does twice
        // between two ticks (at 30 and 40 s), with no state transfer:
        // records leave a node's redo log at ticks, crashes and nowhere
        // else.
        let cfg = SimConfig {
            warmup: 20.0,
            duration: 25.0,
            schedule: Schedule::new()
                .crash(22.0, 0)
                .join(26.0, 0)
                .crash(31.0, 1)
                .join(33.0, 1)
                .crash(36.0, 1)
                .join(38.0, 1)
                .window(5.0),
            ..durable(SimConfig::quick(3, 2009))
        };
        for design in CLUSTERS {
            let r = cluster(design, &cfg);
            assert_eq!(r.state_transfers, 0, "{design}");
            let mut counts = Vec::new();
            for (i, durable) in r.durable.iter().enumerate() {
                let (c, log_len) = durable.expect("durability is on");
                assert!(c.folded > 0, "{design} replica {i} ticked: {c:?}");
                assert_eq!(c.superseded, 0, "{design} replica {i}: {c:?}");
                assert_eq!(
                    c.logged,
                    c.folded + c.dropped + log_len as u64,
                    "{design} replica {i}: {c:?}"
                );
                counts.push(c);
            }
            // Both crashed nodes recovered from sealed records, and
            // replica 1 lost an unsealed group; the bystander did neither.
            assert!(counts[0].replayed > 0 && counts[1].replayed > 0, "{design}");
            assert!(counts[1].dropped > 0, "{design}");
            assert_eq!((counts[2].dropped, counts[2].replayed), (0, 0), "{design}");
        }
    }

    #[test]
    fn tiny_retention_forces_a_checkpoint_state_transfer() {
        // A 4-entry retention cap guarantees the log outruns a
        // 20-second-down replica, exercising the fallback path.
        let cfg = SimConfig {
            replicas: 3,
            schedule: Schedule::new().crash(15.0, 1).join(35.0, 1).window(2.0),
            durability: DurabilityConfig {
                enabled: true,
                log_retention: 4,
                ..DurabilityConfig::default()
            },
            ..quick(51)
        };
        for design in CLUSTERS {
            let r = cluster(design, &cfg);
            assert!(
                r.state_transfers >= 1,
                "{design}: capped log must force a state transfer"
            );
            assert!(r.report.update_commits > 0, "{design}");
            assert!(r.report.throughput_tps > 0.0, "{design}");
        }
    }
}
