//! Design-polymorphic simulation: the [`Simulator`] trait and the
//! simulator side of the design registry.
//!
//! Mirrors `replipred_core`'s `Predictor` trait: callers pick a
//! [`Design`], hand the registry a workload and a [`SimConfig`], and get
//! a boxed simulator back — no concrete sim type is ever named outside
//! this module.
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
use crate::metrics::RunReport;
use crate::mm::MultiMasterSim;
use crate::sm::SingleMasterSim;
use crate::standalone::StandaloneSim;

/// A mechanistic cluster simulation of one replication design.
///
/// A simulator is consumed by the run (the discrete-event engine owns its
/// state), so `run` takes `Box<Self>` — which keeps the trait object-safe
/// while preserving the by-value semantics of the concrete sims.
pub trait Simulator {
    /// The design this simulator measures.
    fn design(&self) -> Design;

    /// The workload being simulated.
    fn workload(&self) -> &str;

    /// Runs warm-up plus the measurement window and reports.
    fn run(self: Box<Self>) -> RunReport;
}

/// The three concrete simulators expose the same inherent surface; one
/// definition lifts it into the trait.
macro_rules! impl_simulator {
    ($($sim:ty => $design:expr),* $(,)?) => {$(
        impl Simulator for $sim {
            fn design(&self) -> Design {
                $design
            }

            fn workload(&self) -> &str {
                self.spec_name()
            }

            fn run(self: Box<Self>) -> RunReport {
                (*self).run()
            }
        }
    )*};
}

impl_simulator! {
    StandaloneSim => Design::Standalone,
    MultiMasterSim => Design::MultiMaster,
    SingleMasterSim => Design::SingleMaster,
}

/// A fully-specified simulated deployment: which design runs which
/// workload. The registry key callers build instead of naming a concrete
/// sim type.
#[derive(Debug, Clone)]
pub enum DesignSpec {
    /// One standalone node — the profiling target and the baseline the
    /// replicated designs are compared against. The deployment is always
    /// one machine; `SimConfig::replicas = n` scales the *offered load*
    /// to `n·C` clients, mirroring `StandaloneModel::predict_scaled`.
    Standalone(WorkloadSpec),
    /// The certifier-based multi-master cluster (paper Figure 4).
    MultiMaster(WorkloadSpec),
    /// The master/slaves single-master cluster (paper Figure 5).
    SingleMaster(WorkloadSpec),
}

impl DesignSpec {
    /// Pairs a design with the workload it should run.
    pub fn new(design: Design, workload: WorkloadSpec) -> Self {
        match design {
            Design::Standalone => DesignSpec::Standalone(workload),
            Design::MultiMaster => DesignSpec::MultiMaster(workload),
            Design::SingleMaster => DesignSpec::SingleMaster(workload),
        }
    }

    /// The design this spec instantiates.
    pub fn design(&self) -> Design {
        match self {
            DesignSpec::Standalone(_) => Design::Standalone,
            DesignSpec::MultiMaster(_) => Design::MultiMaster,
            DesignSpec::SingleMaster(_) => Design::SingleMaster,
        }
    }

    /// The workload to be simulated.
    pub fn workload(&self) -> &WorkloadSpec {
        match self {
            DesignSpec::Standalone(w)
            | DesignSpec::MultiMaster(w)
            | DesignSpec::SingleMaster(w) => w,
        }
    }

    /// The registry: builds the concrete simulator for this deployment.
    pub fn simulator(self, cfg: SimConfig) -> Box<dyn Simulator> {
        match self {
            DesignSpec::Standalone(mut w) => {
                // Scale point `n` offers the whole n·C-client load to the
                // single node (the predictor side does the same in
                // `predict_scaled`); the sim itself stays one machine.
                let scale = cfg.replicas.max(1);
                w.clients_per_replica *= scale;
                Box::new(ScaledStandalone {
                    sim: StandaloneSim::new(w, cfg),
                    scale,
                })
            }
            DesignSpec::MultiMaster(w) => Box::new(MultiMasterSim::new(w, cfg)),
            DesignSpec::SingleMaster(w) => Box::new(SingleMasterSim::new(w, cfg)),
        }
    }
}

/// A standalone run at scale point `n`. The report's `replicas` field is
/// rewritten to the scale point so measured rows line up with
/// `StandaloneModel::predict_scaled` (which does the same); the
/// deployment is still one machine, as the `clients` field shows.
struct ScaledStandalone {
    sim: StandaloneSim,
    scale: usize,
}

impl Simulator for ScaledStandalone {
    fn design(&self) -> Design {
        Design::Standalone
    }

    fn workload(&self) -> &str {
        self.sim.spec_name()
    }

    fn run(self: Box<Self>) -> RunReport {
        let mut report = self.sim.run();
        report.replicas = self.scale;
        report
    }
}

/// Registry sugar mirroring `Design::predictor(profile, config)`:
/// `design.simulator(spec, sim_config)`.
pub trait SimulatorRegistry {
    /// Builds the simulator for this design over `workload`.
    fn simulator(&self, workload: WorkloadSpec, cfg: SimConfig) -> Box<dyn Simulator>;
}

impl SimulatorRegistry for Design {
    fn simulator(&self, workload: WorkloadSpec, cfg: SimConfig) -> Box<dyn Simulator> {
        DesignSpec::new(*self, workload).simulator(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let ds = DesignSpec::new(design, spec.clone());
            assert_eq!(ds.design(), design);
            assert_eq!(ds.workload().name, "tpcw-shopping");
            let sim = ds.simulator(SimConfig {
                warmup: 2.0,
                duration: 5.0,
                ..SimConfig::quick(2, 7)
            });
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
        // `replicas` is the scale point (lining up with predict_scaled);
        // `clients` shows the whole load landed on the one machine.
        assert_eq!(report.replicas, 3);
        assert_eq!(report.clients, 120);
    }

    #[test]
    fn design_sugar_matches_design_spec() {
        let spec = tpcw::mix(tpcw::Mix::Browsing);
        let cfg = SimConfig {
            warmup: 2.0,
            duration: 5.0,
            ..SimConfig::quick(2, 11)
        };
        let a = Design::SingleMaster
            .simulator(spec.clone(), cfg.clone())
            .run();
        let b = DesignSpec::new(Design::SingleMaster, spec)
            .simulator(cfg)
            .run();
        // Same seed, same windows: bit-identical runs.
        assert_eq!(a, b);
    }
}
