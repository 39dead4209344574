//! The design axis, checked across both of its sides: for every design,
//! the predictor and the simulator the registry hands out describe the
//! same deployment at the same scale point — in particular the
//! standalone rule (scale point `n` is one machine under `n·C` clients,
//! reported as `replicas = n`), which each side implements on its own.

use replipred::model::planner::{plan_designs, Slo};
use replipred::model::{Design, SystemConfig};
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::scenario::{published_profile, workload_spec};

#[test]
fn predictor_and_simulator_agree_on_what_a_scale_point_is() {
    let profile = published_profile("tpcw-shopping").expect("published");
    let spec = workload_spec("tpcw-shopping").expect("published");
    let config = SystemConfig::lan_cluster(spec.clients_per_replica);
    for design in Design::ALL {
        let predictor = design
            .predictor(profile.clone(), config.clone())
            .expect("published inputs are valid");
        assert_eq!(predictor.design(), design);
        for n in [1usize, 3] {
            let predicted = predictor.predict(n).expect("solves");
            let cfg = SimConfig {
                warmup: 2.0,
                duration: 5.0,
                ..SimConfig::quick(n, 7)
            };
            let simulator = design.simulator(spec.clone(), cfg);
            assert_eq!(simulator.design(), design);
            let measured = simulator.run();
            assert_eq!(
                (predicted.design, predicted.replicas, predicted.clients),
                (design, measured.replicas, measured.clients),
                "{design} at scale point {n}"
            );
            assert_eq!(measured.replicas, n, "{design}");
            assert_eq!(measured.clients, n * config.clients_per_replica, "{design}");
            assert!(measured.throughput_tps > 0.0, "{design} at {n}");
        }
    }
}

#[test]
fn the_planner_never_buys_a_second_standalone_machine() {
    let profile = published_profile("tpcw-shopping").expect("published");
    let config = SystemConfig::lan_cluster(40);
    // From an SLO one node meets to one nothing within 16 replicas does:
    // standalone scale points above 1 model offered load, not hardware.
    for tps in [10.0, 25.0, 60.0, 150.0, 400.0, 100_000.0] {
        let slo = Slo {
            min_throughput_tps: tps,
            max_response_time: None,
            max_abort_rate: None,
        };
        let plans = plan_designs(&profile, &config, &Design::ALL, &slo, 16).expect("plans");
        for plan in &plans {
            assert!(plan.prediction.throughput_tps >= tps);
            assert_eq!(plan.prediction.replicas, plan.replicas);
            if plan.design == Design::Standalone {
                assert_eq!(plan.replicas, 1, "standalone at {tps} tps");
            }
        }
        assert!(plans.windows(2).all(|w| w[0].replicas <= w[1].replicas));
    }
}
