//! Parallel-execution determinism: `Scenario::run` must produce a
//! byte-identical `ScenarioReport` for every `jobs` value.
//!
//! This is the contract that lets `--jobs` default to one worker per
//! core: parallelism may only change wall-clock time, never results.

use replipred::model::Design;
use replipred::repl::{RunReport, SimulatorRegistry};
use replipred::scenario::{ReplicationSummary, Scenario, PUBLISHED_WORKLOADS};
use replipred::sim::rng::derive_stream_seed;
use replipred_repl::SimConfig;

/// Short windows keep the 5 × 3 × 2-point grid fast while still driving
/// every event type (commits, certification, propagation, retries).
fn quick_windows() -> SimConfig {
    SimConfig {
        warmup: 2.0,
        duration: 8.0,
        ..SimConfig::quick(0, 0)
    }
}

#[test]
fn parallel_sweep_is_identical_to_serial_for_all_published_workloads() {
    for workload in PUBLISHED_WORKLOADS {
        let scenario = Scenario::published(workload)
            .expect("published workload")
            .designs(Design::ALL.to_vec())
            .replicas([1, 2])
            .seed(2009)
            .simulate(true)
            .sim_config(quick_windows());
        let serial = scenario.clone().jobs(1).run().expect("serial run");
        let parallel = scenario.jobs(8).run().expect("parallel run");
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize serial"),
            serde_json::to_string(&parallel).expect("serialize parallel"),
            "jobs=8 diverged from jobs=1 on {workload}"
        );
    }
}

#[test]
fn parallel_multi_seed_sweep_is_identical_to_serial() {
    // Seed replication fans out more cells per point; the reassembly (and
    // the CI aggregation order) must still be independent of the pool.
    let scenario = Scenario::published("rubis-bidding")
        .expect("published workload")
        .designs(vec![Design::MultiMaster, Design::SingleMaster])
        .replicas([1, 2])
        .seed(7)
        .seeds(3)
        .simulate(true)
        .sim_config(quick_windows());
    let serial = scenario.clone().jobs(1).run().expect("serial run");
    let parallel = scenario.jobs(8).run().expect("parallel run");
    assert_eq!(
        serde_json::to_string(&serial).expect("serialize serial"),
        serde_json::to_string(&parallel).expect("serialize parallel"),
    );
}

#[test]
fn replicated_rows_are_the_mean_and_t_interval_of_the_seed_runs() {
    // Every `ReplicationSummary` field, recomputed bit for bit from the
    // three replications run directly: the base seed, then the stream
    // seeds derived from it.
    let seed = 11;
    let scenario = Scenario::published("tpcw-shopping")
        .expect("published workload")
        .designs(Design::ALL.to_vec())
        .replicas([2])
        .seed(seed)
        .seeds(3)
        .simulate(true)
        .sim_config(quick_windows());
    let report = scenario.run().expect("replicated run");
    let spec = scenario.resolve().2.expect("published workloads simulate");
    let seeds = [
        seed,
        derive_stream_seed(seed, 1),
        derive_stream_seed(seed, 2),
    ];
    for design in &report.designs {
        let runs: Vec<RunReport> = seeds
            .iter()
            .map(|&seed| {
                let cfg = SimConfig {
                    replicas: 2,
                    seed,
                    ..quick_windows()
                };
                design.design.simulator(spec.clone(), cfg).run()
            })
            .collect();
        let mean_ci95 = |metric: fn(&RunReport) -> f64| {
            let [a, b, c] = [metric(&runs[0]), metric(&runs[1]), metric(&runs[2])];
            let mean = (a + b + c) / 3.0;
            let var = ((a - mean).powi(2) + (b - mean).powi(2) + (c - mean).powi(2)) / 2.0;
            // Two-sided 95% Student t at 2 degrees of freedom.
            (mean, 4.303 * (var / 3.0).sqrt())
        };
        let (throughput_tps, throughput_ci95) = mean_ci95(|r| r.throughput_tps);
        let (response_time, response_ci95) = mean_ci95(|r| r.response_time);
        let (abort_rate, abort_ci95) = mean_ci95(|r| r.abort_rate);
        let expected = ReplicationSummary {
            replicas: 2,
            seeds: 3,
            throughput_tps,
            throughput_ci95,
            response_time,
            response_ci95,
            abort_rate,
            abort_ci95,
        };
        assert_eq!(design.replicated, [expected], "{:?}", design.design);
        assert_eq!(design.measured, runs[..1], "{:?}", design.design);
    }
}
