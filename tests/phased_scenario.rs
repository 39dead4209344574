//! Time-phased scenarios end to end: a crash/rejoin schedule driven
//! through the public [`Scenario`] builder, with the transient section's
//! determinism and backward-compatibility contracts:
//!
//! - a replica-crash schedule yields a populated [`TransientReport`]
//!   (events echoed, recovery time measured, windows accounting for every
//!   commit);
//! - an **empty** schedule is byte-identical to no schedule at all — the
//!   phased API costs steady-state runs nothing;
//! - phased reports are identical for every `jobs` value;
//! - one golden snapshot pins the absolute phased output across commits
//!   (`REPLIPRED_BLESS=1` regenerates, as with the steady-state golden).

mod common;

use replipred::model::Design;
use replipred::repl::{Schedule, SimConfig};
use replipred::scenario::Scenario;

/// The pinned phased run: rubis-bidding × MM × n = 4, crash replica 1
/// mid-run and rejoin it later, 5-second windows.
fn phased_scenario() -> Scenario {
    Scenario::published("rubis-bidding")
        .expect("published workload")
        .designs(vec![Design::MultiMaster])
        .replicas([4])
        .seed(2009)
        .predict(false)
        .simulate(true)
        .schedule(Schedule::new().crash(15.0, 1).join(30.0, 1).window(5.0))
        .sim_config(SimConfig {
            warmup: 5.0,
            duration: 40.0,
            ..SimConfig::quick(0, 0)
        })
}

#[test]
fn crash_schedule_reports_transients_through_the_scenario_driver() {
    let report = phased_scenario().run().expect("phased scenario runs");
    assert_eq!(report.designs.len(), 1);
    let run = &report.designs[0].measured[0];
    let t = run.transient.as_ref().expect("schedule enables transients");

    // The simulator echoes exactly what it applied, in firing order.
    let events: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
    assert_eq!(events, ["crash replica 1", "rejoin replica 1"]);
    assert_eq!(t.events[0].at, 15.0);
    assert_eq!(t.events[1].at, 30.0);

    // Windows tile the measurement interval [5, 45] at the 5 s width and
    // account for every committed transaction in the steady-state report.
    assert_eq!(t.window, 5.0);
    assert_eq!(t.windows.len(), 8);
    let window_commits: u64 = t.windows.iter().map(|w| w.commits).sum();
    let total = run.throughput_tps * 40.0;
    assert!(
        (window_commits as f64 - total).abs() < 1e-6 * total.max(1.0),
        "windows hold {window_commits} commits, run reports {total}"
    );

    // The headline robustness metrics come out populated: the cluster
    // loses a replica and recovers within the run.
    assert!(t.baseline_tps > 0.0);
    let recovery = t.recovery_time.expect("recovered within the run");
    assert!(recovery > 0.0 && recovery <= 30.0, "recovery = {recovery}");
    assert!(t.peak_abort_rate >= 0.0);
}

#[test]
fn empty_schedule_is_byte_identical_to_no_schedule() {
    let base = || {
        Scenario::published("rubis-bidding")
            .expect("published workload")
            .all_designs()
            .replicas([1, 4])
            .seed(2009)
            .simulate(true)
            .sim_config(SimConfig {
                warmup: 2.0,
                duration: 8.0,
                ..SimConfig::quick(0, 0)
            })
    };
    let plain = base().run().expect("plain run");
    let scheduled = base()
        .schedule(Schedule::default())
        .run()
        .expect("empty-schedule run");
    let plain_json = serde_json::to_string_pretty(&plain).expect("serializes");
    let scheduled_json = serde_json::to_string_pretty(&scheduled).expect("serializes");
    assert_eq!(
        plain_json, scheduled_json,
        "a disabled schedule must not change a steady-state report"
    );
}

#[test]
fn phased_reports_are_jobs_invariant() {
    let sequential = phased_scenario().jobs(1).run().expect("jobs = 1");
    let parallel = phased_scenario().jobs(8).run().expect("jobs = 8");
    let a = serde_json::to_string_pretty(&sequential).expect("serializes");
    let b = serde_json::to_string_pretty(&parallel).expect("serializes");
    assert_eq!(a, b, "phased reports must not depend on worker count");
}

/// A smaller pinned phased run for the snapshot: n = 2, crash + rejoin,
/// 2-second windows over a 16 s measurement.
fn golden_phases_scenario() -> Scenario {
    Scenario::published("rubis-bidding")
        .expect("published workload")
        .designs(vec![Design::MultiMaster])
        .replicas([2])
        .seed(2009)
        .predict(false)
        .simulate(true)
        .schedule(Schedule::new().crash(6.0, 1).join(12.0, 1).window(2.0))
        .sim_config(SimConfig {
            warmup: 2.0,
            duration: 16.0,
            ..SimConfig::quick(0, 0)
        })
}

#[test]
fn phased_report_matches_the_checked_in_golden_snapshot() {
    let report = golden_phases_scenario().run().expect("golden phased run");
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    common::check_golden("rubis_bidding_phases_seed2009.json", &json);

    // The snapshot must stay a loadable report whose transient section
    // has the promised shape.
    let report: replipred::scenario::ScenarioReport =
        serde_json::from_str(&json).expect("snapshot deserializes");
    let run = &report.designs[0].measured[0];
    let t = run.transient.as_ref().expect("transient section present");
    assert_eq!(t.windows.len(), 8, "2 s windows over [2, 18]");
    assert_eq!(t.events.len(), 2, "crash + rejoin echoed");
}
