//! Golden-report snapshot: one small simulated sweep serialized to a
//! checked-in JSON file, asserted **byte-identical** on every run.
//!
//! The jobs=1-vs-8 determinism tests prove a run agrees with itself; this
//! snapshot pins the absolute output across commits, so *any* behavioural
//! drift — an RNG stream reordered, an event tie broken differently, a
//! float folded in another order, a serializer change — fails loudly with
//! a diffable artifact instead of silently shifting every number.
//!
//! To regenerate after an *intentional* behaviour change, bless the new
//! snapshot and re-run:
//!
//! ```text
//! REPLIPRED_BLESS=1 cargo test --test golden_report
//! ```
//!
//! and review the JSON diff like any other code change.

mod common;

use replipred::repl::SimConfig;
use replipred::scenario::Scenario;

/// The pinned sweep: rubis-bidding × all designs × n ∈ {1, 4}, seed 2009
/// (the paper's year, the repo-wide default seed).
fn golden_scenario() -> Scenario {
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
}

/// One sequential test so blessing never races a parallel reader: run,
/// (optionally) bless, byte-compare, then structurally check the snapshot.
#[test]
fn scenario_report_matches_the_checked_in_golden_snapshot() {
    let report = golden_scenario().run().expect("golden scenario runs");
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    common::check_golden("rubis_bidding_sweep_seed2009.json", &json);

    // The snapshot is not just bytes: it must stay a loadable report with
    // the shape the sweep promises (guards against blessing a truncated
    // or hand-mangled file).
    let report: replipred::scenario::ScenarioReport =
        serde_json::from_str(&json).expect("snapshot deserializes");
    assert_eq!(report.workload, "rubis-bidding");
    assert_eq!(report.seed, 2009);
    assert_eq!(report.replicas, vec![1, 4]);
    assert_eq!(report.designs.len(), 3);
    for d in &report.designs {
        assert_eq!(d.measured.len(), 2, "{}: two simulated points", d.design);
        assert!(d.predicted.is_some(), "{}: predicted curve", d.design);
        for r in &d.measured {
            assert!(r.throughput_tps > 0.0);
        }
    }
}
