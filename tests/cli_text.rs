//! What the CLI prints, checked in-process: `replipred::render` builds
//! every subcommand's text, so the renderers are pinned here against
//! goldens (`tests/golden/cli_*.txt`) captured from the binary's stdout
//! when the renderers still lived in `src/main.rs`. Regenerate after an
//! *intentional* change with `REPLIPRED_BLESS=1 cargo test --test cli_text`.

mod common;

use common::check_golden;
use replipred::model::planner::{plan_designs, Slo};
use replipred::model::Design;
use replipred::profiler::Profiler;
use replipred::render;
use replipred::scenario::{workload_spec, Scenario, ScenarioReport, DEFAULT_SEED, PAPER_CLUSTER};

/// `predict --workload tpcw-shopping --design all --replicas 4`
#[test]
fn predict_prints_one_model_table_per_design() {
    let report = Scenario::published("tpcw-shopping")
        .expect("published workload")
        .all_designs()
        .replicas(1..=4)
        .run()
        .expect("predicts");
    check_golden(
        "cli_predict_tpcw_shopping_all_n4.txt",
        &render::curves(&report),
    );
}

/// `plan --workload tpcw-ordering --tps 250`
#[test]
fn plan_prints_one_line_per_recommendation() {
    let (profile, system, _) = Scenario::published("tpcw-ordering")
        .expect("published workload")
        .resolve();
    let slo = Slo {
        min_throughput_tps: 250.0,
        max_response_time: None,
        max_abort_rate: None,
    };
    let designs = [Design::MultiMaster, Design::SingleMaster];
    let plans = plan_designs(&profile, &system, &designs, &slo, PAPER_CLUSTER).expect("plans");
    check_golden(
        "cli_plan_tpcw_ordering_250tps.txt",
        &render::plans(&plans, PAPER_CLUSTER),
    );
    assert_eq!(
        render::plans(&[], PAPER_CLUSTER),
        "SLO infeasible within 16 replicas\n"
    );
}

/// `profile --workload tpcw-shopping`
#[test]
fn profile_prints_the_table_1_parameters() {
    let spec = workload_spec("tpcw-shopping").expect("published workload");
    let outcome = Profiler::new(spec).seed(DEFAULT_SEED).profile();
    check_golden(
        "cli_profile_tpcw_shopping.txt",
        &render::profile(&outcome.profile),
    );
}

/// The `phases` text of the report `tests/phased_scenario.rs` pins as JSON:
/// rendering needs no simulation.
#[test]
fn phases_prints_the_transient_section() {
    let json = include_str!("golden/rubis_bidding_phases_seed2009.json");
    let report: ScenarioReport = serde_json::from_str(json).expect("golden report parses");
    check_golden(
        "cli_phases_rubis_bidding_seed2009.txt",
        &render::points(&report, true),
    );
}
