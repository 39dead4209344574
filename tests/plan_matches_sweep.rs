//! `plan` and `sweep` must describe the same system: the planner's
//! chosen point is the point of the predicted curve at that replica
//! count, for workloads whose think time is not the paper's 1.0 s too.

use std::process::Command;

use replipred::model::planner::Plan;
use replipred::scenario::ScenarioReport;

fn replipred(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args(args)
        .output()
        .expect("spawn replipred binary");
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn plan_chooses_the_point_sweep_predicts() {
    // ycsb-a clients think 0.25 s; `plan` once searched every workload
    // at Z = 1.0 s and chose 11 replicas where the curve needs 10.
    let workload = ["--workload", "synth:ycsb-a"];
    let plan = [&["plan"], &workload[..], &["--tps", "400", "--json"]].concat();
    let plans: Vec<Plan> =
        serde_json::from_str(&replipred(&plan)).expect("plan --json emits the plans");
    assert!(!plans.is_empty(), "400 tps is feasible for ycsb-a");
    for plan in plans {
        let (design, n) = (plan.design.to_string(), plan.replicas.to_string());
        let sweep = [
            &["sweep"],
            &workload[..],
            &["--design", &design, "--replicas", &n, "--json"],
        ]
        .concat();
        let report: ScenarioReport =
            serde_json::from_str(&replipred(&sweep)).expect("sweep --json emits a report");
        let curve = report.designs[0].predicted.as_ref().expect("predicted");
        assert_eq!(curve.at(plan.replicas), Some(&plan.prediction), "{design}");
    }
}
