//! Smoke tests for the published profiles, the `@profile.json` CLI
//! ingestion path, and the `sweep` / `--design all` / `--json` CLI paths.

use std::process::Command;

use replipred::model::{Design, WorkloadProfile};
use replipred::scenario::ScenarioReport;
use replipred::validate::ValidationReport;

/// All five profiles the paper publishes (Tables 2-5).
fn published() -> [WorkloadProfile; 5] {
    [
        WorkloadProfile::tpcw_browsing(),
        WorkloadProfile::tpcw_shopping(),
        WorkloadProfile::tpcw_ordering(),
        WorkloadProfile::rubis_browsing(),
        WorkloadProfile::rubis_bidding(),
    ]
}

#[test]
fn published_profiles_construct_and_validate() {
    for p in published() {
        assert!(!p.name.is_empty());
        p.validate()
            .unwrap_or_else(|e| panic!("profile {} invalid: {e}", p.name));
        assert!((p.pr + p.pw - 1.0).abs() < 1e-9, "{}: Pr + Pw != 1", p.name);
    }
}

#[test]
fn profile_json_roundtrips_through_pretty_form() {
    // The CLI writes pretty JSON (`profile --json`); the `@path` reader
    // must accept it unchanged, and a profile saved by a durable profiler
    // of older builds, with its trailing `log_disk` term, still loads.
    for p in published() {
        let json = serde_json::to_string_pretty(&p).unwrap();
        let (body, end) = json.rsplit_once('}').unwrap();
        let saved = format!("{},\n  \"log_disk\": 0.001\n}}{end}", body.trim_end());
        for json in [json.as_str(), saved.as_str()] {
            let back: WorkloadProfile = serde_json::from_str(json).unwrap();
            assert_eq!(p, back, "pretty JSON round-trip changed {}", p.name);
        }
    }
}

#[test]
fn cli_accepts_profile_json_file() {
    let profile = WorkloadProfile::tpcw_shopping();
    let path = std::env::temp_dir().join(format!("replipred-smoke-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string_pretty(&profile).unwrap()).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "predict",
            "--workload",
            &format!("@{}", path.display()),
            "--replicas",
            "2",
        ])
        .output()
        .expect("spawn replipred binary");
    std::fs::remove_file(&path).ok();

    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("tput (tps)"), "unexpected output: {stdout}");
}

#[test]
fn cli_sweep_design_all_emits_valid_scenario_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "sweep",
            "--workload",
            "tpcw-shopping",
            "--design",
            "all",
            "--replicas",
            "2",
            "--json",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report: ScenarioReport =
        serde_json::from_str(&stdout).expect("sweep --json emits a ScenarioReport");
    assert_eq!(report.workload, "tpcw-shopping");
    assert_eq!(report.replicas, vec![1, 2]);
    let designs: Vec<_> = report.designs.iter().map(|d| d.design).collect();
    assert_eq!(designs, Design::ALL.to_vec());
    for d in &report.designs {
        let curve = d.predicted.as_ref().expect("sweep predicts by default");
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points.iter().all(|p| p.throughput_tps > 0.0));
        assert!(d.measured.is_empty(), "sweep only simulates on --simulate");
    }
}

#[test]
fn cli_sweep_profile_live_runs_the_profiling_pipeline() {
    // --profile-live measures the profile through the Section-4 pipeline
    // (workload → sidb counters → profiler) before predicting.
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "sweep",
            "--workload",
            "tpcw-shopping",
            "--profile-live",
            "--design",
            "mm",
            "--replicas",
            "2",
            "--json",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report: ScenarioReport =
        serde_json::from_str(&stdout).expect("sweep --json emits a ScenarioReport");
    assert_eq!(report.workload, "tpcw-shopping");
    let curve = report.designs[0]
        .predicted
        .as_ref()
        .expect("profiled sweep predicts");
    assert!(curve.points.iter().all(|p| p.throughput_tps > 0.0));
}

#[test]
fn cli_sweep_profile_live_rejects_profile_files() {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "sweep",
            "--workload",
            "@profile.json",
            "--profile-live",
            "--json",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--profile-live needs a published or synth: workload name"),
        "unexpected error: {stderr}"
    );
}

#[test]
fn cli_validate_emits_the_error_grid_json() {
    // The CI smoke path in miniature: one synthetic workload, the
    // replicated designs, the n=1 point.
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "validate",
            "--workload",
            "synth:write-heavy",
            "--design",
            "mm,sm",
            "--replicas",
            "1",
            "--jobs",
            "2",
            "--json",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report: ValidationReport =
        serde_json::from_str(&stdout).expect("validate --json emits a ValidationReport");
    assert_eq!(report.workloads.len(), 1);
    assert_eq!(report.workloads[0].workload, "synth:write-heavy");
    assert_eq!(report.workloads[0].cells.len(), 2, "mm + sm at n=1");
    assert_eq!(report.summaries.len(), 2);
    for s in &report.summaries {
        assert!(s.mean_throughput_error.is_finite());
        assert!(s.max_abort_error.is_finite());
    }
}

#[test]
fn cli_validate_rejects_malformed_synth_descriptions() {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args(["validate", "--workload", "synth:no-such-preset"])
        .output()
        .expect("spawn replipred binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown synth preset"), "stderr: {stderr}");
}

#[test]
fn cli_plan_accepts_synth_workloads() {
    // `plan` profiles synth descriptions live before planning, so the
    // README's "every tool that takes --workload" claim holds for it too.
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args(["plan", "--workload", "synth:write-heavy", "--tps", "40"])
        .output()
        .expect("spawn replipred binary");
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("replicas ->"),
        "expected plan lines, got: {stdout}"
    );
}

#[test]
fn cli_predict_accepts_synth_workloads() {
    // `synth:` names flow through every scenario-backed subcommand; for
    // `predict` the profile is measured live before the curve prints.
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "predict",
            "--workload",
            "synth:ycsb-b,clients=20",
            "--design",
            "mm",
            "--replicas",
            "2",
            "--json",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(
        output.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report: ScenarioReport = serde_json::from_str(&stdout).expect("valid report");
    assert_eq!(report.workload, "synth:ycsb-b,clients=20");
    assert_eq!(report.clients_per_replica, 20);
}

#[test]
fn cli_predict_design_all_prints_every_design() {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "predict",
            "--workload",
            "rubis-browsing",
            "--design",
            "all",
            "--replicas",
            "2",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for design in Design::ALL {
        assert!(
            stdout.contains(&format!("# design {design} (model)")),
            "missing {design} section in: {stdout}"
        );
    }
}

#[test]
fn cli_rejects_repeated_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "predict",
            "--workload",
            "tpcw-shopping",
            "--workload",
            "tpcw-ordering",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--workload given more than once"),
        "stderr: {stderr}"
    );
}

#[test]
fn cli_rejects_flag_as_flag_value() {
    // `--replicas --seed` must not silently consume `--seed` as a value.
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "predict",
            "--workload",
            "tpcw-shopping",
            "--replicas",
            "--seed",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing value for --replicas"),
        "stderr: {stderr}"
    );
}

#[test]
fn cli_rejects_zero_jobs_and_seeds() {
    for flag in ["--jobs", "--seeds"] {
        let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
            .args(["sweep", "--workload", "tpcw-shopping", flag, "0"])
            .output()
            .expect("spawn replipred binary");
        assert!(!output.status.success(), "{flag} 0 must be rejected");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn cli_rejects_zero_clients_whether_or_not_a_predictor_runs() {
    // `simulate` skips the predictors, which used to be the only place
    // the resolved configuration was validated: it ran an empty system
    // and printed 0.0 tps.
    for subcommand in ["predict", "simulate"] {
        let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
            .args([subcommand, "--workload", "tpcw-shopping", "--clients", "0"])
            .output()
            .expect("spawn replipred binary");
        assert!(!output.status.success(), "{subcommand} --clients 0");
        assert!(output.stdout.is_empty(), "{subcommand} printed a report");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("clients_per_replica must be at least 1"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn cli_rejects_seeds_without_simulate() {
    // Prediction is deterministic: seed replication on a predict-only
    // sweep would silently do nothing, so it is an error instead.
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args(["sweep", "--workload", "tpcw-shopping", "--seeds", "2"])
        .output()
        .expect("spawn replipred binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--seeds requires --simulate"),
        "stderr: {stderr}"
    );
}

#[test]
fn cli_rejects_non_numeric_jobs_and_seeds() {
    for (flag, value) in [("--jobs", "many"), ("--seeds", "3.5")] {
        let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
            .args(["simulate", "--workload", "tpcw-shopping", flag, value])
            .output()
            .expect("spawn replipred binary");
        assert!(!output.status.success(), "{flag} {value} must be rejected");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("invalid value for {flag}: {value}")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn cli_sweep_with_jobs_and_seeds_reports_ci() {
    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args([
            "sweep",
            "--workload",
            "tpcw-shopping",
            "--design",
            "mm",
            "--replicas",
            "2",
            "--simulate",
            "--jobs",
            "2",
            "--seeds",
            "2",
            "--json",
        ])
        .output()
        .expect("spawn replipred binary");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report: replipred::scenario::ScenarioReport =
        serde_json::from_str(&stdout).expect("valid report JSON");
    assert_eq!(report.seeds, 2);
    let design = &report.designs[0];
    assert_eq!(design.measured.len(), 2);
    assert_eq!(design.replicated.len(), 2);
    for summary in &design.replicated {
        assert_eq!(summary.seeds, 2);
        assert!(summary.throughput_tps > 0.0);
    }
}

#[test]
fn cli_rejects_malformed_profile_json() {
    let path = std::env::temp_dir().join(format!("replipred-bad-{}.json", std::process::id()));
    std::fs::write(&path, "{ not json").unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_replipred"))
        .args(["predict", "--workload", &format!("@{}", path.display())])
        .output()
        .expect("spawn replipred binary");
    std::fs::remove_file(&path).ok();

    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("bad profile JSON"), "stderr: {stderr}");
}
