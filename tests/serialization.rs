//! Serde round-trips for every serializable boundary type: profiles and
//! predictions are meant to be stored (capacity-planning records) and
//! shipped between services.

use replipred::model::{Design, SystemConfig, WorkloadProfile};
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::sidb::{RowId, TableId, Value, WriteItem, WriteOp, WriteSet};
use replipred::workload::tpcw;

#[test]
fn workload_profile_roundtrip() {
    for p in WorkloadProfile::all_paper_profiles() {
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkloadProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}

#[test]
fn prediction_roundtrip() {
    let model = Design::MultiMaster
        .predictor(
            WorkloadProfile::tpcw_shopping(),
            SystemConfig::lan_cluster(40),
        )
        .unwrap();
    let p = model.predict(8).unwrap();
    let json = serde_json::to_string(&p).unwrap();
    let back: replipred::model::Prediction = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
}

#[test]
fn scalability_curve_roundtrip() {
    let model = Design::MultiMaster
        .predictor(
            WorkloadProfile::tpcw_browsing(),
            SystemConfig::lan_cluster(30),
        )
        .unwrap();
    let curve = model.curve(4).unwrap();
    let json = serde_json::to_string(&curve).unwrap();
    let back: replipred::model::report::ScalabilityCurve = serde_json::from_str(&json).unwrap();
    assert_eq!(curve, back);
}

#[test]
fn run_report_roundtrip() {
    let cfg = SimConfig {
        warmup: 5.0,
        duration: 10.0,
        ..SimConfig::quick(1, 1)
    };
    let report = Design::Standalone
        .simulator(tpcw::mix(tpcw::Mix::Shopping), cfg)
        .run();
    let json = serde_json::to_string(&report).unwrap();
    let back: replipred::repl::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn writeset_roundtrip() {
    let ws = WriteSet {
        base_version: 42,
        items: vec![
            WriteItem {
                table: TableId(3),
                row: RowId(7),
                op: WriteOp::Update,
                data: Some(vec![Value::text("x"), Value::Int(1), Value::Float(0.5)]),
            },
            WriteItem {
                table: TableId(3),
                row: RowId(9),
                op: WriteOp::Delete,
                data: None,
            },
        ],
    };
    let json = serde_json::to_string(&ws).unwrap();
    let back: WriteSet = serde_json::from_str(&json).unwrap();
    assert_eq!(ws, back);
}

#[test]
fn workload_spec_roundtrip() {
    let spec = tpcw::mix(tpcw::Mix::Ordering);
    let json = serde_json::to_string(&spec).unwrap();
    let back: replipred::workload::spec::WorkloadSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}
