//! Serde round-trips for every serializable boundary type: profiles and
//! predictions are meant to be stored (capacity-planning records) and
//! shipped between services.

use replipred::model::{Design, SystemConfig, WorkloadProfile};
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::sidb::{
    scan, Checkpoint, Row, RowId, TableCheckpoint, TableId, Value, WalRecord, WriteItem, WriteOp,
    WriteSet,
};
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

/// A two-item writeset with one cell of every [`Value`] kind.
fn sample_writeset() -> WriteSet {
    WriteSet {
        base_version: 42,
        items: vec![
            WriteItem {
                table: TableId(3),
                row: RowId(7),
                op: WriteOp::Update,
                data: Some(Row::from([
                    Value::text("x"),
                    Value::Int(1),
                    Value::Float(0.5),
                    Value::Bool(true),
                    Value::Null,
                    Value::Bytes(vec![1, 2, 3]),
                ])),
            },
            WriteItem {
                table: TableId(3),
                row: RowId(9),
                op: WriteOp::Delete,
                data: None,
            },
        ],
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn writeset_roundtrip() {
    let ws = sample_writeset();
    let json = serde_json::to_string(&ws).unwrap();
    let back: WriteSet = serde_json::from_str(&json).unwrap();
    assert_eq!(ws, back);
}

// The three literals below were written by the build before rows became
// shared (`Row = Vec<Value>`): a shared row must read and write the
// same JSON, checkpoint image and redo-log bytes.

#[test]
fn writeset_json_written_with_vec_rows_still_decodes_and_encodes() {
    const JSON: &str = r#"{"base_version":42,"items":[{"table":3,"row":7,"op":"Update","data":[{"Text":"x"},{"Int":1},{"Float":0.5},{"Bool":true},"Null",{"Bytes":[1,2,3]}]},{"table":3,"row":9,"op":"Delete","data":null}]}"#;
    let back: WriteSet = serde_json::from_str(JSON).unwrap();
    assert_eq!(back, sample_writeset());
    assert_eq!(serde_json::to_string(&sample_writeset()).unwrap(), JSON);
}

#[test]
fn checkpoint_image_written_with_vec_rows_still_decodes_and_encodes() {
    const IMAGE: &str = "53494442434b50317a000000938a9b972a0000000000000002000000050000006974656d7302000000040000006e616d650500000073746f636b02000000010000000000000002000000040100000061020a0000000000000002000000000000000200000004010000006202140000000000000005000000656d70747901000000010000007800000000";
    let cp = Checkpoint {
        seq: 42,
        tables: vec![
            TableCheckpoint {
                name: "items".into(),
                columns: vec!["name".into(), "stock".into()],
                rows: vec![
                    (1, Row::from([Value::text("a"), Value::Int(10)])),
                    (2, Row::from([Value::text("b"), Value::Int(20)])),
                ],
            },
            TableCheckpoint {
                name: "empty".into(),
                columns: vec!["x".into()],
                rows: vec![],
            },
        ],
    };
    assert_eq!(Checkpoint::from_bytes(&unhex(IMAGE)), Ok(cp.clone()));
    assert_eq!(cp.to_bytes(), unhex(IMAGE));
}

#[test]
fn wal_bytes_written_with_vec_rows_still_scan_to_the_same_records() {
    // Group commit 2: a frame of (CreateTable, Commit 43) and a flushed
    // frame of (Commit 44, empty writeset).
    const LOG: &str = "770000003797340d01050000006974656d7302000000040000006e616d650500000073746f636b022b000000000000002a000000000000000200000003000000070000000000000001010600000004010000007802010000000000000003000000000000e03f0101000503000000010203030000000900000000000000020015000000e0d6a905022c000000000000002b0000000000000000000000";
    let bytes = unhex(LOG);
    let scanned = scan(&bytes);
    assert_eq!((scanned.valid_len, scanned.truncated), (bytes.len(), false));
    assert_eq!(
        scanned.records,
        vec![
            WalRecord::CreateTable {
                name: "items".into(),
                columns: vec!["name".into(), "stock".into()],
            },
            WalRecord::Commit {
                seq: 43,
                writeset: sample_writeset(),
            },
            WalRecord::Commit {
                seq: 44,
                writeset: WriteSet {
                    base_version: 43,
                    items: vec![],
                },
            },
        ]
    );
    let mut wal = replipred::sidb::WalWriter::new(2);
    for rec in &scanned.records {
        wal.append(rec);
    }
    assert_eq!(wal.into_bytes(), bytes);
}

#[test]
fn workload_spec_roundtrip() {
    let spec = tpcw::mix(tpcw::Mix::Ordering);
    let json = serde_json::to_string(&spec).unwrap();
    let back: replipred::workload::spec::WorkloadSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}
