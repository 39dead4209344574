//! The one golden-snapshot check the byte-identity tests share.

use std::path::PathBuf;

/// The snapshot `tests/golden/<file>`.
///
/// With `REPLIPRED_BLESS=1` in the environment the snapshot is rewritten
/// from `actual` first (write-then-rename, so a concurrent reader never
/// sees a truncated file) — the way to regenerate after an *intentional*
/// behaviour change; review the diff like any other code change.
pub fn golden(file: &str, actual: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("REPLIPRED_BLESS").is_ok_and(|v| v == "1") {
        let tmp = path.with_file_name(format!("{file}.tmp"));
        std::fs::write(&tmp, actual).expect("write blessed snapshot");
        std::fs::rename(&tmp, &path).expect("publish blessed snapshot");
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden snapshot {}: {e}\n(run with REPLIPRED_BLESS=1 to create it)",
            path.display()
        )
    })
}

/// Asserts `actual` is byte-identical to the snapshot [`golden`] returns.
#[allow(dead_code)] // not every test binary that shares this module compares bytes
pub fn check_golden(file: &str, actual: &str) {
    let golden = golden(file, actual);
    assert!(
        actual == golden,
        "output drifted from the golden snapshot tests/golden/{file}.\n\
         If this change is intentional, regenerate with REPLIPRED_BLESS=1 \
         and review the diff.\n--- got ---\n{}\n--- want ---\n{}",
        &actual[..actual.len().min(2000)],
        &golden[..golden.len().min(2000)],
    );
}
