//! The analyzer must run clean on the workspace that ships it — the
//! same invariant CI enforces with `replilint check`. Living in the root
//! package, it runs under a plain `cargo test`, so a D1–D8 finding
//! (a retired name coming back included) fails before a push. A failure
//! here names the offending diagnostics directly in the assert message.

use std::path::Path;

#[test]
fn workspace_has_zero_diagnostics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = replipred_lint::check_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); wrong root?",
        report.files_scanned
    );
    assert!(
        report.clean,
        "replilint found violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
