//! `cli`: process-level cost of the `replipred` binary, the only numbers
//! here with a process spawn and (for `recover`) real file I/O.
//!
//! The harness depends on the library, not the binary, so the binary
//! exists only if someone ran `cargo build --release` at the repo root.
//! When it does not, both metrics are reported as absent, not failed.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use super::{Ctx, Metrics};

/// Where a root build leaves the CLI: `$CARGO_TARGET_DIR` if set, else
/// the root `target/`.
fn binary() -> Option<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let path = target.join("release").join("replipred");
    path.is_file().then_some(path)
}

/// Runs the binary to completion; `None` if it could not run or failed.
fn spawn_ms(ctx: &Ctx, binary: &Path, args: &[&str]) -> Option<f64> {
    let mut ok = true;
    let secs = ctx.secs(|| {
        let status = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        ok &= status.is_ok_and(|s| s.success());
    });
    ok.then_some(secs * 1e3)
}

/// Measures the `cli.*` metrics (absent without a built binary).
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    let binary = binary();
    let mut run = |metric: &str, args: &[&str]| {
        let value = binary.as_deref().and_then(|b| spawn_ms(ctx, b, args));
        m.insert(metric.to_string(), value);
    };
    run(
        "cli.predict_spawn_ms",
        &[
            "predict",
            "--workload",
            "tpcw-shopping",
            "--design",
            "mm",
            "--replicas",
            "4",
            "--json",
        ],
    );
    // Writes its checkpoint + WAL inside the benchmark's own out/ directory.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("cli-recover");
    let dir = dir.to_string_lossy();
    run(
        "cli.recover_spawn_ms",
        &["recover", "--commits", "20000", "--json", "--dir", &dir],
    );
}
