//! The single-master model's published curves, pinned *numerically*.
//!
//! Five published profiles at their published clients-per-replica,
//! n = 1..=16: throughput, response time, abort rate, conflict window and
//! bottleneck utilisation at 12 significant digits plus the bottleneck
//! name, compared against `tests/golden/sm_published_curves.txt` at 1e-6
//! relative — not byte-for-byte, so a solver that reaches the same fixed
//! point by another route (and differs in the 10th digit) passes, and one
//! that lands on a different point fails with the row that moved.
//!
//! ```text
//! REPLIPRED_BLESS=1 cargo test --test sm_published_curves
//! ```
//!
//! regenerates the file after an *intentional* change of the fixed point.

mod common;

use std::fmt::Write as _;

use replipred::model::{Design, SystemConfig};
use replipred::scenario::{published_profile, workload_spec, PUBLISHED_WORKLOADS};

const REL_TOL: f64 = 1e-6;

fn published_curves() -> String {
    let mut text = String::from(
        "# workload clients n throughput_tps response_time abort_rate conflict_window \
         bottleneck_utilization bottleneck\n",
    );
    for name in PUBLISHED_WORKLOADS {
        let profile = published_profile(name).expect("published");
        let clients = workload_spec(name).expect("published").clients_per_replica;
        let predictor = Design::SingleMaster
            .predictor(profile, SystemConfig::lan_cluster(clients))
            .expect("published inputs are valid");
        for n in 1..=16 {
            let p = predictor
                .predict(n)
                .unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
            writeln!(
                text,
                "{name} {clients} {n} {:.11e} {:.11e} {:.11e} {:.11e} {:.11e} {}",
                p.throughput_tps,
                p.response_time,
                p.abort_rate,
                p.conflict_window,
                p.bottleneck_utilization,
                p.bottleneck
            )
            .expect("write to a String");
        }
    }
    text
}

#[test]
fn sm_published_curves_match_the_golden_within_1e_6_relative() {
    let actual = published_curves();
    let golden = common::golden("sm_published_curves.txt", &actual);
    assert_eq!(actual.lines().count(), golden.lines().count(), "row count");
    assert_eq!(actual.lines().count(), 1 + 5 * 16);
    let mut moved = Vec::new();
    for (got, want) in actual.lines().zip(golden.lines()).skip(1) {
        let (g, w): (Vec<_>, Vec<_>) = (
            got.split_whitespace().collect(),
            want.split_whitespace().collect(),
        );
        assert_eq!((g.len(), w.len()), (9, 9), "malformed row: {got} / {want}");
        // Workload, clients, n and the bottleneck name compare as text.
        let same_text = [0, 1, 2, 8].iter().all(|&i| g[i] == w[i]);
        let same_numbers = (3..8).all(|i| {
            let (a, b): (f64, f64) = (g[i].parse().expect("float"), w[i].parse().expect("float"));
            (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
        });
        if !(same_text && same_numbers) {
            moved.push(format!("got  {got}\nwant {want}"));
        }
    }
    assert!(
        moved.is_empty(),
        "{} row(s) moved by more than {REL_TOL:e} relative:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
