//! `benchmark diff A.json B.json`: per workload × end-to-end metric, old
//! against new, judged by the bound the benchmark fixed.
//!
//! - A timing metric is `worse` when the new median is worse than the old
//!   by more than its `BENCHMARK.json` bound. Where either side's own
//!   pass-to-pass spread (IQR ÷ median) is wider than the bound, the
//!   metric is `unresolved` instead — not "unchanged" — unless every new
//!   sample reads better than every old one.
//! - `setup_s` has a floor beside its share: a rise of at most 0.05 s is
//!   `ok` whatever the ratio, because four workloads' set-up is
//!   microseconds of spec parsing that two processes of one commit do not
//!   repeat to within any share.
//! - `fail_frac` may not rise at all; the `model_*` errors may rise by
//!   their absolute bounds (percentage points).
//! - Between two runs of one commit and seed, everything that repeats
//!   exactly (`fail_frac`, `model_*`, the counts, `report_digest`) must be
//!   equal.

use crate::metrics::{Better, Bound, Contract, EndToEnd, END_TO_END, WORKLOADS};
use crate::report::{ResultFile, WorkloadResult};
use crate::stats::Summary;

/// The judgement on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// The spread is wider than the bound, or a side is missing.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (or `report_digest` / `counts`).
    pub metric: String,
    /// Old value (`None`: n/a).
    pub old: Option<f64>,
    /// New value.
    pub new: Option<f64>,
    /// `new / old`; the base of the ratio is always the old value.
    pub ratio: Option<f64>,
    /// The bound applied, rendered.
    pub bound: String,
    /// The judgement.
    pub verdict: Verdict,
    /// Why, when not obvious from the numbers.
    pub why: String,
}

/// Compares every workload both files measured untraced.
pub fn diff(old: &ResultFile, new: &ResultFile, contract: &Contract) -> Vec<Row> {
    let same_tree = old.header.commit == new.header.commit && old.header.commit != "unknown";
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        match (old.untraced(workload), new.untraced(workload)) {
            (Some(a), Some(b)) => {
                let repeats = same_tree && a.seed == b.seed && a.smoke == b.smoke;
                for metric in &END_TO_END {
                    rows.push(compare(a, b, metric, contract, repeats));
                }
                if repeats {
                    rows.push(must_match(
                        workload,
                        "report_digest",
                        a.report_digest == b.report_digest,
                    ));
                    rows.push(must_match(workload, "counts", a.counts == b.counts));
                }
            }
            (None, None) => {}
            (a, _) => rows.push(Row {
                workload: workload.to_string(),
                metric: "*".to_string(),
                old: None,
                new: None,
                ratio: None,
                bound: "-".to_string(),
                verdict: Verdict::Unresolved,
                why: format!(
                    "missing from the {} file",
                    if a.is_none() { "old" } else { "new" }
                ),
            }),
        }
    }
    rows
}

/// Whether any row is `worse` (the command's exit status).
pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

fn must_match(workload: &str, what: &str, equal: bool) -> Row {
    Row {
        workload: workload.to_string(),
        metric: what.to_string(),
        old: None,
        new: None,
        ratio: None,
        bound: "equal".to_string(),
        verdict: if equal { Verdict::Ok } else { Verdict::Worse },
        why: if equal {
            String::new()
        } else {
            "must repeat exactly for one commit and seed".to_string()
        },
    }
}

/// The samples behind a metric, when the run kept them.
fn samples_of<'a>(result: &'a WorkloadResult, metric: &str) -> Option<&'a Summary> {
    match metric {
        "wall_s" | "ops_per_s" => Some(&result.wall),
        "setup_s" => Some(&result.setup),
        _ => None,
    }
}

fn compare(
    a: &WorkloadResult,
    b: &WorkloadResult,
    metric: &EndToEnd,
    contract: &Contract,
    repeats: bool,
) -> Row {
    let old = a.end_to_end.get(metric.name).copied().flatten();
    let new = b.end_to_end.get(metric.name).copied().flatten();
    let mut row = Row {
        workload: a.workload.clone(),
        metric: metric.name.to_string(),
        old,
        new,
        ratio: None,
        bound: String::new(),
        verdict: Verdict::Ok,
        why: String::new(),
    };
    let (old, new) = match (old, new) {
        (Some(o), Some(n)) => (o, n),
        (None, None) => {
            row.bound = "n/a".to_string();
            return row;
        }
        _ => {
            row.verdict = Verdict::Unresolved;
            row.why = "measured on one side only".to_string();
            return row;
        }
    };
    if old != 0.0 {
        row.ratio = Some(new / old);
    }
    // Signed change in the bad direction.
    let rise = match metric.better {
        Better::Lower => new - old,
        Better::Higher => old - new,
    };
    match metric.bound {
        Bound::Absolute(points) => {
            row.bound = format!("+{points} {}", metric.unit);
            if rise > points {
                row.verdict = Verdict::Worse;
            } else if repeats && metric.exact && new != old {
                row.verdict = Verdict::Worse;
                row.why = "must repeat exactly for one commit and seed".to_string();
            }
        }
        Bound::Contract { floor } => {
            let bound = contract.bound(metric.name).unwrap_or(0.0);
            row.bound = format!("{:.0}%", bound * 100.0);
            if floor > 0.0 {
                row.bound += &format!(" | +{floor} {}", metric.unit);
                if rise <= floor {
                    return row;
                }
            }
            let worse_by = if old == 0.0 { 0.0 } else { rise / old.abs() };
            let samples = (samples_of(a, metric.name), samples_of(b, metric.name));
            let spread = match samples {
                (Some(sa), Some(sb)) => sa.spread().max(sb.spread()),
                _ => 0.0,
            };
            if spread > bound {
                // wall_s samples order the same way for ops_per_s: a
                // shorter pass is more work per second.
                let separated = matches!(samples, (Some(sa), Some(sb)) if sb.max < sa.min);
                if !separated {
                    row.verdict = Verdict::Unresolved;
                    row.why = format!("spread {:.1}% exceeds the bound", spread * 100.0);
                }
            } else if worse_by > bound {
                row.verdict = Verdict::Worse;
            }
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Header;
    use std::collections::BTreeMap;

    fn result(wall: &[f64], ops: u64) -> WorkloadResult {
        with_setup(wall, ops, 0.010)
    }

    fn with_setup(wall: &[f64], ops: u64, setup_s: f64) -> WorkloadResult {
        let wall = Summary::of(wall).unwrap();
        let setup = Summary::of(&[setup_s; 3]).unwrap();
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert("setup_s".to_string(), Some(setup.median));
        end_to_end.insert("wall_s".to_string(), Some(wall.median));
        end_to_end.insert("ops_per_s".to_string(), Some(ops as f64 / wall.median));
        end_to_end.insert("peak_rss_mb".to_string(), Some(100.0));
        end_to_end.insert("fail_frac".to_string(), Some(0.0));
        end_to_end.insert("model_tput_err_pct".to_string(), Some(2.0));
        end_to_end.insert("model_resp_err_pct".to_string(), Some(3.0));
        end_to_end.insert("model_abort_err_pct".to_string(), Some(40.0));
        WorkloadResult {
            workload: "sweep_long".to_string(),
            seed: 2009,
            traced: false,
            smoke: false,
            passes: wall.n,
            wall,
            wall_samples: Vec::new(),
            setup,
            ops_per_pass: ops,
            end_to_end,
            attempted: 5,
            failed: 0,
            correct: true,
            report_digest: "00".to_string(),
            counts: BTreeMap::new(),
            notes: Vec::new(),
            per_layer: BTreeMap::new(),
            layer_table: Vec::new(),
        }
    }

    fn file(commit: &str, r: WorkloadResult) -> ResultFile {
        ResultFile {
            header: Header {
                nproc: 2,
                cpu_model: "test".to_string(),
                rustc: "rustc".to_string(),
                commit: commit.to_string(),
                run_seconds: 8.0,
            },
            results: vec![r],
            layers: BTreeMap::new(),
            layer_notes: Vec::new(),
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect(metric)
            .verdict
    }

    fn contract() -> Contract {
        Contract::load().unwrap()
    }

    #[test]
    fn timing_verdicts_at_and_just_past_the_bound() {
        let c = contract();
        let bound = c.bound("wall_s").unwrap();
        let old = file("a", result(&[1.0, 1.0, 1.0], 1000));
        // Exactly at the bound: ok. Just past it: worse.
        let at = file("b", result(&[1.0 + bound; 3], 1000));
        let rows = diff(&old, &at, &c);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Ok);
        let past = file("b", result(&[1.0 + bound + 0.01; 3], 1000));
        let rows = diff(&old, &past, &c);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Worse);
        assert_eq!(
            verdict(&rows, "ops_per_s"),
            Verdict::Ok,
            "a pass longer by bound + 0.01 is a smaller share fewer per second"
        );
        assert!(any_worse(&rows));
        let slower = file("b", result(&[1.0 / (1.0 - bound - 0.01); 3], 1000));
        assert_eq!(
            verdict(&diff(&old, &slower, &c), "ops_per_s"),
            Verdict::Worse
        );
        // Faster is never worse.
        let faster = file("b", result(&[0.5; 3], 1000));
        let rows = diff(&old, &faster, &c);
        assert!(!any_worse(&rows));
        assert_eq!(rows[1].ratio, Some(0.5));
    }

    #[test]
    fn setup_verdicts_at_and_just_past_the_floor_and_the_share() {
        let c = contract();
        let share = c.bound("setup_s").unwrap();
        let judge = |old_s: f64, new_s: f64| {
            let old = file("a", with_setup(&[1.0; 3], 1000, old_s));
            let new = file("b", with_setup(&[1.0; 3], 1000, new_s));
            verdict(&diff(&old, &new, &c), "setup_s")
        };
        // Microseconds of spec parsing: +62 % is noise, not a regression.
        assert_eq!(judge(9.2e-6, 14.9e-6), Verdict::Ok);
        // At the floor: ok, whatever the ratio. Just past it: worse.
        assert_eq!(judge(0.05, 0.1), Verdict::Ok);
        assert_eq!(judge(0.05, 0.1001), Verdict::Worse);
        // Where the share is the larger of the two, the share rules.
        assert_eq!(judge(1.0, 1.0 + share), Verdict::Ok);
        assert_eq!(judge(1.0, 1.0 + share + 0.01), Verdict::Worse);
        // The floor is setup_s's alone.
        let old = file("a", result(&[0.01; 3], 1000));
        let new = file("b", result(&[0.05; 3], 1000));
        assert_eq!(verdict(&diff(&old, &new, &c), "wall_s"), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let c = contract();
        let old = file("a", result(&[1.0, 1.0, 1.0], 1000));
        let noisy = file("b", result(&[0.8, 1.0, 1.4], 1000));
        let rows = diff(&old, &noisy, &c);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unresolved);
        assert!(!any_worse(&rows));
        // Every new pass beats every old pass: resolved, ok.
        let old = file("a", result(&[2.0, 2.5, 3.2], 1000));
        let better = file("b", result(&[1.0, 1.2, 1.5], 1000));
        assert_eq!(verdict(&diff(&old, &better, &c), "wall_s"), Verdict::Ok);
    }

    #[test]
    fn absolute_bounds_and_exact_repeats() {
        let c = contract();
        let old = file("a", result(&[1.0; 3], 1000));
        let mut r = result(&[1.0; 3], 1000);
        r.end_to_end
            .insert("model_abort_err_pct".to_string(), Some(43.0));
        r.end_to_end
            .insert("model_tput_err_pct".to_string(), Some(3.01));
        r.failed = 1;
        r.end_to_end.insert("fail_frac".to_string(), Some(0.2));
        let rows = diff(&old, &file("b", r.clone()), &c);
        assert_eq!(
            verdict(&rows, "model_abort_err_pct"),
            Verdict::Ok,
            "+3.0 is the bound"
        );
        assert_eq!(
            verdict(&rows, "model_tput_err_pct"),
            Verdict::Worse,
            "+1.01 > +1.0"
        );
        assert_eq!(
            verdict(&rows, "fail_frac"),
            Verdict::Worse,
            "any rise fails"
        );
        // Same commit and seed: anything exact must be equal.
        let mut r = result(&[1.0; 3], 1000);
        r.end_to_end
            .insert("model_abort_err_pct".to_string(), Some(40.5));
        r.report_digest = "01".to_string();
        let rows = diff(&old, &file("a", r), &c);
        assert_eq!(verdict(&rows, "model_abort_err_pct"), Verdict::Worse);
        assert_eq!(verdict(&rows, "report_digest"), Verdict::Worse);
        assert_eq!(verdict(&rows, "counts"), Verdict::Ok);
    }

    #[test]
    fn missing_sides_are_unresolved_and_na_is_ok() {
        let c = contract();
        let old = file("a", result(&[1.0; 3], 1000));
        let mut r = result(&[1.0; 3], 1000);
        r.end_to_end.insert("model_tput_err_pct".to_string(), None);
        let rows = diff(&old, &file("b", r), &c);
        assert_eq!(verdict(&rows, "model_tput_err_pct"), Verdict::Unresolved);
        let mut none = file("b", result(&[1.0; 3], 1000));
        none.results.clear();
        let rows = diff(&old, &none, &c);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert!(rows[0].why.contains("new"));
    }

    #[test]
    fn result_files_round_trip_through_json() {
        let f = file("a", result(&[1.0, 1.1, 1.2], 1000));
        let text = serde_json::to_string_pretty(&f).unwrap();
        assert_eq!(ResultFile::parse(&text).unwrap(), f);
    }
}
