//! The run protocol: one OS process per workload, single-threaded load,
//! closed loop by construction (a pass starts when the previous one
//! returns).
//!
//! A run is set-up + timed passes. Every pass of a run does identical
//! work on a freshly set-up input (the same seed), so `wall_s` is the
//! **median** pass and `setup_s` the median set-up; a run measures for
//! at least `--seconds` and at least three passes. The traced run
//! (`--trace`) measures a few untraced passes for reference, repeats one
//! pass with spans recorded, replays the simulated cells through the
//! lower layers (see [`crate::shadow`]), and — unless the caller runs them
//! once for a whole set of workloads — the per-layer drives (see
//! [`crate::layers`]).

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::clock::{peak_rss_mb, process_cpu_s, timed, Stopwatch};
use crate::layers::{self, Ctx};
use crate::metrics::WORKLOADS;
use crate::report::WorkloadResult;
use crate::shadow;
use crate::stats::Summary;
use crate::trace::{layer_table, pass_times, Span, Tracer};
use crate::workloads::{predict, recover, sim, store, Checks, PassOutput, Size};

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the workload's inputs (default 2009).
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report the workload's own `attr.*`, `trace.*`
    /// and `host.*` metrics.
    pub traced: bool,
    /// In a traced run, also run the workload-independent per-layer
    /// drives in this process (`run --workload all` runs them once for
    /// all seven workloads instead).
    pub layers: bool,
    /// Full sizes, or the one-pass smoke variant.
    pub size: Size,
}

/// Fewest timed passes of a full untraced run.
const MIN_PASSES: usize = 3;
/// Every pass is set up afresh, which gives one `setup_s` sample a pass.
/// Once the passes are done and peak memory is read, set-up is repeated
/// until there are [`MIN_SETUPS`] samples and the repeats have taken
/// [`SETUP_BUDGET_S`] (or there are [`MAX_SETUPS`]), so microsecond
/// set-ups get a steady median without disturbing what the passes see.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 201;
const SETUP_BUDGET_S: f64 = 0.2;

/// Runs `plan`, returning its result and (traced runs) the spans.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(plan: &Plan) -> Result<(WorkloadResult, Vec<Span>), String> {
    let (seed, size) = (plan.seed, plan.size);
    let driven = match plan.workload.as_str() {
        "validate_quick" => drive(
            plan,
            || sim::setup_validate_quick(seed, size),
            sim::pass,
            sim::check,
            |state: &sim::SimState, out: &PassOutput| sim::check_jobs_identity(state, out.digest),
        ),
        "sweep_long" => drive(
            plan,
            || sim::setup_sweep_long(seed, size),
            sim::pass,
            sim::check,
            nothing_more,
        ),
        "phases_faults" => drive(
            plan,
            || sim::setup_phases_faults(seed, size),
            sim::pass,
            sim::check,
            nothing_more,
        ),
        "predict_plan" => drive(
            plan,
            || predict::setup(seed, size),
            predict::pass,
            predict::check,
            nothing_more,
        ),
        "store_read" => drive(
            plan,
            || store::setup_read(seed, size),
            store::pass_read,
            store::check_read,
            nothing_more,
        ),
        "store_write" => drive(
            plan,
            || store::setup_write(seed, size),
            store::pass_write,
            store::check_write,
            nothing_more,
        ),
        "recover_roundtrip" => drive(
            plan,
            || recover::setup(seed, size),
            recover::pass,
            recover::check,
            nothing_more,
        ),
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(finish(plan, driven))
}

/// Most workloads have no once-per-traced-run check.
fn nothing_more<S>(_: &S, _: &PassOutput) -> Checks {
    Checks::default()
}

/// Raw measurements of one process.
struct Driven {
    /// `VmHWM` once the passes are done (before the repeated set-ups and
    /// the per-layer drives, which are not the workload).
    peak_rss_mb: Option<f64>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    outputs: Vec<PassOutput>,
    traced: Option<TracedPass>,
}

struct TracedPass {
    wall_s: f64,
    spans: Vec<Span>,
}

/// What a caught panic said.
pub(crate) fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// One pass on `state`; a panic is caught and counted as a failed pass.
fn guarded_pass<S, R>(
    state: &mut S,
    tracer: &mut Tracer,
    pass: &impl Fn(&mut S, &mut Tracer) -> R,
    check: &impl Fn(&S, &mut R) -> PassOutput,
) -> (PassOutput, Option<R>, f64) {
    let watch = Stopwatch::start();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let root = tracer.enter("harness.pass");
        let raw = pass(state, tracer);
        tracer.exit(root);
        raw
    }));
    let wall_s = watch.secs();
    match outcome.and_then(|mut raw| {
        catch_unwind(AssertUnwindSafe(|| check(state, &mut raw))).map(|out| (out, raw))
    }) {
        Ok((out, raw)) => (out, Some(raw), wall_s),
        Err(panic) => {
            let mut out = PassOutput::default();
            out.checks.op(false, || {
                format!("pass panicked: {}", panic_message(panic.as_ref()))
            });
            (out, None, wall_s)
        }
    }
}

fn drive<S, R>(
    plan: &Plan,
    setup: impl Fn() -> S,
    pass: impl Fn(&mut S, &mut Tracer) -> R,
    check: impl Fn(&S, &mut R) -> PassOutput,
    once_traced: impl Fn(&S, &PassOutput) -> Checks,
) -> Driven {
    let smoke = plan.size == Size::Smoke;
    let mut setup_s = Vec::new();
    let fresh = |setup_s: &mut Vec<f64>| {
        let (state, secs) = timed(&setup);
        setup_s.push(secs);
        state
    };

    // A traced run needs the untraced passes only as the reference for
    // the tracing overhead: a quarter of the time, one pass at least.
    let (min_passes, budget_s) = match (smoke, plan.traced) {
        (true, _) => (1, 0.0),
        (false, true) => (1, plan.seconds / 4.0),
        (false, false) => (MIN_PASSES, plan.seconds),
    };
    let mut wall_s = Vec::new();
    let mut outputs = Vec::new();
    loop {
        // The previous pass's state is dropped by now: one input is alive
        // at a time, so peak memory is the pass's and not the harness's.
        let mut state = fresh(&mut setup_s);
        let (out, raw, secs) = guarded_pass(&mut state, &mut Tracer::disabled(), &pass, &check);
        wall_s.push(secs);
        outputs.push(out);
        let done = wall_s.len() >= min_passes && wall_s.iter().sum::<f64>() >= budget_s;
        if done || raw.is_none() {
            break;
        }
    }

    let traced = plan.traced.then(|| {
        let mut state = fresh(&mut setup_s);
        let mut tracer = Tracer::enabled();
        let (mut out, raw, secs) = guarded_pass(&mut state, &mut tracer, &pass, &check);
        if raw.is_some() {
            let extra = once_traced(&state, &out);
            out.checks.attempted += extra.attempted;
            out.checks.failed += extra.failed;
            out.checks.notes.extend(extra.notes);
        }
        outputs.push(out);
        let spans = tracer.into_spans();
        // The shadow replays ran inside the pass; they are not part of it.
        let shadow_s: f64 = spans
            .iter()
            .filter(|s| s.shadow)
            .map(|s| s.duration() as f64 / 1e9)
            .sum();
        TracedPass {
            wall_s: secs - shadow_s,
            spans,
        }
    });
    let peak_rss_mb = peak_rss_mb();
    let repeats = Stopwatch::start();
    while !smoke
        && setup_s.len() < MAX_SETUPS
        && (setup_s.len() < MIN_SETUPS || repeats.secs() < SETUP_BUDGET_S)
    {
        drop(fresh(&mut setup_s));
    }
    Driven {
        peak_rss_mb,
        setup_s,
        wall_s,
        outputs,
        traced,
    }
}

fn finish(plan: &Plan, driven: Driven) -> (WorkloadResult, Vec<Span>) {
    let Driven {
        peak_rss_mb,
        setup_s,
        wall_s,
        outputs,
        traced,
    } = driven;
    let wall = Summary::of(&wall_s).expect("at least one pass ran");
    let setup = Summary::of(&setup_s).expect("at least one set-up ran");
    let first = &outputs[0];

    let mut attempted: u64 = outputs.iter().map(|o| o.checks.attempted).sum();
    let mut failed: u64 = outputs.iter().map(|o| o.checks.failed).sum();
    let mut notes: Vec<String> = outputs
        .iter()
        .flat_map(|o| o.checks.notes.iter().cloned())
        .collect();
    notes.dedup();
    // Identical work pass to pass — traced pass included, which is what
    // shows the registry route reproduces the user-facing drivers.
    attempted += 1;
    if outputs.iter().any(|o| o.digest != first.digest) {
        failed += 1;
        notes.push("report_digest differs between passes of one run".to_string());
    }

    let mut per_layer = BTreeMap::new();
    let mut table = Vec::new();
    let mut spans = Vec::new();
    if let Some(traced) = traced {
        if plan.layers {
            let ctx = Ctx {
                seed: plan.seed,
                size: plan.size,
            };
            let drives = layers::measure_all(&ctx);
            per_layer = drives.metrics;
            attempted += drives.attempted;
            failed += drives.failures.len() as u64;
            notes.extend(drives.failures);
        }
        let pass_ns = pass_times(&traced.spans).first().copied().unwrap_or(0);
        for (name, share) in shadow::attribution(&traced.spans, pass_ns) {
            per_layer.insert(name.to_string(), Some(share));
        }
        // Against the untraced pass nearest in time: host speed drifts
        // over seconds, so neighbours compare best.
        let reference = wall_s.last().copied().unwrap_or(wall.median);
        per_layer.insert(
            "trace.overhead_frac".to_string(),
            Some(traced.wall_s / reference - 1.0),
        );
        per_layer.insert("host.cpu_s".to_string(), process_cpu_s());
        table = layer_table(&traced.spans, pass_ns);
        spans = traced.spans;
    }

    let mut end_to_end: BTreeMap<String, Option<f64>> = BTreeMap::new();
    let mut put = |name: &str, value: Option<f64>| {
        end_to_end.insert(name.to_string(), value);
    };
    put("setup_s", Some(setup.median));
    put("wall_s", Some(wall.median));
    put("ops_per_s", Some(first.ops as f64 / wall.median));
    put("peak_rss_mb", peak_rss_mb);
    put("fail_frac", Some(failed as f64 / attempted as f64));
    put("model_tput_err_pct", first.model.map(|m| m.tput_pct));
    put("model_resp_err_pct", first.model.map(|m| m.resp_pct));
    put("model_abort_err_pct", first.model.map(|m| m.abort_pct));

    let result = WorkloadResult {
        workload: plan.workload.clone(),
        seed: plan.seed,
        traced: plan.traced,
        smoke: plan.size == Size::Smoke,
        passes: wall_s.len(),
        wall,
        wall_samples: wall_s,
        setup,
        ops_per_pass: first.ops,
        end_to_end,
        attempted,
        failed,
        correct: failed == 0,
        report_digest: format!("{:016x}", first.digest),
        counts: first.counts.clone(),
        notes,
        per_layer,
        layer_table: table,
    };
    (result, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Contract, ATTR_METRICS, END_TO_END, PER_LAYER};
    use crate::report::ContractLine;

    fn smoke_plan(workload: &str, traced: bool) -> Plan {
        Plan {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            traced,
            layers: true,
            size: Size::Smoke,
        }
    }

    fn smoke(workload: &str, traced: bool) -> (WorkloadResult, Vec<Span>) {
        run(&smoke_plan(workload, traced)).expect("known workload")
    }

    #[test]
    fn every_workload_smokes_clean_and_reports_all_eight_metrics() {
        for workload in WORKLOADS {
            let (r, spans) = smoke(workload, false);
            assert!(r.correct, "{workload}: {:?}", r.notes);
            assert_eq!((r.passes, r.failed), (1, 0));
            assert!(spans.is_empty() && r.per_layer.is_empty());
            for m in &END_TO_END {
                assert!(
                    r.end_to_end.contains_key(m.name),
                    "{workload}: no {}",
                    m.name
                );
            }
            let simulates = ["validate_quick", "sweep_long"].contains(&workload);
            assert_eq!(r.end_to_end["model_tput_err_pct"].is_some(), simulates);
            for name in ["setup_s", "wall_s", "ops_per_s"] {
                assert!(r.end_to_end[name].expect(name) > 0.0, "{workload}: {name}");
            }
            let line = ContractLine::of(&r, &Contract::load().unwrap());
            assert_eq!(line.metrics.len(), 4);
            assert!(line.correct && line.attempted >= 1 && line.failed == 0);
        }
    }

    #[test]
    fn a_traced_smoke_run_reports_every_layer_metric_and_shares_that_sum_to_one() {
        for workload in ["sweep_long", "store_write"] {
            let (r, spans) = smoke(workload, true);
            assert!(r.correct, "{workload}: {:?}", r.notes);
            for m in &PER_LAYER {
                assert!(
                    r.per_layer.contains_key(m.name),
                    "{workload}: no {}",
                    m.name
                );
            }
            let total: f64 = ATTR_METRICS
                .iter()
                .map(|a| r.per_layer[*a].expect("attribution is always measured"))
                .sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{workload}: shares sum to {total}"
            );
            assert_eq!(spans[0].name, "harness.pass");
            assert!(!r.layer_table.is_empty());
            // The driver's line: every metric BENCHMARK.json declares.
            let contract = Contract::load().unwrap();
            let line = ContractLine::of(&r, &contract);
            assert_eq!(line.metrics.len(), contract.per_layer.len());
            assert!(line.metrics.values().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn without_the_drives_a_traced_run_reports_only_its_own_metrics() {
        let plan = Plan {
            layers: false,
            ..smoke_plan("predict_plan", true)
        };
        let (r, _) = run(&plan).expect("known workload");
        assert!(r.correct, "{:?}", r.notes);
        let own = ATTR_METRICS.len() + 2;
        assert_eq!(r.per_layer.len(), own, "{:?}", r.per_layer.keys());
        assert!(r.per_layer.contains_key("trace.overhead_frac"));
        assert!(r.per_layer.contains_key("host.cpu_s"));
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        let err = run(&smoke_plan("nope", false)).unwrap_err();
        assert!(err.contains("validate_quick"));
    }
}
