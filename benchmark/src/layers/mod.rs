//! Per-layer micro-drives: each layer's public functions, timed on inputs
//! taken from the workloads. One module per layer; the metric names are
//! the ones registered in [`crate::metrics::PER_LAYER`].
//!
//! Every drive does a fixed amount of work (so counts repeat exactly and
//! time scales predictably) and reports the median of a few repetitions.
//! They depend on no workload, so `run --workload all --trace` runs them
//! once, in the parent process; a single-workload traced run (what the
//! driver starts) runs them after its traced pass, because its summary
//! line has to carry every declared per-layer metric. Per-layer numbers
//! explain the end-to-end ones; they carry no bound.

pub mod cli;
pub mod model;
pub mod profiler;
pub mod repl;
pub mod scenario;
pub mod sidb;
pub mod sim;
pub mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::clock::timed;
use crate::run::panic_message;
use crate::stats::median;
use crate::workloads::Size;

/// Metric name → value; `None` marks a metric that does not apply to
/// this run (e.g. `cli.*` without a built binary).
pub type Metrics = BTreeMap<String, Option<f64>>;

/// What every drive needs to size and seed its inputs.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The run's seed.
    pub seed: u64,
    /// Full or smoke sizes.
    pub size: Size,
}

impl Ctx {
    /// `full` operations, or a tenth in smoke mode.
    pub fn n(&self, full: u64) -> u64 {
        self.size.scaled(full)
    }

    /// Repetitions whose median is reported.
    pub fn reps(&self) -> usize {
        match self.size {
            Size::Full => 3,
            Size::Smoke => 1,
        }
    }

    /// Median seconds of [`Ctx::reps`] calls of `f`.
    pub fn secs(&self, f: impl FnMut()) -> f64 {
        self.secs_of(self.reps(), f)
    }

    /// Median seconds of `reps` calls of `f`.
    pub fn secs_of(&self, reps: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
        median(&samples).expect("at least one repetition")
    }

    /// Median seconds of [`Ctx::reps`] calls of `f`, each on a fresh input
    /// made (untimed) by `prepare`.
    pub fn secs_prepared<T>(&self, mut prepare: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
        let samples: Vec<f64> = (0..self.reps())
            .map(|_| {
                let input = prepare();
                timed(|| f(input)).1
            })
            .collect();
        median(&samples).expect("at least one repetition")
    }

    /// Median nanoseconds per operation of a batch of `ops` operations.
    pub fn ns_per_op(&self, ops: u64, f: impl FnMut()) -> f64 {
        self.secs(f) * 1e9 / ops.max(1) as f64
    }
}

/// Records a measured value.
pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), Some(value));
}

/// One layer's drives.
type Drive = fn(&Ctx, &mut Metrics);

/// The drives, by layer module.
const DRIVES: [(&str, Drive); 8] = [
    ("sim", sim::measure),
    ("sidb", sidb::measure),
    ("workload", workload::measure),
    ("repl", repl::measure),
    ("profiler", profiler::measure),
    ("model", model::measure),
    ("scenario", scenario::measure),
    ("cli", cli::measure),
];

/// What [`measure_all`] measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Drives {
    /// The metrics of every layer whose drives ran to the end.
    pub metrics: Metrics,
    /// Layers driven (each counts as one attempted operation).
    pub attempted: u64,
    /// One line per layer whose drives panicked; its metrics are absent.
    pub failures: Vec<String>,
}

/// Runs every layer's drives. A tripped assertion inside one layer costs
/// that layer's metrics and one failed operation, not the run.
pub fn measure_all(ctx: &Ctx) -> Drives {
    let mut drives = Drives::default();
    for (layer, drive) in DRIVES {
        let mut own = Metrics::new();
        drives.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| drive(ctx, &mut own))) {
            Ok(()) => drives.metrics.extend(own),
            Err(panic) => drives.failures.push(format!(
                "the {layer} drives panicked: {}",
                panic_message(panic.as_ref())
            )),
        }
    }
    drives
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ATTR_METRICS, PER_LAYER};

    #[test]
    fn smoke_drives_emit_every_registered_layer_metric() {
        let ctx = Ctx {
            seed: 7,
            size: Size::Smoke,
        };
        let drives = measure_all(&ctx);
        assert_eq!(drives.failures, Vec::<String>::new());
        assert_eq!(drives.attempted, DRIVES.len() as u64);
        let metrics = drives.metrics;
        for m in &PER_LAYER {
            // attr.*, trace.* and host.* come from the traced pass itself.
            let from_pass = ATTR_METRICS.contains(&m.name)
                || m.name == "trace.overhead_frac"
                || m.name == "host.cpu_s";
            assert_eq!(
                metrics.contains_key(m.name),
                !from_pass,
                "{} (from the traced pass: {from_pass})",
                m.name
            );
        }
        for (name, value) in &metrics {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "unregistered {name}"
            );
            match value {
                Some(v) => {
                    assert!(v.is_finite(), "{name} = {v}");
                    // Differences of two timings (a cell minus its
                    // installs, a driver minus its cells) can dip below
                    // zero at smoke sizes; everything else is a positive
                    // time, count or ratio.
                    let difference = name.starts_with("repl.host_us_per_sim_txn")
                        || name.starts_with("repl.scaling_cost_ratio")
                        || name == "scenario.overhead_frac";
                    assert!(*v > 0.0 || difference, "{name} = {v}");
                }
                None => assert!(name.starts_with("cli."), "{name} is absent"),
            }
        }
    }
}
