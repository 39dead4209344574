//! `scenario`: the `Scenario` driver over the registry — what it adds on
//! top of the cells it runs — plus report serialization and the workload
//! registry's name resolution.

use std::hint::black_box;

use replipred::model::Design;
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::scenario::{parse_workload, Scenario};

use super::{put, Ctx, Metrics};
use crate::clock::timed;
use crate::stats::median;
use crate::workloads::Size;

/// Measures the `scenario.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    let sweep = || {
        Scenario::published("tpcw-shopping")
            .expect("published workload")
            .all_designs()
            .replicas(1..=16)
            .run()
            .expect("published profile")
    };
    put(
        m,
        "scenario.predict_sweep_ms",
        1e3 * ctx.secs(|| {
            black_box(sweep().designs.len());
        }),
    );

    // The driver's own cost: `Scenario::run` against the same cells run
    // directly through `design.simulator(..).run()`.
    let windows = match ctx.size {
        Size::Full => SimConfig::quick(0, 0),
        Size::Smoke => SimConfig {
            warmup: 2.0,
            duration: 6.0,
            ..SimConfig::quick(0, 0)
        },
    };
    let designs = [Design::MultiMaster, Design::SingleMaster];
    let replicas = [1usize, 2];
    let scenario = Scenario::published("tpcw-shopping")
        .expect("published workload")
        .designs(designs.to_vec())
        .replicas(replicas)
        .seed(ctx.seed)
        .predict(false)
        .simulate(true)
        .sim_config(windows.clone());
    let spec = parse_workload("tpcw-shopping").expect("published workload");
    let mut report = None;
    // Pairs of neighbours (host speed drifts over seconds): the driver,
    // then the same cells directly; signed, because the driver's cost is
    // below the host's noise and a slightly negative reading is that
    // noise, not a faster driver.
    let overheads: Vec<f64> = (0..ctx.reps())
        .map(|_| {
            let (ran, driven) = timed(|| scenario.run().expect("published workload"));
            report = Some(ran);
            let ((), direct) = timed(|| {
                for design in designs {
                    for n in replicas {
                        let cfg = SimConfig {
                            replicas: n,
                            seed: ctx.seed,
                            ..windows.clone()
                        };
                        black_box(design.simulator(spec.clone(), cfg).run().throughput_tps);
                    }
                }
            });
            (driven - direct) / driven
        })
        .collect();
    put(
        m,
        "scenario.overhead_frac",
        median(&overheads).expect("at least one repetition"),
    );

    let report = report.expect("the scenario ran");
    let serializations = ctx.n(200);
    put(
        m,
        "scenario.report_json_ms",
        ctx.ns_per_op(serializations, || {
            for _ in 0..serializations {
                black_box(
                    serde_json::to_string(&report)
                        .expect("finite numbers")
                        .len(),
                );
            }
        }) / 1e6,
    );
    let parses = ctx.n(20_000);
    put(
        m,
        "scenario.parse_workload_us",
        ctx.ns_per_op(parses, || {
            for _ in 0..parses {
                black_box(parse_workload(black_box("tpcw-shopping")).expect("published"));
            }
        }) / 1e3,
    );
}
