//! `mva` and `core`: the solvers and the predictors built on them — the
//! only layers `predict_plan` runs.

use std::hint::black_box;

use replipred::model::planner::{plan, Slo};
use replipred::model::{Design, Schedule, SystemConfig, WorkloadProfile};
use replipred::mva::multiclass::{self, MulticlassNetwork};
use replipred::mva::{approx, exact, CenterKind, ClosedNetwork};

use super::{put, Ctx, Metrics};

/// Median microseconds per call over `calls` calls of `f`.
fn us_per_call(ctx: &Ctx, calls: u64, mut f: impl FnMut()) -> f64 {
    let calls = ctx.n(calls);
    ctx.ns_per_op(calls, || {
        for _ in 0..calls {
            f();
        }
    }) / 1e3
}

/// Measures the `mva.*` and `core.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    // The shopping mix's standalone network at the 16-replica population.
    let net = ClosedNetwork::builder()
        .queueing("cpu", 0.0414)
        .queueing("disk", 0.0151)
        .delay("cert", 0.012)
        .think_time(1.0)
        .build()
        .expect("valid network");
    put(
        m,
        "mva.exact_us_n640",
        us_per_call(ctx, 2_000, || {
            black_box(exact::solve(black_box(&net), 640).expect("solves"));
        }),
    );
    put(
        m,
        "mva.schweitzer_us_n640",
        us_per_call(ctx, 20_000, || {
            black_box(approx::solve_single(black_box(&net), 640).expect("solves"));
        }),
    );
    // The single-master model's two-class master station.
    let master = MulticlassNetwork::new(
        vec![
            ("cpu".into(), CenterKind::Queueing),
            ("disk".into(), CenterKind::Queueing),
        ],
        vec![vec![0.0414, 0.0151], vec![0.0125, 0.0061]],
        vec![1.0, 1.0],
    )
    .expect("valid network");
    put(
        m,
        "mva.multiclass_exact_us",
        us_per_call(ctx, 200, || {
            black_box(multiclass::solve_exact(black_box(&master), &[80, 40]).expect("solves"));
        }),
    );
    put(
        m,
        "mva.multiclass_approx_us",
        us_per_call(ctx, 20_000, || {
            black_box(approx::solve_multiclass(black_box(&master), &[80, 40]).expect("solves"));
        }),
    );

    let profile = WorkloadProfile::tpcw_shopping();
    let config = SystemConfig::lan_cluster(40);
    let predictor = |design: Design| {
        design
            .predictor(profile.clone(), config.clone())
            .expect("published profile")
    };
    let standalone = predictor(Design::Standalone);
    put(
        m,
        "core.standalone_predict_us",
        us_per_call(ctx, 2_000, || {
            black_box(standalone.predict(black_box(16)).expect("solves"));
        }),
    );
    let mm = predictor(Design::MultiMaster);
    put(
        m,
        "core.mm_predict_us_n16",
        us_per_call(ctx, 20_000, || {
            black_box(mm.predict(black_box(16)).expect("solves"));
        }),
    );
    let sm = predictor(Design::SingleMaster);
    for (metric, n) in [("core.sm_predict_us_n8", 8), ("core.sm_predict_us_n16", 16)] {
        put(
            m,
            metric,
            us_per_call(ctx, 10, || {
                black_box(sm.predict(black_box(n)).expect("solves"));
            }),
        );
    }
    put(
        m,
        "core.sm_curve16_ms",
        us_per_call(ctx, 3, || {
            black_box(sm.curve(16).expect("solves"));
        }) / 1e3,
    );

    let ordering = WorkloadProfile::tpcw_ordering();
    let slo = Slo {
        min_throughput_tps: 100.0,
        max_response_time: None,
        max_abort_rate: None,
    };
    put(
        m,
        "core.plan_us",
        us_per_call(ctx, 5, || {
            black_box(plan(&ordering, &SystemConfig::lan_cluster(50), &slo, 16).expect("solves"));
        }),
    );
    put(
        m,
        "core.schedule_parse_us",
        us_per_call(ctx, 50_000, || {
            let text = black_box("crash@100=1,flash-crowd@150=2x60,join@300=1,window=10");
            black_box(Schedule::parse(text).expect("valid schedule"));
        }),
    );
}
