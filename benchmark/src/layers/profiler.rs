//! `profiler`: the Section-4 profiling pipeline (capture run, log
//! folding, the replay runs) — about 15 % of a `validate_quick` pass.

use std::hint::black_box;

use replipred::profiler::replay::measure_transaction_demands;
use replipred::profiler::Profiler;
use replipred::repl::standalone::TxnFilter;
use replipred::repl::SimConfig;
use replipred::scenario::parse_workload;

use super::{put, Ctx, Metrics};
use crate::workloads::Size;

/// Measures the `profiler.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    // The pipeline's default windows, as `validate` uses them.
    let (warmup, duration) = match ctx.size {
        Size::Full => (15.0, 60.0),
        Size::Smoke => (2.0, 6.0),
    };
    for (metric, name) in [
        ("profiler.profile_ms.tpcw-shopping", "tpcw-shopping"),
        ("profiler.profile_ms.rubis-bidding", "rubis-bidding"),
        ("profiler.profile_ms.synth-write-heavy", "synth:write-heavy"),
    ] {
        let spec = parse_workload(name).expect("registered workload");
        let secs = ctx.secs_of(1, || {
            let outcome = Profiler::new(spec.clone())
                .seed(ctx.seed)
                .windows(warmup, duration)
                .profile();
            black_box(outcome.profile.l1);
        });
        put(m, metric, secs * 1e3);
    }

    let spec = parse_workload("tpcw-shopping").expect("published workload");
    let cfg = SimConfig {
        warmup,
        duration,
        ..SimConfig::quick(1, ctx.seed)
    };
    let secs = ctx.secs_of(1, || {
        black_box(measure_transaction_demands(&spec, &cfg, TxnFilter::ReadsOnly).cpu);
    });
    put(m, "profiler.replay_ms", secs * 1e3);
}
