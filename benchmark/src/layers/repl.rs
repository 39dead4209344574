//! `repl`: whole simulated cells by design (quick and long windows, with
//! and without durability), and the pieces the cluster simulators are
//! built from — certifier, relay log, per-node durability.

use std::hint::black_box;

use replipred::model::Design;
use replipred::repl::{
    Certifier, DurabilityConfig, NodeDurability, RunReport, SimConfig, SimulatorRegistry, WsLog,
};
use replipred::scenario::parse_workload;
use replipred::sidb::{Database, WriteSet};
use replipred::sim::Rng;
use replipred::workload::WorkloadSpec;

use super::{put, Ctx, Metrics};
use crate::clock::timed;
use crate::stats::median;
use crate::workloads::Size;

/// Replicas of the replicated cells (the standalone cell is one node).
const REPLICAS: usize = 4;

fn simulate(design: Design, spec: &WorkloadSpec, cfg: SimConfig) -> (RunReport, f64) {
    timed(|| design.simulator(spec.clone(), cfg).run())
}

fn replicas_of(design: Design, replicated: usize) -> usize {
    match design {
        Design::Standalone => 1,
        _ => replicated,
    }
}

/// Transactions a run executed over warm-up + window, scaled from the
/// window's counts.
fn simulated_txns(report: &RunReport, cfg: &SimConfig) -> f64 {
    let window = report.read_commits + report.update_commits + report.conflict_aborts;
    window as f64 * cfg.end_time() / cfg.duration
}

/// Seconds `replicas` replica seedings of `spec` take right now.
fn install_secs(spec: &WorkloadSpec, replicas: usize, seed_scale: f64) -> f64 {
    timed(|| {
        for _ in 0..replicas {
            let mut db = Database::new();
            spec.install(&mut db, seed_scale)
                .expect("a fresh database accepts the workload's schema");
            black_box(db.version());
        }
    })
    .1
}

/// Measures the `repl.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    let spec = parse_workload("tpcw-shopping").expect("published workload");
    let (quick, long) = match ctx.size {
        Size::Full => (SimConfig::quick(0, ctx.seed), (100.0, 300.0)),
        Size::Smoke => (
            SimConfig {
                warmup: 2.0,
                duration: 6.0,
                ..SimConfig::quick(0, ctx.seed)
            },
            (10.0, 30.0),
        ),
    };

    for design in Design::ALL {
        let key = design.key();
        let n = replicas_of(design, REPLICAS);
        let cfg = SimConfig {
            replicas: n,
            ..quick.clone()
        };
        let cell_s = ctx.secs(|| {
            black_box(simulate(design, &spec, cfg.clone()).0.throughput_tps);
        });
        put(m, &format!("repl.cell_ms.{key}"), cell_s * 1e3);

        // Host time per simulated transaction at long windows, with the
        // replica seeding — timed right before the cell, while the host
        // runs at the same speed — subtracted; at twice the replicas for
        // the scaling cost.
        let per_txn_us = |replicas: usize| {
            let cfg = SimConfig {
                replicas,
                warmup: long.0,
                duration: long.1,
                ..quick.clone()
            };
            let install_s = install_secs(&spec, replicas, cfg.seed_scale);
            let (report, secs) = simulate(design, &spec, cfg.clone());
            let steady = secs - install_s;
            steady * 1e6 / simulated_txns(&report, &cfg)
        };
        let at_n = per_txn_us(n);
        put(m, &format!("repl.host_us_per_sim_txn.{key}"), at_n);

        if design != Design::Standalone {
            put(
                m,
                &format!("repl.scaling_cost_ratio.{key}"),
                per_txn_us(2 * n) / at_n,
            );
            let durable = SimConfig {
                durability: DurabilityConfig {
                    enabled: true,
                    ..DurabilityConfig::default()
                },
                ..cfg.clone()
            };
            // Pairs of neighbours: host speed drifts over seconds, so each
            // durable cell is compared with a plain one run right before it.
            let ratios: Vec<f64> = (0..ctx.reps())
                .map(|_| {
                    let plain_s = simulate(design, &spec, cfg.clone()).1;
                    simulate(design, &spec, durable.clone()).1 / plain_s
                })
                .collect();
            put(
                m,
                &format!("repl.durable_cost_ratio.{key}"),
                median(&ratios).expect("at least one repetition"),
            );
        }
    }

    components(ctx, &spec, m);
}

/// A freshly seeded engine's durable image, then `count` committed
/// update writesets of `spec` with the local version each produced, and
/// the engine after them.
fn committed_updates(
    spec: &WorkloadSpec,
    seed: u64,
    count: usize,
) -> (NodeDurability, Vec<(u64, WriteSet)>, Database) {
    let mut db = Database::new();
    let plan = spec
        .install(&mut db, 0.01)
        .expect("a fresh database accepts the workload's schema");
    let seeded = NodeDurability::new(&db, 0, 8);
    let mut rng = Rng::seed_from_u64(seed);
    let mut updates = Vec::with_capacity(count);
    while updates.len() < count {
        let template = plan.sample(&mut rng);
        if !template.is_update {
            continue;
        }
        let txn = db.begin();
        plan.execute(&mut db, txn, &template)
            .expect("seeded tables");
        let info = db.commit(txn).expect("a lone writer never conflicts");
        updates.push((info.commit_seq, info.writeset));
    }
    (seeded, updates, db)
}

fn components(ctx: &Ctx, spec: &WorkloadSpec, m: &mut Metrics) {
    let (seeded, updates, db) = committed_updates(spec, ctx.seed, 4_096);
    let mut writesets: Vec<WriteSet> = updates.iter().map(|(_, ws)| ws.clone()).collect();

    // Certification that commits: every request read the latest version.
    let requests = ctx.n(400_000);
    put(
        m,
        "repl.certify_ns",
        ctx.ns_per_op(requests, || {
            let mut certifier = Certifier::new();
            for k in 0..requests as usize {
                let ws = &mut writesets[k % 4_096];
                ws.base_version = certifier.version();
                black_box(certifier.certify(ws));
                if k % 4_096 == 4_095 {
                    certifier.truncate_applied(certifier.version());
                }
            }
            assert_eq!(certifier.conflicts, 0);
        }),
    );
    // Certification that aborts: a stale snapshot meets a newer writer.
    let mut certifier = Certifier::new();
    for ws in &mut writesets {
        ws.base_version = certifier.version();
        certifier.certify(ws);
    }
    for ws in &mut writesets {
        ws.base_version = 0;
    }
    put(
        m,
        "repl.certify_conflict_ns",
        ctx.ns_per_op(requests, || {
            for k in 0..requests as usize {
                black_box(certifier.certify(&writesets[k % 4_096]));
            }
        }),
    );
    assert!(certifier.conflicts >= requests - 4_096);

    let pushes = ctx.n(400_000);
    put(
        m,
        "repl.wslog_push_ns",
        ctx.ns_per_op(pushes, || {
            let mut log = WsLog::new();
            for k in 0..pushes as usize {
                let seq = log.push(writesets[k % 4_096].clone());
                if k % 1_024 == 1_023 {
                    log.truncate_below(seq.saturating_sub(64));
                }
            }
            black_box(log.peak_len());
        }),
    );
    let mut log = WsLog::new();
    for ws in &writesets {
        log.push(ws.clone());
    }
    let ranges = ctx.n(5_000);
    put(
        m,
        "repl.wslog_range_ns",
        ctx.ns_per_op(ranges, || {
            for k in 0..ranges {
                let from = 1 + k % 4_000;
                black_box(log.range_from(from, from + 63).expect("retained"));
            }
        }),
    );

    // Per-node durability: log every applied commit, re-checkpoint at
    // vacuum cadence, rebuild from checkpoint + log on rejoin.
    let log_all = |mut node: NodeDurability| {
        for (relay, (version, ws)) in updates.iter().enumerate() {
            node.log(relay as u64 + 1, *version, ws);
        }
        node
    };
    let log_s = ctx.secs_prepared(
        || seeded.clone(),
        |node| {
            black_box(log_all(node).durable_seq());
        },
    );
    put(m, "repl.durable_log_ns", log_s * 1e9 / updates.len() as f64);
    let mut node = log_all(seeded.clone());
    put(
        m,
        "repl.durable_recover_ms",
        1e3 * ctx.secs(|| {
            let (recovered, relay, replayed) = node.recover();
            assert_eq!((relay, replayed), (4_096, 4_096));
            black_box(recovered.version());
        }),
    );
    put(
        m,
        "repl.durable_checkpoint_ms",
        1e3 * ctx.secs(|| node.checkpoint(&db, 4_096)),
    );
}
