//! `workload`: replica seeding (`WorkloadSpec::install` — the dominant
//! term of `validate_quick`), transaction sampling and execution, the
//! closed-loop client pool, and the synthetic-description parser.

use std::hint::black_box;

use replipred::scenario::parse_workload;
use replipred::sidb::Database;
use replipred::sim::Rng;
use replipred::workload::client::ClientId;
use replipred::workload::{synth, ClientPool, TxnTemplate, WorkloadSpec};

use super::{put, Ctx, Metrics};

/// The simulators' default seed scale (`SimConfig::seed_scale`).
const SEED_SCALE: f64 = 0.01;

fn install(spec: &WorkloadSpec) -> Database {
    let mut db = Database::new();
    spec.install(&mut db, SEED_SCALE)
        .expect("a fresh database accepts the workload's schema");
    db
}

/// Measures the `workload.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    for (metric, name) in [
        ("workload.install_ms.tpcw-shopping", "tpcw-shopping"),
        ("workload.install_ms.rubis-bidding", "rubis-bidding"),
        ("workload.install_ms.synth-write-heavy", "synth:write-heavy"),
    ] {
        let spec = parse_workload(name).expect("registered workload");
        put(
            m,
            metric,
            1e3 * ctx.secs(|| drop(black_box(install(&spec)))),
        );
    }

    let spec = parse_workload("tpcw-shopping").expect("published workload");
    let db = install(&spec);
    let rows: usize = (0..db.table_count() as u32)
        .map(|t| {
            db.live_rows(replipred::sidb::TableId(t))
                .expect("table exists")
        })
        .sum();
    let install_s = m["workload.install_ms.tpcw-shopping"].expect("just measured") / 1e3;
    put(
        m,
        "workload.install_ns_per_row",
        install_s * 1e9 / rows.max(1) as f64,
    );

    let mut db = db;
    let plan = spec.compile(&db).expect("schema installed");
    let samples = ctx.n(500_000);
    let mut rng = Rng::seed_from_u64(ctx.seed);
    put(
        m,
        "workload.sample_ns",
        ctx.ns_per_op(samples, || {
            for _ in 0..samples {
                black_box(plan.sample(&mut rng));
            }
        }),
    );

    let templates: Vec<TxnTemplate> = (0..4_096).map(|_| plan.sample(&mut rng)).collect();
    let txns = ctx.n(200_000);
    put(
        m,
        "workload.execute_ns_per_txn",
        ctx.ns_per_op(txns, || {
            for k in 0..txns {
                let txn = db.begin();
                plan.execute(&mut db, txn, &templates[k as usize % templates.len()])
                    .expect("seeded tables");
                black_box(
                    db.commit(txn)
                        .expect("a lone transaction never conflicts")
                        .commit_seq,
                );
                if k % 4_096 == 0 {
                    db.vacuum();
                }
            }
        }),
    );

    let clients = spec.clients_per_replica;
    let mut pool = ClientPool::new(plan, clients, ctx.seed);
    let cycles = ctx.n(500_000);
    put(
        m,
        "workload.client_next_ns",
        ctx.ns_per_op(cycles, || {
            for k in 0..cycles {
                let client = ClientId(k as usize % clients);
                black_box(pool.next_transaction(client));
                black_box(pool.next_think(client));
            }
        }),
    );

    let parses = ctx.n(20_000);
    put(
        m,
        "workload.synth_parse_us",
        ctx.ns_per_op(parses, || {
            for _ in 0..parses {
                black_box(
                    synth::parse(black_box("write-heavy,hot=0.5,hot-rows=256")).expect("valid"),
                );
            }
        }) / 1e3,
    );
}
