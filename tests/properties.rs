//! Property-based tests (proptest) on the core invariants, spanning the
//! solver, the abort algebra and the storage engine.

use proptest::prelude::*;
use replipred::model::{
    AbortModel, Design, ModelError, ResourceDemands, Schedule, ScheduleEvent, SystemConfig,
    WorkloadProfile,
};
use replipred::mva::{approx, bounds, exact, ClosedNetwork};
use replipred::sidb::{Database, RowId, TableId, Value};
use replipred::workload::synth::SynthSpec;

/// A fresh database with one table `t` seeded with `rows` integer rows.
fn seeded_db(rows: u64) -> (Database, TableId) {
    let mut db = Database::new();
    let table = db.create_table("t", &["v"]).unwrap();
    let seed = db.begin();
    for i in 0..rows {
        db.insert(seed, table, RowId(i), vec![Value::Int(0)])
            .unwrap();
    }
    db.commit(seed).unwrap();
    (db, table)
}

fn int_cell(db: &mut Database, txn: replipred::sidb::TxnId, table: TableId, row: u64) -> i64 {
    match db.read(txn, table, RowId(row)).unwrap().unwrap()[0] {
        Value::Int(v) => v,
        _ => unreachable!("seeded cells are ints"),
    }
}

fn arb_network() -> impl Strategy<Value = ClosedNetwork> {
    (
        0.001f64..0.2, // cpu demand
        0.001f64..0.2, // disk demand
        0.0f64..0.05,  // delay
        0.0f64..3.0,   // think time
    )
        .prop_map(|(cpu, disk, delay, z)| {
            ClosedNetwork::builder()
                .queueing("cpu", cpu)
                .queueing("disk", disk)
                .delay("lan", delay)
                .think_time(z)
                .build()
                .expect("generated demands are valid")
        })
}

/// A valid profile around the given mix and `[read, write]` demands
/// (writesets cost `ws_frac` of an update), with `L(1)` estimated for
/// `clients` standalone clients as the published profiles do.
fn model_profile(
    pw: f64,
    a1: f64,
    [cpu, disk]: [[f64; 2]; 2],
    ws_frac: f64,
    clients: usize,
) -> WorkloadProfile {
    let demands = |[read, write]: [f64; 2]| ResourceDemands {
        read,
        write,
        writeset: write * ws_frac,
    };
    let mut profile = WorkloadProfile {
        name: "prop".into(),
        pr: 1.0 - pw,
        pw,
        a1,
        cpu: demands(cpu),
        disk: demands(disk),
        l1: cpu[1] + disk[1],
        update_ops: 3.0,
        db_update_size: 10_000.0,
    };
    profile.estimate_l1(clients, 1.0).unwrap();
    profile
}

/// An arbitrary point of the synthetic workload family, drawn from the
/// *valid* knob domain (the build-time rejections have their own
/// deterministic tests in `replipred-workload`).
fn arb_synth() -> impl Strategy<Value = SynthSpec> {
    (
        (
            0.0f64..1.0, // update fraction
            1usize..6,   // read classes
            1usize..4,   // update classes
            0.001f64..0.05,
            0.0f64..0.05, // read demand lo, width
            0.0f64..0.8,  // ws cost fraction
        ),
        (
            0usize..20,   // reads per txn
            1usize..6,    // shared writes per txn
            0usize..4,    // private writes
            0.0f64..1.0,  // hotspot skew
            1u64..512,    // hot rows
            0.05f64..3.0, // think time
        ),
        (
            1usize..100, // clients per replica
            1usize..4,   // read tables
            1u64..2000,  // rows per read table
            1u64..2000,  // updatable rows
            0.001f64..0.05,
            0.0f64..0.05, // write demand lo, width
        ),
    )
        .prop_map(
            |(
                (pw, read_classes, update_classes, rlo, rwidth, ws),
                (reads, writes, private, hot, hot_rows, think),
                (clients, tables, rows, update_rows, wlo, wwidth),
            )| {
                SynthSpec {
                    update_fraction: pw,
                    read_classes,
                    update_classes,
                    read_cpu: (rlo, rlo + rwidth),
                    read_disk: (rlo / 2.0, rlo / 2.0 + rwidth),
                    write_cpu: (wlo, wlo + wwidth),
                    write_disk: (wlo / 2.0, wlo / 2.0 + wwidth),
                    ws_fraction: ws,
                    reads_per_txn: reads,
                    writes_per_txn: writes,
                    private_writes: private,
                    hot_skew: hot,
                    hot_rows,
                    think_time: think,
                    clients_per_replica: clients,
                    tables,
                    rows_per_table: rows,
                    update_rows,
                    ..SynthSpec::new()
                }
            },
        )
}

/// Strings around the `--schedule` grammar: comma lists of tokens in
/// every shape the grammar has (and some it has not), over its words,
/// numbers a float parser accepts but a simulation cannot run, and junk.
fn arb_schedule_text() -> impl Strategy<Value = String> {
    const WORDS: [&str; 14] = [
        "crash",
        "join",
        "cert-down",
        "cert-up",
        "clients",
        "flash-crowd",
        "phase",
        "window",
        "slo",
        "recovery",
        "bogus",
        "",
        "é🦀",
        "\0",
    ];
    const NUMBERS: [&str; 24] = [
        "0", "1", "2", "30", "-5", "-0", "+3", ".5", "2.5", "0.001", "1e-7", "100", "100.5", "1e9",
        "1e308", "1e999", "nan", "NaN", "inf", "-inf", "infinity", "x", "", " 7 ",
    ];
    let word = 0usize..WORDS.len();
    let number = || 0usize..NUMBERS.len();
    let token = (0u8..6, word, number(), number(), number()).prop_map(|(shape, w, a, b, c)| {
        let (w, a, b, c) = (WORDS[w], NUMBERS[a], NUMBERS[b], NUMBERS[c]);
        match shape {
            0 => format!("{w}@{a}={b}"),
            1 => format!("{w}@{a}"),
            2 => format!("{w}@{a}={b}x{c}"),
            3 => format!("{w}={a}"),
            4 => format!("{w}@{a}={w}"),
            _ => format!("{a}{w}={b}@{c}"),
        }
    });
    collection::vec(token, 0..6).prop_map(|tokens| tokens.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact MVA always sits inside the asymptotic bounds, and Little's
    /// law holds exactly at every population.
    #[test]
    fn mva_respects_bounds_and_littles_law(net in arb_network(), n in 1usize..400) {
        let sol = exact::solve(&net, n).unwrap();
        let b = bounds::asymptotic(&net, n);
        prop_assert!(sol.throughput <= b.throughput_upper + 1e-9);
        prop_assert!(sol.throughput >= b.throughput_lower - 1e-9);
        let reconstructed = sol.throughput * (sol.response_time + net.think_time());
        prop_assert!((reconstructed - n as f64).abs() < 1e-6);
    }

    /// Throughput is monotone in population; utilization never exceeds 1
    /// at queueing centers.
    #[test]
    fn mva_monotonicity_and_utilization(net in arb_network(), n in 2usize..300) {
        let a = exact::solve(&net, n - 1).unwrap();
        let b = exact::solve(&net, n).unwrap();
        prop_assert!(b.throughput >= a.throughput - 1e-9);
        for c in &b.centers {
            if c.name != "lan" {
                prop_assert!(c.utilization <= 1.0 + 1e-9, "{} u={}", c.name, c.utilization);
            }
        }
    }

    /// The Schweitzer approximation stays within a few percent of exact.
    #[test]
    fn schweitzer_close_to_exact(net in arb_network(), n in 1usize..300) {
        let e = exact::solve(&net, n).unwrap();
        let a = approx::solve_single(&net, n).unwrap();
        let rel = (a.throughput - e.throughput).abs() / e.throughput;
        prop_assert!(rel < 0.08, "rel {rel} at n={n}");
    }

    /// Abort algebra: A_N is a probability, grows with the window and the
    /// replica count, and reduces to A1 at CW = L(1), N = 1.
    #[test]
    fn abort_model_algebra(
        a1 in 0.0001f64..0.05,
        l1 in 0.005f64..0.5,
        cw_mult in 1.0f64..10.0,
        n in 1usize..32,
    ) {
        let m = AbortModel::new(a1, l1);
        let a_n = m.replicated(l1 * cw_mult, n);
        prop_assert!((0.0..1.0).contains(&a_n));
        prop_assert!(a_n >= a1 - 1e-12 || n == 1 && cw_mult == 1.0);
        prop_assert!(m.replicated(l1 * cw_mult, n + 1) >= a_n - 1e-12);
        prop_assert!(m.replicated(l1 * cw_mult * 2.0, n) >= a_n - 1e-12);
        let identity = m.replicated(l1, 1);
        prop_assert!((identity - a1).abs() < 1e-12);
    }

    /// The MM model yields finite, positive, monotone-in-N throughput for
    /// arbitrary valid profiles.
    #[test]
    fn mm_model_total_function(
        pr in 0.5f64..1.0,
        rc in 0.005f64..0.08,
        wc in 0.002f64..0.05,
        ws_frac in 0.05f64..0.9,
        a1 in 0.0f64..0.01,
    ) {
        let profile = model_profile(1.0 - pr, a1, [[rc, wc], [rc / 2.0, wc / 2.0]], ws_frac, 40);
        let model = Design::MultiMaster.predictor(profile, SystemConfig::lan_cluster(40)).unwrap();
        let mut last = 0.0;
        for n in [1usize, 2, 4, 8] {
            let p = model.predict(n).unwrap();
            prop_assert!(p.throughput_tps.is_finite() && p.throughput_tps > 0.0);
            prop_assert!(p.throughput_tps >= last * 0.999, "dip at N={n}");
            prop_assert!((0.0..1.0).contains(&p.abort_rate));
            last = p.throughput_tps;
        }
    }

    /// The SM model is total on valid inputs: finite positive outputs or
    /// a typed `NoConvergence` — never a panic, never an iterate that
    /// failed its test — and the same bits when asked twice. Demands
    /// span two decades, writesets cost up to a whole update, and one
    /// case in four is the corner where writesets alone fill a slave
    /// (`ws = wc`, a handful of clients): the slave's throughput
    /// equation then has no positive root.
    #[test]
    fn sm_model_total_function(
        (pw, a1, ws_frac) in (0.0f64..1.0, 0.0f64..0.05, 0.0f64..1.0),
        (rc, rd, wc, wd) in (-3.0f64..-1.0, -3.0f64..-1.0, -3.0f64..-1.0, -3.0f64..-1.0),
        (clients, n, corner) in (1usize..=100, 1usize..=16, 0u8..4),
    ) {
        let [rc, rd, wc, wd] = [rc, rd, wc, wd].map(|e| 10f64.powf(e));
        let (ws_frac, clients) = if corner == 0 { (1.0, 1 + clients % 3) } else { (ws_frac, clients) };
        let pw = 0.6 * (1.0 - pw); // (0, 0.6]
        let profile = model_profile(pw, a1, [[rc, wc], [rd, wd]], ws_frac, clients);
        let model = Design::SingleMaster.predictor(profile.clone(), SystemConfig::lan_cluster(clients)).unwrap();
        let first = model.predict(n);
        // `{:?}` prints the shortest digits that round-trip: equal text, equal bits.
        prop_assert_eq!(format!("{first:?}"), format!("{:?}", model.predict(n)));
        match first {
            Ok(p) => {
                for v in [p.throughput_tps, p.response_time, p.conflict_window, p.bottleneck_utilization] {
                    prop_assert!(v.is_finite() && v > 0.0, "{p:?} from {profile:?} C={clients}");
                }
                prop_assert!((0.0..1.0).contains(&p.abort_rate), "{p:?}");
                prop_assert!(p.bottleneck_utilization <= 1.0);
            }
            Err(e) => prop_assert!(
                matches!(e, ModelError::NoConvergence(_)),
                "{e} from {profile:?} C={clients} n={n}"
            ),
        }
    }

    /// SI engine: first committer wins regardless of the interleaving of
    /// a batch of single-row updates.
    #[test]
    fn si_first_committer_wins(rows in proptest::collection::vec(0u64..20, 2..12)) {
        let (mut db, table) = seeded_db(20);
        // Begin all transactions concurrently (same snapshot), each
        // updating its assigned row; commit in order.
        let txns: Vec<_> = rows.iter().map(|_| db.begin()).collect();
        for (txn, &row) in txns.iter().zip(&rows) {
            db.update(*txn, table, RowId(row), vec![Value::Int(1)]).unwrap();
        }
        let mut winners: std::collections::BTreeMap<u64, usize> = Default::default();
        for (i, (txn, &row)) in txns.iter().zip(&rows).enumerate() {
            match db.commit(*txn) {
                Ok(_) => {
                    // Must be the first committer for this row.
                    prop_assert!(!winners.contains_key(&row), "row {row} won twice");
                    winners.insert(row, i);
                }
                Err(e) => {
                    prop_assert!(e.is_conflict());
                    // Some earlier transaction must have won this row.
                    prop_assert!(winners.contains_key(&row));
                }
            }
        }
    }

    /// SI engine: a reader's snapshot is immune to any sequence of
    /// concurrent committed updates, and a fresh transaction sees exactly
    /// the last committed value per row.
    #[test]
    fn si_snapshot_stability_across_concurrent_commits(
        updates in proptest::collection::vec((0u64..10, -50i64..50), 1..30),
    ) {
        let (mut db, table) = seeded_db(10);
        let reader = db.begin();
        let before: Vec<i64> = (0..10).map(|r| int_cell(&mut db, reader, table, r)).collect();
        let mut last: std::collections::BTreeMap<u64, i64> = Default::default();
        for &(row, val) in &updates {
            let w = db.begin();
            db.update(w, table, RowId(row), vec![Value::Int(val)]).unwrap();
            db.commit(w).unwrap();
            last.insert(row, val);
            // The long-running reader still sees its snapshot, unchanged.
            for r in 0..10 {
                prop_assert_eq!(int_cell(&mut db, reader, table, r), before[r as usize]);
            }
        }
        db.commit(reader).unwrap();
        // A fresh snapshot sees exactly the newest committed value per row.
        let fresh = db.begin();
        for r in 0..10u64 {
            let want = last.get(&r).copied().unwrap_or(0);
            prop_assert_eq!(int_cell(&mut db, fresh, table, r), want);
        }
    }

    /// Writeset application is deterministic: applying the same stream to
    /// two replicas yields identical versions.
    #[test]
    fn writeset_application_deterministic(updates in proptest::collection::vec((0u64..50, -100i64..100), 1..40)) {
        let (mut primary, table) = seeded_db(50);
        let (mut replica_a, _) = seeded_db(50);
        let (mut replica_b, _) = seeded_db(50);
        for &(row, val) in &updates {
            let t = primary.begin();
            primary.update(t, table, RowId(row), vec![Value::Int(val)]).unwrap();
            let info = primary.commit(t).unwrap();
            replica_a.apply_writeset(&info.writeset).unwrap();
            replica_b.apply_writeset(&info.writeset).unwrap();
        }
        let scan = |db: &mut Database| {
            let t = db.begin();
            db.scan(t, table).unwrap()
        };
        prop_assert_eq!(scan(&mut replica_a), scan(&mut replica_b));
        prop_assert_eq!(replica_a.version(), replica_b.version());
    }

    /// Re-applying a certified writeset is idempotent in visible state:
    /// a replica that (erroneously or during recovery replay) applies
    /// every writeset twice exposes exactly the same rows as one that
    /// applied the stream once.
    #[test]
    fn writeset_apply_idempotent_in_visible_state(
        updates in proptest::collection::vec((0u64..30, -100i64..100), 1..30),
    ) {
        let (mut primary, table) = seeded_db(30);
        let (mut once, _) = seeded_db(30);
        let (mut twice, _) = seeded_db(30);
        for &(row, val) in &updates {
            let t = primary.begin();
            primary.update(t, table, RowId(row), vec![Value::Int(val)]).unwrap();
            let info = primary.commit(t).unwrap();
            once.apply_writeset(&info.writeset).unwrap();
            twice.apply_writeset(&info.writeset).unwrap();
            twice.apply_writeset(&info.writeset).unwrap();
        }
        let scan = |db: &mut Database| {
            let t = db.begin();
            db.scan(t, table).unwrap()
        };
        prop_assert_eq!(scan(&mut once), scan(&mut twice));
    }

    /// Writesets over pairwise-disjoint rows commute: applying them in
    /// certification order or fully reversed yields the same visible
    /// state. (Overlapping writesets do NOT commute — which is exactly
    /// why the simulators retire them in strict certification order.)
    #[test]
    fn disjoint_writesets_commute(vals in proptest::collection::vec(-100i64..100, 2..20)) {
        let (mut primary, table) = seeded_db(20);
        // One writeset per distinct row: disjoint by construction.
        let mut writesets = Vec::new();
        for (row, &val) in vals.iter().enumerate() {
            let t = primary.begin();
            primary.update(t, table, RowId(row as u64), vec![Value::Int(val)]).unwrap();
            writesets.push(primary.commit(t).unwrap().writeset);
        }
        let (mut forward, _) = seeded_db(20);
        let (mut reversed, _) = seeded_db(20);
        for ws in &writesets {
            forward.apply_writeset(ws).unwrap();
        }
        for ws in writesets.iter().rev() {
            reversed.apply_writeset(ws).unwrap();
        }
        let scan = |db: &mut Database| {
            let t = db.begin();
            db.scan(t, table).unwrap()
        };
        prop_assert_eq!(scan(&mut forward), scan(&mut reversed));
    }

    /// Synthetic workload family: every point of the valid knob domain
    /// builds a spec whose class weights form a probability distribution,
    /// whose `pr() + pw()` identity holds and matches the update-fraction
    /// knob, and which installs (schema + seed + compile) against a fresh
    /// database.
    #[test]
    fn synth_specs_build_install_and_normalize(synth in arb_synth()) {
        let spec = match synth.build() {
            Ok(spec) => spec,
            Err(e) => return Err(TestCaseError::fail(format!("valid domain rejected: {e}"))),
        };
        let total: f64 = spec.classes.iter().map(|c| c.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        prop_assert!(spec.classes.iter().all(|c| c.weight > 0.0));
        prop_assert!((spec.pr() + spec.pw() - 1.0).abs() < 1e-9);
        if spec.pw() > 0.0 {
            prop_assert!(spec.mean_update_ops() >= 1.0 - 1e-9, "U = {}", spec.mean_update_ops());
        }
        let mut db = Database::new();
        let plan = spec.install(&mut db, 1.0);
        prop_assert!(plan.is_ok(), "install failed: {:?}", plan.err());
    }

    /// Synthetic family sampling: every template a generated spec yields
    /// targets only tables that exist and rows inside their seeded (or
    /// designated) spaces, and executes + commits cleanly when run
    /// serially.
    #[test]
    fn synth_samples_target_existing_tables_and_rows(synth in arb_synth(), seed in 0u64..1 << 32) {
        let spec = synth.build().expect("valid domain builds");
        let mut db = Database::new();
        let plan = spec.install(&mut db, 1.0).expect("installs");
        let mut rng = replipred::sim::Rng::seed_from_u64(seed);
        for _ in 0..40 {
            let template = plan.sample(&mut rng);
            for &(table, row) in &template.reads {
                let live = db.live_rows(table);
                prop_assert!(live.is_ok(), "read targets unknown table {table:?}");
                prop_assert!(
                    (row.raw() as usize) < live.unwrap(),
                    "read row {} beyond seeded table", row.raw()
                );
            }
            for &(table, row) in &template.writes {
                if table == plan.update_table() {
                    prop_assert!(row.raw() < spec.db_update_size);
                } else if Some(table) == plan.heap_table() {
                    prop_assert!(row.raw() < spec.heap.unwrap().rows);
                } else {
                    // Private rows materialize on first write; the table
                    // itself must exist.
                    prop_assert_eq!(Some(table), plan.private_table());
                    prop_assert!(db.live_rows(table).is_ok());
                }
            }
            // Serial execution can never conflict: each sampled template
            // must execute and commit against the installed schema.
            let txn = db.begin();
            let run = plan.execute(&mut db, txn, &template);
            prop_assert!(run.is_ok(), "execute failed: {:?}", run.err());
            prop_assert!(db.commit(txn).is_ok());
        }
    }
}

proptest! {
    // A case is a few string splits: many of them, so that lists whose
    // every token parses are not rare.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `Schedule::parse` is total: no input panics, and what it accepts
    /// holds only numbers a run can schedule, allocate for and divide by.
    #[test]
    fn schedule_parse_is_total_and_yields_runnable_numbers(text in arb_schedule_text()) {
        let Ok(schedule) = Schedule::parse(&text) else {
            return Ok(());
        };
        let instant = |t: f64| t.is_finite() && t >= 0.0;
        for te in &schedule.events {
            prop_assert!(instant(te.at), "{text:?}: event at {}", te.at);
            if let ScheduleEvent::Clients(f) = te.event {
                prop_assert!(f > 0.0 && f <= 100.0, "{text:?}: factor {f}");
            }
        }
        for phase in &schedule.phases {
            prop_assert!(instant(phase.start), "{text:?}: phase at {}", phase.start);
        }
        // 0 is "not set" for the three knobs.
        let (w, slo, rec) = (schedule.window, schedule.slo_response, schedule.recovery_fraction);
        prop_assert!(w == 0.0 || (w.is_finite() && w >= 1e-3), "{text:?}: window {w}");
        prop_assert!(slo == 0.0 || (slo.is_finite() && slo > 0.0), "{text:?}: slo {slo}");
        prop_assert!(rec == 0.0 || (rec > 0.0 && rec <= 1.0), "{text:?}: recovery {rec}");
        prop_assert!(schedule.max_clients_factor() <= 100.0);
    }
}
