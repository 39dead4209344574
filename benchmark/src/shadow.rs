//! Shadow replay: where a simulated cell's host time went, measured from
//! outside.
//!
//! A cluster simulator is opaque to the harness — one `repl.simulate`
//! span. To split it, each cell's work is *replayed* through the lower
//! layers' public API with the counts its `RunReport` returned (scaled
//! from the measurement window to the whole run): `n ×`
//! `WorkloadSpec::install` at the cell's seed scale, `T ×`
//! `CompiledWorkload::sample`, `T ×` begin/`execute`/commit on one engine
//! with vacuums at the simulator's cadence, and `writesets_applied ×`
//! `apply_writeset`. The replays are recorded as *shadow* spans right
//! after the cell's span — host speed drifts over seconds, so a replay
//! is timed next to the cell it explains — and cut out of the pass's
//! time; shadow time ÷ pass time gives the `attr.*` shares.
//!
//! What is left — `attr.residual_share` — is the event engine, the
//! queueing resources, `repl`'s own orchestration, statistics, and (for
//! durable cells) the WAL and checkpoints. It is reported as such, not
//! guessed apart: splitting it needs counters inside the program.
//!
//! The replay runs one transaction at a time, so it sees shorter version
//! chains and fewer open snapshots than the interleaved simulation did;
//! it is a lower bound on the storage share, which is why a residual
//! much below zero would mean a harness bug and a positive one is
//! expected.

use replipred::model::Design;
use replipred::sidb::{Database, WriteSet};
use replipred::sim::Rng;
use replipred::workload::TxnTemplate;

use crate::metrics::ATTR_METRICS;
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::sim::SimCell;

/// Transactions sampled, then executed, per pair of shadow spans.
const ROUND: u64 = 4_096;
/// Distinct writesets kept for the apply replay.
const KEPT_WRITESETS: usize = 1_024;

/// Replays one cell's work, recording shadow spans under the cell's id.
/// A disabled tracer means an untraced pass: nothing to explain.
pub fn replay_cell(cell: &SimCell, tracer: &mut Tracer) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.set_cell(Some(cell.id));
    replay_work(cell, tracer);
    tracer.set_cell(None);
}

fn replay_work(cell: &SimCell, tracer: &mut Tracer) {
    let scale = cell.cfg.end_time() / cell.cfg.duration;
    let scaled = |window_count: u64| (window_count as f64 * scale).round() as u64;
    let r = &cell.report;
    let txns = scaled(r.read_commits + r.update_commits + r.conflict_aborts);
    let applies = scaled(r.writesets_applied);
    // The standalone design is one machine whatever its scale point.
    let installs = match cell.design {
        Design::Standalone => 1,
        _ => cell.cfg.replicas.max(1),
    };

    let span = tracer.enter_shadow("workload.install", installs as u64);
    let mut engine = None;
    for _ in 0..installs {
        let mut db = Database::new();
        let plan = cell
            .spec
            .install(&mut db, cell.cfg.seed_scale)
            .expect("the simulator installed the same spec");
        engine = Some((db, plan));
    }
    tracer.exit(span);
    let (mut db, plan) = engine.expect("at least one install");

    // One vacuum per `vacuum_interval` of virtual time, as simulated.
    let vacuums = (cell.cfg.end_time() / cell.cfg.vacuum_interval).max(1.0);
    let vacuum_every = ((txns as f64 / vacuums).ceil() as u64).max(1);
    let mut rng = Rng::seed_from_u64(cell.cfg.seed);
    let mut writesets: Vec<WriteSet> = Vec::new();
    let mut since_vacuum = 0;
    let mut left = txns;
    while left > 0 {
        let round = left.min(ROUND);
        left -= round;
        let span = tracer.enter_shadow("workload.sample", round);
        let templates: Vec<TxnTemplate> = (0..round).map(|_| plan.sample(&mut rng)).collect();
        tracer.exit(span);
        let span = tracer.enter_shadow("sidb.txn", round);
        for template in &templates {
            let txn = db.begin();
            plan.execute(&mut db, txn, template).expect("seeded tables");
            let info = db.commit(txn).expect("a lone transaction never conflicts");
            if !info.writeset.is_empty() && writesets.len() < KEPT_WRITESETS {
                writesets.push(info.writeset);
            }
            since_vacuum += 1;
            if since_vacuum == vacuum_every {
                since_vacuum = 0;
                db.vacuum();
            }
        }
        tracer.exit(span);
    }

    if applies > 0 && !writesets.is_empty() {
        let span = tracer.enter_shadow("sidb.apply", applies);
        for k in 0..applies {
            db.apply_writeset(&writesets[k as usize % writesets.len()])
                .expect("the engine's own writesets");
            if k % vacuum_every == 0 {
                db.vacuum();
            }
        }
        tracer.exit(span);
    }
}

/// The seven `attr.*` shares of a traced pass, in [`ATTR_METRICS`] order.
///
/// Real spans contribute their self time, shadow spans their duration
/// (simulator workloads have only shadow spans for the lower layers; the
/// other workloads have only real ones). `pass_ns` is the traced pass's
/// length with the shadow time cut out. The shares sum to 1 by
/// construction: the residual is what the buckets leave.
pub fn attribution(spans: &[Span], pass_ns: u64) -> [(&'static str, f64); 7] {
    let selfs = self_times(spans);
    let mut buckets = [0u64; 6];
    for (span, own) in spans.iter().zip(selfs) {
        let amount = if span.shadow { span.duration() } else { own };
        if let Some(bucket) = bucket_of(span.name) {
            buckets[bucket] += amount;
        }
    }
    let pass = pass_ns.max(1) as f64;
    let mut shares = [0.0; 7];
    for (share, ns) in shares.iter_mut().zip(buckets) {
        *share = ns as f64 / pass;
    }
    shares[6] = 1.0 - shares[..6].iter().sum::<f64>();
    std::array::from_fn(|i| (ATTR_METRICS[i], shares[i]))
}

/// Index into [`ATTR_METRICS`] of the bucket a span's time belongs to.
fn bucket_of(name: &str) -> Option<usize> {
    let (layer, call) = name.split_once('.')?;
    match (layer, call) {
        ("profiler", _) => Some(0),
        ("core", _) => Some(1),
        ("workload", "install") => Some(2),
        ("workload", "sample") => Some(3),
        ("sidb", "txn" | "txn_logged" | "vacuum") => Some(4),
        ("sidb", "apply" | "recover") => Some(5),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, shadow: bool) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: None,
            calls: 1,
            shadow,
        }
    }

    #[test]
    fn shares_sum_to_one_and_the_residual_is_what_is_left() {
        let spans = vec![
            span("harness.pass", 0, 1_000, None, false),
            span("profiler.profile", 0, 150, Some(0), false),
            span("core.curve_at", 150, 160, Some(0), false),
            span("repl.simulate", 160, 1_000, Some(0), false),
            // Only a shadow replay's length counts, not where it sits.
            span("workload.install", 2_000, 2_500, None, true),
            span("workload.sample", 2_500, 2_530, None, true),
            span("sidb.txn", 2_530, 2_630, None, true),
            span("sidb.apply", 2_630, 2_650, None, true),
        ];
        let shares = attribution(&spans, 1_000);
        let by_name = |n: &str| shares.iter().find(|(name, _)| *name == n).unwrap().1;
        assert!((by_name("attr.profiler_share") - 0.15).abs() < 1e-12);
        assert!((by_name("attr.predict_share") - 0.01).abs() < 1e-12);
        assert!((by_name("attr.install_share") - 0.50).abs() < 1e-12);
        assert!((by_name("attr.sample_share") - 0.03).abs() < 1e-12);
        assert!((by_name("attr.sidb_txn_share") - 0.10).abs() < 1e-12);
        assert!((by_name("attr.sidb_apply_share") - 0.02).abs() < 1e-12);
        assert!((by_name("attr.residual_share") - 0.19).abs() < 1e-12);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn real_lower_layer_spans_count_their_self_time() {
        // A store workload: no shadow spans, real sample/txn/vacuum ones.
        let spans = vec![
            span("harness.pass", 0, 100, None, false),
            span("workload.sample", 0, 20, Some(0), false),
            span("sidb.txn", 20, 90, Some(0), false),
            span("sidb.vacuum", 90, 95, Some(0), false),
        ];
        let shares = attribution(&spans, 100);
        assert!((shares[3].1 - 0.20).abs() < 1e-12);
        assert!((shares[4].1 - 0.75).abs() < 1e-12);
        assert!((shares[6].1 - 0.05).abs() < 1e-12);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn replay_covers_every_bucket_of_a_replicated_cell() {
        use crate::trace::pass_times;
        use crate::workloads::sim::{check, pass, setup_sweep_long};
        use crate::workloads::Size;
        let mut state = setup_sweep_long(5, Size::Smoke);
        let mut tracer = Tracer::enabled();
        let root = tracer.enter("harness.pass");
        let mut raw = pass(&mut state, &mut tracer);
        tracer.exit(root);
        assert_eq!(check(&state, &mut raw).checks.failed, 0);
        let spans = tracer.into_spans();
        let shadows: Vec<&Span> = spans.iter().filter(|s| s.shadow).collect();
        for name in [
            "workload.install",
            "workload.sample",
            "sidb.txn",
            "sidb.apply",
        ] {
            assert!(shadows.iter().any(|s| s.name == name), "no shadow {name}");
        }
        assert!(shadows.iter().all(|s| s.cell.is_some()));
        // The replays ran inside the pass and are cut out of its time.
        let pass_ns = pass_times(&spans)[0];
        let shadow_ns: u64 = shadows.iter().map(|s| s.duration()).sum();
        assert_eq!(pass_ns, spans[0].duration() - shadow_ns);
        let shares = attribution(&spans, pass_ns);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(shares[6].1 > -0.05, "residual {}", shares[6].1);
    }
}
