//! Golden snapshots of the replica-lifecycle paths the steady-state and
//! phased goldens do not reach: single-master election and promotion,
//! durable rejoin by recovery, the checkpoint state transfer behind a
//! capped relay log, a multi-master crash overlapping a certifier
//! outage with durable rejoin, flash crowds, and the profiler's filtered
//! standalone replay with the database counters it reads.
//!
//! One table, one file per row under `tests/golden/`, each asserted
//! **byte-identical**. Regenerate after an *intentional* behaviour
//! change with
//!
//! ```text
//! REPLIPRED_BLESS=1 cargo test --test golden_lifecycle
//! ```
//!
//! and review the JSON diff like any other code change.

mod common;

use replipred::model::Design;
use replipred::repl::standalone::{self, TxnFilter};
use replipred::repl::{
    DurabilityConfig, RunReport, Schedule, Seeded, SimConfig, SimulatorRegistry,
};
use replipred::sidb::DbStats;
use replipred::workload::spec::WorkloadSpec;
use replipred::workload::{heap, tpcw};
use serde::Serialize;

/// 2 s warm-up + 8 s window, vacuum (and with it checkpoint/truncation)
/// every 2 s so the cadence work runs several times inside the window.
fn cfg(replicas: usize, schedule: Schedule, durability: DurabilityConfig) -> SimConfig {
    SimConfig {
        warmup: 2.0,
        duration: 8.0,
        vacuum_interval: 2.0,
        schedule,
        durability,
        ..SimConfig::quick(replicas, 2009)
    }
}

fn durable(log_retention: u64) -> DurabilityConfig {
    DurabilityConfig {
        enabled: true,
        log_retention,
        ..DurabilityConfig::default()
    }
}

fn pretty<T: Serialize>(value: &T) -> String {
    let mut json = serde_json::to_string_pretty(value).expect("value serializes");
    json.push('\n');
    json
}

/// TPC-W ordering (50 % updates): steady writeset traffic, almost no
/// conflicts.
fn ordering() -> WorkloadSpec {
    tpcw::mix(tpcw::Mix::Ordering)
}

/// The same mix with every update also writing a 48-row heap table, so
/// the conflict → abort → retry path carries real traffic.
fn contended() -> WorkloadSpec {
    heap::with_heap_stress(&ordering(), 48)
}

fn simulate(design: Design, spec: WorkloadSpec, cfg: SimConfig) -> String {
    pretty(&design.simulator(spec, cfg).run())
}

/// What the profiler's replay consumes of a standalone run.
#[derive(Serialize)]
struct ReplayOutcome {
    report: RunReport,
    db_stats: DbStats,
}

/// The pinned runs: `(snapshot name, pretty JSON)`.
fn cases() -> Vec<(&'static str, String)> {
    let off = DurabilityConfig::default;
    vec![
        // Master crash → election → promotion → the old master rejoins
        // as a slave.
        (
            "sm_master_failover",
            simulate(
                Design::SingleMaster,
                contended(),
                cfg(
                    3,
                    Schedule::new().crash(4.0, 0).join(7.0, 0).window(1.0),
                    off(),
                ),
            ),
        ),
        // A durable slave crashes and rejoins by checkpoint + WAL
        // recovery, then replays the relay-log tail.
        (
            "sm_durable_slave_rejoin",
            simulate(
                Design::SingleMaster,
                ordering(),
                cfg(
                    3,
                    Schedule::new().crash(4.0, 1).join(7.0, 1).window(1.0),
                    durable(0),
                ),
            ),
        ),
        // An 8-entry relay log outruns the crashed slave: the rejoin
        // falls back to the checkpoint state transfer.
        (
            "sm_capped_log_state_transfer",
            simulate(
                Design::SingleMaster,
                ordering(),
                cfg(
                    3,
                    Schedule::new().crash(3.0, 2).join(7.0, 2).window(1.0),
                    durable(8),
                ),
            ),
        ),
        // Multi-master, durability on: a replica is down across a
        // certifier outage and rejoins after the restart — by recovery
        // from its image + redo log, then the certifier log's tail, as a
        // single-master replica does.
        (
            "mm_crash_certifier_outage_durable",
            simulate(
                Design::MultiMaster,
                contended(),
                cfg(
                    3,
                    Schedule::new()
                        .crash(3.0, 1)
                        .certifier_down(4.0)
                        .certifier_up(5.5)
                        .join(7.0, 1)
                        .window(1.0),
                    durable(0),
                ),
            ),
        ),
        (
            "mm_flash_crowd",
            simulate(
                Design::MultiMaster,
                ordering(),
                cfg(
                    2,
                    Schedule::new().flash_crowd(4.0, 2.0, 3.0).window(1.0),
                    off(),
                ),
            ),
        ),
        // The shared schedule also names cluster events, which a single
        // node acknowledges as ignored.
        (
            "standalone_flash_crowd",
            simulate(
                Design::Standalone,
                contended(),
                cfg(
                    1,
                    Schedule::new()
                        .crash(3.0, 0)
                        .flash_crowd(4.0, 2.0, 3.0)
                        .window(1.0),
                    off(),
                ),
            ),
        ),
        ("standalone_updates_only_statement_log", {
            let (spec, cfg) = (ordering(), cfg(1, Schedule::default(), off()));
            let seeded = Seeded::install(&spec, cfg.seed_scale);
            let (report, db) = standalone::run(&seeded, &spec, &cfg, TxnFilter::UpdatesOnly);
            pretty(&ReplayOutcome {
                report,
                db_stats: db.stats(),
            })
        }),
    ]
}

/// One sequential test so blessing never races a parallel reader.
#[test]
fn lifecycle_reports_match_the_checked_in_golden_snapshots() {
    for (name, json) in cases() {
        common::check_golden(&format!("lifecycle_{name}.json"), &json);
    }
}
