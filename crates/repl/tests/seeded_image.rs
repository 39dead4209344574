//! One seeded image, many cells: a cell cloned from a shared [`Seeded`]
//! reports exactly what the same cell reports when it seeds its own.
//!
//! `Simulator::run` seeds a fresh image per call; `Simulator::run_from`
//! clones a caller's image and leaves it as it was. The drivers that run
//! many cells of one workload (`Scenario`, the validate grid, the
//! profiler) seed once and share the image across cells and worker
//! threads, so every report they print rests on these equalities: every
//! design at every replica point, a durable single-master cell that
//! crashes and recovers from its image, cells of other client counts and
//! seeds, in forward and in reverse order from one image.

use replipred_repl::standalone::{self, TxnFilter};
use replipred_repl::{
    Design, DurabilityConfig, RunReport, Schedule, Seeded, SimConfig, SimulatorRegistry,
};
use replipred_workload::spec::WorkloadSpec;
use replipred_workload::{heap, tpcw};

/// An update-heavy mix with a hot table: conflicts, retries, private
/// rows and the heap table all touch the image.
fn workload() -> WorkloadSpec {
    heap::with_heap_stress(&tpcw::mix(tpcw::Mix::Ordering), 48)
}

fn windows(n: usize, seed: u64) -> SimConfig {
    SimConfig {
        warmup: 5.0,
        duration: 15.0,
        ..SimConfig::quick(n, seed)
    }
}

/// Every design at n ∈ {1, 2, 4}, a durable single-master cell whose
/// slave crashes and rejoins, and two cells that differ from the rest in
/// what the image does not hold (clients, seed).
fn cells() -> Vec<(Design, WorkloadSpec, SimConfig)> {
    let mut cells = Vec::new();
    for design in Design::ALL {
        for n in [1, 2, 4] {
            cells.push((design, workload(), windows(n, 2009)));
        }
    }
    let durable = SimConfig {
        durability: DurabilityConfig {
            enabled: true,
            group_commit: 4,
            ..DurabilityConfig::default()
        },
        schedule: Schedule::new().crash(8.0, 1).join(12.0, 1).window(5.0),
        ..windows(3, 2009)
    };
    cells.push((Design::SingleMaster, workload(), durable));
    let few_clients = WorkloadSpec {
        clients_per_replica: 7,
        ..workload()
    };
    cells.push((Design::MultiMaster, few_clients, windows(2, 2009)));
    cells.push((Design::MultiMaster, workload(), windows(2, 11)));
    cells
}

fn from(seeded: &Seeded, (design, spec, cfg): &(Design, WorkloadSpec, SimConfig)) -> RunReport {
    design.simulator(spec.clone(), cfg.clone()).run_from(seeded)
}

#[test]
fn cells_from_one_shared_image_report_what_fresh_cells_report() {
    let cells = cells();
    let fresh: Vec<RunReport> = cells
        .iter()
        .map(|(design, spec, cfg)| design.simulator(spec.clone(), cfg.clone()).run())
        .collect();
    assert!(fresh.iter().any(|r| r.conflict_aborts > 0), "no conflicts");
    let durable = &fresh[Design::ALL.len() * 3];
    assert_eq!(durable.transient.as_ref().unwrap().events.len(), 2);

    let seeded = Seeded::install(&workload(), SimConfig::quick(1, 0).seed_scale);
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(from(&seeded, cell), fresh[i], "cell {i}, forward");
    }
    for (i, cell) in cells.iter().enumerate().rev() {
        assert_eq!(from(&seeded, cell), fresh[i], "cell {i}, reverse");
    }
}

#[test]
fn a_standalone_capture_from_a_shared_image_counts_what_a_fresh_one_counts() {
    let cfg = windows(1, 7);
    let fresh_image = Seeded::install(&workload(), cfg.seed_scale);
    let (report, db) = standalone::run(&fresh_image, &workload(), &cfg, TxnFilter::All);
    // The profiler's capture is the design registry's `n = 1` cell.
    let cell = Design::Standalone.simulator(workload(), cfg.clone()).run();
    assert_eq!(cell, report);
    let seeded = Seeded::install(&workload(), cfg.seed_scale);
    for _ in 0..2 {
        let (shared, shared_db) = standalone::run(&seeded, &workload(), &cfg, TxnFilter::All);
        assert_eq!(shared, report);
        assert_eq!(shared_db.stats(), db.stats());
        assert_eq!(shared_db.durable_state(), db.durable_state());
    }
}
