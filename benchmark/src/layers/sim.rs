//! `sim`: the event engine's typed path, the two queueing resources, the
//! RNG, the statistics collectors and the scoped thread pool.

use std::hint::black_box;

use replipred::model::Design;
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::scenario::parse_workload;
use replipred::sim::pool::map_parallel;
use replipred::sim::resource::{Fcfs, Ps, ServiceToken};
use replipred::sim::stats::Tally;
use replipred::sim::{Engine, Event, Rng};

use super::{put, Ctx, Metrics};

/// Schedule-then-fire chain: each event schedules its successor.
struct Chain(u64);

impl Event<u64> for Chain {
    fn fire(self, engine: &mut Engine<u64, Chain>) {
        *engine.world_mut() += 1;
        if *engine.world() < self.0 {
            engine.schedule_event_in(0.001, Chain(self.0));
        }
    }
}

/// An event that does nothing (cancellation fodder).
struct Noop;

impl Event<()> for Noop {
    fn fire(self, _engine: &mut Engine<(), Noop>) {}
}

/// A disk and a CPU fed a fixed number of jobs, a few resident at a time.
struct Station {
    disk: Fcfs<Station, Job>,
    cpu: Ps<Station, Job>,
    /// Jobs still to submit.
    left: u64,
}

enum Job {
    DiskDone,
    DiskFired(ServiceToken),
    CpuDone,
    CpuFired,
}

fn disk(w: &mut Station) -> &mut Fcfs<Station, Job> {
    &mut w.disk
}

fn cpu(w: &mut Station) -> &mut Ps<Station, Job> {
    &mut w.cpu
}

impl Event<Station> for Job {
    fn fire(self, engine: &mut Engine<Station, Job>) {
        match self {
            Job::DiskDone => {
                if take_job(engine) {
                    Fcfs::submit_event(engine, disk, 0.001, Job::DiskDone, Job::DiskFired);
                }
            }
            Job::DiskFired(token) => Fcfs::on_fired(engine, disk, token, Job::DiskFired),
            Job::CpuDone => {
                if take_job(engine) {
                    Ps::submit_event(engine, cpu, 0.001, Job::CpuDone, || Job::CpuFired);
                }
            }
            Job::CpuFired => Ps::on_fired(engine, cpu, || Job::CpuFired),
        }
    }
}

fn take_job(engine: &mut Engine<Station, Job>) -> bool {
    let left = &mut engine.world_mut().left;
    let more = *left > 0;
    *left = left.saturating_sub(1);
    more
}

/// Jobs resident at a resource while it is driven.
const RESIDENT: u64 = 8;

fn station(jobs: u64) -> Engine<Station, Job> {
    Engine::new(Station {
        disk: Fcfs::new(1),
        cpu: Ps::new(1.0),
        left: jobs - RESIDENT,
    })
}

/// Measures the `sim.*` metrics.
pub fn measure(ctx: &Ctx, m: &mut Metrics) {
    let events = ctx.n(100_000);
    put(
        m,
        "sim.engine_ns_per_event",
        ctx.ns_per_op(events, || {
            let mut engine: Engine<u64, Chain> = Engine::new(0);
            engine.schedule_event_in(0.001, Chain(events));
            engine.run();
            assert_eq!(black_box(engine.events_executed()), events);
        }),
    );

    // Cancel + the drain of the stale heap entries a cancel leaves
    // behind; scheduling happens outside the timed part.
    let cancel = ctx.secs_prepared(
        || {
            let mut engine: Engine<(), Noop> = Engine::new(());
            let ids: Vec<_> = (0..events)
                .map(|i| engine.schedule_event_in(1.0 + i as f64 * 1e-6, Noop))
                .collect();
            (engine, ids)
        },
        |(mut engine, ids)| {
            for id in ids {
                engine.cancel(id);
            }
            engine.run();
            assert_eq!(black_box(engine.events_executed()), 0);
        },
    );
    put(m, "sim.engine_cancel_ns", cancel * 1e9 / events as f64);

    let jobs = ctx.n(50_000).max(2 * RESIDENT);
    put(
        m,
        "sim.fcfs_ns_per_job",
        ctx.ns_per_op(jobs, || {
            let mut engine = station(jobs);
            for _ in 0..RESIDENT {
                Fcfs::submit_event(&mut engine, disk, 0.001, Job::DiskDone, Job::DiskFired);
            }
            engine.run();
            assert_eq!(engine.world().left, 0);
        }),
    );
    put(
        m,
        "sim.ps_ns_per_job",
        ctx.ns_per_op(jobs, || {
            let mut engine = station(jobs);
            for _ in 0..RESIDENT {
                Ps::submit_event(&mut engine, cpu, 0.001, Job::CpuDone, || Job::CpuFired);
            }
            engine.run();
            assert_eq!(engine.world().left, 0);
        }),
    );

    let draws = ctx.n(2_000_000);
    let mut rng = Rng::seed_from_u64(ctx.seed);
    put(
        m,
        "sim.rng_ns_per_draw",
        ctx.ns_per_op(draws, || {
            let mut sum = 0.0;
            for _ in 0..draws {
                sum += rng.exp(1.0);
            }
            black_box(sum);
        }),
    );
    put(
        m,
        "sim.stats_record_ns",
        ctx.ns_per_op(draws, || {
            let mut tally = Tally::new();
            for i in 0..draws {
                tally.record(black_box(i as f64));
            }
            black_box(tally.mean());
        }),
    );

    // Eight equal cells, two workers against one: what `--jobs 2` buys.
    let spec = parse_workload("tpcw-shopping").expect("published workload");
    let cells = |jobs: usize| {
        let cells: Vec<u64> = (0..8).collect();
        let reports = map_parallel(jobs, cells, |i| {
            let cfg = SimConfig {
                warmup: 2.0,
                duration: 10.0,
                ..SimConfig::quick(1, ctx.seed + i)
            };
            Design::Standalone.simulator(spec.clone(), cfg).run()
        });
        black_box(reports.len());
    };
    let serial = ctx.secs(|| cells(1));
    let parallel = ctx.secs(|| cells(2));
    put(m, "sim.pool_speedup_j2", serial / parallel);
}
