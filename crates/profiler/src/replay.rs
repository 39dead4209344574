//! Replay measurements: demands via the Utilization Law.
//!
//! Paper Section 4.1.1: "We play read-only transactions from the log
//! against the database and collect CPU and disk utilization to compute
//! the service demands rc_CPU and rc_disk using the Utilization Law. ...
//! Next we play update transactions ... We also play the writesets ... in
//! a separate run."

use replipred_mva::ops::demand_from_utilization;
use replipred_repl::standalone::{self, TxnFilter};
use replipred_repl::{Seeded, SimConfig};
use replipred_sim::engine::{Engine, Event};
use replipred_sim::resource::{Fcfs, Ps, ServiceToken};
use replipred_sim::{Rng, SimTime};
use replipred_workload::spec::WorkloadSpec;

/// Measured per-resource demands of one replay segment, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredDemands {
    /// CPU demand per transaction (or writeset).
    pub cpu: f64,
    /// Disk demand per transaction (or writeset).
    pub disk: f64,
    /// Throughput the segment sustained, per second.
    pub rate: f64,
}

/// Plays a filtered transaction segment on a freshly seeded standalone
/// system and derives per-transaction demands with the Utilization Law.
pub fn measure_transaction_demands(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    filter: TxnFilter,
) -> MeasuredDemands {
    let seeded = Seeded::install(spec, cfg.seed_scale);
    measure_transaction_demands_from(&seeded, spec, cfg, filter)
}

/// [`measure_transaction_demands`] on a clone of an image already seeded
/// from `spec` at `cfg.seed_scale`.
///
/// # Panics
///
/// Panics if `seeded` does not fit `spec` at `cfg.seed_scale`.
pub(crate) fn measure_transaction_demands_from(
    seeded: &Seeded,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    filter: TxnFilter,
) -> MeasuredDemands {
    let (report, _) = standalone::run(seeded, spec, cfg, filter);
    MeasuredDemands {
        cpu: demand_from_utilization(report.mean_cpu_utilization, report.throughput_tps),
        disk: demand_from_utilization(report.mean_disk_utilization, report.throughput_tps),
        rate: report.throughput_tps,
    }
}

struct WsWorld {
    cpu: Ps<WsWorld, WsEv>,
    disk: Fcfs<WsWorld, WsEv>,
    rng: Rng,
    applied: u64,
    measuring: bool,
    ws_cpu: f64,
    ws_disk: f64,
    rate: f64,
}

/// The writeset replay's events.
enum WsEv {
    /// A writeset arrives: draw its demands, start its CPU phase and
    /// schedule the next arrival.
    Arrival,
    /// The CPU phase finished; the disk phase (of this demand) follows.
    CpuDone(f64),
    /// The disk phase finished: the writeset is applied.
    DiskDone,
    /// Internal PS completion of the CPU (see [`Ps::on_fired`]).
    CpuFired,
    /// Internal FCFS completion of the disk (see [`Fcfs::on_fired`]).
    DiskFired(ServiceToken),
    /// End of warm-up: discard all measurements.
    Warmup,
}

fn cpu(w: &mut WsWorld) -> &mut Ps<WsWorld, WsEv> {
    &mut w.cpu
}

fn disk(w: &mut WsWorld) -> &mut Fcfs<WsWorld, WsEv> {
    &mut w.disk
}

impl Event<WsWorld> for WsEv {
    fn fire(self, engine: &mut Engine<WsWorld, WsEv>) {
        match self {
            WsEv::Arrival => {
                let w = engine.world_mut();
                let (cpu_d, disk_d) = (w.rng.exp(w.ws_cpu), w.rng.exp(w.ws_disk));
                Ps::submit_event(engine, cpu, cpu_d, WsEv::CpuDone(disk_d), || WsEv::CpuFired);
                schedule_arrival(engine);
            }
            WsEv::CpuDone(disk_d) => {
                Fcfs::submit_event(engine, disk, disk_d, WsEv::DiskDone, WsEv::DiskFired);
            }
            WsEv::DiskDone => {
                let w = engine.world_mut();
                if w.measuring {
                    w.applied += 1;
                }
            }
            WsEv::CpuFired => Ps::on_fired(engine, cpu, || WsEv::CpuFired),
            WsEv::DiskFired(token) => Fcfs::on_fired(engine, disk, token, WsEv::DiskFired),
            WsEv::Warmup => {
                let now = engine.now().as_secs();
                let w = engine.world_mut();
                w.applied = 0;
                w.cpu.stats.reset(now);
                w.disk.stats.reset(now);
                w.measuring = true;
            }
        }
    }
}

/// Plays a writeset stream at `rate` writesets/second against the
/// standalone system's resources (open loop: the replayer, like the
/// paper's, feeds captured writesets as fast as the log did) and derives
/// `ws` demands with the Utilization Law.
pub fn measure_writeset_demands(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    rate: f64,
) -> MeasuredDemands {
    assert!(rate > 0.0, "writeset replay needs a positive rate");
    let world = WsWorld {
        cpu: Ps::new(1.0),
        disk: Fcfs::new(1),
        rng: Rng::seed_from_u64(cfg.seed ^ 0xA11CE),
        applied: 0,
        measuring: false,
        ws_cpu: spec.ws_cpu,
        ws_disk: spec.ws_disk,
        rate,
    };
    let mut engine = Engine::new(world);
    schedule_arrival(&mut engine);
    engine.schedule_event_at(SimTime::from_secs(cfg.warmup), WsEv::Warmup);
    let end = SimTime::from_secs(cfg.warmup + cfg.duration);
    engine.run_until(end);
    let end_s = end.as_secs();
    let w = engine.into_world();
    let x = w.applied as f64 / cfg.duration;
    MeasuredDemands {
        cpu: demand_from_utilization(w.cpu.stats.busy.mean_at(end_s), x),
        disk: demand_from_utilization(w.disk.stats.busy.mean_at(end_s), x),
        rate: x,
    }
}

/// Schedules the next open-loop arrival one exponential gap from now
/// (`run_until` bounds the stream at the horizon).
fn schedule_arrival(engine: &mut Engine<WsWorld, WsEv>) {
    let w = engine.world_mut();
    let gap = w.rng.exp(1.0 / w.rate);
    engine.schedule_event_in(gap, WsEv::Arrival);
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_workload::tpcw;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 60.0,
            ..SimConfig::quick(1, seed)
        }
    }

    #[test]
    fn read_replay_recovers_rc() {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let m = measure_transaction_demands(&spec, &cfg(1), TxnFilter::ReadsOnly);
        let rel = (m.cpu - spec.mean_read_cpu()).abs() / spec.mean_read_cpu();
        assert!(
            rel < 0.08,
            "rc_cpu {} vs {} (rel {rel})",
            m.cpu,
            spec.mean_read_cpu()
        );
        let rel_d = (m.disk - spec.mean_read_disk()).abs() / spec.mean_read_disk();
        assert!(rel_d < 0.08, "rc_disk rel {rel_d}");
    }

    #[test]
    fn update_replay_recovers_wc() {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let m = measure_transaction_demands(&spec, &cfg(2), TxnFilter::UpdatesOnly);
        let rel = (m.cpu - spec.mean_write_cpu()).abs() / spec.mean_write_cpu();
        assert!(rel < 0.08, "wc_cpu {} vs {}", m.cpu, spec.mean_write_cpu());
    }

    #[test]
    fn writeset_replay_recovers_ws() {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let m = measure_writeset_demands(&spec, &cfg(3), 20.0);
        let rel = (m.cpu - spec.ws_cpu).abs() / spec.ws_cpu;
        assert!(rel < 0.10, "ws_cpu {} vs {}", m.cpu, spec.ws_cpu);
        let rel_d = (m.disk - spec.ws_disk).abs() / spec.ws_disk;
        assert!(rel_d < 0.10, "ws_disk rel {rel_d}");
        assert!((m.rate - 20.0).abs() < 2.0, "rate {}", m.rate);
    }
}
