//! The end-to-end profiling pipeline: standalone measurements →
//! [`WorkloadProfile`].

use replipred_core::{ResourceDemands, WorkloadProfile};
use replipred_repl::standalone::{self, TxnFilter};
use replipred_repl::{RunReport, Seeded, SimConfig};
use replipred_workload::spec::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::logstats::{summarize, LogSummary};
use crate::replay::{measure_transaction_demands_from, measure_writeset_demands, MeasuredDemands};

/// Everything the profiling pipeline produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileOutcome {
    /// The assembled model input.
    pub profile: WorkloadProfile,
    /// Log-derived counts (`Pr`, `Pw`, `A1`, `U`).
    pub log_summary: LogSummary,
    /// The full-mix standalone run the log was captured from.
    pub capture_run: RunReport,
}

/// Profiles a workload on the standalone system, reproducing the paper's
/// Section-4 procedure.
pub struct Profiler {
    spec: WorkloadSpec,
    cfg: SimConfig,
}

impl Profiler {
    /// Creates a profiler with moderate measurement windows (60 s capture
    /// after 15 s warm-up — long enough for tight demand estimates in
    /// virtual time, cheap in wall-clock time).
    pub fn new(spec: WorkloadSpec) -> Self {
        Profiler {
            cfg: SimConfig {
                warmup: 15.0,
                duration: 60.0,
                ..SimConfig::quick(1, 7)
            },
            spec,
        }
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Overrides the warm-up/measurement windows (virtual seconds).
    pub fn windows(mut self, warmup: f64, duration: f64) -> Self {
        self.cfg.warmup = warmup;
        self.cfg.duration = duration;
        self
    }

    /// Profiles with redo-log durability enabled on the standalone
    /// system. Each update commit then pays the amortized group-commit
    /// disk share (`fsync_disk / group_commit`), so the measured `wc`
    /// includes it, as the paper's prototypes' demands include their
    /// log writes.
    pub fn durability(mut self, durability: replipred_repl::DurabilityConfig) -> Self {
        self.cfg.durability = durability;
        self
    }

    /// Runs the full pipeline:
    ///
    /// 1. capture the log counts under the full mix (→ `Pr`, `Pw`,
    ///    `A1`, `U`, and `L(1)` from the measured update response time);
    /// 2. replay read-only transactions (→ `rc`; 0 when the capture
    ///    committed none);
    /// 3. replay update transactions (→ `wc`; 0 when it committed none);
    /// 4. replay writesets at the captured update rate (→ `ws`);
    /// 5. assemble the [`WorkloadProfile`].
    ///
    /// The workload is seeded once: the capture and both replays run on
    /// clones of one image.
    ///
    /// # Panics
    ///
    /// Panics if the assembled profile fails validation — that indicates a
    /// measurement-pipeline bug, not bad input.
    pub fn profile(&self) -> ProfileOutcome {
        let seeded = Seeded::install(&self.spec, self.cfg.seed_scale);
        let none = MeasuredDemands {
            cpu: 0.0,
            disk: 0.0,
            rate: 0.0,
        };

        // Step 1: capture.
        let (capture_run, db) = standalone::run(&seeded, &self.spec, &self.cfg, TxnFilter::All);
        let log_summary = summarize(&db.stats());

        // Step 2-3: replay the segments the capture saw. A segment with
        // no transactions to replay costs nothing and measures nothing.
        let replay =
            |filter| measure_transaction_demands_from(&seeded, &self.spec, &self.cfg, filter);
        let rc = if log_summary.pr > 0.0 {
            replay(TxnFilter::ReadsOnly)
        } else {
            none
        };
        let wc = if log_summary.pw > 0.0 {
            replay(TxnFilter::UpdatesOnly)
        } else {
            none
        };

        // Step 4: replay writesets at the captured update rate.
        let update_rate = capture_run.update_commits as f64 / self.cfg.duration;
        let ws = if update_rate > 0.0 && (self.spec.ws_cpu > 0.0 || self.spec.ws_disk > 0.0) {
            measure_writeset_demands(&self.spec, &self.cfg, update_rate)
        } else {
            none
        };

        // Step 5: assemble. L(1) is the loaded update response time in the
        // full mix (paper: "replay both read-only and update transactions
        // to measure L(1)").
        let l1 = if capture_run.update_commits > 0 {
            capture_run.update_response_time
        } else {
            0.0
        };
        let profile = WorkloadProfile {
            name: self.spec.name.clone(),
            pr: log_summary.pr,
            pw: log_summary.pw,
            a1: log_summary.a1,
            cpu: ResourceDemands {
                read: rc.cpu,
                write: wc.cpu,
                writeset: ws.cpu,
            },
            disk: ResourceDemands {
                read: rc.disk,
                write: wc.disk,
                writeset: ws.disk,
            },
            l1: l1.max(1e-6),
            update_ops: log_summary.mean_update_ops,
            db_update_size: self.spec.db_update_size as f64,
        };
        // Normalize tiny counting noise so Pr + Pw == 1 exactly.
        let mut profile = profile;
        let total = profile.pr + profile.pw;
        if total > 0.0 {
            profile.pr /= total;
            profile.pw /= total;
        }
        profile
            .validate()
            .expect("profiling pipeline produced a valid profile");
        ProfileOutcome {
            profile,
            log_summary,
            capture_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_workload::{rubis, tpcw};

    #[test]
    fn shopping_profile_recovers_published_parameters() {
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let outcome = Profiler::new(spec.clone()).seed(1).profile();
        let p = &outcome.profile;
        // Mix fractions within counting noise of Table 2.
        assert!((p.pr - 0.80).abs() < 0.03, "pr {}", p.pr);
        // Demands within 10% of Table 3 ground truth.
        let rel = (p.cpu.read - spec.mean_read_cpu()).abs() / spec.mean_read_cpu();
        assert!(rel < 0.10, "rc_cpu rel {rel}");
        let rel = (p.cpu.write - spec.mean_write_cpu()).abs() / spec.mean_write_cpu();
        assert!(rel < 0.10, "wc_cpu rel {rel}");
        let rel = (p.disk.writeset - spec.ws_disk).abs() / spec.ws_disk;
        assert!(rel < 0.15, "ws_disk rel {rel}");
        // U = 3 for TPC-W (2 or 4 writes, equal weight).
        assert!((p.update_ops - 3.0).abs() < 0.3, "U {}", p.update_ops);
        // L(1) at least the raw service time.
        assert!(p.l1 >= spec.mean_write_cpu() + spec.mean_write_disk() - 1e-9);
        // Standalone abort probability tiny, like the paper's < 0.023%.
        assert!(p.a1 < 0.01, "A1 {}", p.a1);
    }

    #[test]
    fn read_only_workload_profiles_cleanly() {
        let outcome = Profiler::new(rubis::mix(rubis::Mix::Browsing))
            .seed(2)
            .profile();
        let p = &outcome.profile;
        assert_eq!(p.pw, 0.0);
        assert_eq!(p.a1, 0.0);
        assert_eq!(p.cpu.write, 0.0);
        p.validate().unwrap();
    }

    #[test]
    fn update_only_workload_profiles_without_a_read_replay() {
        // No read-only class: the capture commits no read, so `rc` is 0
        // on both resources. A read replay of this mix could draw only
        // updates, and would report the update class's demand as `rc`.
        let spec = replipred_workload::synth::parse("pw=1").unwrap();
        let outcome = Profiler::new(spec).seed(5).profile();
        let p = &outcome.profile;
        assert_eq!((p.pr, p.pw), (0.0, 1.0));
        assert_eq!((p.cpu.read, p.disk.read), (0.0, 0.0));
        assert!(
            p.cpu.write > 0.0 && p.disk.write > 0.0,
            "wc {} / {}",
            p.cpu.write,
            p.disk.write
        );
        p.validate().unwrap();
    }

    #[test]
    fn profile_feeds_the_models() {
        // End-to-end: profile -> predict. The headline workflow of the
        // paper must typecheck *and* produce sane numbers.
        let outcome = Profiler::new(tpcw::mix(tpcw::Mix::Shopping))
            .seed(3)
            .profile();
        use replipred_core::Design;
        let config = replipred_core::SystemConfig::lan_cluster(40);
        let mm = Design::MultiMaster
            .predictor(outcome.profile.clone(), config.clone())
            .unwrap();
        let p1 = mm.predict(1).unwrap();
        let p8 = mm.predict(8).unwrap();
        assert!(p8.throughput_tps > 4.0 * p1.throughput_tps);
        let sm = Design::SingleMaster
            .predictor(outcome.profile, config)
            .unwrap();
        assert!(sm.predict(8).unwrap().throughput_tps > 0.0);
    }

    #[test]
    fn durable_profiling_puts_the_log_disk_term_in_wc() {
        use replipred_repl::DurabilityConfig;
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let plain = Profiler::new(spec.clone()).seed(4).profile();
        let durability = DurabilityConfig {
            enabled: true,
            group_commit: 4,
            fsync_disk: 0.004,
            log_retention: 0,
        };
        let durable = Profiler::new(spec).seed(4).durability(durability).profile();
        // The fsync_disk / group_commit = 1 ms surcharge lands in the
        // measured update disk demand: group commit is real work.
        assert!(
            durable.profile.disk.write > plain.profile.disk.write + 0.0005,
            "durable wc_disk {} vs plain {}",
            durable.profile.disk.write,
            plain.profile.disk.write
        );
        durable.profile.validate().unwrap();
    }

    #[test]
    fn profiling_is_deterministic() {
        let a = Profiler::new(tpcw::mix(tpcw::Mix::Ordering))
            .seed(9)
            .profile();
        let b = Profiler::new(tpcw::mix(tpcw::Mix::Ordering))
            .seed(9)
            .profile();
        assert_eq!(a.profile, b.profile);
    }
}
