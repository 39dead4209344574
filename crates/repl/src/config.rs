//! Simulation run configuration.

use replipred_core::Schedule;
use serde::{Deserialize, Serialize};

/// Durability knobs: the group-committed redo log and checkpoint cadence
/// of each replica's `sidb` engine.
///
/// Default **off** — a durability-free run is byte-identical to builds
/// that predate the WAL. When enabled, every update commit pays an
/// amortized group-commit disk term
/// ([`DurabilityConfig::log_disk_demand`]) and crashed replicas rejoin
/// by recovering from their checkpoint + log instead of receiving a full
/// state transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Master switch: log commits and recover replicas from durable state.
    #[serde(default)]
    pub enabled: bool,
    /// Commits per sealed redo-log group (one simulated fsync per
    /// group). Larger groups amortize the fsync further but lose more on
    /// a crash.
    #[serde(default = "default_group_commit")]
    pub group_commit: usize,
    /// Disk demand of one fsync, seconds. The per-commit surcharge is
    /// `fsync_disk / group_commit`.
    #[serde(default = "default_fsync_disk")]
    pub fsync_disk: f64,
    /// Writesets retained in the run's writeset log — the single-master
    /// relay log or the multi-master certifier log — past the slowest
    /// replica (0 = unbounded). Rejoiners whose applied index predates
    /// the truncation point fall back to a checkpoint state transfer.
    #[serde(default)]
    pub log_retention: u64,
}

fn default_group_commit() -> usize {
    8
}

fn default_fsync_disk() -> f64 {
    0.002
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: false,
            group_commit: default_group_commit(),
            fsync_disk: default_fsync_disk(),
            log_retention: 0,
        }
    }
}

impl DurabilityConfig {
    /// The amortized per-update-commit disk demand of the redo log:
    /// `fsync_disk / group_commit` when enabled, zero otherwise. The
    /// kernel adds it to every update commit's and writeset apply's disk
    /// demand, so a durable profile measures it inside `wc`.
    pub fn log_disk_demand(&self) -> f64 {
        if self.enabled {
            self.fsync_disk / self.group_commit.max(1) as f64
        } else {
            0.0
        }
    }
}

/// Parameters of one simulated cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of replicas `N` (single-master: 1 master + N-1 slaves).
    pub replicas: usize,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Warm-up, virtual seconds: activity before this instant is
    /// discarded (the paper warms up for 10 minutes).
    pub warmup: f64,
    /// Measurement window, virtual seconds (the paper measures 15 minutes).
    pub duration: f64,
    /// Certifier round-trip delay, seconds (paper: 12 ms, Section 6.3.2).
    pub certifier_delay: f64,
    /// Load-balancer + LAN one-way delay, seconds (paper: ~1 ms).
    pub lb_delay: f64,
    /// Seed scale for read-only tables (1.0 = benchmark standard). The
    /// updatable tables are always seeded fully — conflict behaviour
    /// depends on their exact sizes.
    pub seed_scale: f64,
    /// Vacuum interval, virtual seconds (version GC on every replica).
    pub vacuum_interval: f64,
    /// Multiprogramming level: maximum transactions concurrently
    /// *executing* on one node. Arrivals beyond it queue in the middleware
    /// (connection pool) without an open snapshot. This is the admission
    /// control of the paper's assumption 5 ("mechanisms that prevent
    /// over-subscription of physical resources ... admission control
    /// policies"); without it, a saturated node accumulates hundreds of
    /// open snapshots and the conflict window diverges.
    pub mpl: usize,
    /// Time-phased schedule: fault injections, elasticity ramps, and
    /// transient-report windowing. The default (empty) schedule leaves
    /// the run a pure steady-state experiment with byte-identical
    /// reports to a schedule-free build.
    #[serde(default)]
    pub schedule: Schedule,
    /// Redo-log durability (WAL + checkpoints). Default off; see
    /// [`DurabilityConfig`].
    #[serde(default)]
    pub durability: DurabilityConfig,
}

impl SimConfig {
    /// Paper-like windows: 10-minute warm-up and 15-minute measurement.
    pub fn paper(replicas: usize, seed: u64) -> Self {
        SimConfig {
            replicas,
            seed,
            warmup: 600.0,
            duration: 900.0,
            certifier_delay: 0.012,
            lb_delay: 0.001,
            seed_scale: 0.01,
            vacuum_interval: 10.0,
            mpl: 32,
            schedule: Schedule::default(),
            durability: DurabilityConfig::default(),
        }
    }

    /// Short windows for tests and quick sweeps: 20 s warm-up, 60 s
    /// measurement.
    pub fn quick(replicas: usize, seed: u64) -> Self {
        SimConfig {
            warmup: 20.0,
            duration: 60.0,
            ..Self::paper(replicas, seed)
        }
    }

    /// Total virtual time simulated.
    pub fn end_time(&self) -> f64 {
        self.warmup + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let p = SimConfig::paper(8, 1);
        assert_eq!(p.replicas, 8);
        assert_eq!(p.end_time(), 1500.0);
        let q = SimConfig::quick(2, 1);
        assert_eq!(q.end_time(), 80.0);
        assert_eq!(q.certifier_delay, 0.012);
    }

    #[test]
    fn durability_defaults_off_with_zero_disk_term() {
        let d = DurabilityConfig::default();
        assert!(!d.enabled);
        assert_eq!(d.log_disk_demand(), 0.0);
        let on = DurabilityConfig {
            enabled: true,
            group_commit: 8,
            fsync_disk: 0.002,
            log_retention: 0,
        };
        assert!((on.log_disk_demand() - 0.00025).abs() < 1e-12);
    }

    #[test]
    fn configs_without_durability_keys_deserialize() {
        // Pre-durability configs (and goldens) must keep loading.
        let json = serde_json::to_string(&SimConfig::quick(2, 1)).unwrap();
        // Splice the `"durability":{...}` member out textually — the
        // object is flat, so the first `}` after the key closes it.
        let start = json.find(",\"durability\":{").expect("durability key");
        let end = start + json[start..].find('}').expect("closing brace") + 1;
        let trimmed = format!("{}{}", &json[..start], &json[end..]);
        let cfg: SimConfig = serde_json::from_str(&trimmed).unwrap();
        assert_eq!(cfg.durability, DurabilityConfig::default());
    }
}
