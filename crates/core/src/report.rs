//! Model output types.

use serde::{Deserialize, Serialize};

/// The replication design a prediction refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// One standalone database, no replication.
    Standalone,
    /// Multi-master (certifier-based, Tashkent-style).
    MultiMaster,
    /// Single-master (master/slave, Ganymed-style).
    SingleMaster,
}

impl Design {
    /// Every design the workspace knows, in comparison order.
    pub const ALL: [Design; 3] = [
        Design::Standalone,
        Design::MultiMaster,
        Design::SingleMaster,
    ];

    /// Stable short key, as used by the CLI (`--design mm`).
    pub fn key(self) -> &'static str {
        match self {
            Design::Standalone => "standalone",
            Design::MultiMaster => "mm",
            Design::SingleMaster => "sm",
        }
    }

    /// Parses a CLI/user design key (short or long form).
    pub fn parse(s: &str) -> Option<Design> {
        match s {
            "standalone" | "sa" => Some(Design::Standalone),
            "mm" | "multi-master" | "multimaster" => Some(Design::MultiMaster),
            "sm" | "single-master" | "singlemaster" => Some(Design::SingleMaster),
            _ => None,
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A single point on a predicted scalability curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Replicated design.
    pub design: Design,
    /// Number of replicas `N` (single-master: 1 master + N-1 slaves).
    pub replicas: usize,
    /// Total clients driving the system (`N*C`).
    pub clients: usize,
    /// Predicted system throughput, committed transactions per second.
    pub throughput_tps: f64,
    /// Predicted average response time, seconds.
    pub response_time: f64,
    /// Predicted abort probability of update transactions
    /// (`A_N` for multi-master, `A'_N` for single-master).
    pub abort_rate: f64,
    /// Predicted conflict window `CW(N)`, seconds (multi-master) or the
    /// loaded master execution time (single-master).
    pub conflict_window: f64,
    /// Bottleneck-resource utilization in `[0,1]` (max over resources; for
    /// single-master this is the max over master and slave resources).
    pub bottleneck_utilization: f64,
    /// Name of the bottleneck resource (e.g. `"cpu"`, `"master-cpu"`).
    pub bottleneck: String,
}

impl Prediction {
    /// Speedup relative to a baseline point (typically `N = 1`).
    pub fn speedup_over(&self, baseline: &Prediction) -> f64 {
        if baseline.throughput_tps <= 0.0 {
            return f64::INFINITY;
        }
        self.throughput_tps / baseline.throughput_tps
    }
}

/// A full predicted scalability curve (one design, one workload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalabilityCurve {
    /// Workload name the curve was computed for.
    pub workload: String,
    /// The design the curve describes.
    pub design: Design,
    /// Points indexed by replica count (ascending).
    pub points: Vec<Prediction>,
}

impl ScalabilityCurve {
    /// The point for `n` replicas, if present.
    pub fn at(&self, n: usize) -> Option<&Prediction> {
        self.points.iter().find(|p| p.replicas == n)
    }

    /// Speedup of the last point over the first.
    pub fn total_speedup(&self) -> Option<f64> {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) => Some(last.speedup_over(first)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(n: usize, tps: f64) -> Prediction {
        Prediction {
            design: Design::MultiMaster,
            replicas: n,
            clients: n * 40,
            throughput_tps: tps,
            response_time: 0.1,
            abort_rate: 0.0,
            conflict_window: 0.05,
            bottleneck_utilization: 0.5,
            bottleneck: "cpu".into(),
        }
    }

    #[test]
    fn speedup_is_relative_throughput() {
        let base = point(1, 20.0);
        let p = point(8, 150.0);
        assert!((p.speedup_over(&base) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn curve_lookup_and_totals() {
        let curve = ScalabilityCurve {
            workload: "w".into(),
            design: Design::MultiMaster,
            points: (1..=4).map(|n| point(n, 20.0 * n as f64)).collect(),
        };
        assert_eq!(curve.at(3).unwrap().throughput_tps, 60.0);
        assert!(curve.at(9).is_none());
        assert!((curve.total_speedup().unwrap() - 4.0).abs() < 1e-12);
    }
}
