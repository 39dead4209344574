//! Operational laws of queueing analysis.
//!
//! These are the measurement-side identities ([Denning & Buzen 1978],
//! [Lazowska 1984] chapter 3) that both the profiler (Section 4 of the
//! paper: "The average service demand at a resource is the resource
//! utilization divided by the throughput") and the model solvers rely on.

/// Little's law solved for response time: `R = N / X`.
///
/// Returns `f64::INFINITY` when throughput is zero and the population is
/// positive, and `0.0` when both are zero.
pub fn littles_law_response(population: f64, throughput: f64) -> f64 {
    if throughput == 0.0 {
        if population == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        population / throughput
    }
}

/// Interactive response-time law for a closed system:
/// `R = N / X - Z`.
///
/// This is how the paper's models (and our reproduction) derive system
/// response time once MVA has produced the balanced throughput
/// ("The system response time is computed using Little's law", Section 3.2.2).
pub fn interactive_response_time(population: f64, throughput: f64, think_time: f64) -> f64 {
    littles_law_response(population, throughput) - think_time
}

/// The Utilization Law: `U = X * D`, solved for the demand `D = U / X`.
///
/// This is the exact measurement procedure the paper uses to derive
/// `rc`, `wc` and `ws` from a standalone profiling run.
///
/// Returns `0.0` when throughput is zero (an idle resource on an idle
/// system has no measurable demand).
pub fn demand_from_utilization(utilization: f64, throughput: f64) -> f64 {
    if throughput == 0.0 {
        0.0
    } else {
        utilization / throughput
    }
}

/// The Utilization Law forward: `U = X * D`.
pub fn utilization(throughput: f64, demand: f64) -> f64 {
    throughput * demand
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn littles_law_roundtrip() {
        let x = 123.4;
        let r = 0.321;
        let n = x * r;
        assert!((littles_law_response(n, x) - r).abs() < 1e-12);
    }

    #[test]
    fn littles_law_zero_throughput() {
        assert_eq!(littles_law_response(0.0, 0.0), 0.0);
        assert!(littles_law_response(5.0, 0.0).is_infinite());
    }

    #[test]
    fn interactive_law_matches_paper_setup() {
        // 40 clients, 1 s think time, 35 tps -> R = 40/35 - 1 s.
        let r = interactive_response_time(40.0, 35.0, 1.0);
        assert!((r - (40.0 / 35.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn utilization_law_roundtrip() {
        let d = demand_from_utilization(0.8, 40.0);
        assert!((d - 0.02).abs() < 1e-12);
        assert!((utilization(40.0, d) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn idle_system_has_zero_demand_estimate() {
        assert_eq!(demand_from_utilization(0.0, 0.0), 0.0);
    }
}
