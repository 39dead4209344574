//! Asymptotic and balanced-system bounds on closed-network performance.
//!
//! These bounds ([Lazowska 1984], chapter 5) cost O(centers) to evaluate and
//! bracket the exact MVA solution. They are the reference this crate's MVA
//! tests check solutions against: every exact solution must fall inside
//! its bounds. No model or planner calls them.

use serde::{Deserialize, Serialize};

use crate::network::ClosedNetwork;

/// Asymptotic throughput and response-time bounds at one population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsymptoticBounds {
    /// Population the bounds were evaluated at.
    pub population: usize,
    /// `X(n) <= min(1/Dmax, n/(D+Z))`.
    pub throughput_upper: f64,
    /// `X(n) >= n / (n*D + Z)` (every center fully serialized).
    pub throughput_lower: f64,
    /// `R(n) >= max(D, n*Dmax - Z)`.
    pub response_lower: f64,
    /// `R(n) <= n * D` (complete serialization).
    pub response_upper: f64,
}

/// Computes the classic asymptotic bounds for `population` clients.
///
/// `Dmax` only counts queueing centers: delay centers are infinite-server
/// and never limit throughput.
///
/// # Examples
///
/// ```
/// use replipred_mva::{bounds, ClosedNetwork};
///
/// let net = ClosedNetwork::builder()
///     .queueing("cpu", 0.02)
///     .think_time(1.0)
///     .build()
///     .unwrap();
/// let b = bounds::asymptotic(&net, 500);
/// assert!((b.throughput_upper - 50.0).abs() < 1e-12); // 1/Dmax
/// ```
pub fn asymptotic(network: &ClosedNetwork, population: usize) -> AsymptoticBounds {
    let n = population as f64;
    let d = network.total_demand();
    let z = network.think_time();
    let dmax = network.max_queueing_demand();
    let sat = if dmax > 0.0 {
        1.0 / dmax
    } else {
        f64::INFINITY
    };
    let light = if d + z > 0.0 {
        n / (d + z)
    } else {
        f64::INFINITY
    };
    AsymptoticBounds {
        population,
        throughput_upper: sat.min(light),
        throughput_lower: if n * d + z > 0.0 {
            n / (n * d + z)
        } else {
            f64::INFINITY
        },
        response_lower: d.max(n * dmax - z),
        response_upper: n * d,
    }
}

/// Balanced-system throughput bounds (tighter than asymptotic when all
/// queueing demands are similar).
///
/// For a batch network (`Z == 0`) with total demand `D`, bottleneck demand
/// `Dmax` and average queueing demand `Davg` ([Lazowska 1984], §5.4):
///
/// ```text
/// n / (D + (n-1)*Dmax)  <=  X(n)  <=  n / (D + (n-1)*Davg)
/// ```
///
/// since for a fixed total demand the balanced configuration maximizes
/// throughput. With a nonzero think time the upper refinement is not valid
/// in general, so we fall back to the asymptotic upper bound; the lower
/// bound `n / (D + Z + (n-1)*Dmax)` remains valid (it assumes worst-case
/// queueing of all other clients at the bottleneck).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalancedBounds {
    /// Population the bounds were evaluated at.
    pub population: usize,
    /// Upper bound on throughput.
    pub throughput_upper: f64,
    /// Lower bound on throughput.
    pub throughput_lower: f64,
}

/// Computes balanced-system bounds for `population` clients.
pub fn balanced(network: &ClosedNetwork, population: usize) -> BalancedBounds {
    let n = population as f64;
    let d = network.total_demand();
    let z = network.think_time();
    let dmax = network.max_queueing_demand();
    let queueing: Vec<f64> = network
        .centers()
        .iter()
        .filter(|c| c.kind == crate::network::CenterKind::Queueing)
        .map(|c| c.demand)
        .collect();
    if queueing.is_empty() {
        let x = if d + z > 0.0 {
            n / (d + z)
        } else {
            f64::INFINITY
        };
        return BalancedBounds {
            population,
            throughput_upper: x,
            throughput_lower: x,
        };
    }
    let davg = queueing.iter().sum::<f64>() / queueing.len() as f64;
    let saturation = if dmax > 0.0 {
        1.0 / dmax
    } else {
        f64::INFINITY
    };
    let upper = if z == 0.0 {
        (n / (d + (n - 1.0) * davg)).min(saturation)
    } else {
        // Fall back to the asymptotic upper bound when think time is present.
        saturation.min(n / (d + z))
    };
    let lower = n / (d + z + (n - 1.0) * dmax);
    BalancedBounds {
        population,
        throughput_upper: upper,
        throughput_lower: lower,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;

    fn net() -> ClosedNetwork {
        ClosedNetwork::builder()
            .queueing("cpu", 0.022)
            .queueing("disk", 0.013)
            .delay("cert", 0.012)
            .think_time(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_solution_within_asymptotic_bounds() {
        let net = net();
        for n in 1..=300usize {
            let sol = exact::solve(&net, n).unwrap();
            let b = asymptotic(&net, n);
            assert!(sol.throughput <= b.throughput_upper + 1e-9, "n={n}");
            assert!(sol.throughput >= b.throughput_lower - 1e-9, "n={n}");
            assert!(sol.response_time <= b.response_upper + 1e-9, "n={n}");
            assert!(sol.response_time >= b.response_lower - 1e-9, "n={n}");
        }
    }

    #[test]
    fn balanced_bounds_bracket_exact() {
        let net = net();
        for n in [1usize, 10, 50, 200] {
            let sol = exact::solve(&net, n).unwrap();
            let b = balanced(&net, n);
            assert!(sol.throughput <= b.throughput_upper + 1e-9, "n={n}");
            assert!(sol.throughput >= b.throughput_lower - 1e-9, "n={n}");
        }
    }

    #[test]
    fn delay_only_network_keeps_the_light_load_bound() {
        let net = ClosedNetwork::builder()
            .delay("lan", 0.001)
            .think_time(1.0)
            .build()
            .unwrap();
        let b = asymptotic(&net, 10);
        assert!(b.throughput_upper.is_finite()); // light-load bound still applies
    }
}
