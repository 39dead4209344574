//! Exact single-class Mean Value Analysis.
//!
//! The classic MVA recurrence ([Lazowska 1984], chapter 19; [Reiser &
//! Lavenberg 1980]) computes, for a closed separable network with `n`
//! clients:
//!
//! ```text
//! R_k(n) = D_k * (1 + Q_k(n-1))   queueing center
//! R_k(n) = D_k                    delay center
//! X(n)   = n / (Z + sum_k R_k(n))
//! Q_k(n) = X(n) * R_k(n)          (Little's law per center)
//! ```
//!
//! The paper's multi-master model needs one extension: the service demands
//! themselves depend on the conflict window `CW(N)`, which is approximated
//! from the *previous* MVA iteration's residence times (Section 4.1.1:
//! "Since the MVA algorithm iterates over the number of clients, we
//! approximate CW(N) at iteration i+1 by the sum of CPU, disk residence
//! time and certification time at iteration i"). [`solve_with_hook`]
//! exposes exactly that hook.

use serde::{Deserialize, Serialize};

use crate::error::MvaError;
use crate::network::{CenterKind, ClosedNetwork};

/// Per-center output metrics of an MVA solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CenterMetrics {
    /// Center name, copied from the network description.
    pub name: String,
    /// Demand in effect when the solution was computed (seconds). This can
    /// differ from the network's base demand when a hook rewrote it.
    pub demand: f64,
    /// Average residence time per transaction (seconds): queueing + service.
    pub residence: f64,
    /// Average number of clients at the center (queue length incl. service).
    pub queue_length: f64,
    /// Utilization in `[0, 1]` for queueing centers; for delay centers this
    /// is the average number of busy servers and may exceed 1.
    pub utilization: f64,
}

/// Result of solving a closed network at a fixed population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvaSolution {
    /// Client population the network was solved at.
    pub population: usize,
    /// System throughput in transactions per second.
    pub throughput: f64,
    /// Average response time (seconds): total residence excluding think time.
    pub response_time: f64,
    /// Think time used (seconds).
    pub think_time: f64,
    /// Per-center metrics, in network order.
    pub centers: Vec<CenterMetrics>,
}

impl MvaSolution {
    /// Utilization at the center named `name`, if it exists.
    pub fn utilization(&self, name: &str) -> Option<f64> {
        self.centers
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.utilization)
    }

    /// The bottleneck queueing center (highest utilization), if any.
    pub fn bottleneck(&self) -> Option<&CenterMetrics> {
        self.centers
            .iter()
            .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
    }
}

/// Solves the network exactly for `population` clients.
///
/// Runs the full recurrence from 1 to `population`; cost is
/// `O(population * centers)`.
///
/// # Errors
///
/// Returns [`MvaError::InvalidPopulation`] when `population` is zero.
///
/// # Examples
///
/// ```
/// use replipred_mva::{ClosedNetwork, exact};
///
/// // Single queueing center, no think time: X(n) saturates at 1/D.
/// let net = ClosedNetwork::builder().queueing("cpu", 0.1).build().unwrap();
/// let sol = exact::solve(&net, 100).unwrap();
/// assert!((sol.throughput - 10.0).abs() < 1e-9);
/// ```
pub fn solve(network: &ClosedNetwork, population: usize) -> Result<MvaSolution, MvaError> {
    if population == 0 {
        return Err(MvaError::InvalidPopulation(
            "population must be at least 1".into(),
        ));
    }
    // No hook reads the intermediate populations, so none is materialised
    // (a snapshot clones every center name).
    let mut state = Recurrence::new(network);
    for n in 1..=population {
        state.step(n, None);
    }
    Ok(state.snapshot(network, population))
}

/// Solves the network with a demand-rewrite hook invoked before each
/// population step.
///
/// The hook receives the population about to be computed and the previous
/// step's solution (`None` on the first step). Returning `Some(demands)`
/// replaces the per-center demands for this and subsequent steps (until
/// replaced again); returning `None` keeps the current demands.
///
/// This implements the paper's interleaved conflict-window fixed point: the
/// multi-master model recomputes `CW`, hence `A_N`, hence `D_MM(N)` from the
/// residence times of the previous client iteration.
///
/// # Errors
///
/// Returns [`MvaError::InvalidPopulation`] when `population` is zero and
/// [`MvaError::DimensionMismatch`] when the hook returns a demand vector of
/// the wrong length.
pub fn solve_with_hook<F>(
    network: &ClosedNetwork,
    population: usize,
    mut hook: F,
) -> Result<MvaSolution, MvaError>
where
    F: FnMut(usize, Option<&MvaSolution>) -> Option<Vec<f64>>,
{
    if population == 0 {
        return Err(MvaError::InvalidPopulation(
            "population must be at least 1".into(),
        ));
    }
    let mut state = Recurrence::new(network);
    let mut prev: Option<MvaSolution> = None;
    for n in 1..=population {
        let new_demands = hook(n, prev.as_ref());
        if let Some(d) = &new_demands {
            if d.len() != network.centers().len() {
                return Err(MvaError::DimensionMismatch {
                    got: d.len(),
                    expected: network.centers().len(),
                });
            }
            for (i, &v) in d.iter().enumerate() {
                if !v.is_finite() || v < 0.0 {
                    return Err(MvaError::InvalidDemand {
                        center: network.centers()[i].name.clone(),
                        value: v,
                    });
                }
            }
        }
        state.step(n, new_demands.as_deref());
        prev = Some(state.snapshot(network, n));
    }
    // `population >= 1` guarantees at least one iteration ran.
    Ok(prev.expect("at least one MVA step"))
}

/// Internal mutable state of the MVA recurrence.
struct Recurrence {
    kinds: Vec<CenterKind>,
    demands: Vec<f64>,
    queue: Vec<f64>,
    residence: Vec<f64>,
    think: f64,
    throughput: f64,
    response: f64,
}

impl Recurrence {
    fn new(network: &ClosedNetwork) -> Self {
        Recurrence {
            kinds: network.centers().iter().map(|c| c.kind).collect(),
            demands: network.centers().iter().map(|c| c.demand).collect(),
            queue: vec![0.0; network.centers().len()],
            residence: vec![0.0; network.centers().len()],
            think: network.think_time(),
            throughput: 0.0,
            response: 0.0,
        }
    }

    /// Advances the recurrence from population `n - 1` to `n`.
    fn step(&mut self, n: usize, new_demands: Option<&[f64]>) {
        if let Some(d) = new_demands {
            self.demands.copy_from_slice(d);
        }
        let mut total_r = 0.0;
        for k in 0..self.demands.len() {
            self.residence[k] = match self.kinds[k] {
                CenterKind::Queueing => self.demands[k] * (1.0 + self.queue[k]),
                CenterKind::Delay => self.demands[k],
            };
            total_r += self.residence[k];
        }
        let denom = self.think + total_r;
        // A network whose every demand is zero and think time is zero would
        // yield infinite throughput; clamp via the denominator guard.
        self.throughput = if denom > 0.0 {
            n as f64 / denom
        } else {
            f64::INFINITY
        };
        self.response = total_r;
        for k in 0..self.demands.len() {
            self.queue[k] = self.throughput * self.residence[k];
        }
    }

    fn snapshot(&self, network: &ClosedNetwork, n: usize) -> MvaSolution {
        let centers = network
            .centers()
            .iter()
            .enumerate()
            .map(|(k, c)| CenterMetrics {
                name: c.name.clone(),
                demand: self.demands[k],
                residence: self.residence[k],
                queue_length: self.queue[k],
                utilization: self.throughput * self.demands[k],
            })
            .collect();
        MvaSolution {
            population: n,
            throughput: self.throughput,
            response_time: self.response,
            think_time: self.think,
            centers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::network::ClosedNetwork;

    fn simple_net() -> ClosedNetwork {
        ClosedNetwork::builder()
            .queueing("cpu", 0.020)
            .queueing("disk", 0.008)
            .think_time(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn single_client_sees_raw_demands() {
        // With one client there is no queueing: R = D at every center.
        let net = simple_net();
        let sol = solve(&net, 1).unwrap();
        assert!((sol.response_time - 0.028).abs() < 1e-12);
        assert!((sol.throughput - 1.0 / 1.028).abs() < 1e-12);
    }

    #[test]
    fn saturates_at_bottleneck() {
        let net = simple_net();
        let sol = solve(&net, 2000).unwrap();
        assert!(
            (sol.throughput - 50.0).abs() < 0.05,
            "tput {}",
            sol.throughput
        );
        let cpu = sol.utilization("cpu").unwrap();
        assert!(cpu > 0.999);
    }

    #[test]
    fn delay_center_residence_is_constant() {
        let net = ClosedNetwork::builder()
            .queueing("cpu", 0.010)
            .delay("certifier", 0.012)
            .think_time(0.5)
            .build()
            .unwrap();
        for n in [1usize, 10, 100, 500] {
            let sol = solve(&net, n).unwrap();
            assert!((sol.centers[1].residence - 0.012).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_textbook_two_center_example() {
        // Lazowska-style check: balanced two-center network, D = 1.0 each,
        // no think time. For n clients and K balanced queueing centers,
        // X(n) = n / (K + n - 1)  (balanced-system closed form).
        let net = ClosedNetwork::builder()
            .queueing("a", 1.0)
            .queueing("b", 1.0)
            .think_time(0.0)
            .build()
            .unwrap();
        for n in 1..=50usize {
            let sol = solve(&net, n).unwrap();
            let expect = n as f64 / (2.0 + n as f64 - 1.0);
            assert!(
                (sol.throughput - expect).abs() < 1e-9,
                "n={n}: {} vs {expect}",
                sol.throughput
            );
        }
    }

    #[test]
    fn throughput_monotonic_in_population() {
        let net = simple_net();
        let mut previous = 0.0;
        for n in 1..=400usize {
            let x = solve(&net, n).unwrap().throughput;
            assert!(x >= previous - 1e-12, "n={n}: {x} < {previous}");
            previous = x;
        }
    }

    #[test]
    fn respects_asymptotic_bounds() {
        let net = simple_net();
        for n in [1usize, 5, 20, 100, 1000] {
            let sol = solve(&net, n).unwrap();
            let b = bounds::asymptotic(&net, n);
            assert!(sol.throughput <= b.throughput_upper + 1e-9);
            assert!(sol.throughput >= b.throughput_lower - 1e-9);
        }
    }

    #[test]
    fn littles_law_holds_systemwide() {
        // n = X * (R + Z) must hold exactly at every population.
        let net = simple_net();
        for n in [1usize, 7, 42, 321] {
            let sol = solve(&net, n).unwrap();
            let reconstructed = sol.throughput * (sol.response_time + sol.think_time);
            assert!((reconstructed - n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn queue_lengths_sum_to_population_minus_thinkers() {
        let net = simple_net();
        let sol = solve(&net, 100).unwrap();
        let in_centers: f64 = sol.centers.iter().map(|c| c.queue_length).sum();
        let thinking = sol.throughput * sol.think_time;
        assert!((in_centers + thinking - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_population_is_rejected() {
        let net = simple_net();
        assert!(matches!(
            solve(&net, 0),
            Err(MvaError::InvalidPopulation(_))
        ));
    }

    #[test]
    fn hook_can_rewrite_demands() {
        // Growing the CPU demand mid-recurrence must reduce throughput
        // relative to the base network.
        let net = simple_net();
        let base = solve(&net, 200).unwrap();
        let hooked = solve_with_hook(&net, 200, |n, _| {
            if n == 100 {
                Some(vec![0.040, 0.008])
            } else {
                None
            }
        })
        .unwrap();
        assert!(hooked.throughput < base.throughput);
        assert_eq!(hooked.centers[0].demand, 0.040);
        // A hook that rewrites nothing is the plain recurrence, bit for bit.
        assert_eq!(solve_with_hook(&net, 200, |_, _| None).unwrap(), base);
    }

    #[test]
    fn hook_dimension_mismatch_is_rejected() {
        let net = simple_net();
        let err = solve_with_hook(&net, 10, |_, _| Some(vec![0.1])).unwrap_err();
        assert!(matches!(err, MvaError::DimensionMismatch { .. }));
    }

    #[test]
    fn hook_invalid_demand_is_rejected() {
        let net = simple_net();
        let err = solve_with_hook(&net, 10, |_, _| Some(vec![f64::NAN, 0.1])).unwrap_err();
        assert!(matches!(err, MvaError::InvalidDemand { .. }));
    }

    #[test]
    fn bottleneck_identifies_highest_utilization() {
        let net = simple_net();
        let sol = solve(&net, 500).unwrap();
        assert_eq!(sol.bottleneck().unwrap().name, "cpu");
    }

    #[test]
    fn pure_delay_network_has_linear_throughput() {
        // With no queueing centers the network never saturates:
        // X(n) = n / (Z + D) for all n.
        let net = ClosedNetwork::builder()
            .delay("lan", 0.002)
            .think_time(0.998)
            .build()
            .unwrap();
        for n in [1usize, 10, 1000] {
            let sol = solve(&net, n).unwrap();
            assert!((sol.throughput - n as f64).abs() < 1e-9);
        }
    }
}
