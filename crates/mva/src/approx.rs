//! Approximate MVA solvers (Schweitzer / Bard).
//!
//! Exact multiclass MVA costs `O(K * prod_c (N_c + 1))`, which explodes for
//! large client populations. The Schweitzer approximation replaces the
//! lattice recursion with a fixed point on the *full-population* queue
//! lengths:
//!
//! ```text
//! Q_{d,k}(N - e_c) ~= Q_{d,k}(N)                     d != c
//! Q_{c,k}(N - e_c) ~= Q_{c,k}(N) * (N_c - 1) / N_c
//! ```
//!
//! iterated until the queue lengths stabilize. Accuracy is typically within
//! a few percent of exact; the tests cross-validate both solvers.

use crate::error::MvaError;
use crate::multiclass::{MulticlassNetwork, MulticlassSolution};
use crate::network::{CenterKind, ClosedNetwork};
use crate::MvaSolution;

/// Maximum fixed-point iterations before declaring non-convergence.
const MAX_ITERS: usize = 100_000;

/// Convergence threshold on the largest queue-length change.
const EPSILON: f64 = 1e-10;

/// Solves a single-class network with the Schweitzer approximation.
///
/// # Errors
///
/// Returns [`MvaError::InvalidPopulation`] for zero population and
/// [`MvaError::NoConvergence`] if the fixed point fails to stabilize.
///
/// # Examples
///
/// ```
/// use replipred_mva::{approx, exact, ClosedNetwork};
///
/// let net = ClosedNetwork::builder()
///     .queueing("cpu", 0.02)
///     .queueing("disk", 0.01)
///     .think_time(1.0)
///     .build()
///     .unwrap();
/// let a = approx::solve_single(&net, 80).unwrap();
/// let e = exact::solve(&net, 80).unwrap();
/// assert!((a.throughput - e.throughput).abs() / e.throughput < 0.03);
/// ```
pub fn solve_single(network: &ClosedNetwork, population: usize) -> Result<MvaSolution, MvaError> {
    if population == 0 {
        return Err(MvaError::InvalidPopulation(
            "population must be at least 1".into(),
        ));
    }
    let n = population as f64;
    let centers = network.centers();
    let k_count = centers.len();
    // Initial guess: clients spread evenly over queueing centers.
    let queueing_count = centers
        .iter()
        .filter(|c| c.kind == CenterKind::Queueing)
        .count()
        .max(1);
    let mut q = vec![n / queueing_count as f64; k_count];
    let mut residence = vec![0.0f64; k_count];
    let correction = (n - 1.0) / n;

    for _ in 0..MAX_ITERS {
        let mut r_total = 0.0;
        for (k, c) in centers.iter().enumerate() {
            residence[k] = match c.kind {
                CenterKind::Queueing => c.demand * (1.0 + q[k] * correction),
                CenterKind::Delay => c.demand,
            };
            r_total += residence[k];
        }
        let denom = network.think_time() + r_total;
        let throughput = if denom > 0.0 {
            n / denom
        } else {
            f64::INFINITY
        };
        let mut delta: f64 = 0.0;
        for k in 0..k_count {
            let new_q = throughput * residence[k];
            delta = delta.max((new_q - q[k]).abs());
            q[k] = new_q;
        }
        if delta < EPSILON {
            let response: f64 = residence.iter().sum();
            let center_metrics = centers
                .iter()
                .enumerate()
                .map(|(k, c)| crate::exact::CenterMetrics {
                    name: c.name.clone(),
                    demand: c.demand,
                    residence: residence[k],
                    queue_length: q[k],
                    utilization: throughput * c.demand,
                })
                .collect();
            return Ok(MvaSolution {
                population,
                throughput,
                response_time: response,
                think_time: network.think_time(),
                centers: center_metrics,
            });
        }
    }
    Err(MvaError::NoConvergence {
        iterations: MAX_ITERS,
        residual: EPSILON,
    })
}

/// Solves a multiclass network with the Schweitzer approximation.
///
/// Classes with zero population are carried through with zero throughput;
/// their residence and response times are what a first client would see.
///
/// # Errors
///
/// Returns [`MvaError::DimensionMismatch`] when the population vector has
/// the wrong length and [`MvaError::NoConvergence`] when the fixed point
/// does not stabilize.
pub fn solve_multiclass(
    network: &MulticlassNetwork,
    population: &[usize],
) -> Result<MulticlassSolution, MvaError> {
    let real: Vec<f64> = population.iter().map(|&p| p as f64).collect();
    let mut ws = Schweitzer::default();
    ws.solve(network, &real)?;
    let (classes, centers) = (network.classes(), network.centers());
    Ok(MulticlassSolution {
        population: population.to_vec(),
        queue_length: (0..centers)
            .map(|k| ws.q.iter().skip(k).step_by(centers).sum())
            .collect(),
        utilization: (0..centers).map(|k| ws.utilization(network, k)).collect(),
        residence: (0..classes)
            .map(|c| ws.residence[c * centers..(c + 1) * centers].to_vec())
            .collect(),
        throughput: ws.throughput,
        response_time: ws.response,
    })
}

/// The multiclass Schweitzer fixed point on caller-held state, for
/// solvers that evaluate one network shape at hundreds of nearby
/// populations (the single-master model's root-finds).
///
/// [`Schweitzer::solve`] allocates only when the network's shape differs
/// from the previous call's, and starts from the queue lengths the
/// previous call converged to instead of the uniform guess: the
/// iteration converges linearly, so a start that is already close saves
/// most of its rounds. Populations are real-valued — the arriving-customer
/// correction `(n−1)/n` is clamped at zero below one client — because a
/// balanced client split is rarely integral.
#[derive(Debug, Clone, Default)]
pub struct Schweitzer {
    centers: usize,
    /// `q[c·K + k]` — queue length of class `c` at center `k`.
    q: Vec<f64>,
    /// `residence[c·K + k]`, same layout.
    residence: Vec<f64>,
    throughput: Vec<f64>,
    response: Vec<f64>,
}

impl Schweitzer {
    /// Solves `network` at `population`, leaving the solution in `self`.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::DimensionMismatch`] for a wrong-length
    /// population vector, [`MvaError::InvalidPopulation`] for negative or
    /// non-finite entries and [`MvaError::NoConvergence`] when the fixed
    /// point fails (the next call then starts cold).
    pub fn solve(
        &mut self,
        network: &MulticlassNetwork,
        population: &[f64],
    ) -> Result<(), MvaError> {
        let classes = network.classes();
        let centers = network.centers();
        if population.len() != classes {
            return Err(MvaError::DimensionMismatch {
                got: population.len(),
                expected: classes,
            });
        }
        for &p in population {
            if !p.is_finite() || p < 0.0 {
                return Err(MvaError::InvalidPopulation(format!(
                    "population must be finite and non-negative, got {p}"
                )));
            }
        }
        if self.centers != centers || self.throughput.len() != classes {
            // Cold start: each class spread uniformly over the centers.
            self.centers = centers;
            self.q.clear();
            for &pop in population {
                self.q
                    .extend(std::iter::repeat(pop / centers as f64).take(centers));
            }
            self.residence = vec![0.0; classes * centers];
            self.throughput = vec![0.0; classes];
            self.response = vec![0.0; classes];
        }
        for _ in 0..MAX_ITERS {
            for (c, &pop) in population.iter().enumerate() {
                // Share of its own queue an arriving client sees; none
                // below one client, so an empty class is its first arrival.
                let own = ((pop - 1.0) / pop).max(0.0);
                let mut r_total = 0.0;
                for (k, kind) in network.center_kinds().iter().enumerate() {
                    let d = network.demand(c, k);
                    let r = match kind {
                        CenterKind::Queueing => {
                            // Estimated queue seen on arrival of a class-c client.
                            let mut seen = 0.0;
                            for d_class in 0..classes {
                                let qd = self.q[d_class * centers + k];
                                seen += if d_class == c { qd * own } else { qd };
                            }
                            d * (1.0 + seen)
                        }
                        CenterKind::Delay => d,
                    };
                    self.residence[c * centers + k] = r;
                    r_total += r;
                }
                self.throughput[c] = if pop > 0.0 {
                    pop / (network.think_time(c) + r_total)
                } else {
                    0.0
                };
                self.response[c] = r_total;
            }
            let mut delta: f64 = 0.0;
            for c in 0..classes {
                for k in 0..centers {
                    let new_q = self.throughput[c] * self.residence[c * centers + k];
                    delta = delta.max((new_q - self.q[c * centers + k]).abs());
                    self.q[c * centers + k] = new_q;
                }
            }
            if delta < EPSILON {
                return Ok(());
            }
        }
        // Whatever the iteration left behind is no starting point.
        self.centers = 0;
        Err(MvaError::NoConvergence {
            iterations: MAX_ITERS,
            residual: EPSILON,
        })
    }

    /// Throughput per class (transactions per second).
    pub fn throughput(&self) -> &[f64] {
        &self.throughput
    }

    /// Response time per class (seconds, excluding think time); for an
    /// empty class, what its first client would see.
    pub fn response_time(&self) -> &[f64] {
        &self.response
    }

    /// Total utilization of center `k` (sum over classes).
    pub fn utilization(&self, network: &MulticlassNetwork, k: usize) -> f64 {
        (self.throughput.iter().enumerate())
            .map(|(c, x)| x * network.demand(c, k))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::multiclass;

    #[test]
    fn single_class_close_to_exact() {
        let net = ClosedNetwork::builder()
            .queueing("cpu", 0.0414)
            .queueing("disk", 0.0151)
            .delay("cert", 0.012)
            .think_time(1.0)
            .build()
            .unwrap();
        for n in [1usize, 10, 40, 160, 640] {
            let a = solve_single(&net, n).unwrap();
            let e = exact::solve(&net, n).unwrap();
            let rel = (a.throughput - e.throughput).abs() / e.throughput;
            assert!(rel < 0.05, "n={n} rel err {rel}");
        }
    }

    #[test]
    fn single_class_exact_at_population_one() {
        // With n=1 the Schweitzer correction (n-1)/n vanishes: exact result.
        let net = ClosedNetwork::builder()
            .queueing("cpu", 0.3)
            .queueing("disk", 0.2)
            .think_time(2.0)
            .build()
            .unwrap();
        let a = solve_single(&net, 1).unwrap();
        let e = exact::solve(&net, 1).unwrap();
        assert!((a.throughput - e.throughput).abs() < 1e-9);
    }

    #[test]
    fn multiclass_close_to_exact() {
        let net = MulticlassNetwork::new(
            vec![
                ("cpu".into(), CenterKind::Queueing),
                ("disk".into(), CenterKind::Queueing),
            ],
            vec![vec![0.020, 0.008], vec![0.012, 0.006]],
            vec![1.0, 1.0],
        )
        .unwrap();
        for pops in [[10usize, 5], [40, 40], [100, 20]] {
            let a = solve_multiclass(&net, &pops).unwrap();
            let e = multiclass::solve_exact(&net, &pops).unwrap();
            for c in 0..2 {
                let rel = (a.throughput[c] - e.throughput[c]).abs() / e.throughput[c];
                assert!(rel < 0.06, "pops={pops:?} class={c} rel={rel}");
            }
        }
    }

    #[test]
    fn multiclass_zero_population_class() {
        let net = MulticlassNetwork::new(
            vec![("cpu".into(), CenterKind::Queueing)],
            vec![vec![0.02], vec![0.01]],
            vec![1.0, 1.0],
        )
        .unwrap();
        let sol = solve_multiclass(&net, &[30, 0]).unwrap();
        assert_eq!(sol.throughput[1], 0.0);
        assert!(sol.throughput[0] > 0.0);
    }

    #[test]
    fn multiclass_all_zero_population() {
        let net = MulticlassNetwork::new(
            vec![("cpu".into(), CenterKind::Queueing)],
            vec![vec![0.02]],
            vec![1.0],
        )
        .unwrap();
        let sol = solve_multiclass(&net, &[0]).unwrap();
        assert_eq!(sol.total_throughput(), 0.0);
    }

    #[test]
    fn a_reused_workspace_lands_on_the_cold_solution() {
        let net = MulticlassNetwork::new(
            vec![
                ("cpu".into(), CenterKind::Queueing),
                ("disk".into(), CenterKind::Queueing),
                ("lb".into(), CenterKind::Delay),
            ],
            vec![vec![0.0414, 0.0151, 0.001], vec![0.0125, 0.0061, 0.001]],
            vec![1.0, 1.0],
        )
        .unwrap();
        let mut warm = Schweitzer::default();
        // Fractional, sub-unit and emptied classes, each from the state
        // the previous population left.
        for pops in [
            [80.0, 40.0],
            [80.5, 39.5],
            [0.4, 120.0],
            [0.0, 17.25],
            [33.0, 0.0],
        ] {
            warm.solve(&net, &pops).unwrap();
            let mut cold = Schweitzer::default();
            cold.solve(&net, &pops).unwrap();
            for c in 0..2 {
                let (w, k) = (warm.throughput()[c], cold.throughput()[c]);
                assert!(
                    (w - k).abs() <= 1e-8 * k.max(1.0),
                    "{pops:?} class {c}: {w} vs {k}"
                );
                let (w, k) = (warm.response_time()[c], cold.response_time()[c]);
                assert!((w - k).abs() <= 1e-8, "{pops:?} class {c}: {w} vs {k}");
                // Little's law per class; an empty one answers for its
                // first arrival.
                let held = warm.throughput()[c] * (1.0 + w);
                assert!(
                    (held - pops[c]).abs() < 1e-8 && w > 0.0,
                    "{pops:?} class {c}"
                );
            }
            assert!(warm.utilization(&net, 0) <= 1.0 + 1e-6);
        }
        assert!(warm.solve(&net, &[1.0]).is_err());
        assert!(warm.solve(&net, &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn scales_to_large_populations() {
        // 5000 clients would be a 25M-point lattice for exact 2-class MVA;
        // Schweitzer handles it instantly.
        let net = MulticlassNetwork::new(
            vec![
                ("cpu".into(), CenterKind::Queueing),
                ("disk".into(), CenterKind::Queueing),
            ],
            vec![vec![0.004, 0.002], vec![0.003, 0.002]],
            vec![1.0, 1.0],
        )
        .unwrap();
        let sol = solve_multiclass(&net, &[2500, 2500]).unwrap();
        // CPU-bound: combined utilization ~ 1.
        assert!(sol.utilization[0] > 0.98 && sol.utilization[0] <= 1.0 + 1e-6);
    }
}
