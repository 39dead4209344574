//! Exact multiclass Mean Value Analysis.
//!
//! The single-master balancing algorithm (paper Figure 3) calls
//! `Master.MVA(readClients, writeClients)`: the master station serves two
//! workload classes — update transactions (always) and extra read-only
//! transactions (when the master has spare capacity). That requires a
//! multiclass closed-network solver.
//!
//! The exact algorithm ([Reiser & Lavenberg 1980]) evaluates the MVA
//! recurrence over the whole population lattice `{0..N_1} x ... x {0..N_C}`:
//!
//! ```text
//! R_{c,k}(n) = D_{c,k} * (1 + Q_k(n - e_c))   queueing center
//! R_{c,k}(n) = D_{c,k}                        delay center
//! X_c(n)     = n_c / (Z_c + sum_k R_{c,k}(n))
//! Q_k(n)     = sum_c X_c(n) * R_{c,k}(n)
//! ```
//!
//! Cost is `O(K * prod_c (N_c + 1))`; fine for the paper's populations
//! (tens to hundreds of clients in two classes). For larger populations use
//! [`crate::approx::solve_multiclass`] (Schweitzer), which this module's
//! tests cross-validate against.

use serde::{Deserialize, Serialize};

use crate::error::MvaError;
use crate::network::CenterKind;

/// Upper limit on the population-lattice size for the exact solver.
///
/// Beyond this the DP table would exceed a few hundred MB; callers should
/// switch to the approximate solver.
pub const MAX_LATTICE: usize = 32_000_000;

/// A closed queueing network with several client classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticlassNetwork {
    center_kinds: Vec<CenterKind>,
    /// `demands[c][k]` — demand of class `c` at center `k`, seconds.
    demands: Vec<Vec<f64>>,
    /// Per-class think time, seconds.
    think_times: Vec<f64>,
}

impl MulticlassNetwork {
    /// Creates a multiclass network.
    ///
    /// `demands[c][k]` is the total service demand of class `c` at center
    /// `k`; `think_times[c]` is the class think time.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::EmptyNetwork`] for zero centers or classes,
    /// [`MvaError::DimensionMismatch`] for ragged demand rows and
    /// [`MvaError::InvalidDemand`] / [`MvaError::InvalidThinkTime`] for
    /// non-finite or negative values.
    pub fn new(
        centers: Vec<(String, CenterKind)>,
        demands: Vec<Vec<f64>>,
        think_times: Vec<f64>,
    ) -> Result<Self, MvaError> {
        if centers.is_empty() || demands.is_empty() {
            return Err(MvaError::EmptyNetwork);
        }
        if demands.len() != think_times.len() {
            return Err(MvaError::DimensionMismatch {
                got: think_times.len(),
                expected: demands.len(),
            });
        }
        for row in &demands {
            if row.len() != centers.len() {
                return Err(MvaError::DimensionMismatch {
                    got: row.len(),
                    expected: centers.len(),
                });
            }
            for (k, &d) in row.iter().enumerate() {
                if !d.is_finite() || d < 0.0 {
                    return Err(MvaError::InvalidDemand {
                        center: centers[k].0.clone(),
                        value: d,
                    });
                }
            }
        }
        for &z in &think_times {
            if !z.is_finite() || z < 0.0 {
                return Err(MvaError::InvalidThinkTime(z));
            }
        }
        Ok(MulticlassNetwork {
            center_kinds: centers.into_iter().map(|(_, kind)| kind).collect(),
            demands,
            think_times,
        })
    }

    /// Number of workload classes.
    pub fn classes(&self) -> usize {
        self.demands.len()
    }

    /// Number of service centers.
    pub fn centers(&self) -> usize {
        self.center_kinds.len()
    }

    /// Center kinds in solver order.
    pub fn center_kinds(&self) -> &[CenterKind] {
        &self.center_kinds
    }

    /// Demand of class `c` at center `k`.
    pub fn demand(&self, class: usize, center: usize) -> f64 {
        self.demands[class][center]
    }

    /// Think time of class `c`.
    pub fn think_time(&self, class: usize) -> f64 {
        self.think_times[class]
    }
}

/// Solution of a multiclass network at a fixed population vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticlassSolution {
    /// Population per class.
    pub population: Vec<usize>,
    /// Throughput per class (transactions per second).
    pub throughput: Vec<f64>,
    /// Response time per class (seconds, excluding think time).
    pub response_time: Vec<f64>,
    /// `queue_length[k]` — total average queue length at center `k`.
    pub queue_length: Vec<f64>,
    /// `utilization[k]` — total utilization at center `k` (sum over classes).
    pub utilization: Vec<f64>,
    /// `residence[c][k]` — residence time of class `c` at center `k`.
    pub residence: Vec<Vec<f64>>,
}

impl MulticlassSolution {
    /// Total system throughput (all classes).
    pub fn total_throughput(&self) -> f64 {
        self.throughput.iter().sum()
    }
}

/// Solves the network exactly at the given population vector.
///
/// # Errors
///
/// Returns [`MvaError::DimensionMismatch`] if `population.len()` differs
/// from the class count and [`MvaError::InvalidPopulation`] if the lattice
/// would exceed [`MAX_LATTICE`] points.
///
/// A population of all zeros yields a zero-throughput solution (useful for
/// the balancing algorithm's degenerate corners).
pub fn solve_exact(
    network: &MulticlassNetwork,
    population: &[usize],
) -> Result<MulticlassSolution, MvaError> {
    let classes = network.classes();
    let centers = network.centers();
    if population.len() != classes {
        return Err(MvaError::DimensionMismatch {
            got: population.len(),
            expected: classes,
        });
    }
    // Lattice dimensions: N_c + 1 points per class.
    let dims: Vec<usize> = population.iter().map(|&n| n + 1).collect();
    let lattice: usize = dims.iter().product();
    if lattice > MAX_LATTICE {
        return Err(MvaError::InvalidPopulation(format!(
            "population lattice {lattice} exceeds MAX_LATTICE {MAX_LATTICE}; \
             use the approximate multiclass solver"
        )));
    }

    // Strides for mixed-radix indexing of the lattice.
    let mut strides = vec![1usize; classes];
    for c in (0..classes.saturating_sub(1)).rev() {
        strides[c] = strides[c + 1] * dims[c + 1];
    }
    let index = |n: &[usize]| -> usize { n.iter().zip(&strides).map(|(v, s)| v * s).sum() };

    // Q[k] per lattice point.
    let mut q = vec![0.0f64; lattice * centers];

    // Iterate lattice points in odometer order; all coordinates ascend, so
    // `n - e_c` has already been computed when `n` is visited.
    let mut n = vec![0usize; classes];
    let mut residence = vec![vec![0.0f64; centers]; classes];
    let mut throughput = vec![0.0f64; classes];
    let mut response = vec![0.0f64; classes];

    loop {
        let idx = index(&n);
        if n.iter().any(|&v| v > 0) {
            // Compute R, X for this population.
            for c in 0..classes {
                if n[c] == 0 {
                    throughput[c] = 0.0;
                    response[c] = 0.0;
                    residence[c].iter_mut().for_each(|r| *r = 0.0);
                    continue;
                }
                let mut nm = n.clone();
                nm[c] -= 1;
                let idx_m = index(&nm);
                let mut r_total = 0.0;
                for k in 0..centers {
                    let d = network.demand(c, k);
                    let r = match network.center_kinds()[k] {
                        CenterKind::Queueing => d * (1.0 + q[idx_m * centers + k]),
                        CenterKind::Delay => d,
                    };
                    residence[c][k] = r;
                    r_total += r;
                }
                let denom = network.think_time(c) + r_total;
                throughput[c] = if denom > 0.0 {
                    n[c] as f64 / denom
                } else {
                    f64::INFINITY
                };
                response[c] = r_total;
            }
            for k in 0..centers {
                let mut qk = 0.0;
                for c in 0..classes {
                    qk += throughput[c] * residence[c][k];
                }
                q[idx * centers + k] = qk;
            }
        }
        // Odometer increment bounded by `population`.
        let mut c = classes;
        loop {
            if c == 0 {
                // Full lattice traversed.
                let final_idx = index(population);
                let queue_length: Vec<f64> =
                    (0..centers).map(|k| q[final_idx * centers + k]).collect();
                let utilization: Vec<f64> = (0..centers)
                    .map(|k| {
                        (0..classes)
                            .map(|cc| throughput[cc] * network.demand(cc, k))
                            .sum()
                    })
                    .collect();
                return Ok(MulticlassSolution {
                    population: population.to_vec(),
                    throughput: throughput.clone(),
                    response_time: response.clone(),
                    queue_length,
                    utilization,
                    residence: residence.clone(),
                });
            }
            c -= 1;
            if n[c] < population[c] {
                n[c] += 1;
                for v in n.iter_mut().skip(c + 1) {
                    *v = 0;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::network::ClosedNetwork;

    fn two_class_net() -> MulticlassNetwork {
        MulticlassNetwork::new(
            vec![
                ("cpu".into(), CenterKind::Queueing),
                ("disk".into(), CenterKind::Queueing),
            ],
            vec![
                vec![0.020, 0.008], // reads
                vec![0.012, 0.006], // writes
            ],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn single_class_reduces_to_scalar_mva() {
        // A 1-class multiclass network must agree exactly with the
        // single-class recurrence.
        let mc = MulticlassNetwork::new(
            vec![
                ("cpu".into(), CenterKind::Queueing),
                ("disk".into(), CenterKind::Queueing),
                ("cert".into(), CenterKind::Delay),
            ],
            vec![vec![0.020, 0.008, 0.012]],
            vec![1.0],
        )
        .unwrap();
        let sc = ClosedNetwork::builder()
            .queueing("cpu", 0.020)
            .queueing("disk", 0.008)
            .delay("cert", 0.012)
            .think_time(1.0)
            .build()
            .unwrap();
        for n in [1usize, 5, 40, 120] {
            let m = solve_exact(&mc, &[n]).unwrap();
            let s = exact::solve(&sc, n).unwrap();
            assert!(
                (m.throughput[0] - s.throughput).abs() < 1e-9,
                "n={n}: {} vs {}",
                m.throughput[0],
                s.throughput
            );
            assert!((m.response_time[0] - s.response_time).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_population_class_contributes_nothing() {
        let net = two_class_net();
        let with_both = solve_exact(&net, &[20, 0]).unwrap();
        assert_eq!(with_both.throughput[1], 0.0);
        // Must equal a single-class solve of the read class alone.
        let sc = ClosedNetwork::builder()
            .queueing("cpu", 0.020)
            .queueing("disk", 0.008)
            .think_time(1.0)
            .build()
            .unwrap();
        let s = exact::solve(&sc, 20).unwrap();
        assert!((with_both.throughput[0] - s.throughput).abs() < 1e-9);
    }

    #[test]
    fn zero_population_everywhere_is_all_zero() {
        let net = two_class_net();
        let sol = solve_exact(&net, &[0, 0]).unwrap();
        assert_eq!(sol.total_throughput(), 0.0);
        assert!(sol.queue_length.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn adding_a_second_class_slows_the_first() {
        let net = two_class_net();
        let alone = solve_exact(&net, &[30, 0]).unwrap();
        let shared = solve_exact(&net, &[30, 30]).unwrap();
        assert!(shared.response_time[0] > alone.response_time[0]);
        assert!(shared.throughput[0] < alone.throughput[0]);
    }

    #[test]
    fn littles_law_holds_per_class() {
        let net = two_class_net();
        let sol = solve_exact(&net, &[25, 13]).unwrap();
        for c in 0..2 {
            let n = sol.throughput[c] * (sol.response_time[c] + 1.0);
            assert!(
                (n - sol.population[c] as f64).abs() < 1e-9,
                "class {c}: {n}"
            );
        }
    }

    #[test]
    fn utilization_below_one_at_queueing_centers() {
        let net = two_class_net();
        let sol = solve_exact(&net, &[200, 200]).unwrap();
        for &u in &sol.utilization {
            assert!(u <= 1.0 + 1e-9, "u={u}");
        }
    }

    #[test]
    fn rejects_ragged_demands() {
        let err = MulticlassNetwork::new(
            vec![("cpu".into(), CenterKind::Queueing)],
            vec![vec![0.1], vec![0.1, 0.2]],
            vec![1.0, 1.0],
        )
        .unwrap_err();
        assert!(matches!(err, MvaError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_population_dimension_mismatch() {
        let net = two_class_net();
        assert!(matches!(
            solve_exact(&net, &[10]),
            Err(MvaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_oversized_lattice() {
        let net = two_class_net();
        let err = solve_exact(&net, &[10_000, 10_000]).unwrap_err();
        assert!(matches!(err, MvaError::InvalidPopulation(_)));
    }

    #[test]
    fn three_classes_solve() {
        let net = MulticlassNetwork::new(
            vec![
                ("cpu".into(), CenterKind::Queueing),
                ("disk".into(), CenterKind::Queueing),
            ],
            vec![vec![0.02, 0.01], vec![0.01, 0.02], vec![0.015, 0.015]],
            vec![0.5, 0.5, 0.5],
        )
        .unwrap();
        let sol = solve_exact(&net, &[10, 10, 10]).unwrap();
        assert!(sol.total_throughput() > 0.0);
        // Symmetric center demands overall: both centers roughly equally used.
        assert!((sol.utilization[0] - sol.utilization[1]).abs() < 0.05);
    }
}
