//! Description of separable closed queueing networks.
//!
//! The paper models each database replica as a closed network with two
//! *queueing* centers (CPU and disk, Figures 1 and 2) and a set of *delay*
//! centers (client think time, load-balancer/network delay and — for the
//! multi-master design — the certifier, Section 6.3.2).

use serde::{Deserialize, Serialize};

use crate::error::MvaError;

/// The scheduling discipline of a service center.
///
/// Separable (product-form) networks admit exact MVA for queueing centers
/// with exponential FCFS / processor sharing service and for pure delay
/// (infinite-server) centers. The paper uses both kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CenterKind {
    /// A load-dependent queue (FCFS/PS): residence grows with queue length.
    /// The paper models the replica CPU and disk this way.
    Queueing,
    /// An infinite-server (delay) center: residence equals the demand,
    /// independent of load. The paper models the load balancer, network and
    /// certifier this way (Section 6.3).
    Delay,
}

/// One service center of a closed network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Center {
    /// Human-readable identifier (e.g. `"cpu"`, `"disk"`, `"certifier"`).
    pub name: String,
    /// Queueing or delay semantics.
    pub kind: CenterKind,
    /// Average service demand per transaction visit, in seconds.
    ///
    /// This is the *total* demand `D_k = V_k * S_k` (visit count times
    /// per-visit service time), as produced by the Utilization Law during
    /// profiling.
    pub demand: f64,
}

impl Center {
    /// Creates a queueing center.
    pub fn queueing(name: impl Into<String>, demand: f64) -> Self {
        Center {
            name: name.into(),
            kind: CenterKind::Queueing,
            demand,
        }
    }

    /// Creates a delay (infinite-server) center.
    pub fn delay(name: impl Into<String>, demand: f64) -> Self {
        Center {
            name: name.into(),
            kind: CenterKind::Delay,
            demand,
        }
    }

    fn validate(&self) -> Result<(), MvaError> {
        if !self.demand.is_finite() || self.demand < 0.0 {
            return Err(MvaError::InvalidDemand {
                center: self.name.clone(),
                value: self.demand,
            });
        }
        Ok(())
    }
}

/// A separable closed queueing network with a single workload class.
///
/// Clients cycle between a think state (average [`ClosedNetwork::think_time`]
/// seconds) and the service centers; the network is *closed*: the number of
/// circulating clients is fixed (the paper's closed-loop client model,
/// Section 3.1, citing [Schroeder 2006]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedNetwork {
    centers: Vec<Center>,
    think_time: f64,
}

impl ClosedNetwork {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Creates a network from parts, validating all demands.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::EmptyNetwork`] when `centers` is empty,
    /// [`MvaError::InvalidDemand`] for non-finite or negative demands and
    /// [`MvaError::InvalidThinkTime`] for an invalid think time.
    pub fn new(centers: Vec<Center>, think_time: f64) -> Result<Self, MvaError> {
        if centers.is_empty() {
            return Err(MvaError::EmptyNetwork);
        }
        for c in &centers {
            c.validate()?;
        }
        if !think_time.is_finite() || think_time < 0.0 {
            return Err(MvaError::InvalidThinkTime(think_time));
        }
        Ok(ClosedNetwork {
            centers,
            think_time,
        })
    }

    /// The service centers, in solver order.
    pub fn centers(&self) -> &[Center] {
        &self.centers
    }

    /// Average client think time in seconds (delay center outside the
    /// response-time sum).
    pub fn think_time(&self) -> f64 {
        self.think_time
    }

    /// Total service demand across all centers, in seconds.
    ///
    /// This is `D` in the asymptotic bound `X(n) <= min(n / (D + Z), 1/Dmax)`.
    pub fn total_demand(&self) -> f64 {
        self.centers.iter().map(|c| c.demand).sum()
    }

    /// The largest demand at any *queueing* center, in seconds.
    ///
    /// `1 / max_queueing_demand()` is the saturation throughput of the
    /// network; delay centers never saturate.
    pub fn max_queueing_demand(&self) -> f64 {
        self.centers
            .iter()
            .filter(|c| c.kind == CenterKind::Queueing)
            .map(|c| c.demand)
            .fold(0.0, f64::max)
    }
}

/// Fluent builder for [`ClosedNetwork`].
///
/// # Examples
///
/// ```
/// use replipred_mva::ClosedNetwork;
///
/// let net = ClosedNetwork::builder()
///     .queueing("cpu", 0.0414)
///     .queueing("disk", 0.0151)
///     .delay("lb", 0.001)
///     .think_time(1.0)
///     .build()
///     .unwrap();
/// assert_eq!(net.centers().len(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct NetworkBuilder {
    centers: Vec<Center>,
    think_time: f64,
}

impl NetworkBuilder {
    /// Adds a queueing center with the given total service demand (seconds).
    pub fn queueing(mut self, name: impl Into<String>, demand: f64) -> Self {
        self.centers.push(Center::queueing(name, demand));
        self
    }

    /// Adds a delay (infinite-server) center.
    pub fn delay(mut self, name: impl Into<String>, demand: f64) -> Self {
        self.centers.push(Center::delay(name, demand));
        self
    }

    /// Sets the average client think time (seconds). Defaults to zero.
    pub fn think_time(mut self, z: f64) -> Self {
        self.think_time = z;
        self
    }

    /// Validates and builds the network.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`ClosedNetwork::new`].
    pub fn build(self) -> Result<ClosedNetwork, MvaError> {
        ClosedNetwork::new(self.centers, self.think_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_centers_in_order() {
        let net = ClosedNetwork::builder()
            .queueing("cpu", 0.02)
            .queueing("disk", 0.01)
            .delay("lb", 0.001)
            .think_time(1.0)
            .build()
            .unwrap();
        let names: Vec<_> = net.centers().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["cpu", "disk", "lb"]);
        assert_eq!(net.think_time(), 1.0);
    }

    #[test]
    fn rejects_empty_network() {
        assert_eq!(
            ClosedNetwork::new(vec![], 1.0).unwrap_err(),
            MvaError::EmptyNetwork
        );
    }

    #[test]
    fn rejects_negative_demand() {
        let err = ClosedNetwork::builder()
            .queueing("cpu", -0.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, MvaError::InvalidDemand { .. }));
    }

    #[test]
    fn rejects_nan_think_time() {
        let err = ClosedNetwork::builder()
            .queueing("cpu", 0.1)
            .think_time(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, MvaError::InvalidThinkTime(_)));
    }

    #[test]
    fn total_and_max_demand() {
        let net = ClosedNetwork::builder()
            .queueing("cpu", 0.02)
            .queueing("disk", 0.03)
            .delay("cert", 0.012)
            .build()
            .unwrap();
        assert!((net.total_demand() - 0.062).abs() < 1e-12);
        // The delay center is excluded from the saturation bound.
        assert_eq!(net.max_queueing_demand(), 0.03);
    }

    #[test]
    fn zero_demand_center_is_allowed() {
        // Zero-demand centers arise naturally (e.g. a pure-read mix has no
        // writeset application cost); they must be representable.
        let net = ClosedNetwork::builder()
            .queueing("cpu", 0.0)
            .build()
            .unwrap();
        assert_eq!(net.total_demand(), 0.0);
    }
}
