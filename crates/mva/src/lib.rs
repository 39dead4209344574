//! Closed queueing networks and Mean Value Analysis (MVA) solvers.
//!
//! This crate implements the queueing-theory machinery the paper's analytical
//! models are built on (Section 3.2 and [Lazowska 1984]):
//!
//! - [`ClosedNetwork`] — a separable closed queueing network made of
//!   *queueing* service centers (CPU, disk) and *delay* centers (client
//!   think time, load balancer, certifier).
//! - [`exact`] — the exact single-class MVA recurrence, including a variant
//!   with a per-iteration demand hook used by the conflict-window fixed
//!   point of the multi-master model.
//! - [`multiclass`] — exact multiclass MVA over population vectors, used by
//!   the single-master master station which serves both update transactions
//!   and (optionally) extra read-only transactions.
//! - [`approx`] — Schweitzer/Bard approximate MVA for large populations.
//! - [`bounds`] — asymptotic and balanced-system bounds, the reference
//!   the MVA tests check solutions against.
//! - [`ops`] — the operational laws (Little, Utilization, Forced Flow,
//!   Service Demand) used both by the solver and the profiler.
//! - [`roots`] — Brent's bracketed root-finder, under the single-master
//!   model's balancing.
//!
//! # Examples
//!
//! Solve the paper's multi-master replica network for 40 clients:
//!
//! ```
//! use replipred_mva::{ClosedNetwork, exact};
//!
//! let network = ClosedNetwork::builder()
//!     .queueing("cpu", 0.020)   // 20 ms CPU demand
//!     .queueing("disk", 0.008)  // 8 ms disk demand
//!     .delay("certifier", 0.012)
//!     .think_time(1.0)
//!     .build()
//!     .unwrap();
//! let solution = exact::solve(&network, 40).unwrap();
//! assert!(solution.throughput <= 1.0 / 0.020 + 1e-9); // bounded by bottleneck
//! ```

pub mod approx;
pub mod bounds;
pub mod error;
pub mod exact;
pub mod multiclass;
pub mod network;
pub mod ops;
pub mod roots;

pub use error::MvaError;
pub use exact::{solve, MvaSolution};
pub use network::{Center, CenterKind, ClosedNetwork, NetworkBuilder};
