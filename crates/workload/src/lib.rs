//! TPC-W and RUBiS workload generation.
//!
//! The paper validates its models with two e-commerce benchmarks
//! (Section 6.1):
//!
//! - **TPC-W**, an online bookstore, with three mixes: browsing (5%
//!   updates), shopping (20%), ordering (50%);
//! - **RUBiS**, an eBay-style auction site, with two mixes: browsing
//!   (read-only) and bidding (20% updates).
//!
//! This crate provides everything needed to *drive* those workloads against
//! the storage engine and the replicated-cluster simulators:
//!
//! - [`spec::WorkloadSpec`] — a declarative description of a transaction
//!   mix: class probabilities, per-class service demands (from the paper's
//!   Tables 3 and 5), rows touched, update-set sizes. Specs are
//!   **compiled** once per run ([`spec::WorkloadSpec::install`]) into a
//!   [`spec::CompiledWorkload`] whose table references are dense
//!   [`replipred_sidb::TableId`]s — the sampling/execution hot path does
//!   zero name resolution.
//! - [`tpcw`] and [`rubis`] — the two benchmarks with the paper's published
//!   parameters (Tables 2 and 4) and schema/seed-data generators.
//! - [`heap`] — the Figure-14 abort stressor: a small heap table that every
//!   update transaction additionally writes, dialing the standalone abort
//!   probability `A1` up in a controlled way.
//! - [`synth`] — the synthetic workload family: [`synth::SynthSpec`] builds
//!   valid specs from continuous knobs (update fraction, demand ranges,
//!   transaction length, hotspot skew, think time, table count/scale), with
//!   named presets spanning the corners of the space.
//! - [`client`] — closed-loop emulated-browser sampling (exponential think
//!   times, transaction templates), shared by the standalone profiler and
//!   the cluster simulators.
//!
//! # Examples
//!
//! ```
//! use replipred_sidb::Database;
//! use replipred_sim::Rng;
//! use replipred_workload::tpcw;
//!
//! let spec = tpcw::mix(tpcw::Mix::Shopping);
//! let mut db = Database::new();
//! // Create the schema, compile names to ids, seed at 5% scale.
//! let plan = spec.install(&mut db, 0.05).unwrap();
//!
//! let mut rng = Rng::seed_from_u64(1);
//! let txn = plan.sample(&mut rng);
//! assert!(txn.cpu_demand > 0.0);
//! ```
//!
//! Synthetic workloads build the same way from continuous knobs:
//!
//! ```
//! use replipred_sidb::Database;
//! use replipred_workload::synth::SynthSpec;
//!
//! let spec = SynthSpec::parse("write-heavy,clients=20")
//!     .unwrap()
//!     .build()
//!     .unwrap();
//! assert!((spec.pw() - 0.60).abs() < 1e-9);
//! let mut db = Database::new();
//! let plan = spec.install(&mut db, 0.05).unwrap();
//! assert!(plan.spec().mean_update_ops() > 0.0);
//! ```

pub mod client;
pub mod heap;
pub mod rubis;
pub mod spec;
pub mod synth;
pub mod tpcw;

pub use client::ClientPool;
pub use spec::{CompiledWorkload, TxnClass, TxnTemplate, WorkloadSpec};
pub use synth::SynthSpec;
