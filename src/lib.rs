//! # replipred
//!
//! A faithful, from-scratch Rust reproduction of *"Predicting Replicated
//! Database Scalability from Standalone Database Profiling"* (Elnikety,
//! Dropsho, Cecchet, Zwaenepoel — EuroSys 2009).
//!
//! The crate is a facade over the workspace members:
//!
//! - [`mva`] — closed queueing networks and Mean Value Analysis solvers.
//! - [`sim`] — a discrete-event simulation kernel (virtual clock, queueing
//!   resources, statistics).
//! - [`sidb`] — an in-memory multi-version storage engine implementing
//!   snapshot isolation with first-committer-wins conflict detection.
//! - [`workload`] — TPC-W and RUBiS transaction mixes and closed-loop
//!   emulated clients.
//! - [`repl`] — mechanistic simulators of multi-master (certifier based) and
//!   single-master (master/slave) replicated databases, with time-phased
//!   [`model::Schedule`]s (crashes, rejoins, certifier outages, client
//!   ramps) and windowed [`repl::TransientReport`]s.
//! - [`profiler`] — the standalone profiling pipeline that measures
//!   `Pr, Pw, A1, rc, wc, ws, L(1)` exactly as the paper's Section 4
//!   prescribes.
//! - [`model`] — the paper's analytical models: the multi-master and
//!   single-master predictors, the conflict-window fixed point and the
//!   Figure-3 load-balancing algorithm.
//! - [`scenario`] — the shared experiment driver: declare *workload ×
//!   design set × replica range × seed* once and get a serializable
//!   [`scenario::ScenarioReport`] back. Its workload registry accepts the
//!   five published mixes and the synthetic family
//!   (`synth:<preset>` / `synth:k=v,...`, see
//!   [`workload::synth`]).
//! - [`figures`] — the paper's evaluation as one table: Figures 6–14,
//!   Tables 2–5, four ablations, two sensitivity sweeps and the capacity
//!   planner, rendered to text by `replipred figures`.
//! - [`validate`] — the prediction-vs-simulation error grid behind
//!   `replipred validate`: sweep workloads × designs × replica points and
//!   fold the relative errors into per-design mean/max summaries.
//! - [`render`], [`recover`] — what the CLI prints, built as strings, and
//!   the scripted durability round trip behind `replipred recover`.
//!
//! # Quickstart
//!
//! Designs are addressed through the registry — a `model::Design` value
//! builds its `Predictor` and its `Simulator` — so code is polymorphic
//! over standalone, multi-master and single-master:
//!
//! ```
//! use replipred::model::{Design, SystemConfig, WorkloadProfile};
//!
//! // A profile as measured on a standalone database (here: the paper's
//! // published TPC-W shopping-mix numbers, Tables 2-3).
//! let profile = WorkloadProfile::tpcw_shopping();
//! let config = SystemConfig::lan_cluster(40);
//! let predictor = Design::MultiMaster.predictor(profile, config).unwrap();
//! let prediction = predictor.predict(8).unwrap();
//! assert!(prediction.throughput_tps > 0.0);
//! ```
//!
//! Whole experiments — the paper's figures, the CLI subcommands — are one
//! [`scenario::Scenario`]:
//!
//! ```
//! use replipred::scenario::Scenario;
//!
//! let report = Scenario::published("tpcw-shopping")
//!     .unwrap()
//!     .all_designs()
//!     .replicas(1..=8)
//!     .run()
//!     .unwrap();
//! // Three designs, eight predicted points each, ready to serialize.
//! assert_eq!(report.designs.len(), 3);
//! ```
pub mod figures;
pub mod recover;
pub mod render;
pub mod scenario;
pub mod validate;

pub use scenario::{Scenario, ScenarioReport};
pub use validate::{ValidationGrid, ValidationReport};

pub use replipred_core as model;
pub use replipred_mva as mva;
pub use replipred_profiler as profiler;
pub use replipred_repl as repl;
pub use replipred_sidb as sidb;
pub use replipred_sim as sim;
pub use replipred_workload as workload;
