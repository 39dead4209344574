//! The paper's analytical models: predicting replicated database
//! scalability from standalone database profiling.
//!
//! This crate is the reproduction of the *contribution* of Elnikety et
//! al. (EuroSys 2009): closed-form + MVA-based predictors for the
//! throughput and response time of multi-master and single-master
//! replicated databases running (generalized) snapshot isolation, driven
//! entirely by parameters measured on a **standalone** database.
//!
//! - [`profile::WorkloadProfile`] — the measured inputs: `Pr`, `Pw`, `A1`,
//!   `rc`, `wc`, `ws` (per resource), `L(1)` and `U` (paper Table 1).
//! - [`config::SystemConfig`] — deployment parameters: clients per replica,
//!   think time, load-balancer and certifier delays.
//! - [`standalone`] — the 1-node baseline model (Section 3.3.1).
//! - [`mm`] — the multi-master model (Sections 3.2.1, 3.3.2), including the
//!   `A_N`/conflict-window fixed point interleaved with MVA iterations.
//! - [`sm`] — the single-master model (Sections 3.2.2, 3.3.3) with the
//!   Figure-3 load-balancing algorithm on top of multiclass MVA.
//! - [`abort`] — the abort-probability algebra shared by both models.
//! - [`predictor`] — the design axis: one [`Predictor`] struct built by
//!   the [`Design`] registry (`design.predictor(profile, config)`, which
//!   validates both inputs once) whose `predict(n)` is a `match` onto
//!   the three modules above.
//! - [`planner`] — capacity planning built on the predictors (the paper's
//!   stated application), comparing arbitrary design sets.
//! - [`schedule`] — time-phased scenario schedules (replica crashes,
//!   certifier outages, client-population ramps) consumed by the
//!   simulators in `replipred-repl`; the paper models steady state only,
//!   this is the repo's transient/fault-injection extension.
//!
//! # Examples
//!
//! Callers address designs through the registry:
//!
//! ```
//! use replipred_core::{Design, SystemConfig, WorkloadProfile};
//!
//! // TPC-W shopping-mix parameters as published in the paper (Tables 2-3).
//! let profile = WorkloadProfile::tpcw_shopping();
//! let config = SystemConfig::lan_cluster(40);
//!
//! let mm = Design::MultiMaster.predictor(profile.clone(), config.clone()).unwrap();
//! let sm = Design::SingleMaster.predictor(profile, config).unwrap();
//!
//! let mm8 = mm.predict(8).unwrap();
//! let sm8 = sm.predict(8).unwrap();
//! // The multi-master design outruns single-master once the master
//! // saturates on updates.
//! assert!(mm8.throughput_tps > sm8.throughput_tps);
//! ```

pub mod abort;
pub mod config;
pub mod error;
pub mod mm;
pub mod planner;
pub mod predictor;
pub mod profile;
pub mod report;
pub mod schedule;
pub mod sm;
pub mod standalone;

pub use abort::AbortModel;
pub use config::SystemConfig;
pub use error::ModelError;
pub use predictor::Predictor;
pub use profile::{ResourceDemands, WorkloadProfile};
pub use report::{Design, Prediction, ScalabilityCurve};
pub use schedule::{Phase, Schedule, ScheduleEvent, TimedEvent};
