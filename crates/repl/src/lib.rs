//! Mechanistic simulators of replicated snapshot-isolated databases.
//!
//! The paper validates its analytical models against two prototype
//! systems on a 16-machine cluster (Section 5): a Tashkent-style
//! **multi-master** design (Figure 4: replica proxies + replicated
//! certifier) and a Ganymed-style **single-master** design (Figure 5:
//! master + slaves). This crate is our stand-in for that cluster: a
//! discrete-event simulation in which
//!
//! - every replica hosts a *real* [`replipred_sidb`] snapshot-isolation
//!   engine, so conflicts, aborts and snapshot staleness are *emergent*,
//!   not assumed;
//! - CPU is a processor-sharing server and the disk a FCFS queue, with
//!   per-transaction exponential service demands from the workload spec;
//! - clients follow the closed-loop think-time model, retrying aborted
//!   update transactions exactly like the paper's RTE servlets.
//!
//! Modules:
//!
//! - [`config`] — simulation run parameters (replicas, seed, warm-up and
//!   measurement windows, delays).
//! - [`metrics`] — the measured [`metrics::RunReport`]: throughput,
//!   response times, abort rate, utilizations.
//! - [`design`] — the design axis: one [`Simulator`] struct built by the
//!   simulator side of the design registry
//!   (`design.simulator(spec, sim_config)`) whose `run` is a `match` onto
//!   the kernel under one of the three policies below. `run` seeds the
//!   workload and runs one cell; `run_from` runs a cell on clones of a
//!   [`Seeded`] image — a workload installed once, which a driver of
//!   many cells of one workload makes once and shares.
//! - [`certifier`] — the multi-master certification service: version-based
//!   write-write conflict detection over the global writeset log.
//! - `kernel` (private) — the replica kernel: the node (database, CPU,
//!   disk, admission queue, in-order apply queue, durable state), the
//!   typed event enum and every lifecycle step — dispatch, admission,
//!   the CPU→disk attempt pipeline with its epoch-stamped abandon,
//!   retry, writeset propagation, crash/rejoin/catch-up, vacuum-cadence
//!   log truncation, population ramps — written once, generic over a
//!   narrow design `Policy` resolved at compile time. Its module docs
//!   are the guide to adding a design.
//! - [`standalone`], `mm`, `sm` — the three policies: one node
//!   committing locally (the profiling target and the `N = 1` anchor of
//!   every measured curve — [`standalone::run`], which the design
//!   registry and the profiler both call, takes a transaction filter
//!   and hands back the final database with the report);
//!   any-replica routing with a certifier round trip;
//!   master-for-updates routing with a relay log, election and
//!   promotion.
//! - [`wslog`] — the committed-writeset log, the one sequence a lagging
//!   replica catches up from: the certifier's log under multi-master,
//!   the master's relay log under single-master, truncated at vacuum
//!   cadence by the kernel.
//! - [`durable`] — per-replica durability (durable image + redo log +
//!   recovery), backing the crash/rejoin paths when
//!   [`config::DurabilityConfig`] is enabled.
//! - [`transient`] — windowed time-series collection and the
//!   [`transient::TransientReport`] produced by time-phased runs (see
//!   [`replipred_core::Schedule`]): the kernel applies replica
//!   crashes/rejoins and client-population ramps mid-run for every
//!   design (certifier outages are multi-master policy) and reports
//!   recovery time, SLO-violation windows, and peak abort rate next to
//!   the steady-state numbers.
//!
//! # Examples
//!
//! ```
//! use replipred_repl::{Design, SimConfig, SimulatorRegistry};
//! use replipred_workload::tpcw;
//!
//! let spec = tpcw::mix(tpcw::Mix::Shopping);
//! let cfg = SimConfig::quick(4, 42); // 4 replicas, short windows
//! let report = Design::MultiMaster.simulator(spec, cfg).run();
//! assert!(report.throughput_tps > 0.0);
//! ```

pub mod certifier;
pub mod config;
pub mod design;
pub mod durable;
mod kernel;
pub mod metrics;
mod mm;
mod sm;
pub mod standalone;
pub mod transient;
pub mod wslog;

pub use certifier::Certifier;
pub use config::{DurabilityConfig, SimConfig};
pub use design::{Simulator, SimulatorRegistry};
pub use durable::NodeDurability;
pub use kernel::Seeded;
pub use metrics::RunReport;
pub use replipred_core::{Design, Phase, Schedule, ScheduleEvent};
pub use transient::{TransientCollector, TransientReport};
pub use wslog::WsLog;
