//! Standalone database profiling (paper Section 4).
//!
//! The whole premise of the paper is that replicated performance can be
//! predicted from measurements taken on a **standalone** database. This
//! crate is that measurement pipeline, reproducing the paper's procedure
//! step by step:
//!
//! 1. **Capture** the transaction workload from the database log (the
//!    engine's activity counters, PostgreSQL's `log_statement` in the
//!    paper) — [`logstats`] derives `Pr`, `Pw` and the abort probability
//!    `A1`, and recovers `U` (update operations per update transaction)
//!    from the committed write statements.
//! 2. **Replay** log segments against an instrumented standalone system —
//!    [`replay`] plays the read-only transactions, then the update
//!    transactions, then the captured writesets, and derives `rc`, `wc`
//!    and `ws` per resource with the Utilization Law (`D = U / X`).
//! 3. **Measure** `L(1)` — the loaded response time of update transactions
//!    in the full mix.
//! 4. **Assemble** a [`replipred_core::WorkloadProfile`], the models' input
//!    — [`pipeline::Profiler`].
//!
//! # Examples
//!
//! ```no_run
//! use replipred_profiler::Profiler;
//! use replipred_workload::tpcw;
//!
//! let profiler = Profiler::new(tpcw::mix(tpcw::Mix::Shopping)).seed(42);
//! let outcome = profiler.profile();
//! let profile = outcome.profile;      // feed this to the models
//! assert!(profile.pr > 0.7);
//! ```

pub mod logstats;
pub mod pipeline;
pub mod replay;

pub use logstats::LogSummary;
pub use pipeline::{ProfileOutcome, Profiler};
