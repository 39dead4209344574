//! A deterministic discrete-event simulation (DES) kernel.
//!
//! `replipred` validates the paper's analytical models against a
//! *mechanistic* simulation of the replicated database cluster — the role
//! the authors' 16-machine prototype played. This crate provides the
//! simulation substrate:
//!
//! - [`engine`] — virtual clock and event heap. Events are values of a
//!   user-defined typed event enum over a user-supplied world type,
//!   stored inline in a recycled slab (no per-event allocation);
//!   execution is deterministic (ties broken by schedule order).
//! - [`resource`] — queueing resources: multi-server FCFS queues and an
//!   egalitarian processor-sharing server, both with integrated busy-time
//!   and queue-length accounting.
//! - [`pool`] — a deterministic scoped-thread-pool executor
//!   ([`pool::map_parallel`]) for fanning independent simulation runs out
//!   over cores with order-stable results.
//! - [`rng`] — a small, self-contained xoshiro256++ PRNG with SplitMix64
//!   seeding, giving reproducible independent streams without external
//!   dependencies.
//! - [`stats`] — streaming measurement: Welford moments, time-weighted
//!   averages (utilization, queue lengths), windowed time series, and
//!   batch-means confidence intervals.
//!
//! # Examples
//!
//! A chain of events over a tiny world:
//!
//! ```
//! use replipred_sim::engine::{Engine, Event};
//!
//! struct World {
//!     completions: u64,
//! }
//!
//! /// One unit-time "transaction" completes; two more follow it.
//! struct Next;
//!
//! impl Event<World> for Next {
//!     fn fire(self, engine: &mut Engine<World, Next>) {
//!         engine.world_mut().completions += 1;
//!         if engine.world().completions < 3 {
//!             engine.schedule_event_in(1.0, Next);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(World { completions: 0 });
//! engine.schedule_event_in(1.0, Next);
//! engine.run();
//! assert_eq!(engine.world().completions, 3);
//! assert_eq!(engine.now().as_secs(), 3.0);
//! ```

pub mod engine;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, Event};
pub use rng::Rng;
pub use time::SimTime;
