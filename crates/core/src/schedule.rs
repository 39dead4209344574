//! Time-phased scenario schedules: fault injection, elasticity, and
//! traffic surges layered on top of a steady-state simulation run.
//!
//! The paper (and everything else in this repo) characterises
//! *steady-state* replicated-database performance. A [`Schedule`] turns
//! one simulated run into a piecewise experiment: events injected at
//! absolute simulation times (replica crashes and rejoins, certifier
//! outages, client-population ramps) plus named [`Phase`] boundaries and
//! the windowing/SLO knobs used to compute the transient report
//! (per-window throughput/response/abort series, recovery time,
//! SLO-violation window length, peak abort rate).
//!
//! All times are **absolute simulation seconds**, counted from the start
//! of the run (warmup included), matching the engine clock.
//!
//! # Example
//!
//! ```
//! use replipred_core::Schedule;
//!
//! // Crash replica 1 at t=120s, let it rejoin at t=300s, and overlay a
//! // 2.5x flash crowd for 60s starting at t=200s.
//! let schedule = Schedule::new()
//!     .crash(120.0, 1)
//!     .join(300.0, 1)
//!     .flash_crowd(200.0, 2.5, 60.0)
//!     .window(5.0)
//!     .slo(0.5);
//! assert!(schedule.enabled());
//! assert_eq!(schedule.events.len(), 4); // flash crowd = ramp up + ramp down
//! ```
//!
//! # Schedule grammar
//!
//! [`Schedule::parse`] accepts a compact comma-separated string form,
//! used by the CLI `--schedule` flag:
//!
//! | token                  | meaning                                        |
//! |------------------------|------------------------------------------------|
//! | `crash@T=I`            | replica `I` crashes at `T` seconds             |
//! | `join@T=I`             | replica `I` rejoins at `T` (replays missed writesets first) |
//! | `cert-down@T`          | certifier outage begins at `T`                 |
//! | `cert-up@T`            | certifier restarts at `T`                      |
//! | `clients@T=F`          | client population ramps to `F`× the base at `T` |
//! | `flash-crowd@T=FxD`    | population spikes to `F`× for `D` seconds      |
//! | `phase@T=NAME`         | named phase boundary at `T` (reporting only)   |
//! | `window=W`             | transient window width in seconds              |
//! | `slo=R`                | SLO response-time threshold in seconds         |
//! | `recovery=F`           | recovered when throughput ≥ `F`× pre-fault baseline |
//!
//! Example: `crash@120=1,join@300=1,flash-crowd@200=2.5x60,window=5`.
//!
//! The parser is where a schedule enters from outside the program, so it
//! is where numbers are checked: every time and duration is finite and
//! non-negative, every population factor positive and at most 100, `window`
//! at least 1 ms, `slo` positive and `recovery` in (0, 1]. Anything else
//! is a [`ScheduleError`] — not a panic or an unbounded allocation in the
//! engine that runs the schedule.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One event injected into a simulation at an absolute time.
///
/// Not every simulator honours every event: the standalone simulator has
/// no replicas or certifier, so it applies only [`ScheduleEvent::Clients`]
/// and records the rest as ignored; the single-master simulator has no
/// certifier, so certifier outages are recorded but have no effect there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScheduleEvent {
    /// Replica `i` crashes: it stops serving, in-flight work is
    /// redistributed to the surviving replicas.
    ReplicaCrash(usize),
    /// Replica `i` rejoins: it replays the writesets it missed (paying a
    /// deterministic state-transfer catch-up lag) before taking load.
    ReplicaJoin(usize),
    /// The certifier goes down: update certification stalls (requests
    /// queue) until [`ScheduleEvent::CertifierUp`].
    CertifierDown,
    /// The certifier restarts and drains the stalled queue in order.
    CertifierUp,
    /// The active client population ramps to `factor`× the configured
    /// base population (rounded, clamped to at least one client).
    Clients(f64),
}

impl fmt::Display for ScheduleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleEvent::ReplicaCrash(i) => write!(f, "crash replica {i}"),
            ScheduleEvent::ReplicaJoin(i) => write!(f, "rejoin replica {i}"),
            ScheduleEvent::CertifierDown => write!(f, "certifier down"),
            ScheduleEvent::CertifierUp => write!(f, "certifier up"),
            ScheduleEvent::Clients(factor) => write!(f, "clients x{factor}"),
        }
    }
}

/// A [`ScheduleEvent`] pinned to an absolute simulation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Absolute simulation time in seconds (warmup included).
    pub at: f64,
    /// The event to inject.
    pub event: ScheduleEvent,
}

/// A named phase boundary, used to aggregate transient metrics per
/// phase in the report. Phases are reporting structure only; they do
/// not themselves change simulator behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Human-readable phase name (e.g. `"steady"`, `"degraded"`).
    pub name: String,
    /// Absolute simulation time at which the phase begins.
    pub start: f64,
}

/// A time-phased schedule: injected events, named phases, and the
/// windowing/SLO knobs for the transient report.
///
/// The default schedule is empty and **disabled**: a run with a default
/// schedule behaves — and serializes — exactly like a run with no
/// schedule at all, preserving the byte-identical determinism contract
/// for steady-state reports.
///
/// Build one fluently ([`crash`](Schedule::crash),
/// [`join`](Schedule::join), [`flash_crowd`](Schedule::flash_crowd),
/// ...) or parse the CLI string form with [`Schedule::parse`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Events to inject, in the order they were added (applied in time
    /// order; ties resolve in insertion order).
    #[serde(default)]
    pub events: Vec<TimedEvent>,
    /// Named phase boundaries for per-phase reporting.
    #[serde(default)]
    pub phases: Vec<Phase>,
    /// Transient window width in seconds; `0` means "use the default"
    /// (see [`Schedule::effective_window`]).
    #[serde(default)]
    pub window: f64,
    /// SLO response-time threshold in seconds; `0` means default.
    #[serde(default)]
    pub slo_response: f64,
    /// Recovery threshold as a fraction of the pre-fault baseline
    /// throughput; `0` means default.
    #[serde(default)]
    pub recovery_fraction: f64,
}

/// Default transient window width in seconds.
pub const DEFAULT_WINDOW: f64 = 5.0;
/// Default SLO response-time threshold in seconds.
pub const DEFAULT_SLO_RESPONSE: f64 = 0.5;
/// Default recovery threshold (fraction of pre-fault baseline).
pub const DEFAULT_RECOVERY_FRACTION: f64 = 0.9;
/// Largest population factor [`Schedule::parse`] accepts: a run allocates
/// its client pool for the largest factor up front.
const MAX_CLIENTS_FACTOR: f64 = 100.0;
/// Smallest transient window [`Schedule::parse`] accepts, seconds: a run
/// allocates one window per `window` seconds of its horizon.
const MIN_WINDOW: f64 = 1e-3;

impl Schedule {
    /// An empty, disabled schedule (same as [`Schedule::default`]).
    pub fn new() -> Self {
        Schedule::default()
    }

    /// True when the schedule changes anything about a run: any event,
    /// any named phase, or an explicit transient window (which turns on
    /// time-series collection even without events).
    pub fn enabled(&self) -> bool {
        !self.events.is_empty() || !self.phases.is_empty() || self.window > 0.0
    }

    /// Injects an arbitrary event at absolute time `at`.
    pub fn at(mut self, at: f64, event: ScheduleEvent) -> Self {
        self.events.push(TimedEvent { at, event });
        self
    }

    /// Crashes replica `i` at time `at`.
    pub fn crash(self, at: f64, i: usize) -> Self {
        self.at(at, ScheduleEvent::ReplicaCrash(i))
    }

    /// Rejoins replica `i` at time `at` (catch-up lag applies before it
    /// takes load).
    pub fn join(self, at: f64, i: usize) -> Self {
        self.at(at, ScheduleEvent::ReplicaJoin(i))
    }

    /// Takes the certifier down at time `at`.
    pub fn certifier_down(self, at: f64) -> Self {
        self.at(at, ScheduleEvent::CertifierDown)
    }

    /// Restarts the certifier at time `at`.
    pub fn certifier_up(self, at: f64) -> Self {
        self.at(at, ScheduleEvent::CertifierUp)
    }

    /// Ramps the active client population to `factor`× the base at `at`.
    pub fn clients(self, at: f64, factor: f64) -> Self {
        self.at(at, ScheduleEvent::Clients(factor))
    }

    /// Flash-crowd preset: the population spikes to `factor`× at `at`
    /// and returns to the base population after `duration` seconds.
    pub fn flash_crowd(self, at: f64, factor: f64, duration: f64) -> Self {
        self.clients(at, factor).clients(at + duration, 1.0)
    }

    /// Adds a named phase boundary at `start`.
    pub fn phase(mut self, name: impl Into<String>, start: f64) -> Self {
        self.phases.push(Phase {
            name: name.into(),
            start,
        });
        self
    }

    /// Sets the transient window width (seconds).
    pub fn window(mut self, window: f64) -> Self {
        self.window = window;
        self
    }

    /// Sets the SLO response-time threshold (seconds).
    pub fn slo(mut self, response: f64) -> Self {
        self.slo_response = response;
        self
    }

    /// Sets the recovery threshold as a fraction of the pre-fault
    /// baseline throughput.
    pub fn recovery(mut self, fraction: f64) -> Self {
        self.recovery_fraction = fraction;
        self
    }

    /// Window width with the default applied.
    pub fn effective_window(&self) -> f64 {
        if self.window > 0.0 {
            self.window
        } else {
            DEFAULT_WINDOW
        }
    }

    /// SLO threshold with the default applied.
    pub fn effective_slo(&self) -> f64 {
        if self.slo_response > 0.0 {
            self.slo_response
        } else {
            DEFAULT_SLO_RESPONSE
        }
    }

    /// Recovery fraction with the default applied.
    pub fn effective_recovery(&self) -> f64 {
        if self.recovery_fraction > 0.0 {
            self.recovery_fraction
        } else {
            DEFAULT_RECOVERY_FRACTION
        }
    }

    /// Events sorted by time (stable: insertion order breaks ties).
    pub fn sorted_events(&self) -> Vec<TimedEvent> {
        let mut events = self.events.clone();
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        events
    }

    /// The largest client-population factor the schedule ever requests
    /// (at least 1.0); sizes client pools up front so ramps never need
    /// to invent clients mid-run.
    pub fn max_clients_factor(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|te| match te.event {
                ScheduleEvent::Clients(f) => Some(f),
                _ => None,
            })
            .fold(1.0_f64, f64::max)
    }

    /// Parses the compact CLI string form (see the module docs for the
    /// grammar). Whitespace around tokens is ignored; an empty string
    /// yields the (disabled) default schedule.
    pub fn parse(input: &str) -> Result<Self, ScheduleError> {
        let mut schedule = Schedule::new();
        for raw in input.split(',') {
            let token = raw.trim();
            if token.is_empty() {
                continue;
            }
            schedule = schedule.parse_token(token)?;
        }
        Ok(schedule)
    }

    fn parse_token(self, token: &str) -> Result<Self, ScheduleError> {
        let err = |msg: &str| ScheduleError {
            token: token.to_owned(),
            message: msg.to_owned(),
        };
        // A NaN fails every comparison, so each range check below
        // rejects it too.
        let check = |in_range: bool, msg: &str| in_range.then_some(()).ok_or_else(|| err(msg));
        // Config tokens: `key=value` with no `@`.
        if let Some((key, value)) = token.split_once('=') {
            if !key.contains('@') {
                let v: f64 = value
                    .trim()
                    .parse()
                    .map_err(|_| err("expected a number after `=`"))?;
                return match key.trim() {
                    "window" => {
                        check(
                            v >= MIN_WINDOW && v.is_finite(),
                            "window must be finite and at least 0.001 s",
                        )?;
                        Ok(self.window(v))
                    }
                    "slo" => {
                        check(v > 0.0 && v.is_finite(), "slo must be finite and positive")?;
                        Ok(self.slo(v))
                    }
                    "recovery" => {
                        check(v > 0.0 && v <= 1.0, "recovery must be in (0, 1]")?;
                        Ok(self.recovery(v))
                    }
                    _ => Err(err("unknown setting (expected window/slo/recovery)")),
                };
            }
        }
        // Event tokens: `name@time` or `name@time=arg`.
        let (head, rest) = token
            .split_once('@')
            .ok_or_else(|| err("expected `name@time[=arg]` or `key=value`"))?;
        let (time_str, arg) = match rest.split_once('=') {
            Some((t, a)) => (t.trim(), Some(a.trim())),
            None => (rest.trim(), None),
        };
        let at: f64 = time_str
            .parse()
            .map_err(|_| err("expected a time in seconds after `@`"))?;
        check(
            at >= 0.0 && at.is_finite(),
            "time must be finite and non-negative",
        )?;
        let need = |what: &str| err(&format!("expected `={what}`"));
        let factor = |text: &str| {
            let f: f64 = text
                .trim()
                .parse()
                .map_err(|_| err("population factor must be a number"))?;
            check(
                f > 0.0 && f <= MAX_CLIENTS_FACTOR,
                "population factor must be positive and at most 100",
            )?;
            Ok(f)
        };
        match head.trim() {
            "crash" => {
                let i: usize = arg
                    .ok_or_else(|| need("replica-index"))?
                    .parse()
                    .map_err(|_| err("replica index must be an integer"))?;
                Ok(self.crash(at, i))
            }
            "join" => {
                let i: usize = arg
                    .ok_or_else(|| need("replica-index"))?
                    .parse()
                    .map_err(|_| err("replica index must be an integer"))?;
                Ok(self.join(at, i))
            }
            "cert-down" => Ok(self.certifier_down(at)),
            "cert-up" => Ok(self.certifier_up(at)),
            "clients" => Ok(self.clients(at, factor(arg.ok_or_else(|| need("factor"))?)?)),
            "flash-crowd" => {
                let spec = arg.ok_or_else(|| need("FACTORxDURATION"))?;
                let (f_str, d_str) = spec
                    .split_once('x')
                    .ok_or_else(|| err("expected `FACTORxDURATION`, e.g. `2.5x60`"))?;
                let f = factor(f_str)?;
                let d: f64 = d_str
                    .trim()
                    .parse()
                    .map_err(|_| err("flash-crowd duration must be a number"))?;
                check(
                    d >= 0.0 && (at + d).is_finite(),
                    "flash-crowd duration must be non-negative and end at a finite time",
                )?;
                Ok(self.flash_crowd(at, f, d))
            }
            "phase" => {
                let name = arg.ok_or_else(|| need("name"))?;
                Ok(self.phase(name, at))
            }
            _ => Err(err(
                "unknown event (expected crash/join/cert-down/cert-up/clients/flash-crowd/phase)",
            )),
        }
    }
}

/// A malformed token in a schedule string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// The offending token.
    pub token: String,
    /// What was expected instead.
    pub message: String,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad schedule token `{}`: {}", self.token, self.message)
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_disabled() {
        let s = Schedule::default();
        assert!(!s.enabled());
        assert_eq!(s, Schedule::new());
        assert_eq!(s.effective_window(), DEFAULT_WINDOW);
        assert_eq!(s.effective_slo(), DEFAULT_SLO_RESPONSE);
        assert_eq!(s.effective_recovery(), DEFAULT_RECOVERY_FRACTION);
        assert_eq!(s.max_clients_factor(), 1.0);
    }

    #[test]
    fn builder_and_parser_agree() {
        let built = Schedule::new()
            .crash(120.0, 1)
            .join(300.0, 1)
            .certifier_down(200.0)
            .certifier_up(230.0)
            .flash_crowd(400.0, 2.5, 60.0)
            .phase("surge", 400.0)
            .window(5.0)
            .slo(0.5)
            .recovery(0.95);
        let parsed = Schedule::parse(
            "crash@120=1, join@300=1, cert-down@200, cert-up@230, \
             flash-crowd@400=2.5x60, phase@400=surge, window=5, slo=0.5, recovery=0.95",
        )
        .unwrap();
        assert_eq!(built, parsed);
        assert!(built.enabled());
        assert_eq!(built.max_clients_factor(), 2.5);
    }

    #[test]
    fn sorted_events_orders_by_time_stably() {
        let s = Schedule::new()
            .join(300.0, 1)
            .crash(120.0, 1)
            .clients(120.0, 2.0);
        let sorted = s.sorted_events();
        assert_eq!(sorted[0].event, ScheduleEvent::ReplicaCrash(1));
        assert_eq!(sorted[1].event, ScheduleEvent::Clients(2.0));
        assert_eq!(sorted[2].event, ScheduleEvent::ReplicaJoin(1));
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in [
            "crash@120",
            "crash@=1",
            "join@x=1",
            "clients@10",
            "flash-crowd@10=2.5",
            "nope@10",
            "window=abc",
            "bogus=3",
        ] {
            let e = Schedule::parse(bad).unwrap_err();
            assert!(e.to_string().contains(bad.split(',').next().unwrap()));
        }
        assert_eq!(Schedule::parse("").unwrap(), Schedule::default());
        assert_eq!(Schedule::parse("  ,  ").unwrap(), Schedule::default());
    }

    #[test]
    fn parse_rejects_numbers_the_engine_cannot_run() {
        for (token, message) in [
            ("crash@nan=1", "time must be finite"),
            ("crash@-5=1", "time must be finite"),
            ("join@inf=1", "time must be finite"),
            ("cert-down@-0.5", "time must be finite"),
            ("phase@nan=surge", "time must be finite"),
            ("clients@10=inf", "population factor must be positive"),
            ("clients@10=nan", "population factor must be positive"),
            ("clients@10=0", "population factor must be positive"),
            ("clients@10=-2", "population factor must be positive"),
            ("clients@10=100.5", "at most 100"),
            ("flash-crowd@10=1e9x5", "at most 100"),
            ("flash-crowd@10=0x5", "population factor must be positive"),
            ("flash-crowd@10=2x-1", "duration must be non-negative"),
            ("flash-crowd@10=2xnan", "duration must be non-negative"),
            ("flash-crowd@10=2xinf", "end at a finite time"),
            ("flash-crowd@1e308=2x1e308", "end at a finite time"),
            ("window=1e-7", "at least 0.001 s"),
            ("window=0", "at least 0.001 s"),
            ("window=-1", "at least 0.001 s"),
            ("window=nan", "window must be finite"),
            ("window=inf", "window must be finite"),
            ("slo=0", "slo must be finite and positive"),
            ("slo=inf", "slo must be finite and positive"),
            ("slo=nan", "slo must be finite and positive"),
            ("recovery=0", "recovery must be in (0, 1]"),
            ("recovery=1.01", "recovery must be in (0, 1]"),
            ("recovery=nan", "recovery must be in (0, 1]"),
        ] {
            // A bad token poisons the whole schedule, wherever it stands.
            let e = Schedule::parse(&format!("crash@1=0, {token}")).unwrap_err();
            assert_eq!(e.token, token);
            assert!(e.message.contains(message), "{token}: {}", e.message);
            assert!(e.to_string().starts_with("bad schedule token `"));
        }
        // The edges themselves are legal.
        let edges = "crash@0=1,clients@0=100,flash-crowd@5=0.01x0,window=0.001,recovery=1";
        assert!(Schedule::parse(edges).is_ok());
    }

    #[test]
    fn schedule_round_trips_through_serde() {
        let s = Schedule::new()
            .crash(10.0, 0)
            .clients(20.0, 1.5)
            .window(2.0);
        let v = serde::Serialize::to_value(&s);
        let back: Schedule = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(s, back);
    }
}
