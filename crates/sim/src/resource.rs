//! Queueing resources for the simulation world.
//!
//! Two service disciplines are provided:
//!
//! - [`Fcfs`] — a multi-server first-come-first-served queue. We use it for
//!   disks (one request at a time) and for delay-free serialization points.
//! - [`Ps`] — an egalitarian processor-sharing server: all resident jobs
//!   progress simultaneously at `rate / n`. This is the classic model of a
//!   time-sliced CPU running concurrent database sessions, and it is the
//!   service discipline under which MVA's product-form assumptions hold for
//!   general service-time distributions.
//!
//! Both resources live *inside* the user's world type. Because an event
//! callback receives `&mut Engine<W, E>`, resource operations are
//! associated functions taking the engine plus a *lens* — a `Copy` closure
//! mapping `&mut W` to the resource — so the engine and the resource are
//! never borrowed simultaneously.
//!
//! Like the engine, resources are generic over the simulation's typed
//! event enum `E`: [`Fcfs::submit_event`] / [`Ps::submit_event`] take the
//! job's completion *event* plus a factory producing the resource's
//! internal service-completion event, which the simulation routes back to
//! [`Fcfs::on_fired`] / [`Ps::on_fired`]. Continuations are stored inline
//! in the resource's recycled buffers, so the hot path never allocates.
//!
//! # Examples
//!
//! ```
//! use replipred_sim::engine::{Engine, Event};
//! use replipred_sim::resource::{Fcfs, ServiceToken};
//!
//! struct World {
//!     disk: Fcfs<World, Ev>,
//!     done: u32,
//! }
//!
//! enum Ev {
//!     /// A request completed.
//!     Done,
//!     /// The disk's internal service completion.
//!     DiskFired(ServiceToken),
//! }
//!
//! fn disk(w: &mut World) -> &mut Fcfs<World, Ev> {
//!     &mut w.disk
//! }
//!
//! impl Event<World> for Ev {
//!     fn fire(self, engine: &mut Engine<World, Ev>) {
//!         match self {
//!             Ev::Done => engine.world_mut().done += 1,
//!             Ev::DiskFired(token) => Fcfs::on_fired(engine, disk, token, Ev::DiskFired),
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(World { disk: Fcfs::new(1), done: 0 });
//! for _ in 0..3 {
//!     Fcfs::submit_event(&mut engine, disk, 0.010, Ev::Done, Ev::DiskFired);
//! }
//! engine.run();
//! assert_eq!(engine.world().done, 3);
//! // Three serialized 10 ms requests finish at t = 30 ms.
//! assert!((engine.now().as_secs() - 0.030).abs() < 1e-12);
//! ```

use std::collections::VecDeque;
use std::marker::PhantomData;

use crate::engine::{Engine, Event, EventId};
use crate::stats::TimeWeighted;

/// Utilization statistics shared by both disciplines.
#[derive(Debug, Clone)]
pub struct ResourceStats {
    /// Time-weighted number of busy servers; its mean over a window is
    /// the utilization (per server: divide by the server count).
    pub busy: TimeWeighted,
}

impl ResourceStats {
    fn new() -> Self {
        ResourceStats {
            busy: TimeWeighted::new(0.0, 0.0),
        }
    }

    /// Restarts the measurement window at time `t` (end of warm-up).
    pub fn reset(&mut self, t: f64) {
        self.busy.reset(t);
    }
}

/// Identifies a job in service inside an [`Fcfs`] resource. The resource's
/// internal completion events carry it so the right continuation fires
/// when a multi-server queue completes jobs out of submission order.
pub type ServiceToken = u32;

struct FcfsJob<E> {
    service: f64,
    done: E,
}

/// A multi-server FCFS queueing resource.
pub struct Fcfs<W, E> {
    servers: usize,
    busy: usize,
    queue: VecDeque<FcfsJob<E>>,
    /// Continuations of jobs currently in service, indexed by
    /// [`ServiceToken`]; slots are recycled via `free_tokens`.
    in_service: Vec<Option<E>>,
    free_tokens: Vec<ServiceToken>,
    /// Measurement state, publicly readable for reporting.
    pub stats: ResourceStats,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> Fcfs<W, E> {
    /// Creates a resource with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a resource needs at least one server");
        Fcfs {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            in_service: Vec::new(),
            free_tokens: Vec::new(),
            stats: ResourceStats::new(),
            _world: PhantomData,
        }
    }

    /// Stores an in-service continuation, reusing a free slot.
    fn store(&mut self, done: E) -> ServiceToken {
        match self.free_tokens.pop() {
            Some(token) => {
                self.in_service[token as usize] = Some(done);
                token
            }
            None => {
                let token =
                    ServiceToken::try_from(self.in_service.len()).expect("token space exhausted");
                self.in_service.push(Some(done));
                token
            }
        }
    }
}

impl<W: 'static, E: Event<W>> Fcfs<W, E> {
    /// Submits a job needing `service` seconds; the `done` event fires on
    /// completion. `fired` builds the resource's internal
    /// service-completion event for a given token — route it to
    /// [`Fcfs::on_fired`] with the same lens.
    ///
    /// # Panics
    ///
    /// Panics if `service` is negative or NaN.
    pub fn submit_event<L, F>(engine: &mut Engine<W, E>, lens: L, service: f64, done: E, fired: F)
    where
        L: Fn(&mut W) -> &mut Fcfs<W, E> + Copy,
        F: Fn(ServiceToken) -> E,
    {
        assert!(
            service.is_finite() && service >= 0.0,
            "service time must be finite and non-negative, got {service}"
        );
        let now = engine.now().as_secs();
        let res = lens(engine.world_mut());
        if res.busy < res.servers {
            res.busy += 1;
            res.stats.busy.set(now, res.busy as f64);
            let token = res.store(done);
            engine.schedule_event_in(service, fired(token));
        } else {
            res.queue.push_back(FcfsJob { service, done });
        }
    }

    /// Handles the service-completion event for `token`: starts the next
    /// queued job (if any) and fires the completed job's `done` event.
    /// Call this from the event your `fired` factory produced.
    pub fn on_fired<L, F>(engine: &mut Engine<W, E>, lens: L, token: ServiceToken, fired: F)
    where
        L: Fn(&mut W) -> &mut Fcfs<W, E> + Copy,
        F: Fn(ServiceToken) -> E,
    {
        let now = engine.now().as_secs();
        let res = lens(engine.world_mut());
        let done = res.in_service[token as usize]
            .take()
            .expect("service token is live");
        res.free_tokens.push(token);
        if let Some(job) = res.queue.pop_front() {
            // Server stays busy; next job starts immediately.
            let next = res.store(job.done);
            engine.schedule_event_in(job.service, fired(next));
        } else {
            res.busy -= 1;
            res.stats.busy.set(now, res.busy as f64);
        }
        done.fire(engine);
    }
}

struct PsJob<E> {
    remaining: f64,
    done: Option<E>,
}

/// An egalitarian processor-sharing server.
///
/// All resident jobs progress at `rate / n` where `n` is the number of
/// resident jobs; a job with `work` seconds of demand completes after
/// `work * n_avg / rate` of wall-clock time.
pub struct Ps<W, E> {
    rate: f64,
    jobs: Vec<PsJob<E>>,
    last_advance: f64,
    pending_completion: Option<EventId>,
    /// Measurement state, publicly readable for reporting.
    pub stats: ResourceStats,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> Ps<W, E> {
    /// Creates a PS server with total capacity `rate` (1.0 = one CPU-second
    /// of work per second).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Ps {
            rate,
            jobs: Vec::new(),
            last_advance: 0.0,
            pending_completion: None,
            stats: ResourceStats::new(),
            _world: PhantomData,
        }
    }

    /// Advances all resident jobs' remaining work to time `t`.
    fn advance_to(&mut self, t: f64) {
        let dt = t - self.last_advance;
        self.last_advance = t;
        if dt <= 0.0 || self.jobs.is_empty() {
            return;
        }
        let per_job = dt * self.rate / self.jobs.len() as f64;
        for j in &mut self.jobs {
            j.remaining -= per_job;
        }
    }
}

impl<W: 'static, E: Event<W>> Ps<W, E> {
    /// Submits a job with `work` seconds of service demand; the `done`
    /// event fires on completion. `fired` builds the server's internal
    /// completion event — route it to [`Ps::on_fired`] with the same lens.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative or NaN.
    pub fn submit_event<L, F>(engine: &mut Engine<W, E>, lens: L, work: f64, done: E, fired: F)
    where
        L: Fn(&mut W) -> &mut Ps<W, E> + Copy,
        F: Fn() -> E,
    {
        assert!(
            work.is_finite() && work >= 0.0,
            "work must be finite and non-negative, got {work}"
        );
        let now = engine.now().as_secs();
        {
            let res = lens(engine.world_mut());
            res.advance_to(now);
            res.jobs.push(PsJob {
                remaining: work,
                done: Some(done),
            });
            res.stats.busy.set(now, 1.0);
        }
        Self::reschedule(engine, lens, fired);
    }

    /// (Re)schedules the completion event for the job with least remaining
    /// work, cancelling any previously scheduled one.
    fn reschedule<L, F>(engine: &mut Engine<W, E>, lens: L, fired: F)
    where
        L: Fn(&mut W) -> &mut Ps<W, E> + Copy,
        F: Fn() -> E,
    {
        let (old_event, next_delay) = {
            let res = lens(engine.world_mut());
            let old = res.pending_completion.take();
            let delay = res
                .jobs
                .iter()
                .map(|j| j.remaining)
                .min_by(f64::total_cmp)
                .map(|min_rem| min_rem.max(0.0) * res.jobs.len() as f64 / res.rate);
            (old, delay)
        };
        if let Some(id) = old_event {
            engine.cancel(id);
        }
        if let Some(delay) = next_delay {
            let id = engine.schedule_event_in(delay, fired());
            lens(engine.world_mut()).pending_completion = Some(id);
        }
    }

    /// Handles the server's completion event: retires the job with the
    /// least remaining work, reschedules, and fires the job's `done`
    /// event. Call this from the event your `fired` factory produced.
    pub fn on_fired<L, F>(engine: &mut Engine<W, E>, lens: L, fired: F)
    where
        L: Fn(&mut W) -> &mut Ps<W, E> + Copy,
        F: Fn() -> E,
    {
        let now = engine.now().as_secs();
        let done = {
            let res = lens(engine.world_mut());
            res.pending_completion = None;
            res.advance_to(now);
            // The earliest-finishing job has (numerically) zero remaining.
            let idx = res
                .jobs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.remaining.total_cmp(&b.1.remaining))
                .map(|(i, _)| i);
            match idx {
                Some(i) => {
                    let mut job = res.jobs.swap_remove(i);
                    if res.jobs.is_empty() {
                        res.stats.busy.set(now, 0.0);
                    }
                    job.done.take()
                }
                None => None,
            }
        };
        Self::reschedule(engine, lens, fired);
        if let Some(done) = done {
            done.fire(engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::time::SimTime;

    /// One disk and one CPU; completions leave their time and tag behind.
    struct Station {
        disk: Fcfs<Station, Ev>,
        cpu: Ps<Station, Ev>,
        completed_at: Vec<f64>,
        order: Vec<u32>,
    }

    enum Ev {
        /// Job `tag` completed.
        Done(u32),
        /// A CPU job with this much work arrives now.
        CpuArrival(f64),
        DiskFired(ServiceToken),
        CpuFired,
    }

    fn disk(w: &mut Station) -> &mut Fcfs<Station, Ev> {
        &mut w.disk
    }
    fn cpu(w: &mut Station) -> &mut Ps<Station, Ev> {
        &mut w.cpu
    }

    impl Event<Station> for Ev {
        fn fire(self, engine: &mut Engine<Station, Ev>) {
            match self {
                Ev::Done(tag) => {
                    let now = engine.now().as_secs();
                    let w = engine.world_mut();
                    w.completed_at.push(now);
                    w.order.push(tag);
                }
                Ev::CpuArrival(work) => cpu_job(engine, work),
                Ev::DiskFired(token) => Fcfs::on_fired(engine, disk, token, Ev::DiskFired),
                Ev::CpuFired => Ps::on_fired(engine, cpu, || Ev::CpuFired),
            }
        }
    }

    fn station(servers: usize, rate: f64) -> Engine<Station, Ev> {
        Engine::new(Station {
            disk: Fcfs::new(servers),
            cpu: Ps::new(rate),
            completed_at: Vec::new(),
            order: Vec::new(),
        })
    }

    fn disk_job(engine: &mut Engine<Station, Ev>, service: f64, tag: u32) {
        Fcfs::submit_event(engine, disk, service, Ev::Done(tag), Ev::DiskFired);
    }

    fn cpu_job(engine: &mut Engine<Station, Ev>, work: f64) {
        Ps::submit_event(engine, cpu, work, Ev::Done(0), || Ev::CpuFired);
    }

    #[test]
    fn fcfs_serializes_single_server() {
        let mut engine = station(1, 1.0);
        for _ in 0..4 {
            disk_job(&mut engine, 0.25, 0);
        }
        engine.run();
        assert_eq!(engine.world().completed_at, vec![0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn fcfs_multi_server_runs_in_parallel() {
        let mut engine = station(2, 1.0);
        for _ in 0..4 {
            disk_job(&mut engine, 1.0, 0);
        }
        engine.run();
        // Two at t=1, two at t=2.
        assert_eq!(engine.world().completed_at, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn fcfs_preserves_order() {
        let mut engine = station(1, 1.0);
        for tag in 0..5u32 {
            disk_job(&mut engine, 0.1, tag);
        }
        engine.run();
        assert_eq!(engine.world().order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fcfs_multi_server_tokens_route_out_of_order_completions() {
        // Two servers, first job longer than the second: completions come
        // back out of submission order and the tokens must route each
        // `done` to the right job.
        let mut engine = station(2, 1.0);
        disk_job(&mut engine, 2.0, 1);
        disk_job(&mut engine, 1.0, 2);
        disk_job(&mut engine, 5.0, 3);
        engine.run();
        assert_eq!(engine.world().order, vec![2, 1, 3]);
    }

    #[test]
    fn fcfs_utilization_accounting() {
        let mut engine = station(1, 1.0);
        disk_job(&mut engine, 2.0, 0);
        engine.run();
        engine.run_until(SimTime::from_secs(4.0));
        // Busy 2 s of 4 s window.
        let u = engine.world().disk.stats.busy.mean_at(4.0);
        assert!((u - 0.5).abs() < 1e-12, "u={u}");
    }

    /// Closed-loop M-ish/M/1: utilization from simulation must match the
    /// utilization law within statistical noise.
    #[test]
    fn fcfs_closed_loop_matches_utilization_law() {
        struct W {
            disk: Fcfs<W, Loop>,
            rng: Rng,
            completions: u64,
        }
        enum Loop {
            /// Think time over: request this much service.
            Submit(f64),
            Done,
            Fired(ServiceToken),
        }
        fn lens(w: &mut W) -> &mut Fcfs<W, Loop> {
            &mut w.disk
        }
        fn cycle(engine: &mut Engine<W, Loop>) {
            let w = engine.world_mut();
            let (think, service) = (w.rng.exp(0.9), w.rng.exp(0.1));
            engine.schedule_event_in(think, Loop::Submit(service));
        }
        impl Event<W> for Loop {
            fn fire(self, engine: &mut Engine<W, Loop>) {
                match self {
                    Loop::Submit(service) => {
                        Fcfs::submit_event(engine, lens, service, Loop::Done, Loop::Fired);
                    }
                    Loop::Done => {
                        engine.world_mut().completions += 1;
                        cycle(engine);
                    }
                    Loop::Fired(token) => Fcfs::on_fired(engine, lens, token, Loop::Fired),
                }
            }
        }
        let mut engine = Engine::new(W {
            disk: Fcfs::new(1),
            rng: Rng::seed_from_u64(99),
            completions: 0,
        });
        cycle(&mut engine);
        engine.run_until(SimTime::from_secs(5_000.0));
        let w = engine.world();
        let x = w.completions as f64 / 5_000.0;
        let u = w.disk.stats.busy.mean_at(5_000.0);
        // U = X * D with D = 0.1.
        assert!((u - x * 0.1).abs() < 0.01, "u={u} x={x}");
    }

    #[test]
    fn ps_single_job_runs_at_full_rate() {
        let mut engine = station(1, 1.0);
        cpu_job(&mut engine, 0.5);
        engine.run();
        assert_eq!(engine.world().completed_at, vec![0.5]);
    }

    #[test]
    fn ps_equal_jobs_finish_together() {
        let mut engine = station(1, 1.0);
        for _ in 0..2 {
            cpu_job(&mut engine, 1.0);
        }
        engine.run();
        // Two unit jobs sharing one CPU both finish at t=2.
        let done = &engine.world().completed_at;
        assert_eq!(done.len(), 2);
        for &t in done {
            assert!((t - 2.0).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn ps_short_job_finishes_first() {
        let mut engine = station(1, 1.0);
        cpu_job(&mut engine, 1.0);
        cpu_job(&mut engine, 0.2);
        engine.run();
        // Short job: shares CPU until it has consumed 0.2 -> finishes at 0.4.
        // Long job: 0.2 done by then, remaining 0.8 alone -> t = 1.2.
        let done = &engine.world().completed_at;
        assert!((done[0] - 0.4).abs() < 1e-9, "first {}", done[0]);
        assert!((done[1] - 1.2).abs() < 1e-9, "second {}", done[1]);
    }

    #[test]
    fn ps_late_arrival_shares_fairly() {
        let mut engine = station(1, 1.0);
        cpu_job(&mut engine, 1.0);
        engine.schedule_event_in(0.5, Ev::CpuArrival(1.0));
        engine.run();
        // Job A alone [0,0.5] does 0.5 work; then shares. A finishes at 1.5;
        // B then runs alone with 0.5 left, finishing at 2.0.
        let done = &engine.world().completed_at;
        assert!((done[0] - 1.5).abs() < 1e-9, "A at {}", done[0]);
        assert!((done[1] - 2.0).abs() < 1e-9, "B at {}", done[1]);
    }

    #[test]
    fn ps_rate_scales_service() {
        let mut engine = station(1, 2.0);
        cpu_job(&mut engine, 1.0);
        engine.run();
        assert_eq!(engine.world().completed_at, vec![0.5]);
    }

    #[test]
    fn ps_zero_work_job_completes_immediately() {
        let mut engine = station(1, 1.0);
        cpu_job(&mut engine, 0.0);
        engine.run();
        assert_eq!(engine.world().completed_at, vec![0.0]);
    }

    #[test]
    fn ps_utilization_busy_fraction() {
        let mut engine = station(1, 1.0);
        cpu_job(&mut engine, 1.0);
        engine.run();
        engine.run_until(SimTime::from_secs(2.0));
        let u = engine.world().cpu.stats.busy.mean_at(2.0);
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
    }
}
