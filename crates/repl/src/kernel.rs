//! The replica kernel: one node lifecycle under every replication design.
//!
//! The paper's standalone, multi-master (Figure 4) and single-master
//! (Figure 5) systems are the same machine — a snapshot-isolated
//! database behind a CPU and a disk, driven by closed-loop clients — and
//! differ only in where updates are routed, how they commit, and how
//! writesets reach the other replicas. This module is that machine,
//! written once and generic over a [`Policy`] resolved at compile time:
//! every event is a variant of the inline [`Ev`] enum, so the
//! steady-state loop allocates nothing per event and each design
//! monomorphises to a simulator of its own.
//!
//! The kernel owns the node ([`Node`]: database, processor-sharing CPU,
//! FCFS disk, liveness and crash epoch, admission queue, in-order apply
//! queue, optional durable state), the world ([`World`]: client pool,
//! metrics, transient collector, MPL, vacuum cadence, log surcharge,
//! stranded queue) and every lifecycle step:
//!
//! ```text
//! client_cycle → Think → [Dispatch] → place → admit → start_attempt
//!   → CpuDone → DiskDone → complete_attempt ─ read ──→ respond → release
//!                                           └ update → Policy::commit_update
//! fan_out → propagate → WsCpuDone → WsDiskDone → mark_ready (in-order retire)
//! inject → crash / join → catchup_step → drain_stranded
//! ```
//!
//! # Adding a design = writing a policy
//!
//! A design is a `Design` variant, a policy here, and one arm of
//! `Simulator::run_from` (`design.rs`) that calls [`run`] under it. The
//! policy supplies its own state (the `Policy` value lives in
//! [`World::policy`]) and these hooks — nothing else:
//!
//! | hook | decides |
//! |---|---|
//! | [`Policy::LB_HOP`] | whether a load-balancer hop separates `Think` from dispatch |
//! | [`Policy::WS_SALT`] | the salt of the writeset-demand RNG stream |
//! | [`Policy::label`] | the node's name in the utilisation report |
//! | [`Policy::sample`] | which transaction a client submits (default: the mix) |
//! | [`Policy::route`], [`Policy::park`] | where a transaction runs, and where it waits when nowhere |
//! | [`Policy::commit_update`] | the update commit protocol, ending in [`respond`] or [`conflict`] |
//! | [`Policy::Ev`], [`Policy::fire`] | the design's own events |
//! | [`Policy::cluster_event`] | which injected cluster events apply (default: crash and rejoin) |
//! | [`Policy::retired`], [`Policy::crashed`], [`Policy::caught_up`] | side effects of the node lifecycle (election, promotion) |
//!
//! There is one writeset log per run, the [`WsLog`] behind
//! [`Policy::log`]: the policy appends to it when an update commits (the
//! certifier under multi-master, the master's relay under single-master)
//! and the kernel does everything else — sizes a fresh node's
//! `apply_next` from it, replays borrowed ranges of it into rejoiners,
//! and truncates it at vacuum cadence.
//!
//! What the kernel guarantees every policy:
//!
//! - **Set-up is paid once per workload per run, not per cell.** The
//!   caller installs the workload once into a [`Seeded`] image;
//!   [`build`] never installs — it checks the image fits the cell,
//!   compiles the cell's plan against it and clones it into all `n`
//!   nodes, so every replica of every cell starts as the same image
//!   (rows, counters, next transaction id) at the cost of `n` copies of
//!   the slot arrays: a row image is shared, so the image, the replicas
//!   (and a durable node's image) hold one allocation of every seeded
//!   row between them until one of them writes it.
//! - **A commit's writeset is shared, not copied.** It is wrapped in one
//!   `Arc` at commit — by [`commit_local`], or by a policy that certifies
//!   it elsewhere; the log entry, every [`WsApply`] in flight,
//!   every apply queue and every durable node's redo log hold that `Arc`,
//!   and each replica installs the row images it carries by bumping
//!   their counts. Fan-out costs events and map nodes per extra replica,
//!   never a row payload.
//! - **A crash loses what was not fsynced.** Besides stopping the node,
//!   `crash` drops a durable node's unsealed redo-log group
//!   ([`NodeDurability::crash`]). The redo log is typed records sharing
//!   each commit's writeset, installed by the checked step the byte WAL
//!   replay uses (`Database::replay_commit`): the rejoin recovers to the
//!   last sealed record and re-logs from there, so the log's sequences
//!   never run backwards however often a node crashes between two
//!   checkpoints.
//! - **Epoch check before every completion.** An attempt is stamped with
//!   its node's crash epoch; `CpuDone` and `DiskDone` re-check liveness
//!   and epoch and hand a stale attempt back to [`place`] with its
//!   snapshot aborted. A policy that parks an attempt across a delay
//!   (a certifier round trip) re-checks with [`stale`] when it resumes.
//! - **In-order retire.** Propagated writesets consume their resource
//!   demands concurrently but enter a node's database strictly in log
//!   order ([`mark_ready`]); duplicates below `apply_next` are dropped.
//! - **RNG draw order.** A client's stream is drawn think → transaction
//!   → retry demands; the writeset stream draws CPU then disk demand at
//!   propagation time, and the group-commit surcharge is added after
//!   both draws — durability never shifts a stream.
//! - **One retry rule.** A conflict retries immediately with fresh
//!   demands up to [`MAX_RETRIES`] times, then releases the slot and
//!   returns the client to its think loop without recording a commit.
//! - **Log floor.** At vacuum cadence the log is truncated below the
//!   minimum sequence any node (Down and CatchingUp included) can still
//!   need, so catch-up never reads a truncated entry unless the run caps
//!   retention (`DurabilityConfig::log_retention`, in every design) —
//!   which the checkpoint state transfer covers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use replipred_core::ScheduleEvent;
use replipred_sidb::{Database, TxnId, WriteSet};
use replipred_sim::engine::{Engine, Event};
use replipred_sim::resource::{Fcfs, Ps, ServiceToken};
use replipred_sim::{Rng, SimTime};
use replipred_workload::client::{ClientId, ClientPool};
use replipred_workload::spec::{CompiledWorkload, TxnTemplate, WorkloadSpec};

use crate::config::SimConfig;
use crate::durable::NodeDurability;
use crate::metrics::{Metrics, RunReport};
use crate::transient::TransientCollector;
use crate::wslog::WsLog;

/// Abandon a transaction after this many conflict retries (a liveness
/// backstop; the paper's RTEs retry indefinitely).
const MAX_RETRIES: u32 = 1000;

/// Per-row cost of a checkpoint state transfer, as a fraction of one
/// writeset's mean CPU+disk demand. Shipping and installing a checkpoint
/// row is cheaper than replaying a full writeset (no certification, no
/// per-commit framing), but scales with the database size instead of the
/// missed-commit count.
const STATE_TRANSFER_ROW_COST: f64 = 0.25;

/// The engine a design runs on.
pub(crate) type Sim<P> = Engine<World<P>, Ev<P>>;

/// A dispatched transaction outside any node: `(client, template,
/// dispatch time)`. The dispatch time survives failovers and queueing so
/// every disruption shows up in the response time.
pub(crate) type Waiter = (ClientId, TxnTemplate, f64);

/// What differs between replication designs (see the module docs).
pub(crate) trait Policy: Sized + 'static {
    /// The design's own events (`Infallible` when it has none).
    type Ev: 'static;
    /// Whether `Think` schedules a `Dispatch` event after the LAN delay.
    /// A single node dispatches directly: even at delay 0 the extra
    /// same-time event would change how ties are broken.
    const LB_HOP: bool;
    /// Salt of the writeset-demand RNG stream (`seed ^ WS_SALT`).
    const WS_SALT: u64;

    /// Node `node`'s name in the utilisation report.
    fn label(w: &World<Self>, node: usize) -> String;

    /// Draws the transaction `client` submits next.
    fn sample(w: &mut World<Self>, client: ClientId) -> TxnTemplate {
        w.pool.next_transaction(client)
    }

    /// The node that runs `template`, or `None` when none can right now.
    fn route(w: &World<Self>, template: &TxnTemplate) -> Option<usize>;

    /// Holds a transaction [`Policy::route`] could not place. Whatever
    /// lands on [`World::stranded`] restarts when a node comes up.
    fn park(w: &mut World<Self>, waiter: Waiter) {
        w.stranded.push_back(waiter);
    }

    /// Commits an update whose statements have just executed on
    /// `a.node` under snapshot `a.txn`. Must end — now or after the
    /// design's own events — in [`respond`], [`conflict`] or [`place`].
    fn commit_update(engine: &mut Sim<Self>, a: Attempt);

    /// Fires one of the design's own events.
    fn fire(engine: &mut Sim<Self>, ev: Self::Ev);

    /// Applies an injected cluster event; `false` echoes it as ignored.
    fn cluster_event(engine: &mut Sim<Self>, ev: &ScheduleEvent) -> bool {
        node_event(engine, ev)
    }

    /// `node` retired propagated writesets into its database.
    fn retired(_engine: &mut Sim<Self>, _node: usize) {}

    /// `node` just crashed and its waiters have been re-placed.
    fn crashed(_engine: &mut Sim<Self>, _node: usize) {}

    /// `node` finished catch-up and is Up again.
    fn caught_up(_engine: &mut Sim<Self>, _node: usize) {}

    /// The committed-writeset log rejoiners catch up from. The policy
    /// appends to it at commit; a design that never propagates keeps it
    /// empty.
    fn log(&self) -> &WsLog;

    /// The log, for the kernel's vacuum-cadence truncation.
    fn log_mut(&mut self) -> &mut WsLog;
}

/// Node liveness for fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Serving transactions and applying propagated writesets.
    Up,
    /// Crashed: serves nothing, receives nothing.
    Down,
    /// Rejoined and replaying missed writesets; takes no load yet.
    CatchingUp,
}

/// One database node with its hardware.
pub(crate) struct Node<P: Policy> {
    pub(crate) db: Database,
    cpu: Ps<World<P>, Ev<P>>,
    disk: Fcfs<World<P>, Ev<P>>,
    pub(crate) state: NodeState,
    /// Incremented at every crash. In-flight work stamped with an older
    /// epoch is stale — it must not complete even if the node has
    /// already rejoined by the time its event fires.
    epoch: u64,
    /// Transactions currently resident (load-balancer signal).
    inflight: usize,
    /// Next log sequence to retire into the local database. Writesets
    /// consume resources concurrently but are *applied* strictly in log
    /// order (out-of-order completion, in-order retire); a node that
    /// commits locally advances it itself.
    pub(crate) apply_next: u64,
    /// Writesets whose resource phase finished, awaiting their turn.
    apply_ready: BTreeMap<u64, Arc<WriteSet>>,
    /// Transactions currently executing (holding an admission slot).
    executing: usize,
    /// Arrivals waiting for an admission slot (connection pool).
    admission: VecDeque<Waiter>,
    /// Durable image + redo log when durability is enabled. A crash
    /// freezes it; rejoin rebuilds `db` from it instead of trusting memory.
    pub(crate) durable: Option<NodeDurability>,
}

/// Everything a run's events act on.
pub(crate) struct World<P: Policy> {
    pub(crate) nodes: Vec<Node<P>>,
    /// The design's own state.
    pub(crate) policy: P,
    /// Clients and their compiled statement plan (`pool.plan()`).
    pub(crate) pool: ClientPool,
    metrics: Metrics,
    measuring: bool,
    /// Demand sampler for writeset applications.
    rng: Rng,
    lb_delay: f64,
    mpl: usize,
    /// Vacuum interval, seconds (0 disables).
    vacuum_interval: f64,
    /// End of the simulated horizon (no vacuums past it).
    end_time: f64,
    /// The configured base client population (ramp factors are relative
    /// to this).
    base_clients: usize,
    /// Windowed transient metrics; `None` unless a schedule is active.
    transient: Option<TransientCollector>,
    /// Amortized group-commit disk surcharge per logged commit
    /// (`DurabilityConfig::log_disk_demand`; 0 with durability off).
    log_disk: f64,
    /// Hard log retention cap, entries (0 = unbounded): rejoiners that
    /// fall behind it take a checkpoint state transfer.
    log_retention: u64,
    /// Transactions with no live node to run on, drained on rejoin.
    pub(crate) stranded: VecDeque<Waiter>,
    /// Checkpoint state transfers performed (fallback rejoin path).
    state_transfers: u64,
}

/// One in-flight transaction attempt moving through the CPU→disk phases
/// of its node.
pub(crate) struct Attempt {
    pub(crate) client: ClientId,
    pub(crate) node: usize,
    pub(crate) txn: TxnId,
    pub(crate) template: TxnTemplate,
    /// Dispatch time of the transaction (not of this attempt).
    pub(crate) started: f64,
    /// Conflict retries so far.
    attempt: u32,
    /// The node crash epoch the attempt started under.
    epoch: u64,
}

/// A logged writeset consuming its `ws` demands on a remote node.
pub(crate) struct WsApply {
    node: usize,
    seq: u64,
    writeset: Arc<WriteSet>,
    /// Disk demand, sampled together with the CPU demand at propagation
    /// time (keeps the RNG draw order independent of resource contention).
    ws_disk: f64,
}

/// The typed event vocabulary of every design.
pub(crate) enum Ev<P: Policy> {
    /// A client finished thinking and submits its next transaction.
    Think(ClientId),
    /// The LAN delay elapsed: route and admit.
    Dispatch(ClientId),
    /// An attempt finished its CPU phase; the disk phase follows.
    CpuDone(Attempt),
    /// An attempt finished its disk phase; commit or retry.
    DiskDone(Attempt),
    /// A propagated writeset finished its CPU phase on a remote node.
    WsCpuDone(WsApply),
    /// A propagated writeset finished its disk phase; retire in order.
    WsDiskDone(WsApply),
    /// End of warm-up: discard all measurements.
    Warmup,
    /// Periodic version GC, checkpoint and log truncation.
    Vacuum,
    /// An injected schedule event (crash, rejoin, outage, ramp).
    Inject(ScheduleEvent),
    /// A rejoining node finished one round of recovery or replay.
    CatchupDone(usize),
    /// Internal PS completion for `nodes[i].cpu` (see [`Ps::on_fired`]).
    CpuFired(usize),
    /// Internal FCFS completion for `nodes[i].disk` (see
    /// [`Fcfs::on_fired`]).
    DiskFired(usize, ServiceToken),
    /// One of the design's own events.
    Design(P::Ev),
}

impl<P: Policy> Event<World<P>> for Ev<P> {
    fn fire(self, engine: &mut Sim<P>) {
        match self {
            Ev::Think(client) => {
                if P::LB_HOP {
                    let delay = engine.world().lb_delay;
                    engine.schedule_event_in(delay, Ev::Dispatch(client));
                } else {
                    dispatch(engine, client);
                }
            }
            Ev::Dispatch(client) => dispatch(engine, client),
            Ev::CpuDone(a) => {
                if stale(engine.world(), &a) {
                    abandon_attempt(engine, a);
                    return;
                }
                // Update attempts pay the redo-log group-commit share on
                // top of their sampled disk demand (zero with durability
                // off — the surcharge never touches the RNG stream).
                let log_disk = if a.template.is_update {
                    engine.world().log_disk
                } else {
                    0.0
                };
                let disk_demand = a.template.disk_demand + log_disk;
                submit_disk(engine, a.node, disk_demand, Ev::DiskDone(a));
            }
            Ev::DiskDone(a) => {
                if stale(engine.world(), &a) {
                    abandon_attempt(engine, a);
                } else {
                    complete_attempt(engine, a);
                }
            }
            Ev::WsCpuDone(ws) => {
                // A crashed or rejoining target recovers this writeset
                // from the log instead.
                if engine.world().nodes[ws.node].state == NodeState::Up {
                    submit_disk(engine, ws.node, ws.ws_disk, Ev::WsDiskDone(ws));
                }
            }
            Ev::WsDiskDone(ws) => {
                let w = engine.world_mut();
                let target = &w.nodes[ws.node];
                // Stale too when a crash and a rejoin both fit inside this
                // disk job: catch-up has replayed the sequence from the
                // log, and it must not be counted as applied twice.
                if target.state != NodeState::Up || ws.seq < target.apply_next {
                    return;
                }
                if w.measuring {
                    w.metrics.writesets_applied += 1;
                    w.metrics.writeset_bytes += ws.writeset.wire_size() as u64;
                }
                mark_ready(engine, ws.node, ws.seq, ws.writeset);
            }
            Ev::Warmup => {
                let now = engine.now().as_secs();
                let w = engine.world_mut();
                w.metrics.reset();
                for node in &mut w.nodes {
                    // Discard warm-up counts so the stats a profiler
                    // captures cover exactly the measurement window (the
                    // paper's 15-minute capture).
                    node.db.reset_stats();
                    node.cpu.stats.reset(now);
                    node.disk.stats.reset(now);
                }
                w.measuring = true;
            }
            Ev::Vacuum => {
                let w = engine.world_mut();
                vacuum(w);
                let interval = w.vacuum_interval;
                if engine.now().as_secs() + interval < engine.world().end_time {
                    engine.schedule_event_in(interval, Ev::Vacuum);
                }
            }
            Ev::Inject(ev) => inject(engine, ev),
            Ev::CatchupDone(node) => catchup_step(engine, node),
            Ev::CpuFired(node) => {
                Ps::on_fired(engine, cpu_of(node), move || Ev::CpuFired(node));
            }
            Ev::DiskFired(node, token) => {
                Fcfs::on_fired(engine, disk_of(node), token, move |t| {
                    Ev::DiskFired(node, t)
                });
            }
            Ev::Design(ev) => P::fire(engine, ev),
        }
    }
}

/// The lens the resource layer reaches `nodes[node]`'s CPU through.
fn cpu_of<P: Policy>(node: usize) -> impl Fn(&mut World<P>) -> &mut Ps<World<P>, Ev<P>> + Copy {
    move |w| &mut w.nodes[node].cpu
}

/// The lens the resource layer reaches `nodes[node]`'s disk through.
fn disk_of<P: Policy>(node: usize) -> impl Fn(&mut World<P>) -> &mut Fcfs<World<P>, Ev<P>> + Copy {
    move |w| &mut w.nodes[node].disk
}

fn submit_cpu<P: Policy>(engine: &mut Sim<P>, node: usize, work: f64, done: Ev<P>) {
    Ps::submit_event(engine, cpu_of(node), work, done, move || Ev::CpuFired(node));
}

fn submit_disk<P: Policy>(engine: &mut Sim<P>, node: usize, service: f64, done: Ev<P>) {
    Fcfs::submit_event(engine, disk_of(node), service, done, move |t| {
        Ev::DiskFired(node, t)
    });
}

// ---------------------------------------------------------------------
// Set-up and report.
// ---------------------------------------------------------------------

/// A workload installed once into a database at one seed scale: the
/// image every node of every cell of a run is cloned from.
///
/// [`Seeded::install`] pays the set-up — schema, then one seed
/// transaction — once; a cell clones the image into each of its nodes,
/// which then share every seeded row until one of them writes it. What
/// the image was seeded from travels with it (tables, row counts, the
/// heap and private tables, the seed scale), and a cell whose workload
/// or `seed_scale` would seed anything else is refused, not run on the
/// wrong rows. Clients, think time, demands and the mix do not enter
/// the image, so one image serves cells that differ in any of them.
#[derive(Debug)]
pub struct Seeded {
    db: Database,
    facts: SeedFacts,
}

/// What decides the rows of a seeded image.
#[derive(Debug)]
struct SeedFacts {
    seed_scale: f64,
    update_table: String,
    db_update_size: u64,
    read_tables: Vec<(String, u64)>,
    private_table: bool,
    heap_rows: Option<u64>,
}

impl SeedFacts {
    fn of(spec: &WorkloadSpec, seed_scale: f64) -> Self {
        SeedFacts {
            seed_scale,
            update_table: spec.update_table.clone(),
            db_update_size: spec.db_update_size,
            read_tables: spec.read_tables.clone(),
            private_table: spec.classes.iter().any(|c| c.private_writes > 0),
            heap_rows: spec.heap.map(|h| h.rows),
        }
    }

    /// Each fact on which the image (`self`) and a cell differ, named.
    fn mismatches(&self, cell: &SeedFacts) -> Vec<String> {
        fn differ<T: PartialEq + std::fmt::Debug>(
            name: &str,
            image: &T,
            cell: &T,
        ) -> Option<String> {
            (image != cell).then(|| format!("{name} {image:?} (image) vs {cell:?} (cell)"))
        }
        [
            differ("seed_scale", &self.seed_scale, &cell.seed_scale),
            differ("update table", &self.update_table, &cell.update_table),
            differ("update rows", &self.db_update_size, &cell.db_update_size),
            differ("read tables", &self.read_tables, &cell.read_tables),
            differ("private table", &self.private_table, &cell.private_table),
            differ("heap rows", &self.heap_rows, &cell.heap_rows),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

impl Seeded {
    /// Installs `spec` into a fresh database at `seed_scale`.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not install (two of its tables share
    /// a name — a workload-spec bug).
    pub fn install(spec: &WorkloadSpec, seed_scale: f64) -> Seeded {
        let mut db = Database::new();
        spec.install(&mut db, seed_scale)
            .expect("workload installs on a fresh database");
        Seeded {
            db,
            facts: SeedFacts::of(spec, seed_scale),
        }
    }

    /// The cell's own plan (its clients, think time and mix) against the
    /// image's tables.
    ///
    /// # Panics
    ///
    /// Panics, naming each mismatch, if `spec` at `seed_scale` would seed
    /// another image.
    fn plan(&self, spec: &WorkloadSpec, seed_scale: f64) -> CompiledWorkload {
        let mismatches = self.facts.mismatches(&SeedFacts::of(spec, seed_scale));
        assert!(
            mismatches.is_empty(),
            "the seeded image does not fit workload `{}`: {}",
            spec.name,
            mismatches.join("; ")
        );
        spec.compile(&self.db)
            .expect("the image holds the workload's schema")
    }
}

/// Builds the engine for `n` nodes serving `n × clients_per_replica`
/// clients, with every initial event scheduled. Nothing is installed
/// here: `spec` is compiled against the `seeded` image (which must have
/// been seeded from the same tables at `cfg.seed_scale`) and the image
/// cloned into every node, so replicas start as identical copies (same
/// rows, counters and next transaction id as a fresh install would give)
/// that share every row image. Set-up is paid once per [`Seeded`], not
/// once per cell or per replica.
/// `policy` sees the seeded databases once, before the nodes wrap them.
///
/// # Panics
///
/// Panics if `n` is zero or `seeded` does not fit `spec` at
/// `cfg.seed_scale`.
pub(crate) fn build<P: Policy>(
    seeded: &Seeded,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    n: usize,
    policy: impl FnOnce(&mut [Database]) -> P,
) -> Sim<P> {
    assert!(n > 0, "need at least one node");
    let clients = n * spec.clients_per_replica;
    let plan = seeded.plan(spec, cfg.seed_scale);
    let mut dbs = vec![seeded.db.clone(); n];
    let policy = policy(&mut dbs);
    let log_seq = policy.log().next_seq() - 1;
    let durable = cfg.durability.enabled;
    let nodes = dbs
        .into_iter()
        .map(|db| Node {
            // The initial image is the freshly seeded database: a node
            // crashing before the first vacuum recovers from it plus its
            // redo log.
            durable: durable
                .then(|| NodeDurability::new(&db, log_seq, cfg.durability.group_commit.max(1))),
            db,
            cpu: Ps::new(1.0),
            disk: Fcfs::new(1),
            state: NodeState::Up,
            epoch: 0,
            inflight: 0,
            apply_next: log_seq + 1,
            apply_ready: BTreeMap::new(),
            executing: 0,
            admission: VecDeque::new(),
        })
        .collect();
    let schedule = &cfg.schedule;
    // Ramps never invent clients mid-run: the pool is sized for the
    // largest requested population up front, extra streams parked.
    let capacity = (schedule.max_clients_factor() * clients as f64).ceil() as usize;
    let world = World {
        nodes,
        policy,
        pool: ClientPool::with_capacity(plan, clients, capacity, cfg.seed),
        metrics: Metrics::default(),
        measuring: false,
        rng: Rng::seed_from_u64(cfg.seed ^ P::WS_SALT),
        lb_delay: cfg.lb_delay,
        mpl: cfg.mpl.max(1),
        vacuum_interval: cfg.vacuum_interval,
        end_time: cfg.end_time(),
        base_clients: clients,
        transient: schedule
            .enabled()
            .then(|| TransientCollector::new(schedule, cfg.warmup, cfg.end_time())),
        log_disk: cfg.durability.log_disk_demand(),
        log_retention: cfg.durability.log_retention,
        stranded: VecDeque::new(),
        state_transfers: 0,
    };
    let mut engine = Engine::new(world);
    for i in 0..clients {
        client_cycle(&mut engine, ClientId(i));
    }
    engine.schedule_event_at(SimTime::from_secs(cfg.warmup), Ev::Warmup);
    if cfg.vacuum_interval > 0.0 {
        engine.schedule_event_in(cfg.vacuum_interval, Ev::Vacuum);
    }
    for te in schedule.sorted_events() {
        engine.schedule_event_at(SimTime::from_secs(te.at), Ev::Inject(te.event));
    }
    engine
}

/// Runs warm-up plus the measurement window on `n` nodes cloned from
/// `seeded` and reports, handing back the final world (databases, policy
/// state).
pub(crate) fn run<P: Policy>(
    seeded: &Seeded,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    n: usize,
    policy: impl FnOnce(&mut [Database]) -> P,
) -> (RunReport, World<P>) {
    let mut engine = build(seeded, spec, cfg, n, policy);
    let end = SimTime::from_secs(cfg.end_time());
    engine.run_until(end);
    let end_s = end.as_secs();
    let mut w = engine.into_world();
    let utils: Vec<(String, f64, f64)> = (0..n)
        .map(|i| {
            let node = &w.nodes[i];
            (
                P::label(&w, i),
                node.cpu.stats.busy.mean_at(end_s),
                node.disk.stats.busy.mean_at(end_s),
            )
        })
        .collect();
    let mut report = RunReport::from_metrics(
        &spec.name,
        n,
        w.base_clients,
        cfg.duration,
        &w.metrics,
        &utils,
    );
    report.transient = w.transient.take().map(TransientCollector::finalize);
    (report, w)
}

// ---------------------------------------------------------------------
// The transaction lifecycle.
// ---------------------------------------------------------------------

fn client_cycle<P: Policy>(engine: &mut Sim<P>, client: ClientId) {
    let think = engine.world_mut().pool.next_think(client);
    engine.schedule_event_in(think, Ev::Think(client));
}

fn dispatch<P: Policy>(engine: &mut Sim<P>, client: ClientId) {
    // Population ramps: surplus clients go dormant between transactions.
    if engine.world_mut().pool.park_if_surplus(client) {
        return;
    }
    let template = P::sample(engine.world_mut(), client);
    let started = engine.now().as_secs();
    place(engine, (client, template, started));
}

/// Least-loaded live node, if any.
pub(crate) fn least_loaded<P: Policy>(w: &World<P>) -> Option<usize> {
    w.nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.state == NodeState::Up)
        .min_by_key(|(_, node)| node.inflight)
        .map(|(i, _)| i)
}

/// Routes a transaction to the node its design picks and admits it
/// there, or parks it when no node can take it. Fresh dispatches,
/// failovers and drained queues all enter here; the attempt (re)starts
/// from admission.
pub(crate) fn place<P: Policy>(engine: &mut Sim<P>, waiter: Waiter) {
    let w = engine.world_mut();
    match P::route(w, &waiter.1) {
        Some(node) => {
            w.nodes[node].inflight += 1;
            admit(engine, node, waiter);
        }
        None => P::park(w, waiter),
    }
}

/// Whether `a`'s node crashed (and possibly rejoined) since it started.
pub(crate) fn stale<P: Policy>(w: &World<P>, a: &Attempt) -> bool {
    let node = &w.nodes[a.node];
    node.state != NodeState::Up || node.epoch != a.epoch
}

/// Drops an in-flight attempt whose node died mid-execution and re-places
/// its client. The dead node's open snapshot is aborted so a later rejoin
/// does not pin old versions.
fn abandon_attempt<P: Policy>(engine: &mut Sim<P>, a: Attempt) {
    let _ = engine.world_mut().nodes[a.node].db.abort(a.txn);
    place(engine, (a.client, a.template, a.started));
}

/// Admission control (connection pool): at most `mpl` transactions execute
/// concurrently per node; excess arrivals wait without an open snapshot.
fn admit<P: Policy>(engine: &mut Sim<P>, node: usize, waiter: Waiter) {
    let w = engine.world_mut();
    let mpl = w.mpl;
    let slots = &mut w.nodes[node];
    if slots.executing < mpl {
        slots.executing += 1;
        start_attempt(engine, node, waiter, 0);
    } else {
        slots.admission.push_back(waiter);
    }
}

/// Releases an admission slot, immediately admitting the next waiter (the
/// slot transfers without touching the counter).
fn release<P: Policy>(engine: &mut Sim<P>, node: usize) {
    let slots = &mut engine.world_mut().nodes[node];
    match slots.admission.pop_front() {
        Some(next) => start_attempt(engine, node, next, 0),
        None => slots.executing -= 1,
    }
}

fn start_attempt<P: Policy>(engine: &mut Sim<P>, node: usize, waiter: Waiter, attempt: u32) {
    let (client, template, started) = waiter;
    // The snapshot is the node's latest *local* version at execution
    // start (GSI on a replica: possibly stale, never blocking); the
    // conflict window spans the whole execution up to the commit.
    let host = &mut engine.world_mut().nodes[node];
    let txn = host.db.begin();
    let epoch = host.epoch;
    let cpu_demand = template.cpu_demand;
    let attempt = Attempt {
        client,
        node,
        txn,
        template,
        started,
        attempt,
        epoch,
    };
    submit_cpu(engine, node, cpu_demand, Ev::CpuDone(attempt));
}

/// Executes the attempt's statements against the snapshot taken at
/// [`start_attempt`]. Read-only transactions commit locally in every
/// design (the GSI guarantee); updates go through the design's protocol.
fn complete_attempt<P: Policy>(engine: &mut Sim<P>, a: Attempt) {
    let w = engine.world_mut();
    let db = &mut w.nodes[a.node].db;
    w.pool
        .plan()
        .execute(db, a.txn, &a.template)
        .expect("workload references seeded tables");
    if a.template.is_update {
        P::commit_update(engine, a);
    } else {
        db.commit(a.txn)
            .expect("read-only transactions always commit");
        respond(engine, &a);
    }
}

/// Commits an update under the node's own snapshot-isolation concurrency
/// control and returns its writeset, wrapped in the one `Arc` every
/// holder shares. The node advances past it as if it had applied it —
/// logging it when durable, the one place a local commit is logged. A
/// write-write conflict goes to [`conflict`] and yields `None`.
pub(crate) fn commit_local<P: Policy>(
    engine: &mut Sim<P>,
    a: Attempt,
) -> Option<(Attempt, Arc<WriteSet>)> {
    let node = &mut engine.world_mut().nodes[a.node];
    match node.db.commit(a.txn) {
        Ok(info) => {
            let writeset = Arc::new(info.writeset);
            node.advanced(info.commit_seq, &writeset);
            Some((a, writeset))
        }
        Err(e) if e.is_conflict() => {
            conflict(engine, a);
            None
        }
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

/// Records a committed transaction and returns the client to think state.
pub(crate) fn respond<P: Policy>(engine: &mut Sim<P>, a: &Attempt) {
    let now = engine.now().as_secs();
    let w = engine.world_mut();
    if w.measuring {
        let update = a.template.is_update;
        let response = now - a.started;
        if update {
            w.metrics.update_commits += 1;
            w.metrics.update_response.record(response);
        } else {
            w.metrics.read_commits += 1;
            w.metrics.read_response.record(response);
        }
        w.metrics.response.record(response);
        if let Some(tc) = &mut w.transient {
            tc.commit(now, response, update);
        }
    }
    depart(engine, a);
}

/// Records a conflict abort, then retries immediately against a fresh
/// snapshot with fresh demand samples (paper Section 6.1). Past
/// [`MAX_RETRIES`] the transaction is given up: the slot is released and
/// the client thinks again, with no commit and no response time recorded.
pub(crate) fn conflict<P: Policy>(engine: &mut Sim<P>, a: Attempt) {
    let now = engine.now().as_secs();
    let w = engine.world_mut();
    if w.measuring {
        w.metrics.conflict_aborts += 1;
        if let Some(tc) = &mut w.transient {
            tc.abort(now);
        }
    }
    if a.attempt < MAX_RETRIES {
        let retry = w.pool.resample_demands(a.client, &a.template);
        start_attempt(engine, a.node, (a.client, retry, a.started), a.attempt + 1);
    } else {
        depart(engine, &a);
    }
}

/// The transaction leaves its node: the slot moves on and the client
/// returns to its think loop.
fn depart<P: Policy>(engine: &mut Sim<P>, a: &Attempt) {
    release(engine, a.node);
    engine.world_mut().nodes[a.node].inflight -= 1;
    client_cycle(engine, a.client);
}

// ---------------------------------------------------------------------
// Writeset propagation.
// ---------------------------------------------------------------------

/// Propagates the writeset logged at `seq` to every live node but its
/// origin. Crashed or catching-up nodes are skipped — they recover it
/// from the log when they rejoin.
pub(crate) fn fan_out<P: Policy>(
    engine: &mut Sim<P>,
    origin: usize,
    seq: u64,
    writeset: &Arc<WriteSet>,
) {
    for node in 0..engine.world().nodes.len() {
        if node != origin && engine.world().nodes[node].state == NodeState::Up {
            propagate(engine, node, seq, Arc::clone(writeset));
        }
    }
}

/// Consumes the ws resource demands on a remote node, then queues the
/// writeset for in-order retirement.
fn propagate<P: Policy>(engine: &mut Sim<P>, node: usize, seq: u64, writeset: Arc<WriteSet>) {
    let w = engine.world_mut();
    let (mean_cpu, mean_disk) = {
        let spec = w.pool.spec();
        (spec.ws_cpu, spec.ws_disk)
    };
    let ws_cpu = w.rng.exp(mean_cpu);
    // Applying a logged writeset logs it too; the surcharge rides on top
    // of the sampled demand, after both draws, so enabling durability
    // never shifts the RNG stream.
    let ws_disk = w.rng.exp(mean_disk) + w.log_disk;
    let apply = WsApply {
        node,
        seq,
        writeset,
        ws_disk,
    };
    submit_cpu(engine, node, ws_cpu, Ev::WsCpuDone(apply));
}

/// Retires ready writesets into the node's database in strict log order,
/// so the local state always equals a prefix of the log.
///
/// Sequences below `apply_next` are stale duplicates (a rejoined node
/// already replayed them from the log) and are discarded.
pub(crate) fn mark_ready<P: Policy>(
    engine: &mut Sim<P>,
    node: usize,
    seq: u64,
    writeset: Arc<WriteSet>,
) {
    let target = &mut engine.world_mut().nodes[node];
    if seq < target.apply_next {
        return;
    }
    target.apply_ready.insert(seq, writeset);
    while let Some(entry) = target.apply_ready.first_entry() {
        if *entry.key() < target.apply_next {
            entry.remove();
            continue;
        }
        if *entry.key() != target.apply_next {
            break;
        }
        let ws = entry.remove();
        target.replay(&ws);
    }
    P::retired(engine, node);
}

impl<P: Policy> Node<P> {
    /// Applies the writeset at `apply_next`.
    fn replay(&mut self, ws: &Arc<WriteSet>) {
        let version = self.db.apply_writeset(ws);
        self.advanced(version.expect("writeset references seeded tables"), ws);
    }

    /// The database took the writeset at `apply_next` as `version` — applied
    /// here ([`Node::replay`]) or committed here ([`commit_local`]): log it
    /// if durable (a count bump of the shared writeset), and move on.
    fn advanced(&mut self, version: u64, ws: &Arc<WriteSet>) {
        if let Some(d) = self.durable.as_mut() {
            d.log_shared(self.apply_next, version, Arc::clone(ws));
        }
        self.apply_next += 1;
    }
}

/// Vacuum-cadence work: version GC on every node that is not Down (a
/// dead node's state is frozen as-is), a checkpoint of every live
/// durable node ([`NodeDurability::checkpoint`]: cost ∝ the commits
/// since the last tick, not the database), and log truncation below the
/// minimum sequence any node can still need — a durable node's recovery
/// horizon, otherwise its next unapplied sequence. The log stays
/// bounded under steady load while never dropping an entry a rejoiner
/// (even a currently-Down one) could ask for.
fn vacuum<P: Policy>(w: &mut World<P>) {
    for node in &mut w.nodes {
        if node.state != NodeState::Down {
            node.db.vacuum();
        }
        if node.state == NodeState::Up {
            if let Some(d) = node.durable.as_mut() {
                d.checkpoint(&node.db, node.apply_next - 1);
            }
        }
    }
    let floor = w
        .nodes
        .iter()
        .map(|node| match &node.durable {
            Some(d) => d.durable_seq() + 1,
            None => node.apply_next,
        })
        .min()
        .expect("at least one node");
    let log = w.policy.log_mut();
    log.truncate_below(floor);
    log.cap(w.log_retention);
}

// ---------------------------------------------------------------------
// Schedule injection: crash / rejoin / design events / ramps.
// ---------------------------------------------------------------------

/// Applies one injected schedule event and echoes it into the transient
/// report. Events that cannot apply (unknown node index — legal when one
/// schedule drives a sweep over several cluster sizes — a state they
/// would not change, or an event the design has no meaning for) are
/// acknowledged as ignored.
fn inject<P: Policy>(engine: &mut Sim<P>, ev: ScheduleEvent) {
    let now = engine.now().as_secs();
    let applied = match ev {
        ScheduleEvent::Clients(factor) => {
            set_population(engine, factor);
            true
        }
        _ => P::cluster_event(engine, &ev),
    };
    if let Some(tc) = &mut engine.world_mut().transient {
        let description = if applied {
            ev.to_string()
        } else {
            format!("{ev} (ignored)")
        };
        tc.event(now, description);
    }
}

/// The cluster events every fault-tolerant design honours: node crash
/// and rejoin.
pub(crate) fn node_event<P: Policy>(engine: &mut Sim<P>, ev: &ScheduleEvent) -> bool {
    match *ev {
        ScheduleEvent::ReplicaCrash(i) => crash(engine, i),
        ScheduleEvent::ReplicaJoin(i) => join(engine, i),
        _ => false,
    }
}

/// Kills a live node: it stops serving, queued arrivals are re-placed,
/// pending writeset applications are dropped (recovered from the log on
/// rejoin) and a durable node loses its unsealed redo-log group — only
/// fsynced records survive. In-flight attempts are intercepted as their
/// events fire.
fn crash<P: Policy>(engine: &mut Sim<P>, i: usize) -> bool {
    let Some(node) = engine.world_mut().nodes.get_mut(i) else {
        return false;
    };
    if node.state != NodeState::Up {
        return false;
    }
    node.state = NodeState::Down;
    node.epoch += 1;
    node.executing = 0;
    node.inflight = 0;
    node.apply_ready.clear();
    if let Some(d) = node.durable.as_mut() {
        d.crash();
    }
    for waiter in std::mem::take(&mut node.admission) {
        place(engine, waiter);
    }
    P::crashed(engine, i);
    true
}

/// Starts a dead node's rejoin. With durability on — in every design —
/// the node *rebuilds* its database from its frozen image + redo log (the
/// in-memory state is gone with the crash), paying the redo-log replay as
/// lag before log catch-up starts. A run without durability assumes the
/// in-memory state survived, and catch-up starts immediately.
fn join<P: Policy>(engine: &mut Sim<P>, i: usize) -> bool {
    let w = engine.world_mut();
    let per_ws = ws_demand(w);
    let Some(node) = w.nodes.get_mut(i) else {
        return false;
    };
    if node.state != NodeState::Down {
        return false;
    }
    node.state = NodeState::CatchingUp;
    match node.durable.as_mut().map(NodeDurability::recover) {
        Some((db, log_seq, replayed)) => {
            node.db = db;
            node.apply_next = log_seq + 1;
            node.apply_ready.clear();
            let lag = replayed as f64 * per_ws;
            engine.schedule_event_in(lag.max(f64::MIN_POSITIVE), Ev::CatchupDone(i));
        }
        None => catchup_step(engine, i),
    }
    true
}

/// Mean CPU + disk demand of applying one writeset: the unit every
/// catch-up lag is priced in (deterministic, no RNG draws).
fn ws_demand<P: Policy>(w: &World<P>) -> f64 {
    let spec = w.pool.spec();
    spec.ws_cpu + spec.ws_disk
}

/// One round of rejoin catch-up: replay every writeset the node missed
/// from the log, pay the replay lag (missed count × mean ws demands),
/// then re-check. When the log has been truncated past the node's
/// position, fall back to a checkpoint state transfer from the most
/// caught-up live node. When no new writesets accumulated during the lag
/// the node is caught up and takes load.
fn catchup_step<P: Policy>(engine: &mut Sim<P>, i: usize) {
    let w = engine.world_mut();
    if w.nodes[i].state != NodeState::CatchingUp {
        return;
    }
    let from = w.nodes[i].apply_next;
    let target = w.policy.log().next_seq() - 1;
    if from > target {
        w.nodes[i].state = NodeState::Up;
        P::caught_up(engine, i);
        drain_stranded(engine);
        return;
    }
    let per_ws = ws_demand(w);
    let lag = match w.policy.log().range_from(from, target) {
        Some(missed) => {
            let count = missed.len();
            for ws in missed {
                w.nodes[i].replay(ws);
            }
            count as f64 * per_ws
        }
        None => state_transfer(w, i),
    };
    engine.schedule_event_in(lag.max(f64::MIN_POSITIVE), Ev::CatchupDone(i));
}

/// Checkpoint-based state transfer: the log no longer holds the
/// sequences node `i` needs, so ship the most caught-up live node's
/// checkpoint and restore it as the node's database and durable image.
/// Returns the transfer lag (per-row install cost × rows). With no live
/// source the rejoiner waits one mean ws demand and retries.
fn state_transfer<P: Policy>(w: &mut World<P>, i: usize) -> f64 {
    let per_ws = ws_demand(w);
    let source = w
        .nodes
        .iter()
        .enumerate()
        .filter(|(j, node)| *j != i && node.state == NodeState::Up)
        .map(|(j, node)| (node.apply_next, j))
        .max();
    let Some((apply_next, j)) = source else {
        return per_ws;
    };
    let cp = w.nodes[j].db.checkpoint();
    let rows = cp.row_count();
    let node = &mut w.nodes[i];
    node.db = Database::restore(&cp);
    node.apply_next = apply_next;
    node.apply_ready.clear();
    if let Some(d) = node.durable.as_mut() {
        // The transferred state is the node's new durable baseline.
        d.rebase(node.db.clone(), apply_next - 1);
    }
    w.state_transfers += 1;
    rows as f64 * per_ws * STATE_TRANSFER_ROW_COST
}

/// Restarts transactions that stranded while no node was live. Pops only
/// while a node is Up, so a drain can never spin on re-stranding.
fn drain_stranded<P: Policy>(engine: &mut Sim<P>) {
    loop {
        let w = engine.world_mut();
        if least_loaded(w).is_none() {
            return;
        }
        let Some(waiter) = w.stranded.pop_front() else {
            return;
        };
        place(engine, waiter);
    }
}

/// Applies a client-population ramp: the target moves to
/// `factor × base`, parked clients below it restart their closed loop,
/// surplus clients park at their next dispatch.
fn set_population<P: Policy>(engine: &mut Sim<P>, factor: f64) {
    let w = engine.world_mut();
    let target = (factor * w.base_clients as f64).round() as usize;
    for client in w.pool.set_active_target(target) {
        client_cycle(engine, client);
    }
}

/// What the log-boundedness and recovery tests read off a finished run
/// (not part of the report, so goldens stay byte-identical).
#[cfg(test)]
pub(crate) struct Probe {
    /// Log entries retained at the end of the run.
    pub(crate) log_len: usize,
    /// High-water mark of retained log entries.
    pub(crate) log_peak: usize,
    /// Sequence of the newest logged writeset.
    pub(crate) log_seq: u64,
    /// Checkpoint state transfers taken by rejoiners that outran the log.
    pub(crate) state_transfers: u64,
}

#[cfg(test)]
impl<P: Policy> World<P> {
    pub(crate) fn probe(&self) -> Probe {
        let log = self.policy.log();
        Probe {
            log_len: log.len(),
            log_peak: log.peak_len(),
            log_seq: log.next_seq() - 1,
            state_transfers: self.state_transfers,
        }
    }

    /// Every Up node's `durable_state()` once it has retired the rest of
    /// the log: a copy of its database with the log from its `apply_next`
    /// to the head applied. Nodes that converged read the same; a node
    /// that is down or still catching up reads `None`.
    ///
    /// # Panics
    ///
    /// Panics if the log no longer holds an Up node's tail.
    pub(crate) fn drained(&self) -> Vec<Option<String>> {
        let log = self.policy.log();
        let head = log.next_seq() - 1;
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                if node.state != NodeState::Up {
                    return None;
                }
                let mut db = node.db.clone();
                let missed = log
                    .range_from(node.apply_next, head)
                    .unwrap_or_else(|| panic!("the log lost Up node {i}'s tail"));
                for ws in missed {
                    db.apply_writeset(ws)
                        .expect("writeset references seeded tables");
                }
                Some(db.durable_state())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use replipred_core::Schedule;
    use replipred_sidb::{RowId, Value};
    use replipred_workload::spec::{HeapStress, TxnClass};

    use super::*;
    use crate::config::DurabilityConfig;

    /// A minimal design: least-loaded routing, node-local commit — or,
    /// with `always_conflict`, an update protocol that never succeeds.
    struct Stub {
        always_conflict: bool,
        /// Never appended to: the stub propagates nothing.
        log: WsLog,
    }

    impl Policy for Stub {
        type Ev = Infallible;
        const LB_HOP: bool = true;
        const WS_SALT: u64 = 1;

        fn label(_: &World<Self>, node: usize) -> String {
            format!("node{node}")
        }

        fn route(w: &World<Self>, _: &TxnTemplate) -> Option<usize> {
            least_loaded(w)
        }

        fn commit_update(engine: &mut Sim<Self>, a: Attempt) {
            let w = engine.world_mut();
            if w.policy.always_conflict {
                w.nodes[a.node]
                    .db
                    .abort(a.txn)
                    .expect("transaction is active");
                conflict(engine, a);
            } else if let Some((a, _)) = commit_local(engine, a) {
                respond(engine, &a);
            }
        }

        fn fire(_: &mut Sim<Self>, ev: Infallible) {
            match ev {}
        }

        fn log(&self) -> &WsLog {
            &self.log
        }

        fn log_mut(&mut self) -> &mut WsLog {
            &mut self.log
        }
    }

    fn policy(always_conflict: bool) -> impl FnOnce(&mut [Database]) -> Stub {
        move |_| Stub {
            always_conflict,
            log: WsLog::new(),
        }
    }

    /// A 64-row toy workload: `clients` clients, mean think time `think`,
    /// one read class and (when `update_weight > 0`) one update class,
    /// every demand with mean `demand`.
    fn spec(clients: usize, think: f64, update_weight: f64, demand: f64) -> WorkloadSpec {
        let class = |name: &str, weight: f64, is_update: bool| TxnClass {
            name: name.to_string(),
            weight,
            is_update,
            cpu: demand,
            disk: demand,
            reads: 2,
            writes: usize::from(is_update),
            private_writes: 0,
        };
        let mut classes = Vec::new();
        if update_weight < 1.0 {
            classes.push(class("read", 1.0 - update_weight, false));
        }
        if update_weight > 0.0 {
            classes.push(class("write", update_weight, true));
        }
        WorkloadSpec {
            name: "kernel-toy".to_string(),
            classes,
            think_time: think,
            clients_per_replica: clients,
            ws_cpu: 0.001,
            ws_disk: 0.001,
            update_table: "items".to_string(),
            db_update_size: 64,
            read_tables: vec![("catalog".to_string(), 64)],
            heap: None,
        }
    }

    /// Measuring from t = 0, no vacuum: the only pending events are the
    /// clients' own.
    fn cfg(mpl: usize, schedule: Schedule) -> SimConfig {
        SimConfig {
            warmup: 0.0,
            duration: 30.0,
            vacuum_interval: 0.0,
            mpl,
            schedule,
            ..SimConfig::quick(1, 7)
        }
    }

    fn stub(spec: &WorkloadSpec, cfg: &SimConfig, always_conflict: bool) -> Sim<Stub> {
        let seeded = Seeded::install(spec, cfg.seed_scale);
        build(&seeded, spec, cfg, 1, policy(always_conflict))
    }

    /// Steps until no transaction is resident on node 0.
    fn quiesce(engine: &mut Sim<Stub>) {
        while engine.world().nodes[0].inflight > 0 {
            assert!(engine.step(), "events ran dry with work in flight");
        }
    }

    #[test]
    fn build_clones_one_install_into_identical_replicas() {
        let spec = spec(2, 0.05, 0.3, 0.02);
        let cfg = cfg(3, Schedule::default());
        // The independent reference: a replica that ran the install itself.
        let mut installed = Database::new();
        spec.install(&mut installed, cfg.seed_scale).unwrap();
        // An image that has already served a whole cell of updates …
        let seeded = Seeded::install(&spec, cfg.seed_scale);
        let (served, _) = run(&seeded, &spec, &cfg, 2, policy(false));
        assert!(served.update_commits > 0);
        // … still builds replicas equal to a fresh install.
        let mut engine = build(&seeded, &spec, &cfg, 4, policy(false));
        let next_txn = installed.begin();
        installed.abort(next_txn).unwrap();
        assert_eq!(engine.world().nodes.len(), 4);
        for node in &mut engine.world_mut().nodes {
            assert_eq!(node.db.durable_state(), installed.durable_state());
            assert_eq!(node.db.version(), installed.version());
            // Same counters and the same next transaction id as a
            // replica that ran the install itself.
            let txn = node.db.begin();
            assert_eq!(txn, next_txn);
            node.db.abort(txn).unwrap();
            assert_eq!(node.db.stats(), installed.stats());
        }
        // … and the four of them and the image hold one allocation of
        // every seeded row.
        let mut image = seeded.db.clone();
        let nodes = &mut engine.world_mut().nodes;
        let items = nodes[0].db.table_id("items").unwrap();
        let rows: Vec<*const Value> = nodes
            .iter_mut()
            .map(|node| &mut node.db)
            .chain([&mut image])
            .map(|db| {
                let txn = db.begin();
                let row = db.read(txn, items, RowId(5)).unwrap().unwrap().as_ptr();
                db.abort(txn).unwrap();
                row
            })
            .collect();
        assert_eq!(rows, [rows[0]; 5], "replicas share the seeded images");
    }

    #[test]
    #[should_panic(expected = "seed_scale 0.02 (image) vs 0.01 (cell)")]
    fn an_image_seeded_at_another_scale_is_refused() {
        let spec = spec(2, 0.05, 0.3, 0.02);
        let cfg = cfg(3, Schedule::default());
        let seeded = Seeded::install(&spec, 2.0 * cfg.seed_scale);
        build(&seeded, &spec, &cfg, 1, policy(false));
    }

    #[test]
    #[should_panic(expected = "update rows 64 (image) vs 32 (cell)")]
    fn an_image_of_other_row_counts_is_refused() {
        let cfg = cfg(3, Schedule::default());
        let seeded = Seeded::install(&spec(2, 0.05, 0.3, 0.02), cfg.seed_scale);
        let spec = WorkloadSpec {
            db_update_size: 32,
            ..spec(2, 0.05, 0.3, 0.02)
        };
        build(&seeded, &spec, &cfg, 1, policy(false));
    }

    #[test]
    fn an_image_fits_every_spec_that_seeds_the_same_rows() {
        let image = SeedFacts::of(&spec(2, 0.05, 0.3, 0.02), 0.01);
        // Clients, think time, demands and the mix seed nothing.
        let same_rows = SeedFacts::of(&spec(9, 3.0, 0.8, 0.5), 0.01);
        assert_eq!(image.mismatches(&same_rows), Vec::<String>::new());
        // Tables, row counts, the private and heap tables and the scale
        // do, and every difference is named.
        let mut other = spec(2, 0.05, 0.3, 0.02);
        other.update_table = "stock".to_string();
        other.read_tables = vec![("catalog".to_string(), 16)];
        other.classes[1].private_writes = 1;
        other.heap = Some(HeapStress { rows: 8, writes: 1 });
        assert_eq!(
            image.mismatches(&SeedFacts::of(&other, 0.5)),
            [
                "seed_scale 0.01 (image) vs 0.5 (cell)",
                "update table \"items\" (image) vs \"stock\" (cell)",
                "read tables [(\"catalog\", 64)] (image) vs [(\"catalog\", 16)] (cell)",
                "private table false (image) vs true (cell)",
                "heap rows None (image) vs Some(8) (cell)",
            ]
        );
    }

    #[test]
    fn mpl_bounds_execution_and_waiters_hold_no_snapshot() {
        // 12 clients saturate one node with 3 slots.
        let mut engine = stub(
            &spec(12, 0.05, 0.3, 0.02),
            &cfg(3, Schedule::default()),
            false,
        );
        let (mut saw_full, mut saw_waiters) = (false, false);
        for _ in 0..20_000 {
            assert!(engine.step());
            let node = &engine.world().nodes[0];
            assert!(node.executing <= 3, "executing {} > mpl", node.executing);
            // Every open snapshot belongs to an executing attempt: the
            // admission queue holds none.
            assert_eq!(node.db.active_txns(), node.executing);
            assert_eq!(node.inflight, node.executing + node.admission.len());
            saw_full |= node.executing == 3;
            saw_waiters |= !node.admission.is_empty();
        }
        assert!(saw_full && saw_waiters, "the node never saturated");
    }

    #[test]
    fn release_hands_the_slot_to_the_next_waiter() {
        let mut engine = stub(
            &spec(4, 0.05, 0.0, 0.02),
            &cfg(1, Schedule::default()),
            false,
        );
        let mut handovers = 0;
        let mut waiting = 0;
        for _ in 0..5_000 {
            assert!(engine.step());
            let node = &engine.world().nodes[0];
            // A waiter exists only while the slot is taken, so a release
            // with a waiter behind it never idles the slot.
            assert!(node.admission.is_empty() || node.executing == 1);
            if node.admission.len() < waiting {
                assert_eq!(node.executing, 1, "the slot moved to the waiter");
                assert_eq!(node.db.active_txns(), 1, "which opened its snapshot");
                handovers += 1;
            }
            waiting = node.admission.len();
        }
        assert!(handovers > 0, "no waiter was ever admitted by a release");
    }

    #[test]
    fn pre_crash_attempt_never_completes_after_a_fast_rejoin() {
        // One client, a long CPU phase: crash and rejoin inside it.
        let mut engine = stub(
            &spec(1, 0.01, 0.0, 5.0),
            &cfg(32, Schedule::default()),
            false,
        );
        while engine.world().nodes[0].executing == 0 {
            assert!(engine.step());
        }
        assert!(crash(&mut engine, 0));
        assert!(join(&mut engine, 0), "nothing to replay: Up at once");
        {
            let node = &engine.world().nodes[0];
            assert_eq!(node.state, NodeState::Up);
            assert_eq!((node.epoch, node.executing, node.inflight), (1, 0, 0));
            assert_eq!(node.db.active_txns(), 1, "the stale snapshot is open");
        }
        // The stale attempt's CPU completion is the only pending event.
        // It must be abandoned — snapshot rolled back, client re-placed
        // under the new epoch — not carried on to disk and commit.
        assert!(engine.step());
        {
            let w = engine.world_mut();
            assert_eq!(w.metrics.committed(), 0);
            let node = &mut w.nodes[0];
            assert_eq!(node.executing, 1, "the client restarted from admission");
            assert_eq!(node.db.stats().voluntary_aborts, 1);
            assert_eq!(node.db.stats().read_only_commits, 0);
        }
        while engine.world().metrics.committed() == 0 {
            assert!(engine.step());
        }
        let w = engine.world_mut();
        assert_eq!(w.metrics.read_commits, 1);
        assert_eq!(w.nodes[0].db.stats().read_only_commits, 1);
        assert_eq!(w.nodes[0].db.stats().voluntary_aborts, 1);
    }

    #[test]
    fn a_propagated_writeset_overtaken_by_catch_up_is_not_counted_as_applied() {
        // Every propagated writeset holds the disk for ≥ 1 s (the fsync
        // surcharge); replaying one missed writeset is a 2 ms lag. The
        // lone client thinks for ever.
        let cfg = SimConfig {
            durability: DurabilityConfig {
                enabled: true,
                group_commit: 1,
                fsync_disk: 1.0,
                log_retention: 0,
            },
            ..cfg(32, Schedule::default())
        };
        let spec = spec(1, 1e12, 0.0, 0.02);
        let seeded = Seeded::install(&spec, cfg.seed_scale);
        let mut engine = build(&seeded, &spec, &cfg, 2, policy(false));
        while !engine.world().measuring {
            assert!(engine.step());
        }
        // Node 0 commits one update; the kernel logs and propagates it.
        let db = &mut engine.world_mut().nodes[0].db;
        let items = db.table_id("items").unwrap();
        let txn = db.begin();
        let mut image = db.read(txn, items, RowId(3)).unwrap().unwrap().clone();
        image[1] = Value::Int(7);
        db.update(txn, items, RowId(3), image).unwrap();
        let template = TxnTemplate {
            class: 0,
            is_update: true,
            cpu_demand: 0.0,
            disk_demand: 0.0,
            reads: Vec::new(),
            writes: Vec::new(),
        };
        let a = Attempt {
            client: ClientId(0),
            node: 0,
            txn,
            template,
            started: 0.0,
            attempt: 0,
            epoch: 0,
        };
        let (_, ws) = commit_local(&mut engine, a).expect("no concurrent writer");
        let seq = engine.world_mut().policy.log.push(Arc::clone(&ws));
        fan_out(&mut engine, 0, seq, &ws);

        // Half a second on, node 1 has the writeset on its disk …
        let t = engine.now().as_secs();
        engine.run_until(SimTime::from_secs(t + 0.5));
        assert_eq!(engine.world().nodes[1].apply_next, seq);
        // … crashes, and rejoins: catch-up replays it from the log and the
        // node is Up again long before the old disk job completes.
        assert!(crash(&mut engine, 1));
        assert!(join(&mut engine, 1));
        engine.run_until(SimTime::from_secs(t + 0.6));
        let node = &engine.world().nodes[1];
        assert_eq!((node.state, node.apply_next), (NodeState::Up, seq + 1));
        assert_eq!(node.db.stats().writesets_applied, 1);

        // The stale completion fires on an Up node and changes nothing:
        // the one apply was the catch-up's, which the report never counts.
        engine.run_until(SimTime::from_secs(t + 5.0));
        let w = engine.world();
        assert_eq!(
            w.metrics.writesets_applied, 0,
            "counted a dropped duplicate"
        );
        assert_eq!(w.metrics.writeset_bytes, 0);
        assert_eq!(w.nodes[1].db.stats().writesets_applied, 1);
        assert_eq!(w.nodes[1].apply_next, seq + 1);
        assert_eq!(w.nodes[1].db.durable_state(), w.nodes[0].db.durable_state());
    }

    #[test]
    fn population_ramp_parks_and_wakes_the_closed_loop() {
        let mut engine = stub(
            &spec(8, 1.0, 0.0, 1e-4),
            &cfg(32, Schedule::default()),
            false,
        );
        engine.run_until(SimTime::from_secs(5.0));
        quiesce(&mut engine);
        assert_eq!(engine.events_pending(), 8, "one pending event per client");

        // Ramp down: surplus clients park at their next dispatch.
        set_population(&mut engine, 0.25);
        engine.run_until(SimTime::from_secs(15.0));
        quiesce(&mut engine);
        assert_eq!(engine.world().pool.active_target(), 2);
        assert_eq!(engine.events_pending(), 2, "six clients left the loop");
        let parked_commits = engine.world().metrics.committed();

        // Ramp up: the parked clients start thinking again at once.
        set_population(&mut engine, 1.0);
        assert_eq!(engine.events_pending(), 8);
        engine.run_until(SimTime::from_secs(25.0));
        quiesce(&mut engine);
        assert_eq!(engine.events_pending(), 8, "the closed loop is whole again");
        let restored = engine.world().metrics.committed() - parked_commits;
        assert!(
            restored > 50,
            "8 clients × 10 s ≈ 80 commits, got {restored}"
        );
    }

    #[test]
    fn events_naming_unknown_nodes_are_echoed_as_ignored() {
        let schedule = Schedule::new().crash(1.0, 5).join(2.0, 7).window(1.0);
        let cfg = SimConfig {
            duration: 4.0,
            ..cfg(32, schedule)
        };
        let spec = spec(2, 0.5, 0.5, 0.01);
        let seeded = Seeded::install(&spec, cfg.seed_scale);
        let (report, w) = run(&seeded, &spec, &cfg, 1, policy(false));
        let t = report.transient.expect("schedule enables transient");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(
            echoed,
            ["crash replica 5 (ignored)", "rejoin replica 7 (ignored)"]
        );
        assert_eq!(w.nodes[0].state, NodeState::Up);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn retry_exhaustion_returns_the_client_without_a_commit() {
        let mut engine = stub(
            &spec(1, 1.0, 1.0, 1e-6),
            &cfg(32, Schedule::default()),
            true,
        );
        let attempts = u64::from(MAX_RETRIES) + 1;
        while engine.world().metrics.conflict_aborts < attempts {
            assert!(engine.step());
        }
        {
            let w = engine.world_mut();
            assert_eq!(w.metrics.conflict_aborts, attempts);
            assert_eq!(w.metrics.update_commits, 0);
            assert_eq!(w.metrics.response.count(), 0, "no response time either");
            let node = &w.nodes[0];
            assert_eq!((node.executing, node.inflight), (0, 0), "slot released");
            assert_eq!(node.db.active_txns(), 0);
        }
        assert_eq!(engine.events_pending(), 1, "the client is thinking again");
        // … and its next transaction goes through the same loop.
        while engine.world().metrics.conflict_aborts == attempts {
            assert!(engine.step());
        }
        assert_eq!(engine.world().nodes[0].executing, 1);
    }
}
