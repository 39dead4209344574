//! The single-master model (paper Sections 3.2.2 and 3.3.3, Figure 3).
//!
//! An `N`-replica single-master system is 1 master plus `N−1` slaves
//! (Figure 2). The master executes *all* update transactions (demand
//! `wc/(1 − A'_N)` per commit); slaves execute read-only transactions plus
//! every propagated writeset. The network is asymmetric, so solving it
//! means *balancing* (Figure 3) on the paper's two properties: "(1) the
//! constant ratio of read-only to update transactions Pr : Pw" and "(2)
//! the fixed number of clients in system, who are distributed among
//! centers proportional to residence times". Solving for the state that
//! satisfies both over real-valued client populations covers both of the
//! paper's unbalanced cases: a master with spare capacity absorbs extra
//! reads (case 1), a bottlenecked master accumulates queued clients
//! (case 2).
//!
//! # The four equations
//!
//! The state is four nested scalar unknowns, each the root of a
//! continuous residual that is positive below the root and negative above
//! it. Levels 2 and 3 march from their previous root the way the residual
//! points until its sign changes, and every level closes its bracket with
//! [`bracketed_root`]: nothing is damped, no gain is tuned, and a level
//! whose final residual fails its test returns
//! [`ModelError::NoConvergence`] instead of its last iterate.
//!
//! 1. **Slave read throughput `X`** (innermost; flops, no queueing solve).
//!    A slave holding `n_s` read clients applies all `W` writesets per
//!    second the master commits, so a read's demand at resource `k` is
//!    `d_read,k + (W/X)·d_ws,k`. Put into the single-class Schweitzer
//!    fixed point `Q_k = X·R_k`, `R_k = d_k·(1 + c·Q_k)`,
//!    `c = max(0, (n_s−1)/n_s)`, that leaves one equation, increasing in
//!    `X` and bracketed by 0 and the no-queueing `n_s / (Z + lb + Σ d_read)`:
//!
//!    ```text
//!    X·(Z + lb) + Σ_k u_k / (1 − c·u_k) = n_s,    u_k = X·d_read,k + W·d_ws,k
//!    ```
//!
//!    If the left side exceeds `n_s` already at `X = 0` — writesets alone
//!    fill the slave — there is no positive root: the slave serves no
//!    reads and its response time is infinite.
//! 2. **Dispatch share `f`** of the read clients sent to the master. The
//!    least-loaded balancer equalises read response times: `f` is a root
//!    of `r_rs − r_rm` on `[0, 0.95]`, or a corner the inequality points
//!    into. `r_rm` rises with `f`, but `r_rs` is **U-shaped**: taking
//!    reads away first shortens the slaves' queues, then — every slave
//!    still applies every writeset — inflates the amortised `(W/X)·d_ws`
//!    each remaining read carries. So the residual can cross zero twice,
//!    downwards at the balance a dispatcher starting from `f = 0` reaches
//!    and upwards at an unstable one, and stay positive up to a spurious
//!    `f = 0.95` corner. The **first downward crossing from `f = 0`** is
//!    selected: the march is no coarser than `F_STEP` (the two crossings
//!    are ≥ 0.27 apart at every solution of the validation grid), restarts
//!    from zero whenever the last answer was the upper corner, and
//!    otherwise starts at the previous root, which moves with `n_w`.
//! 3. **Client split `n_w`**, the clients resident in the master's update
//!    class: above `Pw·C·N` when the master is the bottleneck, below when
//!    the slaves are. Property (2) asks for
//!    `n_w = C·N·Pw·(R_w+Z) / (Pr·(R_r+Z) + Pw·(R_w+Z))`; by Little's law
//!    the two sides differ by a positive multiple of the ratio error
//!    `Pw·X_r − Pr·X_w`, so the root of that — property (1) itself, which
//!    needs no division — is found instead. It is positive at `n_w = 0`,
//!    negative at `n_w = C·N` and changes sign once.
//! 4. **Master abort rate `A'_N`** (outermost):
//!    `A' = F(A') = 1 − (1 − A1)^(N·L_master/L(1))`, the master's conflict
//!    window `L_master` depending on `A'` through the retried work. One
//!    substitution step from `A1`, then secant steps while each halves
//!    the residual, inside the a-priori bracket the clamp on `L_master`
//!    implies (its far end otherwise), bracketed once the sign changes.
//!
//! # Tolerances
//!
//! Each root-find stops on bracket width or residual, whichever comes
//! first, set two to five digits inside the acceptance test so the level
//! above sees a smooth function; the test then tells a root from a jump.
//!
//! - `X`: machine precision — it costs flops, and is what `r_rs` is made of.
//! - `f`: accepted at `|r_rs − r_rm| ≤ GAP_TOL = 1e-8` s. Response times
//!   are milliseconds and up, so ≥ 5 digits: more than any report prints,
//!   and 100× what the master's queue lengths (iterated to `1e-10`) resolve.
//! - `n_w`: accepted at `|Pw·X_r − Pr·X_w| ≤ RATIO_TOL = 1e-8` of the
//!   total throughput, for the same reason.
//! - `A'`: `ABORT_TOL = 1e-10` absolute, the value the damped iteration
//!   this replaces used; abort rates print to `1e-6`.

use replipred_mva::approx::Schweitzer;
use replipred_mva::multiclass::MulticlassNetwork;
use replipred_mva::network::CenterKind;
use replipred_mva::roots::bracketed_root;
use replipred_mva::ClosedNetwork;

use crate::abort::AbortModel;
use crate::error::ModelError;
use crate::predictor::Predictor;
use crate::report::{Design, Prediction};

/// Round cap of the `A'_N` iteration.
const ABORT_ITERS: usize = 30;
/// Largest `|F(A') − A'|` accepted.
const ABORT_TOL: f64 = 1e-10;
/// Largest share of the read clients dispatched to the master.
const F_MAX: f64 = 0.95;
/// Coarsest step of the march to the first crossing of `r_rs − r_rm`.
const F_STEP: f64 = 0.05;
/// Largest `|r_rs − r_rm|` (seconds) accepted at an interior `f`.
const GAP_TOL: f64 = 1e-8;
/// Largest `|Pw·X_r − Pr·X_w|` accepted, relative to `X_r + X_w`.
const RATIO_TOL: f64 = 1e-8;
/// Utilisation at which the master's conflict window stops growing.
const RHO_MAX: f64 = 0.9;

/// The system evaluated at one trial `(n_w, f)`.
#[derive(Debug, Clone, Copy, Default)]
struct Point {
    n_w: f64,
    f: f64,
    /// Throughput of reads (master and all slaves) and of updates.
    read_tps: f64,
    write_tps: f64,
    /// `r_rs − r_rm`, the residual of the dispatch equation: a slave's
    /// read response time (infinite while it serves none) less the
    /// master's (while it serves none, what a first read would see).
    gap: f64,
    /// CPU and disk utilisation.
    master_util: [f64; 2],
    slave_util: [f64; 2],
}

/// The single-master system under solution and, once [`solve`] returns
/// it, solved.
struct System<'a> {
    m: &'a Predictor,
    total: f64,
    slaves: f64,
    /// The `A'_N` of the last round, and the master network (read and
    /// write classes) under it.
    a_in: f64,
    master: MulticlassNetwork,
    ws: Schweitzer,
    /// The last evaluation; between root-finds, the last root.
    at: Point,
    /// Loaded master execution time of one update attempt (the master's
    /// conflict window) at `at`, and the abort rate `F(a_in)` it implies.
    l_master: f64,
    a_master: f64,
    /// Deterministic work count.
    master_solves: usize,
    abort_rounds: usize,
}

/// Master network under abort rate `a`: two classes (read, write) over
/// CPU + disk.
fn master_network(m: &Predictor, a: f64) -> Result<MulticlassNetwork, ModelError> {
    let (p, lb) = (&m.profile, m.config.lb_delay);
    let retried = |d: f64| d / (1.0 - a);
    Ok(MulticlassNetwork::new(
        vec![
            ("cpu".into(), CenterKind::Queueing),
            ("disk".into(), CenterKind::Queueing),
            ("lb".into(), CenterKind::Delay),
        ],
        vec![
            vec![p.cpu.read, p.disk.read, lb],
            vec![retried(p.cpu.write), retried(p.disk.write), lb],
        ],
        vec![m.config.think_time; 2],
    )?)
}

/// Finds a downward zero crossing of `residual`: marches from `start`
/// the way the residual points — up while it is positive — in steps
/// doubling from `step` to at most `max_step` until the sign changes,
/// then closes the bracket to `xtol` or `ftol`. A march that reaches `lo`
/// or `hi` first ends there: a corner the inequality points into. Returns
/// the residual at the point it ends on, which is where `residual` was
/// last called.
fn downward_crossing(
    mut residual: impl FnMut(f64) -> Result<f64, ModelError>,
    start: f64,
    (mut step, max_step): (f64, f64),
    (lo, hi): (f64, f64),
    (xtol, ftol): (f64, f64),
) -> Result<f64, ModelError> {
    let mut from = (start, residual(start)?);
    let up = from.1 > 0.0;
    while from.1 != 0.0 && from.0 != if up { hi } else { lo } {
        let x = if up {
            (from.0 + step).min(hi)
        } else {
            (from.0 - step).max(lo)
        };
        let to = (x, residual(x)?);
        if (to.1 > 0.0) != up {
            return Ok(bracketed_root(residual, from, to, xtol, ftol)?.1);
        }
        from = to;
        step = (2.0 * step).min(max_step);
    }
    Ok(from.1)
}

impl System<'_> {
    /// The error of a level whose residual failed its test (NaN included).
    fn stalled(&self, level: &str, residual: f64) -> ModelError {
        ModelError::NoConvergence(format!(
            "{level} = {residual:e} at A' = {}, n_w = {}, f = {} after {} rounds, \
             {} master-network solves",
            self.a_in, self.at.n_w, self.at.f, self.abort_rounds, self.master_solves
        ))
    }

    /// Equation 1: read throughput of one slave holding `n_s` read
    /// clients while applying `w` writesets per second, and its CPU and
    /// disk utilisation. Zero when writesets alone fill the slave.
    fn slave(&self, n_s: f64, w: f64) -> Result<(f64, [f64; 2]), ModelError> {
        let (p, cfg) = (&self.m.profile, &self.m.config);
        let delay = cfg.think_time + cfg.lb_delay;
        let read = [p.cpu.read, p.disk.read];
        let ws = [w * p.cpu.writeset, w * p.disk.writeset];
        let c = ((n_s - 1.0) / n_s).max(0.0);
        // Clients the slave would hold at read throughput `x`, minus n_s.
        let excess = |x: f64| -> Result<f64, ModelError> {
            let mut held = x * delay;
            for k in 0..2 {
                let u = x * read[k] + ws[k];
                if c * u >= 1.0 {
                    return Ok(f64::INFINITY);
                }
                held += u / (1.0 - c * u);
            }
            Ok(held - n_s)
        };
        let (lo, hi) = (excess(0.0)?, n_s / (delay + read[0] + read[1]));
        let x = if lo < 0.0 && hi.is_finite() {
            bracketed_root(excess, (0.0, lo), (hi, excess(hi)?), 0.0, 0.0)?.0
        } else {
            0.0
        };
        Ok((x, [x * read[0] + ws[0], x * read[1] + ws[1]]))
    }

    /// Evaluates the system at `(n_w, f)` into `self.at`.
    fn eval(&mut self, n_w: f64, f: f64) -> Result<(), ModelError> {
        let n_r = self.total - n_w;
        self.master_solves += 1;
        self.ws.solve(&self.master, &[f * n_r, n_w])?;
        let write_tps = self.ws.throughput()[1];
        // (While the master serves no reads this is what a first would see.)
        let r_rm = self.ws.response_time()[0];
        // (n = 1 has no slaves: f = 1 leaves a phantom one no clients.)
        let n_s = (1.0 - f) * n_r / self.slaves.max(1.0);
        let (x, slave_util) = self.slave(n_s, write_tps)?;
        let r_rs = if x > 0.0 {
            n_s / x - self.m.config.think_time
        } else {
            f64::INFINITY
        };
        self.at = Point {
            n_w,
            f,
            read_tps: self.ws.throughput()[0] + x * self.slaves,
            write_tps,
            gap: r_rs - r_rm,
            master_util: [0, 1].map(|k| self.ws.utilization(&self.master, k)),
            slave_util,
        };
        Ok(())
    }

    /// Equation 2: solves the dispatch share at `n_w`, leaving the root
    /// (or corner) in `self.at`, and returns the ratio error there as a
    /// share of the throughput — the residual of equation 3.
    fn dispatch(&mut self, n_w: f64) -> Result<f64, ModelError> {
        if self.slaves == 0.0 {
            self.eval(n_w, 1.0)?;
        } else {
            // Start where the last solve ended, unless that was the
            // upper corner: beyond the second crossing the gap is
            // positive at 0.95 too, and only a march from zero tells
            // that spurious corner from one the inequality points into.
            // Step as far as n_w moved since, as a share of the clients:
            // the root moves in proportion.
            let start = if self.at.f < F_MAX { self.at.f } else { 0.0 };
            let moved = (n_w - self.at.n_w).abs() / self.total;
            let step = if start > 0.0 && moved > 0.0 {
                moved.min(F_STEP)
            } else {
                F_STEP
            };
            let gap = |f| self.eval(n_w, f).map(|()| self.at.gap);
            let stop = (1e-5 * GAP_TOL, 1e-4 * GAP_TOL);
            let gap = downward_crossing(gap, start, (step, F_STEP), (0.0, F_MAX), stop)?;
            // NaN fails both tests below, as it must.
            let (f, balanced) = (self.at.f, gap.abs() <= GAP_TOL);
            if 0.0 < f && f < F_MAX && !balanced {
                return Err(self.stalled("dispatch share f: |r_rs - r_rm| (s)", gap.abs()));
            }
        }
        let (p, at) = (&self.m.profile, &self.at);
        Ok((p.pw * at.read_tps - p.pr * at.write_tps) / (at.read_tps + at.write_tps))
    }

    /// Equation 3: solves the client split from the previous one,
    /// leaving the balanced state in `self.at`.
    fn balance(&mut self) -> Result<(), ModelError> {
        let (start, total) = (self.at.n_w, self.total);
        let ratio = |n_w| self.dispatch(n_w);
        let (steps, stop) = (
            (total / 64.0, total),
            (1e-4 * RATIO_TOL * total, 1e-2 * RATIO_TOL),
        );
        let ratio = downward_crossing(ratio, start, steps, (0.0, total), stop)?;
        if ratio.abs() <= RATIO_TOL {
            Ok(())
        } else {
            Err(self.stalled("client split n_w: |Pw X_r - Pr X_w| / X", ratio.abs()))
        }
    }

    /// The residual of equation 4, `F(a) − a`: balances the system under
    /// master abort rate `a` and derives the abort rate that implies.
    fn abort_excess(&mut self, a: f64) -> Result<f64, ModelError> {
        let (m, p) = (self.m, &self.m.profile);
        self.abort_rounds += 1;
        self.a_in = a;
        self.master = master_network(m, a)?;
        self.balance()?;
        let [cpu, disk] = self.at.master_util.map(|u| 1.0 - u.min(RHO_MAX));
        self.l_master = p.cpu.write / cpu + p.disk.write / disk;
        let n = self.slaves as usize + 1;
        self.a_master = AbortModel::new(p.a1, p.l1).master(self.l_master, n);
        Ok(self.a_master - a)
    }
}

/// Full solve: Figure-3 balancing nested inside the `A'_N` fixed point
/// (equation 4).
fn solve(m: &Predictor, n: usize) -> Result<System<'_>, ModelError> {
    let p = &m.profile;
    let total = (n * m.config.clients_per_replica) as f64;
    let mut s = System {
        m,
        total,
        slaves: (n - 1) as f64,
        a_in: p.a1,
        master: master_network(m, p.a1)?,
        ws: Schweitzer::default(),
        // The paper's nominal client split, before any solve has run.
        at: Point {
            n_w: p.pw * total,
            ..Point::default()
        },
        l_master: 0.0,
        a_master: 0.0,
        master_solves: 0,
        abort_rounds: 0,
    };
    // The conflict window lies between the update service time unloaded and
    // at RHO_MAX, so F − a changes sign between the abort rates those imply.
    let abort = AbortModel::new(p.a1, p.l1);
    let service = p.cpu.write + p.disk.write;
    let [lo, hi] = [1.0, 1.0 - RHO_MAX].map(|idle| abort.master(service / idle, n));
    let mut last = (p.a1, s.abort_excess(p.a1)?);
    // Substitution, then secant steps while each halves the residual (else
    // a step to the bracket end it points at), then a bracketed solve.
    let mut step = last.1;
    while last.1.abs() >= ABORT_TOL && s.abort_rounds < ABORT_ITERS {
        let a = (last.0 + step).max(lo).min(hi);
        let to = (a, s.abort_excess(a)?);
        if (to.1 > 0.0) != (last.1 > 0.0) {
            let excess = |a| s.abort_excess(a);
            last = bracketed_root(excess, last, to, 0.1 * ABORT_TOL, 0.5 * ABORT_TOL)?;
            break;
        }
        step = if to.1.abs() < 0.5 * last.1.abs() {
            -to.1 * (to.0 - last.0) / (to.1 - last.1)
        } else if to.1 > 0.0 {
            hi - a
        } else {
            lo - a
        };
        last = to;
    }
    if last.1.abs() < ABORT_TOL {
        Ok(s)
    } else {
        Err(s.stalled("master abort rate A'_N: |F(A') - A'|", last.1.abs()))
    }
}

/// Predicts system performance with `n` replicas (1 master, `n-1`
/// slaves) serving `n*C` clients.
pub(crate) fn predict(m: &Predictor, n: usize) -> Result<Prediction, ModelError> {
    let p = &m.profile;
    let total_clients = n * m.config.clients_per_replica;

    // Pure read workload: every replica (master included) is an
    // identical read server; the system scales embarrassingly.
    if p.pw == 0.0 {
        let net = ClosedNetwork::builder()
            .queueing("cpu", p.cpu.read)
            .queueing("disk", p.disk.read)
            .delay("lb", m.config.lb_delay)
            .think_time(m.config.think_time)
            .build()?;
        let sol = replipred_mva::exact::solve(&net, m.config.clients_per_replica)?;
        let bottleneck = sol.bottleneck().expect("has centers").clone();
        return Ok(Prediction {
            design: Design::SingleMaster,
            replicas: n,
            clients: total_clients,
            throughput_tps: sol.throughput * n as f64,
            response_time: sol.response_time,
            abort_rate: 0.0,
            conflict_window: 0.0,
            bottleneck_utilization: bottleneck.utilization,
            bottleneck: format!("slave-{}", bottleneck.name),
        });
    }

    let s = solve(m, n)?;
    let x_total = s.at.read_tps + s.at.write_tps;
    // System response time by the interactive response-time law.
    let response = replipred_mva::ops::interactive_response_time(
        total_clients as f64,
        x_total,
        m.config.think_time,
    );
    // Bottleneck across master and (if any) slave resources. The
    // approximate (Schweitzer) solver can overshoot U = 1 by a hair near
    // saturation; clamp for reporting.
    let names = ["master-cpu", "master-disk", "slave-cpu", "slave-disk"];
    let (master, slave) = (s.at.master_util, s.at.slave_util);
    let (bname, butil) = names
        .into_iter()
        .zip([master[0], master[1], slave[0], slave[1]].map(|u| u.min(1.0)))
        .take(if n > 1 { 4 } else { 2 })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty candidates");
    Ok(Prediction {
        design: Design::SingleMaster,
        replicas: n,
        clients: total_clients,
        throughput_tps: x_total,
        response_time: response.max(0.0),
        abort_rate: s.a_master,
        conflict_window: s.l_master,
        bottleneck_utilization: butil,
        bottleneck: bname.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemConfig, WorkloadProfile};

    fn model(profile: WorkloadProfile, c: usize) -> Predictor {
        Design::SingleMaster
            .predictor(profile, SystemConfig::lan_cluster(c))
            .unwrap()
    }

    #[test]
    fn browsing_scales_linearly() {
        // Paper Figure 8: SM browsing scales linearly; the master's spare
        // capacity absorbs reads.
        let m = model(WorkloadProfile::tpcw_browsing(), 30);
        let curve = m.curve(16).unwrap();
        let speedup = curve.total_speedup().unwrap();
        assert!((12.0..=16.5).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn ordering_saturates_at_the_master() {
        // Paper Figure 8: the ordering mix saturates around 4 replicas;
        // adding more does not help.
        let m = model(WorkloadProfile::tpcw_ordering(), 50);
        let curve = m.curve(16).unwrap();
        let x4 = curve.at(4).unwrap().throughput_tps;
        let x16 = curve.at(16).unwrap().throughput_tps;
        assert!(
            (x16 - x4) / x4 < 0.15,
            "ordering should saturate: x4={x4} x16={x16}"
        );
        // And the bottleneck is the master.
        assert!(curve.at(16).unwrap().bottleneck.starts_with("master"));
    }

    /// Runs `check` on the solved system at every point of the
    /// validation grid: the four update-bearing published profiles ×
    /// C ∈ {10, 20, 30, 40, 50, 60, 80, 100} × n = 1..=16, 512 points.
    fn on_the_grid(mut check: impl FnMut(&str, &System<'_>)) {
        for p in WorkloadProfile::all_paper_profiles() {
            for c in [10, 20, 30, 40, 50, 60, 80, 100] {
                let m = model(p.clone(), c);
                for n in 1..=16 {
                    if p.pw > 0.0 {
                        let label = format!("{} C={c} n={n}", p.name);
                        let s = solve(&m, n).unwrap_or_else(|e| panic!("{label}: {e}"));
                        check(&label, &s);
                    }
                }
            }
        }
    }

    #[test]
    fn every_grid_point_satisfies_its_four_equations() {
        let mut points = 0;
        on_the_grid(|label, s| {
            points += 1;
            let (p, at) = (&s.m.profile, &s.at);
            // Property (1), equation 3.
            let ratio = p.pw * at.read_tps - p.pr * at.write_tps;
            let x_total = at.read_tps + at.write_tps;
            assert!(ratio.abs() <= 1e-8 * x_total, "{label}: ratio {ratio:e}");
            assert!((0.0..=s.total).contains(&at.n_w), "{label}: n_w {}", at.n_w);
            // Equation 2: balanced dispatch, or a corner the inequality
            // points into.
            if s.slaves == 0.0 {
                assert_eq!(at.f, 1.0, "{label}");
            } else if at.f == 0.0 {
                assert!(at.gap <= 0.0, "{label}: gap {:e} at f = 0", at.gap);
            } else if at.f == F_MAX {
                assert!(at.gap >= 0.0, "{label}: gap {:e} at f = 0.95", at.gap);
            } else {
                assert!((0.0..F_MAX).contains(&at.f), "{label}: f {}", at.f);
                assert!(at.gap.abs() <= 1e-8, "{label}: gap {:e}", at.gap);
            }
            // Equation 1 at the slaves' share of the clients.
            let n_s = (1.0 - at.f) * (s.total - at.n_w) / s.slaves.max(1.0);
            let (x, util) = s.slave(n_s, at.write_tps).unwrap();
            let c = ((n_s - 1.0) / n_s).max(0.0);
            let held: f64 = util.iter().map(|u| u / (1.0 - c * u)).sum();
            let held = held + x * (s.m.config.think_time + s.m.config.lb_delay);
            if s.slaves > 0.0 {
                assert!(
                    (held - n_s).abs() <= 1e-12 * n_s,
                    "{label}: {held} vs {n_s}"
                );
                assert_eq!(util, at.slave_util, "{label}");
            }
            // Equation 4: the point was solved under the abort rate it
            // implies.
            let l = p.cpu.write / (1.0 - at.master_util[0].min(RHO_MAX))
                + p.disk.write / (1.0 - at.master_util[1].min(RHO_MAX));
            let implied = AbortModel::new(p.a1, p.l1).master(l, s.slaves as usize + 1);
            assert!(
                (implied - s.a_in).abs() <= 1e-10,
                "{label}: A' {implied} vs {}",
                s.a_in
            );
            assert_eq!((s.l_master, s.a_master), (l, implied), "{label}");
        });
        assert_eq!(points, 512);
    }

    #[test]
    fn a_slave_filled_by_writesets_serves_no_reads() {
        // A RUBiS writeset costs 35.28 ms of slave disk.
        let m = model(WorkloadProfile::rubis_bidding(), 50);
        let s = solve(&m, 4).unwrap();
        // 30 a second overrun the disk outright (c·W·d_ws ≥ 1); 20 a
        // second hold 0.9 clients' worth of work, more than 0.9 clients.
        for (n_s, w) in [(40.0, 30.0), (0.9, 20.0), (0.0, 0.0)] {
            let (x, util) = s.slave(n_s, w).unwrap();
            assert_eq!((x, util[1]), (0.0, w * 0.03528), "n_s = {n_s}, W = {w}");
        }
        // With room left, the root satisfies equation 1.
        let (x, [cpu, disk]) = s.slave(40.0, 10.0).unwrap();
        let c = 39.0 / 40.0;
        let held = x * 1.0 + cpu / (1.0 - c * cpu) + disk / (1.0 - c * disk);
        assert!(x > 0.0 && (held - 40.0).abs() < 1e-12, "{x} holds {held}");
    }

    #[test]
    fn the_work_of_a_solve_is_bounded() {
        // Deterministic counts, so tight ceilings: the damped iteration
        // this replaced spent up to 24 000 master solves (and 748 497
        // slave solves) on a grid point.
        let (mut solves, mut most_solves, mut most_rounds) = (0, 0, 0);
        on_the_grid(|_, s| {
            solves += s.master_solves;
            most_solves = most_solves.max(s.master_solves);
            most_rounds = most_rounds.max(s.abort_rounds);
        });
        println!(
            "mean {} worst {most_solves} {most_rounds}",
            solves as f64 / 512.0
        );
        assert!(most_solves <= 1000, "{most_solves} master solves");
        assert!(most_rounds <= 10, "{most_rounds} abort rounds");
        assert!(solves <= 512 * 250, "mean {}", solves as f64 / 512.0);
    }

    #[test]
    fn the_first_crossing_is_selected_not_the_far_corner() {
        // Both points have a second, unstable crossing and a spurious
        // f = 0.95 corner beyond it (32.00 and 55.16 tps).
        for (p, c, n, tps) in [
            (WorkloadProfile::rubis_bidding(), 20, 2, 35.669),
            (WorkloadProfile::tpcw_ordering(), 10, 8, 73.499),
        ] {
            let m = model(p, c);
            let s = solve(&m, n).unwrap();
            let x = s.at.read_tps + s.at.write_tps;
            assert!((x - tps).abs() < 5e-4, "{x} vs {tps}");
            assert!(0.0 < s.at.f && s.at.f < F_MAX, "f = {}", s.at.f);
        }
    }

    #[test]
    fn browsing_increments_shrink_smoothly_past_the_old_limit_cycle() {
        // n = 15 and 16 at C = 30 are where the damped iteration fell
        // into a period-2 cycle and returned 20.59, 20.14, 19.46.
        let curve = model(WorkloadProfile::tpcw_browsing(), 30)
            .curve(16)
            .unwrap();
        let x = |n| curve.at(n).unwrap().throughput_tps;
        let steps = [x(14) - x(13), x(15) - x(14), x(16) - x(15)];
        for (got, want) in steps.iter().zip([20.59, 20.45, 20.32]) {
            assert!((got - want).abs() < 0.01, "{steps:?}");
        }
    }

    #[test]
    fn mm_beats_sm_on_update_heavy_mixes_at_scale() {
        // The paper's headline comparison: MM keeps scaling where SM
        // saturates (ordering mix).
        let p = WorkloadProfile::tpcw_ordering();
        let sm = model(p.clone(), 50).predict(12).unwrap();
        let mm = Design::MultiMaster
            .predictor(p, SystemConfig::lan_cluster(50))
            .unwrap()
            .predict(12)
            .unwrap();
        assert!(
            mm.throughput_tps > 1.3 * sm.throughput_tps,
            "mm {} vs sm {}",
            mm.throughput_tps,
            sm.throughput_tps
        );
    }

    #[test]
    fn sm_matches_mm_at_one_replica_modulo_certifier() {
        let p = WorkloadProfile::tpcw_shopping();
        let sm = model(p.clone(), 40).predict(1).unwrap();
        let config = SystemConfig {
            certifier_delay: 0.0,
            ..SystemConfig::lan_cluster(40)
        };
        let mm = Design::MultiMaster
            .predictor(p, config)
            .unwrap()
            .predict(1)
            .unwrap();
        let rel = (sm.throughput_tps - mm.throughput_tps).abs() / mm.throughput_tps;
        assert!(
            rel < 0.08,
            "sm {} mm {}",
            sm.throughput_tps,
            mm.throughput_tps
        );
    }

    #[test]
    fn read_only_workload_scales_perfectly() {
        let m = model(WorkloadProfile::rubis_browsing(), 50);
        let curve = m.curve(8).unwrap();
        let speedup = curve.total_speedup().unwrap();
        assert!((7.9..=8.1).contains(&speedup), "speedup {speedup}");
        assert_eq!(curve.at(8).unwrap().abort_rate, 0.0);
    }

    #[test]
    fn rubis_bidding_master_disk_bound() {
        // RUBiS updates are disk-expensive (48.6 ms); at scale the master
        // disk saturates.
        let m = model(WorkloadProfile::rubis_bidding(), 50);
        let p8 = m.predict(8).unwrap();
        assert!(
            p8.bottleneck.starts_with("master"),
            "bottleneck {}",
            p8.bottleneck
        );
    }

    #[test]
    fn master_abort_rate_grows_with_scale() {
        let m = model(WorkloadProfile::tpcw_shopping().with_a1(0.005), 40);
        let a2 = m.predict(2).unwrap().abort_rate;
        let a12 = m.predict(12).unwrap().abort_rate;
        assert!(a12 > a2, "a2={a2} a12={a12}");
    }

    #[test]
    fn zero_replicas_rejected() {
        let m = model(WorkloadProfile::tpcw_shopping(), 40);
        assert!(matches!(
            m.predict(0),
            Err(ModelError::InvalidReplicaCount { .. })
        ));
    }

    #[test]
    fn throughput_monotone_nondecreasing_in_replicas() {
        for p in [
            WorkloadProfile::tpcw_browsing(),
            WorkloadProfile::tpcw_shopping(),
            WorkloadProfile::tpcw_ordering(),
        ] {
            let c = if p.name.contains("browsing") {
                30
            } else if p.name.contains("shopping") {
                40
            } else {
                50
            };
            let m = model(p.clone(), c);
            let curve = m.curve(12).unwrap();
            for w in curve.points.windows(2) {
                // Allow small solver wobble on the post-saturation plateau.
                assert!(
                    w[1].throughput_tps >= w[0].throughput_tps * 0.96,
                    "{}: dip at N={}",
                    p.name,
                    w[1].replicas
                );
            }
        }
    }
}
