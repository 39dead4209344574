//! The single-master model (paper Sections 3.2.2 and 3.3.3, Figure 3).
//!
//! An `N`-replica single-master system is 1 master plus `N−1` slaves
//! (Figure 2). The master executes *all* update transactions (demand
//! `wc/(1 − A'_N)` per commit); slaves execute read-only transactions plus
//! every propagated writeset. The queueing network is asymmetric, so
//! solving it means *balancing*: at steady state slave throughput :
//! master throughput must equal `Pr : Pw`. Two unbalanced cases arise
//! (paper Figure 3):
//!
//! 1. **Master has excess capacity** (read-dominated mixes): the master
//!    additionally serves `E` read-only transactions; reads move from the
//!    slaves to the master until the ratio balances.
//! 2. **Master is the bottleneck** (update-heavy mixes): clients queue at
//!    the master, draining load from the slaves until the ratio balances.
//!
//! We solve for the paper's fixed point directly. Figure 3 is built on two
//! stated properties — "(1) the constant ratio of read-only to update
//! transactions Pr : Pw" and "(2) the fixed number of clients in system,
//! who are distributed among centers proportional to residence times" —
//! and our solver iterates exactly those invariants over real-valued
//! client populations (the Schweitzer MVA solver accepts them), which
//! covers both of the paper's unbalanced cases in one damped fixed point:
//! a bottlenecked master accumulates queued clients (case 2), and a
//! bottlenecked slave tier throttles update submission while the master's
//! spare capacity absorbs extra reads (case 1).

use replipred_mva::approx::{solve_multiclass_real, solve_single_real};
use replipred_mva::multiclass::{MulticlassNetwork, MulticlassSolution};
use replipred_mva::network::CenterKind;
use replipred_mva::{ClosedNetwork, MvaSolution};

use crate::abort::AbortModel;
use crate::error::ModelError;
use crate::predictor::Predictor;
use crate::profile::WorkloadProfile;
use crate::report::{Design, Prediction};

/// Relative tolerance for the `Pr : Pw` balance check.
const BALANCE_TOL: f64 = 0.001;

/// Iteration cap for the outer master-abort fixed point.
const ABORT_ITERS: usize = 60;

/// Warm-start state threaded through the nested fixed points: each
/// outer-loop iteration seeds the next solve with the previous fixed
/// point instead of restarting cold, which cuts the inner iteration
/// counts by an order of magnitude near convergence.
#[derive(Debug, Clone)]
struct BalanceWarm {
    /// Clients resident in the master's update class.
    n_w: f64,
    /// Fraction of read clients served by the master.
    f: f64,
    /// Per-slave read throughput (seeds [`solve_slave`]).
    slave_tps: f64,
}

impl BalanceWarm {
    /// The paper's nominal client split, used before any solve has run.
    fn initial(profile: &WorkloadProfile, n: usize, total_clients: f64) -> Self {
        BalanceWarm {
            n_w: profile.pw * total_clients,
            f: if n == 1 { 1.0 } else { 0.0 },
            slave_tps: 0.0,
        }
    }
}

/// One balanced solve: throughputs and diagnostics.
#[derive(Debug, Clone)]
struct Balanced {
    read_tps: f64,
    write_tps: f64,
    master: MulticlassSolution,
    slave: Option<MvaSolution>,
    /// Loaded master execution time of one update attempt (the master's
    /// conflict window).
    l_master: f64,
}

/// Master network: two classes (read, write) over CPU + disk.
fn master_network(m: &Predictor, a_master: f64) -> Result<MulticlassNetwork, ModelError> {
    let p = &m.profile;
    Ok(MulticlassNetwork::new(
        vec![
            ("cpu".into(), CenterKind::Queueing),
            ("disk".into(), CenterKind::Queueing),
            ("lb".into(), CenterKind::Delay),
        ],
        vec![
            vec![p.cpu.read, p.disk.read, m.config.lb_delay],
            vec![
                p.cpu.write / (1.0 - a_master),
                p.disk.write / (1.0 - a_master),
                m.config.lb_delay,
            ],
        ],
        vec![m.config.think_time, m.config.think_time],
    )?)
}

/// Slave demands for a given writeset-per-read amortization ratio
/// (solver order: cpu, disk, lb).
fn slave_demands(m: &Predictor, ws_per_read: f64) -> [f64; 3] {
    let p = &m.profile;
    [
        p.cpu.read + ws_per_read * p.cpu.writeset,
        p.disk.read + ws_per_read * p.disk.writeset,
        m.config.lb_delay,
    ]
}

/// Slave network at a given writeset-per-read amortization ratio.
fn slave_network(m: &Predictor, ws_per_read: f64) -> Result<ClosedNetwork, ModelError> {
    let d = slave_demands(m, ws_per_read);
    Ok(ClosedNetwork::builder()
        .queueing("cpu", d[0])
        .queueing("disk", d[1])
        .delay("lb", d[2])
        .think_time(m.config.think_time)
        .build()?)
}

/// Solves one slave at `clients` read clients given the system-wide
/// writeset rate, iterating the demand amortization to a fixed point:
/// each slave applies *all* `write_tps` writesets, so the per-read
/// overhead is `ws · write_tps / read_tps_of_this_slave`.
///
/// `net` is the cached slave-tier network (built once per solve by the
/// caller); only its demands are rewritten here, keeping the hot
/// fixed-point loop allocation-free. `guess` warm-starts the
/// amortization fixed point with the previous call's read throughput
/// (pass a non-positive value for a cold start).
fn solve_slave(
    m: &Predictor,
    net: &mut ClosedNetwork,
    clients: f64,
    write_tps: f64,
    guess: f64,
) -> Result<MvaSolution, ModelError> {
    let p = &m.profile;
    if clients <= 0.0 {
        net.set_demands(&slave_demands(m, 0.0))?;
        return Ok(solve_single_real(net, 0.0)?);
    }
    // Initial guess: previous fixed point if available, else the
    // no-queueing throughput.
    let mut read_tps = if guess > 0.0 {
        guess
    } else {
        clients / (m.config.think_time + p.cpu.read + p.disk.read).max(1e-9)
    };
    let mut sol = None;
    for _ in 0..200 {
        let ratio = if read_tps > 1e-9 {
            write_tps / read_tps
        } else {
            0.0
        };
        net.set_demands(&slave_demands(m, ratio))?;
        let s = solve_single_real(net, clients)?;
        let new_tps = s.throughput;
        let done = (new_tps - read_tps).abs() <= 1e-9 * (1.0 + new_tps);
        // Damped update for stability near saturation.
        read_tps = 0.5 * read_tps + 0.5 * new_tps;
        sol = Some(s);
        if done {
            break;
        }
    }
    Ok(sol.expect("at least one iteration"))
}

/// Balance error: positive when reads are over-represented relative
/// to `Pr : Pw`, negative when under-represented; zero at balance.
fn ratio_error(p: &WorkloadProfile, b: &Balanced) -> f64 {
    // read_tps * Pw - write_tps * Pr == 0 at balance.
    b.read_tps * p.pw - b.write_tps * p.pr
}

/// Solves the whole system at a consistent closed-loop client
/// distribution (the paper's Figure-3 fixed point).
///
/// The paper's balancing algorithm rests on two properties (Section
/// 3.2.2): "(1) the constant ratio of read-only to update transactions
/// Pr : Pw ... and (2) the fixed number of clients in system, who are
/// distributed among centers proportional to residence times". We
/// solve directly for that fixed point with three coupled unknowns:
///
/// - `n_w` — clients resident in the master's update class. When the
///   master is the bottleneck its response time balloons and `n_w`
///   grows past `Pw·C·N` (clients queue at the master, the paper's
///   case 2); when the slaves are the bottleneck `n_w` shrinks (slow
///   reads throttle update submission).
/// - `f` — fraction of read clients served by the master. The
///   least-loaded load balancer equalizes read response times between
///   master and slaves; `f > 0` is the paper's case 1 ("extra
///   read-only transactions E at the master").
/// - the slave writeset amortization (writesets per read), resolved
///   inside [`solve_slave`].
fn balance(
    m: &Predictor,
    n: usize,
    a_master: f64,
    slave_net: &mut ClosedNetwork,
    warm: &mut BalanceWarm,
) -> Result<Balanced, ModelError> {
    let p = &m.profile;
    let z = m.config.think_time;
    let total = (n * m.config.clients_per_replica) as f64;
    let slaves = (n - 1) as f64;
    let master_net = master_network(m, a_master)?;

    // Unknowns, seeded from the previous solve's fixed point (the
    // paper's nominal split on the first call).
    let mut n_w = warm.n_w.clamp(0.0, total);
    let mut f: f64 = if n == 1 { 1.0 } else { warm.f };
    let mut slave_guess = warm.slave_tps;
    let mut out = None;
    for _ in 0..400 {
        let n_r = (total - n_w).max(0.0);
        let n_rm = f * n_r;
        let n_rs_per = if n > 1 { (1.0 - f) * n_r / slaves } else { 0.0 };
        let master = solve_multiclass_real(&master_net, &[n_rm, n_w])?;
        let write_tps = master.throughput[1];
        let slave = if n > 1 {
            Some(solve_slave(m, slave_net, n_rs_per, write_tps, slave_guess)?)
        } else {
            None
        };
        if let Some(s) = &slave {
            slave_guess = s.throughput;
        }
        let x_rm = master.throughput[0];
        let x_rs = slave.as_ref().map(|s| s.throughput * slaves).unwrap_or(0.0);
        let read_tps = x_rm + x_rs;
        // Throughput-weighted read response time.
        let r_rm = master.response_time[0];
        let r_rs = slave.as_ref().map(|s| s.response_time).unwrap_or(0.0);
        let r_r = if read_tps > 1e-12 {
            (x_rm * r_rm + x_rs * r_rs) / read_tps
        } else {
            r_rs.max(r_rm)
        };
        let r_w = master.response_time[1].max(p.cpu.write + p.disk.write);

        // Property (2): populations proportional to class residence.
        let denom = p.pr * (r_r + z) + p.pw * (r_w + z);
        let n_w_target = if denom > 0.0 {
            total * p.pw * (r_w + z) / denom
        } else {
            0.0
        };

        // Least-loaded read dispatch: move read share toward the
        // faster node.
        let f_target = if n == 1 {
            1.0
        } else if n_rm <= 0.0 && r_rm >= r_rs {
            0.0
        } else {
            let gap = r_rs - r_rm;
            (f + 0.25 * gap / (r_rs + r_rm).max(1e-9)).clamp(0.0, 0.95)
        };

        let delta = (n_w_target - n_w).abs() / total + (f_target - f).abs();
        n_w = 0.6 * n_w + 0.4 * n_w_target;
        f = 0.6 * f + 0.4 * f_target;

        const RHO_MAX: f64 = 0.9;
        let l_master = p.cpu.write / (1.0 - master.utilization[0].min(RHO_MAX))
            + p.disk.write / (1.0 - master.utilization[1].min(RHO_MAX));
        out = Some(Balanced {
            read_tps,
            write_tps,
            master,
            slave,
            l_master,
        });
        if delta < 1e-9 {
            break;
        }
    }
    warm.n_w = n_w;
    warm.f = f;
    warm.slave_tps = slave_guess;
    let b = out.expect("at least one iteration");
    // Sanity: at the fixed point the throughput ratio honours Pr:Pw
    // within the solver tolerance (property 1) unless the workload is
    // degenerate.
    debug_assert!(
        b.write_tps <= 0.0 || p.pw == 0.0 || {
            let err = ratio_error(p, &b).abs();
            err <= BALANCE_TOL.max(0.02) * (b.read_tps + b.write_tps)
        },
        "unbalanced fixed point: reads {} writes {}",
        b.read_tps,
        b.write_tps
    );
    Ok(b)
}

/// Full solve: Figure-3 balancing nested inside the `A'_N` fixed point.
fn solve(m: &Predictor, n: usize) -> Result<Balanced, ModelError> {
    let p = &m.profile;
    let abort = AbortModel::new(p.a1, p.l1);
    let mut a_master = p.a1;
    let mut last = None;
    // The slave-tier network shape never changes across the nested
    // fixed points — build it once and rewrite demands in place; the
    // warm state carries each iteration's fixed point into the next.
    let mut slave_net = slave_network(m, 0.0)?;
    let total = (n * m.config.clients_per_replica) as f64;
    let mut warm = BalanceWarm::initial(p, n, total);
    for _ in 0..ABORT_ITERS {
        let b = balance(m, n, a_master, &mut slave_net, &mut warm)?;
        let new_a = abort.master(b.l_master, n);
        let done = (new_a - a_master).abs() < 1e-10;
        a_master = 0.5 * a_master + 0.5 * new_a;
        last = Some((b, a_master));
        if done {
            break;
        }
    }
    let (b, _) = last.expect("at least one iteration");
    Ok(b)
}

/// Predicts system performance with `n` replicas (1 master, `n-1`
/// slaves) serving `n*C` clients.
pub(crate) fn predict(m: &Predictor, n: usize) -> Result<Prediction, ModelError> {
    let p = &m.profile;
    let total_clients = n * m.config.clients_per_replica;

    // Pure read workload: every replica (master included) is an
    // identical read server; the system scales embarrassingly.
    if p.pw == 0.0 {
        let net = slave_network(m, 0.0)?;
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

    let b = solve(m, n)?;
    let x_total = b.read_tps + b.write_tps;
    let abort_model = AbortModel::new(p.a1, p.l1);
    let a_master = abort_model.master(b.l_master, n);
    // System response time by the interactive response-time law.
    let response = replipred_mva::ops::interactive_response_time(
        total_clients as f64,
        x_total,
        m.config.think_time,
    );
    // Bottleneck across master and slave resources.
    // The approximate (Schweitzer) solver can overshoot U = 1 by a
    // hair near saturation; clamp for reporting.
    let mut candidates: Vec<(String, f64)> = vec![
        ("master-cpu".into(), b.master.utilization[0].min(1.0)),
        ("master-disk".into(), b.master.utilization[1].min(1.0)),
    ];
    if let Some(s) = &b.slave {
        for c in &s.centers {
            if c.name == "cpu" || c.name == "disk" {
                candidates.push((format!("slave-{}", c.name), c.utilization.min(1.0)));
            }
        }
    }
    let (bname, butil) = candidates
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty candidates");
    Ok(Prediction {
        design: Design::SingleMaster,
        replicas: n,
        clients: total_clients,
        throughput_tps: x_total,
        response_time: response.max(0.0),
        abort_rate: a_master,
        conflict_window: b.l_master,
        bottleneck_utilization: butil,
        bottleneck: bname,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

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

    #[test]
    fn balanced_ratio_holds_when_not_saturated() {
        let m = model(WorkloadProfile::tpcw_shopping(), 40);
        let b = solve(&m, 8).unwrap();
        let ratio = b.read_tps / b.write_tps;
        let target = 0.8 / 0.2;
        assert!(
            (ratio - target).abs() / target < 0.05,
            "ratio {ratio} target {target}"
        );
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
