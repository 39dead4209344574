//! The multi-master model (paper Sections 3.2.1 and 3.3.2).
//!
//! Each of the `N` identical replicas is a closed queueing network
//! (Figure 1): CPU and disk as queueing centers, load balancer and
//! certifier as delay centers, `C` closed-loop clients with think time `Z`.
//! System throughput is `N ×` the per-replica throughput (perfect load
//! balancing over identical machines).
//!
//! The per-transaction service demand at each resource folds in update
//! propagation and aborts:
//!
//! ```text
//! D_MM(N) = Pr·rc + Pw·wc/(1 − A_N) + (N−1)·Pw·ws
//! ```
//!
//! `A_N` depends on the conflict window `CW(N)` — snapshot age + local
//! execution + certification — which itself depends on congestion. Like
//! the paper we resolve this circularity by interleaving: at MVA client
//! iteration `i+1`, `CW` is approximated from iteration `i`'s CPU/disk
//! queue lengths plus the certification delay (Section 4.1.1), and the
//! demands are refreshed with the resulting `A_N`.

use replipred_mva::exact::{self, solve_with_hook, MvaSolution};
use replipred_mva::ClosedNetwork;

use crate::abort::AbortModel;
use crate::error::ModelError;
use crate::predictor::Predictor;
use crate::profile::{ResourceDemands, WorkloadProfile};
use crate::report::{Design, Prediction};

/// `D_MM(N)` at one resource for a given abort probability.
fn demand(p: &WorkloadProfile, d: &ResourceDemands, n: usize, a_n: f64) -> f64 {
    p.pr * d.read + p.pw * d.write / (1.0 - a_n) + (n as f64 - 1.0) * p.pw * d.writeset
}

/// Per-replica demands for `n` replicas at abort rate `a_n`, in solver
/// order (cpu, disk, lb, certifier). The certifier is visited only by
/// update transactions, so its average per-transaction delay is
/// Pw-weighted (read-only transactions commit locally without
/// certification).
fn demands(m: &Predictor, n: usize, a_n: f64) -> [f64; 4] {
    let p = &m.profile;
    [
        demand(p, &p.cpu, n, a_n),
        demand(p, &p.disk, n, a_n),
        m.config.lb_delay,
        p.pw * m.config.certifier_delay,
    ]
}

/// Builds the per-replica network for `n` replicas at abort rate `a_n`.
fn network(m: &Predictor, n: usize, a_n: f64) -> Result<ClosedNetwork, ModelError> {
    let [cpu, disk, lb, certifier] = demands(m, n, a_n);
    Ok(ClosedNetwork::builder()
        .queueing("cpu", cpu)
        .queueing("disk", disk)
        .delay("lb", lb)
        .delay("certifier", certifier)
        .think_time(m.config.think_time)
        .build()?)
}

/// Predicts system performance with `n` replicas serving `n*C` clients.
pub(crate) fn predict(m: &Predictor, n: usize) -> Result<Prediction, ModelError> {
    let (p, clients) = (&m.profile, m.config.clients_per_replica);
    let certifier_delay = m.config.certifier_delay;
    // Read-only workloads never abort and have no conflict window.
    let (solution, a_n, cw) = if p.pw == 0.0 {
        (exact::solve(&network(m, n, 0.0)?, clients)?, 0.0, 0.0)
    } else {
        let abort = AbortModel::new(p.a1, p.l1);
        // Interleaved CW/A_N fixed point: state carried across MVA client
        // iterations.
        let mut cw = p.l1 + certifier_delay;
        let mut a_n = if n == 1 {
            p.a1
        } else {
            abort.replicated(cw, n)
        };
        let network = network(m, n, a_n)?;
        let solution = solve_with_hook(&network, clients, |_, prev: Option<&MvaSolution>| {
            let prev = prev?;
            // CW(i+1) = update-transaction CPU residence + disk
            // residence + certification time, from iteration i
            // (Section 4.1.1). One *attempt*'s residence uses the raw
            // wc, not the retry-inflated demand.
            let q_cpu = prev.centers[0].queue_length;
            let q_disk = prev.centers[1].queue_length;
            cw = p.cpu.write * (1.0 + q_cpu) + p.disk.write * (1.0 + q_disk) + certifier_delay;
            a_n = abort.replicated(cw, n);
            Some(demands(m, n, a_n).to_vec())
        })?;
        (solution, a_n, cw)
    };
    let mut bottleneck = solution
        .centers
        .iter()
        .filter(|c| c.name == "cpu" || c.name == "disk")
        .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
        .expect("network has queueing centers")
        .clone();
    // The demand-rewrite hook pairs the final demand with queue state
    // from earlier iterations; clamp the reported utilization.
    bottleneck.utilization = bottleneck.utilization.min(1.0);
    Ok(Prediction {
        design: Design::MultiMaster,
        replicas: n,
        clients: n * clients,
        throughput_tps: solution.throughput * n as f64,
        response_time: solution.response_time,
        abort_rate: a_n,
        conflict_window: cw,
        bottleneck_utilization: bottleneck.utilization,
        bottleneck: bottleneck.name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    fn model(profile: WorkloadProfile, c: usize) -> Predictor {
        Design::MultiMaster
            .predictor(profile, SystemConfig::lan_cluster(c))
            .unwrap()
    }

    #[test]
    fn browsing_scales_nearly_linearly() {
        // Paper Figure 6: browsing speedup ~15.7x at 16 replicas.
        let m = model(WorkloadProfile::tpcw_browsing(), 30);
        let curve = m.curve(16).unwrap();
        let speedup = curve.total_speedup().unwrap();
        assert!(
            (13.5..=16.0).contains(&speedup),
            "browsing speedup {speedup}"
        );
    }

    #[test]
    fn ordering_scales_sublinearly() {
        // Paper Figure 6: ordering speedup ~6.7x at 16 replicas because
        // writeset processing grows with N.
        let m = model(WorkloadProfile::tpcw_ordering(), 50);
        let curve = m.curve(16).unwrap();
        let speedup = curve.total_speedup().unwrap();
        assert!((4.5..=9.5).contains(&speedup), "ordering speedup {speedup}");
        // And it is clearly worse than browsing's.
        let browsing = model(WorkloadProfile::tpcw_browsing(), 30)
            .curve(16)
            .unwrap()
            .total_speedup()
            .unwrap();
        assert!(browsing > speedup + 4.0);
    }

    #[test]
    fn one_replica_matches_standalone() {
        // With N = 1 there is no update propagation; the MM model must
        // coincide with the standalone model up to the certifier delay.
        let p = WorkloadProfile::tpcw_shopping();
        let mm = model(p.clone(), 40).predict(1).unwrap();
        let sa = Design::Standalone
            .predictor(p, SystemConfig::lan_cluster(40))
            .unwrap()
            .predict(1)
            .unwrap();
        let rel = (mm.throughput_tps - sa.throughput_tps).abs() / sa.throughput_tps;
        assert!(
            rel < 0.03,
            "mm {} vs standalone {}",
            mm.throughput_tps,
            sa.throughput_tps
        );
    }

    #[test]
    fn throughput_grows_with_replicas() {
        let m = model(WorkloadProfile::tpcw_shopping(), 40);
        let curve = m.curve(16).unwrap();
        for w in curve.points.windows(2) {
            assert!(
                w[1].throughput_tps > w[0].throughput_tps,
                "non-monotone at N={}",
                w[1].replicas
            );
        }
    }

    #[test]
    fn response_time_rises_with_update_fraction() {
        // Paper Figure 7: ordering response grows with N, browsing stays
        // almost flat.
        let browsing = model(WorkloadProfile::tpcw_browsing(), 30);
        let ordering = model(WorkloadProfile::tpcw_ordering(), 50);
        let b1 = browsing.predict(1).unwrap().response_time;
        let b16 = browsing.predict(16).unwrap().response_time;
        let o1 = ordering.predict(1).unwrap().response_time;
        let o16 = ordering.predict(16).unwrap().response_time;
        let browsing_growth = b16 / b1;
        let ordering_growth = o16 / o1;
        assert!(
            ordering_growth > browsing_growth,
            "ordering {ordering_growth} vs browsing {browsing_growth}"
        );
    }

    #[test]
    fn abort_rate_grows_with_replicas() {
        let m = model(WorkloadProfile::tpcw_shopping().with_a1(0.009), 40);
        let a2 = m.predict(2).unwrap().abort_rate;
        let a8 = m.predict(8).unwrap().abort_rate;
        let a16 = m.predict(16).unwrap().abort_rate;
        assert!(a2 < a8 && a8 < a16, "a2={a2} a8={a8} a16={a16}");
        // Paper Figure 14: A1=0.90% reaches roughly 17-29% (measured 29%,
        // model under-predicts). Accept the model-side band.
        assert!((0.08..0.45).contains(&a16), "a16={a16}");
    }

    #[test]
    fn read_only_workload_has_no_aborts_and_scales_linearly() {
        let m = model(WorkloadProfile::rubis_browsing(), 50);
        let curve = m.curve(8).unwrap();
        for p in &curve.points {
            assert_eq!(p.abort_rate, 0.0);
        }
        let speedup = curve.total_speedup().unwrap();
        assert!((7.5..=8.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn rubis_bidding_saturates_early() {
        // Paper Figure 10: bidding peaks around 6 replicas because writeset
        // application on the disk is nearly as expensive as the original
        // update.
        let m = model(WorkloadProfile::rubis_bidding(), 50);
        let curve = m.curve(9).unwrap();
        let x6 = curve.at(6).unwrap().throughput_tps;
        let x9 = curve.at(9).unwrap().throughput_tps;
        // Adding replicas beyond ~6 buys little (< 10% over three steps).
        assert!((x9 - x6) / x6 < 0.10, "x6={x6} x9={x9}");
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
    fn writeset_demand_term_matches_formula() {
        let m = model(WorkloadProfile::tpcw_shopping(), 40);
        let p = m.profile();
        let d4 = demand(p, &p.cpu, 4, p.a1);
        let expect =
            p.pr * p.cpu.read + p.pw * p.cpu.write / (1.0 - p.a1) + 3.0 * p.pw * p.cpu.writeset;
        assert!((d4 - expect).abs() < 1e-15);
    }
}
