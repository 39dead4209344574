//! The standalone (1-node) baseline model (paper Section 3.3.1).
//!
//! The standalone database is a closed network of CPU and disk with
//! per-transaction demand `D(1) = Pr·rc + Pw·wc/(1 − A1)`: aborted update
//! transactions are retried, so each *committed* update costs
//! `wc/(1 − A1)` of resource. It is both the model's `N = 1` anchor and
//! the baseline the paper's speedups are quoted against.

use replipred_mva::{exact, ClosedNetwork};

use crate::error::ModelError;
use crate::predictor::Predictor;
use crate::report::{Design, Prediction};

/// Predicts at scale point `n`: the whole `n*C`-client load of an
/// `n`-replica deployment offered to the single standalone node. This is
/// the baseline curve the replicated designs are compared against (it
/// saturates almost immediately — the reason to replicate).
///
/// The returned point reports `replicas: n` so it lines up with the
/// replicated designs' curves; the deployment is still one machine, as
/// `clients` shows.
pub(crate) fn predict(m: &Predictor, n: usize) -> Result<Prediction, ModelError> {
    let (p, clients) = (&m.profile, n * m.config.clients_per_replica);
    let network = ClosedNetwork::builder()
        .queueing("cpu", p.standalone_demand(&p.cpu))
        .queueing("disk", p.standalone_demand(&p.disk))
        .delay("lb", m.config.lb_delay)
        .think_time(m.config.think_time)
        .build()?;
    let sol = exact::solve(&network, clients)?;
    let bottleneck = sol.bottleneck().expect("network has centers").clone();
    Ok(Prediction {
        design: Design::Standalone,
        replicas: n,
        clients,
        throughput_tps: sol.throughput,
        response_time: sol.response_time,
        abort_rate: p.a1,
        conflict_window: p.l1,
        bottleneck_utilization: bottleneck.utilization,
        bottleneck: bottleneck.name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemConfig, WorkloadProfile};

    fn model(profile: WorkloadProfile, c: usize) -> Predictor {
        Design::Standalone
            .predictor(profile, SystemConfig::lan_cluster(c))
            .unwrap()
    }

    #[test]
    fn tpcw_mixes_anchor_near_paper_figures() {
        // Paper Figure 6: browsing starts at ~22 tps, ordering at ~45 tps
        // on one replica. The model (with published demands) must land in
        // the same ballpark.
        let browsing = model(WorkloadProfile::tpcw_browsing(), 30)
            .predict(1)
            .unwrap();
        assert!(
            (18.0..26.0).contains(&browsing.throughput_tps),
            "browsing {}",
            browsing.throughput_tps
        );

        let ordering = model(WorkloadProfile::tpcw_ordering(), 50)
            .predict(1)
            .unwrap();
        assert!(
            (38.0..52.0).contains(&ordering.throughput_tps),
            "ordering {}",
            ordering.throughput_tps
        );
        // Read-only transactions are more expensive: browsing starts lower.
        assert!(ordering.throughput_tps > browsing.throughput_tps);
    }

    #[test]
    fn cpu_is_tpcw_bottleneck() {
        let p = model(WorkloadProfile::tpcw_shopping(), 40)
            .predict(1)
            .unwrap();
        assert_eq!(p.bottleneck, "cpu");
        assert!(p.bottleneck_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn throughput_grows_with_clients_until_saturation() {
        let at = |clients| {
            model(WorkloadProfile::tpcw_shopping(), clients)
                .predict(1)
                .unwrap()
                .throughput_tps
        };
        let (x10, x40, x400, x800) = (at(10), at(40), at(400), at(800));
        assert!(x10 < x40 && x40 < x400);
        // Saturated: nearly flat beyond.
        assert!((x800 - x400) / x400 < 0.01);
    }

    #[test]
    fn scaled_baseline_saturates_immediately() {
        let m = model(WorkloadProfile::tpcw_shopping(), 40);
        let p1 = m.predict(1).unwrap();
        assert_eq!((p1.replicas, p1.clients), (1, 40));
        let p8 = m.predict(8).unwrap();
        assert_eq!(p8.replicas, 8);
        assert_eq!(p8.clients, 320);
        // Scale point 8 is one node under 8·C clients, nothing else.
        let mut same_load = model(WorkloadProfile::tpcw_shopping(), 320)
            .predict(1)
            .unwrap();
        same_load.replicas = 8;
        assert_eq!(p8, same_load);
        // One node cannot absorb 8 replicas' worth of clients.
        assert!(p8.throughput_tps < 2.0 * p1.throughput_tps);
    }

    #[test]
    fn invalid_profile_rejected_at_construction() {
        let mut p = WorkloadProfile::tpcw_shopping();
        p.pw = 0.5; // Pr + Pw != 1
        assert!(Design::Standalone
            .predictor(p, SystemConfig::lan_cluster(40))
            .is_err());
    }
}
