//! Capacity planning on top of the predictors.
//!
//! The paper motivates the models with capacity planning and dynamic
//! service provisioning ("making the technique useful for capacity
//! planning and dynamic service provisioning", Section 1). This module is
//! that application: given a profile and a service-level objective, find
//! the cheapest deployment that meets it — before building the replicated
//! system.

use serde::{Deserialize, Serialize};

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::profile::WorkloadProfile;
use crate::report::{Design, Prediction};

/// A service-level objective for a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Required committed throughput, transactions per second.
    pub min_throughput_tps: f64,
    /// Maximum acceptable average response time, seconds (`None` = any).
    pub max_response_time: Option<f64>,
    /// Maximum acceptable update abort probability (`None` = any).
    pub max_abort_rate: Option<f64>,
}

impl Slo {
    /// Checks that every bound has a meaning: a finite throughput ≥ 0, a
    /// finite response ceiling > 0 and an abort ceiling in [0, 1]. Any
    /// other bound (NaN, infinite, negative, above 100 % aborts) makes
    /// every deployment miss, or meet, the SLO whatever the model says.
    fn validate(&self) -> Result<(), ModelError> {
        let tps = self.min_throughput_tps;
        let response = self.max_response_time.unwrap_or(1.0);
        let abort = self.max_abort_rate.unwrap_or(0.0);
        let problem = if !(tps.is_finite() && tps >= 0.0) {
            format!("throughput must be finite and >= 0 tps, got {tps}")
        } else if !(response.is_finite() && response > 0.0) {
            format!("response-time ceiling must be finite and > 0 s, got {response}")
        } else if !(0.0..=1.0).contains(&abort) {
            format!("abort-rate ceiling must be in [0, 1], got {abort}")
        } else {
            return Ok(());
        };
        Err(ModelError::InvalidConfig(format!("SLO {problem}")))
    }

    /// True when `p` satisfies every requirement.
    pub fn satisfied_by(&self, p: &Prediction) -> bool {
        p.throughput_tps >= self.min_throughput_tps
            && self
                .max_response_time
                .map(|r| p.response_time <= r)
                .unwrap_or(true)
            && self
                .max_abort_rate
                .map(|a| p.abort_rate <= a)
                .unwrap_or(true)
    }
}

/// A capacity-planning recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Chosen design.
    pub design: Design,
    /// Replicas required.
    pub replicas: usize,
    /// The predicted operating point.
    pub prediction: Prediction,
}

/// Finds, for each of `designs`, the minimum number of replicas (up to
/// its [`Predictor::max_deployment`](crate::Predictor::max_deployment)
/// of `max_replicas`) meeting the SLO, and returns the recommendations
/// sorted by replica count (cheapest first).
///
/// Designs that cannot meet the SLO within `max_replicas` are omitted;
/// an empty vector means the SLO is infeasible at this scale.
///
/// # Errors
///
/// [`ModelError::InvalidConfig`], before anything is predicted, for an
/// SLO bound with no meaning: a throughput that is not finite and ≥ 0, a
/// response ceiling that is not finite and > 0, or an abort ceiling
/// outside [0, 1]. Otherwise propagates profile/config validation and
/// model evaluation errors.
pub fn plan_designs(
    profile: &WorkloadProfile,
    config: &SystemConfig,
    designs: &[Design],
    slo: &Slo,
    max_replicas: usize,
) -> Result<Vec<Plan>, ModelError> {
    slo.validate()?;
    let mut plans = Vec::new();
    for &design in designs {
        let predictor = design.predictor(profile.clone(), config.clone())?;
        for n in 1..=predictor.max_deployment(max_replicas) {
            let p = predictor.predict(n)?;
            if slo.satisfied_by(&p) {
                plans.push(Plan {
                    design,
                    replicas: n,
                    prediction: p,
                });
                break;
            }
        }
    }
    plans.sort_by_key(|p| p.replicas);
    Ok(plans)
}

/// [`plan_designs`] over the paper's two replicated designs — the
/// comparison the paper's capacity-planning application makes.
///
/// # Errors
///
/// Same as [`plan_designs`].
pub fn plan(
    profile: &WorkloadProfile,
    config: &SystemConfig,
    slo: &Slo,
    max_replicas: usize,
) -> Result<Vec<Plan>, ModelError> {
    plan_designs(
        profile,
        config,
        &[Design::MultiMaster, Design::SingleMaster],
        slo,
        max_replicas,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_minimum_replicas_for_throughput() {
        let profile = WorkloadProfile::tpcw_shopping();
        let config = SystemConfig::lan_cluster(40);
        let slo = Slo {
            min_throughput_tps: 150.0,
            max_response_time: None,
            max_abort_rate: None,
        };
        let plans = plan(&profile, &config, &slo, 16).unwrap();
        assert!(!plans.is_empty());
        for p in &plans {
            assert!(p.prediction.throughput_tps >= 150.0);
            // Minimality: one fewer replica must miss the SLO.
            if p.replicas > 1 {
                let model_tps = p
                    .design
                    .predictor(profile.clone(), config.clone())
                    .unwrap()
                    .predict(p.replicas - 1)
                    .unwrap()
                    .throughput_tps;
                assert!(model_tps < 150.0);
            }
        }
    }

    #[test]
    fn infeasible_slo_returns_empty() {
        let profile = WorkloadProfile::tpcw_ordering();
        let config = SystemConfig::lan_cluster(50);
        let slo = Slo {
            min_throughput_tps: 100_000.0,
            max_response_time: None,
            max_abort_rate: None,
        };
        let plans = plan(&profile, &config, &slo, 8).unwrap();
        assert!(plans.is_empty());
    }

    #[test]
    fn update_heavy_slo_prefers_multi_master() {
        // The ordering mix saturates SM at ~4 replicas; only MM reaches
        // high throughput, so the cheapest (or only) plan is MM.
        let profile = WorkloadProfile::tpcw_ordering();
        let config = SystemConfig::lan_cluster(50);
        let slo = Slo {
            min_throughput_tps: 250.0,
            max_response_time: None,
            max_abort_rate: None,
        };
        let plans = plan(&profile, &config, &slo, 16).unwrap();
        assert!(!plans.is_empty());
        assert_eq!(plans[0].design, Design::MultiMaster);
    }

    #[test]
    fn arbitrary_design_sets_compete() {
        // All three designs (standalone baseline included) compete for a
        // modest SLO; the standalone node meets it at scale 1 and wins.
        let profile = WorkloadProfile::tpcw_shopping();
        let config = SystemConfig::lan_cluster(40);
        let slo = Slo {
            min_throughput_tps: 10.0,
            max_response_time: None,
            max_abort_rate: None,
        };
        let plans = plan_designs(&profile, &config, &Design::ALL, &slo, 16).unwrap();
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].replicas, 1);
        // The standalone baseline is one machine: it is never recommended
        // at a "deployment size" above 1 (those scale points model offered
        // load, not hardware).
        assert!(plans
            .iter()
            .all(|p| p.design != Design::Standalone || p.replicas == 1));
        // An SLO only replication can reach excludes the standalone node.
        let slo = Slo {
            min_throughput_tps: 150.0,
            max_response_time: None,
            max_abort_rate: None,
        };
        let plans = plan_designs(&profile, &config, &Design::ALL, &slo, 16).unwrap();
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.design != Design::Standalone));
    }

    #[test]
    fn an_slo_no_prediction_can_be_held_to_is_rejected() {
        let profile = WorkloadProfile::tpcw_shopping();
        let config = SystemConfig::lan_cluster(40);
        let slo = |tps: f64, r: Option<f64>, a: Option<f64>| Slo {
            min_throughput_tps: tps,
            max_response_time: r,
            max_abort_rate: a,
        };
        for bad in [
            slo(f64::NAN, None, None),
            slo(f64::INFINITY, None, None),
            slo(-5.0, None, None),
            slo(10.0, Some(-0.001), None),
            slo(10.0, Some(0.0), None),
            slo(10.0, Some(f64::NAN), None),
            slo(10.0, Some(f64::INFINITY), None),
            slo(10.0, None, Some(f64::NAN)),
            slo(10.0, None, Some(5.0)),
            slo(10.0, None, Some(-0.01)),
        ] {
            let err = plan(&profile, &config, &bad, 16).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidConfig(_)),
                "{bad:?}: {err}"
            );
        }
        // The edges of each range are meaningful SLOs.
        for good in [slo(0.0, None, Some(0.0)), slo(10.0, Some(1e-9), Some(1.0))] {
            assert!(good.validate().is_ok(), "{good:?}");
            plan(&profile, &config, &good, 16).unwrap();
        }
    }

    #[test]
    fn response_time_constraint_is_respected() {
        let profile = WorkloadProfile::tpcw_shopping();
        let config = SystemConfig::lan_cluster(40);
        let slo = Slo {
            min_throughput_tps: 100.0,
            max_response_time: Some(0.2),
            max_abort_rate: None,
        };
        for p in plan(&profile, &config, &slo, 16).unwrap() {
            assert!(p.prediction.response_time <= 0.2);
        }
    }
}
