//! Design-polymorphic prediction: the [`Predictor`] and the [`Design`]
//! registry.
//!
//! The paper's whole point is comparing designs under one workload
//! profile, so callers — the planner, the CLI, the experiment harness —
//! pick a [`Design`] and get a predictor back. [`Design`] is a closed
//! enum, so the predictor is one struct that `match`es on it:
//!
//! ```
//! use replipred_core::{Design, SystemConfig, WorkloadProfile};
//!
//! let profile = WorkloadProfile::tpcw_shopping();
//! let config = SystemConfig::lan_cluster(40);
//! for design in Design::ALL {
//!     let predictor = design.predictor(profile.clone(), config.clone()).unwrap();
//!     let p = predictor.predict(8).unwrap();
//!     assert!(p.throughput_tps > 0.0);
//! }
//! ```

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::profile::WorkloadProfile;
use crate::report::{Design, Prediction, ScalabilityCurve};
use crate::{mm, sm, standalone};

/// An analytical scalability predictor for one replication design, over
/// inputs validated once by [`Design::predictor`].
///
/// `predict(n)` evaluates the design at *scale point* `n`: `n*C` clients
/// offered to the deployment the design prescribes at that scale (`n`
/// replicas for the replicated designs; one node absorbing the whole
/// load for [`Design::Standalone`] — the paper's baseline that shows why
/// replication is needed at all).
#[derive(Debug)]
pub struct Predictor {
    design: Design,
    pub(crate) profile: WorkloadProfile,
    pub(crate) config: SystemConfig,
}

impl Design {
    /// The registry: builds the analytical predictor for this design.
    ///
    /// # Errors
    ///
    /// Propagates profile/config validation errors.
    pub fn predictor(
        self,
        profile: WorkloadProfile,
        config: SystemConfig,
    ) -> Result<Predictor, ModelError> {
        profile.validate()?;
        config.validate()?;
        Ok(Predictor {
            design: self,
            profile,
            config,
        })
    }
}

impl Predictor {
    /// The design this predictor models.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The workload profile driving the predictions.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Predicts the operating point at scale `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidReplicaCount`] for `n == 0` and
    /// propagates solver errors.
    pub fn predict(&self, n: usize) -> Result<Prediction, ModelError> {
        if n == 0 {
            return Err(ModelError::InvalidReplicaCount {
                n,
                reason: "a scale point needs at least one replica".into(),
            });
        }
        match self.design {
            Design::Standalone => standalone::predict(self, n),
            Design::MultiMaster => mm::predict(self, n),
            Design::SingleMaster => sm::predict(self, n),
        }
    }

    /// The largest *deployment size* a capacity planner should consider
    /// when searching up to `max_replicas` scale points. Replicated
    /// designs can buy up to `max_replicas` machines; the standalone
    /// baseline is one — its scale points beyond 1 model offered load,
    /// not purchasable hardware.
    pub fn max_deployment(&self, max_replicas: usize) -> usize {
        match self.design {
            Design::Standalone => 1,
            Design::MultiMaster | Design::SingleMaster => max_replicas,
        }
    }

    /// Predicts a curve at the given scale points (ascending).
    ///
    /// # Errors
    ///
    /// Same as [`Predictor::predict`].
    pub fn curve_at(&self, points: &[usize]) -> Result<ScalabilityCurve, ModelError> {
        let points = points
            .iter()
            .map(|&n| self.predict(n))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScalabilityCurve {
            workload: self.profile.name.clone(),
            design: self.design,
            points,
        })
    }

    /// Predicts the whole scalability curve for `1..=max_n`.
    ///
    /// # Errors
    ///
    /// Same as [`Predictor::predict`].
    pub fn curve(&self, max_n: usize) -> Result<ScalabilityCurve, ModelError> {
        let points: Vec<usize> = (1..=max_n).collect();
        self.curve_at(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_design() {
        let profile = WorkloadProfile::tpcw_shopping();
        let config = SystemConfig::lan_cluster(40);
        for design in Design::ALL {
            let p = design
                .predictor(profile.clone(), config.clone())
                .expect("valid inputs");
            assert_eq!(p.design(), design);
            assert_eq!(p.profile().name, "tpcw-shopping");
            let point = p.predict(4).expect("solves");
            assert_eq!(point.design, design);
            assert!(point.throughput_tps > 0.0);
            assert!(matches!(
                p.predict(0),
                Err(ModelError::InvalidReplicaCount { .. })
            ));
        }
    }

    #[test]
    fn registry_rejects_invalid_profile() {
        let mut profile = WorkloadProfile::tpcw_shopping();
        profile.pw = 0.5; // Pr + Pw != 1
        for design in Design::ALL {
            assert!(design
                .predictor(profile.clone(), SystemConfig::lan_cluster(40))
                .is_err());
        }
    }

    #[test]
    fn curve_at_honours_requested_points() {
        let profile = WorkloadProfile::tpcw_shopping();
        let config = SystemConfig::lan_cluster(40);
        let p = Design::MultiMaster.predictor(profile, config).unwrap();
        let curve = p.curve_at(&[1, 4, 8]).unwrap();
        assert_eq!(
            curve.points.iter().map(|p| p.replicas).collect::<Vec<_>>(),
            vec![1, 4, 8]
        );
    }

    #[test]
    fn design_keys_round_trip() {
        for design in Design::ALL {
            assert_eq!(Design::parse(design.key()), Some(design));
            assert_eq!(format!("{design}"), design.key());
        }
        assert_eq!(Design::parse("multi-master"), Some(Design::MultiMaster));
        assert_eq!(Design::parse("nope"), None);
    }
}
