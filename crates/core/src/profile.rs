//! The standalone workload profile — the models' only workload input.
//!
//! The whole point of the paper is that these few numbers, all measurable
//! on a **standalone** database (Section 4), suffice to predict replicated
//! performance:
//!
//! | symbol | field | measured how |
//! |--------|-------|--------------|
//! | `Pr`, `Pw` | [`WorkloadProfile::pr`]/[`pw`](WorkloadProfile::pw) | counting log records |
//! | `A1`   | [`WorkloadProfile::a1`] | counting aborts in the log |
//! | `rc`, `wc`, `ws` | [`WorkloadProfile::cpu`], [`WorkloadProfile::disk`] | Utilization Law on replayed segments |
//! | `L(1)` | [`WorkloadProfile::l1`] | average update response time on the standalone DB |
//! | `U`    | [`WorkloadProfile::update_ops`] | writeset row counts |
//!
//! Constructors for the paper's published TPC-W and RUBiS parameters
//! (Tables 2-5) are provided for reproduction purposes.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Per-resource service demands for the three operation classes, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceDemands {
    /// `rc` — demand of a read-only transaction.
    pub read: f64,
    /// `wc` — demand of an update transaction (one attempt).
    pub write: f64,
    /// `ws` — demand of applying one propagated writeset.
    pub writeset: f64,
}

impl ResourceDemands {
    /// Creates demands from milliseconds (how the paper's tables are
    /// printed).
    pub fn from_millis(read: f64, write: f64, writeset: f64) -> Self {
        ResourceDemands {
            read: read / 1e3,
            write: write / 1e3,
            writeset: writeset / 1e3,
        }
    }

    fn validate(&self, resource: &str) -> Result<(), ModelError> {
        for (name, v) in [("rc", self.read), ("wc", self.write), ("ws", self.writeset)] {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidProfile(format!(
                    "{resource} {name} demand {v} must be finite and non-negative"
                )));
            }
        }
        Ok(())
    }
}

/// Workload parameters measured on a standalone database (paper Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Human-readable workload name (e.g. `"tpcw-shopping"`).
    pub name: String,
    /// Fraction of read-only transactions (`Pr`).
    pub pr: f64,
    /// Fraction of update transactions (`Pw = 1 - Pr`).
    pub pw: f64,
    /// Standalone abort probability of an update transaction (`A1`).
    pub a1: f64,
    /// CPU service demands.
    pub cpu: ResourceDemands,
    /// Disk service demands.
    pub disk: ResourceDemands,
    /// `L(1)`: average execution (response) time of an update transaction
    /// on the standalone database, seconds. The denominator of the
    /// conflict-window ratio `CW(N)/L(1)`.
    pub l1: f64,
    /// `U`: update operations (rows written) per update transaction.
    pub update_ops: f64,
    /// `DbUpdateSize`: number of database objects update transactions can
    /// modify; `p = 1/DbUpdateSize` is the per-operation conflict
    /// probability. Only needed for the *analytic* `A1` (Section 3.3.1);
    /// the measured `a1` takes precedence in predictions.
    pub db_update_size: f64,
}

impl WorkloadProfile {
    /// Validates all invariants the models rely on.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProfile`] when fractions do not sum to
    /// one, probabilities are out of range, or demands are negative.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(self.pr >= 0.0 && self.pw >= 0.0 && (self.pr + self.pw - 1.0).abs() < 1e-9) {
            return Err(ModelError::InvalidProfile(format!(
                "Pr ({}) + Pw ({}) must equal 1",
                self.pr, self.pw
            )));
        }
        if !(0.0..1.0).contains(&self.a1) {
            return Err(ModelError::InvalidProfile(format!(
                "A1 ({}) must be in [0, 1)",
                self.a1
            )));
        }
        self.cpu.validate("cpu")?;
        self.disk.validate("disk")?;
        if self.pw > 0.0 && !(self.l1.is_finite() && self.l1 > 0.0) {
            return Err(ModelError::InvalidProfile(format!(
                "L(1) ({}) must be positive for workloads with updates",
                self.l1
            )));
        }
        if self.update_ops < 0.0 || !self.update_ops.is_finite() {
            return Err(ModelError::InvalidProfile(format!(
                "U ({}) must be finite and non-negative",
                self.update_ops
            )));
        }
        if self.db_update_size < 1.0 {
            return Err(ModelError::InvalidProfile(format!(
                "DbUpdateSize ({}) must be at least 1",
                self.db_update_size
            )));
        }
        Ok(())
    }

    /// `D(1)` on one resource: `Pr*rc + Pw*wc/(1-A1)` (Section 3.3.1).
    pub fn standalone_demand(&self, demands: &ResourceDemands) -> f64 {
        self.pr * demands.read + self.pw * demands.write / (1.0 - self.a1)
    }

    /// Re-estimates `L(1)` by solving the standalone queueing model at
    /// `clients` clients with `think_time` seconds of think time, and
    /// taking the update transaction's residence (demand × (1+queue)).
    ///
    /// The paper measures `L(1)` directly by replaying the log
    /// (Section 4.1.1); this estimator is the model-only fallback used by
    /// the published-parameter constructors, for which the authors did not
    /// print `L(1)`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn estimate_l1(&mut self, clients: usize, think_time: f64) -> Result<(), ModelError> {
        let network = replipred_mva::ClosedNetwork::builder()
            .queueing("cpu", self.standalone_demand(&self.cpu))
            .queueing("disk", self.standalone_demand(&self.disk))
            .think_time(think_time)
            .build()?;
        let sol = replipred_mva::exact::solve(&network, clients.max(1))?;
        let q_cpu = sol.centers[0].queue_length;
        let q_disk = sol.centers[1].queue_length;
        self.l1 = self.cpu.write * (1.0 + q_cpu) + self.disk.write * (1.0 + q_disk);
        Ok(())
    }

    /// Returns a copy with a different measured `A1` (used by the Figure-14
    /// abort-stress experiment, which dials `A1` up via a heap table).
    pub fn with_a1(&self, a1: f64) -> Self {
        WorkloadProfile { a1, ..self.clone() }
    }

    // ---- Published parameters (paper Tables 2-5) ----

    fn paper_profile(
        name: &str,
        pr: f64,
        clients: usize,
        cpu: ResourceDemands,
        disk: ResourceDemands,
        a1: f64,
        update_ops: f64,
    ) -> Self {
        let mut p = WorkloadProfile {
            name: name.to_string(),
            pr,
            pw: 1.0 - pr,
            a1,
            cpu,
            disk,
            l1: (cpu.write + disk.write).max(1e-6),
            update_ops,
            db_update_size: 10_000.0,
        };
        if p.pw > 0.0 {
            p.estimate_l1(clients, 1.0)
                .expect("published parameters are valid");
        }
        p
    }

    /// TPC-W browsing mix: 95% reads, 30 clients/replica (Tables 2-3).
    pub fn tpcw_browsing() -> Self {
        Self::paper_profile(
            "tpcw-browsing",
            0.95,
            30,
            ResourceDemands::from_millis(41.62, 17.47, 3.48),
            ResourceDemands::from_millis(14.56, 8.74, 2.62),
            0.00023,
            3.0,
        )
    }

    /// TPC-W shopping mix: 80% reads, 40 clients/replica (Tables 2-3).
    /// "The shopping mix is the main workload."
    pub fn tpcw_shopping() -> Self {
        Self::paper_profile(
            "tpcw-shopping",
            0.80,
            40,
            ResourceDemands::from_millis(41.43, 12.51, 3.18),
            ResourceDemands::from_millis(15.11, 6.05, 1.81),
            0.00023,
            3.0,
        )
    }

    /// TPC-W ordering mix: 50% reads, 50 clients/replica (Tables 2-3).
    pub fn tpcw_ordering() -> Self {
        Self::paper_profile(
            "tpcw-ordering",
            0.50,
            50,
            ResourceDemands::from_millis(22.46, 13.48, 4.04),
            ResourceDemands::from_millis(12.62, 8.34, 1.67),
            0.00023,
            3.0,
        )
    }

    /// RUBiS browsing mix: 100% read-only, 50 clients/replica (Tables 4-5).
    pub fn rubis_browsing() -> Self {
        Self::paper_profile(
            "rubis-browsing",
            1.0,
            50,
            ResourceDemands::from_millis(25.29, 0.0, 0.0),
            ResourceDemands::from_millis(11.36, 0.0, 0.0),
            0.0,
            0.0,
        )
    }

    /// RUBiS bidding mix: 80% reads, 50 clients/replica (Tables 4-5).
    /// Writesets are expensive here: "update transactions update a small
    /// amount of data but incur a high cost due to enforcing integrity
    /// constraints and updating indexes."
    pub fn rubis_bidding() -> Self {
        Self::paper_profile(
            "rubis-bidding",
            0.80,
            50,
            ResourceDemands::from_millis(25.29, 41.51, 9.83),
            ResourceDemands::from_millis(11.36, 48.61, 35.28),
            0.00023,
            2.0,
        )
    }

    /// All five published workload profiles.
    pub fn all_paper_profiles() -> Vec<WorkloadProfile> {
        vec![
            Self::tpcw_browsing(),
            Self::tpcw_shopping(),
            Self::tpcw_ordering(),
            Self::rubis_browsing(),
            Self::rubis_bidding(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_profiles_are_valid() {
        for p in WorkloadProfile::all_paper_profiles() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn fractions_must_sum_to_one() {
        let mut p = WorkloadProfile::tpcw_shopping();
        p.pr = 0.9;
        assert!(matches!(p.validate(), Err(ModelError::InvalidProfile(_))));
    }

    #[test]
    fn a1_must_be_probability() {
        let mut p = WorkloadProfile::tpcw_shopping();
        p.a1 = 1.0;
        assert!(p.validate().is_err());
        p.a1 = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn negative_demand_rejected() {
        let mut p = WorkloadProfile::tpcw_shopping();
        p.cpu.read = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn standalone_demand_matches_formula() {
        let p = WorkloadProfile::tpcw_shopping();
        let d = p.standalone_demand(&p.cpu);
        let expect = 0.8 * 0.04143 + 0.2 * 0.01251 / (1.0 - 0.00023);
        assert!((d - expect).abs() < 1e-9);
    }

    #[test]
    fn l1_exceeds_raw_write_demand() {
        // Queueing at load makes L(1) at least the no-queueing service time.
        let p = WorkloadProfile::tpcw_shopping();
        assert!(p.l1 >= p.cpu.write + p.disk.write - 1e-12, "l1={}", p.l1);
    }

    #[test]
    fn read_only_profile_has_zero_write_fraction() {
        let p = WorkloadProfile::rubis_browsing();
        assert_eq!(p.pw, 0.0);
        p.validate().unwrap();
    }

    #[test]
    fn with_a1_overrides_only_abort_rate() {
        let p = WorkloadProfile::tpcw_shopping();
        let p2 = p.with_a1(0.009);
        assert_eq!(p2.a1, 0.009);
        assert_eq!(p2.cpu, p.cpu);
        assert_eq!(p2.l1, p.l1);
    }

    #[test]
    fn rubis_bidding_writesets_are_expensive() {
        // Paper: RUBiS writeset cost is only slightly less than the
        // original update transaction (disk side).
        let p = WorkloadProfile::rubis_bidding();
        assert!(p.disk.writeset / p.disk.write > 0.5);
    }
}
