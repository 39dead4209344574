//! TPC-W: the online-bookstore benchmark (paper Section 6.1).
//!
//! "TPC-W ... implements an on-line bookstore and has three workload mixes
//! that differ in the relative frequency of each of the transaction types.
//! The browsing mix workload has 5% updates, the shopping mix workload has
//! 20% updates, and the ordering mix workload has 50% updates."
//!
//! Per-class service demands reproduce the paper's Table 3 aggregates: the
//! read classes' weighted mean equals `rc`, the update classes' weighted
//! mean equals `wc`. The class-level spread (cheap `home` hits vs expensive
//! `best-sellers` scans) is our modelling choice; the paper only publishes
//! aggregates.

use serde::{Deserialize, Serialize};

use crate::spec::{TxnClass, WorkloadSpec};

/// TPC-W standard scale: 10,000 items (the updatable row space).
pub const ITEMS: u64 = 10_000;
/// Emulated customer rows at scale 1.0.
pub const CUSTOMERS: u64 = 28_800;
/// Order rows at scale 1.0.
pub const ORDERS: u64 = 25_920;

/// The three TPC-W mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mix {
    /// 95% reads / 5% updates, 30 clients per replica.
    Browsing,
    /// 80% / 20%, 40 clients per replica — "the main workload".
    Shopping,
    /// 50% / 50%, 50 clients per replica.
    Ordering,
}

impl Mix {
    /// All mixes, in paper order.
    pub const ALL: [Mix; 3] = [Mix::Browsing, Mix::Shopping, Mix::Ordering];

    /// Fraction of update transactions (paper Table 2).
    pub fn pw(self) -> f64 {
        match self {
            Mix::Browsing => 0.05,
            Mix::Shopping => 0.20,
            Mix::Ordering => 0.50,
        }
    }

    /// Clients per replica `C` (paper Table 2).
    pub fn clients_per_replica(self) -> usize {
        match self {
            Mix::Browsing => 30,
            Mix::Shopping => 40,
            Mix::Ordering => 50,
        }
    }

    /// Table-3 mean demands `(rc_cpu, rc_disk, wc_cpu, wc_disk, ws_cpu,
    /// ws_disk)` in seconds.
    pub fn table3_demands(self) -> (f64, f64, f64, f64, f64, f64) {
        match self {
            Mix::Browsing => (0.04162, 0.01456, 0.01747, 0.00874, 0.00348, 0.00262),
            Mix::Shopping => (0.04143, 0.01511, 0.01251, 0.00605, 0.00318, 0.00181),
            Mix::Ordering => (0.02246, 0.01262, 0.01348, 0.00834, 0.00404, 0.00167),
        }
    }

    /// Workload name (e.g. `"tpcw-shopping"`).
    pub fn name(self) -> &'static str {
        match self {
            Mix::Browsing => "tpcw-browsing",
            Mix::Shopping => "tpcw-shopping",
            Mix::Ordering => "tpcw-ordering",
        }
    }
}

/// Relative cost multipliers for the read interaction classes.
/// They average to 1.0 under equal weights, preserving Table 3's `rc`.
const READ_SHAPE: [(&str, f64, usize); 4] = [
    ("home", 0.5, 2),
    ("product-detail", 0.8, 3),
    ("search", 1.2, 6),
    ("best-sellers", 1.5, 10),
];

/// Update interaction classes: `(name, cost multiplier, shared rows,
/// private rows)`. Cart manipulation touches only per-session rows;
/// buy-confirm decrements one shared item stock and inserts private
/// order rows. Total rows per update average 3 (the `U` calibration),
/// but only 0.5 of them are conflict-prone — which is what keeps the
/// measured `A1` in the paper's <0.023% regime.
const UPDATE_SHAPE: [(&str, f64, usize, usize); 2] =
    [("shopping-cart", 0.8, 0, 2), ("buy-confirm", 1.2, 1, 3)];

/// Builds the full workload spec for a TPC-W mix with the paper's
/// published parameters.
pub fn mix(m: Mix) -> WorkloadSpec {
    let (rc_cpu, rc_disk, wc_cpu, wc_disk, ws_cpu, ws_disk) = m.table3_demands();
    let pw = m.pw();
    let pr = 1.0 - pw;
    let mut classes = Vec::new();
    let read_weight = pr / READ_SHAPE.len() as f64;
    for (name, mult, reads) in READ_SHAPE {
        classes.push(TxnClass {
            name: format!("tpcw-{name}"),
            weight: read_weight,
            is_update: false,
            cpu: rc_cpu * mult,
            disk: rc_disk * mult,
            reads,
            writes: 0,
            private_writes: 0,
        });
    }
    let update_weight = pw / UPDATE_SHAPE.len() as f64;
    for (name, mult, writes, private_writes) in UPDATE_SHAPE {
        classes.push(TxnClass {
            name: format!("tpcw-{name}"),
            weight: update_weight,
            is_update: true,
            cpu: wc_cpu * mult,
            disk: wc_disk * mult,
            reads: 2,
            writes,
            private_writes,
        });
    }
    WorkloadSpec {
        name: m.name().to_string(),
        classes,
        think_time: 1.0,
        clients_per_replica: m.clients_per_replica(),
        ws_cpu,
        ws_disk,
        update_table: "items".to_string(),
        db_update_size: ITEMS,
        read_tables: vec![
            ("items".to_string(), ITEMS),
            ("customers".to_string(), CUSTOMERS),
            ("orders".to_string(), ORDERS),
        ],
        heap: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fractions_match_table2() {
        assert!((mix(Mix::Browsing).pw() - 0.05).abs() < 1e-12);
        assert!((mix(Mix::Shopping).pw() - 0.20).abs() < 1e-12);
        assert!((mix(Mix::Ordering).pw() - 0.50).abs() < 1e-12);
    }

    #[test]
    fn clients_match_table2() {
        assert_eq!(mix(Mix::Browsing).clients_per_replica, 30);
        assert_eq!(mix(Mix::Shopping).clients_per_replica, 40);
        assert_eq!(mix(Mix::Ordering).clients_per_replica, 50);
    }

    #[test]
    fn aggregate_demands_match_table3_for_all_mixes() {
        for m in Mix::ALL {
            let s = mix(m);
            let (rc_cpu, rc_disk, wc_cpu, wc_disk, ws_cpu, ws_disk) = m.table3_demands();
            assert!((s.mean_read_cpu() - rc_cpu).abs() < 1e-9, "{m:?} rc_cpu");
            assert!((s.mean_read_disk() - rc_disk).abs() < 1e-9, "{m:?} rc_disk");
            assert!((s.mean_write_cpu() - wc_cpu).abs() < 1e-9, "{m:?} wc_cpu");
            assert!(
                (s.mean_write_disk() - wc_disk).abs() < 1e-9,
                "{m:?} wc_disk"
            );
            assert_eq!(s.ws_cpu, ws_cpu);
            assert_eq!(s.ws_disk, ws_disk);
        }
    }

    #[test]
    fn update_ops_mean_is_u() {
        // Equal weights over {2, 4} writes -> U = 3, the calibration choice
        // documented on `UPDATE_SHAPE`.
        let s = mix(Mix::Shopping);
        assert!((s.mean_update_ops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn updatable_space_is_standard_items() {
        for m in Mix::ALL {
            assert_eq!(mix(m).db_update_size, ITEMS);
        }
    }
}
