//! Virtual simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in virtual time, in seconds since simulation start.
///
/// `SimTime` wraps a non-NaN `f64` and therefore implements `Ord`; the event
/// heap relies on that total order. Constructors reject NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative — virtual time is always a valid,
    /// non-negative instant, so this indicates a programming error.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            !secs.is_nan() && secs >= 0.0,
            "SimTime must be non-negative and not NaN, got {secs}"
        );
        SimTime(secs)
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Adds a delay already validated as finite and non-negative — the
    /// engine's scheduling fast path, which skips the NaN/negative assert
    /// (two finite non-negative summands cannot produce either).
    pub(crate) fn offset_unchecked(self, secs: f64) -> SimTime {
        SimTime(self.0 + secs)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Non-NaN by construction, so total_cmp agrees with partial order.
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1.5) + 0.5;
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!(t - SimTime::from_secs(0.5), 1.5);
    }
}
