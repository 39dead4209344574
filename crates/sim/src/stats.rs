//! Streaming measurement utilities for simulation output analysis.
//!
//! The paper reports *sustained averages over a 15-minute window after a
//! 10-minute warm-up* (Section 6.1). These types support exactly that
//! methodology: every collector has a `reset()` that discards the warm-up
//! samples, and [`mean_ci95`] turns per-seed replications of a run into a
//! mean ± 95% confidence interval.

use serde::{Deserialize, Serialize};

/// Streaming mean (Welford's update) with min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tally {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Discards all observations (end-of-warm-up).
    pub fn reset(&mut self) {
        *self = Tally::new();
    }
}

/// Time-weighted average of a piecewise-constant signal (queue length,
/// number of busy servers, ...).
///
/// Feed it every change point; it integrates value·dt.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_t: f64,
    value: f64,
    area: f64,
    start_t: f64,
}

impl TimeWeighted {
    /// Creates a collector starting at time `t0` with initial `value`.
    pub fn new(t0: f64, value: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            value,
            area: 0.0,
            start_t: t0,
        }
    }

    /// Updates the signal to `value` at time `t` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `t` goes backwards — the simulation clock is monotone.
    pub fn set(&mut self, t: f64, value: f64) {
        assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.area += self.value * (t - self.last_t);
        self.last_t = t;
        self.value = value;
    }

    /// Adds `delta` to the current value at time `t`.
    pub fn add(&mut self, t: f64, delta: f64) {
        let v = self.value + delta;
        self.set(t, v);
    }

    /// Time-weighted mean over `[start, t]`; `0.0` for an empty window.
    pub fn mean_at(&self, t: f64) -> f64 {
        let span = t - self.start_t;
        if span <= 0.0 {
            return 0.0;
        }
        (self.area + self.value * (t - self.last_t)) / span
    }

    /// Restarts the measurement window at time `t`, keeping the current
    /// signal value (end-of-warm-up reset).
    pub fn reset(&mut self, t: f64) {
        self.area = 0.0;
        self.start_t = t;
        self.last_t = t;
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (tabulated through 30, the asymptotic normal value 1.96 beyond).
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        _ => 1.96,
    }
}

/// Mean of `xs` and the half-width of an approximate 95% confidence
/// interval on it, each observation an independent sample (one run per
/// seed). The half-width uses the Student-t critical value for the
/// sample count (essential for small counts: at k = 2 the t value is
/// 12.71, not 1.96) and is `None` with fewer than two observations.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean_ci95(xs: &[f64]) -> (f64, Option<f64>) {
    assert!(!xs.is_empty(), "mean of no observations");
    let k = xs.len();
    let mean = xs.iter().sum::<f64>() / k as f64;
    let half_width = (k >= 2).then(|| {
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        t_critical_95(k - 1) * (var / k as f64).sqrt()
    });
    (mean, half_width)
}

/// Fixed-width time-windowed event accumulator: per-window event counts
/// and value sums for transient (time-series) reporting.
///
/// Windows are spans of *simulation time*, not sample counts, so a fault
/// injected at `t` lands in a known window and empty windows (e.g. during
/// an outage) stay visible as zeros.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Windowed {
    start: f64,
    window: f64,
    counts: Vec<u64>,
    sums: Vec<f64>,
}

impl Windowed {
    /// Creates an accumulator with windows `[start + k·window,
    /// start + (k+1)·window)`. Panics if `window` is not positive.
    pub fn new(start: f64, window: f64) -> Self {
        assert!(window > 0.0, "window width must be positive");
        Windowed {
            start,
            window,
            counts: Vec::new(),
            sums: Vec::new(),
        }
    }

    fn index_of(&self, t: f64) -> Option<usize> {
        if t < self.start {
            return None;
        }
        Some(((t - self.start) / self.window) as usize)
    }

    /// Records one event at time `t` carrying value `x` (use `0.0` when
    /// only the count matters). Events before `start` are ignored;
    /// intervening empty windows are materialised as zeros.
    pub fn record(&mut self, t: f64, x: f64) {
        let Some(i) = self.index_of(t) else { return };
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
            self.sums.resize(i + 1, 0.0);
        }
        self.counts[i] += 1;
        self.sums[i] += x;
    }

    /// Extends the window list (with zeros) so it covers time `t`; call
    /// with the end of the measurement interval so trailing idle windows
    /// are reported rather than truncated.
    pub fn cover(&mut self, t: f64) {
        if let Some(i) = self.index_of(t.max(self.start)) {
            // `t` exactly on a boundary closes the previous window
            // rather than opening an empty new one.
            let n = if (t - self.start) % self.window == 0.0 && i > 0 {
                i
            } else {
                i + 1
            };
            if n > self.counts.len() {
                self.counts.resize(n, 0);
                self.sums.resize(n, 0.0);
            }
        }
    }

    /// Number of materialised windows.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no window has been materialised.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Window width in seconds.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// `[start, end)` bounds of window `i`.
    pub fn bounds(&self, i: usize) -> (f64, f64) {
        (
            self.start + i as f64 * self.window,
            self.start + (i + 1) as f64 * self.window,
        )
    }

    /// Event count in window `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Value sum in window `i`.
    pub fn sum(&self, i: usize) -> f64 {
        self.sums[i]
    }

    /// Mean value per event in window `i` (0 when the window is empty).
    pub fn mean(&self, i: usize) -> f64 {
        if self.counts[i] == 0 {
            0.0
        } else {
            self.sums[i] / self.counts[i] as f64
        }
    }

    /// Events per second in window `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.counts[i] as f64 / self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_matches_closed_forms() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn tally_empty_is_zero() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn tally_reset_discards() {
        let mut t = Tally::new();
        t.record(100.0);
        t.reset();
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn time_weighted_square_wave() {
        // Value 1 on [0,2), 3 on [2,4): mean over [0,4] is 2.
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.set(2.0, 3.0);
        assert!((tw.mean_at(4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset_restarts_window() {
        let mut tw = TimeWeighted::new(0.0, 10.0);
        tw.set(5.0, 0.0); // heavy warm-up
        tw.reset(5.0);
        tw.set(7.0, 4.0);
        // Window [5, 9]: 0 for 2 s then 4 for 2 s -> mean 2.
        assert!((tw.mean_at(9.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_tracks_queue() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.add(1.0, 1.0); // arrival
        tw.add(2.0, 1.0); // arrival
        tw.add(3.0, -1.0); // departure
                           // Integral: 0*1 + 1*1 + 2*1 + 1*1 over [0,4] = 4/4 = 1.
        assert!((tw.mean_at(4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_time_reversal() {
        let mut tw = TimeWeighted::new(5.0, 0.0);
        tw.set(4.0, 1.0);
    }

    #[test]
    fn mean_ci95_small_sample_uses_t_critical_value() {
        // Two observations, df = 1: the 95% CI must use t = 12.706, not the
        // normal 1.96 — the interval is ~6.5x wider.
        // sd = sqrt(2), half-width = 12.706 * sqrt(2/2) = 12.706.
        let (mean, hw) = mean_ci95(&[9.0, 11.0]);
        assert_eq!(mean, 10.0);
        let hw = hw.unwrap();
        assert!((hw - 12.706).abs() < 1e-9, "hw={hw}");
        // One observation has a mean but no interval.
        assert_eq!(mean_ci95(&[1.0]), (1.0, None));
    }

    #[test]
    fn windowed_bins_by_time_and_fills_gaps() {
        let mut w = Windowed::new(10.0, 5.0);
        w.record(9.9, 100.0); // before start: ignored
        w.record(10.0, 1.0);
        w.record(14.9, 3.0);
        w.record(27.0, 8.0); // skips windows 1 and 2 partially
        assert_eq!(w.len(), 4);
        assert_eq!(w.count(0), 2);
        assert_eq!(w.sum(0), 4.0);
        assert_eq!(w.mean(0), 2.0);
        assert_eq!(w.rate(0), 0.4);
        assert_eq!(w.count(1), 0);
        assert_eq!(w.mean(1), 0.0);
        assert_eq!(w.count(3), 1);
        assert_eq!(w.bounds(3), (25.0, 30.0));
    }

    #[test]
    fn windowed_cover_extends_without_counting() {
        let mut w = Windowed::new(0.0, 2.0);
        w.record(1.0, 1.0);
        w.cover(10.0); // exact boundary: closes window [8, 10)
        assert_eq!(w.len(), 5);
        assert_eq!(w.count(4), 0);
        w.cover(10.5); // inside window 5: materialises it
        assert_eq!(w.len(), 6);
        assert_eq!(w.counts.iter().sum::<u64>(), 1);
    }
}
