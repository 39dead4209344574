//! Host-side measurement primitives: the harness's single wall-clock
//! read, process CPU time, and peak resident memory.
//!
//! Wall-clock is banned in the simulation crates (replilint D1, clippy
//! `disallowed-methods`); this package exists to measure host time, so
//! the one justified read lives here and everything else goes through
//! [`Stopwatch`].

use std::time::Instant;

/// A running stopwatch. Cheap to copy; reading it never stops it.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch now.
    // Measuring wall-clock time is this package's entire purpose; the
    // workspace-wide `Instant::now` ban targets simulation code.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the start.
    pub fn nanos(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Times one call of `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.secs())
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has spent on a core so far (first field of
/// `/proc/self/schedstat`, nanoseconds), or `None` off Linux.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let w = Stopwatch::start();
        let a = w.nanos();
        let b = w.nanos();
        assert!(b >= a);
        let ((), secs) = timed(|| std::hint::black_box(()));
        assert!(secs >= 0.0);
    }

    #[test]
    fn proc_readers_report_plausible_values_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.1, "peak rss {mb} MB");
        }
        if let Some(cpu) = process_cpu_s() {
            assert!(cpu >= 0.0);
        }
    }
}
