//! Bracketed scalar root-finding (Brent 1973, *Algorithms for
//! Minimization without Derivatives*, ch. 4).
//!
//! The single-master model's unknowns are each the root of a continuous
//! scalar function whose evaluation is itself a queueing solve. Given a
//! sign-changing bracket, Brent's method needs no gain and no iteration
//! cap: inverse quadratic / secant steps where they shrink the bracket
//! fast enough, bisection where they do not, and termination once the
//! bracket is narrower than the tolerance — for any function, after at
//! most about `log2((b − a) / xtol)²` evaluations.

/// Finds `x` with `f(x) = 0` inside a bracket.
///
/// `a` and `b` are the bracket ends as `(x, f(x))` pairs whose values
/// differ in sign (either may be zero; an infinite value is a sign like
/// any other). The root is located to within
/// `xtol + 4·ε·|x|`. Returns `(x, f(x))`, and the **last call of `f` was
/// at the returned `x`**, so a closure that leaves its result in captured
/// state (a solver workspace) holds the state of the root on return.
///
/// If the values do *not* differ in sign, or `f` is discontinuous or
/// returns NaN, the search still terminates — on the bracket end it shrank
/// towards — so callers whose bracket is not guaranteed test the returned
/// residual.
///
/// # Errors
///
/// Propagates the first error `f` returns.
///
/// # Examples
///
/// ```
/// use replipred_mva::roots::bracketed_root;
///
/// let f = |x: f64| Ok::<_, ()>(x * x - 2.0);
/// let (x, fx) = bracketed_root(f, (0.0, -2.0), (2.0, 2.0), 1e-12, 0.0).unwrap();
/// assert!((x - 2f64.sqrt()).abs() < 1e-11 && fx.abs() < 1e-11);
/// ```
pub fn bracketed_root<E>(
    mut f: impl FnMut(f64) -> Result<f64, E>,
    (mut a, mut fa): (f64, f64),
    (mut b, mut fb): (f64, f64),
    xtol: f64,
    ftol: f64,
) -> Result<(f64, f64), E> {
    // Invariant: `b` is the best iterate, `c` the end that brackets the
    // root with it, `a` the previous `b`; `d` is the last step, `e` the
    // one before it.
    let (mut c, mut fc) = (a, fa);
    let mut d = b - a;
    let mut e = d;
    let mut last = f64::NAN;
    loop {
        if (fb > 0.0 && fc > 0.0) || (fb < 0.0 && fc < 0.0) {
            (c, fc) = (a, fa);
            d = b - a;
            e = d;
        }
        if fc.abs() < fb.abs() {
            (a, fa) = (b, fb);
            (b, fb) = (c, fc);
            (c, fc) = (a, fa);
        }
        let tol = 2.0 * f64::EPSILON * b.abs() + 0.5 * xtol;
        let half = 0.5 * (c - b);
        if half.abs() <= tol || fb.abs() <= ftol {
            if last != b {
                fb = f(b)?;
            }
            return Ok((b, fb));
        }
        // Interpolate only while the previous steps were shrinking the
        // residual; accept the step only if it falls inside the bracket
        // and is less than half the step before last. Written so that a
        // NaN or infinite value anywhere fails the test and bisects.
        let mut bisect = true;
        if e.abs() >= tol && fa.abs() > fb.abs() {
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                (2.0 * half * s, 1.0 - s)
            } else {
                let (q, r) = (fa / fc, fb / fc);
                (
                    s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0)),
                    (q - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            } else {
                p = -p;
            }
            if 2.0 * p < (3.0 * half * q - (tol * q).abs()).min((e * q).abs()) {
                (e, d) = (d, p / q);
                bisect = false;
            }
        }
        if bisect {
            (e, d) = (half, half);
        }
        (a, fa) = (b, fb);
        b += if d.abs() > tol { d } else { tol.copysign(half) };
        fb = f(b)?;
        last = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the search counting evaluations and checking the last-call
    /// contract.
    fn solve(f: impl Fn(f64) -> f64, a: f64, b: f64, xtol: f64) -> (f64, f64, usize) {
        let mut calls = 0;
        let mut last = f64::NAN;
        let (x, fx) = bracketed_root(
            |x| {
                calls += 1;
                last = x;
                Ok::<_, ()>(f(x))
            },
            (a, f(a)),
            (b, f(b)),
            xtol,
            0.0,
        )
        .unwrap();
        assert_eq!(last, x, "the last evaluation is at the returned root");
        assert_eq!(fx.to_bits(), f(x).to_bits());
        (x, fx, calls)
    }

    #[test]
    fn smooth_roots_converge_superlinearly() {
        let (x, _, calls) = solve(|x| x * x * x - 2.0 * x - 5.0, 2.0, 3.0, 1e-14);
        assert!((x - 2.094_551_481_542_326_5).abs() < 1e-13, "x = {x}");
        assert!(calls <= 12, "{calls} evaluations");
        let (x, _, calls) = solve(|x| x.cos() - x, 0.0, 1.0, 1e-14);
        assert!((x - 0.739_085_133_215_160_6).abs() < 1e-13, "x = {x}");
        assert!(calls <= 10, "{calls} evaluations");
    }

    #[test]
    fn either_orientation_and_a_root_on_the_bracket_end() {
        let (x, ..) = solve(|x| 1.0 - x, 3.0, 0.0, 1e-12);
        assert!((x - 1.0).abs() < 1e-12);
        let (x, fx, calls) = solve(|x| x - 3.0, 0.0, 3.0, 1e-12);
        assert_eq!((x, fx), (3.0, 0.0));
        assert_eq!(
            calls, 1,
            "only the call that makes the root the last evaluation"
        );
    }

    #[test]
    fn poles_jumps_and_flat_stretches_fall_back_to_bisection() {
        // A pole at the bracket end: one value is infinite.
        let f = |x: f64| {
            if x >= 1.0 {
                f64::INFINITY
            } else {
                x / (1.0 - x) - 3.0
            }
        };
        let (x, _, calls) = solve(f, 0.0, 1.0, 1e-13);
        assert!((x - 0.75).abs() < 1e-12, "x = {x}");
        assert!(calls <= 20, "{calls} evaluations");
        // A jump: the search closes in on the discontinuity and the
        // residual it returns says so.
        let (x, fx, calls) = solve(|x| if x < 0.3 { -1.0 } else { 2.0 }, 0.0, 1.0, 1e-12);
        assert!((x - 0.3).abs() <= 1e-12 && fx.abs() >= 1.0);
        assert!(calls <= 60, "{calls} evaluations");
        // Nearly flat around a triple root: the worst case for
        // interpolation still ends.
        let (x, _, calls) = solve(|x| (x - 0.4).powi(3), -1.0, 2.0, 1e-12);
        assert!((x - 0.4).abs() < 1e-4, "x = {x}");
        assert!(calls <= 200, "{calls} evaluations");
    }

    #[test]
    fn nan_and_an_invalid_bracket_still_terminate() {
        let (_, fx, calls) = solve(|_| f64::NAN, 0.0, 1.0, 1e-9);
        assert!(fx.is_nan() && calls <= 64);
        let (x, fx, calls) = solve(|x| 1.0 + x, 0.0, 1.0, 1e-9);
        assert!((0.0..=1.0).contains(&x) && fx >= 1.0 && calls <= 64);
    }

    #[test]
    fn errors_propagate() {
        let r = bracketed_root(
            |_| Err::<f64, _>("boom"),
            (0.0, -1.0),
            (1.0, 1.0),
            1e-9,
            0.0,
        );
        assert_eq!(r, Err("boom"));
    }
}
