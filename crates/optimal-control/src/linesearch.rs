//! Backtracking line search along projected paths.

use crate::{Bounds, Objective};

/// Parameters of the Armijo backtracking search.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArmijoOptions {
    /// Sufficient-decrease coefficient `c₁`.
    pub c1: f64,
    /// Backtracking factor applied to the step on each failure.
    pub shrink: f64,
    /// Smallest step before the search gives up.
    pub min_step: f64,
    /// Initial trial step.
    pub initial_step: f64,
}

impl Default for ArmijoOptions {
    fn default() -> Self {
        Self {
            c1: 1e-4,
            shrink: 0.5,
            min_step: 1e-14,
            initial_step: 1.0,
        }
    }
}

/// Result of one line search.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LineSearchOutcome {
    /// Accepted point (projected into the bounds).
    pub x: Vec<f64>,
    /// Objective at the accepted point.
    pub f: f64,
    /// Accepted step length (0 when the search failed).
    pub step: f64,
    /// Objective evaluations consumed.
    pub evaluations: usize,
}

/// Armijo backtracking along the *projected* ray
/// `x(t) = P(x₀ − t·direction)`, the correct search path for
/// box-constrained descent (the path bends at the bounds).
///
/// `direction` is a descent direction in the minimization sense (the search
/// moves along `−direction`); `grad` is the objective gradient at `x0` and
/// `f0` the objective there. A trial point is accepted on the standard
/// sufficient-decrease test evaluated through the *actual displacement*
/// (which differs from `−t·direction` once the path bends at the box):
///
/// `f(x(t)) ≤ f0 + c₁ · gᵀ(x(t) − x₀)`
///
/// For quasi-Newton directions this is the textbook Armijo condition; for
/// bent paths it keeps accepting steps as long as the move remains a descent
/// displacement.
pub(crate) fn armijo_projected(
    obj: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    f0: f64,
    grad: &[f64],
    direction: &[f64],
    options: &ArmijoOptions,
) -> LineSearchOutcome {
    let mut evaluations = 0;
    // One reusable trial buffer serves every backtracking/growth step; the
    // accepted point lives in a second buffer and the two are swapped, so a
    // whole search performs two allocations regardless of trial count.
    let mut xt = vec![0.0; x0.len()];
    // Evaluates the projected trial point at step `t` into `x`; returns the
    // objective (NaN when not evaluated), displacement² and slope.
    let mut trial = |t: f64, x: &mut [f64]| -> (f64, f64, f64) {
        for ((xi_t, xi), di) in x.iter_mut().zip(x0).zip(direction) {
            *xi_t = xi - t * di;
        }
        bounds.project(x);
        let mut moved_sq = 0.0;
        let mut slope = 0.0;
        for i in 0..x.len() {
            let dxi = x[i] - x0[i];
            moved_sq += dxi * dxi;
            slope += grad[i] * dxi;
        }
        if moved_sq == 0.0 || slope >= 0.0 {
            return (f64::NAN, moved_sq, slope);
        }
        evaluations += 1;
        let f = obj.value(x);
        (f, moved_sq, slope)
    };

    let mut step = options.initial_step;
    let mut accepted: Option<f64> = None;
    while step >= options.min_step {
        let (f, moved_sq, slope) = trial(step, &mut xt);
        if moved_sq == 0.0 {
            // The projection pinned every component; a shorter step cannot
            // unpin them along the same ray.
            return LineSearchOutcome {
                x: x0.to_vec(),
                f: f0,
                step: 0.0,
                evaluations,
            };
        }
        if slope < 0.0 && f.is_finite() && f <= f0 + options.c1 * slope {
            accepted = Some(f);
            break;
        }
        step *= options.shrink;
    }
    let Some(mut f) = accepted else {
        return LineSearchOutcome {
            x: x0.to_vec(),
            f: f0,
            step: 0.0,
            evaluations,
        };
    };
    let mut x = std::mem::replace(&mut xt, vec![0.0; x0.len()]);

    // Forward tracking: only when the *first* trial succeeded, expand the
    // step while the objective keeps strictly improving and the Armijo test
    // still holds. Without this, a quasi-Newton model gone stale (e.g. after
    // the active set changed or curvature pairs were rejected) can emit tiny
    // always-accepted directions and crawl.
    if step == options.initial_step {
        let mut grow = step * 2.0;
        for _ in 0..40 {
            let (fg, moved_sq, slope) = trial(grow, &mut xt);
            let armijo_ok = slope < 0.0 && fg.is_finite() && fg <= f0 + options.c1 * slope;
            if moved_sq == 0.0 || !armijo_ok || fg >= f {
                break;
            }
            std::mem::swap(&mut x, &mut xt);
            f = fg;
            step = grow;
            grow *= 2.0;
        }
    }
    LineSearchOutcome {
        x,
        f,
        step,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quadratic;
    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + 4.0 * x[1] * x[1]
        }
        fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            grad[0] = 2.0 * x[0];
            grad[1] = 8.0 * x[1];
            self.value(x)
        }
    }

    #[test]
    fn accepts_descent_step() {
        let bounds = Bounds::uniform(2, -10.0, 10.0).unwrap();
        let x0 = [2.0, 1.0];
        let f0 = Quadratic.value(&x0);
        let grad = [4.0, 8.0];
        let out = armijo_projected(
            &Quadratic,
            &bounds,
            &x0,
            f0,
            &grad,
            &grad,
            &ArmijoOptions::default(),
        );
        assert!(out.step > 0.0);
        assert!(out.f < f0);
        assert!(out.evaluations >= 1);
    }

    #[test]
    fn projected_path_respects_bounds() {
        let bounds = Bounds::uniform(2, -0.5, 0.5).unwrap();
        let x0 = [0.5, 0.5];
        let f0 = Quadratic.value(&x0);
        // Gradient pushes outside the box in component 0; the projected path
        // still reduces the objective along component 1.
        let grad = [-4.0, 8.0];
        let out = armijo_projected(
            &Quadratic,
            &bounds,
            &x0,
            f0,
            &grad,
            &grad,
            &ArmijoOptions::default(),
        );
        assert!(bounds.contains(&out.x, 0.0));
        assert!(out.f < f0);
        assert_eq!(out.x[0], 0.5, "pinned at the upper bound");
    }

    #[test]
    fn fully_pinned_point_returns_zero_step() {
        let bounds = Bounds::uniform(2, 0.0, 1.0).unwrap();
        let x0 = [0.0, 0.0];
        let f0 = Quadratic.value(&x0);
        // Gradient pushes both components below the lower bound.
        let grad = [1.0, 1.0];
        let out = armijo_projected(
            &Quadratic,
            &bounds,
            &x0,
            f0,
            &grad,
            &grad,
            &ArmijoOptions::default(),
        );
        assert_eq!(out.step, 0.0);
        assert_eq!(out.x, x0.to_vec());
    }

    #[test]
    fn ascent_direction_backtracks_to_failure() {
        let bounds = Bounds::uniform(2, -10.0, 10.0).unwrap();
        let x0 = [2.0, 1.0];
        let f0 = Quadratic.value(&x0);
        let grad = [4.0, 8.0];
        // Negated gradient (an ascent direction for the search convention).
        let dir = [-4.0, -8.0];
        let out = armijo_projected(
            &Quadratic,
            &bounds,
            &x0,
            f0,
            &grad,
            &dir,
            &ArmijoOptions::default(),
        );
        assert_eq!(out.step, 0.0, "no Armijo point along an ascent ray");
        // Ascent rays are rejected without objective evaluations.
        assert_eq!(out.evaluations, 0);
    }

    #[test]
    fn quasi_newton_scale_mismatch_is_accepted() {
        // A direction much longer than the gradient (large inverse-Hessian
        // eigenvalue) must still be usable — the regression that motivates
        // the displacement-slope acceptance form.
        let bounds = Bounds::uniform(2, -100.0, 100.0).unwrap();
        let x0 = [2.0, 0.0];
        let f0 = Quadratic.value(&x0);
        let grad = [4.0, 0.0];
        let dir = [400.0, 0.0]; // 100× the gradient; exact minimizer at t = 0.005.
        let out = armijo_projected(
            &Quadratic,
            &bounds,
            &x0,
            f0,
            &grad,
            &dir,
            &ArmijoOptions::default(),
        );
        assert!(
            out.step > 0.0,
            "long quasi-Newton direction must be accepted"
        );
        assert!(out.f < f0);
    }
}
