//! Projected gradient descent with Armijo backtracking.

use crate::linesearch::{armijo_projected, ArmijoOptions};
use crate::report::{OptimizeResult, StopReason};
use crate::{Bounds, CountingObjective, Objective};

/// Options for [`projected_gradient`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProjGradOptions {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Stop when the projected-gradient stationarity falls below this.
    pub stationarity_tol: f64,
    /// Stop when the per-iteration relative improvement falls below this.
    pub improvement_tol: f64,
}

impl Default for ProjGradOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            stationarity_tol: 1e-8,
            improvement_tol: 1e-10,
        }
    }
}

/// Minimizes `obj` over the box by steepest descent on the projected path.
///
/// The start point is projected into the bounds first. Returns the best
/// point found along with convergence diagnostics; a non-finite objective
/// at the start yields an immediate [`StopReason::LineSearchFailed`] result
/// at the projected start.
pub fn projected_gradient(
    obj: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    options: &ProjGradOptions,
) -> OptimizeResult {
    let counting = CountingObjective::new(obj);
    let mut x = bounds.projected(x0);
    let mut grad = vec![0.0; x.len()];
    let mut f = counting.value_and_gradient(&x, &mut grad);
    let mut history = vec![f];

    if !f.is_finite() {
        return OptimizeResult {
            x,
            objective: f,
            iterations: 0,
            evaluations: counting.count(),
            gradient_evaluations: counting.gradients(),
            stop: StopReason::LineSearchFailed,
            history,
        };
    }

    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0;
    let mut step_hint = 1.0;
    for _ in 0..options.max_iterations {
        iterations += 1;
        if bounds.stationarity(&x, &grad) < options.stationarity_tol {
            stop = StopReason::Stationary;
            break;
        }
        // Scale the ray so the first trial step moves O(box) distances even
        // when the gradient is huge (the BVP costs can be ~1e5).
        let gmax = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        let ls = armijo_projected(
            &counting,
            bounds,
            &x,
            f,
            &grad,
            &grad,
            &ArmijoOptions {
                initial_step: step_hint / gmax.max(1e-30),
                ..ArmijoOptions::default()
            },
        );
        if ls.step == 0.0 {
            // A failed backtracking search from a descent direction means
            // the attainable decrease is below the objective's round-off
            // floor; after any real progress that is convergence, not error.
            stop = if history.len() > 1 {
                StopReason::SmallImprovement
            } else {
                StopReason::LineSearchFailed
            };
            break;
        }
        let improvement = (f - ls.f) / f.abs().max(1e-30);
        x = ls.x;
        f = ls.f;
        history.push(f);
        // Let the trial step grow back after successful iterations.
        step_hint = (ls.step * gmax * 2.0).clamp(1e-6, 1e6);
        if improvement < options.improvement_tol {
            stop = StopReason::SmallImprovement;
            break;
        }
        if iterations < options.max_iterations {
            let f_check = counting.value_and_gradient(&x, &mut grad);
            debug_assert_eq!(f_check.to_bits(), f.to_bits());
        }
    }

    OptimizeResult {
        x,
        objective: f,
        iterations,
        evaluations: counting.count(),
        gradient_evaluations: counting.gradients(),
        stop,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quadratic {
        center: Vec<f64>,
    }
    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            self.center.len()
        }
        fn value(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.center)
                .enumerate()
                .map(|(i, (xi, ci))| (1.0 + i as f64) * (xi - ci) * (xi - ci))
                .sum()
        }
        fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            for (i, ((g, xi), ci)) in grad.iter_mut().zip(x).zip(&self.center).enumerate() {
                *g = 2.0 * (1.0 + i as f64) * (xi - ci);
            }
            self.value(x)
        }
    }

    #[test]
    fn finds_interior_minimum() {
        let obj = Quadratic {
            center: vec![0.3, -0.2, 0.7],
        };
        let bounds = Bounds::uniform(3, -1.0, 1.0).unwrap();
        let r = projected_gradient(&obj, &bounds, &[0.0; 3], &ProjGradOptions::default());
        for (xi, ci) in r.x.iter().zip(&obj.center) {
            assert!((xi - ci).abs() < 1e-4, "{xi} vs {ci}");
        }
        assert!(r.converged(), "stop = {:?}", r.stop);
    }

    #[test]
    fn finds_bound_constrained_minimum() {
        // Center outside the box: solution pins to the nearest face.
        let obj = Quadratic {
            center: vec![2.0, 0.0],
        };
        let bounds = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let r = projected_gradient(&obj, &bounds, &[0.0, 0.5], &ProjGradOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-6, "x0 = {}", r.x[0]);
        assert!(r.x[1].abs() < 1e-4, "x1 = {}", r.x[1]);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let obj = Quadratic {
            center: vec![0.9; 4],
        };
        let bounds = Bounds::uniform(4, -1.0, 1.0).unwrap();
        let r = projected_gradient(&obj, &bounds, &[-1.0; 4], &ProjGradOptions::default());
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(r.evaluations > 0);
    }

    #[test]
    fn respects_iteration_cap() {
        let obj = Quadratic {
            center: vec![0.5; 6],
        };
        let bounds = Bounds::uniform(6, -1.0, 1.0).unwrap();
        let r = projected_gradient(
            &obj,
            &bounds,
            &[-1.0; 6],
            &ProjGradOptions {
                max_iterations: 2,
                ..Default::default()
            },
        );
        assert!(r.iterations <= 2);
    }

    #[test]
    fn non_finite_start_reports_failure() {
        struct Bad;
        impl Objective for Bad {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, _x: &[f64]) -> f64 {
                f64::NAN
            }
            fn value_and_gradient(&self, _x: &[f64], grad: &mut [f64]) -> f64 {
                grad.fill(f64::NAN);
                f64::NAN
            }
        }
        let bounds = Bounds::uniform(1, 0.0, 1.0).unwrap();
        let r = projected_gradient(&Bad, &bounds, &[0.5], &ProjGradOptions::default());
        assert_eq!(r.stop, StopReason::LineSearchFailed);
    }
}
