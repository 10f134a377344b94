//! Projected L-BFGS for box-constrained minimization.
//!
//! A limited-memory BFGS direction (two-loop recursion over the last `m`
//! curvature pairs) combined with projection onto the bounds and Armijo
//! backtracking along the projected ray. Components pinned at an active
//! bound with an outward-pointing model direction are handled by the
//! projection itself; when that bends the step uphill, the step is retried
//! on the free variables only (two-metric projection) before the history
//! is dropped. Curvature pairs that fail the positivity test (`yᵀs ≤ 0`,
//! which projection can produce) are skipped, falling back to the
//! well-scaled gradient direction.

use crate::linesearch::{armijo_projected, ArmijoOptions};
use crate::report::{OptimizeResult, StopReason};
use crate::{Bounds, CountingObjective, Objective};
use std::collections::VecDeque;

/// Options for [`lbfgs_b`].
#[derive(Debug, Clone, PartialEq)]
pub struct LbfgsOptions {
    /// Iteration cap.
    pub max_iterations: usize,
    /// History length `m` (curvature pairs retained).
    pub memory: usize,
    /// Stop when projected-gradient stationarity falls below this.
    pub stationarity_tol: f64,
    /// Stop when the per-iteration relative improvement falls below this.
    pub improvement_tol: f64,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            memory: 8,
            stationarity_tol: 1e-8,
            improvement_tol: 1e-10,
        }
    }
}

/// Two-loop recursion: applies the inverse-Hessian approximation to `grad`,
/// writing the model direction into `q` (`alphas` is per-call scratch; both
/// buffers are reused across iterations by the caller).
fn two_loop(
    grad: &[f64],
    pairs: &VecDeque<(Vec<f64>, Vec<f64>, f64)>, // (s, y, 1/yᵀs)
    q: &mut Vec<f64>,
    alphas: &mut Vec<f64>,
) {
    q.clear();
    q.extend_from_slice(grad);
    alphas.clear();
    for (s, y, rho) in pairs.iter().rev() {
        let alpha = rho * dot(s, q);
        for (qi, yi) in q.iter_mut().zip(y) {
            *qi -= alpha * yi;
        }
        alphas.push(alpha);
    }
    // Initial scaling H₀ = γI with γ = sᵀy/yᵀy of the most recent pair.
    if let Some((s, y, _)) = pairs.back() {
        let gamma = dot(s, y) / dot(y, y).max(1e-300);
        q.iter_mut().for_each(|qi| *qi *= gamma);
    }
    for ((s, y, rho), alpha) in pairs.iter().zip(alphas.iter().copied().rev()) {
        let beta = rho * dot(y, q);
        for (qi, si) in q.iter_mut().zip(s) {
            *qi += (alpha - beta) * si;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Minimizes `obj` over the box by projected L-BFGS.
///
/// The start point is projected into the bounds first. A non-finite
/// objective at the start yields an immediate
/// [`StopReason::LineSearchFailed`] result at the projected start. Every
/// accepted iterate costs one [`Objective::value_and_gradient`] call, except
/// the last one (the run stops there, so its gradient would go unused).
pub fn lbfgs_b(
    obj: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    options: &LbfgsOptions,
) -> OptimizeResult {
    let counting = CountingObjective::new(obj);
    let mut x = bounds.projected(x0);
    let dim = x.len();
    let mut grad = vec![0.0; dim];
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

    let mut pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0;
    // Iteration-scoped buffers, allocated once and recycled.
    let mut direction: Vec<f64> = Vec::with_capacity(dim);
    let mut alphas: Vec<f64> = Vec::with_capacity(options.memory.max(1));
    let mut grad_scratch: Vec<f64> = vec![0.0; dim];
    let mut free_grad: Vec<f64> = Vec::with_capacity(dim);

    for _ in 0..options.max_iterations {
        iterations += 1;
        if bounds.stationarity(&x, &grad) < options.stationarity_tol {
            stop = StopReason::Stationary;
            break;
        }
        // Quasi-Newton direction; fall back to a scaled gradient when the
        // model direction is not a descent direction.
        two_loop(&grad, &pairs, &mut direction, &mut alphas);
        if dot(&direction, &grad) <= 0.0 {
            direction.clear();
            direction.extend_from_slice(&grad);
        }
        let mut ls = armijo_projected(
            &counting,
            bounds,
            &x,
            f,
            &grad,
            &direction,
            &ArmijoOptions::default(),
        );
        let binding = |i: usize| {
            (x[i] <= bounds.lower()[i] && grad[i] > 0.0)
                || (x[i] >= bounds.upper()[i] && grad[i] < 0.0)
        };
        if ls.step == 0.0 && !pairs.is_empty() && (0..dim).any(binding) {
            // The model couples a component pinned at a bound to the free
            // ones, which can turn the free part of the projected step
            // uphill. Retry with the two-metric projection (Bertsekas
            // 1982) before discarding the history: the model step on the
            // free variables only, the raw gradient (clamped away by the
            // projection) on the pinned ones.
            free_grad.clear();
            free_grad.extend((0..dim).map(|i| if binding(i) { 0.0 } else { grad[i] }));
            two_loop(&free_grad, &pairs, &mut direction, &mut alphas);
            for (i, d) in direction.iter_mut().enumerate() {
                if binding(i) {
                    *d = grad[i];
                }
            }
            if dot(&direction, &grad) > 0.0 {
                ls = armijo_projected(
                    &counting,
                    bounds,
                    &x,
                    f,
                    &grad,
                    &direction,
                    &ArmijoOptions::default(),
                );
            }
        }
        let restart = ls.step == 0.0;
        let ls = if restart {
            // Retry with pure gradient before declaring failure — the
            // quasi-Newton direction can be poor right after projection
            // changes the active set.
            let ls_grad = armijo_projected(
                &counting,
                bounds,
                &x,
                f,
                &grad,
                &grad,
                &ArmijoOptions::default(),
            );
            if ls_grad.step == 0.0 {
                // A failed backtracking search from the gradient direction
                // means the attainable decrease is below the round-off floor
                // of the objective; after any real progress that is
                // convergence, not error.
                stop = if history.len() > 1 {
                    StopReason::SmallImprovement
                } else {
                    StopReason::LineSearchFailed
                };
                break;
            }
            pairs.clear();
            ls_grad
        } else {
            ls
        };
        // A restarted step is never judged by its improvement: the history
        // was just cleared and the next quasi-Newton step deserves a try.
        let small = !restart && (f - ls.f) / f.abs().max(1e-30) < options.improvement_tol;
        if small || iterations == options.max_iterations {
            if small {
                stop = StopReason::SmallImprovement;
            }
            x = ls.x;
            f = ls.f;
            history.push(f);
            break;
        }
        update_state(
            &counting,
            options,
            &mut x,
            &mut f,
            &mut grad,
            &mut grad_scratch,
            &mut pairs,
            ls.x,
            ls.f,
        );
        history.push(f);
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

/// Moves to the accepted point, refreshes the gradient (into the reusable
/// `grad_scratch`, which is then swapped with `grad`) and pushes the new
/// curvature pair when it passes the positivity test. Evicted pairs donate
/// their storage to the new one, so a full history churns without
/// reallocating.
#[allow(clippy::too_many_arguments)]
fn update_state<O: Objective + ?Sized>(
    counting: &CountingObjective<'_, O>,
    options: &LbfgsOptions,
    x: &mut Vec<f64>,
    f: &mut f64,
    grad: &mut Vec<f64>,
    grad_scratch: &mut Vec<f64>,
    pairs: &mut VecDeque<(Vec<f64>, Vec<f64>, f64)>,
    x_new: Vec<f64>,
    f_new: f64,
) {
    grad_scratch.clear();
    grad_scratch.resize(x.len(), 0.0);
    let f_check = counting.value_and_gradient(&x_new, grad_scratch);
    debug_assert_eq!(
        f_check.to_bits(),
        f_new.to_bits(),
        "value_and_gradient must reproduce value bit for bit"
    );
    let grad_new = grad_scratch;
    // Positivity test without materializing (s, y): identical summation
    // order to `dot` on the materialized vectors.
    let mut sy = 0.0;
    let mut ss = 0.0;
    let mut yy = 0.0;
    for i in 0..x.len() {
        let si = x_new[i] - x[i];
        let yi = grad_new[i] - grad[i];
        sy += si * yi;
        ss += si * si;
        yy += yi * yi;
    }
    if sy > 1e-12 * ss.sqrt() * yy.sqrt() {
        // Only a passing pair evicts history; the evicted pair donates its
        // storage so a churning full history does not reallocate.
        let (mut s, mut y) = if pairs.len() == options.memory.max(1) {
            let (s, y, _) = pairs.pop_front().expect("non-empty history");
            (s, y)
        } else {
            (Vec::with_capacity(x.len()), Vec::with_capacity(x.len()))
        };
        s.clear();
        s.extend(x_new.iter().zip(x.iter()).map(|(a, b)| a - b));
        y.clear();
        y.extend(grad_new.iter().zip(grad.iter()).map(|(a, b)| a - b));
        pairs.push_back((s, y, 1.0 / sy));
    }
    *x = x_new;
    *f = f_new;
    std::mem::swap(grad, grad_new);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosenbrock;
    impl Objective for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        }
        fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            grad[1] = 200.0 * (x[1] - x[0] * x[0]);
            self.value(x)
        }
    }

    #[test]
    fn solves_rosenbrock_inside_box() {
        let bounds = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = lbfgs_b(
            &Rosenbrock,
            &bounds,
            &[-1.2, 1.0],
            &LbfgsOptions {
                max_iterations: 500,
                ..Default::default()
            },
        );
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?} ({:?})", r.x, r.stop);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
        assert!(r.objective < 1e-6);
    }

    #[test]
    fn solves_bound_pinned_problem() {
        // Optimum of the sphere at (2,2) lies outside the [−1,1]² box.
        struct Shifted;
        impl Objective for Shifted {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2)
            }
            fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
                grad[0] = 2.0 * (x[0] - 2.0);
                grad[1] = 2.0 * (x[1] - 2.0);
                self.value(x)
            }
        }
        let bounds = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let r = lbfgs_b(&Shifted, &bounds, &[0.0, 0.0], &LbfgsOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-6);
        assert!((r.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn beats_projected_gradient_on_ill_conditioned_quadratic() {
        struct IllQuad;
        impl Objective for IllQuad {
            fn dim(&self) -> usize {
                4
            }
            fn value(&self, x: &[f64]) -> f64 {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| 10f64.powi(i as i32) * (v - 0.5) * (v - 0.5))
                    .sum()
            }
            fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
                for (i, (g, v)) in grad.iter_mut().zip(x).enumerate() {
                    *g = 2.0 * 10f64.powi(i as i32) * (v - 0.5);
                }
                self.value(x)
            }
        }
        let bounds = Bounds::uniform(4, 0.0, 1.0).unwrap();
        let opts = LbfgsOptions {
            max_iterations: 60,
            ..Default::default()
        };
        let r_lbfgs = lbfgs_b(&IllQuad, &bounds, &[0.1; 4], &opts);
        let r_pg = crate::projected_gradient(
            &IllQuad,
            &bounds,
            &[0.1; 4],
            &crate::ProjGradOptions {
                max_iterations: 60,
                ..Default::default()
            },
        );
        assert!(
            r_lbfgs.objective <= r_pg.objective * 1.001,
            "lbfgs {} vs pg {}",
            r_lbfgs.objective,
            r_pg.objective
        );
        assert!(r_lbfgs.objective < 1e-6, "lbfgs should nail the quadratic");
    }

    #[test]
    fn history_non_increasing_and_evaluations_counted() {
        let bounds = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = lbfgs_b(&Rosenbrock, &bounds, &[0.0, 0.0], &LbfgsOptions::default());
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // At least dim+1 evaluations per iteration (gradient + line search).
        assert!(r.evaluations >= r.iterations * 3);
    }

    #[test]
    fn degenerate_one_dimensional_problem() {
        struct Abs;
        impl Objective for Abs {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                (x[0] - 0.25).powi(2)
            }
            fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
                grad[0] = 2.0 * (x[0] - 0.25);
                self.value(x)
            }
        }
        let bounds = Bounds::uniform(1, 0.0, 1.0).unwrap();
        let r = lbfgs_b(&Abs, &bounds, &[0.9], &LbfgsOptions::default());
        assert!((r.x[0] - 0.25).abs() < 1e-6);
    }
}
