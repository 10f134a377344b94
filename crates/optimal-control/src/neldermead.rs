//! Derivative-free Nelder–Mead simplex search with bound projection.
//!
//! Retained as an ablation baseline against the gradient-based solvers: the
//! paper's direct sequential method only requires *an* NLP solver, and the
//! simplex method is the classic derivative-free choice when cost gradients
//! are untrusted.

use crate::report::{OptimizeResult, StopReason};
use crate::{Bounds, CountingObjective, Objective};

/// Options for [`nelder_mead`].
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadOptions {
    /// Iteration cap (one reflection cycle per iteration).
    pub max_iterations: usize,
    /// Stop when the simplex's objective spread falls below this.
    pub spread_tol: f64,
    /// Initial simplex edge, as a fraction of each bound interval.
    pub initial_scale: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self {
            max_iterations: 2000,
            spread_tol: 1e-12,
            initial_scale: 0.1,
        }
    }
}

/// Minimizes `obj` over the box by the Nelder–Mead simplex method; trial
/// points are projected into the bounds before evaluation.
pub fn nelder_mead(
    obj: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    options: &NelderMeadOptions,
) -> OptimizeResult {
    let counting = CountingObjective::new(obj);
    let dim = bounds.dim();
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    // Initial simplex: the projected start plus one vertex per coordinate.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dim + 1);
    let base = bounds.projected(x0);
    let f_base = counting.value(&base);
    simplex.push((base.clone(), f_base));
    for i in 0..dim {
        let mut v = base.clone();
        let span = (bounds.upper()[i] - bounds.lower()[i]).max(1e-12);
        let step = options.initial_scale * span;
        // Step inward when the start sits at the upper bound.
        v[i] = if v[i] + step <= bounds.upper()[i] {
            v[i] + step
        } else {
            v[i] - step
        };
        bounds.project(&mut v);
        let f = counting.value(&v);
        simplex.push((v, f));
    }

    let mut history = vec![f_base];
    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0;

    for _ in 0..options.max_iterations {
        iterations += 1;
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite objectives"));
        let best = simplex[0].1;
        let worst = simplex[dim].1;
        history.push(best);
        if (worst - best).abs() <= options.spread_tol * best.abs().max(1.0) {
            stop = StopReason::SimplexCollapsed;
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; dim];
        for (v, _) in simplex.iter().take(dim) {
            for (c, vi) in centroid.iter_mut().zip(v) {
                *c += vi / dim as f64;
            }
        }

        let project_eval = |point: Vec<f64>| {
            let p = bounds.projected(&point);
            let f = counting.value(&p);
            (p, f)
        };

        // Reflection.
        let reflected: Vec<f64> = centroid
            .iter()
            .zip(&simplex[dim].0)
            .map(|(c, w)| c + alpha * (c - w))
            .collect();
        let (xr, fr) = project_eval(reflected);

        if fr < simplex[0].1 {
            // Expansion.
            let expanded: Vec<f64> = centroid
                .iter()
                .zip(&xr)
                .map(|(c, r)| c + gamma * (r - c))
                .collect();
            let (xe, fe) = project_eval(expanded);
            simplex[dim] = if fe < fr { (xe, fe) } else { (xr, fr) };
        } else if fr < simplex[dim - 1].1 {
            simplex[dim] = (xr, fr);
        } else {
            // Contraction (toward the better of worst/reflected).
            let toward = if fr < simplex[dim].1 {
                &xr
            } else {
                &simplex[dim].0
            };
            let contracted: Vec<f64> = centroid
                .iter()
                .zip(toward)
                .map(|(c, w)| c + rho * (w - c))
                .collect();
            let (xc, fc) = project_eval(contracted);
            if fc < simplex[dim].1.min(fr) {
                simplex[dim] = (xc, fc);
            } else {
                // Shrink toward the best vertex.
                let best_v = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let shrunk: Vec<f64> = best_v
                        .iter()
                        .zip(&entry.0)
                        .map(|(b, v)| b + sigma * (v - b))
                        .collect();
                    *entry = project_eval(shrunk);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite objectives"));
    let (x, f) = simplex.swap_remove(0);
    OptimizeResult {
        x,
        objective: f,
        iterations,
        evaluations: counting.count(),
        gradient_evaluations: 0,
        stop,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sphere {
        center: Vec<f64>,
    }
    impl Objective for Sphere {
        fn dim(&self) -> usize {
            self.center.len()
        }
        fn value(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.center)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }
        fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            for ((g, a), b) in grad.iter_mut().zip(x).zip(&self.center) {
                *g = 2.0 * (a - b);
            }
            self.value(x)
        }
    }

    #[test]
    fn finds_interior_minimum() {
        let obj = Sphere {
            center: vec![0.2, -0.4],
        };
        let bounds = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let r = nelder_mead(&obj, &bounds, &[0.9, 0.9], &NelderMeadOptions::default());
        assert!((r.x[0] - 0.2).abs() < 1e-4, "x = {:?}", r.x);
        assert!((r.x[1] + 0.4).abs() < 1e-4);
        assert_eq!(r.stop, StopReason::SimplexCollapsed);
    }

    #[test]
    fn respects_bounds_for_exterior_minimum() {
        let obj = Sphere { center: vec![5.0] };
        let bounds = Bounds::uniform(1, -1.0, 1.0).unwrap();
        let r = nelder_mead(&obj, &bounds, &[0.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-6, "x = {:?}", r.x);
    }

    #[test]
    fn start_at_upper_bound_builds_valid_simplex() {
        let obj = Sphere {
            center: vec![0.0, 0.0],
        };
        let bounds = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let r = nelder_mead(&obj, &bounds, &[1.0, 1.0], &NelderMeadOptions::default());
        assert!(r.objective < 1e-6);
    }

    #[test]
    fn solves_rosenbrock_eventually() {
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
        let bounds = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = nelder_mead(
            &Rosenbrock,
            &bounds,
            &[-1.0, 1.5],
            &NelderMeadOptions {
                max_iterations: 5000,
                ..Default::default()
            },
        );
        assert!(r.objective < 1e-6, "f = {}", r.objective);
    }

    #[test]
    fn iteration_cap_respected() {
        let obj = Sphere {
            center: vec![0.0; 3],
        };
        let bounds = Bounds::uniform(3, -1.0, 1.0).unwrap();
        let r = nelder_mead(
            &obj,
            &bounds,
            &[1.0, -1.0, 1.0],
            &NelderMeadOptions {
                max_iterations: 5,
                ..Default::default()
            },
        );
        assert!(r.iterations <= 5);
        assert_eq!(r.stop, StopReason::MaxIterations);
    }
}
