//! Finite-difference gradients — the test oracle.
//!
//! The solvers take gradients from [`crate::Objective::value_and_gradient`]
//! (exact, e.g. by a discrete adjoint). These schemes stay as the reference
//! those exact gradients are checked against: `dim` (forward) or `2·dim`
//! (central) objective evaluations per gradient.

use crate::Objective;

/// Relative step used by the default finite-difference schemes.
pub const DEFAULT_RELATIVE_STEP: f64 = 1e-6;

fn step_for(x: f64, relative: f64) -> f64 {
    relative * x.abs().max(1.0)
}

/// Forward finite differences: `∂f/∂xᵢ ≈ (f(x + hᵢeᵢ) − f0)/hᵢ`.
///
/// `f0` must be `f(x)` (callers always have it, and reusing it saves one
/// evaluation per gradient).
///
/// # Panics
///
/// Panics if `grad.len() != x.len()`.
pub fn forward_diff(obj: &dyn Objective, x: &[f64], f0: f64, relative_step: f64, grad: &mut [f64]) {
    assert_eq!(grad.len(), x.len(), "gradient buffer dimension mismatch");
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let h = step_for(x[i], relative_step);
        xp[i] = x[i] + h;
        grad[i] = (obj.value(&xp) - f0) / h;
        xp[i] = x[i];
    }
}

/// Central finite differences: `∂f/∂xᵢ ≈ (f(x+hᵢeᵢ) − f(x−hᵢeᵢ))/(2hᵢ)` —
/// twice the cost of forward differences, one order more accurate.
///
/// # Panics
///
/// Panics if `grad.len() != x.len()`.
pub fn central_diff(obj: &dyn Objective, x: &[f64], relative_step: f64, grad: &mut [f64]) {
    assert_eq!(grad.len(), x.len(), "gradient buffer dimension mismatch");
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let h = step_for(x[i], relative_step);
        xp[i] = x[i] + h;
        let fp = obj.value(&xp);
        xp[i] = x[i] - h;
        let fm = obj.value(&xp);
        xp[i] = x[i];
        grad[i] = (fp - fm) / (2.0 * h);
    }
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
            grad.copy_from_slice(&exact_grad(x));
            self.value(x)
        }
    }

    fn exact_grad(x: &[f64]) -> [f64; 2] {
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
            200.0 * (x[1] - x[0] * x[0]),
        ]
    }

    #[test]
    fn forward_matches_analytic() {
        let x = [0.3, -0.7];
        let f0 = Rosenbrock.value(&x);
        let mut g = [0.0; 2];
        forward_diff(&Rosenbrock, &x, f0, DEFAULT_RELATIVE_STEP, &mut g);
        let e = exact_grad(&x);
        for i in 0..2 {
            assert!((g[i] - e[i]).abs() / e[i].abs().max(1.0) < 1e-4, "g[{i}]");
        }
    }

    #[test]
    fn central_is_more_accurate_than_forward() {
        let x = [1.2, 0.9];
        let f0 = Rosenbrock.value(&x);
        let e = exact_grad(&x);
        let mut gf = [0.0; 2];
        let mut gc = [0.0; 2];
        forward_diff(&Rosenbrock, &x, f0, 1e-5, &mut gf);
        central_diff(&Rosenbrock, &x, 1e-5, &mut gc);
        for i in 0..2 {
            let ef = (gf[i] - e[i]).abs();
            let ec = (gc[i] - e[i]).abs();
            assert!(
                ec <= ef + 1e-12,
                "component {i}: central {ec} vs forward {ef}"
            );
        }
    }
}
