//! Problem contracts: objectives and constrained objectives.

use std::cell::Cell;

/// A differentiable objective function over `R^dim`.
///
/// The solvers in this crate are first-order: they ask for the gradient at
/// every accepted iterate through [`Objective::value_and_gradient`] and use
/// plain [`Objective::value`] calls for line-search trials. Objectives that
/// integrate a boundary-value problem should compute the gradient by an
/// adjoint (one extra transposed solve) rather than by finite differences;
/// [`crate::gradient`] keeps finite differences as a test oracle.
pub trait Objective {
    /// Number of decision variables.
    fn dim(&self) -> usize;

    /// Objective value at `x` (`x.len() == self.dim()`).
    fn value(&self, x: &[f64]) -> f64;

    /// Objective value and gradient at `x` in one evaluation: writes `∇f(x)`
    /// into `grad` (`grad.len() == self.dim()`) and returns `f(x)`, bit for
    /// bit equal to [`Objective::value`] at the same point.
    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64;
}

/// Values and first derivatives of a [`ConstrainedObjective`] at one point.
///
/// Each Jacobian holds one row per constraint component, and each row has
/// `dim` entries (the constraint's gradient).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstrainedGradient {
    /// `f(x)`.
    pub objective: f64,
    /// `∇f(x)`.
    pub gradient: Vec<f64>,
    /// `g(x)`.
    pub inequality: Vec<f64>,
    /// `∇gᵢ(x)` for each inequality component.
    pub inequality_jacobian: Vec<Vec<f64>>,
    /// `h(x)`.
    pub equality: Vec<f64>,
    /// `∇hⱼ(x)` for each equality component.
    pub equality_jacobian: Vec<Vec<f64>>,
}

/// A constrained objective: `min f(x)` subject to `g(x) ≤ 0`, `h(x) = 0`
/// (component-wise) and box bounds handled separately by the inner solver.
pub trait ConstrainedObjective {
    /// Number of decision variables.
    fn dim(&self) -> usize;

    /// Objective value at `x`.
    fn objective(&self, x: &[f64]) -> f64;

    /// Inequality constraint values `g(x)` (feasible when every component is
    /// ≤ 0). The default is unconstrained.
    fn inequality(&self, _x: &[f64]) -> Vec<f64> {
        Vec::new()
    }

    /// Equality constraint values `h(x)` (feasible when every component is
    /// 0). The default is unconstrained.
    fn equality(&self, _x: &[f64]) -> Vec<f64> {
        Vec::new()
    }

    /// `(g(x), h(x))` together; override when the two share work (the
    /// default evaluates them separately).
    fn constraints(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (self.inequality(x), self.equality(x))
    }

    /// Objective, constraints and all their first derivatives at `x` in one
    /// evaluation. The values must equal [`ConstrainedObjective::objective`]
    /// and [`ConstrainedObjective::constraints`] bit for bit.
    fn value_and_gradient(&self, x: &[f64]) -> ConstrainedGradient;
}

/// Wraps an [`Objective`] and counts its evaluations.
///
/// Every solver in this crate reports its counts through this type so that
/// the expensive-BVP use case can be budgeted: each call of either method
/// is one *evaluation* (one forward solve), and each
/// [`Objective::value_and_gradient`] call is also one *gradient* (one
/// adjoint solve).
pub struct CountingObjective<'a, O: Objective + ?Sized> {
    inner: &'a O,
    count: Cell<usize>,
    gradients: Cell<usize>,
}

impl<'a, O: Objective + ?Sized> CountingObjective<'a, O> {
    /// Wraps an objective.
    pub fn new(inner: &'a O) -> Self {
        Self {
            inner,
            count: Cell::new(0),
            gradients: Cell::new(0),
        }
    }

    /// Evaluations made so far (value and value-and-gradient calls).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count.get()
    }

    /// Gradient evaluations made so far.
    #[must_use]
    pub fn gradients(&self) -> usize {
        self.gradients.get()
    }
}

impl<O: Objective + ?Sized> Objective for CountingObjective<'_, O> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.count.set(self.count.get() + 1);
        self.inner.value(x)
    }

    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.count.set(self.count.get() + 1);
        self.gradients.set(self.gradients.get() + 1);
        self.inner.value_and_gradient(x, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sphere;
    impl Objective for Sphere {
        fn dim(&self) -> usize {
            3
        }
        fn value(&self, x: &[f64]) -> f64 {
            x.iter().map(|v| v * v).sum()
        }
        fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            for (g, v) in grad.iter_mut().zip(x) {
                *g = 2.0 * v;
            }
            self.value(x)
        }
    }

    #[test]
    fn counting_wrapper_counts() {
        let c = CountingObjective::new(&Sphere);
        assert_eq!(c.count(), 0);
        let _ = c.value(&[1.0, 2.0, 3.0]);
        let _ = c.value(&[0.0, 0.0, 0.0]);
        assert_eq!(c.count(), 2);
        let mut g = [0.0; 3];
        let _ = c.value_and_gradient(&[1.0, 2.0, 3.0], &mut g);
        assert_eq!((c.count(), c.gradients()), (3, 1));
        assert_eq!(g, [2.0, 4.0, 6.0]);
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn default_constraints_are_empty() {
        struct Free;
        impl ConstrainedObjective for Free {
            fn dim(&self) -> usize {
                1
            }
            fn objective(&self, x: &[f64]) -> f64 {
                x[0]
            }
            fn value_and_gradient(&self, x: &[f64]) -> ConstrainedGradient {
                ConstrainedGradient {
                    objective: x[0],
                    gradient: vec![1.0],
                    ..ConstrainedGradient::default()
                }
            }
        }
        assert!(Free.inequality(&[0.0]).is_empty());
        assert!(Free.equality(&[0.0]).is_empty());
        assert_eq!(Free.constraints(&[0.0]), (Vec::new(), Vec::new()));
    }
}
