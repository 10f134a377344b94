//! The optimal channel-modulation design flow (paper §IV).
//!
//! Decision variables are the per-segment channel widths of every column,
//! normalized to `[0, 1]` over the manufacturable range `[w_min, w_max]`
//! (normalization keeps the box geometry and the quasi-Newton scaling
//! well-conditioned; raw widths are ~1e-5 m). Each objective evaluation
//! applies the candidate widths, solves the §III boundary-value problem and
//! integrates the paper's Eq. (7) cost; each gradient adds one transposed
//! solve of the same collocation system (the discrete adjoint,
//! [`Model::cost_gradient_from`]), and a gradient at a point just solved
//! (the line search's accepted trial) reuses that solve's factors instead of
//! solving again. Pressure bounds (Eq. 9) and the
//! equal-pressure coupling (Eq. 10) enter as augmented-Lagrangian
//! constraints; pressure drops and their width derivatives are closed-form
//! integrals, so the constraint side costs nothing compared to the thermal
//! solves.

use crate::{CoreError, Result};
use liquamod_optimal_control::{
    augmented_lagrangian, augmented_lagrangian_warm, nelder_mead, projected_gradient,
    AugLagOptions, AugLagResult, AugLagWarmStart, Bounds, ConstrainedGradient,
    ConstrainedObjective, LbfgsOptions, NelderMeadOptions, ProjGradOptions,
};
pub use liquamod_thermal_model::ObjectiveKind;
use liquamod_thermal_model::{
    Model, Solution, SolveOptions, SolveWorkspace, ThermalModelError, WidthProfile,
};
use liquamod_units::{Length, Pressure};
use std::cell::{Cell, RefCell};

/// Which NLP solver drives the (inner) minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Projected L-BFGS inside an augmented Lagrangian (default).
    #[default]
    LbfgsB,
    /// Projected gradient descent (ablation baseline; pressure constraints
    /// are ignored apart from the width box, so use only for studies).
    ProjGrad,
    /// Nelder–Mead simplex (derivative-free ablation baseline; pressure
    /// constraints are ignored apart from the width box).
    NelderMead,
}

/// Configuration of one design-flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationConfig {
    /// Piecewise-constant segments per column (the control resolution `K`).
    pub segments: usize,
    /// Base mesh intervals for each BVP solve.
    pub mesh_intervals: usize,
    /// Cost integral to minimize.
    pub objective: ObjectiveKind,
    /// Enforce the paper's Eq. (10) equal-pressure coupling across columns.
    pub equal_pressure: bool,
    /// NLP solver choice.
    pub solver: SolverKind,
    /// Outer/inner constrained-solver options.
    pub auglag: AugLagOptions,
    /// Inner-iteration cap for *resumed* solves ([`optimize_resumed`] with
    /// dual state): a resumed epoch starts at the previous optimum with
    /// converged multipliers and needs only a short refinement, which the
    /// cap bounds to a fraction of a cold solve (each iteration is one
    /// adjoint gradient plus its line-search trials). `None` keeps the
    /// full `auglag.inner.max_iterations` budget for resumed solves too.
    /// Cold solves (and plain [`optimize_warm`]) are never capped by this.
    pub resume_inner_iterations: Option<usize>,
    /// Outer-iteration cap for *resumed* solves, the dual-side twin of
    /// `resume_inner_iterations`. With warm multipliers each outer
    /// iteration is one capped primal solve plus one multiplier update, so
    /// `Some(1)` turns every resumed epoch into a single real-time-style
    /// correction step; the multiplier updates still accumulate *across*
    /// epochs because the controller carries the dual state forward, and
    /// the adopt-only-if-not-worse rule discards any correction that
    /// converged too little to help. `None` keeps the full
    /// `auglag.max_outer_iterations` budget. Cold solves are never capped.
    pub resume_outer_iterations: Option<usize>,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        Self {
            segments: 16,
            mesh_intervals: 384,
            objective: ObjectiveKind::default(),
            equal_pressure: true,
            solver: SolverKind::default(),
            auglag: AugLagOptions {
                max_outer_iterations: 8,
                violation_tol: 1e-4,
                initial_penalty: 10.0,
                inner: LbfgsOptions {
                    max_iterations: 60,
                    stationarity_tol: 1e-7,
                    improvement_tol: 1e-8,
                    ..LbfgsOptions::default()
                },
                ..AugLagOptions::default()
            },
            resume_inner_iterations: Some(16),
            resume_outer_iterations: Some(1),
        }
    }
}

impl OptimizationConfig {
    /// A coarse, fast configuration for tests and doc examples: fewer
    /// segments, a coarse mesh and tight iteration caps. Accuracy is
    /// enough to demonstrate every qualitative result.
    pub fn fast() -> Self {
        Self {
            segments: 8,
            mesh_intervals: 96,
            auglag: AugLagOptions {
                max_outer_iterations: 4,
                violation_tol: 1e-3,
                initial_penalty: 10.0,
                inner: LbfgsOptions {
                    max_iterations: 25,
                    stationarity_tol: 1e-6,
                    improvement_tol: 1e-7,
                    ..LbfgsOptions::default()
                },
                ..AugLagOptions::default()
            },
            ..Self::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.segments == 0 {
            return Err(CoreError::InvalidConfig {
                what: "segments must be ≥ 1".into(),
            });
        }
        if self.mesh_intervals == 0 {
            return Err(CoreError::InvalidConfig {
                what: "mesh_intervals must be ≥ 1".into(),
            });
        }
        Ok(())
    }
}

/// Outcome of an optimal channel-modulation run.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// The model with the optimal width profiles applied.
    pub model: Model,
    /// Thermal solution at the optimum.
    pub solution: Solution,
    /// Optimal per-column width profiles.
    pub widths: Vec<WidthProfile>,
    /// The optimum in the solver's normalized coordinates (per-segment
    /// widths mapped to `[0, 1]` over `[w_min, w_max]`); feed it to
    /// [`optimize_warm`] to warm-start a neighbouring scenario.
    pub x_opt: Vec<f64>,
    /// Per-column (per physical channel) pressure drops at the optimum.
    pub pressure_drops: Vec<Pressure>,
    /// Final objective value.
    pub objective: f64,
    /// Objective evaluations the optimizer made (values and gradients,
    /// line-search trials included).
    pub evaluations: usize,
    /// How many of those evaluations also solved the adjoint for a gradient.
    pub adjoint_solves: usize,
    /// Forward BVP solves the run made, the cost normalization and the
    /// closing solution included. Fewer than `evaluations`: a point already
    /// solved as one of the last two is not solved again.
    pub forward_solves: usize,
    /// Whether pressure constraints were met (within the solver tolerance).
    pub feasible: bool,
}

/// Resumable optimizer state linking successive design solves.
///
/// The receding-horizon transient loop re-optimizes the same width problem
/// every reallocation epoch under a mildly drifting load. Carrying the
/// converged primal point *and* the augmented-Lagrangian dual state
/// (multipliers + penalty) from the previous epoch lets the next solve skip
/// the penalty continuation entirely: the first inner L-BFGS solve starts
/// at (or near) the stationary point of the *final* inner problem, which in
/// practice collapses a warm epoch from thousands of BVP evaluations to a
/// few hundred. Obtain one from [`optimize_resumed`] and feed it back to the
/// next call.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignWarmStart {
    /// Converged point in the solver's normalized `[0, 1]` coordinates.
    pub x: Vec<f64>,
    /// Inequality (pressure-cap) multiplier estimates `ν`.
    pub inequality_multipliers: Vec<f64>,
    /// Equality (equal-pressure coupling) multiplier estimates `λ`.
    pub equality_multipliers: Vec<f64>,
    /// Penalty parameter `μ` the previous solve finished at.
    pub penalty: f64,
}

/// Per-column pressure drops of `model` in pascals.
fn drops_of(model: &Model) -> Vec<f64> {
    model
        .pressure_drops()
        .expect("normalized widths are valid ducts")
        .iter()
        .map(|dp| dp.as_pascals())
        .collect()
}

/// One solved point of the width problem: the scratch model with that
/// point's widths applied, the workspace holding its BVP solve (mesh, banded
/// factors, states) and the cost. The adjoint gradient and the solution at
/// the point are read back from the workspace without solving again.
struct Slot {
    /// The point's coordinates, bit for bit (empty until the first solve).
    key: Vec<u64>,
    model: Model,
    ws: SolveWorkspace,
    /// The `config.objective` cost integral, or the solve's error.
    cost: liquamod_thermal_model::Result<f64>,
}

impl Slot {
    fn new(model: &Model) -> Self {
        Self {
            key: Vec::new(),
            model: model.clone(),
            ws: SolveWorkspace::new(),
            cost: Err(ThermalModelError::StaleWorkspace),
        }
    }

    fn holds(&self, x: &[f64]) -> bool {
        self.key.len() == x.len() && self.key.iter().zip(x).all(|(k, v)| *k == v.to_bits())
    }
}

struct WidthProblem<'a> {
    config: &'a OptimizationConfig,
    n_cols: usize,
    w_min: f64,
    w_max: f64,
    dp_max: f64,
    solve: SolveOptions,
    /// Objective normalization: the cost at the starting point. The raw
    /// Eq. (7) integral is O(1e4–1e6) while the normalized pressure
    /// constraints are O(1); without this scaling the augmented-Lagrangian
    /// penalties would be invisible next to the objective.
    j_scale: f64,
    /// The last two solved points, newest first. The line search's accepted
    /// point is one of its last two trials (forward-tracking ends on a
    /// rejected grow trial), so the gradient there, the outer loop's restart
    /// and the closing solution are all read from a slot instead of solving
    /// again.
    slots: RefCell<[Slot; 2]>,
    /// The model the closed-form pressure drops are computed on. It is
    /// never a slot's model, whose widths must stay those of its factors.
    pressure_model: RefCell<Model>,
    /// BVP solves made so far.
    forward_solves: Cell<usize>,
}

impl<'a> WidthProblem<'a> {
    fn new(model: &Model, config: &'a OptimizationConfig) -> Self {
        let params = model.params();
        Self {
            config,
            n_cols: model.columns().len(),
            w_min: params.w_min.si(),
            w_max: params.w_max.si(),
            dp_max: params.dp_max.si(),
            solve: SolveOptions::with_mesh_intervals(config.mesh_intervals),
            j_scale: 1.0,
            slots: RefCell::new([Slot::new(model), Slot::new(model)]),
            pressure_model: RefCell::new(model.clone()),
            forward_solves: Cell::new(0),
        }
    }

    fn widths_from_x(&self, x: &[f64]) -> Vec<WidthProfile> {
        let k = self.config.segments;
        (0..self.n_cols)
            .map(|c| {
                let widths = x[c * k..(c + 1) * k]
                    .iter()
                    .map(|t| {
                        // Deliberately NOT clamped to [0, 1]: the cost stays
                        // smooth across the box faces, so gradients at active
                        // bounds are two-sided and a finite-difference oracle
                        // can probe just outside (the optimizer's box keeps
                        // actual iterates inside). The wide guard only
                        // protects duct validity.
                        let t = t.clamp(-0.1, 1.1);
                        Length::from_meters(self.w_min + t * (self.w_max - self.w_min))
                    })
                    .collect();
                WidthProfile::piecewise_constant(widths)
            })
            .collect()
    }

    /// `∂w/∂x` of one normalized coordinate (zero outside the guard band).
    fn width_scale(&self, t: f64) -> f64 {
        if (-0.1..=1.1).contains(&t) {
            self.w_max - self.w_min
        } else {
            0.0
        }
    }

    fn apply(&self, model: &mut Model, x: &[f64]) {
        for (c, w) in self.widths_from_x(x).into_iter().enumerate() {
            model
                .set_width_profile(c, w)
                .expect("normalized widths stay inside (0, pitch)");
        }
    }

    /// Runs `f` on the slot holding `x`, first solving `x` into the older
    /// slot when neither holds it.
    fn with_solved<R>(&self, x: &[f64], f: impl FnOnce(&mut Slot) -> R) -> R {
        let mut slots = self.slots.borrow_mut();
        if let Some(slot) = slots.iter_mut().find(|slot| slot.holds(x)) {
            return f(slot);
        }
        slots.swap(0, 1);
        let slot = &mut slots[0];
        self.apply(&mut slot.model, x);
        slot.key.clear();
        slot.key.extend(x.iter().map(|v| v.to_bits()));
        // Cost-only solve: skips the Solution profile materialization while
        // producing bit-identical integrals (see `Model::solve_costs_with`).
        slot.cost = slot
            .model
            .solve_costs_with(&self.solve, &mut slot.ws)
            .map(|costs| costs.get(self.config.objective));
        self.forward_solves.set(self.forward_solves.get() + 1);
        f(slot)
    }

    /// The model at `x` and its solution, unpacked from the slot's solve.
    fn solved_design(&self, x: &[f64]) -> Result<(Model, Solution)> {
        self.with_solved(x, |slot| {
            slot.cost.clone()?;
            let solution = slot.model.solution_from(&slot.ws)?;
            Ok((slot.model.clone(), solution))
        })
    }

    fn pressure_drops(&self, x: &[f64]) -> Vec<f64> {
        let mut model = self.pressure_model.borrow_mut();
        self.apply(&mut model, x);
        drops_of(&model)
    }

    /// The drops at `x` and `∂ΔP_c/∂x` for each column's own coordinates
    /// (flat, in the layout of `x`).
    fn pressure_drops_with_gradient(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut model = self.pressure_model.borrow_mut();
        self.apply(&mut model, x);
        let mut gradient = Vec::new();
        model
            .pressure_drop_gradient(&mut gradient)
            .expect("normalized widths are valid ducts");
        let drops = drops_of(&model);
        for (g, t) in gradient.iter_mut().zip(x) {
            *g *= self.width_scale(*t);
        }
        (drops, gradient)
    }

    /// The Eq. (9) inequalities and Eq. (10) equalities from the drops.
    fn pressure_constraints(&self, drops: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // ΔPᵢ/ΔP_max − 1 ≤ 0 (paper Eq. 9).
        let g = drops.iter().map(|dp| dp / self.dp_max - 1.0).collect();
        // (ΔPᵢ − mean)/ΔP_max = 0 (paper Eq. 10), only with several columns.
        let h = if self.couples_pressures() {
            let mean = drops.iter().sum::<f64>() / drops.len() as f64;
            drops.iter().map(|dp| (dp - mean) / self.dp_max).collect()
        } else {
            Vec::new()
        };
        (g, h)
    }

    /// Jacobian rows of [`WidthProblem::pressure_constraints`], given
    /// `∂ΔP_c/∂x` from [`WidthProblem::pressure_drops_with_gradient`].
    fn pressure_jacobians(&self, d_drops: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let k = self.config.segments;
        // Column c's drop moves only with its own k coordinates.
        let g: Vec<Vec<f64>> = (0..self.n_cols)
            .map(|c| {
                let mut row = vec![0.0; d_drops.len()];
                for i in c * k..(c + 1) * k {
                    row[i] = d_drops[i] / self.dp_max;
                }
                row
            })
            .collect();
        let h = if self.couples_pressures() {
            // ∇(ΔPᵢ − mean)/ΔP_max: the own row minus the mean of the rows.
            let n = self.n_cols as f64;
            let mean: Vec<f64> = (0..d_drops.len()).map(|i| g[i / k][i] / n).collect();
            g.iter()
                .map(|row| row.iter().zip(&mean).map(|(r, m)| r - m).collect())
                .collect()
        } else {
            Vec::new()
        };
        (g, h)
    }

    fn couples_pressures(&self) -> bool {
        self.config.equal_pressure && self.n_cols >= 2
    }

    fn raw_objective(&self, x: &[f64]) -> f64 {
        // Infinite cost steers the line search away from pathological
        // candidates instead of aborting the whole run.
        self.with_solved(x, |slot| *slot.cost.as_ref().unwrap_or(&f64::INFINITY))
    }

    /// [`WidthProblem::raw_objective`] and its gradient in `x` coordinates,
    /// by the discrete adjoint of the solve the slot holding `x` keeps (one
    /// transposed back-substitution; a forward solve only when `x` is new).
    fn raw_objective_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let mut width_gradient = Vec::with_capacity(x.len());
        let cost = self.with_solved(x, |slot| {
            let cost = slot.cost.clone()?;
            slot.model.cost_gradient_from(
                self.config.objective,
                &mut slot.ws,
                &mut width_gradient,
            )?;
            Ok::<_, ThermalModelError>(cost)
        });
        match cost {
            Ok(cost) => {
                for ((g, dw), t) in grad.iter_mut().zip(&width_gradient).zip(x) {
                    *g = dw * self.width_scale(*t);
                }
                cost
            }
            Err(_) => {
                grad.fill(0.0);
                f64::INFINITY
            }
        }
    }

    /// The scaled objective and its gradient (the unconstrained solvers'
    /// view of the problem).
    fn objective_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let f = self.raw_objective_and_gradient(x, grad) / self.j_scale;
        grad.iter_mut().for_each(|g| *g /= self.j_scale);
        f
    }
}

impl ConstrainedObjective for WidthProblem<'_> {
    fn dim(&self) -> usize {
        self.n_cols * self.config.segments
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.raw_objective(x) / self.j_scale
    }

    fn inequality(&self, x: &[f64]) -> Vec<f64> {
        self.constraints(x).0
    }

    fn equality(&self, x: &[f64]) -> Vec<f64> {
        self.constraints(x).1
    }

    fn constraints(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.pressure_constraints(&self.pressure_drops(x))
    }

    fn value_and_gradient(&self, x: &[f64]) -> ConstrainedGradient {
        let mut gradient = vec![0.0; x.len()];
        let objective = self.objective_and_gradient(x, &mut gradient);
        let (drops, d_drops) = self.pressure_drops_with_gradient(x);
        let (inequality, equality) = self.pressure_constraints(&drops);
        let (inequality_jacobian, equality_jacobian) = self.pressure_jacobians(&d_drops);
        ConstrainedGradient {
            objective,
            gradient,
            inequality,
            inequality_jacobian,
            equality,
            equality_jacobian,
        }
    }
}

/// Runs the optimal channel-modulation flow on `model` (whose current width
/// profiles are ignored; the optimizer starts from uniformly maximal
/// widths, the paper's common baseline).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for empty segment/mesh settings, and
/// propagated model errors if the optimized design cannot be re-solved.
pub fn optimize(model: &Model, config: &OptimizationConfig) -> Result<DesignOutcome> {
    optimize_warm(model, config, None)
}

/// [`optimize`] with an optional warm start.
///
/// `start` is a point in the solver's normalized coordinates — typically the
/// [`DesignOutcome::x_opt`] of a neighbouring scenario (the sweep engine
/// chains variants along its flow-scale axis this way). It is projected into
/// the `[0, 1]` box before use. The objective normalization stays anchored
/// at the uniformly-maximal-width point regardless of the start, so a
/// warm-started run minimizes exactly the same scaled problem as a cold one
/// and converges to the same optimum (within the solver's tolerances) in
/// fewer evaluations.
///
/// # Errors
///
/// Same as [`optimize`]; additionally rejects a `start` of the wrong
/// dimension.
pub fn optimize_warm(
    model: &Model,
    config: &OptimizationConfig,
    start: Option<&[f64]>,
) -> Result<DesignOutcome> {
    optimize_inner(model, config, start, None).map(|(outcome, _)| outcome)
}

/// [`optimize_warm`] resuming both the primal point *and* the
/// augmented-Lagrangian dual state of a previous solve.
///
/// Passing `warm = None` is identical to a cold [`optimize`]. With a
/// [`DesignWarmStart`] from a previous epoch, the solve seeds the start
/// point from `warm.x` (projected, pressure-feasibility-repaired as in
/// [`optimize_warm`]) and the multipliers/penalty from the stored dual
/// state. Dual seeding only applies to the default [`SolverKind::LbfgsB`]
/// path; the ablation solvers use `warm.x` alone. Returns the outcome plus
/// the warm start for the *next* solve.
///
/// # Errors
///
/// Same as [`optimize_warm`].
pub fn optimize_resumed(
    model: &Model,
    config: &OptimizationConfig,
    warm: Option<&DesignWarmStart>,
) -> Result<(DesignOutcome, DesignWarmStart)> {
    let dual = warm.map(|w| AugLagWarmStart {
        inequality_multipliers: w.inequality_multipliers.clone(),
        equality_multipliers: w.equality_multipliers.clone(),
        penalty: w.penalty,
    });
    optimize_inner(model, config, warm.map(|w| w.x.as_slice()), dual.as_ref())
}

fn optimize_inner(
    model: &Model,
    config: &OptimizationConfig,
    start: Option<&[f64]>,
    dual: Option<&AugLagWarmStart>,
) -> Result<(DesignOutcome, DesignWarmStart)> {
    config.validate()?;
    let mut problem = WidthProblem::new(model, config);
    let dim = ConstrainedObjective::dim(&problem);
    if let Some(s) = start {
        if s.len() != dim {
            return Err(CoreError::InvalidConfig {
                what: format!("warm start has dimension {}, problem needs {dim}", s.len()),
            });
        }
    }
    let bounds = Bounds::uniform(dim, 0.0, 1.0)?;
    // The normalization anchor is always the uniformly-w_max point (the
    // paper's baseline), even when warm-starting elsewhere.
    let anchor = vec![1.0; dim];
    let j0 = problem.raw_objective(&anchor);
    if !(j0.is_finite() && j0 > 0.0) {
        return Err(CoreError::InvalidConfig {
            what: format!("cost at the starting point is unusable ({j0})"),
        });
    }
    problem.j_scale = j0;
    let x0 = match start {
        Some(s) => {
            // Project into the [0, 1] box (identity for in-box starts, so
            // sweep warm-starting is unaffected).
            let boxed: Vec<f64> = s.iter().map(|v| v.clamp(0.0, 1.0)).collect();
            feasible_warm_start(&problem, &boxed)
        }
        None => anchor,
    };

    let (x_opt, objective, evaluations, adjoint_solves, feasible, next_dual) = match config.solver {
        SolverKind::LbfgsB => {
            let mut auglag = config.auglag.clone();
            if dual.is_some() {
                if let Some(cap) = config.resume_inner_iterations {
                    auglag.inner.max_iterations = auglag.inner.max_iterations.min(cap);
                }
                if let Some(cap) = config.resume_outer_iterations {
                    auglag.max_outer_iterations = auglag.max_outer_iterations.min(cap);
                }
            }
            let AugLagResult {
                x,
                objective,
                evaluations,
                gradient_evaluations,
                feasible,
                inequality_multipliers,
                equality_multipliers,
                penalty,
                ..
            } = augmented_lagrangian_warm(&problem, &bounds, &x0, &auglag, dual);
            let next = AugLagWarmStart {
                inequality_multipliers,
                equality_multipliers,
                penalty,
            };
            (
                x,
                objective,
                evaluations,
                gradient_evaluations,
                feasible,
                next,
            )
        }
        SolverKind::ProjGrad => {
            let opts = ProjGradOptions {
                max_iterations: config.auglag.inner.max_iterations,
                ..ProjGradOptions::default()
            };
            let r = projected_gradient(&ObjOnly(&problem), &bounds, &x0, &opts);
            let next = AugLagWarmStart {
                inequality_multipliers: Vec::new(),
                equality_multipliers: Vec::new(),
                penalty: config.auglag.initial_penalty,
            };
            (
                r.x,
                r.objective,
                r.evaluations,
                r.gradient_evaluations,
                true,
                next,
            )
        }
        SolverKind::NelderMead => {
            let opts = NelderMeadOptions {
                max_iterations: 40 * dim,
                ..NelderMeadOptions::default()
            };
            let r = nelder_mead(&ObjOnly(&problem), &bounds, &x0, &opts);
            let next = AugLagWarmStart {
                inequality_multipliers: Vec::new(),
                equality_multipliers: Vec::new(),
                penalty: config.auglag.initial_penalty,
            };
            (
                r.x,
                r.objective,
                r.evaluations,
                r.gradient_evaluations,
                true,
                next,
            )
        }
    };

    let widths = problem.widths_from_x(&x_opt);
    let (optimized, solution) = problem.solved_design(&x_opt)?;
    let pressure_drops = optimized.pressure_drops()?;
    // Report the raw Eq. (7) cost, not the normalized solver value.
    let objective = objective * problem.j_scale;
    let next_warm = DesignWarmStart {
        x: x_opt.clone(),
        inequality_multipliers: next_dual.inequality_multipliers,
        equality_multipliers: next_dual.equality_multipliers,
        penalty: next_dual.penalty,
    };
    let outcome = DesignOutcome {
        model: optimized,
        solution,
        widths,
        x_opt,
        pressure_drops,
        objective,
        evaluations,
        adjoint_solves,
        forward_solves: problem.forward_solves.get(),
        feasible,
    };
    Ok((outcome, next_warm))
}

/// Restores pressure feasibility of a warm start without BVP solves.
///
/// A warm start inherited from a neighbouring scenario (e.g. a lower coolant
/// flow) can violate the `ΔP ≤ ΔP_max` caps of the new scenario, and the
/// augmented-Lagrangian method pays dearly to climb back into the feasible
/// region from outside. Pressure drops are closed-form integrals, so
/// feasibility can be checked and repaired for free: bisect the blend
/// `x(α) = (1−α)·x_warm + α·1` toward the uniformly-maximal-width point
/// (the widest, lowest-pressure design) and return the least-blended point
/// whose inequality constraints all hold. Already-feasible warm starts are
/// returned unchanged; if even `x(1)` is infeasible (`ΔP_max` unattainable),
/// the blend falls back to the anchor and the solver reports infeasibility
/// as it would from a cold start.
fn feasible_warm_start(problem: &WidthProblem<'_>, start: &[f64]) -> Vec<f64> {
    let feasible = |x: &[f64]| problem.inequality(x).iter().all(|&g| g <= 0.0);
    let blend = |alpha: f64| -> Vec<f64> { start.iter().map(|&s| s + alpha * (1.0 - s)).collect() };
    if feasible(start) {
        return start.to_vec();
    }
    let mut lo = 0.0; // infeasible
    let mut hi = 1.0; // feasible (or best effort)
    if !feasible(&blend(hi)) {
        return blend(hi);
    }
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        if feasible(&blend(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    blend(hi)
}

/// Adapter presenting only the objective of a [`ConstrainedObjective`] to
/// the unconstrained solvers (ablation paths).
struct ObjOnly<'a>(&'a WidthProblem<'a>);

impl liquamod_optimal_control::Objective for ObjOnly<'_> {
    fn dim(&self) -> usize {
        ConstrainedObjective::dim(self.0)
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.0.objective(x)
    }
    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.0.objective_and_gradient(x, grad)
    }
}

/// The §IV-B dual problem over the same widths: minimize the mean pressure
/// drop subject to a bound on the thermal cost (see
/// [`optimize_min_pumping`]).
struct MinPumping<'a> {
    inner: &'a WidthProblem<'a>,
    cost_bound: f64,
}
impl ConstrainedObjective for MinPumping<'_> {
    fn dim(&self) -> usize {
        ConstrainedObjective::dim(self.inner)
    }
    fn objective(&self, x: &[f64]) -> f64 {
        let drops = self.inner.pressure_drops(x);
        drops.iter().sum::<f64>() / drops.len() as f64 / self.inner.dp_max
    }
    fn inequality(&self, x: &[f64]) -> Vec<f64> {
        self.constraints(x).0
    }
    fn equality(&self, x: &[f64]) -> Vec<f64> {
        self.inner.equality(x)
    }
    fn constraints(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Thermal bound first, then the per-column pressure caps.
        let mut g = vec![self.inner.raw_objective(x) / self.cost_bound - 1.0];
        let (caps, h) = self.inner.constraints(x);
        g.extend(caps);
        (g, h)
    }
    fn value_and_gradient(&self, x: &[f64]) -> ConstrainedGradient {
        let mut thermal_row = vec![0.0; x.len()];
        let cost = self.inner.raw_objective_and_gradient(x, &mut thermal_row);
        thermal_row.iter_mut().for_each(|g| *g /= self.cost_bound);
        let (drops, d_drops) = self.inner.pressure_drops_with_gradient(x);
        let (caps, equality) = self.inner.pressure_constraints(&drops);
        let (cap_rows, equality_jacobian) = self.inner.pressure_jacobians(&d_drops);
        // Mean drop over ΔP_max: each column's coordinates move only its
        // own drop.
        let norm = drops.len() as f64 * self.inner.dp_max;
        let gradient = d_drops.iter().map(|d| d / norm).collect();
        let mut inequality = vec![cost / self.cost_bound - 1.0];
        inequality.extend(caps);
        let mut inequality_jacobian = vec![thermal_row];
        inequality_jacobian.extend(cap_rows);
        ConstrainedGradient {
            objective: drops.iter().sum::<f64>() / drops.len() as f64 / self.inner.dp_max,
            gradient,
            inequality,
            inequality_jacobian,
            equality,
            equality_jacobian,
        }
    }
}

/// The paper's §IV-B dual formulation: minimize the pumping effort with an
/// upper bound on the thermal cost. ("Note that the optimal design problem
/// can alternatively be stated as minimizing the pumping effort, with an
/// upper bound for the temperature gradient.")
///
/// The objective is the mean per-channel pressure drop normalized by
/// `ΔP_max`; constraints are `J(x) ≤ cost_bound` (thermal) plus the usual
/// `ΔPᵢ ≤ ΔP_max` and optional equal-pressure coupling.
///
/// # Errors
///
/// Same as [`optimize`]; additionally rejects a non-positive `cost_bound`.
pub fn optimize_min_pumping(
    model: &Model,
    config: &OptimizationConfig,
    cost_bound: f64,
) -> Result<DesignOutcome> {
    config.validate()?;
    if !(cost_bound.is_finite() && cost_bound > 0.0) {
        return Err(CoreError::InvalidConfig {
            what: format!("cost_bound must be positive, got {cost_bound}"),
        });
    }
    let mut thermal = WidthProblem::new(model, config);
    let dim = ConstrainedObjective::dim(&thermal);
    let bounds = Bounds::uniform(dim, 0.0, 1.0)?;
    let x0 = vec![1.0; dim];
    let j0 = thermal.raw_objective(&x0);
    if !(j0.is_finite() && j0 > 0.0) {
        return Err(CoreError::InvalidConfig {
            what: format!("cost at the starting point is unusable ({j0})"),
        });
    }
    thermal.j_scale = j0;

    let dual = MinPumping {
        inner: &thermal,
        cost_bound,
    };
    let AugLagResult {
        x,
        evaluations,
        gradient_evaluations,
        feasible,
        ..
    } = augmented_lagrangian(&dual, &bounds, &x0, &config.auglag);

    let widths = thermal.widths_from_x(&x);
    let (optimized, solution) = thermal.solved_design(&x)?;
    let pressure_drops = optimized.pressure_drops()?;
    let objective = match config.objective {
        ObjectiveKind::GradientSquared => solution.cost_gradient_squared(),
        ObjectiveKind::HeatflowSquared => solution.cost_heatflow_squared(),
    };
    Ok(DesignOutcome {
        model: optimized,
        solution,
        widths,
        x_opt: x,
        pressure_drops,
        objective,
        evaluations,
        adjoint_solves: gradient_evaluations,
        forward_solves: thermal.forward_solves.get(),
        feasible,
    })
}

/// Convenience used by comparisons and benches: solve `model` with every
/// column forced to one uniform width, reusing `ws` for the solve buffers.
///
/// # Errors
///
/// Propagates model solve errors.
pub(crate) fn solve_uniform(
    model: &Model,
    width: Length,
    mesh_intervals: usize,
    ws: &mut SolveWorkspace,
) -> Result<(Model, Solution)> {
    let mut m = model.clone();
    for c in 0..m.columns().len() {
        m.set_width_profile(c, WidthProfile::uniform(width))?;
    }
    let solution = m.solve_with(&SolveOptions::with_mesh_intervals(mesh_intervals), ws)?;
    Ok((m, solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_thermal_model::{ChannelColumn, HeatProfile, ModelParams};
    use liquamod_units::LinearHeatFlux;

    fn strip(params: &ModelParams) -> Model {
        let col = ChannelColumn::new(WidthProfile::uniform(params.w_max))
            .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
            .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
        Model::new(params.clone(), Length::from_centimeters(1.0), vec![col]).unwrap()
    }

    #[test]
    fn config_validation() {
        let model = strip(&ModelParams::date2012());
        let bad = OptimizationConfig {
            segments: 0,
            ..OptimizationConfig::fast()
        };
        assert!(matches!(
            optimize(&model, &bad),
            Err(CoreError::InvalidConfig { .. })
        ));
        let bad = OptimizationConfig {
            mesh_intervals: 0,
            ..OptimizationConfig::fast()
        };
        assert!(matches!(
            optimize(&model, &bad),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn width_mapping_roundtrip() {
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig {
            segments: 4,
            ..OptimizationConfig::fast()
        };
        let problem = WidthProblem::new(&model, &config);
        let widths = problem.widths_from_x(&[0.0, 1.0, 0.5, 2.0]);
        match &widths[0] {
            WidthProfile::PiecewiseConstant { widths } => {
                assert!((widths[0].as_micrometers() - 10.0).abs() < 1e-9);
                assert!((widths[1].as_micrometers() - 50.0).abs() < 1e-9);
                assert!((widths[2].as_micrometers() - 30.0).abs() < 1e-9);
                // Far out-of-box inputs clamp to the guard band
                // (t = 1.1 → 54 µm), still safely inside the pitch.
                assert!((widths[3].as_micrometers() - 54.0).abs() < 1e-9);
            }
            other => panic!("expected piecewise profile, got {other:?}"),
        }
    }

    #[test]
    fn pressure_constraints_signal_violations() {
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig {
            segments: 2,
            ..OptimizationConfig::fast()
        };
        let problem = WidthProblem::new(&model, &config);
        // All-minimum widths exceed ΔP_max at the calibrated flow → g > 0.
        let g_min = problem.inequality(&[0.0, 0.0]);
        assert!(g_min[0] > 0.0, "min width should violate: g = {}", g_min[0]);
        // All-maximum widths sit well below ΔP_max → g < 0.
        let g_max = problem.inequality(&[1.0, 1.0]);
        assert!(g_max[0] < 0.0, "max width should satisfy: g = {}", g_max[0]);
    }

    /// Central differences of `f` over every coordinate of `x`.
    fn central(x: &[f64], f: impl Fn(&[f64]) -> Vec<f64>) -> Vec<Vec<f64>> {
        let h = 1e-5;
        let mut rows = Vec::new();
        for k in 0..x.len() {
            let (mut xp, mut xm) = (x.to_vec(), x.to_vec());
            xp[k] += h;
            xm[k] -= h;
            let column: Vec<f64> = f(&xp)
                .iter()
                .zip(f(&xm))
                .map(|(p, m)| (p - m) / (2.0 * h))
                .collect();
            rows.push(column);
        }
        // Transpose to one row per output component.
        (0..rows[0].len())
            .map(|i| rows.iter().map(|r| r[i]).collect())
            .collect()
    }

    fn assert_rows_close(exact: &[Vec<f64>], oracle: &[Vec<f64>], what: &str) {
        assert_eq!(exact.len(), oracle.len(), "{what}: row count");
        for (i, (e, o)) in exact.iter().zip(oracle).enumerate() {
            let scale = o.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (k, (a, b)) in e.iter().zip(o).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * scale,
                    "{what} row {i}, x[{k}]: exact {a} vs oracle {b}"
                );
            }
        }
    }

    #[test]
    fn width_problem_gradients_match_central_differences() {
        // Three coupled columns (Eq. 9 caps and Eq. 10 coupling), widths
        // pinned at both box faces, then the §IV-B dual over the same
        // widths: every value bit-equal to the plain path, every gradient
        // and Jacobian row within 1e-6 of the oracle.
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let columns = [40.0, 90.0, 65.0]
            .iter()
            .map(|&q| {
                ChannelColumn::new(WidthProfile::uniform(params.w_max))
                    .with_heat_top(HeatProfile::equal_segments(
                        &[
                            LinearHeatFlux::from_w_per_m(q),
                            LinearHeatFlux::from_w_per_m(140.0 - q),
                        ],
                        d,
                    ))
                    .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(30.0)))
            })
            .collect();
        let model = Model::new(params, d, columns).unwrap();
        let config = OptimizationConfig {
            segments: 3,
            mesh_intervals: 64,
            ..OptimizationConfig::fast()
        };
        let mut problem = WidthProblem::new(&model, &config);
        problem.j_scale = 3.0e4;
        let x = [0.0, 0.37, 1.0, 0.81, 0.12, 0.55, 1.0, 0.0, 0.64];

        let e = problem.value_and_gradient(&x);
        assert_eq!(e.objective.to_bits(), problem.objective(&x).to_bits());
        assert_eq!(
            (e.inequality.clone(), e.equality.clone()),
            problem.constraints(&x)
        );
        assert_eq!(e.equality.len(), 3);
        // A slot's reused model evaluates exactly what a fresh clone of the
        // base model with the same widths does.
        let mut fresh = model.clone();
        for (c, w) in problem.widths_from_x(&x).into_iter().enumerate() {
            fresh.set_width_profile(c, w).unwrap();
        }
        let costs = fresh
            .solve_costs_with(&problem.solve, &mut SolveWorkspace::new())
            .unwrap();
        assert_eq!(
            e.objective.to_bits(),
            (costs.gradient_squared / problem.j_scale).to_bits()
        );
        let drops: Vec<f64> = fresh
            .pressure_drops()
            .unwrap()
            .iter()
            .map(|p| p.as_pascals())
            .collect();
        assert_eq!(
            problem.pressure_constraints(&drops),
            problem.constraints(&x)
        );
        assert_rows_close(
            &[e.gradient],
            &central(&x, |x| vec![problem.objective(x)]),
            "objective",
        );
        assert_rows_close(
            &e.inequality_jacobian,
            &central(&x, |x| problem.inequality(x)),
            "pressure caps",
        );
        assert_rows_close(
            &e.equality_jacobian,
            &central(&x, |x| problem.equality(x)),
            "pressure coupling",
        );

        let dual = MinPumping {
            inner: &problem,
            cost_bound: 2.0e5,
        };
        let e = dual.value_and_gradient(&x);
        assert_eq!(e.objective.to_bits(), dual.objective(&x).to_bits());
        assert_eq!(
            (e.inequality.clone(), e.equality.clone()),
            dual.constraints(&x)
        );
        assert_rows_close(
            &[e.gradient],
            &central(&x, |x| vec![dual.objective(x)]),
            "mean drop",
        );
        assert_rows_close(
            &e.inequality_jacobian,
            &central(&x, |x| dual.inequality(x)),
            "thermal bound and caps",
        );
    }

    #[test]
    fn solved_points_serve_values_gradients_and_solutions_bitwise() {
        // A scripted call sequence through the two slots: every cost and
        // gradient must be bit for bit what a fresh solve on a new workspace
        // gives, and only points that neither slot holds are solved.
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let columns = [50.0, 90.0]
            .iter()
            .map(|&q| {
                ChannelColumn::new(WidthProfile::uniform(params.w_max))
                    .with_heat_top(HeatProfile::equal_segments(
                        &[
                            LinearHeatFlux::from_w_per_m(q),
                            LinearHeatFlux::from_w_per_m(140.0 - q),
                        ],
                        d,
                    ))
                    .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(30.0)))
            })
            .collect();
        let model = Model::new(params, d, columns).unwrap();
        let config = OptimizationConfig {
            segments: 3,
            mesh_intervals: 64,
            ..OptimizationConfig::fast()
        };
        let problem = WidthProblem::new(&model, &config);
        let x1 = [0.2, 0.5, 0.9, 1.0, 0.3, 0.0];
        let x2 = [0.2, 0.5, 0.9, 1.0, 0.3, 1e-9];
        let x3 = [1.0, 0.7, 0.1, 0.4, 0.6, 0.8];
        let failing = [f64::NAN; 6];

        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let fresh = |x: &[f64]| {
            let mut m = model.clone();
            for (c, w) in problem.widths_from_x(x).into_iter().enumerate() {
                m.set_width_profile(c, w).unwrap();
            }
            let kind = config.objective;
            let cost = m
                .solve_costs_with(&problem.solve, &mut SolveWorkspace::new())
                .unwrap()
                .get(kind);
            let mut dw = Vec::new();
            let with_gradient = m
                .solve_cost_gradient_with(&problem.solve, kind, &mut SolveWorkspace::new(), &mut dw)
                .unwrap();
            assert_eq!(cost.to_bits(), with_gradient.to_bits());
            let grad: Vec<f64> = dw
                .iter()
                .zip(x)
                .map(|(g, t)| g * problem.width_scale(*t))
                .collect();
            (cost.to_bits(), bits(&grad))
        };
        let value = |x: &[f64]| problem.raw_objective(x).to_bits();
        let gradient = |x: &[f64]| {
            let mut g = vec![0.0; x.len()];
            let cost = problem.raw_objective_and_gradient(x, &mut g);
            (cost.to_bits(), bits(&g))
        };
        let solves = || problem.forward_solves.get();

        assert_eq!(value(&x1), fresh(&x1).0);
        assert_eq!(value(&x2), fresh(&x2).0);
        assert_eq!(solves(), 2);
        // The older slot serves the gradient at x1: adjoint only.
        assert_eq!(gradient(&x1), fresh(&x1));
        assert_eq!(solves(), 2);
        // x3 replaces the older slot, x1.
        assert_eq!(value(&x3), fresh(&x3).0);
        assert_eq!(solves(), 3);
        assert_eq!(gradient(&x1), fresh(&x1));
        assert_eq!(solves(), 4);
        // Re-solving x1 replaced x2.
        assert_eq!(gradient(&x2), fresh(&x2));
        assert_eq!(solves(), 5);
        // x1 is now the older slot; reads there repeat bitwise.
        assert_eq!(gradient(&x1), fresh(&x1));
        assert_eq!(value(&x1), fresh(&x1).0);
        assert_eq!(solves(), 5);

        // A width the model cannot solve costs +∞ with a zero gradient, and
        // the failure is remembered like any other solve (replacing x1).
        let mut g = vec![1.0; 6];
        assert_eq!(
            problem.raw_objective_and_gradient(&failing, &mut g),
            f64::INFINITY
        );
        assert_eq!(g, vec![0.0; 6]);
        assert_eq!(problem.raw_objective(&failing), f64::INFINITY);
        assert!(problem.solved_design(&failing).is_err());
        assert_eq!(solves(), 6);

        // The surviving slot still holds x2, and its solution is what a
        // fresh solve of the same model returns.
        assert_eq!(gradient(&x2), fresh(&x2));
        let (optimized, solution) = problem.solved_design(&x2).unwrap();
        assert_eq!(solves(), 6);
        let reference = optimized
            .solve_with(&problem.solve, &mut SolveWorkspace::new())
            .unwrap();
        assert_eq!(
            solution.cost_gradient_squared().to_bits(),
            reference.cost_gradient_squared().to_bits()
        );
        for (a, b) in solution.columns().iter().zip(reference.columns()) {
            assert_eq!(bits(a.t_top_kelvin()), bits(b.t_top_kelvin()));
            assert_eq!(bits(a.t_coolant_kelvin()), bits(b.t_coolant_kelvin()));
        }
    }

    #[test]
    fn equality_constraints_only_with_multiple_columns() {
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig::fast();
        let problem = WidthProblem::new(&model, &config);
        assert!(problem.equality(&vec![1.0; config.segments]).is_empty());
    }

    #[test]
    fn min_pumping_dual_meets_thermal_bound_at_lower_pressure() {
        // §IV-B dual: minimize pumping with a bound on the thermal cost.
        // The bound is set between the uniform-max cost and the primal
        // optimum, so the dual must spend *some* pressure — but less than
        // the gradient-optimal design does.
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig::fast();
        let primal = optimize(&model, &config).unwrap();
        let (_, uniform) = solve_uniform(
            &model,
            params.w_max,
            config.mesh_intervals,
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        let j_uniform = uniform.cost_gradient_squared();
        let bound = 0.5 * (primal.objective + j_uniform);
        let dual = optimize_min_pumping(&model, &config, bound).unwrap();

        // Thermal bound honored (within the solver's constraint tolerance).
        assert!(
            dual.objective <= bound * 1.05,
            "thermal cost {} exceeds bound {}",
            dual.objective,
            bound
        );
        // And the relaxed target is bought with less pressure than the
        // primal optimum needed.
        let max_dp = |drops: &[Pressure]| drops.iter().map(|p| p.as_pascals()).fold(0.0, f64::max);
        assert!(
            max_dp(&dual.pressure_drops) < max_dp(&primal.pressure_drops),
            "dual dp {} should undercut primal dp {}",
            max_dp(&dual.pressure_drops),
            max_dp(&primal.pressure_drops)
        );
        // Rejects nonsense bounds.
        assert!(optimize_min_pumping(&model, &config, 0.0).is_err());
        assert!(optimize_min_pumping(&model, &config, f64::NAN).is_err());
    }

    #[test]
    fn optimize_strip_reduces_cost_and_meets_pressure() {
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig::fast();
        let outcome = optimize(&model, &config).unwrap();
        // The optimum must beat the uniform-max starting point…
        let (_, uniform) = solve_uniform(
            &model,
            params.w_max,
            config.mesh_intervals,
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(
            outcome.solution.thermal_gradient().as_kelvin()
                < uniform.thermal_gradient().as_kelvin(),
            "optimal {} K vs uniform {} K",
            outcome.solution.thermal_gradient().as_kelvin(),
            uniform.thermal_gradient().as_kelvin()
        );
        // …and stay inside the pressure budget.
        assert!(outcome.feasible);
        for dp in &outcome.pressure_drops {
            assert!(
                dp.as_pascals() <= params.dp_max.as_pascals() * 1.01,
                "dp = {dp}"
            );
        }
        // The optimal profile narrows toward the outlet (paper Fig. 6a).
        match &outcome.widths[0] {
            WidthProfile::PiecewiseConstant { widths } => {
                assert!(
                    widths.last().unwrap().si() < widths.first().unwrap().si(),
                    "outlet should be narrower than inlet: {widths:?}"
                );
            }
            other => panic!("expected piecewise profile, got {other:?}"),
        }
        assert!(outcome.evaluations > 0);
    }
}
