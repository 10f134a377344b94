//! Reusable solve workspaces: allocation-free repeated [`Model::solve_with`](crate::Model::solve_with)
//! calls.
//!
//! The channel-modulation optimizer evaluates the same model shape hundreds
//! of times per design run (every line-search trial and every adjoint
//! gradient is one boundary-value solve) while only the width profiles
//! vary. The mesh, the collocation matrix's sparsity structure and every
//! buffer size are invariant across those evaluations, so a
//! [`SolveWorkspace`] keeps them alive between solves:
//!
//! * the **mesh** is cached and rebuilt only when the channel length, base
//!   resolution or profile breakpoints actually change;
//! * the **banded matrix**, **factorization** and **right-hand side** are
//!   factored in place ([`crate::linalg::BandedMatrix::factor_into`]) and
//!   recycled, swapping storage back and forth instead of reallocating; the
//!   factors and states stay in the workspace after a solve, so the adjoint
//!   gradient ([`Model::cost_gradient_from`](crate::Model::cost_gradient_from))
//!   and the profiles ([`Model::solution_from`](crate::Model::solution_from))
//!   can be read from it later without solving again;
//! * coefficient, boundary-condition and adjoint scratch buffers are reused.
//!
//! A workspace also records *which* model its last successful solve was for
//! (the width parameters bit for bit and the channel length), so reading a
//! gradient or a solution back for a different model, or after a failed
//! solve, is a typed [`ThermalModelError::StaleWorkspace`](crate::ThermalModelError::StaleWorkspace)
//! rather than a silently wrong answer.
//!
//! # Lifecycle
//!
//! Create one workspace per thread of repeated solves and pass it to
//! [`Model::solve_with`](crate::Model::solve_with). The workspace adapts automatically when the model
//! shape changes (buffers reshape on the next solve), so one long-lived
//! workspace can serve many different models — reuse is a pure optimization,
//! never a correctness concern: a workspace-reused solve is **bitwise
//! identical** to a fresh [`Model::solve`](crate::Model::solve) (which itself routes through a
//! one-shot workspace):
//!
//! ```
//! use liquamod_thermal_model::{
//!     ChannelColumn, HeatProfile, Model, ModelParams, SolveOptions, SolveWorkspace, WidthProfile,
//! };
//! use liquamod_units::{Length, LinearHeatFlux};
//!
//! let params = ModelParams::date2012();
//! let column = ChannelColumn::new(WidthProfile::uniform(params.w_max))
//!     .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
//! let model = Model::new(params, Length::from_centimeters(1.0), vec![column])?;
//! let options = SolveOptions::with_mesh_intervals(64);
//! let mut ws = SolveWorkspace::new();
//! let first = model.solve_with(&options, &mut ws)?;
//! let again = model.solve_with(&options, &mut ws)?;
//! assert_eq!(first.thermal_gradient(), again.thermal_gradient());
//! assert_eq!((ws.solves(), ws.mesh_builds()), (2, 1)); // mesh cached
//! # Ok::<(), liquamod_thermal_model::ThermalModelError>(())
//! ```

use crate::bvp::{BoundaryCondition, BvpWorkspace};

/// Reusable storage for repeated [`Model::solve_with`] calls.
///
/// See the [module docs](self) for the lifecycle; construct with
/// [`SolveWorkspace::new`] and keep it alive across solves.
///
/// [`Model::solve_with`]: crate::Model::solve_with
#[derive(Debug)]
pub struct SolveWorkspace {
    /// Banded system storage (matrix, factorization, RHS, scratch).
    pub(crate) bvp: BvpWorkspace,
    /// Cached mesh nodes (valid when `mesh_key` matches the request).
    pub(crate) mesh: Vec<f64>,
    /// Breakpoints the cached mesh was built from, in collection order.
    pub(crate) breakpoints: Vec<f64>,
    /// Scratch for collecting the current solve's breakpoints.
    pub(crate) bp_scratch: Vec<f64>,
    /// Boundary-condition scratch.
    pub(crate) bcs: Vec<BoundaryCondition>,
    /// Adjoint vector `λ` of the last gradient solve.
    pub(crate) adjoint: Vec<f64>,
    /// `(length, base intervals)` of the cached mesh, `None` when cold.
    pub(crate) mesh_key: Option<(f64, usize)>,
    /// Width parameters of the model the held solve is for, in the layout
    /// of `Model::width_stamp`.
    pub(crate) solved_widths: Vec<u64>,
    /// Mesh key of the held solve; `None` while the workspace holds no
    /// successful solve (cold, or the last solve failed).
    pub(crate) solved_mesh_key: Option<(f64, usize)>,
    /// Solves served since construction (cache diagnostics for benches).
    pub(crate) solves: usize,
    /// Mesh rebuilds performed (≥ 1 after the first solve).
    pub(crate) mesh_builds: usize,
}

impl SolveWorkspace {
    /// Creates an empty (cold) workspace.
    pub fn new() -> Self {
        Self {
            bvp: BvpWorkspace::new(),
            mesh: Vec::new(),
            breakpoints: Vec::new(),
            bp_scratch: Vec::new(),
            bcs: Vec::new(),
            adjoint: Vec::new(),
            mesh_key: None,
            solved_widths: Vec::new(),
            solved_mesh_key: None,
            solves: 0,
            mesh_builds: 0,
        }
    }

    /// Solves served through this workspace so far.
    #[must_use]
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Mesh (re)builds this workspace performed; stays at 1 while the mesh
    /// inputs are invariant, which is the expected steady state inside the
    /// optimizer.
    #[must_use]
    pub fn mesh_builds(&self) -> usize {
        self.mesh_builds
    }
}

impl Default for SolveWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_counters_start_cold() {
        let ws = SolveWorkspace::new();
        assert_eq!(ws.solves(), 0);
        assert_eq!(ws.mesh_builds(), 0);
        assert!(ws.mesh_key.is_none());
        assert!(ws.solved_mesh_key.is_none());
    }
}
