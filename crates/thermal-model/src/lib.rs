//! Analytical state-space heat-transfer model for inter-tier liquid-cooled
//! 3D ICs, after Sabry, Sridhar & Atienza (DATE 2012), §III.
//!
//! The model describes a stack of two active silicon layers sandwiching a
//! cavity of parallel microchannels. For each channel column the state along
//! the flow coordinate `z` is
//!
//! * `T1(z)`, `T2(z)` — top/bottom active-layer temperatures,
//! * `q1(z)`, `q2(z)` — longitudinal heat flows inside the layers,
//! * `T_C(z)` — bulk coolant temperature,
//!
//! governed by the linear ODE system of the paper's Eq. (3) with adiabatic
//! boundary conditions `q(0) = q(d) = 0` (Eq. 5) and `T_C(0) = T_C,in`.
//! Adjacent columns couple through lateral conduction in the silicon slabs.
//!
//! # Numerics
//!
//! The two-point BVP is *stiff*: the homogeneous conduction modes decay on a
//! `√(ĝ_l/ĝ)` ≈ 0.1 mm length scale, so over a 1 cm channel they span ~e⁸⁰ —
//! single shooting is numerically impossible in double precision. The solver
//! here uses the standard global alternative: a second-order **midpoint
//! (box) collocation scheme** on a breakpoint-aligned mesh, assembled into a
//! banded linear system and factored by banded LU with partial pivoting
//! ([`linalg`]). Coefficients are evaluated at interval midpoints, so
//! piecewise-constant width and heat profiles (whose jumps are mesh nodes)
//! never straddle a discontinuity.
//!
//! # Example
//!
//! ```
//! use liquamod_thermal_model::{
//!     ChannelColumn, HeatProfile, Model, ModelParams, SolveOptions, WidthProfile,
//! };
//! use liquamod_units::{Length, LinearHeatFlux};
//!
//! // The paper's Test A: one channel, uniform 50 W/cm² on both layers
//! // (50 W/m per layer over the 100 µm pitch), 1 cm long.
//! let params = ModelParams::date2012();
//! let column = ChannelColumn::new(WidthProfile::uniform(params.w_max))
//!     .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
//!     .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
//! let model = Model::new(params, Length::from_centimeters(1.0), vec![column])?;
//! let solution = model.solve(&SolveOptions::default())?;
//! assert!(solution.thermal_gradient().as_kelvin() > 1.0);
//! # Ok::<(), liquamod_thermal_model::ThermalModelError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bvp;
mod conductance;
mod error;
mod heat;
pub mod linalg;
mod model;
mod params;
mod solution;
mod width;
pub mod workspace;

pub use conductance::{ConductanceWidthDerivatives, ElementConductances};
pub use error::ThermalModelError;
pub use heat::HeatProfile;
pub use model::{ChannelColumn, CostIntegrals, FlowDirection, Model, ObjectiveKind, SolveOptions};
pub use params::ModelParams;
pub use solution::{ColumnProfiles, Solution};
pub use width::WidthProfile;
pub use workspace::SolveWorkspace;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, ThermalModelError>;
