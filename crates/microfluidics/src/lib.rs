//! Laminar single-phase microchannel correlations for inter-tier liquid
//! cooling of 3D ICs.
//!
//! This crate is the *hydro-thermal substrate* of the `liquamod` stack: it
//! provides every fluid-side quantity the analytical thermal model and the
//! channel-modulation optimizer need:
//!
//! * coolant property sets ([`Coolant`], with water at 300 K as the paper's
//!   default),
//! * rectangular duct geometry ([`RectDuct`]: hydraulic diameter, aspect
//!   ratio, wetted perimeter),
//! * fully developed laminar **Nusselt number** correlations for rectangular
//!   ducts (Shah & London 1978; H1 and T boundary conditions) plus a
//!   thermally-developing-flow correction ([`nusselt`]),
//! * laminar **friction factor** models (`f·Re = 64` as used by the paper's
//!   Eq. (9), and the Shah–London rectangular-duct polynomial) ([`friction`]),
//! * the **pressure-drop integral** along a width-modulated channel
//!   ([`pressure`]), and hydraulic pump power ([`pump`]).
//!
//! # Example
//!
//! ```
//! use liquamod_microfluidics::{Coolant, RectDuct, nusselt::{self, NusseltCorrelation}};
//! use liquamod_units::Length;
//!
//! let water = Coolant::water_300k();
//! let duct = RectDuct::new(Length::from_micrometers(50.0), Length::from_micrometers(100.0))?;
//! let nu = nusselt::nusselt(NusseltCorrelation::ShahLondonH1, &duct);
//! let h = nusselt::heat_transfer_coefficient(NusseltCorrelation::ShahLondonH1, &duct, &water);
//! assert!(nu > 3.0 && nu < 9.0);
//! assert!(h.as_w_per_m2_k() > 1.0e4);
//! # Ok::<(), liquamod_microfluidics::MicrofluidicsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coolant;
mod duct;
mod error;
pub mod friction;
pub mod nusselt;
pub mod pressure;
pub mod pump;
mod reynolds;

pub use coolant::Coolant;
pub use duct::RectDuct;
pub use error::MicrofluidicsError;
pub use reynolds::{mean_velocity, reynolds_number, reynolds_number_width_derivative};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, MicrofluidicsError>;
