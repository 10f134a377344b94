//! Laminar friction-factor models for rectangular microchannels.
//!
//! Pressure losses in fully developed laminar duct flow obey
//! `ΔP/L = (f·Re) · μ · u_m / (2·D_h²)` where `f·Re` (the Poiseuille number
//! times four, for the Darcy friction factor) depends only on the duct shape.
//!
//! Two models are provided:
//!
//! * [`FrictionModel::LaminarCircular`] — `f·Re = 64`, the circular-duct
//!   constant. Substituting it into Darcy–Weisbach reproduces the paper's
//!   Eq. (9) integrand *exactly*, so this is the default for the
//!   reproduction.
//! * [`FrictionModel::ShahLondonRect`] — the Shah & London (1978) fifth-order
//!   polynomial in the aspect ratio for rectangular ducts,
//!   `f·Re(α) = 96(1 − 1.3553α + 1.9467α² − 1.7012α³ + 0.9564α⁴ − 0.2537α⁵)`,
//!   offered as a higher-fidelity ablation.

use crate::RectDuct;

/// Selects the laminar `f·Re` model used in pressure-drop computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrictionModel {
    /// `f·Re = 64` (circular-duct value). Reproduces the paper's Eq. (9).
    #[default]
    LaminarCircular,
    /// Shah & London rectangular-duct polynomial `f·Re(α)`.
    ShahLondonRect,
}

/// Product of Darcy friction factor and Reynolds number for the duct.
pub fn f_times_re(model: FrictionModel, duct: &RectDuct) -> f64 {
    match model {
        FrictionModel::LaminarCircular => 64.0,
        FrictionModel::ShahLondonRect => {
            let a = duct.aspect_ratio();
            96.0 * (1.0 - 1.3553 * a + 1.9467 * a.powi(2) - 1.7012 * a.powi(3) + 0.9564 * a.powi(4)
                - 0.2537 * a.powi(5))
        }
    }
}

/// `∂(f·Re)/∂w_C` at fixed channel height (zero for the circular-duct
/// constant).
pub fn f_times_re_width_derivative(model: FrictionModel, duct: &RectDuct) -> f64 {
    match model {
        FrictionModel::LaminarCircular => 0.0,
        FrictionModel::ShahLondonRect => {
            let a = duct.aspect_ratio();
            96.0 * (-1.3553 + 2.0 * 1.9467 * a - 3.0 * 1.7012 * a.powi(2)
                + 4.0 * 0.9564 * a.powi(3)
                - 5.0 * 0.2537 * a.powi(4))
                * duct.aspect_ratio_width_derivative()
        }
    }
}

/// Darcy friction factor `f = (f·Re)/Re` for a given Reynolds number.
///
/// # Panics
///
/// Never panics; non-positive `reynolds` yields `f = ∞`, signalling an
/// unphysical (zero-flow) query to the caller.
pub fn darcy_friction_factor(model: FrictionModel, duct: &RectDuct, reynolds: f64) -> f64 {
    f_times_re(model, duct) / reynolds.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_units::Length;

    fn duct(w_um: f64, h_um: f64) -> RectDuct {
        RectDuct::new(
            Length::from_micrometers(w_um),
            Length::from_micrometers(h_um),
        )
        .expect("valid duct")
    }

    #[test]
    fn circular_constant() {
        assert_eq!(
            f_times_re(FrictionModel::LaminarCircular, &duct(50.0, 100.0)),
            64.0
        );
        assert_eq!(
            f_times_re(FrictionModel::LaminarCircular, &duct(10.0, 100.0)),
            64.0
        );
    }

    #[test]
    fn shah_london_known_values() {
        // Square duct: f·Re ≈ 56.9; parallel plates (α→0): 96.
        let square = f_times_re(FrictionModel::ShahLondonRect, &duct(100.0, 100.0));
        assert!((square - 56.9).abs() < 0.3, "square fRe = {square}");
        let slot = f_times_re(FrictionModel::ShahLondonRect, &duct(0.01, 100.0));
        assert!((slot - 96.0).abs() < 0.2, "slot fRe = {slot}");
    }

    #[test]
    fn shah_london_monotone_in_aspect() {
        // f·Re decreases monotonically from parallel plates to square.
        let mut last = f64::INFINITY;
        for w in [5.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
            let fre = f_times_re(FrictionModel::ShahLondonRect, &duct(w, 100.0));
            assert!(fre < last, "fRe({w}) = {fre}");
            last = fre;
        }
    }

    #[test]
    fn darcy_factor_scales_inverse_re() {
        let d = duct(50.0, 100.0);
        let f1 = darcy_friction_factor(FrictionModel::LaminarCircular, &d, 100.0);
        let f2 = darcy_friction_factor(FrictionModel::LaminarCircular, &d, 200.0);
        assert!((f1 / f2 - 2.0).abs() < 1e-12);
        assert!((f1 - 0.64).abs() < 1e-12);
    }

    #[test]
    fn zero_reynolds_yields_infinite_friction() {
        let f = darcy_friction_factor(FrictionModel::LaminarCircular, &duct(50.0, 100.0), 0.0);
        assert!(f.is_infinite());
    }

    #[test]
    fn default_model_matches_paper() {
        assert_eq!(FrictionModel::default(), FrictionModel::LaminarCircular);
    }
}
