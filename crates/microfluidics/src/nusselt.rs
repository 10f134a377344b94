//! Fully developed laminar Nusselt-number correlations for rectangular ducts.
//!
//! The paper computes convective resistances from "Nusselt number correlations
//! (as a function of channel aspect ratio) presented by Shah & London"
//! (§III, ref. \[16\]). Shah & London, *Laminar Flow Forced Convection in
//! Ducts* (1978), tabulate fully developed Nusselt numbers for rectangular
//! ducts under two classic thermal boundary conditions and give fifth-order
//! polynomial fits in the duct aspect ratio `α`:
//!
//! * **H1** — axially constant heat flux with circumferentially constant wall
//!   temperature. This matches a silicon wall (high conductivity around the
//!   perimeter) carrying an imposed heat flux, so it is the default for IC
//!   cooling models and the one the DATE'12 model uses.
//! * **T** — constant wall temperature.
//!
//! A thermally developing (entry-length) correction in the Hausen form is
//! provided as an optional refinement; the paper's assumption 2 is fully
//! developed flow, so the default correlations ignore entry effects.

use crate::{Coolant, RectDuct};
use liquamod_units::HeatTransferCoefficient;

/// Selects the Nusselt-number model used to convert duct geometry into a
/// convective heat-transfer coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NusseltCorrelation {
    /// Shah & London fully developed laminar flow, H1 boundary condition
    /// (axially constant heat flux). The paper's default.
    #[default]
    ShahLondonH1,
    /// Shah & London fully developed laminar flow, T boundary condition
    /// (constant wall temperature).
    ShahLondonT,
}

/// Fully developed Nusselt number for the given correlation and duct.
///
/// Polynomials (Shah & London 1978, Table 42 fits), `α` = aspect ratio:
///
/// * H1: `Nu = 8.235 (1 − 2.0421α + 3.0853α² − 2.4765α³ + 1.0578α⁴ − 0.1861α⁵)`
/// * T:  `Nu = 7.541 (1 − 2.610α + 4.970α² − 5.119α³ + 2.702α⁴ − 0.548α⁵)`
pub fn nusselt(correlation: NusseltCorrelation, duct: &RectDuct) -> f64 {
    let a = duct.aspect_ratio();
    match correlation {
        NusseltCorrelation::ShahLondonH1 => {
            8.235
                * (1.0 - 2.0421 * a + 3.0853 * a.powi(2) - 2.4765 * a.powi(3) + 1.0578 * a.powi(4)
                    - 0.1861 * a.powi(5))
        }
        NusseltCorrelation::ShahLondonT => {
            7.541
                * (1.0 - 2.610 * a + 4.970 * a.powi(2) - 5.119 * a.powi(3) + 2.702 * a.powi(4)
                    - 0.548 * a.powi(5))
        }
    }
}

/// `∂Nu/∂w_C` of [`nusselt`] at fixed channel height: the polynomial's
/// slope in `α` times [`RectDuct::aspect_ratio_width_derivative`].
pub fn nusselt_width_derivative(correlation: NusseltCorrelation, duct: &RectDuct) -> f64 {
    let a = duct.aspect_ratio();
    let slope = match correlation {
        NusseltCorrelation::ShahLondonH1 => {
            8.235
                * (-2.0421 + 2.0 * 3.0853 * a - 3.0 * 2.4765 * a.powi(2) + 4.0 * 1.0578 * a.powi(3)
                    - 5.0 * 0.1861 * a.powi(4))
        }
        NusseltCorrelation::ShahLondonT => {
            7.541
                * (-2.610 + 2.0 * 4.970 * a - 3.0 * 5.119 * a.powi(2) + 4.0 * 2.702 * a.powi(3)
                    - 5.0 * 0.548 * a.powi(4))
        }
    };
    slope * duct.aspect_ratio_width_derivative()
}

/// Convective heat-transfer coefficient `h = Nu · k_f / D_h`.
pub fn heat_transfer_coefficient(
    correlation: NusseltCorrelation,
    duct: &RectDuct,
    coolant: &Coolant,
) -> HeatTransferCoefficient {
    let nu = nusselt(correlation, duct);
    HeatTransferCoefficient::from_w_per_m2_k(
        nu * coolant.thermal_conductivity().si() / duct.hydraulic_diameter().si(),
    )
}

/// Local Nusselt number including a thermally developing entry-length
/// correction (Hausen form), at distance `z_m` (metres) from the inlet.
///
/// `Nu(z*) = Nu_fd + 0.0668/z* / (1 + 0.04·z*^(−2/3))` with the dimensionless
/// thermal entry length `z* = (z/D_h)/(Re·Pr)`. As `z → ∞` this decays to the
/// fully developed value; near the inlet the coefficient is substantially
/// higher. Provided as an *extension* beyond the paper's fully-developed
/// assumption (ablation `nusselt-developing`).
///
/// # Panics
///
/// Never panics; `z_m ≤ 0` is clamped to a small positive entry distance of
/// one hydraulic diameter.
pub fn nusselt_developing(
    correlation: NusseltCorrelation,
    duct: &RectDuct,
    coolant: &Coolant,
    reynolds: f64,
    z_m: f64,
) -> f64 {
    let nu_fd = nusselt(correlation, duct);
    let dh = duct.hydraulic_diameter().si();
    let z = z_m.max(dh);
    let z_star = (z / dh) / (reynolds * coolant.prandtl()).max(1e-12);
    nu_fd + 0.0668 / z_star / (1.0 + 0.04 * z_star.powf(-2.0 / 3.0))
}

/// `∂Nu/∂w_C` of [`nusselt_developing`] at fixed height, flow rate and
/// `z_m`, given the Reynolds number and its own width derivative
/// `reynolds_width_derivative` (see
/// [`crate::reynolds_number_width_derivative`]). Follows the same
/// branches as the value: the entry distance clamps to `D_h` (and then moves
/// with it) and `Re·Pr` clamps at `1e-12`.
pub fn nusselt_developing_width_derivative(
    correlation: NusseltCorrelation,
    duct: &RectDuct,
    coolant: &Coolant,
    reynolds: f64,
    reynolds_width_derivative: f64,
    z_m: f64,
) -> f64 {
    let dh = duct.hydraulic_diameter().si();
    let d_dh = duct.hydraulic_diameter_width_derivative();
    let (z, d_z) = if z_m > dh { (z_m, 0.0) } else { (dh, d_dh) };
    let rp = reynolds * coolant.prandtl();
    let (rp, d_rp) = if rp > 1e-12 {
        (rp, reynolds_width_derivative * coolant.prandtl())
    } else {
        (1e-12, 0.0)
    };
    let z_star = (z / dh) / rp;
    let d_z_star = z_star * (d_z / z - d_dh / dh - d_rp / rp);
    // 0.0668/z*/(1 + 0.04·z*^(−2/3)) = 0.0668/g with g = z* + 0.04·z*^(1/3).
    let g = z_star + 0.04 * z_star.cbrt();
    let d_g = 1.0 + 0.04 / 3.0 * z_star.powf(-2.0 / 3.0);
    nusselt_width_derivative(correlation, duct) - 0.0668 * d_g / (g * g) * d_z_star
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
    fn h1_known_values() {
        // Shah & London Table 42: α = 1 (square) → Nu_H1 ≈ 3.61; α → 0
        // (parallel plates) → 8.235.
        let square = nusselt(NusseltCorrelation::ShahLondonH1, &duct(100.0, 100.0));
        assert!((square - 3.61).abs() < 0.05, "square Nu_H1 = {square}");
        let slot = nusselt(NusseltCorrelation::ShahLondonH1, &duct(0.01, 100.0));
        assert!((slot - 8.235).abs() < 0.02, "slot Nu_H1 = {slot}");
    }

    #[test]
    fn t_known_values() {
        // α = 1 → Nu_T ≈ 2.98; α → 0 → 7.541.
        let square = nusselt(NusseltCorrelation::ShahLondonT, &duct(100.0, 100.0));
        assert!((square - 2.98).abs() < 0.05, "square Nu_T = {square}");
        let slot = nusselt(NusseltCorrelation::ShahLondonT, &duct(0.01, 100.0));
        assert!((slot - 7.541).abs() < 0.02, "slot Nu_T = {slot}");
    }

    #[test]
    fn h1_exceeds_t() {
        // The H1 condition always yields higher Nu than T for the same duct.
        for w in [10.0, 20.0, 50.0, 100.0] {
            let d = duct(w, 100.0);
            assert!(
                nusselt(NusseltCorrelation::ShahLondonH1, &d)
                    > nusselt(NusseltCorrelation::ShahLondonT, &d)
            );
        }
    }

    #[test]
    fn narrower_channel_higher_h() {
        // The physical basis of channel modulation (paper §I): reducing the
        // width at constant height raises the heat-transfer coefficient.
        let water = Coolant::water_300k();
        let mut last = 0.0;
        for w in [50.0, 40.0, 30.0, 20.0, 10.0] {
            let h = heat_transfer_coefficient(
                NusseltCorrelation::ShahLondonH1,
                &duct(w, 100.0),
                &water,
            )
            .as_w_per_m2_k();
            assert!(h > last, "h({w} um) = {h} should exceed {last}");
            last = h;
        }
    }

    #[test]
    fn h_magnitude_is_realistic() {
        // For w = 50 µm, H = 100 µm with water: h ≈ 3.8e4 W/m²K.
        let h = heat_transfer_coefficient(
            NusseltCorrelation::ShahLondonH1,
            &duct(50.0, 100.0),
            &Coolant::water_300k(),
        );
        assert!(
            h.as_w_per_m2_k() > 3.0e4 && h.as_w_per_m2_k() < 5.0e4,
            "h = {} W/m2K",
            h.as_w_per_m2_k()
        );
    }

    #[test]
    fn developing_exceeds_fully_developed_near_inlet() {
        let d = duct(50.0, 100.0);
        let water = Coolant::water_300k();
        let re = 100.0;
        let near = nusselt_developing(NusseltCorrelation::ShahLondonH1, &d, &water, re, 1e-4);
        let far = nusselt_developing(NusseltCorrelation::ShahLondonH1, &d, &water, re, 0.5);
        let fd = nusselt(NusseltCorrelation::ShahLondonH1, &d);
        assert!(near > far, "entry-length Nu should decay downstream");
        assert!(far >= fd, "developing Nu never falls below fully developed");
        assert!(
            (far - fd) / fd < 0.05,
            "far downstream should approach fd value"
        );
    }

    #[test]
    fn developing_handles_degenerate_inputs() {
        let d = duct(50.0, 100.0);
        let water = Coolant::water_300k();
        let nu = nusselt_developing(NusseltCorrelation::ShahLondonH1, &d, &water, 100.0, 0.0);
        assert!(nu.is_finite() && nu > 0.0);
    }

    #[test]
    fn width_derivatives_match_central_differences() {
        let water = Coolant::water_300k();
        let flow = liquamod_units::VolumetricFlowRate::from_ml_per_min(0.3);
        let h = 1e-10;
        let at = |w_um: f64, dw: f64| duct(w_um + dw * 1e6, 100.0);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
        for corr in [
            NusseltCorrelation::ShahLondonH1,
            NusseltCorrelation::ShahLondonT,
        ] {
            // Both sides of the aspect-ratio kink at w = H.
            for w_um in [10.0, 35.0, 50.0, 99.0, 130.0] {
                let fd = (nusselt(corr, &at(w_um, h)) - nusselt(corr, &at(w_um, -h))) / (2.0 * h);
                let exact = nusselt_width_derivative(corr, &duct(w_um, 100.0));
                assert!(
                    rel(exact, fd) < 1e-6,
                    "{corr:?} w = {w_um}: {exact} vs {fd}"
                );
                // Entry region (z clamped to D_h), mid-channel and far field.
                for z_m in [0.0, 1e-4, 3e-3, 0.5] {
                    let dev = |dw: f64| {
                        let d = at(w_um, dw);
                        let re = crate::reynolds_number(&d, &water, flow);
                        nusselt_developing(corr, &d, &water, re, z_m)
                    };
                    let fd = (dev(h) - dev(-h)) / (2.0 * h);
                    let d = duct(w_um, 100.0);
                    let re = crate::reynolds_number(&d, &water, flow);
                    let d_re = crate::reynolds_number_width_derivative(&d, &water, flow);
                    let exact =
                        nusselt_developing_width_derivative(corr, &d, &water, re, d_re, z_m);
                    assert!(
                        rel(exact, fd) < 1e-6,
                        "{corr:?} w = {w_um}, z = {z_m}: {exact} vs {fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_correlation_is_h1() {
        assert_eq!(
            NusseltCorrelation::default(),
            NusseltCorrelation::ShahLondonH1
        );
    }
}
