//! Per-unit-length element conductances — the paper's Eq. (2).
//!
//! For a channel element at distance `z` from the inlet with local width
//! `w_C(z)`, the equivalent electrical circuit of the paper's Fig. 3 has:
//!
//! | parameter | formula | role |
//! |---|---|---|
//! | `ĝ_l`    | `k_Si·W·H_Si` (W·m)            | longitudinal conduction in each active layer |
//! | `ĝ_w`    | `k_Si·(W−w_C)/(2H_Si+H_C)`     | layer↔layer conduction through the side walls |
//! | `ĝ_v,Si` | `k_Si·W/H_Si`                  | active layer → channel-wall surface |
//! | `ĥ`      | `h(z,w_C)·(w_C+H_C)`           | wall surface → coolant convection (per layer) |
//! | `ĝ_v`    | `(ĝ_v,Si⁻¹ + ĥ⁻¹)⁻¹`           | effective layer → coolant path |
//!
//! The paper's prose swaps the textual descriptions of `ĝ_w` and `ĝ_v,Si`
//! relative to the printed formulas; dimensional analysis fixes the roles as
//! listed here (`(W − w_C)` is the side-wall silicon cross-section on the
//! layer-to-layer path of length `2H_Si + H_C`; `W/H_Si` is the full-pitch
//! slab path from an active layer to its channel wall). We implement the
//! printed formulas.
//!
//! For a *grouped* column representing `m` physical channels under one node
//! pair (the model-reduction the paper describes at the end of §III), every
//! per-unit-length parameter scales by `m`.

use crate::ModelParams;
use liquamod_microfluidics::{nusselt, MicrofluidicsError, RectDuct};
use liquamod_units::Length;

/// The Eq. (2) circuit parameters evaluated for one channel element.
///
/// All fields are per unit channel length and already scaled by the group
/// size `m`; see the module docs for formulas and units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementConductances {
    /// Longitudinal layer conductance `ĝ_l` (W·m).
    pub g_longitudinal: f64,
    /// Layer-to-layer side-wall conductance `ĝ_w` (W/(m·K)).
    pub g_wall: f64,
    /// Layer-to-wall-surface slab conductance `ĝ_v,Si` (W/(m·K)).
    pub g_vertical_si: f64,
    /// Wall-surface-to-coolant convective conductance `ĥ` per layer
    /// (W/(m·K)).
    pub h_conv: f64,
    /// Effective layer-to-coolant conductance `ĝ_v` (series of `ĝ_v,Si` and
    /// `ĥ`) (W/(m·K)).
    pub g_vertical: f64,
    /// Advective capacity rate `c_v·V̇` of the grouped coolant stream (W/K).
    pub capacity_rate: f64,
}

/// Width derivatives of the two width-dependent Eq. (2) parameters at one
/// element (`ĝ_l`, `ĝ_v,Si` and `c_v·V̇` do not depend on `w_C`). Scaled by
/// the group size like [`ElementConductances`]; units are those of the
/// parameter per metre of width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceWidthDerivatives {
    /// `∂ĝ_w/∂w_C`.
    pub g_wall: f64,
    /// `∂ĝ_v/∂w_C`, through `ĥ`'s Nusselt number, `D_h` and wetted
    /// perimeter.
    pub g_vertical: f64,
}

impl ElementConductances {
    /// Evaluates the circuit parameters for local channel width `width` and
    /// group size `group_size` under the given model parameters, at distance
    /// `z_from_inlet` from the coolant inlet (used only when
    /// `params.developing_flow` enables the entry-length correction).
    ///
    /// # Errors
    ///
    /// Propagates [`liquamod_microfluidics::MicrofluidicsError`] if `width`
    /// is not a valid duct width (non-positive or ≥ pitch leaves no wall —
    /// the pitch check is the caller's job; this function only requires
    /// positivity).
    pub fn evaluate(
        params: &ModelParams,
        width: Length,
        group_size: usize,
        z_from_inlet: Length,
    ) -> Result<Self, liquamod_microfluidics::MicrofluidicsError> {
        let m = group_size as f64;
        let duct = RectDuct::new(width, params.h_c)?;
        let h_si = if params.developing_flow {
            let re = liquamod_microfluidics::reynolds_number(
                &duct,
                &params.coolant,
                params.flow_rate_per_channel,
            );
            let nu = nusselt::nusselt_developing(
                params.nusselt,
                &duct,
                &params.coolant,
                re,
                z_from_inlet.si(),
            );
            nu * params.coolant.thermal_conductivity().si() / duct.hydraulic_diameter().si()
        } else {
            nusselt::heat_transfer_coefficient(params.nusselt, &duct, &params.coolant).si()
        };
        // Each layer owns its channel wall plus half of each side wall:
        // (w_C + H_C) of wetted perimeter out of the total 2(w_C + H_C).
        let h_conv = h_si * (width.si() + params.h_c.si()) * m;
        let g_vertical_si = params.g_vertical_si() * m;
        let g_vertical = if h_conv == 0.0 || g_vertical_si == 0.0 {
            0.0
        } else {
            1.0 / (1.0 / g_vertical_si + 1.0 / h_conv)
        };
        Ok(Self {
            g_longitudinal: params.g_longitudinal() * m,
            g_wall: params.k_si.si() * (params.pitch.si() - width.si()).max(0.0)
                / (2.0 * params.h_si.si() + params.h_c.si())
                * m,
            g_vertical_si,
            h_conv,
            g_vertical,
            capacity_rate: params.capacity_rate() * m,
        })
    }

    /// `∂ĝ_w/∂w_C` and `∂ĝ_v/∂w_C` at the point [`ElementConductances::evaluate`]
    /// would evaluate, in closed form through the Shah–London slope, `D_h`
    /// and (with `params.developing_flow`) the entry-length term and `Re`.
    /// At the aspect-ratio kink `w_C = H_C` the `w_C ≤ H_C` branch is taken,
    /// like the value.
    ///
    /// # Errors
    ///
    /// Same as [`ElementConductances::evaluate`].
    pub fn width_derivatives(
        params: &ModelParams,
        width: Length,
        group_size: usize,
        z_from_inlet: Length,
    ) -> Result<ConductanceWidthDerivatives, MicrofluidicsError> {
        let m = group_size as f64;
        let duct = RectDuct::new(width, params.h_c)?;
        let (nu, d_nu) = if params.developing_flow {
            let flow = params.flow_rate_per_channel;
            let re = liquamod_microfluidics::reynolds_number(&duct, &params.coolant, flow);
            let d_re = liquamod_microfluidics::reynolds_number_width_derivative(
                &duct,
                &params.coolant,
                flow,
            );
            let z = z_from_inlet.si();
            (
                nusselt::nusselt_developing(params.nusselt, &duct, &params.coolant, re, z),
                nusselt::nusselt_developing_width_derivative(
                    params.nusselt,
                    &duct,
                    &params.coolant,
                    re,
                    d_re,
                    z,
                ),
            )
        } else {
            (
                nusselt::nusselt(params.nusselt, &duct),
                nusselt::nusselt_width_derivative(params.nusselt, &duct),
            )
        };
        let k_f = params.coolant.thermal_conductivity().si();
        let dh = duct.hydraulic_diameter().si();
        let h_si = nu * k_f / dh;
        let d_h_si =
            k_f * (d_nu / dh - nu * duct.hydraulic_diameter_width_derivative() / (dh * dh));
        let perimeter = width.si() + params.h_c.si();
        let h_conv = h_si * perimeter * m;
        let d_h_conv = (d_h_si * perimeter + h_si) * m;
        let g_vertical_si = params.g_vertical_si() * m;
        let d_g_vertical = if h_conv == 0.0 || g_vertical_si == 0.0 {
            0.0
        } else {
            // ĝ_v = 1/(1/ĝ_v,Si + 1/ĥ) → ∂ĝ_v = (ĝ_v/ĥ)²·∂ĥ.
            let g_vertical = 1.0 / (1.0 / g_vertical_si + 1.0 / h_conv);
            (g_vertical / h_conv).powi(2) * d_h_conv
        };
        let d_g_wall = if params.pitch.si() - width.si() > 0.0 {
            -params.k_si.si() / (2.0 * params.h_si.si() + params.h_c.si()) * m
        } else {
            0.0
        };
        Ok(ConductanceWidthDerivatives {
            g_wall: d_g_wall,
            g_vertical: d_g_vertical,
        })
    }

    /// Lateral (cross-flow, per unit length) conductance between the active
    /// layers of two adjacent columns with group sizes `m_left` and
    /// `m_right`: conduction through a slab of height `H_Si` over the
    /// centre-to-centre distance `(m_left + m_right)/2 · W`.
    pub fn lateral_between(params: &ModelParams, m_left: usize, m_right: usize) -> f64 {
        let span = 0.5 * (m_left + m_right) as f64 * params.pitch.si();
        params.k_si.si() * params.h_si.si() / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    #[test]
    fn eq2_values_at_max_width() {
        let p = ModelParams::date2012();
        let c = ElementConductances::evaluate(&p, um(50.0), 1, Length::ZERO).unwrap();
        // ĝ_l = 130·1e-4·5e-5 = 6.5e-7 W·m
        assert!((c.g_longitudinal - 6.5e-7).abs() < 1e-18);
        // ĝ_w = 130·(100-50)µm/(2·50+100)µm = 130·5e-5/2e-4 = 32.5 W/mK
        assert!((c.g_wall - 32.5).abs() < 1e-9);
        // ĝ_v,Si = 130·1e-4/5e-5 = 260 W/mK
        assert!((c.g_vertical_si - 260.0).abs() < 1e-9);
        // ĥ: h ≈ 3.78e4 W/m²K × 150 µm ≈ 5.7 W/mK
        assert!(c.h_conv > 4.5 && c.h_conv < 7.0, "h_conv = {}", c.h_conv);
        // ĝ_v is the series combination, dominated by ĥ.
        assert!(c.g_vertical < c.h_conv);
        assert!(c.g_vertical > 0.9 * c.h_conv);
        // c_v V̇ at the calibrated flow.
        assert!((c.capacity_rate - 0.034750).abs() < 1e-6);
    }

    #[test]
    fn narrower_width_more_convection_less_wall_gap() {
        let p = ModelParams::date2012();
        let wide = ElementConductances::evaluate(&p, um(50.0), 1, Length::ZERO).unwrap();
        let narrow = ElementConductances::evaluate(&p, um(10.0), 1, Length::ZERO).unwrap();
        // Channel modulation's driving physics: narrow channel → better
        // convective path…
        assert!(narrow.g_vertical > 2.0 * wide.g_vertical);
        // …and a thicker silicon side wall coupling the layers.
        assert!(narrow.g_wall > wide.g_wall);
        // ĝ_w(10µm) = 130·9e-5/2e-4 = 58.5
        assert!((narrow.g_wall - 58.5).abs() < 1e-9);
    }

    #[test]
    fn group_scaling_is_linear() {
        let p = ModelParams::date2012();
        let one = ElementConductances::evaluate(&p, um(30.0), 1, Length::ZERO).unwrap();
        let eight = ElementConductances::evaluate(&p, um(30.0), 8, Length::ZERO).unwrap();
        assert!((eight.g_longitudinal / one.g_longitudinal - 8.0).abs() < 1e-12);
        assert!((eight.g_vertical_si / one.g_vertical_si - 8.0).abs() < 1e-12);
        assert!((eight.h_conv / one.h_conv - 8.0).abs() < 1e-12);
        assert!((eight.g_vertical / one.g_vertical - 8.0).abs() < 1e-9);
        assert!((eight.capacity_rate / one.capacity_rate - 8.0).abs() < 1e-12);
        assert!((eight.g_wall / one.g_wall - 8.0).abs() < 1e-12);
    }

    #[test]
    fn width_equal_to_pitch_leaves_no_wall() {
        let p = ModelParams::date2012();
        let c = ElementConductances::evaluate(&p, p.pitch, 1, Length::ZERO).unwrap();
        assert_eq!(c.g_wall, 0.0);
    }

    #[test]
    fn invalid_width_is_error() {
        let p = ModelParams::date2012();
        assert!(ElementConductances::evaluate(&p, Length::ZERO, 1, Length::ZERO).is_err());
    }

    #[test]
    fn width_derivatives_match_central_differences() {
        // Fully developed and developing flow, grouped columns, and a
        // shallow channel so widths sit on both sides of the aspect-ratio
        // kink at w = H_C.
        let shallow = ModelParams {
            h_c: um(30.0),
            ..ModelParams::date2012()
        };
        let h = 1e-11;
        for developing_flow in [false, true] {
            for base in [ModelParams::date2012(), shallow.clone()] {
                let p = ModelParams {
                    developing_flow,
                    ..base
                };
                for (w_um, m, z_mm) in [
                    (10.0, 1, 0.0),
                    (27.0, 3, 0.02),
                    (33.0, 1, 4.0),
                    (50.0, 8, 9.9),
                ] {
                    let z = Length::from_millimeters(z_mm);
                    let at = |dw: f64| {
                        ElementConductances::evaluate(&p, um(w_um + dw * 1e6), m, z).unwrap()
                    };
                    let d = ElementConductances::width_derivatives(&p, um(w_um), m, z).unwrap();
                    let fd_wall = (at(h).g_wall - at(-h).g_wall) / (2.0 * h);
                    let fd_vert = (at(h).g_vertical - at(-h).g_vertical) / (2.0 * h);
                    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
                    assert!(rel(d.g_wall, fd_wall) < 1e-6, "g_wall at {w_um} µm");
                    assert!(
                        rel(d.g_vertical, fd_vert) < 1e-6,
                        "g_vertical at {w_um} µm, developing {developing_flow}: {} vs {fd_vert}",
                        d.g_vertical
                    );
                }
            }
        }
    }

    #[test]
    fn lateral_conductance() {
        let p = ModelParams::date2012();
        // Two single-channel columns: span = 100 µm → 130·5e-5/1e-4 = 65.
        let g = ElementConductances::lateral_between(&p, 1, 1);
        assert!((g - 65.0).abs() < 1e-9);
        // Grouped columns sit further apart.
        let g8 = ElementConductances::lateral_between(&p, 8, 8);
        assert!((g8 - 65.0 / 8.0).abs() < 1e-9);
    }
}
