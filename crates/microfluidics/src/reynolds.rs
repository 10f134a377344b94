//! Reynolds number and mean-velocity helpers.

use crate::{Coolant, RectDuct};
use liquamod_units::{Velocity, VolumetricFlowRate};

/// Mean flow velocity `u_m = V̇ / A` in the duct cross-section.
pub fn mean_velocity(duct: &RectDuct, flow_rate: VolumetricFlowRate) -> Velocity {
    flow_rate / duct.area()
}

/// Reynolds number `Re = ρ·u_m·D_h/μ` of the channel flow (dimensionless).
///
/// Microchannel liquid cooling operates deep in the laminar regime
/// (`Re` of order 10–500 for the paper's geometries and flow rates); callers
/// that sweep flow rates should check `Re < ~2300` before trusting the
/// laminar correlations.
pub fn reynolds_number(duct: &RectDuct, coolant: &Coolant, flow_rate: VolumetricFlowRate) -> f64 {
    let u = mean_velocity(duct, flow_rate).as_m_per_s();
    coolant.density_kg_per_m3() * u * duct.hydraulic_diameter().si()
        / coolant.dynamic_viscosity().si()
}

/// `∂Re/∂w_C` at fixed height and flow rate:
/// `Re·(∂D_h/∂w_C / D_h − 1/w_C)` (the mean velocity falls as `1/w_C`).
pub fn reynolds_number_width_derivative(
    duct: &RectDuct,
    coolant: &Coolant,
    flow_rate: VolumetricFlowRate,
) -> f64 {
    let re = reynolds_number(duct, coolant, flow_rate);
    re * (duct.hydraulic_diameter_width_derivative() / duct.hydraulic_diameter().si()
        - 1.0 / duct.width().si())
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
    fn velocity_from_flow_rate() {
        // 0.3 mL/min through 50x100 µm: u = 5e-9 / 5e-9 = 1 m/s.
        let u = mean_velocity(&duct(50.0, 100.0), VolumetricFlowRate::from_ml_per_min(0.3));
        assert!((u.as_m_per_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reynolds_is_laminar_at_paper_flow_rates() {
        let water = Coolant::water_300k();
        // Calibrated default flow (0.3 mL/min/channel).
        let re_default = reynolds_number(
            &duct(50.0, 100.0),
            &water,
            VolumetricFlowRate::from_ml_per_min(0.3),
        );
        assert!(re_default > 10.0 && re_default < 200.0, "Re = {re_default}");
        // Table I verbatim flow (4.8 mL/min/channel) is still laminar.
        let re_verbatim = reynolds_number(
            &duct(50.0, 100.0),
            &water,
            VolumetricFlowRate::from_ml_per_min(4.8),
        );
        assert!(re_verbatim < 2300.0, "Re = {re_verbatim}");
    }

    #[test]
    fn reynolds_scales_linearly_with_flow() {
        let water = Coolant::water_300k();
        let d = duct(30.0, 100.0);
        let r1 = reynolds_number(&d, &water, VolumetricFlowRate::from_ml_per_min(0.1));
        let r2 = reynolds_number(&d, &water, VolumetricFlowRate::from_ml_per_min(0.2));
        assert!((r2 / r1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn narrower_duct_at_fixed_flow_has_lower_re() {
        // Re = ρ V̇ Dh / (μ A); both Dh and A shrink with width, but A shrinks
        // faster only in the numerator product... verify the actual trend.
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let re_wide = reynolds_number(&duct(50.0, 100.0), &water, flow);
        let re_narrow = reynolds_number(&duct(10.0, 100.0), &water, flow);
        // Re ∝ Dh/A = 2/(w+H): narrowing increases Re at fixed V̇.
        assert!(re_narrow > re_wide, "narrow {re_narrow} vs wide {re_wide}");
    }
}
