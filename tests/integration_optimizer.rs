//! End-to-end optimizer behaviour on the paper's scenarios (fast configs):
//! the optimum must beat both uniform baselines, respect the pressure
//! budget, and show the Fig. 6 profile shape. The width gradients the
//! optimizer runs on (discrete adjoint of the BVP, closed-form pressure
//! derivatives) are checked against a central-difference oracle on random
//! strip and MPSoC models.

use liquamod::prelude::*;
use liquamod::thermal_model::FlowDirection;
use proptest::prelude::*;

fn fast_config() -> OptimizationConfig {
    OptimizationConfig {
        segments: 6,
        mesh_intervals: 64,
        ..OptimizationConfig::fast()
    }
}

#[test]
fn test_a_optimum_beats_uniform_and_respects_pressure() {
    let params = ModelParams::date2012();
    let cmp = experiments::test_a(&params, &fast_config()).expect("test A runs");

    // Paper Fig. 5a shape: uniform baselines close, optimal clearly better.
    let uniform_gap =
        (cmp.minimum.gradient_k - cmp.maximum.gradient_k).abs() / cmp.maximum.gradient_k;
    assert!(
        uniform_gap < 0.2,
        "uniform cases should nearly tie: {uniform_gap:.3}"
    );
    assert!(
        cmp.gradient_reduction() > 0.10,
        "optimal should reduce the gradient by >10%: {:.3}",
        cmp.gradient_reduction()
    );

    // Pressure budget (paper Eq. 9).
    assert!(cmp.outcome.feasible, "pressure constraints must be met");
    for dp in &cmp.outcome.pressure_drops {
        assert!(
            dp.as_pascals() <= params.dp_max.as_pascals() * 1.02,
            "dp = {} bar exceeds the budget",
            dp.as_bar()
        );
    }

    // §V-B peak observation.
    assert!(cmp.peak_tracks_minimum_width(1.0));
}

#[test]
fn test_a_profile_tapers_toward_outlet() {
    let params = ModelParams::date2012();
    let cmp = experiments::test_a(&params, &fast_config()).expect("test A runs");
    match &cmp.optimal_widths()[0] {
        WidthProfile::PiecewiseConstant { widths } => {
            assert!(
                widths.last().unwrap().si() < widths.first().unwrap().si(),
                "Fig. 6a: outlet narrower than inlet, got {widths:?}"
            );
            // Mostly monotone narrowing.
            let down = widths
                .windows(2)
                .filter(|w| w[1].si() <= w[0].si() + 1e-9)
                .count();
            assert!(
                down >= widths.len() - 2,
                "mostly monotone taper, got {widths:?}"
            );
        }
        other => panic!("expected piecewise-constant profile, got {other:?}"),
    }
}

#[test]
fn test_b_narrows_over_hotspots() {
    // Fig. 6b: besides the global taper, the width dips where the local
    // flux exceeds its surroundings. Verify via correlation between the
    // combined segment flux and how much the width sits below w_max,
    // correcting for the global trend by comparing neighbours.
    let params = ModelParams::date2012();
    let config = OptimizationConfig {
        segments: liquamod::floorplan::testcase::TEST_B_SEGMENTS,
        mesh_intervals: 64,
        ..OptimizationConfig::fast()
    };
    let load = liquamod::floorplan::testcase::test_b();
    let cmp = experiments::test_b(&params, &config).expect("test B runs");
    let widths = match &cmp.optimal_widths()[0] {
        WidthProfile::PiecewiseConstant { widths } => widths.clone(),
        other => panic!("expected piecewise profile, got {other:?}"),
    };
    // Optimal improves on both baselines.
    assert!(
        cmp.gradient_reduction() > 0.10,
        "reduction {:.3}",
        cmp.gradient_reduction()
    );
    // Hotspot response: for interior segments, when the combined flux jumps
    // up relative to the previous segment, the width should not increase.
    let combined: Vec<f64> = load
        .top_w_cm2
        .iter()
        .zip(&load.bottom_w_cm2)
        .map(|(a, b)| a + b)
        .collect();
    let mut consistent = 0;
    let mut total = 0;
    for k in 1..widths.len() {
        let flux_jump = combined[k] - combined[k - 1];
        let width_step = widths[k].si() - widths[k - 1].si();
        if flux_jump.abs() > 40.0 {
            total += 1;
            if (flux_jump > 0.0 && width_step <= 1e-9) || (flux_jump < 0.0 && width_step >= -1e-9) {
                consistent += 1;
            }
        }
    }
    assert!(total > 0, "test B should contain significant flux jumps");
    assert!(
        consistent * 2 >= total,
        "width response should track flux jumps: {consistent}/{total}"
    );
}

#[test]
fn equal_pressure_coupling_holds_across_groups() {
    // A 2-group MPSoC-style model with unbalanced heat: Eq. (10) forces the
    // optimizer to equalize per-channel pressure drops across groups.
    let params = ModelParams::date2012();
    let config = OptimizationConfig {
        segments: 4,
        mesh_intervals: 48,
        ..OptimizationConfig::fast()
    };
    let (_, cmp) = experiments::mpsoc_small_for_tests(&params, &config).expect("runs");
    let drops: Vec<f64> = cmp
        .outcome
        .pressure_drops
        .iter()
        .map(|p| p.as_pascals())
        .collect();
    let mean = drops.iter().sum::<f64>() / drops.len() as f64;
    for dp in &drops {
        assert!(
            (dp - mean).abs() / params.dp_max.as_pascals() < 0.02,
            "per-group drops should equalize: {drops:?}"
        );
    }
}

#[test]
fn solver_ablation_all_reduce_gradient() {
    let params = ModelParams::date2012();
    for solver in [
        SolverKind::LbfgsB,
        SolverKind::ProjGrad,
        SolverKind::NelderMead,
    ] {
        let config = OptimizationConfig {
            segments: 4,
            mesh_intervals: 48,
            solver,
            ..OptimizationConfig::fast()
        };
        let cmp = experiments::test_a(&params, &config).expect("test A runs");
        assert!(
            cmp.gradient_reduction() > 0.05,
            "{solver:?} should find >5% reduction, got {:.3}",
            cmp.gradient_reduction()
        );
    }
}

#[test]
fn objective_ablation_both_forms_agree() {
    // ‖T'‖² and ‖q‖² are proportional for a single column, so the optima
    // must essentially coincide.
    let params = ModelParams::date2012();
    let base = fast_config();
    let grad_cfg = OptimizationConfig {
        objective: ObjectiveKind::GradientSquared,
        ..base.clone()
    };
    let heat_cfg = OptimizationConfig {
        objective: ObjectiveKind::HeatflowSquared,
        ..base
    };
    let a = experiments::test_a(&params, &grad_cfg).expect("runs");
    let b = experiments::test_a(&params, &heat_cfg).expect("runs");
    let rel = (a.optimal.gradient_k - b.optimal.gradient_k).abs() / a.optimal.gradient_k;
    assert!(rel < 0.05, "objective forms diverge: {rel:.3}");
}

/// Relative agreement the adjoint gradient must reach against the
/// central-difference oracle: `max_k |g_k − fd_k| ≤ GRADIENT_RTOL·max_k |fd_k|`.
const GRADIENT_RTOL: f64 = 1e-6;

/// Central-difference width step: 1e-4 of the manufacturable range, so the
/// oracle's truncation error (~(step/w)²) and round-off (~ε·w/step) both sit
/// well below `GRADIENT_RTOL`.
fn fd_step(params: &ModelParams) -> f64 {
    1e-4 * (params.w_max.si() - params.w_min.si())
}

/// Column and segment of flat width parameter `index` (the adjoint's
/// layout: column by column, one entry per segment, one per uniform
/// column).
fn locate(model: &Model, index: usize) -> (usize, usize) {
    let mut rest = index;
    for (column, c) in model.columns().iter().enumerate() {
        let n = c.width().parameter_count();
        if rest < n {
            return (column, rest);
        }
        rest -= n;
    }
    panic!("width parameter {index} out of range");
}

/// `model` with flat width parameter `index` moved by `delta` metres.
fn nudged(model: &Model, index: usize, delta: f64) -> Model {
    let (column, k) = locate(model, index);
    let moved = |w: Length| Length::from_meters(w.si() + delta);
    let profile = match model.columns()[column].width() {
        WidthProfile::Uniform(w) => WidthProfile::uniform(moved(*w)),
        WidthProfile::PiecewiseConstant { widths } => {
            let mut widths = widths.clone();
            widths[k] = moved(widths[k]);
            WidthProfile::piecewise_constant(widths)
        }
        other => panic!("not differentiable: {other:?}"),
    };
    let mut out = model.clone();
    out.set_width_profile(column, profile).expect("valid width");
    out
}

/// Worst component error of `exact` against the oracle, relative to the
/// oracle's largest component.
fn relative_error(exact: &[f64], oracle: &[f64]) -> f64 {
    assert_eq!(exact.len(), oracle.len());
    let scale = oracle.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    let worst = exact
        .iter()
        .zip(oracle)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    worst / scale
}

/// Checks the adjoint cost gradient and the pressure-drop Jacobian of
/// `model` against central differences.
fn check_gradients(model: &Model, kind: ObjectiveKind, mesh_intervals: usize) {
    let options = SolveOptions::with_mesh_intervals(mesh_intervals);
    let mut ws = SolveWorkspace::new();
    let mut gradient = Vec::new();
    let cost = model
        .solve_cost_gradient_with(&options, kind, &mut ws, &mut gradient)
        .expect("adjoint solve");
    let costs = model.solve_costs_with(&options, &mut ws).expect("solve");
    assert_eq!(
        cost.to_bits(),
        costs.get(kind).to_bits(),
        "cost is the same bits"
    );

    let mut dp_gradient = Vec::new();
    model
        .pressure_drop_gradient(&mut dp_gradient)
        .expect("pressure gradient");
    let h = fd_step(model.params());
    let n = gradient.len();
    let mut fd = vec![0.0; n];
    let mut dp_fd = vec![0.0; n];
    let drop_of = |m: &Model, index: usize| {
        m.pressure_drops().expect("drops")[locate(m, index).0].as_pascals()
    };
    for k in 0..n {
        let (plus, minus) = (nudged(model, k, h), nudged(model, k, -h));
        let jp = plus.solve_costs_with(&options, &mut ws).unwrap().get(kind);
        let jm = minus.solve_costs_with(&options, &mut ws).unwrap().get(kind);
        fd[k] = (jp - jm) / (2.0 * h);
        dp_fd[k] = (drop_of(&plus, k) - drop_of(&minus, k)) / (2.0 * h);
    }
    let err = relative_error(&gradient, &fd);
    assert!(
        err < GRADIENT_RTOL,
        "cost gradient off by {err:e} ({kind:?})\nadjoint {gradient:?}\noracle  {fd:?}"
    );
    let err = relative_error(&dp_gradient, &dp_fd);
    assert!(
        err < GRADIENT_RTOL,
        "pressure gradient off by {err:e}\nexact  {dp_gradient:?}\noracle {dp_fd:?}"
    );
}

/// Maps a unit draw to a normalized width, pinning the outer 15 % of draws
/// at exactly the box faces (the optimizer's active bounds).
fn box_width(params: &ModelParams, u: f64) -> f64 {
    let t = if u < 0.15 {
        0.0
    } else if u > 0.85 {
        1.0
    } else {
        (u - 0.15) / 0.7
    };
    let w = params.w_min.si() + t * (params.w_max.si() - params.w_min.si());
    // Keep the oracle's stencil off the aspect-ratio kink at w = H_C.
    let guard = 10.0 * fd_step(params);
    if (w - params.h_c.si()).abs() < guard {
        params.h_c.si() - guard
    } else {
        w
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random strip stacks: 1–4 columns, uniform or 1–4-segment profiles
    /// with widths pinned at the box faces, grouped columns, reverse flow,
    /// developing flow, a shallow channel whose widths straddle the
    /// aspect-ratio kink, and both cost integrals.
    #[test]
    fn adjoint_gradient_matches_central_differences_on_strips(
        n_cols in 1usize..5,
        flags in 0usize..64,
        draws in proptest::collection::vec(0.0f64..1.0, 32..33),
    ) {
        let mut params = ModelParams::date2012();
        params.developing_flow = flags & 1 != 0;
        if flags & 2 != 0 {
            // H_C inside [w_min, w_max]: the Shah–London aspect ratio
            // switches branch within the box.
            params.h_c = Length::from_micrometers(30.0);
        }
        let kind = if flags & 4 != 0 {
            ObjectiveKind::HeatflowSquared
        } else {
            ObjectiveKind::GradientSquared
        };
        let d = Length::from_centimeters(1.0);
        let mut draw = draws.iter().copied();
        let mut next = move || draw.next().expect("enough draws");
        let columns: Vec<ChannelColumn> = (0..n_cols)
            .map(|c| {
                let n_segments = 1 + (next() * 4.0) as usize;
                let width = if (flags >> 3) & 1 != 0 && c == 0 {
                    WidthProfile::uniform(Length::from_meters(box_width(&params, next())))
                } else {
                    WidthProfile::piecewise_constant(
                        (0..n_segments)
                            .map(|_| Length::from_meters(box_width(&params, next())))
                            .collect(),
                    )
                };
                let group = if (flags >> 4) & 1 != 0 { 1 + c % 3 } else { 1 };
                let heat = HeatProfile::equal_segments(
                    &[
                        LinearHeatFlux::from_w_per_m(20.0 + 120.0 * next()),
                        LinearHeatFlux::from_w_per_m(20.0 + 120.0 * next()),
                    ],
                    d,
                );
                let flow = if (flags >> 5) & 1 != 0 && c % 2 == 1 {
                    FlowDirection::Reverse
                } else {
                    FlowDirection::Forward
                };
                ChannelColumn::new(width)
                    .with_group_size(group)
                    .with_heat_top(heat.scaled(group as f64))
                    .with_heat_bottom(heat.scaled(0.5 * group as f64))
                    .with_flow_direction(flow)
            })
            .collect();
        let model = Model::new(params, d, columns).expect("valid model");
        check_gradients(&model, kind, 64);
    }

    /// The paper's MPSoC stacks (Fig. 7 architectures, grouped columns fed
    /// by rasterized floorplans) with random piecewise-constant widths.
    #[test]
    fn adjoint_gradient_matches_central_differences_on_mpsocs(
        arch in 0usize..3,
        groups in 0usize..3,
        segments in 1usize..5,
        flags in 0usize..4,
        draws in proptest::collection::vec(0.0f64..1.0, 16..17),
    ) {
        let params = ModelParams::date2012();
        let arch = &liquamod::floorplan::arch::all()[arch];
        let level = if flags & 1 != 0 { PowerLevel::Peak } else { PowerLevel::Average };
        let kind = if flags & 2 != 0 {
            ObjectiveKind::HeatflowSquared
        } else {
            ObjectiveKind::GradientSquared
        };
        let n_groups = [1, 2, 4][groups];
        let mut model = mpsoc_model(arch, level, &params, n_groups).expect("scenario").model;
        for c in 0..n_groups {
            let widths = (0..segments)
                .map(|k| Length::from_meters(box_width(&params, draws[(c * segments + k) % 16])))
                .collect();
            model
                .set_width_profile(c, WidthProfile::piecewise_constant(widths))
                .expect("valid widths");
        }
        check_gradients(&model, kind, 32);
    }
}

#[test]
fn width_gradient_rejects_piecewise_linear_profiles() {
    let params = ModelParams::date2012();
    let column = ChannelColumn::new(WidthProfile::piecewise_linear(vec![
        params.w_max,
        params.w_min,
    ]));
    let model = Model::new(params, Length::from_centimeters(1.0), vec![column]).unwrap();
    let mut gradient = Vec::new();
    let err = model
        .solve_cost_gradient_with(
            &SolveOptions::with_mesh_intervals(16),
            ObjectiveKind::GradientSquared,
            &mut SolveWorkspace::new(),
            &mut gradient,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            liquamod::thermal_model::ThermalModelError::UnsupportedProfile { column: 0 }
        ),
        "{err}"
    );
    assert!(model.pressure_drop_gradient(&mut gradient).is_err());
}
