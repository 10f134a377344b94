//! Optimizer performance: cost of a full Test-A design run vs control
//! resolution (segment count), and the cost of one width gradient by the
//! discrete adjoint against the finite-difference oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use liquamod::optimal_control::{gradient, Objective};
use liquamod::prelude::*;
use std::cell::RefCell;

fn bench_design_run(c: &mut Criterion) {
    let params = ModelParams::date2012();
    let mut group = c.benchmark_group("optimizer/test_a_design");
    group.sample_size(10);
    for segments in [4usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(segments), &segments, |b, &k| {
            let config = OptimizationConfig {
                segments: k,
                mesh_intervals: 48,
                ..OptimizationConfig::fast()
            };
            b.iter(|| experiments::test_a(&params, &config).expect("runs"));
        });
    }
    group.finish();
}

/// The strip's Eq. (7) cost over eight normalized segment widths, with the
/// model and solve workspace reused across evaluations.
struct BvpCost {
    scratch: RefCell<(Model, SolveWorkspace)>,
    solve: SolveOptions,
    dim: usize,
}

impl BvpCost {
    fn with_widths<R>(&self, x: &[f64], f: impl FnOnce(&Model, &mut SolveWorkspace) -> R) -> R {
        let mut scratch = self.scratch.borrow_mut();
        let (model, ws) = &mut *scratch;
        let widths = x
            .iter()
            .map(|t| Length::from_micrometers(10.0 + t.clamp(0.0, 1.0) * 40.0))
            .collect();
        model
            .set_width_profile(0, WidthProfile::piecewise_constant(widths))
            .expect("valid widths");
        f(model, ws)
    }
}

impl Objective for BvpCost {
    fn dim(&self) -> usize {
        self.dim
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.with_widths(x, |m, ws| {
            m.solve_costs_with(&self.solve, ws)
                .expect("solves")
                .gradient_squared
        })
    }
    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let mut dw = Vec::with_capacity(self.dim);
        let cost = self.with_widths(x, |m, ws| {
            m.solve_cost_gradient_with(&self.solve, ObjectiveKind::GradientSquared, ws, &mut dw)
                .expect("solves")
        });
        for (g, d) in grad.iter_mut().zip(&dw) {
            *g = d * 40e-6;
        }
        cost
    }
}

/// One gradient of the dim-8 cost: the discrete adjoint (one forward and
/// one transposed solve) against the forward-difference oracle (`dim` + 1
/// forward solves, the cost every gradient had before the adjoint).
fn bench_gradient(c: &mut Criterion) {
    let params = ModelParams::date2012();
    let col = ChannelColumn::new(WidthProfile::uniform(params.w_max))
        .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
        .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
    let model = Model::new(params, Length::from_centimeters(1.0), vec![col]).expect("model builds");
    let obj = BvpCost {
        scratch: RefCell::new((model, SolveWorkspace::new())),
        solve: SolveOptions::with_mesh_intervals(96),
        dim: 8,
    };
    let x = vec![0.7; 8];

    let mut group = c.benchmark_group("optimizer/gradient_dim8");
    group.sample_size(10);
    group.bench_function("adjoint", |b| {
        let mut grad = vec![0.0; 8];
        b.iter(|| obj.value_and_gradient(&x, &mut grad));
    });
    group.bench_function("fd_oracle", |b| {
        let mut grad = vec![0.0; 8];
        b.iter(|| {
            let f0 = obj.value(&x);
            gradient::forward_diff(&obj, &x, f0, gradient::DEFAULT_RELATIVE_STEP, &mut grad);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_design_run, bench_gradient);
criterion_main!(benches);
