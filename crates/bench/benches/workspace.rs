//! Workspace-reused vs fresh BVP solve path.
//!
//! Quantifies the allocation-reuse win of `Model::solve_with` + a long-lived
//! `SolveWorkspace` (mesh cached, banded system factored in place into
//! recycled storage) against the one-shot `Model::solve`, at the mesh sizes
//! the optimizer actually uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use liquamod::prelude::*;

fn strip(params: &ModelParams) -> Model {
    let column = ChannelColumn::new(WidthProfile::uniform(params.w_max))
        .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
        .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
    Model::new(params.clone(), Length::from_centimeters(1.0), vec![column]).expect("model builds")
}

fn bench_fresh_vs_reused(c: &mut Criterion) {
    let params = ModelParams::date2012();
    let model = strip(&params);
    let mut group = c.benchmark_group("solve_workspace");
    for mesh in [96usize, 256, 512] {
        let opts = SolveOptions::with_mesh_intervals(mesh);
        group.bench_with_input(BenchmarkId::new("fresh", mesh), &mesh, |b, _| {
            b.iter(|| model.solve(&opts).expect("solves"));
        });
        group.bench_with_input(BenchmarkId::new("reused", mesh), &mesh, |b, _| {
            let mut ws = SolveWorkspace::new();
            b.iter(|| model.solve_with(&opts, &mut ws).expect("solves"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fresh_vs_reused);
criterion_main!(benches);
