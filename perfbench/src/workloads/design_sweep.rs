//! `design-sweep`: the paper's design-time computation. Cold-start steady
//! designs — every one starting from uniform-maximum widths — over a
//! seeded grid of Test-B strip loads × flux scales × flow scales, at the
//! publication fidelity (12 control segments, 256 mesh intervals), fanned
//! over the worker pool by `run_sweep`. A request is one load's flux × flow
//! designs; one round is one request per load, in turn.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::Instant;

use liquamod::prelude::{ModelParams, SolveOptions, SolveWorkspace};
use liquamod::{
    run_sweep, strip_model, ExecutionMode, LoadSpec, OptimizationConfig, SweepGrid, SweepOptions,
    SweepRow,
};

use super::{Round, Size, Ticks, Workload};
use crate::layers::median_us;
use crate::rng::Rng;

/// The `design-sweep` workload.
#[derive(Debug, Clone)]
pub struct DesignSweep {
    /// One sweep request per Test-B load.
    requests: Vec<SweepGrid>,
    options: SweepOptions,
}

impl DesignSweep {
    /// Draws the Test-B load seeds from `seed` (the flux and flow axes are
    /// fixed) and checks that every load builds a model.
    ///
    /// # Errors
    ///
    /// A load's model cannot be built.
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 2);
        let (loads, config) = match size {
            Size::Full => (
                32,
                OptimizationConfig {
                    segments: 12,
                    mesh_intervals: 256,
                    ..OptimizationConfig::default()
                },
            ),
            Size::Small => (
                1,
                OptimizationConfig {
                    segments: 4,
                    mesh_intervals: 48,
                    ..OptimizationConfig::fast()
                },
            ),
        };
        let requests: Vec<SweepGrid> = (0..loads)
            .map(|_| SweepGrid {
                loads: vec![LoadSpec::TestB {
                    seed: rng.next_u64(),
                }],
                flux_scales: vec![0.75, 1.0],
                flow_scales: vec![0.75, 1.25],
            })
            .collect();
        let params = ModelParams::date2012();
        // Every design's load must build a model.
        for grid in &requests {
            for &flux in &grid.flux_scales {
                strip_model(&grid.loads[0].strip_load(flux), &params).map_err(|e| e.to_string())?;
            }
        }
        let options = SweepOptions {
            params,
            config,
            mode: ExecutionMode::Parallel {
                workers: NonZeroUsize::new(workers),
            },
            warm_start: false,
        };
        Ok(Self { requests, options })
    }
}

/// Checks one design — finite, feasible, not worse than its uniform
/// maximum-width start — and folds it into `r`.
fn check_design(row: &SweepRow, r: &mut Round) {
    let label = row.variant.label();
    let values = [
        row.gradient_opt_k,
        row.gradient_min_k,
        row.gradient_max_k,
        row.peak_opt_celsius,
        row.max_pressure_opt_bar,
        row.pump_power_opt_w,
    ];
    r.check_finite(&label, &values);
    if !row.feasible {
        r.fail(format!("{label}: optimum violates the pressure limit"));
    }
    if row.gradient_opt_k > row.gradient_max_k {
        r.fail(format!(
            "{label}: optimal gradient {} K worse than its uniform start {} K",
            row.gradient_opt_k, row.gradient_max_k
        ));
    }
    r.fingerprint.values(&values);
    r.fingerprint.count("sweep.designs", 1);
    r.fingerprint
        .count("optimizer.evaluations", row.evaluations as u64);
    r.gradients.push(row.gradient_opt_k);
    r.ops += 1;
}

impl Workload for DesignSweep {
    fn round(&self, ticks: &mut Ticks) -> Round {
        let mut r = Round {
            attempted: self.requests.iter().map(SweepGrid::len).sum::<usize>() as u64,
            ..Round::default()
        };
        let started = Instant::now();
        for grid in &self.requests {
            let request = Instant::now();
            match run_sweep(grid, &self.options) {
                Ok(report) => {
                    r.layers.add(
                        "sweep.worker_s",
                        report.workers as f64 * report.wall.as_secs_f64(),
                    );
                    for row in &report.rows {
                        check_design(row, &mut r);
                    }
                }
                Err(e) => r.fail(format!("sweep failed: {e}")),
            }
            r.latencies.push(request.elapsed().as_secs_f64());
            ticks.tick();
        }
        r.wall_s = ticks.wall_since(started);
        r
    }

    fn kernels(&self, out: &mut BTreeMap<&'static str, f64>) {
        let load = &self.requests[0].loads[0];
        out.insert(
            "floorplan.raster_ms",
            median_us(5, 0.1, || load.strip_load(1.0)) / 1e3,
        );
        let Ok(model) = strip_model(&load.strip_load(1.0), &self.options.params) else {
            return;
        };
        let options = SolveOptions::with_mesh_intervals(self.options.config.mesh_intervals);
        let mut ws = SolveWorkspace::new();
        out.insert(
            "thermal_model.solve_us.strip256",
            median_us(20, 0.3, || model.solve_with(&options, &mut ws)),
        );
    }

    fn aliases(&self) -> [&'static str; 4] {
        [
            "designs_per_s",
            "design_p50_s",
            "design_p90_s",
            "design_gradient_k",
        ]
    }
}
