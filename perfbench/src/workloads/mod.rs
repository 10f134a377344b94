//! The four workloads and what they share: the per-round record, the
//! exact-count fingerprint and the kernel probes on a workload's own stack.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use liquamod::floorplan::PowerLevel;
use liquamod::grid_sim::{StepperKind, TransientOptions};
use liquamod::mpsoc::{ArchSpec, MpsocConfig, MpsocLoad, MpsocModulated, MpsocTrace};
use liquamod::thermal_model::{SolveOptions, SolveWorkspace};
use liquamod::transient::ModulatedStack;

use crate::layers::{median_us, Layers};

pub mod design_sweep;
pub mod fleet_faults;
pub mod plant_replay;
pub mod serve_stream;

/// How much work one round carries: `Full` is the benchmark, `Small` the
/// self-test's seconds-long variant with the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workload sizes.
    Full,
    /// Reduced sizes for the self-test.
    Small,
}

/// Everything one round of a workload produced. A round is the fixed unit
/// of work the seed defines; a run repeats it until its time is up.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// Operations the round attempted (decisions, designs, plant steps or
    /// stack-segments, per workload).
    pub attempted: u64,
    /// Operations that completed.
    pub ops: u64,
    /// One message per failed operation or failed output check.
    pub failures: Vec<String>,
    /// Latency of every user request the round served, seconds.
    pub latencies: Vec<f64>,
    /// The time-peak inter-layer gradient of every thermal result the
    /// round produced (decision, design, backward-Euler replay or
    /// stack-segment), kelvin.
    pub gradients: Vec<f64>,
    /// Counts and bit patterns that must repeat exactly across rounds.
    pub fingerprint: Fingerprint,
    /// Wall time of the library calls the round made, by layer.
    pub layers: Layers,
    /// Workload-specific per-round quantities (`serve.cold_decisions`,
    /// `grid_sim.stepper_gap_k`, …), reported in the traced run.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Fails the round with `what` unless every value is finite.
    pub fn check_finite(&mut self, what: &str, values: &[f64]) {
        if let Some(v) = values.iter().find(|v| !v.is_finite()) {
            self.fail(format!("{what}: non-finite value {v}"));
        }
    }
}

/// The deterministic content of a round: counts and the bit patterns of
/// the thermal results. Two rounds of one seed must agree exactly at any
/// worker count; timings are never folded in.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Named exact counts (decisions, evaluations, epochs, …).
    pub counts: BTreeMap<&'static str, u64>,
    /// FNV-1a hash over the bit patterns of every recorded result value.
    pub bits: u64,
}

impl Fingerprint {
    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Folds the exact bit patterns of `values` into the hash.
    pub fn values(&mut self, values: &[f64]) {
        if self.bits == 0 {
            self.bits = 0xCBF2_9CE4_8422_2325;
        }
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.bits ^= u64::from(byte);
                self.bits = self.bits.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
}

/// Set-up samples taken at each tick: `fleet-faults` ticks only twice a
/// round and runs two rounds, so one sample per tick would give it five.
const SAMPLES_PER_TICK: usize = 8;

/// The run's set-up sampler, handed to a round. The round ticks it after
/// each of its requests, so that the set-up samples are spread over the
/// whole run as the rounds' own timings are: on a shared host the machine
/// switches between a fast and a slow speed every few hundred milliseconds,
/// and set-ups timed back to back at the start of a run would all catch
/// one of them. The time the samples take is kept out of the round's wall.
pub struct Ticks<'a> {
    sample: Option<&'a mut dyn FnMut()>,
    spent: Duration,
}

impl<'a> Ticks<'a> {
    /// Ticks that take a set-up sample through `sample`.
    pub fn new(sample: &'a mut dyn FnMut()) -> Self {
        Self {
            sample: Some(sample),
            spent: Duration::ZERO,
        }
    }

    /// Ticks that sample nothing (traced rounds and the self-test).
    #[must_use]
    pub fn none() -> Self {
        Self {
            sample: None,
            spent: Duration::ZERO,
        }
    }

    /// Takes [`SAMPLES_PER_TICK`] set-up samples, between two requests of
    /// a round.
    pub fn tick(&mut self) {
        if let Some(sample) = &mut self.sample {
            let t0 = Instant::now();
            for _ in 0..SAMPLES_PER_TICK {
                sample();
            }
            self.spent += t0.elapsed();
        }
    }

    /// Wall seconds since `started`, less the time spent on samples.
    #[must_use]
    pub fn wall_since(&self, started: Instant) -> f64 {
        started.elapsed().saturating_sub(self.spent).as_secs_f64()
    }
}

/// One workload: built from its seed by its `setup`, then run round after
/// round.
pub trait Workload {
    /// Runs one round, ticking `ticks` after each request. Library errors
    /// and failed checks are recorded in the round, never raised.
    fn round(&self, ticks: &mut Ticks) -> Round;

    /// Times the kernels the workload's layers are made of — on the
    /// workload's own model, mesh and stack — from outside, inserting
    /// per-layer metrics into `out`. Traced runs only.
    fn kernels(&self, out: &mut BTreeMap<&'static str, f64>);

    /// The workload's names for the uniform end-to-end metrics, in the
    /// order throughput, p50, p90, gradient (printed in the text report).
    fn aliases(&self) -> [&'static str; 4];
}

/// The worker count every workload fans out over: the machine's available
/// parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The set-up's input check: every phase of a generated trace must inject
/// a finite, positive power, so that every operation has work to do.
///
/// # Errors
///
/// Names the first phase that fails.
pub fn check_trace(trace: &MpsocTrace) -> Result<(), String> {
    for phase in trace.phases() {
        let watts = phase.load.total_power().as_watts();
        if !(watts.is_finite() && watts > 0.0) {
            return Err(format!("phase {} injects {watts} W", phase.label));
        }
    }
    Ok(())
}

/// Times the kernels of an MPSoC-stack workload from outside, on `arch`
/// under the workload's `config`: the floorplan rasterization at the
/// stack's resolution; `Model::solve_with` on the joint reduced model at
/// the optimizer's mesh (stored under `model_key`, when the workload runs
/// the optimizer); the exponential stepper's construction; and one
/// `step()` of each stepper.
pub fn mpsoc_kernels(
    config: &MpsocConfig,
    arch: ArchSpec,
    model_key: Option<&'static str>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let architecture = arch.architecture();
    let (nx, nz) = (config.nx, config.nz);
    out.insert(
        "floorplan.raster_ms",
        median_us(5, 0.2, || {
            MpsocLoad::from_arch(&architecture, PowerLevel::Peak, nx, nz)
        }) / 1e3,
    );
    let load = MpsocLoad::from_arch(&architecture, PowerLevel::Peak, nx, nz);
    let Ok(family) = MpsocModulated::for_arch(&architecture, config.clone()) else {
        return;
    };
    if let (Some(key), Ok(model)) = (model_key, family.reduced_model(&load)) {
        let options = SolveOptions::with_mesh_intervals(config.optimizer.mesh_intervals);
        let mut ws = SolveWorkspace::new();
        out.insert(
            key,
            median_us(20, 0.3, || model.solve_with(&options, &mut ws)),
        );
    }
    let Ok(stack) = family.build_stack(&load, &family.uniform_widths()) else {
        return;
    };
    let options = |stepper: StepperKind| TransientOptions {
        dt_seconds: config.dt_seconds,
        steps: 0,
        initial: None,
        solver: config.solver.clone(),
        stepper,
    };
    let be = options(StepperKind::BackwardEuler);
    let exp = options(match &config.stepper {
        StepperKind::Exponential(o) => StepperKind::Exponential(o.clone()),
        StepperKind::BackwardEuler => StepperKind::Exponential(Default::default()),
    });
    out.insert(
        "grid_sim.exp_build_ms",
        median_us(3, 0.3, || stack.transient_stepper(&exp).is_ok()) / 1e3,
    );
    for (key, opts) in [("grid_sim.be_step_us", &be), ("grid_sim.exp_step_us", &exp)] {
        if let Ok(mut stepper) = stack.transient_stepper(opts) {
            out.insert(key, median_us(20, 0.3, || stepper.step().is_ok()));
        }
    }
}
