//! `plant-replay`: frozen-uniform controller replays of seeded
//! Average/Peak traces on Arch1–3 at full resolution (100 × 22, 4 groups
//! per cavity), each trace once under backward Euler and once under the
//! exponential stepper. The optimizer does no work here; `grid-sim` does
//! nearly all of it. A request replays one trace under both steppers; one
//! round replays every trace.

use std::collections::BTreeMap;
use std::time::Instant;

use liquamod::floorplan::arch::Architecture;
use liquamod::floorplan::PowerLevel;
use liquamod::grid_sim::{ExponentialOptions, StepperKind};
use liquamod::mpsoc::{arch_trace, ArchSpec, MpsocConfig, MpsocModulated, MpsocTrace};
use liquamod::transient::{ModulationPolicy, TransientOutcome};

use super::{check_trace, mpsoc_kernels, Round, Size, Ticks, Workload};
use crate::rng::Rng;

/// Seeded traces per architecture and round. Each trace is one average and
/// one peak phase, so every trace has one power step and costs about the
/// same: with four-phase traces the seeded orders held one to three steps
/// and moved a round's cost by up to a quarter from seed to seed.
const TRACES_PER_ARCH: usize = 4;

/// Phase length of every replayed trace, seconds.
const PHASE_SECONDS: f64 = 0.032;

/// Largest per-step backward-Euler energy residual, as a share of the
/// energy injected over the step: stored − Δt·(injected − advected) closes
/// up to the linear solver's tolerance.
const ENERGY_TOLERANCE: f64 = 1e-3;

/// The `plant-replay` workload.
#[derive(Debug, Clone)]
pub struct PlantReplay {
    /// The replayed traces, `TRACES_PER_ARCH` per architecture.
    replays: Vec<(ArchSpec, Architecture, MpsocTrace)>,
    /// The stack configuration under backward Euler and under the
    /// exponential stepper.
    steppers: [MpsocConfig; 2],
}

impl PlantReplay {
    /// Draws each architecture's phase orders from `seed`, rasterizes the
    /// traces and checks them.
    ///
    /// # Errors
    ///
    /// The stack family rejects its configuration or a phase has no power.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 3);
        let mut config = MpsocConfig::fast();
        let levels = match size {
            Size::Full => vec![PowerLevel::Average, PowerLevel::Peak],
            Size::Small => {
                config.nz = 11;
                config.n_groups = 2;
                vec![PowerLevel::Peak]
            }
        };
        let mut replays = Vec::new();
        for arch in ArchSpec::all() {
            let architecture = arch.architecture();
            MpsocModulated::for_arch(&architecture, config.clone()).map_err(|e| e.to_string())?;
            for _ in 0..TRACES_PER_ARCH {
                // The phases in a seeded order.
                let mut levels = levels.clone();
                rng.shuffle(&mut levels);
                let trace = arch_trace(&architecture, &levels, PHASE_SECONDS, config.nx, config.nz);
                check_trace(&trace)?;
                replays.push((arch, architecture.clone(), trace));
            }
        }
        let mut exponential = config.clone();
        exponential.stepper = StepperKind::Exponential(ExponentialOptions::default());
        Ok(Self {
            replays,
            steppers: [config, exponential],
        })
    }

    /// Replays `trace` frozen on `architecture` under `config`'s stepper.
    fn replay(
        architecture: &Architecture,
        config: &MpsocConfig,
        trace: &MpsocTrace,
        r: &mut Round,
    ) -> Option<TransientOutcome> {
        let outcome = MpsocModulated::for_arch(architecture, config.clone())
            .and_then(|family| family.controller(ModulationPolicy::FrozenUniform))
            .and_then(|controller| controller.run(trace));
        match outcome {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                r.fail(format!("replay failed: {e}"));
                None
            }
        }
    }
}

impl Workload for PlantReplay {
    fn round(&self, ticks: &mut Ticks) -> Round {
        let steps: usize = self
            .replays
            .iter()
            .map(|(_, _, t)| {
                (t.total_duration_seconds() / self.steppers[0].dt_seconds).round() as usize
            })
            .sum();
        let mut r = Round {
            attempted: 2 * steps as u64,
            ..Round::default()
        };
        let started = Instant::now();
        let mut gap = 0.0f64;
        for (arch, architecture, trace) in &self.replays {
            let request = Instant::now();
            let [be, exp] = self
                .steppers
                .each_ref()
                .map(|config| Self::replay(architecture, config, trace, &mut r));
            for outcome in be.iter().chain(exp.iter()) {
                for s in &outcome.snapshots {
                    let values = [s.peak_k, s.min_k, s.gradient_k, s.stored_joules];
                    r.check_finite(arch.label(), &values);
                    r.fingerprint.values(&values);
                }
                r.ops += outcome.snapshots.len() as u64;
                r.fingerprint
                    .count("plant.steps", outcome.snapshots.len() as u64);
            }
            if let Some(be) = &be {
                let dt = be.dt_seconds;
                for s in &be.snapshots {
                    let injected = s.injected_w * dt;
                    let residual = s.stored_joules - (injected - s.advected_w * dt);
                    if residual.abs() > ENERGY_TOLERANCE * injected.max(1e-12) {
                        r.fail(format!(
                            "{} at t = {} s: energy residual {residual} J of {injected} J",
                            arch.label(),
                            s.time_seconds
                        ));
                    }
                }
                r.gradients.push(be.peak_gradient_k());
            }
            if let (Some(be), Some(exp)) = (&be, &exp) {
                gap = gap.max((exp.peak_gradient_k() - be.peak_gradient_k()).abs());
            }
            r.latencies.push(request.elapsed().as_secs_f64());
            ticks.tick();
        }
        r.extra.insert("grid_sim.stepper_gap_k", gap);
        r.wall_s = ticks.wall_since(started);
        r
    }

    fn kernels(&self, out: &mut BTreeMap<&'static str, f64>) {
        // No optimizer runs in a frozen replay, so no model probe.
        mpsoc_kernels(&self.steppers[1], self.replays[0].0, None, out);
    }

    fn aliases(&self) -> [&'static str; 4] {
        [
            "plant_steps_per_s",
            "replay_p50_s",
            "replay_p90_s",
            "plant_gradient_k",
        ]
    }
}
