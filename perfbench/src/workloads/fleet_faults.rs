//! `fleet-faults`: a three-stack fleet (Arch1–3, migrating peaks) under an
//! under-provisioned pump budget. A round runs it healthy through
//! `run_fleet` with predictive allocation, then fault-aware through
//! `run_faulted_fleet` under a fault schedule that holds every fault kind,
//! each on a seeded stack. Both runs use the coarse stack of `serve-stream`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::Instant;

use liquamod::fleet::{
    allocate_with, BudgetPolicy, FleetOptions, PredictiveContext, PumpBudget, StackRun, StackSpec,
    SurrogateModel,
};
use liquamod::mpsoc::{ArchSpec, MpsocTraceSpec};
use liquamod::transient::EpochPolicy;
use liquamod::{
    run_faulted_fleet, run_fleet, DegradedKind, ExecutionMode, FaultEvent, FaultSchedule,
    FaultedFleetOutcome,
};

use super::serve_stream::coarse_config;
use super::{check_trace, mpsoc_kernels, Round, Size, Ticks, Workload};
use crate::layers::median_us;
use crate::rng::Rng;

/// The `fleet-faults` workload.
#[derive(Debug)]
pub struct FleetFaults {
    stacks: Vec<StackSpec>,
    options: FleetOptions,
    schedule: FaultSchedule,
    /// The allocator's inputs at the last reallocation boundary of the
    /// latest healthy run, for the `allocate_with` probe.
    boundary: RefCell<Option<Boundary>>,
}

impl FleetFaults {
    /// Draws the fault schedule's stacks from `seed` and checks it and every
    /// stack's trace.
    ///
    /// # Errors
    ///
    /// A schedule is malformed for the fleet or a phase has no power.
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 4);
        let archs = ArchSpec::all();
        let phases = match size {
            Size::Full => archs.len(),
            Size::Small => 1,
        };
        // Stack i peaks in phase i: the hot spot migrates across the fleet.
        let stacks: Vec<StackSpec> = archs
            .iter()
            .enumerate()
            .map(|(i, &arch)| StackSpec {
                arch,
                trace: MpsocTraceSpec::migrating_peak(i, phases),
            })
            .collect();
        let options = FleetOptions {
            config: coarse_config(size),
            policy: EpochPolicy::FixedCadence { epoch_steps: 8 },
            allocation: BudgetPolicy::Predictive,
            // Every stack's share averages 80 % of its nominal flow.
            budget: PumpBudget::per_stack(0.8, stacks.len()),
            phase_seconds: 0.032,
            segments_per_phase: 2,
            mode: ExecutionMode::Parallel {
                workers: NonZeroUsize::new(workers),
            },
        };
        let horizon = phases as f64 * options.phase_seconds;
        let schedule = seeded_schedule(&mut rng, horizon, stacks.len());
        schedule.validate(stacks.len()).map_err(|e| e.to_string())?;
        for stack in &stacks {
            let config = &options.config;
            check_trace(&stack.trace.trace(
                &stack.arch.architecture(),
                options.phase_seconds,
                config.nx,
                config.nz,
            ))?;
        }
        Ok(Self {
            stacks,
            options,
            schedule,
            boundary: RefCell::new(None),
        })
    }

    /// Seconds per reallocation segment.
    fn segment_seconds(&self) -> f64 {
        self.options.phase_seconds / self.options.segments_per_phase as f64
    }

    /// Checks one run's stacks and allocations, folding them into `r`;
    /// `budget(seg)` is the total the segment's shares must sum to. The
    /// healthy run's segment gradients are the round's thermal figure (the
    /// faulted one moves with the seeded schedule).
    fn check_run(
        &self,
        healthy: bool,
        stacks: &[StackRun],
        allocations: &[Vec<f64>],
        budget: impl Fn(usize) -> f64,
        r: &mut Round,
    ) {
        let label = if healthy { "healthy" } else { "faulted" };
        for (seg, shares) in allocations.iter().enumerate() {
            let sum: f64 = shares.iter().sum();
            let total = budget(seg);
            if (sum - total).abs() > 1e-9 * total {
                r.fail(format!(
                    "{label} segment {seg}: shares sum to {sum}, budget is {total}"
                ));
            }
            r.fingerprint.values(shares);
        }
        for stack in stacks {
            for s in &stack.segments {
                let values = [s.flow_scale, s.peak_gradient_k, s.peak_temperature_k];
                r.check_finite(label, &values);
                r.fingerprint.values(&values);
                r.fingerprint
                    .count("optimizer.evaluations", s.evaluations as u64);
                r.fingerprint
                    .count("epoch.adopted", s.epochs_adopted as u64);
                r.fingerprint.count("epoch.total", s.epochs as u64);
            }
            r.ops += stack.segments.len() as u64;
            if healthy {
                r.gradients
                    .extend(stack.segments.iter().map(|s| s.peak_gradient_k));
            }
        }
    }

    /// Checks the fault-aware run: its stacks, its allocations against the
    /// schedule's pump budget, and a typed kind on every degraded event.
    fn check_faulted(&self, out: &FaultedFleetOutcome, r: &mut Round) {
        let schedule = &self.schedule;
        let seg_s = self.segment_seconds();
        let budget = |seg: usize| {
            self.options.budget.total_scale * schedule.pump_factor((seg as f64 + 0.5) * seg_s)
        };
        self.check_run(false, &out.stacks, &out.allocations, budget, r);
        for event in &out.degraded {
            if event.kind == DegradedKind::SessionEvicted || event.segment.is_none() {
                r.fail(format!(
                    "untyped degraded event {:?}: {}",
                    event.kind, event.detail
                ));
            }
        }
        r.fingerprint
            .count("faults.degraded_events", out.degraded.len() as u64);
        *r.extra.entry("faults.degraded_events").or_default() += out.degraded.len() as f64;
    }
}

/// The round's fault schedule over `horizon` seconds: every fault kind
/// `FaultSchedule::random` can draw, at fixed times and magnitudes, with
/// the stack each one hits and the feedback-noise draws taken from `rng`.
/// `FaultSchedule::random` itself draws which kinds occur and when, which
/// moved the faulted run's optimizer work by ±15 % from seed to seed.
fn seeded_schedule(rng: &mut Rng, horizon: f64, n_stacks: usize) -> FaultSchedule {
    let mut stack = || rng.range(0, n_stacks - 1);
    let (stuck, hot, blind) = (stack(), stack(), stack());
    FaultSchedule {
        seed: rng.next_u64(),
        events: vec![
            // Deep enough to cross the valve band's floor (0.5×), so the
            // budget-clamp path runs.
            FaultEvent::PumpRamp {
                start_seconds: 0.25 * horizon,
                end_seconds: 0.5 * horizon,
                final_factor: 0.45,
            },
            FaultEvent::StuckValve {
                stack: stuck,
                from_seconds: 0.5 * horizon,
            },
            FaultEvent::InletExcursion {
                stack: Some(hot),
                start_seconds: 0.25 * horizon,
                end_seconds: 0.6 * horizon,
                delta_k: 5.0,
            },
            FaultEvent::FeedbackNoise { amplitude_k: 0.1 },
            FaultEvent::FeedbackDropout {
                stack: blind,
                start_seconds: 0.4 * horizon,
                end_seconds: 0.65 * horizon,
            },
        ],
    }
}

/// The allocator's inputs at a reallocation boundary.
#[derive(Debug)]
struct Boundary {
    /// Shares the segment before the boundary ran at.
    shares: Vec<f64>,
    /// Gradients that segment measured, kelvin.
    gradients: Vec<f64>,
    /// The surrogate refit from every earlier segment.
    surrogate: SurrogateModel,
}

/// The allocator's inputs at a run's last reallocation boundary.
fn last_boundary(stacks: &[StackRun], allocations: &[Vec<f64>]) -> Option<Boundary> {
    let last = allocations.len().checked_sub(2)?;
    let gradients_at = |seg: usize| -> Vec<f64> {
        stacks
            .iter()
            .map(|s| s.segments[seg].peak_gradient_k)
            .collect()
    };
    let mut surrogate = SurrogateModel::new(stacks.len());
    for (seg, shares) in allocations[..last].iter().enumerate() {
        surrogate.observe(shares, &gradients_at(seg));
    }
    Some(Boundary {
        shares: allocations[last].clone(),
        gradients: gradients_at(last),
        surrogate,
    })
}

impl Workload for FleetFaults {
    fn round(&self, ticks: &mut Ticks) -> Round {
        let segments = self.stacks.len()
            * self.options.segments_per_phase
            * match &self.stacks[0].trace {
                MpsocTraceSpec::LevelSteps { levels } => levels.len(),
            };
        let mut r = Round {
            attempted: 2 * segments as u64,
            ..Round::default()
        };
        // Two requests: the healthy run, then the faulted one.
        let started = Instant::now();
        let request = Instant::now();
        let healthy = r
            .layers
            .time("fleet.run", || run_fleet(&self.stacks, &self.options));
        r.latencies.push(request.elapsed().as_secs_f64());
        match healthy {
            Ok(out) => {
                let total = self.options.budget.total_scale;
                self.check_run(true, &out.stacks, &out.allocations, |_| total, &mut r);
                self.boundary
                    .replace(last_boundary(&out.stacks, &out.allocations));
            }
            Err(e) => r.fail(format!("healthy fleet failed: {e}")),
        }
        ticks.tick();

        // The faulted run stays on this thread: its segment loop is
        // serial, and a traced run records only the spans of the calling
        // thread and of the library's own workers.
        let request = Instant::now();
        let faulted = r.layers.time("faults.run", || {
            run_faulted_fleet(&self.stacks, &self.options, &self.schedule, true)
        });
        r.latencies.push(request.elapsed().as_secs_f64());
        match faulted {
            Ok(out) => self.check_faulted(&out, &mut r),
            Err(e) => r.fail(format!("faulted fleet failed: {e}")),
        }
        ticks.tick();
        r.wall_s = ticks.wall_since(started);
        r
    }

    fn kernels(&self, out: &mut BTreeMap<&'static str, f64>) {
        mpsoc_kernels(
            &self.options.config,
            self.stacks[0].arch,
            Some("thermal_model.solve_us.mpsoc48"),
            out,
        );
        if let Some(Boundary {
            shares,
            gradients,
            surrogate,
        }) = &*self.boundary.borrow()
        {
            let context = PredictiveContext {
                last_shares: shares,
                forecast_ratio: None,
                surrogate,
            };
            out.insert(
                "fleet.allocate_us",
                median_us(100, 0.1, || {
                    allocate_with(
                        BudgetPolicy::Predictive,
                        &self.options.budget,
                        gradients,
                        Some(&context),
                    )
                }),
            );
        }
    }

    fn aliases(&self) -> [&'static str; 4] {
        [
            "fleet_segments_per_s",
            "fleet_run_p50_s",
            "fleet_run_p90_s",
            "fleet_gradient_k",
        ]
    }
}
