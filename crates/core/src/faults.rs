//! Fault injection & graceful degradation: adversarial operating scenarios
//! for the modulation fleet.
//!
//! The paper's controller assumes a healthy plant — a pump that delivers
//! the requested flow, valves that actuate, an inlet held at its nominal
//! 300 K. This module defines the *degraded-operation contract*: a
//! deterministic, seeded [`FaultSchedule`] of timestamped [`FaultEvent`]s
//! is threaded through the fleet engine ([`run_faulted_fleet`] runs one
//! faulted lane of the fleet wavefront scheduler) and the
//! per-stack transient controller
//! ([`ModulationController::run_faulted`](crate::transient::ModulationController::run_faulted)),
//! and every fault surfaces as a structured [`DegradedEvent`] instead of a
//! panic or silent divergence.
//!
//! ## Fault taxonomy
//!
//! | Fault | Event | Plant effect | Aware controller | Oblivious controller |
//! |---|---|---|---|---|
//! | Pump degradation | [`FaultEvent::PumpRamp`] | total flow decays | re-validates the budget each segment, clamps the valve band when infeasible ([`DegradedKind::BudgetClamped`]) | static uniform provisioning, physically rescaled by the decay |
//! | Stuck valve group | [`FaultEvent::StuckValve`] | widths frozen at the fault-entry profile | skips the epoch optimizer ([`DegradedKind::ValveHeld`]) | keeps optimizing; "adopted" profiles never reach the plant |
//! | Inlet excursion | [`FaultEvent::InletExcursion`] | coolant enters `delta_k` hotter | optimizes against the true inlet ([`DegradedKind::InletExcursion`]) | optimizes against the stale nominal inlet |
//! | Noisy feedback | [`FaultEvent::FeedbackNoise`] | — | allocates from perturbed gradients ([`DegradedKind::FeedbackNoisy`]) | ignores feedback anyway |
//! | Dropped feedback | [`FaultEvent::FeedbackDropout`] | — | reuses the last good measurement ([`DegradedKind::FeedbackDropped`]) | ignores feedback anyway |
//!
//! All fault state is a *pure function of the schedule and time* — the
//! noise is keyed on `(seed, segment, stack)`, never on a shared RNG
//! stream — so fault injection preserves the workspace-wide parallel ==
//! serial bitwise guarantee: schedules are replayable, and worker counts
//! cannot leak into the physics.
//!
//! [`run_faults_sweep`] runs the scenario grid
//! ([`FaultScenario`]: healthy / pump-ramp / stuck-valve / inlet-excursion,
//! each under the fault-aware controller *and* the fault-oblivious
//! baseline) as lanes of one wavefront group; the bench `sweep -- faults`
//! mode gates on the aware controller strictly beating the oblivious one
//! on the worst stack's time-peak gradient while staying within
//! [`EXCURSION_BOUND`] of the healthy run.

use crate::fleet::{
    allocate, push_segment_channels, run_fleet_lanes, FleetLane, FleetOptions, FleetOutcome,
    LanePlant, PumpBudget, StackRun, StackSpec,
};
use crate::obs;
use crate::{CoreError, CsvTable, Result};
use liquamod_grid_sim::snapshot as snap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The declared excursion bound of the degraded-operation contract: under
/// every fault scenario of the bench grid, the fault-aware controller must
/// keep the worst stack's time-peak gradient within this factor of the
/// healthy run's. The bench `sweep -- faults` mode exits nonzero when the
/// bound is exceeded.
pub const EXCURSION_BOUND: f64 = 2.0;

/// Default seed of the bench fault schedules (any fixed value works — the
/// point is that runs are replayable).
pub const FAULTS_DEFAULT_SEED: u64 = 7;

// ---------------------------------------------------------------------------
// Fault inputs to one controller segment
// ---------------------------------------------------------------------------

/// Valve-group actuation state over one controller segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValveMode {
    /// Valves actuate normally.
    #[default]
    Healthy,
    /// The valve group is stuck and the controller *knows*: the plant's
    /// widths stay frozen and the epoch optimizer is skipped — there is
    /// nothing to actuate, so the evaluations are saved.
    StuckKnown,
    /// The valve group is stuck and the controller does *not* know: epochs
    /// keep running (and burning evaluations) but adopted profiles never
    /// reach the plant — the fault-oblivious failure mode.
    StuckSilent,
}

/// The fault conditions of one controller segment — the per-stack slice of
/// a [`FaultSchedule`] that
/// [`ModulationController::run_faulted`](crate::transient::ModulationController::run_faulted)
/// consumes. The default value is the healthy plant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentFaults {
    /// Coolant inlet-temperature excursion over the segment, kelvin
    /// (0.0 = nominal). The fleet's segment runner builds the plant at
    /// this offset
    /// ([`MpsocConfig::with_inlet_offset`](crate::mpsoc::MpsocConfig::with_inlet_offset));
    /// inside the controller the field drives event reporting.
    pub inlet_delta_k: f64,
    /// Whether the controller knows about the excursion: it drives the
    /// [`DegradedKind::InletExcursion`] event, and the fleet's segment
    /// runner optimizes against the true inlet when set, the nominal one
    /// otherwise.
    pub inlet_known: bool,
    /// Valve-group actuation state.
    pub valve: ValveMode,
    /// Arms the fall-back-to-last-feasible-widths rule: an epoch
    /// optimization failure keeps the incumbent profile and records a
    /// [`DegradedKind::EpochFallback`] event instead of aborting. Off for
    /// healthy runs so real errors propagate.
    pub tolerant: bool,
}

// ---------------------------------------------------------------------------
// Degraded-mode events
// ---------------------------------------------------------------------------

/// What kind of graceful degradation a [`DegradedEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedKind {
    /// The decayed pump budget left the feasible valve band; the allocator
    /// ran against the band relaxed to admit it
    /// ([`PumpBudget::clamped_feasible`]).
    BudgetClamped,
    /// A known-stuck valve group: widths held, epochs skipped.
    ValveHeld,
    /// A known coolant inlet-temperature excursion.
    InletExcursion,
    /// Gradient feedback for a stack was dropped; the allocator reused the
    /// last good measurement.
    FeedbackDropped,
    /// Gradient feedback was perturbed by sensor noise before allocation.
    FeedbackNoisy,
    /// An epoch optimization failed; the controller fell back to the last
    /// feasible width profile.
    EpochFallback,
    /// A serve-layer session's segment run failed; the session was evicted
    /// from the pool so the other sessions keep being served (see
    /// [`crate::serve::ServePool::drain_batch`]).
    SessionEvicted,
}

impl DegradedKind {
    /// Short label used in reports and the bench JSON record.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DegradedKind::BudgetClamped => "budget-clamped",
            DegradedKind::ValveHeld => "valve-held",
            DegradedKind::InletExcursion => "inlet-excursion",
            DegradedKind::FeedbackDropped => "feedback-dropped",
            DegradedKind::FeedbackNoisy => "feedback-noisy",
            DegradedKind::EpochFallback => "epoch-fallback",
            DegradedKind::SessionEvicted => "session-evicted",
        }
    }

    /// Stable numeric code used by the golden fixtures.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            DegradedKind::BudgetClamped => 0,
            DegradedKind::ValveHeld => 1,
            DegradedKind::InletExcursion => 2,
            DegradedKind::FeedbackDropped => 3,
            DegradedKind::FeedbackNoisy => 4,
            DegradedKind::EpochFallback => 5,
            DegradedKind::SessionEvicted => 6,
        }
    }
}

/// One structured degraded-mode event: what degraded, where, when — the
/// contract's replacement for panics and silent divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedEvent {
    /// What kind of degradation.
    pub kind: DegradedKind,
    /// Reallocation segment the event belongs to (`None` for events
    /// surfaced inside a standalone controller run).
    pub segment: Option<usize>,
    /// Stack index the event belongs to (`None` for fleet-wide events like
    /// a budget clamp).
    pub stack: Option<usize>,
    /// Event time, seconds. Fleet events carry the global run time;
    /// standalone controller events are segment-local.
    pub time_seconds: f64,
    /// Human-readable description.
    pub detail: String,
}

impl DegradedEvent {
    /// A controller-local event (no segment/stack stamp yet — the fleet
    /// layer adds those when stitching).
    pub(crate) fn local(kind: DegradedKind, time_seconds: f64, detail: String) -> Self {
        Self {
            kind,
            segment: None,
            stack: None,
            time_seconds,
            detail,
        }
    }

    /// The epoch-failure fallback event.
    pub(crate) fn epoch_fallback(time_seconds: f64, error: &CoreError) -> Self {
        Self::local(
            DegradedKind::EpochFallback,
            time_seconds,
            format!("epoch optimization failed, keeping incumbent widths: {error}"),
        )
    }
}

// ---------------------------------------------------------------------------
// The fault schedule
// ---------------------------------------------------------------------------

/// One timestamped fault. Times are in seconds of the fleet run's global
/// clock; every event kind degrades monotonically (ramps decay, stuck
/// valves stay stuck) so schedule queries are pure functions of time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The shared pump degrades: its deliverable total flow ramps linearly
    /// from 1× at `start_seconds` to `final_factor`× at `end_seconds` and
    /// holds there.
    PumpRamp {
        /// Ramp start, seconds.
        start_seconds: f64,
        /// Ramp end, seconds.
        end_seconds: f64,
        /// The factor the pump's total flow decays to (in `(0, 1]`).
        final_factor: f64,
    },
    /// One stack's valve group seizes at `from_seconds`: its channel
    /// widths freeze at whatever profile was active when the fault hit.
    StuckValve {
        /// The affected stack.
        stack: usize,
        /// Seizure time, seconds.
        from_seconds: f64,
    },
    /// A coolant inlet-temperature excursion (e.g. chiller degradation):
    /// the affected stack's inlet runs `delta_k` kelvin hot over the
    /// window.
    InletExcursion {
        /// The affected stack, or `None` for the whole fleet (a shared
        /// chiller).
        stack: Option<usize>,
        /// Excursion start, seconds.
        start_seconds: f64,
        /// Excursion end, seconds.
        end_seconds: f64,
        /// Inlet offset, kelvin (non-negative: excursions run hot).
        delta_k: f64,
    },
    /// Gradient-feedback sensor noise: every measurement handed to the
    /// fleet allocator is perturbed by a deterministic, seeded draw from
    /// `±amplitude_k` (keyed on `(seed, segment, stack)`).
    FeedbackNoise {
        /// Half-width of the uniform perturbation, kelvin.
        amplitude_k: f64,
    },
    /// One stack's gradient feedback drops out over a window: the
    /// allocator reuses the last good measurement.
    FeedbackDropout {
        /// The affected stack.
        stack: usize,
        /// Dropout start, seconds.
        start_seconds: f64,
        /// Dropout end, seconds.
        end_seconds: f64,
    },
}

/// A deterministic, seeded schedule of [`FaultEvent`]s — the replayable
/// description of everything that goes wrong during a fleet run. All
/// queries are pure functions of `(schedule, time)`; the seed only feeds
/// the per-`(segment, stack)` feedback-noise draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed of the feedback-noise draws.
    pub seed: u64,
    /// The faults, in any order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty (healthy) schedule.
    #[must_use]
    pub fn healthy() -> Self {
        Self {
            seed: FAULTS_DEFAULT_SEED,
            events: Vec::new(),
        }
    }

    /// Whether the schedule injects nothing.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates every event: finite, ordered windows; pump factors in
    /// `(0, 1]`; non-negative inlet offsets and noise amplitudes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the offending event.
    pub fn validate(&self, n_stacks: usize) -> Result<()> {
        let bad = |what: String| Err(CoreError::InvalidConfig { what });
        let window = |what: &str, start: f64, end: f64| -> Result<()> {
            if !(start.is_finite() && end.is_finite() && start <= end && start >= 0.0) {
                return Err(CoreError::InvalidConfig {
                    what: format!("{what} window [{start}, {end}] s is not a forward window"),
                });
            }
            Ok(())
        };
        for event in &self.events {
            match event {
                FaultEvent::PumpRamp {
                    start_seconds,
                    end_seconds,
                    final_factor,
                } => {
                    window("pump ramp", *start_seconds, *end_seconds)?;
                    if !(final_factor.is_finite() && *final_factor > 0.0 && *final_factor <= 1.0) {
                        return bad(format!(
                            "pump ramp factor must be in (0, 1], got {final_factor}"
                        ));
                    }
                }
                FaultEvent::StuckValve {
                    stack,
                    from_seconds,
                } => {
                    window("stuck valve", *from_seconds, *from_seconds)?;
                    if *stack >= n_stacks {
                        return bad(format!("stuck valve on stack {stack} of {n_stacks}"));
                    }
                }
                FaultEvent::InletExcursion {
                    stack,
                    start_seconds,
                    end_seconds,
                    delta_k,
                } => {
                    window("inlet excursion", *start_seconds, *end_seconds)?;
                    if !(delta_k.is_finite() && *delta_k >= 0.0) {
                        return bad(format!(
                            "inlet excursion must be a non-negative finite offset, got {delta_k} K"
                        ));
                    }
                    if let Some(s) = stack {
                        if *s >= n_stacks {
                            return bad(format!("inlet excursion on stack {s} of {n_stacks}"));
                        }
                    }
                }
                FaultEvent::FeedbackNoise { amplitude_k } => {
                    if !(amplitude_k.is_finite() && *amplitude_k >= 0.0) {
                        return bad(format!(
                            "feedback noise amplitude must be non-negative and finite, \
                             got {amplitude_k} K"
                        ));
                    }
                }
                FaultEvent::FeedbackDropout {
                    stack,
                    start_seconds,
                    end_seconds,
                } => {
                    window("feedback dropout", *start_seconds, *end_seconds)?;
                    if *stack >= n_stacks {
                        return bad(format!("feedback dropout on stack {stack} of {n_stacks}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The pump's deliverable-flow factor at time `t` (product of all
    /// ramps; 1.0 when healthy).
    #[must_use]
    pub fn pump_factor(&self, t: f64) -> f64 {
        self.events
            .iter()
            .map(|e| match e {
                FaultEvent::PumpRamp {
                    start_seconds,
                    end_seconds,
                    final_factor,
                } => {
                    if t <= *start_seconds {
                        1.0
                    } else if t >= *end_seconds || end_seconds <= start_seconds {
                        *final_factor
                    } else {
                        let frac = (t - start_seconds) / (end_seconds - start_seconds);
                        1.0 + frac * (final_factor - 1.0)
                    }
                }
                _ => 1.0,
            })
            .product()
    }

    /// Whether `stack`'s valve group is stuck at time `t`.
    #[must_use]
    pub fn valve_stuck(&self, stack: usize, t: f64) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::StuckValve { stack: s, from_seconds }
                if *s == stack && t >= *from_seconds)
        })
    }

    /// The inlet-temperature offset `stack` sees at time `t`, kelvin (sum
    /// of all active excursions).
    #[must_use]
    pub fn inlet_delta_k(&self, stack: usize, t: f64) -> f64 {
        self.events
            .iter()
            .map(|e| match e {
                FaultEvent::InletExcursion {
                    stack: s,
                    start_seconds,
                    end_seconds,
                    delta_k,
                } if s.map(|s| s == stack).unwrap_or(true)
                    && t >= *start_seconds
                    && t < *end_seconds =>
                {
                    *delta_k
                }
                _ => 0.0,
            })
            .sum()
    }

    /// Whether `stack`'s gradient feedback is dropped at time `t`.
    #[must_use]
    pub fn feedback_dropped(&self, stack: usize, t: f64) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::FeedbackDropout { stack: s, start_seconds, end_seconds }
                if *s == stack && t >= *start_seconds && t < *end_seconds)
        })
    }

    /// Total feedback-noise amplitude, kelvin (0.0 when no noise event is
    /// scheduled).
    #[must_use]
    pub fn noise_amplitude_k(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match e {
                FaultEvent::FeedbackNoise { amplitude_k } => *amplitude_k,
                _ => 0.0,
            })
            .sum()
    }

    /// The deterministic feedback perturbation for `(segment, stack)`,
    /// kelvin: a fresh RNG seeded from `(seed, segment, stack)` — never a
    /// shared stream — so the draw is independent of evaluation order and
    /// worker count. Exactly 0.0 when no noise is scheduled.
    #[must_use]
    pub fn feedback_noise_k(&self, segment: usize, stack: usize) -> f64 {
        let amplitude = self.noise_amplitude_k();
        if amplitude <= 0.0 {
            return 0.0;
        }
        // SplitMix64-style odd-constant mixing keeps distinct (segment,
        // stack) keys from colliding even under the trivial seed 0.
        let key = self
            .seed
            .wrapping_add((segment as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((stack as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        StdRng::seed_from_u64(key).gen_range(-amplitude..=amplitude)
    }

    /// A random (but fully seed-determined) schedule over `horizon_seconds`
    /// for an `n_stacks` fleet — the property tests' generator: any mix of
    /// pump ramps (possibly deep enough to leave the feasible band), stuck
    /// valves, inlet excursions, feedback noise and dropouts.
    #[must_use]
    pub fn random(seed: u64, horizon_seconds: f64, n_stacks: usize) -> Self {
        let h = horizon_seconds.max(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        if rng.gen_range(0u32..2) == 1 {
            let start = h * rng.gen_range(0.0..0.5);
            events.push(FaultEvent::PumpRamp {
                start_seconds: start,
                end_seconds: start + h * rng.gen_range(0.1..0.5),
                // Deep enough to cross the default valve band's floor
                // (0.5×), so the budget-clamp path is exercised.
                final_factor: rng.gen_range(0.35..1.0),
            });
        }
        if n_stacks > 0 && rng.gen_range(0u32..2) == 1 {
            events.push(FaultEvent::StuckValve {
                stack: rng.gen_range(0..n_stacks),
                from_seconds: h * rng.gen_range(0.0..0.8),
            });
        }
        if n_stacks > 0 && rng.gen_range(0u32..2) == 1 {
            let start = h * rng.gen_range(0.0..0.6);
            events.push(FaultEvent::InletExcursion {
                stack: if rng.gen_range(0u32..2) == 1 {
                    None
                } else {
                    Some(rng.gen_range(0..n_stacks))
                },
                start_seconds: start,
                end_seconds: start + h * rng.gen_range(0.1..0.4),
                delta_k: rng.gen_range(0.0..10.0),
            });
        }
        if rng.gen_range(0u32..2) == 1 {
            events.push(FaultEvent::FeedbackNoise {
                amplitude_k: rng.gen_range(0.0..0.25),
            });
        }
        if n_stacks > 0 && rng.gen_range(0u32..2) == 1 {
            let start = h * rng.gen_range(0.0..0.7);
            events.push(FaultEvent::FeedbackDropout {
                stack: rng.gen_range(0..n_stacks),
                start_seconds: start,
                end_seconds: start + h * rng.gen_range(0.1..0.3),
            });
        }
        Self { seed, events }
    }
}

// ---------------------------------------------------------------------------
// The fault-aware fleet loop
// ---------------------------------------------------------------------------

/// The collected result of one faulted fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedFleetOutcome {
    /// Whether the run was fault-aware (`true`) or the fault-oblivious
    /// baseline (`false`).
    pub aware: bool,
    /// One trajectory per stack, in spec order (the same [`StackRun`]
    /// records the healthy fleet uses).
    pub stacks: Vec<StackRun>,
    /// The flow shares each segment ran at: `allocations[segment][stack]`.
    pub allocations: Vec<Vec<f64>>,
    /// Every degraded-mode event the run surfaced, stamped with segment,
    /// stack (where applicable) and global run time.
    pub degraded: Vec<DegradedEvent>,
}

impl FaultedFleetOutcome {
    /// Folds one faulted lane of the fleet engine into the faults record.
    fn from_lane(aware: bool, outcome: FleetOutcome, degraded: Vec<DegradedEvent>) -> Self {
        Self {
            aware,
            stacks: outcome.stacks,
            allocations: outcome.allocations,
            degraded,
        }
    }

    /// The worst stack's time-peak inter-layer gradient, kelvin — the
    /// metric the degraded controller is gated on.
    #[must_use]
    pub fn worst_stack_peak_gradient_k(&self) -> f64 {
        self.stacks
            .iter()
            .map(StackRun::peak_gradient_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Time-peak silicon temperature across the fleet, kelvin.
    #[must_use]
    pub fn peak_temperature_k(&self) -> f64 {
        self.stacks
            .iter()
            .map(StackRun::peak_temperature_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total optimizer objective evaluations across the fleet (a known
    /// stuck valve *saves* evaluations; a silent one burns them).
    #[must_use]
    pub fn total_evaluations(&self) -> usize {
        self.stacks.iter().map(StackRun::evaluations).sum()
    }

    /// Canonical flat-JSON serialization for the golden fixture
    /// (`tests/golden/faults_pump_ramp.json`): the same
    /// full-precision-number format as
    /// [`TransientOutcome::golden_json`](crate::transient::TransientOutcome::golden_json),
    /// parsed by the same comparer at 1e-9.
    #[must_use]
    pub fn golden_json(&self, scenario: &str) -> String {
        let mut out = format!(
            "{{\n  \"schema_version\": 1,\n  \"scenario\": \"{scenario}\",\n  \"aware\": {},\n",
            u8::from(self.aware)
        );
        push_segment_channels(&mut out, &self.allocations, &self.stacks);
        // One (code, segment, stack, time) quadruple per degraded event;
        // -1 encodes "not applicable".
        let events: Vec<String> = self
            .degraded
            .iter()
            .map(|e| {
                snap::render_array([
                    f64::from(e.kind.code()),
                    e.segment.map_or(-1.0, |s| s as f64),
                    e.stack.map_or(-1.0, |s| s as f64),
                    e.time_seconds,
                ])
            })
            .collect();
        out.push_str(&format!(
            "  \"degraded_events\": [{}],\n",
            events.join(", ")
        ));
        let worst = self.worst_stack_peak_gradient_k();
        snap::push_scalar(&mut out, "worst_gradient_k", worst, true);
        out.push_str("}\n");
        out
    }
}

/// Records a fleet-level degraded event: into the run's list and, as a
/// structured event, into the [`crate::obs`] stream.
fn record(degraded: &mut Vec<DegradedEvent>, event: DegradedEvent) {
    obs::event(
        event.kind.label(),
        format!("t={:.6} s: {}", event.time_seconds, event.detail),
    );
    degraded.push(event);
}

/// The fault seam of the fleet engine: how a `LanePlant::Faulted` lane
/// reads its schedule. Every query samples the schedule at a segment
/// midpoint or boundary of `seg_seconds`-long reallocation segments.
impl FaultSchedule {
    /// The conditions `stack` runs segment `seg` under: the inlet excursion
    /// (known to an aware controller), the valve state (a stuck valve is
    /// known to an aware controller, silent to an oblivious one) and the
    /// epoch-fallback rule, always armed under a schedule.
    pub(crate) fn segment_faults(
        &self,
        aware: bool,
        seg_seconds: f64,
        seg: usize,
        stack: usize,
    ) -> SegmentFaults {
        let t_mid = (seg as f64 + 0.5) * seg_seconds;
        SegmentFaults {
            inlet_delta_k: self.inlet_delta_k(stack, t_mid),
            inlet_known: aware,
            valve: match (self.valve_stuck(stack, t_mid), aware) {
                (false, _) => ValveMode::Healthy,
                (true, true) => ValveMode::StuckKnown,
                (true, false) => ValveMode::StuckSilent,
            },
            tolerant: true,
        }
    }

    /// The flow shares segment `seg` of a fleet run under `options` runs
    /// at. Aware: [`FleetOptions::allocation`] on the `feedback` gradients
    /// (zeros before segment 0) against the pump's decayed budget,
    /// re-validated per segment ([`PumpBudget::validate_at`]) and allocated
    /// against the relaxed valve band ([`PumpBudget::clamped_feasible`],
    /// recording a [`DegradedKind::BudgetClamped`] event) when the decay
    /// leaves the feasible one. Oblivious: the healthy design's static
    /// uniform split, physically rescaled by the decay — the pump delivers
    /// what it delivers.
    pub(crate) fn segment_shares(
        &self,
        aware: bool,
        options: &FleetOptions,
        seg: usize,
        feedback: &[f64],
        degraded: &mut Vec<DegradedEvent>,
    ) -> Result<Vec<f64>> {
        let (budget, seg_seconds) = (&options.budget, options.segment_seconds());
        let n = feedback.len();
        let factor = self.pump_factor((seg as f64 + 0.5) * seg_seconds);
        if !aware {
            return Ok(vec![budget.uniform_share(n) * factor; n]);
        }
        let mut effective = PumpBudget {
            total_scale: budget.total_scale * factor,
            ..*budget
        };
        match effective.validate_at(n, Some(seg)) {
            Ok(()) => {}
            Err(e @ CoreError::BudgetInfeasible { .. }) => {
                effective = effective.clamped_feasible(n);
                let detail = format!(
                    "{e}; allocating against the relaxed band [{}, {}]",
                    effective.min_scale, effective.max_scale
                );
                record(
                    degraded,
                    DegradedEvent {
                        kind: DegradedKind::BudgetClamped,
                        segment: Some(seg),
                        stack: None,
                        time_seconds: seg as f64 * seg_seconds,
                        detail,
                    },
                );
            }
            Err(e) => return Err(e),
        }
        allocate(options.allocation, &effective, feedback)
    }

    /// The aware allocator's view of the gradients `measured` over segment
    /// `seg`, handed to segment `seg + 1`'s allocation: perturbed by the
    /// scheduled sensor noise ([`DegradedKind::FeedbackNoisy`]), a dropped
    /// stack's value replaced by its last good measurement
    /// ([`DegradedKind::FeedbackDropped`]), and measurements contaminated
    /// by a known inlet excursion replaced by the clean-fleet mean.
    /// `last_feedback` carries the last good measurements across calls.
    pub(crate) fn feedback(
        &self,
        seg_seconds: f64,
        seg: usize,
        measured: &[f64],
        last_feedback: &mut [f64],
        degraded: &mut Vec<DegradedEvent>,
    ) -> Vec<f64> {
        let n = measured.len();
        let t_mid = (seg as f64 + 0.5) * seg_seconds;
        let t_boundary = (seg + 1) as f64 * seg_seconds;
        // A known inlet excursion makes a stack's gradient measurement
        // uninformative — the hot inlet *suppresses* the inter-layer
        // gradient while active, and the segment after it ends carries a
        // transient flush spike as the stored heat is swept out. Chasing
        // either steers the allocator exactly wrong, so measurements from
        // the excursion window plus one flush segment are treated as
        // contaminated and replaced by the clean-fleet mean below.
        let prev_mid = (seg as f64 - 0.5) * seg_seconds;
        let mut feedback = vec![0.0; n];
        let mut contaminated = Vec::new();
        for i in 0..n {
            if self.feedback_dropped(i, t_boundary) {
                feedback[i] = last_feedback[i];
                let detail = format!(
                    "gradient feedback dropped; reusing last good measurement {:.3} K",
                    last_feedback[i]
                );
                record(
                    degraded,
                    DegradedEvent {
                        kind: DegradedKind::FeedbackDropped,
                        segment: Some(seg + 1),
                        stack: Some(i),
                        time_seconds: t_boundary,
                        detail,
                    },
                );
            } else if self.inlet_delta_k(i, t_mid) > 0.0
                || (seg > 0 && self.inlet_delta_k(i, prev_mid) > 0.0)
            {
                contaminated.push(i);
            } else {
                let noise = self.feedback_noise_k(seg + 1, i);
                feedback[i] = (measured[i] + noise).max(0.0);
                last_feedback[i] = feedback[i];
            }
        }
        if !contaminated.is_empty() {
            // Uninformative prior: a contaminated stack allocates like an
            // average one. All-contaminated degenerates to all-zero
            // feedback, which the waterfill maps to the uniform split.
            let clean = n - contaminated.len();
            let mean = if clean == 0 {
                0.0
            } else {
                feedback.iter().sum::<f64>() / clean as f64
            };
            for &i in &contaminated {
                feedback[i] = mean;
            }
        }
        if self.noise_amplitude_k() > 0.0 {
            let detail = format!(
                "gradient feedback perturbed by ±{} K before allocation",
                self.noise_amplitude_k()
            );
            record(
                degraded,
                DegradedEvent {
                    kind: DegradedKind::FeedbackNoisy,
                    segment: Some(seg + 1),
                    stack: None,
                    time_seconds: t_boundary,
                    detail,
                },
            );
        }
        feedback
    }
}

/// Runs a fleet of stacks through a [`FaultSchedule`].
///
/// Time is cut into reallocation segments exactly like
/// [`run_fleet`](crate::fleet::run_fleet) — the run is one faulted lane of
/// the same wavefront scheduler, so its stacks fan out per segment across
/// [`FleetOptions::mode`]'s workers. Each segment samples the schedule at
/// its midpoint and runs every stack through
/// [`ModulationController::run_faulted`](crate::transient::ModulationController::run_faulted)
/// at its granted flow share, the thermal state carried over exactly across
/// reallocations.
///
/// With `aware = true` the controller runs the full graceful-degradation
/// path: per-segment budget re-validation
/// ([`PumpBudget::validate_at`]) with valve-band clamping when the decayed
/// budget leaves the feasible band, allocation by
/// [`FleetOptions::allocation`] (without a predictive context) on the
/// gradient feedback (noise-perturbed; dropouts hold the last good
/// measurement; measurements contaminated by a known inlet excursion —
/// suppressed while the hot inlet is active, spiking during the
/// post-excursion flush — are replaced by the clean-fleet mean),
/// known-stuck valves skipping their epoch optimizer, and true-inlet
/// optimization under excursions. With `aware = false` the run models the
/// fault-oblivious baseline: static uniform provisioning from the
/// *nominal* budget, physically rescaled by the pump decay, with the
/// controller optimizing against the nominal inlet and commanding a plant
/// whose valves may silently ignore it.
///
/// Every fault query is a pure function of `(schedule, time)` and the
/// allocator runs between segments on the calling thread, so outcomes are
/// bitwise independent of worker count.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for an empty fleet, a malformed schedule,
/// zero `segments_per_phase` or sub-step segments;
/// [`CoreError::BudgetInfeasible`] when the *nominal* budget is infeasible
/// at entry (mid-run decay is clamped, not propagated); model/stepper
/// failures propagate (epoch-optimizer failures degrade instead).
pub fn run_faulted_fleet(
    stacks: &[StackSpec],
    options: &FleetOptions,
    schedule: &FaultSchedule,
    aware: bool,
) -> Result<FaultedFleetOutcome> {
    let lane = FleetLane {
        options: options.clone(),
        plant: LanePlant::Faulted {
            schedule: schedule.clone(),
            aware,
        },
        dedup_group: 0,
    };
    let (outcome, degraded) = run_fleet_lanes(stacks, &[lane])?
        .pop()
        .expect("one lane in, one outcome out");
    Ok(FaultedFleetOutcome::from_lane(aware, outcome, degraded))
}

// ---------------------------------------------------------------------------
// The scenario grid and sweep
// ---------------------------------------------------------------------------

/// The bench scenario grid: what goes wrong during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// Nothing — the excursion-bound reference.
    Healthy,
    /// The pump decays to 62% over the middle half of the run, with noisy
    /// and intermittently dropped gradient feedback.
    PumpRamp,
    /// The hottest stack's valve group seizes 30% in.
    StuckValve,
    /// The last stack's coolant inlet runs 8 K hot through the
    /// average-power lead-in, leaving it with stored heat entering the
    /// peak burst.
    InletExcursion,
}

impl FaultScenario {
    /// All scenarios, in report order.
    #[must_use]
    pub fn all() -> Vec<FaultScenario> {
        vec![
            FaultScenario::Healthy,
            FaultScenario::PumpRamp,
            FaultScenario::StuckValve,
            FaultScenario::InletExcursion,
        ]
    }

    /// Short label used in report rows and the bench record.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultScenario::Healthy => "healthy",
            FaultScenario::PumpRamp => "pump-ramp",
            FaultScenario::StuckValve => "stuck-valve",
            FaultScenario::InletExcursion => "inlet-excursion",
        }
    }

    /// Materializes the scenario's schedule over a run of
    /// `horizon_seconds` for an `n_stacks` fleet.
    #[must_use]
    pub fn schedule(&self, horizon_seconds: f64, n_stacks: usize, seed: u64) -> FaultSchedule {
        let h = horizon_seconds;
        let events = match self {
            FaultScenario::Healthy => Vec::new(),
            FaultScenario::PumpRamp => vec![
                FaultEvent::PumpRamp {
                    start_seconds: 0.25 * h,
                    end_seconds: 0.75 * h,
                    final_factor: 0.62,
                },
                FaultEvent::FeedbackNoise { amplitude_k: 0.05 },
                FaultEvent::FeedbackDropout {
                    stack: 1.min(n_stacks.saturating_sub(1)),
                    start_seconds: 0.4 * h,
                    end_seconds: 0.7 * h,
                },
            ],
            FaultScenario::StuckValve => vec![FaultEvent::StuckValve {
                stack: 0,
                from_seconds: 0.3 * h,
            }],
            FaultScenario::InletExcursion => vec![FaultEvent::InletExcursion {
                stack: Some(n_stacks.saturating_sub(1)),
                start_seconds: 0.05 * h,
                end_seconds: 0.35 * h,
                delta_k: 8.0,
            }],
        };
        FaultSchedule { seed, events }
    }
}

/// Options of a faults sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSweepOptions {
    /// Base fleet-run options shared by every scenario.
    /// [`FleetOptions::allocation`] is the *aware* controller's policy (the
    /// oblivious baseline always provisions uniformly);
    /// [`FleetOptions::mode`] drives the per-segment fan-out of every
    /// run's stacks.
    pub fleet: FleetOptions,
    /// Scenarios to run.
    pub scenarios: Vec<FaultScenario>,
    /// Seed of the fault schedules.
    pub seed: u64,
}

impl FaultsSweepOptions {
    /// The fast configuration for an `n_stacks` fleet: the fleet bench's
    /// clocking with the full scenario grid and the default seed.
    #[must_use]
    pub fn fast(n_stacks: usize, mode: crate::sweep::ExecutionMode) -> Self {
        Self {
            fleet: FleetOptions::fast(n_stacks, mode),
            scenarios: FaultScenario::all(),
            seed: FAULTS_DEFAULT_SEED,
        }
    }
}

/// One scenario's head-to-head: the fault-aware controller vs the
/// fault-oblivious baseline on identical schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsRow {
    /// The scenario.
    pub scenario: FaultScenario,
    /// The fault-aware run.
    pub aware: FaultedFleetOutcome,
    /// The fault-oblivious baseline run.
    pub oblivious: FaultedFleetOutcome,
}

impl FaultsRow {
    /// The aware controller's worst-stack time-peak gradient, kelvin.
    #[must_use]
    pub fn aware_worst_gradient_k(&self) -> f64 {
        self.aware.worst_stack_peak_gradient_k()
    }

    /// The oblivious baseline's worst-stack time-peak gradient, kelvin.
    #[must_use]
    pub fn oblivious_worst_gradient_k(&self) -> f64 {
        self.oblivious.worst_stack_peak_gradient_k()
    }
}

/// The collected result of a faults sweep.
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// One row per scenario, in grid order.
    pub rows: Vec<FaultsRow>,
    /// The declared excursion bound the rows are gated against
    /// ([`EXCURSION_BOUND`]).
    pub excursion_bound: f64,
    /// Worker threads the per-segment (run × stack) fan-out actually
    /// used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl FaultsReport {
    /// The excursion reference: the healthy scenario's aware worst-stack
    /// gradient (`None` when the grid has no healthy row).
    #[must_use]
    pub fn healthy_reference_k(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.scenario == FaultScenario::Healthy)
            .map(FaultsRow::aware_worst_gradient_k)
    }

    /// Renders one row per scenario in the workspace's standard table
    /// format.
    #[must_use]
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(vec![
            "scenario",
            "aware worst grad [K]",
            "oblivious worst grad [K]",
            "aware peak T [K]",
            "degraded events",
            "aware evals",
            "oblivious evals",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.scenario.label().to_string(),
                format!("{:.3}", row.aware_worst_gradient_k()),
                format!("{:.3}", row.oblivious_worst_gradient_k()),
                format!("{:.2}", row.aware.peak_temperature_k()),
                format!("{}", row.aware.degraded.len()),
                format!("{}", row.aware.total_evaluations()),
                format!("{}", row.oblivious.total_evaluations()),
            ]);
        }
        table
    }
}

/// Runs every scenario of `options` — each under the fault-aware
/// controller *and* the fault-oblivious baseline — and collects the
/// report. The `(scenario, mode)` runs are faulted lanes of **one**
/// wavefront group: every segment's (run × stack) tasks share one worker
/// fan-out, with the workspace-wide guarantee that parallel and serial
/// sweeps are bitwise identical.
///
/// # Errors
///
/// The first invalid lane, or the first failed (run × stack) task of the
/// earliest failing segment, in grid order.
pub fn run_faults_sweep(
    stacks: &[StackSpec],
    options: &FaultsSweepOptions,
) -> Result<FaultsReport> {
    if stacks.is_empty() || options.scenarios.is_empty() {
        return Err(CoreError::InvalidConfig {
            what: "a faults sweep needs at least one stack and one scenario".into(),
        });
    }
    let arch0 = stacks[0].arch.architecture();
    let horizon = stacks[0]
        .trace
        .trace(
            &arch0,
            options.fleet.phase_seconds,
            options.fleet.config.nx,
            options.fleet.config.nz,
        )
        .total_duration_seconds();
    // One faulted lane per (scenario, aware/oblivious) run, each its own
    // dedup group: a faulted segment 0 already depends on the schedule and
    // the controller, so no two lanes share it.
    let lanes: Vec<FleetLane> = options
        .scenarios
        .iter()
        .flat_map(|&scenario| [(scenario, true), (scenario, false)])
        .enumerate()
        .map(|(dedup_group, (scenario, aware))| FleetLane {
            options: options.fleet.clone(),
            plant: LanePlant::Faulted {
                schedule: scenario.schedule(horizon, stacks.len(), options.seed),
                aware,
            },
            dedup_group,
        })
        .collect();
    let start = Instant::now();
    let lane_outcomes = run_fleet_lanes(stacks, &lanes)?;
    let wall = start.elapsed();
    let workers = lane_outcomes[0].0.workers;
    let mut outcomes = lanes
        .iter()
        .zip(lane_outcomes)
        .map(|(lane, (outcome, degraded))| {
            let aware = matches!(lane.plant, LanePlant::Faulted { aware: true, .. });
            FaultedFleetOutcome::from_lane(aware, outcome, degraded)
        });
    let rows = options
        .scenarios
        .iter()
        .map(|&scenario| {
            let aware = outcomes.next().expect("an aware lane per scenario");
            let oblivious = outcomes.next().expect("an oblivious lane per scenario");
            FaultsRow {
                scenario,
                aware,
                oblivious,
            }
        })
        .collect();
    Ok(FaultsReport {
        rows,
        excursion_bound: EXCURSION_BOUND,
        workers,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpsoc::{ArchSpec, MpsocConfig, MpsocTraceSpec};
    use crate::sweep::ExecutionMode;
    use crate::transient::EpochPolicy;
    use crate::OptimizationConfig;

    fn tiny_options(n_stacks: usize) -> FleetOptions {
        let config = MpsocConfig {
            optimizer: OptimizationConfig {
                segments: 2,
                mesh_intervals: 32,
                ..OptimizationConfig::fast()
            },
            nx: 20,
            nz: 11,
            n_groups: 2,
            ..MpsocConfig::fast()
        };
        FleetOptions {
            policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
            phase_seconds: 6.0 * config.dt_seconds,
            segments_per_phase: 1,
            config,
            ..FleetOptions::fast(n_stacks, ExecutionMode::Serial)
        }
    }

    fn two_stacks() -> Vec<StackSpec> {
        vec![
            StackSpec {
                arch: ArchSpec::Arch1,
                trace: MpsocTraceSpec::avg_to_peak(),
            },
            StackSpec {
                arch: ArchSpec::Arch3,
                trace: MpsocTraceSpec::avg_to_peak(),
            },
        ]
    }

    #[test]
    fn schedule_queries_are_pure_and_validated() {
        let s = FaultSchedule {
            seed: 3,
            events: vec![
                FaultEvent::PumpRamp {
                    start_seconds: 1.0,
                    end_seconds: 3.0,
                    final_factor: 0.5,
                },
                FaultEvent::StuckValve {
                    stack: 1,
                    from_seconds: 2.0,
                },
                FaultEvent::InletExcursion {
                    stack: None,
                    start_seconds: 0.5,
                    end_seconds: 1.5,
                    delta_k: 6.0,
                },
                FaultEvent::FeedbackNoise { amplitude_k: 0.1 },
                FaultEvent::FeedbackDropout {
                    stack: 0,
                    start_seconds: 0.0,
                    end_seconds: 1.0,
                },
            ],
        };
        assert!(s.validate(2).is_ok());
        assert!(!s.is_healthy());
        assert_eq!(s.pump_factor(0.0), 1.0);
        assert!((s.pump_factor(2.0) - 0.75).abs() < 1e-12, "mid-ramp");
        assert_eq!(s.pump_factor(10.0), 0.5);
        assert!(!s.valve_stuck(1, 1.9) && s.valve_stuck(1, 2.0));
        assert!(!s.valve_stuck(0, 10.0), "only stack 1 seizes");
        assert_eq!(s.inlet_delta_k(0, 1.0), 6.0, "fleet-wide excursion");
        assert_eq!(s.inlet_delta_k(0, 2.0), 0.0, "window closed");
        assert!(s.feedback_dropped(0, 0.5) && !s.feedback_dropped(1, 0.5));
        // Noise draws are pure functions of (seed, segment, stack).
        let a = s.feedback_noise_k(4, 1);
        assert_eq!(a.to_bits(), s.feedback_noise_k(4, 1).to_bits());
        assert!(a.abs() <= 0.1);
        assert_ne!(
            s.feedback_noise_k(4, 0).to_bits(),
            s.feedback_noise_k(4, 1).to_bits()
        );
        // Healthy schedules draw nothing at all.
        assert_eq!(FaultSchedule::healthy().feedback_noise_k(4, 1), 0.0);

        // Malformed events are rejected with context.
        let bad = FaultSchedule {
            seed: 0,
            events: vec![FaultEvent::PumpRamp {
                start_seconds: 3.0,
                end_seconds: 1.0,
                final_factor: 0.5,
            }],
        };
        assert!(bad.validate(2).is_err(), "backwards window");
        let bad = FaultSchedule {
            seed: 0,
            events: vec![FaultEvent::StuckValve {
                stack: 5,
                from_seconds: 0.0,
            }],
        };
        assert!(bad.validate(2).is_err(), "stack out of range");
        let bad = FaultSchedule {
            seed: 0,
            events: vec![FaultEvent::FeedbackNoise { amplitude_k: -0.1 }],
        };
        assert!(bad.validate(2).is_err(), "negative amplitude");
    }

    #[test]
    fn random_schedules_are_deterministic_and_valid() {
        for seed in 0..32 {
            let a = FaultSchedule::random(seed, 0.1, 3);
            let b = FaultSchedule::random(seed, 0.1, 3);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert!(a.validate(3).is_ok(), "seed {seed}: {a:?}");
        }
        // The generator actually varies.
        assert_ne!(
            FaultSchedule::random(1, 0.1, 3),
            FaultSchedule::random(2, 0.1, 3)
        );
    }

    #[test]
    fn scenario_schedules_are_valid_and_labeled() {
        assert_eq!(FaultScenario::all().len(), 4);
        for scenario in FaultScenario::all() {
            let schedule = scenario.schedule(0.064, 3, FAULTS_DEFAULT_SEED);
            assert!(schedule.validate(3).is_ok(), "{scenario:?}");
            assert_eq!(
                schedule.is_healthy(),
                scenario == FaultScenario::Healthy,
                "{scenario:?}"
            );
            assert!(!scenario.label().is_empty());
        }
    }

    #[test]
    fn healthy_faulted_fleet_reports_no_degradation() {
        let stacks = two_stacks();
        let options = tiny_options(2);
        let outcome =
            run_faulted_fleet(&stacks, &options, &FaultSchedule::healthy(), true).unwrap();
        assert!(outcome.degraded.is_empty());
        assert_eq!(outcome.allocations.len(), 2, "2 phases × 1 segment");
        assert_eq!(outcome.stacks.len(), 2);
        assert!(outcome.worst_stack_peak_gradient_k() > 0.0);
        assert!(outcome.total_evaluations() > 0);
        for alloc in &outcome.allocations {
            let sum: f64 = alloc.iter().sum();
            assert!((sum - options.budget.total_scale).abs() < 1e-9, "{alloc:?}");
        }
    }

    #[test]
    fn deep_pump_ramp_clamps_and_reports() {
        let stacks = two_stacks();
        let options = tiny_options(2);
        // Decay to 40% from t=0: below the 0.5× valve floor, so every
        // post-measurement segment must clamp.
        let schedule = FaultSchedule {
            seed: 1,
            events: vec![FaultEvent::PumpRamp {
                start_seconds: 0.0,
                end_seconds: 0.0,
                final_factor: 0.4,
            }],
        };
        let outcome = run_faulted_fleet(&stacks, &options, &schedule, true).unwrap();
        assert!(
            outcome
                .degraded
                .iter()
                .any(|e| e.kind == DegradedKind::BudgetClamped),
            "{:?}",
            outcome.degraded
        );
        // Shares track the decayed total exactly — the degraded allocator
        // still conserves what the pump actually delivers.
        for alloc in &outcome.allocations {
            let sum: f64 = alloc.iter().sum();
            assert!(
                (sum - 0.4 * options.budget.total_scale).abs() < 1e-9,
                "{alloc:?}"
            );
        }
        // The oblivious baseline under the same schedule never reports.
        let oblivious = run_faulted_fleet(&stacks, &options, &schedule, false).unwrap();
        assert!(oblivious.degraded.is_empty());
        for alloc in &oblivious.allocations {
            let sum: f64 = alloc.iter().sum();
            assert!((sum - 0.4 * options.budget.total_scale).abs() < 1e-9);
        }
    }

    #[test]
    fn stuck_valve_saves_evaluations_when_known() {
        let stacks = two_stacks();
        let options = tiny_options(2);
        let schedule = FaultSchedule {
            seed: 1,
            events: vec![FaultEvent::StuckValve {
                stack: 0,
                from_seconds: 0.0,
            }],
        };
        let aware = run_faulted_fleet(&stacks, &options, &schedule, true).unwrap();
        let oblivious = run_faulted_fleet(&stacks, &options, &schedule, false).unwrap();
        assert!(
            aware
                .degraded
                .iter()
                .any(|e| e.kind == DegradedKind::ValveHeld && e.stack == Some(0)),
            "{:?}",
            aware.degraded
        );
        // Stack 0 skips every epoch when the fault is known; the silent run
        // keeps burning optimizer evaluations on a plant that ignores it.
        assert_eq!(aware.stacks[0].evaluations(), 0);
        assert!(oblivious.stacks[0].evaluations() > 0);
        // The healthy stack keeps modulating in both runs.
        assert!(aware.stacks[1].evaluations() > 0);
    }

    #[test]
    fn faulted_runs_never_panic_and_stay_above_inlet() {
        let stacks = two_stacks();
        let options = tiny_options(2);
        let inlet_k = options.config.params.inlet_temperature.as_kelvin();
        for seed in 0..6 {
            let horizon = 2.0 * options.phase_seconds;
            let schedule = FaultSchedule::random(seed, horizon, 2);
            for aware in [true, false] {
                let outcome = run_faulted_fleet(&stacks, &options, &schedule, aware).unwrap();
                for stack in &outcome.stacks {
                    for seg in &stack.segments {
                        assert!(
                            seg.peak_temperature_k >= inlet_k - 1e-9,
                            "seed {seed} aware {aware}: {} K below inlet",
                            seg.peak_temperature_k
                        );
                        assert!(seg.peak_gradient_k.is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn faults_sweep_is_deterministic_across_workers() {
        let stacks = two_stacks();
        let fast = |mode| {
            let mut options = FaultsSweepOptions {
                fleet: tiny_options(2),
                scenarios: vec![FaultScenario::Healthy, FaultScenario::PumpRamp],
                seed: FAULTS_DEFAULT_SEED,
            };
            options.fleet.mode = mode;
            options
        };
        let serial = run_faults_sweep(&stacks, &fast(ExecutionMode::Serial)).unwrap();
        assert_eq!(serial.rows.len(), 2);
        assert_eq!(serial.workers, 1);
        for workers in [2usize, 4] {
            let parallel = run_faults_sweep(
                &stacks,
                &fast(ExecutionMode::Parallel {
                    workers: std::num::NonZeroUsize::new(workers),
                }),
            )
            .unwrap();
            // PartialEq on FaultsRow compares every f64 exactly.
            assert_eq!(serial.rows, parallel.rows, "workers = {workers}");
        }
        assert_eq!(
            serial.healthy_reference_k().unwrap(),
            serial.rows[0].aware_worst_gradient_k()
        );
        assert_eq!(serial.to_table().len(), 2);
    }

    #[test]
    fn faulted_fleet_is_bitwise_identical_at_any_worker_count() {
        // Faulted stacks fan out per segment like healthy ones; the fault
        // seam runs between wavefronts, so nothing may move with the worker
        // count — not even the order of the degraded events.
        let stacks = two_stacks();
        let schedule = FaultSchedule {
            seed: 3,
            events: vec![
                FaultEvent::PumpRamp {
                    start_seconds: 0.0,
                    end_seconds: 0.0,
                    final_factor: 0.4,
                },
                FaultEvent::StuckValve {
                    stack: 0,
                    from_seconds: 0.0,
                },
                FaultEvent::FeedbackNoise { amplitude_k: 0.1 },
            ],
        };
        let run = |workers: usize| {
            let options = FleetOptions {
                mode: ExecutionMode::Parallel {
                    workers: std::num::NonZeroUsize::new(workers),
                },
                ..tiny_options(2)
            };
            run_faulted_fleet(&stacks, &options, &schedule, true).unwrap()
        };
        let serial = run(1);
        assert!(!serial.degraded.is_empty());
        for workers in [2, 4] {
            let parallel = run(workers);
            assert_eq!(serial.stacks, parallel.stacks, "workers = {workers}");
            assert_eq!(serial.allocations, parallel.allocations);
            assert_eq!(serial.degraded, parallel.degraded);
        }
    }

    #[test]
    fn healthy_aware_run_is_the_fleet_run_bitwise() {
        // The seam adds nothing on a healthy schedule: a fault-aware run
        // allocates and steps exactly like the healthy fleet.
        let stacks = two_stacks();
        let options = FleetOptions {
            allocation: crate::fleet::BudgetPolicy::GradientWaterfill,
            segments_per_phase: 2,
            ..tiny_options(2)
        };
        let faulted =
            run_faulted_fleet(&stacks, &options, &FaultSchedule::healthy(), true).unwrap();
        let healthy = crate::fleet::run_fleet(&stacks, &options).unwrap();
        assert_eq!(faulted.stacks, healthy.stacks);
        assert_eq!(faulted.allocations, healthy.allocations);
        assert!(faulted.degraded.is_empty());
    }

    #[test]
    fn golden_json_shape() {
        let stacks = two_stacks();
        let options = tiny_options(2);
        let schedule =
            FaultScenario::PumpRamp.schedule(2.0 * options.phase_seconds, 2, FAULTS_DEFAULT_SEED);
        let outcome = run_faulted_fleet(&stacks, &options, &schedule, true).unwrap();
        let json = outcome.golden_json("unit");
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"scenario\": \"unit\""));
        assert!(json.contains("\"aware\": 1"));
        assert!(json.contains("\"allocations\""));
        assert!(json.contains("\"degraded_events\""));
        assert!(json.contains("\"worst_gradient_k\""));
    }
}
