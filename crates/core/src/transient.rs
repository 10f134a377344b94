//! Transient workload-driven channel modulation (closed loop over time).
//!
//! The steady-state flow ([`crate::optimize`], [`crate::sweep`]) picks one
//! width profile for one operating point. This module runs the paper's
//! mechanism *over time*: a [`PowerTrace`] schedules workload phases, the
//! grid-sim backward-Euler stepper integrates the stack's temperatures, and
//! a [`ModulationController`] re-optimizes the channel widths at epoch
//! boundaries chosen by an [`EpochPolicy`] — warm-starting each epoch's
//! optimizer from the previous one — and applies the new profile to all
//! subsequent steps.
//!
//! The controller is generic over a [`ModulatedStack`]: the *stack family*
//! that knows how to build the finite-volume stack for a workload + widths
//! and how to run the §IV optimizer for one epoch. Two families ship:
//!
//! * [`StripModulated`] — the Fig. 2 single-channel test strip driven by
//!   [`StripTrace`]s (Tests A/B);
//! * [`crate::mpsoc::MpsocModulated`] — the full two-die Fig. 7 MPSoC
//!   stacks with two cavities, driven by rasterized die traces.
//!
//! The control loop, per time step of `Δt`:
//!
//! 1. look up the phase active during the upcoming step;
//! 2. when the epoch policy fires (fixed cadence, phase boundary, or
//!    gradient threshold), run the §IV optimizer on the phase's analytical
//!    model and **adopt the candidate profile only if its steady-state
//!    gradient does not exceed the incumbent's** — the controller never
//!    trades into a worse design, which is also the invariant the property
//!    tests pin down;
//! 3. rebuild the finite-volume stack if the widths or the power map
//!    changed, handing the node temperatures over exactly
//!    ([`liquamod_grid_sim::TransientStepper::set_state`]); rebuilds go
//!    through a [`liquamod_grid_sim::AssemblyCache`], so an epoch that only
//!    modulated the widths reassembles only the cavity layers' rows;
//! 4. advance one implicit step and record a [`TransientSnapshot`].
//!
//! [`run_transient_sweep`] fans whole scenarios (trace × flow-scale
//! variants) across worker threads with the same determinism guarantee as
//! [`crate::sweep`]: parallel and serial runs are bitwise identical, each
//! variant being one scheduling unit evaluated by a pure function.

use crate::design::{optimize_resumed, DesignWarmStart, OptimizationConfig};
use crate::faults::{DegradedEvent, DegradedKind, SegmentFaults, ValveMode};
use crate::obs;
use crate::scenario::{strip_length, strip_model};
use crate::sweep::{run_variant_sweep, ExecutionMode};
use crate::{bridge, CoreError, CsvTable, Result};
use liquamod_floorplan::testcase::StripLoad;
use liquamod_floorplan::trace::PowerTrace;
use liquamod_grid_sim::solver::SolverOptions;
use liquamod_grid_sim::{
    AssemblyCache, CavitySpec, Material, PowerMap, Stack, StackBuilder, StepperKind,
    TransientOptions,
};
use liquamod_thermal_model::{ModelParams, SolveOptions, SolveWorkspace, WidthProfile};
use liquamod_units::{Length, Power};
use std::time::Duration;

/// A time-varying strip workload (what the strip controller consumes).
pub type StripTrace = PowerTrace<StripLoad>;

/// Per-cavity, per-column-group width profiles: `profiles[cavity][group]`.
/// The strip family has one cavity with one column; the MPSoC family has
/// two cavities with `n_groups` columns each.
pub type CavityProfiles = Vec<Vec<WidthProfile>>;

/// Carry-over state of a segmented transient run: everything
/// [`ModulationController::run_resumed`] needs to continue a trace exactly
/// where a previous segment left off — the node temperatures, the incumbent
/// width profiles, and the epoch optimizer's warm-start chain.
///
/// The fleet sharding layer ([`crate::fleet`]) is the main consumer: it
/// runs each stack phase by phase, reallocating the shared pump budget
/// between segments, and threads this state through so the thermal
/// trajectory is continuous across reallocations.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// The stepper's node temperatures at the hand-over instant
    /// (see [`liquamod_grid_sim::TransientStepper::state`]).
    pub state: Vec<f64>,
    /// The incumbent per-cavity width profiles.
    pub widths: CavityProfiles,
    /// The last adopted epoch's resumable optimizer state — primal optimum
    /// plus augmented-Lagrangian multipliers and penalty (warm start of the
    /// next epoch), when any epoch has been adopted yet.
    pub warm: Option<DesignWarmStart>,
    /// The measured inter-layer gradient at the hand-over instant,
    /// kelvin — seeds the next segment's
    /// [`EpochPolicy::GradientThreshold`] reference so resuming does not
    /// look like a rise from zero.
    pub last_gradient_k: f64,
}

impl ResumeState {
    /// Serializes the resume state in the workspace's golden-fixture
    /// numeric format ([`liquamod_grid_sim::snapshot`]): flat arrays of
    /// shortest-round-trip numbers, so a snapshot written before a process
    /// restart parses back **bitwise** and
    /// [`ModulationController::run_resumed`] continues the trajectory as if
    /// the restart never happened. The width profiles flatten to four
    /// parallel arrays (profiles per cavity, a kind code per profile —
    /// 0 uniform / 1 piecewise-constant / 2 piecewise-linear — values per
    /// profile, and the values in metres); the optimizer warm start rides
    /// along behind a presence flag.
    #[must_use]
    pub fn to_golden_json(&self) -> String {
        use liquamod_grid_sim::snapshot as snap;
        let profiles: Vec<&WidthProfile> = self.widths.iter().flatten().collect();
        let profile_values = |p: &WidthProfile| -> Vec<f64> {
            match p {
                WidthProfile::Uniform(w) => vec![w.si()],
                WidthProfile::PiecewiseConstant { widths } => {
                    widths.iter().map(|w| w.si()).collect()
                }
                WidthProfile::PiecewiseLinear { knots } => knots.iter().map(|w| w.si()).collect(),
            }
        };
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        snap::push_scalar(&mut out, "last_gradient_k", self.last_gradient_k, false);
        snap::push_array(&mut out, "state", self.state.iter().copied(), false);
        snap::push_array(
            &mut out,
            "width_cavity_counts",
            self.widths.iter().map(|cavity| cavity.len() as f64),
            false,
        );
        snap::push_array(
            &mut out,
            "width_kinds",
            profiles.iter().map(|p| match p {
                WidthProfile::Uniform(_) => 0.0,
                WidthProfile::PiecewiseConstant { .. } => 1.0,
                WidthProfile::PiecewiseLinear { .. } => 2.0,
            }),
            false,
        );
        snap::push_array(
            &mut out,
            "width_value_counts",
            profiles.iter().map(|p| profile_values(p).len() as f64),
            false,
        );
        snap::push_array(
            &mut out,
            "width_values_m",
            profiles.iter().flat_map(|p| profile_values(p)),
            false,
        );
        snap::push_scalar(
            &mut out,
            "warm_present",
            if self.warm.is_some() { 1.0 } else { 0.0 },
            false,
        );
        let warm = self.warm.as_ref();
        let empty: &[f64] = &[];
        snap::push_array(
            &mut out,
            "warm_x",
            warm.map_or(empty, |w| &w.x).iter().copied(),
            false,
        );
        snap::push_array(
            &mut out,
            "warm_inequality_multipliers",
            warm.map_or(empty, |w| &w.inequality_multipliers)
                .iter()
                .copied(),
            false,
        );
        snap::push_array(
            &mut out,
            "warm_equality_multipliers",
            warm.map_or(empty, |w| &w.equality_multipliers)
                .iter()
                .copied(),
            false,
        );
        snap::push_scalar(
            &mut out,
            "warm_penalty",
            self.warm.as_ref().map_or(0.0, |w| w.penalty),
            true,
        );
        out.push_str("}\n");
        out
    }

    /// Parses a [`ResumeState::to_golden_json`] document back, bitwise.
    ///
    /// # Errors
    ///
    /// [`CoreError::GridSim`] (an
    /// [`InvalidSnapshot`](liquamod_grid_sim::GridSimError::InvalidSnapshot))
    /// when the document is malformed: unknown schema version, missing
    /// keys, inconsistent profile counts, or a profile whose value count is
    /// impossible for its kind (a uniform profile needs exactly one value,
    /// a piecewise-linear one at least two knots).
    pub fn from_golden_json(json: &str) -> Result<Self> {
        use liquamod_grid_sim::snapshot as snap;
        let bad = |what: String| {
            CoreError::GridSim(liquamod_grid_sim::GridSimError::InvalidSnapshot { what })
        };
        let version = snap::parse_scalar(json, "schema_version")?;
        if version != 1.0 {
            return Err(bad(format!("unknown resume-state schema {version}")));
        }
        let last_gradient_k = snap::parse_scalar(json, "last_gradient_k")?;
        let state = snap::parse_array(json, "state")?;
        let cavity_counts = snap::parse_usize_array(json, "width_cavity_counts")?;
        let kinds = snap::parse_usize_array(json, "width_kinds")?;
        let value_counts = snap::parse_usize_array(json, "width_value_counts")?;
        let values = snap::parse_array(json, "width_values_m")?;
        let n_profiles: usize = cavity_counts.iter().sum();
        if kinds.len() != n_profiles || value_counts.len() != n_profiles {
            return Err(bad(format!(
                "cavity counts promise {n_profiles} profiles, got {} kinds and {} value counts",
                kinds.len(),
                value_counts.len()
            )));
        }
        if values.len() != value_counts.iter().sum::<usize>() {
            return Err(bad(format!(
                "value counts promise {} width values, got {}",
                value_counts.iter().sum::<usize>(),
                values.len()
            )));
        }
        let mut widths: CavityProfiles = Vec::with_capacity(cavity_counts.len());
        let mut profile = 0usize;
        let mut at = 0usize;
        for count in cavity_counts {
            let mut cavity = Vec::with_capacity(count);
            for _ in 0..count {
                let n = value_counts[profile];
                let vals: Vec<Length> = values[at..at + n]
                    .iter()
                    .map(|&v| Length::from_meters(v))
                    .collect();
                cavity.push(match (kinds[profile], n) {
                    (0, 1) => WidthProfile::Uniform(vals[0]),
                    (1, 1..) => WidthProfile::PiecewiseConstant { widths: vals },
                    (2, 2..) => WidthProfile::PiecewiseLinear { knots: vals },
                    (kind, n) => {
                        return Err(bad(format!(
                            "profile {profile}: kind {kind} with {n} value(s) is impossible"
                        )))
                    }
                });
                at += n;
                profile += 1;
            }
            widths.push(cavity);
        }
        let warm = if snap::parse_scalar(json, "warm_present")? == 1.0 {
            Some(DesignWarmStart {
                x: snap::parse_array(json, "warm_x")?,
                inequality_multipliers: snap::parse_array(json, "warm_inequality_multipliers")?,
                equality_multipliers: snap::parse_array(json, "warm_equality_multipliers")?,
                penalty: snap::parse_scalar(json, "warm_penalty")?,
            })
        } else {
            None
        };
        Ok(ResumeState {
            state,
            widths,
            warm,
            last_gradient_k,
        })
    }
}

/// What one epoch's optimizer run produced, plus the incumbent's score on
/// the same model — everything the controller needs for its adopt/reject
/// decision.
#[derive(Debug, Clone)]
pub struct EpochCandidate {
    /// The freshly optimized per-cavity width profiles.
    pub widths: CavityProfiles,
    /// The resumable optimizer state (normalized optimum plus dual state)
    /// for warm-starting the next epoch.
    pub warm: DesignWarmStart,
    /// Steady-state gradient of the candidate on the phase's analytical
    /// model, kelvin.
    pub gradient_k: f64,
    /// Steady-state gradient of the incumbent profiles on the same model,
    /// kelvin.
    pub incumbent_gradient_k: f64,
    /// Objective evaluations the epoch's optimizer spent.
    pub evaluations: usize,
    /// How many of those evaluations also solved the adjoint for a gradient.
    pub adjoint_solves: usize,
    /// Forward BVP solves the epoch's optimizer made (see
    /// [`DesignOutcome::forward_solves`](crate::design::DesignOutcome::forward_solves)).
    pub forward_solves: usize,
}

/// A stack family the [`ModulationController`] can drive: the bridge
/// between a trace's workload payloads and the analytical/finite-volume
/// model pair the modulation loop runs on.
///
/// Implementations must be deterministic pure functions of their inputs —
/// that is what extends the sweep engines' parallel == serial bitwise
/// guarantee to every family.
pub trait ModulatedStack {
    /// The workload payload of one trace phase ([`StripLoad`], rasterized
    /// die pairs, …).
    type Load;

    /// The uniformly-maximal-width starting profiles (the paper's static
    /// baseline and the frozen design of [`ModulationPolicy::FrozenUniform`]).
    fn uniform_widths(&self) -> CavityProfiles;

    /// `true` when the phase has nothing to balance (an all-zero workload):
    /// the controller then skips the epoch and keeps the incumbent.
    fn load_is_idle(&self, load: &Self::Load) -> bool;

    /// Builds the finite-volume stack for one phase's workload under the
    /// given width profiles.
    ///
    /// # Errors
    ///
    /// Propagates stack-construction failures.
    fn build_stack(&self, load: &Self::Load, widths: &CavityProfiles) -> Result<Stack>;

    /// Runs one epoch's §IV optimization against `load`'s analytical model
    /// (warm-started from `warm`) and scores the incumbent profiles on the
    /// same model, reusing `ws` for the solve buffers.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and optimizer failures.
    fn optimize_epoch(
        &self,
        load: &Self::Load,
        incumbent: &CavityProfiles,
        warm: Option<&DesignWarmStart>,
        ws: &mut SolveWorkspace,
    ) -> Result<EpochCandidate>;

    /// Samples the profiles for an [`EpochRecord`], in µm: one row per
    /// (cavity, column) pair, in cavity-major order.
    fn sample_widths_um(&self, widths: &CavityProfiles) -> Vec<Vec<f64>>;
}

/// Configuration shared by every transient strip run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    /// Model parameters (geometry, coolant, flow, width range).
    pub params: ModelParams,
    /// Optimizer configuration used at each modulation epoch (each epoch
    /// solve is single-threaded; scenario-level parallelism owns the cores).
    pub optimizer: OptimizationConfig,
    /// Backward-Euler time step, seconds.
    pub dt_seconds: f64,
    /// Finite-volume cells along the flow direction.
    pub nz: usize,
    /// Linear-solver controls for each implicit step.
    pub solver: SolverOptions,
    /// Integrator backend for the closed-loop stepping (backward Euler by
    /// default; the condensed exponential integrator is the fast path).
    pub stepper: StepperKind,
}

impl TransientConfig {
    /// A coarse configuration sized for tests and CI: 2 ms steps, 40 cells
    /// along the channel, a 4-segment control profile on a 48-interval BVP
    /// mesh.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            params: ModelParams::date2012(),
            optimizer: OptimizationConfig {
                segments: 4,
                mesh_intervals: 48,
                ..OptimizationConfig::fast()
            },
            dt_seconds: 2e-3,
            nz: 40,
            solver: SolverOptions::default(),
            stepper: StepperKind::BackwardEuler,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.dt_seconds.is_finite() && self.dt_seconds > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: format!("dt must be positive, got {}", self.dt_seconds),
            });
        }
        if self.nz == 0 {
            return Err(CoreError::InvalidConfig {
                what: "nz must be ≥ 1".into(),
            });
        }
        Ok(())
    }

    /// The configuration with the per-channel coolant flow scaled by
    /// `scale` — the budget hook sweep variants and budget allocators
    /// drive instead of mutating [`ModelParams`] by hand. A scale of
    /// exactly 1.0 returns the configuration unchanged.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `scale` is not positive and finite.
    pub fn with_flow_scale(&self, scale: f64) -> Result<Self> {
        let mut config = self.clone();
        config.params.flow_rate_per_channel = scale_flow(self.params.flow_rate_per_channel, scale)?;
        Ok(config)
    }
}

/// Shared guts of the `with_flow_scale` budget hooks: validates the scale
/// and leaves the rate bitwise untouched when it is exactly 1.0.
pub(crate) fn scale_flow(
    rate: liquamod_units::VolumetricFlowRate,
    scale: f64,
) -> Result<liquamod_units::VolumetricFlowRate> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(CoreError::InvalidConfig {
            what: format!("flow scale must be positive and finite, got {scale}"),
        });
    }
    Ok(if scale == 1.0 { rate } else { rate * scale })
}

/// When a modulated controller re-optimizes the widths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpochPolicy {
    /// Re-optimize every `epoch_steps` time steps (the first epoch fires at
    /// step 0, before any stepping).
    FixedCadence {
        /// Steps between re-optimizations (must be ≥ 1).
        epoch_steps: usize,
    },
    /// Re-optimize at step 0 and at the first step of every new workload
    /// phase — the event-triggered policy matching piecewise-constant
    /// traces exactly (no wasted epochs inside a phase, none missed at a
    /// migration).
    PhaseBoundary,
    /// Re-optimize at step 0 and whenever the measured inter-layer gradient
    /// has risen more than `rise_k` kelvin above its reference — the value
    /// at the last epoch decision, ratcheted down to the smallest gradient
    /// observed since (so a decay, e.g. an idle phase, re-arms the trigger
    /// for the next excursion). The reactive policy for traces whose
    /// thermal excursions, not phase labels, should drive re-optimization.
    GradientThreshold {
        /// Gradient rise (kelvin) that triggers a new epoch (must be finite
        /// and ≥ 0).
        rise_k: f64,
    },
}

impl EpochPolicy {
    fn validate(&self) -> Result<()> {
        match self {
            EpochPolicy::FixedCadence { epoch_steps } => {
                if *epoch_steps == 0 {
                    return Err(CoreError::InvalidConfig {
                        what: "epoch_steps must be ≥ 1".into(),
                    });
                }
            }
            EpochPolicy::PhaseBoundary => {}
            EpochPolicy::GradientThreshold { rise_k } => {
                if !(rise_k.is_finite() && *rise_k >= 0.0) {
                    return Err(CoreError::InvalidConfig {
                        what: format!("rise_k must be finite and ≥ 0, got {rise_k}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether an epoch fires at a stack (re)build point: step 0, a phase
    /// boundary, or re-entry after an adopted profile.
    fn fires_at_boundary(&self, n: usize, new_phase: bool) -> bool {
        match self {
            EpochPolicy::FixedCadence { epoch_steps } => n.is_multiple_of(*epoch_steps),
            EpochPolicy::PhaseBoundary => n == 0 || new_phase,
            EpochPolicy::GradientThreshold { .. } => n == 0,
        }
    }

    /// Whether an epoch fires mid-phase after the step to `n`, given the
    /// latest measured gradient and the reference gradient (the smallest
    /// gradient observed since the last decision — see
    /// [`EpochContext::observe_gradient`]).
    fn fires_inline(&self, n: usize, gradient_k: f64, ref_gradient_k: f64) -> bool {
        match self {
            EpochPolicy::FixedCadence { epoch_steps } => n.is_multiple_of(*epoch_steps),
            EpochPolicy::PhaseBoundary => false,
            EpochPolicy::GradientThreshold { rise_k } => gradient_k > ref_gradient_k + rise_k,
        }
    }
}

/// What the controller does at epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModulationPolicy {
    /// Never modulate: keep the uniformly-maximal-width design for the
    /// whole run (the static-design baseline the paper compares against).
    FrozenUniform,
    /// Re-optimize the widths whenever the wrapped [`EpochPolicy`] fires.
    Modulated(EpochPolicy),
}

impl ModulationPolicy {
    /// Fixed-cadence modulation — shorthand for
    /// `Modulated(EpochPolicy::FixedCadence { epoch_steps })`.
    #[must_use]
    pub fn every(epoch_steps: usize) -> Self {
        ModulationPolicy::Modulated(EpochPolicy::FixedCadence { epoch_steps })
    }

    fn validate(&self) -> Result<()> {
        match self {
            ModulationPolicy::FrozenUniform => Ok(()),
            ModulationPolicy::Modulated(policy) => policy.validate(),
        }
    }
}

/// One recorded time step of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSnapshot {
    /// Simulation time at the end of the step, seconds.
    pub time_seconds: f64,
    /// Peak silicon temperature, kelvin.
    pub peak_k: f64,
    /// Minimum silicon temperature, kelvin.
    pub min_k: f64,
    /// Inter-layer thermal gradient (max − min silicon temperature), kelvin.
    pub gradient_k: f64,
    /// Power injected by the active phase, watts.
    pub injected_w: f64,
    /// Power advected out by the coolant at the end of the step, watts.
    pub advected_w: f64,
    /// Energy stored in the lumped capacitances over the step, joules.
    pub stored_joules: f64,
}

/// One modulation-epoch decision.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Step index the epoch fired at (time = `step · Δt`).
    pub step: usize,
    /// Simulation time of the decision, seconds.
    pub time_seconds: f64,
    /// Label of the workload phase the optimizer targeted.
    pub phase: String,
    /// Steady-state gradient of the freshly optimized candidate profile on
    /// the phase's analytical model, kelvin.
    pub candidate_gradient_k: f64,
    /// Steady-state gradient of the incumbent (previous) profile on the
    /// same model, kelvin.
    pub incumbent_gradient_k: f64,
    /// Whether the candidate replaced the incumbent (`candidate ≤
    /// incumbent`; the controller never adopts a worse steady design).
    pub adopted: bool,
    /// Objective evaluations the epoch's optimizer spent.
    pub evaluations: usize,
    /// The *effective* width profiles after the decision, sampled at the
    /// optimizer's segment centres: `widths_um[cavity·columns + column]
    /// [segment]`, µm.
    pub widths_um: Vec<Vec<f64>>,
}

/// The full record of one transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOutcome {
    /// One snapshot per time step, in order.
    pub snapshots: Vec<TransientSnapshot>,
    /// One record per modulation epoch (empty for frozen runs).
    pub epochs: Vec<EpochRecord>,
    /// The time step the run used, seconds.
    pub dt_seconds: f64,
    /// Structured degraded-mode events the run surfaced (always empty for
    /// healthy runs — see [`ModulationController::run_faulted`]). Stamped
    /// with segment-local times; the fleet layer adds segment and stack
    /// indices when stitching.
    pub degraded: Vec<DegradedEvent>,
}

impl TransientOutcome {
    /// The time-peak inter-layer gradient — the headline transient metric
    /// (a modulated run must beat the frozen design on it).
    #[must_use]
    pub fn peak_gradient_k(&self) -> f64 {
        self.snapshots
            .iter()
            .map(|s| s.gradient_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The time-peak silicon temperature, kelvin.
    #[must_use]
    pub fn peak_temperature_k(&self) -> f64 {
        self.snapshots
            .iter()
            .map(|s| s.peak_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total optimizer objective evaluations across all epochs.
    #[must_use]
    pub fn total_evaluations(&self) -> usize {
        self.epochs.iter().map(|e| e.evaluations).sum()
    }

    /// Number of epochs whose candidate was adopted.
    #[must_use]
    pub fn epochs_adopted(&self) -> usize {
        self.epochs.iter().filter(|e| e.adopted).count()
    }

    /// Canonical JSON serialization for golden-regression fixtures: flat
    /// arrays of full-precision numbers (Rust's shortest round-trip float
    /// formatting), so snapshots diff numerically at 1e-9 without a JSON
    /// dependency. The leading `schema_version` is asserted by the golden
    /// tests alongside the numeric channels. See `tests/golden_transient.rs`
    /// for the comparer and the `LIQUAMOD_REGEN_GOLDEN=1` regeneration knob.
    #[must_use]
    pub fn golden_json(&self, scenario: &str) -> String {
        use liquamod_grid_sim::snapshot as snap;
        let mut out = format!("{{\n  \"schema_version\": 1,\n  \"scenario\": \"{scenario}\",\n");
        snap::push_scalar(&mut out, "dt_seconds", self.dt_seconds, false);
        let snapshots: [GoldenChannel<TransientSnapshot>; 4] = [
            ("times", |s| s.time_seconds),
            ("peak_k", |s| s.peak_k),
            ("min_k", |s| s.min_k),
            ("gradient_k", |s| s.gradient_k),
        ];
        for (key, value) in snapshots {
            snap::push_array(&mut out, key, self.snapshots.iter().map(value), false);
        }
        let epochs: [GoldenChannel<EpochRecord>; 4] = [
            ("epoch_steps_at", |e| e.step as f64),
            ("epoch_adopted", |e| if e.adopted { 1.0 } else { 0.0 }),
            ("epoch_candidate_gradient_k", |e| e.candidate_gradient_k),
            ("epoch_incumbent_gradient_k", |e| e.incumbent_gradient_k),
        ];
        for (key, value) in epochs {
            snap::push_array(&mut out, key, self.epochs.iter().map(value), false);
        }
        let widths: Vec<String> = self
            .epochs
            .iter()
            .map(|e| snap::render_array(e.widths_um.iter().flatten().copied()))
            .collect();
        out.push_str(&format!("  \"epoch_widths_um\": [{}]\n", widths.join(", ")));
        out.push_str("}\n");
        out
    }
}

/// One named numeric channel of a golden-fixture document: the key and
/// how to read its value off one record.
pub(crate) type GoldenChannel<T> = (&'static str, fn(&T) -> f64);

/// The strip stack family: the Fig. 2 test structure (one channel between
/// two active strips), loaded by [`StripLoad`]s — the original instance the
/// [`ModulatedStack`] abstraction was generalized from.
#[derive(Debug, Clone)]
pub struct StripModulated {
    params: ModelParams,
    /// Epoch optimizer configuration.
    opt_config: OptimizationConfig,
    solve: SolveOptions,
    nz: usize,
}

impl StripModulated {
    /// Builds the strip family from a validated [`TransientConfig`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a non-positive `dt` or a zero `nz`.
    pub fn new(config: &TransientConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            params: config.params.clone(),
            opt_config: config.optimizer.clone(),
            solve: SolveOptions::with_mesh_intervals(config.optimizer.mesh_intervals),
            nz: config.nz,
        })
    }
}

impl ModulatedStack for StripModulated {
    type Load = StripLoad;

    fn uniform_widths(&self) -> CavityProfiles {
        vec![vec![WidthProfile::uniform(self.params.w_max)]]
    }

    fn load_is_idle(&self, load: &StripLoad) -> bool {
        load.max_flux() <= 0.0
    }

    fn build_stack(&self, load: &StripLoad, widths: &CavityProfiles) -> Result<Stack> {
        strip_stack(load, &self.params, &widths[0], self.nz)
    }

    fn optimize_epoch(
        &self,
        load: &StripLoad,
        incumbent: &CavityProfiles,
        warm: Option<&DesignWarmStart>,
        ws: &mut SolveWorkspace,
    ) -> Result<EpochCandidate> {
        let model = strip_model(load, &self.params)?;
        let (outcome, next_warm) = optimize_resumed(&model, &self.opt_config, warm)?;
        let gradient_k = outcome.solution.thermal_gradient().as_kelvin();
        // The optimizer is done with the base model: reuse it for the
        // incumbent evaluation instead of cloning.
        let mut incumbent_model = model;
        incumbent_model.set_width_profile(0, incumbent[0][0].clone())?;
        let incumbent_gradient_k = incumbent_model
            .solve_with(&self.solve, ws)?
            .thermal_gradient()
            .as_kelvin();
        Ok(EpochCandidate {
            widths: vec![outcome.widths],
            warm: next_warm,
            gradient_k,
            incumbent_gradient_k,
            evaluations: outcome.evaluations,
            adjoint_solves: outcome.adjoint_solves,
            forward_solves: outcome.forward_solves,
        })
    }

    fn sample_widths_um(&self, widths: &CavityProfiles) -> Vec<Vec<f64>> {
        sample_widths_um(
            widths.iter().flatten(),
            self.opt_config.segments,
            strip_length(),
        )
    }
}

/// Drives a transient run: steps the finite-volume stack of a
/// [`ModulatedStack`] family through a [`PowerTrace`] and (under
/// [`ModulationPolicy::Modulated`]) re-optimizes the channel widths when the
/// epoch policy fires, warm-starting each epoch from the previous optimum.
#[derive(Debug, Clone)]
pub struct ModulationController<S: ModulatedStack = StripModulated> {
    family: S,
    dt_seconds: f64,
    solver: SolverOptions,
    stepper: StepperKind,
    policy: ModulationPolicy,
}

impl ModulationController<StripModulated> {
    /// Builds the strip controller, validating the configuration — the
    /// strip-specialized shorthand for [`ModulationController::for_stack`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a non-positive `dt`, a zero `nz`
    /// or an invalid epoch policy (zero `epoch_steps`, negative `rise_k`).
    pub fn new(config: TransientConfig, policy: ModulationPolicy) -> Result<Self> {
        let stepper = config.stepper.clone();
        Ok(Self::for_stack(
            StripModulated::new(&config)?,
            config.dt_seconds,
            config.solver,
            policy,
        )?
        .with_stepper(stepper))
    }
}

impl<S: ModulatedStack> ModulationController<S> {
    /// Builds a controller for any stack family.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a non-positive `dt` or an invalid
    /// epoch policy.
    pub fn for_stack(
        family: S,
        dt_seconds: f64,
        solver: SolverOptions,
        policy: ModulationPolicy,
    ) -> Result<Self> {
        if !(dt_seconds.is_finite() && dt_seconds > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: format!("dt must be positive, got {dt_seconds}"),
            });
        }
        policy.validate()?;
        Ok(Self {
            family,
            dt_seconds,
            solver,
            stepper: StepperKind::BackwardEuler,
            policy,
        })
    }

    /// Replaces the integrator backend (backward Euler unless overridden).
    #[must_use]
    pub fn with_stepper(mut self, stepper: StepperKind) -> Self {
        self.stepper = stepper;
        self
    }

    /// The policy this controller applies at epoch boundaries.
    #[must_use]
    pub fn policy(&self) -> ModulationPolicy {
        self.policy
    }

    /// The stack family this controller drives.
    #[must_use]
    pub fn family(&self) -> &S {
        &self.family
    }

    /// Runs the whole trace and collects the outcome. The number of steps
    /// is `round(total_duration / Δt)` (at least 1); the workload active
    /// during a step is the phase at the step's midpoint, so phase
    /// boundaries land exactly between steps when durations are multiples
    /// of `Δt`. Epochs that land on an all-zero workload phase skip the
    /// optimizer and keep the incumbent profile (no [`EpochRecord`] is
    /// emitted — there is nothing to balance).
    ///
    /// # Errors
    ///
    /// Propagates model-construction, optimizer and stepper failures.
    pub fn run(&self, trace: &PowerTrace<S::Load>) -> Result<TransientOutcome> {
        self.run_resumed(trace, None).map(|(outcome, _)| outcome)
    }

    /// [`ModulationController::run`] for one *segment* of a longer
    /// schedule: starts from `resume` (or from thermal equilibrium and the
    /// uniform widths when `None` — exactly [`ModulationController::run`])
    /// and also returns the [`ResumeState`] at the end of the trace, so the
    /// caller can chain segments — rebuilding the controller in between,
    /// e.g. with a reallocated coolant-flow budget
    /// ([`MpsocConfig::with_flow_scale`](crate::mpsoc::MpsocConfig::with_flow_scale))
    /// — while the thermal trajectory stays continuous.
    ///
    /// Snapshot timestamps restart at `Δt` within each segment; callers
    /// stitching segments into one timeline add their own offsets.
    ///
    /// # Errors
    ///
    /// Propagates model-construction, optimizer and stepper failures.
    pub fn run_resumed(
        &self,
        trace: &PowerTrace<S::Load>,
        resume: Option<ResumeState>,
    ) -> Result<(TransientOutcome, ResumeState)> {
        self.run_faulted(trace, resume, &SegmentFaults::default(), None)
    }

    /// [`ModulationController::run_resumed`] under injected faults: the
    /// fault-tolerant entry point of the [`crate::faults`] subsystem.
    ///
    /// `faults` describes the segment's operating conditions:
    ///
    /// - A stuck valve group ([`ValveMode::StuckKnown`] /
    ///   [`ValveMode::StuckSilent`]) freezes the *plant's* channel widths at
    ///   the segment's entry profile. A known stuck valve also skips the
    ///   epoch optimizer (there is nothing to actuate) and records a
    ///   [`DegradedKind::ValveHeld`] event; a silent one lets the controller
    ///   keep optimizing and "adopting" profiles that never reach the plant
    ///   — the fault-oblivious failure mode the bench compares against.
    /// - `inlet_delta_k`/`inlet_known` describe a coolant inlet-temperature
    ///   excursion. The thermal effect itself comes from the families the
    ///   caller builds (see `plant` below and
    ///   [`MpsocConfig::with_inlet_offset`](crate::mpsoc::MpsocConfig::with_inlet_offset));
    ///   here a *known* nonzero excursion is surfaced as a
    ///   [`DegradedKind::InletExcursion`] event.
    /// - `tolerant` arms the fall-back-to-last-feasible-widths rule: an
    ///   epoch optimization failure keeps the incumbent profile and records
    ///   a [`DegradedKind::EpochFallback`] event instead of aborting the
    ///   run. Healthy runs leave it off so real errors propagate.
    ///
    /// `plant` optionally substitutes the family used to *build the stepped
    /// stack* (the physical truth) while `self.family` keeps driving the
    /// epoch optimizer (the controller's belief) — how a fault-oblivious
    /// controller runs against a plant whose inlet has silently drifted.
    /// `None` uses `self.family` for both.
    ///
    /// With default (healthy) faults and no plant override this is exactly
    /// [`ModulationController::run_resumed`], bitwise.
    ///
    /// # Errors
    ///
    /// Propagates model-construction, optimizer and stepper failures
    /// (optimizer failures only when `tolerant` is off).
    pub fn run_faulted(
        &self,
        trace: &PowerTrace<S::Load>,
        resume: Option<ResumeState>,
        faults: &SegmentFaults,
        plant: Option<&S>,
    ) -> Result<(TransientOutcome, ResumeState)> {
        let dt = self.dt_seconds;
        if trace.phases().is_empty() {
            return Err(CoreError::InvalidConfig {
                what: "a transient run needs at least one trace phase".into(),
            });
        }
        let total_steps = ((trace.total_duration_seconds() / dt).round() as usize).max(1);
        let (mut state, widths, warm, resume_gradient_k) = match resume {
            Some(r) => (Some(r.state), r.widths, r.warm, r.last_gradient_k),
            None => (None, self.family.uniform_widths(), None, 0.0),
        };
        let plant_family = plant.unwrap_or(&self.family);
        // Under a stuck valve the plant's widths stay frozen at the entry
        // profile whatever the controller decides; otherwise they track the
        // controller's incumbent.
        let frozen_widths = (faults.valve != ValveMode::Healthy).then(|| widths.clone());
        let mut degraded: Vec<DegradedEvent> = Vec::new();
        if faults.valve == ValveMode::StuckKnown {
            degraded.push(DegradedEvent::local(
                DegradedKind::ValveHeld,
                0.0,
                "valve group stuck: widths held at the entry profile, epochs skipped".into(),
            ));
        }
        if faults.inlet_known && faults.inlet_delta_k != 0.0 {
            degraded.push(DegradedEvent::local(
                DegradedKind::InletExcursion,
                0.0,
                format!(
                    "coolant inlet excursion of {:+} K over the segment",
                    faults.inlet_delta_k
                ),
            ));
        }
        let mut ctx = EpochContext {
            family: &self.family,
            ws: SolveWorkspace::new(),
            widths,
            warm,
            epochs: Vec::new(),
            decided_at: None,
            ref_gradient_k: resume_gradient_k,
            dt,
        };
        let mut snapshots: Vec<TransientSnapshot> = Vec::with_capacity(total_steps);
        // Stack rebuilds share an assembly cache: layers whose description
        // did not change (everything but the cavities, at a widths-only
        // epoch) keep their assembled rows.
        let mut asm_cache = AssemblyCache::new();

        let mut n = 0usize;
        let mut prev_phase: Option<usize> = None;
        while n < total_steps {
            // One epoch of the controller loop: decide, rebuild, advance.
            let _epoch_span = obs::span("epoch.run");
            let phase = trace.phase_index_at((n as f64 + 0.5) * dt);
            let load = &trace.phases()[phase].load;
            let new_phase = prev_phase != Some(phase);
            prev_phase = Some(phase);

            if let ModulationPolicy::Modulated(policy) = &self.policy {
                // A known-stuck valve has nothing to actuate: skip the
                // optimizer outright (the evaluations saved are part of the
                // aware controller's win over the oblivious one).
                if faults.valve != ValveMode::StuckKnown
                    // `decided_at` guards the re-entry path: an adopted epoch
                    // breaks the inner loop and lands back here at the same `n`
                    // with its decision already made.
                    && ctx.decided_at != Some(n)
                    && policy.fires_at_boundary(n, new_phase)
                {
                    // Before any step of a resumed segment, the live
                    // gradient is the one handed over — not zero, or a
                    // GradientThreshold reference seeded here would see
                    // the hand-over temperature field as a full rise.
                    let gradient_now = snapshots.last().map_or(resume_gradient_k, |s| s.gradient_k);
                    match ctx.decide(n, &trace.phases()[phase].label, load, gradient_now) {
                        Ok(_) => {}
                        Err(e) if faults.tolerant => {
                            degraded.push(DegradedEvent::epoch_fallback(n as f64 * dt, &e));
                        }
                        Err(e) => return Err(e),
                    }
                }
            }

            // (Re)build the stack for the current phase and widths and hand
            // the temperatures over; run until the next decision point that
            // actually changes the stack (new phase, or adopted widths).
            let rebuild_span = obs::span("assembly.rebuild");
            let values_before = asm_cache.values_refreshes();
            let symbolic_before = asm_cache.symbolic_builds();
            let stack =
                plant_family.build_stack(load, frozen_widths.as_ref().unwrap_or(&ctx.widths))?;
            let mut stepper = stack.transient_stepper_cached(
                &TransientOptions {
                    dt_seconds: dt,
                    steps: 1,
                    initial: None,
                    solver: self.solver.clone(),
                    stepper: self.stepper.clone(),
                },
                &mut asm_cache,
            )?;
            obs::add(
                "assembly.values_only_refreshes",
                (asm_cache.values_refreshes() - values_before) as u64,
            );
            obs::add(
                "assembly.full_rebuilds",
                (asm_cache.symbolic_builds() - symbolic_before) as u64,
            );
            // `stepper_from_assembly` condenses a fresh exponential
            // propagator per stepper construction.
            if matches!(self.stepper, StepperKind::Exponential(_)) {
                obs::add("expstep.matrix_rebuilds", 1);
            }
            drop(rebuild_span);
            if let Some(s) = &state {
                stepper.set_state(s, n as f64 * dt)?;
            }
            let _advance_span = obs::span("stepper.advance");
            loop {
                let sample = stepper.step()?;
                n += 1;
                snapshots.push(TransientSnapshot {
                    // Stamped from the global step index, not the stepper's
                    // clock: rebuild points then cannot perturb timestamps,
                    // so runs with different epoch decisions stay zippable
                    // by exact time.
                    time_seconds: n as f64 * dt,
                    peak_k: sample.field.peak_temperature().as_kelvin(),
                    min_k: sample.field.min_temperature().as_kelvin(),
                    gradient_k: sample.field.thermal_gradient().as_kelvin(),
                    injected_w: sample.field.total_power().as_watts(),
                    advected_w: sample.field.advected_power().as_watts(),
                    stored_joules: sample.stored_joules,
                });
                if n >= total_steps {
                    break;
                }
                if trace.phase_index_at((n as f64 + 0.5) * dt) != phase {
                    break;
                }
                if let ModulationPolicy::Modulated(policy) = &self.policy {
                    if faults.valve == ValveMode::StuckKnown {
                        continue;
                    }
                    // Decide in place while the stepper is alive: a rejected
                    // candidate (or a skipped zero-power epoch) leaves the
                    // stack unchanged, so stepping just continues — no
                    // rebuild, no reassembly. An identical stack would
                    // produce a bitwise-identical system anyway, so the
                    // trajectory is the same either way. (Under a silently
                    // stuck valve an "adoption" still breaks out, but the
                    // rebuild reuses the frozen plant widths — identical
                    // stack, identical trajectory.)
                    let gradient_now = snapshots.last().map_or(0.0, |s| s.gradient_k);
                    ctx.observe_gradient(gradient_now);
                    if policy.fires_inline(n, gradient_now, ctx.ref_gradient_k) {
                        match ctx.decide(n, &trace.phases()[phase].label, load, gradient_now) {
                            Ok(true) => break,
                            Ok(false) => {}
                            Err(e) if faults.tolerant => {
                                degraded.push(DegradedEvent::epoch_fallback(n as f64 * dt, &e));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
            state = Some(stepper.state().to_vec());
        }

        // `total_steps >= 1` makes this unreachable in practice, but a
        // degenerate trace must surface as a typed error, never an abort
        // mid-fleet.
        let final_state = state.ok_or_else(|| CoreError::InvalidConfig {
            what: format!(
                "transient run produced no steps ({} phases, {} s total)",
                trace.phases().len(),
                trace.total_duration_seconds()
            ),
        })?;
        let last_gradient_k = snapshots.last().map_or(resume_gradient_k, |s| s.gradient_k);
        // Fold the degraded-mode stream into the observability event log —
        // simulation-time stamped, so the record is deterministic.
        for e in &degraded {
            obs::event(
                e.kind.label(),
                format!("t={:.6} s: {}", e.time_seconds, e.detail),
            );
        }
        Ok((
            TransientOutcome {
                snapshots,
                epochs: ctx.epochs,
                dt_seconds: dt,
                degraded,
            },
            ResumeState {
                state: final_state,
                // Hand the *plant's* widths to the next segment: under a
                // stuck valve the physical profile is the frozen one,
                // whatever the (possibly oblivious) controller believes.
                widths: frozen_widths.unwrap_or(ctx.widths),
                warm: ctx.warm,
                last_gradient_k,
            },
        ))
    }
}

/// The mutable state of the epoch decision loop: the incumbent profiles,
/// the warm-start chain and the records, plus the solve machinery shared
/// across epochs.
struct EpochContext<'a, S: ModulatedStack> {
    family: &'a S,
    ws: SolveWorkspace,
    widths: CavityProfiles,
    warm: Option<DesignWarmStart>,
    epochs: Vec<EpochRecord>,
    /// The step the last [`EpochContext::decide`] call ran at, so the run
    /// loop never decides twice at one step.
    decided_at: Option<usize>,
    /// The [`EpochPolicy::GradientThreshold`] reference: the measured
    /// gradient at the last decision, ratcheted down by
    /// [`EpochContext::observe_gradient`] as the gradient decays.
    ref_gradient_k: f64,
    dt: f64,
}

impl<S: ModulatedStack> EpochContext<'_, S> {
    /// Ratchets the threshold reference down to the smallest gradient seen
    /// since the last decision, so a decayed excursion (an idle phase, a
    /// cooler workload) re-arms [`EpochPolicy::GradientThreshold`] instead
    /// of leaving a stale high-water mark that later excursions can never
    /// exceed.
    fn observe_gradient(&mut self, gradient_k: f64) {
        if gradient_k < self.ref_gradient_k {
            self.ref_gradient_k = gradient_k;
        }
    }
    /// Runs one epoch's optimize-and-compare decision at step `n`,
    /// mutating the incumbent profiles on adoption. Returns whether the
    /// widths changed (the caller only rebuilds the stack then). An
    /// all-zero phase has nothing to balance (and a zero-cost starting
    /// point the optimizer rejects): it keeps the incumbent and records
    /// nothing.
    fn decide(
        &mut self,
        n: usize,
        phase_label: &str,
        load: &S::Load,
        gradient_now_k: f64,
    ) -> Result<bool> {
        self.decided_at = Some(n);
        self.ref_gradient_k = gradient_now_k;
        if self.family.load_is_idle(load) {
            return Ok(false);
        }
        let _span = obs::span("epoch.solve");
        if self.warm.is_some() {
            obs::add("optimizer.warm_start_hits", 1);
        }
        let EpochCandidate {
            widths,
            warm,
            gradient_k,
            incumbent_gradient_k,
            evaluations,
            adjoint_solves,
            forward_solves,
        } = self
            .family
            .optimize_epoch(load, &self.widths, self.warm.as_ref(), &mut self.ws)?;
        obs::add("optimizer.evaluations", evaluations as u64);
        obs::add("optimizer.adjoint_solves", adjoint_solves as u64);
        obs::add("optimizer.forward_solves", forward_solves as u64);
        // Never trade into a worse steady design: the incumbent profile is
        // always a feasible fallback.
        let adopted = gradient_k <= incumbent_gradient_k;
        obs::add(
            if adopted {
                "epoch.adopted"
            } else {
                "epoch.rejected"
            },
            1,
        );
        if adopted {
            self.widths = widths;
            self.warm = Some(warm);
        }
        self.epochs.push(EpochRecord {
            step: n,
            time_seconds: n as f64 * self.dt,
            phase: phase_label.to_string(),
            candidate_gradient_k: gradient_k,
            incumbent_gradient_k,
            adopted,
            evaluations,
            widths_um: self.family.sample_widths_um(&self.widths),
        });
        Ok(adopted)
    }
}

/// Samples width profiles at `segments` cell centres per column, in µm.
pub(crate) fn sample_widths_um<'a>(
    profiles: impl Iterator<Item = &'a WidthProfile>,
    segments: usize,
    d: Length,
) -> Vec<Vec<f64>> {
    profiles
        .map(|p| {
            (0..segments)
                .map(|k| {
                    let z = Length::from_meters((k as f64 + 0.5) * d.si() / segments as f64);
                    p.width_at(z, d).as_micrometers()
                })
                .collect()
        })
        .collect()
}

/// Builds the finite-volume twin of [`strip_model`]: one channel pitch
/// across the flow (`nx = 1`), `nz` cells along it, both active layers
/// carrying the load's segment fluxes, and the cavity sampled from `widths`
/// at the cell centres.
///
/// # Errors
///
/// Propagates stack-validation failures (e.g. widths outside `(0, pitch)`).
pub fn strip_stack(
    load: &StripLoad,
    params: &ModelParams,
    widths: &[WidthProfile],
    nz: usize,
) -> Result<Stack> {
    let d = strip_length();
    let dz = d.si() / nz as f64;
    let layer_map = |fluxes_w_cm2: &[f64]| -> PowerMap {
        // The same per-unit-length conversion the analytical model uses
        // (`q̂ = flux · pitch`), times the cell length.
        let q_w_per_m = StripLoad::layer_w_per_m(fluxes_w_cm2, params.pitch.si());
        let mut map = PowerMap::zeros(1, nz);
        for j in 0..nz {
            let zc = (j as f64 + 0.5) * dz;
            let seg = (((zc / d.si()) * q_w_per_m.len() as f64) as usize).min(q_w_per_m.len() - 1);
            map.set_cell(0, j, Power::from_watts(q_w_per_m[seg] * dz));
        }
        map
    };
    let stack = StackBuilder::new(params.pitch, d, 1, nz)
        .inlet_temperature(params.inlet_temperature)
        .silicon_layer("bottom", params.h_si)
        .powered_by(layer_map(&load.bottom_w_cm2))
        .microchannel_cavity_with(CavitySpec {
            height: params.h_c,
            coolant: params.coolant.clone(),
            flow_rate_per_channel: params.flow_rate_per_channel,
            nusselt: params.nusselt,
            wall_material: Material::silicon(),
            widths: bridge::cavity_widths_from_profiles(widths, 1, d, nz),
        })
        .silicon_layer("top", params.h_si)
        .powered_by(layer_map(&load.top_w_cm2))
        .build()?;
    Ok(stack)
}

/// Which time-varying workload a transient sweep variant runs.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpec {
    /// Test A stepping to `high_scale`× its baseline flux halfway through.
    TestAStep {
        /// Flux multiplier of the second phase.
        high_scale: f64,
    },
    /// `phases` independent Test-B draws (phase `k` seeded `seed + k`).
    TestBPhases {
        /// Base seed of the phase draws.
        seed: u64,
        /// Number of phases.
        phases: usize,
    },
}

impl TraceSpec {
    /// Short label used in report rows.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TraceSpec::TestAStep { high_scale } => format!("testA-step*{high_scale:.2}"),
            TraceSpec::TestBPhases { seed, phases } => format!("testB#{seed:x}x{phases}"),
        }
    }

    /// Materializes the trace with `phase_seconds` per phase.
    #[must_use]
    pub fn trace(&self, phase_seconds: f64) -> StripTrace {
        match self {
            TraceSpec::TestAStep { high_scale } => {
                liquamod_floorplan::trace::test_a_step(phase_seconds, *high_scale)
            }
            TraceSpec::TestBPhases { seed, phases } => {
                liquamod_floorplan::trace::test_b_phases(*seed, *phases, phase_seconds)
            }
        }
    }
}

/// The axes of a transient sweep; variants are the cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientGrid {
    /// Workload traces to run.
    pub traces: Vec<TraceSpec>,
    /// Multipliers applied to the per-channel coolant flow rate.
    pub flow_scales: Vec<f64>,
}

impl TransientGrid {
    /// The default 4-variant bench grid: a Test-A burst and a 3-phase
    /// Test-B migration, each at reduced and nominal flow.
    #[must_use]
    pub fn bench_default() -> Self {
        Self {
            traces: vec![
                TraceSpec::TestAStep { high_scale: 1.5 },
                TraceSpec::TestBPhases {
                    seed: liquamod_floorplan::testcase::TEST_B_DEFAULT_SEED,
                    phases: 3,
                },
            ],
            flow_scales: vec![0.75, 1.0],
        }
    }

    /// Number of variants in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len() * self.flow_scales.len()
    }

    /// `true` when any axis is empty (no variants).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in stable report order: traces outermost, then flow
    /// scales.
    #[must_use]
    pub fn variants(&self) -> Vec<TransientVariant> {
        let mut out = Vec::with_capacity(self.len());
        for trace in &self.traces {
            for &flow_scale in &self.flow_scales {
                out.push(TransientVariant {
                    index: out.len(),
                    trace: trace.clone(),
                    flow_scale,
                });
            }
        }
        out
    }
}

/// One concrete point of a transient sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientVariant {
    /// Position in grid order (also the row position in the report).
    pub index: usize,
    /// Workload trace.
    pub trace: TraceSpec,
    /// Flow-rate multiplier.
    pub flow_scale: f64,
}

impl TransientVariant {
    /// Human-readable variant label, e.g. `testA-step*1.50 f*0.75`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} f*{:.2}", self.trace.label(), self.flow_scale)
    }
}

/// Configuration of one transient sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSweepOptions {
    /// Base transient configuration each variant perturbs.
    pub config: TransientConfig,
    /// Modulation cadence of the modulated run in each variant.
    pub epoch_steps: usize,
    /// Duration of every trace phase, seconds.
    pub phase_seconds: f64,
    /// Scheduling mode.
    pub mode: ExecutionMode,
}

impl TransientSweepOptions {
    /// The fast configuration with 20-step phases and a 10-step epoch.
    #[must_use]
    pub fn fast(mode: ExecutionMode) -> Self {
        Self {
            config: TransientConfig::fast(),
            epoch_steps: 10,
            phase_seconds: 0.04,
            mode,
        }
    }

    /// The worker count this sweep will request (capped at the variant
    /// count when the sweep runs).
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        self.mode.resolved_workers()
    }
}

/// Metrics of one evaluated transient variant: the modulated run against
/// the frozen uniform-width baseline on the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientRow {
    /// The variant the metrics belong to.
    pub variant: TransientVariant,
    /// Time-peak inter-layer gradient of the modulated run, kelvin.
    pub peak_gradient_modulated_k: f64,
    /// Time-peak inter-layer gradient of the frozen baseline, kelvin.
    pub peak_gradient_frozen_k: f64,
    /// Time-peak silicon temperature of the modulated run, kelvin.
    pub peak_temperature_modulated_k: f64,
    /// Gradient reduction vs the frozen baseline, as a signed fraction:
    /// positive when modulation wins, negative when it loses (possible for
    /// runs cut short far from steady state, where the steady-optimal
    /// profile has not paid off yet).
    pub gradient_reduction: f64,
    /// Modulation epochs the run fired.
    pub epochs: usize,
    /// Epochs whose candidate profile was adopted.
    pub epochs_adopted: usize,
    /// Objective evaluations spent across all epochs.
    pub evaluations: usize,
}

/// The collected result of one transient sweep invocation.
#[derive(Debug, Clone)]
pub struct TransientReport {
    /// One row per variant, in grid order.
    pub rows: Vec<TransientRow>,
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Wall-clock time of the evaluation phase.
    pub wall: Duration,
}

impl TransientReport {
    /// Renders the report as the workspace's standard table format.
    #[must_use]
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(vec![
            "variant",
            "peak grad mod [K]",
            "peak grad frozen [K]",
            "reduction [%]",
            "peak T mod [K]",
            "epochs",
            "adopted",
            "evals",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.variant.label(),
                format!("{:.3}", row.peak_gradient_modulated_k),
                format!("{:.3}", row.peak_gradient_frozen_k),
                format!("{:.1}", row.gradient_reduction * 100.0),
                format!("{:.2}", row.peak_temperature_modulated_k),
                format!("{}", row.epochs),
                format!("{}", row.epochs_adopted),
                format!("{}", row.evaluations),
            ]);
        }
        table
    }
}

/// Runs one half of a transient variant: the modulated loop when
/// `modulated`, the frozen uniform-width baseline otherwise. The two
/// halves share no state (epoch warm starts chain only *within* one
/// controller run), which is what lets the sweep schedule them as
/// independent units.
fn run_transient_half(
    variant: &TransientVariant,
    options: &TransientSweepOptions,
    modulated: bool,
) -> Result<TransientOutcome> {
    let config = options.config.with_flow_scale(variant.flow_scale)?;
    let trace = variant.trace.trace(options.phase_seconds);
    let policy = if modulated {
        ModulationPolicy::every(options.epoch_steps)
    } else {
        ModulationPolicy::FrozenUniform
    };
    ModulationController::new(config, policy)?.run(&trace)
}

/// Folds a variant's modulated run and frozen baseline into its row.
fn transient_row(
    variant: &TransientVariant,
    modulated: &TransientOutcome,
    frozen: &TransientOutcome,
) -> TransientRow {
    let peak_mod = modulated.peak_gradient_k();
    let peak_frozen = frozen.peak_gradient_k();
    TransientRow {
        variant: variant.clone(),
        peak_gradient_modulated_k: peak_mod,
        peak_gradient_frozen_k: peak_frozen,
        peak_temperature_modulated_k: modulated.peak_temperature_k(),
        gradient_reduction: if peak_frozen > 0.0 {
            (peak_frozen - peak_mod) / peak_frozen
        } else {
            0.0
        },
        epochs: modulated.epochs.len(),
        epochs_adopted: modulated.epochs_adopted(),
        evaluations: modulated.total_evaluations(),
    }
}

/// Evaluates one transient variant: scale the flow, run the modulated loop
/// and the frozen baseline on the same trace, and collect the row.
///
/// # Errors
///
/// Propagates controller failures.
pub fn evaluate_transient_variant(
    variant: &TransientVariant,
    options: &TransientSweepOptions,
) -> Result<TransientRow> {
    let modulated = run_transient_half(variant, options, true)?;
    let frozen = run_transient_half(variant, options, false)?;
    Ok(transient_row(variant, &modulated, &frozen))
}

/// Runs every variant of `grid` under `options` and collects the report.
///
/// Each variant contributes **two** independent scheduling units — the
/// modulated loop and the frozen baseline — so a grid of `n` variants
/// fans `2n` units out across the workers instead of serializing each
/// variant's pair behind one thread. Rows come back in grid order
/// whatever the scheduling; parallel and serial runs of the same grid
/// produce bitwise-identical rows (the halves are pure functions of the
/// variant; epoch warm starts chain only *within* one controller run).
///
/// # Errors
///
/// Every unit is evaluated regardless of failures; the sweep then returns
/// the first failure in (variant, modulated-before-frozen) order and
/// discards the partial report.
pub fn run_transient_sweep(
    grid: &TransientGrid,
    options: &TransientSweepOptions,
) -> Result<TransientReport> {
    let variants = grid.variants();
    let units: Vec<(usize, bool)> = (0..variants.len())
        .flat_map(|i| [(i, true), (i, false)])
        .collect();
    let (outcomes, workers, wall) = run_variant_sweep(
        &units,
        options.resolved_workers(),
        |&(i, modulated)| {
            let half = if modulated { "modulated" } else { "frozen" };
            format!("{} ({half})", variants[i].label())
        },
        |&(i, modulated)| run_transient_half(&variants[i], options, modulated),
    )?;
    let rows = variants
        .iter()
        .zip(outcomes.chunks_exact(2))
        .map(|(variant, pair)| transient_row(variant, &pair[0], &pair[1]))
        .collect();
    Ok(TransientReport {
        rows,
        workers,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_floorplan::{testcase, trace};

    /// A deliberately tiny configuration so unit tests stay quick; the
    /// heavier end-to-end scenarios live in `tests/integration_transient.rs`.
    fn tiny_config() -> TransientConfig {
        TransientConfig {
            optimizer: OptimizationConfig {
                segments: 2,
                mesh_intervals: 32,
                ..OptimizationConfig::fast()
            },
            nz: 20,
            ..TransientConfig::fast()
        }
    }

    #[test]
    fn config_and_policy_validation() {
        assert!(ModulationController::new(
            TransientConfig {
                dt_seconds: 0.0,
                ..tiny_config()
            },
            ModulationPolicy::FrozenUniform
        )
        .is_err());
        assert!(ModulationController::new(
            TransientConfig {
                nz: 0,
                ..tiny_config()
            },
            ModulationPolicy::FrozenUniform
        )
        .is_err());
        assert!(ModulationController::new(tiny_config(), ModulationPolicy::every(0)).is_err());
        assert!(ModulationController::new(
            tiny_config(),
            ModulationPolicy::Modulated(EpochPolicy::GradientThreshold { rise_k: -1.0 })
        )
        .is_err());
        assert!(ModulationController::new(
            tiny_config(),
            ModulationPolicy::Modulated(EpochPolicy::GradientThreshold { rise_k: f64::NAN })
        )
        .is_err());
        let c = ModulationController::new(tiny_config(), ModulationPolicy::every(4)).unwrap();
        assert_eq!(
            c.policy(),
            ModulationPolicy::Modulated(EpochPolicy::FixedCadence { epoch_steps: 4 })
        );
    }

    #[test]
    fn strip_stack_conserves_power() {
        let params = ModelParams::date2012();
        let load = testcase::test_b();
        let widths = vec![WidthProfile::uniform(params.w_max)];
        let stack = strip_stack(&load, &params, &widths, 30).unwrap();
        // Sum of segment fluxes × pitch × segment length over both layers.
        let d_cm = 1.0;
        let seg_len_cm = d_cm / load.top_w_cm2.len() as f64;
        let pitch_cm = params.pitch.si() * 100.0;
        let expected: f64 = load
            .top_w_cm2
            .iter()
            .chain(&load.bottom_w_cm2)
            .map(|q| q * pitch_cm * seg_len_cm)
            .sum();
        let got = stack.total_power().as_watts();
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "stack {got} W vs load {expected} W"
        );
    }

    #[test]
    fn frozen_run_has_no_epochs_and_tracks_phases() {
        let config = tiny_config();
        let dt = config.dt_seconds;
        let trace = trace::test_a_step(6.0 * dt, 2.0);
        let controller =
            ModulationController::new(config, ModulationPolicy::FrozenUniform).unwrap();
        let outcome = controller.run(&trace).unwrap();
        assert_eq!(outcome.snapshots.len(), 12);
        assert!(outcome.epochs.is_empty());
        assert_eq!(outcome.total_evaluations(), 0);
        // The second phase doubles the flux: injected power must double.
        let first = outcome.snapshots[0].injected_w;
        let second = outcome.snapshots[8].injected_w;
        assert!((second - 2.0 * first).abs() < 1e-9 * first);
        // And the monotone step response peaks at the end.
        assert!(outcome.peak_gradient_k() >= outcome.snapshots[0].gradient_k);
        assert!(outcome.peak_temperature_k() > 300.0);
    }

    /// The exponential-vs-backward-Euler accuracy gate over the paper's
    /// Test-A and Test-B traces: the condensed exponential backend must
    /// track the backward-Euler reference within BE's own truncation
    /// envelope (25 % of the largest peak rise seen so far, plus 0.1 K —
    /// the same stated tolerance the grid-sim proptest gates on), and the
    /// two steady states must agree closely by the end of a long phase.
    #[test]
    fn exponential_stepper_tracks_backward_euler_on_test_traces() {
        let dt = tiny_config().dt_seconds;
        for trace in [
            trace::test_a_step(12.0 * dt, 2.0),
            trace::test_b_phases(11, 2, 12.0 * dt),
        ] {
            let run = |stepper: StepperKind| {
                let config = TransientConfig {
                    stepper,
                    ..tiny_config()
                };
                let controller =
                    ModulationController::new(config, ModulationPolicy::FrozenUniform).unwrap();
                controller.run(&trace).unwrap()
            };
            let be = run(StepperKind::BackwardEuler);
            // Exact condensation along the flow (z_cells = nz = 20), so
            // the steady gate below measures time integration, not spatial
            // smoothing of Test-B's nonuniform strip load; the default 8×4
            // coarsening is exercised by the envelope check regardless.
            let exp = run(StepperKind::Exponential(
                liquamod_grid_sim::ExponentialOptions {
                    x_cells: 8,
                    z_cells: 20,
                },
            ));
            assert_eq!(be.snapshots.len(), exp.snapshots.len());
            let mut max_rise = 0.0f64;
            for (a, b) in be.snapshots.iter().zip(&exp.snapshots) {
                max_rise = max_rise.max(a.peak_k - 300.0).max(b.peak_k - 300.0);
                let bound = 0.25 * max_rise + 0.1;
                let diff = (a.peak_k - b.peak_k).abs();
                assert!(
                    diff <= bound,
                    "t = {}: peaks {} / {} differ by {diff} K (bound {bound} K)",
                    a.time_seconds,
                    a.peak_k,
                    b.peak_k
                );
            }
            // By the end of the first 12-step phase both backends have
            // settled; what remains is the spatial condensation error of
            // the default 8×4 coarsening (measured ~0.75 % of the rise on
            // the strip stack), gated at 2 % of the rise plus 0.05 K.
            let a = &be.snapshots[11];
            let b = &exp.snapshots[11];
            let bound = 0.02 * (a.peak_k - 300.0) + 0.05;
            assert!(
                (a.peak_k - b.peak_k).abs() <= bound,
                "settled peaks differ: {} vs {} (bound {bound} K)",
                a.peak_k,
                b.peak_k
            );
        }
    }

    #[test]
    fn modulated_run_fires_epochs_on_cadence() {
        let config = tiny_config();
        let dt = config.dt_seconds;
        let trace = trace::test_b_phases(11, 2, 8.0 * dt);
        let controller = ModulationController::new(config, ModulationPolicy::every(8)).unwrap();
        let outcome = controller.run(&trace).unwrap();
        assert_eq!(outcome.snapshots.len(), 16);
        let steps: Vec<usize> = outcome.epochs.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![0, 8]);
        // Phase labels follow the trace.
        assert_eq!(outcome.epochs[0].phase, trace.phases()[0].label);
        assert_eq!(outcome.epochs[1].phase, trace.phases()[1].label);
        for e in &outcome.epochs {
            assert_eq!(e.adopted, e.candidate_gradient_k <= e.incumbent_gradient_k);
            assert!(e.evaluations > 0);
            assert_eq!(e.widths_um.len(), 1);
            assert_eq!(e.widths_um[0].len(), 2);
        }
        assert!(outcome.epochs_adopted() >= 1, "first epoch beats uniform");
    }

    #[test]
    fn phase_boundary_policy_fires_once_per_phase() {
        let config = tiny_config();
        let dt = config.dt_seconds;
        // Three phases of 5 steps each — not a multiple of any cadence.
        let trace = trace::test_b_phases(11, 3, 5.0 * dt);
        let controller = ModulationController::new(
            config,
            ModulationPolicy::Modulated(EpochPolicy::PhaseBoundary),
        )
        .unwrap();
        let outcome = controller.run(&trace).unwrap();
        assert_eq!(outcome.snapshots.len(), 15);
        let steps: Vec<usize> = outcome.epochs.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![0, 5, 10], "one epoch per phase boundary");
        for (e, p) in outcome.epochs.iter().zip(trace.phases()) {
            assert_eq!(e.phase, p.label);
        }
    }

    #[test]
    fn gradient_threshold_policy_reacts_to_warmup() {
        let config = tiny_config();
        let dt = config.dt_seconds;
        let trace = trace::test_a_step(10.0 * dt, 2.0);
        // Tight threshold: the step-response warm-up rises by several kelvin,
        // so the trigger must fire at least once after step 0; a huge
        // threshold must never re-fire.
        let run = |rise_k: f64| {
            ModulationController::new(
                config.clone(),
                ModulationPolicy::Modulated(EpochPolicy::GradientThreshold { rise_k }),
            )
            .unwrap()
            .run(&trace)
            .unwrap()
        };
        let tight = run(0.5);
        assert_eq!(tight.epochs[0].step, 0);
        assert!(
            tight.epochs.len() > 1,
            "warm-up must re-trigger: {:?}",
            tight.epochs.iter().map(|e| e.step).collect::<Vec<_>>()
        );
        let loose = run(1e6);
        assert_eq!(
            loose.epochs.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![0],
            "a huge threshold fires only the mandatory step-0 epoch"
        );
    }

    #[test]
    fn gradient_threshold_rearms_after_a_decay() {
        // Peak → idle → peak: the idle phase decays the gradient, so the
        // ratcheted reference must re-arm the trigger and the second peak
        // excursion must fire fresh epochs (a stale high-water mark from
        // the first peak would silence the policy for the rest of the run).
        let config = tiny_config();
        let dt = config.dt_seconds;
        let idle = StripLoad {
            name: "idle".into(),
            top_w_cm2: vec![0.0],
            bottom_w_cm2: vec![0.0],
        };
        let phase = |label: &str, load: StripLoad| liquamod_floorplan::trace::Phase {
            label: label.into(),
            duration_seconds: 8.0 * dt,
            load,
        };
        let trace = StripTrace::new(vec![
            phase("hot", testcase::test_a()),
            phase("idle", idle),
            phase("hot-again", testcase::test_a()),
        ])
        .unwrap();
        let outcome = ModulationController::new(
            config,
            ModulationPolicy::Modulated(EpochPolicy::GradientThreshold { rise_k: 1.0 }),
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        assert!(
            outcome.epochs.iter().any(|e| e.step >= 16),
            "the post-idle excursion must re-trigger: epochs at {:?}",
            outcome.epochs.iter().map(|e| e.step).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resumed_segment_carries_the_gradient_threshold_reference() {
        // Warm a Test-A strip up for a whole segment, then resume: the
        // hand-over gradient seeds the threshold reference, so the resumed
        // segment must not treat the warm stack as a rise from zero and
        // fire a spurious inline epoch right after its boundary decision
        // (step 1 would be the bug's signature — one step of residual
        // warm-up is far below the 2 K threshold).
        let config = tiny_config();
        let dt = config.dt_seconds;
        let controller = ModulationController::new(
            config,
            ModulationPolicy::Modulated(EpochPolicy::GradientThreshold { rise_k: 2.0 }),
        )
        .unwrap();
        let segment = |label: &str, steps: f64| {
            StripTrace::new(vec![liquamod_floorplan::trace::Phase {
                label: label.into(),
                duration_seconds: steps * dt,
                load: testcase::test_a(),
            }])
            .unwrap()
        };
        let (_, resume) = controller
            .run_resumed(&segment("warmup", 24.0), None)
            .unwrap();
        assert!(
            resume.last_gradient_k > 2.0,
            "warm-up must build a gradient"
        );
        let (second, handover) = controller
            .run_resumed(&segment("steady", 12.0), Some(resume))
            .unwrap();
        let steps: Vec<usize> = second.epochs.iter().map(|e| e.step).collect();
        assert!(
            !steps.contains(&1),
            "spurious epoch right after the boundary: {steps:?}"
        );
        assert_eq!(
            handover.last_gradient_k.to_bits(),
            second.snapshots.last().unwrap().gradient_k.to_bits()
        );
    }

    #[test]
    fn zero_power_phase_skips_its_epoch() {
        let config = tiny_config();
        let dt = config.dt_seconds;
        let idle = StripLoad {
            name: "idle".into(),
            top_w_cm2: vec![0.0],
            bottom_w_cm2: vec![0.0],
        };
        let trace = StripTrace::new(vec![
            liquamod_floorplan::trace::Phase {
                label: "idle".into(),
                duration_seconds: 4.0 * dt,
                load: idle,
            },
            liquamod_floorplan::trace::Phase {
                label: "testA".into(),
                duration_seconds: 4.0 * dt,
                load: testcase::test_a(),
            },
        ])
        .unwrap();
        let controller = ModulationController::new(config, ModulationPolicy::every(4)).unwrap();
        let outcome = controller.run(&trace).unwrap();
        // The idle epoch at step 0 is skipped; the loaded one at step 4 runs.
        assert_eq!(outcome.epochs.len(), 1);
        assert_eq!(outcome.epochs[0].step, 4);
        // Idle phase stays exactly at the inlet temperature.
        assert!((outcome.snapshots[0].gradient_k).abs() < 1e-6);
        assert!(outcome.snapshots[0].injected_w.abs() < 1e-12);
    }

    #[test]
    fn grid_expansion_and_labels() {
        let grid = TransientGrid::bench_default();
        assert_eq!(grid.len(), 4);
        assert!(!grid.is_empty());
        let variants = grid.variants();
        assert!(variants.iter().enumerate().all(|(i, v)| v.index == i));
        assert_eq!(variants[0].label(), "testA-step*1.50 f*0.75");
        assert!(variants[3].label().starts_with("testB#"));
        let empty = TransientGrid {
            traces: vec![],
            flow_scales: vec![1.0],
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn golden_json_shape() {
        let outcome = TransientOutcome {
            snapshots: vec![TransientSnapshot {
                time_seconds: 2e-3,
                peak_k: 310.0,
                min_k: 300.5,
                gradient_k: 9.5,
                injected_w: 1.0,
                advected_w: 0.25,
                stored_joules: 1.5e-3,
            }],
            epochs: vec![EpochRecord {
                step: 0,
                time_seconds: 0.0,
                phase: "testA".into(),
                candidate_gradient_k: 5.0,
                incumbent_gradient_k: 8.0,
                adopted: true,
                evaluations: 42,
                widths_um: vec![vec![50.0, 20.0]],
            }],
            dt_seconds: 2e-3,
            degraded: Vec::new(),
        };
        let json = outcome.golden_json("unit");
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"scenario\": \"unit\""));
        assert!(json.contains("\"times\": [2e-3]"));
        assert!(json.contains("\"epoch_widths_um\": [[5e1, 2e1]]"));
        assert!(json.contains("\"epoch_adopted\": [1e0]"));
    }
}
