//! The shard scheduler: one fleet run — N stacks, one pump, segment-wise
//! reallocation.

use super::allocator::{
    allocate, allocate_with, forecast_is_informative, BudgetPolicy, PredictiveContext, PumpBudget,
    SurrogateModel,
};
use crate::faults::{DegradedEvent, FaultSchedule, SegmentFaults};
use crate::mpsoc::{ArchSpec, MpsocConfig, MpsocModulated, MpsocTrace, MpsocTraceSpec};
use crate::obs;
use crate::sweep::{parallel_map, ExecutionMode};
use crate::transient::{
    EpochPolicy, GoldenChannel, ModulationPolicy, ResumeState, TransientOutcome,
};
use crate::{CoreError, CsvTable, Result};
use liquamod_floorplan::arch::Architecture;
use liquamod_floorplan::trace::{Phase, PowerTrace};
use liquamod_grid_sim::snapshot as snap;
use std::time::{Duration, Instant};

/// One stack of a fleet: a Fig. 7 architecture with its own workload
/// trace. All stacks share the base [`MpsocConfig`] (geometry, optimizer,
/// clock); only the coolant-flow share differs, driven by the allocator
/// through [`MpsocConfig::with_flow_scale`].
#[derive(Debug, Clone, PartialEq)]
pub struct StackSpec {
    /// Which Fig. 7 architecture this stack is.
    pub arch: ArchSpec,
    /// The stack's workload trace.
    pub trace: MpsocTraceSpec,
}

impl StackSpec {
    /// Human-readable stack label, e.g. `arch1 avg-peak`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} {}", self.arch.label(), self.trace.label())
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOptions {
    /// Base per-stack configuration at nominal (scale-1) flow.
    pub config: MpsocConfig,
    /// Per-stack width-modulation policy inside each segment (every
    /// segment also re-optimizes at its first step, since the flow share
    /// may just have changed).
    pub policy: EpochPolicy,
    /// How the shared budget is split at each reallocation epoch.
    pub allocation: BudgetPolicy,
    /// The shared pump budget.
    pub budget: PumpBudget,
    /// Duration of every trace phase, seconds.
    pub phase_seconds: f64,
    /// Reallocation epochs per trace phase: each phase is cut into this
    /// many equal segments, and the allocator re-splits the budget at
    /// every segment boundary from the gradients the previous segment
    /// measured. 1 = reallocate only on phase changes.
    pub segments_per_phase: usize,
    /// Scheduling mode of the per-segment stack fan-out.
    pub mode: ExecutionMode,
}

impl FleetOptions {
    /// The fast configuration for a fleet of `n_stacks`: the MPSoC bench
    /// stack resolution, an 8-step epoch cadence, 16-step phases cut into
    /// two reallocation segments, and a nominal (average scale 1.0) pump
    /// budget.
    #[must_use]
    pub fn fast(n_stacks: usize, mode: ExecutionMode) -> Self {
        Self {
            config: MpsocConfig::fast(),
            policy: EpochPolicy::FixedCadence { epoch_steps: 8 },
            allocation: BudgetPolicy::GradientWaterfill,
            budget: PumpBudget::per_stack(1.0, n_stacks),
            phase_seconds: 0.032,
            segments_per_phase: 2,
            mode,
        }
    }

    /// Duration of one reallocation segment, seconds.
    pub(crate) fn segment_seconds(&self) -> f64 {
        self.phase_seconds / self.segments_per_phase as f64
    }
}

/// Metrics of one stack over one reallocation segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMetrics {
    /// Segment index within the fleet run.
    pub segment: usize,
    /// Label of the workload phase the segment belongs to.
    pub phase: String,
    /// The flow share the allocator granted this stack for the segment.
    pub flow_scale: f64,
    /// Time-peak inter-layer gradient within the segment, kelvin.
    pub peak_gradient_k: f64,
    /// Time-peak silicon temperature within the segment, kelvin.
    pub peak_temperature_k: f64,
    /// Modulation epochs fired within the segment.
    pub epochs: usize,
    /// Epochs whose candidate profile was adopted.
    pub epochs_adopted: usize,
    /// Objective evaluations spent within the segment.
    pub evaluations: usize,
}

/// One stack's full trajectory through a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct StackRun {
    /// What this stack is.
    pub spec: StackSpec,
    /// Per-segment metrics, in time order.
    pub segments: Vec<SegmentMetrics>,
}

impl StackRun {
    /// Time-peak inter-layer gradient across the whole run, kelvin.
    #[must_use]
    pub fn peak_gradient_k(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.peak_gradient_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Time-peak silicon temperature across the whole run, kelvin.
    #[must_use]
    pub fn peak_temperature_k(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.peak_temperature_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total modulation epochs across the run.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.segments.iter().map(|s| s.epochs).sum()
    }

    /// Total adopted epochs across the run.
    #[must_use]
    pub fn epochs_adopted(&self) -> usize {
        self.segments.iter().map(|s| s.epochs_adopted).sum()
    }

    /// Total optimizer objective evaluations across the run.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.segments.iter().map(|s| s.evaluations).sum()
    }
}

/// Fit/steering diagnostics of one [`BudgetPolicy::Predictive`] lane —
/// how much of the run's allocation was forecast-driven versus
/// surrogate-driven, surfaced into the bench record (BENCH_fleet schema
/// v5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictiveDiagnostics {
    /// Reallocation boundaries where the power forecast was informative
    /// (some stack's next/current power ratio differed from 1).
    pub forecast_hits: u64,
    /// Sensitivity-surrogate slope refits performed over the run.
    pub surrogate_refits: u64,
    /// Mean |gradient-vs-flow-share slope| across stacks at the end of the
    /// run, kelvin per flow-scale unit.
    pub mean_abs_slope_k_per_scale: f64,
}

/// The collected result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The allocation policy the run used.
    pub allocation: BudgetPolicy,
    /// One trajectory per stack, in spec order.
    pub stacks: Vec<StackRun>,
    /// The allocator's decisions: `allocations[segment][stack]` flow
    /// shares (segment 0 is always the uniform split — there is nothing
    /// measured yet).
    pub allocations: Vec<Vec<f64>>,
    /// Worker threads the per-segment stack fan-out actually used.
    pub workers: usize,
    /// Wall-clock time of the whole run. When the run was scheduled as one
    /// lane of a wavefront group ([`super::report::run_fleet_sweep`]), this
    /// is the group's total wall — lanes run interleaved, so per-lane wall
    /// is not defined.
    pub wall: Duration,
    /// Wall-clock seconds of each reallocation-segment wavefront, in time
    /// order. Timing lives here, outside [`StackRun`], so the bitwise
    /// parallel == serial guarantee on the physics stays checkable by plain
    /// equality on `stacks`/`allocations`.
    pub segment_wall_seconds: Vec<f64>,
    /// Predictive-allocator diagnostics — `Some` exactly when
    /// [`FleetOutcome::allocation`] is [`BudgetPolicy::Predictive`].
    pub predictive: Option<PredictiveDiagnostics>,
}

impl FleetOutcome {
    /// The fleet's headline metric: the worst stack's time-peak
    /// inter-layer gradient, kelvin — what the shared budget is being
    /// spent to minimize.
    #[must_use]
    pub fn worst_stack_peak_gradient_k(&self) -> f64 {
        self.stacks
            .iter()
            .map(StackRun::peak_gradient_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The stack attaining [`FleetOutcome::worst_stack_peak_gradient_k`]
    /// (first in spec order on exact ties).
    #[must_use]
    pub fn worst_stack(&self) -> Option<&StackRun> {
        // Replace only on a strict improvement, so exact ties keep the
        // earliest stack in spec order.
        self.stacks.iter().reduce(|best, s| {
            if s.peak_gradient_k() > best.peak_gradient_k() {
                s
            } else {
                best
            }
        })
    }

    /// Time-peak silicon temperature across the whole fleet, kelvin.
    #[must_use]
    pub fn peak_temperature_k(&self) -> f64 {
        self.stacks
            .iter()
            .map(StackRun::peak_temperature_k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total optimizer objective evaluations across the fleet.
    #[must_use]
    pub fn total_evaluations(&self) -> usize {
        self.stacks.iter().map(StackRun::evaluations).sum()
    }

    /// Renders one row per (stack, segment) in the workspace's standard
    /// table format.
    #[must_use]
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(vec![
            "stack",
            "segment",
            "phase",
            "flow share",
            "peak grad [K]",
            "peak T [K]",
            "epochs",
            "adopted",
            "evals",
        ]);
        for stack in &self.stacks {
            for seg in &stack.segments {
                table.push_row(vec![
                    stack.spec.label(),
                    format!("{}", seg.segment),
                    seg.phase.clone(),
                    format!("{:.3}", seg.flow_scale),
                    format!("{:.3}", seg.peak_gradient_k),
                    format!("{:.2}", seg.peak_temperature_k),
                    format!("{}", seg.epochs),
                    format!("{}", seg.epochs_adopted),
                    format!("{}", seg.evaluations),
                ]);
            }
        }
        table
    }

    /// Canonical flat-JSON serialization for the golden fixture
    /// (`tests/golden/fleet_predictive.json`): the same
    /// full-precision-number format as
    /// [`TransientOutcome::golden_json`](crate::transient::TransientOutcome::golden_json),
    /// parsed by the same comparer at 1e-9.
    #[must_use]
    pub fn golden_json(&self, scenario: &str) -> String {
        let mut out = format!(
            "{{\n  \"schema_version\": 1,\n  \"scenario\": \"{scenario}\",\n  \"policy\": \"{}\",\n",
            self.allocation.label()
        );
        push_segment_channels(&mut out, &self.allocations, &self.stacks);
        let diag = self.predictive.unwrap_or_default();
        snap::push_scalar(&mut out, "forecast_hits", diag.forecast_hits as f64, false);
        snap::push_scalar(
            &mut out,
            "surrogate_refits",
            diag.surrogate_refits as f64,
            false,
        );
        let worst = self.worst_stack_peak_gradient_k();
        snap::push_scalar(&mut out, "worst_gradient_k", worst, true);
        out.push_str("}\n");
        out
    }
}

/// Appends the channels the fleet and faults golden fixtures share — the
/// per-segment allocations and each stack's per-segment gradient,
/// temperature and evaluation count — to a document under construction.
pub(crate) fn push_segment_channels(
    out: &mut String,
    allocations: &[Vec<f64>],
    stacks: &[StackRun],
) {
    let rows = |rows: Vec<String>| format!("[{}]", rows.join(", "));
    let shares = allocations
        .iter()
        .map(|a| snap::render_array(a.iter().copied()));
    out.push_str(&format!("  \"allocations\": {},\n", rows(shares.collect())));
    let channels: [GoldenChannel<SegmentMetrics>; 3] = [
        ("segment_gradient_k", |m| m.peak_gradient_k),
        ("segment_temperature_k", |m| m.peak_temperature_k),
        ("segment_evaluations", |m| m.evaluations as f64),
    ];
    for (key, metric) in channels {
        let per_stack = stacks
            .iter()
            .map(|s| snap::render_array(s.segments.iter().map(metric)));
        out.push_str(&format!("  \"{key}\": {},\n", rows(per_stack.collect())));
    }
}

/// The worker count a fleet of `n_stacks` resolves `mode` to: the
/// per-segment stack fan-out can never use more workers than stacks.
/// Shared with [`super::report::run_fleet_sweep`] so the reported count
/// cannot drift from the scheduling.
pub(crate) fn resolved_fleet_workers(mode: ExecutionMode, n_stacks: usize) -> usize {
    if n_stacks <= 1 {
        1
    } else {
        mode.resolved_workers().max(1).min(n_stacks)
    }
}

/// Cuts one stack's trace into `segments_per_phase` equal segments per
/// phase, each a single-phase trace of its own.
fn segment_traces(
    trace: &PowerTrace<crate::mpsoc::MpsocLoad>,
    per_phase: usize,
) -> Vec<PowerTrace<crate::mpsoc::MpsocLoad>> {
    trace
        .phases()
        .iter()
        .flat_map(|p| {
            (0..per_phase).map(|k| {
                PowerTrace::new(vec![Phase {
                    label: if per_phase == 1 {
                        p.label.clone()
                    } else {
                        format!("{}#{k}", p.label)
                    },
                    duration_seconds: p.duration_seconds / per_phase as f64,
                    load: p.load.clone(),
                }])
                .expect("segments of a valid trace are valid single-phase traces")
            })
        })
        .collect()
}

/// The per-stack workload forecast at a reallocation boundary: the next
/// segment's total die power over the current segment's — the "trace is
/// known" lookahead of [`BudgetPolicy::Predictive`]. Segments are
/// single-phase by construction ([`segment_traces`]), so the first phase's
/// load *is* the segment's load. Degenerate powers (non-positive or
/// non-finite) carry no information and yield 1.0.
fn forecast_power_ratio(
    current: &PowerTrace<crate::mpsoc::MpsocLoad>,
    next: &PowerTrace<crate::mpsoc::MpsocLoad>,
) -> f64 {
    let cur = current.phases()[0].load.total_power().as_watts();
    let nxt = next.phases()[0].load.total_power().as_watts();
    if cur.is_finite() && nxt.is_finite() && cur > 0.0 && nxt > 0.0 {
        nxt / cur
    } else {
        1.0
    }
}

/// Runs a fleet of stacks through their traces under one shared pump
/// budget.
///
/// Time is cut into *reallocation segments* (`segments_per_phase` per
/// trace phase, aligned across stacks). Segment 0 always starts from the
/// uniform split — nothing is measured yet. At every later segment
/// boundary the allocator ([`allocate`]) re-splits the budget from the
/// time-peak gradients each stack measured over the previous segment;
/// within a segment, every stack steps its five-layer two-cavity stack
/// through the modulation loop at its granted flow share, the thermal
/// state carried over exactly across reallocations
/// ([`ModulationController::run_resumed`]).
///
/// Stacks fan out across worker threads per segment through the shared
/// [`parallel_map`] scheduler; the allocator runs between segments on the
/// calling thread from deterministic inputs, so parallel and serial fleet
/// runs are bitwise identical — the same guarantee as every sweep engine
/// in the workspace.
///
/// [`ModulationController::run_resumed`]: crate::transient::ModulationController::run_resumed
/// [`parallel_map`]: crate::sweep
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when the fleet is empty, the budget is
/// infeasible for its size, `segments_per_phase` is zero, a segment would
/// be shorter than one time step, or the stacks' traces disagree on phase
/// count; stack-level model/optimizer/stepper failures propagate (first
/// stack in spec order wins).
pub fn run_fleet(stacks: &[StackSpec], options: &FleetOptions) -> Result<FleetOutcome> {
    let lane = FleetLane {
        options: options.clone(),
        plant: LanePlant::Healthy,
        dedup_group: 0,
    };
    let (outcome, _) = run_fleet_lanes(stacks, &[lane])?
        .pop()
        .expect("one lane in, one outcome out");
    Ok(outcome)
}

/// The plant seam of a [`FleetLane`]: what its stacks physically run
/// through, and so how the lane turns measured gradients into the next
/// segment's flow shares.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LanePlant {
    /// The healthy plant: segment 0 runs the uniform split, later segments
    /// [`FleetOptions::allocation`] on the measured gradients — with the
    /// power forecast and the sensitivity surrogate under
    /// [`BudgetPolicy::Predictive`].
    Healthy,
    /// A plant under a [`FaultSchedule`], run by the fault-aware
    /// controller or the fault-oblivious baseline (see
    /// [`crate::faults::run_faulted_fleet`]). The allocator never gets a
    /// predictive context here.
    Faulted {
        /// What goes wrong, and when.
        schedule: FaultSchedule,
        /// Whether the controller sees the faults.
        aware: bool,
    },
}

/// One lane of a multi-lane fleet evaluation: a full fleet run's options,
/// its plant, and the segment-0 deduplication group it belongs to.
#[derive(Debug, Clone)]
pub(crate) struct FleetLane {
    /// The lane's full fleet-run configuration.
    pub options: FleetOptions,
    /// What the lane's stacks run through.
    pub plant: LanePlant,
    /// Lanes sharing a group id must be [`LanePlant::Healthy`] and differ
    /// **only** in [`FleetOptions::allocation`] (checked). The allocation
    /// policy cannot influence a healthy segment 0 — nothing is measured
    /// yet, so every policy starts from the same uniform split with no
    /// carry-over — which makes the group's segment-0 (stack × lane) tasks
    /// bitwise identical. The scheduler therefore runs them once, on the
    /// group's first lane, and shares the result; the reported metrics
    /// (including evaluation counts) are exactly what each lane would have
    /// measured alone.
    pub dedup_group: usize,
}

impl FleetLane {
    /// Whether the lane runs the predictive allocator with its forecast and
    /// surrogate: a healthy lane under [`BudgetPolicy::Predictive`].
    fn is_predictive(&self) -> bool {
        self.options.allocation == BudgetPolicy::Predictive && self.plant == LanePlant::Healthy
    }
}

/// One stack's controller run over one segment: the unit of work the fleet
/// wavefront and the serve pool both fan out. Builds the stack family for
/// `arch` at `config` (already at the granted flow share) and runs
/// `trace` from `resume` through
/// [`ModulationController::run_faulted`](crate::transient::ModulationController::run_faulted)
/// under `faults`.
///
/// The plant override comes from `faults`: an inlet excursion the
/// controller does not know about heats only the stepped plant, while the
/// controller keeps optimizing against the nominal inlet. A known (or
/// zero) excursion is the controller's belief too. With default faults
/// this is [`ModulationController::run_resumed`](crate::transient::ModulationController::run_resumed)
/// bitwise.
pub(crate) fn run_segment(
    arch: &Architecture,
    config: &MpsocConfig,
    policy: ModulationPolicy,
    faults: &SegmentFaults,
    trace: &MpsocTrace,
    resume: Option<ResumeState>,
) -> Result<(TransientOutcome, ResumeState)> {
    let plant_config = config.with_inlet_offset(faults.inlet_delta_k)?;
    if faults.inlet_known || faults.inlet_delta_k == 0.0 {
        MpsocModulated::for_arch(arch, plant_config)?
            .controller(policy)?
            .run_faulted(trace, resume, faults, None)
    } else {
        let plant = MpsocModulated::for_arch(arch, plant_config)?;
        MpsocModulated::for_arch(arch, config.clone())?
            .controller(policy)?
            .run_faulted(trace, resume, faults, Some(&plant))
    }
}

/// One lane's running state between wavefronts. Everything here is read
/// and written only in the serial joins on the calling thread, so it
/// inherits the bitwise parallel == serial guarantee for free.
struct LaneState {
    /// The flow shares of the segment about to run.
    shares: Vec<f64>,
    /// Per-stack thermal handover into the next segment.
    carries: Vec<Option<ResumeState>>,
    /// Per-stack segment metrics so far.
    segments: Vec<Vec<SegmentMetrics>>,
    /// The shares every segment so far ran at.
    allocations: Vec<Vec<f64>>,
    /// The predictive allocator's sensitivity surrogate.
    surrogate: SurrogateModel,
    /// Boundaries where the power forecast was informative.
    forecast_hits: u64,
    /// A faulted aware lane's last good gradient feedback per stack.
    last_feedback: Vec<f64>,
    /// Degraded-mode events, in the order they surfaced.
    degraded: Vec<DegradedEvent>,
}

/// The wavefront scheduler behind [`run_fleet`],
/// [`crate::faults::run_faulted_fleet`], [`crate::faults::run_faults_sweep`],
/// [`super::report::evaluate_fleet_variant`] and
/// [`super::report::run_fleet_sweep`] — the workspace's one fleet segment
/// loop. All lanes advance through reallocation segment `k` together, and
/// every (lane × stack) task of wavefront `k` goes through **one** shared
/// [`parallel_map`] fan-out, so worker threads drain the whole front
/// instead of idling behind the slowest stack of a single fleet run.
///
/// The serial joins (metric collection, the allocator's budget re-split)
/// run between wavefronts on the calling thread, per lane in lane order,
/// from deterministic inputs; task results are merged back by index.
/// Parallel and serial evaluations are therefore bitwise identical, and so
/// is any worker count — the scheduling only decides *when* a task runs,
/// never *what* it computes. Each lane's outcome comes with its
/// degraded-mode events (always empty for a healthy lane).
///
/// [`parallel_map`]: crate::sweep
pub(crate) fn run_fleet_lanes(
    stacks: &[StackSpec],
    lanes: &[FleetLane],
) -> Result<Vec<(FleetOutcome, Vec<DegradedEvent>)>> {
    let n = stacks.len();
    let n_lanes = lanes.len();
    if n_lanes == 0 || n == 0 {
        return Err(CoreError::InvalidConfig {
            what: "a fleet evaluation needs at least one lane and one stack".into(),
        });
    }
    // Each lane's dedup-group representative (the group's first lane) and
    // the group-compatibility contract: healthy lanes alike in everything
    // but the allocation policy, or the segment-0 sharing below would be
    // wrong.
    let rep: Vec<usize> = lanes
        .iter()
        .map(|lane| {
            lanes
                .iter()
                .position(|other| other.dedup_group == lane.dedup_group)
                .expect("a lane is in its own group")
        })
        .collect();
    for (l, lane) in lanes.iter().enumerate() {
        let options = &lane.options;
        if let LanePlant::Faulted { schedule, .. } = &lane.plant {
            schedule.validate(n)?;
        }
        options.budget.validate(n)?;
        if options.segments_per_phase == 0 {
            return Err(CoreError::InvalidConfig {
                what: "segments_per_phase must be ≥ 1".into(),
            });
        }
        let seg_seconds = options.segment_seconds();
        if !(seg_seconds.is_finite() && seg_seconds >= options.config.dt_seconds) {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "a reallocation segment of {seg_seconds} s is shorter than one {} s step",
                    options.config.dt_seconds
                ),
            });
        }
        let first = &lanes[rep[l]];
        let normalized = FleetOptions {
            allocation: first.options.allocation,
            ..options.clone()
        };
        let healthy = lane.plant == LanePlant::Healthy && first.plant == LanePlant::Healthy;
        if rep[l] != l && (!healthy || normalized != first.options) {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "lanes {} and {l} share dedup group {} but are not healthy lanes \
                     differing only in the allocation policy",
                    rep[l], lane.dedup_group
                ),
            });
        }
    }

    let archs: Vec<Architecture> = stacks.iter().map(|s| s.arch.architecture()).collect();
    // Per-lane segmented traces (lanes may differ in clocking in general;
    // the rasterization is a trivial cost next to one optimizer epoch).
    let segmented: Vec<Vec<Vec<_>>> = lanes
        .iter()
        .map(|lane| {
            stacks
                .iter()
                .zip(&archs)
                .map(|(s, arch)| {
                    let trace = s.trace.trace(
                        arch,
                        lane.options.phase_seconds,
                        lane.options.config.nx,
                        lane.options.config.nz,
                    );
                    segment_traces(&trace, lane.options.segments_per_phase)
                })
                .collect()
        })
        .collect();
    let n_segments = segmented[0][0].len();
    if let Some((l, i, bad)) = segmented
        .iter()
        .enumerate()
        .flat_map(|(l, per_stack)| per_stack.iter().enumerate().map(move |(i, s)| (l, i, s)))
        .find(|(_, _, s)| s.len() != n_segments)
    {
        return Err(CoreError::InvalidConfig {
            what: format!(
                "fleet traces must align: lane 0 stack 0 has {n_segments} segments, \
                 lane {l} stack {i} has {}",
                bad.len()
            ),
        });
    }

    let workers = resolved_fleet_workers(lanes[0].options.mode, n_lanes * n);
    let _run_span = obs::span("fleet.run");
    let start = Instant::now();
    let mut states: Vec<LaneState> = Vec::with_capacity(n_lanes);
    for lane in lanes {
        let mut degraded = Vec::new();
        // Segment 0: nothing is measured yet.
        let shares = match &lane.plant {
            LanePlant::Healthy => {
                allocate(BudgetPolicy::Uniform, &lane.options.budget, &vec![0.0; n])?
            }
            LanePlant::Faulted { schedule, aware } => {
                schedule.segment_shares(*aware, &lane.options, 0, &vec![0.0; n], &mut degraded)?
            }
        };
        states.push(LaneState {
            shares,
            carries: vec![None; n],
            segments: vec![Vec::with_capacity(n_segments); n],
            allocations: Vec::with_capacity(n_segments),
            surrogate: SurrogateModel::new(n),
            forecast_hits: 0,
            last_feedback: vec![0.0; n],
            degraded,
        });
    }
    let mut segment_walls: Vec<f64> = Vec::with_capacity(n_segments);

    for seg in 0..n_segments {
        let _wavefront_span = obs::span("fleet.wavefront");
        let seg_start = Instant::now();
        // Stable lane-major task order; at wavefront 0 only each dedup
        // group's representative lane contributes tasks.
        let tasks: Vec<(usize, usize)> = (0..n_lanes)
            .filter(|&l| seg > 0 || rep[l] == l)
            .flat_map(|l| (0..n).map(move |i| (l, i)))
            .collect();
        let run_one = |&(l, i): &(usize, usize)| {
            let _span = obs::lane_span("fleet.segment", l as u32);
            obs::add("fleet.segments", 1);
            let lane = &lanes[l];
            let faults = match &lane.plant {
                LanePlant::Healthy => SegmentFaults::default(),
                LanePlant::Faulted { schedule, aware } => {
                    schedule.segment_faults(*aware, lane.options.segment_seconds(), seg, i)
                }
            };
            run_segment(
                &archs[i],
                &lane.options.config.with_flow_scale(states[l].shares[i])?,
                ModulationPolicy::Modulated(lane.options.policy),
                &faults,
                &segmented[l][i][seg],
                states[l].carries[i].clone(),
            )
        };
        let task_label =
            |&(l, i): &(usize, usize)| format!("lane {l} {} segment {seg}", stacks[i].label());
        let results = parallel_map(&tasks, workers, task_label, run_one);
        segment_walls.push(seg_start.elapsed().as_secs_f64());

        // Merge task results back by index; a wavefront-0 result fans out
        // to every lane of its dedup group (the runs are bitwise identical,
        // so sharing is invisible in the outcome).
        let mut merged: Vec<Vec<Option<_>>> = vec![(0..n).map(|_| None).collect(); n_lanes];
        for (&(l, i), result) in tasks.iter().zip(results) {
            let pair = result?;
            if seg == 0 {
                for (l2, lane_merged) in merged.iter_mut().enumerate() {
                    if l2 != l && rep[l2] == l {
                        obs::add("fleet.dedup_hits", 1);
                        lane_merged[i] = Some(pair.clone());
                    }
                }
            }
            merged[l][i] = Some(pair);
        }
        for (l, (state, lane_merged)) in states.iter_mut().zip(merged).enumerate() {
            let (lane, seg_seconds) = (&lanes[l], lanes[l].options.segment_seconds());
            let mut measured = Vec::with_capacity(n);
            for (i, slot) in lane_merged.into_iter().enumerate() {
                let (outcome, resume) = slot.expect("every (lane, stack) task ran");
                state
                    .degraded
                    .extend(outcome.degraded.iter().map(|event| DegradedEvent {
                        segment: Some(seg),
                        stack: Some(i),
                        time_seconds: seg as f64 * seg_seconds + event.time_seconds,
                        ..event.clone()
                    }));
                measured.push(outcome.peak_gradient_k());
                state.segments[i].push(SegmentMetrics {
                    segment: seg,
                    phase: segmented[l][i][seg].phases()[0].label.clone(),
                    flow_scale: state.shares[i],
                    peak_gradient_k: outcome.peak_gradient_k(),
                    peak_temperature_k: outcome.peak_temperature_k(),
                    epochs: outcome.epochs.len(),
                    epochs_adopted: outcome.epochs_adopted(),
                    evaluations: outcome.total_evaluations(),
                });
                state.carries[i] = Some(resume);
            }
            if lane.is_predictive() {
                // Feed the (shares, measured gradients) pair of the segment
                // that just ran back into the lane's surrogate.
                state.surrogate.observe(&state.shares, &measured);
            }
            state.allocations.push(std::mem::take(&mut state.shares));
            if seg + 1 == n_segments {
                continue;
            }
            let _alloc_span = obs::span("fleet.allocate");
            let (policy, budget) = (lane.options.allocation, &lane.options.budget);
            state.shares = match &lane.plant {
                LanePlant::Healthy if lane.is_predictive() => {
                    // The trace is materialized, so the next segment's power
                    // is known: a full one-step lookahead per stack.
                    let ratios: Vec<f64> = segmented[l]
                        .iter()
                        .map(|s| forecast_power_ratio(&s[seg], &s[seg + 1]))
                        .collect();
                    if forecast_is_informative(&ratios) {
                        state.forecast_hits += 1;
                    }
                    let ctx = PredictiveContext {
                        last_shares: state
                            .allocations
                            .last()
                            .expect("the segment's shares were just pushed"),
                        forecast_ratio: Some(&ratios),
                        surrogate: &state.surrogate,
                    };
                    allocate_with(policy, budget, &measured, Some(&ctx))?
                }
                LanePlant::Healthy => allocate(policy, budget, &measured)?,
                LanePlant::Faulted { schedule, aware } => {
                    // The oblivious baseline ignores its feedback.
                    let feedback = if *aware {
                        let last = &mut state.last_feedback;
                        schedule.feedback(seg_seconds, seg, &measured, last, &mut state.degraded)
                    } else {
                        measured
                    };
                    let degraded = &mut state.degraded;
                    schedule.segment_shares(*aware, &lane.options, seg + 1, &feedback, degraded)?
                }
            };
        }
    }

    let wall = start.elapsed();
    Ok(lanes
        .iter()
        .zip(states)
        .map(|(lane, state)| {
            let predictive = lane.is_predictive().then(|| PredictiveDiagnostics {
                forecast_hits: state.forecast_hits,
                surrogate_refits: state.surrogate.refits(),
                mean_abs_slope_k_per_scale: state.surrogate.mean_abs_slope_k_per_scale(),
            });
            let outcome = FleetOutcome {
                allocation: lane.options.allocation,
                stacks: stacks
                    .iter()
                    .zip(state.segments)
                    .map(|(spec, segments)| StackRun {
                        spec: spec.clone(),
                        segments,
                    })
                    .collect(),
                allocations: state.allocations,
                workers,
                wall,
                segment_wall_seconds: segment_walls.clone(),
                predictive,
            };
            (outcome, state.degraded)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::OptimizationConfig;

    pub(super) fn tiny_config() -> MpsocConfig {
        MpsocConfig {
            optimizer: OptimizationConfig {
                segments: 2,
                mesh_intervals: 32,
                ..OptimizationConfig::fast()
            },
            nx: 20,
            nz: 11,
            n_groups: 2,
            ..MpsocConfig::fast()
        }
    }

    pub(super) fn tiny_options(n_stacks: usize, mode: ExecutionMode) -> FleetOptions {
        let config = tiny_config();
        FleetOptions {
            policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
            phase_seconds: 6.0 * config.dt_seconds,
            segments_per_phase: 1,
            config,
            ..FleetOptions::fast(n_stacks, mode)
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
    fn fleet_validation() {
        let stacks = two_stacks();
        let options = tiny_options(2, ExecutionMode::Serial);
        assert!(run_fleet(&[], &options).is_err(), "empty fleet");
        assert!(
            run_fleet(
                &stacks,
                &FleetOptions {
                    segments_per_phase: 0,
                    ..options.clone()
                }
            )
            .is_err(),
            "zero segments per phase"
        );
        assert!(
            run_fleet(
                &stacks,
                &FleetOptions {
                    segments_per_phase: 1000,
                    ..options.clone()
                }
            )
            .is_err(),
            "sub-step segments"
        );
        // A budget below 2 × min_scale cannot keep both stacks wetted.
        assert!(run_fleet(
            &stacks,
            &FleetOptions {
                budget: crate::fleet::PumpBudget {
                    total_scale: 0.8,
                    min_scale: 0.5,
                    max_scale: 1.5,
                },
                ..options.clone()
            }
        )
        .is_err());
        // Misaligned traces are rejected.
        let misaligned = vec![
            stacks[0].clone(),
            StackSpec {
                arch: ArchSpec::Arch3,
                trace: MpsocTraceSpec::LevelSteps {
                    levels: vec![liquamod_floorplan::PowerLevel::Peak],
                },
            },
        ];
        assert!(run_fleet(&misaligned, &options).is_err());
    }

    #[test]
    fn segment_zero_is_uniform_and_allocations_track_segments() {
        let stacks = two_stacks();
        let options = FleetOptions {
            segments_per_phase: 2,
            ..tiny_options(2, ExecutionMode::Serial)
        };
        let outcome = run_fleet(&stacks, &options).unwrap();
        // avg→peak is 2 phases × 2 segments each.
        assert_eq!(outcome.allocations.len(), 4);
        let share = options.budget.uniform_share(2);
        assert_eq!(outcome.allocations[0], vec![share; 2]);
        for alloc in &outcome.allocations {
            let sum: f64 = alloc.iter().sum();
            assert!((sum - options.budget.total_scale).abs() < 1e-9, "{alloc:?}");
        }
        // Later segments shift flow toward the hotter stack (arch1 runs much
        // hotter than the all-cache arch3).
        assert!(
            outcome.allocations[1][0] > outcome.allocations[1][1],
            "{:?}",
            outcome.allocations
        );
        for stack in &outcome.stacks {
            assert_eq!(stack.segments.len(), 4);
            assert!(stack.peak_gradient_k() > 0.0);
            assert!(stack.peak_temperature_k() > 300.0);
            // Segment metrics echo the allocator's decisions.
            for (seg, m) in stack.segments.iter().enumerate() {
                assert_eq!(m.segment, seg);
                let i = outcome
                    .stacks
                    .iter()
                    .position(|s| s.spec == stack.spec)
                    .unwrap();
                assert_eq!(m.flow_scale, outcome.allocations[seg][i]);
            }
        }
        assert!(outcome.worst_stack_peak_gradient_k() >= outcome.stacks[1].peak_gradient_k());
        assert_eq!(
            outcome.worst_stack().unwrap().spec.label(),
            "arch1 avg-peak"
        );
        assert!(outcome.total_evaluations() > 0);
        assert_eq!(outcome.to_table().len(), 8, "2 stacks × 4 segments");
    }

    #[test]
    fn parallel_fleet_matches_serial_bitwise() {
        let stacks = two_stacks();
        let serial = run_fleet(&stacks, &tiny_options(2, ExecutionMode::Serial)).unwrap();
        let parallel = run_fleet(
            &stacks,
            &tiny_options(
                2,
                ExecutionMode::Parallel {
                    workers: std::num::NonZeroUsize::new(2),
                },
            ),
        )
        .unwrap();
        assert_eq!(serial.stacks, parallel.stacks);
        assert_eq!(serial.allocations, parallel.allocations);
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 2);
    }

    #[test]
    fn lane_group_shares_segment_zero_and_matches_independent_runs() {
        let stacks = two_stacks();
        let base = tiny_options(2, ExecutionMode::Serial);
        let lanes: Vec<FleetLane> = [
            BudgetPolicy::Uniform,
            BudgetPolicy::GradientWaterfill,
            BudgetPolicy::Predictive,
        ]
        .into_iter()
        .map(|allocation| FleetLane {
            options: FleetOptions {
                allocation,
                ..base.clone()
            },
            plant: LanePlant::Healthy,
            dedup_group: 7,
        })
        .collect();
        let grouped = run_fleet_lanes(&stacks, &lanes).unwrap();
        assert_eq!(grouped.len(), 3);
        // Segment-0 sharing must be invisible: every lane's outcome is
        // bitwise what a standalone fleet run of its policy produces.
        for (lane, (outcome, degraded)) in lanes.iter().zip(&grouped) {
            let solo = run_fleet(&stacks, &lane.options).unwrap();
            assert_eq!(
                outcome.stacks, solo.stacks,
                "{:?} diverged under lane grouping",
                lane.options.allocation
            );
            assert_eq!(outcome.allocations, solo.allocations);
            assert_eq!(outcome.predictive, solo.predictive);
            assert!(degraded.is_empty(), "healthy lanes never degrade");
        }
        assert_eq!(
            grouped[0].0.segment_wall_seconds.len(),
            grouped[0].0.allocations.len(),
            "one wall sample per wavefront"
        );
    }

    #[test]
    fn incompatible_or_empty_lane_groups_are_rejected() {
        let stacks = two_stacks();
        let base = tiny_options(2, ExecutionMode::Serial);
        assert!(run_fleet_lanes(&stacks, &[]).is_err(), "no lanes");
        let lane = |options: FleetOptions, plant: LanePlant| FleetLane {
            options,
            plant,
            dedup_group: 0,
        };
        let lanes = vec![
            lane(base.clone(), LanePlant::Healthy),
            lane(
                FleetOptions {
                    policy: EpochPolicy::FixedCadence { epoch_steps: 3 },
                    allocation: BudgetPolicy::Predictive,
                    ..base.clone()
                },
                LanePlant::Healthy,
            ),
        ];
        assert!(
            run_fleet_lanes(&stacks, &lanes).is_err(),
            "lanes in one dedup group may differ only in allocation policy"
        );
        // A faulted segment 0 depends on its schedule and controller, so a
        // faulted lane never shares it.
        let faulted = LanePlant::Faulted {
            schedule: FaultSchedule::healthy(),
            aware: true,
        };
        let lanes = vec![
            lane(base.clone(), LanePlant::Healthy),
            lane(base.clone(), faulted.clone()),
        ];
        assert!(run_fleet_lanes(&stacks, &lanes).is_err());
        let lanes = vec![lane(base.clone(), faulted.clone()), lane(base, faulted)];
        assert!(run_fleet_lanes(&stacks, &lanes).is_err());
    }
}
