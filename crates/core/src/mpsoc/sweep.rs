//! The MPSoC modulation sweep: arch × trace × flow-scale variants through
//! the deterministic parallel fan-out.

use super::load::arch_trace;
use super::stack::{MpsocConfig, MpsocModulated};
use crate::sweep::{run_variant_sweep, ExecutionMode};
use crate::transient::{EpochPolicy, ModulationPolicy};
use crate::{CsvTable, Result};
use liquamod_floorplan::arch::{self, Architecture};
use liquamod_floorplan::PowerLevel;
use std::time::Duration;

/// Which Fig. 7 architecture a sweep variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchSpec {
    /// Arch. 1 — aligned Niagara-1 dies (stacked hotspots).
    Arch1,
    /// Arch. 2 — Niagara-1 over its inverted layout (staggered hotspots).
    Arch2,
    /// Arch. 3 — Niagara-1 logic die over an all-cache die.
    Arch3,
}

impl ArchSpec {
    /// All three architectures in paper order.
    #[must_use]
    pub fn all() -> Vec<ArchSpec> {
        vec![ArchSpec::Arch1, ArchSpec::Arch2, ArchSpec::Arch3]
    }

    /// Materializes the architecture.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        match self {
            ArchSpec::Arch1 => arch::arch1(),
            ArchSpec::Arch2 => arch::arch2(),
            ArchSpec::Arch3 => arch::arch3(),
        }
    }

    /// Short label used in report rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArchSpec::Arch1 => "arch1",
            ArchSpec::Arch2 => "arch2",
            ArchSpec::Arch3 => "arch3",
        }
    }
}

/// Which two-die workload trace a sweep variant runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpsocTraceSpec {
    /// Both dies stepping through a sequence of power levels (the Niagara
    /// average/peak phase schedule).
    LevelSteps {
        /// Power levels, one phase each.
        levels: Vec<PowerLevel>,
    },
}

impl MpsocTraceSpec {
    /// The default average→peak burst.
    #[must_use]
    pub fn avg_to_peak() -> Self {
        MpsocTraceSpec::LevelSteps {
            levels: vec![PowerLevel::Average, PowerLevel::Peak],
        }
    }

    /// A single peak burst inside an otherwise-average schedule of
    /// `phases` phases: `Peak` at `hot_phase` (clamped into range),
    /// `Average` everywhere else. Staggering `hot_phase` across a fleet's
    /// stacks makes the hot-spot *migrate* between stacks at phase
    /// boundaries — the scenario where a reactive allocator is always one
    /// segment behind and predictive allocation earns its keep.
    #[must_use]
    pub fn migrating_peak(hot_phase: usize, phases: usize) -> Self {
        let phases = phases.max(1);
        let hot_phase = hot_phase.min(phases - 1);
        MpsocTraceSpec::LevelSteps {
            levels: (0..phases)
                .map(|p| {
                    if p == hot_phase {
                        PowerLevel::Peak
                    } else {
                        PowerLevel::Average
                    }
                })
                .collect(),
        }
    }

    /// Short label used in report rows, e.g. `avg-peak`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MpsocTraceSpec::LevelSteps { levels } => levels
                .iter()
                .map(|l| match l {
                    PowerLevel::Average => "avg",
                    PowerLevel::Peak => "peak",
                })
                .collect::<Vec<_>>()
                .join("-"),
        }
    }

    /// Materializes the trace for one architecture.
    #[must_use]
    pub fn trace(
        &self,
        architecture: &Architecture,
        phase_seconds: f64,
        nx: usize,
        nz: usize,
    ) -> super::MpsocTrace {
        match self {
            MpsocTraceSpec::LevelSteps { levels } => {
                arch_trace(architecture, levels, phase_seconds, nx, nz)
            }
        }
    }
}

/// The axes of an MPSoC sweep; variants are the cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocGrid {
    /// Architectures to run.
    pub archs: Vec<ArchSpec>,
    /// Workload traces to run.
    pub traces: Vec<MpsocTraceSpec>,
    /// Multipliers applied to the per-channel coolant flow rate.
    pub flow_scales: Vec<f64>,
}

impl MpsocGrid {
    /// The default 6-variant bench grid: all three Fig. 7 architectures
    /// through the average→peak burst, at reduced and nominal flow.
    #[must_use]
    pub fn bench_default() -> Self {
        Self {
            archs: ArchSpec::all(),
            traces: vec![MpsocTraceSpec::avg_to_peak()],
            flow_scales: vec![0.75, 1.0],
        }
    }

    /// Number of variants in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.archs.len() * self.traces.len() * self.flow_scales.len()
    }

    /// `true` when any axis is empty (no variants).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in stable report order: architectures outermost,
    /// then traces, then flow scales.
    #[must_use]
    pub fn variants(&self) -> Vec<MpsocVariant> {
        let mut out = Vec::with_capacity(self.len());
        for &arch in &self.archs {
            for trace in &self.traces {
                for &flow_scale in &self.flow_scales {
                    out.push(MpsocVariant {
                        index: out.len(),
                        arch,
                        trace: trace.clone(),
                        flow_scale,
                    });
                }
            }
        }
        out
    }
}

/// One concrete point of an MPSoC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocVariant {
    /// Position in grid order (also the row position in the report).
    pub index: usize,
    /// Architecture.
    pub arch: ArchSpec,
    /// Workload trace.
    pub trace: MpsocTraceSpec,
    /// Flow-rate multiplier.
    pub flow_scale: f64,
}

impl MpsocVariant {
    /// Human-readable variant label, e.g. `arch1 avg-peak f*0.75`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} {} f*{:.2}",
            self.arch.label(),
            self.trace.label(),
            self.flow_scale
        )
    }
}

/// Configuration of one MPSoC sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocSweepOptions {
    /// Base configuration each variant perturbs.
    pub config: MpsocConfig,
    /// Epoch policy of the modulated run in each variant.
    pub policy: EpochPolicy,
    /// Duration of every trace phase, seconds.
    pub phase_seconds: f64,
    /// Scheduling mode.
    pub mode: ExecutionMode,
}

impl MpsocSweepOptions {
    /// The fast configuration: 16-step phases with an 8-step epoch cadence.
    #[must_use]
    pub fn fast(mode: ExecutionMode) -> Self {
        Self {
            config: MpsocConfig::fast(),
            policy: EpochPolicy::FixedCadence { epoch_steps: 8 },
            phase_seconds: 0.032,
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

/// Metrics of one evaluated MPSoC variant: the modulated run against the
/// frozen uniform-width baseline on the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocRow {
    /// The variant the metrics belong to.
    pub variant: MpsocVariant,
    /// Time-peak inter-layer gradient of the modulated run, kelvin.
    pub peak_gradient_modulated_k: f64,
    /// Time-peak inter-layer gradient of the frozen baseline, kelvin.
    pub peak_gradient_frozen_k: f64,
    /// Time-peak silicon temperature of the modulated run, kelvin.
    pub peak_temperature_modulated_k: f64,
    /// Gradient reduction vs the frozen baseline, as a signed fraction.
    pub gradient_reduction: f64,
    /// Modulation epochs the run fired.
    pub epochs: usize,
    /// Epochs whose candidate profile was adopted.
    pub epochs_adopted: usize,
    /// Objective evaluations spent across all epochs.
    pub evaluations: usize,
}

/// The collected result of one MPSoC sweep invocation.
#[derive(Debug, Clone)]
pub struct MpsocReport {
    /// One row per variant, in grid order.
    pub rows: Vec<MpsocRow>,
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Wall-clock time of the evaluation phase.
    pub wall: Duration,
}

impl MpsocReport {
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

/// Evaluates one MPSoC variant: scale the flow, run the modulated loop and
/// the frozen baseline on the same trace, and collect the row.
///
/// # Errors
///
/// Propagates controller failures.
pub fn evaluate_mpsoc_variant(
    variant: &MpsocVariant,
    options: &MpsocSweepOptions,
) -> Result<MpsocRow> {
    let config = options.config.with_flow_scale(variant.flow_scale)?;
    let architecture = variant.arch.architecture();
    let trace = variant
        .trace
        .trace(&architecture, options.phase_seconds, config.nx, config.nz);
    let modulated = MpsocModulated::for_arch(&architecture, config.clone())?
        .controller(ModulationPolicy::Modulated(options.policy))?
        .run(&trace)?;
    let frozen = MpsocModulated::for_arch(&architecture, config)?
        .controller(ModulationPolicy::FrozenUniform)?
        .run(&trace)?;
    let peak_mod = modulated.peak_gradient_k();
    let peak_frozen = frozen.peak_gradient_k();
    Ok(MpsocRow {
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
    })
}

/// Runs every variant of `grid` under `options` and collects the report.
///
/// Rows come back in grid order whatever the scheduling; parallel and
/// serial runs of the same grid produce bitwise-identical rows (every
/// variant is an independent scheduling unit — epoch warm starts chain only
/// *within* a variant's run — and every family operation is a pure,
/// single-threaded function).
///
/// # Errors
///
/// Every variant is evaluated regardless of failures; the sweep then
/// returns the first failure in grid order and discards the partial report.
pub fn run_mpsoc_sweep(grid: &MpsocGrid, options: &MpsocSweepOptions) -> Result<MpsocReport> {
    let (rows, workers, wall) = run_variant_sweep(
        &grid.variants(),
        options.resolved_workers(),
        MpsocVariant::label,
        |v| evaluate_mpsoc_variant(v, options),
    )?;
    Ok(MpsocReport {
        rows,
        workers,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_and_labels() {
        let grid = MpsocGrid::bench_default();
        assert_eq!(grid.len(), 6);
        assert!(!grid.is_empty());
        let variants = grid.variants();
        assert!(variants.iter().enumerate().all(|(i, v)| v.index == i));
        assert_eq!(variants[0].label(), "arch1 avg-peak f*0.75");
        assert_eq!(variants[5].label(), "arch3 avg-peak f*1.00");
        let empty = MpsocGrid {
            archs: vec![],
            traces: vec![MpsocTraceSpec::avg_to_peak()],
            flow_scales: vec![1.0],
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn arch_specs_cover_the_paper() {
        let archs = ArchSpec::all();
        assert_eq!(archs.len(), 3);
        assert_eq!(archs[0].architecture().name(), "Arch. 1");
        assert_eq!(archs[2].architecture().name(), "Arch. 3");
        assert_eq!(MpsocTraceSpec::avg_to_peak().label(), "avg-peak");
    }
}
