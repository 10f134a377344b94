//! Parallel design-space sweep over scenario variants, with transient
//! channel-modulation modes for both the validation strips and the
//! full-chip MPSoC stacks.
//!
//! The default (steady) mode expands a grid of workloads × heat-flux
//! scales × coolant-flow scales, evaluates the full minimum/maximum/optimal
//! comparison for every variant and prints one comparable report — the
//! throughput-oriented counterpart to the per-figure reproduction binaries.
//!
//! The `transient` mode runs the closed-loop modulation controller over
//! time-varying strip workload traces (trace × flow-scale grid), comparing
//! the time-peak inter-layer gradient of the modulated run against the
//! frozen uniform-width baseline of each variant.
//!
//! The `mpsoc` mode does the same for the paper's two-die Fig. 7
//! architectures (arch × trace × flow-scale grid): each variant drives a
//! five-layer two-cavity stack through a Niagara average→peak burst, with
//! the cavities' per-group width profiles re-optimized jointly at every
//! epoch.
//!
//! The `fleet` mode co-optimizes *several* MPSoC stacks under one shared
//! pump budget: per budget variant, the same fleet runs under uniform,
//! gradient-water-filling and predictive (one-step-MPC) flow
//! allocation, and a double gate requires water-filling to strictly beat
//! the uniform split *and* the predictive allocator to strictly beat
//! water-filling on the worst stack's time-peak gradient.
//!
//! The `faults` mode drives the fleet through adversarial operating
//! scenarios (pump-degradation ramp, stuck valve group, coolant inlet
//! excursion) under a deterministic seeded fault schedule, head-to-head
//! between the fault-aware degraded controller and a fault-oblivious
//! baseline. The gate requires the aware controller to strictly beat the
//! oblivious one on every scenario's worst-stack time-peak gradient, stay
//! within the declared excursion bound of the healthy run, and surface
//! structured degraded-mode events for every fault scenario.
//!
//! The `serve` mode soaks the streaming modulation service: a pool of
//! concurrent stack sessions streaming phases one at a time under a shared
//! pump budget, with staggered arrivals, snapshot/restore churn and
//! departures. The gates require the streamed trajectory to equal the
//! one-shot run **bitwise**, a session serialized mid-stream to continue
//! after a restart within 1e-9 K (and its JSON document to round-trip
//! byte-identically), and the whole soak to be bitwise deterministic
//! against a single-worker rerun.
//!
//! Run with: `cargo run --release -p bench --bin sweep [-- transient|mpsoc|fleet|faults|serve]`
//!
//! Options (all modes unless noted; `--help` prints the same list):
//!
//! * `transient` — run the strip transient modulation sweep;
//! * `mpsoc` — run the full-chip MPSoC modulation sweep;
//! * `fleet` — run the shared-pump fleet sharding sweep;
//! * `faults` — run the fault-injection scenario grid;
//! * `serve` — soak the streaming modulation service;
//! * `--serial` — run on one thread only (no speedup baseline);
//! * `--workers N` — override the parallel worker count;
//! * `--no-baseline` — skip the serial reference run (faster, but no
//!   speedup figure and no runtime determinism check);
//! * `--cold-start` — steady mode only: disable warm-started flow chains
//!   (every variant's optimizer starts from the uniform-maximum baseline,
//!   as in the paper);
//! * `--stepper backward-euler|exponential` — all modes but steady:
//!   pick the transient integrator backend (backward-euler is the default;
//!   exponential is the condensed exponential-integrator fast path);
//! * `--json [PATH]` — write a machine-readable perf record; `PATH`
//!   defaults to `BENCH_<mode>.json` (steady spells its mode `sweep`);
//! * `--trace [PATH]` — record hierarchical spans through the run and
//!   write a Perfetto-loadable Chrome trace (`PATH` defaults to
//!   `TRACE_<mode>.json`), plus a self-time profile table on stdout;
//! * `--counters [PATH]` — write the deterministic observability JSONL
//!   log — spans, counters and degraded events without wall-clock fields
//!   (`PATH` defaults to `COUNTERS_<mode>.jsonl`);
//! * `LIQUAMOD_FAST=1` — coarse optimizer/grid settings (CI).
//!
//! By default the steady grid is the 16-variant paper neighborhood, the
//! transient grid the 4-variant trace neighborhood and the mpsoc grid the
//! 6-variant architecture neighborhood, evaluated in parallel *and*
//! serially; the tail of the output reports wall times, effective
//! throughput and the parallel speedup.

use liquamod::faults::{run_faults_sweep, FaultScenario, FaultsReport, FaultsSweepOptions};
use liquamod::fleet::{
    run_fleet_sweep, BudgetPolicy, FleetGrid, FleetReport, FleetSweepOptions, StackSpec,
};
use liquamod::floorplan::PowerLevel;
use liquamod::grid_sim::{ExponentialOptions, StepperKind};
use liquamod::mpsoc::{run_mpsoc_sweep, MpsocGrid, MpsocReport, MpsocSweepOptions};
use liquamod::obs::json_escape;
use liquamod::serve::{
    run_soak, soak_level, soak_outcomes_match, verify_snapshot_restore, verify_streaming_identity,
    ServeOptions, SnapshotFidelity, SoakOutcome, SoakPlan, StreamingIdentity,
};
use liquamod::sweep::{run_sweep, ExecutionMode, SweepGrid, SweepOptions, SweepReport};
use liquamod::transient::{
    run_transient_sweep, EpochPolicy, ModulationPolicy, TransientGrid, TransientReport,
    TransientSweepOptions,
};
use liquamod::{ObsReport, ObsSession};
use liquamod_bench::{banner, print_table};
use std::num::NonZeroUsize;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Steady,
    Transient,
    Mpsoc,
    Fleet,
    Faults,
    Serve,
}

struct Args {
    mode: Mode,
    serial: bool,
    workers: Option<NonZeroUsize>,
    baseline: bool,
    warm_start: bool,
    stepper: StepperKind,
    json: Option<String>,
    trace: Option<String>,
    counters: Option<String>,
}

/// The mode names as the CLI and the default artifact paths spell them
/// (steady mode spells its artifacts `sweep`, after the binary).
const MODE_NAMES: [&str; 5] = ["transient", "mpsoc", "fleet", "faults", "serve"];

/// The artifact-path name of a mode.
fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Steady => "sweep",
        Mode::Transient => "transient",
        Mode::Mpsoc => "mpsoc",
        Mode::Fleet => "fleet",
        Mode::Faults => "faults",
        Mode::Serve => "serve",
    }
}

/// The usage text `--help` prints; README.md's flag table is generated
/// from this output — keep them in sync.
fn print_help() {
    println!(
        "liquamod design-space sweep bench

usage: sweep [MODE] [OPTIONS]

modes (default: steady):
  transient          strip transient modulation sweep
  mpsoc              full-chip MPSoC modulation sweep
  fleet              shared-pump fleet sharding sweep
  faults             fault-injection scenario grid
  serve              streaming modulation service soak

options (all modes unless noted):
  --serial           run on one thread only (no speedup baseline)
  --workers N        override the parallel worker count
  --no-baseline      skip the serial reference run (faster, but no speedup
                     figure and no runtime determinism check)
  --cold-start       steady mode only: disable warm-started flow chains
  --stepper KIND     all modes but steady: transient integrator backend,
                     backward-euler (default) or exponential
  --json [PATH]      write a machine-readable perf record
                     (PATH defaults to BENCH_<mode>.json)
  --trace [PATH]     record hierarchical spans and write a Perfetto-loadable
                     Chrome trace (PATH defaults to TRACE_<mode>.json), plus
                     a self-time profile table on stdout
  --counters [PATH]  write the deterministic observability JSONL log: spans,
                     counters and degraded events without wall-clock fields
                     (PATH defaults to COUNTERS_<mode>.jsonl)
  --help             print this help

environment:
  LIQUAMOD_FAST=1    coarse optimizer/grid settings (CI)"
    );
}

/// The record's name for a stepper backend (also the `--stepper` spelling,
/// modulo `-` vs `_`).
fn stepper_name(stepper: &StepperKind) -> &'static str {
    match stepper {
        StepperKind::BackwardEuler => "backward_euler",
        StepperKind::Exponential(_) => "exponential",
    }
}

/// Consumes the next argument as an optional flag value: bare flags (next
/// token is another flag, a mode name, or nothing) leave the value to the
/// mode-specific default.
fn optional_path(it: &mut std::iter::Peekable<std::vec::IntoIter<String>>) -> String {
    match it.peek() {
        Some(next) if !next.starts_with('-') && !MODE_NAMES.contains(&next.as_str()) => {
            it.next().unwrap_or_default()
        }
        _ => String::new(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Steady,
        serial: false,
        workers: None,
        baseline: true,
        warm_start: true,
        stepper: StepperKind::BackwardEuler,
        json: None,
        trace: None,
        counters: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "transient" => args.mode = Mode::Transient,
            "mpsoc" => args.mode = Mode::Mpsoc,
            "fleet" => args.mode = Mode::Fleet,
            "faults" => args.mode = Mode::Faults,
            "serve" => args.mode = Mode::Serve,
            "--serial" => args.serial = true,
            "--no-baseline" => args.baseline = false,
            "--cold-start" => args.warm_start = false,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count: {v}"))?;
                args.workers = Some(NonZeroUsize::new(n).ok_or("worker count must be positive")?);
            }
            "--stepper" => {
                let v = it.next().ok_or("--stepper needs a value")?;
                args.stepper = match v.as_str() {
                    "backward-euler" => StepperKind::BackwardEuler,
                    "exponential" => StepperKind::Exponential(ExponentialOptions::default()),
                    other => {
                        return Err(format!(
                            "bad stepper: {other} (try backward-euler or exponential)"
                        ))
                    }
                };
            }
            // The paths are optional: a bare flag writes the mode's
            // default file name in the working directory.
            "--json" => args.json = Some(optional_path(&mut it)),
            "--trace" => args.trace = Some(optional_path(&mut it)),
            "--counters" => args.counters = Some(optional_path(&mut it)),
            other => {
                return Err(format!(
                    "unknown argument: {other} (try transient, mpsoc, fleet, faults, serve, \
                     --serial, --workers N, --no-baseline, --cold-start, --stepper KIND, \
                     --json [PATH], --trace [PATH], --counters [PATH], or --help)"
                ))
            }
        }
    }
    // Resolve the default artifact paths once the mode is known.
    let name = mode_name(args.mode);
    for (slot, default) in [
        (&mut args.json, format!("BENCH_{name}.json")),
        (&mut args.trace, format!("TRACE_{name}.json")),
        (&mut args.counters, format!("COUNTERS_{name}.jsonl")),
    ] {
        if let Some(path) = slot {
            if path.is_empty() {
                *path = default;
            }
        }
    }
    Ok(args)
}

/// Starts an observability session when any consumer asked for one: a
/// trace, a counters log, or the perf record (whose tail carries the
/// counter registry). Spans and counters recorded outside a session are
/// dropped at near-zero cost, so the un-flagged paths stay unobserved.
fn obs_session(args: &Args) -> Option<ObsSession> {
    (args.trace.is_some() || args.counters.is_some() || args.json.is_some()).then(ObsSession::start)
}

/// Finishes the session (before the serial baseline runs, so the report
/// covers exactly the run whose wall time the record reports) and writes
/// the requested export files. The self-time profile prints whenever
/// tracing was on; the returned report feeds the perf record's `counters`
/// block.
fn obs_finish(args: &Args, session: Option<ObsSession>) -> Result<Option<ObsReport>, String> {
    let Some(session) = session else {
        return Ok(None);
    };
    let report = session.finish();
    if let Some(path) = &args.trace {
        std::fs::write(path, report.to_chrome_trace())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote Perfetto-loadable trace to {path}");
        print_table(&report.self_time_table());
    }
    if let Some(path) = &args.counters {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote deterministic observability log to {path}");
    }
    Ok(Some(report))
}

fn report_stats(label: &str, report: &SweepReport) {
    println!(
        "{label}: {} variants in {:.2} s on {} worker(s) — {:.2} variants/s, {} evaluations",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
        report.throughput_per_second(),
        report.total_evaluations(),
    );
}

/// Renders the `BENCH_sweep.json` record; see the README's "Performance"
/// section for the schema and how the CI bench-smoke job consumes it.
fn json_record(
    grid: &SweepGrid,
    report: &SweepReport,
    serial: Option<&SweepReport>,
    determinism_verified: bool,
    fast_mode: bool,
    obs: Option<&ObsReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"sweep\",\n");
    // v2: adds the `counters` observability block.
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"grid\": {{\"variants\": {}, \"loads\": {}, \"flux_scales\": {}, \"flow_scales\": {}}},\n",
        grid.len(),
        grid.loads.len(),
        grid.flux_scales.len(),
        grid.flow_scales.len()
    ));
    out.push_str(&format!("  \"workers\": {},\n", report.workers));
    out.push_str(&format!("  \"available_cores\": {},\n", available_cores()));
    out.push_str(&format!("  \"warm_start\": {},\n", report.warm_start));
    out.push_str(&format!("  \"fast_mode\": {fast_mode},\n"));
    out.push_str(&format!(
        "  \"wall_seconds\": {:.6},\n",
        report.wall.as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"throughput_variants_per_second\": {:.4},\n",
        report.throughput_per_second()
    ));
    out.push_str(&format!(
        "  \"total_evaluations\": {},\n",
        report.total_evaluations()
    ));
    if let Some(serial) = serial {
        out.push_str(&format!(
            "  \"serial_wall_seconds\": {:.6},\n",
            serial.wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"parallel_speedup\": {:.4},\n",
            serial.wall.as_secs_f64() / report.wall.as_secs_f64().max(1e-12)
        ));
    }
    out.push_str(&format!(
        "  \"determinism_verified\": {determinism_verified},\n"
    ));
    if let Some(obs) = obs {
        out.push_str(&format!("  \"counters\": {},\n", obs.counters_json()));
    }
    out.push_str("  \"variants\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let sep = if i + 1 == report.rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"evaluations\": {}, \"gradient_opt_k\": {:.6}, \
             \"gradient_reduction\": {:.6}, \"feasible\": {}}}{sep}\n",
            json_escape(&row.variant.label()),
            row.evaluations,
            row.gradient_opt_k,
            row.gradient_reduction,
            row.feasible
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The core count this box actually has, as the records report it: the
/// detected parallelism, 1 when detection fails. CI's speedup gates read
/// this back to judge `parallel_speedup` against the hardware — on a 1- or
/// 2-core runner the parallel run cannot beat serial, only match it.
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Scheduling mode shared by both sweeps: serial on request, otherwise
/// parallel with at least 2 workers — even on a single-core box the
/// dynamic scheduler interleaves two workers correctly (and the report is
/// honest about the cores actually available).
fn execution_mode(args: &Args, available: usize) -> ExecutionMode {
    if args.serial {
        ExecutionMode::Serial
    } else {
        let workers = args.workers.or_else(|| NonZeroUsize::new(available.max(2)));
        ExecutionMode::Parallel { workers }
    }
}

/// Shared tail of both modes: runs the serial reference, requires bitwise
/// row equality with the parallel report and prints the speedup. Returns
/// the serial report; the `Err` carries the message to fail with.
fn serial_baseline<R>(
    what: &str,
    parallel_wall: std::time::Duration,
    workers: usize,
    available: usize,
    run_serial: impl FnOnce() -> Result<R, String>,
    rows_match: impl FnOnce(&R) -> bool,
    wall_of: impl Fn(&R) -> std::time::Duration,
) -> Result<R, String> {
    let serial = run_serial()?;
    if !rows_match(&serial) {
        return Err(format!(
            "parallel and serial {what} reports disagree — determinism bug"
        ));
    }
    println!("parallel and serial {what} reports are bitwise identical");
    let speedup = wall_of(&serial).as_secs_f64() / parallel_wall.as_secs_f64().max(1e-12);
    println!(
        "parallel speedup over --serial: {speedup:.2}x with {workers} workers on \
         {available} core(s)"
    );
    Ok(serial)
}

/// Writes a JSON perf record, reporting the outcome.
fn write_record(path: &str, what: &str, record: &str) -> Result<(), String> {
    std::fs::write(path, record).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {what} perf record to {path}");
    Ok(())
}

/// What a strictly-beats-baseline gate compares, for its messages: the
/// candidate metric that must stay strictly below the baseline metric.
struct GateNames {
    /// The metric under test, e.g. "modulated time-peak gradient".
    candidate: &'static str,
    /// What it must strictly undercut, e.g. "frozen uniform-width baseline".
    baseline: &'static str,
}

/// Shared tail of the strictly-beats-baseline modes (`transient`, `mpsoc`,
/// `fleet`): the serial determinism baseline, the candidate-beats-baseline
/// gate over `(label, candidate K, baseline K)` rows, and the JSON record
/// write — which happens even when a gate failed, because the failing run
/// is exactly the one whose per-variant numbers are needed. Returns the
/// process exit code.
// One parameter per closure the report types differ by; bundling them
// into a trait would just move the same six names elsewhere.
#[allow(clippy::too_many_arguments)]
fn finish_gated_mode<R>(
    what: &str,
    gate: &GateNames,
    args: &Args,
    available: usize,
    report: &R,
    wall: std::time::Duration,
    workers: usize,
    run_serial: impl FnOnce() -> Result<R, String>,
    rows_equal: impl FnOnce(&R) -> bool,
    wall_of: impl Fn(&R) -> std::time::Duration,
    gate_rows: impl Fn(&R) -> Vec<(String, f64, f64)>,
    render_record: impl FnOnce(Option<&R>, bool) -> String,
) -> ExitCode {
    let mut serial_report = None;
    let mut determinism_verified = false;
    let mut gate_failure: Option<String> = None;
    if !args.serial && args.baseline {
        match serial_baseline(
            what, wall, workers, available, run_serial, rows_equal, wall_of,
        ) {
            Ok(serial) => {
                determinism_verified = true;
                serial_report = Some(serial);
            }
            Err(e) => gate_failure = Some(e),
        }
    }
    if gate_failure.is_none() {
        if let Some((label, candidate, baseline)) = gate_rows(report)
            .into_iter()
            .find(|(_, candidate, baseline)| candidate >= baseline)
        {
            gate_failure = Some(format!(
                "{label}: {} did not beat the {} \
                 ({candidate:.3} K vs {baseline:.3} K)",
                gate.candidate, gate.baseline
            ));
        } else {
            println!(
                "every variant: {} strictly below the {}",
                gate.candidate, gate.baseline
            );
        }
    }
    if let Some(path) = &args.json {
        let record = render_record(serial_report.as_ref(), determinism_verified);
        if let Err(e) = write_record(path, what, &record) {
            // Don't let a write failure swallow an already-detected gate
            // failure — that diagnosis matters more than the record.
            if let Some(gate) = &gate_failure {
                eprintln!("error: {gate}");
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(e) = gate_failure {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Emits the run-stats tail every gated-mode record shares: worker count,
/// the core count the box actually had (so downstream gates can judge the
/// speedup against the hardware, not against an assumption), fast-mode
/// flag, wall time, the serial baseline + speedup when one ran, the
/// determinism flag, and the observability counter registry of the run
/// (present whenever an obs session ran, i.e. always under `--json`).
fn push_record_tail(
    out: &mut String,
    workers: usize,
    fast_mode: bool,
    wall: std::time::Duration,
    serial_wall: Option<std::time::Duration>,
    determinism_verified: bool,
    obs: Option<&ObsReport>,
) {
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!("  \"available_cores\": {},\n", available_cores()));
    out.push_str(&format!("  \"fast_mode\": {fast_mode},\n"));
    out.push_str(&format!("  \"wall_seconds\": {:.6},\n", wall.as_secs_f64()));
    if let Some(serial) = serial_wall {
        out.push_str(&format!(
            "  \"serial_wall_seconds\": {:.6},\n",
            serial.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"parallel_speedup\": {:.4},\n",
            serial.as_secs_f64() / wall.as_secs_f64().max(1e-12)
        ));
    }
    out.push_str(&format!(
        "  \"determinism_verified\": {determinism_verified},\n"
    ));
    if let Some(report) = obs {
        out.push_str(&format!("  \"counters\": {},\n", report.counters_json()));
    }
}

/// Emits the `variants` array of a modulated-vs-frozen record from
/// `(label, modulated K, frozen K, reduction, epochs, adopted, evals)`
/// rows — the transient and mpsoc row schemas are identical, so both
/// records render through this one loop.
fn push_modulated_variants(
    out: &mut String,
    rows: impl ExactSizeIterator<Item = (String, f64, f64, f64, usize, usize, usize)>,
) {
    out.push_str("  \"variants\": [\n");
    let n = rows.len();
    for (i, (label, modulated, frozen, reduction, epochs, adopted, evaluations)) in rows.enumerate()
    {
        let sep = if i + 1 == n { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"peak_gradient_modulated_k\": {modulated:.6}, \
             \"peak_gradient_frozen_k\": {frozen:.6}, \"gradient_reduction\": {reduction:.6}, \
             \"epochs\": {epochs}, \"epochs_adopted\": {adopted}, \
             \"evaluations\": {evaluations}}}{sep}\n",
            json_escape(&label),
        ));
    }
    out.push_str("  ]\n}\n");
}

/// Renders the `BENCH_transient.json` record; see the README's "Transient
/// modulation" section for the schema and how the CI bench-smoke job
/// consumes it.
fn transient_json_record(
    grid: &TransientGrid,
    options: &TransientSweepOptions,
    report: &TransientReport,
    serial: Option<&TransientReport>,
    determinism_verified: bool,
    fast_mode: bool,
    obs: Option<&ObsReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"transient\",\n");
    // v2: adds the `counters` observability block.
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"grid\": {{\"variants\": {}, \"traces\": {}, \"flow_scales\": {}}},\n",
        grid.len(),
        grid.traces.len(),
        grid.flow_scales.len()
    ));
    out.push_str(&format!(
        "  \"dt_seconds\": {:.6e},\n",
        options.config.dt_seconds
    ));
    out.push_str(&format!("  \"epoch_steps\": {},\n", options.epoch_steps));
    out.push_str(&format!(
        "  \"phase_seconds\": {:.6e},\n",
        options.phase_seconds
    ));
    out.push_str(&format!(
        "  \"stepper\": \"{}\",\n",
        stepper_name(&options.config.stepper)
    ));
    push_record_tail(
        &mut out,
        report.workers,
        fast_mode,
        report.wall,
        serial.map(|s| s.wall),
        determinism_verified,
        obs,
    );
    push_modulated_variants(
        &mut out,
        report.rows.iter().map(|row| {
            (
                row.variant.label(),
                row.peak_gradient_modulated_k,
                row.peak_gradient_frozen_k,
                row.gradient_reduction,
                row.epochs,
                row.epochs_adopted,
                row.evaluations,
            )
        }),
    );
    out
}

/// The transient mode: modulated-vs-frozen trace scenarios through the
/// deterministic parallel fan-out.
fn run_transient_mode(args: &Args) -> ExitCode {
    banner("transient channel modulation: trace x flow-scale grid");
    let grid = TransientGrid::bench_default();
    let available = available_cores();
    let mode = execution_mode(args, available);
    // The epoch optimizer follows LIQUAMOD_FAST like the steady mode (the
    // clock and grid stay fixed), so the JSON's fast_mode flag describes
    // the run truthfully.
    let mut options = TransientSweepOptions::fast(mode);
    options.config.optimizer = liquamod_bench::config_from_env();
    options.config.stepper = args.stepper.clone();
    let steps_per_phase = (options.phase_seconds / options.config.dt_seconds).round() as usize;
    println!(
        "grid: {} variants ({} traces x {} flow scales); {available} core(s) available",
        grid.len(),
        grid.traces.len(),
        grid.flow_scales.len(),
    );
    println!(
        "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, re-optimization epoch every {} steps",
        options.config.dt_seconds * 1e3,
        steps_per_phase,
        options.phase_seconds * 1e3,
        options.epoch_steps,
    );

    let session = obs_session(args);
    let report = match run_transient_sweep(&grid, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("transient sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_finish(args, session) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report.to_table());
    println!(
        "{} variants in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );

    let serial_options = TransientSweepOptions {
        mode: ExecutionMode::Serial,
        ..options.clone()
    };
    finish_gated_mode(
        "transient",
        &GateNames {
            candidate: "modulated time-peak gradient",
            baseline: "frozen uniform-width baseline",
        },
        args,
        available,
        &report,
        report.wall,
        report.workers,
        || {
            run_transient_sweep(&grid, &serial_options)
                .map_err(|e| format!("serial baseline failed: {e}"))
        },
        |s| s.rows == report.rows,
        |s| s.wall,
        |r| {
            r.rows
                .iter()
                .map(|row| {
                    (
                        row.variant.label(),
                        row.peak_gradient_modulated_k,
                        row.peak_gradient_frozen_k,
                    )
                })
                .collect()
        },
        |serial, determinism_verified| {
            transient_json_record(
                &grid,
                &options,
                &report,
                serial,
                determinism_verified,
                liquamod_bench::fast_mode(),
                obs.as_ref(),
            )
        },
    )
}

/// Renders the `BENCH_mpsoc.json` record; see the README's "Full-chip MPSoC
/// modulation" section for the schema and how the CI bench-smoke job
/// consumes it.
fn mpsoc_json_record(
    grid: &MpsocGrid,
    options: &MpsocSweepOptions,
    report: &MpsocReport,
    serial: Option<&MpsocReport>,
    determinism_verified: bool,
    fast_mode: bool,
    obs: Option<&ObsReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"mpsoc\",\n");
    // v2: adds the `counters` observability block.
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"grid\": {{\"variants\": {}, \"archs\": {}, \"traces\": {}, \"flow_scales\": {}}},\n",
        grid.len(),
        grid.archs.len(),
        grid.traces.len(),
        grid.flow_scales.len()
    ));
    out.push_str(&format!(
        "  \"stack\": {{\"nx\": {}, \"nz\": {}, \"n_groups\": {}}},\n",
        options.config.nx, options.config.nz, options.config.n_groups
    ));
    out.push_str(&format!(
        "  \"dt_seconds\": {:.6e},\n",
        options.config.dt_seconds
    ));
    out.push_str(&format!(
        "  \"epoch_policy\": \"{}\",\n",
        json_escape(&format!("{:?}", options.policy))
    ));
    out.push_str(&format!(
        "  \"phase_seconds\": {:.6e},\n",
        options.phase_seconds
    ));
    out.push_str(&format!(
        "  \"stepper\": \"{}\",\n",
        stepper_name(&options.config.stepper)
    ));
    push_record_tail(
        &mut out,
        report.workers,
        fast_mode,
        report.wall,
        serial.map(|s| s.wall),
        determinism_verified,
        obs,
    );
    push_modulated_variants(
        &mut out,
        report.rows.iter().map(|row| {
            (
                row.variant.label(),
                row.peak_gradient_modulated_k,
                row.peak_gradient_frozen_k,
                row.gradient_reduction,
                row.epochs,
                row.epochs_adopted,
                row.evaluations,
            )
        }),
    );
    out
}

/// `LIQUAMOD_FAST=1`'s coarsening of the full-chip stacks, shared by the
/// `mpsoc` and `fleet` modes: the along-flow grid halves and so do the
/// width groups per cavity (the channel count stays, so the modulation
/// picture is preserved at CI cost).
fn coarsen_if_fast(config: &mut liquamod::MpsocConfig) {
    if liquamod_bench::fast_mode() {
        config.nz = 11;
        config.n_groups = 2;
    }
}

/// The MPSoC sweep options the bench runs: the full 100-channel stacks by
/// default; `LIQUAMOD_FAST=1` coarsens them via [`coarsen_if_fast`].
fn mpsoc_options(mode: ExecutionMode) -> MpsocSweepOptions {
    let mut options = MpsocSweepOptions::fast(mode);
    coarsen_if_fast(&mut options.config);
    options
}

/// The mpsoc mode: full-chip modulated-vs-frozen architecture scenarios
/// through the deterministic parallel fan-out.
fn run_mpsoc_mode(args: &Args) -> ExitCode {
    banner("full-chip MPSoC modulation: arch x trace x flow-scale grid");
    let grid = MpsocGrid::bench_default();
    let available = available_cores();
    let mode = execution_mode(args, available);
    let mut options = mpsoc_options(mode);
    options.config.stepper = args.stepper.clone();
    let steps_per_phase = (options.phase_seconds / options.config.dt_seconds).round() as usize;
    println!(
        "grid: {} variants ({} archs x {} traces x {} flow scales); {available} core(s) available",
        grid.len(),
        grid.archs.len(),
        grid.traces.len(),
        grid.flow_scales.len(),
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        options.config.nx, options.config.nz, options.config.n_groups,
    );
    match options.policy {
        EpochPolicy::FixedCadence { epoch_steps } => println!(
            "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, re-optimization epoch every {} steps",
            options.config.dt_seconds * 1e3,
            steps_per_phase,
            options.phase_seconds * 1e3,
            epoch_steps,
        ),
        ref policy => println!(
            "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, epoch policy {policy:?}",
            options.config.dt_seconds * 1e3,
            steps_per_phase,
            options.phase_seconds * 1e3,
        ),
    }

    let session = obs_session(args);
    let report = match run_mpsoc_sweep(&grid, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mpsoc sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_finish(args, session) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report.to_table());
    println!(
        "{} variants in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );

    let serial_options = MpsocSweepOptions {
        mode: ExecutionMode::Serial,
        ..options.clone()
    };
    finish_gated_mode(
        "mpsoc",
        &GateNames {
            candidate: "modulated time-peak gradient",
            baseline: "frozen uniform-width baseline",
        },
        args,
        available,
        &report,
        report.wall,
        report.workers,
        || {
            run_mpsoc_sweep(&grid, &serial_options)
                .map_err(|e| format!("serial baseline failed: {e}"))
        },
        |s| s.rows == report.rows,
        |s| s.wall,
        |r| {
            r.rows
                .iter()
                .map(|row| {
                    (
                        row.variant.label(),
                        row.peak_gradient_modulated_k,
                        row.peak_gradient_frozen_k,
                    )
                })
                .collect()
        },
        |serial, determinism_verified| {
            mpsoc_json_record(
                &grid,
                &options,
                &report,
                serial,
                determinism_verified,
                liquamod_bench::fast_mode(),
                obs.as_ref(),
            )
        },
    )
}

/// Renders the `BENCH_fleet.json` record; see the README's "Fleet
/// sharding" section for the schema and how the CI bench-smoke job
/// consumes it.
fn fleet_json_record(
    grid: &FleetGrid,
    options: &FleetSweepOptions,
    report: &FleetReport,
    serial: Option<&FleetReport>,
    determinism_verified: bool,
    fast_mode: bool,
    obs: Option<&ObsReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fleet\",\n");
    // v2: adds `stepper` and `segment_wall_seconds` (the per-wavefront
    // serial critical path of the segment-level scheduler).
    // v4: adds the `counters` observability block.
    // v5: the policy ladder grows to four — adds the per-variant
    // predictive fields (`worst_gradient_predictive_k`,
    // `predictive_reduction`, `predictive_margin`,
    // `predictive_final_allocation`) and the surrogate-fit diagnostics
    // (`predictive_forecast_hits`, `predictive_surrogate_refits`,
    // `predictive_mean_abs_slope_k_per_scale`).
    // v6: the greedy policy is gone — drops `worst_gradient_greedy_k` and
    // `greedy_reduction`.
    out.push_str("  \"schema_version\": 6,\n");
    out.push_str(&format!(
        "  \"grid\": {{\"variants\": {}, \"stacks\": {}, \"budget_scales\": {}}},\n",
        grid.len(),
        grid.stacks.len(),
        grid.budget_scales.len()
    ));
    out.push_str(&format!(
        "  \"stack\": {{\"nx\": {}, \"nz\": {}, \"n_groups\": {}}},\n",
        options.config.nx, options.config.nz, options.config.n_groups
    ));
    out.push_str(&format!(
        "  \"fleet\": [{}],\n",
        grid.stacks
            .iter()
            .map(|s| format!("\"{}\"", json_escape(&s.label())))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"budget_scales\": [{}],\n",
        grid.budget_scales
            .iter()
            .map(|b| format!("{b:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"dt_seconds\": {:.6e},\n",
        options.config.dt_seconds
    ));
    out.push_str(&format!(
        "  \"epoch_policy\": \"{}\",\n",
        json_escape(&format!("{:?}", options.policy))
    ));
    out.push_str(&format!(
        "  \"phase_seconds\": {:.6e},\n",
        options.phase_seconds
    ));
    out.push_str(&format!(
        "  \"segments_per_phase\": {},\n",
        options.segments_per_phase
    ));
    out.push_str(&format!(
        "  \"stepper\": \"{}\",\n",
        stepper_name(&options.config.stepper)
    ));
    out.push_str(&format!(
        "  \"segment_wall_seconds\": [{}],\n",
        report
            .segment_wall_seconds
            .iter()
            .map(|w| format!("{w:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    push_record_tail(
        &mut out,
        report.workers,
        fast_mode,
        report.wall,
        serial.map(|s| s.wall),
        determinism_verified,
        obs,
    );
    out.push_str("  \"variants\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let sep = if i + 1 == report.rows.len() { "" } else { "," };
        let join6 = |shares: &[f64]| {
            shares
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let allocation = join6(&row.waterfill_final_allocation);
        let predictive_allocation = join6(&row.predictive_final_allocation);
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"worst_gradient_uniform_k\": {:.6}, \
             \"worst_gradient_waterfill_k\": {:.6}, \"worst_gradient_predictive_k\": {:.6}, \
             \"waterfill_reduction\": {:.6}, \
             \"predictive_reduction\": {:.6}, \"predictive_margin\": {:.6}, \
             \"waterfill_final_allocation\": [{allocation}], \
             \"predictive_final_allocation\": [{predictive_allocation}], \
             \"predictive_forecast_hits\": {}, \"predictive_surrogate_refits\": {}, \
             \"predictive_mean_abs_slope_k_per_scale\": {:.6}, \"evaluations\": {}}}{sep}\n",
            json_escape(&row.variant.label()),
            row.worst_gradient_uniform_k,
            row.worst_gradient_waterfill_k,
            row.worst_gradient_predictive_k,
            row.waterfill_reduction,
            row.predictive_reduction,
            row.predictive_margin,
            row.predictive_forecast_hits,
            row.predictive_surrogate_refits,
            row.predictive_mean_abs_slope_k_per_scale,
            row.evaluations
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The fleet mode: several full-chip stacks co-optimized under one shared
/// pump budget, with the three allocation policies head-to-head. Gates
/// twice per variant: waterfill strictly beats uniform, and predictive
/// strictly beats waterfill.
fn run_fleet_mode(args: &Args) -> ExitCode {
    banner("fleet sharding: shared-pump budget x allocation-policy head-to-head");
    let grid = FleetGrid::bench_default();
    let available = available_cores();
    let mode = execution_mode(args, available);
    let mut options = FleetSweepOptions::fast(mode);
    coarsen_if_fast(&mut options.config);
    options.config.stepper = args.stepper.clone();
    let steps_per_phase = (options.phase_seconds / options.config.dt_seconds).round() as usize;
    println!(
        "grid: {} variants ({} stacks x {} pump budgets); {available} core(s) available",
        grid.len(),
        grid.stacks.len(),
        grid.budget_scales.len(),
    );
    println!(
        "fleet: {}",
        grid.stacks
            .iter()
            .map(StackSpec::label)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        options.config.nx, options.config.nz, options.config.n_groups,
    );
    println!(
        "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, {} reallocation segment(s) per phase, \
         epoch policy {:?}",
        options.config.dt_seconds * 1e3,
        steps_per_phase,
        options.phase_seconds * 1e3,
        options.segments_per_phase,
        options.policy,
    );

    let session = obs_session(args);
    let report = match run_fleet_sweep(&grid, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_finish(args, session) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report.to_table());
    println!(
        "{} variants in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );

    let serial_options = FleetSweepOptions {
        mode: ExecutionMode::Serial,
        ..options.clone()
    };
    finish_gated_mode(
        "fleet",
        &GateNames {
            candidate: "candidate policy's worst-stack time-peak gradient",
            baseline: "policy one rung down the ladder",
        },
        args,
        available,
        &report,
        report.wall,
        report.workers,
        || {
            run_fleet_sweep(&grid, &serial_options)
                .map_err(|e| format!("serial baseline failed: {e}"))
        },
        |s| s.rows == report.rows,
        |s| s.wall,
        |r| {
            // Two gate rows per variant: the reactive allocator must beat
            // static provisioning, and the one-step MPC must beat the
            // reactive allocator.
            r.rows
                .iter()
                .flat_map(|row| {
                    [
                        (
                            format!("{} waterfill-vs-uniform", row.variant.label()),
                            row.worst_gradient_waterfill_k,
                            row.worst_gradient_uniform_k,
                        ),
                        (
                            format!("{} predictive-vs-waterfill", row.variant.label()),
                            row.worst_gradient_predictive_k,
                            row.worst_gradient_waterfill_k,
                        ),
                    ]
                })
                .collect()
        },
        |serial, determinism_verified| {
            fleet_json_record(
                &grid,
                &options,
                &report,
                serial,
                determinism_verified,
                liquamod_bench::fast_mode(),
                obs.as_ref(),
            )
        },
    )
}

/// Renders the `BENCH_faults.json` record; see the README's "Fault model &
/// degraded operation" section for the schema and how the CI bench-smoke
/// job consumes it.
fn faults_json_record(
    stacks: &[StackSpec],
    options: &FaultsSweepOptions,
    report: &FaultsReport,
    serial: Option<&FaultsReport>,
    determinism_verified: bool,
    fast_mode: bool,
    obs: Option<&ObsReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"faults\",\n");
    // v2: adds the `counters` observability block.
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"grid\": {{\"scenarios\": {}, \"stacks\": {}}},\n",
        report.rows.len(),
        stacks.len()
    ));
    out.push_str(&format!(
        "  \"stack\": {{\"nx\": {}, \"nz\": {}, \"n_groups\": {}}},\n",
        options.fleet.config.nx, options.fleet.config.nz, options.fleet.config.n_groups
    ));
    out.push_str(&format!(
        "  \"fleet\": [{}],\n",
        stacks
            .iter()
            .map(|s| format!("\"{}\"", json_escape(&s.label())))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"seed\": {},\n", options.seed));
    out.push_str(&format!(
        "  \"excursion_bound\": {:.6},\n",
        report.excursion_bound
    ));
    out.push_str(&format!(
        "  \"dt_seconds\": {:.6e},\n",
        options.fleet.config.dt_seconds
    ));
    out.push_str(&format!(
        "  \"epoch_policy\": \"{}\",\n",
        json_escape(&format!("{:?}", options.fleet.policy))
    ));
    out.push_str(&format!(
        "  \"phase_seconds\": {:.6e},\n",
        options.fleet.phase_seconds
    ));
    out.push_str(&format!(
        "  \"segments_per_phase\": {},\n",
        options.fleet.segments_per_phase
    ));
    out.push_str(&format!(
        "  \"stepper\": \"{}\",\n",
        stepper_name(&options.fleet.config.stepper)
    ));
    push_record_tail(
        &mut out,
        report.workers,
        fast_mode,
        report.wall,
        serial.map(|s| s.wall),
        determinism_verified,
        obs,
    );
    out.push_str("  \"variants\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let sep = if i + 1 == report.rows.len() { "" } else { "," };
        let aware = row.aware_worst_gradient_k();
        let oblivious = row.oblivious_worst_gradient_k();
        let kinds = row
            .aware
            .degraded
            .iter()
            .map(|e| format!("\"{}\"", e.kind.label()))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"worst_gradient_aware_k\": {aware:.6}, \
             \"worst_gradient_oblivious_k\": {oblivious:.6}, \"aware_margin\": {:.6}, \
             \"peak_temperature_aware_k\": {:.6}, \"degraded_events\": {}, \
             \"degraded_kinds\": [{kinds}], \"evaluations_aware\": {}, \
             \"evaluations_oblivious\": {}}}{sep}\n",
            json_escape(row.scenario.label()),
            (oblivious - aware) / oblivious.max(1e-12),
            row.aware.peak_temperature_k(),
            row.aware.degraded.len(),
            row.aware.total_evaluations(),
            row.oblivious.total_evaluations(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The faults mode's robustness gate: per scenario, the fault-aware
/// controller strictly beats the fault-oblivious baseline on the
/// worst-stack time-peak gradient; per *fault* scenario, the degraded run
/// stays within the declared excursion bound of the healthy reference and
/// surfaces at least one structured degraded-mode event. Returns the
/// failure message, if any.
fn faults_gate(report: &FaultsReport) -> Option<String> {
    let Some(healthy) = report.healthy_reference_k() else {
        return Some("faults grid has no healthy reference scenario".into());
    };
    for row in &report.rows {
        let label = row.scenario.label();
        let aware = row.aware_worst_gradient_k();
        let oblivious = row.oblivious_worst_gradient_k();
        if aware >= oblivious {
            return Some(format!(
                "{label}: the fault-aware controller did not strictly beat the \
                 fault-oblivious baseline ({aware:.3} K vs {oblivious:.3} K)"
            ));
        }
        if row.scenario != FaultScenario::Healthy {
            let bound = report.excursion_bound * healthy;
            if aware > bound {
                return Some(format!(
                    "{label}: degraded worst-stack gradient {aware:.3} K exceeds the \
                     {:.1}x excursion bound over the healthy run ({bound:.3} K)",
                    report.excursion_bound
                ));
            }
            if row.aware.degraded.is_empty() {
                return Some(format!(
                    "{label}: the fault-aware run surfaced no degraded-mode events"
                ));
            }
        }
    }
    println!(
        "every scenario: fault-aware strictly beats fault-oblivious, within the {:.1}x \
         excursion bound of the healthy run, with degraded-mode events surfaced",
        report.excursion_bound
    );
    None
}

/// The faults mode: the fleet through adversarial operating scenarios,
/// fault-aware vs fault-oblivious.
fn run_faults_mode(args: &Args) -> ExitCode {
    banner("fault injection: scenario grid, fault-aware vs fault-oblivious");
    let stacks = FleetGrid::bench_default().stacks;
    let available = available_cores();
    let mode = execution_mode(args, available);
    let mut options = FaultsSweepOptions::fast(stacks.len(), mode);
    coarsen_if_fast(&mut options.fleet.config);
    options.fleet.config.stepper = args.stepper.clone();
    let steps_per_phase =
        (options.fleet.phase_seconds / options.fleet.config.dt_seconds).round() as usize;
    println!(
        "grid: {} scenarios x {{aware, oblivious}} over a {}-stack fleet; \
         {available} core(s) available",
        options.scenarios.len(),
        stacks.len(),
    );
    println!(
        "fleet: {}",
        stacks
            .iter()
            .map(StackSpec::label)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        options.fleet.config.nx, options.fleet.config.nz, options.fleet.config.n_groups,
    );
    println!(
        "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, {} reallocation segment(s) per \
         phase, epoch policy {:?}, fault seed {}",
        options.fleet.config.dt_seconds * 1e3,
        steps_per_phase,
        options.fleet.phase_seconds * 1e3,
        options.fleet.segments_per_phase,
        options.fleet.policy,
        options.seed,
    );

    let session = obs_session(args);
    let report = match run_faults_sweep(&stacks, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("faults sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_finish(args, session) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report.to_table());
    println!(
        "{} scenarios in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );

    let serial_options = {
        let mut o = options.clone();
        o.fleet.mode = ExecutionMode::Serial;
        o
    };
    let mut serial_report = None;
    let mut determinism_verified = false;
    let mut failure: Option<String> = None;
    if !args.serial && args.baseline {
        match serial_baseline(
            "faults",
            report.wall,
            report.workers,
            available,
            || {
                run_faults_sweep(&stacks, &serial_options)
                    .map_err(|e| format!("serial baseline failed: {e}"))
            },
            |s: &FaultsReport| s.rows == report.rows,
            |s| s.wall,
        ) {
            Ok(serial) => {
                determinism_verified = true;
                serial_report = Some(serial);
            }
            Err(e) => failure = Some(e),
        }
    }
    if failure.is_none() {
        failure = faults_gate(&report);
    }
    // Like the other gated modes, the record is written even on a gate
    // failure — the failing run's per-scenario numbers are the diagnostic.
    if let Some(path) = &args.json {
        let record = faults_json_record(
            &stacks,
            &options,
            &report,
            serial_report.as_ref(),
            determinism_verified,
            liquamod_bench::fast_mode(),
            obs.as_ref(),
        );
        if let Err(e) = write_record(path, "faults", &record) {
            if let Some(gate) = &failure {
                eprintln!("error: {gate}");
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(e) = failure {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Renders the `BENCH_serve.json` record; see PERFORMANCE.md's "Streaming
/// service soak" section for the schema and how the CI bench-smoke job
/// consumes it.
// One parameter per independent measurement the record reports; bundling
// them into a struct would just move the same eight names elsewhere.
#[allow(clippy::too_many_arguments)]
fn serve_json_record(
    plan: &SoakPlan,
    options: &ServeOptions,
    identity: &StreamingIdentity,
    fidelity: &SnapshotFidelity,
    outcome: &SoakOutcome,
    serial: Option<&SoakOutcome>,
    determinism_verified: bool,
    fast_mode: bool,
    obs: Option<&ObsReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    // v2: adds the `counters` observability block.
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"plan\": {{\"sessions\": {}, \"phases_per_session\": {}, \"initial_sessions\": {}, \
         \"arrivals_per_batch\": {}, \"restore_at_batch\": {}}},\n",
        plan.sessions.len(),
        plan.phases_per_session,
        plan.initial_sessions,
        plan.arrivals_per_batch,
        plan.restore_at_batch
            .map_or_else(|| "null".to_string(), |v| v.to_string()),
    ));
    out.push_str(&format!(
        "  \"stack\": {{\"nx\": {}, \"nz\": {}, \"n_groups\": {}}},\n",
        options.config.nx, options.config.nz, options.config.n_groups
    ));
    out.push_str(&format!(
        "  \"phase_seconds\": {:.6e},\n",
        plan.phase_seconds
    ));
    out.push_str(&format!(
        "  \"dt_seconds\": {:.6e},\n",
        options.config.dt_seconds
    ));
    out.push_str(&format!(
        "  \"epoch_policy\": \"{}\",\n",
        json_escape(&format!("{:?}", options.policy))
    ));
    out.push_str(&format!(
        "  \"budget_policy\": \"{}\",\n",
        json_escape(&format!("{:?}", options.budget_policy))
    ));
    out.push_str(&format!(
        "  \"planned_capacity\": {},\n",
        options.planned_capacity
    ));
    out.push_str(&format!(
        "  \"stepper\": \"{}\",\n",
        stepper_name(&options.config.stepper)
    ));
    push_record_tail(
        &mut out,
        options.workers,
        fast_mode,
        std::time::Duration::from_secs_f64(outcome.wall_seconds),
        serial.map(|s| std::time::Duration::from_secs_f64(s.wall_seconds)),
        determinism_verified,
        obs,
    );
    out.push_str(&format!(
        "  \"streaming_identity\": {{\"steps\": {}, \"epochs\": {}, \"bitwise\": {}, \
         \"max_abs_diff_k\": {:.3e}}},\n",
        identity.steps, identity.epochs, identity.bitwise, identity.max_abs_diff_k
    ));
    out.push_str(&format!(
        "  \"snapshot_restore\": {{\"steps\": {}, \"bitwise\": {}, \"json_round_trip\": {}, \
         \"max_abs_diff_k\": {:.3e}, \"snapshot_bytes\": {}}},\n",
        fidelity.steps,
        fidelity.bitwise,
        fidelity.json_round_trip,
        fidelity.max_abs_diff_k,
        fidelity.snapshot_bytes
    ));
    let kinds = outcome
        .event_kind_counts()
        .into_iter()
        .map(|(label, n)| format!("\"{}\": {n}", json_escape(label)))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!(
        "  \"soak\": {{\"decisions\": {}, \"batches\": {}, \"sessions_served\": {}, \
         \"snapshots\": {}, \"epochs\": {}, \"evaluations\": {}, \"degraded_events\": {}, \
         \"peak_gradient_k\": {:.6}, \"decisions_per_second\": {:.4}, \
         \"sessions_per_second\": {:.4}, \"decisions_per_second_per_core\": {:.4}, \
         \"event_kinds\": {{{kinds}}}}},\n",
        outcome.decisions.len(),
        outcome.batches,
        outcome.sessions_served,
        outcome.snapshots.len(),
        outcome.metrics.epochs,
        outcome.metrics.evaluations,
        outcome.metrics.degraded_events,
        outcome.peak_gradient_k(),
        outcome.decisions_per_second(),
        outcome.sessions_per_second(),
        outcome.decisions_per_second() / available_cores() as f64,
    ));
    let latency = &outcome.metrics.latency;
    out.push_str(&format!(
        "  \"decision_latency\": {{\"samples\": {}, \"mean_seconds\": {:.6e}, \
         \"p50_seconds\": {:.6e}, \"p99_seconds\": {:.6e}, \"min_seconds\": {:.6e}, \
         \"max_seconds\": {:.6e}}}\n",
        latency.count(),
        latency.mean_seconds(),
        latency.quantile(0.5),
        latency.quantile(0.99),
        latency.min_seconds(),
        latency.max_seconds()
    ));
    out.push_str("}\n");
    out
}

/// The serve mode's acceptance gates, short of the soak determinism check
/// (which rides the shared serial-baseline machinery): streamed == one-shot
/// bitwise, and the restored continuation within 1e-9 K of the
/// uninterrupted stream with a byte-identical JSON round trip. Returns the
/// failure message, if any.
fn serve_gate(identity: &StreamingIdentity, fidelity: &SnapshotFidelity) -> Option<String> {
    if !identity.bitwise {
        return Some(format!(
            "streamed trajectory diverged from the one-shot run by {:.3e} K \
             over {} steps — the streaming path must be bitwise identical",
            identity.max_abs_diff_k, identity.steps
        ));
    }
    println!(
        "streaming identity: {} steps, {} epochs — bitwise identical to the one-shot run",
        identity.steps, identity.epochs
    );
    if !fidelity.json_round_trip {
        return Some("the session snapshot document did not re-serialize byte-identically".into());
    }
    // `>` plus an explicit NaN check rather than `!(x <= 1e-9)`: a NaN
    // divergence must fail the gate, not slip through a negated compare.
    if fidelity.max_abs_diff_k > 1e-9 || fidelity.max_abs_diff_k.is_nan() {
        return Some(format!(
            "restored continuation diverged from the uninterrupted stream by {:.3e} K \
             (gate: 1e-9 K)",
            fidelity.max_abs_diff_k
        ));
    }
    println!(
        "snapshot/restore: {} steps through a {}-byte golden document — \
         round trip byte-identical, continuation {}",
        fidelity.steps,
        fidelity.snapshot_bytes,
        if fidelity.bitwise {
            "bitwise".to_string()
        } else {
            format!("within {:.3e} K", fidelity.max_abs_diff_k)
        }
    );
    None
}

/// The serve mode: streaming-vs-one-shot identity, snapshot/restore
/// fidelity, then a churning multi-session soak gated on parallel
/// determinism.
fn run_serve_mode(args: &Args) -> ExitCode {
    banner("streaming modulation service: identity, snapshot/restore, churn soak");
    let plan = SoakPlan::bench_default();
    let available = available_cores();
    let workers = if args.serial {
        1
    } else {
        args.workers.map_or(available.max(2), NonZeroUsize::get)
    };
    let mut config = liquamod::MpsocConfig::fast();
    coarsen_if_fast(&mut config);
    config.stepper = args.stepper.clone();
    let steps_per_phase = (plan.phase_seconds / config.dt_seconds).round() as usize;
    // The epoch cadence divides the phase length so streamed segment
    // boundaries land exactly on one-shot epoch steps — the precondition
    // for the bitwise identity gate.
    let policy = ModulationPolicy::every(steps_per_phase / 2);
    let options = ServeOptions {
        config: config.clone(),
        policy,
        budget_policy: BudgetPolicy::GradientWaterfill,
        avg_scale: 1.0,
        planned_capacity: plan.sessions.len(),
        workers,
    };
    println!(
        "plan: {} sessions x {} phases, {} up front then {} per batch, restore churn at \
         batch {:?}; {available} core(s) available",
        plan.sessions.len(),
        plan.phases_per_session,
        plan.initial_sessions,
        plan.arrivals_per_batch,
        plan.restore_at_batch,
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        config.nx, config.nz, config.n_groups,
    );
    println!(
        "clock: dt = {:.1} ms, {steps_per_phase} steps per {:.0} ms phase, epoch policy \
         {policy:?}, budget policy {:?} over a {}-session provisioning",
        config.dt_seconds * 1e3,
        plan.phase_seconds * 1e3,
        options.budget_policy,
        options.planned_capacity,
    );

    let levels: Vec<PowerLevel> = (0..plan.phases_per_session).map(soak_level).collect();
    let identity = match verify_streaming_identity(
        &config,
        policy,
        plan.sessions[0],
        &levels[..2.min(levels.len())],
        plan.phase_seconds,
    ) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("streaming identity check failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fidelity = match verify_snapshot_restore(
        &config,
        policy,
        plan.sessions[1],
        &levels,
        plan.phase_seconds,
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("snapshot/restore check failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };

    let session = obs_session(args);
    let outcome = match run_soak(&options, &plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve soak failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_finish(args, session) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "soak: {} decisions over {} batches in {:.2} s on {} worker(s) — {:.2} decisions/s, \
         {} sessions served, {} degraded events",
        outcome.decisions.len(),
        outcome.batches,
        outcome.wall_seconds,
        options.workers,
        outcome.decisions_per_second(),
        outcome.sessions_served,
        outcome.metrics.degraded_events,
    );

    let mut serial_outcome = None;
    let mut determinism_verified = false;
    let mut failure: Option<String> = None;
    if !args.serial && args.baseline {
        let serial_options = ServeOptions {
            workers: 1,
            ..options.clone()
        };
        match serial_baseline(
            "serve",
            std::time::Duration::from_secs_f64(outcome.wall_seconds),
            options.workers,
            available,
            || run_soak(&serial_options, &plan).map_err(|e| format!("serial soak failed: {e}")),
            |s: &SoakOutcome| soak_outcomes_match(s, &outcome),
            |s| std::time::Duration::from_secs_f64(s.wall_seconds),
        ) {
            Ok(serial) => {
                determinism_verified = true;
                serial_outcome = Some(serial);
            }
            Err(e) => failure = Some(e),
        }
    }
    if failure.is_none() {
        failure = serve_gate(&identity, &fidelity);
    }
    // Like the other gated modes, the record is written even on a gate
    // failure — the failing run's measurements are the diagnostic.
    if let Some(path) = &args.json {
        let record = serve_json_record(
            &plan,
            &options,
            &identity,
            &fidelity,
            &outcome,
            serial_outcome.as_ref(),
            determinism_verified,
            liquamod_bench::fast_mode(),
            obs.as_ref(),
        );
        if let Err(e) = write_record(path, "serve", &record) {
            if let Some(gate) = &failure {
                eprintln!("error: {gate}");
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(e) = failure {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.mode == Mode::Transient {
        return run_transient_mode(&args);
    }
    if args.mode == Mode::Mpsoc {
        return run_mpsoc_mode(&args);
    }
    if args.mode == Mode::Fleet {
        return run_fleet_mode(&args);
    }
    if args.mode == Mode::Faults {
        return run_faults_mode(&args);
    }
    if args.mode == Mode::Serve {
        return run_serve_mode(&args);
    }

    banner("scenario sweep: workload x flux-scale x flow-scale grid");
    let grid = SweepGrid::paper_neighborhood();
    let config = liquamod_bench::config_from_env();
    let available = available_cores();
    println!(
        "grid: {} variants ({} loads x {} flux scales x {} flow scales); {available} core(s) available",
        grid.len(),
        grid.loads.len(),
        grid.flux_scales.len(),
        grid.flow_scales.len(),
    );
    println!(
        "optimizer starts: {}",
        if args.warm_start {
            "warm (chained along the flow axis; --cold-start to disable)"
        } else {
            "cold (uniform-maximum baseline for every variant)"
        }
    );

    let mode = execution_mode(&args, available);
    let options = SweepOptions {
        config,
        warm_start: args.warm_start,
        ..SweepOptions::fast(mode)
    };

    let session = obs_session(&args);
    let report = match run_sweep(&grid, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = match obs_finish(&args, session) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report.to_table());
    if let Some(best) = report.best_by_gradient() {
        println!(
            "best variant: {} — optimal gradient {:.3} K ({:.1}% below its best uniform baseline)\n",
            best.variant.label(),
            best.gradient_opt_k,
            best.gradient_reduction * 100.0,
        );
    }

    let main_label = if args.serial { "serial" } else { "parallel" };
    report_stats(main_label, &report);

    let mut serial_report = None;
    let mut determinism_verified = false;
    let mut gate_failure: Option<String> = None;
    if !args.serial && args.baseline {
        let serial_options = SweepOptions {
            mode: ExecutionMode::Serial,
            ..options.clone()
        };
        match serial_baseline(
            "sweep",
            report.wall,
            report.workers,
            available,
            || {
                let serial = run_sweep(&grid, &serial_options)
                    .map_err(|e| format!("serial baseline failed: {e}"))?;
                report_stats("serial baseline (--serial)", &serial);
                Ok(serial)
            },
            |s| s.rows == report.rows,
            |s| s.wall,
        ) {
            Ok(serial) => {
                determinism_verified = true;
                serial_report = Some(serial);
            }
            Err(e) => gate_failure = Some(e),
        }
    }

    // Like the transient mode, the record is written even when the
    // determinism gate failed — that run's record is the diagnostic.
    if let Some(path) = &args.json {
        let record = json_record(
            &grid,
            &report,
            serial_report.as_ref(),
            determinism_verified,
            liquamod_bench::fast_mode(),
            obs.as_ref(),
        );
        if let Err(e) = write_record(path, "sweep", &record) {
            // Don't let a write failure swallow an already-detected gate
            // failure — that diagnosis matters more than the record.
            if let Some(gate) = &gate_failure {
                eprintln!("error: {gate}");
            }
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(e) = gate_failure {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
