//! The liquamod benchmark: four workloads driven through the library's
//! public entry points, end-to-end metrics from untraced runs and a
//! per-layer profile from traced ones. See `README.md` beside this crate.
//!
//! A run builds its workload from `--seed` (the set-up), then repeats the
//! workload's *round* — the fixed unit of work the seed defines — until
//! `--seconds` have passed. After each request of an untraced round the
//! set-up is timed eight more times; `setup_s` summarizes all these
//! samples. Every
//! round's deterministic content must repeat exactly; every output check
//! failure counts as a failed operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod rng;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use liquamod::ObsSession;

use layers::{Layers, SpanTotals};
use stats::{interquartile_mean, median, quantile, ratio};
use workloads::design_sweep::DesignSweep;
use workloads::fleet_faults::FleetFaults;
use workloads::plant_replay::PlantReplay;
use workloads::serve_stream::ServeStream;
use workloads::{nproc, Round, Size, Ticks, Workload};

/// The workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve-stream",
    "design-sweep",
    "plant-replay",
    "fleet-faults",
];

/// Fewest rounds per run: the exact-count check needs a repeat.
const MIN_ROUNDS: usize = 2;

/// Workers of `fleet-faults`' healthy run. Its three stacks leave one of
/// two workers idle for half of every wavefront, so at two workers the run
/// also followed the other core's speed: over eight seeds run alternately
/// at each count on 2 cores, stack-segments/s spread 0.18 (quartile
/// distance / median) at two workers and 0.12 at one, the p50 0.18 and
/// 0.07.
pub const FLEET_WORKERS: usize = 1;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Workload size ([`Size::Small`] in the self-test).
    pub size: Size,
    /// Worker threads, at most: the machine's available parallelism (the
    /// self-test also runs with one). See [`workers`].
    pub workers: usize,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            workers: nproc(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => parsed.workload.clone_from(&value),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad.clone())?,
                "--seconds" => parsed.seconds = value.parse().map_err(|_| bad.clone())?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                parsed.workload
            ));
        }
        if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
            return Err(format!("--seconds must be ≥ 0, got {}", parsed.seconds));
        }
        Ok(parsed)
    }
}

/// The worker count the workload of `args` runs with: `args.workers`,
/// except [`FLEET_WORKERS`] for `fleet-faults`.
#[must_use]
pub fn workers(args: &Args) -> usize {
    if args.workload == "fleet-faults" {
        FLEET_WORKERS.min(args.workers)
    } else {
        args.workers
    }
}

/// Builds the named workload from its seed — the benchmark's set-up.
///
/// # Errors
///
/// An unknown name, or the library rejecting the generated inputs.
pub fn setup(args: &Args) -> Result<Box<dyn Workload>, String> {
    let (seed, size, workers) = (args.seed, args.size, workers(args));
    Ok(match args.workload.as_str() {
        "serve-stream" => Box::new(ServeStream::setup(seed, size, workers)?),
        "design-sweep" => Box::new(DesignSweep::setup(seed, size, workers)?),
        "plant-replay" => Box::new(PlantReplay::setup(seed, size)?),
        "fleet-faults" => Box::new(FleetFaults::setup(seed, size, workers)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed and every round repeated exactly.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer ones (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs one benchmark invocation. `process_start` is when the process
/// started; the first set-up is timed from it.
///
/// # Errors
///
/// The workload could not be set up.
pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let workload = setup(args)?;
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    // Later set-ups are timed between requests (see `Ticks`); the inputs
    // they draw are the first set-up's, so none may fail.
    let mut setup_failures: Vec<String> = Vec::new();
    let mut sample_setup = || {
        let t0 = Instant::now();
        let built = setup(args);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = built {
            setup_failures.push(format!("repeated set-up failed: {e}"));
        }
    };

    // Untraced rounds fill the run, or half of it when a traced half
    // follows with as many rounds. A round starts only if it is expected
    // to end within the budget (the first `min_rounds` always run).
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_rounds = if args.trace { 1 } else { MIN_ROUNDS };
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let expected = ratio(elapsed, rounds.len() as f64);
        if rounds.len() >= min_rounds && elapsed + expected > budget {
            break;
        }
        rounds.push(workload.round(&mut Ticks::new(&mut sample_setup)));
    }
    let mut spans = SpanTotals::default();
    let traced: Vec<Round> = if args.trace {
        (0..rounds.len())
            .map(|_| {
                let session = ObsSession::start();
                let round = workload.round(&mut Ticks::none());
                spans.absorb(&session.finish());
                round
            })
            .collect()
    } else {
        Vec::new()
    };

    let all: Vec<&Round> = rounds.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let mut failures: Vec<String> = setup_failures;
    let mut failed = failures.len() as u64;
    for (i, r) in all.iter().enumerate() {
        let mut round_failures = r.failures.clone();
        if r.fingerprint != all[0].fingerprint {
            round_failures.push(format!(
                "round {i} did not repeat round 0 exactly: {:?} vs {:?}",
                r.fingerprint, all[0].fingerprint
            ));
        }
        // Operations that never completed, or one per failed check when
        // they all did.
        let missing = r.attempted.saturating_sub(r.ops);
        failed += missing.max(round_failures.len() as u64).min(r.attempted);
        failures.extend(round_failures);
    }

    let aliases = workload.aliases();
    let mut metrics = if args.trace {
        per_layer(workload.as_ref(), &rounds, &traced, &spans)
    } else {
        end_to_end(&rounds, &setup_s)
    };
    let mut correct = failures.is_empty();
    for m in &mut metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
            correct = false;
            m.value = 0.0;
        }
    }

    let mut report = vec![
        format!(
            "workload {} seed {} ({} round(s){}, {} worker(s), {} core(s))",
            args.workload,
            args.seed,
            rounds.len(),
            if args.trace {
                " untraced + as many traced"
            } else {
                ""
            },
            workers(args),
            nproc(),
        ),
        format!(
            "operations: {attempted} attempted, {failed} failed; {} latency sample(s); \
             {} set-up sample(s)",
            rounds.iter().map(|r| r.latencies.len()).sum::<usize>(),
            setup_s.len(),
        ),
    ];
    for m in &metrics {
        let alias = match m.name {
            "ops_per_s" => aliases[0],
            "latency_p50_s" => aliases[1],
            "latency_p90_s" => aliases[2],
            "gradient_k" => aliases[3],
            _ => m.name,
        };
        let shown = if alias == m.name {
            m.name.to_string()
        } else {
            format!("{} ({alias})", m.name)
        };
        report.push(format!("  {shown:<44} {:>14.6} {}", m.value, m.unit));
    }
    if !args.trace {
        if let Some(gap) = rounds[0].extra.get("grid_sim.stepper_gap_k") {
            report.push(format!("  {:<44} {gap:>14.6} K", "plant_gap_k"));
        }
    }
    for f in failures.iter().take(20) {
        report.push(format!("FAILED: {f}"));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(rounds: &[Round], setup_s: &[f64]) -> Vec<Metric> {
    // Operations over the whole run's wall, not a median of round rates:
    // a run holds two to six rounds, and the machine's slow spells last
    // about as long as one, so the median of round rates caught one spell.
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.latencies.clone()).collect();
    let gradients = &rounds[0].gradients;
    vec![
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            value: ratio(ops as f64, wall),
        },
        Metric {
            name: "latency_p50_s",
            unit: "s",
            value: quantile(&latencies, 0.5),
        },
        Metric {
            name: "latency_p90_s",
            unit: "s",
            value: quantile(&latencies, 0.9),
        },
        Metric {
            name: "gradient_k",
            unit: "K",
            value: ratio(gradients.iter().sum(), gradients.len() as f64),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: interquartile_mean(setup_s),
        },
    ]
}

/// The per-layer metrics of a traced run: span and counter totals of the
/// traced rounds, outside timers of the library calls, the workload's
/// kernel probes and the tracing overhead against the untraced rounds.
/// Counts and times are per round; a layer the workload never enters
/// reads 0.
fn per_layer(
    workload: &dyn Workload,
    untraced: &[Round],
    traced: &[Round],
    spans: &SpanTotals,
) -> Vec<Metric> {
    let n = traced.len() as f64;
    let mut calls = Layers::default();
    for r in traced {
        calls.merge(&r.layers);
    }
    let extra = |key: &str| -> f64 {
        traced
            .iter()
            .map(|r| r.extra.get(key).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n
    };
    let mut kernels = BTreeMap::new();
    workload.kernels(&mut kernels);
    let kernel = |key: &str| kernels.get(key).copied().unwrap_or(0.0);
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let walls = |rounds: &[Round]| median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    // Optimizer busy time: the controller's epoch solves plus the steady
    // designs (each `sweep.variant` is one design and its two baselines).
    let solves = spans.count("epoch.solve") + spans.count("sweep.variant");
    let busy_s = spans.total("epoch.solve") + spans.total("sweep.variant");
    let evaluations = spans.counter("optimizer.evaluations");
    let solve_us =
        kernel("thermal_model.solve_us.strip256").max(kernel("thermal_model.solve_us.mpsoc48"));
    let bvp_s = evaluations * solve_us * 1e-6;
    let adopted = spans.counter("epoch.adopted");
    let epochs = adopted + spans.counter("epoch.rejected");
    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();

    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    vec![
        m(
            "serve.batch_s",
            "s",
            ratio(spans.total("serve.batch"), spans.count("serve.batch")),
        ),
        m(
            "serve.decisions_per_batch",
            "count",
            ratio(spans.counter("serve.decisions"), spans.count("serve.batch")),
        ),
        m(
            "serve.batch_straggler",
            "ratio",
            mean(&spans.batch_stragglers),
        ),
        m(
            "serve.cold_decisions",
            "count",
            extra("serve.cold_decisions"),
        ),
        m("serve.snapshot_s", "s", calls.mean("serve.snapshot")),
        m("serve.restore_s", "s", calls.mean("serve.restore")),
        m(
            "serve.snapshot_bytes",
            "bytes",
            calls.mean("serve.snapshot_bytes"),
        ),
        m("serve.evictions", "count", extra("serve.evictions")),
        m("epoch.solve_s", "s", spans.total("epoch.solve") / n),
        m("epoch.solves", "count", spans.count("epoch.solve") / n),
        m("epoch.adopt_ratio", "ratio", ratio(adopted, epochs)),
        m(
            "assembly.rebuild_s",
            "s",
            spans.total("assembly.rebuild") / n,
        ),
        m(
            "assembly.full_rebuilds",
            "count",
            spans.counter("assembly.full_rebuilds") / n,
        ),
        m(
            "assembly.values_only_refreshes",
            "count",
            spans.counter("assembly.values_only_refreshes") / n,
        ),
        m(
            "stepper.advance_s",
            "s",
            spans.self_time("stepper.advance") / n,
        ),
        m("optimizer.evaluations", "count", evaluations / n),
        m(
            "optimizer.evals_per_solve",
            "count",
            ratio(evaluations, solves),
        ),
        m("optimizer.eval_ms", "ms", ratio(busy_s, evaluations) * 1e3),
        m(
            "optimizer.warm_start_hits",
            "count",
            spans.counter("optimizer.warm_start_hits") / n,
        ),
        m("optimizer.bvp_s", "s", bvp_s / n),
        m("optimizer.bvp_share", "ratio", ratio(bvp_s, busy_s)),
        m(
            "thermal_model.solve_us.strip256",
            "us",
            kernel("thermal_model.solve_us.strip256"),
        ),
        m(
            "thermal_model.solve_us.mpsoc48",
            "us",
            kernel("thermal_model.solve_us.mpsoc48"),
        ),
        m("grid_sim.be_step_us", "us", kernel("grid_sim.be_step_us")),
        m("grid_sim.exp_step_us", "us", kernel("grid_sim.exp_step_us")),
        m(
            "grid_sim.exp_build_ms",
            "ms",
            kernel("grid_sim.exp_build_ms"),
        ),
        m(
            "grid_sim.stepper_gap_k",
            "K",
            extra("grid_sim.stepper_gap_k"),
        ),
        m(
            "expstep.matrix_rebuilds",
            "count",
            spans.counter("expstep.matrix_rebuilds") / n,
        ),
        m("fleet.run_s", "s", calls.mean("fleet.run")),
        m(
            "fleet.segments",
            "count",
            spans.counter("fleet.segments") / n,
        ),
        m(
            "fleet.dedup_hits",
            "count",
            spans.counter("fleet.dedup_hits") / n,
        ),
        m(
            "fleet.wavefront_straggler",
            "ratio",
            mean(&spans.wavefront_stragglers),
        ),
        m("fleet.allocate_us", "us", kernel("fleet.allocate_us")),
        m(
            "allocator.forecast_hits",
            "count",
            spans.counter("allocator.forecast_hits") / n,
        ),
        m(
            "allocator.surrogate_refits",
            "count",
            spans.counter("allocator.surrogate_refits") / n,
        ),
        m("faults.run_s", "s", calls.mean("faults.run")),
        m(
            "faults.degraded_events",
            "count",
            extra("faults.degraded_events"),
        ),
        m(
            "sweep.utilization",
            "ratio",
            ratio(spans.total("sweep.chain"), calls.total("sweep.worker_s")),
        ),
        m("floorplan.raster_ms", "ms", kernel("floorplan.raster_ms")),
        m(
            "obs.overhead",
            "ratio",
            ratio(walls(traced), walls(untraced)) - 1.0,
        ),
        m("obs.coverage", "ratio", ratio(spans.covered_s, traced_wall)),
    ]
}
