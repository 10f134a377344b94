//! Small-size self-test of the benchmark: every workload runs, passes its
//! checks, repeats its counts exactly at one and two workers, and prints
//! every metric `BENCHMARK.json` names with a finite value.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use perfbench::workloads::fleet_faults::FleetFaults;
use perfbench::workloads::{Size, Ticks, Workload};
use perfbench::{run, setup, workers, Args, Outcome, FLEET_WORKERS, WORKLOADS};

/// The `name` entries of one list in `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read without a JSON library: the lists hold flat objects.
fn benchmark_names(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn small(workload: &str, trace: bool, workers: usize) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Small,
        workers,
    }
}

fn check(outcome: &Outcome, names: &[String], nonzero: bool) {
    assert!(outcome.correct, "{:#?}", outcome.report);
    assert!(outcome.attempted >= 1);
    assert_eq!(outcome.failed, 0);
    let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    assert_eq!(printed, names, "metric names must match BENCHMARK.json");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(!nonzero || m.value > 0.0, "{} = {}", m.name, m.value);
    }
    let json = outcome.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for name in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {json}"
        );
    }
}

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let end_to_end = benchmark_names("end_to_end");
    let per_layer = benchmark_names("per_layer");
    assert_eq!(end_to_end.len(), 5);
    assert!(per_layer.len() > 30);
    for workload in WORKLOADS {
        let untraced = run(&small(workload, false, 2), Instant::now()).expect(workload);
        check(&untraced, &end_to_end, true);
        let traced = run(&small(workload, true, 2), Instant::now()).expect(workload);
        check(&traced, &per_layer, false);
    }
}

#[test]
fn counts_repeat_exactly_at_any_worker_count() {
    for workload in WORKLOADS {
        let serial = setup(&small(workload, false, 1))
            .expect(workload)
            .round(&mut Ticks::none());
        let parallel = setup(&small(workload, false, 2))
            .expect(workload)
            .round(&mut Ticks::none());
        assert!(
            serial.failures.is_empty(),
            "{workload}: {:?}",
            serial.failures
        );
        assert!(!serial.fingerprint.counts.is_empty(), "{workload}");
        assert_eq!(serial.fingerprint, parallel.fingerprint, "{workload}");
    }
    // The benchmark runs `fleet-faults` at one worker; its fleet engine
    // must still repeat at two.
    assert_eq!(workers(&small("fleet-faults", false, 2)), FLEET_WORKERS);
    let fleet = |workers| {
        FleetFaults::setup(7, Size::Small, workers)
            .expect("fleet-faults")
            .round(&mut Ticks::none())
    };
    assert_eq!(fleet(1).fingerprint, fleet(2).fingerprint, "fleet-faults");
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |args: &[&str]| Args::parse(args.iter().map(|s| s.to_string()));
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "serve-stream", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "serve-stream", "--seed"]).is_err());
    assert!(parse(&["--workload", "serve-stream", "--bogus", "1"]).is_err());
    let ok = parse(&[
        "--workload",
        "plant-replay",
        "--seed",
        "3",
        "--seconds",
        "2.5",
        "--trace",
        "1",
    ])
    .expect("valid arguments");
    assert_eq!(ok.seed, 3);
    assert!(ok.trace);
    assert_eq!(ok.seconds, 2.5);
}
