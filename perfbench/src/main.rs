//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` — runs one
//! benchmark workload and prints a text report followed by a one-line JSON
//! result.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let outcome = perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| perfbench::run(&args, process_start));
    match outcome {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
