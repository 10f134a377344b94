//! Several 3D-MPSoC stacks sharing one pump: the fleet sharding layer
//! running an aligned-hotspot Arch. 1, a staggered Arch. 2 and an
//! all-cache Arch. 3 stack through a Niagara average→peak burst under an
//! under-provisioned flow budget, once per allocation policy.
//!
//! Watch for:
//!
//! * segment 0 always running on the uniform split (nothing is measured
//!   yet), and the later segments of the water-filling run steering flow
//!   toward the hot aligned-hotspot stack at the expense of the cool
//!   all-cache one;
//! * the worst stack's time-peak inter-layer gradient — the fleet metric
//!   the budget is spent on — dropping under water-filling, and the
//!   predictive allocator steering ahead of the power changes instead of
//!   one segment behind them;
//! * every segment's allocation summing exactly to the pump budget.
//!
//! Run with: `cargo run --release --example fleet_sharding`

use liquamod::fleet::{run_fleet, BudgetPolicy, FleetOptions, PumpBudget, StackSpec};
use liquamod::mpsoc::{ArchSpec, MpsocConfig, MpsocTraceSpec};
use liquamod::transient::EpochPolicy;
use liquamod::{CoreError, ExecutionMode, OptimizationConfig};

fn main() -> Result<(), CoreError> {
    // A deliberately coarse per-stack resolution so the three policy runs
    // finish in seconds; `sweep -- fleet` runs the full-fidelity version.
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
    let stacks: Vec<StackSpec> = ArchSpec::all()
        .into_iter()
        .map(|arch| StackSpec {
            arch,
            trace: MpsocTraceSpec::avg_to_peak(),
        })
        .collect();
    // 0.85× nominal flow per stack on average: the pump cannot feed every
    // stack fully, so *where* the flow goes decides the worst gradient.
    let budget = PumpBudget::per_stack(0.85, stacks.len());
    println!(
        "fleet: {} stacks, pump budget {:.2} flow-scale units (valve band [{:.2}, {:.2}])\n",
        stacks.len(),
        budget.total_scale,
        budget.min_scale,
        budget.max_scale
    );

    for allocation in BudgetPolicy::all() {
        let outcome = run_fleet(
            &stacks,
            &FleetOptions {
                config: config.clone(),
                policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
                allocation,
                budget,
                phase_seconds: 12.0 * config.dt_seconds,
                segments_per_phase: 2,
                mode: ExecutionMode::parallel(),
            },
        )?;
        println!("=== {} allocation ===", allocation.label());
        println!("{}", outcome.to_table().to_aligned());
        for (seg, alloc) in outcome.allocations.iter().enumerate() {
            let shares: Vec<String> = alloc.iter().map(|s| format!("{s:.3}")).collect();
            println!(
                "segment {seg}: shares [{}] (sum {:.3})",
                shares.join(", "),
                alloc.iter().sum::<f64>()
            );
        }
        let worst = outcome.worst_stack().expect("non-empty fleet");
        println!(
            "worst stack: {} at {:.3} K time-peak gradient; fleet peak T {:.2} K\n",
            worst.spec.label(),
            outcome.worst_stack_peak_gradient_k(),
            outcome.peak_temperature_k()
        );
    }
    println!(
        "water-filling spends the same budget where the gradients are — the worst-stack \
         gradient drops below the uniform split."
    );
    Ok(())
}
