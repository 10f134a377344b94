//! `serve-stream`: a closed-loop stream of sessions through one
//! [`ServePool`] under predictive budget splitting on an under-provisioned
//! pump.
//!
//! Each session submits its next phase only after the decision for its
//! previous phase came back. Sessions arrive one per batch and depart after
//! their last phase, so a cold first decision shares batches with warm
//! ones. Every session goes through one snapshot → golden JSON → restore
//! mid-stream.

use std::collections::BTreeMap;
use std::time::Instant;

use liquamod::faults::DegradedKind;
use liquamod::floorplan::PowerLevel;
use liquamod::grid_sim::{ExponentialOptions, StepperKind};
use liquamod::mpsoc::{arch_trace, ArchSpec, MpsocConfig};
use liquamod::transient::ModulationPolicy;
use liquamod::{BudgetPolicy, ServeOptions, ServePool, SessionSnapshot};

use super::{check_trace, mpsoc_kernels, Round, Size, Ticks, Workload};
use crate::rng::Rng;

/// Phase length every session streams, seconds (16 steps of 2 ms).
const PHASE_SECONDS: f64 = 0.032;

/// One session of the stream.
#[derive(Debug, Clone)]
struct SessionPlan {
    arch: ArchSpec,
    levels: Vec<PowerLevel>,
    /// Decisions served before the mid-stream snapshot/restore.
    restore_after: usize,
}

/// The coarse two-cavity stack `serve-stream` and `fleet-faults` share:
/// 100 channels × 11 cells, 2 width groups per cavity, exponential stepper.
/// The self-test's small size also caps the optimizer's iterations.
#[must_use]
pub fn coarse_config(size: Size) -> MpsocConfig {
    let mut config = MpsocConfig::fast();
    config.nz = 11;
    config.n_groups = 2;
    config.stepper = StepperKind::Exponential(ExponentialOptions::default());
    if size == Size::Small {
        config.optimizer.auglag.max_outer_iterations = 2;
        config.optimizer.auglag.inner.max_iterations = 8;
    }
    config
}

/// The `serve-stream` workload.
#[derive(Debug, Clone)]
pub struct ServeStream {
    options: ServeOptions,
    sessions: Vec<SessionPlan>,
}

impl ServeStream {
    /// Draws the session mix from `seed`, builds the pool options and
    /// checks every phase the stream will submit.
    ///
    /// # Errors
    ///
    /// The pool rejects its options or a phase has no power.
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 1);
        // Each architecture streams twice, arriving in a fixed order. Every
        // session opens with an average phase — its cold first decision — so
        // the cold solves are the same for every seed; the seed orders the
        // session's remaining average and peak phases and picks its
        // snapshot/restore point.
        let (archs, averages, peaks) = match size {
            Size::Full => ([ArchSpec::all(), ArchSpec::all()].concat(), 4, 4),
            Size::Small => (vec![ArchSpec::Arch1, ArchSpec::Arch3], 1, 1),
        };
        let sessions: Vec<SessionPlan> = archs
            .into_iter()
            .map(|arch| {
                let mut rest = [
                    vec![PowerLevel::Average; averages],
                    vec![PowerLevel::Peak; peaks],
                ]
                .concat();
                rng.shuffle(&mut rest);
                let levels = [vec![PowerLevel::Average], rest].concat();
                SessionPlan {
                    arch,
                    restore_after: rng.range(1, levels.len() - 1),
                    levels,
                }
            })
            .collect();
        let config = coarse_config(size);
        let steps_per_phase = (PHASE_SECONDS / config.dt_seconds).round() as usize;
        let options = ServeOptions {
            config,
            // One re-optimization epoch per decision.
            policy: ModulationPolicy::every(steps_per_phase),
            budget_policy: BudgetPolicy::Predictive,
            // Provisioned for every session of the round at 80 % of nominal
            // flow each; while fewer are live the band is clamped.
            avg_scale: 0.8,
            planned_capacity: sessions.len(),
            workers,
        };
        ServePool::new(options.clone()).map_err(|e| e.to_string())?;
        for session in &sessions {
            check_trace(&arch_trace(
                &session.arch.architecture(),
                &session.levels,
                PHASE_SECONDS,
                options.config.nx,
                options.config.nz,
            ))?;
        }
        Ok(Self { options, sessions })
    }

    /// Decisions one round serves.
    fn planned_decisions(&self) -> u64 {
        self.sessions.iter().map(|s| s.levels.len() as u64).sum()
    }

    /// Streams every session through a fresh pool, recording latencies,
    /// results and failed checks into `r`. `ticks` is ticked after each
    /// batch returns, when no decision is outstanding.
    fn stream(&self, r: &mut Round, ticks: &mut Ticks) -> liquamod::Result<()> {
        let mut pool = ServePool::new(self.options.clone())?;
        // Per live session: (plan index, decisions served, submit instant).
        let mut live: BTreeMap<u64, (usize, usize, Instant)> = BTreeMap::new();
        let mut arrived = 0;
        while arrived < self.sessions.len() || pool.pending_total() > 0 {
            if arrived < self.sessions.len() {
                let plan = &self.sessions[arrived];
                let id = pool.open(plan.arch)?;
                pool.submit_level(id, plan.levels[0], PHASE_SECONDS)?;
                live.insert(id, (arrived, 0, Instant::now()));
                arrived += 1;
            }
            let budget = pool.effective_budget().total_scale;
            let ready = pool.len();
            let batch = pool.drain_batch()?;
            let returned = Instant::now();
            ticks.tick();

            let shares: f64 = batch.decisions.iter().map(|d| d.flow_scale).sum();
            if batch.decisions.len() != ready || (shares - budget).abs() > 1e-9 * budget {
                r.fail(format!(
                    "batch {}: {} decisions for {ready} ready sessions, shares sum to {shares} \
                     against a budget of {budget}",
                    batch.index,
                    batch.decisions.len()
                ));
            }
            for event in &batch.events {
                if event.kind == DegradedKind::SessionEvicted {
                    r.fail(format!("session evicted: {}", event.detail));
                    *r.extra.entry("serve.evictions").or_default() += 1.0;
                }
            }
            r.fingerprint.count("serve.batches", 1);
            r.fingerprint
                .count("serve.events", batch.events.len() as u64);
            for d in &batch.decisions {
                let values = [
                    d.flow_scale,
                    d.peak_gradient_k,
                    d.peak_temperature_k,
                    d.min_width_um,
                    d.max_width_um,
                ];
                r.check_finite("decision", &values);
                r.fingerprint.values(&values);
                r.fingerprint.count("serve.decisions", 1);
                r.fingerprint
                    .count("optimizer.evaluations", d.evaluations as u64);
                r.fingerprint
                    .count("epoch.adopted", d.epochs_adopted as u64);
                r.fingerprint
                    .count("epoch.total", d.outcome.epochs.len() as u64);
                r.gradients.push(d.peak_gradient_k);
                if d.segment == 0 {
                    *r.extra.entry("serve.cold_decisions").or_default() += 1.0;
                }
                let Some(entry) = live.get_mut(&d.session_id) else {
                    r.fail(format!("decision for unknown session {}", d.session_id));
                    continue;
                };
                r.latencies.push((returned - entry.2).as_secs_f64());
                r.ops += 1;
                entry.1 += 1;
                let (index, served) = (entry.0, entry.1);
                let plan = &self.sessions[index];
                if served == plan.restore_after {
                    self.round_trip(&mut pool, d.session_id, r)?;
                }
                if served < plan.levels.len() {
                    pool.submit_level(d.session_id, plan.levels[served], PHASE_SECONDS)?;
                    live.insert(d.session_id, (index, served, Instant::now()));
                } else {
                    pool.close(d.session_id)?;
                    live.remove(&d.session_id);
                }
            }
        }
        Ok(())
    }

    /// Snapshot → golden JSON → parse → close → restore of one live session,
    /// checking that the parsed document re-serializes byte-identically.
    fn round_trip(&self, pool: &mut ServePool, id: u64, r: &mut Round) -> liquamod::Result<()> {
        let doc = r.layers.time("serve.snapshot", || {
            pool.snapshot(id).map(|s| s.to_golden_json())
        })?;
        r.layers.add("serve.snapshot_bytes", doc.len() as f64);
        r.fingerprint
            .count("serve.snapshot_bytes", doc.len() as u64);
        let parsed = r.layers.time("serve.restore", || {
            let parsed = SessionSnapshot::from_golden_json(&doc)?;
            pool.close(id)?;
            pool.restore(&parsed)?;
            Ok::<_, liquamod::CoreError>(parsed)
        })?;
        if parsed.to_golden_json() != doc {
            r.fail(format!(
                "session {id}: snapshot document does not re-serialize identically"
            ));
        }
        Ok(())
    }
}

impl Workload for ServeStream {
    fn round(&self, ticks: &mut Ticks) -> Round {
        let mut r = Round {
            attempted: self.planned_decisions(),
            ..Round::default()
        };
        let started = Instant::now();
        if let Err(e) = self.stream(&mut r, ticks) {
            r.fail(format!("stream aborted: {e}"));
        }
        r.wall_s = ticks.wall_since(started);
        r
    }

    fn kernels(&self, out: &mut BTreeMap<&'static str, f64>) {
        mpsoc_kernels(
            &self.options.config,
            self.sessions[0].arch,
            Some("thermal_model.solve_us.mpsoc48"),
            out,
        );
    }

    fn aliases(&self) -> [&'static str; 4] {
        [
            "decisions_per_s",
            "decision_p50_s",
            "decision_p90_s",
            "serve_gradient_k",
        ]
    }
}
