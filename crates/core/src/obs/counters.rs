//! The named-counter registry and structured events.
//!
//! Counters are monotonic `u64`s keyed by `&'static str` names, recorded
//! thread-locally and merged additively by the deterministic unit join —
//! so a counter's final value is a pure function of the work performed,
//! identical at any worker count. The registered names (full semantics in
//! `docs/OBSERVABILITY.md`):
//!
//! | name | incremented by |
//! |---|---|
//! | `assembly.full_rebuilds` | symbolic CSR assembly builds (`AssemblyCache`) |
//! | `assembly.values_only_refreshes` | values-in-place refreshes (`AssemblyCache`) |
//! | `expstep.matrix_rebuilds` | condensed exponential-integrator matrix builds |
//! | `optimizer.evaluations` | optimizer objective evaluations (values and gradients) |
//! | `optimizer.adjoint_solves` | evaluations that also solved the adjoint for a gradient |
//! | `optimizer.forward_solves` | forward BVP solves of the optimizer (repeated points are served from the last two solves) |
//! | `optimizer.warm_start_hits` | optimizer solves that started from a warm point |
//! | `epoch.adopted` | modulation epochs whose candidate widths were adopted |
//! | `epoch.rejected` | modulation epochs that kept the incumbent widths |
//! | `fleet.segments` | (lane × stack × wavefront) segment tasks run |
//! | `fleet.dedup_hits` | segment-0 results reused across dedup-grouped lanes |
//! | `allocator.forecast_hits` | predictive allocations steered by an informative power forecast |
//! | `allocator.surrogate_refits` | sensitivity-surrogate slope refits from fed-back (share, gradient) pairs |
//! | `serve.decisions` | width decisions served by a pool batch |
//! | `obs.events` | structured events recorded (degraded-mode stream) |
//!
//! Events carry the run's *structured* occurrences — today the
//! `DegradedEvent` stream of the faults and serve layers — ordered by the
//! same deterministic merge as spans. Their content (label, detail, lane)
//! is bitwise-reproducible across runs and worker counts; only spans carry
//! wall-clock fields.

use super::{enabled, TLS};

/// Adds `delta` to the named counter on the current thread. Counter names
/// must be static strings from the registry above (new names belong in the
/// table and in `docs/OBSERVABILITY.md`). Near-zero cost when no session
/// is recording.
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        *t.borrow_mut().counters.entry(name).or_insert(0) += delta;
    });
}

/// Records a structured event on the current thread, tagged with the
/// thread's current lane. `label` should be a stable machine-readable kind
/// (e.g. a `DegradedKind::label()`); `detail` is free-form but must be
/// deterministic — derived from simulation state, never from the wall
/// clock.
pub fn event(label: impl Into<String>, detail: impl Into<String>) {
    if !enabled() {
        return;
    }
    let (label, detail) = (label.into(), detail.into());
    TLS.with(|t| {
        let mut b = t.borrow_mut();
        let lane = b.lane;
        b.events.push(ObsEvent {
            label,
            detail,
            lane,
        });
        *b.counters.entry("obs.events").or_insert(0) += 1;
    });
}

/// One structured event: a deterministic, ordered occurrence (not a timed
/// region — those are spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Stable machine-readable kind.
    pub label: String,
    /// Deterministic human-readable detail.
    pub detail: String,
    /// The lane the recording thread was tagged with, if any.
    pub lane: Option<u32>,
}
