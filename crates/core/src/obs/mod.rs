//! `liquamod::obs` — the workspace-wide observability layer: hierarchical
//! spans, a named-counter registry, structured events and Perfetto-loadable
//! trace exports for the whole modulation pipeline.
//!
//! The batch and serving layers gate their numeric outputs **bitwise**
//! (parallel == serial at any worker count), so an observability layer that
//! perturbed results or ordered its records by thread interleaving would be
//! unusable here. This module is built around the same discipline as the
//! fan-out it instruments:
//!
//! * **Disabled by default, near-zero cost.** Every probe
//!   ([`span`]/[`lane_span`]/[`add`]/[`event`]) first reads one relaxed
//!   [`AtomicBool`]; with no [`ObsSession`] active that is the entire cost,
//!   and no thread-local state is touched.
//! * **Thread-local recording, deterministic merge.** Each thread records
//!   into its own buffer — no locks, no cross-thread contention on the hot
//!   path. `crate::sweep::parallel_map` captures each scheduling unit's
//!   records right after the unit finishes (`capture_unit`) and the join
//!   absorbs them **in item order** (`absorb_unit`) — the same
//!   index-merge that makes parallel results bitwise-equal to serial ones,
//!   so the span/counter/event *content* of a run is identical at any
//!   worker count (only wall-clock timestamps and worker ids differ; the
//!   deterministic JSONL export excludes exactly those fields).
//! * **One session at a time.** [`ObsSession::start`] holds a process-wide
//!   lock for the session's lifetime, so concurrently running tests
//!   serialize instead of interleaving their records.
//!
//! Data flow of one instrumented parallel run:
//!
//! ```text
//!   caller thread                    worker w (fresh per scope)
//!   ─────────────                    ──────────────────────────
//!   ObsSession::start ─ ENABLED=1
//!   span("fleet.run")
//!    span("fleet.wavefront")
//!     parallel_map ──────────────▶  unit i: spans/counters/events
//!                                    into worker TLS (lock-free)
//!                                   capture_unit() ─▶ UnitObs(i, w)
//!    join: sort by i ◀────────────  chunks [(i, result, UnitObs)]
//!    absorb_unit in item order
//!      (parents re-based onto the
//!       caller's open span stack)
//!   ObsSession::finish ─▶ ObsReport ─▶ chrome trace / JSONL / table
//! ```
//!
//! The counter registry and span taxonomy are documented in
//! `docs/OBSERVABILITY.md`; the exports live in [`ObsReport`].

mod counters;
mod metrics;
mod report;
mod span;
mod trace;

pub use counters::{add, event, ObsEvent};
pub use metrics::{LatencyHistogram, PoolMetrics, SessionMetrics};
pub use report::{json_escape, ObsReport, SpanRecord};
pub use span::{lane_span, span, SpanGuard};

use span::RawSpan;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The global recording gate every probe checks first. Only
/// [`ObsSession`] flips it; the relaxed load is the entire disabled-path
/// cost.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes observability sessions process-wide: `cargo test` runs tests
/// concurrently in one process, and two interleaved sessions would corrupt
/// each other's global gate. Held (not just taken) by [`ObsSession`].
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// `true` while an [`ObsSession`] is recording.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One thread's recording buffer. Workers are fresh threads per
/// [`std::thread::scope`] call, so a worker buffer never outlives its
/// scheduling units; the calling thread's buffer is cleared at session
/// start and drained at session finish.
#[derive(Default)]
pub(crate) struct LocalBuf {
    /// Closed and still-open spans, in open order.
    pub(crate) spans: Vec<RawSpan>,
    /// Indices into `spans` of the currently open span stack.
    pub(crate) open: Vec<usize>,
    /// Monotonic named counters.
    pub(crate) counters: BTreeMap<&'static str, u64>,
    /// Structured events, in record order.
    pub(crate) events: Vec<ObsEvent>,
    /// The lane nested spans/events inherit (set by [`lane_span`]).
    pub(crate) lane: Option<u32>,
}

thread_local! {
    pub(crate) static TLS: RefCell<LocalBuf> = RefCell::new(LocalBuf::default());
}

/// An active recording session. Starting one enables every probe in the
/// process; [`finish`](Self::finish) disables them again and returns the
/// collected [`ObsReport`]. Sessions serialize on a process-wide lock, and
/// dropping one without finishing still disables recording.
pub struct ObsSession {
    _guard: MutexGuard<'static, ()>,
    epoch: Instant,
}

impl ObsSession {
    /// Starts recording: takes the session lock (waiting for any other
    /// session to finish), clears the calling thread's buffer and enables
    /// every probe.
    #[must_use]
    pub fn start() -> Self {
        let guard = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // A previous session that overlapped other work may have left
        // records on this thread; the session owns a clean slate.
        TLS.with(|t| *t.borrow_mut() = LocalBuf::default());
        let epoch = Instant::now();
        ENABLED.store(true, Ordering::SeqCst);
        ObsSession {
            _guard: guard,
            epoch,
        }
    }

    /// Stops recording and resolves the calling thread's records — which,
    /// after the deterministic joins, hold the whole run — into a report.
    /// Span start times become nanosecond offsets from session start.
    #[must_use]
    pub fn finish(self) -> ObsReport {
        ENABLED.store(false, Ordering::SeqCst);
        let buf = TLS.with(|t| std::mem::take(&mut *t.borrow_mut()));
        report::resolve(buf, self.epoch)
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        // `finish` already stored false; storing it again is harmless, and
        // a session dropped *without* finishing must not leave the process
        // recording forever.
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// The records one scheduling unit produced on a worker thread, captured
/// by [`capture_unit`] and re-attached to the caller by [`absorb_unit`].
pub(crate) struct UnitObs {
    spans: Vec<RawSpan>,
    counters: BTreeMap<&'static str, u64>,
    events: Vec<ObsEvent>,
}

impl UnitObs {
    /// Stamps the worker id (1-based; 0 is the calling thread) onto every
    /// captured span. Purely cosmetic for the trace's thread lanes — the
    /// deterministic exports exclude it.
    pub(crate) fn tag_worker(&mut self, worker: u32) {
        for s in &mut self.spans {
            s.worker = worker;
        }
    }
}

/// Drains the calling (worker) thread's buffer into a [`UnitObs`], or
/// `None` when recording is disabled. Called between scheduling units, so
/// every span is closed and the open stack is empty.
pub(crate) fn capture_unit() -> Option<UnitObs> {
    if !enabled() {
        return None;
    }
    TLS.with(|t| {
        let mut b = t.borrow_mut();
        b.open.clear();
        Some(UnitObs {
            spans: std::mem::take(&mut b.spans),
            counters: std::mem::take(&mut b.counters),
            events: std::mem::take(&mut b.events),
        })
    })
}

/// Splices one unit's records into the calling thread's buffer: span
/// parents are re-based onto the caller's currently open span (so a unit
/// run on a worker nests exactly where a serial run would have put it),
/// counters merge additively and events append. Callers invoke this in
/// **item order** after the index-sorted join — that ordering is what makes
/// the merged record content independent of the worker count.
pub(crate) fn absorb_unit(unit: UnitObs) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut b = t.borrow_mut();
        let base = b.spans.len();
        let caller_parent = b.open.last().copied();
        let depth_offset = b.open.len() as u32;
        for mut s in unit.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => caller_parent,
            };
            s.depth += depth_offset;
            b.spans.push(s);
        }
        for (name, delta) in unit.counters {
            *b.counters.entry(name).or_insert(0) += delta;
        }
        b.events.extend(unit.events);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_are_no_ops() {
        assert!(!enabled());
        let _s = span("never.recorded");
        add("never.counted", 3);
        event("never", "happened");
        assert!(capture_unit().is_none());
        TLS.with(|t| {
            let b = t.borrow();
            assert!(b.spans.is_empty());
            assert!(b.counters.is_empty());
            assert!(b.events.is_empty());
        });
    }

    #[test]
    fn session_records_nested_spans_and_counters() {
        let session = ObsSession::start();
        {
            let _outer = span("outer");
            add("hits", 2);
            {
                let _inner = lane_span("inner", 7);
                add("hits", 1);
                event("ping", "detail");
            }
        }
        let report = session.finish();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].parent, None);
        assert_eq!(report.spans[0].depth, 0);
        assert_eq!(report.spans[1].name, "inner");
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.spans[1].depth, 1);
        assert_eq!(report.spans[1].lane, Some(7));
        assert_eq!(report.counter("hits"), 3);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].lane, Some(7));
        // The session disabled recording on finish.
        assert!(!enabled());
    }

    #[test]
    fn absorbed_units_nest_under_the_callers_open_span() {
        let session = ObsSession::start();
        let captured = {
            let _root = span("root");
            // Simulate a worker: record a unit on this thread, capture it,
            // then absorb it back under the open root span.
            let unit = {
                let _u = span("unit");
                add("units", 1);
                capture_unit().expect("session is recording")
            };
            // Capturing drained the worker-side records (including root —
            // this test shares one thread, a real worker has its own TLS),
            // so re-open the caller shape before absorbing.
            unit
        };
        // Fresh caller shape: one open parent span.
        let _parent = span("parent");
        absorb_unit(captured);
        drop(_parent);
        let report = session.finish();
        // capture_unit drained "root" into the unit, so the unit carries
        // [root, unit]; absorbed under "parent" they re-base onto it.
        let parent_idx = report
            .spans
            .iter()
            .position(|s| s.name == "parent")
            .expect("parent span recorded");
        let root = report.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.parent, Some(parent_idx));
        let unit = report.spans.iter().find(|s| s.name == "unit").unwrap();
        assert_eq!(report.spans[unit.parent.unwrap()].name, "root");
        assert_eq!(report.counter("units"), 1);
    }
}
