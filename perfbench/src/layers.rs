//! Outside-in layer timing: wall time and call counts of the public entry
//! points a workload drives, plus the span/counter analysis of a traced
//! round and the kernel-probe helper.

use std::collections::BTreeMap;
use std::time::Instant;

use liquamod::obs::ObsReport;

use crate::stats::{median, ratio};

/// Accumulated wall time and call count of one wrapped entry point.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Entry {
    total: f64,
    calls: u64,
}

/// Wall time and call counts of the library calls a workload makes, keyed
/// by layer name (`serve.snapshot`, `fleet.run`, …). Every workload times
/// its calls through this, traced or not; the cost is one `Instant::now`
/// pair per call, against calls that take milliseconds to seconds.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    entries: BTreeMap<&'static str, Entry>,
}

impl Layers {
    /// Runs `f`, charging its wall time and one call to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Charges `value` and one call to `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.entries.entry(name).or_default();
        e.total += value;
        e.calls += 1;
    }

    /// Total charged to `name` (0 when never charged).
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.entries.get(name).map_or(0.0, |e| e.total)
    }

    /// Mean per call of `name` (0 when never charged).
    #[must_use]
    pub fn mean(&self, name: &str) -> f64 {
        self.entries
            .get(name)
            .map_or(0.0, |e| ratio(e.total, e.calls as f64))
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (name, e) in &other.entries {
            let mine = self.entries.entry(name).or_default();
            mine.total += e.total;
            mine.calls += e.calls;
        }
    }
}

/// Span and counter totals of the traced rounds of one run.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Summed duration per span name, seconds.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Summed self time per span name, seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Span count per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Counter registry, summed over rounds.
    pub counters: BTreeMap<&'static str, u64>,
    /// Slowest / median child span per parent, for the two fan-out engines:
    /// (`serve.batch` → `serve.decision`) and
    /// (`fleet.wavefront` → `fleet.segment`).
    pub batch_stragglers: Vec<f64>,
    /// See [`SpanTotals::batch_stragglers`].
    pub wavefront_stragglers: Vec<f64>,
    /// Wall time during which at least one program span was open, seconds.
    pub covered_s: f64,
}

impl SpanTotals {
    /// Folds one traced round's report into the totals.
    pub fn absorb(&mut self, report: &ObsReport) {
        let self_ns = report.self_times_ns();
        let mut children: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut roots: Vec<(u64, u64)> = Vec::new();
        for (i, span) in report.spans.iter().enumerate() {
            let dur = span.dur_ns as f64 * 1e-9;
            *self.total_s.entry(span.name).or_default() += dur;
            *self.self_s.entry(span.name).or_default() += self_ns[i] as f64 * 1e-9;
            *self.count.entry(span.name).or_default() += 1;
            match span.parent {
                Some(p) => children.entry(p).or_default().push(dur),
                None => roots.push((span.start_ns, span.start_ns + span.dur_ns)),
            }
        }
        for (parent, durs) in children {
            let stragglers = match report.spans[parent].name {
                "serve.batch" => &mut self.batch_stragglers,
                "fleet.wavefront" => &mut self.wavefront_stragglers,
                _ => continue,
            };
            stragglers.push(ratio(
                durs.iter().copied().fold(0.0, f64::max),
                median(&durs),
            ));
        }
        for (name, value) in &report.counters {
            *self.counters.entry(name).or_default() += value;
        }
        self.covered_s += union_ns(roots) as f64 * 1e-9;
    }

    /// Summed duration of `name` spans, seconds.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time of `name` spans, seconds.
    #[must_use]
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Number of `name` spans.
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0) as f64
    }

    /// Value of counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Median wall time of `f`, microseconds, over repeated calls: at least
/// `min_reps` calls, then more until `budget_s` seconds have been spent or
/// 1000 calls made. The first (cold) call is discarded.
pub fn median_us<T>(min_reps: usize, budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < 1000 && start.elapsed().as_secs_f64() < budget_s)
    {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(0, 10), (2, 3)]), 10);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn layers_accumulate_and_merge() {
        let mut a = Layers::default();
        a.add("x", 1.0);
        a.add("x", 3.0);
        let mut b = Layers::default();
        b.merge(&a);
        assert_eq!(b.total("x"), 4.0);
        assert_eq!(b.mean("x"), 2.0);
        assert_eq!(b.mean("missing"), 0.0);
    }
}
