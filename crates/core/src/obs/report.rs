//! The collected result of an observability session and its exports:
//! deterministic JSONL, the counters JSON object for BENCH records, and
//! the self-time profile table. The Chrome trace export lives in
//! [`super::trace`].

use super::counters::ObsEvent;
use super::LocalBuf;
use crate::CsvTable;
use std::collections::BTreeMap;
use std::time::Instant;

/// One resolved span: the raw thread-local record with its start converted
/// to a nanosecond offset from session start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name from the taxonomy in `docs/OBSERVABILITY.md`.
    pub name: &'static str,
    /// The fleet lane (or serve session slot) the span belongs to, if any.
    pub lane: Option<u32>,
    /// Index of the enclosing span in [`ObsReport::spans`].
    pub parent: Option<usize>,
    /// Nesting depth under the session root (0 = top level).
    pub depth: u32,
    /// Open time, nanoseconds since session start. **Wall clock** — varies
    /// run to run; excluded from the deterministic exports.
    pub start_ns: u64,
    /// Duration in nanoseconds. **Wall clock** — excluded likewise.
    pub dur_ns: u64,
    /// Recording thread: 0 = calling thread, workers 1-based. Scheduling-
    /// dependent; excluded from the deterministic exports.
    pub worker: u32,
}

/// Everything one [`super::ObsSession`] recorded, in deterministic order:
/// spans in open order (the merged serial order, not thread order), events
/// in record order, counters sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Resolved spans; `parent` indexes into this vector.
    pub spans: Vec<SpanRecord>,
    /// Final counter values, sorted by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Structured events, in record order.
    pub events: Vec<ObsEvent>,
}

/// Resolves a drained session buffer into a report.
pub(crate) fn resolve(buf: LocalBuf, epoch: Instant) -> ObsReport {
    let spans = buf
        .spans
        .into_iter()
        .map(|s| SpanRecord {
            name: s.name,
            lane: s.lane,
            parent: s.parent,
            depth: s.depth,
            start_ns: s.start.saturating_duration_since(epoch).as_nanos() as u64,
            dur_ns: s.dur_ns,
            worker: s.worker,
        })
        .collect();
    ObsReport {
        spans,
        counters: buf.counters,
        events: buf.events,
    }
}

/// Minimal JSON string escaping: quotes, backslashes and control
/// characters. Shared by the obs exports and the bench records.
#[must_use]
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn opt_json(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

impl ObsReport {
    /// The final value of a named counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The counters as a single-line JSON object, keys sorted — the
    /// `counters` block of the BENCH record shared tail. `{}` when empty.
    #[must_use]
    pub fn counters_json(&self) -> String {
        let body = self
            .counters
            .iter()
            .map(|(name, value)| format!("\"{}\": {value}", json_escape(name)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }

    /// The deterministic JSONL event log: one line per span (name, depth,
    /// parent, lane — **no** wall-clock or worker fields), then one per
    /// event, then one per counter, keys sorted. Bitwise-reproducible
    /// across runs and worker counts for a deterministic workload.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"type\": \"span\", \"seq\": {seq}, \"name\": \"{}\", \"depth\": {}, \
                 \"parent\": {}, \"lane\": {}}}\n",
                json_escape(s.name),
                s.depth,
                opt_json(s.parent),
                opt_json(s.lane),
            ));
        }
        for (seq, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "{{\"type\": \"event\", \"seq\": {seq}, \"label\": \"{}\", \"detail\": \"{}\", \
                 \"lane\": {}}}\n",
                json_escape(&e.label),
                json_escape(&e.detail),
                opt_json(e.lane),
            ));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\": \"counter\", \"name\": \"{}\", \"value\": {value}}}\n",
                json_escape(name),
            ));
        }
        out
    }

    /// The Chrome trace-event JSON export (`chrome://tracing` /
    /// [Perfetto](https://ui.perfetto.dev)-loadable): one process per lane,
    /// one thread per worker, complete (`"X"`) events carrying
    /// depth/parent in `args`. See `docs/OBSERVABILITY.md` for the schema.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        super::trace::render(self)
    }

    /// Wall-clock self time of each span: its duration minus its direct
    /// children's durations, clamped at 0 (clock jitter can make children
    /// appear marginally longer than their parent).
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// The per-name self-time profile: spans aggregated by name (in order
    /// of first appearance) with call count, total and self wall time, and
    /// each name's share of the summed self time. Printed by the bench
    /// binary when tracing is on.
    #[must_use]
    pub fn self_time_table(&self) -> CsvTable {
        struct Row {
            count: u64,
            total_ns: u64,
            self_ns: u64,
        }
        let self_ns = self.self_times_ns();
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self_ns) {
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                Row {
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                }
            });
            row.count += 1;
            row.total_ns += s.dur_ns;
            row.self_ns += own;
        }
        let sum_self: u64 = self_ns.iter().sum();
        let mut table = CsvTable::new(vec!["span", "count", "total [ms]", "self [ms]", "self [%]"]);
        for name in order {
            let row = &rows[name];
            table.push_row(vec![
                name.to_string(),
                row.count.to_string(),
                format!("{:.3}", row.total_ns as f64 / 1e6),
                format!("{:.3}", row.self_ns as f64 / 1e6),
                format!(
                    "{:.1}",
                    if sum_self == 0 {
                        0.0
                    } else {
                        100.0 * row.self_ns as f64 / sum_self as f64
                    }
                ),
            ]);
        }
        table
    }

    /// A copy with every wall-clock field zeroed (span starts, durations,
    /// worker ids) — the form golden trace fixtures are checked in as, so
    /// their bytes are fully deterministic.
    #[must_use]
    pub fn zeroed(&self) -> ObsReport {
        let mut out = self.clone();
        for s in &mut out.spans {
            s.start_ns = 0;
            s.dur_ns = 0;
            s.worker = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsReport {
        let mut counters = BTreeMap::new();
        counters.insert("b.two", 2u64);
        counters.insert("a.one", 1u64);
        ObsReport {
            spans: vec![
                SpanRecord {
                    name: "root",
                    lane: None,
                    parent: None,
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 10_000_000,
                    worker: 0,
                },
                SpanRecord {
                    name: "child",
                    lane: Some(3),
                    parent: Some(0),
                    depth: 1,
                    start_ns: 2_000_000,
                    dur_ns: 6_000_000,
                    worker: 1,
                },
            ],
            counters,
            events: vec![ObsEvent {
                label: "kind".into(),
                detail: "what \"happened\"".into(),
                lane: Some(3),
            }],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let report = sample();
        assert_eq!(report.self_times_ns(), vec![4_000_000, 6_000_000]);
        let table = report.self_time_table();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn jsonl_is_wall_clock_free_and_escaped() {
        let report = sample();
        let jsonl = report.to_jsonl();
        assert!(!jsonl.contains("start"), "no wall fields: {jsonl}");
        assert!(!jsonl.contains("dur"), "no wall fields: {jsonl}");
        assert!(!jsonl.contains("worker"), "no scheduling fields: {jsonl}");
        assert!(jsonl.contains("\\\"happened\\\""), "escaped: {jsonl}");
        // Zeroing wall fields must not change the deterministic export.
        assert_eq!(jsonl, report.zeroed().to_jsonl());
        // Counters come sorted by name.
        let a = jsonl.find("a.one").unwrap();
        let b = jsonl.find("b.two").unwrap();
        assert!(a < b);
    }

    #[test]
    fn counters_json_is_sorted_single_line() {
        assert_eq!(sample().counters_json(), "{\"a.one\": 1, \"b.two\": 2}");
        let empty = ObsReport {
            spans: vec![],
            counters: BTreeMap::new(),
            events: vec![],
        };
        assert_eq!(empty.counters_json(), "{}");
    }
}
