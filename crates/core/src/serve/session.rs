//! One streaming modulation session: a stack admitted to the
//! [`ServePool`](crate::serve::ServePool), its queue of not-yet-served
//! workload phases, and the [`ResumeState`] thread that keeps its thermal
//! trajectory continuous across decisions — and, via [`SessionSnapshot`],
//! across process restarts.

use std::collections::VecDeque;

use liquamod_grid_sim::snapshot as snap;
use liquamod_grid_sim::GridSimError;

use crate::fleet::StackSurrogate;
use crate::mpsoc::{ArchSpec, MpsocTrace};
use crate::serve::metrics::SessionMetrics;
use crate::transient::ResumeState;
use crate::{CoreError, Result};

/// Stable numeric code for an architecture in snapshot documents.
fn arch_code(arch: ArchSpec) -> f64 {
    match arch {
        ArchSpec::Arch1 => 0.0,
        ArchSpec::Arch2 => 1.0,
        ArchSpec::Arch3 => 2.0,
    }
}

/// Inverse of [`arch_code`].
fn arch_from_code(code: f64) -> Result<ArchSpec> {
    if code == 0.0 {
        Ok(ArchSpec::Arch1)
    } else if code == 1.0 {
        Ok(ArchSpec::Arch2)
    } else if code == 2.0 {
        Ok(ArchSpec::Arch3)
    } else {
        Err(CoreError::GridSim(GridSimError::InvalidSnapshot {
            what: format!("unknown architecture code {code}"),
        }))
    }
}

/// A live streaming session inside the pool.
#[derive(Debug, Clone)]
pub(crate) struct ServeSession {
    id: u64,
    arch: ArchSpec,
    queued: VecDeque<MpsocTrace>,
    resume: Option<ResumeState>,
    segments_done: usize,
    clock_seconds: f64,
    metrics: SessionMetrics,
    /// The session's gradient-vs-flow-share sensitivity surrogate, refit
    /// from every served decision — the trace-unknown half of the pool's
    /// predictive allocation.
    predictor: StackSurrogate,
    /// Total die power of the last segment served, watts — the
    /// denominator of the partial-lookahead power forecast (`None` before
    /// the first decision).
    last_power_w: Option<f64>,
}

impl ServeSession {
    /// A fresh session on `arch` with an empty queue and no history.
    pub(crate) fn new(id: u64, arch: ArchSpec) -> Self {
        Self {
            id,
            arch,
            queued: VecDeque::new(),
            resume: None,
            segments_done: 0,
            clock_seconds: 0.0,
            metrics: SessionMetrics::default(),
            predictor: StackSurrogate::default(),
            last_power_w: None,
        }
    }

    /// Rebuilds a session from a restored snapshot (queue starts empty —
    /// phases submitted but not served when the snapshot was taken were
    /// never acknowledged, so the client re-submits them). The predictor
    /// state rides along, so a surrogate fit interrupted by a restart
    /// continues exactly where it stopped.
    pub(crate) fn from_snapshot(snapshot: &SessionSnapshot) -> Self {
        Self {
            id: snapshot.session_id,
            arch: snapshot.arch,
            queued: VecDeque::new(),
            resume: snapshot.resume.clone(),
            segments_done: snapshot.segments_done,
            clock_seconds: snapshot.clock_seconds,
            metrics: SessionMetrics::default(),
            predictor: snapshot.predictor,
            last_power_w: snapshot.last_power_w,
        }
    }

    #[cfg(test)]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn arch(&self) -> ArchSpec {
        self.arch
    }

    /// Report label, e.g. `session 3 (arch1)`.
    pub(crate) fn label(&self) -> String {
        format!("session {} ({})", self.id, self.arch.label())
    }

    pub(crate) fn queued_len(&self) -> usize {
        self.queued.len()
    }

    pub(crate) fn segments_done(&self) -> usize {
        self.segments_done
    }

    pub(crate) fn clock_seconds(&self) -> f64 {
        self.clock_seconds
    }

    pub(crate) fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// The gradient feedback the allocator sees: the measured inter-layer
    /// gradient at the last decision (0 before the first segment runs —
    /// a cold stack claims no more than the valve minimum).
    pub(crate) fn last_gradient_k(&self) -> f64 {
        self.resume.as_ref().map_or(0.0, |r| r.last_gradient_k)
    }

    pub(crate) fn resume(&self) -> Option<&ResumeState> {
        self.resume.as_ref()
    }

    pub(crate) fn enqueue(&mut self, trace: MpsocTrace) {
        self.queued.push_back(trace);
    }

    pub(crate) fn predictor(&self) -> &StackSurrogate {
        &self.predictor
    }

    /// The session's partial-lookahead power forecast: the front-of-queue
    /// (next to be served) segment's total die power over the last served
    /// segment's. 1.0 — no information — when either side is unknown
    /// (empty queue, no decision yet) or degenerate; the submitted-but-
    /// undrained phase is the *only* lookahead a streaming session has.
    pub(crate) fn forecast_power_ratio(&self) -> f64 {
        let (Some(next), Some(last)) = (self.queued.front(), self.last_power_w) else {
            return 1.0;
        };
        let next_w = next.phases()[0].load.total_power().as_watts();
        if next_w.is_finite() && last.is_finite() && next_w > 0.0 && last > 0.0 {
            next_w / last
        } else {
            1.0
        }
    }

    /// Feeds one served decision back into the predictor: the flow share
    /// it ran at, the gradient it measured, and the segment's total die
    /// power (the denominator of the next forecast).
    pub(crate) fn observe_prediction(&mut self, share: f64, gradient_k: f64, power_w: f64) {
        if self.predictor.observe(share, gradient_k) {
            crate::obs::add("allocator.surrogate_refits", 1);
        }
        if power_w.is_finite() && power_w > 0.0 {
            self.last_power_w = Some(power_w);
        }
    }

    pub(crate) fn pop_trace(&mut self) -> Option<MpsocTrace> {
        self.queued.pop_front()
    }

    /// Folds one served segment back into the session: the new resume
    /// state, the clock advance, and the decision metrics.
    pub(crate) fn apply_decision(
        &mut self,
        resume: ResumeState,
        duration_seconds: f64,
        latency_seconds: f64,
        epochs: usize,
        evaluations: usize,
        degraded: usize,
    ) {
        self.resume = Some(resume);
        self.segments_done += 1;
        self.clock_seconds += duration_seconds;
        self.metrics
            .record_decision(latency_seconds, epochs, evaluations, degraded);
    }

    /// The restartable state of this session right now.
    pub(crate) fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session_id: self.id,
            arch: self.arch,
            segments_done: self.segments_done,
            clock_seconds: self.clock_seconds,
            predictor: self.predictor,
            last_power_w: self.last_power_w,
            resume: self.resume.clone(),
        }
    }
}

/// Everything needed to restore an in-flight session after a process
/// restart: identity, schedule position, and the controller's
/// [`ResumeState`]. Serializes in the golden-fixture numeric format
/// ([`liquamod_grid_sim::snapshot`]), so a snapshot written before a
/// restart parses back **bitwise** and the restored session continues the
/// exact trajectory of the uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session's pool identifier.
    pub session_id: u64,
    /// The architecture the session runs.
    pub arch: ArchSpec,
    /// Segments (width decisions) already served.
    pub segments_done: usize,
    /// The session clock: total workload seconds served.
    pub clock_seconds: f64,
    /// The predictive allocator's per-session sensitivity surrogate —
    /// carried so a fit in progress survives the restart (schema v2).
    pub predictor: StackSurrogate,
    /// Total die power of the last served segment, watts (schema v2).
    pub last_power_w: Option<f64>,
    /// The controller hand-over state (`None` before the first segment).
    pub resume: Option<ResumeState>,
}

impl SessionSnapshot {
    /// Serializes the snapshot as one flat golden-format document. The
    /// session header uses keys disjoint from [`ResumeState::to_golden_json`]
    /// (whose body is spliced in verbatim behind `resume_present`), so both
    /// layers parse from the same document.
    #[must_use]
    pub fn to_golden_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"serve_schema_version\": 2,\n");
        snap::push_scalar(&mut out, "session_id", self.session_id as f64, false);
        snap::push_scalar(&mut out, "arch_code", arch_code(self.arch), false);
        snap::push_scalar(&mut out, "segments_done", self.segments_done as f64, false);
        snap::push_scalar(&mut out, "clock_seconds", self.clock_seconds, false);
        snap::push_scalar(
            &mut out,
            "predictor_slope_k_per_scale",
            self.predictor.slope_k_per_scale,
            false,
        );
        snap::push_scalar(
            &mut out,
            "predictor_share",
            self.predictor.last_share,
            false,
        );
        snap::push_scalar(
            &mut out,
            "predictor_gradient_k",
            self.predictor.last_gradient_k,
            false,
        );
        snap::push_scalar(
            &mut out,
            "predictor_observed",
            if self.predictor.observed { 1.0 } else { 0.0 },
            false,
        );
        snap::push_scalar(
            &mut out,
            "last_power_present",
            if self.last_power_w.is_some() {
                1.0
            } else {
                0.0
            },
            false,
        );
        snap::push_scalar(
            &mut out,
            "last_power_w",
            self.last_power_w.unwrap_or(0.0),
            false,
        );
        match &self.resume {
            None => {
                snap::push_scalar(&mut out, "resume_present", 0.0, true);
            }
            Some(resume) => {
                snap::push_scalar(&mut out, "resume_present", 1.0, false);
                let body = resume.to_golden_json();
                let body = body
                    .strip_prefix("{\n")
                    .and_then(|b| b.strip_suffix("}\n"))
                    .expect("ResumeState::to_golden_json emits a braced document");
                out.push_str(body);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Checks the values no live session can hold: a non-finite gradient,
    /// predictor field or power, a negative or non-finite clock, or a
    /// thermal state entry that is not a finite positive absolute
    /// temperature. One such value would reach the pool's budget
    /// allocation: a non-finite one fails every later batch, a
    /// non-positive one is served as a huge gradient that pulls the budget
    /// away from the healthy sessions.
    ///
    /// # Errors
    ///
    /// [`CoreError::GridSim`] with [`GridSimError::InvalidSnapshot`] naming
    /// an offending field.
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid = |what: String| CoreError::GridSim(GridSimError::InvalidSnapshot { what });
        if !(self.clock_seconds.is_finite() && self.clock_seconds >= 0.0) {
            return Err(invalid(format!(
                "clock_seconds {} is not a finite non-negative time",
                self.clock_seconds
            )));
        }
        let mut scalars = vec![
            (
                "predictor_slope_k_per_scale",
                self.predictor.slope_k_per_scale,
            ),
            ("predictor_share", self.predictor.last_share),
            ("predictor_gradient_k", self.predictor.last_gradient_k),
        ];
        scalars.extend(self.last_power_w.map(|w| ("last_power_w", w)));
        if let Some(resume) = &self.resume {
            scalars.push(("last_gradient_k", resume.last_gradient_k));
            if let Some(at) = resume
                .state
                .iter()
                .position(|t| !(t.is_finite() && *t > 0.0))
            {
                return Err(invalid(format!(
                    "state[{at}] = {} K is not a finite positive absolute temperature",
                    resume.state[at]
                )));
            }
        }
        match scalars.iter().find(|(_, v)| !v.is_finite()) {
            Some((key, v)) => Err(invalid(format!("{key} = {v} is not finite"))),
            None => Ok(()),
        }
    }

    /// Parses a document written by [`SessionSnapshot::to_golden_json`],
    /// bitwise.
    ///
    /// # Errors
    ///
    /// [`CoreError::GridSim`] with [`GridSimError::InvalidSnapshot`] on a
    /// missing key, an unknown schema version or architecture code, a
    /// malformed number, a non-finite gradient, predictor field or power,
    /// a thermal state entry that is not a finite positive temperature, or
    /// a negative or non-finite clock.
    pub fn from_golden_json(json: &str) -> Result<Self> {
        let invalid = |what: String| CoreError::GridSim(GridSimError::InvalidSnapshot { what });
        let version = snap::parse_scalar(json, "serve_schema_version")?;
        if version != 1.0 && version != 2.0 {
            return Err(invalid(format!(
                "unsupported serve snapshot schema version {version}"
            )));
        }
        // Pre-predictive (v1) documents restore with an uninformative
        // predictor — the state they were written without.
        let (predictor, last_power_w) = if version == 2.0 {
            let observed = snap::parse_scalar(json, "predictor_observed")?;
            if observed != 0.0 && observed != 1.0 {
                return Err(invalid(format!(
                    "predictor_observed must be 0 or 1, got {observed}"
                )));
            }
            let power_present = snap::parse_scalar(json, "last_power_present")?;
            if power_present != 0.0 && power_present != 1.0 {
                return Err(invalid(format!(
                    "last_power_present must be 0 or 1, got {power_present}"
                )));
            }
            (
                StackSurrogate {
                    slope_k_per_scale: snap::parse_scalar(json, "predictor_slope_k_per_scale")?,
                    last_share: snap::parse_scalar(json, "predictor_share")?,
                    last_gradient_k: snap::parse_scalar(json, "predictor_gradient_k")?,
                    observed: observed == 1.0,
                },
                (power_present == 1.0)
                    .then(|| snap::parse_scalar(json, "last_power_w"))
                    .transpose()?,
            )
        } else {
            (StackSurrogate::default(), None)
        };
        let id = snap::parse_scalar(json, "session_id")?;
        if !(id.is_finite() && id >= 0.0 && id.fract() == 0.0) {
            return Err(invalid(format!(
                "session_id {id} is not a non-negative integer"
            )));
        }
        let segments = snap::parse_scalar(json, "segments_done")?;
        if !(segments.is_finite() && segments >= 0.0 && segments.fract() == 0.0) {
            return Err(invalid(format!(
                "segments_done {segments} is not a non-negative integer"
            )));
        }
        let present = snap::parse_scalar(json, "resume_present")?;
        let resume = if present == 0.0 {
            None
        } else if present == 1.0 {
            Some(ResumeState::from_golden_json(json)?)
        } else {
            return Err(invalid(format!(
                "resume_present must be 0 or 1, got {present}"
            )));
        };
        let snapshot = Self {
            session_id: id as u64,
            arch: arch_from_code(snap::parse_scalar(json, "arch_code")?)?,
            segments_done: segments as usize,
            clock_seconds: snap::parse_scalar(json, "clock_seconds")?,
            predictor,
            last_power_w,
            resume,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_thermal_model::WidthProfile;
    use liquamod_units::Length;

    fn sample_resume() -> ResumeState {
        ResumeState {
            // Absolute temperatures: a session snapshot rejects entries at
            // or below 0 K, so the sign-of-zero round trip is pinned on
            // `ResumeState` alone (tests/integration_serve.rs).
            state: vec![300.15, 301.0 + 1e-13, f64::MIN_POSITIVE, 2e-3 / 3.0],
            widths: vec![
                vec![WidthProfile::Uniform(Length::from_micrometers(75.0))],
                vec![WidthProfile::piecewise_linear(vec![
                    Length::from_micrometers(50.0),
                    Length::from_micrometers(100.0),
                ])],
            ],
            warm: None,
            last_gradient_k: 4.25,
        }
    }

    fn sample_predictor() -> StackSurrogate {
        StackSurrogate {
            slope_k_per_scale: -7.25 + 1e-13,
            last_share: 1.0 / 3.0,
            last_gradient_k: 4.25,
            observed: true,
        }
    }

    #[test]
    fn snapshot_without_resume_round_trips() {
        let snap = SessionSnapshot {
            session_id: 7,
            arch: ArchSpec::Arch2,
            segments_done: 0,
            clock_seconds: 0.0,
            predictor: StackSurrogate::default(),
            last_power_w: None,
            resume: None,
        };
        let back = SessionSnapshot::from_golden_json(&snap.to_golden_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_with_resume_round_trips_bitwise() {
        let snap = SessionSnapshot {
            session_id: 3,
            arch: ArchSpec::Arch1,
            segments_done: 5,
            clock_seconds: 5.0 * 0.032,
            predictor: sample_predictor(),
            last_power_w: Some(123.456789 + 1e-10),
            resume: Some(sample_resume()),
        };
        let doc = snap.to_golden_json();
        let back = SessionSnapshot::from_golden_json(&doc).unwrap();
        assert_eq!(back.session_id, 3);
        assert_eq!(back.arch, ArchSpec::Arch1);
        assert_eq!(back.segments_done, 5);
        assert_eq!(back.clock_seconds.to_bits(), snap.clock_seconds.to_bits());
        // Mid-fit predictor state survives the document bitwise: the
        // restored session continues the surrogate fit exactly.
        assert_eq!(
            back.predictor.slope_k_per_scale.to_bits(),
            snap.predictor.slope_k_per_scale.to_bits()
        );
        assert_eq!(
            back.predictor.last_share.to_bits(),
            snap.predictor.last_share.to_bits()
        );
        assert_eq!(
            back.predictor.last_gradient_k.to_bits(),
            snap.predictor.last_gradient_k.to_bits()
        );
        assert!(back.predictor.observed);
        assert_eq!(
            back.last_power_w.unwrap().to_bits(),
            snap.last_power_w.unwrap().to_bits()
        );
        let (a, b) = (back.resume.unwrap(), snap.resume.unwrap());
        assert_eq!(a.last_gradient_k.to_bits(), b.last_gradient_k.to_bits());
        assert_eq!(a.state.len(), b.state.len());
        for (x, y) in a.state.iter().zip(&b.state) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.widths, b.widths);
        assert_eq!(a.warm, b.warm);
    }

    #[test]
    fn v1_documents_restore_with_a_cold_predictor() {
        let doc = "{\n  \"serve_schema_version\": 1,\n  \"session_id\": 4e0,\n  \"arch_code\": 2e0,\n  \"segments_done\": 3e0,\n  \"clock_seconds\": 9.6e-2,\n  \"resume_present\": 0e0\n}\n";
        let back = SessionSnapshot::from_golden_json(doc).unwrap();
        assert_eq!(back.session_id, 4);
        assert_eq!(back.predictor, StackSurrogate::default());
        assert_eq!(back.last_power_w, None);
    }

    #[test]
    fn malformed_snapshots_are_typed_errors() {
        for doc in [
            "{\n}\n",
            "{\n  \"serve_schema_version\": 9,\n  \"session_id\": 0e0\n}\n",
            // v2 without the predictor keys it declares.
            "{\n  \"serve_schema_version\": 2,\n  \"session_id\": 0e0\n}\n",
            "{\n  \"serve_schema_version\": 1,\n  \"session_id\": -1e0,\n  \"arch_code\": 0e0,\n  \"segments_done\": 0e0,\n  \"clock_seconds\": 0e0,\n  \"resume_present\": 0e0\n}\n",
            "{\n  \"serve_schema_version\": 1,\n  \"session_id\": 1e0,\n  \"arch_code\": 9e0,\n  \"segments_done\": 0e0,\n  \"clock_seconds\": 0e0,\n  \"resume_present\": 0e0\n}\n",
            "{\n  \"serve_schema_version\": 1,\n  \"session_id\": 1e0,\n  \"arch_code\": 0e0,\n  \"segments_done\": 0e0,\n  \"clock_seconds\": 0e0,\n  \"resume_present\": 2e0\n}\n",
        ] {
            assert!(
                matches!(
                    SessionSnapshot::from_golden_json(doc),
                    Err(CoreError::GridSim(GridSimError::InvalidSnapshot { .. }))
                ),
                "doc should be rejected: {doc}"
            );
        }
    }

    #[test]
    fn non_finite_values_are_rejected_at_parse() {
        let good = SessionSnapshot {
            session_id: 3,
            arch: ArchSpec::Arch1,
            segments_done: 5,
            clock_seconds: 0.16,
            predictor: sample_predictor(),
            last_power_w: Some(120.0),
            resume: Some(sample_resume()),
        };
        good.validate().unwrap();
        let mut bad = Vec::new();
        for v in [f64::NAN, f64::INFINITY, -1.0] {
            bad.push(SessionSnapshot {
                clock_seconds: v,
                ..good.clone()
            });
        }
        for v in [f64::NAN, f64::NEG_INFINITY] {
            let mut s = good.clone();
            s.resume.as_mut().unwrap().last_gradient_k = v;
            bad.push(s);
            let mut s = good.clone();
            s.resume.as_mut().unwrap().state[2] = v;
            bad.push(s);
            for field in 0..3 {
                let mut s = good.clone();
                *[
                    &mut s.predictor.slope_k_per_scale,
                    &mut s.predictor.last_share,
                    &mut s.predictor.last_gradient_k,
                ][field] = v;
                bad.push(s);
            }
            bad.push(SessionSnapshot {
                last_power_w: Some(v),
                ..good.clone()
            });
        }
        // Finite, but at or below absolute zero.
        for v in [0.0, -1e5] {
            let mut s = good.clone();
            s.resume.as_mut().unwrap().state[2] = v;
            bad.push(s);
        }
        for snapshot in bad {
            let doc = snapshot.to_golden_json();
            assert!(
                matches!(
                    SessionSnapshot::from_golden_json(&doc),
                    Err(CoreError::GridSim(GridSimError::InvalidSnapshot { .. }))
                ),
                "doc should be rejected: {doc}"
            );
        }
    }

    #[test]
    fn session_lifecycle_tracks_queue_and_clock() {
        let mut s = ServeSession::new(1, ArchSpec::Arch3);
        assert_eq!(s.queued_len(), 0);
        assert_eq!(s.last_gradient_k(), 0.0);
        assert_eq!(s.forecast_power_ratio(), 1.0, "no history, no lookahead");
        s.apply_decision(sample_resume(), 0.032, 1e-3, 2, 20, 1);
        assert_eq!(s.segments_done(), 1);
        assert_eq!(s.clock_seconds(), 0.032);
        assert_eq!(s.last_gradient_k(), 4.25);
        assert_eq!(s.metrics().segments, 1);
        // Two decisions at different shares refit the predictor; the state
        // survives snapshot → restore.
        s.observe_prediction(1.0, 10.0, 50.0);
        s.observe_prediction(1.5, 6.0, 80.0);
        assert!(s.predictor().observed);
        assert!((s.predictor().slope_k_per_scale - (-8.0)).abs() < 1e-12);
        let restored = ServeSession::from_snapshot(&s.snapshot());
        assert_eq!(restored.id(), 1);
        assert_eq!(restored.arch(), ArchSpec::Arch3);
        assert_eq!(restored.segments_done(), 1);
        assert_eq!(restored.last_gradient_k(), 4.25);
        assert_eq!(restored.label(), "session 1 (arch3)");
        assert_eq!(restored.predictor(), s.predictor());
        assert_eq!(
            restored.forecast_power_ratio(),
            1.0,
            "restored queue is empty"
        );
    }
}
