//! Structured results of the end-to-end analysis.

use crate::context::ResourceId;
use crate::error::StageKind;
use crate::fixed_point::ConvergenceTrace;
use gmf_model::{FlowId, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The response-time bound contributed by one resource of a flow's route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HopBound {
    /// The resource (link or switch-ingress stage).
    pub resource: ResourceId,
    /// Which of the three analyses produced the bound.
    pub stage: StageKind,
    /// The response-time bound on this resource.
    pub response: Time,
}

impl StageKind {
    /// Serde-friendly tag (StageKind itself lives in `error.rs` and is not
    /// serializable there to keep error types lean).
    fn as_str(self) -> &'static str {
        match self {
            StageKind::FirstHop => "first_hop",
            StageKind::SwitchIngress => "switch_ingress",
            StageKind::EgressLink => "egress_link",
        }
    }
}

impl Serialize for StageKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for StageKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        match s.as_str() {
            "first_hop" => Ok(StageKind::FirstHop),
            "switch_ingress" => Ok(StageKind::SwitchIngress),
            "egress_link" => Ok(StageKind::EgressLink),
            other => Err(serde::de::Error::custom(format!(
                "unknown stage kind {other}"
            ))),
        }
    }
}

/// End-to-end bound of one frame of one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameBound {
    /// The flow.
    pub flow: FlowId,
    /// The frame index within the flow's GMF cycle.
    pub frame: usize,
    /// The generalized jitter of the frame at the source (included in the
    /// bound, following Figure 6 which initialises `RSUM := GJ_i^k`).
    pub source_jitter: Time,
    /// The end-to-end response-time bound, from arrival at the source until
    /// reception of every Ethernet frame at the destination.
    pub bound: Time,
    /// The frame's relative deadline.
    pub deadline: Time,
    /// Per-resource breakdown of the bound, in route order.
    pub hops: Vec<HopBound>,
}

impl FrameBound {
    /// `true` if the bound does not exceed the deadline.
    pub fn meets_deadline(&self) -> bool {
        self.bound <= self.deadline
    }

    /// Slack (deadline − bound); negative when the deadline is missed.
    pub fn slack(&self) -> Time {
        self.deadline - self.bound
    }

    /// Bound tightness of an observation: `observed / bound`.
    ///
    /// A sound analysis keeps every observed response at or below the
    /// bound, so the ratio lies in `[0, 1]`; a value above `1` is a bound
    /// violation.  Values near `1` mean the bound is tight (the workload
    /// actually reaches it), small values mean slack — the conformance
    /// harness (E13) tracks this per frame to watch bound slack over time.
    /// Returns `None` for a degenerate zero bound.
    // tidy-allow: float tightness is a dimensionless telemetry ratio, not a bound
    pub fn tightness(&self, observed: Time) -> Option<f64> {
        if self.bound.is_zero() {
            return None;
        }
        Some(observed / self.bound)
    }

    /// `true` if `observed` does not exceed the bound (the conformance
    /// harness's per-frame soundness check): an exact `<=`, since the
    /// analysis and the simulator work on the same integer ticks.
    pub fn dominates(&self, observed: Time) -> bool {
        observed <= self.bound
    }
}

/// Sanity helper used in tests and experiments: the sum of a frame's
/// per-hop responses plus its source jitter must equal its end-to-end
/// bound exactly.
pub fn hop_sum_matches(bound: &FrameBound) -> bool {
    let total: Time = bound.hops.iter().map(|h| h.response).sum();
    total + bound.source_jitter == bound.bound
}

/// All frame bounds of one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// The flow's name.
    pub name: String,
    /// Per-frame bounds (one entry per frame of the GMF cycle).
    pub frames: Vec<FrameBound>,
}

impl FlowReport {
    /// The largest end-to-end bound over all frames.
    pub fn worst_bound(&self) -> Option<Time> {
        self.frames.iter().map(|f| f.bound).max()
    }

    /// The smallest slack over all frames.
    pub fn worst_slack(&self) -> Option<Time> {
        self.frames.iter().map(|f| f.slack()).min()
    }

    /// `true` if every frame meets its deadline.
    pub fn meets_all_deadlines(&self) -> bool {
        self.frames.iter().all(|f| f.meets_deadline())
    }

    /// The bound of frame `k`, if the report covers it.
    pub fn frame_bound(&self, k: usize) -> Option<Time> {
        self.frames.get(k).map(|f| f.bound)
    }

    /// Bound tightness (`observed / bound`) of frame `k` for an observed
    /// response time; `None` if the report does not cover frame `k` (or
    /// its bound is degenerate zero).  See [`FrameBound::tightness`].
    // tidy-allow: float tightness is a dimensionless telemetry ratio, not a bound
    pub fn frame_tightness(&self, k: usize, observed: Time) -> Option<f64> {
        self.frames.get(k).and_then(|f| f.tightness(observed))
    }

    /// The largest tightness ratio over a set of per-frame observations
    /// (`(frame index, observed response)` pairs); `None` when no
    /// observation maps onto a frame of the report.
    pub fn worst_tightness(
        &self,
        observations: impl IntoIterator<Item = (usize, Time)>,
        // tidy-allow: float tightness is a dimensionless telemetry ratio, not a bound
    ) -> Option<f64> {
        observations
            .into_iter()
            .filter_map(|(k, observed)| self.frame_tightness(k, observed))
            .fold(None, |acc, ratio| {
                Some(acc.map_or(ratio, |a: f64| a.max(ratio))) // tidy-allow: float telemetry ratio max
            })
    }
}

/// The result of a holistic analysis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Per-flow results (may be partial if the analysis aborted because a
    /// resource was found to be overloaded).
    pub flows: Vec<FlowReport>,
    /// `true` if the holistic jitter iteration reached a fixed point.
    pub converged: bool,
    /// Number of holistic (outer) iterations performed.
    pub iterations: usize,
    /// `true` if the iteration converged and every frame of every flow
    /// meets its deadline.
    pub schedulable: bool,
    /// Why the flow set is not schedulable, when it is not.
    pub failure: Option<String>,
    /// Per-round residuals and step decisions of the fixed-point engine
    /// (one entry per outer iteration).
    pub trace: ConvergenceTrace,
}

impl AnalysisReport {
    /// Look up the report of a flow.
    pub fn flow(&self, id: FlowId) -> Option<&FlowReport> {
        self.flows.iter().find(|f| f.flow == id)
    }

    /// The largest end-to-end bound of any frame of any flow.
    pub fn worst_bound(&self) -> Option<Time> {
        self.flows.iter().filter_map(|f| f.worst_bound()).max()
    }

    /// Total number of (flow, frame) bounds contained in the report.
    pub fn n_frame_bounds(&self) -> usize {
        self.flows.iter().map(|f| f.frames.len()).sum()
    }

    /// Ids of the flows with at least one frame missing its deadline, in
    /// report (flow-id) order.  Empty both for schedulable sets and for
    /// analyses that aborted (overload / divergence) before bounding the
    /// offending flow.
    pub fn missed_flows(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| !f.meets_all_deadlines())
            .map(|f| f.flow)
            .collect()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedulable: {} (converged: {}, iterations: {})",
            self.schedulable, self.converged, self.iterations
        )?;
        if let Some(reason) = &self.failure {
            writeln!(f, "failure: {reason}")?;
        }
        for flow in &self.flows {
            let worst = flow
                .worst_bound()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string());
            let slack = flow
                .worst_slack()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                f,
                "  {:<24} worst bound {:<14} worst slack {:<14} deadlines {}",
                flow.name,
                worst,
                slack,
                if flow.meets_all_deadlines() {
                    "met"
                } else {
                    "MISSED"
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_net::NodeId;

    fn frame(bound_ms: f64, deadline_ms: f64) -> FrameBound {
        FrameBound {
            flow: FlowId(0),
            frame: 0,
            source_jitter: Time::from_millis(1.0),
            bound: Time::from_millis(bound_ms),
            deadline: Time::from_millis(deadline_ms),
            hops: vec![HopBound {
                resource: ResourceId::Link {
                    from: NodeId(0),
                    to: NodeId(4),
                },
                stage: StageKind::FirstHop,
                response: Time::from_millis(bound_ms),
            }],
        }
    }

    #[test]
    fn frame_bound_deadline_and_slack() {
        let ok = frame(40.0, 100.0);
        assert!(ok.meets_deadline());
        assert_eq!(ok.slack(), Time::from_millis(60.0));
        let miss = frame(120.0, 100.0);
        assert!(!miss.meets_deadline());
        assert!(miss.slack().is_negative());
    }

    #[test]
    fn tightness_is_observed_over_bound() {
        let f = frame(40.0, 100.0);
        assert_eq!(f.tightness(Time::from_millis(36.0)), Some(0.9));
        assert_eq!(f.tightness(Time::from_millis(40.0)), Some(1.0));
        // Above 1.0 is a violation; `dominates` draws the line.
        assert!(f.tightness(Time::from_millis(44.0)).unwrap() > 1.0);
        assert!(f.dominates(Time::from_millis(40.0)));
        assert!(!f.dominates(Time::from_millis(40.1)));
        // The check is exact: one tick above the bound is a violation.
        assert!(!f.dominates(f.bound + Time::from_ps(1)));
        // A degenerate zero bound yields no ratio instead of infinity.
        let mut zero = frame(0.0, 100.0);
        zero.bound = Time::ZERO;
        assert_eq!(zero.tightness(Time::from_millis(1.0)), None);
    }

    #[test]
    fn flow_report_tightness_accessors() {
        let report = FlowReport {
            flow: FlowId(0),
            name: "video".into(),
            frames: vec![frame(40.0, 100.0), frame(80.0, 100.0)],
        };
        assert_eq!(report.frame_bound(1), Some(Time::from_millis(80.0)));
        assert_eq!(report.frame_bound(2), None);
        assert_eq!(
            report.frame_tightness(0, Time::from_millis(20.0)),
            Some(0.5)
        );
        assert_eq!(report.frame_tightness(2, Time::from_millis(20.0)), None);
        // Worst over observations: frame 0 at 0.5, frame 1 at 0.75.
        let worst = report
            .worst_tightness([
                (0, Time::from_millis(20.0)),
                (1, Time::from_millis(60.0)),
                (7, Time::from_millis(999.0)), // out of range, ignored
            ])
            .unwrap();
        assert_eq!(worst, 0.75);
        assert_eq!(report.worst_tightness([(9, Time::from_millis(1.0))]), None);
        assert_eq!(report.worst_tightness([]), None);
    }

    #[test]
    fn flow_report_aggregates() {
        let report = FlowReport {
            flow: FlowId(0),
            name: "video".into(),
            frames: vec![frame(40.0, 100.0), frame(80.0, 100.0), frame(10.0, 100.0)],
        };
        assert_eq!(report.worst_bound(), Some(Time::from_millis(80.0)));
        assert_eq!(report.worst_slack().unwrap(), Time::from_millis(20.0));
        assert!(report.meets_all_deadlines());
        let empty = FlowReport {
            flow: FlowId(1),
            name: "x".into(),
            frames: vec![],
        };
        assert_eq!(empty.worst_bound(), None);
        assert!(empty.meets_all_deadlines());
    }

    #[test]
    fn analysis_report_lookup_and_display() {
        let report = AnalysisReport {
            flows: vec![FlowReport {
                flow: FlowId(0),
                name: "video".into(),
                frames: vec![frame(40.0, 100.0)],
            }],
            converged: true,
            iterations: 3,
            schedulable: true,
            failure: None,
            trace: ConvergenceTrace::default(),
        };
        assert!(report.flow(FlowId(0)).is_some());
        assert!(report.flow(FlowId(5)).is_none());
        assert_eq!(report.worst_bound(), Some(Time::from_millis(40.0)));
        assert_eq!(report.n_frame_bounds(), 1);
        assert!(report.missed_flows().is_empty());
        let mut missing = report.clone();
        missing.flows.push(FlowReport {
            flow: FlowId(3),
            name: "late".into(),
            frames: vec![frame(120.0, 100.0)],
        });
        assert_eq!(missing.missed_flows(), vec![FlowId(3)]);
        let text = report.to_string();
        assert!(text.contains("schedulable: true"));
        assert!(text.contains("video"));

        let failed = AnalysisReport {
            flows: vec![],
            converged: false,
            iterations: 100,
            schedulable: false,
            failure: Some("link(4,6) overloaded".into()),
            trace: ConvergenceTrace::default(),
        };
        assert!(failed.to_string().contains("overloaded"));
    }

    #[test]
    fn stage_kind_serde_roundtrip() {
        for kind in [
            StageKind::FirstHop,
            StageKind::SwitchIngress,
            StageKind::EgressLink,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: StageKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
        assert!(serde_json::from_str::<StageKind>("\"bogus\"").is_err());
    }
}
