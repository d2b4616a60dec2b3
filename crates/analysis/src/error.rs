//! Error types of the analysis crate.

use gmf_model::{FlowId, Time};
use gmf_net::NetError;
use std::fmt;

/// A reference to the resource a response-time computation was running on,
/// used in error messages and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// The first hop: the source node's output queue and its link.
    FirstHop,
    /// Switch ingress: from reception at a switch to enqueueing in the
    /// priority queue.
    SwitchIngress,
    /// Switch egress: from the priority queue to reception at the next node.
    EgressLink,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageKind::FirstHop => write!(f, "first hop"),
            StageKind::SwitchIngress => write!(f, "switch ingress"),
            StageKind::EgressLink => write!(f, "egress link"),
        }
    }
}

/// Errors raised by the response-time analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The long-run demand on a resource is at least its capacity, so the
    /// busy period is unbounded (paper conditions (20) and (34)).
    Overload {
        /// Which kind of stage detected the overload.
        stage: StageKind,
        /// The flow being analysed.
        flow: FlowId,
        /// The offending utilization (≥ 1).
        utilization: f64, // tidy-allow: float utilization is a reported dimensionless ratio, not a bound
        /// Human-readable resource description (e.g. `link(4,6)`).
        resource: String,
    },
    /// A fixed-point iteration exceeded the configured horizon without
    /// converging.
    HorizonExceeded {
        /// Which kind of stage was being computed.
        stage: StageKind,
        /// The flow being analysed.
        flow: FlowId,
        /// The horizon that was exceeded.
        horizon: Time,
        /// Human-readable resource description.
        resource: String,
    },
    /// A fixed-point iteration did not converge within the configured
    /// iteration budget (numerically pathological input).
    NoConvergence {
        /// Which kind of stage was being computed.
        stage: StageKind,
        /// The flow being analysed.
        flow: FlowId,
        /// The iteration limit that was reached.
        iterations: usize,
    },
    /// The holistic jitter iteration did not reach a fixed point within the
    /// configured number of outer iterations.
    HolisticNoConvergence {
        /// The iteration limit that was reached.
        iterations: usize,
    },
    /// A pre-admitted flow set handed to the admission controller failed
    /// verification: one of its shards is not schedulable as given.
    PreloadUnschedulable {
        /// The smallest member flow id of the failing shard.
        shard: FlowId,
        /// The first per-flow failure message of that shard's analysis.
        failure: String,
    },
    /// [`crate::admission::AdmissionController::rebase`] was asked to swap
    /// in a topology on which a retained flow's cached analysis would be
    /// invalid (a node or link on its route changed parameters).  Release
    /// the flow before rebasing.
    RebaseDirty {
        /// The first retained flow whose route touches changed hardware.
        flow: FlowId,
        /// What changed, human-readable.
        detail: String,
    },
    /// An inconsistency between the flow set and the topology.
    Net(NetError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Overload {
                stage,
                flow,
                utilization,
                resource,
            } => write!(
                f,
                "{stage} analysis of {flow}: {resource} is overloaded (utilization {utilization:.3} >= 1)"
            ),
            AnalysisError::HorizonExceeded {
                stage,
                flow,
                horizon,
                resource,
            } => write!(
                f,
                "{stage} analysis of {flow}: busy period on {resource} exceeded the horizon {horizon}"
            ),
            AnalysisError::NoConvergence {
                stage,
                flow,
                iterations,
            } => write!(
                f,
                "{stage} analysis of {flow}: no convergence after {iterations} iterations"
            ),
            AnalysisError::HolisticNoConvergence { iterations } => write!(
                f,
                "holistic jitter iteration did not converge after {iterations} iterations"
            ),
            AnalysisError::PreloadUnschedulable { shard, failure } => write!(
                f,
                "preloaded flow set is not schedulable: shard of flow {shard} fails ({failure})"
            ),
            AnalysisError::RebaseDirty { flow, detail } => write!(
                f,
                "cannot rebase: retained flow {flow} traverses changed hardware ({detail}); \
                 release it first"
            ),
            AnalysisError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<NetError> for AnalysisError {
    fn from(e: NetError) -> Self {
        AnalysisError::Net(e)
    }
}

impl AnalysisError {
    /// `true` if the error means "this flow set is not schedulable" (as
    /// opposed to a configuration/topology mistake).  The admission
    /// controller turns these into rejections instead of propagating them.
    pub fn is_unschedulable(&self) -> bool {
        matches!(
            self,
            AnalysisError::Overload { .. }
                | AnalysisError::HorizonExceeded { .. }
                | AnalysisError::HolisticNoConvergence { .. }
                | AnalysisError::PreloadUnschedulable { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_net::NodeId;

    #[test]
    fn display_and_classification() {
        let e = AnalysisError::Overload {
            stage: StageKind::EgressLink,
            flow: FlowId(2),
            utilization: 1.25,
            resource: "link(4,6)".into(),
        };
        assert!(e.to_string().contains("link(4,6)"));
        assert!(e.to_string().contains("1.25"));
        assert!(e.is_unschedulable());

        let e = AnalysisError::HorizonExceeded {
            stage: StageKind::FirstHop,
            flow: FlowId(0),
            horizon: Time::from_secs(10.0),
            resource: "link(0,4)".into(),
        };
        assert!(e.to_string().contains("horizon"));
        assert!(e.is_unschedulable());

        let e = AnalysisError::NoConvergence {
            stage: StageKind::SwitchIngress,
            flow: FlowId(1),
            iterations: 5,
        };
        assert!(e.to_string().contains("5 iterations"));
        assert!(!e.is_unschedulable());

        let e = AnalysisError::HolisticNoConvergence { iterations: 10 };
        assert!(e.is_unschedulable());

        let e: AnalysisError = NetError::UnknownNode(NodeId(3)).into();
        assert!(!e.is_unschedulable());
        assert!(e.to_string().contains("network error"));

        let e = AnalysisError::RebaseDirty {
            flow: FlowId(4),
            detail: "node2 changed interface count".into(),
        };
        assert!(!e.is_unschedulable());
        assert!(e.to_string().contains("rebase"));
        assert!(e.to_string().contains("node2"));
    }

    #[test]
    fn stage_kind_display() {
        assert_eq!(StageKind::FirstHop.to_string(), "first hop");
        assert_eq!(StageKind::SwitchIngress.to_string(), "switch ingress");
        assert_eq!(StageKind::EgressLink.to_string(), "egress link");
    }
}
