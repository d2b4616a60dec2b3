//! # gmf-analysis
//!
//! The **schedulability analysis** of generalized multiframe traffic on
//! multihop networks of software-implemented Ethernet switches — the core
//! contribution of
//!
//! > B. Andersson, *"Schedulability Analysis of Generalized Multiframe
//! > Traffic on Multihop-Networks Comprising Software-Implemented
//! > Ethernet-Switches"*, 2008.
//!
//! The crate computes, for every frame of every flow, an upper bound on the
//! end-to-end response time (from arrival at the source until every
//! Ethernet frame of the packet has been received at the destination) and
//! compares it against the frame's deadline:
//!
//! * [`first_hop::first_hop_response`] — the source's work-conserving
//!   output queue and first link (paper eqs. 14–20);
//! * [`ingress::ingress_response`] — the switch routing task under
//!   round-robin stride scheduling (eqs. 21–27);
//! * [`egress::egress_response`] — the prioritized output queue, the send
//!   task and the link (eqs. 28–35);
//! * [`pipeline::analyze_frame`] — the end-to-end composition of Figure 6;
//! * [`analyze`] — the holistic jitter fixed point over the whole flow
//!   set, yielding an [`AnalysisReport`]; the iteration is the paper's
//!   plain Picard scheme in Jacobi rounds, one thread per run
//!   ([`fixed_point`]);
//! * [`admission::AdmissionController`] — the admission controller built on
//!   top of it, with one decision path: shard-scoped trials warm-started
//!   from the last converged jitters, byte-identical to a cold analysis of
//!   the trial set; independent lanes and shard preloads are where the
//!   crate runs in parallel;
//! * [`resilience::SurvivabilityAnalysis`] — the single-failure
//!   survivability sweep built on the warm admission plane;
//! * [`baseline`] — the sporadic-collapse and utilization-only baselines
//!   used for comparison experiments;
//! * [`reference::analyze_reference`] — the deliberately simple keyed
//!   Picard oracle the dense-index production engine is property-tested
//!   against.
//!
//! ```
//! use gmf_analysis::prelude::*;
//! use gmf_model::prelude::*;
//! use gmf_net::prelude::*;
//!
//! // The paper's example: Figure 3 MPEG video over the Figure 2 route.
//! let (topology, net) = paper_figure1();
//! let mut flows = FlowSet::new();
//! let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
//! let route = shortest_path(&topology, net.hosts[0], net.hosts[3]).unwrap();
//! flows.add(video, route, Priority(6));
//!
//! let report = analyze(&topology, &flows, &AnalysisConfig::paper()).unwrap();
//! assert!(report.schedulable);
//! println!("{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod admission;
pub mod baseline;
pub mod busy_period;
pub mod config;
pub mod context;
pub(crate) mod dense;
pub mod deps;
pub mod egress;
pub mod error;
pub mod first_hop;
pub mod fixed_point;
pub(crate) mod index;
pub mod ingress;
pub(crate) mod kernel;
pub mod pipeline;
pub mod reference;
pub mod report;
pub mod resilience;
pub mod stage;

pub use admission::{
    AdmissionController, AdmissionDecision, AdmissionRequest, AdmissionVictim, DecisionCost,
    PreloadStats,
};
pub use baseline::{
    analyze_sporadic_baseline, sporadic_collapse, utilization_check, UtilizationCheck,
};
pub use config::AnalysisConfig;
pub use context::{AnalysisContext, JitterMap, ResourceId};
pub use deps::{DependencyGraph, ShardId};
pub use egress::egress_response;
pub use error::{AnalysisError, StageKind};
pub use first_hop::first_hop_response;
pub use fixed_point::{analyze, iterate_from, ConvergenceTrace, FixedPointRun, RoundTrace};
pub use ingress::ingress_response;
pub use pipeline::{analyze_flow, analyze_frame, hop_sum_matches, JitterAssignments};
pub use reference::analyze_reference;
pub use report::{AnalysisReport, FlowReport, FrameBound, HopBound};
pub use resilience::{
    divergence, single_failure_scenarios, ColdVerdict, FailureScenario, FailureVerdict,
    SurvivabilityAnalysis, SurvivabilityReport,
};
pub use stage::StageResult;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::admission::{
        AdmissionController, AdmissionDecision, AdmissionRequest, AdmissionVictim, DecisionCost,
    };
    pub use crate::baseline::{analyze_sporadic_baseline, sporadic_collapse, utilization_check};
    pub use crate::config::AnalysisConfig;
    pub use crate::context::{AnalysisContext, JitterMap, ResourceId};
    pub use crate::deps::{DependencyGraph, ShardId};
    pub use crate::fixed_point::{analyze, ConvergenceTrace};
    pub use crate::pipeline::{analyze_flow, analyze_frame};
    pub use crate::report::{AnalysisReport, FlowReport, FrameBound, HopBound};
    pub use crate::resilience::{
        single_failure_scenarios, FailureScenario, FailureVerdict, SurvivabilityAnalysis,
        SurvivabilityReport,
    };
}
