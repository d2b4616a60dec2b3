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
//! * the three per-resource analyses, each a dense stage evaluated over
//!   precompiled demand tables: the source's work-conserving output queue
//!   and first link (paper eqs. 14–20), the switch routing task under
//!   round-robin stride scheduling (eqs. 21–27), and the prioritized
//!   output queue, send task and link (eqs. 28–35), composed end to end
//!   as in Figure 6;
//! * [`analyze`] — the holistic jitter fixed point over the whole flow
//!   set, yielding an [`AnalysisReport`]; the iteration is the paper's
//!   plain Picard scheme in Jacobi rounds, one thread per run
//!   ([`fixed_point`]);
//! * [`admission::AdmissionController`] — the admission controller built on
//!   top of it, with one decision path: shard-scoped trials warm-started
//!   from the last converged jitters, byte-identical to a cold analysis of
//!   the trial set, decided in request order; the shard preload is where
//!   the crate runs in parallel;
//! * [`resilience::SurvivabilityAnalysis`] — the single-failure
//!   survivability sweep: one cold analysis of the shards a failure
//!   reaches, the preload's cached reports for the rest;
//! * [`baseline`] — the sporadic-collapse and utilization-only baselines
//!   used for comparison experiments.
//!
//! This is the one analysis engine.  The literal keyed transcription of
//! eqs. 14–35 that it is property-tested against lives in test support,
//! as `gmf_bench::oracle`.
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
pub(crate) mod egress;
pub mod error;
pub(crate) mod first_hop;
pub mod fixed_point;
pub(crate) mod index;
pub(crate) mod ingress;
pub(crate) mod kernel;
pub(crate) mod pipeline;
pub mod report;
pub mod resilience;

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
pub use error::{AnalysisError, StageKind};
pub use fixed_point::{analyze, iterate_from, ConvergenceTrace, FixedPointRun, RoundTrace};
pub use report::{hop_sum_matches, AnalysisReport, FlowReport, FrameBound, HopBound};
pub use resilience::{
    divergence, single_failure_scenarios, ColdVerdict, FailureScenario, FailureVerdict,
    SurvivabilityAnalysis, SurvivabilityReport,
};

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
    pub use crate::report::{AnalysisReport, FlowReport, FrameBound, HopBound};
    pub use crate::resilience::{
        single_failure_scenarios, FailureScenario, FailureVerdict, SurvivabilityAnalysis,
        SurvivabilityReport,
    };
}
