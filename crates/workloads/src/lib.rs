//! # gmf-workloads
//!
//! Workload generators, canonical scenarios and parameter sweeps for the
//! GMF multihop schedulability experiments:
//!
//! * [`paper`] — the paper's worked example (Figure 1 network, Figure 2
//!   route, Figure 3/4 MPEG flow) plus the interactive traffic its
//!   introduction motivates;
//! * [`synthetic`] — random GMF flow sets with a controlled offered
//!   utilization (UUniFast split, video-style burstiness);
//! * [`sweep`] — acceptance-ratio sweeps comparing the GMF analysis with
//!   the sporadic-collapse baseline and the utilization-only necessary
//!   test;
//! * [`churn`] — deterministic arrival/departure scripts replayed through
//!   the admission controller and through a cold reference (the
//!   incremental-engine experiment);
//! * [`metro`] — metro-scale admission workloads: thousands of independent
//!   access cells, a 100k+-flow pre-admitted set and a deterministic
//!   candidate stream for the sharded admission plane (E14 / `exp_metro`);
//! * [`resilience`] — metro cells on a protection ring plus deterministic
//!   fault scripts, the workload of the survivability experiments (E16 /
//!   `exp_resilience`);
//! * [`fuzz`] — deterministic random *valid* scenario generation (random
//!   topologies, mixed flow kinds, rejection-with-reason) for the
//!   conformance harness (E13);
//! * [`scenario`] — JSON scenario files for saving / re-running exact
//!   experiment inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod churn;
pub mod fuzz;
pub mod metro;
pub mod paper;
pub mod resilience;
pub mod scenario;
pub mod sweep;
pub mod synthetic;

pub use churn::{run_churn, run_churn_cold_reference, ChurnConfig, ChurnOutcome};
pub use fuzz::{
    draw_scenario, valid_scenario, FuzzConfig, FuzzScenario, ScenarioRejection, TopologyShape,
};
pub use metro::{metro_candidates, metro_scenario, MetroCell, MetroConfig, MetroScenario};
pub use paper::{
    conference_video, paper_scenario, paper_scenario_with, paper_video_only_scenario,
    PaperScenarioFlows, Scenario,
};
pub use resilience::{
    fault_script, resilience_scenario, FaultPlan, ResilienceConfig, ResilienceScenario,
};
pub use scenario::ScenarioFile;
pub use sweep::{
    acceptance_sweep, acceptance_sweep_par, build_converging_flow_set, random_sweep_set,
    AcceptancePoint, SweepConfig,
};
pub use synthetic::{random_flow_collection, random_gmf_flow, uunifast, SyntheticConfig};

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::churn::{run_churn, ChurnConfig, ChurnOutcome};
    pub use crate::fuzz::{draw_scenario, valid_scenario, FuzzConfig, FuzzScenario};
    pub use crate::metro::{metro_candidates, metro_scenario, MetroConfig, MetroScenario};
    pub use crate::paper::{paper_scenario, paper_video_only_scenario, Scenario};
    pub use crate::resilience::{
        fault_script, resilience_scenario, FaultPlan, ResilienceConfig, ResilienceScenario,
    };
    pub use crate::scenario::ScenarioFile;
    pub use crate::sweep::{acceptance_sweep, AcceptancePoint, SweepConfig};
    pub use crate::synthetic::{random_flow_collection, random_gmf_flow, SyntheticConfig};
}
