//! Baseline admission tests the GMF analysis is compared against.
//!
//! The paper motivates the generalized multiframe model by pointing out
//! that MPEG video is badly described by the sporadic model: collapsing a
//! GOP to a single "worst frame at the densest rate" over-approximates the
//! demand enormously.  Two baselines make that argument quantitative in
//! experiment E8:
//!
//! * [`sporadic_collapse`] — replace every flow by its sporadic
//!   over-approximation (largest payload, densest inter-arrival, tightest
//!   deadline, largest jitter) and run *the same* holistic analysis.  This
//!   is what classic holistic schedulability analysis (Tindell & Clark)
//!   would do with this traffic.
//! * [`utilization_check`] — a necessary-but-not-sufficient test that only
//!   checks the long-run utilization conditions (paper eqs. (20)/(34)) on
//!   every link and every switch CPU.  Any flow set the response-time
//!   analysis accepts passes this check, so the gap between the two
//!   measures the value of doing real response-time analysis.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::fixed_point::analyze;
use crate::report::AnalysisReport;
use gmf_net::{FlowSet, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Replace every flow of `flows` by its sporadic over-approximation,
/// keeping routes, priorities and packetization.
pub fn sporadic_collapse(flows: &FlowSet) -> FlowSet {
    let mut collapsed = FlowSet::new();
    for binding in flows.bindings() {
        collapsed.add_with_encapsulation(
            binding.flow.to_sporadic_overapproximation(),
            binding.route.clone(),
            binding.priority,
            binding.encapsulation,
        );
    }
    collapsed
}

/// Run the holistic analysis on the sporadic collapse of `flows`.
pub fn analyze_sporadic_baseline(
    topology: &Topology,
    flows: &FlowSet,
    config: &AnalysisConfig,
) -> Result<AnalysisReport, AnalysisError> {
    analyze(topology, &sporadic_collapse(flows), config)
}

/// The outcome of the pure utilization check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationCheck {
    /// Per-link utilization `Σ CSUM/TSUM` over the flows using the link.
    pub link_utilization: Vec<(NodeId, NodeId, f64)>, // tidy-allow: float utilization ratio, not a bound
    /// Per-switch routing-CPU utilization
    /// `Σ NSUM·CIRC/TSUM` over the flows entering the switch.
    pub switch_utilization: Vec<(NodeId, f64)>, // tidy-allow: float utilization ratio, not a bound
    /// `true` if every utilization is strictly below 1.
    pub feasible: bool,
}

impl UtilizationCheck {
    /// The largest utilization of any link.
    // tidy-allow: float utilization ratio, not a bound
    pub fn max_link_utilization(&self) -> f64 {
        self.link_utilization
            .iter()
            .map(|&(_, _, u)| u)
            .fold(0.0, f64::max) // tidy-allow: float utilization ratio, not a bound
    }

    /// The largest utilization of any switch CPU.
    // tidy-allow: float utilization ratio, not a bound
    pub fn max_switch_utilization(&self) -> f64 {
        self.switch_utilization
            .iter()
            .map(|&(_, u)| u)
            .fold(0.0, f64::max) // tidy-allow: float utilization ratio, not a bound
    }
}

/// Check the long-run utilization of every used link and every traversed
/// switch CPU.  This is a *necessary* condition for schedulability only.
pub fn utilization_check(
    topology: &Topology,
    flows: &FlowSet,
) -> Result<UtilizationCheck, AnalysisError> {
    let ctx = AnalysisContext::new(topology, flows)?;

    let mut link_utilization = Vec::new();
    for (from, to) in flows.used_links() {
        let on_link = flows.flows_on_link(from, to);
        let u = ctx.link_utilization(&on_link, from, to);
        link_utilization.push((from, to, u));
    }

    // Per switch: the CPU serves one routing task per input interface; the
    // long-run demand of a flow entering through interface (prec -> switch)
    // is NSUM service rounds of CIRC every TSUM.
    let mut switch_utilization = Vec::new();
    for switch in topology.switches() {
        let through = flows.flows_through_node(switch);
        if through.is_empty() {
            continue;
        }
        let circ = topology.circ(switch)?;
        let mut u = 0.0;
        for id in through {
            let binding = flows.get(id)?;
            let prec = binding.route.predecessor(switch)?;
            let d = ctx.demand(id, prec, switch);
            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
            u += d.nsum() as f64 * circ.as_secs() / d.tsum().as_secs();
        }
        switch_utilization.push((switch, u));
    }

    let feasible = link_utilization.iter().all(|&(_, _, u)| u < 1.0)
        && switch_utilization.iter().all(|&(_, u)| u < 1.0);

    Ok(UtilizationCheck {
        link_utilization,
        switch_utilization,
        feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow, voip_flow, Time, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    fn scenario() -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        (t, fs)
    }

    #[test]
    fn sporadic_collapse_preserves_structure_and_inflates_demand() {
        let (_, fs) = scenario();
        let collapsed = sporadic_collapse(&fs);
        assert_eq!(collapsed.len(), fs.len());
        for (a, b) in fs.bindings().iter().zip(collapsed.bindings()) {
            assert_eq!(a.route, b.route);
            assert_eq!(a.priority, b.priority);
            assert_eq!(b.flow.n_frames(), 1);
            assert!(b.flow.mean_payload_rate_bps() >= a.flow.mean_payload_rate_bps());
        }
        // The video flow collapses to "43 kB every 30 ms", roughly a 3×
        // inflation of its long-run rate (131 kB / 270 ms -> 43 kB / 30 ms).
        let video = &collapsed.bindings()[0].flow;
        assert!(
            video.mean_payload_rate_bps() > 2.5 * fs.bindings()[0].flow.mean_payload_rate_bps()
        );
    }

    #[test]
    fn sporadic_baseline_is_more_pessimistic_than_gmf() {
        let (t, fs) = scenario();
        let cfg = AnalysisConfig::paper();
        let gmf = analyze(&t, &fs, &cfg).unwrap();
        let sporadic = analyze_sporadic_baseline(&t, &fs, &cfg).unwrap();
        // The GMF analysis accepts the paper scenario.
        assert!(gmf.schedulable);
        // The sporadic collapse of the video flow (43 kB every 30 ms over a
        // 10 Mbit/s access link) is overloaded: the baseline cannot even
        // bound it.
        assert!(!sporadic.schedulable);
    }

    #[test]
    fn utilization_check_on_feasible_scenario() {
        let (t, fs) = scenario();
        let check = utilization_check(&t, &fs).unwrap();
        assert!(check.feasible);
        assert!(check.max_link_utilization() < 1.0);
        assert!(check.max_link_utilization() > 0.1); // the 10 Mbit/s access link carries ~3.9 Mbit/s
        assert!(check.max_switch_utilization() < 0.2);
        // Every used link got an entry; both switches on the routes too.
        assert_eq!(check.link_utilization.len(), fs.used_links().len());
        assert_eq!(check.switch_utilization.len(), 2);
    }

    #[test]
    fn utilization_check_detects_overload() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        for i in 0..3 {
            let f = cbr_flow(
                &format!("bulk{i}"),
                55_000,
                Time::from_millis(100.0),
                Time::from_millis(400.0),
                Time::ZERO,
            );
            fs.add(f, route.clone(), Priority(4));
        }
        let check = utilization_check(&t, &fs).unwrap();
        assert!(!check.feasible);
        assert!(check.max_link_utilization() >= 1.0);
    }

    #[test]
    fn utilization_is_necessary_for_schedulability() {
        // Whatever the response-time analysis accepts must pass the
        // utilization check (the converse does not hold).
        let (t, fs) = scenario();
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        let check = utilization_check(&t, &fs).unwrap();
        assert!(report.schedulable);
        assert!(check.feasible);
    }

    #[test]
    fn empty_flow_set_is_feasible() {
        let (t, _) = scenario();
        let check = utilization_check(&t, &FlowSet::new()).unwrap();
        assert!(check.feasible);
        assert!(check.link_utilization.is_empty());
        assert!(check.switch_utilization.is_empty());
        assert_eq!(check.max_link_utilization(), 0.0);
        assert_eq!(check.max_switch_utilization(), 0.0);
    }
}
