//! Cross-crate integration tests: every worked number of the paper is
//! reproduced by the public API (the same checks the experiment binaries
//! print, but enforced).

use gmfnet::model::{max_frame_transmission_time, LinkDemand};
use gmfnet::prelude::*;

/// Figure 3 / Figure 4: the MPEG example flow and its per-link parameters
/// on the 10 Mbit/s link(0,4).
#[test]
fn figure3_and_figure4_worked_values() {
    let flow = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
    assert_eq!(flow.n_frames(), 9);
    assert_eq!(flow.tsum(), Time::from_millis(270.0));

    let demand = LinkDemand::new(
        &flow,
        &EncapsulationConfig::paper(),
        BitRate::from_mbps(10.0),
    );
    // NSUM = 94 Ethernet frames per GOP (the paper's worked value).
    assert_eq!(demand.nsum(), 94);
    // TSUM = 270 ms.
    assert_eq!(demand.tsum(), Time::from_millis(270.0));
    // MFT = 12304 bits / 10^7 bit/s = 1.2304 ms (equation 1).
    assert_eq!(demand.mft(), Time::from_millis(1.2304));
    assert_eq!(
        max_frame_transmission_time(BitRate::from_bps(1e7)),
        Time::from_millis(1.2304)
    );
    // The flow alone uses ~40% of the access link.
    assert!(demand.utilization() > 0.35 && demand.utilization() < 0.45);
}

/// Figure 5 worked example and the conclusion's dimensioning claim.
#[test]
fn circ_worked_values() {
    let cfg = SwitchConfig::paper();
    assert_eq!(cfg.circ(4), Time::from_micros(14.8));
    assert_eq!(cfg.with_processors(16).circ(48), Time::from_micros(11.1));

    // In the Figure 1 network, switch 4 has exactly 4 interfaces, so its
    // CIRC matches the worked example.
    let (topology, net) = paper_figure1();
    assert_eq!(topology.n_interfaces(net.switches[0]), 4);
    assert_eq!(
        topology.circ(net.switches[0]).unwrap(),
        Time::from_micros(14.8)
    );
}

/// Figure 1 + Figure 2: the example network and the example route.
#[test]
fn figure1_and_figure2_structure() {
    let (topology, net) = paper_figure1();
    assert_eq!(topology.n_nodes(), 8);
    let route = shortest_path(&topology, net.hosts[0], net.hosts[3]).unwrap();
    assert_eq!(
        route.nodes(),
        &[net.hosts[0], net.switches[0], net.switches[2], net.hosts[3]]
    );
    // The access link of the worked example runs at 10^7 bit/s.
    assert_eq!(
        topology
            .link_between(net.hosts[0], net.switches[0])
            .unwrap()
            .speed
            .as_bps(),
        1e7
    );
}

/// Figure 6 + "Putting it all together": the paper scenario is schedulable,
/// the holistic iteration converges, and the admission controller accepts
/// the flows one by one.
#[test]
fn end_to_end_analysis_of_the_paper_scenario() {
    let (scenario, ids) = gmf_workloads::paper_scenario();
    let report = analyze(
        &scenario.topology,
        &scenario.flows,
        &AnalysisConfig::paper(),
    )
    .unwrap();
    assert!(report.converged);
    assert!(report.schedulable);
    // Every resource of the Figure 2 route shows up in the video flow's
    // per-hop breakdown.
    let video = report.flow(gmfnet::model::FlowId(ids.video)).unwrap();
    assert_eq!(video.frames.len(), 9);
    assert!(video.frames.iter().all(|f| f.hops.len() == 5));
    // The I+P frame dominates the cycle.
    assert_eq!(video.worst_bound().unwrap(), video.frames[0].bound);

    // The same flows pass through the admission controller one by one.
    let mut controller =
        AdmissionController::new(scenario.topology.clone(), AnalysisConfig::paper());
    let decisions = controller
        .request_batch(scenario.flows.bindings().iter().map(|binding| {
            gmfnet::analysis::AdmissionRequest::new(
                binding.flow.clone(),
                binding.route.clone(),
                binding.priority,
            )
        }))
        .unwrap();
    for (decision, binding) in decisions.iter().zip(scenario.flows.bindings()) {
        assert!(
            decision.is_accepted(),
            "flow {} rejected",
            binding.flow.name()
        );
    }
    assert_eq!(controller.n_accepted(), scenario.flows.len());
}

/// The sporadic-model baseline cannot even bound the paper's video flow on
/// the 10 Mbit/s access link (the motivation for the GMF model).
#[test]
fn sporadic_collapse_fails_where_gmf_succeeds() {
    let (scenario, _) = gmf_workloads::paper_scenario();
    let cfg = AnalysisConfig::paper();
    let gmf = analyze(&scenario.topology, &scenario.flows, &cfg).unwrap();
    let sporadic = analyze_sporadic_baseline(&scenario.topology, &scenario.flows, &cfg).unwrap();
    assert!(gmf.schedulable);
    assert!(!sporadic.schedulable);
    // The utilization check agrees with the GMF verdict here.
    assert!(
        utilization_check(&scenario.topology, &scenario.flows)
            .unwrap()
            .feasible
    );
}

/// The conclusion's claim: with 1 Gbit/s links and multiprocessor switches
/// the same traffic has two orders of magnitude more headroom.
#[test]
fn gigabit_network_headroom() {
    let (slow, _) = gmf_workloads::paper_scenario();
    let fast_cfg = PaperNetworkConfig {
        access: LinkProfile::ethernet_1g(),
        backbone: LinkProfile::ethernet_1g(),
        switch: SwitchConfig::paper().with_processors(16),
    };
    let (fast, _) = gmf_workloads::paper_scenario_with(fast_cfg);
    let cfg = AnalysisConfig::paper();
    let slow_report = analyze(&slow.topology, &slow.flows, &cfg).unwrap();
    let fast_report = analyze(&fast.topology, &fast.flows, &cfg).unwrap();
    assert!(slow_report.schedulable && fast_report.schedulable);
    let ratio = slow_report.worst_bound().unwrap() / fast_report.worst_bound().unwrap();
    assert!(
        ratio > 20.0,
        "expected a large speed-up from gigabit links, got {ratio:.1}x"
    );
}
