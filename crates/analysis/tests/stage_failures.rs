//! Pinned failure strings of the three per-resource analyses.
//!
//! Each instance makes exactly one stage kind fail first — by overload
//! (paper conditions (20) and (34), and the ingress analogue) or by a busy
//! period that passes a short horizon — and the test asserts the exact
//! `AnalysisReport::failure` text: stage name, flow, resource and
//! utilization or horizon.  Admission rejections and survivability verdicts
//! carry these strings verbatim, so a refactor of the stage code must keep
//! them byte for byte.

// Test code may unwrap freely; the workspace lint targets library code.
#![allow(clippy::unwrap_used)]

use gmf_analysis::prelude::*;
use gmf_model::{cbr_flow, Time};
use gmf_net::{
    paper_figure1_with, shortest_path, FlowSet, LinkProfile, PaperNetworkConfig, Priority, Topology,
};

/// The paper's Figure 1 network with `access` host links (switch CPUs and
/// 100 Mbit/s backbone as in the paper), and its host node ids.
fn network(access: LinkProfile) -> (Topology, [gmf_net::NodeId; 4]) {
    let (t, net) = paper_figure1_with(PaperNetworkConfig {
        access,
        ..PaperNetworkConfig::default()
    });
    (t, net.hosts)
}

/// One CBR flow from host `from` to host 3 per `(name, payload bytes,
/// period, priority)`, added in order (so the first is flow 0).
fn flows(
    t: &Topology,
    hosts: &[gmf_net::NodeId; 4],
    specs: &[(usize, &str, u64, Time, u8)],
) -> FlowSet {
    let mut fs = FlowSet::new();
    for &(from, name, bytes, period, priority) in specs {
        let route = shortest_path(t, hosts[from], hosts[3]).unwrap();
        fs.add(
            cbr_flow(name, bytes, period, period, Time::ZERO),
            route,
            Priority(priority),
        );
    }
    fs
}

/// The failure string of analysing `fs` on `t` under `config`.
fn failure(t: &Topology, fs: &FlowSet, config: AnalysisConfig) -> String {
    let report = analyze(t, fs, &config).unwrap();
    assert!(!report.schedulable);
    report.failure.unwrap()
}

#[test]
fn first_hop_overload_string() {
    // 1000 bytes every 0.5 ms cannot fit a 10 Mbit/s access link.
    let (t, hosts) = network(LinkProfile::ethernet_10m());
    let fs = flows(&t, &hosts, &[(0, "hog", 1000, Time::from_millis(0.5), 5)]);
    assert_eq!(
        failure(&t, &fs, AnalysisConfig::paper()),
        "first hop analysis of flow0: link(0,4) is overloaded (utilization 1.706 >= 1)"
    );
}

#[test]
fn ingress_overload_string() {
    // One small frame every 10 µs fits a gigabit access link but needs a
    // 14.8 µs routing round of switch 4 per frame.
    let (t, hosts) = network(LinkProfile::ethernet_1g());
    let fs = flows(&t, &hosts, &[(0, "chatty", 64, Time::from_micros(10.0), 5)]);
    assert_eq!(
        failure(&t, &fs, AnalysisConfig::paper()),
        "switch ingress analysis of flow0: in(4) is overloaded (utilization 1.480 >= 1)"
    );
}

#[test]
fn egress_overload_string() {
    // A higher-priority 1000-byte flow every 90 µs from host 1 fills the
    // 100 Mbit/s link(4,6) once its send-task rounds are charged; the
    // low-priority flow 0 behind it fails at that egress.
    let (t, hosts) = network(LinkProfile::ethernet_1g());
    let fs = flows(
        &t,
        &hosts,
        &[
            (0, "low", 100, Time::from_millis(10.0), 1),
            (1, "high", 1000, Time::from_micros(90.0), 7),
        ],
    );
    assert_eq!(
        failure(&t, &fs, AnalysisConfig::paper()),
        "egress link analysis of flow0: link(4,6) is overloaded (utilization 1.112 >= 1)"
    );
}

#[test]
fn first_hop_horizon_string() {
    // A 10 Mbit/s first-hop transmission alone outlasts a 1 µs horizon.
    let (t, hosts) = network(LinkProfile::ethernet_10m());
    let fs = flows(&t, &hosts, &[(0, "voice", 160, Time::from_millis(20.0), 5)]);
    let config = AnalysisConfig::paper().with_horizon(Time::from_micros(1.0));
    assert_eq!(
        failure(&t, &fs, config),
        "first hop analysis of flow0: busy period on link(0,4) exceeded the horizon 1.000 µs"
    );
}

#[test]
fn ingress_horizon_string() {
    // The gigabit first hop fits in 5 µs; switch 4's 14.8 µs service round
    // does not.
    let (t, hosts) = network(LinkProfile::ethernet_1g());
    let fs = flows(&t, &hosts, &[(0, "voice", 160, Time::from_millis(20.0), 5)]);
    let config = AnalysisConfig::paper().with_horizon(Time::from_micros(5.0));
    assert_eq!(
        failure(&t, &fs, config),
        "switch ingress analysis of flow0: busy period on in(4) exceeded the horizon 5.000 µs"
    );
}

#[test]
fn egress_horizon_string() {
    // First hop and ingress fit in 50 µs; the egress busy period starts at
    // one maximum-size frame on the 100 Mbit/s backbone (123 µs).
    let (t, hosts) = network(LinkProfile::ethernet_1g());
    let fs = flows(&t, &hosts, &[(0, "voice", 160, Time::from_millis(20.0), 5)]);
    let config = AnalysisConfig::paper().with_horizon(Time::from_micros(50.0));
    assert_eq!(
        failure(&t, &fs, config),
        "egress link analysis of flow0: busy period on link(4,6) exceeded the horizon 50.000 µs"
    );
}
