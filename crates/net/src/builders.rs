//! Canonical and synthetic topologies.
//!
//! [`paper_figure1`] reconstructs the example network of the paper's
//! Figure 1: four IP end hosts (nodes 0–3), three software Ethernet
//! switches (nodes 4–6) and one IP router (node 7) connecting the network
//! to the global Internet.  The figure does not label every cable, so the
//! wiring below is reconstructed from the constraints visible in the paper:
//!
//! * the example flow routes `0 → 4 → 6 → 3` (Figure 2), so host 0 attaches
//!   to switch 4, switch 4 connects to switch 6, and host 3 attaches to
//!   switch 6;
//! * Figure 5 (the internals of a switch) shows interfaces "from/to" nodes
//!   0, 1, 5 and 6 — that switch is node 4, so host 1 also attaches to
//!   switch 4 and switch 4 also connects to switch 5;
//! * the remaining endpoints (host 2 and router 7) attach to switch 5.
//!
//! Access links default to 10 Mbit/s (the speed used in the worked example
//! for `link(0,4)`); switch-to-switch and router links default to
//! 100 Mbit/s.  Both are configurable through [`PaperNetworkConfig`].
//!
//! The synthetic builders ([`line`](fn@line), [`star`], [`random_tree`]) are used by
//! the workload generators and the scalability experiments.

use crate::link::LinkProfile;
use crate::node::{NodeId, SwitchConfig};
use crate::topology::Topology;
use gmf_model::Time;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Node ids of the paper's Figure 1 network, in the paper's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperNetwork {
    /// IP end hosts 0–3.
    pub hosts: [NodeId; 4],
    /// Ethernet switches 4–6.
    pub switches: [NodeId; 3],
    /// The IP router (node 7).
    pub router: NodeId,
}

/// Link-speed configuration of the Figure 1 network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperNetworkConfig {
    /// Profile of the host/router access links (paper example: 10 Mbit/s).
    pub access: LinkProfile,
    /// Profile of the switch-to-switch links.
    pub backbone: LinkProfile,
    /// CPU parameters of every switch.
    pub switch: SwitchConfig,
}

impl Default for PaperNetworkConfig {
    fn default() -> Self {
        PaperNetworkConfig {
            access: LinkProfile::ethernet_10m(),
            backbone: LinkProfile::ethernet_100m(),
            switch: SwitchConfig::paper(),
        }
    }
}

/// Build the paper's Figure 1 network with the default link speeds.
pub fn paper_figure1() -> (Topology, PaperNetwork) {
    paper_figure1_with(PaperNetworkConfig::default())
}

/// Build the paper's Figure 1 network with explicit link speeds and switch
/// parameters.
pub fn paper_figure1_with(config: PaperNetworkConfig) -> (Topology, PaperNetwork) {
    let mut t = Topology::new();
    let h0 = t.add_end_host("host0");
    let h1 = t.add_end_host("host1");
    let h2 = t.add_end_host("host2");
    let h3 = t.add_end_host("host3");
    let s4 = t.add_switch(config.switch, "switch4");
    let s5 = t.add_switch(config.switch, "switch5");
    let s6 = t.add_switch(config.switch, "switch6");
    let r7 = t.add_router("router7");

    // Access links.
    t.add_duplex_link(h0, s4, config.access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    t.add_duplex_link(h1, s4, config.access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    t.add_duplex_link(h2, s5, config.access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    t.add_duplex_link(h3, s6, config.access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    // Backbone links (switch 4 connects to both other switches, matching
    // Figure 5's four interfaces: hosts 0 and 1, switches 5 and 6).
    t.add_duplex_link(s4, s5, config.backbone)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    t.add_duplex_link(s4, s6, config.backbone)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    // The IP router reaches the network through switch 5.
    t.add_duplex_link(r7, s5, config.backbone)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");

    (
        t,
        PaperNetwork {
            hosts: [h0, h1, h2, h3],
            switches: [s4, s5, s6],
            router: r7,
        },
    )
}

/// A line (chain) of `n_switches` switches with one end host attached to
/// each end: `hostA - sw_1 - sw_2 - … - sw_n - hostB`.
///
/// Returns the topology, the two hosts, and the switches in order.
pub fn line(
    n_switches: usize,
    access: LinkProfile,
    backbone: LinkProfile,
    switch: SwitchConfig,
) -> (Topology, NodeId, NodeId, Vec<NodeId>) {
    assert!(n_switches >= 1, "a line needs at least one switch");
    let mut t = Topology::new();
    let host_a = t.add_end_host("hostA");
    let mut switches = Vec::with_capacity(n_switches);
    for i in 0..n_switches {
        switches.push(t.add_switch(switch, format!("sw{i}")));
    }
    let host_b = t.add_end_host("hostB");
    t.add_duplex_link(host_a, switches[0], access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    for pair in switches.windows(2) {
        t.add_duplex_link(pair[0], pair[1], backbone)
            // tidy-allow: unwrap invariant: fresh topology
            .expect("fresh topology");
    }
    // tidy-allow: unwrap invariant: n_switches >= 1
    t.add_duplex_link(*switches.last().expect("n_switches >= 1"), host_b, access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    (t, host_a, host_b, switches)
}

/// A single switch with `n_hosts` end hosts attached (a star) — the classic
/// small-office deployment.
pub fn star(
    n_hosts: usize,
    access: LinkProfile,
    switch: SwitchConfig,
) -> (Topology, NodeId, Vec<NodeId>) {
    assert!(n_hosts >= 2, "a star needs at least two hosts");
    let mut t = Topology::new();
    let sw = t.add_switch(switch, "sw");
    let mut hosts = Vec::with_capacity(n_hosts);
    for i in 0..n_hosts {
        let h = t.add_end_host(format!("h{i}"));
        // tidy-allow: unwrap invariant: fresh topology
        t.add_duplex_link(h, sw, access).expect("fresh topology");
        hosts.push(h);
    }
    (t, sw, hosts)
}

/// A random tree of `n_switches` switches (each new switch attaches to a
/// uniformly chosen earlier switch) with `hosts_per_switch` end hosts on
/// every switch.  Trees are the natural shape of spanning-tree Ethernet.
///
/// Returns the topology, the switches and the hosts.
pub fn random_tree<R: Rng>(
    rng: &mut R,
    n_switches: usize,
    hosts_per_switch: usize,
    access: LinkProfile,
    backbone: LinkProfile,
    switch: SwitchConfig,
) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    assert!(n_switches >= 1);
    let mut t = Topology::new();
    let mut switches = Vec::with_capacity(n_switches);
    for i in 0..n_switches {
        let sw = t.add_switch(switch, format!("sw{i}"));
        if let Some(&parent) = switches[..i].choose(rng) {
            t.add_duplex_link(sw, parent, backbone)
                // tidy-allow: unwrap invariant: fresh topology
                .expect("fresh topology");
        }
        switches.push(sw);
    }
    let mut hosts = Vec::with_capacity(n_switches * hosts_per_switch);
    for (i, &sw) in switches.iter().enumerate() {
        for j in 0..hosts_per_switch {
            let h = t.add_end_host(format!("h{i}_{j}"));
            // tidy-allow: unwrap invariant: fresh topology
            t.add_duplex_link(h, sw, access).expect("fresh topology");
            hosts.push(h);
        }
    }
    (t, switches, hosts)
}

/// Propagation delay corresponding to a cable of `metres` metres
/// (signal speed ≈ 2×10⁸ m/s in copper or fibre).
// tidy-allow: float spec-input length in metres, converted to Time at the boundary
pub fn propagation_for_distance(metres: f64) -> Time {
    Time::from_secs(metres / 2.0e8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;
    use crate::routing::shortest_path;
    use rand::SeedableRng;

    #[test]
    fn paper_figure1_structure() {
        let (t, net) = paper_figure1();
        assert_eq!(t.n_nodes(), 8);
        // 7 duplex cables = 14 directed links.
        assert_eq!(t.n_links(), 14);
        // Switch 4 has exactly the four interfaces of Figure 5.
        assert_eq!(t.n_interfaces(net.switches[0]), 4);
        // The worked CIRC example: 4 × 3.7 µs = 14.8 µs.
        assert_eq!(t.circ(net.switches[0]).unwrap(), Time::from_micros(14.8));
        // The example route 0 -> 4 -> 6 -> 3 is valid.
        let route = Route::new(
            &t,
            vec![net.hosts[0], net.switches[0], net.switches[2], net.hosts[3]],
        );
        assert!(route.is_ok());
        // The access link 0 -> 4 runs at the worked example's 10 Mbit/s.
        assert_eq!(
            t.link_between(net.hosts[0], net.switches[0])
                .unwrap()
                .speed
                .as_mbps(),
            10.0
        );
        // The router reaches every host through the switches.
        let r = shortest_path(&t, net.router, net.hosts[3]).unwrap();
        assert!(r
            .nodes()
            .iter()
            .all(|n| *n == net.router || *n == net.hosts[3] || net.switches.contains(n)));
    }

    #[test]
    fn paper_figure1_shortest_route_matches_figure2() {
        let (t, net) = paper_figure1();
        let r = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        assert_eq!(
            r.nodes(),
            &[net.hosts[0], net.switches[0], net.switches[2], net.hosts[3]]
        );
    }

    #[test]
    fn line_topology() {
        let (t, a, b, switches) = line(
            4,
            LinkProfile::ethernet_100m(),
            LinkProfile::ethernet_1g(),
            SwitchConfig::paper(),
        );
        assert_eq!(switches.len(), 4);
        assert_eq!(t.n_nodes(), 6);
        let r = shortest_path(&t, a, b).unwrap();
        assert_eq!(r.n_hops(), 5);
        // End switches have 2 interfaces, middle switches 2 as well
        // (host+switch / switch+switch).
        assert_eq!(t.n_interfaces(switches[0]), 2);
        assert_eq!(t.n_interfaces(switches[1]), 2);
    }

    #[test]
    #[should_panic]
    fn line_requires_a_switch() {
        let _ = line(
            0,
            LinkProfile::ethernet_100m(),
            LinkProfile::ethernet_1g(),
            SwitchConfig::paper(),
        );
    }

    #[test]
    fn star_topology() {
        let (t, sw, hosts) = star(5, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        assert_eq!(hosts.len(), 5);
        assert_eq!(t.n_interfaces(sw), 5);
        let r = shortest_path(&t, hosts[0], hosts[4]).unwrap();
        assert_eq!(r.n_hops(), 2);
    }

    #[test]
    fn random_tree_is_connected_and_reproducible() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let (t, switches, hosts) = random_tree(
            &mut rng,
            6,
            2,
            LinkProfile::ethernet_100m(),
            LinkProfile::ethernet_1g(),
            SwitchConfig::paper(),
        );
        assert_eq!(switches.len(), 6);
        assert_eq!(hosts.len(), 12);
        // Every pair of hosts is connected.
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    assert!(shortest_path(&t, a, b).is_ok(), "{a} cannot reach {b}");
                }
            }
        }
        // Same seed, same topology.
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let (t2, ..) = random_tree(
            &mut rng2,
            6,
            2,
            LinkProfile::ethernet_100m(),
            LinkProfile::ethernet_1g(),
            SwitchConfig::paper(),
        );
        assert_eq!(t, t2);
    }

    #[test]
    fn propagation_helper() {
        // 1 km of fibre ≈ 5 µs.
        assert_eq!(propagation_for_distance(1000.0), Time::from_micros(5.0));
    }
}
