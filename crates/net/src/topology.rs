//! The network topology: a directed graph of nodes and links.
//!
//! The topology is the static description of the network the operator
//! manages: which nodes exist, what kind they are, and which directed links
//! connect them (with their bit rates and propagation delays).  The number
//! of network interfaces of a switch — `NINTERFACES(N)`, which determines
//! the stride-scheduling round length `CIRC(N)` — is derived from the
//! topology as the number of distinct neighbours of the node.

use crate::error::NetError;
use crate::link::{Link, LinkId, LinkProfile};
use crate::node::{Node, NodeId, NodeKind, SwitchConfig};
use crate::survivor::SurvivorView;
use gmf_model::{BitRate, Time};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A directed multigraph-free network graph.
///
/// Serialization only stores the nodes and links; the lookup indexes are
/// rebuilt on deserialization.  The failure overlay ([`Topology::fail_link`],
/// [`Topology::degrade_switch`]) is *transient* operational state and is
/// deliberately dropped by serialization: a persisted topology always
/// describes the installed hardware.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(from = "TopologySerde", into = "TopologySerde")]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Map from (src, dst) to the link index, for O(log n) lookup.
    by_endpoints: BTreeMap<(NodeId, NodeId), LinkId>,
    /// Outgoing neighbours of every node.
    out_neighbours: Vec<Vec<NodeId>>,
    /// Incoming neighbours of every node.
    in_neighbours: Vec<Vec<NodeId>>,
    /// Failure overlay: failed full-duplex cables, keyed by unordered
    /// endpoint pair `(min, max)`.  The base graph above stays untouched.
    failed: BTreeSet<(NodeId, NodeId)>,
    /// Failure overlay: degraded switch CPU configurations that override the
    /// installed [`SwitchConfig`] until [`Topology::restore`].
    degraded: BTreeMap<NodeId, SwitchConfig>,
}

/// Normalise a cable's endpoint pair to the unordered `(min, max)` key used
/// by the failure overlay.
pub(crate) fn cable_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Plain serialized form of a [`Topology`]: nodes and links only.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TopologySerde {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl From<Topology> for TopologySerde {
    fn from(t: Topology) -> Self {
        TopologySerde {
            nodes: t.nodes,
            links: t.links,
        }
    }
}

impl From<TopologySerde> for Topology {
    fn from(s: TopologySerde) -> Self {
        let mut t = Topology::new();
        for node in &s.nodes {
            t.add_node(node.kind, node.name.clone());
        }
        for link in &s.links {
            t.add_link(link.src, link.dst, link.speed, link.propagation)
                // tidy-allow: unwrap invariant: serialized topology contains a malformed link
                .expect("serialized topology contains a malformed link");
        }
        t
    }
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node of the given kind; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        self.out_neighbours.push(Vec::new());
        self.in_neighbours.push(Vec::new());
        id
    }

    /// Add an IP end host.
    pub fn add_end_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::EndHost, name)
    }

    /// Add a software Ethernet switch.
    pub fn add_switch(&mut self, config: SwitchConfig, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch(config), name)
    }

    /// Add an IP router.
    pub fn add_router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Router, name)
    }

    /// Add a directed link from `src` to `dst`.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        speed: BitRate,
        propagation: Time,
    ) -> Result<LinkId, NetError> {
        if src == dst {
            return Err(NetError::SelfLoop(src));
        }
        self.check_node(src)?;
        self.check_node(dst)?;
        if self.by_endpoints.contains_key(&(src, dst)) {
            return Err(NetError::DuplicateLink(src, dst));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            src,
            dst,
            speed,
            propagation,
        });
        self.by_endpoints.insert((src, dst), id);
        self.out_neighbours[src.0].push(dst);
        self.in_neighbours[dst.0].push(src);
        Ok(id)
    }

    /// Add both directions of a full-duplex cable with identical parameters;
    /// returns the two link ids `(src→dst, dst→src)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        profile: LinkProfile,
    ) -> Result<(LinkId, LinkId), NetError> {
        let ab = self.add_link(a, b, profile.speed, profile.propagation)?;
        let ba = self.add_link(b, a, profile.speed, profile.propagation)?;
        Ok((ab, ba))
    }

    fn check_node(&self, id: NodeId) -> Result<(), NetError> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode(id))
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Result<&Node, NetError> {
        self.nodes.get(id.0).ok_or(NetError::UnknownNode(id))
    }

    /// Look up the directed link from `src` to `dst`.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Result<&Link, NetError> {
        self.by_endpoints
            .get(&(src, dst))
            .map(|id| &self.links[id.0])
            .ok_or(NetError::NoSuchLink(src, dst))
    }

    /// `true` if a directed link from `src` to `dst` exists.
    pub fn has_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.by_endpoints.contains_key(&(src, dst))
    }

    /// Outgoing neighbours of a node.
    pub fn out_neighbours(&self, id: NodeId) -> &[NodeId] {
        &self.out_neighbours[id.0]
    }

    /// Incoming neighbours of a node.
    pub fn in_neighbours(&self, id: NodeId) -> &[NodeId] {
        &self.in_neighbours[id.0]
    }

    /// `NINTERFACES(N)`: the number of network interfaces of a node,
    /// i.e. the number of distinct neighbours it has a link to or from
    /// (a full-duplex cable counts as one interface).
    pub fn n_interfaces(&self, id: NodeId) -> usize {
        let mut neighbours: Vec<NodeId> = self.out_neighbours[id.0]
            .iter()
            .chain(self.in_neighbours[id.0].iter())
            .copied()
            .collect();
        neighbours.sort_unstable();
        neighbours.dedup();
        neighbours.len()
    }

    /// `CIRC(N)` for a switch node: the round length of its stride scheduler
    /// given its interface count.  Returns an error for non-switch nodes.
    pub fn circ(&self, id: NodeId) -> Result<Time, NetError> {
        let node = self.node(id)?;
        match &node.kind {
            NodeKind::Switch(cfg) => Ok(cfg.circ(self.n_interfaces(id))),
            _ => Err(NetError::RouteThroughNonSwitch(id)),
        }
    }

    /// The switch configuration of a node, if it is a switch.
    pub fn switch_config(&self, id: NodeId) -> Option<&SwitchConfig> {
        self.nodes.get(id.0).and_then(|n| n.kind.switch_config())
    }

    /// Ids of all switch nodes.
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_switch())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all end hosts and routers (possible flow endpoints).
    pub fn endpoints(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !n.is_switch())
            .map(|n| n.id)
            .collect()
    }

    /// Mark the full-duplex cable between `a` and `b` as failed.
    ///
    /// Both directions go down together (a cable fault takes out the whole
    /// duplex pair).  The base graph — and therefore every accessor above,
    /// which describes the *installed* hardware — is untouched; the failure
    /// only becomes visible through [`Topology::survivor`].  Errors:
    /// [`NetError::NoSuchLink`] if no link exists in either direction, and
    /// [`NetError::LinkAlreadyFailed`] if the cable is already failed.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) -> Result<(), NetError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !self.by_endpoints.contains_key(&(a, b)) && !self.by_endpoints.contains_key(&(b, a)) {
            return Err(NetError::NoSuchLink(a, b));
        }
        if !self.failed.insert(cable_key(a, b)) {
            return Err(NetError::LinkAlreadyFailed(a, b));
        }
        Ok(())
    }

    /// Override the CPU configuration of switch `id` with a degraded one
    /// (e.g. a thermally throttled or half-provisioned processor).
    ///
    /// Returns the configuration that was effective before this call.  The
    /// installed configuration is untouched and comes back on
    /// [`Topology::restore`].  Errors with [`NetError::NotASwitch`] for end
    /// hosts and routers.
    pub fn degrade_switch(
        &mut self,
        id: NodeId,
        config: SwitchConfig,
    ) -> Result<SwitchConfig, NetError> {
        let node = self.node(id)?;
        let installed = match &node.kind {
            NodeKind::Switch(cfg) => *cfg,
            _ => return Err(NetError::NotASwitch(id)),
        };
        let previous = self.degraded.insert(id, config).unwrap_or(installed);
        Ok(previous)
    }

    /// Clear the whole failure overlay: every failed cable comes back up and
    /// every degraded switch returns to its installed configuration.
    pub fn restore(&mut self) {
        self.failed.clear();
        self.degraded.clear();
    }

    /// `true` if the cable between `a` and `b` is currently failed
    /// (direction-insensitive).
    pub fn is_failed(&self, a: NodeId, b: NodeId) -> bool {
        self.failed.contains(&cable_key(a, b))
    }

    /// The currently failed cables as unordered `(min, max)` endpoint pairs,
    /// in ascending order.
    pub fn failed_cables(&self) -> Vec<(NodeId, NodeId)> {
        self.failed.iter().copied().collect()
    }

    /// The currently degraded switches with their effective (degraded)
    /// configurations, in ascending node order.
    pub fn degraded_switches(&self) -> Vec<(NodeId, SwitchConfig)> {
        self.degraded.iter().map(|(id, cfg)| (*id, *cfg)).collect()
    }

    /// `true` if any cable is failed or any switch degraded.
    pub fn has_faults(&self) -> bool {
        !self.failed.is_empty() || !self.degraded.is_empty()
    }

    /// Materialise the surviving network: a fresh [`Topology`] with the same
    /// node ids, failed cables removed and degraded switch configurations
    /// applied, wrapped in a [`SurvivorView`] that records which nodes'
    /// analysis-relevant parameters changed.
    ///
    /// Node ids are preserved verbatim (failed cables leave their endpoints
    /// in place, possibly isolated), so routes and flow sets can be
    /// re-validated against the survivor unchanged.  Link ids may be
    /// renumbered — everything downstream keys links by their
    /// `(NodeId, NodeId)` endpoints, never by [`LinkId`].
    pub fn survivor(&self) -> SurvivorView {
        let mut topology = Topology::new();
        for node in &self.nodes {
            let kind = match (&node.kind, self.degraded.get(&node.id)) {
                (NodeKind::Switch(_), Some(degraded)) => NodeKind::Switch(*degraded),
                (kind, _) => *kind,
            };
            topology.add_node(kind, node.name.clone());
        }
        for link in &self.links {
            if self.failed.contains(&cable_key(link.src, link.dst)) {
                continue;
            }
            topology
                .add_link(link.src, link.dst, link.speed, link.propagation)
                // tidy-allow: unwrap invariant: base topology links are well-formed
                .expect("base topology links are well-formed");
        }
        // Dirty nodes: every endpoint of a failed cable (its interface count
        // and hence CIRC changed) plus every degraded switch.
        let mut dirty: Vec<NodeId> = self
            .failed
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(self.degraded.keys().copied())
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        SurvivorView::new(
            topology,
            self.failed.iter().copied().collect(),
            self.degraded.keys().copied().collect(),
            dirty,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let h0 = t.add_end_host("h0");
        let sw = t.add_switch(SwitchConfig::paper(), "sw");
        let h1 = t.add_end_host("h1");
        t.add_duplex_link(h0, sw, LinkProfile::ethernet_10m())
            .unwrap();
        t.add_duplex_link(sw, h1, LinkProfile::ethernet_100m())
            .unwrap();
        (t, h0, sw, h1)
    }

    #[test]
    fn build_and_query() {
        let (t, h0, sw, h1) = small();
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.n_links(), 4);
        assert!(t.has_link(h0, sw));
        assert!(t.has_link(sw, h0));
        assert!(!t.has_link(h0, h1));
        assert_eq!(t.link_between(h0, sw).unwrap().speed.as_mbps(), 10.0);
        assert_eq!(t.link_between(sw, h1).unwrap().speed.as_mbps(), 100.0);
        assert!(matches!(
            t.link_between(h0, h1),
            Err(NetError::NoSuchLink(_, _))
        ));
        assert_eq!(t.out_neighbours(sw).len(), 2);
        assert_eq!(t.in_neighbours(sw).len(), 2);
        assert_eq!(t.node(h1).unwrap().name, "h1");
        assert!(matches!(t.node(NodeId(9)), Err(NetError::UnknownNode(_))));
        assert_eq!(t.switches(), vec![sw]);
        assert_eq!(t.endpoints(), vec![h0, h1]);
    }

    #[test]
    fn n_interfaces_counts_distinct_neighbours() {
        let (t, h0, sw, _) = small();
        assert_eq!(t.n_interfaces(sw), 2);
        assert_eq!(t.n_interfaces(h0), 1);
    }

    #[test]
    fn circ_uses_interface_count() {
        let (t, h0, sw, _) = small();
        // 2 interfaces × 3.7 µs.
        assert_eq!(t.circ(sw).unwrap(), Time::from_micros(7.4));
        assert!(matches!(
            t.circ(h0),
            Err(NetError::RouteThroughNonSwitch(_))
        ));
    }

    #[test]
    fn rejects_self_loop_duplicate_and_unknown() {
        let (mut t, h0, sw, _) = small();
        assert!(matches!(
            t.add_link(h0, h0, BitRate::from_mbps(10.0), Time::ZERO),
            Err(NetError::SelfLoop(_))
        ));
        assert!(matches!(
            t.add_link(h0, sw, BitRate::from_mbps(10.0), Time::ZERO),
            Err(NetError::DuplicateLink(_, _))
        ));
        assert!(matches!(
            t.add_link(h0, NodeId(77), BitRate::from_mbps(10.0), Time::ZERO),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn router_nodes_are_endpoints() {
        let mut t = Topology::new();
        let r = t.add_router("gw");
        assert_eq!(t.endpoints(), vec![r]);
        assert!(t.switch_config(r).is_none());
    }

    #[test]
    fn serde_roundtrip() {
        // JSON round-trips of floating-point times are only guaranteed to a
        // relative 1e-12, so compare structure and values approximately
        // rather than bit-for-bit.
        let (t, h0, sw, _) = small();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_nodes(), t.n_nodes());
        assert_eq!(back.n_links(), t.n_links());
        assert_eq!(back.nodes(), t.nodes());
        assert!(back.has_link(h0, sw));
        let (a, b) = (
            t.link_between(h0, sw).unwrap(),
            back.link_between(h0, sw).unwrap(),
        );
        assert_eq!(a.speed.as_bps(), b.speed.as_bps());
        assert_eq!(a.propagation, b.propagation);
        // The rebuilt indexes answer derived queries identically.
        assert_eq!(back.n_interfaces(sw), t.n_interfaces(sw));
    }
}
