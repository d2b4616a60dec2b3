//! Network nodes: IP end hosts, software Ethernet switches and IP routers.
//!
//! The paper's network model (Section 2.1) distinguishes three kinds of
//! nodes.  End hosts and IP routers are sources and sinks of flows; only
//! Ethernet switches forward traffic, and only their queueing behaviour is
//! under the network operator's control.  A software switch runs `Click` on
//! a general-purpose processor: one *routing* task per input interface
//! (measured cost `CROUTE = 2.7 µs` in the paper) and one *send* task per
//! output interface (measured cost `CSEND = 1.0 µs`), all served
//! non-preemptively by stride scheduling configured as round-robin.  A task
//! is therefore served once every
//!
//! ```text
//! CIRC(N) = NINTERFACES(N) × (CROUTE(N) + CSEND(N))
//! ```
//!
//! The conclusion of the paper extends this to a switch with `m` processors
//! by assigning `NINTERFACES(N)/m` interfaces (and both of their tasks) to
//! each processor, which divides `CIRC` by `m` (rounding the interfaces per
//! processor up when the division is not exact).

use gmf_model::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a [`crate::topology::Topology`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// CPU parameters of a software-implemented Ethernet switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// `CROUTE(N)`: time to dequeue an Ethernet frame from an input NIC,
    /// look up its priority and output port, and enqueue it in the priority
    /// queue.  The paper measured 2.7 µs on its Click implementation.
    pub croute: Time,
    /// `CSEND(N)`: time to dequeue an Ethernet frame from a priority queue
    /// and enqueue it into the output NIC's FIFO.  The paper measured 1.0 µs.
    pub csend: Time,
    /// Number of processors in the switch.  The paper's base model uses one;
    /// the conclusion discusses network processors with up to 16.
    pub processors: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig::paper()
    }
}

impl SwitchConfig {
    /// The configuration measured in the paper: `CROUTE = 2.7 µs`,
    /// `CSEND = 1.0 µs`, one processor.
    pub fn paper() -> Self {
        SwitchConfig {
            croute: Time::from_micros(2.7),
            csend: Time::from_micros(1.0),
            processors: 1,
        }
    }

    /// A faster (hardware-assisted or modern-CPU) profile: ten times faster
    /// per-frame processing than the paper's 2008-era PC.
    pub fn fast() -> Self {
        SwitchConfig {
            croute: Time::from_micros(0.27),
            csend: Time::from_micros(0.10),
            processors: 1,
        }
    }

    /// Use `processors` processors (the conclusion's network-processor
    /// scenario).
    pub fn with_processors(mut self, processors: usize) -> Self {
        assert!(processors >= 1, "a switch needs at least one processor");
        self.processors = processors;
        self
    }

    /// Per-frame service cost of one interface's pair of tasks:
    /// `CROUTE + CSEND`.
    pub fn per_interface_cost(&self) -> Time {
        self.croute + self.csend
    }

    /// `CIRC(N)`: the time between two consecutive services of the same task
    /// when the switch has `n_interfaces` network interfaces.
    ///
    /// With one processor this is `NINTERFACES × (CROUTE + CSEND)`; with `m`
    /// processors each processor serves `ceil(NINTERFACES / m)` interfaces.
    pub fn circ(&self, n_interfaces: usize) -> Time {
        let per_processor = n_interfaces.div_ceil(self.processors);
        self.per_interface_cost() * per_processor as u64
    }
}

/// The role of a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An IP end host (e.g. a PC running a video-conferencing application).
    /// End hosts originate and terminate flows; their internal queueing is
    /// outside the operator's control.
    EndHost,
    /// A software-implemented Ethernet switch; the only kind of node that
    /// forwards flows.
    Switch(SwitchConfig),
    /// An IP router connecting the Ethernet network to the wider Internet.
    /// Like end hosts, routers only appear as the first or last node of a
    /// route.
    Router,
}

impl NodeKind {
    /// `true` for Ethernet switches.
    pub fn is_switch(&self) -> bool {
        matches!(self, NodeKind::Switch(_))
    }

    /// The switch configuration, if this node is a switch.
    pub fn switch_config(&self) -> Option<&SwitchConfig> {
        match self {
            NodeKind::Switch(cfg) => Some(cfg),
            _ => None,
        }
    }
}

/// A node of the topology: an id, a kind and a human-readable name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's identifier (its index in the topology).
    pub id: NodeId,
    /// The node's role.
    pub kind: NodeKind,
    /// Human-readable name used in reports.
    pub name: String,
}

impl Node {
    /// `true` if the node is an Ethernet switch.
    pub fn is_switch(&self) -> bool {
        self.kind.is_switch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_circ_is_14_8_us_for_4_interfaces() {
        // The worked example below Figure 5: 4 × (2.7 + 1.0) µs = 14.8 µs.
        let cfg = SwitchConfig::paper();
        assert_eq!(cfg.per_interface_cost(), Time::from_micros(3.7));
        assert_eq!(cfg.circ(4), Time::from_micros(14.8));
    }

    #[test]
    fn conclusion_circ_is_11_1_us_for_48_ports_16_cpus() {
        // The conclusion: 48 ports on 16 processors -> 3 interfaces each ->
        // CIRC = 3 × 3.7 µs = 11.1 µs.
        let cfg = SwitchConfig::paper().with_processors(16);
        assert_eq!(cfg.circ(48), Time::from_micros(11.1));
    }

    #[test]
    fn circ_rounds_interfaces_per_processor_up() {
        let cfg = SwitchConfig::paper().with_processors(4);
        // 10 interfaces on 4 processors: one processor serves 3.
        assert_eq!(cfg.circ(10), Time::from_micros(3.0 * 3.7));
        // Exact division.
        assert_eq!(cfg.circ(8), Time::from_micros(2.0 * 3.7));
    }

    #[test]
    #[should_panic]
    fn zero_processors_rejected() {
        let _ = SwitchConfig::paper().with_processors(0);
    }

    #[test]
    fn fast_profile_is_faster() {
        assert!(SwitchConfig::fast().circ(4) < SwitchConfig::paper().circ(4));
    }

    #[test]
    fn node_kind_queries() {
        assert!(NodeKind::Switch(SwitchConfig::paper()).is_switch());
        assert!(!NodeKind::EndHost.is_switch());
        assert!(!NodeKind::Router.is_switch());
        assert!(NodeKind::Switch(SwitchConfig::paper())
            .switch_config()
            .is_some());
        assert!(NodeKind::EndHost.switch_config().is_none());
        let n = Node {
            id: NodeId(4),
            kind: NodeKind::Switch(SwitchConfig::paper()),
            name: "sw4".into(),
        };
        assert!(n.is_switch());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node7");
    }
}
