//! Directed point-to-point links.
//!
//! Ethernet switches are connected by full-duplex point-to-point links; the
//! paper models each direction independently (`link(N1,N2)` with a bit rate
//! `linkspeed(N1,N2)` and a propagation delay `prop(N1,N2)`), because each
//! direction has its own output queue at its own sending node.  The
//! topology therefore stores *directed* links and offers a helper to add
//! both directions of a full-duplex cable at once.

use crate::node::NodeId;
use gmf_model::{max_frame_transmission_time, BitRate, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a directed link within a topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// A directed link from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// The link's identifier.
    pub id: LinkId,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// `linkspeed(src, dst)`: the bit rate of the link.
    pub speed: BitRate,
    /// `prop(src, dst)`: the propagation delay of the link.
    pub propagation: Time,
}

impl Link {
    /// `MFT` of this link (eq. 1): the transmission time of one
    /// maximum-size Ethernet frame.
    pub fn mft(&self) -> Time {
        max_frame_transmission_time(self.speed)
    }

    /// The (unordered) endpoints as an ordered pair, useful as a map key for
    /// full-duplex cables.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link({},{}) @ {}", self.src.0, self.dst.0, self.speed)
    }
}

/// Common physical-layer profiles for links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Bit rate of the link.
    pub speed: BitRate,
    /// Propagation delay of the link.
    pub propagation: Time,
}

impl LinkProfile {
    /// 10 Mbit/s Ethernet with 5 µs propagation (≈ 1 km of fibre) — the
    /// access-link speed used in the paper's worked example.
    pub fn ethernet_10m() -> Self {
        LinkProfile {
            speed: BitRate::from_mbps(10.0),
            propagation: Time::from_micros(5.0),
        }
    }

    /// 100 Mbit/s Fast Ethernet with 5 µs propagation.
    pub fn ethernet_100m() -> Self {
        LinkProfile {
            speed: BitRate::from_mbps(100.0),
            propagation: Time::from_micros(5.0),
        }
    }

    /// Gigabit Ethernet with 5 µs propagation.
    pub fn ethernet_1g() -> Self {
        LinkProfile {
            speed: BitRate::from_gbps(1.0),
            propagation: Time::from_micros(5.0),
        }
    }

    /// A metropolitan-area link: 100 Mbit/s with 250 µs propagation
    /// (≈ 50 km of fibre).
    pub fn metro_100m() -> Self {
        LinkProfile {
            speed: BitRate::from_mbps(100.0),
            propagation: Time::from_micros(250.0),
        }
    }

    /// Override the propagation delay.
    pub fn with_propagation(mut self, propagation: Time) -> Self {
        self.propagation = propagation;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mft_matches_paper_value() {
        let link = Link {
            id: LinkId(0),
            src: NodeId(0),
            dst: NodeId(4),
            speed: BitRate::from_mbps(10.0),
            propagation: Time::from_micros(5.0),
        };
        assert_eq!(link.mft(), Time::from_millis(1.2304));
        assert_eq!(link.endpoints(), (NodeId(0), NodeId(4)));
        assert!(link.to_string().contains("link(0,4)"));
    }

    #[test]
    fn profiles_have_expected_speeds() {
        assert_eq!(LinkProfile::ethernet_10m().speed.as_mbps(), 10.0);
        assert_eq!(LinkProfile::ethernet_100m().speed.as_mbps(), 100.0);
        assert_eq!(LinkProfile::ethernet_1g().speed.as_mbps(), 1000.0);
        assert_eq!(
            LinkProfile::metro_100m().propagation,
            Time::from_micros(250.0)
        );
        let p = LinkProfile::ethernet_1g().with_propagation(Time::from_micros(50.0));
        assert_eq!(p.propagation, Time::from_micros(50.0));
    }

    #[test]
    fn link_id_display() {
        assert_eq!(LinkId(3).to_string(), "link3");
    }
}
