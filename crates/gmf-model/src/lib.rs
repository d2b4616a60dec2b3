//! # gmf-model
//!
//! The **generalized multiframe (GMF) traffic model** with generalized
//! jitter, Ethernet packetization and the request-bound functions used by
//! the schedulability analysis of
//!
//! > B. Andersson, *"Schedulability Analysis of Generalized Multiframe
//! > Traffic on Multihop-Networks Comprising Software-Implemented
//! > Ethernet-Switches"*, 2008.
//!
//! A flow [`GmfFlow`] cycles through `n` frames; frame `k` is a UDP packet
//! of `S_i^k` payload bits, arrives at least `T_i^k` before the next frame,
//! must reach its destination within `D_i^k`, and releases its Ethernet
//! frames over a window of `GJ_i^k` (the *generalized jitter*).  Given a
//! link speed, [`LinkDemand`] packetizes every frame ([`encapsulation`]) and
//! provides the paper's request-bound functions `CSUM/NSUM/TSUM`,
//! `MXS/MX` and `NXS/NX`, which are the only interface the analysis crate
//! needs.  Every time is an exact integer count of picoseconds ([`Time`],
//! see [`units`]), so these functions involve no rounding tolerance.
//!
//! ```
//! use gmf_model::prelude::*;
//!
//! // The paper's Figure 3 MPEG stream (IBBPBBPBB, one packet every 30 ms).
//! let flow = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
//! assert_eq!(flow.n_frames(), 9);
//! assert_eq!(flow.tsum(), Time::from_millis(270.0));
//!
//! // Its demand on the paper's 10 Mbit/s first link.
//! let demand = LinkDemand::new(&flow, &EncapsulationConfig::paper(), BitRate::from_mbps(10.0));
//! assert_eq!(demand.nsum(), 94);                       // Ethernet frames per GOP
//! assert_eq!(demand.mft(), Time::from_millis(1.2304)); // eq. (1)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod arrival;
pub mod demand;
pub mod encapsulation;
pub mod error;
pub mod flow;
pub mod frame;
pub mod gop;
pub mod table;
pub mod units;
pub mod voip;

pub use arrival::{dense_trace, dense_trace_with_offsets, ArrivalTrace, PacketArrival};
pub use demand::LinkDemand;
pub use encapsulation::{
    datagram_bits, max_frame_transmission_time, n_ethernet_frames, packetize, transmission_time,
    wire_totals, Encapsulation, EncapsulationConfig, Packetization,
};
pub use error::ModelError;
pub use flow::{FlowId, GmfFlow};
pub use frame::FrameSpec;
pub use gop::{paper_figure3_flow, paper_figure3_pattern, GopFrameType, GopSizes, GopSpec};
pub use table::DemandTable;
pub use units::{BitRate, Bits, Time};
pub use voip::{cbr_flow, conference_flows, voip_flow, VoiceCodec};

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::arrival::{dense_trace, ArrivalTrace, PacketArrival};
    pub use crate::demand::LinkDemand;
    pub use crate::encapsulation::{Encapsulation, EncapsulationConfig};
    pub use crate::flow::{FlowId, GmfFlow};
    pub use crate::frame::FrameSpec;
    pub use crate::gop::{paper_figure3_flow, GopFrameType, GopSizes, GopSpec};
    pub use crate::units::{BitRate, Bits, Time};
    pub use crate::voip::{cbr_flow, voip_flow, VoiceCodec};
}
