//! # switch-sim
//!
//! A **discrete-event simulator of software-implemented Ethernet switches**
//! (Click-style), the experimental substrate of the reproduction: the paper
//! measured its constants on a real Click switch, which we replace by this
//! simulator (see DESIGN.md §2).
//!
//! The simulated system matches the structure the analysis reasons about:
//!
//! * sources release GMF traffic (dense or randomised arrivals, generalized
//!   jitter spreads) from work-conserving FIFO output queues;
//! * switches run one routing task per input interface and one send task
//!   per output interface on a single CPU under non-preemptive round-robin
//!   [`stride`] scheduling with the measured costs `CROUTE`/`CSEND`;
//! * output queues are 802.1p static-priority queues;
//! * links add serialisation and propagation delay;
//! * destinations reassemble UDP packets and record end-to-end response
//!   times;
//! * scripted [`faults`] deterministically take cables down and up and
//!   degrade switch CPUs mid-run, for failure-and-recovery experiments.
//!
//! ```
//! use switch_sim::prelude::*;
//! use gmf_model::prelude::*;
//! use gmf_net::prelude::*;
//!
//! let (topology, net) = paper_figure1();
//! let mut flows = FlowSet::new();
//! let voice = voip_flow("voice", VoiceCodec::G711, Time::from_millis(20.0), Time::ZERO);
//! let route = shortest_path(&topology, net.hosts[1], net.hosts[3]).unwrap();
//! flows.add(voice, route, Priority::HIGHEST);
//!
//! let sim = Simulator::new(&topology, &flows, SimConfig::quick()).unwrap();
//! let result = sim.run().unwrap();
//! assert!(result.stats.packets_completed > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod config;
pub mod event;
pub mod faults;
pub mod nodes;
pub mod packet;
pub mod sim;
pub mod stats;
pub mod stride;

pub use config::{ArrivalPolicy, JitterSpread, SimConfig};
pub use event::{Event, EventInPast, EventKind, EventQueue, QueueShape};
pub use faults::{FaultKind, FaultScript, TransientEvent};
pub use nodes::{EndpointState, PriorityQueue, SwitchState, SwitchTask};
pub use packet::{EthFrame, PacketId};
pub use sim::{SimError, SimulationResult, Simulator};
pub use stats::{PacketSample, ResponseHistogram, ResponseStats, SimStats, MAX_KEPT_SAMPLES};
pub use stride::StrideScheduler;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::config::{ArrivalPolicy, JitterSpread, SimConfig};
    pub use crate::event::QueueShape;
    pub use crate::faults::{FaultKind, FaultScript, TransientEvent};
    pub use crate::sim::{SimError, SimulationResult, Simulator};
    pub use crate::stats::{PacketSample, ResponseHistogram, ResponseStats, SimStats};
    pub use crate::stride::StrideScheduler;
}
