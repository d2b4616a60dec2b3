//! Concrete arrival sequences generated from a GMF specification.
//!
//! The GMF model only specifies *lower bounds* on inter-arrival times; a
//! concrete execution (and therefore the discrete-event simulator) needs an
//! actual arrival trace.  This module provides the trace representation and
//! the deterministic generators:
//!
//! * [`dense_trace`] — every frame arrives exactly `T_i^k` after its
//!   predecessor and all Ethernet frames of a packet are released at the
//!   start of the jitter window.  This is the maximum-rate behaviour the
//!   analysis bounds.
//! * [`dense_trace_with_offsets`] — like [`dense_trace`] but with an initial
//!   phase offset and per-packet jitter offsets supplied by the caller
//!   (the simulator uses this to inject randomised jitter).
//!
//! Randomised traces (extra slack between arrivals, random jitter placement)
//! are built on top of these by the `switch-sim` crate, which owns the RNG.

use crate::flow::GmfFlow;
use crate::units::Time;
use serde::{Deserialize, Serialize};

/// One UDP-packet arrival at the source node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketArrival {
    /// Sequence number of the packet within the trace (0, 1, 2, …).
    pub sequence: u64,
    /// Index of the GMF frame this packet instantiates (`sequence mod n`).
    pub frame_index: usize,
    /// Time at which the *first* Ethernet frame of the packet is released.
    pub release: Time,
    /// Width of the release window of the packet's Ethernet frames: all
    /// Ethernet frames are released in `[release, release + jitter_window)`.
    pub jitter_window: Time,
}

/// A finite arrival trace of one flow.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArrivalTrace {
    arrivals: Vec<PacketArrival>,
}

impl ArrivalTrace {
    /// Build a trace from raw arrivals (must be sorted by release time).
    pub fn new(arrivals: Vec<PacketArrival>) -> Self {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].release <= w[1].release),
            "arrival trace must be sorted by release time"
        );
        ArrivalTrace { arrivals }
    }

    /// The arrivals, in release order.
    pub fn arrivals(&self) -> &[PacketArrival] {
        &self.arrivals
    }

    /// Number of packet arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` if the trace contains no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The release time of the last arrival, or zero for an empty trace.
    pub fn span(&self) -> Time {
        self.arrivals
            .last()
            .map(|a| a.release)
            .unwrap_or(Time::ZERO)
    }
}

/// Generate the densest legal arrival trace of `flow` up to (and including
/// arrivals released strictly before) `horizon`.
///
/// The first frame of the cycle arrives at time zero and every subsequent
/// frame arrives exactly its predecessor's minimum inter-arrival time later.
pub fn dense_trace(flow: &GmfFlow, horizon: Time) -> ArrivalTrace {
    dense_trace_with_offsets(flow, horizon, Time::ZERO, |_seq, jitter| jitter)
}

/// Generate a dense trace with an initial phase offset and caller-controlled
/// jitter windows.
///
/// * `phase` shifts every release by a constant.
/// * `jitter_of(sequence, spec_jitter)` returns the effective jitter window
///   of packet `sequence`, given the specification's `GJ_i^k`; the common
///   cases are "use the specification" (identity) and "no jitter"
///   (`|_, _| Time::ZERO`).
pub fn dense_trace_with_offsets(
    flow: &GmfFlow,
    horizon: Time,
    phase: Time,
    mut jitter_of: impl FnMut(u64, Time) -> Time,
) -> ArrivalTrace {
    let mut arrivals = Vec::new();
    let mut release = phase;
    let mut sequence: u64 = 0;
    while release < horizon {
        let frame_index = (sequence as usize) % flow.n_frames();
        let spec = flow.frame_cyclic(frame_index);
        arrivals.push(PacketArrival {
            sequence,
            frame_index,
            release,
            jitter_window: jitter_of(sequence, spec.jitter),
        });
        release += spec.min_interarrival;
        sequence += 1;
    }
    ArrivalTrace::new(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameSpec;

    fn flow() -> GmfFlow {
        GmfFlow::new(
            "t",
            vec![
                FrameSpec::from_bytes_ms(1000, 10.0, 100.0).with_jitter(Time::from_millis(1.0)),
                FrameSpec::from_bytes_ms(2000, 20.0, 100.0),
                FrameSpec::from_bytes_ms(4000, 30.0, 100.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dense_trace_release_times_follow_min_interarrivals() {
        let trace = dense_trace(&flow(), Time::from_millis(125.0));
        // Releases: 0, 10, 30, 60, 70, 90, 120 ms (cycle of 60 ms).
        let expected_ms = [0.0, 10.0, 30.0, 60.0, 70.0, 90.0, 120.0];
        assert_eq!(trace.len(), expected_ms.len());
        for (arrival, &ms) in trace.arrivals().iter().zip(&expected_ms) {
            assert_eq!(arrival.release, Time::from_millis(ms));
        }
        // Frame indices cycle 0,1,2,0,1,2,...
        let idx: Vec<usize> = trace.arrivals().iter().map(|a| a.frame_index).collect();
        assert_eq!(idx, vec![0, 1, 2, 0, 1, 2, 0]);
        // Sequence numbers are consecutive.
        assert!(trace
            .arrivals()
            .iter()
            .enumerate()
            .all(|(i, a)| a.sequence == i as u64));
        // Jitter windows are copied from the specification.
        assert_eq!(trace.arrivals()[0].jitter_window, Time::from_millis(1.0));
        assert_eq!(trace.arrivals()[1].jitter_window, Time::ZERO);
        assert_eq!(trace.span(), Time::from_millis(120.0));
    }

    #[test]
    fn horizon_is_exclusive() {
        let trace = dense_trace(&flow(), Time::from_millis(60.0));
        // Arrival at exactly 60 ms is excluded.
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn empty_horizon_gives_empty_trace() {
        let trace = dense_trace(&flow(), Time::ZERO);
        assert!(trace.is_empty());
        assert_eq!(trace.span(), Time::ZERO);
        assert_eq!(trace.len(), 0);
    }

    #[test]
    fn phase_and_jitter_overrides() {
        let trace = dense_trace_with_offsets(
            &flow(),
            Time::from_millis(40.0),
            Time::from_millis(5.0),
            |seq, _| Time::from_micros(100.0 * seq as f64),
        );
        // Releases at 5, 15 and 35 ms; the next one (65 ms) is past the horizon.
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.arrivals()[0].release, Time::from_millis(5.0));
        assert_eq!(trace.arrivals()[1].release, Time::from_millis(15.0));
        assert_eq!(trace.arrivals()[2].release, Time::from_millis(35.0));
        assert_eq!(trace.arrivals()[2].jitter_window, Time::from_micros(200.0));
    }
}
