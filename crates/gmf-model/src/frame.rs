//! A single frame of a generalized multiframe flow.
//!
//! In the GMF model a flow cycles through `n` *frames* (not to be confused
//! with Ethernet frames).  Frame `k` of flow `τ_i` is characterised by four
//! scalars, which the paper stores in four parallel tuples `T_i`, `D_i`,
//! `GJ_i` and `S_i`:
//!
//! * `S_i^k` — the payload size of the UDP packet released by the frame,
//! * `T_i^k` — the minimum time between the arrival of frame `k` and the
//!   arrival of frame `k+1` at the source node,
//! * `D_i^k` — the relative deadline: frame `k` must reach the destination
//!   within `D_i^k` of its arrival at the source,
//! * `GJ_i^k` — the *generalized jitter*: if the first Ethernet frame of
//!   frame `k` is released at time `t`, all Ethernet frames of the frame are
//!   released during `[t, t + GJ_i^k)`.
//!
//! We group the four scalars of one frame into a [`FrameSpec`] struct; a
//! [`crate::flow::GmfFlow`] is then a cyclic sequence of `FrameSpec`s.

use crate::error::ModelError;
use crate::units::{Bits, Time};
use serde::{Deserialize, Serialize};

/// The specification of one frame (one UDP packet class) of a GMF flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameSpec {
    /// `S_i^k`: number of bits of application payload carried by the UDP
    /// packet of this frame (excluding UDP/RTP/IP/Ethernet headers).
    pub payload: Bits,
    /// `T_i^k`: minimum inter-arrival time between this frame and the next
    /// frame of the flow at the source node.
    pub min_interarrival: Time,
    /// `D_i^k`: relative end-to-end deadline of this frame.
    pub deadline: Time,
    /// `GJ_i^k`: generalized jitter of this frame at the source node.
    pub jitter: Time,
}

impl FrameSpec {
    /// Create a frame specification.
    ///
    /// This does not validate the values; validation happens when the frame
    /// is assembled into a [`crate::flow::GmfFlow`] (or explicitly via
    /// [`FrameSpec::validate`]).
    pub fn new(payload: Bits, min_interarrival: Time, deadline: Time, jitter: Time) -> Self {
        FrameSpec {
            payload,
            min_interarrival,
            deadline,
            jitter,
        }
    }

    /// Convenience constructor for a frame with payload given in bytes and
    /// times in milliseconds, with zero generalized jitter.
    pub fn from_bytes_ms(payload_bytes: u64, min_interarrival_ms: f64, deadline_ms: f64) -> Self {
        FrameSpec {
            payload: Bits::from_bytes(payload_bytes),
            min_interarrival: Time::from_millis(min_interarrival_ms),
            deadline: Time::from_millis(deadline_ms),
            jitter: Time::ZERO,
        }
    }

    /// Return a copy of this frame with the given generalized jitter.
    pub fn with_jitter(mut self, jitter: Time) -> Self {
        self.jitter = jitter;
        self
    }

    /// Return a copy of this frame with the given relative deadline.
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = deadline;
        self
    }

    /// Check that the frame parameters are physically meaningful.
    ///
    /// `frame_index` is only used to produce a useful error message.
    pub fn validate(&self, frame_index: usize) -> Result<(), ModelError> {
        if self.payload.is_zero() {
            return Err(ModelError::EmptyPayload { frame: frame_index });
        }
        if self.min_interarrival <= Time::ZERO {
            return Err(ModelError::NonPositiveInterArrival {
                frame: frame_index,
                value: self.min_interarrival,
            });
        }
        if self.deadline <= Time::ZERO {
            return Err(ModelError::NonPositiveDeadline {
                frame: frame_index,
                value: self.deadline,
            });
        }
        if self.jitter.is_negative() {
            return Err(ModelError::NegativeJitter {
                frame: frame_index,
                value: self.jitter,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> FrameSpec {
        FrameSpec::from_bytes_ms(1500, 30.0, 100.0)
    }

    #[test]
    fn from_bytes_ms_sets_fields() {
        let f = valid();
        assert_eq!(f.payload, Bits::from_bytes(1500));
        assert_eq!(f.min_interarrival, Time::from_millis(30.0));
        assert_eq!(f.deadline, Time::from_millis(100.0));
        assert_eq!(f.jitter, Time::ZERO);
    }

    #[test]
    fn builders_replace_fields() {
        let f = valid()
            .with_jitter(Time::from_millis(1.0))
            .with_deadline(Time::from_millis(50.0));
        assert_eq!(f.jitter, Time::from_millis(1.0));
        assert_eq!(f.deadline, Time::from_millis(50.0));
    }

    #[test]
    fn validate_accepts_valid_frame() {
        assert!(valid().validate(0).is_ok());
    }

    #[test]
    fn validate_rejects_zero_payload() {
        let mut f = valid();
        f.payload = Bits::ZERO;
        assert_eq!(f.validate(2), Err(ModelError::EmptyPayload { frame: 2 }));
    }

    #[test]
    fn validate_rejects_non_positive_interarrival() {
        let mut f = valid();
        f.min_interarrival = Time::ZERO;
        assert!(matches!(
            f.validate(1),
            Err(ModelError::NonPositiveInterArrival { frame: 1, .. })
        ));
        f.min_interarrival = Time::from_millis(-5.0);
        assert!(matches!(
            f.validate(1),
            Err(ModelError::NonPositiveInterArrival { .. })
        ));
    }

    #[test]
    fn validate_rejects_non_positive_deadline() {
        let mut f = valid();
        f.deadline = Time::ZERO;
        assert!(matches!(
            f.validate(0),
            Err(ModelError::NonPositiveDeadline { .. })
        ));
    }

    #[test]
    fn validate_rejects_negative_jitter() {
        let mut f = valid();
        f.jitter = Time::from_millis(-1.0);
        assert!(matches!(
            f.validate(0),
            Err(ModelError::NegativeJitter { .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let f = valid().with_jitter(Time::from_millis(1.0));
        let json = serde_json::to_string(&f).unwrap();
        let back: FrameSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
