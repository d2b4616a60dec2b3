//! Generalized multiframe flows.
//!
//! A flow `τ_i` releases a (potentially infinite) sequence of UDP packets at
//! its source node.  The sequence cycles through `n_i` frame specifications:
//! after frame `n_i - 1` the flow wraps around to frame `0` again.  This
//! module implements the flow container, its validation, the cyclic-index
//! helpers and the purely time-domain aggregate quantities of the paper:
//!
//! * `TSUM_j` (eq. 6): the length of one full GMF cycle — a lower bound on
//!   the time between two successive requests of the *same* frame;
//! * `TSUM_j(k1, k2)` (eq. 9): the minimum time spanned by `k2` consecutive
//!   frame arrivals starting at frame `k1` (i.e. the sum of the `k2 - 1`
//!   inter-arrival gaps following frame `k1`).
//!
//! The size/time-per-link quantities (`CSUM`, `NSUM`, `MX`, `NX`, …) depend
//! on the link speed and therefore live in [`crate::demand`].

use crate::error::ModelError;
use crate::frame::FrameSpec;
use crate::units::{Bits, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a flow within a flow set.
///
/// Flow ids are dense indices assigned by the container that owns the flows
/// (e.g. `gmf_net::FlowSet`); the model crate treats them as opaque.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(pub usize);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A generalized multiframe flow: a named, validated, cyclic sequence of
/// [`FrameSpec`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GmfFlow {
    /// Human-readable name (used in reports and experiment output).
    name: String,
    /// The cyclic frame tuple; `frames.len()` is the paper's `n_i`.
    frames: Vec<FrameSpec>,
}

impl GmfFlow {
    /// Build a flow from a name and a non-empty list of frames.
    ///
    /// Every frame is validated (positive inter-arrival times and deadlines,
    /// non-negative jitter, non-empty payload).
    pub fn new(name: impl Into<String>, frames: Vec<FrameSpec>) -> Result<Self, ModelError> {
        if frames.is_empty() {
            return Err(ModelError::EmptyFlow);
        }
        for (k, frame) in frames.iter().enumerate() {
            frame.validate(k)?;
        }
        Ok(GmfFlow {
            name: name.into(),
            frames,
        })
    }

    /// Build a sporadic flow (the degenerate GMF flow with a single frame).
    ///
    /// This is the representation used by the sporadic baseline analysis:
    /// a classic sporadic stream with period `period`, payload `payload`
    /// and deadline `deadline`.
    pub fn sporadic(
        name: impl Into<String>,
        payload: Bits,
        period: Time,
        deadline: Time,
        jitter: Time,
    ) -> Result<Self, ModelError> {
        GmfFlow::new(
            name,
            vec![FrameSpec {
                payload,
                min_interarrival: period,
                deadline,
                jitter,
            }],
        )
    }

    /// The flow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `n_i`: the number of frames in the GMF cycle.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// The frame specifications, in cycle order.
    pub fn frames(&self) -> &[FrameSpec] {
        &self.frames
    }

    /// Frame `k` of the cycle (`k < n_frames`), as stored.
    pub fn frame(&self, k: usize) -> Result<&FrameSpec, ModelError> {
        self.frames.get(k).ok_or(ModelError::FrameOutOfRange {
            frame: k,
            n_frames: self.frames.len(),
        })
    }

    /// Frame `k mod n_i` — the cyclic lookup used by the windowed sums.
    pub fn frame_cyclic(&self, k: usize) -> &FrameSpec {
        &self.frames[k % self.frames.len()]
    }

    /// `TSUM_i` (eq. 6): the sum of all minimum inter-arrival times of the
    /// cycle, i.e. a lower bound on the time between two successive requests
    /// of the same frame.
    pub fn tsum(&self) -> Time {
        self.frames.iter().map(|f| f.min_interarrival).sum()
    }

    /// `TSUM_i(k1, k2)` (eq. 9): the minimum time spanned by `k2`
    /// consecutive frame arrivals starting at frame `k1`.
    ///
    /// Note the range: the paper sums the inter-arrival times with indices
    /// `k1 .. k1 + k2 - 2` (inclusive), i.e. the `k2 - 1` gaps *between* the
    /// `k2` arrivals.  `k2 = 0` and `k2 = 1` both give zero.
    pub fn tsum_window(&self, k1: usize, k2: usize) -> Time {
        if k2 <= 1 {
            return Time::ZERO;
        }
        let mut total = Time::ZERO;
        for k in k1..(k1 + k2 - 1) {
            total += self.frame_cyclic(k).min_interarrival;
        }
        total
    }

    /// The largest payload of any frame of the flow.
    pub fn max_payload(&self) -> Bits {
        self.frames
            .iter()
            .map(|f| f.payload)
            .fold(Bits::ZERO, Bits::max)
    }

    /// The total payload of one GMF cycle.
    pub fn total_payload(&self) -> Bits {
        self.frames.iter().map(|f| f.payload).sum()
    }

    /// The smallest minimum inter-arrival time of any frame.
    pub fn min_interarrival(&self) -> Time {
        self.frames
            .iter()
            .map(|f| f.min_interarrival)
            .min()
            // tidy-allow: unwrap invariant: validated flow has at least one frame
            .expect("validated flow has at least one frame")
    }

    /// The smallest relative deadline of any frame.
    pub fn min_deadline(&self) -> Time {
        self.frames
            .iter()
            .map(|f| f.deadline)
            .min()
            // tidy-allow: unwrap invariant: validated flow has at least one frame
            .expect("validated flow has at least one frame")
    }

    /// The largest generalized jitter of any frame at the source
    /// (`max_k GJ_i^k`).
    pub fn max_jitter(&self) -> Time {
        self.frames
            .iter()
            .map(|f| f.jitter)
            .fold(Time::ZERO, Time::max)
    }

    /// Long-run average payload bit rate of the flow
    /// (total cycle payload / cycle length).
    pub fn mean_payload_rate_bps(&self) -> f64 {
        self.total_payload().as_bits() as f64 / self.tsum().as_secs()
    }

    /// Collapse this GMF flow into the sporadic flow that the classic
    /// (non-multiframe) holistic analysis would have to assume: the densest
    /// inter-arrival time paired with the largest payload, the tightest
    /// deadline and the largest jitter.
    ///
    /// The resulting flow upper-bounds the original in every time window, so
    /// analysing it is safe but (often grossly) pessimistic — this is the
    /// baseline the GMF analysis is compared against in experiment E8.
    pub fn to_sporadic_overapproximation(&self) -> GmfFlow {
        GmfFlow {
            name: format!("{}(sporadic)", self.name),
            frames: vec![FrameSpec {
                payload: self.max_payload(),
                min_interarrival: self.min_interarrival(),
                deadline: self.min_deadline(),
                jitter: self.max_jitter(),
            }],
        }
    }

    /// Return a copy of the flow with every frame's generalized jitter set
    /// to `jitter`.
    pub fn with_uniform_jitter(&self, jitter: Time) -> GmfFlow {
        let mut frames = self.frames.clone();
        for f in &mut frames {
            f.jitter = jitter;
        }
        GmfFlow {
            name: self.name.clone(),
            frames,
        }
    }

    /// Return a copy of the flow with every frame's deadline set to
    /// `deadline`.
    pub fn with_uniform_deadline(&self, deadline: Time) -> GmfFlow {
        let mut frames = self.frames.clone();
        for f in &mut frames {
            f.deadline = deadline;
        }
        GmfFlow {
            name: self.name.clone(),
            frames,
        }
    }

    /// Scale every payload by `factor` (rounding to whole bits, at least 1
    /// bit).  Useful for utilization sweeps.
    pub fn with_scaled_payloads(&self, factor: f64) -> GmfFlow {
        assert!(factor > 0.0 && factor.is_finite());
        let mut frames = self.frames.clone();
        for f in &mut frames {
            let scaled = (f.payload.as_bits() as f64 * factor).round().max(8.0) as u64;
            f.payload = Bits::from_bits(scaled);
        }
        GmfFlow {
            name: self.name.clone(),
            frames,
        }
    }
}

impl fmt::Display for GmfFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n={}, TSUM={}, max payload={})",
            self.name,
            self.n_frames(),
            self.tsum(),
            self.max_payload()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-frame flow with distinct parameters for exercising cyclic
    /// indexing: payloads 1000/2000/3000 B, inter-arrivals 10/20/30 ms.
    fn three_frame_flow() -> GmfFlow {
        GmfFlow::new(
            "t",
            vec![
                FrameSpec::from_bytes_ms(1000, 10.0, 100.0),
                FrameSpec::from_bytes_ms(2000, 20.0, 100.0),
                FrameSpec::from_bytes_ms(3000, 30.0, 100.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_flow() {
        assert_eq!(GmfFlow::new("x", vec![]), Err(ModelError::EmptyFlow));
    }

    #[test]
    fn rejects_invalid_frame() {
        let bad = FrameSpec::from_bytes_ms(100, 0.0, 10.0);
        assert!(matches!(
            GmfFlow::new("x", vec![FrameSpec::from_bytes_ms(1, 1.0, 1.0), bad]),
            Err(ModelError::NonPositiveInterArrival { frame: 1, .. })
        ));
    }

    #[test]
    fn basic_accessors() {
        let f = three_frame_flow();
        assert_eq!(f.name(), "t");
        assert_eq!(f.n_frames(), 3);
        assert_eq!(f.frames().len(), 3);
        assert_eq!(f.frame(2).unwrap().payload, Bits::from_bytes(3000));
        assert!(matches!(
            f.frame(3),
            Err(ModelError::FrameOutOfRange {
                frame: 3,
                n_frames: 3
            })
        ));
        assert_eq!(f.frame_cyclic(4).payload, Bits::from_bytes(2000));
        assert_eq!(f.max_payload(), Bits::from_bytes(3000));
        assert_eq!(f.total_payload(), Bits::from_bytes(6000));
        assert_eq!(f.min_interarrival(), Time::from_millis(10.0));
        assert_eq!(f.min_deadline(), Time::from_millis(100.0));
        assert_eq!(f.max_jitter(), Time::ZERO);
    }

    #[test]
    fn tsum_is_cycle_length() {
        let f = three_frame_flow();
        assert_eq!(f.tsum(), Time::from_millis(60.0));
    }

    #[test]
    fn tsum_window_counts_gaps_not_frames() {
        let f = three_frame_flow();
        // One arrival spans zero time.
        assert_eq!(f.tsum_window(0, 0), Time::ZERO);
        assert_eq!(f.tsum_window(2, 1), Time::ZERO);
        // Two arrivals starting at frame 0: the single gap T_0 = 10 ms.
        assert_eq!(f.tsum_window(0, 2), Time::from_millis(10.0));
        // Three arrivals starting at frame 1: gaps T_1 + T_2 = 50 ms.
        assert_eq!(f.tsum_window(1, 3), Time::from_millis(50.0));
        // Wrapping: three arrivals starting at frame 2: T_2 + T_0 = 40 ms.
        assert_eq!(f.tsum_window(2, 3), Time::from_millis(40.0));
        // A full cycle plus one frame: all gaps once plus T_0 again.
        assert_eq!(f.tsum_window(0, 4), Time::from_millis(60.0));
    }

    #[test]
    fn mean_rate_matches_hand_calculation() {
        let f = three_frame_flow();
        // 6000 bytes per 60 ms = 800 kbit/s.
        assert!((f.mean_payload_rate_bps() - 800_000.0).abs() < 1e-6);
    }

    #[test]
    fn sporadic_constructor_and_collapse() {
        let s = GmfFlow::sporadic(
            "voice",
            Bits::from_bytes(160),
            Time::from_millis(20.0),
            Time::from_millis(20.0),
            Time::ZERO,
        )
        .unwrap();
        assert_eq!(s.n_frames(), 1);
        assert_eq!(s.tsum(), Time::from_millis(20.0));

        let f = three_frame_flow();
        let collapsed = f.to_sporadic_overapproximation();
        assert_eq!(collapsed.n_frames(), 1);
        assert_eq!(collapsed.frame(0).unwrap().payload, Bits::from_bytes(3000));
        assert_eq!(
            collapsed.frame(0).unwrap().min_interarrival,
            Time::from_millis(10.0)
        );
        // The collapsed flow is denser: its long-run rate dominates.
        assert!(collapsed.mean_payload_rate_bps() >= f.mean_payload_rate_bps());
    }

    #[test]
    fn uniform_modifiers() {
        let f = three_frame_flow()
            .with_uniform_jitter(Time::from_millis(1.0))
            .with_uniform_deadline(Time::from_millis(42.0));
        assert!(f
            .frames()
            .iter()
            .all(|x| x.jitter == Time::from_millis(1.0)));
        assert!(f
            .frames()
            .iter()
            .all(|x| x.deadline == Time::from_millis(42.0)));
        assert_eq!(f.max_jitter(), Time::from_millis(1.0));
    }

    #[test]
    fn scaled_payloads() {
        let f = three_frame_flow().with_scaled_payloads(0.5);
        assert_eq!(f.frame(0).unwrap().payload, Bits::from_bytes(500));
        assert_eq!(f.frame(2).unwrap().payload, Bits::from_bytes(1500));
        // Scaling never produces an empty payload.
        let tiny = three_frame_flow().with_scaled_payloads(1e-9);
        assert!(tiny.frames().iter().all(|x| !x.payload.is_zero()));
    }

    #[test]
    fn display_contains_name_and_n() {
        let s = format!("{}", three_frame_flow());
        assert!(s.contains('t'));
        assert!(s.contains("n=3"));
    }

    #[test]
    fn serde_roundtrip() {
        let f = three_frame_flow();
        let json = serde_json::to_string(&f).unwrap();
        let back: GmfFlow = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
