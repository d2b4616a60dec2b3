//! Per-link demand of a GMF flow: the request-bound machinery of the paper.
//!
//! Once a flow's frames have been packetized for a specific link (known
//! speed), the analysis only ever needs the following quantities, all
//! defined in the paper's "Basic parameters" section:
//!
//! | Paper | Here | Meaning |
//! |-------|------|---------|
//! | `C_i^k,link` | [`LinkDemand::c`] | transmission time of frame `k` on the link |
//! | `CSUM_j^link` (eq. 4) | [`LinkDemand::csum`] | total transmission time of one GMF cycle |
//! | `NSUM_j^link` (eq. 5) | [`LinkDemand::nsum`] | total number of Ethernet frames of one GMF cycle |
//! | `TSUM_j` (eq. 6) | [`LinkDemand::tsum`] | length of one GMF cycle |
//! | `CSUM_j(k1,k2)` (eq. 7) | [`LinkDemand::csum_window`] | transmission time of `k2` consecutive frames starting at `k1` |
//! | `NSUM_j(k1,k2)` (eq. 8) | [`LinkDemand::nsum_window`] | Ethernet frames of `k2` consecutive frames starting at `k1` |
//! | `TSUM_j(k1,k2)` (eq. 9) | [`LinkDemand::tsum_window`] | minimum span of `k2` consecutive arrivals starting at `k1` |
//! | `MXS` (eq. 10) / `MX` (eq. 11) | [`LinkDemand::mxs`] / [`LinkDemand::mx`] | upper bound on link time used by the flow in a window |
//! | `NXS` (eq. 12) / `NX` (eq. 13) | [`LinkDemand::nxs`] / [`LinkDemand::nx`] | upper bound on Ethernet frames received from the flow in a window |
//! | `MFT` (eq. 1) | [`LinkDemand::mft`] | maximum-frame-transmission time of the link |
//!
//! A [`LinkDemand`] depends on a link only through its speed — the analysis
//! builds one for every (flow, link speed) pair along every route.

use crate::encapsulation::{max_frame_transmission_time, wire_totals, EncapsulationConfig};
use crate::flow::GmfFlow;
use crate::units::{BitRate, Time};
use serde::{Deserialize, Serialize};

/// The per-link request-bound description of one GMF flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkDemand {
    /// Every frame of the cycle on this link, in cycle order.
    frames: Vec<FrameDemand>,
    /// `CSUM`: sum of the frames' `c`.
    csum: Time,
    /// `NSUM`: sum of the frames' `n_eth`.
    nsum: u64,
    /// `TSUM`: sum of the frames' `t`.
    tsum: Time,
    /// `MFT` of the link.
    mft: Time,
    /// The link speed the demand was computed for.
    speed: BitRate,
}

/// One frame of the cycle on the link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FrameDemand {
    /// Transmission time `C_i^k` on this link.
    c: Time,
    /// Number of Ethernet frames.
    n_eth: u64,
    /// Minimum inter-arrival time `T_i^k` (copied from the flow).
    t: Time,
}

impl LinkDemand {
    /// Build the per-link demand of `flow` on a link of speed `speed` under
    /// the given packetization configuration.
    ///
    /// Only each frame's Ethernet-frame count and wire bits matter here,
    /// so they come from [`wire_totals`] rather than a full
    /// [`crate::packetize`] listing.
    pub fn new(flow: &GmfFlow, config: &EncapsulationConfig, speed: BitRate) -> Self {
        let frames: Vec<FrameDemand> = flow
            .frames()
            .iter()
            .map(|frame| {
                let (n_eth, wire) = wire_totals(frame.payload, config);
                FrameDemand {
                    c: speed.transmission_time(wire),
                    n_eth,
                    t: frame.min_interarrival,
                }
            })
            .collect();
        let csum = frames.iter().map(|f| f.c).sum();
        let nsum = frames.iter().map(|f| f.n_eth).sum();
        let tsum = frames.iter().map(|f| f.t).sum();
        LinkDemand {
            frames,
            csum,
            nsum,
            tsum,
            mft: max_frame_transmission_time(speed),
            speed,
        }
    }

    /// Number of frames in the GMF cycle.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// Frame `k` of the cycle (cyclic).
    fn frame(&self, k: usize) -> &FrameDemand {
        &self.frames[k % self.frames.len()]
    }

    /// `C_i^k`: transmission time of frame `k` on this link.
    pub fn c(&self, k: usize) -> Time {
        self.frame(k).c
    }

    /// Number of Ethernet frames of frame `k`.
    pub fn n_ethernet_frames(&self, k: usize) -> u64 {
        self.frame(k).n_eth
    }

    /// Minimum inter-arrival time `T_i^k`.
    pub fn t(&self, k: usize) -> Time {
        self.frame(k).t
    }

    /// The largest per-frame transmission time of the cycle.
    pub fn max_c(&self) -> Time {
        self.frames.iter().map(|f| f.c).fold(Time::ZERO, Time::max)
    }

    /// The largest per-frame Ethernet-frame count of the cycle.
    pub fn max_n_ethernet_frames(&self) -> u64 {
        self.frames.iter().map(|f| f.n_eth).max().unwrap_or(0)
    }

    /// `CSUM` (eq. 4).
    pub fn csum(&self) -> Time {
        self.csum
    }

    /// `NSUM` (eq. 5).
    pub fn nsum(&self) -> u64 {
        self.nsum
    }

    /// `TSUM` (eq. 6).
    pub fn tsum(&self) -> Time {
        self.tsum
    }

    /// `MFT` (eq. 1) of the link this demand was computed for.
    pub fn mft(&self) -> Time {
        self.mft
    }

    /// The link speed this demand was computed for.
    pub fn speed(&self) -> BitRate {
        self.speed
    }

    /// Long-run fraction of the link used by the flow: `CSUM / TSUM`.
    ///
    /// This is the quantity summed in the schedulability conditions
    /// (20), (34) and (35).
    // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
    pub fn utilization(&self) -> f64 {
        self.csum / self.tsum
    }

    /// `CSUM(k1, k2)` (eq. 7): total transmission time of `k2` consecutive
    /// frames starting at frame `k1` (cyclic).
    pub fn csum_window(&self, k1: usize, k2: usize) -> Time {
        let mut total = Time::ZERO;
        for k in k1..(k1 + k2) {
            total += self.c(k);
        }
        total
    }

    /// `NSUM(k1, k2)` (eq. 8): total number of Ethernet frames of `k2`
    /// consecutive frames starting at frame `k1` (cyclic).
    pub fn nsum_window(&self, k1: usize, k2: usize) -> u64 {
        let mut total = 0;
        for k in k1..(k1 + k2) {
            total += self.n_ethernet_frames(k);
        }
        total
    }

    /// `TSUM(k1, k2)` (eq. 9): minimum span of `k2` consecutive arrivals
    /// starting at frame `k1` — the sum of the `k2 - 1` gaps between them.
    pub fn tsum_window(&self, k1: usize, k2: usize) -> Time {
        if k2 <= 1 {
            return Time::ZERO;
        }
        let mut total = Time::ZERO;
        for k in k1..(k1 + k2 - 1) {
            total += self.t(k);
        }
        total
    }

    /// `MXS(τ_j, N1, N2, t)` (eq. 10): upper bound on the link time used by
    /// the flow in a window of length `t`, for `0 < t < TSUM`.
    ///
    /// The bound maximises, over every starting frame `k1` and every number
    /// of consecutive frames `k2` whose minimum arrival span fits in the
    /// window (`TSUM(k1,k2) <= t`), the transmission time of those frames —
    /// capped at `t` itself (the flow cannot use more link time than the
    /// window length).
    pub fn mxs(&self, t: Time) -> Time {
        if t <= Time::ZERO {
            return Time::ZERO;
        }
        let n = self.n_frames();
        let mut best = Time::ZERO;
        for k1 in 0..n {
            for k2 in 1..=n {
                if self.tsum_window(k1, k2) <= t {
                    let candidate = self.csum_window(k1, k2).min(t);
                    best = best.max(candidate);
                } else {
                    // TSUM(k1, k2) is non-decreasing in k2, so no larger k2
                    // can satisfy the constraint either.
                    break;
                }
            }
        }
        best
    }

    /// `MX(τ_j, N1, N2, t)` (eq. 11): upper bound on the link time used by
    /// the flow in a window of length `t`, defined for all `t`.
    ///
    /// Whole GMF cycles contribute `CSUM` each; the residual window is
    /// bounded by [`LinkDemand::mxs`].
    pub fn mx(&self, t: Time) -> Time {
        if t <= Time::ZERO {
            return Time::ZERO;
        }
        let cycles = t.div_floor(self.tsum);
        let residual = t - self.tsum * cycles;
        self.csum * cycles + self.mxs(residual)
    }

    /// `NXS(τ_j, N1, N2, t)` (eq. 12): upper bound on the number of Ethernet
    /// frames received from the flow in a window of length `t`, for
    /// `0 < t < TSUM`.
    pub fn nxs(&self, t: Time) -> u64 {
        if t <= Time::ZERO {
            return 0;
        }
        let n = self.n_frames();
        let mut best = 0;
        for k1 in 0..n {
            for k2 in 1..=n {
                if self.tsum_window(k1, k2) <= t {
                    best = best.max(self.nsum_window(k1, k2));
                } else {
                    break;
                }
            }
        }
        best
    }

    /// `NX(τ_j, N1, N2, t)` (eq. 13): upper bound on the number of Ethernet
    /// frames received from the flow in a window of length `t`, defined for
    /// all `t`.
    pub fn nx(&self, t: Time) -> u64 {
        if t <= Time::ZERO {
            return 0;
        }
        let cycles = t.div_floor(self.tsum);
        let residual = t - self.tsum * cycles;
        // Saturating on the frame *count* keeps the bound conservative and,
        // under the `release-checked` profile, is what keeps a pathological
        // window from wrapping u64 silently.
        self.nsum
            .saturating_mul(cycles)
            .saturating_add(self.nxs(residual))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameSpec;
    use crate::units::Bits;

    /// A 3-frame flow on a 10 Mbit/s link, small enough to hand-check.
    ///
    /// Payloads 1000 / 2000 / 4000 bytes, inter-arrivals 10 / 20 / 30 ms.
    /// Under the paper's packetization (plain UDP, no minimum-frame floor):
    ///  * 1000 B -> 1008 B datagram -> 1 fragment,  8064 + 464  =  8528 bit
    ///  * 2000 B -> 2008 B datagram -> 2 fragments, 12304 + (16064-11840+464) = 12304 + 4688 = 16992 bit
    ///  * 4000 B -> 4008 B datagram -> 3 fragments, 2*12304 + 8848 = 33456 bit
    fn demand() -> LinkDemand {
        let flow = GmfFlow::new(
            "t",
            vec![
                FrameSpec::from_bytes_ms(1000, 10.0, 100.0),
                FrameSpec::from_bytes_ms(2000, 20.0, 100.0),
                FrameSpec::from_bytes_ms(4000, 30.0, 100.0),
            ],
        )
        .unwrap();
        LinkDemand::new(
            &flow,
            &EncapsulationConfig::paper(),
            BitRate::from_mbps(10.0),
        )
    }

    const S: f64 = 1e7; // link speed in bit/s for hand calculations

    #[test]
    fn per_frame_transmission_times() {
        let d = demand();
        assert_eq!(d.n_frames(), 3);
        assert_eq!(d.c(0), Time::from_secs(8528.0 / S));
        assert_eq!(d.c(1), Time::from_secs(16992.0 / S));
        assert_eq!(d.c(2), Time::from_secs(33456.0 / S));
        // Cyclic indexing.
        assert_eq!(d.c(3), d.c(0));
        assert_eq!(d.n_ethernet_frames(0), 1);
        assert_eq!(d.n_ethernet_frames(1), 2);
        assert_eq!(d.n_ethernet_frames(2), 3);
        assert_eq!(d.n_ethernet_frames(5), 3);
        assert_eq!(d.t(1), Time::from_millis(20.0));
        assert_eq!(d.max_c(), d.c(2));
        assert_eq!(d.max_n_ethernet_frames(), 3);
    }

    #[test]
    fn aggregate_sums() {
        let d = demand();
        assert_eq!(d.csum(), Time::from_secs((8528.0 + 16992.0 + 33456.0) / S));
        assert_eq!(d.nsum(), 6);
        assert_eq!(d.tsum(), Time::from_millis(60.0));
        assert_eq!(d.mft(), Time::from_millis(1.2304));
        assert!((d.utilization() - d.csum().as_secs() / 0.060).abs() < 1e-12);
        assert_eq!(d.speed().as_bps(), S);
    }

    #[test]
    fn nsum_equals_ceil_c_over_mft() {
        // Equation (5) defines NSUM as the sum of ceil(C_k / MFT); our
        // implementation counts actual Ethernet fragments.  The two must
        // agree (and do, because a partial fragment always costs less wire
        // time than a full one).
        let d = demand();
        let by_ceil: u64 = (0..d.n_frames())
            .map(|k| (d.c(k).as_secs() / d.mft().as_secs()).ceil() as u64)
            .sum();
        assert_eq!(by_ceil, d.nsum());
    }

    #[test]
    fn windowed_sums_wrap_around() {
        let d = demand();
        assert_eq!(d.csum_window(0, 0), Time::ZERO);
        assert_eq!(d.csum_window(2, 2), d.c(2) + d.c(0));
        assert_eq!(d.nsum_window(1, 3), 2 + 3 + 1);
        assert_eq!(d.tsum_window(2, 2), Time::from_millis(30.0));
        assert_eq!(d.tsum_window(0, 3), Time::from_millis(30.0));
        assert_eq!(d.tsum_window(0, 1), Time::ZERO);
    }

    #[test]
    fn mxs_small_windows() {
        let d = demand();
        // A window shorter than any single C is bounded by the window itself.
        let tiny = Time::from_micros(100.0);
        assert_eq!(d.mxs(tiny), tiny);
        // A window of 1 ms fits no second arrival (smallest gap is 10 ms) so
        // the bound is the largest single-frame C capped at t; C_2 = 3.3456 ms
        // exceeds 1 ms so the cap applies.
        assert_eq!(d.mxs(Time::from_millis(1.0)), Time::from_millis(1.0));
        // A 5 ms window: the largest single C (3.3456 ms) fits uncapped.
        assert_eq!(d.mxs(Time::from_millis(5.0)), d.c(2));
        // Zero or negative windows contribute nothing.
        assert_eq!(d.mxs(Time::ZERO), Time::ZERO);
        assert_eq!(d.mxs(Time::from_millis(-3.0)), Time::ZERO);
    }

    #[test]
    fn mxs_multi_frame_windows() {
        let d = demand();
        // 25 ms window: the best placement is arrivals of frames {1, 2}
        // (span T_1 = 20 ms <= 25 ms), giving C_1 + C_2; the full cycle needs
        // a 30 ms span and does not fit.
        let expected = d.c(1) + d.c(2);
        assert_eq!(d.mxs(Time::from_millis(25.0)), expected);
        // 30 ms window: arrivals of the whole cycle starting at frame 0 span
        // T_0 + T_1 = 30 ms <= 30 ms, so the bound is the full CSUM.
        assert_eq!(d.mxs(Time::from_millis(30.0)), d.csum());
        // 29 ms window: the whole cycle no longer fits; {1, 2} is best again.
        assert_eq!(d.mxs(Time::from_millis(29.0)), expected);
    }

    #[test]
    fn mx_splices_whole_cycles() {
        let d = demand();
        // Exactly one cycle: CSUM + MXS(0) = CSUM.
        assert_eq!(d.mx(d.tsum()), d.csum());
        // One cycle plus 5 ms: CSUM + MXS(5 ms).
        let t = d.tsum() + Time::from_millis(5.0);
        assert_eq!(d.mx(t), d.csum() + d.mxs(Time::from_millis(5.0)));
        // Ten cycles.
        assert_eq!(d.mx(d.tsum() * 10u64), d.csum() * 10u64);
        // Sub-cycle windows fall through to MXS.
        assert_eq!(d.mx(Time::from_millis(5.0)), d.mxs(Time::from_millis(5.0)));
        assert_eq!(d.mx(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn nxs_and_nx() {
        let d = demand();
        // Any positive window catches at least the densest single frame.
        assert_eq!(d.nxs(Time::from_micros(1.0)), 3);
        // 25 ms window: frames {1, 2} -> 5 Ethernet frames.
        assert_eq!(d.nxs(Time::from_millis(25.0)), 5);
        // 30 ms window: the whole cycle fits -> 6.
        assert_eq!(d.nxs(Time::from_millis(30.0)), 6);
        assert_eq!(d.nxs(Time::ZERO), 0);
        // NX over two cycles plus a bit.
        let t = d.tsum() * 2u64 + Time::from_millis(1.0);
        assert_eq!(d.nx(t), 2 * 6 + d.nxs(Time::from_millis(1.0)));
        assert_eq!(d.nx(Time::ZERO), 0);
    }

    #[test]
    fn mx_is_monotone_in_t() {
        let d = demand();
        let mut prev = Time::ZERO;
        for i in 0..400 {
            let t = Time::from_millis(0.5 * i as f64);
            let v = d.mx(t);
            assert!(
                v >= prev,
                "MX must be monotone: MX({t}) = {v} < previous {prev}"
            );
            prev = v;
        }
    }

    #[test]
    fn nx_is_monotone_in_t() {
        let d = demand();
        let mut prev = 0;
        for i in 0..400 {
            let t = Time::from_millis(0.5 * i as f64);
            let v = d.nx(t);
            assert!(v >= prev, "NX must be monotone");
            prev = v;
        }
    }

    #[test]
    fn sporadic_flow_mx_matches_classic_request_bound() {
        // For a single-frame (sporadic) flow, NX(t) should match the classic
        // ceil(t / T) request bound for t that are not exact multiples of T,
        // and MX(t) = NX-like count * C capped by the window at the tail.
        let flow = GmfFlow::sporadic(
            "s",
            Bits::from_bytes(1000),
            Time::from_millis(10.0),
            Time::from_millis(10.0),
            Time::ZERO,
        )
        .unwrap();
        let d = LinkDemand::new(
            &flow,
            &EncapsulationConfig::paper(),
            BitRate::from_mbps(10.0),
        );
        let c = d.c(0);
        // t = 25 ms: floor(25/10) = 2 cycles + MXS(5ms) = 2C + C = 3C
        // (classic ceil(25/10) = 3 jobs).
        assert_eq!(d.mx(Time::from_millis(25.0)), c * 3u64);
        assert_eq!(d.nx(Time::from_millis(25.0)), 3);
        // t barely above zero: the request bound still counts one job, MX is
        // capped by the window length.
        assert_eq!(d.nx(Time::from_micros(1.0)), 1);
    }
}
