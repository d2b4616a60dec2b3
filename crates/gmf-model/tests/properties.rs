//! Property-based tests of the GMF model crate in isolation.

// Test code may unwrap freely; the workspace lint targets library code.
#![allow(clippy::unwrap_used)]

use gmf_model::encapsulation::DATA_BITS_PER_FULL_FRAME;
use gmf_model::prelude::*;
use gmf_model::{packetize, wire_totals, Encapsulation, LinkDemand};
use proptest::prelude::*;

fn arb_frames() -> impl Strategy<Value = Vec<FrameSpec>> {
    prop::collection::vec(
        (64u64..40_000, 1.0f64..200.0, 1.0f64..500.0, 0.0f64..10.0),
        1..=12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(payload, t, d, j)| FrameSpec {
                payload: Bits::from_bytes(payload),
                min_interarrival: Time::from_millis(t),
                deadline: Time::from_millis(d),
                jitter: Time::from_millis(j),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any frame vector drawn from the strategy builds a valid flow whose
    /// aggregates are consistent with the per-frame values.
    #[test]
    fn flow_aggregates_are_consistent(frames in arb_frames()) {
        let n = frames.len();
        let flow = GmfFlow::new("f", frames.clone()).unwrap();
        prop_assert_eq!(flow.n_frames(), n);
        let tsum: Time = frames.iter().map(|f| f.min_interarrival).sum();
        prop_assert_eq!(flow.tsum(), tsum);
        prop_assert!(frames.iter().any(|f| f.payload == flow.max_payload()));
        prop_assert!(flow.min_interarrival() <= frames[0].min_interarrival);
        // Cyclic indexing wraps exactly.
        for k in 0..3 * n {
            prop_assert_eq!(flow.frame_cyclic(k), &frames[k % n]);
        }
        // Windowed TSUM over a full cycle equals TSUM minus the last gap...
        // more robustly: spanning n+1 arrivals covers at least one full cycle.
        prop_assert!(flow.tsum_window(0, n + 1) >= flow.tsum());
    }

    /// The windowed sums of the demand are consistent: a window of k2 frames
    /// equals the sum of the individual frames, and MXS never exceeds both
    /// the window and the total cycle demand plus one window.
    #[test]
    fn windowed_sums_and_mxs(frames in arb_frames(), t_ms in 0.0f64..1_000.0) {
        let flow = GmfFlow::new("f", frames).unwrap();
        let demand = LinkDemand::new(&flow, &EncapsulationConfig::paper(), BitRate::from_mbps(10.0));
        let n = demand.n_frames();
        for k1 in 0..n {
            let mut acc = Time::ZERO;
            let mut eth = 0;
            for k2 in 0..=n {
                prop_assert_eq!(demand.csum_window(k1, k2), acc);
                prop_assert_eq!(demand.nsum_window(k1, k2), eth);
                acc += demand.c(k1 + k2);
                eth += demand.n_ethernet_frames(k1 + k2);
            }
            prop_assert_eq!(demand.csum_window(k1, n), demand.csum());
            prop_assert_eq!(demand.nsum_window(k1, n), demand.nsum());
        }
        let t = Time::from_millis(t_ms);
        prop_assert!(demand.mxs(t) <= t.max(Time::ZERO) || demand.mxs(t) <= demand.csum());
        // One nanosecond of slack absorbs floating-point non-associativity
        // when the residual window covers exactly one whole cycle.
        prop_assert!(
            demand.mx(t) <= demand.csum() * (t.div_floor(demand.tsum()) + 1)
        );
    }

    /// Packetization transmission time equals wire bits divided by speed and
    /// scales inversely with the link speed.
    #[test]
    fn transmission_time_scales_with_speed(payload in 1u64..100_000) {
        let p = packetize(Bits::from_bytes(payload), &EncapsulationConfig::paper());
        let slow = p.transmission_time(BitRate::from_mbps(10.0));
        let fast = p.transmission_time(BitRate::from_mbps(100.0));
        prop_assert_eq!(slow, fast * 10u64);
        let expected = p.total_wire_bits.as_bits() as f64 / 1.0e7;
        prop_assert_eq!(slow, Time::from_secs(expected));
    }

    /// The allocation-free totals `LinkDemand::new` uses equal
    /// `packetize`'s frame count and wire bits, for payloads from zero to
    /// three full frames and for payloads one bit either side of every
    /// full-frame boundary, under UDP and RTP, with and without the
    /// minimum-frame floor.
    #[test]
    fn wire_totals_match_packetize(
        random in 0u64..=3 * DATA_BITS_PER_FULL_FRAME + 1,
        boundary in (0u64..=3, 0u64..3),
        on_boundary in 0u8..2,
        rtp in 0u8..2,
        min_frame in 0u8..2,
    ) {
        let config = EncapsulationConfig {
            encapsulation: if rtp == 1 { Encapsulation::RtpUdp } else { Encapsulation::Udp },
            enforce_min_frame: min_frame == 1,
        };
        // One bit less than, exactly, or one bit more than the payload
        // whose datagram fills `frames` full frames.
        let payload = if on_boundary == 1 {
            let (frames, delta) = boundary;
            (frames * DATA_BITS_PER_FULL_FRAME + delta)
                .saturating_sub(config.encapsulation.header_bits().as_bits() + 1)
        } else {
            random
        };
        let payload = Bits::from_bits(payload);
        let p = packetize(payload, &config);
        prop_assert_eq!(wire_totals(payload, &config), (p.n_ethernet_frames, p.total_wire_bits));
    }

    /// Dense arrival traces respect the declared minimum inter-arrival times
    /// and cycle through the frame indices in order.
    #[test]
    fn dense_trace_respects_min_interarrivals(frames in arb_frames(), horizon_ms in 1.0f64..2_000.0) {
        let flow = GmfFlow::new("f", frames).unwrap();
        let trace = gmf_model::dense_trace(&flow, Time::from_millis(horizon_ms));
        for pair in trace.arrivals().windows(2) {
            let expected_gap = flow.frame_cyclic(pair[0].frame_index).min_interarrival;
            let gap = pair[1].release - pair[0].release;
            prop_assert!(gap >= expected_gap);
            prop_assert_eq!(pair[1].frame_index, (pair[0].frame_index + 1) % flow.n_frames());
            prop_assert_eq!(pair[1].sequence, pair[0].sequence + 1);
        }
        for arrival in trace.arrivals() {
            prop_assert!(arrival.release < Time::from_millis(horizon_ms));
        }
    }
}
