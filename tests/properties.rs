//! Property-based integration tests (proptest) on the core invariants of
//! the traffic model and the analysis.

use gmfnet::model::{packetize, EncapsulationConfig, LinkDemand};
use gmfnet::prelude::*;
use proptest::prelude::*;

/// Strategy: an arbitrary (but valid) GMF flow with 1..=8 frames.
fn arb_flow() -> impl Strategy<Value = GmfFlow> {
    prop::collection::vec(
        (
            100u64..60_000, // payload bytes
            5.0f64..100.0,  // min inter-arrival (ms)
            10.0f64..500.0, // deadline (ms)
            0.0f64..5.0,    // jitter (ms)
        ),
        1..=8,
    )
    .prop_map(|frames| {
        let specs = frames
            .into_iter()
            .map(|(payload, t, d, j)| FrameSpec {
                payload: Bits::from_bytes(payload),
                min_interarrival: Time::from_millis(t),
                deadline: Time::from_millis(d),
                jitter: Time::from_millis(j),
            })
            .collect();
        GmfFlow::new("prop-flow", specs).expect("generated frames are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packetization: fragment count and wire size are consistent with the
    /// Ethernet constants for any payload.
    #[test]
    fn packetization_invariants(payload_bytes in 1u64..200_000) {
        let p = packetize(Bits::from_bytes(payload_bytes), &EncapsulationConfig::paper());
        // At least one fragment; every fragment within the legal wire size.
        prop_assert!(p.n_ethernet_frames >= 1);
        prop_assert_eq!(p.n_ethernet_frames as usize, p.frame_wire_bits.len());
        for &wire in &p.frame_wire_bits {
            prop_assert!(wire.as_bits() <= 12304);
            prop_assert!(wire.as_bits() > 464);
        }
        // Total wire bits exceed the datagram (headers add overhead) but by
        // at most 464 bits per fragment.
        let datagram = p.datagram_bits.as_bits();
        let total = p.total_wire_bits.as_bits();
        prop_assert!(total >= datagram);
        prop_assert!(total <= datagram + 464 * p.n_ethernet_frames + 672);
        // Fragment count matches the closed-form ceiling.
        prop_assert_eq!(p.n_ethernet_frames, datagram.div_ceil(11840));
    }

    /// MX and NX are monotone in the window length and consistent with the
    /// whole-cycle aggregates — the property the fixed-point iterations of
    /// the analysis rely on.
    #[test]
    fn request_bound_functions_are_monotone(flow in arb_flow(), windows in prop::collection::vec(0.0f64..2_000.0, 1..20)) {
        let demand = LinkDemand::new(&flow, &EncapsulationConfig::paper(), BitRate::from_mbps(100.0));
        let mut sorted = windows.clone();
        sorted.sort_by(f64::total_cmp);
        let mut prev_mx = Time::ZERO;
        let mut prev_nx = 0u64;
        for ms in sorted {
            let t = Time::from_millis(ms);
            let mx = demand.mx(t);
            let nx = demand.nx(t);
            prop_assert!(mx >= prev_mx, "MX must be monotone");
            prop_assert!(nx >= prev_nx, "NX must be monotone");
            // MX never exceeds the window itself plus whole cycles' worth of
            // transmission time, and never exceeds demand at full rate.
            prop_assert!(mx <= t + demand.csum());
            // NX is bounded by the number of cycles (+1) times NSUM.
            let cycles = t.div_ceil(demand.tsum()) + 1;
            prop_assert!(nx <= cycles * demand.nsum());
            prev_mx = mx;
            prev_nx = nx;
        }
        // Whole-cycle consistency.
        prop_assert_eq!(demand.mx(demand.tsum()), demand.csum());
        prop_assert_eq!(demand.nx(demand.tsum()), demand.nsum());
    }

    /// The sporadic over-approximation dominates the original flow in the
    /// long run and, window by window, up to one frame of slack.
    ///
    /// Exact pointwise domination of MX/NX does not hold at windows that are
    /// exact multiples of the collapsed period (the paper's MXS counts an
    /// arrival landing on the window edge, while the whole-cycle term of MX
    /// does not), so the per-window comparison allows one maximal frame.
    #[test]
    fn sporadic_collapse_dominates(flow in arb_flow(), windows in prop::collection::vec(0.1f64..1_000.0, 1..10)) {
        let cfg = EncapsulationConfig::paper();
        let speed = BitRate::from_mbps(100.0);
        let original = LinkDemand::new(&flow, &cfg, speed);
        let collapsed = LinkDemand::new(&flow.to_sporadic_overapproximation(), &cfg, speed);
        prop_assert!(collapsed.utilization() + 1e-12 >= original.utilization());
        prop_assert!(collapsed.max_c() >= original.max_c());
        for ms in windows {
            let t = Time::from_millis(ms);
            prop_assert!(
                collapsed.mx(t) + collapsed.max_c() >= original.mx(t)
            );
            prop_assert!(
                collapsed.nx(t) + collapsed.max_n_ethernet_frames() >= original.nx(t)
            );
        }
    }

    /// An isolated flow on a private two-hop path is always schedulable when
    /// its deadlines are generous, and the end-to-end bound grows with the
    /// payload.
    #[test]
    fn isolated_flow_bounds_scale_with_payload(payload in 500u64..30_000, period_ms in 20.0f64..80.0) {
        let mut topology = Topology::new();
        let a = topology.add_end_host("a");
        let sw = topology.add_switch(SwitchConfig::paper(), "sw");
        let b = topology.add_end_host("b");
        topology.add_duplex_link(a, sw, LinkProfile::ethernet_100m()).unwrap();
        topology.add_duplex_link(sw, b, LinkProfile::ethernet_100m()).unwrap();

        let mk = |bytes: u64| {
            let mut flows = FlowSet::new();
            let flow = cbr_flow("cbr", bytes, Time::from_millis(period_ms), Time::from_millis(500.0), Time::ZERO);
            let route = shortest_path(&topology, a, b).unwrap();
            flows.add(flow, route, Priority(7));
            flows
        };
        let small = analyze(&topology, &mk(payload), &AnalysisConfig::paper()).unwrap();
        let large = analyze(&topology, &mk(payload * 2), &AnalysisConfig::paper()).unwrap();
        prop_assert!(small.schedulable);
        prop_assert!(large.schedulable);
        prop_assert!(large.worst_bound().unwrap() >= small.worst_bound().unwrap());
    }
}
