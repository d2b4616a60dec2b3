//! Property tests pinning the byte-identity of the precompiled
//! [`DemandTable`] against the closed-form request bounds of
//! [`LinkDemand`] — the correctness contract of the per-frame analysis
//! kernels.
//!
//! Every assertion is exact equality on the raw values: the table is
//! required to be *bit-identical* to the `O(n³)` double loops it
//! replaces, not merely within tolerance, because the busy-period fixed
//! points compare iterates with an epsilon and any drift would change
//! convergence behaviour.  The sweep covers random GMF flows, the VoIP
//! and MPEG generator families, random horizons across several cycles,
//! and the near-`Time::MAX` saturation sentinels.

use gmfnet::model::{DemandTable, LinkDemand};
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

/// Strategy: one of the real traffic families the experiments use — a
/// VoIP codec stream or the paper's Figure 3 MPEG GOP.
fn arb_family_flow() -> impl Strategy<Value = GmfFlow> {
    (0usize..5, 50.0f64..400.0, 0.0f64..4.0).prop_map(|(pick, deadline, jitter)| {
        let codec = match pick {
            0 => VoiceCodec::G711,
            1 => VoiceCodec::G726,
            2 => VoiceCodec::G729,
            3 => VoiceCodec::G7231,
            _ => {
                return paper_figure3_flow(
                    "prop-mpeg",
                    Time::from_millis(deadline),
                    Time::from_millis(jitter),
                )
            }
        };
        voip_flow(
            "prop-voip",
            codec,
            Time::from_millis(20.0),
            Time::from_millis(jitter.min(1.0)),
        )
    })
}

/// The table and the closed forms must agree bit-for-bit — aggregates and
/// all four request bounds — at every probe.
fn assert_table_matches(demand: &LinkDemand, probes: impl IntoIterator<Item = Time>) {
    let table = DemandTable::new(demand);
    assert_eq!(table.csum(), demand.csum());
    assert_eq!(table.nsum(), demand.nsum());
    assert_eq!(table.tsum(), demand.tsum());
    for t in probes {
        assert_eq!(table.mxs(t), demand.mxs(t), "mxs at {t:?}");
        assert_eq!(table.nxs(t), demand.nxs(t), "nxs at {t:?}");
        assert_eq!(table.mx(t), demand.mx(t), "mx at {t:?}");
        assert_eq!(table.nx(t), demand.nx(t), "nx at {t:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Table lookups equal the closed forms bit-for-bit over random GMF
    /// flows × random horizons, with probes placed both at arbitrary
    /// points and exactly on every window-span boundary (the binary
    /// search's edge cases).
    #[test]
    fn table_matches_closed_forms_on_random_flows(
        flow in arb_flow(),
        windows in prop::collection::vec(0.0f64..2_000.0, 1..24),
        rate_pick in 0usize..3,
    ) {
        let rate_mbps = [10.0, 100.0, 1000.0][rate_pick];
        let demand = LinkDemand::new(&flow, &EncapsulationConfig::paper(), BitRate::from_mbps(rate_mbps));
        let mut probes: Vec<Time> = windows.into_iter().map(Time::from_millis).collect();
        probes.push(Time::ZERO);
        probes.push(Time::from_millis(-1.0));
        for k1 in 0..demand.n_frames() {
            for k2 in 1..=demand.n_frames() {
                let span = demand.tsum_window(k1, k2);
                probes.push(span);
                probes.push(span + Time::from_nanos(1.0));
                probes.push(span - Time::from_nanos(1.0));
            }
        }
        assert_table_matches(&demand, probes);
    }

    /// The same identity over the VoIP / MPEG generator families the
    /// experiments are built from.
    #[test]
    fn table_matches_closed_forms_on_traffic_families(
        flow in arb_family_flow(),
        windows in prop::collection::vec(0.0f64..5_000.0, 1..16),
    ) {
        let demand = LinkDemand::new(&flow, &EncapsulationConfig::paper(), BitRate::from_mbps(10.0));
        assert_table_matches(&demand, windows.into_iter().map(Time::from_millis));
    }

    /// Near-`Time::MAX` saturation: the exact cycle count and the
    /// saturating splice must agree with the closed forms all the way to
    /// the top of the representable range.
    #[test]
    fn table_matches_closed_forms_at_saturation(
        flow in arb_flow(),
        scale in 1e3f64..1e15,
    ) {
        let demand = LinkDemand::new(&flow, &EncapsulationConfig::paper(), BitRate::from_mbps(10.0));
        let probes = [
            Time::MAX,
            Time::MAX * 0.5,
            Time::from_secs(scale),
            Time::from_secs(scale) * 1_000_000_000u64,
        ];
        assert_table_matches(&demand, probes);
        let table = DemandTable::new(&demand);
        let cycles = Time::MAX.div_floor(demand.tsum());
        prop_assert!(table.mx(Time::MAX) >= demand.csum() * cycles);
        prop_assert!(table.nx(Time::MAX) >= demand.nsum().saturating_mul(cycles));
    }
}
