//! Integer-saturation regression tests: `Time` arithmetic clamps at
//! `Time::MIN`/`Time::MAX` instead of wrapping in every build profile, and
//! the analysis must either converge to in-range bounds or fail loudly
//! (`Err` with an unschedulable classification) on extreme inputs — it must
//! never wrap silently and report a small, unsound bound.

// Test code may unwrap freely; the workspace lint targets library code.
#![allow(clippy::unwrap_used)]

use gmf_analysis::busy_period::{fixed_point, FixedPointOutcome};
use gmf_analysis::prelude::*;
use gmf_model::{cbr_flow, BitRate, EncapsulationConfig, LinkDemand, Time};
use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority};
use proptest::prelude::*;

/// A CBR flow on the paper's host0 → host3 route with the given cycle
/// period and source jitter.
fn single_flow_set(period: Time, jitter: Time) -> (gmf_net::Topology, FlowSet) {
    let (t, net) = paper_figure1();
    let mut fs = FlowSet::new();
    let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
    let flow = cbr_flow("extreme", 1_000, period, period, jitter);
    fs.add(flow, route, Priority(5));
    (t, fs)
}

/// The tick count an exact `i128` result clamps to.
fn clamped(exact: i128) -> Time {
    Time::from_ps(exact.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
}

/// Ticks spread over the whole `i64` range, with extra weight near zero
/// and near both saturation points, where wraps would happen.
fn ticks() -> impl Strategy<Value = i64> {
    prop_oneof![
        i64::MIN..=i64::MAX,
        -1_000_000_000i64..=1_000_000_000,
        i64::MAX - 1_000_000..=i64::MAX,
        i64::MIN..=i64::MIN + 1_000_000,
    ]
}

/// Counts spread over the whole `u64` range, with extra weight on small
/// instance counts.
fn counts() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=u64::MAX, 0u64..=1_000, u64::MAX - 1_000..=u64::MAX]
}

proptest! {
    #[test]
    fn time_operators_saturate_and_never_wrap(a in ticks(), b in ticks(), n in counts()) {
        let (ta, tb) = (Time::from_ps(a), Time::from_ps(b));
        let (a, b) = (i128::from(a), i128::from(b));
        prop_assert_eq!(ta + tb, clamped(a + b));
        prop_assert_eq!(ta - tb, clamped(a - b));
        prop_assert_eq!(ta * n, clamped(a * i128::from(n)));
        prop_assert_eq!(-ta, clamped(-a));
        let mut acc = ta;
        acc += tb;
        prop_assert_eq!(acc, ta + tb);
        acc -= tb;
        prop_assert_eq!(acc, ta + tb - tb);
    }
}

#[test]
fn fixed_point_reports_saturated_iterates_as_horizon_excess() {
    // The iterate saturates on the first step even though the horizon is
    // `Time::MAX` itself.  The engine must report a loud divergence (with
    // the saturated `Time::MAX` iterate), not "converge" on the clamp.
    let out = fixed_point(Time::from_secs(1.0), Time::MAX, 1_000, |x| x * u64::MAX);
    match out {
        FixedPointOutcome::ExceededHorizon { last } => assert_eq!(last, Time::MAX),
        other => panic!("expected loud horizon excess, got {other:?}"),
    }
}

#[test]
fn request_bounds_saturate_on_astronomical_windows() {
    // MX/NX over the widest representable window splice every whole cycle
    // exactly; an overloaded demand (1000 B every 10 µs on 10 Mbit/s)
    // pins MX at `Time::MAX` instead of wrapping.
    let demand = |period: Time| {
        let flow = cbr_flow("sat", 1_000, period, period, Time::ZERO);
        LinkDemand::new(
            &flow,
            &EncapsulationConfig::paper(),
            BitRate::from_mbps(10.0),
        )
    };
    let astronomical = Time::from_secs(1.0e300);
    assert_eq!(astronomical, Time::MAX);
    let feasible = demand(Time::from_millis(10.0));
    let cycles = astronomical.div_floor(feasible.tsum());
    assert!(feasible.nx(astronomical) >= feasible.nsum() * cycles);
    assert!(feasible.mx(astronomical) >= feasible.csum() * cycles);
    // Monotonicity survives saturation: a wider window never shrinks the
    // bound (a wrap would send it back towards zero).
    assert!(feasible.mx(astronomical) >= feasible.mx(Time::from_secs(1.0)));
    assert!(feasible.nx(astronomical) >= feasible.nx(Time::from_secs(1.0)));
    let overloaded = demand(Time::from_micros(10.0));
    assert_eq!(overloaded.mx(astronomical), Time::MAX);
}

#[test]
fn near_max_jitter_fails_loudly_not_wrapped() {
    // A source jitter at the top of the representable range makes every
    // interference window astronomically wide.  The analysis must fail
    // loudly — an unschedulable report (saturated bounds exceed every
    // deadline) or an unschedulable-classified error — never panic, and
    // never a "schedulable" verdict computed from wrapped arithmetic.
    let (t, fs) = single_flow_set(Time::from_millis(10.0), Time::from_secs(1.0e300));
    match analyze(&t, &fs, &AnalysisConfig::paper()) {
        Ok(report) => assert!(
            !report.schedulable,
            "extreme jitter must never be reported schedulable"
        ),
        Err(err) => assert!(
            err.is_unschedulable(),
            "extreme jitter must classify as unschedulable, got {err}"
        ),
    }
}

#[test]
fn near_max_period_converges_to_finite_bounds() {
    // A cycle as long as the representable range (1e15 s saturates at
    // `Time::MAX`) means near-zero utilization: the analysis must converge
    // normally and every bound must stay below the saturation point (an
    // intermediate `period * q` wrap would poison the report).
    let (t, fs) = single_flow_set(Time::from_secs(1.0e15), Time::from_millis(1.0));
    let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
    assert!(report.schedulable);
    for flow in &report.flows {
        for frame in &flow.frames {
            assert!(
                frame.bound > Time::ZERO && frame.bound < Time::MAX,
                "frame bound must be positive and unsaturated, got {}",
                frame.bound
            );
        }
    }
}

#[test]
fn saturating_time_arithmetic_is_exact_in_range() {
    // The operators are exact integer arithmetic for in-range values and
    // agree with the checked helpers there.
    let a = Time::from_millis(1.5);
    let b = Time::from_micros(250.0);
    assert_eq!(a + b, Time::from_micros(1_750.0));
    assert_eq!(a * 1_000u64, Time::from_secs(1.5));
    assert_eq!(a.checked_add(b), Some(a + b));
    assert_eq!(a.checked_mul(1_000), Some(a * 1_000u64));
    // ...and clamp at the top instead of wrapping.
    assert_eq!(Time::MAX + Time::MAX, Time::MAX);
    assert_eq!(Time::MAX * u64::MAX, Time::MAX);
    assert_eq!(Time::MAX.checked_add(Time::MAX), None);
    assert_eq!(Time::MAX.checked_mul(u64::MAX), None);
}
