//! Overflow regression tests: the analysis must either converge to finite
//! bounds or fail loudly (`Err` with an unschedulable classification) on
//! numerically extreme inputs — it must never wrap silently and report a
//! small, unsound bound.

// Test code may unwrap freely; the workspace lint targets library code.
#![allow(clippy::unwrap_used)]

use gmf_analysis::busy_period::{fixed_point, FixedPointOutcome};
use gmf_analysis::prelude::*;
use gmf_model::{cbr_flow, BitRate, EncapsulationConfig, LinkDemand, Time};
use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority};

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

#[test]
fn fixed_point_reports_nonfinite_iterates_as_horizon_excess() {
    // The iterate jumps straight past f64 range: 1 s * f64::MAX is finite
    // on the first step and infinite on the second.  The engine must report
    // a loud divergence (with the sentinel `Time::MAX` iterate), not spin
    // on infinities or NaNs.
    let out = fixed_point(Time::from_secs(1.0), Time::MAX, 1_000, |x| x * f64::MAX);
    match out {
        FixedPointOutcome::ExceededHorizon { last } => assert_eq!(last, Time::MAX),
        other => panic!("expected loud horizon excess, got {other:?}"),
    }
}

#[test]
fn request_bounds_saturate_on_astronomical_windows() {
    // MX/NX over a window astronomically larger than the cycle must pin to
    // the saturation sentinels instead of wrapping the cycle count.
    let flow = cbr_flow(
        "sat",
        1_000,
        Time::from_millis(10.0),
        Time::from_millis(10.0),
        Time::ZERO,
    );
    let demand = LinkDemand::new(
        &flow,
        &EncapsulationConfig::paper(),
        BitRate::from_mbps(10.0),
    );
    let astronomical = Time::from_secs(1.0e300);
    assert_eq!(demand.nx(astronomical), u64::MAX);
    assert_eq!(demand.mx(astronomical), Time::MAX);
    // Monotonicity survives saturation: a wider window never shrinks the
    // bound (a wrap would send it back towards zero).
    assert!(demand.mx(astronomical) >= demand.mx(Time::from_secs(1.0)));
    assert!(demand.nx(astronomical) >= demand.nx(Time::from_secs(1.0)));
}

#[test]
fn near_max_jitter_fails_loudly_not_wrapped() {
    // A source jitter near the top of the representable range makes every
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
    // An astronomically long cycle means near-zero utilization: the
    // analysis must converge normally and every bound must stay finite
    // (an intermediate `period * q` wrap would poison the report).
    let (t, fs) = single_flow_set(Time::from_secs(1.0e15), Time::from_millis(1.0));
    let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
    assert!(report.schedulable);
    for flow in &report.flows {
        for frame in &flow.frames {
            assert!(
                frame.bound.is_finite() && frame.bound > Time::ZERO,
                "frame bound must be finite and positive, got {}",
                frame.bound
            );
        }
    }
}

#[test]
fn saturating_time_arithmetic_is_exact_in_range() {
    // The checked/saturating helpers are bit-identical to plain arithmetic
    // for in-range values — the determinism CI gate depends on this.
    let a = Time::from_millis(1.5);
    let b = Time::from_micros(250.0);
    assert_eq!(a.saturating_add(b), a + b);
    assert_eq!(a.saturating_mul(1_000), a * 1_000u64);
    assert_eq!(a.checked_add(b), Some(a + b));
    assert_eq!(a.checked_mul(1_000), Some(a * 1_000u64));
    // ...and clamp at the top instead of overflowing to infinity.
    assert_eq!(Time::MAX.saturating_add(Time::MAX), Time::MAX);
    assert_eq!(Time::MAX.saturating_mul(u64::MAX), Time::MAX);
    assert_eq!(Time::MAX.checked_add(Time::MAX), None);
    assert_eq!(Time::MAX.checked_mul(u64::MAX), None);
}
