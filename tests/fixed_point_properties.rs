//! Property-based tests of the holistic fixed-point engine: the thread
//! count and the dirty-flow round skipping must both be invisible in the
//! results.
//!
//! (a) Round skipping only saves per-flow analyses: on random converging
//!     flow sets (the acceptance-sweep generator) the full report —
//!     bounds, verdict, iteration count, convergence trace — is
//!     `assert_eq!`-identical with skipping on and off.
//! (b) A single analysis never reads `AnalysisConfig::threads`, so the
//!     full report is `assert_eq!`-identical across thread counts 1/2/8.

use gmfnet::analysis::{analyze, AnalysisConfig};
use gmfnet::workloads::SweepConfig;
use proptest::prelude::*;

/// Build a random converging flow set from the sweep generator.
fn random_sweep_set(
    seed: u64,
    n_flows: usize,
    utilization: f64,
) -> (gmfnet::net::Topology, gmfnet::net::FlowSet) {
    gmfnet::workloads::random_sweep_set(seed, n_flows, utilization, &SweepConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Skipping unchanged flows leaves every report byte-identical.
    #[test]
    fn skipping_reports_equal_full_rounds(
        seed in 0u64..1_000_000,
        n_flows in 2usize..10,
        utilization in 0.1f64..0.9,
    ) {
        let (topology, set) = random_sweep_set(seed, n_flows, utilization);
        let skip = analyze(&topology, &set, &AnalysisConfig::paper()).unwrap();
        let full = analyze(
            &topology,
            &set,
            &AnalysisConfig::paper().with_skip_unchanged_flows(false),
        )
        .unwrap();
        prop_assert_eq!(&skip, &full);
    }

    /// (b) Parallel and sequential rounds produce `assert_eq!` reports.
    #[test]
    fn parallel_reports_equal_sequential_reports(
        seed in 0u64..1_000_000,
        n_flows in 2usize..10,
        utilization in 0.1f64..1.1,
    ) {
        let (topology, set) = random_sweep_set(seed, n_flows, utilization);
        let sequential = analyze(&topology, &set, &AnalysisConfig::paper()).unwrap();
        for threads in [2usize, 8] {
            let parallel = analyze(
                &topology,
                &set,
                &AnalysisConfig::paper().with_threads(threads),
            )
            .unwrap();
            // Everything, including the convergence trace, is identical.
            prop_assert_eq!(&sequential, &parallel);
        }
    }
}

/// The engine axes compose: a run without round skipping is also
/// thread-invariant.
#[test]
fn full_rounds_are_thread_invariant_too() {
    let (topology, set) = random_sweep_set(7, 8, 0.5);
    let full = AnalysisConfig::paper().with_skip_unchanged_flows(false);
    let sequential = analyze(&topology, &set, &full).unwrap();
    for threads in [2usize, 8] {
        let parallel = analyze(&topology, &set, &full.with_threads(threads)).unwrap();
        assert_eq!(sequential, parallel, "threads = {threads}");
    }
}
