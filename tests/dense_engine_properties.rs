//! Property-based tests of the dense-index analysis core: the interned
//! tables, the arena iterates, the Arc-shared reports and the dirty-flow
//! round skipping must all be invisible in the results.
//!
//! The oracle is [`gmf_bench::oracle::analyze_reference`] — a deliberately
//! simple sequential keyed Picard engine that shares no hot-path code with
//! the production engine (tree-map jitter reads, per-frame stage walks,
//! no memoisation).  On random sweep-style and churn-style flow sets:
//!
//! (a) the production engine's `AnalysisReport` is `assert_eq!`-identical
//!     to the reference — bounds, hop breakdowns, verdicts, failure
//!     strings, iteration counts and residual traces — across worker
//!     threads 1/4 and round skipping on/off;
//! (b) on churn-style suffixes (a departure-reshaped set), the dense
//!     engine still matches the reference, pinning the id-sparse case.

mod support;

use gmf_bench::oracle::analyze_reference;
use gmfnet::analysis::{analyze, AnalysisConfig};
use gmfnet::net::{FlowSet, Topology};
use gmfnet::workloads::{random_sweep_set, SweepConfig};
use proptest::prelude::*;

fn sweep_set(seed: u64, n_flows: usize, utilization: f64) -> (Topology, FlowSet) {
    random_sweep_set(seed, n_flows, utilization, &SweepConfig::default())
}

/// The engine axes the report must be invariant over: worker threads and
/// round skipping.
fn engine_axes() -> Vec<AnalysisConfig> {
    let mut axes = Vec::new();
    for threads in [1usize, 4] {
        for skip in [false, true] {
            axes.push(
                AnalysisConfig::paper()
                    .with_threads(threads)
                    .with_skip_unchanged_flows(skip),
            );
        }
    }
    axes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Dense engine == keyed reference, across threads and skipping.
    #[test]
    fn dense_reports_equal_keyed_reference(
        seed in 0u64..1_000_000,
        n_flows in 2usize..10,
        utilization in 0.1f64..1.1,
    ) {
        let (topology, set) = sweep_set(seed, n_flows, utilization);
        let reference = analyze_reference(&topology, &set, &AnalysisConfig::paper()).unwrap();
        for config in engine_axes() {
            let dense = analyze(&topology, &set, &config).unwrap();
            prop_assert_eq!(
                &reference, &dense,
                "threads = {}, skip = {}",
                config.threads, config.skip_unchanged_flows
            );
        }
    }

    /// (b) Churn-style sets (departures leave the id space sparse) still
    /// analyse byte-identically.
    #[test]
    fn dense_engine_matches_reference_after_departures(
        seed in 0u64..1_000_000,
        n_flows in 3usize..10,
        utilization in 0.1f64..0.9,
        drop_index in 0usize..3,
    ) {
        let (topology, mut set) = sweep_set(seed, n_flows, utilization);
        // Remove one flow (ids are never reused, so the binding list is
        // now sparse) and re-add a clone of another under a fresh id.
        let ids: Vec<_> = set.ids().collect();
        let departing = ids[drop_index % ids.len()];
        set.remove(departing).unwrap();
        let surviving = set.bindings()[0].clone();
        set.add(surviving.flow, surviving.route, surviving.priority);

        let reference = analyze_reference(&topology, &set, &AnalysisConfig::paper()).unwrap();
        for config in engine_axes() {
            let dense = analyze(&topology, &set, &config).unwrap();
            prop_assert_eq!(
                &reference, &dense,
                "threads = {}, skip = {}",
                config.threads, config.skip_unchanged_flows
            );
        }
    }
}

/// Round skipping must also be invisible through the warm-started,
/// dependency-scoped admission path (it composes with `Scope`): a warm
/// controller with skipping takes byte-identical decisions to a cold fixed
/// point of each trial set without it.
#[test]
fn skipping_is_invisible_through_warm_admission() {
    use gmfnet::analysis::{AdmissionController, AdmissionRequest};
    use support::{assert_matches_cold, ColdReference};
    let (topology, set) = sweep_set(20_080_511, 8, 0.5);
    let mut warm = AdmissionController::new(topology.clone(), AnalysisConfig::paper());
    let mut cold = ColdReference {
        topology,
        config: AnalysisConfig::paper().with_skip_unchanged_flows(false),
        live: FlowSet::new(),
    };
    for binding in set.bindings() {
        let request = AdmissionRequest::new(
            binding.flow.clone(),
            binding.route.clone(),
            binding.priority,
        );
        let (id, reference) = cold.decide(&request);
        let w = warm.request_batch([request]).unwrap().pop().unwrap();
        assert_matches_cold(&w, id, &reference.report, binding.flow.name());
        // Skipping + scoping can only reduce the per-decision work.
        assert!(w.cost().flow_analyses <= reference.flow_analyses);
    }
    assert_eq!(warm.accepted(), &cold.live);
}
