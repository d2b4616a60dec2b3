//! Property tests of the failure-and-recovery subsystem: for every
//! single-failure scenario of a ring-of-cells workload — each cable cut,
//! each switch CPU degradation — the *incremental* survivability verdict
//! (release the affected shards from a warm admission controller, rebase
//! onto the survivor topology, re-admit the re-routed flows shard-scoped)
//! must be **byte-identical** to a cold from-scratch analysis of the
//! re-routed survivor set: same schedulability verdict, same stranded set,
//! same margin, same per-flow per-frame bounds.  Checked across worker
//! threads (1 and 4) and round skipping (on and off).

use gmfnet::analysis::{
    divergence, single_failure_scenarios, AnalysisConfig, DependencyGraph, SurvivabilityAnalysis,
};
use gmfnet::workloads::{resilience_scenario, ResilienceConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Incremental == cold on every single failure of a random ring
    /// workload, across threads and round skipping.
    #[test]
    fn incremental_survivor_verdicts_are_byte_identical_to_cold(
        seed in 0u64..1_000_000,
    ) {
        let config = ResilienceConfig::tiny();
        let scenario = resilience_scenario(seed, &config);
        let failures = single_failure_scenarios(&scenario.topology, &[2, 8]);
        for threads in [1usize, 4] {
            for skip in [false, true] {
                let analysis_config = AnalysisConfig::paper()
                    .with_threads(threads)
                    .with_skip_unchanged_flows(skip);
                let (analysis, _) = SurvivabilityAnalysis::new(
                    scenario.topology.clone(),
                    scenario.flows.clone(),
                    analysis_config,
                )
                .unwrap();
                for failure in &failures {
                    let verdict = analysis.assess(failure).unwrap();
                    let cold = analysis.cold_verdict(failure).unwrap();
                    prop_assert_eq!(
                        divergence(&verdict, &cold),
                        None,
                        "{} under x{} threads, skip {}",
                        failure.label(),
                        threads,
                        skip
                    );
                    // Structural invariants of the verdict itself.
                    if verdict.survivable {
                        prop_assert!(verdict.stranded.is_empty());
                        prop_assert!(verdict.survivor_schedulable);
                    }
                    if verdict.survivor_schedulable {
                        prop_assert!(verdict.margin.is_some());
                        // Bounds cover exactly the survivor set, keyed by
                        // original flow id.
                        prop_assert_eq!(
                            verdict.bounds.len(),
                            scenario.flows.len() - verdict.stranded.len()
                        );
                    }
                    // Every trunk cut of the ring re-routes; it never
                    // strands (the redundancy the topology is built for).
                    if let gmfnet::analysis::FailureScenario::CableCut { a, b } = *failure {
                        let is_trunk = scenario
                            .trunks
                            .iter()
                            .any(|&(x, y)| (x.min(y), x.max(y)) == (a, b));
                        if is_trunk {
                            prop_assert!(verdict.stranded.is_empty());
                            prop_assert!(!verdict.rerouted.is_empty());
                        }
                    }
                }
            }
        }
    }
}

/// Assessing a scenario is pure: it never mutates the pristine baseline,
/// and repeating the same assessment yields the identical verdict.
#[test]
fn assessment_is_pure_and_repeatable() {
    let config = ResilienceConfig::tiny();
    let scenario = resilience_scenario(1608, &config);
    let (analysis, _) = SurvivabilityAnalysis::new(
        scenario.topology.clone(),
        scenario.flows.clone(),
        AnalysisConfig::paper(),
    )
    .unwrap();
    let failures = single_failure_scenarios(&scenario.topology, &[2, 8]);
    let first = analysis.sweep(&failures).unwrap();
    let second = analysis.sweep(&failures).unwrap();
    assert_eq!(first, second);
    // The baseline controller still mirrors a from-scratch partition of
    // the original accepted set.
    assert_eq!(
        analysis.controller().partition(),
        &DependencyGraph::new(analysis.controller().accepted())
    );
    assert_eq!(analysis.controller().n_accepted(), scenario.flows.len());
}
