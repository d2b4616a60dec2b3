//! Property-based tests of the incremental admission engine: warm starts,
//! dependency-scoped re-verification and departures must all be invisible
//! in the decisions and bounds.
//!
//! (a) Driving random sweep-style flow sets through the controller one
//!     flow at a time takes exactly the decisions a cold fixed point of
//!     each trial set implies, and every decision's report is
//!     byte-identical (frame bounds, verdicts, failure string, victim) to
//!     that cold analysis — iteration traces aside.  Decision reports
//!     cover the candidate's *shard*, so the comparison projects the
//!     global reference onto the flows the shard report carries.
//! (b) Releasing a random accepted flow and re-admitting the same binding
//!     restores identical reports for every flow.  "Identical" here is up
//!     to the analysis tolerance: the re-admitted flow's fresh id moves it
//!     to the *end* of every interference sum, and floating-point addition
//!     is not associative — the warm engine is byte-identical to a cold
//!     analysis of the same (reordered) trial set either way, which is
//!     what (a) pins down exactly.

mod support;

use gmfnet::analysis::{AdmissionController, AdmissionDecision, AdmissionRequest, AnalysisConfig};
use gmfnet::model::GmfFlow;
use gmfnet::net::{shortest_path, star, Priority, Route, Topology};
use gmfnet::workloads::{random_flow_collection, SweepConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use support::{assert_matches_cold, ColdReference};

/// Submit one candidate through the batched admission API.
fn submit(
    ctl: &mut AdmissionController,
    flow: GmfFlow,
    route: Route,
    priority: Priority,
) -> AdmissionDecision {
    ctl.request_batch([AdmissionRequest::new(flow, route, priority)])
        .expect("routes on the star are structurally valid")
        .pop()
        .expect("one decision per request")
}

/// Random converging-star admission requests from the sweep generator:
/// each flow gets a random source, a random sink and a random priority.
fn random_requests(
    seed: u64,
    n_flows: usize,
    utilization: f64,
) -> (Topology, Vec<(GmfFlow, Route, Priority)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = SweepConfig::default();
    let flows = random_flow_collection(&mut rng, n_flows, utilization, &config.synthetic);
    // Two sinks so the dependency graph has genuinely disjoint regions and
    // the scoped re-verification path is exercised, not just warm starts.
    let (topology, _switch, hosts) = star(config.n_sources + 2, config.link, config.switch);
    let sinks = &hosts[..2];
    let sources = &hosts[2..];
    let requests = flows
        .into_iter()
        .map(|flow| {
            let source = sources[rng.gen_range(0..sources.len())];
            let sink = sinks[rng.gen_range(0..sinks.len())];
            let route = shortest_path(&topology, source, sink).expect("star is connected");
            let priority = Priority(rng.gen_range(0..8));
            (flow, route, priority)
        })
        .collect();
    (topology, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Warm-started admission is byte-identical to cold analysis.
    #[test]
    fn warm_admission_is_byte_identical_to_cold_analysis(
        seed in 0u64..1_000_000,
        n_flows in 2usize..9,
        utilization in 0.1f64..0.9,
    ) {
        let analysis = AnalysisConfig::paper();
        let (topology, requests) = random_requests(seed, n_flows, utilization);
        let mut warm = AdmissionController::new(topology.clone(), analysis);

        for (flow, route, priority) in requests {
            // The reference: a cold holistic analysis of the very trial
            // set the warm controller is about to decide on.
            let mut cold = ColdReference {
                topology: topology.clone(),
                config: analysis,
                live: warm.accepted().clone(),
            };
            let request = AdmissionRequest::new(flow.clone(), route.clone(), priority);
            let (id, reference) = cold.decide(&request);
            let w = submit(&mut warm, flow, route, priority);

            // Bounds, verdicts and failure attribution are byte-identical
            // (iteration traces aside).  For non-converged trials the warm
            // engine restarts cold, so even the partial reports match.
            assert_matches_cold(&w, id, &reference.report, &format!("seed {seed}"));
            prop_assert_eq!(warm.accepted(), &cold.live);
        }
    }

    /// (b) Release followed by re-admission restores identical reports.
    #[test]
    fn release_and_readmission_restores_identical_reports(
        seed in 0u64..1_000_000,
        n_flows in 2usize..7,
        utilization in 0.05f64..0.5,
    ) {
        let analysis = AnalysisConfig::paper();
        let (topology, requests) = random_requests(seed, n_flows, utilization);
        let mut ctl = AdmissionController::new(topology.clone(), analysis);
        let mut admitted = Vec::new();
        for (flow, route, priority) in requests {
            let d = submit(&mut ctl, flow.clone(), route.clone(), priority);
            if d.is_accepted() {
                admitted.push((d.id(), flow, route, priority));
            }
        }
        // Vacuously true when the random set admits nothing (very high
        // utilization draws); the interesting cases dominate.
        if !admitted.is_empty() {
            let before = ctl.reanalyze().unwrap();

            // Tear down a pseudo-random accepted flow and bring the same
            // binding back.
            let pick = (seed as usize) % admitted.len();
            let (old_id, flow, route, priority) = admitted[pick].clone();
            ctl.release(old_id).unwrap();
            let d = submit(&mut ctl, flow, route, priority);
            prop_assert!(d.is_accepted(), "re-admission of an admitted flow");
            let after = ctl.reanalyze().unwrap();

            // Every flow's report is restored (the re-admitted one under
            // its fresh id) within the analysis tolerance — the fresh id
            // reorders the interference sums, so the last ulp can move.
            for flow_report in &before.flows {
                let restored = if flow_report.flow == old_id {
                    after.flow(d.id()).unwrap()
                } else {
                    after.flow(flow_report.flow).unwrap()
                };
                prop_assert_eq!(&restored.name, &flow_report.name);
                prop_assert_eq!(restored.frames.len(), flow_report.frames.len());
                for (a, b) in restored.frames.iter().zip(&flow_report.frames) {
                    prop_assert!(
                        a.bound.approx_eq(b.bound),
                        "bound {} vs {}", a.bound, b.bound
                    );
                    prop_assert_eq!(a.deadline, b.deadline);
                    prop_assert_eq!(a.source_jitter, b.source_jitter);
                    prop_assert_eq!(a.hops.len(), b.hops.len());
                    for (ha, hb) in a.hops.iter().zip(&b.hops) {
                        prop_assert_eq!(ha.resource, hb.resource);
                        prop_assert_eq!(ha.stage, hb.stage);
                        prop_assert!(
                            ha.response.approx_eq(hb.response),
                            "response {} vs {}", ha.response, hb.response
                        );
                    }
                }
            }
            prop_assert_eq!(before.schedulable, after.schedulable);
        }
    }
}

/// The warm cache survives departures: after a release, the next trial
/// still runs warm and still matches a cold analysis byte for byte.
#[test]
fn warm_trials_after_departures_match_cold_analysis() {
    let analysis = AnalysisConfig::paper();
    let (topology, requests) = random_requests(1234, 8, 0.4);
    let mut ctl = AdmissionController::new(topology.clone(), analysis);
    let mut accepted_ids = Vec::new();
    let mut leftover = Vec::new();
    for (i, (flow, route, priority)) in requests.into_iter().enumerate() {
        if i < 5 {
            let d = submit(&mut ctl, flow, route, priority);
            if d.is_accepted() {
                accepted_ids.push(d.id());
            }
        } else {
            leftover.push((flow, route, priority));
        }
    }
    // Release every other accepted flow, then admit the leftovers.
    for id in accepted_ids.iter().step_by(2) {
        ctl.release(*id).unwrap();
    }
    for (flow, route, priority) in leftover {
        let mut cold = ColdReference {
            topology: topology.clone(),
            config: analysis,
            live: ctl.accepted().clone(),
        };
        let request = AdmissionRequest::new(flow.clone(), route.clone(), priority);
        let (id, reference) = cold.decide(&request);
        let d = submit(&mut ctl, flow, route, priority);
        assert_matches_cold(&d, id, &reference.report, "after departures");
    }
}
