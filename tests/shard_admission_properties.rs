//! Property tests of the sharded admission plane: batched, shard-parallel
//! warm admission must be *decision-for-decision byte-identical* to a cold
//! fixed point of every trial set (the accepted flows plus the candidate)
//! — across worker threads and arrival/departure (churn) orders — and the
//! partition layer must track shard merges and splits exactly.
//!
//! The comparisons pin the tentpole claims of the sharded plane:
//!
//! (a) accept/reject verdicts, rejection reasons and victim attributions
//!     are identical; warm (shard-scoped) trial reports are bytewise
//!     projections of the cold (global) reports; the final accepted sets
//!     are equal; and the final bounds also equal the deliberately simple
//!     [`gmfnet::analysis::analyze_reference`] oracle, which shares no
//!     hot-path code with the production engine;
//! (b) an accepted bridge merges every shard its route touches
//!     (merge-on-bridge), a rejection leaves the partition untouched, and
//!     a departure splits the shard back — always agreeing with a
//!     from-scratch [`DependencyGraph`] rebuild.

mod support;

use gmfnet::analysis::{
    analyze_reference, AdmissionController, AdmissionRequest, AnalysisConfig, DependencyGraph,
};
use gmfnet::net::{FlowSet, Topology};
use gmfnet::workloads::{random_sweep_set, SweepConfig};
use proptest::prelude::*;
use support::{assert_matches_cold, ColdReference};

fn sweep_set(seed: u64, n_flows: usize, utilization: f64) -> (Topology, FlowSet) {
    random_sweep_set(seed, n_flows, utilization, &SweepConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Batched shard-parallel warm admission == a cold fixed point of
    /// every trial set, across threads, through a churn step.
    #[test]
    fn batched_warm_admission_matches_sequential_cold(
        seed in 0u64..1_000_000,
        n_flows in 3usize..10,
        utilization in 0.1f64..1.0,
        batch in 1usize..4,
        drop_index in 0usize..4,
    ) {
        let (topology, set) = sweep_set(seed, n_flows, utilization);
        for threads in [1usize, 4] {
            let config = AnalysisConfig::paper().with_threads(threads);
            let mut warm = AdmissionController::new(topology.clone(), config);
            let mut cold = ColdReference {
                topology: topology.clone(),
                config: AnalysisConfig::paper(),
                live: FlowSet::new(),
            };

            let bindings = set.bindings();
            let (first, second) = bindings.split_at(bindings.len() / 2);
            for (half, chunk_set) in [first, second].iter().enumerate() {
                for chunk in chunk_set.chunks(batch) {
                    let requests: Vec<AdmissionRequest> = chunk
                        .iter()
                        .map(|b| {
                            AdmissionRequest::new(b.flow.clone(), b.route.clone(), b.priority)
                        })
                        .collect();
                    let warm_decisions = warm.request_batch(requests.clone()).unwrap();
                    // The cold oracle takes the same requests one at a
                    // time — the semantics request_batch must preserve.
                    for (request, warm_decision) in requests.iter().zip(&warm_decisions) {
                        let (id, reference) = cold.decide(request);
                        assert_matches_cold(
                            warm_decision,
                            id,
                            &reference.report,
                            &format!("threads {threads}"),
                        );
                    }
                }
                // Churn between the halves: the same departure on both
                // sides must keep them in lockstep.
                if half == 0 {
                    let ids: Vec<_> = warm.accepted().ids().collect();
                    if !ids.is_empty() {
                        let departing = ids[drop_index % ids.len()];
                        warm.release(departing).unwrap();
                        cold.live.remove(departing).unwrap();
                    }
                }
            }

            prop_assert_eq!(warm.accepted(), &cold.live);
            prop_assert_eq!(warm.partition(), &DependencyGraph::new(warm.accepted()));

            // Independent final oracle: the reference engine (keyed,
            // sequential Picard) agrees on the surviving set's bounds.
            if !warm.accepted().is_empty() {
                let reference =
                    analyze_reference(&topology, warm.accepted(), &AnalysisConfig::paper())
                        .unwrap();
                let reanalyzed = warm.reanalyze().unwrap();
                prop_assert_eq!(&reference.flows, &reanalyzed.flows);
                prop_assert_eq!(reference.schedulable, reanalyzed.schedulable);
            }
        }
    }
}

/// (b) Shard merge on an accepted bridge, no-op on a rejection, split on
/// the bridge's departure — the partition always equals a from-scratch
/// rebuild of the accepted set.
#[test]
fn bridge_admission_merges_shards_and_departure_splits_them() {
    use gmfnet::analysis::ShardId;
    use gmfnet::model::{cbr_flow, Time};
    use gmfnet::net::{shortest_path, star, LinkProfile, Priority, SwitchConfig};

    let probe = |name: &str, deadline_ms: f64| {
        cbr_flow(
            name,
            200,
            Time::from_millis(10.0),
            Time::from_millis(deadline_ms),
            Time::ZERO,
        )
    };
    let (topology, _, hosts) = star(6, LinkProfile::ethernet_100m(), SwitchConfig::paper());
    let mut ctl = AdmissionController::new(topology.clone(), AnalysisConfig::paper());

    // Two link-disjoint flows: two singleton shards.
    let r01 = shortest_path(&topology, hosts[0], hosts[1]).unwrap();
    let r23 = shortest_path(&topology, hosts[2], hosts[3]).unwrap();
    let decisions = ctl
        .request_batch([
            AdmissionRequest::new(probe("a", 10.0), r01, Priority(3)),
            AdmissionRequest::new(probe("b", 10.0), r23, Priority(3)),
        ])
        .unwrap();
    assert!(decisions.iter().all(|d| d.is_accepted()));
    let (a, b) = (decisions[0].id(), decisions[1].id());
    assert_eq!(ctl.partition().n_shards(), 2);
    assert_ne!(ctl.partition().shard_of(a), ctl.partition().shard_of(b));

    // An impossible bridge (sub-transmission-time deadline) is rejected
    // and leaves the partition untouched.
    let bridge_route = shortest_path(&topology, hosts[0], hosts[3]).unwrap();
    let rejected = ctl
        .request_batch([AdmissionRequest::new(
            probe("tight-bridge", 0.001),
            bridge_route.clone(),
            Priority(3),
        )])
        .unwrap()
        .pop()
        .unwrap();
    assert!(!rejected.is_accepted());
    assert_eq!(ctl.partition().n_shards(), 2);
    assert_eq!(
        ctl.partition().shards_touching_route(&bridge_route).len(),
        2
    );

    // A feasible bridge merges both shards into one, named after the
    // smallest member (merge-on-bridge).
    let accepted = ctl
        .request_batch([AdmissionRequest::new(
            probe("bridge", 10.0),
            bridge_route,
            Priority(3),
        )])
        .unwrap()
        .pop()
        .unwrap();
    assert!(accepted.is_accepted());
    let bridge = accepted.id();
    assert_eq!(ctl.partition().n_shards(), 1);
    assert_eq!(ctl.partition().shard_of(b), Some(ShardId(a)));
    assert_eq!(
        ctl.partition().shard_flows(ShardId(a)).unwrap(),
        &[a, b, bridge]
    );

    // Departure of the bridge splits the shard back into the originals.
    ctl.release(bridge).unwrap();
    assert_eq!(ctl.partition().n_shards(), 2);
    assert_eq!(ctl.partition().shard_of(a), Some(ShardId(a)));
    assert_eq!(ctl.partition().shard_of(b), Some(ShardId(b)));
    assert_eq!(ctl.partition(), &DependencyGraph::new(ctl.accepted()));

    // The post-split controller still decides identically to a cold
    // analysis of the split set plus the candidate.
    let r45 = shortest_path(&topology, hosts[4], hosts[5]).unwrap();
    let mut cold = ColdReference {
        topology,
        config: AnalysisConfig::paper(),
        live: ctl.accepted().clone(),
    };
    let request = AdmissionRequest::new(probe("c", 10.0), r45, Priority(3));
    let (id, reference) = cold.decide(&request);
    let w = ctl.request_batch([request]).unwrap().pop().unwrap();
    assert_matches_cold(&w, id, &reference.report, "after the split");
    assert_eq!(ctl.accepted(), &cold.live);
}

/// Topology-mutation edge case: cut a trunk of a ring workload, drive the
/// admission plane through the primitives the survivability module
/// composes — whole-shard `release_batch`, `rebase` onto the survivor
/// topology, shard-scoped re-admission over fallback routes — and the
/// partition must still equal a from-scratch [`DependencyGraph`] rebuild,
/// with every flow re-admitted (the ring strands nothing).
#[test]
fn release_rebase_readmit_after_cable_cut_keeps_partition_exact() {
    use gmfnet::model::FlowId;
    use gmfnet::net::reroute_severed;
    use gmfnet::workloads::{resilience_scenario, ResilienceConfig};
    use std::collections::BTreeSet;

    let config = ResilienceConfig::tiny();
    let scenario = resilience_scenario(42, &config);
    let (mut ctl, _) = AdmissionController::with_accepted(
        scenario.topology.clone(),
        scenario.flows.clone(),
        AnalysisConfig::paper(),
    )
    .unwrap();
    let n_before = ctl.n_accepted();

    let (a, b) = scenario.trunks[0];
    let mut faulty = scenario.topology.clone();
    faulty.fail_link(a, b).unwrap();
    let survivor = faulty.survivor();

    // Release the whole shard of every flow touching a dirty node, so the
    // retained cache stays exactly valid across the rebase.
    let mut release: BTreeSet<FlowId> = BTreeSet::new();
    for id in survivor.affected_flows(ctl.accepted()) {
        match ctl
            .partition()
            .shard_of(id)
            .and_then(|shard| ctl.partition().shard_flows(shard))
        {
            Some(members) => release.extend(members.iter().copied()),
            None => {
                release.insert(id);
            }
        }
    }
    let order: Vec<FlowId> = release.iter().copied().collect();
    assert!(!order.is_empty(), "a trunk cut must affect transit flows");

    let outcomes = reroute_severed(&survivor, ctl.accepted());
    assert!(outcomes.iter().all(|o| !o.is_stranded()));
    let fallback: std::collections::BTreeMap<FlowId, _> = outcomes
        .iter()
        .filter_map(|o| o.route().map(|r| (o.id(), r.clone())))
        .collect();

    let requests: Vec<AdmissionRequest> = order
        .iter()
        .map(|&id| {
            let binding = ctl.accepted().get(id).unwrap().clone();
            let route = fallback
                .get(&id)
                .cloned()
                .unwrap_or_else(|| binding.route.clone());
            AdmissionRequest::new(binding.flow, route, binding.priority)
        })
        .collect();
    ctl.release_batch(&order).unwrap();
    assert_eq!(
        ctl.partition(),
        &DependencyGraph::new(ctl.accepted()),
        "partition must stay exact after the batched release"
    );
    ctl.rebase(survivor.topology().clone()).unwrap();
    let decisions = ctl.request_batch(requests).unwrap();
    assert!(decisions.iter().all(|d| d.is_accepted()));

    assert_eq!(ctl.n_accepted(), n_before);
    assert_eq!(ctl.partition(), &DependencyGraph::new(ctl.accepted()));
}
