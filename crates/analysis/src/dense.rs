//! The dense-index data plane of the analysis engine.
//!
//! The keyed view of the analysis state — [`JitterMap`] keyed by
//! `(FlowId, ResourceId)`, [`crate::context::AnalysisContext::demand`]
//! keyed by `(FlowId, NodeId, NodeId)`, `FlowSet::flows_on_link` rescanning
//! every route — is the right interface at the boundary (seeds, caches,
//! reports, serde), but tree-map probes and fresh `Vec` allocations in the
//! busy-period recurrences dominate the cost of a holistic round.  This
//! module interns everything once per analysis:
//!
//! * **Flow and pair interner** — flows get dense indices (their
//!   position in the id-sorted binding list), and every
//!   `(flow, resource-on-its-route)` pair gets a *pair id*, numbered flow
//!   by flow in walk order, addressing a contiguous `n_frames` range of a
//!   flat arena — so each flow's jitters are one contiguous slice too.
//! * **[`DenseJitters`]** — the generalized-jitter state as one `Vec<Time>`
//!   arena plus a per-pair running max cache, replacing the `BTreeMap`
//!   probes of [`JitterMap::get`] / [`JitterMap::max_jitter`] with slot
//!   reads.
//! * **Interference tables** — per flow, per stage of its Figure 6 walk:
//!   the interferer list of the stage's underlying link with each
//!   interferer's demand index, jitter pair id and static blocking term,
//!   plus the precomputed utilization of the stage's overload check.  Stage
//!   code iterates a cached slice instead of calling `flows_on_link` /
//!   `hep` and probing demand maps inside fixed-point closures.  Demand
//!   indices come from the context's per-hop demand-id table: a flow has
//!   one demand per link speed of its route, so hops at the same speed
//!   share one demand and one table.
//!
//! The plan is immutable for the lifetime of its
//! [`crate::context::AnalysisContext`].  The engine runs on the dense
//! arena from seed to converged iterate; only the public
//! `iterate_from` converts a keyed seed in ([`DenseJitters::from_keyed`]),
//! while the admission plane moves whole per-flow slices
//! ([`DenseJitters::flow_slots`], [`DenseJitters::load_flow`]).
//! Every value it stores or computes is obtained by the same arithmetic, in
//! the same order, as the keyed stage implementations, so bounds are
//! byte-identical (property-tested against the keyed reference engine,
//! `gmf_bench::oracle::analyze_reference`, in
//! `tests/dense_engine_properties.rs`).

use crate::context::{JitterMap, ResourceId};
use crate::error::{AnalysisError, StageKind};
use crate::index::{cx, ux};
use gmf_model::{FlowId, LinkDemand, Time};
use gmf_net::{FlowBinding, FlowSet, NetError, NodeId, Route, Topology};

/// Sentinel pair id for an interferer that never accumulates jitter at the
/// stage's resource (a flow terminating at the switch whose ingress is
/// analysed): its stored jitter is identically zero.
pub(crate) const NO_PAIR: u32 = u32::MAX;

/// Append the Figure 6 walk of `route` to `walk`: its resources in route
/// order, each with the directed link whose flows interfere there — the
/// first link, then per switch its ingress (fed by the incoming link) and
/// its egress link.  Fails only on a structurally broken route.
pub(crate) fn route_walk(
    route: &Route,
    walk: &mut Vec<(ResourceId, NodeId, NodeId)>,
) -> Result<(), NetError> {
    let source = route.source();
    let first_succ = route.successor(source)?;
    walk.push((
        ResourceId::Link {
            from: source,
            to: first_succ,
        },
        source,
        first_succ,
    ));
    for &switch in route.switches() {
        let prec = route.predecessor(switch)?;
        let succ = route.successor(switch)?;
        walk.push((ResourceId::SwitchIngress { node: switch }, prec, switch));
        walk.push((
            ResourceId::Link {
                from: switch,
                to: succ,
            },
            switch,
            succ,
        ));
    }
    Ok(())
}

/// One flow transmitting on a directed link, resolved to the dense indices
/// of the stages the link feeds (plan construction only).
#[derive(Debug, Clone, Copy)]
struct LinkUser {
    /// The flow's index.
    flow: usize,
    /// Its demand on the link.
    demand: u32,
    /// Its jitter pair at the link's output queue.
    link_pair: u32,
    /// Its jitter pair at the ingress of the switch the link feeds, or
    /// [`NO_PAIR`] when the link ends its route.
    ingress_pair: u32,
}

/// One interfering flow at one stage, fully resolved to dense indices.
#[derive(Debug, Clone)]
pub(crate) struct Interferer {
    /// Index of the interferer's demand on the stage's underlying link.
    pub demand: u32,
    /// Pair id of the interferer's jitter at the stage's resource, or
    /// [`NO_PAIR`] when the interferer stores no jitter there.
    pub pair: u32,
    /// The interferer's largest single-frame transmission time on the
    /// link — the first-hop blocking refinement widens the interference
    /// window by this much (zero for the flow under analysis).
    pub blocking_c: Time,
    /// `true` when the interferer is the flow under analysis itself.
    pub is_self: bool,
}

/// One interference term precompiled for the per-frame kernels: the
/// interferer's demand-table index, its jitter pair and the static
/// blocking widening, laid out contiguously in [`DensePlan::terms`] so a
/// stage build resolves its round-dependent `extra_j` values with one
/// branch-free slice walk (see [`crate::kernel`]).
///
/// `blocking_c` is stored as [`Time::ZERO`] for the flow under analysis,
/// so the first-hop blocking refinement can add it unconditionally —
/// `x + 0.0` is exact in IEEE 754, keeping the walk branchless *and*
/// byte-identical to the keyed `is_self` branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermSpec {
    /// Index of the interferer's demand table (same index space as
    /// demands — the interner stores them side by side).
    pub table: u32,
    /// Pair id of the interferer's jitter at the stage's resource.
    pub pair: u32,
    /// Static first-hop blocking widening (zero for self / non-first-hop).
    pub blocking_c: Time,
}

/// One resource of a flow's Figure 6 pipeline walk, with everything its
/// response-time analysis needs precomputed.
#[derive(Debug, Clone)]
pub(crate) struct StagePlan {
    /// Which of the three per-resource analyses applies.
    pub stage: StageKind,
    /// The resource (for report hops and error messages).
    pub resource: ResourceId,
    /// Pair id of the analysed flow's jitter at this resource (where the
    /// pipeline walk records its accumulated `JSUM`).
    pub pair: u32,
    /// Index of the analysed flow's own demand on the stage's link.
    pub own_demand: u32,
    /// The stage's long-run demand (left-hand side of its overload check),
    /// summed in interferer id order exactly as the keyed analyses do.
    pub utilization: f64, // tidy-allow: float utilization ratio, not a bound
    /// Range into [`DensePlan::terms`] with every interferer of the stage
    /// in id order (all flows on the link for first hop / ingress, the
    /// higher-or-equal-priority flows for egress) — the slice the
    /// busy-period kernels walk.
    pub all_terms: std::ops::Range<u32>,
    /// Range into [`DensePlan::terms`] with the non-self interferers in id
    /// order — the slice the `w(q)` kernels walk.  Equal to `all_terms`
    /// for egress stages, whose interferer set never contains self.
    pub other_terms: std::ops::Range<u32>,
    /// `CIRC(N)` of the switch (ingress / egress stages; zero first hop).
    pub circ: Time,
    /// Propagation delay of the traversed link (first hop / egress stages;
    /// zero for ingress, which eq. 26 does not charge).
    pub propagation: Time,
}

/// The dense walk of one flow.
#[derive(Debug, Clone)]
pub(crate) struct FlowPlan {
    /// The flow's id.
    pub id: FlowId,
    /// Number of frames in the flow's GMF cycle.
    pub n_frames: usize,
    /// Pair id of the flow's first-link jitter (seeded with the source
    /// jitter by the initial map).
    pub first_link_pair: u32,
    /// The Figure 6 stages in route order: first hop, then per switch the
    /// ingress stage and the egress link.
    pub stages: Vec<StagePlan>,
    /// Sorted, deduplicated pair ids this flow's analysis reads (the
    /// jitters of every interferer at every stage, including the flow's
    /// own).  Two iterates that agree on these slots yield byte-identical
    /// analyses of the flow — the round-skipping rule of the fixed-point
    /// engine.
    pub input_pairs: Vec<u32>,
}

/// The per-analysis interner and interference tables (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct DensePlan {
    /// One plan per flow, in binding (id) order.
    pub flows: Vec<FlowPlan>,
    /// Pair id → first arena slot of its `n_frames` range.
    pub pair_base: Vec<u32>,
    /// Pair id → number of frames (range length).
    pub pair_frames: Vec<u32>,
    /// Total arena length (sum of all pair ranges).
    pub arena_len: usize,
    /// Flat arena of precompiled interference terms; stage plans address
    /// it through their `all_terms` / `other_terms` ranges.
    pub terms: Vec<TermSpec>,
}

impl DensePlan {
    /// Intern `flows` against `topology`: number the pairs, lay out the
    /// jitter arena and build every flow's interference tables.
    /// `hop_demands` holds every flow's demand id on each hop of its
    /// route, in hop order, flow index `i` starting at `hop_start[i]`;
    /// stage plans reference `demands` by those ids.
    pub fn build(
        topology: &Topology,
        flows: &FlowSet,
        demands: &[LinkDemand],
        hop_demands: &[u32],
        hop_start: &[u32],
    ) -> Result<DensePlan, AnalysisError> {
        use std::collections::BTreeMap;

        let bindings = flows.bindings();
        // Stage `k` of a walk sits on hop `k / 2` of the route.
        let stage_demand = |flow: usize, k: usize| hop_demands[ux(hop_start[flow]) + k / 2];

        // The resource walk of every flow, in route order.  `walks[i]`
        // aligns with `bindings[i]`.
        let mut walks: Vec<Vec<(ResourceId, NodeId, NodeId)>> = Vec::with_capacity(bindings.len());
        for binding in bindings {
            let mut walk = Vec::new();
            route_walk(&binding.route, &mut walk)?;
            walks.push(walk);
        }

        // Pair layout: one pair per (flow, resource-of-its-walk), arena
        // ranges assigned in walk order.
        let mut pair_base = Vec::new();
        let mut pair_frames = Vec::new();
        let mut first_pair = Vec::with_capacity(bindings.len());
        let mut arena_len = 0u32;
        for (binding, walk) in bindings.iter().zip(&walks) {
            // tidy-allow: unwrap invariant: frame count fits u32
            let n_frames = u32::try_from(binding.flow.n_frames()).expect("frame count fits u32");
            // tidy-allow: unwrap invariant: pair count fits u32
            first_pair.push(u32::try_from(pair_base.len()).expect("pair count fits u32"));
            for _ in walk {
                pair_base.push(arena_len);
                pair_frames.push(n_frames);
                arena_len += n_frames;
            }
        }
        // Every directed link's users in id order (the order of
        // `FlowSet::flows_on_link`), each resolved to dense indices.  A
        // link stage is followed by the ingress of the switch it feeds —
        // unless the link ends the route.
        let mut link_users: BTreeMap<(NodeId, NodeId), Vec<LinkUser>> = BTreeMap::new();
        for (flow, walk) in walks.iter().enumerate() {
            for (k, &(resource, from, to)) in walk.iter().enumerate() {
                if let ResourceId::Link { .. } = resource {
                    let pair = first_pair[flow] + cx(k);
                    link_users.entry((from, to)).or_default().push(LinkUser {
                        flow,
                        demand: stage_demand(flow, k),
                        link_pair: pair,
                        ingress_pair: if k + 1 < walk.len() {
                            pair + 1
                        } else {
                            NO_PAIR
                        },
                    });
                }
            }
        }

        // Per-flow stage plans with interference tables.
        let mut flow_plans = Vec::with_capacity(bindings.len());
        let mut terms: Vec<TermSpec> = Vec::new();
        for (flow, (binding, walk)) in bindings.iter().zip(&walks).enumerate() {
            let mut stages = Vec::with_capacity(walk.len());
            let mut input_pairs: Vec<u32> = Vec::new();
            for (k, &(resource, from, to)) in walk.iter().enumerate() {
                let (stage, circ, propagation) = match resource {
                    ResourceId::Link { .. } if from == binding.route.source() => (
                        StageKind::FirstHop,
                        Time::ZERO,
                        topology.link_between(from, to)?.propagation,
                    ),
                    ResourceId::Link { .. } => (
                        StageKind::EgressLink,
                        topology.circ(from)?,
                        topology.link_between(from, to)?.propagation,
                    ),
                    ResourceId::SwitchIngress { node } => {
                        (StageKind::SwitchIngress, topology.circ(node)?, Time::ZERO)
                    }
                };

                // Interferer set and overload-check utilization, summed in
                // the same id order as the keyed stage code.
                let on_link = link_users.get(&(from, to)).map_or(&[][..], Vec::as_slice);
                let pair_at = |user: &LinkUser| match resource {
                    ResourceId::Link { .. } => user.link_pair,
                    ResourceId::SwitchIngress { .. } => user.ingress_pair,
                };
                let mut interferers = Vec::new();
                // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
                let mut utilization = 0.0f64;
                match stage {
                    StageKind::FirstHop => {
                        for user in on_link {
                            let demand = user.demand;
                            utilization += demands[ux(demand)].utilization();
                            let is_self = user.flow == flow;
                            interferers.push(Interferer {
                                demand,
                                pair: pair_at(user),
                                blocking_c: if is_self {
                                    Time::ZERO
                                } else {
                                    demands[ux(demand)].max_c()
                                },
                                is_self,
                            });
                        }
                    }
                    StageKind::SwitchIngress => {
                        for user in on_link {
                            let demand = user.demand;
                            let d = &demands[ux(demand)];
                            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
                            utilization += d.nsum() as f64 * circ.as_secs() / d.tsum().as_secs();
                            interferers.push(Interferer {
                                demand,
                                pair: pair_at(user),
                                blocking_c: Time::ZERO,
                                is_self: user.flow == flow,
                            });
                        }
                    }
                    StageKind::EgressLink => {
                        for user in on_link {
                            if user.flow == flow || bindings[user.flow].priority < binding.priority
                            {
                                continue;
                            }
                            let demand = user.demand;
                            let d = &demands[ux(demand)];
                            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
                            utilization += (d.csum().as_secs() + d.nsum() as f64 * circ.as_secs())
                                / d.tsum().as_secs();
                            interferers.push(Interferer {
                                demand,
                                pair: pair_at(user),
                                blocking_c: Time::ZERO,
                                is_self: false,
                            });
                        }
                    }
                }
                input_pairs.extend(
                    interferers
                        .iter()
                        .map(|i| i.pair)
                        .filter(|&pair| pair != NO_PAIR),
                );
                // Precompile the kernel term slices: all interferers, then
                // (for stages whose w(q) recurrence drops self) the
                // non-self subset, both preserving id order.
                // tidy-allow: unwrap invariant: term count fits u32
                let all_start = u32::try_from(terms.len()).expect("term count fits u32");
                terms.extend(interferers.iter().map(|i| TermSpec {
                    table: i.demand,
                    pair: i.pair,
                    blocking_c: i.blocking_c,
                }));
                // tidy-allow: unwrap invariant: term count fits u32
                let all_end = u32::try_from(terms.len()).expect("term count fits u32");
                let other_terms = if interferers.iter().any(|i| i.is_self) {
                    terms.extend(interferers.iter().filter(|i| !i.is_self).map(|i| TermSpec {
                        table: i.demand,
                        pair: i.pair,
                        blocking_c: i.blocking_c,
                    }));
                    // tidy-allow: unwrap invariant: term count fits u32
                    let other_end = u32::try_from(terms.len()).expect("term count fits u32");
                    all_end..other_end
                } else {
                    all_start..all_end
                };
                stages.push(StagePlan {
                    stage,
                    resource,
                    pair: first_pair[flow] + cx(k),
                    own_demand: stage_demand(flow, k),
                    utilization,
                    all_terms: all_start..all_end,
                    other_terms,
                    circ,
                    propagation,
                });
            }
            input_pairs.sort_unstable();
            input_pairs.dedup();
            flow_plans.push(FlowPlan {
                id: binding.id,
                n_frames: binding.flow.n_frames(),
                first_link_pair: stages[0].pair,
                stages,
                input_pairs,
            });
        }

        Ok(DensePlan {
            flows: flow_plans,
            pair_base,
            pair_frames,
            arena_len: ux(arena_len),
            terms,
        })
    }

    /// The term slice of a stage range (kernel walks).
    #[inline]
    pub fn term_slice(&self, range: &std::ops::Range<u32>) -> &[TermSpec] {
        &self.terms[ux(range.start)..ux(range.end)]
    }

    /// The arena range of flow index `flow`: its pairs are laid out
    /// contiguously in walk order, so this is one slice of
    /// `stages × n_frames` slots.
    pub fn flow_range(&self, flow: usize) -> std::ops::Range<usize> {
        let flow_plan = &self.flows[flow];
        let base = ux(self.pair_base[ux(flow_plan.first_link_pair)]);
        base..base + flow_plan.stages.len() * flow_plan.n_frames
    }

    /// Number of pairs in the layout.
    pub fn n_pairs(&self) -> usize {
        self.pair_base.len()
    }

    /// The arena range of a pair.
    #[inline]
    pub fn range(&self, pair: u32) -> std::ops::Range<usize> {
        let base = ux(self.pair_base[ux(pair)]);
        base..base + ux(self.pair_frames[ux(pair)])
    }
}

/// The generalized-jitter state in arena form: one `Time` slot per
/// `(flow, resource-on-its-route, frame)`, plus a per-pair running max
/// cache backing the `extra_j` reads of the stage analyses.
///
/// Every write recomputes the written pairs' maxima from their slices, so
/// a slot may move either way (the engine folds each round into a reused
/// arena).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseJitters {
    values: Vec<Time>,
    maxes: Vec<Time>,
}

impl DenseJitters {
    /// The all-zero map.
    pub fn zeroed(plan: &DensePlan) -> DenseJitters {
        DenseJitters {
            values: vec![Time::ZERO; plan.arena_len],
            maxes: vec![Time::ZERO; plan.n_pairs()],
        }
    }

    /// The paper's initial map: every flow's specified source jitter on its
    /// first link, zero everywhere else.
    pub fn initial(plan: &DensePlan, flows: &FlowSet) -> DenseJitters {
        let mut map = DenseJitters::zeroed(plan);
        for (flow, binding) in flows.bindings().iter().enumerate() {
            map.set_initial_flow(plan, flow, binding);
        }
        map
    }

    /// Convert a keyed seed.  Keys outside the plan (flows or resources
    /// not in this analysis) are ignored — the analysis never reads them,
    /// exactly as the keyed engine's `get` would return zero for slots the
    /// seed does not cover.
    pub fn from_keyed(plan: &DensePlan, flows: &FlowSet, keyed: &JitterMap) -> DenseJitters {
        let mut map = DenseJitters::zeroed(plan);
        let bindings = flows.bindings();
        for (&(flow, resource), values) in keyed.iter() {
            let Ok(flow_idx) = bindings.binary_search_by_key(&flow, |b| b.id) else {
                continue;
            };
            let Some(pair) = plan.flows[flow_idx]
                .stages
                .iter()
                .find(|s| s.resource == resource)
                .map(|s| s.pair)
            else {
                continue;
            };
            let range = plan.range(pair);
            let slots = range.len();
            for (frame, &value) in values.iter().take(slots).enumerate() {
                map.values[range.start + frame] = value;
            }
            map.refresh_max(plan, pair);
        }
        map
    }

    /// Flow index `flow`'s slots, stage-major in walk order (see
    /// [`DensePlan::flow_range`]) — the per-flow form the admission
    /// plane's warm cache stores.
    pub fn flow_slots(&self, plan: &DensePlan, flow: usize) -> &[Time] {
        &self.values[plan.flow_range(flow)]
    }

    /// Overwrite flow index `flow`'s slots with `slots` (as returned by
    /// [`Self::flow_slots`] for the same flow and route) and recompute its
    /// pairs' maxima.  A slice of the wrong length is ignored, leaving
    /// the flow's slots as they were.
    pub fn load_flow(&mut self, plan: &DensePlan, flow: usize, slots: &[Time]) {
        let range = plan.flow_range(flow);
        if range.len() != slots.len() {
            return;
        }
        self.values[range].copy_from_slice(slots);
        for stage in &plan.flows[flow].stages {
            self.refresh_max(plan, stage.pair);
        }
    }

    /// Write flow index `flow`'s jitters from its stage `responses`
    /// (laid out like [`Self::flow_slots`]): frame `k` enters each stage
    /// with its source jitter plus the responses of the stages before it
    /// — Figure 6's `JSUM`.
    pub fn fold_flow(
        &mut self,
        plan: &DensePlan,
        flow: usize,
        binding: &FlowBinding,
        responses: &[Time],
    ) {
        let flow_plan = &plan.flows[flow];
        let n_frames = flow_plan.n_frames;
        let slots = &mut self.values[plan.flow_range(flow)];
        for (frame, spec) in binding.flow.frames().iter().enumerate() {
            let mut jsum = spec.jitter;
            for slot in (frame..slots.len()).step_by(n_frames) {
                slots[slot] = jsum;
                jsum += responses[slot];
            }
        }
        for stage in &flow_plan.stages {
            self.refresh_max(plan, stage.pair);
        }
    }

    /// Set flow index `flow`'s source jitters on its first link, as the
    /// paper's initial map does (the warm trial's candidate seed).
    pub fn set_initial_flow(&mut self, plan: &DensePlan, flow: usize, binding: &FlowBinding) {
        let pair = plan.flows[flow].first_link_pair;
        let slots = &mut self.values[plan.range(pair)];
        for (slot, spec) in slots.iter_mut().zip(binding.flow.frames()) {
            *slot = spec.jitter;
        }
        self.refresh_max(plan, pair);
    }

    /// Recompute the running max of `pair` from its slots.
    fn refresh_max(&mut self, plan: &DensePlan, pair: u32) {
        self.maxes[ux(pair)] = self.values[plan.range(pair)]
            .iter()
            .copied()
            .fold(Time::ZERO, Time::max);
    }

    /// The jitter of `frame` at `pair` (the engine reads whole slices via
    /// [`Self::flow_slots`]; per-slot reads are a test convenience).
    #[cfg(test)]
    pub fn get(&self, plan: &DensePlan, pair: u32, frame: usize) -> Time {
        self.values[ux(plan.pair_base[ux(pair)]) + frame]
    }

    /// `extra_j`: the largest jitter of any frame at `pair`
    /// ([`NO_PAIR`] reads as zero).  This is the cached form of
    /// [`JitterMap::max_jitter`].
    #[inline]
    pub fn max_jitter(&self, pair: u32) -> Time {
        if pair == NO_PAIR {
            Time::ZERO
        } else {
            self.maxes[ux(pair)]
        }
    }

    /// `‖self − other‖_∞` — the per-round residual.
    pub fn max_abs_diff(&self, other: &DenseJitters) -> Time {
        let mut worst = Time::ZERO;
        for (&a, &b) in self.values.iter().zip(&other.values) {
            let diff = if a >= b { a - b } else { b - a };
            worst = worst.max(diff);
        }
        worst
    }

    /// `true` if `self` and `other` are equal on every slot of every listed
    /// pair — the round-skipping test, so a skipped analysis is
    /// byte-identical by construction.
    pub fn pairs_equal(&self, plan: &DensePlan, other: &DenseJitters, pairs: &[u32]) -> bool {
        pairs.iter().all(|&pair| {
            let range = plan.range(pair);
            self.values[range.clone()] == other.values[range]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use gmf_model::{cbr_flow, paper_figure3_flow};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    fn setup() -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        let voice = cbr_flow(
            "voice",
            160,
            Time::from_millis(20.0),
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        (t, fs)
    }

    #[test]
    fn plan_interns_every_walk_resource() {
        let (t, fs) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        assert_eq!(plan.flows.len(), 2);
        // Route 0 -> 4 -> 6 -> 3: first hop + 2 × (ingress, egress).
        assert_eq!(plan.flows[0].stages.len(), 5);
        assert_eq!(plan.flows[1].stages.len(), 5);
        // 9-frame video + 1-frame voice, 5 resources each.
        assert_eq!(plan.arena_len, 9 * 5 + 5);
        assert_eq!(plan.n_pairs(), 10);
        // Stage kinds alternate as the Figure 6 walk dictates.
        let kinds: Vec<StageKind> = plan.flows[0].stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::FirstHop,
                StageKind::SwitchIngress,
                StageKind::EgressLink,
                StageKind::SwitchIngress,
                StageKind::EgressLink,
            ]
        );
        // Both flows converge on the same final link, so the priority-6
        // video's last (egress) stage sees the priority-7 voice flow as a
        // `hep` interferer with a live jitter pair.
        let last = plan.flows[0].stages.last().unwrap();
        let voice_pairs: Vec<u32> = plan.flows[1].stages.iter().map(|s| s.pair).collect();
        let last_terms = plan.term_slice(&last.all_terms);
        assert!(last_terms.iter().any(|t| voice_pairs.contains(&t.pair)));
        // Egress interferer slices carry no self entry (every pair is
        // live), so both kernel walks share one slice; the first hop's
        // `w(q)` slice drops exactly the self term.
        assert!(last_terms.iter().all(|t| t.pair != NO_PAIR));
        assert_eq!(last.all_terms, last.other_terms);
        let first = &plan.flows[0].stages[0];
        assert_eq!(
            plan.term_slice(&first.all_terms).len(),
            plan.term_slice(&first.other_terms).len() + 1
        );
        // Input pairs are sorted and deduplicated.
        for flow in &plan.flows {
            assert!(flow.input_pairs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn dense_initial_matches_keyed_initial() {
        let (t, fs) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        let keyed = JitterMap::initial(&fs);
        let converted = DenseJitters::from_keyed(plan, &fs, &keyed);
        let dense = DenseJitters::initial(plan, &fs);
        // Slot by slot, the converted keyed map, the dense initial map and
        // the keyed reads agree, and so do the per-pair maxima.
        for flow_plan in &plan.flows {
            for stage in &flow_plan.stages {
                for frame in 0..flow_plan.n_frames {
                    let slot = dense.get(plan, stage.pair, frame);
                    assert_eq!(converted.get(plan, stage.pair, frame), slot);
                    assert_eq!(keyed.get(flow_plan.id, stage.resource, frame), slot);
                }
                assert_eq!(
                    converted.max_jitter(stage.pair),
                    dense.max_jitter(stage.pair)
                );
                assert_eq!(
                    keyed.max_jitter(flow_plan.id, stage.resource),
                    dense.max_jitter(stage.pair)
                );
            }
        }
        assert_eq!(converted, dense);
    }

    #[test]
    fn pairs_equal_is_exact_per_pair() {
        let (t, fs) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        let a = DenseJitters::initial(plan, &fs);
        let mut b = a.clone();
        let all: Vec<u32> = (0..plan.n_pairs() as u32).collect();
        assert!(a.pairs_equal(plan, &b, &all));
        let pair = plan.flows[0].first_link_pair;
        b.values[plan.range(pair).start] = Time::from_millis(9.0);
        b.refresh_max(plan, pair);
        assert!(!a.pairs_equal(plan, &b, &all));
        assert!(!a.pairs_equal(plan, &b, &[pair]));
        // Pairs other than the touched one still compare equal.
        let others: Vec<u32> = all.iter().copied().filter(|&p| p != pair).collect();
        assert!(a.pairs_equal(plan, &b, &others));
        assert!(a.max_abs_diff(&b) > Time::ZERO);
        assert_ne!(a, b);
        // Loading the flow back restores exact equality.
        let mut c = b.clone();
        c.load_flow(plan, 0, a.flow_slots(plan, 0));
        assert!(a.pairs_equal(plan, &c, &all));
        assert_eq!(c.max_jitter(pair), a.max_jitter(pair));
        assert_eq!(a.max_jitter(NO_PAIR), Time::ZERO);
    }
}
