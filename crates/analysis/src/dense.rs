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
//! * **Flow and resource interner** — flows get dense indices (their
//!   position in the id-sorted binding list), resources get dense indices
//!   in a sorted table, and every `(flow, resource-on-its-route)` pair gets
//!   a *pair id* addressing a contiguous `n_frames` range of a flat arena.
//! * **[`DenseJitters`]** — the generalized-jitter state as one `Vec<Time>`
//!   arena plus a per-pair running max cache, replacing the `BTreeMap`
//!   probes of [`JitterMap::get`] / [`JitterMap::max_jitter`] with slot
//!   reads.
//! * **Interference tables** — per flow, per stage of its Figure 6 walk:
//!   the interferer list of the stage's underlying link with each
//!   interferer's demand index, jitter pair id and static blocking term,
//!   plus the precomputed utilization of the stage's overload check.  Stage
//!   code iterates a cached slice instead of calling `flows_on_link` /
//!   `hep` and probing demand maps inside fixed-point closures.
//!
//! The plan is immutable for the lifetime of its
//! [`crate::context::AnalysisContext`]; the engine converts the keyed seed
//! to dense form once per run ([`DenseJitters::from_keyed`]) and converts
//! the converged iterate back once at the end ([`DenseJitters::to_keyed`]).
//! Every value it stores or computes is obtained by the same arithmetic, in
//! the same order, as the keyed stage implementations, so bounds are
//! byte-identical (property-tested against the keyed reference engine in
//! `tests/dense_engine_properties.rs`).

use crate::context::{JitterMap, ResourceId};
use crate::error::{AnalysisError, StageKind};
use crate::index::{cx, ux};
use gmf_model::{FlowId, LinkDemand, Time};
use gmf_net::{FlowSet, NodeId, Topology};

/// Sentinel pair id for an interferer that never accumulates jitter at the
/// stage's resource (a flow terminating at the switch whose ingress is
/// analysed): its stored jitter is identically zero.
pub(crate) const NO_PAIR: u32 = u32::MAX;

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
    /// All distinct resources of all flows' walks, sorted.
    pub resources: Vec<ResourceId>,
    /// One plan per flow, in binding (id) order.
    pub flows: Vec<FlowPlan>,
    /// Pair id → resource index (into `resources`).
    pub pair_resource: Vec<u32>,
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
    /// Intern `flows` against `topology`: number the resources, lay out the
    /// jitter arena and build every flow's interference tables.  `demands`
    /// receives the per-(flow, link) demands in discovery order; stage
    /// plans reference them by index.
    pub fn build(
        topology: &Topology,
        flows: &FlowSet,
        demands: &mut Vec<LinkDemand>,
        demand_lookup: &mut std::collections::BTreeMap<(FlowId, NodeId, NodeId), u32>,
    ) -> Result<DensePlan, AnalysisError> {
        use std::collections::BTreeMap;

        let bindings = flows.bindings();
        let link_index = flows.link_index();

        // Demands: one per (flow, hop-of-its-route), discovered in binding
        // order (identical coverage to the keyed context).
        for binding in bindings {
            for hop in binding.route.hops() {
                let link = topology.link_between(hop.from, hop.to)?;
                let demand = LinkDemand::new(&binding.flow, &binding.encapsulation, link.speed);
                demand_lookup.insert(
                    (binding.id, hop.from, hop.to),
                    // tidy-allow: unwrap invariant: demand count fits u32
                    u32::try_from(demands.len()).expect("demand count fits u32"),
                );
                demands.push(demand);
            }
        }
        let demand_of =
            |flow: FlowId, from: NodeId, to: NodeId| -> u32 { demand_lookup[&(flow, from, to)] };

        // The resource walk of every flow, in route order.  `walks[i]`
        // aligns with `bindings[i]`.
        let mut walks: Vec<Vec<(ResourceId, NodeId, NodeId)>> = Vec::with_capacity(bindings.len());
        for binding in bindings {
            let route = &binding.route;
            let source = route.source();
            let first_succ = route.successor(source)?;
            let mut walk = vec![(
                ResourceId::Link {
                    from: source,
                    to: first_succ,
                },
                source,
                first_succ,
            )];
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
            walks.push(walk);
        }

        // Resource interner.
        let mut resources: Vec<ResourceId> = walks
            .iter()
            .flat_map(|walk| walk.iter().map(|&(resource, _, _)| resource))
            .collect();
        resources.sort_unstable();
        resources.dedup();
        let resource_of = |resource: ResourceId| -> u32 {
            u32::try_from(
                resources
                    .binary_search(&resource)
                    // tidy-allow: unwrap invariant: walk resources are interned
                    .expect("walk resources are interned"),
            )
            // tidy-allow: unwrap invariant: resource count fits u32
            .expect("resource count fits u32")
        };

        // Pair layout: one pair per (flow, resource-of-its-walk), arena
        // ranges assigned in walk order.
        let mut pair_resource = Vec::new();
        let mut pair_base = Vec::new();
        let mut pair_frames = Vec::new();
        let mut pair_lookup: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut arena_len = 0u32;
        for (flow_idx, (binding, walk)) in bindings.iter().zip(&walks).enumerate() {
            // tidy-allow: unwrap invariant: frame count fits u32
            let n_frames = u32::try_from(binding.flow.n_frames()).expect("frame count fits u32");
            for &(resource, _, _) in walk {
                // tidy-allow: unwrap invariant: pair count fits u32
                let pair = u32::try_from(pair_resource.len()).expect("pair count fits u32");
                let resource_idx = resource_of(resource);
                pair_lookup.insert((cx(flow_idx), resource_idx), pair);
                pair_resource.push(resource_idx);
                pair_base.push(arena_len);
                pair_frames.push(n_frames);
                arena_len += n_frames;
            }
        }
        // Pair of `flow`'s jitter at `resource`, NO_PAIR when the flow
        // never stores jitter there (reads are then identically zero).
        let flow_idx_of: BTreeMap<FlowId, u32> = bindings
            .iter()
            .enumerate()
            .map(|(i, b)| (b.id, cx(i)))
            .collect();
        let pair_of = |flow: FlowId, resource: ResourceId| -> u32 {
            resources
                .binary_search(&resource)
                .ok()
                .and_then(|resource_idx| {
                    pair_lookup
                        .get(&(flow_idx_of[&flow], cx(resource_idx)))
                        .copied()
                })
                .unwrap_or(NO_PAIR)
        };

        // Per-flow stage plans with interference tables.
        let mut flow_plans = Vec::with_capacity(bindings.len());
        let mut terms: Vec<TermSpec> = Vec::new();
        for (binding, walk) in bindings.iter().zip(&walks) {
            let mut stages = Vec::with_capacity(walk.len());
            let mut input_pairs: Vec<u32> = Vec::new();
            for &(resource, from, to) in walk {
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
                let on_link = link_index.flows_on_link(from, to);
                let mut interferers = Vec::new();
                // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
                let mut utilization = 0.0f64;
                match stage {
                    StageKind::FirstHop => {
                        for &j in on_link {
                            let demand = demand_of(j, from, to);
                            utilization += demands[ux(demand)].utilization();
                            let is_self = j == binding.id;
                            interferers.push(Interferer {
                                demand,
                                pair: pair_of(j, resource),
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
                        for &j in on_link {
                            let demand = demand_of(j, from, to);
                            let d = &demands[ux(demand)];
                            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
                            utilization += d.nsum() as f64 * circ.as_secs() / d.tsum().as_secs();
                            interferers.push(Interferer {
                                demand,
                                pair: pair_of(j, resource),
                                blocking_c: Time::ZERO,
                                is_self: j == binding.id,
                            });
                        }
                    }
                    StageKind::EgressLink => {
                        for &j in on_link {
                            if j == binding.id {
                                continue;
                            }
                            let other = flows.get(j).map_err(AnalysisError::Net)?;
                            if other.priority < binding.priority {
                                continue;
                            }
                            let demand = demand_of(j, from, to);
                            let d = &demands[ux(demand)];
                            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
                            utilization += (d.csum().as_secs() + d.nsum() as f64 * circ.as_secs())
                                / d.tsum().as_secs();
                            interferers.push(Interferer {
                                demand,
                                pair: pair_of(j, resource),
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
                    pair: pair_of(binding.id, resource),
                    own_demand: demand_of(binding.id, from, to),
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
            resources,
            flows: flow_plans,
            pair_resource,
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
/// **Write discipline:** every construction path writes each slot at most
/// once with its final value (the single benign exception — the pipeline
/// re-recording a flow's first-link source jitter over the initial map's
/// identical value — is exact re-assignment), so the running max never has
/// to handle a lowered slot.  [`DenseJitters::copy_pair_from`] recomputes
/// its pair's max from the slice and is safe for arbitrary overwrites.
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
        for (flow_plan, binding) in plan.flows.iter().zip(flows.bindings()) {
            for (frame, spec) in binding.flow.frames().iter().enumerate() {
                map.set(plan, flow_plan.first_link_pair, frame, spec.jitter);
            }
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
            let Ok(resource_idx) = plan.resources.binary_search(&resource) else {
                continue;
            };
            let Some(pair) = plan.flows[flow_idx]
                .stages
                .iter()
                .find(|s| ux(plan.pair_resource[ux(s.pair)]) == resource_idx)
                .map(|s| s.pair)
            else {
                continue;
            };
            let range = plan.range(pair);
            let slots = range.len();
            for (frame, &value) in values.iter().take(slots).enumerate() {
                map.values[range.start + frame] = value;
            }
            map.maxes[ux(pair)] = map.values[range]
                .iter()
                .copied()
                .fold(Time::ZERO, Time::max);
        }
        map
    }

    /// Convert back to the keyed boundary form (seed caching, public API).
    /// Every pair is emitted, including all-zero ones — `JitterMap` treats
    /// missing and zero entries identically, so downstream reads match.
    pub fn to_keyed(&self, plan: &DensePlan) -> JitterMap {
        let mut keyed = JitterMap::default();
        for flow_plan in &plan.flows {
            for stage in &flow_plan.stages {
                let values = self.values[plan.range(stage.pair)].to_vec();
                keyed.insert_raw(flow_plan.id, stage.resource, values);
            }
        }
        keyed
    }

    /// The jitter of `frame` at `pair` (the engine reads whole slices via
    /// [`Self::slots`]; per-slot reads are a test convenience).
    #[cfg(test)]
    pub fn get(&self, plan: &DensePlan, pair: u32, frame: usize) -> Time {
        self.values[ux(plan.pair_base[ux(pair)]) + frame]
    }

    /// Set the jitter of `frame` at `pair` (see the write discipline in
    /// the type docs).
    #[inline]
    pub fn set(&mut self, plan: &DensePlan, pair: u32, frame: usize, value: Time) {
        let idx = ux(plan.pair_base[ux(pair)]) + frame;
        debug_assert!(
            self.values[idx] <= value || self.values[idx].approx_eq(value),
            "dense jitter slot lowered from {} to {value}",
            self.values[idx]
        );
        self.values[idx] = value;
        self.maxes[ux(pair)] = self.maxes[ux(pair)].max(value);
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

    /// Copy one pair's slice (and recompute its max) from `other`.  Used to
    /// carry frozen flows' jitters through scoped rounds.
    pub fn copy_pair_from(&mut self, plan: &DensePlan, other: &DenseJitters, pair: u32) {
        let range = plan.range(pair);
        self.values[range.clone()].copy_from_slice(&other.values[range.clone()]);
        self.maxes[ux(pair)] = self.values[range]
            .iter()
            .copied()
            .fold(Time::ZERO, Time::max);
    }

    /// Componentwise approximate equality (the holistic convergence test).
    pub fn approx_eq(&self, other: &DenseJitters) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|(a, b)| a.approx_eq(*b))
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

    /// `true` if `self` and `other` are *exactly* equal on every slot of
    /// every listed pair — the round-skipping test (exact equality, not the
    /// convergence tolerance, so a skipped analysis is byte-identical by
    /// construction).
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
        let dense = DenseJitters::initial(plan, &fs);
        // Every pair's slots and max agree with the keyed reads.
        for flow_plan in &plan.flows {
            for stage in &flow_plan.stages {
                for frame in 0..flow_plan.n_frames {
                    assert_eq!(
                        dense.get(plan, stage.pair, frame),
                        keyed.get(flow_plan.id, stage.resource, frame)
                    );
                }
                assert_eq!(
                    dense.max_jitter(stage.pair),
                    keyed.max_jitter(flow_plan.id, stage.resource)
                );
            }
        }
        // Keyed → dense → keyed is read-equivalent (zeros become explicit).
        let roundtrip = DenseJitters::from_keyed(plan, &fs, &keyed);
        assert_eq!(roundtrip, dense);
        assert!(roundtrip.to_keyed(plan).approx_eq(&keyed));
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
        b.set(plan, pair, 0, Time::from_millis(9.0));
        assert!(!a.pairs_equal(plan, &b, &all));
        assert!(!a.pairs_equal(plan, &b, &[pair]));
        // Pairs other than the touched one still compare equal.
        let others: Vec<u32> = all.iter().copied().filter(|&p| p != pair).collect();
        assert!(a.pairs_equal(plan, &b, &others));
        assert!(a.max_abs_diff(&b) > Time::ZERO);
        assert!(!a.approx_eq(&b));
        // Copying the pair back restores exact equality.
        let mut c = b.clone();
        c.copy_pair_from(plan, &a, pair);
        assert!(a.pairs_equal(plan, &c, &all));
        assert_eq!(c.max_jitter(pair), a.max_jitter(pair));
        assert_eq!(a.max_jitter(NO_PAIR), Time::ZERO);
    }
}
