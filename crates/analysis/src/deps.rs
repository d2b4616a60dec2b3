//! The **partition layer** of the admission plane: the jitter-dependency
//! graph's weakly-connected components as first-class *shards*.
//!
//! The holistic fixed point couples the jitters of two flows only through
//! shared resources: every dependency edge `(B, r) → (A, r')` built by the
//! engine requires `B` and `A` to share `r`'s underlying directed link (or
//! `B = A`; see `DependencyScope`).  Consequently the weak
//! components of the per-resource dependency graph, projected onto flows,
//! are exactly the connected components of the *"flows share a directed
//! link"* graph — a flow-level union-find over the
//! [`gmf_net::FlowSet::link_index`] suffices, with no per-resource nodes
//! at all.  That is what [`gmf_net::FlowComponents`] maintains and what
//! this module names:
//!
//! * a **shard** is one weak component, identified by its smallest member
//!   flow id ([`ShardId`]) — stable across arrivals and departures that
//!   do not remove that member;
//! * a candidate whose route touches links used by several shards
//!   **merges** them on acceptance (merge-on-bridge); a rejected candidate
//!   leaves the partition untouched;
//! * a departure rebuilds only the departed flow's shard, splitting it if
//!   the flow was the bridge; a batch of departures rebuilds each shard
//!   it touches once.
//!
//! The payoff is scoping: the fixed point of a shard's flows is
//! independent of every other shard, so an admission trial needs to
//! re-analyze only the candidate's shard, and trials on disjoint shards
//! can run concurrently with bit-identical results (the
//! `AdmissionController::request_batch` path).
//!
//! Within a shard, `DependencyScope` is the per-resource graph itself,
//! interned into dense indices: it decides whether a trial may start
//! warm (the graph is acyclic) and which flows a candidate or a batch of
//! departures can influence ([`affected_flows`]).

use crate::context::ResourceId;
use crate::dense::route_walk;
use crate::index::{cx, ux};
use gmf_model::FlowId;
use gmf_net::{FlowBinding, FlowComponents, FlowSet, NodeId, Route};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The stable name of a shard: the smallest [`FlowId`] among its members.
///
/// A shard keeps its id as long as its smallest member stays admitted;
/// merging shards adopts the smallest of the merged ids.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ShardId(pub FlowId);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard({})", self.0 .0)
    }
}

/// The flow-level view of the jitter-dependency graph: which flows are
/// coupled (transitively, through shared directed links) and therefore
/// must be analyzed together.
///
/// Maintained incrementally by the admission controller; also buildable
/// from any [`FlowSet`] for offline inspection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph {
    components: FlowComponents,
}

impl DependencyGraph {
    /// Build the partition of `flows` from scratch.
    pub fn new(flows: &FlowSet) -> Self {
        DependencyGraph {
            components: FlowComponents::build(flows),
        }
    }

    /// Number of flows in the partition.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if the partition contains no flows.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.components.n_components()
    }

    /// All shard ids, in ascending order.
    pub fn shards(&self) -> Vec<ShardId> {
        self.components
            .components()
            .into_iter()
            .map(|(smallest, _)| ShardId(smallest))
            .collect()
    }

    /// The shard containing `flow`, or `None` if the flow is unknown.
    pub fn shard_of(&self, flow: FlowId) -> Option<ShardId> {
        self.components.component_of(flow).map(ShardId)
    }

    /// The sorted member flows of `shard`, or `None` if no such shard
    /// exists.
    pub fn shard_flows(&self, shard: ShardId) -> Option<&[FlowId]> {
        self.components.members_of(shard.0)
    }

    /// The shards a candidate taking `route` would merge: every shard
    /// with a flow on one of the route's directed links (ascending,
    /// deduplicated).  Empty means the candidate opens a new shard.
    pub fn shards_touching_route(&self, route: &Route) -> Vec<ShardId> {
        self.components
            .components_touching_route(route)
            .into_iter()
            .map(ShardId)
            .collect()
    }

    /// Record an admitted flow, merging every shard its route touches
    /// (merge-on-bridge).
    pub fn insert(&mut self, binding: &FlowBinding) {
        self.components.insert(binding);
    }

    /// Record a departure, rebuilding (and possibly splitting) the
    /// departed flow's shard.  `remaining` is the flow set *after* the
    /// removal.
    pub fn remove(&mut self, binding: &FlowBinding, remaining: &FlowSet) {
        self.components.remove(binding, remaining);
    }

    /// Record several departures at once, rebuilding each shard they
    /// touch once (see [`FlowComponents::remove_many`]); the shards that
    /// result equal those of removing the flows one by one.  `remaining`
    /// is the flow set *after* every removal.
    pub fn remove_many(&mut self, bindings: &[FlowBinding], remaining: &FlowSet) {
        self.components.remove_many(bindings, remaining);
    }
}

/// The flows whose bounds can change when `seed` joins or leaves `flows` —
/// the re-verification scope of one incremental admission decision (the
/// closure of `seed`'s resources under the jitter-dependency edges,
/// projected onto flows).
///
/// Always a subset of `seed`'s shard; usually a *strict* subset, because
/// dependency edges are directed while shards are weak components.
/// Returns `None` when a route is structurally broken or `seed` is not in
/// `flows` (callers fall back to re-verifying everything).
pub fn affected_flows(flows: &FlowSet, seed: FlowId) -> Option<BTreeSet<FlowId>> {
    let scope = DependencyScope::build(flows.bindings())?;
    let seed = scope.index_of(seed)?;
    Some(scope.affected_ids(&[seed]))
}

/// A node of the jitter-dependency graph, re-exported for documentation
/// and diagnostics: one flow's jitter at one resource of its route.
pub type DependencyNode = (FlowId, ResourceId);

/// The jitter-dependency graph of one flow set, interned into dense
/// indices: the re-verification scope of admission trials and releases.
///
/// Nodes are `(flow, resource)` pairs ([`DependencyNode`]), numbered
/// flow by flow in route order.  The jitter a flow accumulates at resource
/// `r_{i+1}` of its route is its jitter at `r_i` plus its response at
/// `r_i`, and that response reads the jitter at `r_i` of every flow
/// sharing `r_i`'s underlying directed link — so there is an edge
/// `(B, r_i) → (A, r_{i+1})` for every such `B`, `A` itself included.
///
/// Every node sharing a resource *and* its underlying link (a *group*)
/// therefore has the same out-edges, so adjacency is stored once per
/// group in CSR form: a group's successors are the next nodes of its
/// members.  Acyclicity and closures run over groups in time linear in
/// the graph; nothing is keyed by tree maps.
#[derive(Debug)]
pub(crate) struct DependencyScope {
    /// Member ids in binding order: flow index → id.
    ids: Vec<FlowId>,
    /// Flow index → its first node; one trailing entry holds the node
    /// count, so flow `f` owns nodes `node_start[f]..node_start[f + 1]`.
    node_start: Vec<u32>,
    /// Node → its group (resource and underlying directed link).
    node_group: Vec<u32>,
    /// Group → its interned directed link.
    group_link: Vec<u32>,
    /// Number of interned directed links.
    n_links: usize,
    /// CSR offsets: group `g`'s successor nodes are
    /// `group_succ[group_start[g]..group_start[g + 1]]`.
    group_start: Vec<u32>,
    /// Successor nodes, grouped by source group.
    group_succ: Vec<u32>,
}

impl DependencyScope {
    /// Intern the dependency graph of `bindings`, which must be in
    /// ascending id order.  `None` when a route is structurally broken.
    pub(crate) fn build<'f>(bindings: impl IntoIterator<Item = &'f FlowBinding>) -> Option<Self> {
        let mut ids = Vec::new();
        let mut node_start = vec![0u32];
        let mut walk: Vec<(ResourceId, NodeId, NodeId)> = Vec::new();
        for binding in bindings {
            route_walk(&binding.route, &mut walk).ok()?;
            ids.push(binding.id);
            node_start.push(cx(walk.len()));
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "bindings in id order");

        // Intern groups and links in one sort: ordered by link first, so
        // each link's groups are contiguous.  A link feeds two resources at
        // most — its output queue and the ingress of the switch it enters —
        // so the link and that flag identify the group.
        let n_nodes = walk.len();
        let key = |node: u32| {
            let (resource, from, to) = walk[ux(node)];
            (
                from,
                to,
                matches!(resource, ResourceId::SwitchIngress { .. }),
            )
        };
        let mut order: Vec<u32> = (0..cx(n_nodes)).collect();
        order.sort_unstable_by_key(|&node| key(node));
        let mut node_group = vec![0u32; n_nodes];
        let mut group_link: Vec<u32> = Vec::new();
        let mut n_links = 0usize;
        let mut previous = None;
        for &node in &order {
            let (from, to, ingress) = key(node);
            if previous != Some((from, to, ingress)) {
                if previous.is_none_or(|(f, t, _)| (f, t) != (from, to)) {
                    n_links += 1;
                }
                group_link.push(cx(n_links - 1));
                previous = Some((from, to, ingress));
            }
            node_group[ux(node)] = cx(group_link.len() - 1);
        }

        // CSR adjacency: every node but a flow's last feeds its group's
        // successor list with the flow's next node.
        let n_groups = group_link.len();
        let fed = || {
            node_start
                .windows(2)
                .flat_map(|w| ux(w[0])..ux(w[1]).saturating_sub(1))
        };
        let mut group_start = vec![0u32; n_groups + 1];
        for node in fed() {
            group_start[ux(node_group[node]) + 1] += 1;
        }
        for g in 0..n_groups {
            group_start[g + 1] += group_start[g];
        }
        let mut fill = group_start.clone();
        let mut group_succ = vec![0u32; ux(group_start[n_groups])];
        for node in fed() {
            let slot = &mut fill[ux(node_group[node])];
            group_succ[ux(*slot)] = cx(node + 1);
            *slot += 1;
        }
        Some(DependencyScope {
            ids,
            node_start,
            node_group,
            group_link,
            n_links,
            group_start,
            group_succ,
        })
    }

    /// Number of member flows.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The flow index of `id`, if it is a member.
    pub(crate) fn index_of(&self, id: FlowId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    fn nodes(&self, flow: usize) -> std::ops::Range<usize> {
        ux(self.node_start[flow])..ux(self.node_start[flow + 1])
    }

    fn successors(&self, group: u32) -> &[u32] {
        &self.group_succ[ux(self.group_start[ux(group)])..ux(self.group_start[ux(group) + 1])]
    }

    /// `true` if the dependency graph has no cycle (warm starts are
    /// sound only then).  Kahn's algorithm over groups: a node cycle
    /// exists iff a group cycle does, because a group's members share
    /// their out-edges.
    pub(crate) fn is_acyclic(&self) -> bool {
        let n_groups = self.group_link.len();
        let mut in_degree = vec![0u32; n_groups];
        for &node in &self.group_succ {
            in_degree[ux(self.node_group[ux(node)])] += 1;
        }
        let mut ready: Vec<u32> = (0..cx(n_groups))
            .filter(|&g| in_degree[ux(g)] == 0)
            .collect();
        let mut sorted = 0usize;
        while let Some(group) = ready.pop() {
            sorted += 1;
            for &node in self.successors(group) {
                let next = self.node_group[ux(node)];
                in_degree[ux(next)] -= 1;
                if in_degree[ux(next)] == 0 {
                    ready.push(next);
                }
            }
        }
        sorted == n_groups
    }

    /// The flows whose analysis can change when the `seeds` (flow
    /// indices) join or leave the set, as a flow-index mask.
    ///
    /// A flow is affected iff it is a seed, or some resource `r` of its
    /// route has, on `r`'s underlying link, a seed (its demand appears or
    /// disappears there) or a flow whose jitter at `r` can change.  The
    /// changed jitters are the closure of the seeds' own nodes under the
    /// dependency edges.  Flows outside the mask keep byte-identical
    /// bounds: no input of any of their per-resource analyses moves.
    ///
    /// Closure distributes over union, so the mask of several seeds is
    /// the union of their single-seed masks.
    pub(crate) fn affected(&self, seeds: &[usize]) -> Vec<bool> {
        let mut seeded_link = vec![false; self.n_links];
        let mut changed_group = vec![false; self.group_link.len()];
        let mut reached = vec![false; self.node_group.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &seed in seeds {
            for node in self.nodes(seed) {
                seeded_link[ux(self.group_link[ux(self.node_group[node])])] = true;
                if !reached[node] {
                    reached[node] = true;
                    stack.push(cx(node));
                }
            }
        }
        // Members of a group share their out-edges, so each group is
        // expanded once, by its first reached member.
        while let Some(node) = stack.pop() {
            let group = self.node_group[ux(node)];
            if std::mem::replace(&mut changed_group[ux(group)], true) {
                continue;
            }
            for &next in self.successors(group) {
                if !reached[ux(next)] {
                    reached[ux(next)] = true;
                    stack.push(next);
                }
            }
        }
        let mut mask: Vec<bool> = (0..self.len())
            .map(|flow| {
                self.nodes(flow).any(|node| {
                    let group = ux(self.node_group[node]);
                    changed_group[group] || seeded_link[ux(self.group_link[group])]
                })
            })
            .collect();
        for &seed in seeds {
            mask[seed] = true;
        }
        mask
    }

    /// [`Self::affected`] as a set of flow ids.
    pub(crate) fn affected_ids(&self, seeds: &[usize]) -> BTreeSet<FlowId> {
        self.affected(seeds)
            .into_iter()
            .zip(&self.ids)
            .filter_map(|(hit, &id)| hit.then_some(id))
            .collect()
    }
}

/// The keyed jitter-dependency graph, the test oracle of
/// [`DependencyScope`]: `BTreeMap` adjacency over `(flow, resource)`
/// nodes, a three-colour DFS cycle check and a single-seed closure.  It
/// shares no code with the scope (not even the route walk).
#[cfg(test)]
mod oracle {
    use super::DependencyNode as Node;
    use crate::context::ResourceId;
    use gmf_model::FlowId;
    use gmf_net::{FlowBinding, FlowSet, NodeId};
    use std::collections::{BTreeMap, BTreeSet};

    type Edges = BTreeMap<Node, Vec<Node>>;

    /// One flow's resources in route order, each with the directed link
    /// whose flows interfere there.
    fn flow_stages(binding: &FlowBinding) -> Option<Vec<(ResourceId, (NodeId, NodeId))>> {
        let route = &binding.route;
        let source = route.source();
        let first_succ = route.successor(source).ok()?;
        let mut stages = vec![(
            ResourceId::Link {
                from: source,
                to: first_succ,
            },
            (source, first_succ),
        )];
        for &switch in route.switches() {
            let succ = route.successor(switch).ok()?;
            let prec = route.predecessor(switch).ok()?;
            stages.push((ResourceId::SwitchIngress { node: switch }, (prec, switch)));
            stages.push((
                ResourceId::Link {
                    from: switch,
                    to: succ,
                },
                (switch, succ),
            ));
        }
        Some(stages)
    }

    /// Edges `(A, r_i) → (A, r_{i+1})` and `(B, r_i) → (A, r_{i+1})` for
    /// every `B` sharing `r_i`'s underlying link with `A`.
    pub(super) fn dependency_edges(flows: &FlowSet) -> Option<Edges> {
        let link_index = flows.link_index();
        let mut edges = Edges::new();
        for binding in flows.bindings() {
            let stages = flow_stages(binding)?;
            for window in stages.windows(2) {
                let (resource, (from, to)) = window[0];
                let (next_resource, _) = window[1];
                let target = (binding.id, next_resource);
                edges
                    .entry((binding.id, resource))
                    .or_default()
                    .push(target);
                for &other in link_index.flows_on_link(from, to) {
                    if other != binding.id {
                        edges.entry((other, resource)).or_default().push(target);
                    }
                }
            }
        }
        Some(edges)
    }

    /// Iterative three-colour DFS cycle check.
    pub(super) fn edges_have_cycle(edges: &Edges) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            InProgress,
            Done,
        }
        let mut colour: BTreeMap<Node, Colour> = BTreeMap::new();
        for &start in edges.keys() {
            if colour.contains_key(&start) {
                continue;
            }
            let mut stack: Vec<(Node, usize)> = vec![(start, 0)];
            colour.insert(start, Colour::InProgress);
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                let targets = edges.get(&node).map(Vec::as_slice).unwrap_or_default();
                if *child < targets.len() {
                    let next = targets[*child];
                    *child += 1;
                    match colour.get(&next) {
                        Some(Colour::InProgress) => return true,
                        Some(Colour::Done) => {}
                        None => {
                            colour.insert(next, Colour::InProgress);
                            stack.push((next, 0));
                        }
                    }
                } else {
                    colour.insert(node, Colour::Done);
                    stack.pop();
                }
            }
        }
        false
    }

    /// The flows whose analysis can change when `seed` joins or leaves.
    pub(super) fn affected_flows_in(
        flows: &FlowSet,
        seed: FlowId,
        edges: &Edges,
    ) -> Option<BTreeSet<FlowId>> {
        let link_index = flows.link_index();
        let stages: BTreeMap<FlowId, _> = flows
            .bindings()
            .iter()
            .map(|b| Some((b.id, flow_stages(b)?)))
            .collect::<Option<_>>()?;
        let mut changed: BTreeSet<Node> = stages[&seed]
            .iter()
            .map(|&(resource, _)| (seed, resource))
            .collect();
        let mut worklist: Vec<Node> = changed.iter().copied().collect();
        while let Some(node) = worklist.pop() {
            for &next in edges.get(&node).into_iter().flatten() {
                if changed.insert(next) {
                    worklist.push(next);
                }
            }
        }
        let mut affected = BTreeSet::new();
        affected.insert(seed);
        for binding in flows.bindings() {
            let touched = stages[&binding.id].iter().any(|&(resource, (from, to))| {
                link_index
                    .flows_on_link(from, to)
                    .iter()
                    .any(|&other| other == seed || changed.contains(&(other, resource)))
            });
            if touched {
                affected.insert(binding.id);
            }
        }
        Some(affected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, Time};
    use gmf_net::{shortest_path, star, LinkProfile, Priority, SwitchConfig};

    fn probe_flow(name: &str) -> gmf_model::GmfFlow {
        cbr_flow(
            name,
            200,
            Time::from_millis(10.0),
            Time::from_millis(10.0),
            Time::ZERO,
        )
    }

    #[test]
    fn shards_track_merge_and_split() {
        let (t, _, hosts) = star(6, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let r01 = shortest_path(&t, hosts[0], hosts[1]).unwrap();
        let r23 = shortest_path(&t, hosts[2], hosts[3]).unwrap();
        let a = fs.add(probe_flow("a"), r01, Priority(3));
        let b = fs.add(probe_flow("b"), r23, Priority(3));

        let mut g = DependencyGraph::new(&fs);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.n_shards(), 2);
        assert_eq!(g.shards(), vec![ShardId(a), ShardId(b)]);
        assert_eq!(g.shard_of(a), Some(ShardId(a)));
        assert_eq!(g.shard_flows(ShardId(b)).unwrap(), &[b]);
        assert_eq!(g.shard_of(FlowId(99)), None);

        // A 0 → 3 candidate bridges both shards.
        let bridge_route = shortest_path(&t, hosts[0], hosts[3]).unwrap();
        assert_eq!(
            g.shards_touching_route(&bridge_route),
            vec![ShardId(a), ShardId(b)]
        );
        let c = fs.add(probe_flow("c"), bridge_route, Priority(3));
        g.insert(fs.get(c).unwrap());
        assert_eq!(g.n_shards(), 1);
        assert_eq!(g.shard_flows(ShardId(a)).unwrap(), &[a, b, c]);

        // Departure of the bridge splits the shard again.
        let binding = fs.remove(c).unwrap();
        g.remove(&binding, &fs);
        assert_eq!(g.shards(), vec![ShardId(a), ShardId(b)]);
        assert_eq!(g, DependencyGraph::new(&fs));
    }

    #[test]
    fn shard_id_display_and_affected_flows_stay_in_shard() {
        assert_eq!(ShardId(FlowId(7)).to_string(), "shard(7)");

        let (t, _, hosts) = star(4, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let a = fs.add(
            probe_flow("a"),
            shortest_path(&t, hosts[0], hosts[1]).unwrap(),
            Priority(3),
        );
        let b = fs.add(
            probe_flow("b"),
            shortest_path(&t, hosts[0], hosts[2]).unwrap(),
            Priority(3),
        );
        let c = fs.add(
            probe_flow("c"),
            shortest_path(&t, hosts[2], hosts[3]).unwrap(),
            Priority(3),
        );
        assert!(DependencyScope::build(fs.bindings()).unwrap().is_acyclic());
        let g = DependencyGraph::new(&fs);
        // a and b share (h0, sw); c is coupled to b only via b's *shard*
        // membership, not via any shared link — they are disjoint.
        assert_eq!(g.shard_of(a), g.shard_of(b));
        assert_ne!(g.shard_of(a), g.shard_of(c));
        let affected = affected_flows(&fs, a).unwrap();
        let shard: BTreeSet<FlowId> = g
            .shard_flows(g.shard_of(a).unwrap())
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert!(affected.is_subset(&shard));
        assert!(affected.contains(&a));
    }

    /// Check the dense scope of `flows` against the keyed oracle: the
    /// acyclicity verdict, the affected set of every single seed (also
    /// through the public [`affected_flows`]), and multi-seed closures
    /// against the union of their single-seed closures.  Returns the
    /// acyclicity verdict.
    fn check_scope_against_oracle(flows: &FlowSet, label: &str) -> bool {
        let edges = oracle::dependency_edges(flows).unwrap();
        let scope = DependencyScope::build(flows.bindings()).unwrap();
        assert_eq!(scope.len(), flows.len(), "{label}");
        let acyclic = scope.is_acyclic();
        assert_eq!(acyclic, !oracle::edges_have_cycle(&edges), "{label}");
        let singles: Vec<BTreeSet<FlowId>> = flows
            .ids()
            .enumerate()
            .map(|(index, id)| {
                let expected = oracle::affected_flows_in(flows, id, &edges).unwrap();
                assert_eq!(scope.affected_ids(&[index]), expected, "{label}: seed {id}");
                assert_eq!(affected_flows(flows, id), Some(expected.clone()), "{label}");
                expected
            })
            .collect();
        // Multi-seed closures: every stride of seeds, from all flows to a
        // handful.
        let n = flows.len();
        for stride in 1..=n.min(4) {
            for offset in 0..stride {
                let seeds: Vec<usize> = (offset..n).step_by(stride).collect();
                let union: BTreeSet<FlowId> = seeds
                    .iter()
                    .flat_map(|&seed| singles[seed].iter().copied())
                    .collect();
                assert_eq!(
                    scope.affected_ids(&seeds),
                    union,
                    "{label}: seeds {seeds:?}"
                );
            }
        }
        acyclic
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The dense scope equals the keyed oracle on fuzzed valid
        /// scenarios.
        #[test]
        fn dense_scope_matches_the_keyed_oracle_on_fuzz_scenarios(seed in 0u64..1_000_000) {
            let (scenario, _) =
                gmf_workloads::valid_scenario(seed, &gmf_workloads::FuzzConfig::default());
            check_scope_against_oracle(&scenario.flows, &scenario.label);
        }
    }

    /// The dense scope equals the keyed oracle on every shard of the E16
    /// ring (built at E16's bench seed, 1608) and on the whole ring.
    #[test]
    fn dense_scope_matches_the_keyed_oracle_on_the_e16_ring_shards() {
        let ring = gmf_workloads::resilience_scenario(
            gmf_par::derive_seed(1608, 0),
            &gmf_workloads::ResilienceConfig::default(),
        );
        let partition = DependencyGraph::new(&ring.flows);
        assert!(partition.n_shards() > 1);
        for shard in partition.shards() {
            let members = ring
                .flows
                .subset(partition.shard_flows(shard).unwrap().iter().copied());
            check_scope_against_oracle(&members, &shard.to_string());
        }
        check_scope_against_oracle(&ring.flows, "whole ring");
    }

    /// Flows that each cross two trunks of a switch ring, all the way
    /// round, make the dependency graph cyclic: both checks agree.
    #[test]
    fn dense_scope_detects_a_ring_of_overlapping_transit_flows_as_cyclic() {
        let n = 4;
        let mut t = gmf_net::Topology::new();
        let switches: Vec<_> = (0..n)
            .map(|i| t.add_switch(SwitchConfig::paper(), format!("s{i}")))
            .collect();
        let hosts: Vec<_> = (0..n).map(|i| t.add_end_host(format!("h{i}"))).collect();
        for i in 0..n {
            t.add_duplex_link(hosts[i], switches[i], LinkProfile::ethernet_100m())
                .unwrap();
            t.add_duplex_link(
                switches[i],
                switches[(i + 1) % n],
                LinkProfile::ethernet_100m(),
            )
            .unwrap();
        }
        let mut fs = FlowSet::new();
        for i in 0..n {
            let nodes = vec![
                hosts[i],
                switches[i],
                switches[(i + 1) % n],
                switches[(i + 2) % n],
                hosts[(i + 2) % n],
            ];
            let route = gmf_net::Route::new(&t, nodes).unwrap();
            fs.add(probe_flow(&format!("f{i}")), route, Priority(3));
        }
        assert!(!check_scope_against_oracle(&fs, "cyclic ring"));
        // Dropping one flow breaks the cycle.
        let open = fs.subset(fs.ids().skip(1));
        assert!(check_scope_against_oracle(&open, "open ring"));
    }
}
