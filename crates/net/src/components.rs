//! Link-sharing connected components of a flow set — the network-level
//! substrate of the analysis crate's admission shards.
//!
//! Two flows *interfere* (directly) when they share a directed link: the
//! holistic analysis then couples their jitters through the shared output
//! queue.  The transitive closure of that relation partitions a flow set
//! into **components** whose fixed points are completely independent — a
//! flow's response-time bounds depend only on the flows in its own
//! component, because every edge of the jitter-dependency graph
//! `(B, r) → (A, r')` requires `B` and `A` to share the underlying
//! directed link of `r` (or `B = A`).  Weakly-connected components of the
//! per-resource dependency graph therefore project onto flows exactly as
//! the connected components of the "shares a directed link" graph, which
//! is what [`FlowComponents`] maintains.
//!
//! The structure is an incremental union-find keyed by [`FlowId`]:
//!
//! * [`FlowComponents::insert`] adds a flow and unions it with every
//!   component already using one of its links (*merge on bridge* — a
//!   route that touches two components fuses them);
//! * [`FlowComponents::remove_many`] deletes a batch of flows and rebuilds
//!   each former component they touch once, splitting it where a departed
//!   flow was the bridge ([`FlowComponents::remove`] is the one-flow
//!   batch);
//! * lookups never mutate: the parent table is kept fully flattened
//!   (every entry points directly at its root), so `&self` queries are a
//!   single map read.
//!
//! All containers are `BTreeMap`/sorted `Vec`s — iteration order is a
//! pure function of the contents, never of insertion history, so the
//! admission plane built on top stays deterministic.

use crate::flowset::{FlowBinding, FlowSet};
use crate::node::NodeId;
use crate::route::Route;
use gmf_model::FlowId;
use std::collections::BTreeMap;

/// Connected components of the "flows share a directed link" graph,
/// maintained incrementally under flow arrivals and departures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowComponents {
    /// Fully flattened union-find: every flow maps directly to its root.
    parent: BTreeMap<FlowId, FlowId>,
    /// Root → sorted member ids (roots are internal; the *stable* name of
    /// a component is its smallest member, `members[root][0]`).
    members: BTreeMap<FlowId, Vec<FlowId>>,
    /// Directed link → sorted ids of the flows whose routes traverse it.
    links: BTreeMap<(NodeId, NodeId), Vec<FlowId>>,
}

impl FlowComponents {
    /// An empty component index.
    pub fn new() -> Self {
        FlowComponents::default()
    }

    /// Build the index of a whole flow set from scratch.
    pub fn build(flows: &FlowSet) -> Self {
        let mut c = FlowComponents::new();
        for binding in flows.bindings() {
            c.insert(binding);
        }
        c
    }

    /// Number of flows in the index.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the index contains no flows.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.members.len()
    }

    /// The stable name of `id`'s component: its smallest member id.
    /// `None` if the flow is not in the index.
    pub fn component_of(&self, id: FlowId) -> Option<FlowId> {
        let root = *self.parent.get(&id)?;
        Some(self.members[&root][0])
    }

    /// The sorted member ids of the component whose smallest member is
    /// `smallest`.  `None` if `smallest` is not a component's smallest
    /// member.
    pub fn members_of(&self, smallest: FlowId) -> Option<&[FlowId]> {
        let root = *self.parent.get(&smallest)?;
        let members = &self.members[&root];
        (members[0] == smallest).then_some(members.as_slice())
    }

    /// All components as `(smallest member, sorted members)`, ordered by
    /// smallest member id.
    pub fn components(&self) -> Vec<(FlowId, &[FlowId])> {
        let mut out: Vec<(FlowId, &[FlowId])> = self
            .members
            .values()
            .map(|m| (m[0], m.as_slice()))
            .collect();
        out.sort_unstable_by_key(|&(smallest, _)| smallest);
        out
    }

    /// The (deduplicated, sorted) component names touched by `route` —
    /// every component with a flow on one of the route's directed links.
    /// A candidate taking `route` would merge exactly these components.
    pub fn components_touching_route(&self, route: &Route) -> Vec<FlowId> {
        let mut touched = Vec::new();
        for hop in route.hops() {
            if let Some(flows) = self.links.get(&(hop.from, hop.to)) {
                for &f in flows {
                    // tidy-allow: unwrap invariant: flows in link lists are always indexed
                    let c = self.component_of(f).expect("indexed flow has a component");
                    if let Err(pos) = touched.binary_search(&c) {
                        touched.insert(pos, c);
                    }
                }
            }
        }
        touched
    }

    /// Add a flow, merging every component that already uses one of its
    /// links into the flow's component.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already indexed.
    pub fn insert(&mut self, binding: &FlowBinding) {
        let id = binding.id;
        assert!(
            !self.parent.contains_key(&id),
            "flow {id} is already indexed"
        );
        self.parent.insert(id, id);
        self.members.insert(id, vec![id]);
        for hop in binding.route.hops() {
            // Union with the component already on this link (all entries
            // of one link list are in one component, so the first
            // representative suffices), then register the flow.
            let other = {
                let list = self.links.entry((hop.from, hop.to)).or_default();
                let other = list.first().copied();
                if let Err(pos) = list.binary_search(&id) {
                    list.insert(pos, id);
                }
                other
            };
            if let Some(other) = other {
                self.union(id, other);
            }
        }
    }

    /// Remove a flow and rebuild (only) its former component from the
    /// surviving members' routes in `remaining`, splitting the component
    /// if the departed flow was its bridge.  This is
    /// [`FlowComponents::remove_many`] with one binding.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is not indexed, or if a surviving member of
    /// its component is missing from `remaining`.
    pub fn remove(&mut self, binding: &FlowBinding, remaining: &FlowSet) {
        self.remove_many(std::slice::from_ref(binding), remaining);
    }

    /// Remove several flows at once: strip every departing flow from its
    /// link lists, dissolve each touched component **once** and re-union
    /// its survivors once — O(touched components), where removing the
    /// flows one by one rebuilds a shared component once per departure.
    /// The resulting components, members and names equal those of the
    /// sequential removals.
    ///
    /// `remaining` must be the flow set *after* every departure (it is
    /// only consulted for the routes of the surviving members).
    ///
    /// # Panics
    ///
    /// Panics if a flow id is not indexed (or listed twice), or if a
    /// surviving member of a touched component is missing from
    /// `remaining`.
    pub fn remove_many(&mut self, bindings: &[FlowBinding], remaining: &FlowSet) {
        let mut roots: Vec<FlowId> = Vec::with_capacity(bindings.len());
        for binding in bindings {
            let id = binding.id;
            let root = self
                .parent
                .remove(&id)
                .unwrap_or_else(|| panic!("flow {id} is not indexed"));
            roots.push(root);
            // Strip the departing flow from its link lists.
            for hop in binding.route.hops() {
                if let Some(list) = self.links.get_mut(&(hop.from, hop.to)) {
                    if let Ok(pos) = list.binary_search(&id) {
                        list.remove(pos);
                    }
                    if list.is_empty() {
                        self.links.remove(&(hop.from, hop.to));
                    }
                }
            }
        }
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            // Dissolve the old component (departed members were already
            // dropped from `parent`)…
            let survivors: Vec<FlowId> = self
                .members
                .remove(&root)
                // tidy-allow: unwrap invariant: parent roots always have a member list
                .expect("roots have member lists")
                .into_iter()
                .filter(|m| self.parent.contains_key(m))
                .collect();
            for &m in &survivors {
                self.parent.insert(m, m);
                self.members.insert(m, vec![m]);
            }
            // …and re-union the survivors along their (already indexed)
            // links.  Every flow sharing a link with a survivor was in the
            // old component, so all of them are singletons again here.
            for &m in &survivors {
                let route = &remaining
                    .get(m)
                    .unwrap_or_else(|_| panic!("surviving flow {m} missing from the flow set"))
                    .route;
                for hop in route.hops() {
                    if let Some(list) = self.links.get(&(hop.from, hop.to)) {
                        if let Some(&other) = list.iter().find(|&&f| f != m) {
                            self.union(m, other);
                        }
                    }
                }
            }
        }
    }

    /// Union the components of `a` and `b` (no-op if already joined).
    /// The smaller component is re-pointed wholesale, keeping the parent
    /// table flattened; ties break towards the smaller root so the result
    /// is independent of argument order.
    fn union(&mut self, a: FlowId, b: FlowId) {
        let ra = self.parent[&a];
        let rb = self.parent[&b];
        if ra == rb {
            return;
        }
        let (keep, fold) = match self.members[&ra].len().cmp(&self.members[&rb].len()) {
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Equal => (ra.min(rb), ra.max(rb)),
        };
        // tidy-allow: unwrap invariant: both roots were just looked up
        let folded = self.members.remove(&fold).expect("root has members");
        for &m in &folded {
            self.parent.insert(m, keep);
        }
        // tidy-allow: unwrap invariant: the kept root was just looked up
        let kept = self.members.get_mut(&keep).expect("root has members");
        // Merge the two sorted member lists.
        let mut merged = Vec::with_capacity(kept.len() + folded.len());
        let (mut i, mut j) = (0, 0);
        while i < kept.len() && j < folded.len() {
            if kept[i] < folded[j] {
                merged.push(kept[i]);
                i += 1;
            } else {
                merged.push(folded[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&kept[i..]);
        merged.extend_from_slice(&folded[j..]);
        *kept = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::star;
    use crate::flowset::Priority;
    use crate::link::LinkProfile;
    use crate::node::SwitchConfig;
    use crate::routing::shortest_path;
    use gmf_model::{cbr_flow, Time};

    fn probe_flow(name: &str) -> gmf_model::GmfFlow {
        cbr_flow(
            name,
            200,
            Time::from_millis(10.0),
            Time::from_millis(10.0),
            Time::ZERO,
        )
    }

    /// A star with 6 hosts; flows between disjoint host pairs stay in
    /// separate components until a bridging flow joins them.
    fn setup() -> (crate::topology::Topology, Vec<NodeId>, FlowSet) {
        let (t, _, hosts) = star(6, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        (t, hosts, FlowSet::new())
    }

    fn add_flow(
        t: &crate::topology::Topology,
        fs: &mut FlowSet,
        hosts: &[NodeId],
        from: usize,
        to: usize,
    ) -> FlowId {
        let route = shortest_path(t, hosts[from], hosts[to]).unwrap();
        fs.add(probe_flow(&format!("f{from}-{to}")), route, Priority(3))
    }

    #[test]
    fn disjoint_pairs_form_separate_components() {
        let (t, hosts, mut fs) = setup();
        let a = add_flow(&t, &mut fs, &hosts, 0, 1);
        let b = add_flow(&t, &mut fs, &hosts, 2, 3);
        let c = FlowComponents::build(&fs);
        assert_eq!(c.len(), 2);
        assert_eq!(c.n_components(), 2);
        assert_ne!(c.component_of(a), c.component_of(b));
        assert_eq!(c.members_of(a).unwrap(), &[a]);
        assert_eq!(c.components().len(), 2);
    }

    #[test]
    fn shared_link_merges_components() {
        let (t, hosts, mut fs) = setup();
        let a = add_flow(&t, &mut fs, &hosts, 0, 1);
        let b = add_flow(&t, &mut fs, &hosts, 2, 1); // shares link(sw, h1)
        let c = FlowComponents::build(&fs);
        assert_eq!(c.n_components(), 1);
        assert_eq!(c.component_of(a), Some(a));
        assert_eq!(c.component_of(b), Some(a));
        assert_eq!(c.members_of(a).unwrap(), &[a, b]);
        // `b` is not the smallest member, so it names no component.
        assert!(c.members_of(b).is_none());
    }

    #[test]
    fn bridging_flow_merges_and_its_departure_splits() {
        let (t, hosts, mut fs) = setup();
        let a = add_flow(&t, &mut fs, &hosts, 0, 1);
        let b = add_flow(&t, &mut fs, &hosts, 2, 3);
        let mut c = FlowComponents::build(&fs);
        assert_eq!(c.n_components(), 2);

        // A flow 0 → 3 shares a directed link with both existing flows
        // ((h0, sw) with `a`, (sw, h3) with `b`): merge.
        let bridge = add_flow(&t, &mut fs, &hosts, 0, 3);
        c.insert(fs.get(bridge).unwrap());
        assert_eq!(c.n_components(), 1);
        assert_eq!(c.members_of(a).unwrap(), &[a, b, bridge]);

        // Removing the bridge splits the component back apart.
        let binding = fs.get(bridge).unwrap().clone();
        fs.remove(bridge).unwrap();
        c.remove(&binding, &fs);
        assert_eq!(c.n_components(), 2);
        assert_eq!(c.members_of(a).unwrap(), &[a]);
        assert_eq!(c.members_of(b).unwrap(), &[b]);
        assert_eq!(c.component_of(bridge), None);

        // The incremental index matches a from-scratch rebuild.
        assert_eq!(c, FlowComponents::build(&fs));
    }

    #[test]
    fn components_touching_route_names_would_be_merges() {
        let (t, hosts, mut fs) = setup();
        let a = add_flow(&t, &mut fs, &hosts, 0, 1);
        let b = add_flow(&t, &mut fs, &hosts, 2, 3);
        let c = FlowComponents::build(&fs);
        let bridge_route = shortest_path(&t, hosts[0], hosts[3]).unwrap();
        assert_eq!(c.components_touching_route(&bridge_route), vec![a, b]);
        let lonely_route = shortest_path(&t, hosts[4], hosts[5]).unwrap();
        assert!(c.components_touching_route(&lonely_route).is_empty());
    }

    #[test]
    fn incremental_insert_matches_batch_build() {
        let (t, hosts, mut fs) = setup();
        let mut c = FlowComponents::new();
        assert!(c.is_empty());
        // Chained merges: consecutive pairs share a source or destination
        // host, i.e. a *directed* access link.
        for (from, to) in [(0, 1), (2, 3), (4, 5), (0, 3), (2, 5)] {
            let id = add_flow(&t, &mut fs, &hosts, from, to);
            c.insert(fs.get(id).unwrap());
        }
        assert_eq!(c, FlowComponents::build(&fs));
        assert_eq!(c.n_components(), 1); // chained merges collapse all
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn double_insert_panics() {
        let (t, hosts, mut fs) = setup();
        let a = add_flow(&t, &mut fs, &hosts, 0, 1);
        let mut c = FlowComponents::build(&fs);
        c.insert(fs.get(a).unwrap());
    }
}
