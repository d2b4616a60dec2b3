//! Shared state of an analysis run: cached per-link demands and the
//! generalized-jitter map.
//!
//! The response-time equations repeatedly evaluate the request-bound
//! functions of every flow on every link it traverses, so the per-link
//! [`LinkDemand`]s are computed once per `(flow, link speed)` pair and
//! cached in an [`AnalysisContext`].
//!
//! The *generalized-jitter map* holds `GJ_i^{k,resource}` — the jitter of
//! frame `k` of flow `i` when it reaches `resource` — for every resource of
//! every flow's route.  The map is what the holistic iteration (Section
//! "Putting it all together") updates between rounds:
//!
//! * initially, the jitter on a flow's *first link* is its specified source
//!   jitter and the jitter everywhere else is zero;
//! * after analysing a flow with the Figure 6 algorithm, the map holds the
//!   accumulated `JSUM` values of that flow at every resource;
//! * the process repeats until the map stops changing.

use crate::error::AnalysisError;
use gmf_model::{DemandTable, FlowId, GmfFlow, LinkDemand, Time};
use gmf_net::{FlowSet, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A resource along a flow's route, in the sense of holistic analysis: a
/// place where the flow can be queued and therefore accumulates response
/// time and jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceId {
    /// The prioritized output queue and transmission on the directed link
    /// `from → to` (also used for the source node's first link).
    Link {
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// The ingress processing of a switch: from reception of the Ethernet
    /// frames at `node` to their enqueueing in the output priority queue.
    SwitchIngress {
        /// The switch doing the processing.
        node: NodeId,
    },
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Link { from, to } => write!(f, "link({},{})", from.0, to.0),
            ResourceId::SwitchIngress { node } => write!(f, "in({})", node.0),
        }
    }
}

/// `GJ_i^{k,resource}` for every flow, frame and resource.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JitterMap {
    values: BTreeMap<(FlowId, ResourceId), Vec<Time>>,
}

impl JitterMap {
    /// The initial map of the holistic iteration for `flows`: source jitter
    /// on each flow's first link, zero everywhere else (nothing stored).
    pub fn initial(flows: &FlowSet) -> Self {
        let mut map = JitterMap::default();
        for binding in flows.bindings() {
            map.set_initial(binding);
        }
        map
    }

    /// Set one flow's initial entries (its source jitter on its first
    /// link), replacing any stored entry at that resource.  This is how a
    /// warm-started admission trial seeds the candidate without building
    /// the whole initial map of the trial set.
    pub fn set_initial(&mut self, binding: &gmf_net::FlowBinding) {
        let first_hop = binding
            .route
            .hops()
            .next()
            // tidy-allow: unwrap invariant: routes have at least one hop
            .expect("routes have at least one hop");
        let resource = ResourceId::Link {
            from: first_hop.from,
            to: first_hop.to,
        };
        let jitters = binding.flow.frames().iter().map(|f| f.jitter).collect();
        self.values.insert((binding.id, resource), jitters);
    }

    /// Set the jitter of frame `k` of `flow` at `resource`.
    pub fn set(
        &mut self,
        flow: FlowId,
        resource: ResourceId,
        frame: usize,
        jitter: Time,
        n_frames: usize,
    ) {
        let entry = self
            .values
            .entry((flow, resource))
            .or_insert_with(|| vec![Time::ZERO; n_frames]);
        if entry.len() < n_frames {
            entry.resize(n_frames, Time::ZERO);
        }
        entry[frame] = jitter;
    }

    /// The jitter of frame `k` of `flow` at `resource` (zero if unknown).
    pub fn get(&self, flow: FlowId, resource: ResourceId, frame: usize) -> Time {
        self.values
            .get(&(flow, resource))
            .and_then(|v| v.get(frame).copied())
            .unwrap_or(Time::ZERO)
    }

    /// `extra_j(resource)`: the largest jitter of any frame of `flow` at
    /// `resource` (zero if the flow has no recorded jitter there).  This is
    /// the paper's `extra_j(N, i)` term.
    pub fn max_jitter(&self, flow: FlowId, resource: ResourceId) -> Time {
        self.values
            .get(&(flow, resource))
            .map(|v| v.iter().copied().fold(Time::ZERO, Time::max))
            .unwrap_or(Time::ZERO)
    }

    /// Walk `self` and `other` in one merged key-ordered pass, calling
    /// `visit` with each key's value pair (an empty slice stands in for a
    /// missing entry).
    ///
    /// Both maps are `BTreeMap`s, so their iterators are already sorted:
    /// the classic two-pointer merge visits every key of the union exactly
    /// once without materialising a key-union set.
    fn merged_walk(&self, other: &JitterMap, mut visit: impl FnMut(&[Time], &[Time])) {
        let mut a = self.values.iter().peekable();
        let mut b = other.values.iter().peekable();
        loop {
            const EMPTY: &[Time] = &[];
            let (va, vb): (&[Time], &[Time]) = match (a.peek(), b.peek()) {
                (Some(&(ka, va)), Some(&(kb, vb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Less => {
                        a.next();
                        (va.as_slice(), EMPTY)
                    }
                    std::cmp::Ordering::Greater => {
                        b.next();
                        (EMPTY, vb.as_slice())
                    }
                    std::cmp::Ordering::Equal => {
                        a.next();
                        b.next();
                        (va.as_slice(), vb.as_slice())
                    }
                },
                (Some(&(_, va)), None) => {
                    a.next();
                    (va.as_slice(), EMPTY)
                }
                (None, Some(&(_, vb))) => {
                    b.next();
                    (EMPTY, vb.as_slice())
                }
                (None, None) => return,
            };
            visit(va, vb);
        }
    }

    /// The largest absolute componentwise difference between `self` and
    /// `other` — the residual the holistic fixed-point engine records per
    /// round.  Entries missing from one side are treated as zero.
    pub fn max_abs_diff(&self, other: &JitterMap) -> Time {
        let mut worst = Time::ZERO;
        self.merged_walk(other, |a, b| {
            let len = a.len().max(b.len());
            for idx in 0..len {
                let va = a.get(idx).copied().unwrap_or(Time::ZERO);
                let vb = b.get(idx).copied().unwrap_or(Time::ZERO);
                let diff = if va >= vb { va - vb } else { vb - va };
                worst = worst.max(diff);
            }
        });
        worst
    }

    /// Iterate over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(FlowId, ResourceId), &Vec<Time>)> {
        self.values.iter()
    }
}

/// Cached per-link demands, the dense-index plan and references to the
/// topology and flow set.
///
/// The context is read-only during a single holistic round; the jitter map
/// is threaded separately so that rounds are explicit.  Construction
/// compiles every flow's demands and tables, interns flows and
/// their `(flow, resource)` pairs into dense indices and precomputes every
/// flow's per-stage
/// interference tables (the crate-private `dense` plan) — the engine's hot
/// loops never touch a tree map or rescan the flow set.
///
/// A flow's demand depends on a link only through its speed (eqs. 1–13),
/// so each flow gets one [`LinkDemand`] and [`DemandTable`] per distinct
/// link speed of its route, and every hop records which of them it uses.
#[derive(Debug, Clone)]
pub struct AnalysisContext<'a> {
    topology: &'a Topology,
    flows: &'a FlowSet,
    /// Indexed by the dense plan's demand ids.
    demands: Vec<LinkDemand>,
    /// Precompiled prefix-maximum tables, parallel to `demands` — the only
    /// demand view the per-frame kernels touch.
    tables: Vec<DemandTable>,
    /// Hop → demand id, each flow's hops in route order, contiguous.
    hop_demands: Vec<u32>,
    /// Flow index → position of its first hop in `hop_demands`.
    hop_start: Vec<u32>,
    /// The interner and interference tables.
    plan: crate::dense::DensePlan,
}

impl<'a> AnalysisContext<'a> {
    /// Build the context: pre-compute the demand of every flow at every
    /// link speed of its route, intern flows and their `(flow, resource)`
    /// pairs, lay out the jitter arena and build the per-stage
    /// interference tables.
    pub fn new(topology: &'a Topology, flows: &'a FlowSet) -> Result<Self, AnalysisError> {
        let (mut demands, mut tables, mut hop_demands) = (Vec::new(), Vec::new(), Vec::new());
        let mut hop_start = Vec::with_capacity(flows.len());
        for binding in flows.bindings() {
            hop_start.push(crate::index::cx(hop_demands.len()));
            let first_demand = demands.len();
            for hop in binding.route.hops() {
                let speed = topology.link_between(hop.from, hop.to)?.speed;
                let compiled = demands[first_demand..]
                    .iter()
                    .position(|demand: &LinkDemand| demand.speed() == speed);
                let id = match compiled {
                    Some(offset) => first_demand + offset,
                    None => {
                        let demand = LinkDemand::new(&binding.flow, &binding.encapsulation, speed);
                        tables.push(DemandTable::new(&demand));
                        demands.push(demand);
                        demands.len() - 1
                    }
                };
                hop_demands.push(crate::index::cx(id));
            }
        }
        let plan =
            crate::dense::DensePlan::build(topology, flows, &demands, &hop_demands, &hop_start)?;
        Ok(AnalysisContext {
            topology,
            flows,
            demands,
            tables,
            hop_demands,
            hop_start,
            plan,
        })
    }

    /// The demand ids of flow index `index`: one per hop of its route.
    fn hop_demands_of(&self, index: usize) -> &[u32] {
        let start = crate::index::ux(self.hop_start[index]);
        &self.hop_demands[start..start + self.flows.bindings()[index].route.n_hops()]
    }

    /// The dense plan (interner, arena layout, interference tables).
    pub(crate) fn plan(&self) -> &crate::dense::DensePlan {
        &self.plan
    }

    /// A demand by its dense index (hot-loop form of [`Self::demand`]).
    #[inline]
    pub(crate) fn demand_by_index(&self, index: u32) -> &LinkDemand {
        &self.demands[crate::index::ux(index)]
    }

    /// The interned demand tables, parallel to the demand indices (the
    /// kernels index this slice directly).
    #[inline]
    pub(crate) fn tables(&self) -> &[DemandTable] {
        &self.tables
    }

    /// Aggregate table statistics for the `kernel/*` bench counters:
    /// `(route hops, total stored window spans over the hops' tables,
    /// plan term count)`.  A table shared by several hops of a route
    /// counts once per hop.
    pub fn kernel_stats(&self) -> (u64, u64, u64) {
        let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        let (mut tables, mut windows) = (0, 0);
        for index in 0..self.flows.len() {
            let hops = self.hop_demands_of(index);
            tables += count(hops.len());
            windows += hops
                .iter()
                .map(|&id| count(self.tables()[crate::index::ux(id)].n_windows()))
                .sum::<u64>();
        }
        (tables, windows, count(self.plan.terms.len()))
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The flow set under analysis.
    pub fn flows(&self) -> &FlowSet {
        self.flows
    }

    /// The traffic specification of a flow.
    pub fn flow(&self, id: FlowId) -> Result<&GmfFlow, AnalysisError> {
        Ok(&self.flows.get(id)?.flow)
    }

    /// The cached demand of `flow` on the directed link `from → to`.
    ///
    /// The demand exists for every hop of every flow's route; asking for a
    /// (flow, link) pair the flow does not traverse is a programming error
    /// and panics.
    pub fn demand(&self, flow: FlowId, from: NodeId, to: NodeId) -> &LinkDemand {
        let bindings = self.flows.bindings();
        bindings
            .binary_search_by_key(&flow, |b| b.id)
            .ok()
            .and_then(|index| {
                let hop = bindings[index]
                    .route
                    .hops()
                    .position(|hop| hop.from == from && hop.to == to)?;
                Some(self.demand_by_index(self.hop_demands_of(index)[hop]))
            })
            .unwrap_or_else(|| panic!("no cached demand for {flow} on link({},{})", from.0, to.0))
    }

    /// Sum of `CSUM/TSUM` over the given flows on the given link — the
    /// left-hand side of the schedulability conditions (20), (34) and (35).
    // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
    pub fn link_utilization(&self, flows: &[FlowId], from: NodeId, to: NodeId) -> f64 {
        flows
            .iter()
            .map(|&j| self.demand(j, from, to).utilization())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    fn setup() -> (Topology, FlowSet, Vec<NodeId>) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        fs.add(video, route, Priority(6));
        let voice = cbr_flow(
            "voice",
            160,
            Time::from_millis(20.0),
            Time::from_millis(20.0),
            Time::ZERO,
        );
        let route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        fs.add(voice, route, Priority(7));
        let nodes = vec![
            net.hosts[0],
            net.hosts[1],
            net.switches[0],
            net.switches[2],
            net.hosts[3],
        ];
        (t, fs, nodes)
    }

    #[test]
    fn resource_id_display_and_ordering() {
        let a = ResourceId::Link {
            from: NodeId(0),
            to: NodeId(4),
        };
        let b = ResourceId::SwitchIngress { node: NodeId(4) };
        assert_eq!(a.to_string(), "link(0,4)");
        assert_eq!(b.to_string(), "in(4)");
        assert_ne!(a, b);
        // Ord is derived; just check it is usable as a map key.
        let mut m = BTreeMap::new();
        m.insert(a, 1);
        m.insert(b, 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn initial_jitter_map_has_source_jitter_on_first_link() {
        let (_, fs, n) = setup();
        let map = JitterMap::initial(&fs);
        let first_link = ResourceId::Link {
            from: n[0],
            to: n[2],
        };
        // The video flow has 1 ms jitter on every frame.
        assert_eq!(
            map.max_jitter(FlowId(0), first_link),
            Time::from_millis(1.0)
        );
        assert_eq!(map.get(FlowId(0), first_link, 3), Time::from_millis(1.0));
        // Downstream resources start at zero.
        let downstream = ResourceId::Link {
            from: n[2],
            to: n[3],
        };
        assert_eq!(map.max_jitter(FlowId(0), downstream), Time::ZERO);
        // The voice flow declared no jitter.
        let voice_first = ResourceId::Link {
            from: n[1],
            to: n[2],
        };
        assert_eq!(map.max_jitter(FlowId(1), voice_first), Time::ZERO);
    }

    #[test]
    fn jitter_map_set_get_and_compare() {
        let (_, fs, n) = setup();
        let mut map = JitterMap::initial(&fs);
        let resource = ResourceId::SwitchIngress { node: n[2] };
        map.set(FlowId(0), resource, 2, Time::from_millis(3.0), 9);
        assert_eq!(map.get(FlowId(0), resource, 2), Time::from_millis(3.0));
        assert_eq!(map.get(FlowId(0), resource, 1), Time::ZERO);
        assert_eq!(map.max_jitter(FlowId(0), resource), Time::from_millis(3.0));
        // Unknown entries read as zero.
        assert_eq!(map.get(FlowId(1), resource, 0), Time::ZERO);

        let map2 = map.clone();
        assert!(map.max_abs_diff(&map2).is_zero());
        let mut map3 = map.clone();
        map3.set(FlowId(0), resource, 2, Time::from_millis(4.0), 9);
        assert_eq!(map.max_abs_diff(&map3), Time::from_millis(1.0));
        // A map with an extra all-zero entry reads the same.
        let mut map4 = map.clone();
        map4.set(FlowId(1), resource, 0, Time::ZERO, 1);
        assert!(map.max_abs_diff(&map4).is_zero());
        assert!(map.iter().count() >= 2);
    }

    #[test]
    fn context_caches_demands_for_every_hop() {
        let (t, fs, n) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        // Video flow route: host0 -> switch4 -> switch6 -> host3.
        let d = ctx.demand(FlowId(0), n[0], n[2]);
        assert_eq!(d.nsum(), 94);
        // The backbone link is faster, so the same flow's CSUM is smaller.
        let d_backbone = ctx.demand(FlowId(0), n[2], n[3]);
        assert!(d_backbone.csum() < d.csum());
        // Both flows share the final link towards host3.
        let shared: Vec<FlowId> = fs.flows_on_link(n[3], n[4]);
        assert_eq!(shared.len(), 2);
        let u = ctx.link_utilization(&shared, n[3], n[4]);
        assert!(u > 0.0 && u < 1.0);
        assert_eq!(ctx.flows().len(), 2);
        assert_eq!(ctx.flow(FlowId(0)).unwrap().n_frames(), 9);
        assert_eq!(ctx.topology().n_nodes(), t.n_nodes());
    }

    /// A route over 10 Mbit/s, 100 Mbit/s and 1 Gbit/s links, with
    /// 100 Mbit/s twice: every hop's demand is the flow's demand at the
    /// hop's link speed, the kernel statistics still count per hop, and
    /// each flow compiles one demand and table per distinct speed.
    #[test]
    fn hops_at_one_speed_share_one_demand_and_table() {
        use gmf_net::{LinkProfile, Route, SwitchConfig};
        let mut t = Topology::new();
        let mut nodes = vec![t.add_end_host("a")];
        for i in 0..3 {
            nodes.push(t.add_switch(SwitchConfig::paper(), format!("sw{i}")));
        }
        nodes.push(t.add_end_host("b"));
        let profiles = [
            LinkProfile::ethernet_10m(),
            LinkProfile::ethernet_100m(),
            LinkProfile::ethernet_1g(),
            LinkProfile::ethernet_100m(),
        ];
        for (pair, profile) in nodes.windows(2).zip(profiles) {
            t.add_duplex_link(pair[0], pair[1], profile).unwrap();
        }
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        fs.add(video, Route::new(&t, nodes.clone()).unwrap(), Priority(5));
        let voice = cbr_flow(
            "voice",
            160,
            Time::from_millis(20.0),
            Time::from_millis(20.0),
            Time::ZERO,
        );
        let back: Vec<NodeId> = nodes.iter().rev().copied().collect();
        fs.add(voice, Route::new(&t, back).unwrap(), Priority(6));

        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let (mut hops, mut windows) = (0u64, 0u64);
        for binding in fs.bindings() {
            for hop in binding.route.hops() {
                let speed = t.link_between(hop.from, hop.to).unwrap().speed;
                let demand = ctx.demand(binding.id, hop.from, hop.to);
                let expected = LinkDemand::new(&binding.flow, &binding.encapsulation, speed);
                assert_eq!(*demand, expected);
                hops += 1;
                windows += u64::try_from(DemandTable::new(&expected).n_windows()).unwrap();
            }
        }
        let (tables, table_windows, _) = ctx.kernel_stats();
        assert_eq!((tables, table_windows), (hops, windows));
        assert_eq!(hops, 8);
        // Two flows × three distinct speeds.
        assert_eq!(ctx.demands.len(), 6);
        assert_eq!(ctx.tables().len(), 6);
    }

    #[test]
    #[should_panic(expected = "no cached demand")]
    fn demand_for_untraversed_link_panics() {
        let (t, fs, n) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        // The video flow never transmits on the reverse access link.
        let _ = ctx.demand(FlowId(0), n[2], n[0]);
    }
}
