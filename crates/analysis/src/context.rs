//! Shared state of an analysis run: cached per-link demands and the
//! generalized-jitter map.
//!
//! The response-time equations repeatedly evaluate the request-bound
//! functions of every flow on every link it traverses, so the per-link
//! [`LinkDemand`]s are computed once per `(flow, link)` pair and cached in
//! an [`AnalysisContext`].
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
use gmf_net::{FlowBinding, FlowSet, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
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
    /// missing entry).  Stops early when `visit` returns `false`.
    ///
    /// Both maps are `BTreeMap`s, so their iterators are already sorted:
    /// the classic two-pointer merge visits every key of the union exactly
    /// once without materialising a key-union set (the previous
    /// implementation collected the full union into a fresh `BTreeSet` —
    /// twice per holistic round).
    fn merged_walk(&self, other: &JitterMap, mut visit: impl FnMut(&[Time], &[Time]) -> bool) {
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
            if !visit(va, vb) {
                return;
            }
        }
    }

    /// `true` if every entry of `self` equals the corresponding entry of
    /// `other` within the convergence tolerance.  Entries missing from one
    /// side are treated as zero.
    pub fn approx_eq(&self, other: &JitterMap) -> bool {
        let mut equal = true;
        self.merged_walk(other, |a, b| {
            let len = a.len().max(b.len());
            for idx in 0..len {
                let va = a.get(idx).copied().unwrap_or(Time::ZERO);
                let vb = b.get(idx).copied().unwrap_or(Time::ZERO);
                if !va.approx_eq(vb) {
                    equal = false;
                    return false;
                }
            }
            true
        });
        equal
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
            true
        });
        worst
    }

    /// Iterate over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(FlowId, ResourceId), &Vec<Time>)> {
        self.values.iter()
    }

    /// Insert a whole per-(flow, resource) frame vector, replacing any
    /// stored entry.  This is the dense engine's boundary exit
    /// (`DenseJitters::to_keyed`).
    pub(crate) fn insert_raw(&mut self, flow: FlowId, resource: ResourceId, values: Vec<Time>) {
        self.values.insert((flow, resource), values);
    }
}

/// Cached per-link demands, the dense-index plan and references to the
/// topology and flow set.
///
/// The context is read-only during a single holistic round; the jitter map
/// is threaded separately so that rounds are explicit.  Construction
/// compiles every flow's per-hop demands and tables, interns flows and
/// their `(flow, resource)` pairs into dense indices and precomputes every
/// flow's per-stage
/// interference tables (the crate-private `dense` plan) — the engine's hot
/// loops never touch a tree map or rescan the flow set.
#[derive(Debug, Clone)]
pub struct AnalysisContext<'a> {
    topology: &'a Topology,
    flows: &'a FlowSet,
    /// Demand storage, indexed by the dense plan's demand ids: each flow's
    /// demands on the hops of its route, in hop order, from its
    /// `demand_start`.  Owned when the context compiled them itself,
    /// borrowed from an admission lane's [`CompiledDemands`] otherwise
    /// (which may also hold flows outside this context).
    demands: Cow<'a, [LinkDemand]>,
    /// Precompiled prefix-maximum tables, parallel to `demands` (same
    /// index space) — the only demand view the per-frame kernels touch.
    tables: Cow<'a, [DemandTable]>,
    /// Flow index → demand id of the first hop of its route.
    demand_start: Vec<u32>,
    /// The interner and interference tables.
    plan: crate::dense::DensePlan,
}

/// Compiled demands and demand tables of a growing set of flows: every
/// flow's [`LinkDemand`] and [`DemandTable`] on each hop of its route, in
/// hop order, stored contiguously.  [`AnalysisContext::new`] compiles its
/// flows into a fresh one and owns it.  An admission lane keeps one for
/// its whole run — its trials share topology and bindings, so a flow
/// compiles identically in every trial — and drops it when the lane ends.
#[derive(Debug, Default)]
pub(crate) struct CompiledDemands {
    demands: Vec<LinkDemand>,
    tables: Vec<DemandTable>,
    /// Flow → demand id of the first hop of its route.
    start: BTreeMap<FlowId, u32>,
}

impl CompiledDemands {
    /// The demand id of each flow's first hop, in binding order (see
    /// [`Self::compile`]).
    fn compile_all(
        &mut self,
        topology: &Topology,
        flows: &FlowSet,
    ) -> Result<Vec<u32>, AnalysisError> {
        flows
            .bindings()
            .iter()
            .map(|binding| self.compile(topology, binding))
            .collect()
    }

    /// The demand id of `binding`'s first hop, compiling the flow first
    /// unless it is already here (then it must be the same binding on the
    /// same topology).
    fn compile(
        &mut self,
        topology: &Topology,
        binding: &FlowBinding,
    ) -> Result<u32, AnalysisError> {
        if let Some(&start) = self.start.get(&binding.id) {
            return Ok(start);
        }
        let start = crate::index::cx(self.demands.len());
        for hop in binding.route.hops() {
            let link = topology.link_between(hop.from, hop.to)?;
            let demand = LinkDemand::new(&binding.flow, &binding.encapsulation, link.speed);
            self.tables.push(DemandTable::new(&demand));
            self.demands.push(demand);
        }
        self.start.insert(binding.id, start);
        Ok(start)
    }
}

impl<'a> AnalysisContext<'a> {
    /// Build the context: pre-compute the demand of every flow on every
    /// link of its route, intern flows and their `(flow, resource)`
    /// pairs, lay out the jitter arena and build the per-stage
    /// interference tables.
    pub fn new(topology: &'a Topology, flows: &'a FlowSet) -> Result<Self, AnalysisError> {
        let mut compiled = CompiledDemands::default();
        let demand_start = compiled.compile_all(topology, flows)?;
        Self::assemble(
            topology,
            flows,
            Cow::Owned(compiled.demands),
            Cow::Owned(compiled.tables),
            demand_start,
        )
    }

    /// [`Self::new`] over the lane's `compiled` demands: flows compiled
    /// by an earlier context are reused, the rest are compiled into
    /// `compiled` first, and the context borrows the demands from there.
    pub(crate) fn with_compiled(
        topology: &'a Topology,
        flows: &'a FlowSet,
        compiled: &'a mut CompiledDemands,
    ) -> Result<Self, AnalysisError> {
        let demand_start = compiled.compile_all(topology, flows)?;
        let compiled: &'a CompiledDemands = compiled;
        Self::assemble(
            topology,
            flows,
            Cow::Borrowed(&compiled.demands),
            Cow::Borrowed(&compiled.tables),
            demand_start,
        )
    }

    /// Intern the flows over their compiled demands.
    fn assemble(
        topology: &'a Topology,
        flows: &'a FlowSet,
        demands: Cow<'a, [LinkDemand]>,
        tables: Cow<'a, [DemandTable]>,
        demand_start: Vec<u32>,
    ) -> Result<Self, AnalysisError> {
        let plan = crate::dense::DensePlan::build(topology, flows, &demands, &demand_start)?;
        Ok(AnalysisContext {
            topology,
            flows,
            demands,
            tables,
            demand_start,
            plan,
        })
    }

    /// The demand ids of flow index `index`: one per hop of its route.
    fn demand_range(&self, index: usize) -> std::ops::Range<usize> {
        let start = crate::index::ux(self.demand_start[index]);
        start..start + self.flows.bindings()[index].route.n_hops()
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
    /// `(number of tables, total stored window spans, plan term count)`.
    pub fn kernel_stats(&self) -> (u64, u64, u64) {
        let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        let (mut tables, mut windows) = (0, 0);
        for index in 0..self.flows.len() {
            let range = self.demand_range(index);
            tables += count(range.len());
            windows += self.tables[range]
                .iter()
                .map(|t| count(t.n_windows()))
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
                Some(&self.demands[self.demand_range(index).start + hop])
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
        assert!(map.approx_eq(&map2));
        let mut map3 = map.clone();
        map3.set(FlowId(0), resource, 2, Time::from_millis(4.0), 9);
        assert!(!map.approx_eq(&map3));
        // A map with an extra all-zero entry is still approx-equal.
        let mut map4 = map.clone();
        map4.set(FlowId(1), resource, 0, Time::ZERO, 1);
        assert!(map.approx_eq(&map4));
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

    /// A lane that accepts several candidates in a row: every trial set
    /// is the previous one plus a candidate, built over the demands the
    /// earlier trials compiled.  Each context equals a fresh one — every
    /// flow's demands and tables, the kernel statistics and the analysis
    /// — and only the candidate is compiled anew.
    #[test]
    fn lane_reused_compiled_demands_equal_a_fresh_context() {
        let (t, net) = paper_figure1();
        let pairs = [(0, 3), (1, 3), (2, 0), (0, 2), (3, 1), (1, 2)];
        let config = crate::AnalysisConfig::paper();
        let mut compiled = CompiledDemands::default();
        let mut lane = FlowSet::new();
        for (i, &(from, to)) in pairs.iter().enumerate() {
            let mut trial = lane.clone();
            let route = shortest_path(&t, net.hosts[from], net.hosts[to]).unwrap();
            let candidate_hops = route.n_hops();
            let flow = if i % 2 == 0 {
                paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0))
            } else {
                cbr_flow(
                    "voice",
                    160,
                    Time::from_millis(20.0),
                    Time::from_millis(20.0),
                    Time::ZERO,
                )
            };
            trial.add(flow, route, Priority(7 - u8::try_from(i).unwrap()));
            let compiled_before = compiled.demands.len();
            let fresh = AnalysisContext::new(&t, &trial).unwrap();
            let fresh_report = crate::fixed_point::iterate(&fresh, &config).unwrap().report;
            let reused = AnalysisContext::with_compiled(&t, &trial, &mut compiled).unwrap();
            for index in 0..trial.len() {
                let (a, b) = (fresh.demand_range(index), reused.demand_range(index));
                assert_eq!(fresh.demands[a.clone()], reused.demands[b.clone()]);
                assert_eq!(fresh.tables[a], reused.tables[b]);
            }
            assert_eq!(reused.kernel_stats(), fresh.kernel_stats());
            assert_eq!(
                crate::fixed_point::iterate(&reused, &config)
                    .unwrap()
                    .report,
                fresh_report
            );
            drop(reused);
            // Only the candidate was compiled: every member came from the
            // lane's earlier trials.
            assert_eq!(compiled.start.len(), i + 1);
            assert_eq!(compiled.demands.len(), compiled_before + candidate_hops);
            lane = trial;
        }
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
