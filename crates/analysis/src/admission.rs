//! Admission control built on top of the holistic analysis.
//!
//! The paper's closing argument is that the holistic analysis "forms an
//! admission controller": a network operator keeps the set of already
//! accepted flows, and a new flow is accepted only if the holistic analysis
//! of *accepted ∪ {candidate}* shows every frame of every flow (old and
//! new) still meeting its deadline.  [`AdmissionController`] implements
//! exactly that protocol — plus flow departures ([`AdmissionController::release`])
//! and a **sharded, warm-started incremental engine** that makes the
//! per-request cost depend on the candidate's dependency closure rather
//! than on how many flows are admitted network-wide.
//!
//! # The sharded admission plane
//!
//! The jitter fixed point couples two flows only through shared directed
//! links, so the accepted set partitions into [`crate::deps`] *shards*
//! (weakly-connected components of the jitter-dependency graph) whose
//! analyses are completely independent.  The controller maintains that
//! partition incrementally and the batched entry point
//! ([`AdmissionController::request_batch`]) exploits it:
//!
//! 1. requests are grouped into **lanes** — two requests share a lane iff
//!    their routes touch a common shard or directed link — and lanes run
//!    **concurrently** via `gmf-par` (deterministically: the lane
//!    assignment and every result are pure functions of the inputs, never
//!    of scheduling);
//! 2. each trial analyses only the candidate's shard (the union of the
//!    shards its route touches), **warm-started** from the members'
//!    cached converged jitters with re-verification scoped by
//!    `affected_flows` — flows outside the closure keep their cached
//!    [`FlowReport`] verbatim;
//! 3. a lane seeds its warm state **once** from the shared cache — one
//!    entry per flow (its converged jitters and, when fresh, its report,
//!    both shared by `Arc`) — and rolls it forward across its requests:
//!    a trial loads each member's jitters with one copy, builds one dense
//!    dependency scope, and reuses every demand and demand table an
//!    earlier trial of the lane compiled; an acceptance refreshes only
//!    the entries of the flows the trial re-analysed.  Compiled demands
//!    stay lane-local (dropped when the lane ends) so the controller's
//!    memory does not grow with the accepted set (DESIGN.md §4.4);
//! 4. the engine **falls back to a cold per-shard restart** whenever the
//!    shard's dependency graph is cyclic (warm seeds could latch onto a
//!    non-least fixed point) or the warm run fails to converge — so every
//!    decision, bound, failure string and victim attribution is
//!    byte-identical to a global cold analysis of the same trial set,
//!    restricted to the candidate's shard (disjoint shards cannot
//!    influence each other's bounds).
//!
//! A decision's report therefore covers the **candidate's shard**, not
//! the whole accepted set.  The reference a decision is tested against is
//! a cold `analyze` of the accepted set plus the candidate: the verdict,
//! the failure string, the victim and every bound the shard report
//! carries are byte-identical to it.
//!
//! Departures keep the cache warm too: [`AdmissionController::release`]
//! drops the departed flow's jitters and invalidates only the cached
//! reports of flows within the departed flow's shard that its departure
//! can influence; everything else stays frozen.  A batch of departures
//! ([`AdmissionController::release_batch`]) builds one dependency scope
//! per shard it touches and closes over all of that shard's departures at
//! once.

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, CompiledDemands};
use crate::dense::DenseJitters;
use crate::deps::{DependencyGraph, DependencyScope, ShardId};
use crate::error::AnalysisError;
use crate::fixed_point::{iterate, run, ConvergenceTrace, DenseRun, Scope};
use crate::report::{AnalysisReport, FlowReport};
use gmf_model::{EncapsulationConfig, FlowId, GmfFlow, Time};
use gmf_net::{FlowBinding, FlowSet, NodeId, Priority, Route, Topology};
use gmf_par::{par_map_weighted, Threads};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What (or rather whom) a rejection protects, derived from the trial
/// report's deadline misses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionVictim {
    /// Only the candidate itself misses its deadline; the accepted flows
    /// are unharmed by it.
    Candidate,
    /// The candidate meets its own deadlines but would make these
    /// already-accepted flows miss theirs.
    Existing {
        /// The accepted flows that would miss deadlines, in id order.
        flows: Vec<FlowId>,
    },
    /// Both the candidate and these already-accepted flows would miss
    /// deadlines.
    Both {
        /// The accepted flows that would miss deadlines, in id order.
        flows: Vec<FlowId>,
    },
}

/// What one admission decision cost, summed over every analysis run behind
/// it (the warm trial plus a cold fallback rerun, when one happened).
///
/// One accounting gap, accepted for simplicity: a warm attempt that dies
/// with a *hard error* (possible only from a stale post-departure seed)
/// surfaces no counters, so its partial work is not included — the rare
/// error path under-reports, never the common ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionCost {
    /// Total holistic rounds.
    pub rounds: usize,
    /// Total per-flow pipeline analyses (≈ rounds × flows re-verified per
    /// round) — the metric that shrinks when warm starts and dependency
    /// scoping kick in.
    pub flow_analyses: usize,
    /// `true` if the final report came from the warm-started,
    /// dependency-scoped path (false: cyclic dependency graph, empty
    /// cache, or a cold fallback rerun).
    pub warm: bool,
    /// The shard the trial analysed: the smallest flow id of the trial
    /// set.
    pub shard: ShardId,
    /// How many flows that shard held, candidate included — the size of
    /// the set the trial had to re-verify at most.
    pub shard_flows: usize,
}

/// One admission candidate for [`AdmissionController::request_batch`]:
/// the flow, its pre-specified route and 802.1p priority, plus an
/// optional packetization override (builder style).
///
/// ```
/// use gmf_analysis::AdmissionRequest;
/// use gmf_model::{voip_flow, Time, VoiceCodec};
/// use gmf_net::{paper_figure1, shortest_path, Priority};
///
/// let (topology, net) = paper_figure1();
/// let route = shortest_path(&topology, net.hosts[1], net.hosts[3]).unwrap();
/// let flow = voip_flow("call", VoiceCodec::G711, Time::from_millis(20.0), Time::ZERO);
/// let request = AdmissionRequest::new(flow, route, Priority(7));
/// assert_eq!(request.priority(), Priority(7));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionRequest {
    flow: GmfFlow,
    route: Route,
    priority: Priority,
    encapsulation: EncapsulationConfig,
}

impl AdmissionRequest {
    /// A request with the default (plain UDP) packetization.
    pub fn new(flow: GmfFlow, route: Route, priority: Priority) -> Self {
        AdmissionRequest {
            flow,
            route,
            priority,
            encapsulation: EncapsulationConfig::paper(),
        }
    }

    /// Override the packetization configuration.
    pub fn with_encapsulation(mut self, encapsulation: EncapsulationConfig) -> Self {
        self.encapsulation = encapsulation;
        self
    }

    /// The traffic specification.
    pub fn flow(&self) -> &GmfFlow {
        &self.flow
    }

    /// The pre-specified route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The 802.1p priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The packetization configuration.
    pub fn encapsulation(&self) -> EncapsulationConfig {
        self.encapsulation
    }

    /// Bind the request to a concrete flow id.
    fn into_binding(self, id: FlowId) -> FlowBinding {
        FlowBinding {
            id,
            flow: self.flow,
            route: self.route,
            priority: self.priority,
            encapsulation: self.encapsulation,
        }
    }
}

/// The verdict of an admission request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// The flow was admitted; it now has the given id in the accepted set.
    Accepted {
        /// Identifier of the admitted flow within the controller's flow set.
        id: FlowId,
        /// The analysis report of the trial, covering the candidate's
        /// shard (the new flow included).
        report: AnalysisReport,
        /// What the decision cost.
        cost: DecisionCost,
    },
    /// The flow was rejected; the accepted set is unchanged.
    Rejected {
        /// The id the candidate carried in the trial set — the key of its
        /// [`FlowReport`] inside `report`.  The id is *not* registered in
        /// the accepted set and is never handed out again: every request
        /// consumes one id, accepted or not, so a batch's ids are known
        /// up front.
        id: FlowId,
        /// Why the flow was rejected.
        reason: String,
        /// Who misses deadlines in the trial, when the analysis got far
        /// enough to attribute the failure (`None` for aborts such as
        /// overload or divergence, where `reason` carries the detail).
        victim: Option<AdmissionVictim>,
        /// The analysis report of the trial, covering the candidate's
        /// shard.
        report: AnalysisReport,
        /// What the decision cost.
        cost: DecisionCost,
    },
}

impl AdmissionDecision {
    /// `true` if the flow was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, AdmissionDecision::Accepted { .. })
    }

    /// The candidate's flow id in the analysed trial set (registered in
    /// the accepted set only if the decision is an acceptance).
    pub fn id(&self) -> FlowId {
        match self {
            AdmissionDecision::Accepted { id, .. } => *id,
            AdmissionDecision::Rejected { id, .. } => *id,
        }
    }

    /// The report of the analysed (trial) flow set.
    pub fn report(&self) -> &AnalysisReport {
        match self {
            AdmissionDecision::Accepted { report, .. } => report,
            AdmissionDecision::Rejected { report, .. } => report,
        }
    }

    /// The candidate's per-frame bounds inside the trial report, when the
    /// analysis got far enough to produce them.
    pub fn candidate_report(&self) -> Option<&FlowReport> {
        self.report().flow(self.id())
    }

    /// What the decision cost across every analysis run behind it.
    pub fn cost(&self) -> DecisionCost {
        match self {
            AdmissionDecision::Accepted { cost, .. } => *cost,
            AdmissionDecision::Rejected { cost, .. } => *cost,
        }
    }

    /// How many holistic rounds the analyses behind this decision took —
    /// the per-request cost an operator dashboard would track.
    pub fn iterations(&self) -> usize {
        self.cost().rounds
    }

    /// The per-round convergence trace of the trial analysis that produced
    /// the final report.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.report().trace
    }
}

/// Derive the structured victim of a rejection from the trial report.
fn victim_of(report: &AnalysisReport, candidate: FlowId) -> Option<AdmissionVictim> {
    let missed = report.missed_flows();
    let candidate_misses = missed.contains(&candidate);
    let existing: Vec<FlowId> = missed.into_iter().filter(|&f| f != candidate).collect();
    match (candidate_misses, existing.is_empty()) {
        (true, true) => Some(AdmissionVictim::Candidate),
        (true, false) => Some(AdmissionVictim::Both { flows: existing }),
        (false, false) => Some(AdmissionVictim::Existing { flows: existing }),
        (false, true) => None,
    }
}

/// What verifying a pre-admitted flow set cost
/// ([`AdmissionController::with_accepted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreloadStats {
    /// Number of shards the preloaded set partitions into.
    pub shards: usize,
    /// Flow count of the largest shard.
    pub largest_shard: usize,
    /// Total holistic rounds across all per-shard verifications.
    pub rounds: usize,
    /// Total per-flow pipeline analyses across all shards.
    pub flow_analyses: usize,
}

/// One accepted flow's converged state, kept between requests by the warm
/// engine.
///
/// A flow with a cached report always also has its converged jitters — a
/// frozen report is only sound when the interference inputs it was
/// computed from are in the seed.  The reverse may break after
/// departures: jitters can outlive their report (stale-from-above seeds
/// are still valid on acyclic shards; the cold fallback covers spurious
/// aborts).
#[derive(Debug, Clone)]
struct WarmFlow {
    /// The flow's converged jitters from the last verified analysis of its
    /// shard: its slice of the engine's dense arena, stage-major in route
    /// order ([`DenseJitters::flow_slots`]).
    jitters: Arc<[Time]>,
    /// The flow's converged report, when known fresh — shared with the
    /// scoped engine rounds, which carry it by `Arc` instead of cloning it
    /// once per round.  `None` (invalidated by a departure) means the flow
    /// is re-verified on its next trial.
    report: Option<Arc<FlowReport>>,
}

/// The converged state of the accepted set: one entry per flow, so seeding
/// a lane, seeding a trial, rolling a lane forward and merging it back
/// each cost one map operation per flow.
type WarmCache = BTreeMap<FlowId, WarmFlow>;

/// Per flow index of a trial: the cached report a scoped run carried
/// through frozen, or `None` for a flow it re-analysed.
type FrozenReports = Vec<Option<Arc<FlowReport>>>;

/// The conflict-footprint tokens of one batched request: two requests
/// sharing any token must run in the same lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LaneToken {
    /// The request's route touches this existing shard.
    Shard(ShardId),
    /// The request's route transmits on this directed link (couples two
    /// candidates even when no accepted flow uses the link yet).
    Link(NodeId, NodeId),
}

/// One lane of a batched request: the request indices it processes (in
/// submission order) and the accepted flows its shards span.
#[derive(Debug)]
struct LaneInput {
    indices: Vec<usize>,
    members: BTreeSet<FlowId>,
}

/// What one lane produced: per-request decisions, the bindings it
/// accepted, its rolled-forward warm state and the first hard error (the
/// lane stops there).
struct LaneOutput {
    decisions: Vec<(usize, AdmissionDecision)>,
    commits: Vec<(usize, FlowBinding)>,
    warm: WarmCache,
    /// Every flow the merged-back cache slice covers: the lane's starting
    /// members plus its accepted candidates.
    touched: BTreeSet<FlowId>,
    error: Option<(usize, AnalysisError)>,
}

/// An admission controller for one operator-managed network.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    topology: Topology,
    accepted: FlowSet,
    config: AnalysisConfig,
    cache: Option<WarmCache>,
    /// The shard partition of `accepted`, maintained incrementally under
    /// every accept and release (releases scope their invalidation with
    /// it).
    partition: DependencyGraph,
}

impl AdmissionController {
    /// Create a controller with no accepted flows.
    pub fn new(topology: Topology, config: AnalysisConfig) -> Self {
        AdmissionController {
            topology,
            accepted: FlowSet::new(),
            config,
            cache: None,
            partition: DependencyGraph::default(),
        }
    }

    /// Create a controller over an already-admitted flow set (an operator
    /// restoring state), verifying it shard by shard — concurrently, with
    /// `config.threads` workers — and seeding the warm cache from the
    /// per-shard converged analyses.
    ///
    /// Fails with [`AnalysisError::PreloadUnschedulable`] (naming the
    /// first failing shard in shard order) if any shard is not
    /// schedulable as given, and with the underlying error for
    /// structural problems (invalid routes, unknown nodes).
    pub fn with_accepted(
        topology: Topology,
        accepted: FlowSet,
        config: AnalysisConfig,
    ) -> Result<(Self, PreloadStats), AnalysisError> {
        accepted
            .validate_against(&topology)
            .map_err(AnalysisError::Net)?;
        let partition = DependencyGraph::new(&accepted);
        let shard_sets: Vec<(ShardId, FlowSet)> = partition
            .shards()
            .into_iter()
            .map(|shard| {
                let members = partition
                    .shard_flows(shard)
                    // tidy-allow: unwrap invariant: ids come from partition.shards()
                    .expect("shard id comes from the partition");
                (shard, accepted.subset(members.iter().copied()))
            })
            .collect();
        // Shards are independent, so they verify concurrently.
        let runs = par_map_weighted(
            Threads::new(config.threads),
            &shard_sets,
            |(_, set)| u64::try_from(set.len()).unwrap_or(u64::MAX),
            |_, (shard, set)| -> Result<(DenseRun, WarmCache), AnalysisError> {
                let ctx = AnalysisContext::new(&topology, set)?;
                let mut run = iterate(&ctx, &config)?;
                if run.report.schedulable {
                    let mut warm = WarmCache::new();
                    if let Some(x) = &run.jitters {
                        let reports = std::mem::take(&mut run.report.flows);
                        for (index, report) in reports.into_iter().enumerate() {
                            warm.insert(report.flow, warm_flow(&ctx, x, index, report));
                        }
                    }
                    Ok((run, warm))
                } else {
                    Err(AnalysisError::PreloadUnschedulable {
                        shard: shard.0,
                        failure: run
                            .report
                            .failure
                            .clone()
                            .unwrap_or_else(|| "deadline miss".to_string()),
                    })
                }
            },
        );
        let mut stats = PreloadStats {
            shards: shard_sets.len(),
            largest_shard: shard_sets.iter().map(|(_, s)| s.len()).max().unwrap_or(0),
            rounds: 0,
            flow_analyses: 0,
        };
        let mut cache = WarmCache::new();
        for run in runs {
            let (run, warm) = run?;
            stats.rounds += run.report.iterations;
            stats.flow_analyses += run.flow_analyses;
            cache.extend(warm);
        }
        Ok((
            AdmissionController {
                topology,
                accepted,
                config,
                cache: Some(cache),
                partition,
            },
            stats,
        ))
    }

    /// The analysis configuration the controller runs trials with.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The currently accepted flow set.
    pub fn accepted(&self) -> &FlowSet {
        &self.accepted
    }

    /// The shard partition of the accepted set (one entry per
    /// weakly-connected component of the jitter-dependency graph).
    pub fn partition(&self) -> &DependencyGraph {
        &self.partition
    }

    /// The network the controller manages.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of accepted flows.
    pub fn n_accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Ask to admit a batch of candidates, returning one decision per
    /// request in submission order.
    ///
    /// The batch is equivalent to submitting the requests one at a time
    /// in order: each trial runs against the accepted set plus every
    /// *earlier accepted* request of the same batch.  Requests whose
    /// routes touch disjoint shards (and share no directed link) cannot
    /// influence each other, so the controller runs them concurrently —
    /// grouped into lanes with `config.threads` workers — with
    /// byte-identical decisions at any thread count.
    ///
    /// Every request consumes exactly one flow id, accepted or rejected:
    /// request `i` of a batch is analysed (and, on acceptance,
    /// registered) under id `base + i`, so callers can correlate
    /// decisions before the batch returns.
    ///
    /// # Errors
    ///
    /// All routes are validated up front; an invalid route fails the
    /// whole batch before any id is consumed or any trial runs.  A hard
    /// analysis error (not a rejection — those are decisions) at request
    /// `i` commits the acceptances of requests `0..i`, drops the warm
    /// cache and returns the error; decisions of the earlier requests
    /// are discarded with it.
    pub fn request_batch(
        &mut self,
        requests: impl IntoIterator<Item = AdmissionRequest>,
    ) -> Result<Vec<AdmissionDecision>, AnalysisError> {
        let requests: Vec<AdmissionRequest> = requests.into_iter().collect();
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Validate every route against the topology up front so
        // structural errors surface as errors, not rejections — and
        // before any flow id is consumed.
        for request in &requests {
            Route::new(&self.topology, request.route.nodes().to_vec())
                .map_err(AnalysisError::Net)?;
        }
        let base = self.accepted.reserve_ids(requests.len());
        let bindings: Vec<FlowBinding> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| request.into_binding(FlowId(base.0 + i)))
            .collect();
        self.decide_in_lanes(bindings)
    }

    /// The batch body: shard-scoped lanes running concurrently.
    fn decide_in_lanes(
        &mut self,
        bindings: Vec<FlowBinding>,
    ) -> Result<Vec<AdmissionDecision>, AnalysisError> {
        let n = bindings.len();
        // Group the requests into lanes with a union-find over request
        // indices: two requests conflict iff they touch a common accepted
        // shard or share a directed link.
        let touched_shards: Vec<Vec<ShardId>> = bindings
            .iter()
            .map(|b| self.partition.shards_touching_route(&b.route))
            .collect();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        let mut token_owner: BTreeMap<LaneToken, usize> = BTreeMap::new();
        for (i, binding) in bindings.iter().enumerate() {
            let tokens = binding
                .route
                .hops()
                .map(|hop| LaneToken::Link(hop.from, hop.to))
                .chain(touched_shards[i].iter().map(|&s| LaneToken::Shard(s)));
            for token in tokens {
                match token_owner.entry(token) {
                    std::collections::btree_map::Entry::Occupied(owner) => {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, *owner.get()));
                        // Either root works; pick the smaller index so the
                        // result is independent of token order.
                        parent[a.max(b)] = a.min(b);
                    }
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(i);
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let lanes: Vec<LaneInput> = groups
            .into_values()
            .map(|indices| {
                let mut members = BTreeSet::new();
                for &i in &indices {
                    for &shard in &touched_shards[i] {
                        members.extend(
                            self.partition
                                .shard_flows(shard)
                                // tidy-allow: unwrap invariant: shard ids come from shards_touching_route
                                .expect("touched shard exists")
                                .iter()
                                .copied(),
                        );
                    }
                }
                LaneInput { indices, members }
            })
            .collect();
        // `groups` is keyed by the union-find root, which is each lane's
        // smallest index — so `lanes` is already ordered by first request.

        // Lanes are independent, so they run concurrently.
        let outputs: Vec<LaneOutput> = {
            let ctl: &AdmissionController = &*self;
            par_map_weighted(
                Threads::new(ctl.config.threads),
                &lanes,
                |lane| u64::try_from(lane.members.len() + lane.indices.len()).unwrap_or(u64::MAX),
                |_, lane| ctl.run_lane(lane, &bindings),
            )
        };

        // Merge, in request order.  On a hard error at request `e`, keep
        // the acceptances before `e` (the sequential-equivalent state)
        // and drop the cache.
        let cutoff = outputs
            .iter()
            .filter_map(|o| o.error.as_ref().map(|&(i, _)| i))
            .min()
            .unwrap_or(n);
        let mut commits: Vec<&(usize, FlowBinding)> =
            outputs.iter().flat_map(|o| &o.commits).collect();
        commits.sort_by_key(|&&(i, _)| i);
        for &(i, ref binding) in commits {
            if i >= cutoff {
                continue;
            }
            self.accepted
                .insert(binding.clone())
                // tidy-allow: unwrap invariant: batch ids are reserved and unique
                .expect("batch ids are reserved and unique");
            self.partition.insert(binding);
        }
        if let Some((_, error)) = outputs
            .iter()
            .filter_map(|o| o.error.clone())
            .min_by_key(|e| e.0)
        {
            self.cache = None;
            return Err(error);
        }

        // No errors: fold every lane's rolled-forward warm state back
        // into the shared cache (lanes are disjoint, so slices never
        // overlap) and assemble the decisions in submission order.
        let mut cache = self.cache.take().unwrap_or_default();
        let mut decisions: Vec<Option<AdmissionDecision>> = (0..n).map(|_| None).collect();
        for mut output in outputs {
            for flow in output.touched {
                match output.warm.remove(&flow) {
                    Some(warm) => cache.insert(flow, warm),
                    None => cache.remove(&flow),
                };
            }
            for (index, decision) in output.decisions {
                decisions[index] = Some(decision);
            }
        }
        self.cache = Some(cache);
        Ok(decisions
            .into_iter()
            // tidy-allow: unwrap invariant: error-free lanes decide every request
            .map(|d| d.expect("error-free lanes decide every request"))
            .collect())
    }

    /// Process one lane: its requests in submission order, against a
    /// lane-local accepted subset, partition and warm-cache slice that
    /// roll forward across the lane's acceptances.
    fn run_lane(&self, lane: &LaneInput, bindings: &[FlowBinding]) -> LaneOutput {
        let config = &self.config;
        let mut lane_set = self.accepted.subset(lane.members.iter().copied());
        let mut lane_partition = DependencyGraph::new(&lane_set);
        // Seed the lane's warm state once from the shared cache (one entry
        // per flow, shared by `Arc`); every request of the lane then reuses
        // (and, on acceptance, advances) this slice.
        let mut lane_warm: WarmCache = self
            .cache
            .iter()
            .flat_map(|cache| {
                lane.members
                    .iter()
                    .filter_map(|flow| cache.get(flow).map(|warm| (*flow, warm.clone())))
            })
            .collect();
        // Demands and tables compiled by the lane's earlier trials: its
        // bindings and topology are fixed, so every later trial reuses them.
        let mut compiled = CompiledDemands::default();
        let mut out = LaneOutput {
            decisions: Vec::with_capacity(lane.indices.len()),
            commits: Vec::new(),
            warm: WarmCache::new(),
            touched: lane.members.clone(),
            error: None,
        };
        for &index in &lane.indices {
            let binding = &bindings[index];
            // The candidate's trial set: the union of the shards its
            // route touches (within the lane's rolled-forward state),
            // plus the candidate itself.  When those shards are the whole
            // lane set, the trial takes the lane set over instead of
            // copying it, and hands it back afterwards.
            let touched = lane_partition.shards_touching_route(&binding.route);
            let shard_members = |shard: &ShardId| {
                lane_partition
                    .shard_flows(*shard)
                    // tidy-allow: unwrap invariant: shard ids come from shards_touching_route
                    .expect("touched shard exists")
            };
            let whole_lane = touched
                .iter()
                .map(|s| shard_members(s).len())
                .sum::<usize>()
                == lane_set.len();
            let mut trial = if whole_lane {
                std::mem::take(&mut lane_set)
            } else {
                lane_set.subset(
                    touched
                        .iter()
                        .flat_map(|s| shard_members(s).iter().copied()),
                )
            };
            if let Err(e) = trial.insert(binding.clone()) {
                out.error = Some((index, AnalysisError::Net(e)));
                break;
            }
            let ctx = match AnalysisContext::with_compiled(&self.topology, &trial, &mut compiled) {
                Ok(ctx) => ctx,
                Err(e) => {
                    out.error = Some((index, e));
                    break;
                }
            };

            // Warm attempt, seeded from the lane's warm slice.  No cached
            // state for any member means the shard has none at all — go
            // straight to the cold path.
            let mut cost = DecisionCost {
                rounds: 0,
                flow_analyses: 0,
                warm: false,
                shard: ShardId(trial.bindings()[0].id),
                shard_flows: trial.len(),
            };
            let mut run: Option<(DenseRun, FrozenReports)> = None;
            if trial
                .ids()
                .any(|f| f != binding.id && lane_warm.contains_key(&f))
            {
                match warm_shard_trial(&ctx, config, binding.id, &lane_warm) {
                    Ok(Some((warm, frozen))) => {
                        cost.rounds += warm.report.iterations;
                        cost.flow_analyses += warm.flow_analyses;
                        if warm.report.converged {
                            cost.warm = true;
                            run = Some((warm, frozen));
                        }
                    }
                    Ok(None) => {}
                    // A seed above the fixed point (stale after
                    // departures) can turn jitter-dependent inner
                    // iterations into hard errors a cold run never hits.
                    // The verdict must not depend on the seed, so restart
                    // cold — structural errors reproduce identically
                    // there.
                    Err(_) => {}
                }
            }
            let (run, frozen) = match run {
                Some(run) => run,
                None => match iterate(&ctx, config) {
                    Ok(cold) => {
                        cost.rounds += cold.report.iterations;
                        cost.flow_analyses += cold.flow_analyses;
                        (cold, Vec::new())
                    }
                    Err(e) => {
                        out.error = Some((index, e));
                        break;
                    }
                },
            };
            let DenseRun {
                report, jitters, ..
            } = run;
            if report.schedulable {
                // Roll the lane state forward: refresh the warm entry of
                // every flow the run re-analysed (frozen flows carried
                // their cached jitters and report through unchanged).
                match &jitters {
                    Some(x) => {
                        for (flow, flow_report) in report.flows.iter().enumerate() {
                            if frozen.get(flow).is_some_and(Option::is_some) {
                                continue;
                            }
                            lane_warm.insert(
                                flow_report.flow,
                                warm_flow(&ctx, x, flow, flow_report.clone()),
                            );
                        }
                    }
                    // No converged map handed back (cannot happen for a
                    // schedulable report, but stay safe): drop the lane's
                    // warm state rather than risk a stale slice.
                    None => lane_warm.clear(),
                }
                drop(ctx);
                lane_partition.insert(binding);
                if whole_lane {
                    lane_set = trial;
                } else {
                    lane_set
                        .insert(binding.clone())
                        // tidy-allow: unwrap invariant: batch ids are reserved and unique
                        .expect("batch ids are reserved and unique");
                }
                out.touched.insert(binding.id);
                out.commits.push((index, binding.clone()));
            } else if whole_lane {
                drop(ctx);
                trial
                    .remove(binding.id)
                    // tidy-allow: unwrap invariant: the candidate was inserted above
                    .expect("the candidate is in its trial set");
                lane_set = trial;
            }
            out.decisions
                .push((index, build_decision(binding.id, report, cost)));
        }
        out.warm = lane_warm;
        out
    }

    /// Release (tear down) an accepted flow — the departure half of the
    /// admission protocol.  Returns the removed binding.
    ///
    /// The warm cache survives the departure: only the cached reports of
    /// flows the departed flow could influence are invalidated (they are
    /// re-verified on the next request); everything else stays frozen.
    /// The invalidation set is computed within the departing flow's shard
    /// — flows outside it cannot be influenced — so a release costs
    /// O(shard), not O(accepted).  This is
    /// [`AdmissionController::release_batch`] with one id.
    pub fn release(&mut self, id: FlowId) -> Result<FlowBinding, AnalysisError> {
        let mut removed = self.release_batch(&[id])?;
        // tidy-allow: unwrap invariant: a successful batch returns one binding per id
        Ok(removed.pop().expect("one binding per released id"))
    }

    /// Release several accepted flows at once — the multi-flow stranding
    /// path of the survivability sweep, where one failed cable tears down
    /// every flow routed over it.
    ///
    /// Equivalent to calling [`AdmissionController::release`] on the ids
    /// one at a time in order, except the warm cache is invalidated
    /// *once*, with the union of the per-flow invalidation sets.  The
    /// union is computed on the pre-removal partition — a superset of
    /// what the sequential releases would invalidate step by step, and
    /// invalidating more only costs re-verification, never soundness.
    /// Each pre-removal shard builds its dependency graph once and closes
    /// over all of its departing flows at once (closure distributes over
    /// union, so this is exactly the union of the per-flow closures), and
    /// the partition rebuilds each touched shard once.
    ///
    /// The batch is atomic: every id must name a distinct accepted flow,
    /// or the whole call fails with [`gmf_net::NetError::UnknownFlow`]
    /// before anything is removed.  Returns the removed bindings in the
    /// order given.
    pub fn release_batch(&mut self, ids: &[FlowId]) -> Result<Vec<FlowBinding>, AnalysisError> {
        let mut seen = BTreeSet::new();
        for &id in ids {
            if !self.accepted.contains(id) || !seen.insert(id) {
                return Err(AnalysisError::Net(gmf_net::NetError::UnknownFlow(id.0)));
            }
        }
        // Compute the invalidation union on the *pre-removal* shards: the
        // departing flows' interference edges still exist there.
        let affected = if self.cache.is_some() {
            self.invalidated_by(ids)
        } else {
            None
        };
        let mut bindings = Vec::with_capacity(ids.len());
        for &id in ids {
            bindings.push(self.accepted.remove(id).map_err(AnalysisError::Net)?);
        }
        self.partition.remove_many(&bindings, &self.accepted);
        if let Some(cache) = self.cache.as_mut() {
            match affected {
                Some(affected) => {
                    for id in ids {
                        cache.remove(id);
                    }
                    for flow in affected {
                        if let Some(warm) = cache.get_mut(&flow) {
                            warm.report = None;
                        }
                    }
                }
                // No dependency information for some departing flow: drop
                // the whole cache and let the next request restart cold.
                None => self.cache = None,
            }
        }
        Ok(bindings)
    }

    /// The flows whose cached reports the departure of `ids` can change:
    /// per pre-removal shard, one dependency graph closed over all of the
    /// shard's departing flows.  `None` when some route is structurally
    /// broken.
    fn invalidated_by(&self, ids: &[FlowId]) -> Option<BTreeSet<FlowId>> {
        let mut by_shard: BTreeMap<ShardId, Vec<FlowId>> = BTreeMap::new();
        for &id in ids {
            by_shard
                .entry(self.partition.shard_of(id)?)
                .or_default()
                .push(id);
        }
        let mut affected = BTreeSet::new();
        for (shard, departing) in by_shard {
            let members = self
                .partition
                .shard_flows(shard)?
                .iter()
                .map(|&id| self.accepted.get(id).ok())
                .collect::<Option<Vec<&FlowBinding>>>()?;
            let scope = DependencyScope::build(members)?;
            let seeds = departing
                .iter()
                .map(|&id| scope.index_of(id))
                .collect::<Option<Vec<usize>>>()?;
            affected.extend(scope.affected_ids(&seeds));
        }
        Some(affected)
    }

    /// Swap the managed topology for a new one *without* invalidating the
    /// warm cache — the survivability sweep's bridge from the pristine
    /// network to a survivor network.
    ///
    /// Sound only when every **retained** flow's analysis inputs are
    /// unchanged between the two topologies, which this method verifies
    /// flow by flow: the route must re-validate on the new topology, and
    /// every node (kind, switch configuration, interface count) and every
    /// traversed link (speed, propagation) must carry identical
    /// parameters.  Any violation fails with
    /// [`AnalysisError::RebaseDirty`] and leaves the controller untouched
    /// — release the affected flows first, then rebase, then re-admit
    /// them over the new topology.
    pub fn rebase(&mut self, topology: Topology) -> Result<(), AnalysisError> {
        for binding in self.accepted.bindings() {
            Route::new(&topology, binding.route.nodes().to_vec()).map_err(|e| {
                AnalysisError::RebaseDirty {
                    flow: binding.id,
                    detail: format!("route no longer valid: {e}"),
                }
            })?;
            for &node in binding.route.nodes() {
                let old = self.topology.node(node).map_err(AnalysisError::Net)?;
                let new = topology.node(node).map_err(AnalysisError::Net)?;
                if old.kind != new.kind {
                    return Err(AnalysisError::RebaseDirty {
                        flow: binding.id,
                        detail: format!("{node} changed kind or switch configuration"),
                    });
                }
                if old.is_switch()
                    && self.topology.n_interfaces(node) != topology.n_interfaces(node)
                {
                    return Err(AnalysisError::RebaseDirty {
                        flow: binding.id,
                        detail: format!("{node} changed interface count"),
                    });
                }
            }
            for hop in binding.route.hops() {
                let old = self
                    .topology
                    .link_between(hop.from, hop.to)
                    .map_err(AnalysisError::Net)?;
                let new = topology
                    .link_between(hop.from, hop.to)
                    .map_err(AnalysisError::Net)?;
                if old.speed != new.speed || old.propagation != new.propagation {
                    return Err(AnalysisError::RebaseDirty {
                        flow: binding.id,
                        detail: format!("link {}->{} changed parameters", hop.from, hop.to),
                    });
                }
            }
        }
        self.topology = topology;
        Ok(())
    }

    /// The warm cache's converged per-flow reports, in flow-id order —
    /// empty before the first decision or after the cache was dropped.
    ///
    /// A cached report is exact for the current accepted set: reports
    /// that a departure or a trial could have changed are invalidated
    /// eagerly and only re-inserted by a converged analysis.
    pub fn cached_reports(&self) -> impl Iterator<Item = (FlowId, &FlowReport)> + '_ {
        self.cache.iter().flat_map(|cache| {
            cache
                .iter()
                .filter_map(|(id, warm)| Some((*id, warm.report.as_deref()?)))
        })
    }

    /// Re-run the analysis of the currently accepted set (e.g. after the
    /// operator changed the analysis configuration).
    pub fn reanalyze(&self) -> Result<AnalysisReport, AnalysisError> {
        crate::fixed_point::analyze(&self.topology, &self.accepted, &self.config)
    }
}

/// Turn a trial's report into the decision for `candidate`.
fn build_decision(
    candidate: FlowId,
    report: AnalysisReport,
    cost: DecisionCost,
) -> AdmissionDecision {
    if report.schedulable {
        AdmissionDecision::Accepted {
            id: candidate,
            report,
            cost,
        }
    } else {
        let reason = report
            .failure
            .clone()
            .unwrap_or_else(|| "deadline miss".to_string());
        // Attribute the failure only when the analysis converged: an
        // aborted or non-converged trial carries partial / non-final
        // bounds, and a deadline "miss" read off them could name the
        // wrong flow.
        let victim = if report.converged {
            victim_of(&report, candidate)
        } else {
            None
        };
        AdmissionDecision::Rejected {
            id: candidate,
            reason,
            victim,
            report,
            cost,
        }
    }
}

/// A flow's warm-cache entry from a converged run: its slice of the
/// converged iterate `x` (flow index `flow` of `ctx`) and its report.
fn warm_flow(
    ctx: &AnalysisContext<'_>,
    x: &DenseJitters,
    flow: usize,
    report: FlowReport,
) -> WarmFlow {
    debug_assert_eq!(ctx.plan().flows[flow].id, report.flow);
    WarmFlow {
        jitters: x.flow_slots(ctx.plan(), flow).into(),
        report: Some(Arc::new(report)),
    }
}

/// Run the warm-started, dependency-scoped trial analysis of one shard,
/// or return `None` when warm-starting is unsound or unavailable for this
/// trial (cyclic dependency graph, unwalkable route).  The seed holds the
/// lane's cached jitters of the trial's members and the paper's initial
/// entries for the candidate.  Returns the run with the per-flow frozen
/// reports it carried through.
fn warm_shard_trial(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    candidate_id: FlowId,
    lane_warm: &WarmCache,
) -> Result<Option<(DenseRun, FrozenReports)>, AnalysisError> {
    // One dependency-graph construction answers both questions: is the
    // trial acyclic (warm starts are unsound otherwise) and what the
    // candidate can influence.
    let trial = ctx.flows();
    let Some(scope) = DependencyScope::build(trial.bindings()) else {
        return Ok(None);
    };
    let Some(candidate) = scope.index_of(candidate_id).filter(|_| scope.is_acyclic()) else {
        return Ok(None);
    };
    let affected = scope.affected(&[candidate]);

    // Re-verify the affected flows plus everything whose cached report a
    // departure invalidated; freeze the rest (shared, not cloned — the
    // engine carries frozen reports by `Arc`).  Seed every member from
    // its cached jitters and the candidate from its source jitters.
    let plan = ctx.plan();
    let mut seed = DenseJitters::zeroed(plan);
    let mut frozen = Vec::with_capacity(trial.len());
    for (flow, binding) in trial.bindings().iter().enumerate() {
        let warm = lane_warm.get(&binding.id);
        if let Some(warm) = warm {
            seed.load_flow(plan, flow, &warm.jitters);
        }
        frozen.push(if affected[flow] {
            None
        } else {
            warm.and_then(|w| w.report.clone())
        });
    }
    debug_assert!(!lane_warm.contains_key(&candidate_id));
    seed.set_initial_flow(plan, candidate, &trial.bindings()[candidate]);

    let scope = Scope { frozen: &frozen };
    let run = run(ctx, config, seed, Some(&scope))?;
    Ok(Some((run, frozen)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{paper_figure3_flow, voip_flow, Time, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path};

    fn controller() -> (AdmissionController, gmf_net::PaperNetwork) {
        let (t, net) = paper_figure1();
        (AdmissionController::new(t, AnalysisConfig::paper()), net)
    }

    fn voice(deadline_ms: f64) -> GmfFlow {
        voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(deadline_ms),
            Time::from_millis(0.5),
        )
    }

    /// One-candidate batch: the test-side spelling of the old `request`.
    fn one(
        ctl: &mut AdmissionController,
        flow: GmfFlow,
        route: Route,
        priority: Priority,
    ) -> AdmissionDecision {
        ctl.request_batch([AdmissionRequest::new(flow, route, priority)])
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn admits_feasible_flows_and_accumulates_them() {
        let (mut ctl, net) = controller();
        assert_eq!(ctl.n_accepted(), 0);

        let route = shortest_path(ctl.topology(), net.hosts[1], net.hosts[3]).unwrap();
        let d = one(&mut ctl, voice(20.0), route, Priority(7));
        assert!(d.is_accepted());
        assert_eq!(ctl.n_accepted(), 1);
        assert!(d.report().schedulable);
        // The decision exposes the cost of the trial analyses: how many
        // holistic rounds they took, with one trace entry per round of the
        // final run.
        assert!(d.iterations() >= 1);
        assert_eq!(d.trace().len(), d.report().iterations);
        assert!(d.cost().flow_analyses >= 1);
        // The candidate's own report is addressable by its id.
        assert_eq!(d.candidate_report().unwrap().flow, d.id());

        let route = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route, Priority(5));
        assert!(d.is_accepted());
        assert_eq!(ctl.n_accepted(), 2);
        // The second trial ran warm off the cached converged map, scoped
        // to the (single, merged) shard both flows share.
        assert!(d.cost().warm);
        assert_eq!(d.cost().shard, ShardId(FlowId(0)));
        assert_eq!(d.cost().shard_flows, 2);
        assert_eq!(ctl.partition().n_shards(), 1);

        // Re-analysing the accepted set is still schedulable.
        assert!(ctl.reanalyze().unwrap().schedulable);
    }

    #[test]
    fn rejects_infeasible_flow_and_keeps_state() {
        let (mut ctl, net) = controller();
        // The voice call enters through host 1 so it does not share the
        // (priority-blind) access link of the video source.
        let voice_route = shortest_path(ctl.topology(), net.hosts[1], net.hosts[3]).unwrap();
        assert!(one(&mut ctl, voice(20.0), voice_route, Priority(7)).is_accepted());

        let route = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        // A video flow with an impossible 2 ms deadline over two 10 Mbit/s
        // access links is rejected...
        let video = paper_figure3_flow("video", Time::from_millis(2.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route.clone(), Priority(6));
        assert!(!d.is_accepted());
        match &d {
            AdmissionDecision::Rejected {
                id,
                reason,
                victim,
                report,
                ..
            } => {
                assert!(reason.contains("video") || reason.contains("overload"));
                assert!(!report.schedulable);
                // The rejection names the candidate's trial id, and when
                // the analysis converged, attributes the miss to it.
                assert_eq!(*id, d.id());
                if report.converged {
                    assert_eq!(*victim, Some(AdmissionVictim::Candidate));
                    assert_eq!(report.flow(*id).unwrap().flow, *id);
                }
            }
            _ => unreachable!(),
        }
        // ...and the accepted set is unchanged.
        assert_eq!(ctl.n_accepted(), 1);
        assert!(ctl.reanalyze().unwrap().schedulable);

        // The same video flow with a realistic deadline is admitted under
        // a fresh id: every request consumes one id, accepted or not.
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let d2 = one(&mut ctl, video, route, Priority(6));
        assert!(d2.is_accepted());
        assert_ne!(d2.id(), d.id());
        assert_eq!(d2.id(), FlowId(2));
        assert_eq!(ctl.n_accepted(), 2);
    }

    #[test]
    fn rejection_protects_already_admitted_flows_and_names_them() {
        let (mut ctl, net) = controller();
        // Admit a voice flow with a tight deadline on the shared 10 Mbit/s
        // access link of host 0.
        let route03 = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        let tight = one(&mut ctl, voice(4.0), route03.clone(), Priority(7));
        assert!(tight.is_accepted());

        // A big low-priority video flow sharing the same source link pushes
        // the voice flow's first-hop (priority-blind) bound past 4 ms, so it
        // must be rejected even though the *new* flow itself has a lax
        // deadline.
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route03, Priority(1));
        assert!(!d.is_accepted());
        assert_eq!(ctl.n_accepted(), 1);
        match &d {
            AdmissionDecision::Rejected { victim, report, .. } => {
                if report.converged {
                    assert_eq!(
                        *victim,
                        Some(AdmissionVictim::Existing {
                            flows: vec![tight.id()],
                        }),
                    );
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn warm_decisions_match_cold_decisions_bytewise() {
        let requests = |net: &gmf_net::PaperNetwork, t: &Topology| {
            vec![
                AdmissionRequest::new(
                    voice(20.0),
                    shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[0], net.hosts[3]).unwrap(),
                    Priority(5),
                ),
                AdmissionRequest::new(
                    // An impossible deadline: rejected by both engines.
                    paper_figure3_flow("video2", Time::from_millis(2.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[2], net.hosts[3]).unwrap(),
                    Priority(6),
                ),
                AdmissionRequest::new(
                    voice(25.0),
                    shortest_path(t, net.hosts[2], net.hosts[0]).unwrap(),
                    Priority(7),
                ),
            ]
        };
        let (t, net) = paper_figure1();
        let mut ctl = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let mut saw_scoped_saving = false;
        let mut last = None;
        for request in requests(&net, &t) {
            // The cold oracle: a from-scratch fixed point over the accepted
            // set plus the candidate, under the id the controller hands out.
            let mut trial = ctl.accepted().clone();
            let id = trial.add(
                request.flow().clone(),
                request.route().clone(),
                request.priority(),
            );
            let ctx = AnalysisContext::new(&t, &trial).unwrap();
            let cold = iterate(&ctx, ctl.config()).unwrap();
            let reference = &cold.report;

            let d = ctl.request_batch([request]).unwrap().pop().unwrap();
            assert_eq!(d.id(), id);
            assert_eq!(d.is_accepted(), reference.schedulable);
            // Warm reports cover the candidate's shard; every bound they
            // carry is byte-identical to the cold/global report's entry
            // for the same flow.
            assert!(!d.report().flows.is_empty());
            for flow in &d.report().flows {
                assert_eq!(Some(flow), reference.flow(flow.flow));
            }
            assert_eq!(d.report().failure, reference.failure);
            if let AdmissionDecision::Rejected { reason, victim, .. } = &d {
                assert_eq!(Some(reason), reference.failure.as_ref());
                let expected = reference
                    .converged
                    .then(|| victim_of(reference, id))
                    .flatten();
                assert_eq!(*victim, expected);
            }
            saw_scoped_saving |= d.cost().flow_analyses < cold.flow_analyses;
            last = Some((d, trial.len()));
        }
        // The last candidate's route is link-disjoint from everything
        // admitted, so its warm trial analysed a fresh singleton shard
        // while the cold trial re-ran the world.
        let (last, cold_flows) = last.unwrap();
        assert!(last.report().flows.len() < cold_flows);
        assert_eq!(last.cost().shard_flows, 1);
        // The warm engine did strictly less per-flow work on at least one
        // decision of this scenario.
        assert!(saw_scoped_saving);
    }

    #[test]
    fn batched_requests_consume_ids_in_order_and_match_sequential() {
        let (t, net) = paper_figure1();
        let requests = |t: &Topology| {
            vec![
                AdmissionRequest::new(
                    voice(20.0),
                    shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    // Impossible deadline: rejected, but still consumes id 1.
                    paper_figure3_flow("video2", Time::from_millis(2.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[2], net.hosts[3]).unwrap(),
                    Priority(6),
                ),
                AdmissionRequest::new(
                    voice(25.0),
                    shortest_path(t, net.hosts[2], net.hosts[0]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    // Link-disjoint from every other request: its own lane.
                    voice(25.0),
                    shortest_path(t, net.hosts[3], net.hosts[2]).unwrap(),
                    Priority(7),
                ),
            ]
        };
        // The batched controller runs its lanes on four workers; lanes
        // are deterministic, so the decisions must match a sequential
        // single-threaded submission byte for byte.
        let mut batched =
            AdmissionController::new(t.clone(), AnalysisConfig::paper().with_threads(4));
        let batch = batched.request_batch(requests(&t)).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(
            batch.iter().map(|d| d.id()).collect::<Vec<_>>(),
            vec![FlowId(0), FlowId(1), FlowId(2), FlowId(3)]
        );
        assert!(batch[0].is_accepted());
        assert!(!batch[1].is_accepted());
        assert!(batch[2].is_accepted() && batch[3].is_accepted());
        assert_eq!(batched.n_accepted(), 3);
        assert_eq!(batched.partition().n_shards(), 3);

        let mut seq = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let sequential: Vec<AdmissionDecision> = requests(&t)
            .into_iter()
            .map(|r| seq.request_batch([r]).unwrap().pop().unwrap())
            .collect();
        assert_eq!(batch, sequential);
        assert_eq!(batched.accepted(), seq.accepted());

        // An empty batch is a no-op.
        assert_eq!(batched.request_batch([]).unwrap(), vec![]);
    }

    #[test]
    fn with_accepted_verifies_preload_and_seeds_the_cache() {
        let (t, net) = paper_figure1();
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let mut preloaded = FlowSet::new();
        preloaded.add(voice(20.0), voice_route.clone(), Priority(7));
        preloaded.add(video.clone(), video_route.clone(), Priority(5));
        let (mut ctl, stats) =
            AdmissionController::with_accepted(t.clone(), preloaded, AnalysisConfig::paper())
                .unwrap();
        assert_eq!(ctl.n_accepted(), 2);
        assert_eq!(stats.shards, ctl.partition().n_shards());
        assert!(stats.largest_shard >= 2);
        assert!(stats.rounds >= 1 && stats.flow_analyses >= 2);

        // The preloaded controller decides the next candidate exactly like
        // a controller that admitted the same flows one by one — warm bit,
        // bounds and trace included.
        let mut seq = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        assert!(one(&mut seq, voice(20.0), voice_route, Priority(7)).is_accepted());
        assert!(one(&mut seq, video, video_route.clone(), Priority(5)).is_accepted());
        let d_pre = one(&mut ctl, voice(25.0), video_route.clone(), Priority(7));
        let d_seq = one(&mut seq, voice(25.0), video_route.clone(), Priority(7));
        assert_eq!(d_pre, d_seq);
        assert!(d_pre.cost().warm);

        // A preloaded set that is not schedulable is refused up front,
        // naming the failing shard.
        let mut bad = FlowSet::new();
        bad.add(voice(4.0), video_route.clone(), Priority(7));
        bad.add(
            paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0)),
            video_route,
            Priority(1),
        );
        let err = AdmissionController::with_accepted(t, bad, AnalysisConfig::paper()).unwrap_err();
        assert!(matches!(err, AnalysisError::PreloadUnschedulable { .. }));
        assert!(err.is_unschedulable());
        assert!(err.to_string().contains("not schedulable"));
    }

    #[test]
    fn release_departs_a_flow_and_reopens_capacity() {
        let (mut ctl, net) = controller();
        let route03 = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        let first = one(&mut ctl, voice(4.0), route03.clone(), Priority(7));
        assert!(first.is_accepted());

        // The big video flow does not fit next to the tight voice call...
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video.clone(), route03.clone(), Priority(1));
        assert!(!d.is_accepted());

        // ...but after the voice call departs, it does.
        let departed = ctl.release(first.id()).unwrap();
        assert_eq!(departed.id, first.id());
        assert_eq!(ctl.n_accepted(), 0);
        assert_eq!(ctl.partition().n_shards(), 0);
        let d = one(&mut ctl, video, route03, Priority(1));
        assert!(d.is_accepted(), "{:?}", d.report().failure);
        assert_eq!(ctl.n_accepted(), 1);
        // Departed ids are never reused.
        assert_ne!(d.id(), first.id());

        // Releasing an unknown id is an error and changes nothing.
        assert!(ctl.release(first.id()).is_err());
        assert_eq!(ctl.n_accepted(), 1);
    }

    #[test]
    fn release_batch_matches_sequential_releases_and_is_atomic() {
        let (t, net) = paper_figure1();
        let requests = |t: &Topology| {
            vec![
                AdmissionRequest::new(
                    voice(20.0),
                    shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[0], net.hosts[3]).unwrap(),
                    Priority(5),
                ),
                AdmissionRequest::new(
                    voice(25.0),
                    shortest_path(t, net.hosts[2], net.hosts[0]).unwrap(),
                    Priority(7),
                ),
            ]
        };
        let mut batched = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let mut sequential = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let a = batched.request_batch(requests(&t)).unwrap();
        let b = sequential.request_batch(requests(&t)).unwrap();
        assert!(a.iter().all(AdmissionDecision::is_accepted));
        assert_eq!(a, b);

        // Tear down the two flows sharing the video's shard in one batch
        // vs one at a time: same survivors, same partition, and the next
        // decision is byte-identical.
        let removed = batched.release_batch(&[a[0].id(), a[1].id()]).unwrap();
        assert_eq!(
            removed.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![a[0].id(), a[1].id()]
        );
        sequential.release(b[0].id()).unwrap();
        sequential.release(b[1].id()).unwrap();
        assert_eq!(batched.accepted(), sequential.accepted());
        assert_eq!(
            batched.partition().n_shards(),
            sequential.partition().n_shards()
        );
        let candidate = |t: &Topology| {
            AdmissionRequest::new(
                voice(18.0),
                shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                Priority(6),
            )
        };
        let da = batched.request_batch([candidate(&t)]).unwrap();
        let db = sequential.request_batch([candidate(&t)]).unwrap();
        assert_eq!(da, db);

        // Atomicity: an unknown or duplicated id fails the whole batch
        // without removing anything.
        let before = batched.accepted().clone();
        assert!(batched.release_batch(&[FlowId(999)]).is_err());
        let live = a[2].id();
        assert!(batched.release_batch(&[live, live]).is_err());
        assert_eq!(*batched.accepted(), before);

        // An empty batch is a no-op.
        assert_eq!(batched.release_batch(&[]).unwrap(), vec![]);
    }

    #[test]
    fn rebase_swaps_topology_only_when_retained_flows_are_untouched() {
        // h0 - s1 - h3 carries the retained flow; s2 - h4 hang off s1 via
        // s2, far from the flow's route.
        let mut t = Topology::new();
        let h0 = t.add_end_host("h0");
        let s1 = t.add_switch(gmf_net::SwitchConfig::paper(), "s1");
        let h3 = t.add_end_host("h3");
        let s2 = t.add_switch(gmf_net::SwitchConfig::paper(), "s2");
        let h4 = t.add_end_host("h4");
        for (a, b) in [(h0, s1), (s1, h3), (s1, s2), (s2, h4)] {
            t.add_duplex_link(a, b, gmf_net::LinkProfile::ethernet_100m())
                .unwrap();
        }
        let route = shortest_path(&t, h0, h3).unwrap();
        let mut ctl = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let d = one(&mut ctl, voice(20.0), route.clone(), Priority(7));
        assert!(d.is_accepted());

        // Failing the s2-h4 cable touches neither the flow's route nodes
        // nor their interface counts: rebase succeeds and keeps the cache.
        let mut faulty = t.clone();
        faulty.fail_link(s2, h4).unwrap();
        ctl.rebase(faulty.survivor().into_topology()).unwrap();
        assert_eq!(ctl.topology().n_links(), t.n_links() - 2);
        let d2 = one(&mut ctl, voice(25.0), route.clone(), Priority(6));
        assert!(d2.is_accepted());
        assert!(d2.cost().warm, "cache must survive a clean rebase");

        // Failing s1-s2 changes s1's interface count; s1 is on the
        // retained route, so the rebase is refused and nothing changes.
        let mut faulty = t.clone();
        faulty.fail_link(s1, s2).unwrap();
        let err = ctl.rebase(faulty.survivor().into_topology()).unwrap_err();
        assert!(matches!(err, AnalysisError::RebaseDirty { .. }));
        assert!(err.to_string().contains("interface count"));

        // Failing the access link severs the retained route outright.
        let mut faulty = t.clone();
        faulty.fail_link(h0, s1).unwrap();
        let err = ctl.rebase(faulty.survivor().into_topology()).unwrap_err();
        assert!(matches!(err, AnalysisError::RebaseDirty { .. }));
    }

    #[test]
    fn release_and_readmission_restore_identical_bounds() {
        let (t, net) = paper_figure1();
        let mut ctl = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let v = one(&mut ctl, voice(20.0), voice_route, Priority(7));
        let before = one(&mut ctl, video.clone(), video_route.clone(), Priority(5));
        assert!(v.is_accepted() && before.is_accepted());

        // Tear the video down and bring it back: every surviving flow's
        // report and the re-admitted flow's bounds are unchanged (only its
        // id is fresh).
        ctl.release(before.id()).unwrap();
        let after = one(&mut ctl, video, video_route, Priority(5));
        assert!(after.is_accepted());
        assert_ne!(after.id(), before.id());
        let b = before.candidate_report().unwrap();
        let a = after.candidate_report().unwrap();
        assert_eq!(a.name, b.name);
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.bound, fb.bound);
            assert_eq!(fa.hops, fb.hops);
        }
        assert_eq!(
            after.report().flow(v.id()).unwrap(),
            before.report().flow(v.id()).unwrap(),
        );
    }

    #[test]
    fn invalid_route_fails_the_whole_batch_without_consuming_ids() {
        let (mut ctl, net) = controller();
        // Build a route on a topology with a different shape; the node ids
        // exist in the paper network but the links do not.
        let (line_topology, a, b, _) = gmf_net::line(
            2,
            gmf_net::LinkProfile::ethernet_100m(),
            gmf_net::LinkProfile::ethernet_100m(),
            gmf_net::SwitchConfig::paper(),
        );
        let bogus = gmf_net::shortest_path(&line_topology, a, b).unwrap();
        let good = shortest_path(ctl.topology(), net.hosts[1], net.hosts[3]).unwrap();
        // One bad route poisons the batch atomically: no trial runs, no
        // id is consumed, nothing is admitted.
        let result = ctl.request_batch([
            AdmissionRequest::new(voice(20.0), good.clone(), Priority(7)),
            AdmissionRequest::new(voice(20.0), bogus, Priority(7)),
        ]);
        assert!(result.is_err());
        assert_eq!(ctl.n_accepted(), 0);
        let d = one(&mut ctl, voice(20.0), good, Priority(7));
        assert!(d.is_accepted());
        assert_eq!(d.id(), FlowId(0));
    }

    #[test]
    fn decision_serde_roundtrip_includes_victim_and_cost() {
        let (mut ctl, net) = controller();
        let route = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        one(&mut ctl, voice(4.0), route.clone(), Priority(7));
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route, Priority(1));
        assert!(!d.is_accepted());
        let json = serde_json::to_string(&d).unwrap();
        let back: AdmissionDecision = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
