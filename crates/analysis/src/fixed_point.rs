//! The holistic fixed-point engine: parallel Jacobi rounds of plain Picard
//! iteration, plus warm starts and dependency-scoped re-verification.
//!
//! The holistic analysis ([`crate::holistic`]) resolves the circular
//! dependency between response times and generalized jitters by iterating
//! the map `G : JitterMap → JitterMap` that analyses every flow against the
//! previous round's jitters and records the jitters the frames accumulate.
//! This module owns that iteration, which is the paper's Picard scheme
//! `x_{k+1} = G(x_k)` from the initial map (source jitter on first links,
//! zero elsewhere) until `G(x) ≈ x`.
//!
//! **Why plain Picard is enough.**  Interfering jitters enter the
//! response-time equations only through the staircase request-bound
//! functions (`MX`/`NX` inside the busy-period iterations), so `G` is
//! piecewise constant in its input and its outputs live on a discrete
//! lattice (sums of frame transmission/service times).  The iterates are
//! monotone, so Picard reaches the least fixed point `x*` *exactly* after
//! finitely many rounds (3 to 11 on the canonical bench workloads) or
//! grows past the divergence horizon.  A safeguarded
//! depth-1 secant extrapolation (the composite-max acceleration of Bian &
//! Chen 2022) was measured against it on the benchmark's analysis corpus:
//! it landed on the same bounds but needed more rounds overall and more
//! time, so the engine runs Picard only (DESIGN.md §4.1).  The
//! [`ConvergenceTrace`] records each round's residual.
//!
//! **Parallel Jacobi rounds.**  Within one round every flow is analysed
//! against the *same* immutable previous-round map, so the per-flow
//! analyses are embarrassingly parallel.  [`evaluate_round`] maps them over
//! a [`gmf_par::par_map`] fork-join pool; results come back in flow-index
//! order, the next map is folded sequentially in that order, and error
//! precedence scans in that order too — the output is byte-identical to
//! the sequential loop at any thread count.  A flow whose input slots are
//! exactly unchanged since its last analysis is not re-analysed at all
//! (`AnalysisConfig::skip_unchanged_flows`); its cached report is reused.
//!
//! **Warm starts and incremental re-verification.**  [`iterate_from`]
//! seeds the iteration with an arbitrary [`JitterMap`] instead of the
//! paper's initial map.  On acyclic instances the fixed point is unique
//! and `G^{depth+1}` is a constant map, so a seed taken from the converged
//! map of a closely related flow set (the previous admission decision)
//! lands on byte-identical bounds in far fewer rounds.  On top of that,
//! [`affected_flows`] computes which flows a candidate can influence at
//! all — everything unreachable from it in the dependency graph keeps its
//! cached converged [`FlowReport`] verbatim and is never re-analysed
//! ([`Scope`]).  [`crate::admission::AdmissionController`] combines both
//! into its incremental admission engine, with a cold restart whenever the
//! dependency graph is cyclic or a warm run fails to converge.

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, JitterMap};
use crate::dense::DenseJitters;
use crate::error::AnalysisError;
use crate::kernel::KernelScratch;
use crate::pipeline::analyze_flow_dense;
use crate::report::{AnalysisReport, FlowReport, FrameBound};
use gmf_model::Time;
use gmf_par::{par_map_interleaved_with, Threads};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One round of the holistic iteration, as recorded in the
/// [`ConvergenceTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// 1-based outer iteration number.
    pub iteration: usize,
    /// Largest absolute change of any jitter component in this round
    /// (`‖G(x) − x‖_∞`); zero for a round aborted because a flow could not
    /// be bounded (overload / horizon excess).
    pub residual: Time,
}

/// Per-round residuals of one holistic analysis run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// One entry per outer iteration, in order.
    pub rounds: Vec<RoundTrace>,
}

impl ConvergenceTrace {
    /// Number of recorded rounds (equals the report's `iterations`).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no round was recorded (empty flow set).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The residual of the last round, if any.
    pub fn final_residual(&self) -> Option<Time> {
        self.rounds.last().map(|r| r.residual)
    }
}

/// A node of the jitter dependency graph: the jitter of one flow at one
/// resource of its route.
type DepNode = (gmf_model::FlowId, crate::context::ResourceId);

/// The Figure 6 pipeline walk of one flow: its resources in route order,
/// each paired with the underlying directed link whose flow set interferes
/// at that resource.  `None` if the route is structurally broken (a
/// condition the analysis itself reports as an error).
fn flow_stages(
    binding: &gmf_net::FlowBinding,
) -> Option<
    Vec<(
        crate::context::ResourceId,
        (gmf_net::NodeId, gmf_net::NodeId),
    )>,
> {
    use crate::context::ResourceId;
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

/// The edges of the jitter dependency graph of `flows`.
///
/// Nodes are `(flow, resource)` pairs.  The jitter a flow accumulates at
/// resource `r_{i+1}` of its route is its jitter at `r_i` plus its response
/// at `r_i`, and that response reads the jitter of every interfering flow
/// at `r_i` — so there is an edge `(A, r_i) → (A, r_{i+1})` and an edge
/// `(B, r_i) → (A, r_{i+1})` for every `B` sharing `r_i`'s underlying link
/// with `A`.  `None` if any route is structurally broken.
fn dependency_edges(
    flows: &gmf_net::FlowSet,
) -> Option<std::collections::BTreeMap<DepNode, Vec<DepNode>>> {
    let link_index = flows.link_index();
    let mut edges: std::collections::BTreeMap<DepNode, Vec<DepNode>> =
        std::collections::BTreeMap::new();
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

/// Iterative three-colour DFS cycle check over a prepared edge map.
fn edges_have_cycle(edges: &std::collections::BTreeMap<DepNode, Vec<DepNode>>) -> bool {
    use std::collections::BTreeMap;
    type Node = DepNode;

    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        InProgress,
        Done,
    }
    let mut colour: BTreeMap<Node, Colour> = BTreeMap::new();
    let nodes: Vec<Node> = edges.keys().copied().collect();
    for start in nodes {
        if colour.contains_key(&start) {
            continue;
        }
        // Stack of (node, next child index).
        let mut stack: Vec<(Node, usize)> = vec![(start, 0)];
        colour.insert(start, Colour::InProgress);
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            let empty = Vec::new();
            let targets = edges.get(&node).unwrap_or(&empty);
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

/// The flows whose analysis can change when `seed` is added to (or removed
/// from) `flows` — the scope of re-verification for an incremental
/// admission decision.
///
/// A flow `F` is *affected* iff the response bound of `F` at some resource
/// `r` of its route can change, which happens exactly when a flow sharing
/// `r`'s underlying interference link either is `seed` itself (its demand
/// appears or disappears from the interference sum) or has a changed
/// generalized jitter at `r`.  Changed jitters are the closure of `seed`'s
/// own nodes under the dependency edges: `jitter(A, r_{i+1})` is a function
/// of the jitters at `r_i` of every flow interfering with `A` there.
///
/// Flows *not* in the returned set keep byte-identical bounds: every input
/// of every one of their per-resource analyses is untouched by `seed`, so a
/// cached converged [`crate::report::FlowReport`] stays valid verbatim.
///
/// Returns `None` when a route is structurally broken (the caller falls
/// back to re-verifying everything).
pub(crate) fn affected_flows(
    flows: &gmf_net::FlowSet,
    seed: gmf_model::FlowId,
) -> Option<std::collections::BTreeSet<gmf_model::FlowId>> {
    let edges = dependency_edges(flows)?;
    affected_flows_in(flows, seed, &edges)
}

/// [`affected_flows`] + acyclicity in one dependency-graph construction —
/// the per-request combination the warm admission path needs.  `None` when
/// the graph is cyclic (warm starts are unsound there) or a route is
/// structurally broken.
pub(crate) fn acyclic_affected_flows(
    flows: &gmf_net::FlowSet,
    seed: gmf_model::FlowId,
) -> Option<std::collections::BTreeSet<gmf_model::FlowId>> {
    let edges = dependency_edges(flows)?;
    if edges_have_cycle(&edges) {
        return None;
    }
    affected_flows_in(flows, seed, &edges)
}

/// The [`affected_flows`] closure over a prepared edge map.
fn affected_flows_in(
    flows: &gmf_net::FlowSet,
    seed: gmf_model::FlowId,
    edges: &std::collections::BTreeMap<DepNode, Vec<DepNode>>,
) -> Option<std::collections::BTreeSet<gmf_model::FlowId>> {
    use std::collections::{BTreeMap, BTreeSet};

    let link_index = flows.link_index();
    let stages: BTreeMap<gmf_model::FlowId, _> = flows
        .bindings()
        .iter()
        .map(|b| Some((b.id, flow_stages(b)?)))
        .collect::<Option<_>>()?;

    // Closure of the seed flow's own nodes under the dependency edges:
    // every (flow, resource) whose jitter value can differ between the
    // with-seed and without-seed fixed points.
    let mut changed: BTreeSet<DepNode> = stages[&seed]
        .iter()
        .map(|&(resource, _)| (seed, resource))
        .collect();
    let mut worklist: Vec<DepNode> = changed.iter().copied().collect();
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
        if affected.contains(&binding.id) {
            continue;
        }
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

/// Everything one `G` evaluation produces.  Reports are `Arc`-shared:
/// frozen and round-skipped flows hand the same allocation to every round
/// instead of deep-copying `R × F` report clones across the run.
enum RoundOutcome {
    /// Every flow analysed: the per-flow reports and the next jitter map.
    Evaluated {
        reports: Vec<Arc<FlowReport>>,
        next: DenseJitters,
    },
    /// A flow could not be bounded (overload / horizon excess): the reports
    /// of the flows *before* it in flow order, and why.
    Unschedulable {
        partial: Vec<Arc<FlowReport>>,
        failure: String,
    },
}

/// Turn the engine's shared reports into the owned vector an
/// [`AnalysisReport`] carries — one unwrap (or clone, for reports still
/// shared with a caller's cache) per flow at the end of the run.
fn unwrap_reports(reports: Vec<Arc<FlowReport>>) -> Vec<FlowReport> {
    reports
        .into_iter()
        .map(|report| Arc::try_unwrap(report).unwrap_or_else(|shared| (*shared).clone()))
        .collect()
}

/// A dependency-derived re-verification scope for an incremental
/// (warm-started) run: only `active` flows are re-analysed each round;
/// every other flow's converged [`FlowReport`] is carried verbatim and its
/// jitter entries are copied through from the current iterate.
///
/// Correctness rests on [`affected_flows`]: a flow outside `active` has no
/// analysis input that can differ from the cached converged run, so both
/// its report and its jitters are already at their (unique, acyclic-case)
/// fixed-point values.  Scoping therefore implies an *acyclic* dependency
/// graph — callers must have checked it (see [`acyclic_affected_flows`]);
/// the engine trusts the scope.
pub(crate) struct Scope<'s> {
    /// Flows to re-analyse every round (the candidate plus everything
    /// reachable from it in the dependency graph, plus any flow whose
    /// cached report was invalidated by an earlier departure).
    pub active: &'s std::collections::BTreeSet<gmf_model::FlowId>,
    /// Converged reports of the inactive flows, shared into every round's
    /// report vector.  Must cover exactly the flows of the context that
    /// are not in `active`.
    pub frozen: &'s std::collections::BTreeMap<gmf_model::FlowId, Arc<FlowReport>>,
}

/// What the engine remembers about one flow's last analysis: its report
/// and its per-stage jitter assignments, both reusable verbatim while the
/// flow's inputs (see [`crate::dense::FlowPlan::input_pairs`]) are
/// unchanged.
struct FlowCache {
    report: Arc<FlowReport>,
    /// Frame-major, stage-minor accumulated jitters (the dense form of
    /// [`crate::pipeline::JitterAssignments`]).
    assignments: Vec<Vec<Time>>,
}

/// How [`evaluate_round`] treats each flow of the context.
#[derive(Clone, Copy, PartialEq)]
enum FlowRole {
    /// Outside the scope: frozen report, jitters copied through.
    Inactive,
    /// In scope, but its input slots are exactly unchanged since its last
    /// analysis: the cached report and assignments are reused without
    /// re-analysing (Jacobi memoization — correct by construction).
    Skipped,
    /// In scope with changed inputs (or no cached analysis): re-analysed.
    Dirty,
}

/// Evaluate `G` at `jitters`: analyse every *dirty* flow of the context's
/// flow set against the given arena, in parallel over `threads` workers,
/// and fold the assignments (fresh or cached) into the next round's arena.
/// Returns the outcome and the number of per-flow analyses actually
/// performed.
///
/// Flows are analysed in flow-index order semantics: results are collected
/// in that order, the next map is folded in that order, and the first
/// erroring flow in that order decides the outcome — so the result is
/// byte-identical to the sequential loop at any thread count.  Skipping is
/// equally invisible: a skipped flow's inputs are *exactly* equal to those
/// of its cached analysis, so re-analysing it would reproduce the cached
/// report and assignments bit for bit — and a skipped flow can never be
/// the round's first error, because its cached analysis succeeded on the
/// same inputs.
fn evaluate_round(
    ctx: &AnalysisContext<'_>,
    jitters: &DenseJitters,
    config: &AnalysisConfig,
    scope: Option<&Scope<'_>>,
    cache: &mut [Option<FlowCache>],
    last_input: Option<&DenseJitters>,
) -> Result<(RoundOutcome, usize), AnalysisError> {
    let plan = ctx.plan();
    let bindings = ctx.flows().bindings();

    let roles: Vec<FlowRole> = bindings
        .iter()
        .enumerate()
        .map(|(index, binding)| {
            if !scope.is_none_or(|s| s.active.contains(&binding.id)) {
                FlowRole::Inactive
            } else if config.skip_unchanged_flows
                && cache[index].is_some()
                && last_input.is_some_and(|previous| {
                    jitters.pairs_equal(plan, previous, &plan.flows[index].input_pairs)
                })
            {
                FlowRole::Skipped
            } else {
                FlowRole::Dirty
            }
        })
        .collect();
    let dirty: Vec<usize> = (0..bindings.len())
        .filter(|&index| roles[index] == FlowRole::Dirty)
        .collect();
    let threads = Threads::new(config.threads);

    // With one worker the results come from a lazy iterator, so the scan
    // below short-circuits on the first erroring flow without analysing the
    // rest of the round (rejecting admission trials hit this every call);
    // with several workers everything is evaluated eagerly up front.  Error
    // precedence is first-in-flow-order either way, so the outcome is
    // byte-identical at any thread count.
    type FlowResult = Result<(Vec<FrameBound>, Vec<Vec<Time>>), AnalysisError>;
    let mut results: Box<dyn Iterator<Item = FlowResult> + '_> = if threads.get() == 1 {
        let mut scratch = KernelScratch::default();
        Box::new(
            dirty
                .iter()
                .map(move |&index| analyze_flow_dense(ctx, jitters, config, index, &mut scratch)),
        )
    } else {
        Box::new(
            par_map_interleaved_with(threads, &dirty, KernelScratch::default, {
                |scratch, _, &index| analyze_flow_dense(ctx, jitters, config, index, scratch)
            })
            .into_iter(),
        )
    };

    let mut analyzed = 0usize;
    let mut reports: Vec<Arc<FlowReport>> = Vec::with_capacity(bindings.len());
    for (index, binding) in bindings.iter().enumerate() {
        match roles[index] {
            FlowRole::Inactive => {
                let frozen = scope
                    // tidy-allow: unwrap invariant: inactive flows only exist under a scope
                    .expect("inactive flows only exist under a scope")
                    .frozen
                    .get(&binding.id)
                    // tidy-allow: unwrap invariant: scoped rounds carry a frozen report for every inactive flow
                    .expect("scoped rounds carry a frozen report for every inactive flow");
                reports.push(Arc::clone(frozen));
            }
            FlowRole::Skipped => {
                let cached = cache[index]
                    .as_ref()
                    // tidy-allow: unwrap invariant: skipped flows have a cached analysis
                    .expect("skipped flows have a cached analysis");
                reports.push(Arc::clone(&cached.report));
            }
            FlowRole::Dirty => {
                // tidy-allow: unwrap invariant: one result per dirty flow
                let result = results.next().expect("one result per dirty flow");
                analyzed += 1;
                match result {
                    Ok((bounds, assignments)) => {
                        let report = Arc::new(FlowReport {
                            flow: binding.id,
                            name: binding.flow.name().to_string(),
                            frames: bounds,
                        });
                        reports.push(Arc::clone(&report));
                        cache[index] = Some(FlowCache {
                            report,
                            assignments,
                        });
                    }
                    Err(err) if err.is_unschedulable() => {
                        return Ok((
                            RoundOutcome::Unschedulable {
                                partial: reports,
                                failure: err.to_string(),
                            },
                            analyzed,
                        ));
                    }
                    Err(err) => return Err(err),
                }
            }
        }
    }
    drop(results);

    let mut next = DenseJitters::initial(plan, ctx.flows());
    for (index, role) in roles.iter().enumerate() {
        let flow_plan = &plan.flows[index];
        match role {
            // Frozen flows' jitters are already at their fixed-point
            // values; carry them through unchanged so the fold below only
            // moves the active components.
            FlowRole::Inactive => {
                for stage in &flow_plan.stages {
                    next.copy_pair_from(plan, jitters, stage.pair);
                }
            }
            // Active flows (fresh or skipped) fold their assignments —
            // a skipped flow's cached assignments are exactly what
            // re-analysing it would have produced.
            FlowRole::Skipped | FlowRole::Dirty => {
                let cached = cache[index]
                    .as_ref()
                    // tidy-allow: unwrap invariant: active flows have a cached analysis after the scan
                    .expect("active flows have a cached analysis after the scan");
                for (frame, frame_assignments) in cached.assignments.iter().enumerate() {
                    for (stage, &jitter) in frame_assignments.iter().enumerate() {
                        next.set(plan, flow_plan.stages[stage].pair, frame, jitter);
                    }
                }
            }
        }
    }
    Ok((RoundOutcome::Evaluated { reports, next }, analyzed))
}

/// Everything one holistic fixed-point run produces: the report, the
/// converged jitter map (for warm-start caching) and the run's cost.
#[derive(Debug, Clone)]
pub struct FixedPointRun {
    /// The analysis report (what [`crate::holistic::analyze`] returns).
    pub report: AnalysisReport,
    /// The converged jitter iterate `x*` — present iff the run converged.
    /// The report's bounds are exactly the evaluation `G(x*)`, so seeding a
    /// later warm-started run with this map reproduces them byte for byte.
    pub jitters: Option<JitterMap>,
    /// Number of per-flow pipeline analyses performed (≈ rounds × flows
    /// analysed per round; fewer when a round aborts early).  This is the
    /// admission-control cost metric the churn experiment tracks.
    pub flow_analyses: usize,
}

/// Run the holistic jitter iteration from the paper's initial map (source
/// jitter on first links, zero elsewhere).
///
/// This is the engine behind [`crate::holistic::analyze`]; analysis
/// callers should use that entry point.  `ctx` must wrap a non-empty flow
/// set.
pub(crate) fn iterate(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
) -> Result<FixedPointRun, AnalysisError> {
    iterate_inner(ctx, config, JitterMap::initial(ctx.flows()), None)
}

/// Run the holistic jitter iteration warm-started from `initial`.
///
/// On an *acyclic* jitter dependency graph (see the module docs) the fixed
/// point is unique and `G^{depth+1}` is a constant map, so the run
/// converges to byte-identical bounds from **any** initial map — a cached
/// converged map of a closely related flow set lands in far fewer rounds
/// than the cold start.  Two caveats the caller owns:
///
/// * on a **cyclic** instance a seed above the least fixed point can latch
///   onto a larger self-consistent solution — warm-start only when
///   the dependency graph is acyclic (the admission controller gates on
///   exactly that and falls back to a cold restart otherwise);
/// * a seed *above* the fixed point (e.g. cached jitters after a flow
///   departure) can make an intermediate busy-period iteration exceed the
///   horizon even though the instance is schedulable — treat a
///   non-converged warm run as "unknown" and restart cold rather than
///   taking its verdict.
pub fn iterate_from(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
) -> Result<FixedPointRun, AnalysisError> {
    iterate_inner(ctx, config, initial, None)
}

/// [`iterate_from`] restricted to a re-verification scope: only
/// `scope.active` flows are re-analysed; the rest keep their frozen
/// converged reports and jitters.  See [`Scope`] for the correctness
/// argument.
pub(crate) fn iterate_scoped(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
    scope: &Scope<'_>,
) -> Result<FixedPointRun, AnalysisError> {
    iterate_inner(ctx, config, initial, Some(scope))
}

fn iterate_inner(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
    scope: Option<&Scope<'_>>,
) -> Result<FixedPointRun, AnalysisError> {
    let plan = ctx.plan();
    let mut x = DenseJitters::from_keyed(plan, ctx.flows(), &initial);
    let mut flow_analyses = 0usize;
    let mut last_reports: Vec<Arc<FlowReport>> = Vec::new();
    let mut trace = ConvergenceTrace::default();
    // Per-flow memo backing the dirty-flow round skipping: each flow's last
    // analysis, valid while its input slots match `last_input` (the arena
    // the memo entries were computed against).
    let mut cache: Vec<Option<FlowCache>> = (0..plan.flows.len()).map(|_| None).collect();
    let mut last_input: Option<DenseJitters> = None;

    for iteration in 1..=config.max_holistic_iterations {
        let (outcome, analyzed) =
            evaluate_round(ctx, &x, config, scope, &mut cache, last_input.as_ref())?;
        flow_analyses += analyzed;
        // After a completed round every cache entry is valid against the
        // arena it just read: refreshed entries were computed at `x`, kept
        // entries had inputs exactly equal to their own reference arena.
        // (When skipping is off the memo is never consulted — skip the
        // per-round arena clone.)
        if config.skip_unchanged_flows {
            last_input = Some(x.clone());
        }

        let (reports, gx) = match outcome {
            RoundOutcome::Evaluated { reports, next } => (reports, next),
            RoundOutcome::Unschedulable { partial, failure } => {
                // The aborted round still counts as an iteration, so it
                // also gets a trace entry (`trace.len() == iterations`
                // always holds); no next map was folded, hence no residual.
                trace.rounds.push(RoundTrace {
                    iteration,
                    residual: Time::ZERO,
                });
                drop(cache);
                return Ok(FixedPointRun {
                    report: AnalysisReport {
                        flows: unwrap_reports(partial),
                        converged: false,
                        iterations: iteration,
                        schedulable: false,
                        failure: Some(failure),
                        trace,
                    },
                    jitters: None,
                    flow_analyses,
                });
            }
        };
        trace.rounds.push(RoundTrace {
            iteration,
            residual: gx.max_abs_diff(&x),
        });

        if gx.approx_eq(&x) {
            let schedulable = reports.iter().all(|r| r.meets_all_deadlines());
            let failure = if schedulable {
                None
            } else {
                let miss = reports
                    .iter()
                    .filter(|r| !r.meets_all_deadlines())
                    .map(|r| r.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ");
                Some(format!("deadline missed by: {miss}"))
            };
            // The reports are exactly the evaluation `G(x)`, so `x` (not
            // `gx`) is the map to cache: re-evaluating `G` at it
            // reproduces them byte for byte.
            let jitters = Some(x.to_keyed(plan));
            drop(cache);
            return Ok(FixedPointRun {
                report: AnalysisReport {
                    flows: unwrap_reports(reports),
                    converged: true,
                    iterations: iteration,
                    schedulable,
                    failure,
                    trace,
                },
                jitters,
                flow_analyses,
            });
        }

        last_reports = reports;
        x = gx;
    }

    // The jitter iteration did not stabilise within the budget.
    drop(cache);
    Ok(FixedPointRun {
        report: AnalysisReport {
            flows: unwrap_reports(last_reports),
            converged: false,
            iterations: config.max_holistic_iterations,
            schedulable: false,
            failure: Some(
                AnalysisError::HolisticNoConvergence {
                    iterations: config.max_holistic_iterations,
                }
                .to_string(),
            ),
            trace,
        },
        jitters: None,
        flow_analyses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holistic::analyze;
    use gmf_model::{paper_figure3_flow, voip_flow, Time, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority};

    fn paper_like_flows() -> (gmf_net::Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
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
    fn trace_records_one_round_per_iteration() {
        let (t, fs) = paper_like_flows();
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(report.converged);
        assert_eq!(report.trace.len(), report.iterations);
        assert!(!report.trace.is_empty());
        // Residuals are recorded and the final round's residual is within
        // the convergence tolerance (≈ zero).
        let last = report.trace.final_residual().unwrap();
        assert!(last.approx_eq(Time::ZERO), "final residual {last}");
        // The first round moves jitter, so its residual is positive.
        assert!(report.trace.rounds[0].residual > Time::ZERO);
    }

    #[test]
    fn parallel_rounds_match_sequential_bytes() {
        let (t, fs) = paper_like_flows();
        let sequential = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                analyze(&t, &fs, &AnalysisConfig::paper().with_threads(threads)).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn unschedulable_outcomes_are_identical_across_engines() {
        // An impossible deadline: partial reports + failure text must match
        // across thread counts and round skipping.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(5.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let base = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(!base.schedulable);
        // The aborted round is still traced: one entry per iteration.
        assert_eq!(base.trace.len(), base.iterations);
        for threads in [1usize, 2, 8] {
            for skip in [false, true] {
                let config = AnalysisConfig::paper()
                    .with_threads(threads)
                    .with_skip_unchanged_flows(skip);
                assert_eq!(base, analyze(&t, &fs, &config).unwrap());
            }
        }
    }

    #[test]
    fn aborted_round_is_traced() {
        use gmf_model::cbr_flow;
        // Three flows that each need ~45% of the 10 Mbit/s access link:
        // the round aborts with an overload error instead of folding a
        // next jitter map, but still counts as a traced iteration.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        for i in 0..3 {
            let f = cbr_flow(
                &format!("bulk{i}"),
                55_000,
                Time::from_millis(100.0),
                Time::from_millis(400.0),
                Time::from_millis(1.0),
            );
            fs.add(f, route.clone(), Priority(4));
        }
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(!report.schedulable);
        assert!(!report.converged);
        assert!(report.failure.as_ref().unwrap().contains("overloaded"));
        assert_eq!(report.trace.len(), report.iterations);
        assert_eq!(report.iterations, 1);
        // Parallel rounds abort identically.
        let parallel = analyze(&t, &fs, &AnalysisConfig::paper().with_threads(4)).unwrap();
        assert_eq!(report, parallel);
    }
}
