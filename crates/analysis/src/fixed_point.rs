//! Holistic (jitter fixed-point) analysis of a whole flow set — the paper's
//! Section "Putting it all together" — and the engine that iterates it.
//!
//! The per-resource analyses need the generalized jitter of every
//! *interfering* flow at every resource, but those jitters are themselves
//! response times computed by the same analysis.  Following Tindell &
//! Clark's holistic approach, the paper resolves the circularity by
//! iteration:
//!
//! 1. assume the specified jitter at every flow's source and zero jitter at
//!    every downstream resource;
//! 2. analyse every frame of every flow with the Figure 6 pipeline,
//!    recording the jitter each frame accumulates at each resource;
//! 3. if the recorded jitters differ from the assumed ones, repeat with the
//!    new values.
//!
//! That is the Picard scheme `x_{k+1} = G(x_k)` for the map
//! `G : JitterMap → JitterMap` that analyses every flow against the
//! previous round's jitters, run until `G(x) == x` exactly.  [`analyze`] is the
//! public entry point; it reports overload and horizon excess as an
//! unschedulable flow set, not as an error.
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
//! **One thread per run.**  Within one round every flow is analysed
//! against the *same* immutable previous-round map (Jacobi-style), in
//! flow-index order on the caller's thread with one kernel scratch arena
//! for the whole run.  A round is far too short to pay for a fork-join, so
//! parallelism lives one level up, where the units are independent:
//! shard preloads and sweep points.  A flow whose input
//! slots are exactly unchanged since its last analysis is not re-analysed
//! at all (`AnalysisConfig::skip_unchanged_flows`); its responses from
//! that analysis are reused.
//!
//! **One response buffer, reports once.**  A round writes each analysed
//! flow's frame × stage responses into one flat buffer laid out like the
//! jitter arena; that buffer is also the skip memo.  The fold rebuilds the
//! next iterate from it (each stage's entering jitter is the source
//! jitter plus the responses before it), into an arena reused across
//! rounds.  [`FlowReport`]s are built once, when the run ends: on
//! convergence, on an unschedulable round (the flows before the failing
//! one), or from the last round when the budget runs out.
//!
//! **Warm starts and incremental re-verification.**  [`iterate_from`]
//! seeds the iteration with an arbitrary [`JitterMap`] instead of the
//! paper's initial map.  On acyclic instances the fixed point is unique
//! and `G^{depth+1}` is a constant map, so a seed taken from the converged
//! map of a closely related flow set (the previous admission decision)
//! lands on byte-identical bounds in far fewer rounds.  On top of that,
//! [`crate::deps::affected_flows`] computes which flows a candidate can
//! influence at all — everything unreachable from it in the dependency
//! graph keeps its cached converged [`FlowReport`] verbatim and is never
//! re-analysed (the crate-private `Scope`).
//! [`crate::admission::AdmissionController`] combines both into its
//! incremental admission engine, with a cold restart whenever the
//! dependency graph is cyclic or a warm run fails to converge.
//! Internally every run starts from and ends in the dense jitter arena;
//! only the public [`iterate_from`] converts from and to the keyed
//! [`JitterMap`].

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, JitterMap};
use crate::dense::DenseJitters;
use crate::error::AnalysisError;
use crate::kernel::KernelScratch;
use crate::pipeline::analyze_flow_dense;
use crate::report::{AnalysisReport, FlowReport, FrameBound, HopBound};
use gmf_model::Time;
use gmf_net::{FlowSet, Topology};
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

/// A dependency-derived re-verification scope for an incremental
/// (warm-started) run: only active flows are re-analysed each round;
/// every frozen flow's converged [`FlowReport`] is carried verbatim and
/// its jitter entries are copied through from the current iterate.
///
/// Correctness rests on [`crate::deps::affected_flows`]: a flow outside
/// the affected set has no analysis input that can differ from the cached
/// converged run, so both its report and its jitters are already at their
/// (unique, acyclic-case) fixed-point values.  Scoping therefore implies
/// an *acyclic* dependency graph — callers must have checked it (see
/// `DependencyScope::is_acyclic`); the engine trusts the scope.
pub(crate) struct Scope<'s> {
    /// Per flow index of the context: the converged report of a frozen
    /// flow, shared with the caller's cache and copied into the run's
    /// report once at the end, or `None` for a flow to re-analyse every
    /// round (the candidate, everything reachable from it in the
    /// dependency graph, and any flow whose cached report an earlier
    /// departure invalidated).
    pub frozen: &'s [Option<Arc<FlowReport>>],
}

/// What one run carries from round to round, allocated once per run.
struct RoundState {
    /// Flow index → `true` while its slice of `responses` holds a
    /// successful analysis whose inputs were the last round's iterate.
    cached: Vec<bool>,
    /// Every active flow's stage responses, laid out like the jitter
    /// arena: flow index `i` owns [`crate::dense::DensePlan::flow_range`]
    /// of it, stage-major.  A skipped flow's slice is its memo; the
    /// reports are built from this buffer once, when the run ends.
    responses: Vec<Time>,
    scratch: KernelScratch,
    /// Per-flow pipeline analyses performed so far.
    flow_analyses: usize,
}

/// Evaluate `G` at `jitters` into `next`, in flow-index order: a frozen
/// flow (outside the scope) has its jitters copied through, a flow whose
/// input slots exactly equal those of its cached analysis keeps its
/// responses, and every other flow is re-analysed; then each active flow
/// folds its responses into `next`.
///
/// Returns the index of the first flow that could not be bounded
/// (overload / horizon excess) and why, and stops the round there
/// (rejecting admission trials hit this every call).  Skipping is
/// invisible: re-analysing a skipped flow would reproduce its responses
/// bit for bit, and it can never be the round's first error, because its
/// cached analysis succeeded on the same inputs (Jacobi memoization).
fn evaluate_round(
    ctx: &AnalysisContext<'_>,
    jitters: &DenseJitters,
    config: &AnalysisConfig,
    scope: Option<&Scope<'_>>,
    state: &mut RoundState,
    last_input: Option<&DenseJitters>,
    next: &mut DenseJitters,
) -> Result<Option<(usize, String)>, AnalysisError> {
    let plan = ctx.plan();
    for (index, binding) in ctx.flows().bindings().iter().enumerate() {
        if scope.is_some_and(|s| s.frozen[index].is_some()) {
            // Frozen jitters are already at their fixed-point values.
            next.load_flow(plan, index, jitters.flow_slots(plan, index));
            continue;
        }
        let range = plan.flow_range(index);
        let skip = config.skip_unchanged_flows
            && state.cached[index]
            && last_input.is_some_and(|previous| {
                jitters.pairs_equal(plan, previous, &plan.flows[index].input_pairs)
            });
        if !skip {
            state.flow_analyses += 1;
            let responses = &mut state.responses[range.clone()];
            match analyze_flow_dense(ctx, jitters, config, index, &mut state.scratch, responses) {
                Ok(()) => state.cached[index] = true,
                Err(err) if err.is_unschedulable() => {
                    state.cached[index] = false;
                    return Ok(Some((index, err.to_string())));
                }
                Err(err) => return Err(err),
            }
        }
        next.fold_flow(plan, index, binding, &state.responses[range]);
    }
    Ok(None)
}

/// The reports of the first `end` flows in flow order: a frozen flow's
/// is copied out of the scope, every other flow's is built from its
/// responses — the only place the engine builds a [`FlowReport`].
fn reports(
    ctx: &AnalysisContext<'_>,
    scope: Option<&Scope<'_>>,
    responses: &[Time],
    end: usize,
) -> Vec<FlowReport> {
    let plan = ctx.plan();
    let bindings = ctx.flows().bindings();
    (0..end)
        .map(|index| {
            if let Some(frozen) = scope.and_then(|s| s.frozen[index].as_ref()) {
                return FlowReport::clone(frozen);
            }
            let flow_plan = &plan.flows[index];
            let binding = &bindings[index];
            let n_frames = flow_plan.n_frames;
            let responses = &responses[plan.flow_range(index)];
            let frames = binding
                .flow
                .frames()
                .iter()
                .enumerate()
                .map(|(frame, spec)| {
                    let hops: Vec<HopBound> = flow_plan
                        .stages
                        .iter()
                        .enumerate()
                        .map(|(stage, plan)| HopBound {
                            resource: plan.resource,
                            stage: plan.stage,
                            response: responses[stage * n_frames + frame],
                        })
                        .collect();
                    // Figure 6: RSUM starts at the source jitter and adds
                    // every stage's response in walk order.
                    let bound = hops
                        .iter()
                        .fold(spec.jitter, |rsum, hop| rsum + hop.response);
                    FrameBound {
                        flow: flow_plan.id,
                        frame,
                        source_jitter: spec.jitter,
                        bound,
                        deadline: spec.deadline,
                        hops,
                    }
                })
                .collect();
            FlowReport {
                flow: binding.id,
                name: binding.flow.name().to_string(),
                frames,
            }
        })
        .collect()
}

/// What one public holistic fixed-point run produces: the report and the
/// run's cost.
#[derive(Debug, Clone)]
pub struct FixedPointRun {
    /// The analysis report (what [`analyze`] returns).
    pub report: AnalysisReport,
    /// Number of per-flow pipeline analyses performed (≈ rounds × flows
    /// analysed per round; fewer when a round aborts early).  This is the
    /// admission-control cost metric the churn experiment tracks.
    pub flow_analyses: usize,
}

/// [`FixedPointRun`] plus the converged iterate in the engine's dense
/// arena form — what the admission plane caches flow by flow.
pub(crate) struct DenseRun {
    /// The analysis report.
    pub report: AnalysisReport,
    /// The converged iterate `x*` — present iff the run converged.  The
    /// report's bounds are exactly the evaluation `G(x*)`, so seeding a
    /// later warm-started run with it reproduces them byte for byte.
    pub jitters: Option<DenseJitters>,
    /// Number of per-flow pipeline analyses performed.
    pub flow_analyses: usize,
}

/// Run the holistic analysis of `flows` on `topology`.
///
/// Returns a report for *every* outcome that is a property of the flow set
/// (schedulable, unschedulable because of overload, non-convergence);
/// returns an error only for structural problems such as a route that does
/// not match the topology.
pub fn analyze(
    topology: &Topology,
    flows: &FlowSet,
    config: &AnalysisConfig,
) -> Result<AnalysisReport, AnalysisError> {
    let ctx = AnalysisContext::new(topology, flows)?;

    if flows.is_empty() {
        return Ok(AnalysisReport {
            flows: Vec::new(),
            converged: true,
            iterations: 0,
            schedulable: true,
            failure: None,
            trace: ConvergenceTrace::default(),
        });
    }

    iterate(&ctx, config).map(|run| run.report)
}

/// Run the holistic jitter iteration from the paper's initial map (source
/// jitter on first links, zero elsewhere).
///
/// This is the engine behind [`analyze`]; analysis callers should use that
/// entry point.  `ctx` must wrap a non-empty flow set.
pub(crate) fn iterate(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
) -> Result<DenseRun, AnalysisError> {
    run(
        ctx,
        config,
        DenseJitters::initial(ctx.plan(), ctx.flows()),
        None,
    )
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
    let seed = DenseJitters::from_keyed(ctx.plan(), ctx.flows(), &initial);
    let DenseRun {
        report,
        flow_analyses,
        ..
    } = run(ctx, config, seed, None)?;
    Ok(FixedPointRun {
        report,
        flow_analyses,
    })
}

/// The engine: Picard rounds from the dense iterate `x`, re-analysing
/// only the flows a `scope` leaves active (see [`Scope`] for the
/// correctness argument; `None` re-analyses every flow).
pub(crate) fn run(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    mut x: DenseJitters,
    scope: Option<&Scope<'_>>,
) -> Result<DenseRun, AnalysisError> {
    let plan = ctx.plan();
    let n_flows = plan.flows.len();
    let mut trace = ConvergenceTrace::default();
    let mut state = RoundState {
        cached: vec![false; n_flows],
        responses: vec![Time::ZERO; plan.arena_len],
        scratch: KernelScratch::default(),
        flow_analyses: 0,
    };
    // The fold overwrites every slot, so any arena of the plan's shape
    // serves as the fold target.  With skipping on, the arena a round read
    // is kept as `last_input` (what the skip test compares against) and
    // the one it replaces becomes the next fold target: three arenas per
    // run, none per round.
    let mut next = DenseJitters::zeroed(plan);
    let mut last_input: Option<DenseJitters> = None;

    for iteration in 1..=config.max_holistic_iterations {
        let aborted = evaluate_round(
            ctx,
            &x,
            config,
            scope,
            &mut state,
            last_input.as_ref(),
            &mut next,
        )?;
        if let Some((failed, failure)) = aborted {
            // The aborted round still counts as an iteration, so it also
            // gets a trace entry (`trace.len() == iterations` always
            // holds); no next map was folded, hence no residual.
            trace.rounds.push(RoundTrace {
                iteration,
                residual: Time::ZERO,
            });
            return Ok(DenseRun {
                report: AnalysisReport {
                    flows: reports(ctx, scope, &state.responses, failed),
                    converged: false,
                    iterations: iteration,
                    schedulable: false,
                    failure: Some(failure),
                    trace,
                },
                jitters: None,
                flow_analyses: state.flow_analyses,
            });
        }
        let residual = next.max_abs_diff(&x);
        trace.rounds.push(RoundTrace {
            iteration,
            residual,
        });

        if residual.is_zero() {
            let flows = reports(ctx, scope, &state.responses, n_flows);
            let schedulable = flows.iter().all(|r| r.meets_all_deadlines());
            let failure = if schedulable {
                None
            } else {
                let miss = flows
                    .iter()
                    .filter(|r| !r.meets_all_deadlines())
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ");
                Some(format!("deadline missed by: {miss}"))
            };
            // The reports are exactly the evaluation `G(x)`, so `x` (not
            // `next`) is the map to cache: re-evaluating `G` at it
            // reproduces them byte for byte.
            return Ok(DenseRun {
                report: AnalysisReport {
                    flows,
                    converged: true,
                    iterations: iteration,
                    schedulable,
                    failure,
                    trace,
                },
                jitters: Some(x),
                flow_analyses: state.flow_analyses,
            });
        }

        // After a completed round every cached response is valid against
        // the arena it just read: refreshed ones were computed at `x`,
        // kept ones had inputs exactly equal to their own reference arena.
        std::mem::swap(&mut x, &mut next);
        if config.skip_unchanged_flows {
            let previous = last_input.get_or_insert_with(|| DenseJitters::zeroed(plan));
            std::mem::swap(previous, &mut next);
        }
    }

    // The jitter iteration did not stabilise within the budget: report
    // the last round's evaluation.
    let flows = if trace.is_empty() {
        Vec::new()
    } else {
        reports(ctx, scope, &state.responses, n_flows)
    };
    Ok(DenseRun {
        report: AnalysisReport {
            flows,
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
        flow_analyses: state.flow_analyses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow, voip_flow, FlowId, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, Priority};

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
        // Residuals are recorded and the final round's residual is zero.
        let last = report.trace.final_residual().unwrap();
        assert_eq!(last, Time::ZERO);
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
        // The thread count is invisible: the round aborts identically.
        let parallel = analyze(&t, &fs, &AnalysisConfig::paper().with_threads(4)).unwrap();
        assert_eq!(report, parallel);
    }

    /// The paper scenario: Figure 3 video from host 0 to host 3, a voice
    /// call from host 1 to host 3, and a voice call from host 2 to host 0
    /// (crossing the backbone in the other direction).
    fn paper_scenario() -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice1 = voip_flow(
            "voice-1-3",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice1,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let voice2 = voip_flow(
            "voice-2-0",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice2,
            shortest_path(&t, net.hosts[2], net.hosts[0]).unwrap(),
            Priority(7),
        );
        (t, fs)
    }

    #[test]
    fn empty_flow_set_is_trivially_schedulable() {
        let (t, _) = paper_figure1();
        let report = analyze(&t, &FlowSet::new(), &AnalysisConfig::paper()).unwrap();
        assert!(report.schedulable);
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.n_frame_bounds(), 0);
    }

    #[test]
    fn paper_scenario_is_schedulable_and_converges() {
        let (t, fs) = paper_scenario();
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(report.converged, "holistic iteration must converge");
        assert!(report.schedulable, "report: {report}");
        assert!(
            report.iterations >= 2,
            "jitter propagation needs at least two rounds"
        );
        assert_eq!(report.flows.len(), 3);
        assert_eq!(report.n_frame_bounds(), 9 + 1 + 1);
        // The video flow's worst frame is the I+P frame.
        let video = report.flow(FlowId(0)).unwrap();
        assert_eq!(video.worst_bound().unwrap(), video.frames[0].bound);
        // Voice keeps single-digit-millisecond bounds across three hops.
        let voice = report.flow(FlowId(1)).unwrap();
        assert!(voice.worst_bound().unwrap() < Time::from_millis(10.0));
    }

    #[test]
    fn holistic_bounds_dominate_first_round_bounds() {
        // Jitter propagation can only increase bounds, so the converged
        // bounds must dominate a single-round analysis with source jitters
        // only (a one-round run that does not converge reports its round-1
        // evaluation).
        let (t, fs) = paper_scenario();
        let config = AnalysisConfig::paper();
        let first_round = analyze(&t, &fs, &config.with_max_holistic_iterations(1)).unwrap();
        let report = analyze(&t, &fs, &config).unwrap();
        for binding in fs.bindings() {
            let round1 = &first_round.flow(binding.id).unwrap().frames;
            let converged = &report.flow(binding.id).unwrap().frames;
            for (a, b) in round1.iter().zip(converged) {
                assert!(
                    b.bound >= a.bound,
                    "converged bound {} must dominate first-round bound {}",
                    b.bound,
                    a.bound
                );
            }
        }
    }

    #[test]
    fn tight_deadlines_are_reported_as_missed() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        // A video flow whose 5 ms deadline cannot be met across two
        // 10 Mbit/s access links (a single I+P frame takes ~36 ms to
        // serialise on each).
        let video = paper_figure3_flow("video", Time::from_millis(5.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(report.converged);
        assert!(!report.schedulable);
        assert!(report.failure.as_ref().unwrap().contains("video"));
    }

    #[test]
    fn overload_reports_unschedulable_not_error() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        // Three flows that each need ~45% of the 10 Mbit/s access link.
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
        assert!(report.failure.as_ref().unwrap().contains("overloaded"));
    }

    #[test]
    fn conservative_configuration_dominates_paper_configuration() {
        let (t, fs) = paper_scenario();
        let paper = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        let conservative = analyze(&t, &fs, &AnalysisConfig::conservative()).unwrap();
        assert!(paper.converged && conservative.converged);
        for binding in fs.bindings() {
            let a = paper.flow(binding.id).unwrap().worst_bound().unwrap();
            let b = conservative
                .flow(binding.id)
                .unwrap()
                .worst_bound()
                .unwrap();
            assert!(b >= a);
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let (t, fs) = paper_scenario();
        let r1 = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        let r2 = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert_eq!(r1, r2);
    }
}
