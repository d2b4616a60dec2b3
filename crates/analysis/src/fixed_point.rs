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
//! admission lanes, shard preloads and sweep points.  A flow whose input
//! slots are exactly unchanged since its last analysis is not re-analysed
//! at all (`AnalysisConfig::skip_unchanged_flows`); its cached report is
//! reused.
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
use crate::report::{AnalysisReport, FlowReport};
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
    /// flow, shared into every round's report vector, or `None` for a
    /// flow to re-analyse every round (the candidate, everything
    /// reachable from it in the dependency graph, and any flow whose
    /// cached report an earlier departure invalidated).
    pub frozen: &'s [Option<Arc<FlowReport>>],
}

/// What the engine remembers about one flow's last analysis: its report
/// and its per-stage jitter assignments, both reusable verbatim while the
/// flow's inputs (see [`crate::dense::FlowPlan::input_pairs`]) are
/// unchanged.
struct FlowCache {
    report: Arc<FlowReport>,
    /// Frame-major, stage-minor accumulated jitters (the dense form of
    /// the keyed `JitterAssignments` of the `gmf_bench::oracle` walk).
    assignments: Vec<Vec<Time>>,
}

/// How [`evaluate_round`] treats each flow of the context.
#[derive(Clone, Copy)]
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
/// flow set against the given arena, in flow-index order, and fold the
/// assignments (fresh or cached) into the next round's arena.  Returns the
/// outcome and the number of per-flow analyses actually performed.
///
/// The first erroring flow in flow order decides the outcome, and the scan
/// stops there without analysing the rest of the round (rejecting
/// admission trials hit this every call).  Skipping is invisible: a
/// skipped flow's inputs are *exactly* equal to those of its cached
/// analysis, so re-analysing it would reproduce the cached report and
/// assignments bit for bit — and a skipped flow can never be the round's
/// first error, because its cached analysis succeeded on the same inputs.
fn evaluate_round(
    ctx: &AnalysisContext<'_>,
    jitters: &DenseJitters,
    config: &AnalysisConfig,
    scope: Option<&Scope<'_>>,
    cache: &mut [Option<FlowCache>],
    last_input: Option<&DenseJitters>,
    scratch: &mut KernelScratch,
) -> Result<(RoundOutcome, usize), AnalysisError> {
    let plan = ctx.plan();
    let bindings = ctx.flows().bindings();

    let roles: Vec<FlowRole> = (0..bindings.len())
        .map(|index| {
            if scope.is_some_and(|s| s.frozen[index].is_some()) {
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

    let mut analyzed = 0usize;
    let mut reports: Vec<Arc<FlowReport>> = Vec::with_capacity(bindings.len());
    for (index, binding) in bindings.iter().enumerate() {
        match roles[index] {
            FlowRole::Inactive => {
                let frozen = scope
                    .and_then(|s| s.frozen[index].as_ref())
                    // tidy-allow: unwrap invariant: inactive flows are exactly the frozen ones of a scope
                    .expect("inactive flows are exactly the frozen ones of a scope");
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
                analyzed += 1;
                match analyze_flow_dense(ctx, jitters, config, index, scratch) {
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
    let mut flow_analyses = 0usize;
    let mut last_reports: Vec<Arc<FlowReport>> = Vec::new();
    let mut trace = ConvergenceTrace::default();
    // Per-flow memo backing the dirty-flow round skipping: each flow's last
    // analysis, valid while its input slots match `last_input` (the arena
    // the memo entries were computed against).
    let mut cache: Vec<Option<FlowCache>> = (0..plan.flows.len()).map(|_| None).collect();
    let mut last_input: Option<DenseJitters> = None;
    let mut scratch = KernelScratch::default();

    for iteration in 1..=config.max_holistic_iterations {
        let (outcome, analyzed) = evaluate_round(
            ctx,
            &x,
            config,
            scope,
            &mut cache,
            last_input.as_ref(),
            &mut scratch,
        )?;
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
                return Ok(DenseRun {
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
        let residual = gx.max_abs_diff(&x);
        trace.rounds.push(RoundTrace {
            iteration,
            residual,
        });

        if residual.is_zero() {
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
            drop(cache);
            return Ok(DenseRun {
                report: AnalysisReport {
                    flows: unwrap_reports(reports),
                    converged: true,
                    iterations: iteration,
                    schedulable,
                    failure,
                    trace,
                },
                jitters: Some(x),
                flow_analyses,
            });
        }

        last_reports = reports;
        x = gx;
    }

    // The jitter iteration did not stabilise within the budget.
    drop(cache);
    Ok(DenseRun {
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
