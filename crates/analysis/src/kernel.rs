//! Branchless table-walk fixed points — the per-frame kernels of the
//! dense engine.
//!
//! The stage recurrences ((15), (17), (22), (24), (29), (31)) all have the
//! shape `x = base ⊕ Σ_j g(x + extra_j)` where `g` is a request bound of
//! one interferer.  The keyed engine (`gmf_bench::oracle`) evaluates them
//! through [`crate::busy_period::fixed_point`] with a closure per call
//! site; the closures capture `Vec`s of `(demand, extra)` pairs and
//! re-derive the `O(n³)` closed-form `MX`/`NX` on every iteration.  This
//! module is the production replacement: the three [`StageSolver`]
//! recurrences drive the same [`fixed_point`] loop over flat slices of
//! resolved [`Term`]s and the context's precompiled [`DemandTable`]s — no
//! allocation, only saturating integer ops and one binary search per table
//! lookup — and turn its outcome into the stage's result in one place.
//!
//! Identity with the keyed path follows from exactness: the table lookups
//! equal the closed forms, and integer `Time` addition is associative, so
//! the order in which the interference terms are summed cannot change a
//! bound.
//!
//! All scratch storage lives in one [`KernelScratch`] arena owned by the
//! fixed-point run and reset per flow, so the per-frame path performs no
//! heap allocation at all.

use crate::busy_period::{fixed_point, FixedPointOutcome, MAX_FIXED_POINT_ITERATIONS};
use crate::context::ResourceId;
use crate::dense::{DenseJitters, StagePlan, TermSpec};
use crate::error::{AnalysisError, StageKind};
use crate::index::ux;
use gmf_model::{DemandTable, FlowId, Time};

/// One resolved interference term: a demand table plus the constant
/// window widening (`extra_j`, and at the first hop the blocking
/// refinement) added to the iterate before every lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Term {
    /// Index into the context's demand-table interner.
    pub table: u32,
    /// Constant widening added to the iterate before each table lookup.
    pub extra: Time,
}

/// Reusable scratch arena for the per-frame kernels: resolved interference
/// terms, the `w(q)` instance tables and the stage states of the flow
/// under analysis.
///
/// One arena lives for the whole fixed-point run (every round, every
/// flow), is [`reset`](KernelScratch::reset) at the start of every flow,
/// and only ever grows to the high-water mark of a single flow's stages —
/// after warm-up the per-frame path allocates nothing.  Stage states address it through plain `Range<usize>` handles,
/// which keeps the stages `Vec`-free and the borrows disjoint.
#[derive(Default)]
pub(crate) struct KernelScratch {
    /// Resolved interference terms, addressed by stage-held ranges.
    pub(crate) terms: Vec<Term>,
    /// `w(q)` instance tables of ingress/egress stages, addressed by
    /// stage-held ranges.
    pub(crate) w: Vec<Time>,
    /// The first-hop stage's lazily extended `w(q)` memo (one first-hop
    /// stage per flow, so one memo suffices).
    pub(crate) first_hop_w: Vec<Time>,
    /// The stage states of the flow under analysis, in walk order.
    pub(crate) stages: Vec<crate::pipeline::StageState>,
}

impl KernelScratch {
    /// Drop all flow-scoped contents, keeping the capacity for the next
    /// flow.
    pub(crate) fn reset(&mut self) {
        self.terms.clear();
        self.w.clear();
        self.first_hop_w.clear();
        self.stages.clear();
    }

    /// Resolve `specs` against the round's jitter iterate into the term
    /// arena and return the range the stage will walk.
    ///
    /// With `add_blocking`, each term's static `blocking_c` widening is
    /// folded into `extra` (the first-hop blocking refinement).  The plan
    /// stores `blocking_c == 0` for the flow's own term, so the
    /// unconditional add reproduces the keyed `is_self` branch exactly.
    pub(crate) fn resolve_terms(
        &mut self,
        specs: &[TermSpec],
        jitters: &DenseJitters,
        add_blocking: bool,
    ) -> std::ops::Range<usize> {
        let start = self.terms.len();
        if add_blocking {
            self.terms.extend(specs.iter().map(|s| Term {
                table: s.table,
                extra: jitters.max_jitter(s.pair) + s.blocking_c,
            }));
        } else {
            self.terms.extend(specs.iter().map(|s| Term {
                table: s.table,
                extra: jitters.max_jitter(s.pair),
            }));
        }
        start..self.terms.len()
    }
}

/// The one fallible solve of the dense stages: the `(stage, flow,
/// resource)` triple a stage state's fixed points run for and the horizon
/// they diverge at.
///
/// [`StageSolver::new`] runs the stage's overload check, so building the
/// solver first keeps every stage's error precedence: overload before any
/// fixed point.  The three recurrences below map a diverged or exhausted
/// iteration to the stage's [`AnalysisError::HorizonExceeded`] or
/// [`AnalysisError::NoConvergence`], formatting the resource only on that
/// error path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageSolver {
    stage: StageKind,
    flow: FlowId,
    resource: ResourceId,
    horizon: Time,
}

impl StageSolver {
    /// The solver of `stage` for `flow`, or the stage's overload error:
    /// the long-run demand of paper conditions (20) and (34), and of the
    /// ingress analogue, must stay below the resource's capacity.
    pub(crate) fn new(
        stage: &StagePlan,
        flow: FlowId,
        horizon: Time,
    ) -> Result<StageSolver, AnalysisError> {
        if stage.utilization >= 1.0 {
            return Err(AnalysisError::Overload {
                stage: stage.stage,
                flow,
                utilization: stage.utilization,
                resource: stage.resource.to_string(),
            });
        }
        Ok(StageSolver {
            stage: stage.stage,
            flow,
            resource: stage.resource,
            horizon,
        })
    }

    /// Least fixed point of `x = base + Σ_j MX_j(x + extra_j)` — the
    /// first-hop busy period (eq. 15, `base` zero) and queueing time
    /// (eq. 17, `base` the instance's own backlog) recurrences.
    pub(crate) fn sum_mx(
        &self,
        tables: &[DemandTable],
        terms: &[Term],
        base: Time,
        seed: Time,
    ) -> Result<Time, AnalysisError> {
        self.solve(seed, |current| {
            terms.iter().fold(base, |next, term| {
                next + tables[ux(term.table)].mx(current + term.extra)
            })
        })
    }

    /// Least fixed point of `x = base + CIRC · Σ_j NX_j(x + extra_j)` with
    /// the round count accumulated in saturating `u64` — the switch-ingress
    /// busy period (eq. 22, `base` zero) and queueing time (eq. 24, `base`
    /// the instance's own rounds) recurrences.
    pub(crate) fn sum_nx(
        &self,
        tables: &[DemandTable],
        terms: &[Term],
        circ: Time,
        base: Time,
        seed: Time,
    ) -> Result<Time, AnalysisError> {
        self.solve(seed, |current| {
            let rounds = terms.iter().fold(0u64, |rounds, term| {
                rounds.saturating_add(tables[ux(term.table)].nx(current + term.extra))
            });
            base + circ * rounds
        })
    }

    /// Least fixed point of
    /// `x = base + Σ_j (MX_j(x + extra_j) + CIRC · NX_j(x + extra_j))` —
    /// the egress busy period and queueing recurrences (eqs. 29, 31).
    pub(crate) fn mx_nx(
        &self,
        tables: &[DemandTable],
        terms: &[Term],
        circ: Time,
        base: Time,
        seed: Time,
    ) -> Result<Time, AnalysisError> {
        self.solve(seed, |current| {
            terms.iter().fold(base, |next, term| {
                let d = &tables[ux(term.table)];
                let window = current + term.extra;
                next + d.mx(window) + circ * d.nx(window)
            })
        })
    }

    fn solve(&self, seed: Time, f: impl FnMut(Time) -> Time) -> Result<Time, AnalysisError> {
        self.settle(fixed_point(
            seed,
            self.horizon,
            MAX_FIXED_POINT_ITERATIONS,
            f,
        ))
    }

    /// The single mapping from a fixed-point outcome to the stage's result.
    fn settle(&self, outcome: FixedPointOutcome) -> Result<Time, AnalysisError> {
        match outcome {
            FixedPointOutcome::Converged(t) => Ok(t),
            FixedPointOutcome::ExceededHorizon { .. } => Err(AnalysisError::HorizonExceeded {
                stage: self.stage,
                flow: self.flow,
                horizon: self.horizon,
                resource: self.resource.to_string(),
            }),
            FixedPointOutcome::IterationBudgetExhausted { .. } => {
                Err(AnalysisError::NoConvergence {
                    stage: self.stage,
                    flow: self.flow,
                    iterations: MAX_FIXED_POINT_ITERATIONS,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{
        paper_figure3_flow, voip_flow, BitRate, EncapsulationConfig, LinkDemand, VoiceCodec,
    };

    fn tables() -> Vec<DemandTable> {
        let config = EncapsulationConfig::paper();
        let rate = BitRate::from_mbps(10.0);
        let video = paper_figure3_flow("v", Time::from_millis(150.0), Time::from_millis(1.0));
        let voice = voip_flow(
            "a",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_micros(500.0),
        );
        vec![
            DemandTable::new(&LinkDemand::new(&video, &config, rate)),
            DemandTable::new(&LinkDemand::new(&voice, &config, rate)),
        ]
    }

    fn terms() -> Vec<Term> {
        vec![
            Term {
                table: 0,
                extra: Time::from_millis(1.0),
            },
            Term {
                table: 1,
                extra: Time::from_micros(250.0),
            },
        ]
    }

    fn solver(horizon: Time) -> StageSolver {
        StageSolver {
            stage: StageKind::EgressLink,
            flow: FlowId(3),
            resource: ResourceId::Link {
                from: gmf_net::NodeId(4),
                to: gmf_net::NodeId(6),
            },
            horizon,
        }
    }

    /// Each solver must agree bit-for-bit with `fixed_point` driven by the
    /// equivalent closure over the same tables.
    #[test]
    fn solvers_match_closure_driven_fixed_point() {
        let tables = tables();
        let terms = terms();
        let horizon = Time::from_secs(10.0);
        let solver = solver(horizon);
        let base = Time::from_millis(2.0);
        let circ = Time::from_micros(120.0);
        let converged = |outcome: FixedPointOutcome| Ok(outcome.converged().unwrap());

        let expected = fixed_point(base, horizon, 10_000, |t| {
            let mut total = base;
            for term in &terms {
                total += tables[ux(term.table)].mx(t + term.extra);
            }
            total
        });
        assert_eq!(
            solver.sum_mx(&tables, &terms, base, base),
            converged(expected)
        );

        let expected = fixed_point(base, horizon, 10_000, |t| {
            let mut rounds: u64 = 0;
            for term in &terms {
                rounds = rounds.saturating_add(tables[ux(term.table)].nx(t + term.extra));
            }
            base + circ * rounds
        });
        assert_eq!(
            solver.sum_nx(&tables, &terms, circ, base, base),
            converged(expected)
        );

        let expected = fixed_point(base, horizon, 10_000, |t| {
            let mut total = Time::ZERO;
            for term in &terms {
                let d = &tables[ux(term.table)];
                let window = t + term.extra;
                total = total + d.mx(window) + circ * d.nx(window);
            }
            base + total
        });
        assert_eq!(
            solver.mx_nx(&tables, &terms, circ, base, base),
            converged(expected)
        );
    }

    /// A diverged or exhausted iteration becomes the stage's error, naming
    /// the stage, flow, resource and horizon or budget.
    #[test]
    fn solvers_report_divergence_like_fixed_point() {
        let tables = tables();
        let terms = terms();
        let base = Time::from_millis(2.0);
        // A horizon below the seed diverges immediately.
        let solver = solver(Time::from_micros(1.0));
        let err = solver.sum_mx(&tables, &terms, base, base).unwrap_err();
        assert_eq!(
            err.to_string(),
            "egress link analysis of flow3: busy period on link(4,6) exceeded the horizon \
             1.000 µs"
        );
        let err = solver
            .settle(FixedPointOutcome::IterationBudgetExhausted { last: base })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "egress link analysis of flow3: no convergence after 100000 iterations"
        );
    }

    /// The scratch arena reuses capacity across resets and resolves term
    /// ranges in id order.
    #[test]
    fn scratch_reset_keeps_capacity() {
        let mut scratch = KernelScratch::default();
        scratch.w.push(Time::ZERO);
        scratch.first_hop_w.push(Time::ZERO);
        scratch.terms.extend(terms());
        let cap = scratch.terms.capacity();
        scratch.reset();
        assert!(scratch.terms.is_empty());
        assert!(scratch.w.is_empty());
        assert!(scratch.first_hop_w.is_empty());
        assert_eq!(scratch.terms.capacity(), cap);
    }
}
