//! Branchless table-walk fixed points — the per-frame kernels of the
//! dense engine.
//!
//! The stage recurrences ((15), (17), (22), (24), (29), (31)) all have the
//! shape `x = base ⊕ Σ_j g(x + extra_j)` where `g` is a request bound of
//! one interferer.  The keyed engine evaluates them through
//! [`crate::busy_period::fixed_point`] with a closure per call site; the
//! closures capture `Vec`s of `(demand, extra)` pairs and re-derive the
//! `O(n³)` closed-form `MX`/`NX` on every iteration.  This module is the
//! production replacement: the three solvers below walk flat slices of
//! resolved [`Term`]s against the context's precompiled
//! [`DemandTable`]s — no closure dispatch, no allocation, only saturating
//! ops and one binary search per table lookup.
//!
//! Byte-identity with the keyed path is structural: each solver's loop is
//! a literal transcription of [`crate::busy_period::fixed_point`] (same
//! check order — horizon, body, finiteness, convergence, monotonicity
//! debug assert, budget) and each body performs the same arithmetic in
//! the same order as the closure it replaces, with [`DemandTable`]
//! lookups that are bit-identical to the closed forms.  Where a keyed
//! body had no explicit base (the first-hop/ingress busy periods start
//! their fold at zero), the solvers pass [`Time::ZERO`], which is exact:
//! `0.0 + x == x` for every finite IEEE 754 `x ≥ 0`.
//!
//! All scratch storage lives in one [`KernelScratch`] arena owned by the
//! fixed-point run and reset per flow, so the per-frame path performs no
//! heap allocation at all.

use crate::busy_period::FixedPointOutcome;
use crate::dense::{DenseJitters, TermSpec};
use crate::index::ux;
use gmf_model::{DemandTable, Time};

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
/// terms and the `w(q)` instance tables of every stage of the flow under
/// analysis.
///
/// One arena lives for the whole fixed-point run (every round, every
/// flow), is [`reset`](KernelScratch::reset) at the start of every flow,
/// and only ever grows to the high-water mark of a single flow's stages —
/// after warm-up the per-frame path allocates nothing.  Stage states address it through plain `Range<usize>` handles,
/// which keeps the stages `Vec`-free and the borrows disjoint.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    /// Resolved interference terms, addressed by stage-held ranges.
    pub(crate) terms: Vec<Term>,
    /// `w(q)` instance tables of ingress/egress stages, addressed by
    /// stage-held ranges.
    pub(crate) w: Vec<Time>,
    /// The first-hop stage's lazily extended `w(q)` memo (one first-hop
    /// stage per flow, so one memo suffices).
    pub(crate) first_hop_w: Vec<Time>,
}

impl KernelScratch {
    /// Drop all flow-scoped contents, keeping the capacity for the next
    /// flow.
    pub(crate) fn reset(&mut self) {
        self.terms.clear();
        self.w.clear();
        self.first_hop_w.clear();
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
                extra: jitters.max_jitter(s.pair).saturating_add(s.blocking_c),
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

/// Least fixed point of `x = base ⊕ Σ_j MX_j(x + extra_j)`, the fold
/// running left to right with saturating adds from `base` — the first-hop
/// busy period (eq. 15, `base` zero) and queueing time (eq. 17, `base` the
/// instance's own backlog) recurrences.
pub(crate) fn solve_sum_mx(
    tables: &[DemandTable],
    terms: &[Term],
    base: Time,
    seed: Time,
    horizon: Time,
    max_iterations: usize,
) -> FixedPointOutcome {
    let mut current = seed;
    for _ in 0..max_iterations {
        if current > horizon {
            return FixedPointOutcome::ExceededHorizon { last: current };
        }
        let mut next = base;
        for term in terms {
            next = next.saturating_add(tables[ux(term.table)].mx(current + term.extra));
        }
        if !next.is_finite() {
            return FixedPointOutcome::ExceededHorizon { last: Time::MAX };
        }
        if next.approx_eq(current) {
            return FixedPointOutcome::Converged(next);
        }
        debug_assert!(
            next >= current || next.approx_eq(current),
            "fixed-point iterate decreased from {current} to {next}"
        );
        current = next;
    }
    FixedPointOutcome::IterationBudgetExhausted { last: current }
}

/// Least fixed point of `x = base ⊕ CIRC · Σ_j NX_j(x + extra_j)` with the
/// round count accumulated in saturating `u64` — the switch-ingress busy
/// period (eq. 22, `base` zero) and queueing time (eq. 24, `base` the
/// instance's own rounds) recurrences.
pub(crate) fn solve_sum_nx(
    tables: &[DemandTable],
    terms: &[Term],
    circ: Time,
    base: Time,
    seed: Time,
    horizon: Time,
    max_iterations: usize,
) -> FixedPointOutcome {
    let mut current = seed;
    for _ in 0..max_iterations {
        if current > horizon {
            return FixedPointOutcome::ExceededHorizon { last: current };
        }
        let mut rounds: u64 = 0;
        for term in terms {
            rounds = rounds.saturating_add(tables[ux(term.table)].nx(current + term.extra));
        }
        let next = base.saturating_add(circ.saturating_mul(rounds));
        if !next.is_finite() {
            return FixedPointOutcome::ExceededHorizon { last: Time::MAX };
        }
        if next.approx_eq(current) {
            return FixedPointOutcome::Converged(next);
        }
        debug_assert!(
            next >= current || next.approx_eq(current),
            "fixed-point iterate decreased from {current} to {next}"
        );
        current = next;
    }
    FixedPointOutcome::IterationBudgetExhausted { last: current }
}

/// Least fixed point of
/// `x = base + Σ_j (MX_j(x + extra_j) ⊕ CIRC · NX_j(x + extra_j))` — the
/// egress busy period and queueing recurrences (eqs. 29, 31).  The outer
/// combination is a *plain* add, exactly as the keyed egress bodies write
/// it; the interference fold saturates term by term.
pub(crate) fn solve_mx_nx(
    tables: &[DemandTable],
    terms: &[Term],
    circ: Time,
    base: Time,
    seed: Time,
    horizon: Time,
    max_iterations: usize,
) -> FixedPointOutcome {
    let mut current = seed;
    for _ in 0..max_iterations {
        if current > horizon {
            return FixedPointOutcome::ExceededHorizon { last: current };
        }
        let mut total = Time::ZERO;
        for term in terms {
            let d = &tables[ux(term.table)];
            let window = current + term.extra;
            total = total.saturating_add(
                d.mx(window)
                    .saturating_add(circ.saturating_mul(d.nx(window))),
            );
        }
        let next = base + total;
        if !next.is_finite() {
            return FixedPointOutcome::ExceededHorizon { last: Time::MAX };
        }
        if next.approx_eq(current) {
            return FixedPointOutcome::Converged(next);
        }
        debug_assert!(
            next >= current || next.approx_eq(current),
            "fixed-point iterate decreased from {current} to {next}"
        );
        current = next;
    }
    FixedPointOutcome::IterationBudgetExhausted { last: current }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::busy_period::fixed_point;
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

    /// Each solver must agree bit-for-bit with `fixed_point` driven by the
    /// equivalent closure over the same tables.
    #[test]
    fn solvers_match_closure_driven_fixed_point() {
        let tables = tables();
        let terms = terms();
        let horizon = Time::from_secs(10.0);
        let base = Time::from_millis(2.0);
        let circ = Time::from_micros(120.0);

        let expected = fixed_point(base, horizon, 10_000, |t| {
            let mut total = base;
            for term in &terms {
                total = total.saturating_add(tables[ux(term.table)].mx(t + term.extra));
            }
            total
        });
        let got = solve_sum_mx(&tables, &terms, base, base, horizon, 10_000);
        assert_eq!(got, expected);
        assert!(got.converged().is_some());

        let expected = fixed_point(base, horizon, 10_000, |t| {
            let mut rounds: u64 = 0;
            for term in &terms {
                rounds = rounds.saturating_add(tables[ux(term.table)].nx(t + term.extra));
            }
            base.saturating_add(circ.saturating_mul(rounds))
        });
        let got = solve_sum_nx(&tables, &terms, circ, base, base, horizon, 10_000);
        assert_eq!(got, expected);

        let expected = fixed_point(base, horizon, 10_000, |t| {
            let mut total = Time::ZERO;
            for term in &terms {
                let d = &tables[ux(term.table)];
                let window = t + term.extra;
                total = total.saturating_add(
                    d.mx(window)
                        .saturating_add(circ.saturating_mul(d.nx(window))),
                );
            }
            base + total
        });
        let got = solve_mx_nx(&tables, &terms, circ, base, base, horizon, 10_000);
        assert_eq!(got, expected);
    }

    /// The solvers report the same horizon/budget outcomes as the generic
    /// iterator under overload and tiny budgets.
    #[test]
    fn solvers_report_divergence_like_fixed_point() {
        let tables = tables();
        let terms = terms();
        let base = Time::from_millis(2.0);
        // A horizon below the seed diverges immediately.
        let got = solve_sum_mx(&tables, &terms, base, base, Time::from_micros(1.0), 100);
        assert_eq!(
            got,
            FixedPointOutcome::ExceededHorizon { last: base },
            "horizon below seed"
        );
        // A one-iteration budget on a non-trivial recurrence exhausts.
        let got = solve_mx_nx(
            &tables,
            &terms,
            Time::from_micros(120.0),
            base,
            base,
            Time::from_secs(10.0),
            1,
        );
        assert!(matches!(
            got,
            FixedPointOutcome::IterationBudgetExhausted { .. }
        ));
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
