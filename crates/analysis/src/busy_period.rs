//! Monotone fixed-point iteration, the numerical workhorse of the analysis.
//!
//! Every response-time equation of the paper ((15), (17), (22), (24), (29),
//! (31)) has the form `x = f(x)` where `f` is monotone non-decreasing in
//! `x` (interference can only grow when the window grows).  Starting from a
//! seed below the least fixed point and iterating therefore converges to
//! the least fixed point or diverges beyond any bound (overload).  Times
//! are integer ticks and `f` is piecewise constant between floor/ceil
//! breakpoints, so a convergent iteration reaches the fixed point
//! *exactly*.  [`fixed_point`] converges when two successive iterates are
//! equal, reports [`FixedPointOutcome::ExceededHorizon`] when the iterate
//! passes the configured horizon or saturates at [`Time::MAX`], and gives
//! up after an iteration budget — for the analysis stages always
//! [`MAX_FIXED_POINT_ITERATIONS`].

use gmf_model::Time;

/// The iteration budget of every per-stage fixed point (busy periods and
/// queueing times).  A monotone recurrence over integer ticks either
/// reaches its fixed point or passes the horizon long before this many
/// steps; exhausting it means a pathological input, reported as
/// [`crate::AnalysisError::NoConvergence`].
pub const MAX_FIXED_POINT_ITERATIONS: usize = 100_000;

/// Result of a fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FixedPointOutcome {
    /// The iteration converged to the returned value.
    Converged(Time),
    /// The iterate exceeded the divergence horizon.
    ExceededHorizon {
        /// The last iterate (already beyond the horizon).
        last: Time,
    },
    /// The iteration budget was exhausted without convergence.
    IterationBudgetExhausted {
        /// The last iterate.
        last: Time,
    },
}

impl FixedPointOutcome {
    /// The converged value, if any.
    pub fn converged(self) -> Option<Time> {
        match self {
            FixedPointOutcome::Converged(t) => Some(t),
            _ => None,
        }
    }
}

/// Iterate `x_{v+1} = f(x_v)` from `seed` until convergence, the `horizon`
/// is exceeded, or `max_iterations` have been performed.
pub fn fixed_point(
    seed: Time,
    horizon: Time,
    max_iterations: usize,
    mut f: impl FnMut(Time) -> Time,
) -> FixedPointOutcome {
    let mut current = seed;
    for _ in 0..max_iterations {
        if current > horizon {
            return FixedPointOutcome::ExceededHorizon { last: current };
        }
        let next = f(current);
        // A saturated iterate means a request-bound term overflowed the
        // representable range; the true fixed point (if any) is beyond every
        // horizon, so report a loud divergence even when the horizon is
        // `Time::MAX` itself.
        if next == Time::MAX {
            return FixedPointOutcome::ExceededHorizon { last: Time::MAX };
        }
        if next == current {
            return FixedPointOutcome::Converged(next);
        }
        // Monotonicity sanity check: the recurrences of the paper never
        // shrink once started from a valid seed.  A decrease indicates a
        // bug in a request-bound function, so fail loudly in debug builds.
        debug_assert!(
            next > current,
            "fixed-point iterate decreased from {current} to {next}"
        );
        current = next;
    }
    FixedPointOutcome::IterationBudgetExhausted { last: current }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_simple_recurrence() {
        // x = 1 + 0.5 x  =>  x* = 2.
        let outcome = fixed_point(Time::ZERO, Time::from_secs(100.0), 1000, |x| {
            Time::from_secs(1.0) + x * 0.5
        });
        let value = outcome.converged().expect("must converge");
        assert_eq!(value, Time::from_secs(2.0));
    }

    #[test]
    fn converges_immediately_at_a_fixed_point_seed() {
        let outcome = fixed_point(Time::from_secs(2.0), Time::from_secs(100.0), 10, |x| x);
        assert_eq!(outcome.converged(), Some(Time::from_secs(2.0)));
    }

    #[test]
    fn detects_horizon_excess() {
        // x = x + 1 diverges.
        let outcome = fixed_point(Time::ZERO, Time::from_secs(10.0), 1_000_000, |x| {
            x + Time::from_secs(1.0)
        });
        match outcome {
            FixedPointOutcome::ExceededHorizon { last } => assert!(last > Time::from_secs(10.0)),
            other => panic!("expected horizon excess, got {other:?}"),
        }
        assert!(outcome.converged().is_none());
    }

    #[test]
    fn exhausts_iteration_budget_on_slow_convergence() {
        // Converges to 2 but needs more iterations than allowed because each
        // step only closes 1% of the remaining gap.
        let outcome = fixed_point(Time::ZERO, Time::from_secs(100.0), 3, |x| {
            x + (Time::from_secs(2.0) - x) * 0.01
        });
        assert!(matches!(
            outcome,
            FixedPointOutcome::IterationBudgetExhausted { .. }
        ));
    }

    #[test]
    fn ceiling_style_recurrence_matches_classic_response_time() {
        // Classic single-processor response-time analysis:
        //   task under analysis: C = 2, higher-priority task: C = 1, T = 4.
        //   R = 2 + ceil(R / 4) * 1  =>  R = 3.
        let outcome = fixed_point(Time::from_secs(2.0), Time::from_secs(100.0), 100, |r| {
            let jobs = (r.as_secs() / 4.0).ceil().max(1.0);
            Time::from_secs(2.0) + Time::from_secs(jobs)
        });
        assert_eq!(outcome.converged(), Some(Time::from_secs(3.0)));
    }
}
