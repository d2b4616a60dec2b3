//! First-hop analysis (paper Section 3.2, equations (14)–(20)).
//!
//! The first hop is special because the source node is an IP end host (or
//! router) whose queueing discipline the network operator does not control:
//! the only assumption is that the output queue is *work conserving*.  The
//! analysis therefore charges interference from **every** flow sharing the
//! first link, regardless of priority.
//!
//! For frame `k` of flow `τ_i` on its first link `link(S, succ(τ_i, S))`:
//!
//! 1. the busy-period length `t_i^k` is the least fixed point of
//!    `t = Σ_j MX_j(t + extra_j)` over all flows `j` on the link (eq. 15);
//! 2. `Q_i^k = ⌈t_i^k / TSUM_i⌉` instances of frame `k` can fall inside the
//!    busy period;
//! 3. the queueing time of the `q`-th instance is the least fixed point of
//!    `w(q) = q·CSUM_i + Σ_{j≠i} MX_j(w(q) + extra_j)` (eq. 17);
//! 4. its response time is `w(q) − q·TSUM_i + C_i^k` (eq. 18) and the hop
//!    bound is the maximum over `q` plus the propagation delay (eq. 19).
//!
//! The analysis requires the link not to be overloaded (eq. 20).
//!
//! ### Deviations from the paper (documented in DESIGN.md §4)
//!
//! * Equation (14) seeds the busy-period iteration at 0, which is a fixed
//!   point whenever every `extra_j` is zero; we seed at `C_i^k`, the
//!   smallest busy period that can contain the frame under analysis.
//! * With the refinement switch [`crate::AnalysisConfig::refine`] on, the
//!   interference window of every *other* flow is widened by that flow's
//!   largest single-frame transmission time (equivalently, the flow is
//!   treated as having that much additional generalized jitter).  This
//!   covers the packet that was enqueued just before the frame under
//!   analysis even when all generalized jitters are zero.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::index::qx;
use crate::kernel::{KernelScratch, StageSolver};
use gmf_model::Time;

/// The dense per-round state of one flow's first-hop stage: interference
/// terms resolved into the worker's [`KernelScratch`] arena once, and the
/// queueing-time fixed points `w(q)` memoised across frames (they depend
/// on `q` but not on the frame, yet the keyed path re-solved them for
/// every frame of the cycle).
///
/// The busy period (eq. 15) *is* frame-dependent — it is seeded at the
/// frame's own transmission time — so it stays in
/// [`FirstHopDense::response`]; the `w(q)` memo is extended lazily in
/// ascending `q` order, which reproduces the keyed engine's error order
/// exactly (a later frame that needs a deeper `q` than its predecessors is
/// the first to solve — and the first to fail — that recurrence).
pub(crate) struct FirstHopDense {
    solver: StageSolver,
    /// Every interferer's resolved term (busy-period walk), in id order.
    all_terms: std::ops::Range<usize>,
    /// The non-self terms (`w(q)` walk), in id order.
    other_terms: std::ops::Range<usize>,
    own_demand: u32,
    propagation: Time,
}

impl FirstHopDense {
    /// Run the overload check (eq. 20) and resolve the stage's terms
    /// against the current iterate into the scratch arena — everything
    /// frame-independent and fallible-once.
    pub(crate) fn build(
        plan: &crate::dense::DensePlan,
        jitters: &crate::dense::DenseJitters,
        config: &AnalysisConfig,
        flow: gmf_model::FlowId,
        stage: &crate::dense::StagePlan,
        scratch: &mut KernelScratch,
    ) -> Result<Self, AnalysisError> {
        let solver = StageSolver::new(stage, flow, config.horizon)?;
        // Under the blocking refinement the widening folds into `extra`
        // for every term: the plan stores `blocking_c == 0` for the
        // flow's own term, so the unconditional add matches the keyed
        // `is_self` branch bit for bit.
        let all_terms =
            scratch.resolve_terms(plan.term_slice(&stage.all_terms), jitters, config.refine);
        let other_terms =
            scratch.resolve_terms(plan.term_slice(&stage.other_terms), jitters, config.refine);
        Ok(FirstHopDense {
            solver,
            all_terms,
            other_terms,
            own_demand: stage.own_demand,
            propagation: stage.propagation,
        })
    }

    /// The first-hop response-time bound of `frame` — the same equations
    /// (15)–(19) as the keyed `gmf_bench::oracle::first_hop_response`,
    /// evaluated as table walks over the scratch arena's terms.
    pub(crate) fn response(
        &self,
        ctx: &AnalysisContext<'_>,
        frame: usize,
        scratch: &mut KernelScratch,
    ) -> Result<Time, AnalysisError> {
        let d_i = ctx.demand_by_index(self.own_demand);
        let c_k = d_i.c(frame);
        let tsum_i = d_i.tsum();
        let csum_i = d_i.csum();
        let tables = ctx.tables();
        let KernelScratch {
            terms, first_hop_w, ..
        } = scratch;
        let all = &terms[self.all_terms.clone()];
        let others = &terms[self.other_terms.clone()];

        // Busy period, equation (15), seeded at the frame's own C.
        let busy_period = self.solver.sum_mx(tables, all, Time::ZERO, c_k)?;
        let instances = busy_period.div_ceil(tsum_i).max(1);

        // Queueing time per instance (eqs. 16–17): frame-independent, so
        // solved once per `q` across the whole cycle.
        let mut worst = Time::ZERO;
        for q in 0..instances {
            if first_hop_w.len() <= qx(q) {
                let own = csum_i * q;
                first_hop_w.push(self.solver.sum_mx(tables, others, own, own)?);
            }
            // Equation (18).
            let response = first_hop_w[qx(q)] - tsum_i * q + c_k;
            worst = worst.max(response);
        }

        // Equation (19).
        Ok(worst + self.propagation)
    }
}
