//! Switch-ingress analysis: "From Reception to Enqueueing in Priority
//! Queue" (paper equations (21)–(27)).
//!
//! Inside a software switch, every input interface has a FIFO queue in its
//! network card and a dedicated *routing task* that dequeues one Ethernet
//! frame, looks up its output port and priority, and enqueues it into the
//! output priority queue.  All tasks (one routing task and one send task
//! per interface) share the switch CPU under non-preemptive round-robin
//! stride scheduling, so a routing task is served once every
//! `CIRC(N) = NINTERFACES(N) × (CROUTE + CSEND)`.
//!
//! The delay of frame `k` of flow `τ_i` from the reception of its Ethernet
//! frames at node `N` until they sit in the output priority queue is
//! therefore a multiple of `CIRC(N)`: every Ethernet frame that arrived on
//! the *same input interface* (i.e. from `prec(τ_i, N)`) and is served
//! before ours costs one service round.
//!
//! * busy period (eq. 22): `t = Σ_j NX_j(t + extra_j) · CIRC(N)` over the
//!   flows sharing the incoming link;
//! * queueing time of the `q`-th instance (eq. 24):
//!   `w(q) = q·CIRC(N) + Σ_{j≠i} NX_j(w(q) + extra_j) · CIRC(N)`;
//! * response time (eq. 25): `w(q) − q·TSUM_i + CIRC(N)`, maximised over
//!   `q < Q_i^k = ⌈t / TSUM_i⌉` (eq. 26–27).
//!
//! ### Deviations from the paper (documented in DESIGN.md §4)
//!
//! * Equation (21) seeds the busy period at 0; we seed at `CIRC(N)`.
//! * With the refinement switch [`crate::AnalysisConfig::refine`] on, the
//!   analysed flow's own fragments are charged one service round each
//!   (`q·NSUM_i` rounds instead of `q`, and `NSUM_i^k` rounds instead of
//!   one for the instance under analysis), which is required for the bound
//!   to dominate the simulator when UDP packets fragment into several
//!   Ethernet frames.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::index::qw;
use crate::kernel::{KernelScratch, StageSolver};
use gmf_model::Time;

/// The dense per-round state of one flow's switch-ingress stage.
///
/// Every fallible or expensive part of equations (21)–(27) is
/// frame-independent: the overload check, the busy period (eq. 22, seeded
/// at `CIRC(N)`) and the queueing times `w(q)` (eq. 24).  They are solved
/// once per round here; [`IngressDense::response`] only maximises eq. (25)
/// over the precomputed `w(q)` with the frame's own service-round count —
/// the keyed path re-solved every recurrence for every frame of the cycle.
pub(crate) struct IngressDense {
    circ: Time,
    tsum_i: Time,
    own_demand: u32,
    refine: bool,
    /// Range into the scratch `w` arena holding `w(q)` for `q < Q_i`
    /// (eq. 24), solved at build.
    w: std::ops::Range<usize>,
}

impl IngressDense {
    /// Run the overload check and solve the busy period and every `w(q)`
    /// against the current iterate, as table walks over the scratch
    /// arena's terms.
    pub(crate) fn build(
        ctx: &AnalysisContext<'_>,
        jitters: &crate::dense::DenseJitters,
        config: &AnalysisConfig,
        flow: gmf_model::FlowId,
        stage: &crate::dense::StagePlan,
        scratch: &mut KernelScratch,
    ) -> Result<Self, AnalysisError> {
        let solver = StageSolver::new(stage, flow, config.horizon)?;
        let circ = stage.circ;
        let d_i = ctx.demand_by_index(stage.own_demand);
        let tsum_i = d_i.tsum();
        let tables = ctx.tables();
        let plan = ctx.plan();

        // extra_j: accumulated jitter of flow j at reception on this node.
        let all_range = scratch.resolve_terms(plan.term_slice(&stage.all_terms), jitters, false);
        let other_range =
            scratch.resolve_terms(plan.term_slice(&stage.other_terms), jitters, false);
        let KernelScratch { terms, w, .. } = scratch;
        let all = &terms[all_range];
        let others = &terms[other_range];

        // Busy period, equation (22).
        let busy_period = solver.sum_nx(tables, all, circ, Time::ZERO, circ)?;
        let instances = busy_period.div_ceil(tsum_i).max(1);
        let own_rounds_per_cycle: u64 = if config.refine { d_i.nsum() } else { 1 };

        // Queueing time per instance, equation (24).
        let w_start = w.len();
        for q in 0..instances {
            let own = circ * q.saturating_mul(own_rounds_per_cycle);
            w.push(solver.sum_nx(tables, others, circ, own, own)?);
        }

        Ok(IngressDense {
            circ,
            tsum_i,
            own_demand: stage.own_demand,
            refine: config.refine,
            w: w_start..w.len(),
        })
    }

    /// Equation (25)–(26): maximise the response over the precomputed
    /// instances, charging the frame's own service rounds.
    pub(crate) fn response(
        &self,
        ctx: &AnalysisContext<'_>,
        frame: usize,
        scratch: &KernelScratch,
    ) -> Time {
        let own_rounds_final: u64 = if self.refine {
            ctx.demand_by_index(self.own_demand)
                .n_ethernet_frames(frame)
        } else {
            1
        };
        let mut worst = Time::ZERO;
        for (q, &wq) in scratch.w[self.w.clone()].iter().enumerate() {
            let response = wq - self.tsum_i * qw(q) + self.circ * own_rounds_final;
            worst = worst.max(response);
        }
        worst
    }
}
