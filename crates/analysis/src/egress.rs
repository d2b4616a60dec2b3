//! Switch-egress analysis: "From Dequeueing of Priority Queue to
//! Transmission" (paper equations (28)–(35)).
//!
//! Once the routing task has placed the Ethernet frames of a packet in the
//! prioritized output queue of node `N` towards `succ(τ_i, N)`, two effects
//! delay them:
//!
//! 1. **static-priority transmission**: frames of higher-or-equal priority
//!    flows (`hep(τ_i, N, succ)`, eq. 2) are transmitted first, and one
//!    maximum-size frame that already started transmitting cannot be
//!    preempted (the `MFT` blocking term);
//! 2. **stride scheduling of the send task**: even when the link is idle, a
//!    frame only leaves the priority queue when the output interface's send
//!    task gets its turn, which happens once every `CIRC(N)`; each
//!    higher-or-equal-priority Ethernet frame that is dequeued ahead of ours
//!    therefore also costs a `CIRC(N)` round.
//!
//! For frame `k` of flow `τ_i`:
//!
//! * busy period (eq. 29): `t = MFT + Σ_{hep} MX_j(t + extra_j) +
//!   Σ_{hep} NX_j(t + extra_j) · CIRC(N)`, seeded at `MFT` (eq. 28);
//! * queueing time of the `q`-th instance (eq. 31): the same expression
//!   plus `q·CSUM_i`;
//! * response time (eq. 32): `w(q) − q·TSUM_i + C_i^k`, maximised over
//!   `q < Q_i^k` and increased by the propagation delay (eq. 33).
//!
//! The analysis cannot converge when the higher-or-equal-priority demand
//! alone saturates the link (eq. 34); we additionally fold the per-frame
//! `CIRC(N)` service cost into the overload check because it contributes to
//! the long-run demand of the same busy period.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::index::qw;
use crate::kernel::{KernelScratch, StageSolver};
use gmf_model::Time;

/// The dense per-round state of one flow's egress stage.
///
/// As at the ingress, everything frame-independent in equations (28)–(35)
/// — the overload check, the busy period and the queueing times `w(q)` of
/// *single-frame* packets — is solved once per round at build;
/// [`EgressDense::response`] maximises eq. (32) over the precomputed
/// instances and adds the frame's own transmission time and the link's
/// propagation delay (eq. 33).  Under the refinement switch
/// [`AnalysisConfig::refine`], a *fragmented* frame keeps its own
/// transmission inside the interference window, which makes its fixed
/// points frame-dependent — those solve on demand, in the keyed walk's
/// frame order, exactly like the keyed engine.
pub(crate) struct EgressDense {
    solver: StageSolver,
    refine: bool,
    circ: Time,
    tsum_i: Time,
    mft: Time,
    /// `CSUM_i` plus, under the refinement, `MFT · NSUM_i` per-fragment
    /// blocking for every whole-cycle instance ahead of us.
    cycle_extra: Time,
    instances: u64,
    own_demand: u32,
    propagation: Time,
    /// Range into the scratch term arena with the resolved hep
    /// interferers, in id order.
    terms: std::ops::Range<usize>,
    /// Range into the scratch `w` arena holding `w(q)` for `q < Q_i`
    /// (eq. 31) of single-frame packets, solved at build.
    w: std::ops::Range<usize>,
}

impl EgressDense {
    /// Run the overload check (eq. 34, extended with the CIRC service
    /// cost) and solve the busy period and every single-frame `w(q)`
    /// against the current iterate.
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
        let mft = d_i.mft();
        let refine = config.refine;
        let own_frame_cost = mft + circ;
        let cycle_extra = if refine {
            d_i.csum() + own_frame_cost * d_i.nsum()
        } else {
            d_i.csum()
        };
        let busy_seed = if refine {
            own_frame_cost * d_i.max_n_ethernet_frames()
        } else {
            mft
        };

        // extra_j: accumulated jitter of flow j on this output link (the
        // egress interferer table holds `hep` only — no self entry, so
        // `all_terms` is the one slice both walks use).
        let tables = ctx.tables();
        let terms_range =
            scratch.resolve_terms(ctx.plan().term_slice(&stage.all_terms), jitters, false);
        let KernelScratch { terms, w, .. } = scratch;
        let resolved = &terms[terms_range.clone()];

        // Busy period, equations (28)–(29).
        let busy_period = solver.mx_nx(tables, resolved, circ, busy_seed, busy_seed)?;
        let instances = busy_period.div_ceil(tsum_i).max(1);

        // Queueing time per instance, equations (30)–(31), for
        // single-frame packets (`blocking_k` = one MFT, plus one CIRC
        // own-send-wait under the refinement).
        let single_blocking = if refine { own_frame_cost } else { mft };
        let w_start = w.len();
        for q in 0..instances {
            let own = single_blocking + cycle_extra * q;
            w.push(solver.mx_nx(tables, resolved, circ, own, own)?);
        }

        Ok(EgressDense {
            solver,
            refine,
            circ,
            tsum_i,
            mft,
            cycle_extra,
            instances,
            own_demand: stage.own_demand,
            propagation: stage.propagation,
            terms: terms_range,
            w: w_start..w.len(),
        })
    }

    /// Equations (32)–(33): maximise the response over the instances and
    /// add the frame's own transmission and the propagation delay.
    /// Fragmented frames under the refinement solve their frame-dependent
    /// fixed points here, in the keyed engine's order.
    pub(crate) fn response(
        &self,
        ctx: &AnalysisContext<'_>,
        frame: usize,
        scratch: &KernelScratch,
    ) -> Result<Time, AnalysisError> {
        let d_i = ctx.demand_by_index(self.own_demand);
        let c_k = d_i.c(frame);
        let n_k = d_i.n_ethernet_frames(frame);
        if !(self.refine && n_k > 1) {
            let mut worst = Time::ZERO;
            for (q, &wq) in scratch.w[self.w.clone()].iter().enumerate() {
                let response = wq - self.tsum_i * qw(q) + c_k;
                worst = worst.max(response);
            }
            return Ok(worst + self.propagation);
        }

        let tables = ctx.tables();
        let resolved = &scratch.terms[self.terms.clone()];
        let mut worst = Time::ZERO;
        for q in 0..self.instances {
            let base = (self.mft + self.circ) * n_k + self.cycle_extra * q + c_k;
            let r = self.solver.mx_nx(tables, resolved, self.circ, base, base)?;
            worst = worst.max(r - self.tsum_i * q);
        }
        Ok(worst + self.propagation)
    }
}
