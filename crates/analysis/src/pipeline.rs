//! End-to-end pipeline analysis of a single frame — the algorithm of the
//! paper's Figure 6.
//!
//! Given the generalized jitter of every flow at every resource (from the
//! previous holistic round), the algorithm walks the route of the flow
//! under analysis, summing per-resource response-time bounds and
//! accumulating jitter:
//!
//! ```text
//! RSUM := GJ_i^k;  JSUM := GJ_i^k
//! analyse the first hop (source output queue + first link)     — eq. (19)
//! for every switch N on the route:
//!     GJ_i^{k,in(N)}        := JSUM;  R := ingress bound at N   — eq. (26)
//!     RSUM += R; JSUM += R
//!     GJ_i^{k,link(N,succ)} := JSUM;  R := egress bound at N    — eq. (33)
//!     RSUM += R; JSUM += R
//! R_i^k := RSUM
//! ```
//!
//! The walk writes each stage's response `R` into the engine's response
//! buffer; the holistic iteration ([`crate::fixed_point`]) rebuilds the
//! jitter each stage assigns (`GJ` entering the stage = source jitter plus
//! the responses before it) and the frame's bound (`RSUM`) from them, so
//! the walk itself allocates nothing.
//!
//! One extension over Figure 6: a route with no intermediate switch (source
//! directly cabled to the destination) still gets its first hop analysed;
//! the paper's loop would skip it.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::kernel::KernelScratch;
use gmf_model::Time;

/// A per-stage dense analysis state (see the stage modules): built lazily
/// during frame 0's walk, reused by every later frame of the cycle.  The
/// states of the flow under analysis live in [`KernelScratch::stages`].
pub(crate) enum StageState {
    First(crate::first_hop::FirstHopDense),
    Ingress(crate::ingress::IngressDense),
    Egress(crate::egress::EgressDense),
}

/// Analyse every frame of the flow at `flow_index` (dense plan order)
/// against the dense iterate — the engine's form of the keyed
/// `gmf_bench::oracle::analyze_flow`.
///
/// `responses` receives the flow's per-stage responses, stage-major like
/// the flow's jitter slots ([`crate::dense::DensePlan::flow_range`]):
/// `responses[stage * n_frames + frame]`.  On an error its contents are
/// unspecified.
///
/// Byte-identity with the keyed walk: stage states are constructed
/// *lazily, in frame 0's walk order*, so any error a stage's
/// frame-independent computations raise surfaces at exactly the point the
/// keyed walk would raise it; later frames can only fail in the
/// frame-dependent parts (the first-hop busy period and its lazily
/// extended `w(q)` memo), which run in the keyed order too.
pub(crate) fn analyze_flow_dense(
    ctx: &AnalysisContext<'_>,
    jitters: &crate::dense::DenseJitters,
    config: &AnalysisConfig,
    flow_index: usize,
    scratch: &mut KernelScratch,
    responses: &mut [Time],
) -> Result<(), AnalysisError> {
    scratch.reset();
    // The states hold ranges into the scratch arena, so they move out of
    // it for the walk and back in afterwards, keeping their capacity.
    let mut states = std::mem::take(&mut scratch.stages);
    let result = walk(
        ctx,
        jitters,
        config,
        flow_index,
        scratch,
        &mut states,
        responses,
    );
    scratch.stages = states;
    result
}

/// The walk of [`analyze_flow_dense`], frame by frame, each frame through
/// every stage, over the moved-out stage `states`.
fn walk(
    ctx: &AnalysisContext<'_>,
    jitters: &crate::dense::DenseJitters,
    config: &AnalysisConfig,
    flow_index: usize,
    scratch: &mut KernelScratch,
    states: &mut Vec<StageState>,
    responses: &mut [Time],
) -> Result<(), AnalysisError> {
    let plan = ctx.plan();
    let flow_plan = &plan.flows[flow_index];
    let flow = flow_plan.id;
    let n_frames = flow_plan.n_frames;
    for frame in 0..n_frames {
        for (index, stage) in flow_plan.stages.iter().enumerate() {
            if states.len() == index {
                states.push(match stage.stage {
                    crate::error::StageKind::FirstHop => {
                        StageState::First(crate::first_hop::FirstHopDense::build(
                            plan, jitters, config, flow, stage, scratch,
                        )?)
                    }
                    crate::error::StageKind::SwitchIngress => {
                        StageState::Ingress(crate::ingress::IngressDense::build(
                            ctx, jitters, config, flow, stage, scratch,
                        )?)
                    }
                    crate::error::StageKind::EgressLink => {
                        StageState::Egress(crate::egress::EgressDense::build(
                            ctx, jitters, config, flow, stage, scratch,
                        )?)
                    }
                });
            }
            responses[index * n_frames + frame] = match &mut states[index] {
                StageState::First(state) => state.response(ctx, frame, scratch)?,
                StageState::Ingress(state) => state.response(ctx, frame, scratch),
                StageState::Egress(state) => state.response(ctx, frame, scratch)?,
            };
        }
    }
    Ok(())
}
