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
//! The jitter assignments made on the way are returned so the holistic
//! iteration ([`crate::fixed_point`]) can feed them into the next round.
//!
//! One extension over Figure 6: a route with no intermediate switch (source
//! directly cabled to the destination) still gets its first hop analysed;
//! the paper's loop would skip it.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::report::{FrameBound, HopBound};
use gmf_model::Time;

/// A per-stage dense analysis state (see the stage modules): built lazily
/// during frame 0's walk, reused by every later frame of the cycle.
enum StageState {
    First(crate::first_hop::FirstHopDense),
    Ingress(crate::ingress::IngressDense),
    Egress(crate::egress::EgressDense),
}

/// Analyse every frame of the flow at `flow_index` (dense plan order)
/// against the dense iterate — the engine's form of the keyed
/// `gmf_bench::oracle::analyze_flow`.
///
/// The returned assignments are frame-major and stage-minor: the jitter
/// the frame has accumulated *entering* each stage of the plan's walk, for
/// the fixed-point engine to fold into the next round's arena.
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
    scratch: &mut crate::kernel::KernelScratch,
) -> Result<(Vec<FrameBound>, Vec<Vec<Time>>), AnalysisError> {
    let plan = ctx.plan();
    let flow_plan = &plan.flows[flow_index];
    let binding = &ctx.flows().bindings()[flow_index];
    let flow = flow_plan.id;
    scratch.reset();

    let mut states: Vec<StageState> = Vec::with_capacity(flow_plan.stages.len());
    let mut bounds = Vec::with_capacity(flow_plan.n_frames);
    let mut assignments = Vec::with_capacity(flow_plan.n_frames);
    for frame in 0..flow_plan.n_frames {
        let spec = binding
            .flow
            .frame(frame)
            .map_err(|e| AnalysisError::Net(gmf_net::NetError::Model(e.to_string())))?;
        let source_jitter = spec.jitter;

        // Figure 6, line 3.
        let mut rsum = source_jitter;
        let mut jsum = source_jitter;
        let mut hops = Vec::with_capacity(flow_plan.stages.len());
        let mut frame_assignments = Vec::with_capacity(flow_plan.stages.len());

        for (index, stage) in flow_plan.stages.iter().enumerate() {
            frame_assignments.push(jsum);
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
            let response = match &mut states[index] {
                StageState::First(state) => state.response(ctx, frame, scratch)?,
                StageState::Ingress(state) => state.response(ctx, frame, scratch),
                StageState::Egress(state) => state.response(ctx, frame, scratch)?,
            };
            hops.push(HopBound {
                resource: stage.resource,
                stage: stage.stage,
                response,
            });
            rsum += response;
            jsum += response;
        }

        bounds.push(FrameBound {
            flow,
            frame,
            source_jitter,
            bound: rsum,
            deadline: spec.deadline,
            hops,
        });
        assignments.push(frame_assignments);
    }
    Ok((bounds, assignments))
}
