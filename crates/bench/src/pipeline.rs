//! The keyed end-to-end walk of one frame — the paper's Figure 6 — over
//! the keyed stage analyses.  One extension over Figure 6: a route with
//! no intermediate switch still gets its first hop analysed.

use crate::egress::egress_response;
use crate::first_hop::first_hop_response;
use crate::ingress::ingress_response;
use gmf_analysis::config::AnalysisConfig;
use gmf_analysis::context::{AnalysisContext, JitterMap, ResourceId};
use gmf_analysis::error::{AnalysisError, StageKind};
use gmf_analysis::report::{FrameBound, HopBound};
use gmf_model::{FlowId, Time};

/// The jitter values a frame accumulated at each resource of its route,
/// produced as a by-product of the pipeline walk.
pub type JitterAssignments = Vec<(ResourceId, Time)>;

/// Analyse frame `frame` of `flow` end to end, using `jitters` for the
/// generalized jitter of interfering flows.
///
/// Returns the end-to-end bound (with per-hop breakdown) and the jitter
/// this frame accumulates at every resource of its route.
pub fn analyze_frame(
    ctx: &AnalysisContext<'_>,
    jitters: &JitterMap,
    config: &AnalysisConfig,
    flow: FlowId,
    frame: usize,
) -> Result<(FrameBound, JitterAssignments), AnalysisError> {
    let binding = ctx.flows().get(flow)?;
    let spec = binding
        .flow
        .frame(frame)
        .map_err(|e| AnalysisError::Net(gmf_net::NetError::Model(e.to_string())))?;
    let source = binding.route.source();
    let source_jitter = spec.jitter;

    // Figure 6, line 3.
    let mut rsum = source_jitter;
    let mut jsum = source_jitter;
    let mut hops = Vec::new();
    let mut assignments = Vec::new();

    // First hop: source output queue and first link.
    let first_succ = binding.route.successor(source)?;
    assignments.push((
        ResourceId::Link {
            from: source,
            to: first_succ,
        },
        jsum,
    ));
    let first = first_hop_response(ctx, jitters, config, flow, frame)?;
    hops.push(HopBound {
        resource: ResourceId::Link {
            from: source,
            to: first_succ,
        },
        stage: StageKind::FirstHop,
        response: first.response,
    });
    rsum += first.response;
    jsum += first.response;

    // Every intermediate switch: ingress processing, then egress link.
    for &switch in binding.route.switches() {
        let succ = binding.route.successor(switch)?;

        // Figure 6, lines 13–15.
        assignments.push((ResourceId::SwitchIngress { node: switch }, jsum));
        let ingress = ingress_response(ctx, jitters, config, flow, frame, switch)?;
        hops.push(HopBound {
            resource: ResourceId::SwitchIngress { node: switch },
            stage: StageKind::SwitchIngress,
            response: ingress.response,
        });
        rsum += ingress.response;
        jsum += ingress.response;

        // Figure 6, lines 17–19.
        assignments.push((
            ResourceId::Link {
                from: switch,
                to: succ,
            },
            jsum,
        ));
        let egress = egress_response(ctx, jitters, config, flow, frame, switch)?;
        hops.push(HopBound {
            resource: ResourceId::Link {
                from: switch,
                to: succ,
            },
            stage: StageKind::EgressLink,
            response: egress.response,
        });
        rsum += egress.response;
        jsum += egress.response;
    }

    Ok((
        FrameBound {
            flow,
            frame,
            source_jitter,
            bound: rsum,
            deadline: spec.deadline,
            hops,
        },
        assignments,
    ))
}

/// Analyse every frame of `flow`, returning the bounds and the combined
/// jitter assignments (per frame).
pub fn analyze_flow(
    ctx: &AnalysisContext<'_>,
    jitters: &JitterMap,
    config: &AnalysisConfig,
    flow: FlowId,
) -> Result<(Vec<FrameBound>, Vec<JitterAssignments>), AnalysisError> {
    let n_frames = ctx.flow(flow)?.n_frames();
    let mut bounds = Vec::with_capacity(n_frames);
    let mut assignments = Vec::with_capacity(n_frames);
    for k in 0..n_frames {
        let (bound, assignment) = analyze_frame(ctx, jitters, config, flow, k)?;
        bounds.push(bound);
        assignments.push(assignment);
    }
    Ok((bounds, assignments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_analysis::hop_sum_matches;
    use gmf_model::{paper_figure3_flow, voip_flow, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, FlowSet, NodeId, Priority, Route, Topology};

    fn paper_scenario() -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(200.0), Time::from_millis(1.0));
        fs.add(video, video_route, Priority(6));
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(voice, voice_route, Priority(7));
        (t, fs)
    }

    #[test]
    fn pipeline_covers_every_resource_of_the_figure2_route() {
        let (t, fs) = paper_scenario();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let (bound, assignments) =
            analyze_frame(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0).unwrap();

        // Route 0 -> 4 -> 6 -> 3: first hop, in(4), link(4,6), in(6), link(6,3).
        assert_eq!(bound.hops.len(), 5);
        assert_eq!(bound.hops[0].stage, StageKind::FirstHop);
        assert_eq!(
            bound.hops[1].resource,
            ResourceId::SwitchIngress { node: NodeId(4) }
        );
        assert_eq!(
            bound.hops[2].resource,
            ResourceId::Link {
                from: NodeId(4),
                to: NodeId(6)
            }
        );
        assert_eq!(
            bound.hops[3].resource,
            ResourceId::SwitchIngress { node: NodeId(6) }
        );
        assert_eq!(
            bound.hops[4].resource,
            ResourceId::Link {
                from: NodeId(6),
                to: NodeId(3)
            }
        );
        // Five resources produce five jitter assignments.
        assert_eq!(assignments.len(), 5);
        // The first assignment is the source jitter itself; later ones are
        // strictly larger because every stage adds a positive response.
        assert_eq!(assignments[0].1, Time::from_millis(1.0));
        for pair in assignments.windows(2) {
            assert!(pair[1].1 > pair[0].1);
        }
        // The end-to-end bound is the sum of the hops plus the source jitter.
        assert!(hop_sum_matches(&bound));
        assert_eq!(bound.deadline, Time::from_millis(200.0));
        assert_eq!(bound.source_jitter, Time::from_millis(1.0));
    }

    #[test]
    fn bound_is_dominated_by_the_slow_access_links() {
        let (t, fs) = paper_scenario();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let (bound, _) =
            analyze_frame(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0).unwrap();
        // The 10 Mbit/s first hop and last hop dominate the 100 Mbit/s
        // backbone for the 30-fragment I+P frame.
        let first = bound.hops[0].response;
        let backbone = bound.hops[2].response;
        let last = bound.hops[4].response;
        assert!(first > backbone);
        assert!(last > backbone);
        // And the total is sensible: tens of milliseconds, not seconds.
        assert!(bound.bound > Time::from_millis(50.0));
        assert!(bound.bound < Time::from_millis(200.0));
    }

    #[test]
    fn analyze_flow_covers_every_frame() {
        let (t, fs) = paper_scenario();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let (bounds, assignments) =
            analyze_flow(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0)).unwrap();
        assert_eq!(bounds.len(), 9);
        assert_eq!(assignments.len(), 9);
        // The I+P frame (index 0) has the largest bound of the cycle.
        let worst = bounds.iter().map(|b| b.bound).max().unwrap();
        assert_eq!(bounds[0].bound, worst);
        // Smaller B frames have strictly smaller bounds.
        assert!(bounds[1].bound < bounds[0].bound);
        for b in &bounds {
            assert!(hop_sum_matches(b));
        }
    }

    #[test]
    fn single_hop_route_still_gets_a_first_hop_bound() {
        // host0 -> switch4 only (the "destination" is the switch's neighbour
        // host1 via a 2-node route host0 -> ... is not possible; instead use
        // a direct host-to-host cable).
        let mut t = Topology::new();
        let a = t.add_end_host("a");
        let b = t.add_end_host("b");
        t.add_duplex_link(a, b, gmf_net::LinkProfile::ethernet_100m())
            .unwrap();
        let mut fs = FlowSet::new();
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(5.0),
            Time::ZERO,
        );
        fs.add(voice, Route::new(&t, vec![a, b]).unwrap(), Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let (bound, assignments) =
            analyze_frame(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0).unwrap();
        assert_eq!(bound.hops.len(), 1);
        assert_eq!(assignments.len(), 1);
        assert!(bound.bound > Time::ZERO);
        assert!(bound.meets_deadline());
    }

    #[test]
    fn voice_flow_meets_its_deadline_in_the_paper_scenario() {
        let (t, fs) = paper_scenario();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let (bounds, _) =
            analyze_flow(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(1)).unwrap();
        assert_eq!(bounds.len(), 1);
        assert!(
            bounds[0].meets_deadline(),
            "voice bound {}",
            bounds[0].bound
        );
    }

    #[test]
    fn unknown_frame_is_an_error() {
        let (t, fs) = paper_scenario();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        assert!(analyze_frame(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 99).is_err());
    }
}
