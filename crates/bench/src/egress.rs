//! The keyed switch-egress analysis (paper eqs. 28–35): the prioritized
//! output queue, the send task and the link, transcribed equation by
//! equation over the keyed [`JitterMap`].  The production engine's dense
//! egress stage in `gmf-analysis` is checked against it.

use crate::stage::StageResult;
use gmf_analysis::busy_period::{fixed_point, FixedPointOutcome, MAX_FIXED_POINT_ITERATIONS};
use gmf_analysis::config::AnalysisConfig;
use gmf_analysis::context::{AnalysisContext, JitterMap, ResourceId};
use gmf_analysis::error::{AnalysisError, StageKind};
use gmf_model::{FlowId, Time};
use gmf_net::NodeId;

/// Compute the egress (priority queue → transmission → reception at the
/// next node) response-time bound of frame `frame` of `flow` at switch
/// `node`.
pub fn egress_response(
    ctx: &AnalysisContext<'_>,
    jitters: &JitterMap,
    config: &AnalysisConfig,
    flow: FlowId,
    frame: usize,
    node: NodeId,
) -> Result<StageResult, AnalysisError> {
    let binding = ctx.flows().get(flow)?;
    let succ = binding.route.successor(node)?;
    let link = ctx.topology().link_between(node, succ)?;
    let circ = ctx.topology().circ(node)?;
    let resource = ResourceId::Link {
        from: node,
        to: succ,
    };
    let resource_name = resource.to_string();

    let d_i = ctx.demand(flow, node, succ);
    let c_k = d_i.c(frame);
    let n_k = d_i.n_ethernet_frames(frame);
    let tsum_i = d_i.tsum();
    let mft = d_i.mft();
    let refine = config.refine;
    // Per-own-Ethernet-frame charges under the refinement.  The printed
    // equations charge one MFT of non-preemptive blocking and no send-task
    // service wait for the packet's own frames; in the Click switch every
    // own Ethernet frame (a) can be blocked by a lower-priority frame that
    // started in its inter-fragment gap (one MFT each) and (b) waits up to
    // one stride round `CIRC(N)` for its send task's turn once the NIC is
    // idle.  Both repeat for every whole-cycle instance ahead of us in the
    // busy period.
    let own_frame_cost = mft + circ;
    let blocking_k = if refine { own_frame_cost * n_k } else { mft };
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

    // Higher-or-equal priority flows on the same output link (eq. 2).
    let hep = ctx.flows().hep(flow, node, succ)?;

    // Schedulability condition (34), extended with the CIRC cost of serving
    // each higher-priority Ethernet frame through the send task.
    // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
    let utilization: f64 = hep
        .iter()
        .map(|&j| {
            let d = ctx.demand(j, node, succ);
            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
            (d.csum().as_secs() + d.nsum() as f64 * circ.as_secs()) / d.tsum().as_secs()
        })
        .sum();
    if utilization >= 1.0 {
        return Err(AnalysisError::Overload {
            stage: StageKind::EgressLink,
            flow,
            utilization,
            resource: resource_name,
        });
    }

    // extra_j: accumulated jitter of flow j on this output link.
    let extras: Vec<(FlowId, Time)> = hep
        .iter()
        .map(|&j| (j, jitters.max_jitter(j, resource)))
        .collect();

    // Busy period, equations (28)–(29).
    let interference = |window_base: Time, extras: &[(FlowId, Time)]| -> Time {
        let mut total = Time::ZERO;
        for (j, extra) in extras {
            let d = ctx.demand(*j, node, succ);
            let window = window_base + *extra;
            total = total + d.mx(window) + circ * d.nx(window);
        }
        total
    };

    let busy_period =
        match fixed_point(busy_seed, config.horizon, MAX_FIXED_POINT_ITERATIONS, |t| {
            busy_seed + interference(t, &extras)
        }) {
            FixedPointOutcome::Converged(t) => t,
            FixedPointOutcome::ExceededHorizon { .. } => {
                return Err(AnalysisError::HorizonExceeded {
                    stage: StageKind::EgressLink,
                    flow,
                    horizon: config.horizon,
                    resource: resource_name,
                })
            }
            FixedPointOutcome::IterationBudgetExhausted { .. } => {
                return Err(AnalysisError::NoConvergence {
                    stage: StageKind::EgressLink,
                    flow,
                    iterations: MAX_FIXED_POINT_ITERATIONS,
                })
            }
        };

    let instances = busy_period.div_ceil(tsum_i).max(1);

    // Queueing time and response per instance, equations (30)–(32).  Under
    // the own-frames refinement a *fragmented* frame keeps its own
    // transmission inside the interference window (higher-or-equal-priority
    // frames arriving during the multi-fragment transmission are dequeued
    // between fragments); the printed form adds `C_i^k` after the fixed
    // point, which is exact only for single-frame packets.
    let mut worst = Time::ZERO;
    for q in 0..instances {
        let own = blocking_k + cycle_extra * q;
        let fragmented = refine && n_k > 1;
        let seed = if fragmented { own + c_k } else { own };
        let w = match fixed_point(seed, config.horizon, MAX_FIXED_POINT_ITERATIONS, |w| {
            seed + interference(w, &extras)
        }) {
            FixedPointOutcome::Converged(w) => w,
            FixedPointOutcome::ExceededHorizon { .. } => {
                return Err(AnalysisError::HorizonExceeded {
                    stage: StageKind::EgressLink,
                    flow,
                    horizon: config.horizon,
                    resource: resource_name,
                })
            }
            FixedPointOutcome::IterationBudgetExhausted { .. } => {
                return Err(AnalysisError::NoConvergence {
                    stage: StageKind::EgressLink,
                    flow,
                    iterations: MAX_FIXED_POINT_ITERATIONS,
                })
            }
        };
        let response = if fragmented {
            w - tsum_i * q
        } else {
            w - tsum_i * q + c_k
        };
        worst = worst.max(response);
    }

    // Equation (33): add the propagation delay of the output link.
    Ok(StageResult {
        response: worst + link.propagation,
        busy_period,
        instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow, voip_flow, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority, Topology};

    const SW4: NodeId = NodeId(4);
    const SW6: NodeId = NodeId(6);

    /// Video (priority 6) from host 0 and `n_voice` voice flows
    /// (priority 7) from host 1, all towards host 3 — they share the
    /// switch4 → switch6 and switch6 → host3 links.
    fn setup(n_voice: usize, voice_priority: Priority) -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(200.0), Time::from_millis(1.0));
        fs.add(video, video_route, Priority(6));
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        for i in 0..n_voice {
            let voice = voip_flow(
                &format!("voice{i}"),
                VoiceCodec::G711,
                Time::from_millis(20.0),
                Time::from_millis(0.5),
            );
            fs.add(voice, voice_route.clone(), voice_priority);
        }
        (t, fs)
    }

    #[test]
    fn isolated_flow_pays_blocking_and_transmission() {
        let (t, fs) = setup(0, Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let r =
            egress_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0, SW4).unwrap();
        let d = ctx.demand(FlowId(0), SW4, SW6);
        let link = t.link_between(SW4, SW6).unwrap();
        // Bound = MFT (blocking) + own transmission + propagation.
        assert_eq!(r.response, d.mft() + d.c(0) + link.propagation);
    }

    #[test]
    fn higher_priority_voice_interferes_with_video() {
        let (t, fs) = setup(3, Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        // Give the voice flows some accumulated jitter on the shared link so
        // the interference windows are non-degenerate (as the holistic
        // iteration would).
        let mut jitters = JitterMap::initial(&fs);
        for v in 1..=3 {
            jitters.set(
                FlowId(v),
                ResourceId::Link { from: SW4, to: SW6 },
                0,
                Time::from_millis(2.0),
                1,
            );
        }
        let cfg = AnalysisConfig::paper();
        let r = egress_response(&ctx, &jitters, &cfg, FlowId(0), 0, SW4).unwrap();
        let d_video = ctx.demand(FlowId(0), SW4, SW6);
        let d_voice = ctx.demand(FlowId(1), SW4, SW6);
        let circ = t.circ(SW4).unwrap();
        let link = t.link_between(SW4, SW6).unwrap();
        // At least: blocking + 3 voice packets (transmission + CIRC each) +
        // own transmission + propagation.
        let floor = d_video.mft() + (d_voice.c(0) + circ) * 3u64 + d_video.c(0) + link.propagation;
        assert!(
            r.response >= floor,
            "bound {} must cover the floor {}",
            r.response,
            floor
        );
    }

    #[test]
    fn lower_priority_flows_do_not_interfere() {
        // Same set-up but the voice flows are *lower* priority than video:
        // only the MFT blocking term remains.
        let (t, fs) = setup(3, Priority(2));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let mut jitters = JitterMap::initial(&fs);
        for v in 1..=3 {
            jitters.set(
                FlowId(v),
                ResourceId::Link { from: SW4, to: SW6 },
                0,
                Time::from_millis(2.0),
                1,
            );
        }
        let r =
            egress_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0, SW4).unwrap();
        let d = ctx.demand(FlowId(0), SW4, SW6);
        let link = t.link_between(SW4, SW6).unwrap();
        assert_eq!(r.response, d.mft() + d.c(0) + link.propagation);
    }

    #[test]
    fn equal_priority_flows_do_interfere() {
        // hep() includes equal-priority flows, so video at the same priority
        // as the voice flows still pays for them.
        let (t, fs_low) = setup(3, Priority(2));
        let (_, fs_eq) = setup(3, Priority(6));
        let ctx_low = AnalysisContext::new(&t, &fs_low).unwrap();
        let ctx_eq = AnalysisContext::new(&t, &fs_eq).unwrap();
        let mk_jitters = |fs: &FlowSet| {
            let mut j = JitterMap::initial(fs);
            for v in 1..=3 {
                j.set(
                    FlowId(v),
                    ResourceId::Link { from: SW4, to: SW6 },
                    0,
                    Time::from_millis(2.0),
                    1,
                );
            }
            j
        };
        let cfg = AnalysisConfig::paper();
        let r_low =
            egress_response(&ctx_low, &mk_jitters(&fs_low), &cfg, FlowId(0), 0, SW4).unwrap();
        let r_eq = egress_response(&ctx_eq, &mk_jitters(&fs_eq), &cfg, FlowId(0), 0, SW4).unwrap();
        assert!(r_eq.response > r_low.response);
    }

    #[test]
    fn own_frames_refinement_charges_fragmented_transmission_windows() {
        // The paper-scenario video's I+P frame fragments into dozens of
        // Ethernet frames: under the own-frames refinement its interference
        // window covers its own multi-fragment transmission (during which
        // higher-priority voice packets keep arriving and preempting
        // between fragments) and every fragment pays a fresh blocking
        // opportunity plus one stride round for its own send-task service —
        // the bound grows strictly.  The printed equations treat the packet
        // as an atom after `w(q)` and never charge its own CIRC waits.
        let (t, fs) = setup(3, Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let mut jitters = JitterMap::initial(&fs);
        for v in 1..=3 {
            jitters.set(
                FlowId(v),
                ResourceId::Link { from: SW4, to: SW6 },
                0,
                Time::from_millis(2.0),
                1,
            );
        }
        let printed = AnalysisConfig::paper();
        // The refinement switch; the egress stage reads only its
        // own-frames part.
        let refined = AnalysisConfig::conservative();
        let r_printed = egress_response(&ctx, &jitters, &printed, FlowId(0), 0, SW4).unwrap();
        let r_refined = egress_response(&ctx, &jitters, &refined, FlowId(0), 0, SW4).unwrap();
        assert!(
            r_refined.response > r_printed.response,
            "refined {} must exceed printed {}",
            r_refined.response,
            r_printed.response
        );
        // The growth covers at least the extra per-fragment blocking plus
        // one CIRC send-wait per own Ethernet frame.
        let d = ctx.demand(FlowId(0), SW4, SW6);
        let circ = t.circ(SW4).unwrap();
        let n0 = d.n_ethernet_frames(0);
        let floor = d.mft() * (n0 - 1) + circ * n0;
        assert!(r_refined.response >= r_printed.response + floor);

        // A single-frame packet in a one-instance busy period gains exactly
        // its own send-task stride-round wait (one CIRC): the printed form
        // is otherwise already sound for unfragmented frames.
        let r_voice_printed = egress_response(&ctx, &jitters, &printed, FlowId(1), 0, SW4).unwrap();
        let r_voice_refined = egress_response(&ctx, &jitters, &refined, FlowId(1), 0, SW4).unwrap();
        if r_voice_printed.instances == 1 && r_voice_refined.instances == 1 {
            assert!(r_voice_refined.response >= r_voice_printed.response + circ);
        } else {
            assert!(r_voice_refined.response >= r_voice_printed.response);
        }
    }

    #[test]
    fn second_switch_uses_its_own_link_speed() {
        let (t, fs) = setup(0, Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let cfg = AnalysisConfig::paper();
        // switch6 -> host3 is a 10 Mbit/s access link, so the bound there is
        // larger than on the 100 Mbit/s backbone.
        let r_backbone = egress_response(&ctx, &jitters, &cfg, FlowId(0), 0, SW4).unwrap();
        let r_access = egress_response(&ctx, &jitters, &cfg, FlowId(0), 0, SW6).unwrap();
        assert!(r_access.response > r_backbone.response);
    }

    #[test]
    fn overload_by_higher_priority_traffic_detected() {
        // Enough high-priority HD video through the shared 100 Mbit/s
        // backbone link to saturate it.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let victim = cbr_flow(
            "victim",
            1000,
            Time::from_millis(10.0),
            Time::from_millis(50.0),
            Time::ZERO,
        );
        fs.add(victim, video_route, Priority(1));
        let cross_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        for i in 0..12 {
            // ~11.8 Mbit/s of wire traffic each.
            let hp = cbr_flow(
                &format!("hp{i}"),
                146_000,
                Time::from_millis(100.0),
                Time::from_millis(200.0),
                Time::ZERO,
            );
            fs.add(hp, cross_route.clone(), Priority(7));
        }
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let err = egress_response(
            &ctx,
            &JitterMap::initial(&fs),
            &AnalysisConfig::paper(),
            FlowId(0),
            0,
            SW4,
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::Overload { .. }));
    }

    #[test]
    fn errors_for_destination_node() {
        let (t, fs) = setup(0, Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        // host3 has no successor on the route.
        assert!(egress_response(
            &ctx,
            &jitters,
            &AnalysisConfig::paper(),
            FlowId(0),
            0,
            NodeId(3)
        )
        .is_err());
    }
}
