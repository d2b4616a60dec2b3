//! The keyed switch-ingress analysis (paper eqs. 21–27): the routing
//! task under round-robin stride scheduling, transcribed equation by
//! equation over the keyed [`JitterMap`].  The production engine's dense
//! ingress stage in `gmf-analysis` is checked against it.

use crate::stage::StageResult;
use gmf_analysis::busy_period::{fixed_point, FixedPointOutcome, MAX_FIXED_POINT_ITERATIONS};
use gmf_analysis::config::AnalysisConfig;
use gmf_analysis::context::{AnalysisContext, JitterMap, ResourceId};
use gmf_analysis::error::{AnalysisError, StageKind};
use gmf_model::{FlowId, Time};
use gmf_net::NodeId;

/// Compute the switch-ingress response-time bound of frame `frame` of
/// `flow` at switch `node`.
pub fn ingress_response(
    ctx: &AnalysisContext<'_>,
    jitters: &JitterMap,
    config: &AnalysisConfig,
    flow: FlowId,
    frame: usize,
    node: NodeId,
) -> Result<StageResult, AnalysisError> {
    let binding = ctx.flows().get(flow)?;
    let prec = binding.route.predecessor(node)?;
    let circ = ctx.topology().circ(node)?;
    let resource = ResourceId::SwitchIngress { node };
    let resource_name = resource.to_string();

    let d_i = ctx.demand(flow, prec, node);
    let tsum_i = d_i.tsum();

    // Flows sharing the incoming link (and therefore the input FIFO and the
    // same routing task).
    let sharing = ctx.flows().flows_on_link(prec, node);
    debug_assert!(sharing.contains(&flow));

    // Long-run demand on the routing task: NSUM_j service rounds per cycle.
    // Not stated as an equation in the paper, but the busy-period iteration
    // cannot converge if it reaches one.
    // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
    let utilization: f64 = sharing
        .iter()
        .map(|&j| {
            let d = ctx.demand(j, prec, node);
            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
            d.nsum() as f64 * circ.as_secs() / d.tsum().as_secs()
        })
        .sum();
    if utilization >= 1.0 {
        return Err(AnalysisError::Overload {
            stage: StageKind::SwitchIngress,
            flow,
            utilization,
            resource: resource_name,
        });
    }

    // extra_j: accumulated jitter of flow j at reception on this node.
    let extras: Vec<(FlowId, Time)> = sharing
        .iter()
        .map(|&j| (j, jitters.max_jitter(j, resource)))
        .collect();

    // Busy period, equation (22).
    let busy_period = match fixed_point(circ, config.horizon, MAX_FIXED_POINT_ITERATIONS, |t| {
        let mut rounds: u64 = 0;
        for (j, extra) in &extras {
            rounds = rounds.saturating_add(ctx.demand(*j, prec, node).nx(t + *extra));
        }
        circ * rounds
    }) {
        FixedPointOutcome::Converged(t) => t,
        FixedPointOutcome::ExceededHorizon { .. } => {
            return Err(AnalysisError::HorizonExceeded {
                stage: StageKind::SwitchIngress,
                flow,
                horizon: config.horizon,
                resource: resource_name,
            })
        }
        FixedPointOutcome::IterationBudgetExhausted { .. } => {
            return Err(AnalysisError::NoConvergence {
                stage: StageKind::SwitchIngress,
                flow,
                iterations: MAX_FIXED_POINT_ITERATIONS,
            })
        }
    };

    let instances = busy_period.div_ceil(tsum_i).max(1);

    // Service rounds charged to the analysed flow itself.
    let own_rounds_per_cycle: u64 = if config.refine { d_i.nsum() } else { 1 };
    let own_rounds_final: u64 = if config.refine {
        d_i.n_ethernet_frames(frame)
    } else {
        1
    };

    let mut worst = Time::ZERO;
    for q in 0..instances {
        let own = circ * q.saturating_mul(own_rounds_per_cycle);
        let w = match fixed_point(own, config.horizon, MAX_FIXED_POINT_ITERATIONS, |w| {
            let mut rounds: u64 = 0;
            for (j, extra) in &extras {
                if *j == flow {
                    continue;
                }
                rounds = rounds.saturating_add(ctx.demand(*j, prec, node).nx(w + *extra));
            }
            own + circ * rounds
        }) {
            FixedPointOutcome::Converged(w) => w,
            FixedPointOutcome::ExceededHorizon { .. } => {
                return Err(AnalysisError::HorizonExceeded {
                    stage: StageKind::SwitchIngress,
                    flow,
                    horizon: config.horizon,
                    resource: resource_name,
                })
            }
            FixedPointOutcome::IterationBudgetExhausted { .. } => {
                return Err(AnalysisError::NoConvergence {
                    stage: StageKind::SwitchIngress,
                    flow,
                    iterations: MAX_FIXED_POINT_ITERATIONS,
                })
            }
        };
        // Equation (25).
        let response = w - tsum_i * q + circ * own_rounds_final;
        worst = worst.max(response);
    }

    Ok(StageResult {
        response: worst,
        busy_period,
        instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow, voip_flow, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority, Topology};

    /// The Figure 3 video flow from host 0 plus `n_voice` voice flows from
    /// host 1; both enter switch 4 but on *different* input interfaces, plus
    /// `n_same_link` voice flows that share host 0's access link with the
    /// video flow.
    fn setup(n_other_interface: usize, n_same_link: usize) -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        fs.add(video, video_route.clone(), Priority(6));
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        for i in 0..n_other_interface {
            let voice = voip_flow(
                &format!("voiceB{i}"),
                VoiceCodec::G711,
                Time::from_millis(20.0),
                Time::from_millis(0.5),
            );
            fs.add(voice, voice_route.clone(), Priority(7));
        }
        for i in 0..n_same_link {
            let voice = voip_flow(
                &format!("voiceA{i}"),
                VoiceCodec::G711,
                Time::from_millis(20.0),
                Time::from_millis(0.5),
            );
            fs.add(voice, video_route.clone(), Priority(7));
        }
        (t, fs)
    }

    const SW4: NodeId = NodeId(4);

    #[test]
    fn isolated_flow_pays_one_service_round_per_paper() {
        let (t, fs) = setup(0, 0);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let circ = t.circ(SW4).unwrap();
        let r =
            ingress_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0, SW4).unwrap();
        // Paper semantics: the packet under analysis is charged exactly one
        // CIRC(N) once its own queueing (w = 0 in isolation) is done.
        assert_eq!(r.response, circ);
        assert!(r.instances >= 1);
    }

    #[test]
    fn refined_ingress_charges_every_own_fragment() {
        let (t, fs) = setup(0, 0);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let circ = t.circ(SW4).unwrap();
        let cfg = AnalysisConfig::conservative();
        // Frame 0 of the paper flow fragments into 30 Ethernet frames.
        let r = ingress_response(&ctx, &jitters, &cfg, FlowId(0), 0, SW4).unwrap();
        assert_eq!(r.response, circ * 30u64);
        // Frame 1 (a B frame) fragments into 6.
        let r = ingress_response(&ctx, &jitters, &cfg, FlowId(0), 1, SW4).unwrap();
        assert_eq!(r.response, circ * 6u64);
    }

    #[test]
    fn flows_on_other_interfaces_do_not_interfere() {
        // The paper's eq. (22) only counts flows sharing the incoming link:
        // the routing task of *our* interface is delayed a fixed CIRC per
        // round regardless of what the other interfaces carry.
        let (t, fs_alone) = setup(0, 0);
        let (_, fs_other) = setup(4, 0);
        let ctx_a = AnalysisContext::new(&t, &fs_alone).unwrap();
        let ctx_b = AnalysisContext::new(&t, &fs_other).unwrap();
        let cfg = AnalysisConfig::paper();
        let ra = ingress_response(
            &ctx_a,
            &JitterMap::initial(&fs_alone),
            &cfg,
            FlowId(0),
            0,
            SW4,
        )
        .unwrap();
        let rb = ingress_response(
            &ctx_b,
            &JitterMap::initial(&fs_other),
            &cfg,
            FlowId(0),
            0,
            SW4,
        )
        .unwrap();
        assert_eq!(ra.response, rb.response);
    }

    #[test]
    fn flows_on_same_link_do_interfere_once_they_carry_jitter() {
        let (t, fs_alone) = setup(0, 0);
        let (_, fs_shared) = setup(0, 3);
        let ctx_a = AnalysisContext::new(&t, &fs_alone).unwrap();
        let ctx_b = AnalysisContext::new(&t, &fs_shared).unwrap();
        let cfg = AnalysisConfig::paper();
        let ra = ingress_response(
            &ctx_a,
            &JitterMap::initial(&fs_alone),
            &cfg,
            FlowId(0),
            0,
            SW4,
        )
        .unwrap();
        // In the very first holistic round the interfering flows have no
        // accumulated jitter at the ingress resource yet, so the bound is
        // identical to the isolated one (NX over a zero window is zero).
        let rb0 = ingress_response(
            &ctx_b,
            &JitterMap::initial(&fs_shared),
            &cfg,
            FlowId(0),
            0,
            SW4,
        )
        .unwrap();
        assert_eq!(rb0.response, ra.response);
        // Once the holistic iteration has propagated jitter to the ingress
        // resource (here injected by hand: 1 ms for every voice flow), each
        // voice packet that can arrive in the window costs one CIRC round.
        let mut jitters = JitterMap::initial(&fs_shared);
        for voice in 1..=3 {
            jitters.set(
                FlowId(voice),
                ResourceId::SwitchIngress { node: SW4 },
                0,
                Time::from_millis(1.0),
                1,
            );
        }
        let rb = ingress_response(&ctx_b, &jitters, &cfg, FlowId(0), 0, SW4).unwrap();
        let circ = t.circ(SW4).unwrap();
        assert!(rb.response > ra.response);
        assert!(rb.response >= ra.response + circ * 3u64);
    }

    #[test]
    fn ingress_errors_for_nodes_off_the_route() {
        let (t, fs) = setup(0, 0);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        // Switch 5 is not on the video flow's route.
        assert!(ingress_response(
            &ctx,
            &jitters,
            &AnalysisConfig::paper(),
            FlowId(0),
            0,
            NodeId(5)
        )
        .is_err());
        // The source host is on the route but has no predecessor.
        assert!(ingress_response(
            &ctx,
            &jitters,
            &AnalysisConfig::paper(),
            FlowId(0),
            0,
            NodeId(0)
        )
        .is_err());
    }

    #[test]
    fn overload_detected_when_circ_cannot_keep_up() {
        // A flow of tiny packets every 10 µs on a gigabit link: each packet
        // needs a 14.8 µs service round, so the routing task cannot keep up.
        let (t, net) = paper_figure1();
        // Rebuild with gigabit access links so the wire itself is not the
        // bottleneck.
        let cfgnet = gmf_net::PaperNetworkConfig {
            access: gmf_net::LinkProfile::ethernet_1g(),
            backbone: gmf_net::LinkProfile::ethernet_1g(),
            ..Default::default()
        };
        let (t2, net2) = gmf_net::paper_figure1_with(cfgnet);
        drop((t, net));
        let mut fs = FlowSet::new();
        let route = shortest_path(&t2, net2.hosts[0], net2.hosts[3]).unwrap();
        let dense = cbr_flow(
            "dense",
            60,
            Time::from_micros(10.0),
            Time::from_millis(1.0),
            Time::ZERO,
        );
        fs.add(dense, route, Priority(7));
        let ctx = AnalysisContext::new(&t2, &fs).unwrap();
        let err = ingress_response(
            &ctx,
            &JitterMap::initial(&fs),
            &AnalysisConfig::paper(),
            FlowId(0),
            0,
            NodeId(4),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::Overload { .. }));
    }

    /// A busy period one tick past a whole number of cycles reaches into
    /// the next cycle, so the stage must check one more instance, however
    /// small the excess is relative to the period.  A 1-frame CBR flow with
    /// period `T = 68·CIRC − 1 ps` and a jitter that pulls 68 of its frames
    /// into the first window converges on a busy period of
    /// `68·CIRC = T + 1 ps`, an excess of 1e-9 of `T`: two instances.
    #[test]
    fn busy_period_one_tick_past_a_cycle_checks_the_next_instance() {
        let (t, net) = paper_figure1();
        let circ = t.circ(SW4).unwrap();
        let period = circ * 68u64 - Time::from_ps(1);
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let mut fs = FlowSet::new();
        let id = fs.add(
            cbr_flow("probe", 100, period, period, Time::ZERO),
            route,
            Priority(5),
        );
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let mut jitters = JitterMap::initial(&fs);
        let resource = ResourceId::SwitchIngress { node: SW4 };
        let jitter = period * 67u64 - Time::from_ps(circ.as_ps() / 2);
        jitters.set(id, resource, 0, jitter, 1);
        let r = ingress_response(&ctx, &jitters, &AnalysisConfig::paper(), id, 0, SW4).unwrap();
        assert_eq!(r.busy_period, period + Time::from_ps(1));
        assert_eq!(r.instances, 2);
    }
}
