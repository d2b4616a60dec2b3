//! The keyed first-hop analysis (paper eqs. 14–20): the source's
//! work-conserving output queue and first link, transcribed equation by
//! equation over the keyed [`JitterMap`].  The production engine's dense
//! first-hop stage in `gmf-analysis` is checked against it.

use crate::stage::StageResult;
use gmf_analysis::busy_period::{fixed_point, FixedPointOutcome, MAX_FIXED_POINT_ITERATIONS};
use gmf_analysis::config::AnalysisConfig;
use gmf_analysis::context::{AnalysisContext, JitterMap, ResourceId};
use gmf_analysis::error::{AnalysisError, StageKind};
use gmf_model::{FlowId, Time};

/// Compute the first-hop response-time bound of frame `frame` of `flow`.
///
/// The jitter of every flow on the first link is taken from `jitters`
/// (the holistic iteration keeps it up to date); for the very first round
/// it is the specified source jitter.
pub fn first_hop_response(
    ctx: &AnalysisContext<'_>,
    jitters: &JitterMap,
    config: &AnalysisConfig,
    flow: FlowId,
    frame: usize,
) -> Result<StageResult, AnalysisError> {
    let binding = ctx.flows().get(flow)?;
    let source = binding.route.source();
    let succ = binding.route.successor(source)?;
    let link = ctx.topology().link_between(source, succ)?;
    let resource = ResourceId::Link {
        from: source,
        to: succ,
    };
    let resource_name = resource.to_string();

    let d_i = ctx.demand(flow, source, succ);
    let c_k = d_i.c(frame);
    let tsum_i = d_i.tsum();

    // All flows transmitting on the first link interfere (any
    // work-conserving queue, priorities are not trusted at the source).
    let all_flows = ctx.flows().flows_on_link(source, succ);
    debug_assert!(all_flows.contains(&flow));

    // Schedulability condition (20).
    let utilization = ctx.link_utilization(&all_flows, source, succ);
    if utilization >= 1.0 {
        return Err(AnalysisError::Overload {
            stage: StageKind::FirstHop,
            flow,
            utilization,
            resource: resource_name,
        });
    }

    // extra_j: the largest generalized jitter of any frame of flow j on
    // this link; under the blocking refinement, other flows' windows are
    // additionally widened by their largest single-frame transmission time
    // (the "enqueued just before us" packet).
    let extras: Vec<(FlowId, Time)> = all_flows
        .iter()
        .map(|&j| {
            let mut extra = jitters.max_jitter(j, resource);
            if config.refine && j != flow {
                extra += ctx.demand(j, source, succ).max_c();
            }
            (j, extra)
        })
        .collect();

    // Busy period, equation (15).
    let busy_period = match fixed_point(c_k, config.horizon, MAX_FIXED_POINT_ITERATIONS, |t| {
        let mut total = Time::ZERO;
        for (j, extra) in &extras {
            total += ctx.demand(*j, source, succ).mx(t + *extra);
        }
        total
    }) {
        FixedPointOutcome::Converged(t) => t,
        FixedPointOutcome::ExceededHorizon { .. } => {
            return Err(AnalysisError::HorizonExceeded {
                stage: StageKind::FirstHop,
                flow,
                horizon: config.horizon,
                resource: resource_name,
            })
        }
        FixedPointOutcome::IterationBudgetExhausted { .. } => {
            return Err(AnalysisError::NoConvergence {
                stage: StageKind::FirstHop,
                flow,
                iterations: MAX_FIXED_POINT_ITERATIONS,
            })
        }
    };

    // Number of instances of frame k inside the busy period.
    let instances = busy_period.div_ceil(tsum_i).max(1);

    // Queueing time and response time per instance, equations (16)–(18).
    let mut worst = Time::ZERO;
    for q in 0..instances {
        let own = d_i.csum() * q;
        let w = match fixed_point(own, config.horizon, MAX_FIXED_POINT_ITERATIONS, |w| {
            let mut total = own;
            for (j, extra) in &extras {
                if *j == flow {
                    continue;
                }
                total += ctx.demand(*j, source, succ).mx(w + *extra);
            }
            total
        }) {
            FixedPointOutcome::Converged(w) => w,
            FixedPointOutcome::ExceededHorizon { .. } => {
                return Err(AnalysisError::HorizonExceeded {
                    stage: StageKind::FirstHop,
                    flow,
                    horizon: config.horizon,
                    resource: resource_name,
                })
            }
            FixedPointOutcome::IterationBudgetExhausted { .. } => {
                return Err(AnalysisError::NoConvergence {
                    stage: StageKind::FirstHop,
                    flow,
                    iterations: MAX_FIXED_POINT_ITERATIONS,
                })
            }
        };
        // Equation (18).
        let response = w - tsum_i * q + c_k;
        worst = worst.max(response);
    }

    // Equation (19): add the propagation delay of the first link.
    Ok(StageResult {
        response: worst + link.propagation,
        busy_period,
        instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow, voip_flow, GmfFlow, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority, Topology};

    /// A flow set on the paper topology where `extra` flows share host 0's
    /// access link with the Figure 3 video flow.
    fn setup(extra_on_same_host: usize) -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        fs.add(video, route.clone(), Priority(6));
        for i in 0..extra_on_same_host {
            let voice = voip_flow(
                &format!("voice{i}"),
                VoiceCodec::G711,
                Time::from_millis(20.0),
                Time::from_millis(0.5),
            );
            fs.add(voice, route.clone(), Priority(7));
        }
        (t, fs)
    }

    #[test]
    fn isolated_flow_first_hop_is_transmission_plus_propagation() {
        let (t, fs) = setup(0);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let config = AnalysisConfig::paper();
        // With no other flow on the link, the bound for frame k is its own
        // transmission time plus propagation (the busy period may span the
        // whole cycle but each instance only waits for itself).
        for k in 0..9 {
            let d = ctx.demand(FlowId(0), gmf_net::NodeId(0), gmf_net::NodeId(4));
            let r = first_hop_response(&ctx, &jitters, &config, FlowId(0), k).unwrap();
            let link = t
                .link_between(gmf_net::NodeId(0), gmf_net::NodeId(4))
                .unwrap();
            assert_eq!(
                r.response,
                d.c(k) + link.propagation,
                "frame {k}: expected isolated bound, got {} vs {}",
                r.response,
                d.c(k) + link.propagation
            );
            assert!(r.instances >= 1);
        }
    }

    #[test]
    fn interference_increases_the_bound() {
        let (t, fs0) = setup(0);
        let (_, fs2) = setup(2);
        let ctx0 = AnalysisContext::new(&t, &fs0).unwrap();
        let ctx2 = AnalysisContext::new(&t, &fs2).unwrap();
        let config = AnalysisConfig::paper();
        let r0 =
            first_hop_response(&ctx0, &JitterMap::initial(&fs0), &config, FlowId(0), 0).unwrap();
        let r2 =
            first_hop_response(&ctx2, &JitterMap::initial(&fs2), &config, FlowId(0), 0).unwrap();
        assert!(
            r2.response > r0.response,
            "two extra voice flows must increase the first-hop bound"
        );
    }

    #[test]
    fn bound_grows_with_interfering_jitter() {
        let (t, fs) = setup(1);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let config = AnalysisConfig::paper();
        let base = JitterMap::initial(&fs);
        let mut jittery = base.clone();
        // Pretend the voice flow has accumulated 5 ms of jitter on the link.
        jittery.set(
            FlowId(1),
            ResourceId::Link {
                from: gmf_net::NodeId(0),
                to: gmf_net::NodeId(4),
            },
            0,
            Time::from_millis(5.0),
            1,
        );
        let r_base = first_hop_response(&ctx, &base, &config, FlowId(0), 0).unwrap();
        let r_jittery = first_hop_response(&ctx, &jittery, &config, FlowId(0), 0).unwrap();
        assert!(r_jittery.response >= r_base.response);
    }

    #[test]
    fn blocking_refinement_is_at_least_as_conservative() {
        let (t, fs) = setup(3);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let paper = AnalysisConfig::paper();
        let conservative = AnalysisConfig::conservative();
        for k in 0..9 {
            let a = first_hop_response(&ctx, &jitters, &paper, FlowId(0), k).unwrap();
            let b = first_hop_response(&ctx, &jitters, &conservative, FlowId(0), k).unwrap();
            assert!(b.response >= a.response);
        }
    }

    #[test]
    fn overload_is_detected() {
        // Ten HD-like video flows through a 10 Mbit/s access link cannot fit.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        for i in 0..10 {
            let f = cbr_flow(
                &format!("bulk{i}"),
                150_000,
                Time::from_millis(100.0),
                Time::from_millis(100.0),
                Time::ZERO,
            );
            fs.add(f, route.clone(), Priority(3));
        }
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let err =
            first_hop_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0).unwrap_err();
        assert!(matches!(err, AnalysisError::Overload { utilization, .. } if utilization >= 1.0));
        assert!(err.is_unschedulable());
    }

    #[test]
    fn near_saturation_still_converges() {
        // A single flow using ~80% of the link converges and the busy period
        // spans several cycles.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        // 10 Mbit/s link; 95 kB every 100 ms ≈ 7.9 Mbit/s of wire traffic.
        let big = cbr_flow(
            "big",
            95_000,
            Time::from_millis(100.0),
            Time::from_millis(500.0),
            Time::from_millis(2.0),
        );
        let small = cbr_flow(
            "small",
            10_000,
            Time::from_millis(100.0),
            Time::from_millis(500.0),
            Time::from_millis(2.0),
        );
        fs.add(big, route.clone(), Priority(5));
        fs.add(small, route, Priority(5));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let r = first_hop_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(1), 0).unwrap();
        // The small flow has to wait behind the big one.
        let d_small = ctx.demand(FlowId(1), gmf_net::NodeId(0), gmf_net::NodeId(4));
        assert!(r.response > d_small.c(0));
        assert!(r.response < Time::from_secs(1.0));
    }

    #[test]
    fn unknown_flow_errors() {
        let (t, fs) = setup(0);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        assert!(
            first_hop_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(7), 0).is_err()
        );
    }

    /// With several identical sporadic flows and zero jitter, the paper's
    /// first-hop bound for a flow equals C (plus propagation) because
    /// `MX(0) = 0`; the refined configuration additionally charges one
    /// maximal frame of another flow.  This pins down the exact semantics of
    /// the refinement flag.
    #[test]
    fn zero_jitter_blocking_semantics() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        for i in 0..2 {
            let f: GmfFlow = cbr_flow(
                &format!("cbr{i}"),
                1_000,
                Time::from_millis(10.0),
                Time::from_millis(10.0),
                Time::ZERO,
            );
            fs.add(f, route.clone(), Priority(5));
        }
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let jitters = JitterMap::initial(&fs);
        let link = t
            .link_between(gmf_net::NodeId(0), gmf_net::NodeId(4))
            .unwrap();
        let d = ctx.demand(FlowId(0), gmf_net::NodeId(0), gmf_net::NodeId(4));

        let paper =
            first_hop_response(&ctx, &jitters, &AnalysisConfig::paper(), FlowId(0), 0).unwrap();
        assert_eq!(paper.response, d.c(0) + link.propagation);

        let refined = first_hop_response(
            &ctx,
            &jitters,
            &AnalysisConfig::conservative(),
            FlowId(0),
            0,
        )
        .unwrap();
        assert_eq!(refined.response, d.c(0) * 2u64 + link.propagation);
    }
}
