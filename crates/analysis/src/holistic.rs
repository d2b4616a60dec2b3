//! Holistic (jitter fixed-point) analysis of a whole flow set — the paper's
//! Section "Putting it all together".
//!
//! The per-resource analyses need the generalized jitter of every
//! *interfering* flow at every resource, but those jitters are themselves
//! response times computed by the same analysis.  Following Tindell &
//! Clark's holistic approach, the paper resolves the circularity by
//! iteration:
//!
//! 1. assume the specified jitter at every flow's source and zero jitter at
//!    every downstream resource;
//! 2. analyse every frame of every flow with the Figure 6 pipeline,
//!    recording the jitter each frame accumulates at each resource;
//! 3. if the recorded jitters differ from the assumed ones, repeat with the
//!    new values.
//!
//! Response times are monotone in the assumed jitters and the jitters are
//! monotone in the response times, so the iteration either converges (all
//! jitters stable within the floating-point tolerance) or grows towards the
//! divergence horizon, in which case a per-resource analysis reports
//! overload / horizon excess and the flow set is declared unschedulable.
//!
//! Within one round the flows are analysed independently against the
//! *previous* round's jitters (Jacobi-style), so every round is
//! deterministic and the per-flow analyses are parallelised by the
//! fixed-point engine without changing any result.  The iteration itself —
//! plain Picard rounds, parallel round evaluation, dirty-flow skipping and
//! the per-round [`crate::fixed_point::ConvergenceTrace`] — lives in
//! [`crate::fixed_point`]; this module is the public entry point.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use crate::fixed_point::{self, ConvergenceTrace};
use crate::report::AnalysisReport;
use gmf_net::{FlowSet, Topology};

/// Run the holistic analysis of `flows` on `topology`.
///
/// Returns a report for *every* outcome that is a property of the flow set
/// (schedulable, unschedulable because of overload, non-convergence);
/// returns an error only for structural problems such as a route that does
/// not match the topology.
pub fn analyze(
    topology: &Topology,
    flows: &FlowSet,
    config: &AnalysisConfig,
) -> Result<AnalysisReport, AnalysisError> {
    let ctx = AnalysisContext::new(topology, flows)?;

    if flows.is_empty() {
        return Ok(AnalysisReport {
            flows: Vec::new(),
            converged: true,
            iterations: 0,
            schedulable: true,
            failure: None,
            trace: ConvergenceTrace::default(),
        });
    }

    fixed_point::iterate(&ctx, config).map(|run| run.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::JitterMap;
    use crate::pipeline::analyze_flow;
    use gmf_model::{cbr_flow, paper_figure3_flow, voip_flow, FlowId, Time, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    /// The paper scenario: Figure 3 video from host 0 to host 3, a voice
    /// call from host 1 to host 3, and a voice call from host 2 to host 0
    /// (crossing the backbone in the other direction).
    fn paper_scenario() -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice1 = voip_flow(
            "voice-1-3",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice1,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let voice2 = voip_flow(
            "voice-2-0",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice2,
            shortest_path(&t, net.hosts[2], net.hosts[0]).unwrap(),
            Priority(7),
        );
        (t, fs)
    }

    #[test]
    fn empty_flow_set_is_trivially_schedulable() {
        let (t, _) = paper_figure1();
        let report = analyze(&t, &FlowSet::new(), &AnalysisConfig::paper()).unwrap();
        assert!(report.schedulable);
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.n_frame_bounds(), 0);
    }

    #[test]
    fn paper_scenario_is_schedulable_and_converges() {
        let (t, fs) = paper_scenario();
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(report.converged, "holistic iteration must converge");
        assert!(report.schedulable, "report: {report}");
        assert!(
            report.iterations >= 2,
            "jitter propagation needs at least two rounds"
        );
        assert_eq!(report.flows.len(), 3);
        assert_eq!(report.n_frame_bounds(), 9 + 1 + 1);
        // The video flow's worst frame is the I+P frame.
        let video = report.flow(FlowId(0)).unwrap();
        assert_eq!(video.worst_bound().unwrap(), video.frames[0].bound);
        // Voice keeps single-digit-millisecond bounds across three hops.
        let voice = report.flow(FlowId(1)).unwrap();
        assert!(voice.worst_bound().unwrap() < Time::from_millis(10.0));
    }

    #[test]
    fn holistic_bounds_dominate_first_round_bounds() {
        // Jitter propagation can only increase bounds, so the converged
        // bounds must dominate a single-round analysis with source jitters
        // only.
        let (t, fs) = paper_scenario();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let config = AnalysisConfig::paper();
        let first_round = JitterMap::initial(&fs);
        let report = analyze(&t, &fs, &config).unwrap();
        for binding in fs.bindings() {
            let (round1, _) = analyze_flow(&ctx, &first_round, &config, binding.id).unwrap();
            let converged = &report.flow(binding.id).unwrap().frames;
            for (a, b) in round1.iter().zip(converged) {
                assert!(
                    b.bound + Time::from_nanos(1.0) >= a.bound,
                    "converged bound {} must dominate first-round bound {}",
                    b.bound,
                    a.bound
                );
            }
        }
    }

    #[test]
    fn tight_deadlines_are_reported_as_missed() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        // A video flow whose 5 ms deadline cannot be met across two
        // 10 Mbit/s access links (a single I+P frame takes ~36 ms to
        // serialise on each).
        let video = paper_figure3_flow("video", Time::from_millis(5.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(report.converged);
        assert!(!report.schedulable);
        assert!(report.failure.as_ref().unwrap().contains("video"));
    }

    #[test]
    fn overload_reports_unschedulable_not_error() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        // Three flows that each need ~45% of the 10 Mbit/s access link.
        for i in 0..3 {
            let f = cbr_flow(
                &format!("bulk{i}"),
                55_000,
                Time::from_millis(100.0),
                Time::from_millis(400.0),
                Time::from_millis(1.0),
            );
            fs.add(f, route.clone(), Priority(4));
        }
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(!report.schedulable);
        assert!(report.failure.as_ref().unwrap().contains("overloaded"));
    }

    #[test]
    fn conservative_configuration_dominates_paper_configuration() {
        let (t, fs) = paper_scenario();
        let paper = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        let conservative = analyze(&t, &fs, &AnalysisConfig::conservative()).unwrap();
        assert!(paper.converged && conservative.converged);
        for binding in fs.bindings() {
            let a = paper.flow(binding.id).unwrap().worst_bound().unwrap();
            let b = conservative
                .flow(binding.id)
                .unwrap()
                .worst_bound()
                .unwrap();
            assert!(b + Time::from_nanos(1.0) >= a);
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let (t, fs) = paper_scenario();
        let r1 = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        let r2 = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert_eq!(r1, r2);
    }
}
