//! A deliberately simple *keyed* reference implementation of the holistic
//! fixed point, kept as the oracle the dense-index engine is verified
//! against.
//!
//! [`analyze_reference`] is the paper's plain sequential Picard scheme
//! built from the boundary-level pieces that never went dense: the keyed
//! [`JitterMap`] (tree-map probes and all) and the per-frame keyed stage
//! walk [`crate::pipeline::analyze_flow`].  It performs no parallelism, no
//! warm starts and no round skipping — every flow is re-analysed from the
//! keyed map every round.
//!
//! Its value is being *obviously* faithful to the equations: the
//! property tests in `tests/dense_engine_properties.rs` assert that the
//! production engine — dense tables, arena iterates, Arc-shared reports,
//! dirty-flow skipping, any thread count — returns an
//! [`AnalysisReport`] byte-identical to this one on random workloads.
//! Keep it slow and transparent; do not optimise it.

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, JitterMap};
use crate::error::AnalysisError;
use crate::fixed_point::{ConvergenceTrace, RoundTrace};
use crate::pipeline::analyze_flow;
use crate::report::{AnalysisReport, FlowReport};
use gmf_model::Time;
use gmf_net::{FlowSet, Topology};

/// Run the holistic analysis with the keyed reference engine (sequential
/// Picard; `config.threads` and `config.skip_unchanged_flows` are
/// deliberately ignored).
///
/// Returns exactly what [`crate::fixed_point::analyze`] returns for a Picard
/// run — including the iteration count, the per-round residual trace and
/// the failure attribution.
pub fn analyze_reference(
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

    let mut x = JitterMap::initial(flows);
    let mut trace = ConvergenceTrace::default();
    let mut last_reports: Vec<FlowReport> = Vec::new();
    for iteration in 1..=config.max_holistic_iterations {
        // Evaluate G at x: every flow, sequentially, from the keyed map.
        let mut reports = Vec::with_capacity(flows.len());
        let mut next = JitterMap::initial(flows);
        let mut failed: Option<String> = None;
        for binding in flows.bindings() {
            match analyze_flow(&ctx, &x, config, binding.id) {
                Ok((bounds, assignments)) => {
                    let n_frames = bounds.len();
                    for (frame, frame_assignments) in assignments.iter().enumerate() {
                        for &(resource, jitter) in frame_assignments {
                            next.set(binding.id, resource, frame, jitter, n_frames);
                        }
                    }
                    reports.push(FlowReport {
                        flow: binding.id,
                        name: binding.flow.name().to_string(),
                        frames: bounds,
                    });
                }
                Err(err) if err.is_unschedulable() => {
                    failed = Some(err.to_string());
                    break;
                }
                Err(err) => return Err(err),
            }
        }
        if let Some(failure) = failed {
            // The aborted round still counts as a traced iteration.
            trace.rounds.push(RoundTrace {
                iteration,
                residual: Time::ZERO,
            });
            return Ok(AnalysisReport {
                flows: reports,
                converged: false,
                iterations: iteration,
                schedulable: false,
                failure: Some(failure),
                trace,
            });
        }

        let residual = next.max_abs_diff(&x);
        trace.rounds.push(RoundTrace {
            iteration,
            residual,
        });
        if next.approx_eq(&x) {
            let schedulable = reports.iter().all(|r| r.meets_all_deadlines());
            let failure = if schedulable {
                None
            } else {
                let miss = reports
                    .iter()
                    .filter(|r| !r.meets_all_deadlines())
                    .map(|r| r.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ");
                Some(format!("deadline missed by: {miss}"))
            };
            return Ok(AnalysisReport {
                flows: reports,
                converged: true,
                iterations: iteration,
                schedulable,
                failure,
                trace,
            });
        }
        last_reports = reports;
        x = next;
    }

    Ok(AnalysisReport {
        flows: last_reports,
        converged: false,
        iterations: config.max_holistic_iterations,
        schedulable: false,
        failure: Some(
            AnalysisError::HolisticNoConvergence {
                iterations: config.max_holistic_iterations,
            }
            .to_string(),
        ),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::analyze;
    use gmf_model::{paper_figure3_flow, voip_flow, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    #[test]
    fn reference_equals_dense_engine_on_the_paper_scenario() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let config = AnalysisConfig::paper();
        let reference = analyze_reference(&t, &fs, &config).unwrap();
        let dense = analyze(&t, &fs, &config).unwrap();
        assert_eq!(reference, dense);
        assert!(reference.schedulable);

        // An empty set short-circuits identically.
        let empty = analyze_reference(&t, &FlowSet::new(), &config).unwrap();
        assert_eq!(empty, analyze(&t, &FlowSet::new(), &config).unwrap());
    }

    #[test]
    fn reference_equals_dense_engine_on_unschedulable_sets() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(5.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let config = AnalysisConfig::paper();
        let reference = analyze_reference(&t, &fs, &config).unwrap();
        let dense = analyze(&t, &fs, &config).unwrap();
        assert_eq!(reference, dense);
        assert!(!reference.schedulable);
    }

    #[test]
    fn reference_reports_non_convergence_identically() {
        // A one-round budget on a scenario that needs several rounds.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let config = AnalysisConfig::paper().with_max_holistic_iterations(1);
        let reference = analyze_reference(&t, &fs, &config).unwrap();
        let dense = analyze(&t, &fs, &config).unwrap();
        assert_eq!(reference, dense);
        assert!(!reference.converged);
    }
}
