//! The cold oracle the admission property tests compare decisions with: a
//! from-scratch fixed point over the live flows plus the candidate,
//! started from the paper's initial map.

use gmfnet::analysis::{
    iterate_from, AdmissionDecision, AdmissionRequest, AdmissionVictim, AnalysisConfig,
    AnalysisContext, AnalysisReport, FixedPointRun, JitterMap,
};
use gmfnet::model::FlowId;
use gmfnet::net::{FlowSet, Topology};

/// A cold replay of an admission controller's decisions.  `live` mirrors
/// the controller's accepted set, id counter included, so every trial
/// analyses exactly the set the controller decides on.
pub struct ColdReference {
    pub topology: Topology,
    pub config: AnalysisConfig,
    pub live: FlowSet,
}

impl ColdReference {
    /// Analyse `live` ∪ {`request`} cold and admit the candidate when the
    /// trial is schedulable.  Every request consumes one id, accepted or
    /// not, as in the controller.  Returns the candidate's id and the run.
    pub fn decide(&mut self, request: &AdmissionRequest) -> (FlowId, FixedPointRun) {
        let mut trial = self.live.clone();
        let id = trial.add_with_encapsulation(
            request.flow().clone(),
            request.route().clone(),
            request.priority(),
            request.encapsulation(),
        );
        let ctx = AnalysisContext::new(&self.topology, &trial).unwrap();
        let run = iterate_from(&ctx, &self.config, JitterMap::initial(&trial)).unwrap();
        drop(ctx);
        if run.report.schedulable {
            self.live = trial;
        } else {
            self.live.reserve_ids(1);
        }
        (id, run)
    }
}

/// Assert that `decision` is the one the cold `reference` of candidate
/// `id` implies: same id and verdict, same failure string, the victim read
/// off the reference's missed flows, and every bound of the decision's
/// (shard-scoped) report equal to the reference's entry bytewise.
pub fn assert_matches_cold(
    decision: &AdmissionDecision,
    id: FlowId,
    reference: &AnalysisReport,
    context: &str,
) {
    assert_eq!(decision.id(), id, "{context}");
    assert_eq!(decision.is_accepted(), reference.schedulable, "{context}");
    assert_eq!(decision.report().failure, reference.failure, "{context}");
    assert_eq!(
        decision.report().converged,
        reference.converged,
        "{context}"
    );
    for flow in &decision.report().flows {
        assert_eq!(
            Some(flow),
            reference.flow(flow.flow),
            "{context}: the shard report must project out of the cold report"
        );
    }
    if let AdmissionDecision::Rejected { reason, victim, .. } = decision {
        assert_eq!(Some(reason), reference.failure.as_ref(), "{context}");
        assert_eq!(*victim, expected_victim(reference, id), "{context}");
    }
}

/// Who misses deadlines in a converged trial; `None` for aborted or
/// non-converged trials, whose partial bounds attribute nothing.
fn expected_victim(reference: &AnalysisReport, candidate: FlowId) -> Option<AdmissionVictim> {
    if !reference.converged {
        return None;
    }
    let missed = reference.missed_flows();
    let existing: Vec<FlowId> = missed.iter().copied().filter(|&f| f != candidate).collect();
    match (missed.contains(&candidate), existing.is_empty()) {
        (true, true) => Some(AdmissionVictim::Candidate),
        (true, false) => Some(AdmissionVictim::Both { flows: existing }),
        (false, false) => Some(AdmissionVictim::Existing { flows: existing }),
        (false, true) => None,
    }
}
