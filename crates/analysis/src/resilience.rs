//! Survivability analysis: "does the network *stay* schedulable after a
//! failure?"
//!
//! The paper answers schedulability for a fixed topology.  This module
//! answers the operational follow-up: given an admitted flow set, enumerate
//! every single-failure scenario — each full-duplex cable cut, each switch
//! CPU degraded by each configured factor — and decide for each one whether
//! the surviving network still carries every flow within its deadline.
//!
//! # The incremental sweep
//!
//! A cold answer would re-run the whole holistic analysis once per scenario.
//! [`SurvivabilityAnalysis`] instead reuses the admission plane's warm
//! machinery, per scenario:
//!
//! 1. apply the fault to a scratch copy of the topology and materialise the
//!    [`gmf_net::SurvivorView`];
//! 2. *release* — in one [`AdmissionController::release_batch`] — every
//!    shard that contains a flow touching a dirty node (a failed cable's
//!    endpoint or a degraded switch): exactly the flows whose bounds the
//!    failure (or the departures and re-routes it forces) can change;
//! 3. [`AdmissionController::rebase`] the controller onto the survivor
//!    topology — sound because every retained flow's route provably
//!    traverses only unchanged hardware, so the warm cache stays valid
//!    verbatim;
//! 4. re-admit the released flows in ascending id order through the warm,
//!    shard-scoped [`AdmissionController::request_batch`] — severed flows
//!    over their shortest-path fallback route
//!    ([`gmf_net::reroute_severed`]), the rest over their original route;
//!    stranded flows (no surviving route) stay out.
//!
//! # Why incremental equals cold
//!
//! The verdict must be byte-identical to a cold [`crate::fixed_point::analyze`]
//! of the re-routed survivor set.  Two established properties carry the
//! argument:
//!
//! * **warm == cold per trial** (PRs 3/7, property-tested): every warm
//!   shard-scoped trial decision and bound is byte-identical to a cold
//!   analysis of the same trial set;
//! * **monotonicity in the flow set**: adding a flow never decreases any
//!   bound, so every subset of a schedulable set is schedulable.
//!
//! If the cold survivor set is schedulable, each re-admission's trial set is
//! a subset of it, hence schedulable — every re-admission is accepted and
//! the final per-shard state is the cold analysis of the survivor set.  If
//! every re-admission is accepted, the final accepted set *is* the survivor
//! set and its per-shard warm analyses certify it schedulable.
//! Contrapositively both directions agree on "not schedulable", and at least
//! one re-admission is rejected in that case.

use crate::admission::{AdmissionController, AdmissionRequest, PreloadStats};
use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::report::AnalysisReport;
use gmf_model::{FlowId, Time};
use gmf_net::{reroute_severed, FlowSet, NetError, NodeId, Route, SwitchConfig, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One injectable single-failure scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureScenario {
    /// The full-duplex cable between the two nodes is cut (both directions).
    CableCut {
        /// One cable endpoint (the smaller node id, by construction).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The switch's CPU slows down: its installed `CROUTE`/`CSEND` are
    /// multiplied by `factor` (thermal throttling, a failed core's load
    /// landing on the survivor, ...).
    SwitchDegrade {
        /// The degraded switch.
        switch: NodeId,
        /// The integer slowdown factor (≥ 2 to model a real degradation).
        factor: u64,
    },
}

impl FailureScenario {
    /// Record this fault in the topology's failure overlay.
    pub fn apply(&self, topology: &mut Topology) -> Result<(), NetError> {
        match self {
            FailureScenario::CableCut { a, b } => topology.fail_link(*a, *b),
            FailureScenario::SwitchDegrade { switch, factor } => {
                let installed = *topology
                    .switch_config(*switch)
                    .ok_or(NetError::NotASwitch(*switch))?;
                let degraded = SwitchConfig {
                    croute: installed.croute * *factor,
                    csend: installed.csend * *factor,
                    processors: installed.processors,
                };
                topology.degrade_switch(*switch, degraded).map(|_| ())
            }
        }
    }

    /// A short deterministic label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            FailureScenario::CableCut { a, b } => format!("cut({},{})", a.0, b.0),
            FailureScenario::SwitchDegrade { switch, factor } => {
                format!("degrade({},x{})", switch.0, factor)
            }
        }
    }

    /// The scenario family, for aggregated tables.
    pub fn kind(&self) -> &'static str {
        match self {
            FailureScenario::CableCut { .. } => "cable-cut",
            FailureScenario::SwitchDegrade { .. } => "cpu-degrade",
        }
    }
}

/// Enumerate every single-failure scenario of a topology: one
/// [`FailureScenario::CableCut`] per full-duplex cable (unordered endpoint
/// pair, ascending) followed by one [`FailureScenario::SwitchDegrade`] per
/// switch per entry of `degrade_factors` (switches ascending, factors in the
/// order given).
pub fn single_failure_scenarios(
    topology: &Topology,
    degrade_factors: &[u64],
) -> Vec<FailureScenario> {
    let mut cables: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for link in topology.links() {
        let key = if link.src <= link.dst {
            (link.src, link.dst)
        } else {
            (link.dst, link.src)
        };
        cables.insert(key);
    }
    let mut scenarios: Vec<FailureScenario> = cables
        .into_iter()
        .map(|(a, b)| FailureScenario::CableCut { a, b })
        .collect();
    for switch in topology.switches() {
        for &factor in degrade_factors {
            scenarios.push(FailureScenario::SwitchDegrade { switch, factor });
        }
    }
    scenarios
}

/// The verdict of one failure scenario, produced by the incremental path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureVerdict {
    /// The scenario this verdict is about.
    pub scenario: FailureScenario,
    /// `true` if no flow is stranded *and* the survivor set is schedulable:
    /// the network absorbs the failure with every admitted flow intact.
    pub survivable: bool,
    /// `true` if the re-routed survivor set (stranded flows dropped) is
    /// schedulable — byte-identical to a cold analysis of that set.
    pub survivor_schedulable: bool,
    /// Flows with no surviving route (original ids, ascending).
    pub stranded: Vec<FlowId>,
    /// Severed flows that found a fallback route (original ids, ascending).
    pub rerouted: Vec<FlowId>,
    /// Re-admissions the survivor network rejected (original ids).
    pub rejected: Vec<FlowId>,
    /// How many flows the incremental path released and re-verified — the
    /// sweep's unit of work, versus `n_accepted` for a cold re-analysis.
    pub reverified: usize,
    /// The survivor set's smallest worst-case slack when it is schedulable
    /// (how much headroom the failure leaves), `None` otherwise.
    pub margin: Option<Time>,
    /// Per-flow per-frame response-time bounds of the survivor set, keyed
    /// by *original* flow id — populated only when the survivor set is
    /// schedulable (partial bounds are not comparable).
    pub bounds: BTreeMap<FlowId, Vec<Time>>,
    /// Original id → trial id of every re-admitted flow, in request order.
    pub id_map: Vec<(FlowId, FlowId)>,
    /// Total holistic rounds across the scenario's re-admissions.
    pub rounds: usize,
    /// Total per-flow pipeline analyses across the re-admissions.
    pub flow_analyses: usize,
}

/// A cold-path verdict of the same scenario, for cross-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdVerdict {
    /// `true` if the cold analysis of the re-routed survivor set is
    /// schedulable.
    pub schedulable: bool,
    /// Flows with no surviving route (original ids, ascending).
    pub stranded: Vec<FlowId>,
    /// The survivor set's smallest worst-case slack when schedulable.
    pub margin: Option<Time>,
    /// Per-flow per-frame bounds, keyed by original flow id (populated
    /// only when schedulable, mirroring [`FailureVerdict::bounds`]).
    pub bounds: BTreeMap<FlowId, Vec<Time>>,
    /// The full cold report of the survivor set.
    pub report: AnalysisReport,
}

/// The outcome of a whole single-failure sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurvivabilityReport {
    /// One verdict per scenario, in scenario order.
    pub verdicts: Vec<FailureVerdict>,
}

impl SurvivabilityReport {
    /// Number of scenarios assessed.
    pub fn n_scenarios(&self) -> usize {
        self.verdicts.len()
    }

    /// Scenarios the network absorbs with every flow intact.
    pub fn n_survivable(&self) -> usize {
        self.verdicts.iter().filter(|v| v.survivable).count()
    }

    /// Scenarios that strand at least one flow.
    pub fn n_stranding(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| !v.stranded.is_empty())
            .count()
    }

    /// The tightest margin over all survivable scenarios — the failure that
    /// leaves the least headroom.
    pub fn worst_margin(&self) -> Option<Time> {
        self.verdicts
            .iter()
            .filter(|v| v.survivable)
            .filter_map(|v| v.margin)
            .min()
    }

    /// Total holistic rounds across every scenario's re-admissions.
    pub fn total_rounds(&self) -> usize {
        self.verdicts.iter().map(|v| v.rounds).sum()
    }

    /// Total per-flow analyses across every scenario's re-admissions.
    pub fn total_flow_analyses(&self) -> usize {
        self.verdicts.iter().map(|v| v.flow_analyses).sum()
    }

    /// Total flows released + re-verified across scenarios.
    pub fn total_reverified(&self) -> usize {
        self.verdicts.iter().map(|v| v.reverified).sum()
    }
}

/// The survivability analysis of one admitted flow set: a pristine warm
/// [`AdmissionController`] that each scenario assessment clones, mutates
/// and discards — the sweep never pays for more than the failure's shards.
#[derive(Debug, Clone)]
pub struct SurvivabilityAnalysis {
    controller: AdmissionController,
}

impl SurvivabilityAnalysis {
    /// Verify `accepted` on `topology` (shard-parallel, like
    /// [`AdmissionController::with_accepted`]) and seed the pristine warm
    /// state every scenario starts from.
    pub fn new(
        topology: Topology,
        accepted: FlowSet,
        config: AnalysisConfig,
    ) -> Result<(Self, PreloadStats), AnalysisError> {
        let (controller, stats) = AdmissionController::with_accepted(topology, accepted, config)?;
        Ok((SurvivabilityAnalysis { controller }, stats))
    }

    /// The pristine baseline controller.
    pub fn controller(&self) -> &AdmissionController {
        &self.controller
    }

    /// Assess one failure scenario incrementally (steps 1–4 of the module
    /// docs): release the affected shards, rebase onto the survivor,
    /// re-admit rerouted and re-verified flows warm, and report the
    /// verdict with margins and per-flow bounds.
    pub fn assess(&self, scenario: &FailureScenario) -> Result<FailureVerdict, AnalysisError> {
        let mut faulty = self.controller.topology().clone();
        scenario.apply(&mut faulty).map_err(AnalysisError::Net)?;
        let survivor = faulty.survivor();
        let accepted = self.controller.accepted();

        // Everything the failure can influence: the full shard of every
        // flow that touches a dirty node.  Releasing whole shards keeps
        // the remaining cache exactly valid (release_batch's invalidation
        // union stays inside the released set), so every retained flow's
        // cached report is still the cold truth after the rebase.
        let touched = survivor.affected_flows(accepted);
        let mut release: BTreeSet<FlowId> = BTreeSet::new();
        for &id in &touched {
            match self
                .controller
                .partition()
                .shard_of(id)
                .and_then(|shard| self.controller.partition().shard_flows(shard))
            {
                Some(members) => release.extend(members.iter().copied()),
                None => {
                    release.insert(id);
                }
            }
        }
        let release_order: Vec<FlowId> = release.iter().copied().collect();

        let outcomes = reroute_severed(&survivor, accepted);
        let stranded: Vec<FlowId> = outcomes
            .iter()
            .filter(|o| o.is_stranded())
            .map(|o| o.id())
            .collect();
        let mut fallback_routes: BTreeMap<FlowId, Route> = outcomes
            .iter()
            .filter_map(|o| o.route().map(|r| (o.id(), r.clone())))
            .collect();
        let rerouted: Vec<FlowId> = fallback_routes.keys().copied().collect();

        let mut ctl = self.controller.clone();
        ctl.release_batch(&release_order)?;
        ctl.rebase(survivor.topology().clone())?;

        let stranded_set: BTreeSet<FlowId> = stranded.iter().copied().collect();
        let mut originals: Vec<FlowId> = Vec::with_capacity(release_order.len());
        let mut requests: Vec<AdmissionRequest> = Vec::with_capacity(release_order.len());
        for &id in &release_order {
            if stranded_set.contains(&id) {
                continue;
            }
            let binding = accepted.get(id).map_err(AnalysisError::Net)?;
            let route = fallback_routes
                .remove(&id)
                .unwrap_or_else(|| binding.route.clone());
            originals.push(id);
            requests.push(
                AdmissionRequest::new(binding.flow.clone(), route, binding.priority)
                    .with_encapsulation(binding.encapsulation),
            );
        }
        let decisions = ctl.request_batch(requests)?;

        let mut rejected: Vec<FlowId> = Vec::new();
        let mut id_map: Vec<(FlowId, FlowId)> = Vec::with_capacity(decisions.len());
        let mut rounds = 0usize;
        let mut flow_analyses = 0usize;
        for (&original, decision) in originals.iter().zip(&decisions) {
            id_map.push((original, decision.id()));
            rounds += decision.cost().rounds;
            flow_analyses += decision.cost().flow_analyses;
            if !decision.is_accepted() {
                rejected.push(original);
            }
        }
        let survivor_schedulable = rejected.is_empty();
        let survivable = survivor_schedulable && stranded.is_empty();

        // Margins and bounds, keyed back to original ids.  The cached
        // reports cover the whole survivor set here (retained flows kept
        // theirs, re-admissions refreshed the rest); if the cache was
        // dropped along the way (possible only without dependency
        // information), fall back to one explicit re-analysis.
        let mut margin = None;
        let mut bounds: BTreeMap<FlowId, Vec<Time>> = BTreeMap::new();
        if survivor_schedulable {
            let back: BTreeMap<FlowId, FlowId> =
                id_map.iter().map(|&(orig, new)| (new, orig)).collect();
            let cached: BTreeMap<FlowId, Vec<Time>> = ctl
                .cached_reports()
                .map(|(id, report)| (id, report.frames.iter().map(|f| f.bound).collect()))
                .collect();
            let complete = cached.len() == ctl.n_accepted();
            let slacks_and_bounds: Vec<(FlowId, Option<Time>, Vec<Time>)> = if complete {
                ctl.cached_reports()
                    .map(|(id, report)| {
                        (
                            *back.get(&id).unwrap_or(&id),
                            report.worst_slack(),
                            report.frames.iter().map(|f| f.bound).collect(),
                        )
                    })
                    .collect()
            } else {
                let report = ctl.reanalyze()?;
                report
                    .flows
                    .iter()
                    .map(|flow| {
                        (
                            *back.get(&flow.flow).unwrap_or(&flow.flow),
                            flow.worst_slack(),
                            flow.frames.iter().map(|f| f.bound).collect(),
                        )
                    })
                    .collect()
            };
            margin = slacks_and_bounds.iter().filter_map(|(_, s, _)| *s).min();
            for (id, _, b) in slacks_and_bounds {
                bounds.insert(id, b);
            }
        }

        Ok(FailureVerdict {
            scenario: *scenario,
            survivable,
            survivor_schedulable,
            stranded,
            rerouted,
            rejected,
            reverified: release_order.len(),
            margin,
            bounds,
            id_map,
            rounds,
            flow_analyses,
        })
    }

    /// Assess every scenario in order.
    pub fn sweep(
        &self,
        scenarios: &[FailureScenario],
    ) -> Result<SurvivabilityReport, AnalysisError> {
        let verdicts = scenarios
            .iter()
            .map(|s| self.assess(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SurvivabilityReport { verdicts })
    }

    /// The cold oracle: build the re-routed survivor flow set (original
    /// ids, stranded flows dropped) and analyse it from scratch on the
    /// survivor topology.  [`FailureVerdict::survivor_schedulable`],
    /// margins and bounds must match this byte for byte.
    pub fn cold_verdict(&self, scenario: &FailureScenario) -> Result<ColdVerdict, AnalysisError> {
        let mut faulty = self.controller.topology().clone();
        scenario.apply(&mut faulty).map_err(AnalysisError::Net)?;
        let survivor = faulty.survivor();
        let accepted = self.controller.accepted();
        let outcomes = reroute_severed(&survivor, accepted);
        let mut set = accepted.clone();
        let mut stranded = Vec::new();
        for outcome in outcomes {
            let mut binding = set.remove(outcome.id()).map_err(AnalysisError::Net)?;
            match outcome {
                gmf_net::RerouteOutcome::Rerouted { route, .. } => {
                    binding.route = route;
                    set.insert(binding).map_err(AnalysisError::Net)?;
                }
                gmf_net::RerouteOutcome::Stranded { id, .. } => stranded.push(id),
            }
        }
        let report =
            crate::fixed_point::analyze(survivor.topology(), &set, self.controller.config())?;
        let mut bounds = BTreeMap::new();
        let mut margin = None;
        if report.schedulable {
            for flow in &report.flows {
                bounds.insert(flow.flow, flow.frames.iter().map(|f| f.bound).collect());
            }
            margin = report.flows.iter().filter_map(|f| f.worst_slack()).min();
        }
        Ok(ColdVerdict {
            schedulable: report.schedulable,
            stranded,
            margin,
            bounds,
            report,
        })
    }
}

/// Compare an incremental verdict against the cold oracle of the same
/// scenario; `None` means byte-identical, `Some` describes the first
/// divergence (the sweep's zero-divergence gate).
pub fn divergence(incremental: &FailureVerdict, cold: &ColdVerdict) -> Option<String> {
    if incremental.survivor_schedulable != cold.schedulable {
        return Some(format!(
            "{}: verdict {} (incremental) vs {} (cold)",
            incremental.scenario.label(),
            incremental.survivor_schedulable,
            cold.schedulable
        ));
    }
    if incremental.stranded != cold.stranded {
        return Some(format!(
            "{}: stranded sets differ",
            incremental.scenario.label()
        ));
    }
    if !incremental.survivor_schedulable {
        return None;
    }
    if incremental.margin != cold.margin {
        return Some(format!(
            "{}: margin {:?} (incremental) vs {:?} (cold)",
            incremental.scenario.label(),
            incremental.margin,
            cold.margin
        ));
    }
    if incremental.bounds != cold.bounds {
        return Some(format!(
            "{}: per-flow bounds differ",
            incremental.scenario.label()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{paper_figure3_flow, voip_flow, Time, VoiceCodec};
    use gmf_net::{shortest_path, LinkProfile, Priority};

    /// h0 - s1 - s2 - h3 with a spare path s1 - s4 - s2, plus h5 on s4.
    fn topo() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let h0 = t.add_end_host("h0");
        let s1 = t.add_switch(SwitchConfig::paper(), "s1");
        let s2 = t.add_switch(SwitchConfig::paper(), "s2");
        let h3 = t.add_end_host("h3");
        let s4 = t.add_switch(SwitchConfig::paper(), "s4");
        let h5 = t.add_end_host("h5");
        for (a, b) in [(h0, s1), (s1, s2), (s2, h3), (s1, s4), (s4, s2), (s4, h5)] {
            t.add_duplex_link(a, b, LinkProfile::ethernet_100m())
                .unwrap();
        }
        (t, vec![h0, s1, s2, h3, s4, h5])
    }

    fn accepted_set(t: &Topology, n: &[NodeId]) -> FlowSet {
        let mut flows = FlowSet::new();
        let voice = |name: &str| {
            voip_flow(
                name,
                VoiceCodec::G711,
                Time::from_millis(20.0),
                Time::from_millis(0.5),
            )
        };
        flows.add(
            voice("a"),
            shortest_path(t, n[0], n[3]).unwrap(),
            Priority(7),
        );
        flows.add(
            voice("b"),
            shortest_path(t, n[5], n[0]).unwrap(),
            Priority(6),
        );
        flows.add(
            paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0)),
            shortest_path(t, n[3], n[5]).unwrap(),
            Priority(5),
        );
        flows
    }

    #[test]
    fn enumeration_covers_every_cable_and_degradation_step() {
        let (t, _) = topo();
        let scenarios = single_failure_scenarios(&t, &[2, 4]);
        // 6 cables + 3 switches x 2 factors.
        assert_eq!(scenarios.len(), 6 + 3 * 2);
        assert_eq!(
            scenarios.iter().filter(|s| s.kind() == "cable-cut").count(),
            6
        );
        let labels: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
        assert!(labels.contains(&"cut(0,1)".to_string()));
        assert!(labels.contains(&"degrade(1,x4)".to_string()));
        // Deterministic: a second enumeration is identical.
        assert_eq!(scenarios, single_failure_scenarios(&t, &[2, 4]));
    }

    #[test]
    fn incremental_verdicts_match_cold_oracle_on_every_single_failure() {
        let (t, n) = topo();
        let flows = accepted_set(&t, &n);
        let (analysis, stats) =
            SurvivabilityAnalysis::new(t.clone(), flows, AnalysisConfig::paper()).unwrap();
        assert!(stats.shards >= 1);
        let scenarios = single_failure_scenarios(&t, &[2, 64]);
        let report = analysis.sweep(&scenarios).unwrap();
        assert_eq!(report.n_scenarios(), scenarios.len());
        for (scenario, verdict) in scenarios.iter().zip(&report.verdicts) {
            let cold = analysis.cold_verdict(scenario).unwrap();
            assert_eq!(
                divergence(verdict, &cold),
                None,
                "scenario {}",
                scenario.label()
            );
        }
        // The spare path keeps every cable cut survivable except the ones
        // that isolate an end host.
        for verdict in &report.verdicts {
            if let FailureScenario::CableCut { a, b } = verdict.scenario {
                let isolates_host = [a, b].iter().any(|&x| x == n[0] || x == n[3] || x == n[5]);
                assert_eq!(
                    verdict.stranded.is_empty(),
                    !isolates_host,
                    "scenario {}",
                    verdict.scenario.label()
                );
            }
        }
        // Survivable scenarios report a margin; at least one cable cut
        // forces a reroute.
        assert!(report.n_survivable() >= 1);
        assert!(report.worst_margin().is_some());
        assert!(report
            .verdicts
            .iter()
            .any(|v| !v.rerouted.is_empty() && v.survivable));
    }

    #[test]
    fn degradation_can_break_schedulability_and_both_paths_agree() {
        let (t, n) = topo();
        let mut flows = FlowSet::new();
        // A tight-deadline voice call straight through s1.
        flows.add(
            voip_flow(
                "tight",
                VoiceCodec::G711,
                Time::from_micros(700.0),
                Time::from_millis(0.1),
            ),
            shortest_path(&t, n[0], n[3]).unwrap(),
            Priority(7),
        );
        let (analysis, _) =
            SurvivabilityAnalysis::new(t.clone(), flows, AnalysisConfig::paper()).unwrap();
        // An extreme slowdown of s1 must flip the verdict; both paths agree.
        let scenario = FailureScenario::SwitchDegrade {
            switch: n[1],
            factor: 100_000,
        };
        let verdict = analysis.assess(&scenario).unwrap();
        let cold = analysis.cold_verdict(&scenario).unwrap();
        assert_eq!(divergence(&verdict, &cold), None);
        assert!(!verdict.survivable);
        assert!(verdict.stranded.is_empty());
        assert_eq!(verdict.rejected.len(), 1);

        // A benign factor keeps it schedulable with a smaller margin than
        // the pristine network's.
        let benign = FailureScenario::SwitchDegrade {
            switch: n[1],
            factor: 2,
        };
        let v2 = analysis.assess(&benign).unwrap();
        assert!(v2.survivable);
        assert_eq!(
            divergence(&v2, &analysis.cold_verdict(&benign).unwrap()),
            None
        );
    }

    #[test]
    fn verdict_serde_roundtrip() {
        let (t, n) = topo();
        let flows = accepted_set(&t, &n);
        let (analysis, _) = SurvivabilityAnalysis::new(t, flows, AnalysisConfig::paper()).unwrap();
        let scenario = FailureScenario::CableCut { a: n[1], b: n[2] };
        let verdict = analysis.assess(&scenario).unwrap();
        let json = serde_json::to_string(&verdict).unwrap();
        let back: FailureVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(verdict, back);
    }
}
