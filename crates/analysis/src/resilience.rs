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
//! [`SurvivabilityAnalysis`] instead re-verifies only the shards (see
//! [`crate::deps`]) the failure can reach, per scenario:
//!
//! 1. apply the fault to a scratch copy of the topology, materialise the
//!    [`gmf_net::SurvivorView`] and give every severed flow its
//!    shortest-path fallback route ([`gmf_net::reroute_severed`]); flows
//!    with no surviving route are *stranded*;
//! 2. mark *dirty* every shard of the pristine partition that holds a flow
//!    touching a dirty node (a failed cable's endpoint or a degraded
//!    switch), then close over the reroutes: every shard a fallback route
//!    touches ([`crate::DependencyGraph::shards_touching_route`]) is dirty
//!    too;
//! 3. analyse the dirty shards' members — stranded flows dropped, fallback
//!    routes swapped in, original ids kept — in one cold holistic run on
//!    the survivor topology;
//! 4. take every other flow's bounds and slack verbatim from the pristine
//!    controller's warm cache ([`AdmissionController::cached_reports`]).
//!
//! # Why incremental equals cold
//!
//! The verdict must be byte-identical to a cold [`crate::fixed_point::analyze`]
//! of the re-routed survivor set.  Two facts carry the argument:
//!
//! * **shard independence**: the holistic fixed point couples two flows
//!   only through a shared directed link, so a cold analysis of a flow set
//!   gives each flow the bounds a cold analysis of its own shard alone
//!   gives (the per-shard preload of
//!   [`AdmissionController::with_accepted`] rests on the same fact, and
//!   `tests/resilience_properties.rs` property-tests it);
//! * **the reroute closure separates the two halves**: a retained flow (one
//!   outside the dirty shards) traverses no dirty node, so every link and
//!   switch it uses is unchanged; it shares no link with a member of a
//!   dirty shard (shards are components) nor with a fallback route (step
//!   2), so its shard is a whole component of the survivor set too.
//!
//! Hence the cold analysis of the survivor set splits into the one run of
//! step 3 and the retained shards, whose analyses on the survivor topology
//! equal their pristine ones — exactly the cached reports.  The retained
//! shards were verified schedulable when the analysis was built, so the
//! survivor set is schedulable exactly when the run of step 3 is.  A
//! retained flow without a cached report cannot occur (the preload caches
//! every flow); should one turn up, its shard is re-verified instead.

use crate::admission::{AdmissionController, PreloadStats};
use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::deps::ShardId;
use crate::error::AnalysisError;
use crate::fixed_point::iterate;
use crate::report::{AnalysisReport, FlowReport};
use gmf_model::{FlowId, Time};
use gmf_net::{
    reroute_severed, FlowSet, NetError, NodeId, RerouteOutcome, Route, SurvivorView, SwitchConfig,
    Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::slice;

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
    /// Re-verified survivor flows (original ids, ascending) the survivor
    /// analysis did not bound within their deadlines: the flows whose
    /// converged bound misses a deadline, or every re-verified survivor
    /// flow when the run aborted or did not converge (its bounds are not
    /// final).  Empty exactly when `survivor_schedulable`.
    pub rejected: Vec<FlowId>,
    /// How many flows the dirty shards hold, stranded flows included — the
    /// sweep's unit of work, versus `n_accepted` for a cold re-analysis.
    pub reverified: usize,
    /// The survivor set's smallest worst-case slack when it is schedulable
    /// (how much headroom the failure leaves), `None` otherwise.
    pub margin: Option<Time>,
    /// Per-flow per-frame response-time bounds of the survivor set, keyed
    /// by *original* flow id — populated only when the survivor set is
    /// schedulable (partial bounds are not comparable).
    pub bounds: BTreeMap<FlowId, Vec<Time>>,
    /// Always empty: the survivor analysis keeps every flow's original id.
    /// Kept so the verdict's serialised shape stays the same.
    pub id_map: Vec<(FlowId, FlowId)>,
    /// Holistic rounds of the scenario's one survivor analysis (0 when no
    /// survivor flow needed re-verifying).
    pub rounds: usize,
    /// Per-flow pipeline analyses of the scenario's one survivor analysis
    /// (0 when no survivor flow needed re-verifying).
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

    /// Total holistic rounds across every scenario's survivor analysis.
    pub fn total_rounds(&self) -> usize {
        self.verdicts.iter().map(|v| v.rounds).sum()
    }

    /// Total per-flow analyses across every scenario's survivor analysis.
    pub fn total_flow_analyses(&self) -> usize {
        self.verdicts.iter().map(|v| v.flow_analyses).sum()
    }

    /// Total flows re-verified across scenarios.
    pub fn total_reverified(&self) -> usize {
        self.verdicts.iter().map(|v| v.reverified).sum()
    }
}

/// The survivability analysis of one admitted flow set: a pristine warm
/// [`AdmissionController`] whose partition and cached reports every
/// scenario assessment reads and never changes — the sweep never pays for
/// more than the failure's shards.
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

    /// What `scenario` leaves of the network — the prelude both assessment
    /// paths share.
    fn aftermath(&self, scenario: &FailureScenario) -> Result<Aftermath, AnalysisError> {
        let mut faulty = self.controller.topology().clone();
        scenario.apply(&mut faulty).map_err(AnalysisError::Net)?;
        let survivor = faulty.survivor();
        let (mut stranded, mut fallback) = (Vec::new(), BTreeMap::new());
        for outcome in reroute_severed(&survivor, self.controller.accepted()) {
            match outcome {
                RerouteOutcome::Rerouted { id, route } => {
                    fallback.insert(id, route);
                }
                RerouteOutcome::Stranded { id, .. } => stranded.push(id),
            }
        }
        Ok((survivor, stranded, fallback))
    }

    /// Assess one failure scenario incrementally (steps 1–4 of the module
    /// docs): re-verify the dirty shards in one survivor analysis, keep
    /// every other flow's cached report, and report the verdict with
    /// margins and per-flow bounds.
    pub fn assess(&self, scenario: &FailureScenario) -> Result<FailureVerdict, AnalysisError> {
        let (survivor, stranded, fallback) = self.aftermath(scenario)?;
        let accepted = self.controller.accepted();
        let partition = self.controller.partition();
        let cached: BTreeMap<FlowId, &FlowReport> = self.controller.cached_reports().collect();
        // A retained flow without a cached report cannot occur (the preload
        // caches every flow); should one turn up, its shard is re-verified.
        let uncached = accepted.ids().filter(|id| !cached.contains_key(id));
        let mut shards: BTreeSet<ShardId> = survivor
            .affected_flows(accepted)
            .into_iter()
            .chain(uncached)
            .map(|id| partition.shard_of(id).unwrap_or(ShardId(id)))
            .collect();
        for route in fallback.values() {
            shards.extend(partition.shards_touching_route(route));
        }
        // A shard's id is its smallest member, so an id the partition does
        // not know stands for itself.
        let dirty: BTreeSet<FlowId> = shards
            .iter()
            .flat_map(|s| partition.shard_flows(*s).unwrap_or(slice::from_ref(&s.0)))
            .copied()
            .collect();
        let kept = cached.into_iter().filter(|(id, _)| !dirty.contains(id));

        let mut set = FlowSet::new();
        for &id in dirty.iter().filter(|id| !stranded.contains(id)) {
            let mut binding = accepted.get(id).map_err(AnalysisError::Net)?.clone();
            if let Some(route) = fallback.get(&id) {
                binding.route = route.clone();
            }
            set.insert(binding).map_err(AnalysisError::Net)?;
        }
        let run = if set.is_empty() {
            None
        } else {
            let ctx = AnalysisContext::new(survivor.topology(), &set)?;
            Some(iterate(&ctx, self.controller.config())?)
        };

        let (mut rejected, mut margin, mut bounds) = (Vec::new(), None, BTreeMap::new());
        match &run {
            Some(run) if !run.report.schedulable => {
                rejected = if run.report.converged {
                    let missed = run.report.flows.iter().filter(|f| !f.meets_all_deadlines());
                    missed.map(|f| f.flow).collect()
                } else {
                    set.ids().collect()
                };
            }
            _ => {
                let fresh = run.iter().flat_map(|run| &run.report.flows);
                let reports: Vec<&FlowReport> = fresh.chain(kept.map(|(_, r)| r)).collect();
                margin = reports.iter().filter_map(|f| f.worst_slack()).min();
                bounds = reports
                    .into_iter()
                    .map(|f| (f.flow, f.frames.iter().map(|b| b.bound).collect()))
                    .collect();
            }
        }
        let survivor_schedulable = rejected.is_empty();
        let (rounds, flow_analyses) =
            run.map_or((0, 0), |run| (run.report.iterations, run.flow_analyses));
        Ok(FailureVerdict {
            scenario: *scenario,
            survivable: survivor_schedulable && stranded.is_empty(),
            survivor_schedulable,
            stranded,
            rerouted: fallback.keys().copied().collect(),
            rejected,
            reverified: dirty.len(),
            margin,
            bounds,
            id_map: Vec::new(),
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
        let (survivor, stranded, fallback) = self.aftermath(scenario)?;
        let mut set = self.controller.accepted().clone();
        for &id in &stranded {
            set.remove(id).map_err(AnalysisError::Net)?;
        }
        for (id, route) in fallback {
            let mut binding = set.remove(id).map_err(AnalysisError::Net)?;
            binding.route = route;
            set.insert(binding).map_err(AnalysisError::Net)?;
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

/// The network a failure leaves behind: the survivor view, the stranded
/// flows and the fallback route of every rerouted flow (original ids).
type Aftermath = (SurvivorView, Vec<FlowId>, BTreeMap<FlowId, Route>);

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
    use gmf_model::{paper_figure3_flow, voip_flow, GmfFlow, Time, VoiceCodec};
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

    /// A G.711 call with the given deadline and source jitter (µs).
    fn voice(name: &str, deadline_us: f64, jitter_us: f64) -> GmfFlow {
        let (deadline, jitter) = (Time::from_micros(deadline_us), Time::from_micros(jitter_us));
        voip_flow(name, VoiceCodec::G711, deadline, jitter)
    }

    fn accepted_set(t: &Topology, n: &[NodeId]) -> FlowSet {
        let mut flows = FlowSet::new();
        flows.add(
            voice("a", 20_000.0, 500.0),
            shortest_path(t, n[0], n[3]).unwrap(),
            Priority(7),
        );
        flows.add(
            voice("b", 20_000.0, 500.0),
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
        let route = shortest_path(&t, n[0], n[3]).unwrap();
        flows.add(voice("tight", 700.0, 100.0), route, Priority(7));
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
    fn rejected_names_exactly_the_flows_that_miss_a_deadline() {
        let (t, n) = topo();
        let route = shortest_path(&t, n[0], n[3]).unwrap();
        let mut flows = FlowSet::new();
        flows.add(voice("loose", 20_000.0, 100.0), route.clone(), Priority(7));
        // About 0.51 ms through the pristine s1, 0.67 ms through s1 at
        // an eighth of its speed.
        let tight = flows.add(voice("tight", 600.0, 100.0), route, Priority(6));
        let (analysis, _) = SurvivabilityAnalysis::new(t, flows, AnalysisConfig::paper()).unwrap();
        let scenario = FailureScenario::SwitchDegrade {
            switch: n[1],
            factor: 8,
        };
        let verdict = analysis.assess(&scenario).unwrap();
        let cold = analysis.cold_verdict(&scenario).unwrap();
        assert_eq!(divergence(&verdict, &cold), None);
        assert!(cold.report.converged && !cold.report.schedulable);
        assert!(!verdict.survivor_schedulable);
        assert_eq!(verdict.rejected, vec![tight]);
        assert_eq!(verdict.reverified, 2);
    }

    /// h0 - s1 - s2 - h3 with a detour s1 - s4 - s5 - s2, h6 on s4 and h7
    /// on s5: cutting s1 - s2 reroutes a flow onto s4 -> s5, the link a
    /// flow of another, untouched shard uses.
    #[test]
    fn a_reroute_into_a_retained_shard_reverifies_that_shard() {
        let mut t = Topology::new();
        let h0 = t.add_end_host("h0");
        let s1 = t.add_switch(SwitchConfig::paper(), "s1");
        let s2 = t.add_switch(SwitchConfig::paper(), "s2");
        let h3 = t.add_end_host("h3");
        let s4 = t.add_switch(SwitchConfig::paper(), "s4");
        let s5 = t.add_switch(SwitchConfig::paper(), "s5");
        let h6 = t.add_end_host("h6");
        let h7 = t.add_end_host("h7");
        for (a, b) in [
            (h0, s1),
            (s1, s2),
            (s2, h3),
            (s1, s4),
            (s4, s5),
            (s5, s2),
            (s4, h6),
            (s5, h7),
        ] {
            t.add_duplex_link(a, b, LinkProfile::ethernet_100m())
                .unwrap();
        }
        let mut flows = FlowSet::new();
        let a = flows.add(
            voice("a", 20_000.0, 500.0),
            shortest_path(&t, h0, h3).unwrap(),
            Priority(7),
        );
        let b = flows.add(
            voice("b", 20_000.0, 500.0),
            shortest_path(&t, h6, h7).unwrap(),
            Priority(6),
        );
        assert_eq!(flows.get(b).unwrap().route.nodes(), &[h6, s4, s5, h7]);
        let (analysis, stats) =
            SurvivabilityAnalysis::new(t, flows, AnalysisConfig::paper()).unwrap();
        assert_eq!(stats.shards, 2);
        let (_, pristine) = analysis.controller().cached_reports().nth(1).unwrap();
        let pristine: Vec<Time> = pristine.frames.iter().map(|f| f.bound).collect();

        let scenario = FailureScenario::CableCut { a: s1, b: s2 };
        let verdict = analysis.assess(&scenario).unwrap();
        let cold = analysis.cold_verdict(&scenario).unwrap();
        assert_eq!(divergence(&verdict, &cold), None);
        assert_eq!(verdict.rerouted, vec![a]);
        assert!(verdict.survivor_schedulable);
        // Only `a` touches the cut; `b`'s shard joins through the reroute.
        assert_eq!(verdict.reverified, 2);
        // `b` now sees `a`'s interference, so its cached bound is stale.
        assert_ne!(verdict.bounds[&b], pristine);
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
