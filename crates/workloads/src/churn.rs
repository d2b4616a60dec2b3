//! Churn workloads: flow arrivals *and departures* over time, driven
//! through an [`AdmissionController`].
//!
//! The acceptance sweeps analyse independent random sets; an operator's
//! real workload is a *churning* set — calls arrive, live for a while and
//! tear down.  This module generates a deterministic churn script on the
//! sweep's converging star network and replays it against an admission
//! controller ([`run_churn`]), recording what every decision cost.
//! [`run_churn_cold_reference`] replays the same script but decides each
//! arrival with a cold fixed point over the live flows plus the candidate,
//! started from the paper's initial map — the reference the controller's
//! decisions are byte-identical to.  Comparing the two is the headline
//! experiment of the incremental admission engine (E11 /
//! `exp_admission_churn`): decisions and bounds are identical, the
//! per-decision cost is not.
//!
//! Determinism: every event draws from its own ChaCha8 stream seeded with
//! [`gmf_par::derive_seed`]`(seed, event_index)`, so the event sequence
//! depends only on `(seed, config)` — never on thread counts or on how
//! many analyses an engine ran.  Departures pick uniformly among the
//! currently *live* flows; since both replays take identical decisions,
//! both replay the identical script.

use crate::sweep::SweepConfig;
use crate::synthetic::random_gmf_flow;
use gmf_analysis::{
    iterate_from, AdmissionController, AdmissionDecision, AdmissionRequest, AnalysisConfig,
    AnalysisContext, FixedPointRun, JitterMap,
};
use gmf_model::FlowId;
use gmf_net::{shortest_path, star, FlowSet, Priority, Topology};
use gmf_par::derive_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Number of events (arrival attempts or departures) to replay.
    pub n_events: usize,
    /// Probability that an event is a departure, when any flow is live.
    pub departure_fraction: f64,
    /// Per-flow target utilization of the bottleneck link, drawn uniformly
    /// from this range for each arrival.
    pub flow_utilization: (f64, f64),
    /// Number of sink hosts on the star.  Each arrival routes from a
    /// random source to a random sink; flows towards different sinks on
    /// different access links never interfere, which is exactly what the
    /// warm engine's dependency-scoped re-verification exploits.
    pub n_sinks: usize,
    /// The star network and flow-structure generator (the sweep's);
    /// `sweep.n_sources` is the number of *source* hosts, on top of which
    /// `n_sinks` sink hosts are added.
    pub sweep: SweepConfig,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n_events: 60,
            departure_fraction: 0.35,
            flow_utilization: (0.01, 0.06),
            n_sinks: 2,
            sweep: SweepConfig::default(),
        }
    }
}

/// What one churn replay did and cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// Arrival attempts (admission requests).
    pub arrivals: usize,
    /// Accepted arrivals.
    pub accepted: usize,
    /// Rejected arrivals.
    pub rejected: usize,
    /// Departures (releases).
    pub departures: usize,
    /// Flows live at the end of the replay.
    pub live: usize,
    /// Total holistic rounds across all decisions (including cold fallback
    /// reruns).
    pub rounds: usize,
    /// Total per-flow pipeline analyses across all decisions — the cost
    /// metric the warm engine shrinks.
    pub flow_analyses: usize,
    /// Decisions whose final report came from the warm-started path.
    pub warm_decisions: usize,
    /// Worst end-to-end bound of the final accepted set (ns-precision
    /// string keeps the type serde-friendly), `"-"` when empty.
    pub final_worst_bound: String,
    /// `true` if the final accepted set re-verifies as schedulable.
    pub final_schedulable: bool,
}

impl ChurnOutcome {
    /// Decisions taken (arrival attempts).
    pub fn decisions(&self) -> usize {
        self.arrivals
    }

    /// Mean holistic rounds per admission decision.
    pub fn rounds_per_decision(&self) -> f64 {
        self.rounds as f64 / self.arrivals.max(1) as f64
    }

    /// Mean per-flow analyses per admission decision.
    pub fn analyses_per_decision(&self) -> f64 {
        self.flow_analyses as f64 / self.arrivals.max(1) as f64
    }
}

/// What one arrival decided and cost.
struct Arrival {
    accepted: bool,
    rounds: usize,
    flow_analyses: usize,
    warm: bool,
}

impl Arrival {
    fn of(decision: &AdmissionDecision) -> Arrival {
        let cost = decision.cost();
        Arrival {
            accepted: decision.is_accepted(),
            rounds: cost.rounds,
            flow_analyses: cost.flow_analyses,
            warm: cost.warm,
        }
    }
}

/// An admission engine the churn script can drive.
trait ChurnEngine {
    /// The flows live right now.
    fn live(&self) -> &FlowSet;
    /// Tear down a live flow.
    fn release(&mut self, id: FlowId);
    /// Decide one arrival.
    fn admit(&mut self, request: AdmissionRequest) -> Arrival;
}

impl ChurnEngine for AdmissionController {
    fn live(&self) -> &FlowSet {
        self.accepted()
    }

    fn release(&mut self, id: FlowId) {
        // tidy-allow: unwrap invariant: departures pick live flows
        AdmissionController::release(self, id).expect("victim is live");
    }

    fn admit(&mut self, request: AdmissionRequest) -> Arrival {
        let decision = self
            .request_batch([request])
            // tidy-allow: unwrap invariant: routes on the star are structurally valid
            .expect("routes on the star are structurally valid")
            .pop()
            // tidy-allow: unwrap invariant: a one-element batch yields one decision
            .expect("one decision per request");
        Arrival::of(&decision)
    }
}

/// The cold reference engine: every arrival is decided by a fixed point
/// over the live flows plus the candidate, started from the paper's
/// initial map.  Ids advance exactly as in the controller (one per
/// request, accepted or not), so both engines analyse identical sets.
struct ColdReference {
    topology: Topology,
    analysis: AnalysisConfig,
    live: FlowSet,
}

impl ColdReference {
    /// Analyse the live set plus `request` cold; admit the candidate when
    /// the trial is schedulable.  Returns the candidate's id and the run.
    fn decide(&mut self, request: &AdmissionRequest) -> (FlowId, FixedPointRun) {
        let mut trial = self.live.clone();
        let id = trial.add_with_encapsulation(
            request.flow().clone(),
            request.route().clone(),
            request.priority(),
            request.encapsulation(),
        );
        let run = AnalysisContext::new(&self.topology, &trial)
            .and_then(|ctx| iterate_from(&ctx, &self.analysis, JitterMap::initial(&trial)))
            // tidy-allow: unwrap invariant: routes on the star are structurally valid
            .expect("routes on the star are structurally valid");
        if run.report.schedulable {
            self.live = trial;
        } else {
            self.live.reserve_ids(1);
        }
        (id, run)
    }
}

impl ChurnEngine for ColdReference {
    fn live(&self) -> &FlowSet {
        &self.live
    }

    fn release(&mut self, id: FlowId) {
        // tidy-allow: unwrap invariant: departures pick live flows
        self.live.remove(id).expect("victim is live");
    }

    fn admit(&mut self, request: AdmissionRequest) -> Arrival {
        let (_, run) = self.decide(&request);
        Arrival {
            accepted: run.report.schedulable,
            rounds: run.report.iterations,
            flow_analyses: run.flow_analyses,
            warm: false,
        }
    }
}

/// Replay a deterministic churn script against a fresh admission
/// controller.
///
/// # Panics
///
/// Panics if `config.sweep` is invalid (see [`SweepConfig::validate`]),
/// `config.departure_fraction` is outside `[0, 1]`, `config.n_sinks` is
/// zero, or `config.flow_utilization` is empty or non-positive.
pub fn run_churn(seed: u64, config: &ChurnConfig, analysis: &AnalysisConfig) -> ChurnOutcome {
    replay(seed, config, analysis, |topology| {
        AdmissionController::new(topology, *analysis)
    })
}

/// Replay the same script as [`run_churn`], deciding every arrival with a
/// cold fixed point over the live flows plus the candidate (the reference
/// the controller is byte-identical to; it never reports warm decisions).
///
/// # Panics
///
/// As [`run_churn`].
pub fn run_churn_cold_reference(
    seed: u64,
    config: &ChurnConfig,
    analysis: &AnalysisConfig,
) -> ChurnOutcome {
    replay(seed, config, analysis, |topology| ColdReference {
        topology,
        analysis: *analysis,
        live: FlowSet::new(),
    })
}

/// Drive the churn script of `(seed, config)` through the engine `build`
/// makes for the star network.
fn replay<E: ChurnEngine>(
    seed: u64,
    config: &ChurnConfig,
    analysis: &AnalysisConfig,
    build: impl FnOnce(Topology) -> E,
) -> ChurnOutcome {
    config
        .sweep
        .validate()
        // tidy-allow: unwrap invariant: invalid sweep configuration
        .expect("invalid sweep configuration");
    assert!(
        (0.0..=1.0).contains(&config.departure_fraction),
        "departure_fraction must be within [0, 1]"
    );
    assert!(config.n_sinks >= 1, "n_sinks must be at least 1");
    assert!(
        config.flow_utilization.0 > 0.0 && config.flow_utilization.0 <= config.flow_utilization.1,
        "flow_utilization must be a non-empty positive range"
    );

    let (topology, _switch, hosts) = star(
        config.sweep.n_sources + config.n_sinks,
        config.sweep.link,
        config.sweep.switch,
    );
    let sinks: Vec<_> = hosts[..config.n_sinks].to_vec();
    let sources: Vec<_> = hosts[config.n_sinks..].to_vec();
    let mut engine = build(topology.clone());

    let mut outcome = ChurnOutcome {
        arrivals: 0,
        accepted: 0,
        rejected: 0,
        departures: 0,
        live: 0,
        rounds: 0,
        flow_analyses: 0,
        warm_decisions: 0,
        final_worst_bound: "-".to_string(),
        final_schedulable: true,
    };

    for event in 0..config.n_events {
        // One independent stream per event: the script depends only on
        // (seed, event) and the decisions taken so far.
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, event as u64));
        let depart =
            !engine.live().is_empty() && rng.gen_range(0.0..1.0) < config.departure_fraction;
        if depart {
            let live: Vec<FlowId> = engine.live().ids().collect();
            let victim = live[rng.gen_range(0..live.len())];
            engine.release(victim);
            outcome.departures += 1;
        } else {
            let utilization = rng.gen_range(config.flow_utilization.0..=config.flow_utilization.1);
            let flow = random_gmf_flow(
                &mut rng,
                &format!("churn-{event}"),
                utilization.max(1e-4),
                &config.sweep.synthetic,
            );
            let source = sources[rng.gen_range(0..sources.len())];
            let sink = sinks[rng.gen_range(0..sinks.len())];
            // tidy-allow: unwrap invariant: star is connected
            let route = shortest_path(&topology, source, sink).expect("star is connected");
            let priority = Priority(rng.gen_range(0..config.sweep.priority_levels.max(1)));
            let arrival = engine.admit(AdmissionRequest::new(flow, route, priority));
            outcome.arrivals += 1;
            outcome.rounds += arrival.rounds;
            outcome.flow_analyses += arrival.flow_analyses;
            if arrival.warm {
                outcome.warm_decisions += 1;
            }
            if arrival.accepted {
                outcome.accepted += 1;
            } else {
                outcome.rejected += 1;
            }
        }
    }

    let live = engine.live();
    outcome.live = live.len();
    let final_report = gmf_analysis::analyze(&topology, live, analysis)
        // tidy-allow: unwrap invariant: accepted set is structurally valid
        .expect("accepted set is structurally valid");
    outcome.final_schedulable = final_report.schedulable;
    if let Some(worst) = final_report.worst_bound() {
        outcome.final_worst_bound = worst.to_string();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_analysis::{AdmissionVictim, AnalysisReport};

    fn small() -> ChurnConfig {
        ChurnConfig {
            n_events: 24,
            sweep: SweepConfig {
                flows_per_set: 4,
                sets_per_point: 5,
                ..SweepConfig::default()
            },
            ..ChurnConfig::default()
        }
    }

    /// Who misses deadlines in a converged cold trial, read straight off
    /// the reference report.
    fn expected_victim(report: &AnalysisReport, candidate: FlowId) -> Option<AdmissionVictim> {
        if !report.converged {
            return None;
        }
        let missed = report.missed_flows();
        let existing: Vec<FlowId> = missed.iter().copied().filter(|&f| f != candidate).collect();
        match (missed.contains(&candidate), existing.is_empty()) {
            (true, true) => Some(AdmissionVictim::Candidate),
            (true, false) => Some(AdmissionVictim::Both { flows: existing }),
            (false, false) => Some(AdmissionVictim::Existing { flows: existing }),
            (false, true) => None,
        }
    }

    /// The controller, checked decision by decision against the cold
    /// reference replaying the same script.
    struct Checked {
        warm: AdmissionController,
        cold: ColdReference,
    }

    impl ChurnEngine for Checked {
        fn live(&self) -> &FlowSet {
            assert_eq!(self.warm.accepted(), self.cold.live());
            self.warm.accepted()
        }

        fn release(&mut self, id: FlowId) {
            ChurnEngine::release(&mut self.warm, id);
            self.cold.release(id);
        }

        fn admit(&mut self, request: AdmissionRequest) -> Arrival {
            let (id, cold) = self.cold.decide(&request);
            let reference = &cold.report;
            let decision = self.warm.request_batch([request]).unwrap().pop().unwrap();
            assert_eq!(decision.id(), id);
            assert_eq!(decision.is_accepted(), reference.schedulable);
            // The warm report covers the candidate's shard; every entry it
            // carries equals the cold report's entry bytewise.
            for flow in &decision.report().flows {
                assert_eq!(Some(flow), reference.flow(flow.flow));
            }
            assert_eq!(decision.report().failure, reference.failure);
            if let AdmissionDecision::Rejected { reason, victim, .. } = &decision {
                assert_eq!(Some(reason), reference.failure.as_ref());
                assert_eq!(*victim, expected_victim(reference, id));
            }
            Arrival::of(&decision)
        }
    }

    #[test]
    fn churn_is_reproducible_for_a_seed() {
        let a = run_churn(5, &small(), &AnalysisConfig::paper());
        let b = run_churn(5, &small(), &AnalysisConfig::paper());
        assert_eq!(a, b);
        assert_eq!(a.arrivals + a.departures, small().n_events);
        assert!(a.arrivals > 0 && a.departures > 0, "{a:?}");
        assert!(a.final_schedulable);
    }

    #[test]
    fn warm_and_cold_replays_agree_and_warm_is_cheaper() {
        let config = small();
        let analysis = AnalysisConfig::paper();
        // Decision by decision: verdict, failure string, victim and every
        // reported bound match a cold fixed point of the same trial set.
        let checked = replay(9, &config, &analysis, |topology| Checked {
            warm: AdmissionController::new(topology.clone(), analysis),
            cold: ColdReference {
                topology,
                analysis,
                live: FlowSet::new(),
            },
        });
        let warm = run_churn(9, &config, &analysis);
        let cold = run_churn_cold_reference(9, &config, &analysis);
        assert_eq!(checked, warm);
        // Identical script, identical decisions, identical final bounds.
        assert_eq!(cold.arrivals, warm.arrivals);
        assert_eq!(cold.accepted, warm.accepted);
        assert_eq!(cold.rejected, warm.rejected);
        assert_eq!(cold.departures, warm.departures);
        assert_eq!(cold.live, warm.live);
        assert_eq!(cold.final_worst_bound, warm.final_worst_bound);
        assert_eq!(cold.final_schedulable, warm.final_schedulable);
        // The script exercises rejections, so the victim check above ran.
        assert!(warm.rejected > 0, "{warm:?}");
        // The reference never reports warm decisions; the controller does
        // real incremental work and is strictly cheaper in total.
        assert_eq!(cold.warm_decisions, 0);
        assert!(warm.warm_decisions > 0, "{warm:?}");
        assert!(
            warm.flow_analyses < cold.flow_analyses,
            "warm {} vs cold {}",
            warm.flow_analyses,
            cold.flow_analyses
        );
        assert!(warm.analyses_per_decision() < cold.analyses_per_decision());
    }

    #[test]
    fn churn_output_is_thread_invariant() {
        let config = small();
        let base = run_churn(3, &config, &AnalysisConfig::paper());
        let par = run_churn(3, &config, &AnalysisConfig::paper().with_threads(4));
        // Thread count moves wall clock only, never results or costs.
        assert_eq!(base, par);
    }

    #[test]
    #[should_panic(expected = "departure_fraction")]
    fn invalid_departure_fraction_is_rejected() {
        let config = ChurnConfig {
            departure_fraction: 1.5,
            ..small()
        };
        run_churn(1, &config, &AnalysisConfig::paper());
    }

    #[test]
    #[should_panic(expected = "flow_utilization")]
    fn reversed_utilization_range_is_rejected() {
        let config = ChurnConfig {
            flow_utilization: (0.05, 0.01),
            ..small()
        };
        run_churn(1, &config, &AnalysisConfig::paper());
    }
}
