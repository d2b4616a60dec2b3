//! Workload `survivability`: incremental `SurvivabilityAnalysis::assess`
//! of every single failure of a 24-cell ring-of-cells metro (120 cable
//! cuts and 48 switch degradations at factors 2 and 8), closed loop, one
//! caller, one analysis thread.
//!
//! This uses the admission plane differently from `admission`: clone,
//! release whole shards, rebase onto the survivor topology and re-admit
//! in bulk.  Every verdict is checked against the cold oracle outside the
//! timed region.  The traced run replays `assess` step by step from its
//! public calls and checks that the replay reaches the same findings and
//! agrees with the cold oracle; what each reached them with may differ.
//!
//! What a failure costs depends mostly on the shards it touches, and the
//! shard structure of a generated ring swings from seed to seed (the
//! largest shard holds anywhere from 20 to 100 flows), which would swamp
//! any timing.  So the ring's routes are pinned to the E16 ring at its
//! seed, whose shards are the ones behind the incremental-versus-cold
//! finding, and the run's seed draws every flow's traffic and priority.

use crate::stats::Permille;
use crate::trace::{Tracer, OP};
use crate::{guarded, keep_fastest, nanos, rates, Checks, Ctx, Outcome, Scale};
use gmf_analysis::{
    divergence, single_failure_scenarios, AdmissionRequest, AnalysisConfig, AnalysisError,
    ColdVerdict, FailureScenario, FailureVerdict, PreloadStats, SurvivabilityAnalysis,
};
use gmf_bench::{RESILIENCE_BENCH_SEED, RESILIENCE_DEGRADE_FACTORS};
use gmf_model::{FlowId, Time};
use gmf_net::{reroute_severed, FlowSet, Priority, Route, SurvivorView, Topology};
use gmf_par::derive_seed;
use gmf_workloads::{random_gmf_flow, resilience_scenario, ResilienceConfig};
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Tail percentile: 168 scenarios per sweep and several sweeps per run
/// leave well over ten samples beyond p90 (but not beyond p99).
const TAIL: Permille = 900;

/// The ring: E16's routes, with traffic and priorities drawn from `seed`.
/// The ring's per-flow utilization is low enough that every draw tried
/// (seeds 0 to 299) is schedulable; a draw that is not fails the set-up,
/// and with it the run.
fn ring(seed: u64, config: &ResilienceConfig) -> (Topology, FlowSet) {
    let structure = resilience_scenario(derive_seed(RESILIENCE_BENCH_SEED, 0), config);
    let mut flows = FlowSet::new();
    for binding in structure.flows.bindings() {
        let lane = binding.id.0 as u64;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(derive_seed(seed, lane));
        let (lo, hi) = config.flow_utilization;
        let utilization = rng.gen_range(lo..=hi);
        let flow = random_gmf_flow(
            &mut rng,
            binding.flow.name(),
            utilization,
            &config.synthetic,
        );
        let priority = Priority(rng.gen_range(0..config.priority_levels.max(1)));
        flows.add(flow, binding.route.clone(), priority);
    }
    (structure.topology, flows)
}

/// Set-up repetitions after each sweep: `SurvivabilityAnalysis::new`
/// takes milliseconds, and repeating it across the run makes `setup_s` a
/// median over the whole run rather than one moment of it.
const SETUPS_PER_SWEEP: usize = 20;

/// The set-up, `reps` times, each timed: `SurvivabilityAnalysis::new`.
/// Every repetition must report `expected`'s preload (or the first one's);
/// returns the last analysis built.
fn set_up(
    topology: &Topology,
    flows: &FlowSet,
    reps: usize,
    out: &mut Outcome,
    mut expected: Option<PreloadStats>,
) -> Option<(SurvivabilityAnalysis, PreloadStats)> {
    let mut last = None;
    for _ in 0..reps {
        let (topology, flows) = (topology.clone(), flows.clone());
        drop(last.take());
        let start = Instant::now();
        let built = SurvivabilityAnalysis::new(topology, flows, AnalysisConfig::paper());
        out.setup_s.push(start.elapsed().as_secs_f64());
        match built {
            Ok((analysis, stats)) => {
                let same = *expected.get_or_insert(stats) == stats;
                out.checks
                    .check(same, || "preload statistics differ between set-ups".into());
                last = Some((analysis, stats));
            }
            Err(e) => out.checks.fail(format!("set-up failed: {e}")),
        }
    }
    last
}

/// `assess`, replayed from its public calls with one span per step.
fn replay(
    analysis: &SurvivabilityAnalysis,
    scenario: &FailureScenario,
    tracer: &mut Tracer,
    op: u64,
) -> Result<FailureVerdict, AnalysisError> {
    let base = analysis.controller();
    let accepted = base.accepted();
    let survivor: SurvivorView = tracer.time("net.survivor", op, || {
        let mut faulty = base.topology().clone();
        scenario.apply(&mut faulty).map_err(AnalysisError::Net)?;
        Ok::<_, AnalysisError>(faulty.survivor())
    })?;
    let release_order: Vec<FlowId> = tracer.time("net.affected", op, || {
        let partition = base.partition();
        let mut release = BTreeSet::new();
        for id in survivor.affected_flows(accepted) {
            match partition
                .shard_of(id)
                .and_then(|shard| partition.shard_flows(shard))
            {
                Some(members) => release.extend(members.iter().copied()),
                None => {
                    release.insert(id);
                }
            }
        }
        release.into_iter().collect()
    });
    let (stranded, rerouted, mut fallback) = tracer.time("net.reroute", op, || {
        let outcomes = reroute_severed(&survivor, accepted);
        let stranded: Vec<FlowId> = outcomes
            .iter()
            .filter(|o| o.is_stranded())
            .map(|o| o.id())
            .collect();
        let fallback: BTreeMap<FlowId, Route> = outcomes
            .iter()
            .filter_map(|o| o.route().map(|r| (o.id(), r.clone())))
            .collect();
        let rerouted: Vec<FlowId> = fallback.keys().copied().collect();
        (stranded, rerouted, fallback)
    });

    let mut ctl = tracer.time("admission.clone", op, || base.clone());
    tracer.time("admission.release_batch", op, || {
        ctl.release_batch(&release_order)
    })?;
    tracer.time("admission.rebase", op, || {
        ctl.rebase(survivor.topology().clone())
    })?;
    let (originals, decisions) = tracer.time("admission.readmit", op, || {
        let stranded: BTreeSet<FlowId> = stranded.iter().copied().collect();
        let mut originals = Vec::with_capacity(release_order.len());
        let mut requests = Vec::with_capacity(release_order.len());
        for &id in &release_order {
            if stranded.contains(&id) {
                continue;
            }
            let binding = accepted.get(id).map_err(AnalysisError::Net)?;
            let route = fallback
                .remove(&id)
                .unwrap_or_else(|| binding.route.clone());
            originals.push(id);
            requests.push(
                AdmissionRequest::new(binding.flow.clone(), route, binding.priority)
                    .with_encapsulation(binding.encapsulation),
            );
        }
        Ok::<_, AnalysisError>((originals, ctl.request_batch(requests)?))
    })?;

    tracer.time("resilience.verdict", op, || {
        let mut rejected = Vec::new();
        let mut id_map = Vec::with_capacity(decisions.len());
        let (mut rounds, mut flow_analyses) = (0, 0);
        for (&original, decision) in originals.iter().zip(&decisions) {
            id_map.push((original, decision.id()));
            rounds += decision.cost().rounds;
            flow_analyses += decision.cost().flow_analyses;
            if !decision.is_accepted() {
                rejected.push(original);
            }
        }
        let survivor_schedulable = rejected.is_empty();
        let mut margin = None;
        let mut bounds: BTreeMap<FlowId, Vec<Time>> = BTreeMap::new();
        if survivor_schedulable {
            let back: BTreeMap<FlowId, FlowId> =
                id_map.iter().map(|&(orig, new)| (new, orig)).collect();
            let original = |id: FlowId| *back.get(&id).unwrap_or(&id);
            let rows: Vec<(FlowId, Option<Time>, Vec<Time>)> =
                if ctl.cached_reports().count() == ctl.n_accepted() {
                    ctl.cached_reports()
                        .map(|(id, r)| {
                            let bounds = r.frames.iter().map(|f| f.bound).collect();
                            (original(id), r.worst_slack(), bounds)
                        })
                        .collect()
                } else {
                    ctl.reanalyze()?
                        .flows
                        .iter()
                        .map(|r| {
                            let bounds = r.frames.iter().map(|f| f.bound).collect();
                            (original(r.flow), r.worst_slack(), bounds)
                        })
                        .collect()
                };
            margin = rows.iter().filter_map(|(_, slack, _)| *slack).min();
            bounds = rows.into_iter().map(|(id, _, b)| (id, b)).collect();
        }
        Ok(FailureVerdict {
            scenario: *scenario,
            survivable: survivor_schedulable && stranded.is_empty(),
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
    })
}

/// What a verdict says about the network, without what reaching it cost
/// (`reverified`, `id_map`, `rounds`, `flow_analyses`), which a better
/// `assess` may change.
fn findings(v: &FailureVerdict) -> impl PartialEq + '_ {
    (
        &v.scenario,
        v.survivable,
        v.survivor_schedulable,
        &v.stranded,
        &v.rerouted,
        &v.rejected,
        v.margin,
        &v.bounds,
    )
}

/// Check one verdict — from `assess` or from the traced replay — against
/// the cold oracle and, from the second sweep on, against the findings of
/// the first sweep's verdict.
fn check(
    checks: &mut Checks,
    scenario: &FailureScenario,
    got: Result<Result<FailureVerdict, AnalysisError>, String>,
    cold: Option<&ColdVerdict>,
    first: Option<&FailureVerdict>,
) -> Option<FailureVerdict> {
    let label = scenario.label();
    let verdict = match got {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => {
            checks.fail(format!("{label}: {e}"));
            return None;
        }
        Err(panic) => {
            checks.fail(format!("{label} panicked: {panic}"));
            return None;
        }
    };
    let diverged = match cold {
        Some(cold) => divergence(&verdict, cold),
        None => Some(format!("{label}: no cold verdict to compare with")),
    };
    let repeats = first.is_none_or(|f| findings(f) == findings(&verdict));
    checks.check(diverged.is_none() && repeats, || {
        diverged.unwrap_or_else(|| format!("{label}: the verdict did not repeat"))
    });
    Some(verdict)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let config = match ctx.scale {
        Scale::Full => ResilienceConfig {
            n_cells: 24,
            ..ResilienceConfig::default()
        },
        Scale::Smoke => ResilienceConfig::tiny(),
    };
    let (topology, flows) = ring(ctx.seed, &config);
    let scenarios = single_failure_scenarios(&topology, &RESILIENCE_DEGRADE_FACTORS);
    let mut out = Outcome {
        tail: TAIL,
        ..Outcome::default()
    };

    // Set-up: verify the admitted set and seed the pristine warm state.
    let Some((analysis, preload)) = set_up(&topology, &flows, 1, &mut out, None) else {
        return out;
    };

    let cold: Vec<Option<ColdVerdict>> = scenarios
        .iter()
        .map(|s| match analysis.cold_verdict(s) {
            Ok(v) => Some(v),
            Err(e) => {
                out.checks.fail(format!("{}: cold verdict: {e}", s.label()));
                None
            }
        })
        .collect();

    let clock = ctx.clock();
    let mut first: Vec<Option<FailureVerdict>> = Vec::new();
    let (mut untraced, mut sweeps) = (0u64, 0u64);
    loop {
        let mut pass = Vec::with_capacity(scenarios.len());
        for (i, scenario) in scenarios.iter().enumerate() {
            let start = Instant::now();
            let got = guarded(|| analysis.assess(scenario));
            let ns = nanos(start.elapsed());
            let verdict = check(
                &mut out.checks,
                scenario,
                got,
                cold[i].as_ref(),
                first.get(i).and_then(Option::as_ref),
            );
            pass.push(ns);
            if first.len() < scenarios.len() {
                first.push(verdict);
            }
        }
        untraced += pass.iter().sum::<u64>();
        keep_fastest(&mut out.op_ns, &pass);
        sweeps += 1;
        if !ctx.trace {
            set_up(&topology, &flows, SETUPS_PER_SWEEP, &mut out, Some(preload));
        } else {
            for (i, scenario) in scenarios.iter().enumerate() {
                let op = i as u64;
                out.tracer.enter(OP, op);
                let got = guarded(|| replay(&analysis, scenario, &mut out.tracer, op));
                out.tracer.exit();
                check(
                    &mut out.checks,
                    scenario,
                    got,
                    cold[i].as_ref(),
                    first[i].as_ref(),
                );
                out.tracer.time("resilience.cold_verdict", op, || {
                    std::hint::black_box(analysis.cold_verdict(scenario)).ok()
                });
            }
        }
        if clock.expired() {
            break;
        }
    }

    let verdicts: Vec<&FailureVerdict> = first.iter().flatten().collect();
    let sum = |f: fn(&FailureVerdict) -> usize| verdicts.iter().map(|v| f(v) as u64).sum::<u64>();
    out.counters = [
        ("flows", flows.len() as u64),
        ("scenarios", scenarios.len() as u64),
        ("preload_shards", preload.shards as u64),
        ("preload_rounds", preload.rounds as u64),
        ("preload_flow_analyses", preload.flow_analyses as u64),
        ("survivable", sum(|v| usize::from(v.survivable))),
        ("stranding", sum(|v| usize::from(!v.stranded.is_empty()))),
        ("reverified", sum(|v| v.reverified)),
        ("rounds", sum(|v| v.rounds)),
        ("flow_analyses", sum(|v| v.flow_analyses)),
        (
            "cold_schedulable",
            cold.iter().flatten().filter(|c| c.schedulable).count() as u64,
        ),
    ]
    .into_iter()
    .collect();

    let n_ops = sweeps * scenarios.len() as u64;
    (out.ops_per_s, out.ns_per_work) = rates(&out.op_ns, sum(|v| v.flow_analyses));

    if ctx.trace {
        let totals = out.tracer.totals();
        let mean_us = |name| totals.get(name).map_or(0.0, |t| t.mean_us());
        let n = verdicts.len().max(1) as f64;
        let assess_mean_ns = untraced as f64 / n_ops.max(1) as f64;
        let cold_mean_ns = mean_us("resilience.cold_verdict") * 1e3;
        out.layers = [
            ("net.survivor_us", mean_us("net.survivor")),
            ("net.affected_us", mean_us("net.affected")),
            ("net.reroute_us", mean_us("net.reroute")),
            ("admission.clone_us", mean_us("admission.clone")),
            (
                "admission.release_batch_us",
                mean_us("admission.release_batch"),
            ),
            ("admission.rebase_us", mean_us("admission.rebase")),
            ("admission.readmit_us", mean_us("admission.readmit")),
            ("resilience.verdict_us", mean_us("resilience.verdict")),
            (
                "resilience.reverified_mean",
                sum(|v| v.reverified) as f64 / n,
            ),
            (
                "resilience.flow_analyses_mean",
                sum(|v| v.flow_analyses) as f64 / n,
            ),
            ("resilience.cold_verdict_us", cold_mean_ns / 1e3),
            (
                "resilience.incremental_over_cold",
                assess_mean_ns / cold_mean_ns.max(1.0),
            ),
            (
                "trace.overhead_ratio",
                out.tracer.mean_op_ns() / assess_mean_ns.max(1.0),
            ),
        ]
        .into_iter()
        .collect();
    }
    out
}
