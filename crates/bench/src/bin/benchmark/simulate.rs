//! Workload `simulate`: the tightness-atlas pipeline called directly —
//! conservative `analyze`, then `Simulator::new` + `run`, then every
//! observed per-frame maximum checked against its bound — over seeded fuzz
//! scenarios and ring-of-cells metros (6–24 cells), closed loop, one
//! caller.
//!
//! The event core, histograms and stride scheduling dominate; analysis is
//! a small share.  Fuzz scenarios and rings give two working-set sizes.

use crate::stats::Permille;
use crate::trace::{Tracer, OP};
use crate::{guarded, keep_fastest, nanos, rates, same_findings, Checks, Ctx, Outcome, Scale};
use gmf_analysis::{
    analyze, iterate_from, AnalysisConfig, AnalysisContext, AnalysisError, AnalysisReport,
    JitterMap,
};
use gmf_bench::conformance::horizon_for;
use gmf_model::{packetize, Time};
use gmf_net::{FlowSet, NodeId, Topology};
use gmf_par::derive_seed;
use gmf_workloads::{resilience_scenario, valid_scenario, FuzzConfig, ResilienceConfig};
use rand::{Rng, SeedableRng};
use std::time::Instant;
use switch_sim::{
    EventKind, EventQueue, ResponseHistogram, SimConfig, SimulationResult, Simulator,
};

/// Tail percentile: a run simulates a few hundred scenarios.
const TAIL: Permille = 900;

struct Scenario {
    topology: Topology,
    flows: FlowSet,
    sim: SimConfig,
}

/// Ethernet-frame hops a scenario's released traffic makes, about 150,000
/// simulated events (four to five per frame hop).  Each horizon is worked
/// out from the generated flows alone, so every scenario does about the
/// same work and a run's latencies do not hinge on which scenarios the
/// seed happened to draw.  A horizon never shrinks below a third of
/// `horizon_for`, about one cycle of the slowest flow.
const FRAME_HOPS_PER_SCENARIO: f64 = 35_000.0;

/// Ethernet-frame hops per simulated second the flows release at their
/// minimum inter-arrival times.
fn frame_hops_per_s(flows: &FlowSet) -> f64 {
    flows
        .bindings()
        .iter()
        .map(|b| {
            let frames: u64 = b
                .flow
                .frames()
                .iter()
                .map(|f| packetize(f.payload, &b.encapsulation).n_ethernet_frames)
                .sum();
            frames as f64 * b.route.hops().count() as f64 / b.flow.tsum().as_secs()
        })
        .sum()
}

fn scenario(topology: Topology, flows: FlowSet, seed: u64, frame_hops: f64) -> Scenario {
    let horizon = Time::from_secs(frame_hops / frame_hops_per_s(&flows))
        .max(horizon_for(&flows) * (1.0 / 3.0));
    Scenario {
        topology,
        flows,
        sim: SimConfig {
            horizon,
            seed,
            ..SimConfig::default()
        },
    }
}

fn corpus(ctx: &Ctx) -> Vec<Scenario> {
    let (n_fuzz, ring_cells, frame_hops): (u64, &[usize], f64) = match ctx.scale {
        Scale::Full => (
            192,
            &[6, 12, 18, 24, 6, 12, 18, 24],
            FRAME_HOPS_PER_SCENARIO,
        ),
        Scale::Smoke => (2, &[3], 1_200.0),
    };
    let fuzz = FuzzConfig::default();
    let mut corpus: Vec<Scenario> = (0..n_fuzz)
        .map(|i| {
            let (s, _) = valid_scenario(derive_seed(ctx.seed, i), &fuzz);
            scenario(
                s.topology,
                s.flows,
                derive_seed(ctx.seed, 1 << 32 | i),
                frame_hops,
            )
        })
        .collect();
    for (j, &n_cells) in ring_cells.iter().enumerate() {
        let j = j as u64;
        let config = match ctx.scale {
            Scale::Full => ResilienceConfig {
                n_cells,
                ..ResilienceConfig::default()
            },
            Scale::Smoke => ResilienceConfig::tiny(),
        };
        let ring = resilience_scenario(derive_seed(ctx.seed, 2 << 32 | j), &config);
        let seed = derive_seed(ctx.seed, 3 << 32 | j);
        corpus.push(scenario(ring.topology, ring.flows, seed, frame_hops));
    }
    corpus
}

fn config() -> AnalysisConfig {
    AnalysisConfig::conservative().with_threads(1)
}

/// The deterministic shape of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Shape {
    events: u64,
    packets: u64,
    max_pending: u64,
    buckets_opened: u64,
    pool_reuses: u64,
}

impl Shape {
    fn of(result: &SimulationResult) -> Self {
        Shape {
            events: result.events_processed,
            packets: result.stats.packets_completed,
            max_pending: result.queue.max_pending as u64,
            buckets_opened: result.queue.buckets_opened,
            pool_reuses: result.queue.pool_reuses,
        }
    }
}

/// Check one pipeline run: the analysis repeats its reference, every flow
/// completes packets, every observed per-frame maximum stays within its
/// bound, and the simulation repeats its first run's shape.
fn check(
    checks: &mut Checks,
    index: usize,
    scenario: &Scenario,
    got: Result<Result<(AnalysisReport, SimulationResult), String>, String>,
    reference: &AnalysisReport,
    first: Option<Shape>,
) -> Option<Shape> {
    let (report, result) = match got {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => {
            checks.fail(format!("scenario {index}: {e}"));
            return None;
        }
        Err(panic) => {
            checks.fail(format!("scenario {index} panicked: {panic}"));
            return None;
        }
    };
    let mut problem = None;
    if !same_findings(&report, reference) {
        problem = Some("the analysis did not repeat".to_string());
    } else if !report.schedulable {
        problem = Some("not schedulable, so there are no bounds to check".to_string());
    }
    for binding in scenario.flows.bindings() {
        if problem.is_some() {
            break;
        }
        if result.stats.completed_of_flow(binding.id) == 0 {
            problem = Some(format!("flow {} completed no packet", binding.id));
            break;
        }
        let Some(flow) = report.flow(binding.id) else {
            problem = Some(format!("flow {} has no bounds", binding.id));
            break;
        };
        for frame in &flow.frames {
            let observed = result.stats.worst_frame_response(binding.id, frame.frame);
            if observed.is_some_and(|max| !frame.dominates(max)) {
                problem = Some(format!(
                    "flow {} frame {} observed {:?} above its bound {}",
                    binding.id, frame.frame, observed, frame.bound
                ));
                break;
            }
        }
    }
    let shape = Shape::of(&result);
    if problem.is_none() && first.is_some_and(|f| f != shape) {
        problem = Some("the simulation did not repeat".to_string());
    }
    checks.check(problem.is_none(), || {
        format!("scenario {index}: {}", problem.clone().unwrap_or_default())
    });
    Some(shape)
}

fn simulate(scenario: &Scenario) -> Result<SimulationResult, String> {
    Simulator::new(&scenario.topology, &scenario.flows, scenario.sim)
        .and_then(|sim| sim.run())
        .map_err(|e| e.to_string())
}

/// One untimed-check, timed-pipeline pass; returns per-scenario latency.
fn timed_pass(
    corpus: &[Scenario],
    reference: &[AnalysisReport],
    shapes: &mut Vec<Shape>,
    checks: &mut Checks,
) -> Vec<u64> {
    let config = config();
    let mut op_ns = Vec::with_capacity(corpus.len());
    for (i, (scenario, reference)) in corpus.iter().zip(reference).enumerate() {
        let start = Instant::now();
        let got = guarded(|| {
            let report =
                analyze(&scenario.topology, &scenario.flows, &config).map_err(|e| e.to_string())?;
            Ok((report, simulate(scenario)?))
        });
        op_ns.push(nanos(start.elapsed()));
        let shape = check(checks, i, scenario, got, reference, shapes.get(i).copied());
        if shapes.len() == i {
            shapes.push(shape.unwrap_or_default());
        }
    }
    op_ns
}

/// One traced pass: the analysis replayed as context build + fixed point,
/// then simulator construction and run, each in its own span.
fn traced_pass(
    corpus: &[Scenario],
    reference: &[AnalysisReport],
    shapes: &[Shape],
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (u64, u64) {
    let config = config();
    let (mut rounds, mut analyses) = (0u64, 0u64);
    for (i, (scenario, reference)) in corpus.iter().zip(reference).enumerate() {
        let op = i as u64;
        tracer.enter(OP, op);
        let got = guarded(|| {
            tracer.enter("sim.analyze", op);
            let run = tracer
                .time("context.build", op, || {
                    AnalysisContext::new(&scenario.topology, &scenario.flows)
                })
                .and_then(|ctx| {
                    tracer.time("fixed_point", op, || {
                        iterate_from(&ctx, &config, JitterMap::initial(&scenario.flows))
                    })
                });
            tracer.exit();
            let run = run.map_err(|e: AnalysisError| e.to_string())?;
            rounds += run.report.iterations as u64;
            analyses += run.flow_analyses as u64;
            let sim = tracer
                .time("sim.new", op, || {
                    Simulator::new(&scenario.topology, &scenario.flows, scenario.sim)
                })
                .map_err(|e| e.to_string())?;
            let result = tracer
                .time("sim.run", op, || sim.run())
                .map_err(|e| e.to_string())?;
            Ok((run.report, result))
        });
        tracer.exit();
        check(checks, i, scenario, got, reference, shapes.get(i).copied());
    }
    (rounds, analyses)
}

/// Set-up repetitions after each timed pass: the analysis pass takes tens
/// of milliseconds, and repeating it across the run makes `setup_s` a
/// median over the whole run rather than one moment of it.
const SETUPS_PER_PASS: usize = 2;

/// The set-up: one analysis pass over the corpus, timed as a whole.  The
/// first fills `reference` (and fails the run if any analysis errs); later
/// ones must repeat it.
fn set_up(corpus: &[Scenario], reference: &mut Vec<AnalysisReport>, out: &mut Outcome) -> bool {
    let config = config();
    let start = Instant::now();
    let reports: Vec<_> = corpus
        .iter()
        .map(|s| analyze(&s.topology, &s.flows, &config))
        .collect();
    out.setup_s.push(start.elapsed().as_secs_f64());
    let first = reference.is_empty();
    for (i, report) in reports.into_iter().enumerate() {
        match report {
            Ok(r) if first => reference.push(r),
            Ok(r) => out.checks.check(r == reference[i], || {
                format!("scenario {i}: the analysis did not repeat")
            }),
            Err(e) => {
                out.checks.fail(format!("scenario {i}: {e}"));
                return false;
            }
        }
    }
    true
}

/// Nanoseconds per `pop` + `schedule` pair of the public event queue held
/// at `depth` pending events.
fn event_queue_probe(depth: usize, seed: u64, pairs: u64) -> f64 {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let deltas: Vec<Time> = (0..4096)
        .map(|_| Time::from_nanos(rng.gen_range(1.0..1.0e6)))
        .collect();
    let mut queue = EventQueue::new();
    let kind = EventKind::CpuDispatch { switch: NodeId(0) };
    for i in 0..depth.max(1) {
        let at = deltas[i % deltas.len()] * (i as u64 % 7 + 1);
        queue
            .schedule(at, kind.clone())
            .expect("the queue starts at time zero");
    }
    let start = Instant::now();
    for i in 0..pairs {
        let event = queue.pop().expect("the queue never drains");
        let at = event.time + deltas[i as usize % deltas.len()];
        queue
            .schedule(at, event.kind)
            .expect("rescheduled events lie in the future");
    }
    start.elapsed().as_nanos() as f64 / pairs as f64
}

/// Nanoseconds per `ResponseHistogram::record_ns`.
fn histogram_probe(seed: u64, records: u64) -> f64 {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let samples: Vec<u64> = (0..4096)
        .map(|_| rng.gen_range(1_000..50_000_000))
        .collect();
    let mut histogram = ResponseHistogram::new();
    let start = Instant::now();
    for i in 0..records {
        histogram.record_ns(samples[i as usize % samples.len()]);
    }
    let ns = start.elapsed().as_nanos() as f64 / records as f64;
    std::hint::black_box(histogram.count());
    ns
}

pub fn run(ctx: &Ctx) -> Outcome {
    let corpus = corpus(ctx);
    let mut out = Outcome {
        tail: TAIL,
        ..Outcome::default()
    };

    // Set-up: the bounds every simulation is checked against.
    let mut reference: Vec<AnalysisReport> = Vec::new();
    if !set_up(&corpus, &mut reference, &mut out) {
        return out;
    }

    let clock = ctx.clock();
    let mut shapes: Vec<Shape> = Vec::new();
    let (mut passes, mut untraced, mut sim_rounds, mut sim_analyses) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_passes = 0u64;
    loop {
        let pass = timed_pass(&corpus, &reference, &mut shapes, &mut out.checks);
        untraced += pass.iter().sum::<u64>();
        keep_fastest(&mut out.op_ns, &pass);
        passes += 1;
        if ctx.trace {
            let (r, a) = traced_pass(
                &corpus,
                &reference,
                &shapes,
                &mut out.checks,
                &mut out.tracer,
            );
            sim_rounds += r;
            sim_analyses += a;
            traced_passes += 1;
        } else {
            for _ in 0..SETUPS_PER_PASS {
                set_up(&corpus, &mut reference, &mut out);
            }
        }
        if clock.expired() {
            break;
        }
    }

    let total = shapes.iter().fold(Shape::default(), |acc, s| Shape {
        events: acc.events + s.events,
        packets: acc.packets + s.packets,
        max_pending: acc.max_pending.max(s.max_pending),
        buckets_opened: acc.buckets_opened + s.buckets_opened,
        pool_reuses: acc.pool_reuses + s.pool_reuses,
    });
    out.counters = [
        ("scenarios", corpus.len() as u64),
        ("flows", corpus.iter().map(|s| s.flows.len() as u64).sum()),
        (
            "rounds",
            reference.iter().map(|r| r.iterations as u64).sum(),
        ),
        (
            "frames",
            reference.iter().map(|r| r.n_frame_bounds() as u64).sum(),
        ),
        ("events", total.events),
        ("packets", total.packets),
        ("max_pending", total.max_pending),
        ("buckets_opened", total.buckets_opened),
        ("pool_reuses", total.pool_reuses),
    ]
    .into_iter()
    .collect();

    let n_ops = passes * corpus.len() as u64;
    (out.ops_per_s, out.ns_per_work) = rates(&out.op_ns, total.events);

    if ctx.trace {
        let totals = out.tracer.totals();
        let get = |name| totals.get(name).copied().unwrap_or_default();
        let fixed_point = get("fixed_point");
        let run = get("sim.run");
        let solves = (traced_passes * corpus.len() as u64).max(1) as f64;
        let (pairs, records) = match ctx.scale {
            Scale::Full => (2_000_000, 4_000_000),
            Scale::Smoke => (1_000, 1_000),
        };
        out.layers = [
            ("sim.analyze_us", get("sim.analyze").mean_us()),
            ("context.build_us", get("context.build").mean_us()),
            ("fixed_point.us", fixed_point.mean_us()),
            ("fixed_point.rounds", sim_rounds as f64 / solves),
            ("fixed_point.flow_analyses", sim_analyses as f64 / solves),
            (
                "fixed_point.ns_per_flow_analysis",
                fixed_point.total_ns as f64 / sim_analyses.max(1) as f64,
            ),
            ("sim.new_us", get("sim.new").mean_us()),
            ("sim.run_ms", run.mean_us() / 1e3),
            (
                "sim.ns_per_event",
                run.total_ns as f64 / (traced_passes * total.events).max(1) as f64,
            ),
            ("sim.events", total.events as f64),
            ("sim.packets", total.packets as f64),
            ("sim.max_pending", total.max_pending as f64),
            ("sim.buckets_opened", total.buckets_opened as f64),
            ("sim.pool_reuses", total.pool_reuses as f64),
            (
                "event.schedule_pop_ns",
                event_queue_probe(total.max_pending as usize, ctx.seed, pairs),
            ),
            ("stats.record_ns", histogram_probe(ctx.seed, records)),
            (
                "trace.overhead_ratio",
                out.tracer.mean_op_ns() / (untraced as f64 / n_ops.max(1) as f64),
            ),
        ]
        .into_iter()
        .collect();
    }
    out
}
