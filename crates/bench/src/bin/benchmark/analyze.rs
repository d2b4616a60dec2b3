//! Workload `analyze`: cold `analyze` over a seeded corpus, closed loop,
//! one caller, one analysis thread.
//!
//! Context and `DemandTable` construction plus the fixed-point kernels are
//! the whole blocking path here; admission, shards, fork-join and the
//! simulator are bypassed.  The corpus mixes small fuzz draws, whose
//! median cost is mostly context build, with deep lines whose 10+ round
//! fixed points set the tail.  The line half of the corpus is stratified
//! (every seed gets the same multiset of line shapes, in a seeded order)
//! so the tail does not move with the seed.

use crate::stats::Permille;
use crate::trace::{Tracer, OP};
use crate::{guarded, keep_fastest, nanos, rates, same_findings, Checks, Ctx, Outcome, Scale};
use gmf_analysis::{
    analyze, hop_sum_matches, iterate_from, AnalysisConfig, AnalysisContext, AnalysisReport,
    JitterMap,
};
use gmf_model::DemandTable;
use gmf_net::{FlowSet, Topology};
use gmf_par::derive_seed;
use gmf_workloads::{valid_scenario, FuzzConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Line shapes: 2 generators × 8 switch counts (3–10) × 4 pair counts
/// (1–4).
const LINE_SHAPES: usize = 64;

/// The tail percentile: lines are 192/2000 of the corpus, so p99 sits
/// inside the deep-line fixed points.
const TAIL: Permille = 990;

struct Instance {
    topology: Topology,
    flows: FlowSet,
    line: bool,
}

fn line_instance(shape: usize) -> Instance {
    let switches = 3 + (shape / 2) % 8;
    let pairs = 1 + shape / 16;
    let (topology, flows) = if shape.is_multiple_of(2) {
        gmf_bench::long_tail_line_scenario(switches, pairs)
    } else {
        gmf_bench::mixed_depth_line_scenario(switches, pairs)
    };
    Instance {
        topology,
        flows,
        line: true,
    }
}

fn corpus(seed: u64, scale: Scale) -> Vec<Instance> {
    let (n_fuzz, n_lines) = match scale {
        Scale::Full => (1808, 3 * LINE_SHAPES),
        Scale::Smoke => (6, 2),
    };
    let fuzz = FuzzConfig::default();
    let mut corpus: Vec<Instance> = (0..n_fuzz)
        .map(|i| {
            let (scenario, _) = valid_scenario(derive_seed(seed, i as u64), &fuzz);
            Instance {
                topology: scenario.topology,
                flows: scenario.flows,
                line: false,
            }
        })
        .collect();
    let rotation = (derive_seed(seed, u64::MAX) % LINE_SHAPES as u64) as usize;
    corpus.extend((0..n_lines).map(|j| line_instance((j + rotation) % LINE_SHAPES)));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(derive_seed(seed, u64::MAX - 1));
    corpus.shuffle(&mut rng);
    corpus
}

/// Stand-in reference of an instance whose warm-up analysis failed (the
/// failure is already counted; every later analysis of it fails too).
fn failed_reference() -> AnalysisReport {
    AnalysisReport {
        flows: Vec::new(),
        converged: false,
        iterations: 0,
        schedulable: false,
        failure: Some("the warm-up analysis failed".to_string()),
        trace: Default::default(),
    }
}

fn config() -> AnalysisConfig {
    AnalysisConfig::conservative().with_threads(1)
}

/// Check one analysis against its reference: it must succeed, every frame
/// bound must be the sum of its hops, and the report must repeat the
/// reference's findings.
fn check(
    checks: &mut Checks,
    index: usize,
    got: Result<Result<AnalysisReport, gmf_analysis::AnalysisError>, String>,
    reference: Option<&AnalysisReport>,
) -> Option<AnalysisReport> {
    let report = match got {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            checks.fail(format!("instance {index}: {e}"));
            return None;
        }
        Err(panic) => {
            checks.fail(format!("instance {index} panicked: {panic}"));
            return None;
        }
    };
    let hops_ok = report
        .flows
        .iter()
        .flat_map(|f| &f.frames)
        .all(hop_sum_matches);
    let same = reference.is_none_or(|r| same_findings(r, &report));
    checks.check(hops_ok && same, || {
        format!("instance {index}: hop sums {hops_ok}, repeats its reference {same}")
    });
    Some(report)
}

/// Deterministic work counters of the corpus.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    rounds: u64,
    flow_analyses: u64,
    flow_analyses_noskip: u64,
    tables: u64,
    windows: u64,
    terms: u64,
}

/// One untimed pass through the fixed point's public entry with and
/// without dirty-flow skipping: the work counters, and a check that this
/// replay of `analyze` reproduces its reports.
fn count_work(corpus: &[Instance], reference: &[AnalysisReport], checks: &mut Checks) -> Work {
    let config = config();
    let noskip = config.with_skip_unchanged_flows(false);
    let mut work = Work::default();
    for (i, (inst, reference)) in corpus.iter().zip(reference).enumerate() {
        let ctx = match AnalysisContext::new(&inst.topology, &inst.flows) {
            Ok(ctx) => ctx,
            Err(e) => {
                checks.fail(format!("instance {i}: context: {e}"));
                continue;
            }
        };
        let (tables, windows, terms) = ctx.kernel_stats();
        let initial = || JitterMap::initial(&inst.flows);
        match (
            iterate_from(&ctx, &config, initial()),
            iterate_from(&ctx, &noskip, initial()),
        ) {
            (Ok(run), Ok(plain)) => {
                checks.check(same_findings(&run.report, reference), || {
                    format!("instance {i}: the context + fixed-point replay differs from analyze")
                });
                work.rounds += run.report.iterations as u64;
                work.flow_analyses += run.flow_analyses as u64;
                work.flow_analyses_noskip += plain.flow_analyses as u64;
            }
            (Err(e), _) | (_, Err(e)) => checks.fail(format!("instance {i}: fixed point: {e}")),
        }
        work.tables += tables;
        work.windows += windows;
        work.terms += terms;
    }
    work
}

/// The set-up: one warm-up pass of `analyze` over the corpus, timed as a
/// whole.  The first fills `reference`; later ones, one after each timed
/// pass so that `setup_s` is a median over the whole run rather than one
/// moment of it, are checked against it.
fn warm_up(corpus: &[Instance], reference: &mut Vec<AnalysisReport>, out: &mut Outcome) {
    let config = config();
    let start = Instant::now();
    let reports: Vec<_> = corpus
        .iter()
        .map(|inst| guarded(|| analyze(&inst.topology, &inst.flows, &config)))
        .collect();
    out.setup_s.push(start.elapsed().as_secs_f64());
    let first = reference.is_empty();
    for (i, got) in reports.into_iter().enumerate() {
        if first {
            let report = check(&mut out.checks, i, got, None);
            reference.push(report.unwrap_or_else(failed_reference));
        } else {
            check(&mut out.checks, i, got, Some(&reference[i]));
        }
    }
}

/// One timed pass of `analyze` over the corpus; returns the latency of
/// each analysis.
fn timed_pass(corpus: &[Instance], reference: &[AnalysisReport], checks: &mut Checks) -> Vec<u64> {
    let config = config();
    corpus
        .iter()
        .zip(reference)
        .enumerate()
        .map(|(i, (inst, reference))| {
            let start = Instant::now();
            let got = guarded(|| analyze(&inst.topology, &inst.flows, &config));
            let ns = nanos(start.elapsed());
            check(checks, i, got, Some(reference));
            ns
        })
        .collect()
}

/// One traced pass: `analyze` replayed as context build + fixed point
/// from the initial jitter map, each step in its own span.
fn traced_pass(
    corpus: &[Instance],
    reference: &[AnalysisReport],
    checks: &mut Checks,
    tracer: &mut Tracer,
) {
    let config = config();
    for (i, (inst, reference)) in corpus.iter().zip(reference).enumerate() {
        let op = i as u64;
        tracer.enter(OP, op);
        let got = guarded(|| {
            let ctx = tracer.time("context.build", op, || {
                AnalysisContext::new(&inst.topology, &inst.flows)
            })?;
            tracer
                .time("fixed_point", op, || {
                    iterate_from(&ctx, &config, JitterMap::initial(&inst.flows))
                })
                .map(|run| run.report)
        });
        tracer.exit();
        check(checks, i, got, Some(reference));
    }
}

/// Time `DemandTable::new` over every route hop's cached demand, one
/// probe span per instance.
fn table_probe(corpus: &[Instance], tracer: &mut Tracer) {
    for (i, inst) in corpus.iter().enumerate() {
        let Ok(ctx) = AnalysisContext::new(&inst.topology, &inst.flows) else {
            continue;
        };
        tracer.time("model.table_build", i as u64, || {
            for binding in inst.flows.bindings() {
                for hop in binding.route.hops() {
                    let table = DemandTable::new(ctx.demand(binding.id, hop.from, hop.to));
                    std::hint::black_box(table);
                }
            }
        });
    }
}

/// `analyze` at two threads over one at one thread, summed over the deep
/// lines (alternating, three repetitions each).
fn threads2_probe(corpus: &[Instance], scale: Scale) -> f64 {
    let reps = if scale == Scale::Full { 3 } else { 1 };
    let (mut one, mut two) = (0u64, 0u64);
    let configs = [config(), config().with_threads(2)];
    for inst in corpus.iter().filter(|i| i.line) {
        for _ in 0..reps {
            for (total, config) in [&mut one, &mut two].into_iter().zip(&configs) {
                let start = Instant::now();
                let report = analyze(&inst.topology, &inst.flows, config);
                *total += nanos(start.elapsed());
                std::hint::black_box(report).ok();
            }
        }
    }
    two as f64 / one.max(1) as f64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let corpus = corpus(ctx.seed, ctx.scale);
    let mut out = Outcome {
        tail: TAIL,
        ..Outcome::default()
    };

    // Set-up: the warm-up pass, whose reports are the reference every
    // later analysis must repeat.
    let mut reference: Vec<AnalysisReport> = Vec::new();
    warm_up(&corpus, &mut reference, &mut out);

    let work = count_work(&corpus, &reference, &mut out.checks);
    let lines = corpus.iter().filter(|i| i.line).count() as u64;
    let frames: u64 = reference.iter().map(|r| r.n_frame_bounds() as u64).sum();
    let schedulable = reference.iter().filter(|r| r.schedulable).count() as u64;
    out.counters = [
        ("instances", corpus.len() as u64),
        ("lines", lines),
        ("frames", frames),
        ("schedulable", schedulable),
        ("rounds", work.rounds),
        ("flow_analyses", work.flow_analyses),
        ("flow_analyses_noskip", work.flow_analyses_noskip),
        ("tables", work.tables),
        ("windows", work.windows),
        ("terms", work.terms),
    ]
    .into_iter()
    .collect();

    let clock = ctx.clock();
    if !ctx.trace {
        loop {
            let pass = timed_pass(&corpus, &reference, &mut out.checks);
            keep_fastest(&mut out.op_ns, &pass);
            warm_up(&corpus, &mut reference, &mut out);
            if clock.expired() {
                break;
            }
        }
        (out.ops_per_s, out.ns_per_work) = rates(&out.op_ns, work.flow_analyses);
        return out;
    }

    // Traced: alternate untraced and traced passes over the same corpus,
    // so the overhead ratio compares identical work.
    let mut untraced = 0u64;
    let mut traced_passes = 0u64;
    loop {
        untraced += timed_pass(&corpus, &reference, &mut out.checks)
            .iter()
            .sum::<u64>();
        traced_pass(&corpus, &reference, &mut out.checks, &mut out.tracer);
        traced_passes += 1;
        if clock.expired() {
            break;
        }
    }
    table_probe(&corpus, &mut out.tracer);
    let totals = out.tracer.totals();
    let n = corpus.len() as f64;
    let fixed_point = totals.get("fixed_point").copied().unwrap_or_default();
    let mean_us = |name| totals.get(name).map_or(0.0, |t| t.mean_us());
    let analyses = (traced_passes * work.flow_analyses).max(1) as f64;
    out.layers = [
        ("context.build_us", mean_us("context.build")),
        ("model.table_build_us", mean_us("model.table_build")),
        ("context.tables", work.tables as f64 / n),
        ("context.windows", work.windows as f64 / n),
        ("context.terms", work.terms as f64 / n),
        ("fixed_point.us", fixed_point.mean_us()),
        ("fixed_point.rounds", work.rounds as f64 / n),
        ("fixed_point.flow_analyses", work.flow_analyses as f64 / n),
        (
            "fixed_point.ns_per_flow_analysis",
            fixed_point.total_ns as f64 / analyses,
        ),
        (
            "fixed_point.skip_ratio",
            work.flow_analyses as f64 / work.flow_analyses_noskip.max(1) as f64,
        ),
        (
            "fixed_point.threads2_ratio",
            threads2_probe(&corpus, ctx.scale),
        ),
        (
            "trace.overhead_ratio",
            out.tracer.mean_op_ns() / (untraced as f64 / (traced_passes as f64 * n)),
        ),
    ]
    .into_iter()
    .collect();
    out
}
