//! `benchmark` — the repository's end-to-end benchmark.
//!
//! Four workloads follow the paper's users: an operator analyses networks
//! (`analyze`), admits and releases flows against the bounds
//! (`admission`), checks the bounds after single failures
//! (`survivability`), and checks them against the simulator
//! (`simulate`).  Each run measures one workload in its own process for
//! `--seconds`, checks every output, and prints one JSON result line as
//! the last line of standard output.  Untraced runs report the end-to-end
//! metrics; `--trace 1` runs report per-layer numbers timed around calls
//! into each layer's public functions.  README.md next to this file lists
//! the workloads and metrics and how to compare two sets of runs.

mod admission;
mod analyze;
mod compare;
mod simulate;
mod stats;
mod survivability;
mod trace;

use serde::{Deserialize, Serialize};
use stats::Permille;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads and their default seeds.
pub const WORKLOADS: [(&str, u64); 4] = [
    ("analyze", 1101),
    ("admission", 1408),
    ("survivability", 1608),
    ("simulate", 1708),
];

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;

/// Whether a metric improves by going down or up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric as BENCHMARK.json declares it.  `bound` is the share of
/// the parent's median by which an end-to-end metric may worsen (per-layer
/// metrics have none).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// One per-layer metric: the layer it measures and the end-to-end metric,
/// on which workload, a change in that layer should move (`none` where no
/// end-to-end metric depends on it).
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// The metric (its bound is unused).
    pub def: MetricDef,
    /// The layer: a crate, module or part of the benchmark.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        def: metric(name, unit, better, 0.0),
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every untraced run of every workload reports all
/// of them (README.md says what the "operation" of each workload is).
pub const END_TO_END: [MetricDef; 6] = [
    metric("setup_s", "s", Lower, 0.25),
    metric("peak_rss_mb", "MiB", Lower, 0.15),
    metric("op_p50_us", "us", Lower, 0.25),
    metric("op_tail_us", "us", Lower, 0.25),
    metric("ops_per_s", "1/s", Higher, 0.25),
    metric("ns_per_work", "ns", Lower, 0.25),
];

/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [LayerDef; 52] = [
    layer(
        "context.build_us",
        "us",
        Lower,
        "analysis::context",
        "op_p50_us on analyze; setup_s on admission",
    ),
    layer(
        "model.table_build_us",
        "us",
        Lower,
        "gmf-model::table",
        "op_p50_us on analyze",
    ),
    layer(
        "context.tables",
        "count",
        Lower,
        "analysis::context",
        "op_p50_us on analyze",
    ),
    layer(
        "context.windows",
        "count",
        Lower,
        "analysis::context",
        "op_p50_us on analyze",
    ),
    layer(
        "context.terms",
        "count",
        Lower,
        "analysis::context",
        "op_p50_us on analyze",
    ),
    layer(
        "fixed_point.us",
        "us",
        Lower,
        "analysis::fixed_point",
        "op_tail_us, ops_per_s on analyze",
    ),
    layer(
        "fixed_point.rounds",
        "count",
        Lower,
        "analysis::fixed_point",
        "ns_per_work, op_tail_us on analyze",
    ),
    layer(
        "fixed_point.flow_analyses",
        "count",
        Lower,
        "analysis::fixed_point",
        "ns_per_work, op_tail_us on analyze",
    ),
    layer(
        "fixed_point.ns_per_flow_analysis",
        "ns",
        Lower,
        "analysis::fixed_point",
        "ns_per_work on analyze",
    ),
    layer(
        "fixed_point.skip_ratio",
        "ratio",
        Lower,
        "analysis::fixed_point",
        "op_tail_us on analyze",
    ),
    layer(
        "fixed_point.threads2_ratio",
        "ratio",
        Lower,
        "gmf-par",
        "none: every workload runs one analysis thread",
    ),
    layer(
        "par.fork_join_us",
        "us",
        Lower,
        "gmf-par",
        "none: no workload forks at one analysis thread",
    ),
    layer(
        "admission.preload_shards",
        "count",
        Higher,
        "analysis::admission",
        "setup_s on admission",
    ),
    layer(
        "admission.preload_rounds",
        "count",
        Lower,
        "analysis::admission",
        "setup_s on admission",
    ),
    layer(
        "admission.preload_flow_analyses",
        "count",
        Lower,
        "analysis::admission",
        "setup_s on admission",
    ),
    layer(
        "deps.partition_build_ms",
        "ms",
        Lower,
        "analysis::deps",
        "setup_s on admission",
    ),
    layer(
        "admission.rounds_per_decision",
        "count",
        Lower,
        "analysis::admission",
        "op_p50_us on admission",
    ),
    layer(
        "admission.flow_analyses_per_decision",
        "count",
        Lower,
        "analysis::admission",
        "op_p50_us, ns_per_work on admission",
    ),
    layer(
        "admission.us_per_flow_analysis",
        "us",
        Lower,
        "analysis::admission",
        "op_p50_us, ns_per_work on admission",
    ),
    layer(
        "admission.warm_ratio",
        "ratio",
        Higher,
        "analysis::admission",
        "op_p50_us on admission",
    ),
    layer(
        "admission.accept_ratio",
        "ratio",
        Higher,
        "analysis::admission",
        "op_p50_us on admission",
    ),
    layer(
        "admission.trial_flows_mean",
        "count",
        Lower,
        "analysis::admission",
        "op_p50_us on admission",
    ),
    layer(
        "admission.batch_size_mean",
        "count",
        Lower,
        "analysis::admission",
        "op_tail_us on admission",
    ),
    layer(
        "deps.shards_touching_us",
        "us",
        Lower,
        "analysis::deps",
        "op_p50_us on admission",
    ),
    layer(
        "deps.affected_us",
        "us",
        Lower,
        "analysis::deps",
        "op_tail_us on admission",
    ),
    layer(
        "admission.release_p50_us",
        "us",
        Lower,
        "analysis::admission",
        "op_tail_us on admission",
    ),
    layer(
        "harness.late_p99_us",
        "us",
        Lower,
        "benchmark harness",
        "op_tail_us on admission",
    ),
    layer(
        "net.survivor_us",
        "us",
        Lower,
        "gmf-net",
        "op_p50_us on survivability",
    ),
    layer(
        "net.affected_us",
        "us",
        Lower,
        "gmf-net",
        "op_p50_us on survivability",
    ),
    layer(
        "net.reroute_us",
        "us",
        Lower,
        "gmf-net",
        "op_p50_us on survivability",
    ),
    layer(
        "admission.clone_us",
        "us",
        Lower,
        "analysis::admission",
        "op_p50_us on survivability",
    ),
    layer(
        "admission.release_batch_us",
        "us",
        Lower,
        "analysis::admission",
        "op_p50_us on survivability",
    ),
    layer(
        "admission.rebase_us",
        "us",
        Lower,
        "analysis::admission",
        "op_p50_us on survivability",
    ),
    layer(
        "admission.readmit_us",
        "us",
        Lower,
        "analysis::admission",
        "op_p50_us, op_tail_us on survivability",
    ),
    layer(
        "resilience.verdict_us",
        "us",
        Lower,
        "analysis::resilience",
        "op_p50_us on survivability",
    ),
    layer(
        "resilience.reverified_mean",
        "count",
        Lower,
        "analysis::resilience",
        "ns_per_work on survivability",
    ),
    layer(
        "resilience.flow_analyses_mean",
        "count",
        Lower,
        "analysis::resilience",
        "ns_per_work on survivability",
    ),
    layer(
        "resilience.cold_verdict_us",
        "us",
        Lower,
        "analysis::resilience",
        "none: the cold oracle is checked outside the timed region",
    ),
    layer(
        "resilience.incremental_over_cold",
        "ratio",
        Lower,
        "analysis::resilience",
        "op_p50_us on survivability",
    ),
    layer(
        "sim.analyze_us",
        "us",
        Lower,
        "analysis",
        "op_p50_us on simulate",
    ),
    layer(
        "sim.new_us",
        "us",
        Lower,
        "switch-sim::sim",
        "op_p50_us on simulate",
    ),
    layer(
        "sim.run_ms",
        "ms",
        Lower,
        "switch-sim::sim",
        "op_p50_us, ops_per_s on simulate",
    ),
    layer(
        "sim.ns_per_event",
        "ns",
        Lower,
        "switch-sim::sim",
        "ns_per_work on simulate",
    ),
    layer(
        "sim.events",
        "count",
        Lower,
        "switch-sim::sim",
        "op_p50_us on simulate",
    ),
    layer(
        "sim.packets",
        "count",
        Higher,
        "switch-sim::sim",
        "none: set by the inputs",
    ),
    layer(
        "sim.max_pending",
        "count",
        Lower,
        "switch-sim::event",
        "ns_per_work on simulate",
    ),
    layer(
        "sim.buckets_opened",
        "count",
        Lower,
        "switch-sim::event",
        "ns_per_work on simulate",
    ),
    layer(
        "sim.pool_reuses",
        "count",
        Higher,
        "switch-sim::event",
        "ns_per_work on simulate",
    ),
    layer(
        "event.schedule_pop_ns",
        "ns",
        Lower,
        "switch-sim::event",
        "ns_per_work on simulate",
    ),
    layer(
        "stats.record_ns",
        "ns",
        Lower,
        "switch-sim::stats",
        "ns_per_work on simulate",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "benchmark trace",
        "none: traced runs report no end-to-end metric",
    ),
    layer(
        "trace.coverage",
        "ratio",
        Higher,
        "benchmark trace",
        "none: traced runs report no end-to-end metric",
    ),
];

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scale {
    /// The sizes BENCHMARK.json describes.
    Full,
    /// Tiny inputs and one pass of every loop: exercises the harness in
    /// a few seconds, for tests.
    Smoke,
}

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Input size.
    pub scale: Scale,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Record spans and report per-layer numbers.
    pub trace: bool,
    /// Analysis threads of the admission workload: one (README.md says
    /// why); tests also run two, to check that no counter depends on it.
    pub threads: usize,
}

impl Ctx {
    /// A run at `seed`; smoke runs measure no time beyond one pass.
    pub fn new(seed: u64, scale: Scale, seconds: f64, trace: bool) -> Self {
        Ctx {
            seed,
            scale,
            seconds: if scale == Scale::Smoke { 0.0 } else { seconds },
            trace,
            threads: 1,
        }
    }

    /// The run's measured time, as a deadline from now.
    pub fn clock(&self) -> Clock {
        Clock {
            start: Instant::now(),
            budget: Duration::from_secs_f64(self.seconds),
        }
    }
}

/// A measuring deadline.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    budget: Duration,
}

impl Clock {
    /// Has the budget run out?  Loops check this between whole passes,
    /// so every loop runs at least one pass.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

/// Output checks: every checked operation counts as attempted; the ones
/// whose output is wrong (or that errored or panicked) as failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Checks {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(describe());
            }
        }
    }

    /// Record one operation that failed outright.
    pub fn fail(&mut self, message: impl Into<String>) {
        let message = message.into();
        self.check(false, || message);
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Whether two analysis reports find the same: the same per-flow bounds,
/// convergence and verdict.  How the fixed point got there (`iterations`,
/// `trace`, the wording of `failure`) is left out, since a better engine
/// may change it; the counters record that work instead.
pub fn same_findings(a: &gmf_analysis::AnalysisReport, b: &gmf_analysis::AnalysisReport) -> bool {
    (&a.flows, a.converged, a.schedulable) == (&b.flows, b.converged, b.schedulable)
}

/// Nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Fold one pass of per-operation latencies into each operation's fastest
/// repetition so far.
///
/// Every workload repeats the same operations pass after pass.  On a shared
/// host other processes slow whole stretches of a run (in one measured
/// run, a third of `analyze`'s 0.35 s passes ran up to twice as slow), and
/// an operation repeated across passes escapes that in at least one of
/// them, so its fastest repetition measures this program, not its
/// neighbours.
pub fn keep_fastest(fastest: &mut Vec<u64>, pass: &[u64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(pass);
    }
    for (best, &ns) in fastest.iter_mut().zip(pass) {
        *best = (*best).min(ns);
    }
}

/// Operations per second and busy nanoseconds per unit of work of one
/// pass made of the given operation latencies.
pub fn rates(op_ns: &[u64], work: u64) -> (f64, f64) {
    let busy = op_ns.iter().sum::<u64>() as f64;
    (op_ns.len() as f64 * 1e9 / busy, busy / work as f64)
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, nanoseconds: its fastest
    /// repetition (see [`keep_fastest`]).
    pub op_ns: Vec<u64>,
    /// The tail percentile this workload's sample supports.
    pub tail: Permille,
    /// Operations per second of busy time (see [`rates`]).
    pub ops_per_s: f64,
    /// Busy nanoseconds per unit of work the program counted.
    pub ns_per_work: f64,
    /// Deterministic counters: identical for identical inputs, on every
    /// machine and thread count.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-layer numbers (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans (traced runs).
    pub tracer: Tracer,
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    let mut outcome = match name {
        "analyze" => analyze::run(ctx),
        "admission" => admission::run(ctx),
        "survivability" => survivability::run(ctx),
        "simulate" => simulate::run(ctx),
        other => unreachable!("workload names are validated: {other}"),
    };
    if ctx.trace {
        outcome
            .layers
            .insert("par.fork_join_us", fork_join_probe(ctx.scale));
        outcome
            .layers
            .insert("trace.coverage", outcome.tracer.coverage());
    }
    outcome
}

/// Fork-join cost of one `gmf-par` call: `par_map_interleaved` over 16
/// no-op items at two threads, median of batches, microseconds.
fn fork_join_probe(scale: Scale) -> f64 {
    let items = [0u32; 16];
    let (batches, per_batch) = match scale {
        Scale::Full => (41, 50),
        Scale::Smoke => (3, 2),
    };
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                let out = gmf_par::par_map_interleaved(gmf_par::Threads::new(2), &items, |i, x| {
                    x + i as u32
                });
                std::hint::black_box(out);
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(per_batch)
        })
        .collect();
    stats::median(&samples)
}

/// One metric of the result line.
#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The result line.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// The wall-clock record of one run (`--out`): what the result line
/// holds plus sample counts, in a file of its own so that the
/// deterministic counters can be compared byte for byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingsFile {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Input size.
    pub scale: Scale,
    /// Traced run?
    pub trace: bool,
    /// Cores the machine offered.
    pub cores: usize,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Timed operations behind the percentiles.
    pub op_samples: usize,
    /// Percentile reported as `op_tail_us`, permille.
    pub tail_permille: u64,
    /// Samples beyond that percentile.
    pub tail_beyond: usize,
    /// Set-up repetitions behind `setup_s`.
    pub setup_samples: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The deterministic record of one run (`--out`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountersFile {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Input size.
    pub scale: Scale,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

fn counters_file(workload: &str, ctx: &Ctx, outcome: &Outcome) -> CountersFile {
    CountersFile {
        workload: workload.to_string(),
        seed: ctx.seed,
        scale: ctx.scale,
        counters: outcome
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    }
}

/// The metric values of a finished run: every end-to-end metric
/// untraced, every per-layer metric traced.
fn metric_values(ctx: &Ctx, outcome: &Outcome) -> Vec<(MetricDef, f64)> {
    if ctx.trace {
        return PER_LAYER
            .iter()
            .map(|l| {
                (
                    l.def,
                    outcome.layers.get(l.def.name).copied().unwrap_or(0.0),
                )
            })
            .collect();
    }
    let mut sorted = outcome.op_ns.clone();
    sorted.sort_unstable();
    let us = |p| stats::nearest_rank(&sorted, p).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    END_TO_END
        .iter()
        .map(|def| {
            let value = match def.name {
                "setup_s" => stats::median(&outcome.setup_s),
                "peak_rss_mb" => stats::peak_rss_mib().unwrap_or(f64::NAN),
                "op_p50_us" => us(500),
                "op_tail_us" => us(outcome.tail),
                "ops_per_s" => outcome.ops_per_s,
                "ns_per_work" => outcome.ns_per_work,
                other => unreachable!("unknown end-to-end metric {other}"),
            };
            (*def, value)
        })
        .collect()
}

/// First free `<dir>/<workload>-<seed>[-trace]-rNN` stem.
fn output_stem(dir: &Path, workload: &str, ctx: &Ctx) -> PathBuf {
    let trace = if ctx.trace { "-trace" } else { "" };
    (0..)
        .map(|run| dir.join(format!("{workload}-{}{trace}-r{run:02}", ctx.seed)))
        .find(|stem| !stem.with_extension("timings.json").exists())
        .expect("an unbounded range has a free name")
}

fn write_outputs(
    dir: &Path,
    workload: &str,
    ctx: &Ctx,
    outcome: &Outcome,
    timings: &TimingsFile,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = output_stem(dir, workload, ctx);
    let json = |value: serde_json::Result<String>| {
        value.map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    };
    let counters = counters_file(workload, ctx, outcome);
    std::fs::write(
        stem.with_extension("counters.json"),
        json(serde_json::to_string_pretty(&counters))? + "\n",
    )?;
    std::fs::write(
        stem.with_extension("timings.json"),
        json(serde_json::to_string_pretty(timings))? + "\n",
    )?;
    if ctx.trace {
        // One span per line: [name, start_ns, end_ns, parent, op].
        let mut lines = String::new();
        for span in outcome.tracer.spans() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            lines.push_str(&format!(
                "[\"{}\",{},{},{},{}]\n",
                span.name, span.start_ns, span.end_ns, parent, span.op
            ));
        }
        std::fs::write(stem.with_extension("spans.jsonl"), lines)?;
    }
    Ok(())
}

/// Run one workload in this process and print its result line.
fn run_one(workload: &str, ctx: &Ctx, out: Option<&Path>) -> ExitCode {
    let outcome = run_workload(workload, ctx);
    let values = metric_values(ctx, &outcome);
    let all_finite = values.iter().all(|(_, v)| v.is_finite());
    let correct = outcome.checks.failed == 0 && outcome.checks.attempted > 0 && all_finite;

    eprintln!(
        "{workload}: seed {} scale {:?} {}  {} ops checked, {} failed",
        ctx.seed,
        ctx.scale,
        if ctx.trace { "traced" } else { "untraced" },
        outcome.checks.attempted,
        outcome.checks.failed
    );
    for message in &outcome.checks.messages {
        eprintln!("  FAILED: {message}");
    }
    if !all_finite {
        eprintln!("  FAILED: a metric has no value (no samples?)");
    }
    let n = outcome.op_ns.len();
    if !ctx.trace {
        eprintln!(
            "  {} timed operations; op_tail_us is p{} with {} samples beyond it; setup_s is the median of {}",
            n,
            outcome.tail as f64 / 10.0,
            stats::beyond(n, outcome.tail),
            outcome.setup_s.len()
        );
    }
    for (def, value) in &values {
        eprint!(
            "  {:<40} {:>16.4} {:<6} ({} is better)",
            def.name,
            value,
            def.unit,
            def.better.as_str()
        );
        match PER_LAYER.iter().find(|l| l.def.name == def.name) {
            Some(l) if ctx.trace => eprintln!("  {}; moves {}", l.layer, l.moves),
            _ => eprintln!(),
        }
    }

    if let Some(dir) = out {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let timings = TimingsFile {
            workload: workload.to_string(),
            seed: ctx.seed,
            scale: ctx.scale,
            trace: ctx.trace,
            cores,
            attempted: outcome.checks.attempted,
            failed: outcome.checks.failed,
            op_samples: n,
            tail_permille: outcome.tail,
            tail_beyond: stats::beyond(n, outcome.tail),
            setup_samples: outcome.setup_s.len(),
            metrics: values
                .iter()
                .map(|(def, v)| (def.name.to_string(), *v))
                .collect(),
        };
        if let Err(e) = write_outputs(dir, workload, ctx, &outcome, &timings) {
            eprintln!("cannot write results under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }

    let line = ResultLine {
        correct,
        attempted: outcome.checks.attempted,
        failed: outcome.checks.failed,
        metrics: values
            .iter()
            .map(|(def, value)| {
                let metric = MetricValue {
                    value: *value,
                    unit: def.unit.to_string(),
                };
                (def.name.to_string(), metric)
            })
            .collect(),
    };
    match serde_json::to_string(&line) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("cannot encode the result line: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in a process of its own, one after
/// the other, with the same arguments.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for (workload, _) in WORKLOADS {
        let mut command = std::process::Command::new(&exe);
        command
            .args(["--workload", workload])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--scale", args.scale_name()]);
        if let Some(seed) = args.seed {
            command.args(["--seed", &seed.to_string()]);
        }
        if let Some(out) = &args.out {
            command.arg("--out").arg(out);
        }
        match command.status() {
            Ok(s) if s.success() => {}
            Ok(_) => status = ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cannot run workload {workload}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

/// Arguments of a measuring run.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
}

impl RunArgs {
    fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run(RunArgs),
    Compare {
        parent: PathBuf,
        change: PathBuf,
        same: bool,
    },
    Help,
}

const USAGE: &str = "\
usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                 [--scale full|smoke] [--out DIR]
       benchmark compare [--same] PARENT_DIR CHANGE_DIR

workloads: analyze, admission, survivability, simulate (default: all)
The last line of standard output is the JSON result of the run; --out DIR
also writes <workload>-<seed>-rNN.{counters,timings}.json (and .spans.jsonl
when traced), which `compare` reads; `--same` says both sets come from one
commit, so their counters must match too.";

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let (same, dirs) = match &args[1..] {
            [flag, rest @ ..] if flag == "--same" => (true, rest),
            rest => (false, rest),
        };
        return match dirs {
            [parent, change] => Ok(Command::Compare {
                parent: parent.into(),
                change: change.into(),
                same,
            }),
            _ => Err("compare takes two directories".to_string()),
        };
    }
    let mut run = RunArgs {
        workload: "all".to_string(),
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        let take = |what: &str| value.ok_or(format!("{flag} needs {what}"));
        match flag {
            "--help" | "-h" => return Ok(Command::Help),
            "--workload" => {
                let name = take("a workload name")?;
                if name != "all" && !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name}"));
                }
                run.workload = name.to_string();
            }
            "--seed" => {
                let seed = take("a number")?;
                run.seed = Some(seed.parse().map_err(|_| format!("bad seed {seed}"))?);
            }
            "--seconds" => {
                let s = take("a number")?;
                run.seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {s}"))?;
            }
            "--trace" => match value {
                Some("0") => run.trace = false,
                Some("1") => run.trace = true,
                _ => {
                    // A bare `--trace`.
                    run.trace = true;
                    i += 1;
                    continue;
                }
            },
            "--scale" => {
                run.scale = match take("full or smoke")? {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other}")),
                };
            }
            "--out" => run.out = Some(PathBuf::from(take("a directory")?)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Command::Run(run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Compare {
            parent,
            change,
            same,
        }) => compare::run(&parent, &change, same),
        Ok(Command::Run(run)) if run.workload == "all" => run_all(&run),
        Ok(Command::Run(run)) => {
            let default_seed = WORKLOADS
                .iter()
                .find(|(w, _)| *w == run.workload)
                .map_or(0, |(_, s)| *s);
            let ctx = Ctx::new(
                run.seed.unwrap_or(default_seed),
                run.scale,
                run.seconds,
                run.trace,
            );
            run_one(&run.workload, &ctx, run.out.as_deref())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> (Ctx, Outcome) {
        let seed = WORKLOADS.iter().find(|(w, _)| *w == workload).unwrap().1;
        let ctx = Ctx::new(seed, Scale::Smoke, 0.0, trace);
        let outcome = run_workload(workload, &ctx);
        (ctx, outcome)
    }

    #[test]
    fn smoke_pass_of_every_workload_checks_out() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let (ctx, outcome) = smoke(workload, trace);
                assert!(outcome.checks.attempted > 0, "{workload}: nothing checked");
                assert_eq!(
                    outcome.checks.failed, 0,
                    "{workload} (trace {trace}): {:?}",
                    outcome.checks.messages
                );
                let values = metric_values(&ctx, &outcome);
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(values.len(), expected);
                for (def, value) in values {
                    assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
                    if !trace {
                        assert!(value > 0.0, "{workload}: {} = {value}", def.name);
                    }
                }
                if trace {
                    let coverage = outcome.layers["trace.coverage"];
                    assert!(coverage > 0.0 && coverage <= 1.0, "{workload}: {coverage}");
                    assert!(outcome.layers["trace.overhead_ratio"] > 0.0, "{workload}");
                }
            }
        }
    }

    #[test]
    fn counters_repeat_byte_for_byte() {
        for (workload, _) in WORKLOADS {
            let (ctx, a) = smoke(workload, false);
            let (_, b) = smoke(workload, false);
            let a = serde_json::to_string_pretty(&counters_file(workload, &ctx, &a)).unwrap();
            let b = serde_json::to_string_pretty(&counters_file(workload, &ctx, &b)).unwrap();
            assert!(a.contains('"'), "{workload}: no counters");
            assert_eq!(a, b, "{workload}");
        }
    }

    #[test]
    fn admission_counters_do_not_depend_on_threads() {
        let mut ctx = Ctx::new(1408, Scale::Smoke, 0.0, false);
        ctx.threads = 1;
        let one = admission::run(&ctx).counters;
        ctx.threads = 2;
        let two = admission::run(&ctx).counters;
        assert!(!one.is_empty());
        assert_eq!(one, two);
    }

    #[test]
    fn arguments_parse_in_the_documented_form() {
        let args: Vec<String> = "--workload simulate --seed 7 --seconds 10 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let Command::Run(run) = parse_args(&args).unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(run.workload, "simulate");
        assert_eq!(run.seed, Some(7));
        assert_eq!(run.seconds, 10.0);
        assert!(!run.trace);
        let bare: Vec<String> = ["--trace", "--scale", "smoke"].map(String::from).to_vec();
        let Command::Run(run) = parse_args(&bare).unwrap() else {
            panic!("expected a run");
        };
        assert!(run.trace);
        assert_eq!(run.scale, Scale::Smoke);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }

    /// BENCHMARK.json at the repository root describes exactly what this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        #[derive(Deserialize)]
        struct Workload {
            name: String,
        }
        #[derive(Deserialize)]
        struct Metric {
            name: String,
            unit: String,
            better: String,
        }
        #[derive(Deserialize)]
        struct Bound {
            bound: f64,
        }
        #[derive(Deserialize)]
        struct Spec {
            run_seconds: f64,
            workloads: Vec<Workload>,
            end_to_end: Vec<Metric>,
            per_layer: Vec<Metric>,
        }
        #[derive(Deserialize)]
        struct Bounds {
            end_to_end: Vec<Bound>,
        }
        let text = include_str!("../../../../../BENCHMARK.json");
        let spec: Spec = serde_json::from_str(text).unwrap();
        let bounds: Bounds = serde_json::from_str(text).unwrap();
        assert_eq!(spec.run_seconds, DEFAULT_SECONDS);
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS.map(|(w, _)| w));
        let check = |declared: &[Metric], defs: &[MetricDef]| {
            assert_eq!(declared.len(), defs.len());
            for (m, def) in declared.iter().zip(defs) {
                assert_eq!(
                    (m.name.as_str(), m.unit.as_str(), m.better.as_str()),
                    (def.name, def.unit, def.better.as_str())
                );
            }
        };
        check(&spec.end_to_end, &END_TO_END);
        let per_layer: Vec<MetricDef> = PER_LAYER.iter().map(|l| l.def).collect();
        check(&spec.per_layer, &per_layer);
        for (b, def) in bounds.end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(b.bound, def.bound, "{}", def.name);
        }
    }

    /// Every per-layer metric names end-to-end metrics and workloads that
    /// exist, and README.md's per-layer table repeats its layer and what
    /// it moves.
    #[test]
    fn per_layer_metrics_name_their_layer_and_what_they_move() {
        let readme = include_str!("README.md");
        for l in &PER_LAYER {
            let row = format!("| `{}` | {} |", l.def.name, l.layer);
            let line = readme
                .lines()
                .find(|line| line.starts_with(&row))
                .unwrap_or_else(|| panic!("README.md has no row starting {row}"));
            assert!(line.ends_with(&format!("| {} |", l.moves)), "{line}");
            if l.moves.starts_with("none: ") {
                continue;
            }
            for target in l.moves.split("; ") {
                let (metrics, workload) = target.split_once(" on ").expect("metric on workload");
                assert!(WORKLOADS.iter().any(|(w, _)| *w == workload), "{target}");
                for metric in metrics.split(", ") {
                    assert!(END_TO_END.iter().any(|d| d.name == metric), "{target}");
                }
            }
        }
    }

    /// The benchmark's own manifest builds with the workspace's release
    /// profile, so it measures what the workspace ships.
    #[test]
    fn release_profile_matches_the_workspace() {
        let profile = |manifest: &'static str| -> Vec<&'static str> {
            manifest
                .lines()
                .skip_while(|line| *line != "[profile.release]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .collect()
        };
        let own = profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(include_str!("../../../../../Cargo.toml")));
    }
}
