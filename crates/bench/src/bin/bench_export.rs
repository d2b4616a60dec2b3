//! `bench_export` — machine-readable benchmark medians and analysis cost
//! counters for the CI perf trajectory.
//!
//! Runs a curated set of the workspace's benchmark bodies (the same
//! workloads as the Criterion benches B1–B4) a handful of times each and
//! writes `BENCH.json`:
//!
//! ```json
//! { "schema": 3,
//!   "timings_ns": { "<bench>": <median ns per iteration>, ... },
//!   "counters":   { "<counter>": <deterministic count>, ... } }
//! ```
//!
//! `timings_ns` carries the wall-clock medians (machine-dependent);
//! `counters` carries the engine's *deterministic* cost metrics — holistic
//! rounds and per-flow analyses per workload (with dirty-flow skipping off
//! and on), the simulator's event and calendar-queue shape counters, and
//! the tightness-atlas percentile counters — which must be bit-identical
//! on every machine.  Schema 3 added the `sim/*` and `atlas/*` counters;
//! with the event count pinned exactly, the normalised gate on the
//! simulator timing is an events/sec gate.
//!
//! **Baseline check** (`--baseline <path>`): compares the fresh run
//! against a committed baseline and exits non-zero on regression.
//! Counters must match exactly.  Timings are compared *normalised by the
//! `link_demand_build_paper_flow` entry* — a pure-CPU yardstick that
//! cancels overall machine speed out of the ratio — and fail when a
//! normalised timing exceeds the baseline by more than
//! `GMF_BENCH_TOLERANCE` (default 1.5; generous, for runner noise).
//!
//! Usage: `bench_export [OUTPUT_PATH] [--baseline PATH]` (default output
//! `BENCH.json`).  Sample count: `GMF_BENCH_EXPORT_SAMPLES` (default 7).

use gmf_analysis::{
    analyze, first_hop_response, iterate_from, AnalysisConfig, AnalysisContext, JitterMap,
};
use gmf_bench::atlas::{tightness_atlas, AtlasConfig};
use gmf_bench::{
    churn_bench_config, long_tail_bench_scenario, median_ns, metro_bench_config,
    mixed_depth_line_scenario, print_header, print_table, run_metro_admission,
    synthetic_converging_set, CHURN_BENCH_SEED, HOLISTIC_SYNTHETIC_AXIS, HOLISTIC_THREAD_AXIS,
    METRO_BENCH_SEED, METRO_SMALL_BATCHES, METRO_SMALL_BATCH_SIZE, METRO_TIGHT_FRACTION,
};
use gmf_model::{
    paper_figure3_flow, BitRate, DemandTable, EncapsulationConfig, FlowId, LinkDemand, Time,
};
use gmf_workloads::{paper_scenario, run_churn};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use switch_sim::{SimConfig, Simulator};

/// The calibration timing used to normalise cross-machine comparisons.
const CALIBRATION: &str = "link_demand_build_paper_flow";

/// The `BENCH.json` schema (see module docs).
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: u32,
    timings_ns: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
}

fn main() {
    let mut output = "BENCH.json".to_string();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--baseline" {
            baseline = args.next();
            if baseline.is_none() {
                eprintln!("--baseline requires a path");
                std::process::exit(2);
            }
        } else {
            output = arg;
        }
    }
    let samples = std::env::var("GMF_BENCH_EXPORT_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(7);

    print_header("BENCH", "Benchmark medians for the CI perf trajectory");
    let mut results: BTreeMap<String, u64> = BTreeMap::new();
    let mut record = |name: &str, ns: u64| {
        results.insert(name.to_string(), ns);
    };

    // B1 — request-bound functions.
    let flow = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
    let encapsulation = EncapsulationConfig::paper();
    let speed = BitRate::from_mbps(10.0);
    record(
        "link_demand_build_paper_flow",
        median_ns(samples, || {
            black_box(LinkDemand::new(black_box(&flow), &encapsulation, speed));
        }),
    );
    let demand = LinkDemand::new(&flow, &encapsulation, speed);
    record(
        "mx_multi_cycle_window",
        median_ns(samples, || {
            black_box(demand.mx(black_box(Time::from_secs(3.0))));
        }),
    );
    record(
        "demand_table_build",
        median_ns(samples, || {
            black_box(DemandTable::new(black_box(&demand)));
        }),
    );

    // B2 — one per-resource analysis.
    let (scenario, ids) = paper_scenario();
    let ctx = AnalysisContext::new(&scenario.topology, &scenario.flows).unwrap();
    let jitters = JitterMap::initial(&scenario.flows);
    let paper_config = AnalysisConfig::paper();
    let video = FlowId(ids.video);
    record(
        "first_hop_ip_frame",
        median_ns(samples, || {
            black_box(
                first_hop_response(&ctx, &jitters, &paper_config, black_box(video), 0).unwrap(),
            );
        }),
    );

    // B3 — full holistic analysis: paper scenario, synthetic size axis,
    // worker-thread axis, and the long-tail workload.
    record(
        "holistic_paper_scenario",
        median_ns(samples, || {
            black_box(
                analyze(
                    black_box(&scenario.topology),
                    &scenario.flows,
                    &paper_config,
                )
                .unwrap(),
            );
        }),
    );

    for n_flows in HOLISTIC_SYNTHETIC_AXIS {
        let (topology, set) = synthetic_converging_set(n_flows);
        record(
            &format!("holistic_synthetic/{n_flows}"),
            median_ns(samples, || {
                black_box(analyze(black_box(&topology), &set, &paper_config).unwrap());
            }),
        );
        if n_flows == *HOLISTIC_SYNTHETIC_AXIS.last().unwrap() {
            for threads in HOLISTIC_THREAD_AXIS {
                let config = AnalysisConfig::paper().with_threads(threads);
                record(
                    &format!("holistic_threads/{threads}"),
                    median_ns(samples, || {
                        black_box(analyze(black_box(&topology), &set, &config).unwrap());
                    }),
                );
            }
        }
    }

    let (topology, flows) = long_tail_bench_scenario();
    record(
        "holistic_longtail/picard",
        median_ns(samples, || {
            black_box(analyze(black_box(&topology), &flows, &paper_config).unwrap());
        }),
    );

    // B3b — the dense core's cost counters: holistic rounds and per-flow
    // analyses per cold analyze, with dirty-flow skipping off and on.
    // These are deterministic (identical on every machine and at every
    // thread count) — the hard half of the perf-smoke gate.
    let (mixed_topology, mixed_flows) = mixed_depth_line_scenario(10, 4);
    record(
        "analyze_cold/mixed_depth",
        median_ns(samples, || {
            black_box(analyze(black_box(&mixed_topology), &mixed_flows, &paper_config).unwrap());
        }),
    );
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    {
        let (synth_topology, synth_flows) = synthetic_converging_set(16);
        let cost_workloads = [
            ("paper", &scenario.topology, &scenario.flows),
            ("synthetic16", &synth_topology, &synth_flows),
            ("longtail", &topology, &flows),
            ("mixed_depth", &mixed_topology, &mixed_flows),
        ];
        for (name, workload_topology, workload_flows) in cost_workloads {
            {
                // The demand-kernel shape of the workload: how many
                // precompiled tables the interner holds, how many window
                // spans they store in total, and how many interference
                // terms the dense plan walks.  Deterministic like the
                // round counters — a change means the plan changed.
                let ctx = AnalysisContext::new(workload_topology, workload_flows).unwrap();
                let (tables, windows, terms) = ctx.kernel_stats();
                counters.insert(format!("kernel/tables/{name}"), tables);
                counters.insert(format!("kernel/windows/{name}"), windows);
                counters.insert(format!("kernel/terms/{name}"), terms);
            }
            for (mode, skip) in [("full", false), ("skip", true)] {
                let config = AnalysisConfig::paper().with_skip_unchanged_flows(skip);
                let ctx = AnalysisContext::new(workload_topology, workload_flows).unwrap();
                let run = iterate_from(&ctx, &config, JitterMap::initial(workload_flows)).unwrap();
                counters.insert(
                    format!("flow_analyses/{name}/{mode}"),
                    run.flow_analyses as u64,
                );
                counters.insert(
                    format!("rounds/{name}/{mode}"),
                    run.report.iterations as u64,
                );
            }
        }
    }

    // B5 — admission churn through the incremental admission controller
    // on the shared churn script (same workload as the Criterion
    // `churn_admission` bench and E11).
    let churn = churn_bench_config();
    record(
        "churn_admission/warm",
        median_ns(samples, || {
            black_box(run_churn(
                black_box(CHURN_BENCH_SEED),
                &churn,
                &paper_config,
            ));
        }),
    );

    // B6 — metro-scale sharded admission on the small instance (same
    // definition as E14's full-scale run): one timing for the whole
    // preload + batch + release cycle, plus the deterministic shard and
    // cost counters that must be bit-identical on every machine.
    let metro_config = metro_bench_config();
    record(
        "metro_admission/small",
        median_ns(samples, || {
            black_box(run_metro_admission(
                black_box(METRO_BENCH_SEED),
                &metro_config,
                &paper_config,
                METRO_SMALL_BATCHES,
                METRO_SMALL_BATCH_SIZE,
                METRO_TIGHT_FRACTION,
            ));
        }),
    );
    {
        let metro = run_metro_admission(
            METRO_BENCH_SEED,
            &metro_config,
            &paper_config,
            METRO_SMALL_BATCHES,
            METRO_SMALL_BATCH_SIZE,
            METRO_TIGHT_FRACTION,
        );
        let entries = [
            ("metro/preload_shards", metro.preload.shards),
            ("metro/preload_largest_shard", metro.preload.largest_shard),
            ("metro/preload_rounds", metro.preload.rounds),
            ("metro/preload_flow_analyses", metro.preload.flow_analyses),
            ("metro/batch_accepted", metro.accepted()),
            ("metro/batch_rejected", metro.rejected()),
            ("metro/warm_decisions", metro.warm_decisions()),
            ("metro/batch_rounds", metro.rounds()),
            ("metro/batch_flow_analyses", metro.flow_analyses()),
            ("metro/largest_trial", metro.largest_trial()),
            ("metro/final_shards", metro.final_shards),
        ];
        for (name, value) in entries {
            counters.insert(name.to_string(), value as u64);
        }
    }

    // B4 — simulator throughput.  The event count is deterministic and
    // pinned by the `sim/*` counters below, so the timing gate on this
    // entry *is* an events/sec gate: ns-per-event regressing past the
    // calibrated tolerance fails the perf smoke even though raw wall time
    // varies by machine.
    let sim_config = SimConfig {
        horizon: Time::from_millis(300.0),
        ..SimConfig::default()
    };
    record(
        "simulate_paper_scenario_300ms",
        median_ns(samples, || {
            black_box(
                Simulator::new(black_box(&scenario.topology), &scenario.flows, sim_config)
                    .unwrap()
                    .run()
                    .unwrap(),
            );
        }),
    );
    {
        // Event-core shape counters: the work the simulator performs and
        // how the calendar queue held it.  Any drift means the event core
        // changed behaviour, not just speed.
        let result = Simulator::new(&scenario.topology, &scenario.flows, sim_config)
            .unwrap()
            .run()
            .unwrap();
        counters.insert("sim/paper_300ms/events".into(), result.events_processed);
        counters.insert(
            "sim/paper_300ms/packets".into(),
            result.stats.packets_completed,
        );
        counters.insert(
            "sim/paper_300ms/max_pending".into(),
            result.queue.max_pending as u64,
        );
        counters.insert(
            "sim/paper_300ms/max_bucket".into(),
            result.queue.max_bucket as u64,
        );
        counters.insert(
            "sim/paper_300ms/buckets_opened".into(),
            result.queue.buckets_opened,
        );
        counters.insert(
            "sim/paper_300ms/pool_reuses".into(),
            result.queue.pool_reuses,
        );
    }

    // B7 — the tightness atlas (E17) on a small corpus: one timing for the
    // analysis + long-horizon simulation sweep, plus deterministic
    // percentile counters.  The permille columns are integer ratios of
    // integer histogram edges, so they are bit-identical everywhere; the
    // worst row moving is a tightness change worth noticing in review.
    let atlas_config = AtlasConfig {
        scenarios: 3,
        horizon_factor: 4,
        ..AtlasConfig::default()
    };
    record(
        "tightness_atlas/small",
        median_ns(samples, || {
            black_box(tightness_atlas(black_box(&atlas_config)));
        }),
    );
    {
        let atlas = tightness_atlas(&atlas_config);
        counters.insert("atlas/rows".into(), atlas.rows.len() as u64);
        counters.insert("atlas/scenarios_ok".into(), atlas.scenarios_ok as u64);
        counters.insert("atlas/events".into(), atlas.events_processed);
        counters.insert("atlas/packets".into(), atlas.packets_completed);
        counters.insert("atlas/max_pending".into(), atlas.queue.max_pending as u64);
        counters.insert(
            "atlas/worst_max_permille".into(),
            atlas.tightest().map_or(0, |row| row.max_permille),
        );
        if let Some((_, median, _)) = atlas.spread(|row| row.p99_permille) {
            counters.insert("atlas/median_p99_permille".into(), median);
        }
    }

    // Human-readable tables plus the machine-readable artifact.
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, ns)| vec![name.clone(), format!("{ns}")])
        .collect();
    print_table(&["bench", "median ns"], &rows);
    println!();
    let rows: Vec<Vec<String>> = counters
        .iter()
        .map(|(name, count)| vec![name.clone(), format!("{count}")])
        .collect();
    print_table(&["counter", "value"], &rows);

    let report = BenchReport {
        schema: 3,
        timings_ns: results,
        counters,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&output, json + "\n").expect("write BENCH.json");
    println!();
    println!(
        "wrote {} timings and {} counters to {output}",
        report.timings_ns.len(),
        report.counters.len()
    );

    if let Some(baseline_path) = baseline {
        let failures = check_against_baseline(&report, &baseline_path);
        if !failures.is_empty() {
            eprintln!();
            eprintln!("perf-smoke FAILED against baseline {baseline_path}:");
            for failure in &failures {
                eprintln!("  {failure}");
            }
            std::process::exit(1);
        }
        println!("perf-smoke OK against baseline {baseline_path}");
    }
}

/// Compare a fresh report against a committed baseline: counters must
/// match exactly; timings are normalised by [`CALIBRATION`] and may not
/// regress by more than `GMF_BENCH_TOLERANCE` (default 1.5).
fn check_against_baseline(report: &BenchReport, baseline_path: &str) -> Vec<String> {
    let tolerance = std::env::var("GMF_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.5);
    let baseline_json = match std::fs::read_to_string(baseline_path) {
        Ok(json) => json,
        Err(err) => return vec![format!("cannot read baseline {baseline_path}: {err}")],
    };
    let baseline: BenchReport = match serde_json::from_str(&baseline_json) {
        Ok(baseline) => baseline,
        Err(err) => return vec![format!("cannot parse baseline {baseline_path}: {err}")],
    };

    let mut failures = Vec::new();
    // Deterministic counters: any difference is a real behaviour change
    // (more rounds, more per-flow analyses) and fails regardless of noise.
    for (name, expected) in &baseline.counters {
        match report.counters.get(name) {
            Some(actual) if actual == expected => {}
            Some(actual) => {
                failures.push(format!("counter {name}: {actual} != baseline {expected}"))
            }
            None => failures.push(format!("counter {name}: missing from this run")),
        }
    }

    // Machine-dependent timings: compare speed relative to the
    // calibration entry so a uniformly slower runner cancels out.
    let (Some(&calib_now), Some(&calib_base)) = (
        report.timings_ns.get(CALIBRATION),
        baseline.timings_ns.get(CALIBRATION),
    ) else {
        failures.push(format!("calibration timing {CALIBRATION} missing"));
        return failures;
    };
    for (name, &expected) in &baseline.timings_ns {
        if name == CALIBRATION {
            continue;
        }
        let Some(&actual) = report.timings_ns.get(name) else {
            failures.push(format!("timing {name}: missing from this run"));
            continue;
        };
        let normalised = (actual as f64 / calib_now as f64) / (expected as f64 / calib_base as f64);
        if normalised > tolerance {
            failures.push(format!(
                "timing {name}: {actual} ns is {normalised:.2}x the baseline's \
                 calibrated expectation (> {tolerance:.2}x)"
            ));
        }
    }
    failures
}
