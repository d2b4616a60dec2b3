//! E12 — cost per round of the dense-index analysis core.
//!
//! The dense core cuts the *cost per round* (interned interference
//! tables, arena jitter reads, per-stage fixed-point reuse) and, on top,
//! the number of per-flow analyses per round (dirty-flow skipping: a flow
//! whose input jitter slots are unchanged from the round that produced its
//! cached report is not re-analysed).  This experiment pins both effects on the
//! three canonical workloads:
//!
//! * per-workload rounds and per-flow analyses with skipping off (every
//!   active flow, every round — the classic Jacobi cost `rounds × flows`)
//!   vs skipping on;
//! * a byte-identity check of each engine configuration against the keyed
//!   reference oracle (`gmf_bench::oracle::analyze_reference`).
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); wall-clock measurements go to stderr.

use gmf_analysis::{iterate_from, AnalysisConfig, AnalysisContext, FixedPointRun, JitterMap};
use gmf_bench::oracle::analyze_reference;
use gmf_bench::{
    long_tail_bench_scenario, mixed_depth_line_scenario, multi_sink_star_set, print_header,
    print_table, synthetic_converging_set, threads_flag,
};
use gmf_net::{FlowSet, Topology};
use gmf_workloads::paper_scenario;
use std::time::Instant;

fn run(topology: &Topology, flows: &FlowSet, config: &AnalysisConfig) -> (FixedPointRun, f64) {
    let ctx = AnalysisContext::new(topology, flows).expect("context builds");
    let start = Instant::now();
    let run = iterate_from(&ctx, config, JitterMap::initial(flows)).expect("analysis runs");
    (run, start.elapsed().as_secs_f64())
}

fn main() {
    print_header("E12", "Dense-index analysis core: cost per round");
    let threads = threads_flag();
    let full = AnalysisConfig::paper()
        .with_threads(threads)
        .with_skip_unchanged_flows(false);
    let skip = AnalysisConfig::paper().with_threads(threads);

    let (paper, _) = paper_scenario();
    let (synth_topology, synth_flows) = synthetic_converging_set(16);
    let (multi_topology, multi_flows) = multi_sink_star_set(2008, 24, 6);
    let (tail_topology, tail_flows) = long_tail_bench_scenario();
    let (mixed_topology, mixed_flows) = mixed_depth_line_scenario(10, 4);
    let workloads: Vec<(&str, &Topology, &FlowSet)> = vec![
        ("paper-figure1", &paper.topology, &paper.flows),
        ("synthetic-star-16", &synth_topology, &synth_flows),
        ("multi-sink-star-24", &multi_topology, &multi_flows),
        ("long-tail-line", &tail_topology, &tail_flows),
        ("mixed-depth-line", &mixed_topology, &mixed_flows),
    ];

    let mut rows = Vec::new();
    for (name, topology, flows) in workloads {
        let (run_full, secs_full) = run(topology, flows, &full);
        let (run_skip, secs_skip) = run(topology, flows, &skip);
        let reference = analyze_reference(topology, flows, &AnalysisConfig::paper())
            .expect("reference analysis runs");

        // The whole point: identical reports, fewer analyses.
        assert_eq!(run_full.report, reference, "{name}: full vs reference");
        assert_eq!(run_skip.report, reference, "{name}: skip vs reference");
        let identical = "yes";

        let saved = 100.0 * (1.0 - run_skip.flow_analyses as f64 / run_full.flow_analyses as f64);
        rows.push(vec![
            name.to_string(),
            flows.len().to_string(),
            run_full.report.iterations.to_string(),
            run_full.flow_analyses.to_string(),
            run_skip.flow_analyses.to_string(),
            format!("{saved:.1}%"),
            identical.to_string(),
        ]);
        eprintln!(
            "{name}: analyze {:.3} ms (no skip) / {:.3} ms (skip), threads {threads}",
            secs_full * 1e3,
            secs_skip * 1e3
        );
    }

    println!();
    println!("per-flow pipeline analyses per cold analyze (skipping off vs on),");
    println!("with every report byte-identical to the keyed reference engine:");
    println!();
    print_table(
        &[
            "workload",
            "flows",
            "rounds",
            "analyses",
            "analyses(skip)",
            "saved",
            "reports==reference",
        ],
        &rows,
    );
}
