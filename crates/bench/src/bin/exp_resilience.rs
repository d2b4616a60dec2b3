//! E16 — single-failure survivability: does an admitted network *stay*
//! schedulable when a cable is cut or a switch CPU degrades?
//!
//! Sweeps every single-failure scenario — each full-duplex cable cut, each
//! switch degraded by each factor of `RESILIENCE_DEGRADE_FACTORS` — over a
//! ring-of-cells metro workload and a corpus of fuzz scenarios, through
//! *both* assessment paths:
//!
//! * the incremental path (`SurvivabilityAnalysis::assess`): one cold
//!   analysis of the shards the failure and its reroutes reach, on the
//!   survivor topology, with every other flow's report kept from the warm
//!   preload;
//! * the cold oracle (`SurvivabilityAnalysis::cold_verdict`): re-analyse
//!   the re-routed survivor set from scratch.
//!
//! The headline number is the divergence count between the two, which must
//! be **0**: verdicts, stranded sets, margins and per-frame bounds are
//! byte-identical.  The work columns show what the incremental path paid
//! for that — flows re-verified per scenario versus the whole live set a
//! cold re-analysis would touch.
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); wall-clock timings go to stderr.

use gmf_analysis::AnalysisConfig;
use gmf_bench::{
    print_header, print_table, run_survivability_sweep, threads_flag, SurvivabilityOutcome,
    RESILIENCE_BENCH_SEED, RESILIENCE_DEGRADE_FACTORS, RESILIENCE_FUZZ_WORKLOADS,
};
use gmf_par::derive_seed;
use gmf_workloads::{resilience_scenario, valid_scenario, FuzzConfig, ResilienceConfig};

fn main() {
    print_header(
        "E16",
        "Single-failure survivability: incremental vs cold, zero divergence",
    );
    let threads = threads_flag();

    let mut outcomes: Vec<SurvivabilityOutcome> = Vec::new();

    // The ring-of-cells metro: every trunk cut is survivable by re-routing
    // the long way around; every access cut strands one host's flows.
    let ring_config = ResilienceConfig::default();
    let ring = resilience_scenario(derive_seed(RESILIENCE_BENCH_SEED, 0), &ring_config);
    println!(
        "ring-metro: {} cells x ({} local + {} transit) flows = {} admitted, {} trunks (seed {})",
        ring_config.n_cells,
        ring_config.local_flows_per_cell,
        ring_config.transit_flows_per_cell,
        ring_config.n_flows(),
        ring.trunks.len(),
        RESILIENCE_BENCH_SEED,
    );
    outcomes.push(run_survivability_sweep(
        "ring-metro",
        ring.topology,
        ring.flows,
        &AnalysisConfig::paper().with_threads(threads),
        &RESILIENCE_DEGRADE_FACTORS,
    ));

    // The fuzz corpus: random valid (schedulable, sound-regime) scenarios
    // over random topologies — lines, stars and trees with no redundancy,
    // so cable cuts exercise the stranding path hard.
    let fuzz_config = FuzzConfig::default();
    for i in 0..RESILIENCE_FUZZ_WORKLOADS {
        let (scenario, _) = valid_scenario(derive_seed(RESILIENCE_BENCH_SEED, 1 + i), &fuzz_config);
        outcomes.push(run_survivability_sweep(
            &format!("fuzz-{i}"),
            scenario.topology,
            scenario.flows,
            &fuzz_config.analysis.with_threads(threads),
            &RESILIENCE_DEGRADE_FACTORS,
        ));
    }

    println!();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                o.n_flows.to_string(),
                o.report.n_scenarios().to_string(),
                o.report.n_survivable().to_string(),
                o.report.n_stranding().to_string(),
                o.report.total_reverified().to_string(),
                (o.n_flows * o.report.n_scenarios()).to_string(),
                match o.report.worst_margin() {
                    Some(m) => format!("{:.3}", m.as_millis()),
                    None => "-".to_string(),
                },
                o.divergences.len().to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "flows",
            "scenarios",
            "survivable",
            "stranding",
            "reverified",
            "cold would",
            "worst margin (ms)",
            "divergences",
        ],
        &rows,
    );

    let n_scenarios: usize = outcomes.iter().map(|o| o.report.n_scenarios()).sum();
    let n_survivable: usize = outcomes.iter().map(|o| o.report.n_survivable()).sum();
    let n_stranding: usize = outcomes.iter().map(|o| o.report.n_stranding()).sum();
    let reverified: usize = outcomes.iter().map(|o| o.report.total_reverified()).sum();
    let cold_equivalent: usize = outcomes
        .iter()
        .map(|o| o.n_flows * o.report.n_scenarios())
        .sum();
    let divergences: usize = outcomes.iter().map(|o| o.divergences.len()).sum();

    println!();
    println!(
        "scenarios: {} assessed across {} workloads, {} survivable, {} stranding at least one flow",
        n_scenarios,
        outcomes.len(),
        n_survivable,
        n_stranding,
    );
    println!(
        "incremental work: {} flows re-verified vs {} a cold sweep re-analyses ({:.1}% saved)",
        reverified,
        cold_equivalent,
        100.0 * (1.0 - reverified as f64 / cold_equivalent.max(1) as f64),
    );
    println!("divergences: {divergences}");
    for o in &outcomes {
        for d in &o.divergences {
            println!("  DIVERGENCE [{}] {}", o.label, d);
        }
    }
    println!();
    println!(
        "expected shape: the divergence count is 0 — every incremental verdict, stranded set,\n\
         margin and per-frame bound is byte-identical to the cold oracle's — while the\n\
         incremental path re-verifies only the failure's shards, not the whole live set."
    );

    // Wall clock is nondeterministic, so it stays off stdout.
    for o in &outcomes {
        eprintln!(
            "{}: preload {:.3} s, incremental sweep {:.3} s, cold cross-check {:.3} s",
            o.label,
            o.preload_elapsed.as_secs_f64(),
            o.sweep_elapsed.as_secs_f64(),
            o.cold_elapsed.as_secs_f64(),
        );
    }

    assert!(
        n_scenarios >= 100,
        "E16 must assess at least 100 single-failure scenarios (got {n_scenarios})"
    );
    assert_eq!(divergences, 0, "incremental and cold verdicts diverged");
}
