//! E11 — admission control under churn: cold reference vs the incremental
//! warm-started engine.
//!
//! Replays the shared churn script (arrivals and departures on the
//! sweep's converging star) twice: through the admission controller, and
//! through a cold reference that decides every arrival with a fixed point
//! over the live flows plus the candidate, started from the paper's
//! initial map.  The two take byte-identical decisions and produce
//! byte-identical bounds — the table asserts it — but the controller
//! re-verifies only the flows a candidate can influence, seeded from the
//! cached converged jitter map, so its rounds-per-decision and per-flow-
//! analyses-per-decision are a fraction of the reference's.
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); the wall-clock admissions/sec measurement goes
//! to stderr.

use gmf_analysis::AnalysisConfig;
use gmf_bench::{churn_bench_config, print_header, print_table, threads_flag, CHURN_BENCH_SEED};
use gmf_workloads::{run_churn, run_churn_cold_reference, ChurnConfig, ChurnOutcome};
use std::time::Instant;

fn main() {
    print_header(
        "E11",
        "Admission churn: cold restart vs incremental warm start",
    );
    let threads = threads_flag();
    let analysis = AnalysisConfig::paper().with_threads(threads);
    let config = churn_bench_config();

    type Replay = fn(u64, &ChurnConfig, &AnalysisConfig) -> ChurnOutcome;
    let replays: [(&str, Replay); 2] = [("cold", run_churn_cold_reference), ("warm", run_churn)];
    let mut outcomes: Vec<(&str, ChurnOutcome, f64)> = Vec::new();
    for (engine, replay) in replays {
        let start = Instant::now();
        let outcome = replay(CHURN_BENCH_SEED, &config, &analysis);
        let elapsed = start.elapsed().as_secs_f64();
        outcomes.push((engine, outcome, elapsed));
    }

    println!();
    println!(
        "script: {} events (seed {}), star with {} sources, departures {:.0}%",
        config.n_events,
        CHURN_BENCH_SEED,
        config.sweep.n_sources,
        config.departure_fraction * 100.0
    );
    println!();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(engine, o, _)| {
            vec![
                engine.to_string(),
                o.arrivals.to_string(),
                o.accepted.to_string(),
                o.rejected.to_string(),
                o.departures.to_string(),
                o.live.to_string(),
                o.rounds.to_string(),
                format!("{:.2}", o.rounds_per_decision()),
                o.flow_analyses.to_string(),
                format!("{:.2}", o.analyses_per_decision()),
                o.warm_decisions.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "engine",
            "requests",
            "accepted",
            "rejected",
            "departures",
            "live",
            "rounds",
            "rounds/dec",
            "flow analyses",
            "analyses/dec",
            "warm dec",
        ],
        &rows,
    );

    let (cold, warm) = (&outcomes[0].1, &outcomes[1].1);
    println!();
    println!(
        "decisions identical (accept/reject, live set, final bounds): {}",
        cold.accepted == warm.accepted
            && cold.rejected == warm.rejected
            && cold.live == warm.live
            && cold.final_worst_bound == warm.final_worst_bound
            && cold.final_schedulable == warm.final_schedulable
    );
    println!(
        "final accepted set: {} flows, worst bound {}, schedulable {}",
        warm.live, warm.final_worst_bound, warm.final_schedulable
    );
    println!(
        "per-flow analyses per decision: cold {:.2} vs warm {:.2} ({:.1}x less work)",
        cold.analyses_per_decision(),
        warm.analyses_per_decision(),
        cold.analyses_per_decision() / warm.analyses_per_decision().max(1e-9)
    );
    println!();
    println!(
        "expected shape: identical decisions; the warm engine needs a fraction of the rounds and\n\
         per-flow analyses per decision because trials start from the cached converged jitter map\n\
         and only re-verify flows the candidate can influence (admissions/sec on stderr)."
    );

    // Wall clock is nondeterministic, so it stays off stdout.
    for (engine, outcome, elapsed) in &outcomes {
        eprintln!(
            "{}: {} admission requests in {:.3} s = {:.1} admissions/sec",
            engine,
            outcome.arrivals,
            elapsed,
            outcome.arrivals as f64 / elapsed.max(1e-9)
        );
    }
}
