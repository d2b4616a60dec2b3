//! E13 — the adversarial conformance campaign: analysis bounds vs
//! simulation under bound-chasing arrival policies, at fuzz scale.
//!
//! The binary checks two deterministic *probe* scenarios (a single flow on
//! a cable, whose analysis is exact and must be reached by the
//! critical-instant policy, and a two-flow contention star) plus a seeded
//! campaign of random valid scenarios from `gmf_workloads::fuzz`.  Every
//! scenario runs the analysis across its engine axes (threads 1/4 × round
//! skipping) and the simulator under the dense control
//! and the three adversarial policies; every completed (policy, flow,
//! frame) must observe `response ≤ bound`, and flows that complete *zero*
//! packets under a policy are failures too (vacuous coverage).
//!
//! The campaign fails loudly on any violation, printing a greedily
//! minimized reproducer as a scenario-file JSON on stderr.  On success it
//! writes the per-frame tightness ratios to `CONFORMANCE.json` (see
//! `gmf_bench::conformance::TightnessReport`) — CI uploads it next to
//! `BENCH.json` as the bound-slack trajectory.
//!
//! Usage: `exp_conformance [--scenarios N] [--out PATH] [--threads N]`
//! (defaults: 200 scenarios, `CONFORMANCE.json`; `--threads` must never
//! change a printed digit — CI diffs the output across thread counts).

use gmf_bench::conformance::{
    check_scenario, minimize_violation, run_campaign, ConformanceConfig, ScenarioConformance,
    TightnessReport,
};
use gmf_bench::{print_header, print_table, threads_flag};
use gmf_model::{cbr_flow, Time};
use gmf_net::{shortest_path, star, FlowSet, LinkProfile, Priority, Route, SwitchConfig, Topology};
use gmf_workloads::{FuzzConfig, ScenarioFile};

/// Master seed of the fuzz campaign (E13's identity: changing it changes
/// every scenario of the trajectory).
const CAMPAIGN_SEED: u64 = 2013;

/// The single-flow exactness probe: one CBR flow on a host-to-host cable.
/// Its first-hop analysis is exact, so the critical instant must reach
/// tightness ≈ 1.0 — proof the harness actually stresses the bound.
fn probe_direct_link() -> (&'static str, Topology, FlowSet) {
    let mut topology = Topology::new();
    let a = topology.add_end_host("a");
    let b = topology.add_end_host("b");
    topology
        .add_duplex_link(a, b, LinkProfile::ethernet_100m())
        .expect("fresh topology");
    let mut flows = FlowSet::new();
    flows.add(
        cbr_flow(
            "probe",
            1000,
            Time::from_millis(10.0),
            Time::from_millis(50.0),
            Time::ZERO,
        ),
        Route::new(&topology, vec![a, b]).expect("direct link"),
        Priority(7),
    );
    ("probe-direct-link", topology, flows)
}

/// The contention probe: two CBR flows from different hosts converging on
/// one output port of a paper switch.
fn probe_contending_star() -> (&'static str, Topology, FlowSet) {
    let (topology, _switch, hosts) = star(3, LinkProfile::ethernet_100m(), SwitchConfig::paper());
    let mut flows = FlowSet::new();
    let mk = |name: &str| {
        cbr_flow(
            name,
            8000,
            Time::from_millis(10.0),
            Time::from_millis(60.0),
            Time::from_millis(0.5),
        )
    };
    flows.add(
        mk("hi"),
        shortest_path(&topology, hosts[0], hosts[2]).expect("star is connected"),
        Priority(7),
    );
    flows.add(
        mk("lo"),
        shortest_path(&topology, hosts[1], hosts[2]).expect("star is connected"),
        Priority(1),
    );
    ("probe-contending-star", topology, flows)
}

fn main() {
    let mut n_scenarios = 200usize;
    let mut output = "CONFORMANCE.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenarios" => {
                n_scenarios = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scenarios requires a number");
                    std::process::exit(2);
                });
            }
            "--out" => {
                output = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            // Parsed by gmf_bench::threads_flag(); consume the value here
            // so it is not mistaken for an unknown flag.
            "--threads" => {
                args.next();
            }
            threads_eq if threads_eq.starts_with("--threads=") => {}
            other => {
                eprintln!(
                    "unknown argument {other} (expected --scenarios N, --out PATH, --threads N)"
                );
                std::process::exit(2);
            }
        }
    }

    print_header(
        "E13",
        "Adversarial conformance: simulated responses vs analytical bounds",
    );
    let config = ConformanceConfig {
        analysis: gmf_analysis::AnalysisConfig::conservative().with_threads(threads_flag()),
        ..ConformanceConfig::default()
    };
    let fuzz = FuzzConfig::default();
    let started = std::time::Instant::now();

    // --- Deterministic probes. ---
    let mut scenarios: Vec<ScenarioConformance> = Vec::new();
    let mut probe_sets: Vec<(String, Topology, FlowSet)> = Vec::new();
    for (label, topology, flows) in [probe_direct_link(), probe_contending_star()] {
        let conformance = check_scenario(label, &topology, &flows, &config)
            .unwrap_or_else(|e| panic!("probe {label}: {e}"));
        scenarios.push(conformance);
        probe_sets.push((label.to_string(), topology, flows));
    }

    // --- The fuzz campaign. ---
    let campaign = run_campaign(CAMPAIGN_SEED, n_scenarios, &fuzz, &config)
        .unwrap_or_else(|e| panic!("campaign: {e}"));
    println!(
        "campaign: {} scenarios accepted from {} draws (master seed {CAMPAIGN_SEED})",
        campaign.scenarios.len(),
        campaign.draws
    );
    let rejection_rows: Vec<Vec<String>> = campaign
        .rejections
        .iter()
        .map(|(kind, count)| vec![kind.to_string(), count.to_string()])
        .collect();
    if rejection_rows.is_empty() {
        println!("rejected draws: none");
    } else {
        print_table(&["rejected draws by reason", "count"], &rejection_rows);
    }
    scenarios.extend(campaign.scenarios);

    // --- Verdicts. ---
    let observations: usize = scenarios.iter().map(|s| s.observations.len()).sum();
    let violations: Vec<(String, String)> = scenarios
        .iter()
        .flat_map(|s| {
            s.violations.iter().map(|v| {
                (
                    s.label.clone(),
                    format!(
                        "{}/{}/{}#{}: observed {} > bound {}",
                        s.label, v.policy, v.flow_name, v.frame, v.observed, v.bound
                    ),
                )
            })
        })
        .collect();
    let vacuous: Vec<String> = scenarios
        .iter()
        .flat_map(|s| {
            s.vacuous
                .iter()
                .map(move |(policy, flow)| format!("{}/{policy}/{flow}", s.label))
        })
        .collect();
    println!();
    println!(
        "coverage: {observations} (policy, flow, frame) observations across {} scenarios",
        scenarios.len()
    );
    println!("bound violations: {} (required: 0)", violations.len());
    println!(
        "vacuous (policy, flow) pairs: {} (required: 0)",
        vacuous.len()
    );

    if !violations.is_empty() {
        for (_, line) in &violations {
            eprintln!("VIOLATION {line}");
        }
        // Print a minimized reproducer for the first violating scenario:
        // probe sets are in this binary, and fuzz scenarios re-draw from
        // the seed embedded in their label — either way the scenario JSON
        // on stderr is a ready-to-commit corpus case.
        if let Some((label, _)) = violations.first() {
            let reproducer: Option<(Topology, FlowSet)> = probe_sets
                .iter()
                .find(|(name, ..)| name == label)
                .map(|(_, topology, flows)| (topology.clone(), flows.clone()))
                .or_else(|| {
                    // Fuzz labels are `fuzz-<seed in hex>-<shape>`.
                    let seed = label
                        .strip_prefix("fuzz-")
                        .and_then(|rest| rest.split('-').next())
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())?;
                    let scenario = gmf_workloads::draw_scenario(seed, &fuzz).ok()?;
                    Some((scenario.topology, scenario.flows))
                });
            if let Some((topology, flows)) = reproducer {
                if let Some(minimal) = minimize_violation(&topology, &flows, &config) {
                    let file = ScenarioFile::new(
                        label.clone(),
                        "minimized conformance violation (E13)",
                        topology.clone(),
                        minimal,
                    );
                    eprintln!(
                        "minimized reproducer:\n{}",
                        file.to_json().expect("scenario serializes")
                    );
                }
            }
        }
        std::process::exit(1);
    }
    if !vacuous.is_empty() {
        for line in &vacuous {
            eprintln!("VACUOUS {line}");
        }
        std::process::exit(1);
    }

    // --- Tightness. ---
    let report = TightnessReport::build(&scenarios, &campaign.rejections);
    let mut top: Vec<(&String, &u64)> = report.per_frame_milli.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let rows: Vec<Vec<String>> = top
        .iter()
        .take(10)
        .map(|(key, &m)| vec![(*key).clone(), format!("{:.3}", m as f64 / 1000.0)])
        .collect();
    println!();
    print_table(
        &["tightest (scenario/policy/flow#frame)", "obs/bound"],
        &rows,
    );
    println!();
    println!(
        "max tightness: {:.3} at {}",
        report.max_tightness_milli as f64 / 1000.0,
        report.max_tightness_key
    );
    println!(
        "max adversarial tightness: {:.3} (required: >= 0.900)",
        report.adversarial_max_milli as f64 / 1000.0
    );
    assert!(
        report.adversarial_max_milli >= 900,
        "no adversarial policy reached 0.9 of a bound — the harness is idling, not stressing"
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&output, json + "\n").expect("write tightness report");
    // The destination path is CLI-dependent; keep stdout byte-identical
    // across invocations (CI diffs it) and report the path on stderr.
    println!("wrote {} per-frame ratios", report.per_frame_milli.len());
    eprintln!("tightness report: {output}");
    eprintln!(
        "E13 wall clock: {:.1}s for {} scenarios",
        started.elapsed().as_secs_f64(),
        scenarios.len()
    );
}
