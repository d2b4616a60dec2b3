//! Shared helpers for the experiment binaries and `bench_export`, plus
//! the keyed test [`oracle`].
//!
//! Every experiment binary (`src/bin/exp_*.rs`) regenerates one figure,
//! worked example or claim of the paper (see DESIGN.md §6 and
//! EXPERIMENTS.md) and prints it as an aligned text table plus, where a
//! paper value exists, a `paper vs measured` line.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atlas;
pub mod conformance;
mod egress;
mod first_hop;
mod ingress;
mod pipeline;
mod reference;
mod stage;

/// The keyed transcription of the paper's analysis (eqs. 14–35, Figure 6
/// and the holistic Picard iteration): the oracle that the production
/// engine, `gmf_analysis::analyze`, is tested against.
///
/// Every function reads the keyed [`gmf_analysis::JitterMap`] and
/// re-solves every recurrence for every frame, exactly as the equations
/// are printed; none of it runs in production.  The property tests and
/// `exp_dense_cost` assert that the dense engine's reports are
/// byte-identical to [`oracle::analyze_reference`].  Each stage sits in a
/// private module named like its dense twin in `gmf-analysis`.
pub mod oracle {
    pub use crate::egress::egress_response;
    pub use crate::first_hop::first_hop_response;
    pub use crate::ingress::ingress_response;
    pub use crate::pipeline::{analyze_flow, analyze_frame, JitterAssignments};
    pub use crate::reference::analyze_reference;
    pub use crate::stage::StageResult;
}

/// Print a named experiment header.
pub fn print_header(id: &str, title: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// Print an aligned table: `headers` first, then one row per entry.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Print a `paper vs measured` comparison line.
pub fn compare(quantity: &str, paper: &str, measured: &str) {
    println!("  {quantity:<42} paper: {paper:<16} measured: {measured}");
}

/// Parse a `--threads N` flag from the process arguments (default 1).
///
/// Used by the experiment binaries so CI can diff their output across
/// worker-thread counts; the value itself is deliberately never printed —
/// the whole point is that the output must not depend on it.
pub fn threads_flag() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            if let Some(value) = args.next() {
                if let Ok(n) = value.parse::<usize>() {
                    return n.max(1);
                }
            }
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            if let Ok(n) = value.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    1
}

/// A heavily loaded bidirectional line of software switches with slow
/// routing CPUs — the canonical *long-tail* holistic workload.
///
/// Interference chains run the whole line in each direction, so the jitter
/// fixed point needs on the order of `2·n_switches` Picard rounds (see the
/// `holistic_longtail` bench and E10b).  The dependency graph is acyclic
/// (the two directions never couple), so the fixed point is unique.
pub fn long_tail_line_scenario(
    n_switches: usize,
    pairs: usize,
) -> (gmf_net::Topology, gmf_net::FlowSet) {
    use gmf_model::{voip_flow, Time, VoiceCodec};
    use gmf_net::{line, shortest_path, LinkProfile, Priority, SwitchConfig};

    let switch = SwitchConfig {
        croute: Time::from_micros(600.0),
        csend: Time::from_micros(1.0),
        processors: 1,
    };
    let (topology, a, b, _) = line(
        n_switches,
        LinkProfile::ethernet_100m(),
        LinkProfile::ethernet_100m(),
        switch,
    );
    let mut flows = gmf_net::FlowSet::new();
    for i in 0..pairs {
        let forward = voip_flow(
            &format!("voice-ab-{i}"),
            VoiceCodec::G711,
            Time::from_millis(2000.0),
            Time::from_millis(0.5),
        );
        flows.add(
            forward,
            // tidy-allow: unwrap invariant: line is connected
            shortest_path(&topology, a, b).expect("line is connected"),
            Priority(7),
        );
        let reverse = voip_flow(
            &format!("voice-ba-{i}"),
            VoiceCodec::G711,
            Time::from_millis(2000.0),
            Time::from_millis(0.5),
        );
        flows.add(
            reverse,
            // tidy-allow: unwrap invariant: line is connected
            shortest_path(&topology, b, a).expect("line is connected"),
            Priority(7),
        );
    }
    (topology, flows)
}

/// The long-tail line with *mixed-depth* traffic: the whole-line voice
/// pairs of [`long_tail_line_scenario`] plus one local leaf-to-leaf flow
/// across every adjacent switch pair, in each direction.
///
/// The whole-line flows keep every backbone jitter moving for the full
/// `≈ 2·n_switches`-round transport tail, but a local flow's inputs
/// stabilise as soon as the jitter front has passed its two switches —
/// early-line locals sit unchanged for most of the iteration.  This is the
/// workload where the engine's dirty-flow round skipping shows its
/// steady-state value (E12): the deep tail keeps iterating while the
/// stabilised locals are no longer re-analysed.
pub fn mixed_depth_line_scenario(
    n_switches: usize,
    pairs: usize,
) -> (gmf_net::Topology, gmf_net::FlowSet) {
    use gmf_model::{voip_flow, Time, VoiceCodec};
    use gmf_net::{LinkProfile, Priority, Route, SwitchConfig};

    let switch = SwitchConfig {
        croute: Time::from_micros(450.0),
        csend: Time::from_micros(1.0),
        processors: 1,
    };
    let access = LinkProfile::ethernet_100m();
    let mut topology = gmf_net::Topology::new();
    let host_a = topology.add_end_host("hostA");
    let mut switches = Vec::with_capacity(n_switches);
    let mut leaves = Vec::with_capacity(n_switches);
    for i in 0..n_switches {
        let sw = topology.add_switch(switch, format!("sw{i}"));
        let leaf = topology.add_end_host(format!("leaf{i}"));
        topology
            .add_duplex_link(leaf, sw, access)
            // tidy-allow: unwrap invariant: fresh topology
            .expect("fresh topology");
        switches.push(sw);
        leaves.push(leaf);
    }
    let host_b = topology.add_end_host("hostB");
    topology
        .add_duplex_link(host_a, switches[0], access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");
    for pair in switches.windows(2) {
        topology
            .add_duplex_link(pair[0], pair[1], access)
            // tidy-allow: unwrap invariant: fresh topology
            .expect("fresh topology");
    }
    topology
        .add_duplex_link(switches[n_switches - 1], host_b, access)
        // tidy-allow: unwrap invariant: fresh topology
        .expect("fresh topology");

    let mut flows = gmf_net::FlowSet::new();
    let voice = |name: &str| {
        voip_flow(
            name,
            VoiceCodec::G711,
            Time::from_millis(2000.0),
            Time::from_millis(0.5),
        )
    };
    // tidy-allow: unwrap invariant: line path
    let line_route = |nodes: Vec<gmf_net::NodeId>| Route::new(&topology, nodes).expect("line path");
    for i in 0..pairs {
        let mut forward = vec![host_a];
        forward.extend(&switches);
        forward.push(host_b);
        flows.add(
            voice(&format!("voice-ab-{i}")),
            line_route(forward),
            Priority(7),
        );
        let mut reverse = vec![host_b];
        reverse.extend(switches.iter().rev());
        reverse.push(host_a);
        flows.add(
            voice(&format!("voice-ba-{i}")),
            line_route(reverse),
            Priority(7),
        );
    }
    for i in 0..n_switches - 1 {
        flows.add(
            voice(&format!("local-fwd-{i}")),
            line_route(vec![leaves[i], switches[i], switches[i + 1], leaves[i + 1]]),
            Priority(7),
        );
        flows.add(
            voice(&format!("local-rev-{i}")),
            line_route(vec![leaves[i + 1], switches[i + 1], switches[i], leaves[i]]),
            Priority(7),
        );
    }
    (topology, flows)
}

/// Flow-count axis of the `holistic_synthetic` bench.
pub const HOLISTIC_SYNTHETIC_AXIS: [usize; 3] = [4, 8, 16];

/// Worker-thread axis of the `holistic_threads` bench (applied to the
/// largest synthetic set).
pub const HOLISTIC_THREAD_AXIS: [usize; 3] = [1, 2, 4];

/// The random converging star set the holistic benches time (seed 99,
/// 40 % offered utilization on the sweep generator).
///
/// The `bench_export` binary times it as the `holistic_synthetic/N` and
/// `holistic_threads/N` entries of `BENCH.json`.
pub fn synthetic_converging_set(n_flows: usize) -> (gmf_net::Topology, gmf_net::FlowSet) {
    gmf_workloads::random_sweep_set(99, n_flows, 0.4, &gmf_workloads::SweepConfig::default())
}

/// A star with several sinks: the sweep generator's random flows dealt
/// round-robin over `n_sinks` sink hosts (and the default source hosts).
///
/// Unlike the single-sink converging star, the jitter dependency graph
/// decomposes into per-sink regions coupled only through the (constant)
/// first-hop jitters, and the regions converge after different numbers of
/// rounds.  That staggered convergence is exactly what the dirty-flow
/// round skipping exploits — E12 uses this set to measure the saving, and
/// it is the static analogue of the E11 churn workload's topology.
pub fn multi_sink_star_set(
    seed: u64,
    n_flows: usize,
    n_sinks: usize,
) -> (gmf_net::Topology, gmf_net::FlowSet) {
    use gmf_net::{shortest_path, star, Priority, PriorityPolicy};
    use gmf_workloads::{random_flow_collection, SweepConfig};
    use rand::SeedableRng;

    let config = SweepConfig::default();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let flows = random_flow_collection(&mut rng, n_flows, 0.4, &config.synthetic);
    let (topology, _switch, hosts) = star(config.n_sources + n_sinks, config.link, config.switch);
    let sinks = &hosts[..n_sinks];
    let sources = &hosts[n_sinks..];
    let mut set = gmf_net::FlowSet::new();
    for (index, flow) in flows.into_iter().enumerate() {
        let source = sources[index % sources.len()];
        let sink = sinks[index % sinks.len()];
        // tidy-allow: unwrap invariant: star is connected
        let route = shortest_path(&topology, source, sink).expect("star is connected");
        set.add(flow, route, Priority(0));
    }
    set.assign_priorities(PriorityPolicy::DeadlineMonotonic {
        levels: config.priority_levels,
    });
    (topology, set)
}

/// The long-tail instance the `holistic_longtail` bench and E10b use:
/// [`long_tail_line_scenario`] with 6 switches and 6 flow pairs (Picard
/// needs 10 rounds).
pub fn long_tail_bench_scenario() -> (gmf_net::Topology, gmf_net::FlowSet) {
    long_tail_line_scenario(6, 6)
}

/// The churn workload `bench_export` and E11 (`exp_admission_churn`)
/// both replay: arrivals and departures on the sweep's converging star,
/// sized so the live set stays around a dozen flows.
///
/// A single definition keeps the two surfaces honest: a
/// `churn_admission/cold-vs-warm` entry in `BENCH.json` always times
/// exactly the script the experiment binary runs.
pub fn churn_bench_config() -> gmf_workloads::ChurnConfig {
    gmf_workloads::ChurnConfig {
        n_events: 64,
        departure_fraction: 0.35,
        flow_utilization: (0.01, 0.05),
        n_sinks: 4,
        sweep: gmf_workloads::SweepConfig {
            n_sources: 8,
            ..gmf_workloads::SweepConfig::default()
        },
    }
}

/// The master seed of the churn benches and E11.
pub const CHURN_BENCH_SEED: u64 = 2008;

/// The master seed of the metro admission workload (E14 and the
/// `metro/*` entries of `bench_export`).
pub const METRO_BENCH_SEED: u64 = 1408;

/// Candidate batches E14 replays at full metro scale.
pub const METRO_BATCHES: usize = 8;

/// Candidates per batch in E14.
pub const METRO_BATCH_SIZE: usize = 512;

/// Fraction of candidates carrying an impossible deadline, so the stream
/// exercises the rejection path and victim attribution too.
pub const METRO_TIGHT_FRACTION: f64 = 0.1;

/// Candidate batches of the small `bench_export` metro instance.
pub const METRO_SMALL_BATCHES: usize = 4;

/// Candidates per batch of the small `bench_export` metro instance.
pub const METRO_SMALL_BATCH_SIZE: usize = 64;

/// The CI-sized metro instance `bench_export` times and counts: the same
/// per-cell shape as E14's full-scale default, two dozen cells instead of
/// thousands.
pub fn metro_bench_config() -> gmf_workloads::MetroConfig {
    gmf_workloads::MetroConfig::small()
}

/// Deterministic counters of one admission batch in a metro run.
#[derive(Debug, Clone)]
pub struct MetroBatch {
    /// Candidates admitted.
    pub accepted: usize,
    /// Candidates rejected.
    pub rejected: usize,
    /// Decisions served from a converged warm start.
    pub warm_decisions: usize,
    /// Fixed-point rounds spent across the batch.
    pub rounds: usize,
    /// Per-flow analyses spent across the batch.
    pub flow_analyses: usize,
    /// Largest trial set (flows re-verified for one decision) — stays at
    /// one cell's worth of flows no matter how many cells the metro runs.
    pub largest_trial: usize,
    /// Wall clock of the batch (machine-dependent; keep off stdout).
    pub elapsed: std::time::Duration,
}

/// Outcome of a metro admission run: preload, admission batches, then
/// departure of everything the batches admitted.
///
/// Everything except the `elapsed` fields is deterministic — identical on
/// every machine and at every worker-thread count.
#[derive(Debug, Clone)]
pub struct MetroOutcome {
    /// Pre-admitted flows in the scenario.
    pub n_flows: usize,
    /// Shard count / fixed-point cost of verifying the pre-admitted set.
    pub preload: gmf_analysis::PreloadStats,
    /// Wall clock of the preload verification.
    pub preload_elapsed: std::time::Duration,
    /// Per-batch admission counters, in replay order.
    pub batches: Vec<MetroBatch>,
    /// Admitted candidates released again after the batches.
    pub released: usize,
    /// Wall clock of the release phase.
    pub release_elapsed: std::time::Duration,
    /// Live flows after the releases (must equal `n_flows`).
    pub final_flows: usize,
    /// Shards after the releases (must equal `preload.shards`).
    pub final_shards: usize,
}

impl MetroOutcome {
    /// Total admission decisions taken.
    pub fn decisions(&self) -> usize {
        self.batches.iter().map(|b| b.accepted + b.rejected).sum()
    }

    /// Total candidates admitted.
    pub fn accepted(&self) -> usize {
        self.batches.iter().map(|b| b.accepted).sum()
    }

    /// Total candidates rejected.
    pub fn rejected(&self) -> usize {
        self.batches.iter().map(|b| b.rejected).sum()
    }

    /// Total decisions served from a converged warm start.
    pub fn warm_decisions(&self) -> usize {
        self.batches.iter().map(|b| b.warm_decisions).sum()
    }

    /// Total fixed-point rounds across all decisions.
    pub fn rounds(&self) -> usize {
        self.batches.iter().map(|b| b.rounds).sum()
    }

    /// Total per-flow analyses across all decisions.
    pub fn flow_analyses(&self) -> usize {
        self.batches.iter().map(|b| b.flow_analyses).sum()
    }

    /// Largest trial set across all decisions.
    pub fn largest_trial(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.largest_trial)
            .max()
            .unwrap_or(0)
    }

    /// Wall clock spent deciding (sum of the batch times).
    pub fn admission_elapsed(&self) -> std::time::Duration {
        self.batches.iter().map(|b| b.elapsed).sum()
    }
}

/// Replay the metro admission workload: generate the scenario, verify the
/// pre-admitted set shard-parallel ([`gmf_analysis::AdmissionController::
/// with_accepted`]), push `n_batches` batches of `batch_size` candidates
/// through `request_batch`, then release everything the batches admitted.
///
/// E14 (`exp_metro`) runs this at the full `MetroConfig::default()` scale;
/// `bench_export` runs it on [`metro_bench_config`] — one definition, so a
/// `metro/*` entry in `BENCH.json` always counts exactly the workload the
/// experiment binary replays.  The scenario and candidate streams use
/// distinct [`gmf_par::derive_seed`] lanes of `seed`, so the two can be
/// scaled independently.
pub fn run_metro_admission(
    seed: u64,
    config: &gmf_workloads::MetroConfig,
    analysis: &gmf_analysis::AnalysisConfig,
    n_batches: usize,
    batch_size: usize,
    tight_fraction: f64,
) -> MetroOutcome {
    use gmf_analysis::AdmissionController;
    use gmf_par::derive_seed;
    use gmf_workloads::{metro_candidates, metro_scenario};
    use std::time::Instant;

    let scenario = metro_scenario(derive_seed(seed, 0), config);
    let candidates = metro_candidates(
        derive_seed(seed, 1),
        &scenario,
        config,
        n_batches * batch_size,
        tight_fraction,
    );

    let start = Instant::now();
    let (mut controller, preload) =
        AdmissionController::with_accepted(scenario.topology, scenario.flows, *analysis)
            // tidy-allow: unwrap invariant: the metro generator keeps per-cell load low enough to verify
            .expect("metro pre-admitted set verifies as schedulable");
    let preload_elapsed = start.elapsed();

    let mut batches = Vec::with_capacity(n_batches);
    let mut admitted = Vec::new();
    for chunk in candidates.chunks(batch_size) {
        let start = Instant::now();
        let decisions = controller
            .request_batch(chunk.iter().cloned())
            // tidy-allow: unwrap invariant: candidate routes are intra-cell shortest paths
            .expect("metro candidate routes are structurally valid");
        let elapsed = start.elapsed();
        let mut batch = MetroBatch {
            accepted: 0,
            rejected: 0,
            warm_decisions: 0,
            rounds: 0,
            flow_analyses: 0,
            largest_trial: 0,
            elapsed,
        };
        for decision in &decisions {
            if decision.is_accepted() {
                batch.accepted += 1;
                admitted.push(decision.id());
            } else {
                batch.rejected += 1;
            }
            let cost = decision.cost();
            batch.warm_decisions += usize::from(cost.warm);
            batch.rounds += cost.rounds;
            batch.flow_analyses += cost.flow_analyses;
            batch.largest_trial = batch.largest_trial.max(cost.shard_flows);
        }
        batches.push(batch);
    }

    let start = Instant::now();
    for &id in &admitted {
        controller
            .release(id)
            // tidy-allow: unwrap invariant: every admitted candidate is live
            .expect("admitted candidates are live");
    }
    let release_elapsed = start.elapsed();

    MetroOutcome {
        n_flows: config.n_flows(),
        preload,
        preload_elapsed,
        batches,
        released: admitted.len(),
        release_elapsed,
        final_flows: controller.n_accepted(),
        final_shards: controller.partition().n_shards(),
    }
}

/// The master seed of the resilience survivability workload (E16).
pub const RESILIENCE_BENCH_SEED: u64 = 1608;

/// CPU-degradation factors E16 sweeps per switch (mild throttling and a
/// heavy slowdown).
pub const RESILIENCE_DEGRADE_FACTORS: [u64; 2] = [2, 8];

/// Fuzz-corpus workloads E16 sweeps in addition to the ring metro.
pub const RESILIENCE_FUZZ_WORKLOADS: u64 = 10;

/// One workload's single-failure survivability sweep, with the incremental
/// verdicts cross-checked against the cold oracle.
#[derive(Debug, Clone)]
pub struct SurvivabilityOutcome {
    /// Workload label ("ring-metro", "fuzz-…").
    pub label: String,
    /// Admitted flows of the workload.
    pub n_flows: usize,
    /// Preload statistics of the pristine warm controller.
    pub preload: gmf_analysis::PreloadStats,
    /// The incremental sweep's verdicts, in scenario order.
    pub report: gmf_analysis::SurvivabilityReport,
    /// Incremental-vs-cold divergences (must be empty; the zero-divergence
    /// gate of the sweep).
    pub divergences: Vec<String>,
    /// Wall clock of the preload (nondeterministic; stderr only).
    pub preload_elapsed: std::time::Duration,
    /// Wall clock of the incremental sweep.
    pub sweep_elapsed: std::time::Duration,
    /// Wall clock of the cold cross-check.
    pub cold_elapsed: std::time::Duration,
}

/// Sweep every single-failure scenario of `(topology, flows)` — each cable
/// cut, each switch degraded by each factor — through the incremental
/// [`gmf_analysis::SurvivabilityAnalysis`] *and* the cold oracle, and
/// report both the verdicts and any divergence between the two paths.
///
/// # Panics
///
/// Panics when the pre-admitted `flows` do not verify as schedulable on
/// the pristine `topology` (the workload generators guarantee they do).
pub fn run_survivability_sweep(
    label: &str,
    topology: gmf_net::Topology,
    flows: gmf_net::FlowSet,
    analysis: &gmf_analysis::AnalysisConfig,
    degrade_factors: &[u64],
) -> SurvivabilityOutcome {
    use gmf_analysis::{divergence, single_failure_scenarios, SurvivabilityAnalysis};
    use std::time::Instant;

    let n_flows = flows.len();
    let scenarios = single_failure_scenarios(&topology, degrade_factors);

    let start = Instant::now();
    let (analysis, preload) = SurvivabilityAnalysis::new(topology, flows, *analysis)
        // tidy-allow: unwrap invariant: workload generators emit schedulable pre-admitted sets
        .expect("pre-admitted set verifies as schedulable");
    let preload_elapsed = start.elapsed();

    let start = Instant::now();
    let report = analysis
        .sweep(&scenarios)
        // tidy-allow: unwrap invariant: enumerated scenarios reference existing hardware
        .expect("enumerated scenarios are assessable");
    let sweep_elapsed = start.elapsed();

    let start = Instant::now();
    let divergences: Vec<String> = scenarios
        .iter()
        .zip(&report.verdicts)
        .filter_map(|(scenario, verdict)| {
            let cold = analysis
                .cold_verdict(scenario)
                // tidy-allow: unwrap invariant: enumerated scenarios reference existing hardware
                .expect("enumerated scenarios are assessable");
            divergence(verdict, &cold)
        })
        .collect();
    let cold_elapsed = start.elapsed();

    SurvivabilityOutcome {
        label: label.to_string(),
        n_flows,
        preload,
        report,
        divergences,
        preload_elapsed,
        sweep_elapsed,
        cold_elapsed,
    }
}

/// Time `f` and return the median duration in nanoseconds over `samples`
/// runs (fast bodies are batched so each sample spans at least ~100 µs).
///
/// This is the measurement behind the `bench_export` binary: a handful of
/// samples and a median is enough for a CI trajectory.
pub fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> u64 {
    use std::time::Instant;
    let samples = samples.max(1);

    // Calibrate a batch size so one sample is long enough to time.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(std::time::Duration::from_nanos(20));
    let batch = (100_000u128 / once.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut timings: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        timings.push(start.elapsed().as_nanos() / u128::from(batch));
    }
    timings.sort_unstable();
    timings[timings.len() / 2] as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_flag_defaults_to_one() {
        // The test harness passes no --threads flag.
        assert_eq!(threads_flag(), 1);
    }

    #[test]
    fn long_tail_scenario_shape() {
        let (topology, flows) = long_tail_line_scenario(3, 2);
        assert_eq!(flows.len(), 4);
        flows.validate_against(&topology).unwrap();
    }

    #[test]
    fn median_ns_measures_something() {
        // An opaque bound and opaque terms keep the sum from folding to a
        // constant, so one call costs well over the nanosecond
        // `median_ns` truncates to.
        use std::hint::black_box;
        let ns = median_ns(3, || {
            black_box((0..black_box(1_000u64)).map(black_box).sum::<u64>());
        });
        assert!(ns > 0);
    }

    #[test]
    fn metro_run_counts_and_restores_the_preloaded_set() {
        let config = gmf_workloads::MetroConfig {
            n_cells: 3,
            hosts_per_cell: 4,
            flows_per_cell: 5,
            ..gmf_workloads::MetroConfig::default()
        };
        let outcome = run_metro_admission(
            METRO_BENCH_SEED,
            &config,
            &gmf_analysis::AnalysisConfig::paper(),
            2,
            6,
            0.25,
        );
        assert_eq!(outcome.decisions(), 12);
        assert_eq!(outcome.accepted() + outcome.rejected(), 12);
        assert_eq!(outcome.released, outcome.accepted());
        // The releases restore the preloaded set exactly.
        assert_eq!(outcome.final_flows, outcome.n_flows);
        assert_eq!(outcome.final_shards, outcome.preload.shards);
        // Trials stay within one cell plus that cell's admitted candidates.
        assert!(outcome.largest_trial() <= config.flows_per_cell + 12);
    }

    #[test]
    fn survivability_sweep_has_zero_divergence_on_the_tiny_ring() {
        let config = gmf_workloads::ResilienceConfig::tiny();
        let scenario = gmf_workloads::resilience_scenario(RESILIENCE_BENCH_SEED, &config);
        let outcome = run_survivability_sweep(
            "ring-metro",
            scenario.topology,
            scenario.flows,
            &gmf_analysis::AnalysisConfig::paper(),
            &RESILIENCE_DEGRADE_FACTORS,
        );
        assert_eq!(outcome.n_flows, config.n_flows());
        // One cable cut per access link and trunk, one degrade per switch
        // per factor.
        let cables = config.n_cells * config.hosts_per_cell + config.n_cells;
        let degrades = config.n_cells * RESILIENCE_DEGRADE_FACTORS.len();
        assert_eq!(outcome.report.n_scenarios(), cables + degrades);
        assert_eq!(outcome.divergences, Vec::<String>::new());
        // Trunk cuts re-route around the ring; access cuts strand a host's
        // flows.
        assert!(outcome.report.n_survivable() >= config.n_cells);
        assert!(outcome.report.n_stranding() >= 1);
        assert!(outcome.report.worst_margin().is_some());
    }

    #[test]
    fn helpers_do_not_panic() {
        print_header("E0", "smoke test");
        print_table(
            &["a", "bbb"],
            &[
                vec!["1".to_string(), "2".to_string()],
                vec!["333".to_string(), "4".to_string()],
            ],
        );
        compare("MFT", "1.2304 ms", "1.2304 ms");
    }
}
