//! E10 — convergence of the holistic jitter iteration.
//!
//! The paper's "Putting it all together" section proposes iterating the
//! per-resource analyses until the generalized jitters stop changing.  This
//! experiment measures, on line topologies of increasing length carrying a
//! video flow plus per-hop cross traffic, how many outer iterations the
//! fixed point needs and how the end-to-end bound grows with the number of
//! hops.

use gmf_analysis::{analyze, AnalysisConfig};
use gmf_bench::{long_tail_bench_scenario, print_header, print_table, threads_flag};
use gmf_model::{voip_flow, FlowId, GopSizes, GopSpec, Time, VoiceCodec};
use gmf_net::{line, shortest_path, FlowSet, LinkProfile, Priority, SwitchConfig};

fn main() {
    print_header(
        "E10",
        "Holistic iteration count and bound growth vs route length",
    );
    let threads = threads_flag();

    let mut rows = Vec::new();
    for n_switches in [1usize, 2, 3, 4, 6, 8] {
        let (topology, host_a, host_b, switches) = line(
            n_switches,
            LinkProfile::ethernet_100m(),
            LinkProfile::ethernet_100m(),
            SwitchConfig::paper(),
        );
        let mut flows = FlowSet::new();

        // The video flow traverses the whole line (use a lighter GOP so the
        // scenario stays schedulable on long lines).
        let video = GopSpec {
            name: "video".into(),
            pattern: gmf_model::paper_figure3_pattern(),
            sizes: GopSizes::sd_profile(),
            frame_period: Time::from_millis(30.0),
            deadline: Time::from_millis(250.0),
            jitter: Time::from_millis(1.0),
        }
        .build()
        .expect("valid GOP spec");
        let route = shortest_path(&topology, host_a, host_b).expect("line is connected");
        let video_id = flows.add(video, route, Priority(5));

        // One reverse-direction voice flow per switch pair keeps every
        // backbone link busy in both directions.
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(40.0),
            Time::from_millis(0.5),
        );
        let reverse = shortest_path(&topology, host_b, host_a).expect("line is connected");
        flows.add(voice.clone(), reverse, Priority(7));
        let _ = &switches;

        let report = analyze(
            &topology,
            &flows,
            &AnalysisConfig::paper().with_threads(threads),
        )
        .expect("valid");
        let bound = report
            .flow(video_id)
            .and_then(|f| f.worst_bound())
            .map(|t| t.to_string())
            .unwrap_or_else(|| "unschedulable".to_string());
        rows.push(vec![
            n_switches.to_string(),
            (n_switches + 1).to_string(),
            report.iterations.to_string(),
            report.converged.to_string(),
            bound,
            report.schedulable.to_string(),
        ]);
        let _ = FlowId(0);
    }
    print_table(
        &[
            "switches",
            "links on route",
            "holistic iterations",
            "converged",
            "worst video bound",
            "schedulable",
        ],
        &rows,
    );
    println!();
    println!(
        "expected shape: the iteration converges in a handful of rounds; the bound grows roughly\n\
         linearly with the hop count (each extra switch adds one ingress stage and one egress link)."
    );

    // Residual trace of the fixed-point engine on the long-tail workload
    // (bidirectional line, slow routing CPUs).
    println!();
    print_header(
        "E10b",
        "Fixed-point engine: per-round residual trace (Picard)",
    );
    let (topology, flows) = long_tail_bench_scenario();
    let config = AnalysisConfig::paper().with_threads(threads);
    let report = analyze(&topology, &flows, &config).expect("valid long-tail scenario");
    println!();
    println!(
        "strategy picard: {} rounds, converged: {}",
        report.iterations, report.converged
    );
    let rows: Vec<Vec<String>> = report
        .trace
        .rounds
        .iter()
        .map(|round| vec![round.iteration.to_string(), round.residual.to_string()])
        .collect();
    print_table(&["round", "residual"], &rows);
    println!();
    print_table(
        &["strategy", "rounds", "worst bound"],
        &[vec![
            "picard".to_string(),
            report.iterations.to_string(),
            report
                .worst_bound()
                .map(|t| t.to_string())
                .unwrap_or_default(),
        ]],
    );
    println!();
    println!(
        "the residual grows while jitter fronts propagate down the line, then halves each round\n\
         until Picard lands exactly on the fixed point (a final residual of 0 s)."
    );
}
