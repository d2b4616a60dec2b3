//! Parameter sweeps: the machinery behind the acceptance-ratio and
//! sensitivity experiments.
//!
//! [`acceptance_sweep`] regenerates the classic "acceptance ratio vs
//! offered utilization" curve (experiment E8): at each utilization level it
//! draws many random flow sets, routes them across a bottleneck link of a
//! star network, and records which admission tests accept them —
//!
//! * the GMF holistic response-time analysis (the paper's contribution),
//! * the same analysis on the sporadic collapse of every flow (the
//!   pre-existing state of the art), and
//! * the utilization-only necessary condition (an upper bound on what any
//!   analysis could accept).

use crate::synthetic::{random_flow_collection, SyntheticConfig};
use gmf_analysis::{analyze, analyze_sporadic_baseline, utilization_check, AnalysisConfig};
use gmf_net::{
    shortest_path, star, FlowSet, LinkProfile, NodeId, Priority, PriorityPolicy, SwitchConfig,
    Topology,
};
use gmf_par::{par_map_interleaved, Threads};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One point of the acceptance-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceptancePoint {
    /// Offered utilization of the bottleneck link.
    pub utilization: f64,
    /// Number of random flow sets evaluated.
    pub trials: usize,
    /// Fraction accepted by the GMF holistic analysis.
    pub gmf_accepted: f64,
    /// Fraction accepted by the sporadic-collapse baseline.
    pub sporadic_accepted: f64,
    /// Fraction passing the utilization-only necessary test.
    pub utilization_feasible: f64,
}

/// Configuration of the acceptance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Number of flows per random set.
    pub flows_per_set: usize,
    /// Number of random sets per utilization point.
    pub sets_per_point: usize,
    /// Number of source hosts on the star (all flows converge on one sink).
    pub n_sources: usize,
    /// Speed of every link of the star.
    pub link: LinkProfile,
    /// Switch CPU parameters.
    pub switch: SwitchConfig,
    /// Flow-structure generator configuration.
    pub synthetic: SyntheticConfig,
    /// Number of 802.1p priority levels available.
    pub priority_levels: u8,
}

impl Default for SweepConfig {
    fn default() -> Self {
        let link = LinkProfile::ethernet_100m();
        SweepConfig {
            flows_per_set: 8,
            sets_per_point: 20,
            n_sources: 4,
            link,
            switch: SwitchConfig::paper(),
            synthetic: SyntheticConfig {
                reference_speed_bps: link.speed.as_bps(),
                ..SyntheticConfig::default()
            },
            priority_levels: 8,
        }
    }
}

impl SweepConfig {
    /// Check the configuration for values that would silently corrupt a
    /// sweep rather than fail it loudly: `sets_per_point == 0` makes every
    /// acceptance ratio `0/0 = NaN`, `flows_per_set == 0` makes every set
    /// vacuously schedulable, and `n_sources == 0` leaves the star with no
    /// hosts to route from.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets_per_point == 0 {
            return Err(
                "sets_per_point must be at least 1 (0 yields NaN acceptance ratios)".into(),
            );
        }
        if self.flows_per_set == 0 {
            return Err("flows_per_set must be at least 1".into());
        }
        if self.n_sources == 0 {
            return Err("n_sources must be at least 1".into());
        }
        Ok(())
    }
}

/// Build the star topology and route a collection of flows from random
/// source hosts to the common sink (host 0), assigning deadline-monotonic
/// priorities.  Returns `(topology, flow set, sink)`.
pub fn build_converging_flow_set<R: Rng>(
    rng: &mut R,
    flows: Vec<gmf_model::GmfFlow>,
    config: &SweepConfig,
) -> (Topology, FlowSet, NodeId) {
    let (topology, _switch, hosts) = star(config.n_sources + 1, config.link, config.switch);
    let sink = hosts[0];
    let sources = &hosts[1..];
    let mut set = FlowSet::new();
    for flow in flows {
        let source = sources[rng.gen_range(0..sources.len())];
        // tidy-allow: unwrap invariant: star is connected
        let route = shortest_path(&topology, source, sink).expect("star is connected");
        set.add(flow, route, Priority(0));
    }
    set.assign_priorities(PriorityPolicy::DeadlineMonotonic {
        levels: config.priority_levels,
    });
    (topology, set, sink)
}

/// Build a seeded random converging flow set — the sweep generator's star
/// with `n_flows` random flows at the given offered utilization.
///
/// One call, one deterministic workload: the property-test suites, the
/// benches and the experiments all draw their "random sweep set" from this
/// helper so they exercise exactly the same distribution.
pub fn random_sweep_set(
    seed: u64,
    n_flows: usize,
    utilization: f64,
    config: &SweepConfig,
) -> (Topology, FlowSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let flows = random_flow_collection(&mut rng, n_flows, utilization, &config.synthetic);
    let (topology, set, _) = build_converging_flow_set(&mut rng, flows, config);
    (topology, set)
}

/// Run the acceptance sweep over the given utilization levels.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`SweepConfig::validate`]) — most
/// importantly `sets_per_point == 0`, which would silently turn every
/// acceptance ratio into `NaN`.
pub fn acceptance_sweep<R: Rng>(
    rng: &mut R,
    utilizations: &[f64],
    config: &SweepConfig,
    analysis: &AnalysisConfig,
) -> Vec<AcceptancePoint> {
    // tidy-allow: unwrap invariant: invalid sweep configuration
    config.validate().expect("invalid sweep configuration");
    utilizations
        .iter()
        .map(|&utilization| acceptance_point(rng, utilization, config, analysis))
        .collect()
}

/// Evaluate one utilization point of the acceptance sweep.  Both the
/// sequential and the parallel sweep call this — the sequential one with
/// its single caller-provided stream, the parallel one with a per-point
/// seeded stream.
fn acceptance_point<R: Rng>(
    rng: &mut R,
    utilization: f64,
    config: &SweepConfig,
    analysis: &AnalysisConfig,
) -> AcceptancePoint {
    let mut gmf = 0usize;
    let mut sporadic = 0usize;
    let mut feasible = 0usize;
    for _ in 0..config.sets_per_point {
        let flows =
            random_flow_collection(rng, config.flows_per_set, utilization, &config.synthetic);
        let (topology, set, _) = build_converging_flow_set(rng, flows, config);

        if analyze(&topology, &set, analysis)
            .map(|r| r.schedulable)
            .unwrap_or(false)
        {
            gmf += 1;
        }
        if analyze_sporadic_baseline(&topology, &set, analysis)
            .map(|r| r.schedulable)
            .unwrap_or(false)
        {
            sporadic += 1;
        }
        if utilization_check(&topology, &set)
            .map(|c| c.feasible)
            .unwrap_or(false)
        {
            feasible += 1;
        }
    }
    let denom = config.sets_per_point as f64;
    AcceptancePoint {
        utilization,
        trials: config.sets_per_point,
        gmf_accepted: gmf as f64 / denom,
        sporadic_accepted: sporadic as f64 / denom,
        utilization_feasible: feasible as f64 / denom,
    }
}

/// Run the acceptance sweep with one independently seeded RNG per
/// utilization point, evaluating up to `threads` points concurrently.
///
/// Each point draws its ChaCha8 seed deterministically from `seed` and its
/// index, so the result depends only on `(seed, utilizations, config,
/// analysis)` — never on the thread count: `threads = 1` and `threads = N`
/// produce identical output, and the points can be recomputed individually.
/// (The per-point RNG streams differ from the single-stream
/// [`acceptance_sweep`], so the two functions agree in distribution but not
/// sample-for-sample.)
///
/// # Panics
///
/// Panics if `config` is invalid (see [`SweepConfig::validate`]).
pub fn acceptance_sweep_par(
    seed: u64,
    utilizations: &[f64],
    config: &SweepConfig,
    analysis: &AnalysisConfig,
    threads: usize,
) -> Vec<AcceptancePoint> {
    // tidy-allow: unwrap invariant: invalid sweep configuration
    config.validate().expect("invalid sweep configuration");
    par_map_interleaved(
        Threads::new(threads),
        utilizations,
        |index, &utilization| {
            // Well-spread per-point seed: splitmix64 of (seed, index).
            let mut rng = ChaCha8Rng::seed_from_u64(gmf_par::derive_seed(seed, index as u64));
            acceptance_point(&mut rng, utilization, config, analysis)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SweepConfig {
        SweepConfig {
            flows_per_set: 4,
            sets_per_point: 5,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn converging_flow_set_routes_everything_to_the_sink() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = small_config();
        let flows = random_flow_collection(&mut rng, 4, 0.3, &config.synthetic);
        let (topology, set, sink) = build_converging_flow_set(&mut rng, flows, &config);
        assert_eq!(set.len(), 4);
        set.validate_against(&topology).unwrap();
        for binding in set.bindings() {
            assert_eq!(binding.route.destination(), sink);
            assert_ne!(binding.route.source(), sink);
        }
        // Deadline-monotonic priorities were assigned (not all zero unless
        // all deadlines are in the same quantile).
        assert!(set.bindings().iter().any(|b| b.priority.0 > 0));
    }

    #[test]
    fn acceptance_decreases_with_utilization_and_gmf_dominates_sporadic() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let config = small_config();
        let points = acceptance_sweep(&mut rng, &[0.10, 0.95], &config, &AnalysisConfig::paper());
        assert_eq!(points.len(), 2);
        let low = &points[0];
        let high = &points[1];
        // At 10% utilization (almost) everything is accepted; at 95% the
        // necessary condition already rejects many sets and the sufficient
        // analyses accept no more than it.
        assert!(low.gmf_accepted >= 0.8, "low point: {low:?}");
        assert!(high.gmf_accepted <= low.gmf_accepted);
        for p in &points {
            assert!(p.gmf_accepted >= p.sporadic_accepted - 1e-9, "{p:?}");
            assert_eq!(p.trials, config.sets_per_point);
        }
    }

    #[test]
    fn parallel_sweep_is_identical_at_any_thread_count() {
        let config = small_config();
        let utilizations = [0.2, 0.5, 0.8];
        let reference =
            acceptance_sweep_par(42, &utilizations, &config, &AnalysisConfig::paper(), 1);
        assert_eq!(reference.len(), 3);
        for threads in [2usize, 3, 8] {
            let parallel = acceptance_sweep_par(
                42,
                &utilizations,
                &config,
                &AnalysisConfig::paper(),
                threads,
            );
            assert_eq!(reference, parallel, "threads = {threads}");
        }
        // A different master seed gives a different (but valid) curve.
        let other = acceptance_sweep_par(7, &utilizations, &config, &AnalysisConfig::paper(), 2);
        for p in &other {
            assert!(p.gmf_accepted >= p.sporadic_accepted - 1e-9);
            assert_eq!(p.trials, config.sets_per_point);
        }
    }

    #[test]
    fn zero_sets_per_point_is_rejected_not_nan() {
        // Regression: `acceptance_point` divides by `sets_per_point`, so a
        // zero used to yield a silent NaN acceptance ratio.
        let config = SweepConfig {
            sets_per_point: 0,
            ..SweepConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("sets_per_point"));
        assert!(SweepConfig {
            flows_per_set: 0,
            ..SweepConfig::default()
        }
        .validate()
        .is_err());
        assert!(SweepConfig {
            n_sources: 0,
            ..SweepConfig::default()
        }
        .validate()
        .is_err());
        assert!(SweepConfig::default().validate().is_ok());

        let result = std::panic::catch_unwind(|| {
            acceptance_sweep(
                &mut ChaCha8Rng::seed_from_u64(1),
                &[0.5],
                &config,
                &AnalysisConfig::paper(),
            )
        });
        assert!(result.is_err(), "a zero-trial sweep must panic, not NaN");
        let result = std::panic::catch_unwind(|| {
            acceptance_sweep_par(1, &[0.5], &config, &AnalysisConfig::paper(), 2)
        });
        assert!(result.is_err());
    }

    #[test]
    fn sweep_is_reproducible_for_a_seed() {
        let config = small_config();
        let a = acceptance_sweep(
            &mut ChaCha8Rng::seed_from_u64(3),
            &[0.3],
            &config,
            &AnalysisConfig::paper(),
        );
        let b = acceptance_sweep(
            &mut ChaCha8Rng::seed_from_u64(3),
            &[0.3],
            &config,
            &AnalysisConfig::paper(),
        );
        assert_eq!(a, b);
    }
}
