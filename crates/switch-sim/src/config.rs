//! Simulation configuration.

use gmf_model::Time;
use serde::{Deserialize, Serialize};

/// How the Ethernet frames of one UDP packet are spread over the packet's
/// generalized-jitter window `[arrival, arrival + GJ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum JitterSpread {
    /// All Ethernet frames are released at the start of the window
    /// (equivalent to no jitter).
    AtStart,
    /// Frames are spread uniformly over the window (the last one is released
    /// just before `arrival + GJ`).
    #[default]
    Uniform,
    /// All frames are released at the very end of the window — the
    /// worst-case spread the generalized-jitter model permits.
    AtEnd,
}

/// How packet inter-arrival times are chosen relative to the GMF minimums.
///
/// The three adversarial policies (`CriticalInstant`, `MaxReleaseJitter`,
/// `BurstyGops`) generate *legal* traffic — every gap still respects the
/// flow's minimum inter-arrival times and every Ethernet frame is released
/// within its generalized-jitter window — while actively pushing the
/// observed response times toward the analytical bound.  The conformance
/// harness (E13) runs every scenario under all of them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalPolicy {
    /// Every frame arrives exactly its minimum inter-arrival time after the
    /// previous one — the densest (worst-case) legal arrival pattern.
    #[default]
    Dense,
    /// Each gap is stretched by a uniformly random factor in
    /// `[1, 1 + slack]`; models sources that are not maximally bursty.
    RandomSlack {
        /// Maximum relative slack added to every inter-arrival gap.
        slack: f64,
    },
    /// Critical-instant phasing: dense minimum gaps *and* every flow's
    /// first packet arrives at time zero, overriding
    /// [`SimConfig::aligned_start`].  All flows hit every shared resource
    /// together — the alignment the response-time analysis charges for.
    CriticalInstant,
    /// Dense minimum gaps in which the *first* packet of every flow holds
    /// all of its Ethernet frames to the very end of the generalized-jitter
    /// window while every later packet releases immediately: the spacing
    /// between the first and second packet, as seen by the network, shrinks
    /// by almost the full `GJ` — the classical worst case of jitter
    /// analysis.
    MaxReleaseJitter,
    /// Dense minimum gaps *within* each GMF cycle, with a random idle pause
    /// of up to `max_pause × TSUM` inserted between cycles.  Each GOP is a
    /// maximal back-to-back burst, and every cycle re-randomises the flows'
    /// relative phasing — one run samples many alignments in its search for
    /// a bad one.
    BurstyGops {
        /// Upper bound of the inter-cycle pause, as a fraction of the
        /// flow's cycle length `TSUM` (drawn uniformly per cycle).
        max_pause: f64,
    },
}

impl ArrivalPolicy {
    /// `true` for the policies that force every flow to start at time zero
    /// regardless of [`SimConfig::aligned_start`].
    pub fn forces_aligned_start(&self) -> bool {
        matches!(self, ArrivalPolicy::CriticalInstant)
    }

    /// Short stable label used in conformance reports and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalPolicy::Dense => "dense",
            ArrivalPolicy::RandomSlack { .. } => "random-slack",
            ArrivalPolicy::CriticalInstant => "critical-instant",
            ArrivalPolicy::MaxReleaseJitter => "max-release-jitter",
            ArrivalPolicy::BurstyGops { .. } => "bursty-gops",
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated time horizon; packet arrivals are generated up to this
    /// time and the simulation drains all in-flight traffic afterwards.
    pub horizon: Time,
    /// How Ethernet frames are spread over each packet's jitter window.
    pub jitter_spread: JitterSpread,
    /// How packet inter-arrival times are generated.
    pub arrival: ArrivalPolicy,
    /// Per-flow initial phase: if `true`, every flow starts at time zero
    /// (the critical-instant-like alignment); if `false`, each flow gets a
    /// random initial phase within its first inter-arrival time.
    pub aligned_start: bool,
    /// CPU cost of offering a turn to a task that has nothing to do
    /// (Click's cost of a task returning immediately).
    pub idle_poll_cost: Time,
    /// Seed for all randomness (arrival slack, jitter placement, phases).
    pub seed: u64,
    /// Packets that *arrive at their source* before this instant are
    /// excluded from the per-frame response-time aggregates (they still
    /// count towards `packets_completed`).  Fault-recovery conformance runs
    /// use this to measure only traffic released after the network settled
    /// back into the analysed state.
    #[serde(default)]
    pub measure_from: Time,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: Time::from_secs(2.0),
            jitter_spread: JitterSpread::Uniform,
            arrival: ArrivalPolicy::Dense,
            aligned_start: true,
            idle_poll_cost: Time::from_micros(0.1),
            seed: 0xC0FFEE,
            measure_from: Time::ZERO,
        }
    }
}

impl SimConfig {
    /// A short smoke-test configuration (200 ms horizon).
    pub fn quick() -> Self {
        SimConfig {
            horizon: Time::from_millis(200.0),
            ..SimConfig::default()
        }
    }

    /// Override the horizon.
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.horizon = horizon;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the measurement start (see [`SimConfig::measure_from`]).
    pub fn with_measure_from(mut self, measure_from: Time) -> Self {
        self.measure_from = measure_from;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = SimConfig::default();
        assert!(c.horizon >= Time::from_secs(1.0));
        assert!(c.aligned_start);
        assert_eq!(c.arrival, ArrivalPolicy::Dense);
        assert_eq!(c.jitter_spread, JitterSpread::Uniform);
        assert!(c.idle_poll_cost < Time::from_micros(1.0));
    }

    #[test]
    fn builders() {
        let c = SimConfig::quick()
            .with_horizon(Time::from_millis(500.0))
            .with_seed(42);
        assert_eq!(c.horizon, Time::from_millis(500.0));
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn policy_labels_are_stable_and_distinct() {
        let policies = [
            ArrivalPolicy::Dense,
            ArrivalPolicy::RandomSlack { slack: 0.5 },
            ArrivalPolicy::CriticalInstant,
            ArrivalPolicy::MaxReleaseJitter,
            ArrivalPolicy::BurstyGops { max_pause: 1.0 },
        ];
        let labels: Vec<&str> = policies.iter().map(|p| p.label()).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "labels must be distinct");
        assert_eq!(ArrivalPolicy::CriticalInstant.label(), "critical-instant");
    }

    #[test]
    fn only_critical_instant_forces_alignment() {
        assert!(ArrivalPolicy::CriticalInstant.forces_aligned_start());
        assert!(!ArrivalPolicy::Dense.forces_aligned_start());
        assert!(!ArrivalPolicy::MaxReleaseJitter.forces_aligned_start());
        assert!(!ArrivalPolicy::BurstyGops { max_pause: 0.5 }.forces_aligned_start());
        assert!(!ArrivalPolicy::RandomSlack { slack: 0.1 }.forces_aligned_start());
    }

    #[test]
    fn adversarial_policies_roundtrip_through_serde() {
        for policy in [
            ArrivalPolicy::CriticalInstant,
            ArrivalPolicy::MaxReleaseJitter,
            ArrivalPolicy::BurstyGops { max_pause: 0.75 },
        ] {
            let cfg = SimConfig {
                arrival: policy,
                ..SimConfig::quick()
            };
            let json = serde_json::to_string(&cfg).unwrap();
            let back: SimConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
        }
    }
}
