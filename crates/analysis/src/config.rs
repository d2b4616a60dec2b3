//! Configuration of the schedulability analysis.

use gmf_model::Time;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the response-time analysis.
///
/// The defaults reproduce the paper's equations as printed; the two
/// `refine_*` flags enable documented refinements that make the bounds
/// strictly more conservative (see DESIGN.md §4) and are used by the
/// ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Abort a busy-period / queuing-time fixed-point iteration once the
    /// iterate exceeds this horizon and report divergence.  The horizon also
    /// bounds the holistic jitter iteration.
    pub horizon: Time,
    /// Maximum number of iterations of any single fixed-point computation.
    pub max_fixed_point_iterations: usize,
    /// Maximum number of outer (holistic jitter) iterations.
    pub max_holistic_iterations: usize,
    /// Refinement of the switch-ingress analysis (eqs. 21–27): also count
    /// the analysed flow's *own* Ethernet frames — `q·NSUM_i` frames instead
    /// of `q` and `NSUM_i^k` service rounds instead of one for the frame
    /// under analysis.  The paper's equations as printed charge only one
    /// `CIRC(N)` for the packet under analysis; a multi-fragment UDP packet
    /// needs one routing-task service per Ethernet frame, so this flag makes
    /// the bound safe for fragmented packets at the cost of pessimism.
    pub refine_ingress_own_frames: bool,
    /// Refinement of the first-hop analysis (eqs. 14–20): widen the
    /// interference window of every *other* flow by that flow's largest
    /// single-frame transmission time (as if it had that much extra
    /// generalized jitter).  This captures the packet that was enqueued just
    /// before the frame under analysis; the paper's `MX(0) = 0` misses that
    /// case when all generalized jitters are zero (its worked example always
    /// uses a non-zero jitter).
    pub refine_first_hop_blocking: bool,
    /// Refinement of the switch-egress analysis (eqs. 28–35): treat the
    /// packet under analysis as its `NSUM_i^k` individual Ethernet frames
    /// rather than one atom.  The printed equations add `C_i^k` *after*
    /// the queueing fixed point `w(q)`, as if the packet transmitted
    /// contiguously once it reached the head of the priority queue — but
    /// Ethernet non-preemption is per *frame*: between two fragments a
    /// higher-or-equal-priority frame that arrived meanwhile is dequeued
    /// first, and when the input link rate-limits the fragment trickle, a
    /// *lower*-priority frame can slip onto the idle link in every
    /// inter-fragment gap.  (The adversarial conformance harness found
    /// both effects: a 7-fragment packet was overtaken mid-transmission
    /// and finished past its printed bound.)  With the flag on, fragmented
    /// frames solve the queueing fixed point with their own transmission
    /// inside the interference window and charge one `MFT` blocking per
    /// own Ethernet frame; the bound is strictly more conservative.
    pub refine_egress_own_frames: bool,
    /// Worker threads for independent units of work: the admission
    /// controller's request lanes and its shard-by-shard preload
    /// verification.  A single holistic analysis always runs on the
    /// caller's thread and never reads this field.  `1` (the default)
    /// spawns no threads; any value produces byte-identical reports and
    /// decisions.
    pub threads: usize,
    /// Skip re-analysing a flow in a holistic round when every jitter slot
    /// its analysis reads is *exactly* unchanged from the round that
    /// produced its cached report (Jacobi memoization).  Within one round
    /// every flow is analysed against the same immutable previous-round
    /// map, so unchanged inputs reproduce the cached outputs bit for bit —
    /// the report, the convergence trace and the verdict are byte-identical
    /// with the flag on or off; only the `flow_analyses` cost counters
    /// shrink.  `true` by default; the ablation experiments switch it off
    /// to measure the saving.
    pub skip_unchanged_flows: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            horizon: Time::from_secs(10.0),
            max_fixed_point_iterations: 100_000,
            max_holistic_iterations: 100,
            refine_ingress_own_frames: false,
            refine_first_hop_blocking: false,
            refine_egress_own_frames: false,
            threads: 1,
            skip_unchanged_flows: true,
        }
    }
}

impl AnalysisConfig {
    /// The configuration that matches the paper's equations exactly.
    pub fn paper() -> Self {
        AnalysisConfig::default()
    }

    /// The conservative configuration: both refinements enabled.  Used by
    /// the simulation-validation experiment (E7), where the analytical bound
    /// must dominate every observed response time.
    pub fn conservative() -> Self {
        AnalysisConfig {
            refine_ingress_own_frames: true,
            refine_first_hop_blocking: true,
            refine_egress_own_frames: true,
            ..AnalysisConfig::default()
        }
    }

    /// Override the divergence horizon.
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.horizon = horizon;
        self
    }

    /// Override the outer (holistic jitter) iteration budget (`0` is
    /// treated as 1).  Warm-started admission trials inherit the same
    /// budget as cold runs; tests use small budgets to exercise the
    /// non-convergence paths.
    pub fn with_max_holistic_iterations(mut self, iterations: usize) -> Self {
        self.max_holistic_iterations = iterations.max(1);
        self
    }

    /// Override the worker-thread count for admission lanes and shard
    /// preloads (`0` is treated as 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable the dirty-flow round skipping of the holistic
    /// engine (reports are byte-identical either way; only the
    /// `flow_analyses` cost counters differ).
    pub fn with_skip_unchanged_flows(mut self, skip: bool) -> Self {
        self.skip_unchanged_flows = skip;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let c = AnalysisConfig::default();
        assert!(!c.refine_ingress_own_frames);
        assert!(!c.refine_first_hop_blocking);
        assert!(!c.refine_egress_own_frames);
        assert_eq!(c, AnalysisConfig::paper());
        assert!(c.horizon > Time::from_secs(1.0));
        assert!(c.max_fixed_point_iterations > 1000);
        assert!(c.max_holistic_iterations >= 10);
    }

    #[test]
    fn conservative_enables_refinements() {
        let c = AnalysisConfig::conservative();
        assert!(c.refine_ingress_own_frames);
        assert!(c.refine_first_hop_blocking);
        assert!(c.refine_egress_own_frames);
    }

    #[test]
    fn with_horizon_overrides() {
        let c = AnalysisConfig::default().with_horizon(Time::from_secs(1.0));
        assert_eq!(c.horizon, Time::from_secs(1.0));
    }

    #[test]
    fn engine_defaults_preserve_the_paper_scheme() {
        let c = AnalysisConfig::default();
        assert_eq!(c.threads, 1);
        // Round skipping is on by default — it is invisible in the bounds.
        assert!(c.skip_unchanged_flows);
        assert!(!c.with_skip_unchanged_flows(false).skip_unchanged_flows);
    }

    #[test]
    fn with_threads_overrides() {
        let c = AnalysisConfig::default().with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(AnalysisConfig::default().with_threads(0).threads, 1);
    }

    #[test]
    fn config_serde_roundtrip_includes_engine_fields() {
        let c = AnalysisConfig::conservative()
            .with_threads(8)
            .with_skip_unchanged_flows(false);
        let json = serde_json::to_string(&c).unwrap();
        let back: AnalysisConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
