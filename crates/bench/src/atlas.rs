//! The tightness atlas (E17): percentile-resolved bound tightness over
//! the fuzz corpus at *long* horizons.
//!
//! The conformance harness (E13) answers a boolean question — does any
//! observed response exceed its bound?  The atlas answers the quantitative
//! follow-up: *how far below* the bound does the response-time
//! distribution sit when a scenario runs long enough for every flow to
//! cycle hundreds of times.  For each fuzz scenario it
//!
//! 1. runs the conservative analysis (bounds must exist — unschedulable
//!    draws are recorded and skipped);
//! 2. simulates the dense arrival policy for a horizon many times the
//!    conformance default, so the streaming per-(flow, frame) histograms
//!    of `switch-sim` accumulate thousands of samples;
//! 3. emits, per (flow, GMF frame), the observed P50/P95/P99/max as
//!    integer *permille of the analytical bound* (`1000` = at the bound).
//!
//! Everything in [`AtlasReport`] is deterministic: ratios are integer
//! permille derived from the simulator's integer-nanosecond histogram
//! edges, row order is (scenario, flow, frame), and the analysis thread
//! count must not change a digit (CI diffs `exp_atlas` output across
//! `--threads 1/4`).  Wall-clock and events/sec never enter the report —
//! `exp_atlas` prints those to stderr only.

use gmf_analysis::{analyze, AnalysisConfig};
use gmf_model::Time;
use gmf_par::derive_seed;
use gmf_workloads::fuzz::{valid_scenario, FuzzConfig};
use switch_sim::{QueueShape, SimConfig, Simulator};

use crate::conformance::horizon_for;

/// Fixed seed of every atlas simulation run (the fuzz seed varies per
/// scenario; the simulator seed stays pinned so arrival phasing is part
/// of the atlas identity).
const ATLAS_SIM_SEED: u64 = 0xA71A5;

/// Parameters of one atlas sweep.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    /// Number of fuzz scenarios to sweep.
    pub scenarios: usize,
    /// Master seed; scenario `i` draws from `derive_seed(seed, i)`.
    pub seed: u64,
    /// The scenario generator.
    pub fuzz: FuzzConfig,
    /// Horizon multiplier over the conformance default ([`horizon_for`],
    /// three cycles of the slowest flow) — the "long" in long horizon.
    pub horizon_factor: u64,
    /// Analysis worker threads (must not change any reported digit).
    pub threads: usize,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            scenarios: 12,
            seed: 1708,
            fuzz: FuzzConfig::default(),
            horizon_factor: 20,
            threads: 1,
        }
    }
}

/// One (scenario, flow, GMF frame) distribution against its bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtlasRow {
    /// Scenario label (`fuzz-<seed>-<shape>`).
    pub scenario: String,
    /// Flow name.
    pub flow: String,
    /// GMF frame index within the flow's cycle.
    pub frame: usize,
    /// Completed packets behind the percentiles.
    pub samples: u64,
    /// Observed P50 as permille of the analytical bound.
    pub p50_permille: u64,
    /// Observed P95 as permille of the bound.
    pub p95_permille: u64,
    /// Observed P99 as permille of the bound.
    pub p99_permille: u64,
    /// Observed maximum as permille of the bound (`> 1000` violates).
    pub max_permille: u64,
}

/// The atlas of one corpus sweep.
#[derive(Debug, Clone, Default)]
pub struct AtlasReport {
    /// Every observed (scenario, flow, frame), in deterministic order.
    pub rows: Vec<AtlasRow>,
    /// Scenarios that produced rows.
    pub scenarios_ok: usize,
    /// `(label, reason)` of scenarios the atlas could not use
    /// (analysis error or unschedulable — expected for a fuzz corpus).
    pub skipped: Vec<(String, String)>,
    /// Rows whose observed *maximum* exceeds the bound.  Must be empty:
    /// a non-empty list is a soundness violation, same as E13.
    pub violations: Vec<AtlasRow>,
    /// Total simulator events across the sweep (deterministic).
    pub events_processed: u64,
    /// Total packets completed across the sweep (deterministic).
    pub packets_completed: u64,
    /// Event-queue shape folded over all runs: max of the maxima, sum of
    /// the totals (deterministic).
    pub queue: QueueShape,
}

impl AtlasReport {
    /// The row with the largest `max_permille` (ties: first in row order).
    pub fn tightest(&self) -> Option<&AtlasRow> {
        self.rows.iter().max_by_key(|r| r.max_permille)
    }

    /// Distribution of a permille column over all rows, as
    /// `(min, median, max)`; `pick` selects the column.
    pub fn spread(&self, pick: impl Fn(&AtlasRow) -> u64) -> Option<(u64, u64, u64)> {
        if self.rows.is_empty() {
            return None;
        }
        let mut values: Vec<u64> = self.rows.iter().map(pick).collect();
        values.sort_unstable();
        Some((
            values[0],
            values[values.len() / 2],
            values[values.len() - 1],
        ))
    }
}

/// A `Time` as integer permille of `bound` (rounded down; saturates the
/// pathological `bound <= 0` to `u64::MAX` rather than dividing by zero).
fn permille_of(observed: Time, bound: Time) -> u64 {
    if bound <= Time::ZERO {
        return u64::MAX;
    }
    let observed = u128::from(observed.as_ps().max(0).unsigned_abs());
    let permille = observed * 1000 / u128::from(bound.as_ps().unsigned_abs());
    u64::try_from(permille).unwrap_or(u64::MAX)
}

/// Sweep the fuzz corpus and build the atlas.
pub fn tightness_atlas(config: &AtlasConfig) -> AtlasReport {
    let analysis = AnalysisConfig::conservative().with_threads(config.threads);
    let mut report = AtlasReport::default();
    for i in 0..config.scenarios {
        let scenario_seed = derive_seed(config.seed, i as u64);
        let (scenario, _) = valid_scenario(scenario_seed, &config.fuzz);
        let label = scenario.label.clone();
        let bounds = match analyze(&scenario.topology, &scenario.flows, &analysis) {
            Ok(bounds) => bounds,
            Err(err) => {
                report.skipped.push((label, err.to_string()));
                continue;
            }
        };
        if !bounds.schedulable {
            report.skipped.push((label, "not schedulable".to_string()));
            continue;
        }

        let horizon = horizon_for(&scenario.flows) * config.horizon_factor;
        let sim_config = SimConfig {
            horizon,
            seed: ATLAS_SIM_SEED,
            ..SimConfig::default()
        };
        let result = Simulator::new(&scenario.topology, &scenario.flows, sim_config)
            .and_then(|sim| sim.run());
        let result = match result {
            Ok(result) => result,
            Err(err) => {
                report.skipped.push((label, err.to_string()));
                continue;
            }
        };

        report.scenarios_ok += 1;
        report.events_processed += result.events_processed;
        report.packets_completed += result.stats.packets_completed;
        report.queue.max_pending = report.queue.max_pending.max(result.queue.max_pending);
        report.queue.max_bucket = report.queue.max_bucket.max(result.queue.max_bucket);
        report.queue.buckets_opened += result.queue.buckets_opened;
        report.queue.pool_reuses += result.queue.pool_reuses;

        for binding in scenario.flows.bindings() {
            let Some(flow_report) = bounds.flow(binding.id) else {
                continue;
            };
            for (frame, frame_report) in flow_report.frames.iter().enumerate() {
                let Some(stats) = result.stats.frame_stats(binding.id, frame) else {
                    continue;
                };
                let bound = frame_report.bound;
                let row = AtlasRow {
                    scenario: label.clone(),
                    flow: binding.flow.name().to_string(),
                    frame,
                    samples: stats.count,
                    // Percentiles always exist here: `frame_stats` only
                    // returns entries with at least one sample.
                    p50_permille: permille_of(stats.p50().unwrap_or(stats.max), bound),
                    p95_permille: permille_of(stats.p95().unwrap_or(stats.max), bound),
                    p99_permille: permille_of(stats.p99().unwrap_or(stats.max), bound),
                    max_permille: permille_of(stats.max, bound),
                };
                if row.max_permille > 1000 {
                    report.violations.push(row.clone());
                }
                report.rows.push(row);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> AtlasConfig {
        AtlasConfig {
            scenarios: 2,
            horizon_factor: 2,
            ..AtlasConfig::default()
        }
    }

    #[test]
    fn atlas_is_deterministic_across_thread_counts() {
        let base = tightness_atlas(&small_config());
        let threaded = tightness_atlas(&AtlasConfig {
            threads: 4,
            ..small_config()
        });
        assert_eq!(base.rows, threaded.rows);
        assert_eq!(base.events_processed, threaded.events_processed);
        assert_eq!(base.queue, threaded.queue);
    }

    #[test]
    fn atlas_observes_no_violations_and_real_samples() {
        let report = tightness_atlas(&small_config());
        assert!(
            report.scenarios_ok > 0,
            "corpus produced no usable scenario"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            assert!(row.samples > 0);
            // Percentiles are ordered and below the (clamped) maximum.
            assert!(row.p50_permille <= row.p95_permille);
            assert!(row.p95_permille <= row.p99_permille);
            assert!(row.p99_permille <= row.max_permille.max(row.p99_permille));
            assert!(row.max_permille <= 1000);
        }
    }

    #[test]
    fn permille_arithmetic() {
        let bound = Time::from_millis(10.0);
        assert_eq!(permille_of(Time::from_millis(10.0), bound), 1000);
        assert_eq!(permille_of(Time::from_millis(5.0), bound), 500);
        assert_eq!(permille_of(Time::ZERO, bound), 0);
        assert_eq!(permille_of(bound, Time::ZERO), u64::MAX);
    }
}
