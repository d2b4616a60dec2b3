//! Response-time statistics collected by the simulator.
//!
//! Aggregation is streaming and integer-exact where it matters for
//! determinism: per-(flow, GMF frame) response times accumulate into a
//! log-bucketed [`ResponseHistogram`] over integer nanoseconds plus an
//! integer-nanosecond sum, so the reported mean and percentiles are
//! independent of sample order and never drift over long horizons (the
//! old raw float `sum += response` accumulated rounding error that broke
//! byte-identical run diffs at millions of samples).

use gmf_model::{FlowId, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One completed packet observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketSample {
    /// The flow the packet belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow.
    pub sequence: u64,
    /// GMF frame index the packet instantiates.
    pub gmf_frame: usize,
    /// Arrival time of the packet at its source.
    pub arrival: Time,
    /// Time at which the last Ethernet frame of the packet reached the
    /// destination.
    pub completion: Time,
}

impl PacketSample {
    /// End-to-end response time of the packet.
    pub fn response_time(&self) -> Time {
        self.completion - self.arrival
    }
}

/// Sub-bucket resolution of [`ResponseHistogram`]: 2^6 = 64 linear
/// sub-buckets per power-of-two octave, bounding the relative quantile
/// error by 1/64 ≈ 1.6%.
const SUB_BUCKET_BITS: u32 = 6;
/// Number of linear sub-buckets per octave.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A streaming fixed-precision histogram of response times, log-bucketed
/// on integer nanoseconds (HdrHistogram-style log-linear buckets).
///
/// Values below `SUB_BUCKETS` (64) ns get exact unit buckets; above that,
/// each power-of-two octave is split into `SUB_BUCKETS` linear
/// sub-buckets, so any quantile is reported within one bucket (≤ 1.6%
/// relative error) of the exact order statistic while storage stays a few
/// kilobytes regardless of sample count.  The representation is canonical
/// for a given multiset of samples (the count vector spans exactly the
/// occupied bucket range), so equality and serialisation are
/// order-independent.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResponseHistogram {
    /// Global bucket index of `counts[0]`.
    base: usize,
    /// Per-bucket sample counts covering the occupied index range.
    counts: Vec<u64>,
    /// Total number of recorded samples.
    count: u64,
}

/// Global bucket index of a nanosecond value.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        ns as usize
    } else {
        // The highest set bit picks the octave; the SUB_BUCKET_BITS bits
        // below it pick the linear sub-bucket within the octave.
        let msb = 63 - ns.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        (((shift as u64) << SUB_BUCKET_BITS) + (ns >> shift)) as usize
    }
}

/// Inclusive upper nanosecond edge of a global bucket index.
fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        index
    } else {
        // Invert `bucket_index`: there `index = shift × 64 + (ns >> shift)`
        // with `ns >> shift` in [64, 128), so `index >> 6` lands one past
        // the octave's shift.
        let shift = (index >> SUB_BUCKET_BITS) as u32 - 1;
        let sub = index & (SUB_BUCKETS - 1) | SUB_BUCKETS;
        // Upper edge: everything strictly below the next bucket's floor
        // (the top octave's edge saturates at u64::MAX).
        let edge = (u128::from(sub) + 1) << shift;
        u64::try_from(edge - 1).unwrap_or(u64::MAX)
    }
}

impl ResponseHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        ResponseHistogram::default()
    }

    /// Record one response time of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let index = bucket_index(ns);
        if self.counts.is_empty() {
            self.base = index;
            self.counts.push(0);
        } else if index < self.base {
            // Grow downwards to exactly the new minimum bucket, keeping
            // the representation canonical for the recorded multiset.
            let pad = self.base - index;
            self.counts.splice(0..0, std::iter::repeat_n(0, pad));
            self.base = index;
        } else if index >= self.base + self.counts.len() {
            self.counts.resize(index - self.base + 1, 0);
        }
        self.counts[index - self.base] += 1;
        self.count += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper nanosecond edge of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), or `None` if the histogram is empty.
    ///
    /// The reported value is the smallest bucket edge below which at least
    /// `ceil(q × count)` samples fall — within one bucket (≤ 1.6%
    /// relative) of the exact order statistic.
    // tidy-allow: float quantile fraction is telemetry input, not a bound
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // tidy-allow: float quantile rank: ratio of deterministic integers
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (offset, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_high(self.base + offset));
            }
        }
        // Unreachable: the loop covers every recorded sample.
        Some(bucket_high(self.base + self.counts.len() - 1))
    }
}

/// Maximum number of raw samples retained when `SimConfig::keep_samples`
/// is on.  Percentiles come from the streaming histogram, so retention is a
/// debug aid only; the cap bounds its memory on long-horizon runs.
pub const MAX_KEPT_SAMPLES: usize = 1_000_000;

/// Aggregated statistics of one (flow, GMF frame index) pair.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResponseStats {
    /// Number of completed packets observed.
    pub count: u64,
    /// Largest observed response time (exact, not bucketed).
    pub max: Time,
    /// Smallest observed response time (exact, not bucketed).
    pub min: Time,
    /// Sum of response times in integer nanoseconds.  Integer
    /// accumulation is order-independent and drift-free, unlike the raw
    /// float sum it replaced.
    sum_ns: u64,
    /// Streaming log-bucketed distribution of response times.
    pub histogram: ResponseHistogram,
}

impl ResponseStats {
    fn record(&mut self, response: Time) {
        if self.count == 0 {
            self.min = response;
            self.max = response;
        } else {
            self.min = self.min.min(response);
            self.max = self.max.max(response);
        }
        let ns = response_ns(response);
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.histogram.record_ns(ns);
        self.count += 1;
    }

    /// Mean observed response time (zero if nothing was observed).
    pub fn mean(&self) -> Time {
        if self.count == 0 {
            Time::ZERO
        } else {
            // tidy-allow: float telemetry ratio: integer sum over count
            Time::from_nanos(self.sum_ns as f64 / self.count as f64)
        }
    }

    /// The `q`-quantile of the observed response times, reported at its
    /// histogram bucket's upper edge and clamped to the exact maximum
    /// (so `quantile(1.0)` equals [`ResponseStats::max`]).
    // tidy-allow: float quantile fraction is telemetry input, not a bound
    pub fn quantile(&self, q: f64) -> Option<Time> {
        let ns = self.histogram.quantile_ns(q)?;
        // tidy-allow: float telemetry conversion of an integer bucket edge
        Some(Time::from_nanos(ns as f64).min(self.max))
    }

    /// Median observed response time.
    pub fn p50(&self) -> Option<Time> {
        self.quantile(0.50)
    }

    /// 95th percentile of the observed response times.
    pub fn p95(&self) -> Option<Time> {
        self.quantile(0.95)
    }

    /// 99th percentile of the observed response times.
    pub fn p99(&self) -> Option<Time> {
        self.quantile(0.99)
    }
}

/// A response time as integer nanoseconds (rounded to the nearest ns;
/// negative responses cannot occur and clamp to zero).
fn response_ns(response: Time) -> u64 {
    debug_assert!(
        !response.is_negative(),
        "response times are non-negative by construction"
    );
    // tidy-allow: float conversion boundary from Time's f64 seconds
    let ns = response.as_nanos().round();
    // tidy-allow: float conversion boundary from Time's f64 seconds
    if ns <= 0.0 {
        0
    } else {
        ns as u64
    }
}

/// All statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Per (flow, GMF frame index) aggregates.
    per_frame: BTreeMap<(FlowId, usize), ResponseStats>,
    /// Raw samples (kept only when sample recording is enabled).
    samples: Vec<PacketSample>,
    /// Whether raw samples are retained.
    keep_samples: bool,
    /// Number of raw samples dropped after [`MAX_KEPT_SAMPLES`] was hit.
    pub samples_truncated: u64,
    /// Number of packets released at sources.
    pub packets_released: u64,
    /// Number of packets fully received at their destinations.
    pub packets_completed: u64,
    /// Number of Ethernet frames that traversed at least one link.
    pub frames_transmitted: u64,
}

impl SimStats {
    /// Create an empty statistics collector.
    pub fn new(keep_samples: bool) -> Self {
        SimStats {
            keep_samples,
            ..SimStats::default()
        }
    }

    /// Record a completed packet.
    pub fn record(&mut self, sample: PacketSample) {
        self.packets_completed += 1;
        self.per_frame
            .entry((sample.flow, sample.gmf_frame))
            .or_default()
            .record(sample.response_time());
        if self.keep_samples {
            if self.samples.len() < MAX_KEPT_SAMPLES {
                self.samples.push(sample);
            } else {
                if self.samples_truncated == 0 {
                    eprintln!(
                        "warning: keep_samples hit the {MAX_KEPT_SAMPLES}-sample \
                         retention cap; further samples are dropped (percentiles still \
                         come from the streaming histogram)"
                    );
                }
                self.samples_truncated += 1;
            }
        }
    }

    /// Aggregates of a specific (flow, GMF frame) pair.
    pub fn frame_stats(&self, flow: FlowId, gmf_frame: usize) -> Option<&ResponseStats> {
        self.per_frame.get(&(flow, gmf_frame))
    }

    /// All aggregates of one flow, keyed by GMF frame index, in frame
    /// order.  A range query on the BTreeMap — O(log n + frames of the
    /// flow), not a scan of every (flow, frame) pair.
    pub fn flow_frames(&self, flow: FlowId) -> impl Iterator<Item = (usize, &ResponseStats)> {
        self.per_frame
            .range((flow, 0)..=(flow, usize::MAX))
            .map(|(&(_, frame), s)| (frame, s))
    }

    /// The worst observed response time of any frame of `flow`.
    pub fn worst_response(&self, flow: FlowId) -> Option<Time> {
        self.flow_frames(flow).map(|(_, s)| s.max).max()
    }

    /// The worst observed response time of a specific GMF frame of `flow`.
    pub fn worst_frame_response(&self, flow: FlowId, gmf_frame: usize) -> Option<Time> {
        self.frame_stats(flow, gmf_frame).map(|s| s.max)
    }

    /// Number of completed packets of `flow`.
    pub fn completed_of_flow(&self, flow: FlowId) -> u64 {
        self.flow_frames(flow).map(|(_, s)| s.count).sum()
    }

    /// All per-(flow, frame) aggregates.
    pub fn per_frame(&self) -> impl Iterator<Item = (&(FlowId, usize), &ResponseStats)> {
        self.per_frame.iter()
    }

    /// Raw samples (empty unless sample recording was enabled; capped at
    /// [`MAX_KEPT_SAMPLES`] — see [`SimStats::samples_truncated`]).
    pub fn samples(&self) -> &[PacketSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        flow: usize,
        seq: u64,
        frame: usize,
        arrival_ms: f64,
        completion_ms: f64,
    ) -> PacketSample {
        PacketSample {
            flow: FlowId(flow),
            sequence: seq,
            gmf_frame: frame,
            arrival: Time::from_millis(arrival_ms),
            completion: Time::from_millis(completion_ms),
        }
    }

    #[test]
    fn response_time_is_completion_minus_arrival() {
        let s = sample(0, 0, 0, 10.0, 14.5);
        assert!(s.response_time().approx_eq(Time::from_millis(4.5)));
    }

    #[test]
    fn aggregates_track_min_max_mean() {
        let mut stats = SimStats::new(true);
        stats.record(sample(0, 0, 0, 0.0, 2.0));
        stats.record(sample(0, 1, 0, 10.0, 16.0));
        stats.record(sample(0, 2, 0, 20.0, 21.0));
        let agg = stats.frame_stats(FlowId(0), 0).unwrap();
        assert_eq!(agg.count, 3);
        assert!(agg.max.approx_eq(Time::from_millis(6.0)));
        assert!(agg.min.approx_eq(Time::from_millis(1.0)));
        assert!(agg.mean().approx_eq(Time::from_millis(3.0)));
        assert_eq!(stats.samples().len(), 3);
        assert_eq!(stats.packets_completed, 3);
    }

    #[test]
    fn per_flow_queries() {
        let mut stats = SimStats::new(false);
        stats.record(sample(0, 0, 0, 0.0, 5.0));
        stats.record(sample(0, 1, 1, 30.0, 32.0));
        stats.record(sample(1, 0, 0, 0.0, 1.0));
        assert!(stats
            .worst_response(FlowId(0))
            .unwrap()
            .approx_eq(Time::from_millis(5.0)));
        assert!(stats
            .worst_frame_response(FlowId(0), 1)
            .unwrap()
            .approx_eq(Time::from_millis(2.0)));
        assert_eq!(stats.worst_frame_response(FlowId(0), 7), None);
        assert_eq!(stats.completed_of_flow(FlowId(0)), 2);
        assert_eq!(stats.completed_of_flow(FlowId(2)), 0);
        assert_eq!(stats.worst_response(FlowId(9)), None);
        // Samples were not kept.
        assert!(stats.samples().is_empty());
        assert_eq!(stats.per_frame().count(), 3);
    }

    /// The range-query fast path must agree with a full scan of the map
    /// (the original implementation) on every flow, including flows that
    /// sort first, last and absent.
    #[test]
    fn range_queries_are_equivalent_to_full_scans() {
        let mut stats = SimStats::new(false);
        let mut seq = 0;
        for flow in [0usize, 1, 2, 5, usize::MAX] {
            for frame in [0usize, 1, 3, usize::MAX] {
                for k in 0..3u64 {
                    stats.record(sample(flow, seq, frame, 0.0, 1.0 + k as f64));
                    seq += 1;
                }
            }
        }
        for flow in [0usize, 1, 2, 3, 5, 7, usize::MAX] {
            let flow = FlowId(flow);
            let scan_worst = stats
                .per_frame()
                .filter(|((f, _), _)| *f == flow)
                .map(|(_, s)| s.max)
                .max();
            let scan_count: u64 = stats
                .per_frame()
                .filter(|((f, _), _)| *f == flow)
                .map(|(_, s)| s.count)
                .sum();
            assert_eq!(stats.worst_response(flow), scan_worst, "{flow:?}");
            assert_eq!(stats.completed_of_flow(flow), scan_count, "{flow:?}");
            let ranged: Vec<usize> = stats.flow_frames(flow).map(|(f, _)| f).collect();
            let scanned: Vec<usize> = stats
                .per_frame()
                .filter(|((f, _), _)| *f == flow)
                .map(|((_, frame), _)| *frame)
                .collect();
            assert_eq!(ranged, scanned, "{flow:?}");
        }
    }

    #[test]
    fn empty_stats_mean_is_zero() {
        let s = ResponseStats::default();
        assert_eq!(s.mean(), Time::ZERO);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), None);
        assert_eq!(s.quantile(1.0), None);
    }

    #[test]
    fn histogram_buckets_are_exact_below_64ns_and_within_one_part_in_64_above() {
        // Unit buckets below SUB_BUCKETS.
        for ns in 0..SUB_BUCKETS {
            assert_eq!(bucket_high(bucket_index(ns)), ns);
        }
        // Above: the bucket's upper edge is within 1/64 of the value.
        for ns in [64u64, 100, 1000, 12_345, 1 << 20, u64::MAX / 3, u64::MAX] {
            let high = bucket_high(bucket_index(ns));
            assert!(high >= ns, "{ns}: upper edge {high} below value");
            assert!(
                high - ns <= ns / SUB_BUCKETS,
                "{ns}: upper edge {high} off by more than 1/64"
            );
        }
        // Bucket indices are monotone in the value.
        let mut prev = 0;
        for ns in (0..200_000u64).step_by(7) {
            let idx = bucket_index(ns);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn histogram_representation_is_order_independent() {
        let values = [5u64, 1_000_000, 64, 77, 12_345_678, 5, 0];
        let mut a = ResponseHistogram::new();
        let mut b = ResponseHistogram::new();
        for &v in &values {
            a.record_ns(v);
        }
        for &v in values.iter().rev() {
            b.record_ns(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.count(), values.len() as u64);
    }

    #[test]
    fn quantiles_clamp_to_the_exact_max() {
        let mut s = ResponseStats::default();
        for ms in [1.0, 2.0, 3.0, 10.0] {
            s.record(Time::from_millis(ms));
        }
        assert_eq!(s.quantile(1.0).unwrap(), s.max);
        assert!(s.p50().unwrap() <= s.max);
        assert!(s.p50().unwrap() >= s.min);
        // P50 of [1,2,3,10] ms is the 2nd sample's bucket: ~2 ms.
        let p50 = s.p50().unwrap();
        assert!(
            p50 >= Time::from_millis(2.0) && p50 <= Time::from_millis(2.0 + 2.0 / 60.0),
            "p50 {p50}"
        );
    }

    /// The drift bugfix: integer-nanosecond accumulation is exact, so the
    /// mean of 10 million identical samples is that sample, not a float
    /// accumulation drifting away from it, and the aggregate equals the
    /// same data summed in any other order.
    #[test]
    fn ten_million_sample_mean_does_not_drift() {
        let response = Time::from_micros(123.4);
        let n: u64 = 10_000_000;
        let mut fwd = ResponseStats::default();
        for _ in 0..n {
            fwd.record(response);
        }
        assert_eq!(fwd.count, n);
        // Exact: the mean of n identical values is the value (to the ns).
        let mean_ns = fwd.mean().as_nanos();
        let expect_ns = response.as_nanos().round();
        assert!(
            (mean_ns - expect_ns).abs() < 1.0,
            "mean {mean_ns} ns drifted from {expect_ns} ns"
        );
        // Order-independence: interleaving a second value front-vs-back
        // produces bit-identical aggregates.
        let lo = Time::from_micros(10.0);
        let hi = Time::from_micros(500.0);
        let mut ab = ResponseStats::default();
        let mut ba = ResponseStats::default();
        for i in 0..100_000 {
            let (x, y) = if i % 2 == 0 { (lo, hi) } else { (hi, lo) };
            ab.record(x);
            ba.record(y);
        }
        for i in 0..100_000 {
            let (x, y) = if i % 2 == 0 { (lo, hi) } else { (hi, lo) };
            ab.record(y);
            ba.record(x);
        }
        assert_eq!(ab, ba);
    }

    use proptest::prelude::*;

    /// Sample values spanning every histogram regime: the exact linear
    /// range below 64 ns, mid-range octaves, and multi-second outliers.
    fn sample_ns() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..SUB_BUCKETS, 0u64..1_000_000, 0u64..30_000_000_000,]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Histogram quantiles agree with a sorted-oracle order statistic
        /// to within one log bucket: the report is never below the exact
        /// value and never past the upper edge of the exact value's bucket.
        #[test]
        fn histogram_quantiles_match_sorted_oracle_within_one_bucket(
            samples in prop::collection::vec(sample_ns(), 1..400)
        ) {
            let mut histogram = ResponseHistogram::new();
            for &ns in &samples {
                histogram.record_ns(ns);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.25, 0.5, 0.95, 0.99, 1.0] {
                let reported = histogram.quantile_ns(q).expect("histogram is non-empty");
                // Same rank rule as `quantile_ns`: the smallest sample with
                // at least ceil(q × n) samples at or below it.
                // tidy-allow: float quantile rank mirrors quantile_ns exactly
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let oracle = sorted[rank - 1];
                prop_assert!(reported >= oracle, "q {q}: {reported} < oracle {oracle}");
                prop_assert_eq!(
                    bucket_index(reported),
                    bucket_index(oracle),
                    "q {}: {} left the oracle's bucket ({})",
                    q,
                    reported,
                    oracle
                );
            }
        }

        /// Bucket arithmetic round-trips: every nanosecond value falls in a
        /// bucket whose inclusive upper edge is the smallest edge at or
        /// above it, and edges are strictly monotone in the index.
        #[test]
        fn bucket_edges_bracket_every_value(ns in sample_ns()) {
            let index = bucket_index(ns);
            prop_assert!(bucket_high(index) >= ns);
            if index > 0 {
                prop_assert!(bucket_high(index - 1) < ns);
            }
        }
    }

    #[test]
    fn sample_retention_caps_loudly() {
        let mut stats = SimStats::new(true);
        // Synthetic: pretend the cap is hit by filling to it directly.
        stats.samples = vec![sample(0, 0, 0, 0.0, 1.0); MAX_KEPT_SAMPLES];
        stats.record(sample(0, 1, 0, 0.0, 1.0));
        assert_eq!(stats.samples().len(), MAX_KEPT_SAMPLES);
        assert_eq!(stats.samples_truncated, 1);
        // Aggregates still see the dropped sample.
        assert_eq!(stats.packets_completed, 1);
    }
}
