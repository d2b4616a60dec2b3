//! Order statistics over the benchmark's samples, and the process's peak
//! memory.

/// A percentile in permille (`500` = p50, `990` = p99), so ranks are exact
/// integer arithmetic.
pub type Permille = u64;

/// The 1-based nearest rank of percentile `p` in a sample of `n`: the
/// smallest rank with at least `p` of the sample at or below it.
pub fn rank(n: usize, p: Permille) -> usize {
    let n64 = n as u64;
    ((p * n64).div_ceil(1000)).clamp(1, n64.max(1)) as usize
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn nearest_rank(sorted: &[u64], p: Permille) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// How many samples lie strictly beyond the percentile's rank — a tail is
/// only reported as measured when at least ten do.
pub fn beyond(n: usize, p: Permille) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of a sample, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so `compare` agrees with any script that checks spreads that
/// way.  A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative or > 4 near the ends of tiny samples: Python
        // extrapolates there, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 500), Some(50));
        assert_eq!(nearest_rank(&v, 900), Some(90));
        assert_eq!(nearest_rank(&v, 990), Some(99));
        assert_eq!(nearest_rank(&v, 1000), Some(100));
        assert_eq!(beyond(v.len(), 990), 1);
        assert_eq!(beyond(v.len(), 900), 10);

        // Ten values: p50 is the 5th, p90 the 9th, p99 rounds up to the 10th.
        let v: Vec<u64> = (10..=100).step_by(10).collect();
        assert_eq!(nearest_rank(&v, 500), Some(50));
        assert_eq!(nearest_rank(&v, 900), Some(90));
        assert_eq!(nearest_rank(&v, 990), Some(100));

        assert_eq!(nearest_rank(&[7], 500), Some(7));
        assert_eq!(nearest_rank(&[7], 990), Some(7));
        assert_eq!(nearest_rank(&[], 500), None);
        // p0 clamps to the first rank.
        assert_eq!(nearest_rank(&[3, 4], 0), Some(3));
    }

    #[test]
    fn median_and_quartiles_match_the_python_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[5.0, 9.0]), [4.0, 7.0, 10.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
