//! Percentiles and run-to-run spread, as the metrics guide asks: a
//! timing is a median plus the highest percentile that still has at
//! least ten samples beyond it, with the sample count stated.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Samples at or below the `p`-th percentile among `samples`: `ceil(p% of
/// samples)`, computed so that an exact product (95% of 2000) is not
/// pushed up a rank by floating-point noise.
fn rank(p: f64, samples: usize) -> usize {
    (p * samples as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that leaves at least ten
/// samples beyond it, or the median when even p75 does not.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        if samples.saturating_sub(rank(p, samples)) >= 10 {
            return p;
        }
    }
    50.0
}

/// Median (mean of the middle pair on even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the driver measures spread this way. `None` below two
/// samples, where no quartile exists.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 for a single run.
pub fn spread_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

/// Latencies of one timed pass over an operation log, summarised.
#[derive(Debug, Clone, Copy)]
pub struct PassSummary {
    pub samples: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

/// Summarise one pass's latencies (microseconds, any order).
pub fn summarise(mut lat_us: Vec<f64>) -> PassSummary {
    lat_us.sort_by(f64::total_cmp);
    PassSummary {
        samples: lat_us.len(),
        p50: percentile(&lat_us, 50.0),
        p95: percentile(&lat_us, 95.0),
        p99: percentile(&lat_us, 99.0),
        max: lat_us[lat_us.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 5 samples: p50 is the 3rd, p90 the 5th.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 50.0), 3.0);
        assert_eq!(percentile(&w, 90.0), 5.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(2_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
    }
}
