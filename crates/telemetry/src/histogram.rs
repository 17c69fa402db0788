//! The workspace's shared log₂(nanoseconds) histogram shape: 64 buckets
//! where bucket `b` counts observations in `[2^b, 2^{b+1})` ns, plus the
//! one quantile estimator every consumer (engine snapshots, merged
//! sweeps, wire-scraped exposition) routes through.
//!
//! # Quantile convention
//!
//! [`log2_quantile_us`] interpolates *within* the resolved bucket: the
//! observations of a bucket are treated as uniformly spread over its
//! `[2^b, 2^{b+1})` ns span, and the requested rank's position inside the
//! bucket picks the point. Earlier revisions returned the bucket's upper
//! edge, which overstated p50/p99 by up to 2× at low counts (a single
//! 1.1 µs observation reported as 2.048 µs). The pinned edge cases:
//!
//! * empty histogram → `0.0`;
//! * a single observation → its bucket's midpoint (`1.5 · 2^b` ns);
//! * bucket 63 is open-ended, so its reported value is clamped to its
//!   *lower* edge (`2^63` ns) — interpolating into a span the histogram
//!   never measured would fabricate resolution.
//!
//! The estimator is monotone in `q`, so `p99 >= p50` always holds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets (one per `u64` bit position).
pub const BUCKETS: usize = 64;

/// The log₂ bucket index a latency of `nanos` falls into.
#[inline]
pub fn bucket_of(nanos: u64) -> usize {
    63 - nanos.max(1).leading_zeros() as usize
}

/// Inclusive lower edge of bucket `b`, in nanoseconds.
#[inline]
pub fn bucket_lower_nanos(b: usize) -> u64 {
    1u64 << b
}

/// The latency below which fraction `q` of the recorded observations
/// fall, in microseconds, interpolated within its log₂ bucket (see the
/// module docs for the pinned convention). Shared by live engine
/// snapshots, [`crate::LatencyHistogram`], and merged-stat recomputation
/// so every reported quantile means the same thing.
pub fn log2_quantile_us(counts: &[u64; BUCKETS], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (b, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let lower = bucket_lower_nanos(b) as f64;
            if b == 63 {
                // Open-ended top bucket: report its lower edge rather
                // than fabricating resolution beyond 2^63 ns.
                return lower / 1e3;
            }
            // Rank's midpoint position among the bucket's c observations,
            // spread uniformly over [lower, 2*lower).
            let pos = (rank - seen) as f64 - 0.5;
            return (lower + lower * (pos / c as f64)) / 1e3;
        }
        seen += c;
    }
    // Rank is clamped to the total count, so the loop always returns;
    // a defensive fallback (the top bucket's lower edge) keeps the
    // scrape path free of panic tokens.
    bucket_lower_nanos(BUCKETS - 1) as f64 / 1e3
}

/// A log₂(nanoseconds) latency histogram: 64 buckets, where bucket `b`
/// counts observations in `[2^b, 2^{b+1})` ns. The exact shape behind
/// the engine's quantiles, exposed so callers outside the engine (for
/// example a client timing wire round-trips) report p50/p99 with
/// identical semantics and can merge distributions exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Raw bucket counts.
    pub buckets: [u64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `nanos`.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[bucket_of(nanos)] += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The latency below which fraction `q` of observations fall, in
    /// microseconds, interpolated within its log₂ bucket (see
    /// [`log2_quantile_us`]).
    pub fn quantile_us(&self, q: f64) -> f64 {
        log2_quantile_us(&self.buckets, q)
    }

    /// Add another histogram's counts into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// The lock-free cell behind a registered [`crate::Histo`] handle:
/// per-bucket counts plus an exact observation sum, all plain relaxed
/// atomics so concurrent recorders never contend on a lock. The total
/// count is derived from the buckets at snapshot time, so it can never
/// disagree with them (see [`HistoCell::snapshot`]).
#[derive(Debug)]
pub struct HistoCell {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
}

impl Default for HistoCell {
    fn default() -> Self {
        HistoCell {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl HistoCell {
    /// Record one observation of `nanos`.
    pub fn record(&self, nanos: u64) {
        // order: independent monotone counters; scrapes tolerate (and
        // snapshot() repairs) skew between them, so Relaxed suffices.
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        // order: see above — no reader infers cross-counter ordering.
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Point-in-time copy of the cell.
    ///
    /// The loads are independent, so a snapshot raced by recorders can
    /// see bucket increments whose `count` increment has not landed yet
    /// (or vice versa). The reported `count` is therefore *derived* from
    /// the loaded buckets — the snapshot's count always equals the sum
    /// of its own buckets, which is the invariant every quantile and
    /// mean computation downstream assumes. `sum_nanos` can still lag
    /// the buckets by in-flight recordings; that skews a racing scrape's
    /// mean by at most the in-flight observations, never a quantile.
    pub fn snapshot(&self) -> HistoSnapshot {
        let buckets: [u64; BUCKETS] =
            // order: monotone counters read by a scraper; Relaxed loads
            // are exact for quiescent cells and at most in-flight-racy
            // otherwise, and count is derived from these loads below.
            std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed));
        HistoSnapshot {
            buckets,
            count: buckets.iter().sum(),
            // order: monotone counter; same single-scrape tolerance.
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`HistoCell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Raw log₂ bucket counts.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Exact sum of every observation, nanoseconds.
    pub sum_nanos: u64,
}

impl HistoSnapshot {
    /// Interpolated quantile in microseconds (see [`log2_quantile_us`]).
    pub fn quantile_us(&self, q: f64) -> f64 {
        log2_quantile_us(&self.buckets, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let counts = [0u64; BUCKETS];
        assert_eq!(log2_quantile_us(&counts, 0.5), 0.0);
        assert_eq!(log2_quantile_us(&counts, 0.99), 0.0);
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0.0);
    }

    #[test]
    fn single_observation_reports_its_bucket_midpoint() {
        // 1.1 µs lands in bucket 10 ([1024, 2048) ns); every quantile of
        // a one-observation histogram is the midpoint, 1536 ns — not the
        // old upper-edge answer of 2048 ns.
        let mut h = LatencyHistogram::new();
        h.record(1_100);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 1.536, "q={q}");
        }
    }

    #[test]
    fn interpolation_splits_a_bucket_by_rank() {
        // Four observations in bucket 10: ranks 1..=4 sit at 1/8, 3/8,
        // 5/8, 7/8 of the [1024, 2048) span.
        let mut counts = [0u64; BUCKETS];
        counts[10] = 4;
        let span = 1024.0;
        for (q, pos) in [(0.25, 0.5), (0.5, 1.5), (0.75, 2.5), (1.0, 3.5)] {
            let want = (1024.0 + span * (pos / 4.0)) / 1e3;
            assert!((log2_quantile_us(&counts, q) - want).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    fn saturated_top_bucket_clamps_to_its_lower_edge() {
        // Bucket 63 is open-ended; interpolating past 2^63 ns would
        // overflow the shape's span, so its value clamps to the lower
        // edge regardless of rank.
        let mut counts = [0u64; BUCKETS];
        counts[63] = u64::MAX / 2;
        let want = (1u64 << 63) as f64 / 1e3;
        assert_eq!(log2_quantile_us(&counts, 0.01), want);
        assert_eq!(log2_quantile_us(&counts, 0.99), want);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for nanos in [120u64, 800, 1_500, 1_600, 70_000, 70_001, 2_000_000] {
            h.record(nanos);
        }
        let mut last = 0.0;
        for i in 0..=100 {
            let v = h.quantile_us(i as f64 / 100.0);
            assert!(v >= last, "quantile must be monotone at q={}", i);
            last = v;
        }
    }

    #[test]
    fn quantile_never_exceeds_bucket_upper_edge() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(1_100); // bucket 10: [1024, 2048) ns
        }
        let p99 = h.quantile_us(0.99);
        assert!((1.024..2.048).contains(&p99), "p99={p99}");
    }

    #[test]
    fn histo_cell_snapshot_matches_manual_recording() {
        let cell = HistoCell::default();
        for nanos in [800u64, 1_500, 70_000] {
            cell.record(nanos);
        }
        let snap = cell.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_nanos, 800 + 1_500 + 70_000);
        let mut h = LatencyHistogram::new();
        for nanos in [800u64, 1_500, 70_000] {
            h.record(nanos);
        }
        assert_eq!(snap.buckets, h.buckets);
        assert_eq!(snap.quantile_us(0.5), h.quantile_us(0.5));
    }

    #[test]
    fn latency_histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(1_000);
        let mut b = LatencyHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile_us(0.99) > a.quantile_us(0.01));
    }

    /// Regression: a snapshot raced by concurrent recorders used to
    /// take its `count` from an independent relaxed load, which could
    /// disagree with the bucket counts loaded moments apart. The count
    /// is now derived from the snapshot's own buckets, so the invariant
    /// `count == buckets.sum()` holds in EVERY snapshot, mid-race or
    /// not.
    #[test]
    fn snapshot_count_always_equals_its_own_bucket_sum() {
        let cell = std::sync::Arc::new(HistoCell::default());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let recorders: Vec<_> = (0..4)
            .map(|t| {
                let cell = std::sync::Arc::clone(&cell);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        cell.record(1 + (t as u64 * 7919 + n * 104_729) % 5_000_000);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for _ in 0..2_000 {
            let snap = cell.snapshot();
            assert_eq!(
                snap.count,
                snap.buckets.iter().sum::<u64>(),
                "snapshot count disagrees with its own buckets"
            );
        }
        stop.store(true, Ordering::Relaxed);
        let recorded: u64 = recorders.into_iter().map(|h| h.join().unwrap()).sum();
        let settled = cell.snapshot();
        assert_eq!(settled.count, recorded, "quiescent count must be exact");
    }
}
