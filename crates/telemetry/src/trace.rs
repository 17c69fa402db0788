//! Per-stage query tracing: a zero-alloc span recorder threaded through
//! the search pipeline, plus the fixed-capacity slow-query ring log.
//!
//! A [`QueryTrace`] is a stack-allocated array of per-[`Stage`]
//! nanosecond totals. The query pipeline is written once and takes the
//! trace as an `Option<&mut QueryTrace>` argument: a traced caller
//! (`ShardedDbLsh::search_with_trace`, the engine for a request with
//! `SearchOptions::trace` set) passes `Some`, and each stage adds its
//! elapsed time; an untraced caller passes `None`, and no clock is read.
//! The trace decides nothing but the clock reads, so answers and
//! `QueryStats` cannot depend on it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The pipeline stages a traced query is broken into. The variants are
/// ordered as the pipeline runs them; [`Stage::ALL`] iterates in that
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Waiting before work starts: the submission queue (enqueue to
    /// worker pickup), then the shard read locks.
    Queue = 0,
    /// Query projection: `G_i(q)` matvecs plus SQ8 query preparation.
    Projection = 1,
    /// Per-round R*-tree window probes collecting fresh candidates.
    TreeProbe = 2,
    /// SQ8 quantized lower-bound scan and partition.
    Prefilter = 3,
    /// Exact blocked distance verification and key build.
    Verify = 4,
    /// Cross-shard canonical key sort and ladder consumption.
    Merge = 5,
    /// Everything after the answer exists: reply resolution, bookkeeping
    /// (computed as total minus the measured stages, so per-stage sums
    /// match end-to-end latency by construction).
    Reply = 6,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// Every stage in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Queue,
        Stage::Projection,
        Stage::TreeProbe,
        Stage::Prefilter,
        Stage::Verify,
        Stage::Merge,
        Stage::Reply,
    ];

    /// Stable lowercase name (used as the `stage` label value in the
    /// exposition formats).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Projection => "projection",
            Stage::TreeProbe => "tree_probe",
            Stage::Prefilter => "prefilter",
            Stage::Verify => "verify",
            Stage::Merge => "merge",
            Stage::Reply => "reply",
        }
    }
}

/// Zero-alloc per-stage nanosecond totals for one traced query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryTrace {
    /// Nanoseconds attributed to each stage, indexed by `Stage as usize`.
    pub stage_nanos: [u64; STAGE_COUNT],
}

impl QueryTrace {
    /// Fresh all-zero trace.
    pub fn new() -> QueryTrace {
        QueryTrace::default()
    }

    /// Attribute `nanos` to `stage` (accumulates across rounds).
    #[inline]
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        self.stage_nanos[stage as usize] += nanos;
    }

    /// Nanoseconds attributed to `stage` so far.
    #[inline]
    pub fn get(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }

    /// Sum over every stage.
    pub fn total(&self) -> u64 {
        self.stage_nanos.iter().sum()
    }

    /// Set [`Stage::Reply`] to `total_nanos` minus every measured stage
    /// (saturating), so the per-stage sum equals the end-to-end latency.
    pub fn close(&mut self, total_nanos: u64) {
        let measured: u64 = self.stage_nanos.iter().sum();
        self.stage_nanos[Stage::Reply as usize] = total_nanos.saturating_sub(measured);
    }
}

/// FNV-1a digest of a query's arguments (`f32` coordinate bytes plus
/// `k`): a compact fingerprint for correlating slow-log entries with the
/// workload that produced them without retaining the vectors themselves.
pub fn args_digest(query: &[f32], k: usize) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for v in query {
        for b in v.to_le_bytes() {
            eat(b);
        }
    }
    for b in (k as u64).to_le_bytes() {
        eat(b);
    }
    acc
}

/// One captured slow query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// [`args_digest`] of the query vector and `k`.
    pub args_digest: u64,
    /// Requested neighbour count.
    pub k: usize,
    /// End-to-end latency (queue wait included), nanoseconds.
    pub total_nanos: u64,
    /// Per-stage breakdown, indexed by `Stage as usize`.
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Radius-ladder rounds the search ran.
    pub rounds: usize,
    /// Candidates collected across rounds.
    pub candidates: usize,
}

/// Fixed-capacity ring buffer of the most recent queries slower than a
/// runtime-adjustable threshold. Recording takes a short mutex (slow
/// queries are rare by definition); the threshold check is a lock-free
/// atomic load so the fast path never touches the lock.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    threshold_nanos: AtomicU64,
    ring: Mutex<VecDeque<SlowQuery>>,
}

impl SlowQueryLog {
    /// A log keeping the `capacity` most recent entries at or above
    /// `threshold_nanos`. A threshold of `u64::MAX` disables capture.
    pub fn new(capacity: usize, threshold_nanos: u64) -> SlowQueryLog {
        SlowQueryLog {
            capacity: capacity.max(1),
            threshold_nanos: AtomicU64::new(threshold_nanos),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Current capture threshold, nanoseconds.
    pub fn threshold_nanos(&self) -> u64 {
        // order: standalone tuning knob; readers only compare against it.
        self.threshold_nanos.load(Ordering::Relaxed)
    }

    /// Adjust the capture threshold at runtime.
    pub fn set_threshold_nanos(&self, nanos: u64) {
        // order: standalone tuning knob; a worker seeing the old value
        // for a few more queries is fine, nothing else is published.
        self.threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Offer a completed query; it is kept iff `total_nanos` is at or
    /// above the threshold. Returns whether it was captured. Oldest
    /// entries are evicted at capacity.
    pub fn offer(&self, entry: SlowQuery) -> bool {
        // order: hot-path threshold check; the knob is independent of
        // all other state, so the cheapest load is the right one.
        if entry.total_nanos < self.threshold_nanos.load(Ordering::Relaxed) {
            return false;
        }
        // The ring is a VecDeque valid in every published state, so a
        // poisoned lock is recovered — slow-query capture is telemetry
        // and must never take a worker down.
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the held entries, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(total: u64) -> SlowQuery {
        SlowQuery {
            args_digest: 1,
            k: 10,
            total_nanos: total,
            stage_nanos: [0; STAGE_COUNT],
            rounds: 2,
            candidates: 100,
        }
    }

    #[test]
    fn trace_close_makes_stage_sums_exact() {
        let mut t = QueryTrace::new();
        t.add(Stage::Queue, 100);
        t.add(Stage::Verify, 500);
        t.add(Stage::Verify, 250);
        t.close(1_000);
        assert_eq!(t.get(Stage::Verify), 750);
        assert_eq!(t.get(Stage::Reply), 150);
        assert_eq!(t.total(), 1_000);
        // a total smaller than the measured stages saturates to zero
        let mut u = QueryTrace::new();
        u.add(Stage::Merge, 10);
        u.close(5);
        assert_eq!(u.get(Stage::Reply), 0);
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
        assert_eq!(dedup.len(), STAGE_COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
    }

    #[test]
    fn args_digest_separates_inputs() {
        let a = args_digest(&[1.0, 2.0], 5);
        assert_eq!(a, args_digest(&[1.0, 2.0], 5), "digest is deterministic");
        assert_ne!(a, args_digest(&[1.0, 2.0], 6));
        assert_ne!(a, args_digest(&[1.0, 2.5], 5));
        assert_ne!(a, args_digest(&[2.0, 1.0], 5));
    }

    #[test]
    fn slow_log_filters_by_threshold_and_evicts_oldest() {
        let log = SlowQueryLog::new(2, 1_000);
        assert!(!log.offer(slow(999)));
        assert!(log.is_empty());
        assert!(log.offer(slow(1_000)));
        assert!(log.offer(slow(2_000)));
        assert!(log.offer(slow(3_000)));
        let held: Vec<u64> = log.snapshot().iter().map(|e| e.total_nanos).collect();
        assert_eq!(held, vec![2_000, 3_000], "oldest entry evicted");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn slow_log_threshold_is_adjustable() {
        let log = SlowQueryLog::new(4, u64::MAX);
        assert!(!log.offer(slow(u64::MAX - 1)), "MAX threshold disables");
        log.set_threshold_nanos(500);
        assert_eq!(log.threshold_nanos(), 500);
        assert!(log.offer(slow(500)));
        assert_eq!(log.len(), 1);
    }
}
