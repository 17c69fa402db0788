//! The common interface every ANN algorithm in this workspace implements,
//! so the benchmark harness, examples and integration tests can drive
//! DB-LSH and all baselines uniformly.
//!
//! [`AnnIndex::search`] is *fallible*: malformed queries (wrong
//! dimensionality, non-finite coordinates, `k = 0`) are reported as
//! [`DbLshError`] values instead of panics, so indexes can sit behind a
//! serving boundary. Implementations validate with
//! [`crate::error::check_query`] before touching their structures.

use crate::error::DbLshError;
use crate::Dataset;

/// One returned neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the dataset the index was built over.
    pub id: u32,
    /// Euclidean distance to the query (not squared).
    pub dist: f32,
}

/// Per-query work counters, used by the ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates consumed by the stopping rule (Algorithm 1, Line 6),
    /// counted one by one as each is checked against the budget and the
    /// `c·r` bound, up to the one that fired. Not the number of exact
    /// distances computed: the SQ8 pre-filter skips a pruned candidate's
    /// (see `prefilter_survivors`), and canonical mode verifies its whole
    /// final round before consuming it in canonical order, so it can
    /// compute more than it counts here (795 against 648 per query on
    /// the benchmark's `hot_small` workload).
    pub candidates: usize,
    /// (r,c)-NN rounds / virtual-rehashing levels executed.
    pub rounds: usize,
    /// Index entries touched while generating candidates (window-query
    /// results, cursor steps, bucket hits — whatever the method counts).
    ///
    /// For DB-LSH this is the number of **ids inside the probed
    /// windows**: the cardinality of `W(G_i(q), w0·r)`, summed over the
    /// trees and ladder rounds the query scanned (up to where it
    /// stopped, for the modes that stop mid-round). An id inside several
    /// trees' windows, or inside the nested windows of successive
    /// rounds, counts each time — re-visits included, so it is a
    /// property of the windows alone, not of how a tree was traversed to
    /// enumerate them.
    pub index_probes: usize,
    /// Wall-clock nanoseconds spent in exact-distance verification, when
    /// the caller opted into timing (DB-LSH:
    /// `SearchOptions::time_verification`); zero otherwise. Timed at
    /// candidate-block granularity, so the counters above stay cheap when
    /// timing is off.
    pub verify_nanos: u64,
    /// Candidates dropped by the SQ8 quantized pre-filter (their
    /// conservative lower bound already exceeded the pruning threshold,
    /// so no exact distance was computed). Zero when the prefilter is
    /// disabled.
    pub prefilter_pruned: usize,
    /// Candidates that survived the SQ8 pre-filter and went through the
    /// exact bit-parity distance kernel. Zero when the prefilter is
    /// disabled (candidates are then counted only in `candidates`).
    pub prefilter_survivors: usize,
}

impl QueryStats {
    /// Accumulate another query's counters into this one — the single
    /// aggregation point for every batch and serving path (per-batch
    /// totals, engine-level counters), so field-by-field hand-summing
    /// never drifts out of sync when a counter is added.
    pub fn merge(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.rounds += other.rounds;
        self.index_probes += other.index_probes;
        self.verify_nanos += other.verify_nanos;
        self.prefilter_pruned += other.prefilter_pruned;
        self.prefilter_survivors += other.prefilter_survivors;
    }

    /// Fold an iterator of stats into one aggregate via
    /// [`QueryStats::merge`].
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a QueryStats>) -> QueryStats {
        let mut total = QueryStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }
}

/// Result of one (c,k)-ANN query.
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// Up to `k` neighbors, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    pub stats: QueryStats,
}

impl SearchResult {
    /// Ids of the returned neighbors in order.
    pub fn ids(&self) -> Vec<u32> {
        self.neighbors.iter().map(|n| n.id).collect()
    }

    /// Distances of the returned neighbors in order.
    pub fn dists(&self) -> Vec<f32> {
        self.neighbors.iter().map(|n| n.dist).collect()
    }
}

/// A built index answering (c,k)-ANN queries.
///
/// Implementations must return neighbors in ascending distance order and
/// must never return more than `k` results; returning fewer is allowed
/// (an LSH miss) and is scored as such by the metrics. Malformed queries
/// are reported as `Err`, never panics.
pub trait AnnIndex: Sync {
    /// Human-readable algorithm name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Answer a (c,k)-ANN query.
    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult, DbLshError>;

    /// Answer one (c,k)-ANN query per row of `queries`. The default
    /// implementation is a sequential loop delegating per-row validation
    /// to [`AnnIndex::search`]; indexes with cheaper batched plans
    /// (DB-LSH fans the rows across threads) override it, and may
    /// additionally reject a whole batch up front (e.g. a dimensionality
    /// mismatch even when `queries` is empty).
    fn search_batch(&self, queries: &Dataset, k: usize) -> Result<Vec<SearchResult>, DbLshError> {
        if k == 0 {
            return Err(DbLshError::invalid("k", "must be at least 1"));
        }
        (0..queries.len())
            .map(|qi| self.search(queries.point(qi), k))
            .collect()
    }

    /// [`AnnIndex::search_batch`] plus a per-batch aggregate of every
    /// query's work counters (via [`QueryStats::merge`]) — what batch
    /// drivers and serving engines report, without hand-summing fields.
    fn search_batch_aggregate(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> Result<(Vec<SearchResult>, QueryStats), DbLshError> {
        let results = self.search_batch(queries, k)?;
        let total = QueryStats::merged(results.iter().map(|r| &r.stats));
        Ok((results, total))
    }

    /// Bytes of index structure, excluding the dataset itself (the paper
    /// compares index sizes as `n x #hash_functions`).
    fn index_size_bytes(&self) -> usize;
}

/// The shared parallel-batch driver: validate the batch (`queries` must
/// match `dim`, `k >= 1`), then fan the rows across all available cores,
/// calling `search` once per row. Results are in query order; the first
/// row-level error wins. Both the core `DbLsh` and the sharded serving
/// index drive their `search_batch_with` through this, so the chunking
/// and validation logic exists exactly once.
pub fn parallel_search_batch<F>(
    queries: &Dataset,
    dim: usize,
    k: usize,
    search: F,
) -> Result<Vec<SearchResult>, DbLshError>
where
    F: Fn(&[f32]) -> Result<SearchResult, DbLshError> + Sync,
{
    if queries.dim() != dim {
        return Err(DbLshError::DimensionMismatch {
            expected: dim,
            got: queries.dim(),
        });
    }
    if k == 0 {
        return Err(DbLshError::invalid("k", "must be at least 1"));
    }
    let nq = queries.len();
    if nq == 0 {
        return Ok(Vec::new());
    }
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(nq);
    let chunk = nq.div_ceil(threads);
    let mut results: Vec<Result<SearchResult, DbLshError>> = vec![Ok(SearchResult::default()); nq];
    let search = &search;
    std::thread::scope(|scope| {
        for (tid, out) in results.chunks_mut(chunk).enumerate() {
            let start = tid * chunk;
            scope.spawn(move || {
                for (offset, slot) in out.iter_mut().enumerate() {
                    *slot = search(queries.point(start + offset));
                }
            });
        }
    });
    results.into_iter().collect()
}

/// Per-query visited-id bitset over dataset rows — the deduplication
/// stage every verification loop shares (DB-LSH's window scans and the
/// baselines' `Verifier`).
///
/// Clearing is *sparse*: [`Visited::reset`] zeroes only the words marked
/// since the previous reset, so a query that verifies `b` candidates
/// pays O(b) cleanup instead of O(n/64) — which is what makes the bitset
/// cheap to reuse across queries.
#[derive(Debug)]
pub struct Visited {
    words: Vec<u64>,
    touched: Vec<u32>,
}

impl Default for Visited {
    fn default() -> Self {
        Visited::empty()
    }
}

impl Visited {
    /// A zero-capacity bitset (const-constructible for thread-local
    /// scratch); call [`Visited::reset`] before use.
    pub const fn empty() -> Self {
        Visited {
            words: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// A cleared bitset covering ids `0..n`.
    pub fn new(n: usize) -> Self {
        let mut v = Visited::empty();
        v.reset(n);
        v
    }

    /// Clear marks from the previous query and grow to cover `n` ids.
    pub fn reset(&mut self, n: usize) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
        let need = n.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Mark `id`; returns true if it was not marked before.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let w = (id / 64) as usize;
        let bit = 1u64 << (id % 64);
        let word = self.words[w];
        if word == 0 {
            self.touched.push(w as u32);
        }
        let fresh = word & bit == 0;
        self.words[w] = word | bit;
        fresh
    }

    /// Whether `id` is already marked.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
    }
}

/// Sorted insertion of `cand` into `heap` keeping at most `k` items —
/// shared helper for the verification loops of every algorithm.
/// `heap` is maintained ascending by distance.
///
/// Scans `heap` for an existing entry with `cand.id` before inserting;
/// callers that already deduplicate ids upstream (a per-query visited
/// bitset) should use [`push_candidate_unchecked`] and skip that scan.
pub fn push_candidate(heap: &mut Vec<Neighbor>, cand: Neighbor, k: usize) {
    let pos = heap.partition_point(|n| n.dist <= cand.dist);
    if pos >= k {
        return;
    }
    if heap.iter().any(|n| n.id == cand.id) {
        return; // already verified via another projection
    }
    heap.insert(pos, cand);
    heap.truncate(k);
}

/// [`push_candidate`] without the linear duplicate-id scan, for callers
/// that guarantee each id is offered at most once (deduplication via a
/// visited bitset *before* verification). Offering a duplicate id here
/// produces duplicate entries in `heap` — the contract is on the caller.
#[inline]
pub fn push_candidate_unchecked(heap: &mut Vec<Neighbor>, cand: Neighbor, k: usize) {
    debug_assert!(
        !heap.iter().any(|n| n.id == cand.id),
        "push_candidate_unchecked offered duplicate id {}",
        cand.id
    );
    let pos = heap.partition_point(|n| n.dist <= cand.dist);
    if pos >= k {
        return;
    }
    heap.insert(pos, cand);
    heap.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_candidate_keeps_sorted_topk() {
        let mut h = Vec::new();
        for (id, d) in [(1u32, 5.0f32), (2, 1.0), (3, 3.0), (4, 0.5), (5, 9.0)] {
            push_candidate(&mut h, Neighbor { id, dist: d }, 3);
        }
        let ids: Vec<u32> = h.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 2, 3]);
        assert!(h.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn push_candidate_deduplicates_ids() {
        let mut h = Vec::new();
        push_candidate(&mut h, Neighbor { id: 7, dist: 2.0 }, 3);
        push_candidate(&mut h, Neighbor { id: 7, dist: 2.0 }, 3);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn push_candidate_unchecked_matches_checked_on_unique_ids() {
        let mut checked = Vec::new();
        let mut unchecked = Vec::new();
        for (id, d) in [(1u32, 5.0f32), (2, 1.0), (3, 3.0), (4, 0.5), (5, 9.0)] {
            push_candidate(&mut checked, Neighbor { id, dist: d }, 3);
            push_candidate_unchecked(&mut unchecked, Neighbor { id, dist: d }, 3);
        }
        assert_eq!(checked, unchecked);
    }

    #[test]
    fn query_stats_merge_sums_every_field() {
        let a = QueryStats {
            candidates: 3,
            rounds: 2,
            index_probes: 10,
            verify_nanos: 100,
            prefilter_pruned: 4,
            prefilter_survivors: 6,
        };
        let b = QueryStats {
            candidates: 5,
            rounds: 1,
            index_probes: 7,
            verify_nanos: 11,
            prefilter_pruned: 2,
            prefilter_survivors: 3,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            QueryStats {
                candidates: 8,
                rounds: 3,
                index_probes: 17,
                verify_nanos: 111,
                prefilter_pruned: 6,
                prefilter_survivors: 9,
            }
        );
        assert_eq!(QueryStats::merged([&a, &b]), m);
        assert_eq!(
            QueryStats::merged(std::iter::empty::<&QueryStats>()),
            QueryStats::default()
        );
    }

    #[test]
    fn visited_marks_and_resets_sparsely() {
        let mut v = Visited::new(130);
        assert!(v.insert(0));
        assert!(v.insert(64));
        assert!(v.insert(129));
        assert!(!v.insert(64));
        assert!(v.contains(129));
        assert!(!v.contains(1));
        // reset clears everything and can grow
        v.reset(300);
        assert!(!v.contains(0));
        assert!(!v.contains(129));
        assert!(v.insert(64));
        assert!(v.insert(299));
    }

    #[test]
    fn push_candidate_rejects_beyond_k() {
        let mut h = Vec::new();
        for i in 0..5u32 {
            push_candidate(
                &mut h,
                Neighbor {
                    id: i,
                    dist: i as f32,
                },
                2,
            );
        }
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].id, 0);
        assert_eq!(h[1].id, 1);
    }
}
