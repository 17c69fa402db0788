//! Shared machinery for the baseline implementations: the verification
//! stage (top-k + dedup + budget, with a blocked batch path) and a small
//! fast hasher for bucket keys.

use dblsh_data::dataset::sq_dist;
use dblsh_data::{Dataset, Neighbor, QueryStats, Sq8Query, Sq8Store};

// The per-query visited bitset lives in `dblsh_data` (shared with the
// DB-LSH core's query scratch); re-exported here for the baselines.
pub use dblsh_data::Visited;

/// The exact-distance verification stage every LSH method funnels
/// candidates through: deduplicates, verifies against the original
/// vectors, maintains the ascending top-k and the work counters.
pub struct Verifier<'d> {
    data: &'d Dataset,
    query: &'d [f32],
    k: usize,
    budget: usize,
    visited: Visited,
    pub top: Vec<Neighbor>,
    pub stats: QueryStats,
    verified: usize,
    /// Scratch of the blocked path ([`Verifier::offer_block`]): fresh ids
    /// of the current batch, their squared distances, and the canonical
    /// consumption keys (`sq-dist bits << 32 | id`).
    block: Vec<u32>,
    dists: Vec<f32>,
    keys: Vec<u64>,
    /// SQ8 pre-filter state ([`Verifier::with_prefilter`]): the shared
    /// code store plus this query's prepared coefficients. `None` runs
    /// every batch through the exact kernel directly.
    sq8: Option<(&'d Sq8Store, Sq8Query)>,
    survivors: Vec<u32>,
    /// Mirror of `top`'s raw squared `f32` distances, in the same order:
    /// the pre-filter threshold must be the k-th **exact squared** value
    /// (re-squaring the rounded sqrt in `Neighbor::dist` would not be a
    /// sound pruning bound).
    top_sq: Vec<f32>,
}

impl<'d> Verifier<'d> {
    pub fn new(data: &'d Dataset, query: &'d [f32], k: usize, budget: usize) -> Self {
        assert_eq!(data.dim(), query.len(), "query dimensionality mismatch");
        assert!(k >= 1, "k must be at least 1");
        Verifier {
            data,
            query,
            k,
            budget,
            visited: Visited::new(data.len()),
            top: Vec::with_capacity(k + 1),
            stats: QueryStats::default(),
            verified: 0,
            block: Vec::new(),
            dists: Vec::new(),
            keys: Vec::new(),
            sq8: None,
            survivors: Vec::new(),
            top_sq: Vec::with_capacity(k + 1),
        }
    }

    /// [`Verifier::new`] with the SQ8 quantized pre-filter enabled:
    /// batches offered through [`Verifier::offer_block`] are first
    /// screened against `store` (codes in the same row order as `data`),
    /// and rows whose conservative lower bound already exceeds the
    /// current k-th exact distance skip the exact kernel. Answers and
    /// work counters stay byte-identical to the unfiltered verifier;
    /// only `stats.prefilter_pruned` / `prefilter_survivors` differ.
    pub fn with_prefilter(
        data: &'d Dataset,
        query: &'d [f32],
        k: usize,
        budget: usize,
        store: &'d Sq8Store,
    ) -> Self {
        assert_eq!(store.len(), data.len(), "code store out of step with data");
        let mut v = Verifier::new(data, query, k, budget);
        let mut prep = Sq8Query::empty();
        store.prepare_query(query, &mut prep);
        v.sq8 = Some((store, prep));
        v
    }

    /// Insert a candidate into the ascending top-k and its squared-
    /// distance mirror. Same tie semantics as
    /// [`dblsh_data::push_candidate_unchecked`]: equal-or-greater pushes
    /// land after existing entries, so a full top-k never changes on a
    /// tied candidate.
    fn push(&mut self, id: u32, d2: f32) {
        let dist = ((d2 as f64).sqrt()) as f32;
        let pos = self.top.partition_point(|n| n.dist <= dist);
        if pos >= self.k {
            return;
        }
        self.top.insert(pos, Neighbor { id, dist });
        self.top_sq.insert(pos, d2);
        self.top.truncate(self.k);
        self.top_sq.truncate(self.k);
    }

    /// The pre-filter pruning threshold: the k-th exact **squared**
    /// distance, or infinity until `k` results are present (nothing may
    /// be pruned before the top is full).
    fn prune_threshold(&self) -> f32 {
        if self.top.len() == self.k {
            self.top_sq[self.k - 1]
        } else {
            f32::INFINITY
        }
    }

    /// Feed one candidate id. Returns `false` once the budget is
    /// exhausted (caller should stop generating candidates).
    pub fn offer(&mut self, id: u32) -> bool {
        self.stats.index_probes += 1;
        if !self.visited.insert(id) {
            return self.verified < self.budget;
        }
        self.verified += 1;
        self.stats.candidates += 1;
        // the visited bitset above guarantees each id is offered once, so
        // the duplicate-scanning push_candidate is unnecessary here
        let d2 = sq_dist(self.query, self.data.point(id as usize));
        self.push(id, d2);
        self.verified < self.budget
    }

    /// Feed a whole candidate batch (a hash bucket, a tree leaf, a drained
    /// run of a candidate stream) through the blocked verification stage:
    /// deduplicate against the visited set, then stage through the shared
    /// [`dblsh_data::kernels::canonical_verify_keys`]: fresh ids sorted
    /// into memory order, exact distances from the blocked kernel
    /// (per-row bit-identical to the scalar [`sq_dist`]), consumed in
    /// canonical ascending
    /// `(distance, id)` order with the budget — and, when `bound` is set,
    /// the "k-th result within `bound`" termination — checked per
    /// candidate, so the work accounting matches the one-at-a-time
    /// [`Verifier::offer`] path.
    ///
    /// Returns `false` once the caller should stop generating candidates
    /// (budget exhausted, or `bound` satisfied by the current top-k). At
    /// most one batch of distance computations happens beyond the
    /// stopping candidate; only consumed candidates are counted.
    pub fn offer_block(&mut self, ids: &[u32], bound: Option<f64>) -> bool {
        self.stats.index_probes += ids.len();
        self.block.clear();
        for &id in ids {
            if self.visited.insert(id) {
                self.block.push(id);
            }
        }
        let stop = |v: &Verifier| v.verified >= v.budget || bound.is_some_and(|b| v.kth_within(b));
        if self.block.is_empty() {
            return !stop(self);
        }
        match &self.sq8 {
            Some((store, prep)) => {
                let threshold = self.prune_threshold();
                let (pruned, survived) = dblsh_data::kernels::canonical_verify_keys_prefiltered(
                    self.query,
                    self.data.flat(),
                    self.data.dim(),
                    store,
                    prep,
                    threshold,
                    &mut self.block,
                    &mut self.dists,
                    &mut self.survivors,
                    &mut self.keys,
                    |id| id,
                    None,
                );
                self.stats.prefilter_pruned += pruned;
                self.stats.prefilter_survivors += survived;
            }
            None => {
                dblsh_data::kernels::canonical_verify_keys(
                    self.query,
                    self.data.flat(),
                    self.data.dim(),
                    &mut self.block,
                    &mut self.dists,
                    &mut self.keys,
                    |id| id,
                );
            }
        }
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            let id = key as u32;
            let d2 = f32::from_bits((key >> 32) as u32);
            self.verified += 1;
            self.stats.candidates += 1;
            self.push(id, d2);
            if stop(self) {
                return false;
            }
        }
        true
    }

    /// Number of unique candidates verified so far.
    pub fn verified(&self) -> usize {
        self.verified
    }

    /// True once `k` results are present and the k-th is within `bound`.
    pub fn kth_within(&self, bound: f64) -> bool {
        self.top.len() == self.k && (self.top[self.k - 1].dist as f64) <= bound
    }

    /// Current k-th distance (infinite until `k` results are present).
    pub fn kth_dist(&self) -> f64 {
        if self.top.len() == self.k {
            self.top[self.k - 1].dist as f64
        } else {
            f64::INFINITY
        }
    }

    /// True when every dataset point has been verified.
    pub fn saturated(&self) -> bool {
        self.verified >= self.data.len()
    }

    pub fn budget_left(&self) -> bool {
        self.verified < self.budget
    }
}

/// FxHash-style mixing for bucket keys (we implement it inline rather than
/// pulling in `rustc-hash`; the allowed dependency set is fixed).
#[inline]
pub fn fx_mix(mut acc: u64, word: u64) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    acc = (acc.rotate_left(5) ^ word).wrapping_mul(SEED);
    acc
}

/// Hash a slice of bucket cell indices into a single u64 table key.
#[inline]
pub fn bucket_key(cells: &[i64]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325;
    for &c in cells {
        acc = fx_mix(acc, c as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
            vec![10.0, 0.0],
        ])
    }

    #[test]
    fn verifier_tracks_topk() {
        let d = data();
        let q = [0.1f32, 0.0];
        let mut v = Verifier::new(&d, &q, 2, 100);
        for id in [4u32, 3, 2, 1, 0] {
            v.offer(id);
        }
        assert_eq!(v.top.len(), 2);
        assert_eq!(v.top[0].id, 0);
        assert_eq!(v.top[1].id, 1);
        assert_eq!(v.verified(), 5);
        assert_eq!(v.stats.candidates, 5);
    }

    #[test]
    fn verifier_dedupes() {
        let d = data();
        let q = [0.0f32, 0.0];
        let mut v = Verifier::new(&d, &q, 3, 100);
        for _ in 0..10 {
            v.offer(2);
        }
        assert_eq!(v.verified(), 1);
        assert_eq!(v.stats.index_probes, 10);
    }

    #[test]
    fn verifier_budget_stops() {
        let d = data();
        let q = [0.0f32, 0.0];
        let mut v = Verifier::new(&d, &q, 1, 2);
        assert!(v.offer(0));
        assert!(!v.offer(1)); // budget hit
        assert!(!v.budget_left());
    }

    #[test]
    fn kth_within_semantics() {
        let d = data();
        let q = [0.0f32, 0.0];
        let mut v = Verifier::new(&d, &q, 2, 100);
        v.offer(0);
        assert!(!v.kth_within(100.0)); // only 1 of 2 results yet
        v.offer(4);
        assert!(v.kth_within(10.5));
        assert!(!v.kth_within(9.0));
        assert_eq!(v.kth_dist(), 10.0);
    }

    #[test]
    fn offer_block_matches_offer_results() {
        let d = data();
        let q = [0.1f32, 0.0];
        let mut one = Verifier::new(&d, &q, 2, 100);
        for id in [4u32, 3, 2, 1, 0] {
            one.offer(id);
        }
        let mut blocked = Verifier::new(&d, &q, 2, 100);
        assert!(blocked.offer_block(&[4, 3, 2], None));
        assert!(blocked.offer_block(&[1, 0, 3], None)); // 3 deduped
        assert_eq!(blocked.top, one.top);
        assert_eq!(blocked.verified(), 5);
        assert_eq!(blocked.stats.candidates, 5);
        assert_eq!(blocked.stats.index_probes, 6);
    }

    #[test]
    fn offer_block_budget_and_bound_stop() {
        let d = data();
        let q = [0.0f32, 0.0];
        // budget stop: only 2 of 5 verified
        let mut v = Verifier::new(&d, &q, 3, 2);
        assert!(!v.offer_block(&[4, 3, 2, 1, 0], None));
        assert_eq!(v.verified(), 2);
        assert!(!v.budget_left());
        // canonical order: the two *closest* of the block were consumed
        assert_eq!(v.top[0].id, 0);
        assert_eq!(v.top[1].id, 1);
        // bound stop: k results within the bound end the scan early
        let mut v = Verifier::new(&d, &q, 2, 100);
        assert!(!v.offer_block(&[4, 3, 2, 1, 0], Some(1.5)));
        assert_eq!(v.verified(), 2, "stopped at the first k-within-bound");
        assert!(v.kth_within(1.5));
    }

    #[test]
    fn prefiltered_verifier_matches_exact_and_prunes() {
        let d = data();
        let q = [0.0f32, 0.0];
        let store = Sq8Store::learn_and_build(d.dim(), d.flat());
        let mut exact = Verifier::new(&d, &q, 2, 100);
        let mut filtered = Verifier::with_prefilter(&d, &q, 2, 100, &store);
        // first block fills the top (threshold infinite: nothing pruned)
        for v in [&mut exact, &mut filtered] {
            assert!(v.offer_block(&[0, 1], None));
        }
        assert_eq!(filtered.stats.prefilter_pruned, 0);
        assert_eq!(filtered.stats.prefilter_survivors, 2);
        // second block: ids 2/3/4 all lie beyond the k-th distance (1.0),
        // so the pre-filter should drop them before the exact kernel —
        // while answers and shared work counters stay byte-identical
        for v in [&mut exact, &mut filtered] {
            assert!(v.offer_block(&[2, 3, 4], None));
        }
        assert_eq!(filtered.top, exact.top);
        assert_eq!(filtered.verified(), exact.verified());
        assert_eq!(filtered.stats.candidates, exact.stats.candidates);
        assert_eq!(filtered.stats.index_probes, exact.stats.index_probes);
        assert_eq!(exact.stats.prefilter_pruned, 0);
        assert_eq!(exact.stats.prefilter_survivors, 0);
        assert_eq!(
            filtered.stats.prefilter_pruned + filtered.stats.prefilter_survivors,
            5,
            "both blocks were screened"
        );
        assert!(filtered.stats.prefilter_pruned > 0, "nothing was pruned");
        // the one-at-a-time path agrees too
        let mut single = Verifier::new(&d, &q, 2, 100);
        for id in [0u32, 1, 2, 3, 4] {
            single.offer(id);
        }
        assert_eq!(single.top, filtered.top);
    }

    #[test]
    fn visited_bitset() {
        let mut v = Visited::new(130);
        assert!(v.insert(0));
        assert!(v.insert(64));
        assert!(v.insert(129));
        assert!(!v.insert(64));
        assert!(v.contains(129));
        assert!(!v.contains(1));
    }

    #[test]
    fn bucket_key_distinguishes_cells() {
        assert_ne!(bucket_key(&[0, 1]), bucket_key(&[1, 0]));
        assert_ne!(bucket_key(&[5]), bucket_key(&[-5]));
        assert_eq!(bucket_key(&[3, 4, 5]), bucket_key(&[3, 4, 5]));
    }
}
