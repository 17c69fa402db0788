//! The query phase (paper Section IV-C): Algorithm 1 ((r,c)-NN via
//! query-centric window queries), Algorithm 2 (c-ANN over the radius
//! ladder), and the (c,k)-ANN adaptation — plus the serving-oriented
//! entry points: per-query tuning through [`SearchOptions`] and
//! multi-threaded [`DbLsh::search_batch`].
//!
//! Implementation notes kept faithful to the paper:
//!
//! * a bucket is the hypercube `W(G_i(q), w0 r)` (Eq. 8), enumerated
//!   lazily through the R*-tree window cursor so the scan can stop the
//!   moment a termination condition fires (Line 6 of Algorithm 1);
//! * the candidate budget is `2tL + 1` for (r,c)-NN and `2tL + k` for
//!   (c,k)-ANN; a point is *verified* (exact d-dimensional distance) at
//!   most once per query — re-encounters in other projections or larger
//!   windows are deduplicated with a per-query bitset, which is how the
//!   "access at most 2tL + 1 points" accounting of Section IV-A reads;
//! * the ladder starts at `r_min` and multiplies by `c` each round
//!   (`r = 1, c, c^2, ...` in the paper).
//!
//! Per-query heap churn is eliminated with a thread-local
//! [`QueryScratch`]: the visited bitset, the `L x K` projection buffer
//! and the candidate-block buffers are reused across queries on the same
//! thread (the bitset is cleared sparsely — only words actually touched
//! are zeroed).
//!
//! # Blocked verification
//!
//! Candidates are no longer verified one at a time as the window cursor
//! yields them. Each tree leaf's in-window ids are drained as one batch
//! ([`dblsh_index::WindowCursor::next_batch`]), deduplicated against the
//! visited bitset, **sorted into memory order** (ascending internal id —
//! near-sequential rows on a locality-relabeled index), and their exact
//! distances computed in one [`dblsh_data::kernels::sq_dist_block`] call
//! whose rows pipeline freely instead of serializing behind each
//! verify-compare-push step. The budget and `c·r`
//! termination conditions of Algorithm 1 are then checked per candidate,
//! in *canonical order* — ascending `(distance, external id)` — so the
//! query accounting is unchanged (each unique candidate counted once, at
//! most one leaf of distance computations beyond the stopping point,
//! exactly the cursor's pre-existing pause granularity) and results are
//! independent of the internal enumeration order. Per-row distances are
//! bit-identical to the scalar kernel, which together with the canonical
//! order makes relabeled and identity-order builds answer byte-identically.

use std::cell::RefCell;
use std::time::Instant;

use dblsh_data::error::check_query;
use dblsh_data::kernels::{
    canonical_verify_keys, canonical_verify_keys_prefiltered,
    canonical_verify_keys_prefiltered_traced, key_parts, VerifySplit,
};
use dblsh_data::{
    push_candidate_unchecked, AnnIndex, Dataset, DbLshError, Neighbor, QueryStats, SearchResult,
    Sq8Query, Visited,
};
use dblsh_index::{Rect, WindowScratch};
use dblsh_telemetry::{QueryTrace, Stage};

use crate::index::DbLsh;

/// Per-component heap footprint of a [`DbLsh`] index — what the bench
/// harness reports as "index size", split by owner. Returned by
/// [`DbLsh::memory_breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// The shared projected-point store: all `n x (L*K)` coordinates,
    /// stored once, row-major.
    pub proj_store_bytes: usize,
    /// The `L` flat tree arenas: id arrays plus inline inner-node bounds.
    /// No point coordinates — those are counted in `proj_store_bytes`.
    pub tree_bytes: usize,
    /// The id-mapping state: the two internal↔external `u32` maps —
    /// 8 B per row on a relabeled build, plus 4 B per compacted-away id
    /// after a compaction. Zero on identity-order builds that were never
    /// compacted. (The rows themselves exist once, in internal order, and
    /// are the dataset — no component here counts them.)
    pub relabel_bytes: usize,
    /// The SQ8 quantized code store the verification pre-filter scans:
    /// one `u8` code per coordinate plus one clamped-flag byte per row,
    /// plus the per-dimension grid — about a quarter of one f32 row copy.
    pub sq8_bytes: usize,
    /// What churn currently costs: the share of the store, the dataset
    /// rows, the SQ8 codes and the id maps occupied by *tombstoned* rows
    /// (per dead row: one projection row, one `f32` row, one code row
    /// and flag, two map entries on mapped indexes) — payload a
    /// [`crate::DbLsh::compact`] call would reclaim. An overlay over the
    /// other components (plus the backing dataset, which the breakdown
    /// otherwise does not count), **not** an additional component:
    /// [`MemoryBreakdown::total`] does not add it. Returns to 0 after a
    /// compaction.
    pub dead_bytes: usize,
}

impl MemoryBreakdown {
    /// Sum of all owned components (`dead_bytes` is an overlay, not a
    /// component — see its field docs).
    pub fn total(&self) -> usize {
        self.proj_store_bytes + self.tree_bytes + self.relabel_bytes + self.sq8_bytes
    }
}

/// Per-query knobs, overriding the index-wide [`crate::DbLshParams`]
/// defaults for a single [`DbLsh::search_with`] /
/// [`DbLsh::search_batch_with`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Override the candidate budget (`2tL + k` by default). Larger
    /// budgets buy recall with verification time — per query, without
    /// rebuilding the index.
    pub budget: Option<usize>,
    /// Override the radius-ladder start for this query (e.g. a known
    /// scale for this tenant's data).
    pub r_min: Option<f64>,
    /// Override the ladder round cap.
    pub max_rounds: Option<usize>,
    /// When `true`, skip the per-query work counters: the returned
    /// [`QueryStats`] is zeroed. The counters are cheap; this mainly
    /// documents intent for latency-critical callers.
    pub skip_stats: bool,
    /// When `true`, time the verification stage (candidate-block sort +
    /// fused distance kernel) and report it in
    /// [`QueryStats::verify_nanos`]. Timed per block, so it costs two
    /// clock reads per drained leaf — off by default to keep the hot
    /// path free of them.
    pub time_verification: bool,
    /// Stage-1 SQ8 quantized pre-filter (on by default). Each candidate
    /// block is first scanned through the u8 code store for a
    /// conservative lower bound on the squared distance; candidates whose
    /// bound exceeds the current k-th-best squared distance are dropped
    /// before any f32 row is read. Answers and the shared work counters
    /// (`candidates`, `rounds`, `index_probes`) are **byte-identical**
    /// with the prefilter on or off — only `prefilter_pruned` /
    /// `prefilter_survivors` (and wall-clock) differ. Applies to the
    /// budgeted k-ANN paths ([`DbLsh::search_with`],
    /// [`DbLsh::search_canonical`], batch); the single-probe
    /// [`DbLsh::r_c_nn`] and incremental modes always verify exactly.
    pub prefilter: bool,
    /// When `true`, request per-stage tracing for this query. The core
    /// search paths themselves never read the flag — tracing goes through
    /// the dedicated traced entry points
    /// ([`DbLsh::search_canonical_traced`],
    /// [`LadderProber::probe_round_traced`]), so the untraced hot path
    /// stays free of clock reads — but the serving engine and the wire
    /// protocol carry it per request to decide whether to record a
    /// [`dblsh_telemetry::QueryTrace`] into the per-stage latency
    /// histograms and the slow-query log. Answers and [`QueryStats`] are
    /// byte-identical with the flag on or off.
    pub trace: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            budget: None,
            r_min: None,
            max_rounds: None,
            skip_stats: false,
            time_verification: false,
            prefilter: true,
            trace: false,
        }
    }
}

/// A resolved per-query execution plan: the [`SearchOptions`] overrides
/// validated against the index parameters. Public so serving layers
/// (the `dblsh-serve` sharded engine) can resolve one plan and apply it
/// across every shard of a fan-out query.
#[derive(Debug, Clone, Copy)]
pub struct LadderPlan {
    /// Candidate budget (`2tL + k` unless overridden).
    pub budget: usize,
    /// Radius-ladder start.
    pub r0: f64,
    /// Ladder round cap.
    pub max_rounds: usize,
    /// Whether verification-stage timing was requested.
    pub timing: bool,
    /// Whether the SQ8 quantized pre-filter screens candidate blocks.
    pub prefilter: bool,
}

impl SearchOptions {
    /// Validate the overrides against a parameter set, without needing a
    /// built index — the serving layer resolves one plan per request and
    /// applies it across every shard.
    pub fn plan(&self, params: &crate::DbLshParams, k: usize) -> Result<LadderPlan, DbLshError> {
        let budget = match self.budget {
            Some(0) => return Err(DbLshError::invalid("budget", "must be at least 1")),
            Some(b) => b,
            None => params.kann_budget(k),
        };
        let r0 = match self.r_min {
            Some(r) if !(r > 0.0 && r.is_finite()) => {
                return Err(DbLshError::invalid(
                    "r_min",
                    "radius ladder start must be positive and finite",
                ))
            }
            Some(r) => r,
            None => params.r_min,
        };
        let max_rounds = match self.max_rounds {
            Some(0) => return Err(DbLshError::invalid("max_rounds", "must be at least 1")),
            Some(m) => m,
            None => params.max_rounds,
        };
        Ok(LadderPlan {
            budget,
            r0,
            max_rounds,
            timing: self.time_verification,
            prefilter: self.prefilter,
        })
    }

    /// Validate the overrides against the index parameters.
    fn resolved(&self, index: &DbLsh, k: usize) -> Result<LadderPlan, DbLshError> {
        self.plan(&index.params, k)
    }
}

/// Reusable per-thread query state: the (sparse-clearing)
/// [`Visited`] bitset, the `L x K` query projection buffer and the
/// candidate-block buffers of the blocked verification stage.
struct QueryScratch {
    visited: Visited,
    /// Flat `[l][k]` projections of the current query.
    qproj: Vec<f64>,
    /// Fresh (unvisited) internal ids of the current candidate block.
    block: Vec<u32>,
    /// Squared distances of the block, parallel to `block`.
    dists: Vec<f32>,
    /// Canonical consumption keys: `(sq-dist bits << 32) | external id`.
    keys: Vec<u64>,
    /// Ids of the current block that survived the SQ8 pre-filter.
    survivors: Vec<u32>,
    /// Quantized-domain query state for the SQ8 bound scan.
    prep: Sq8Query,
}

impl QueryScratch {
    const fn new() -> Self {
        QueryScratch {
            visited: Visited::empty(),
            qproj: Vec::new(),
            block: Vec::new(),
            dists: Vec::new(),
            keys: Vec::new(),
            survivors: Vec::new(),
            prep: Sq8Query::empty(),
        }
    }

    /// Filter one cursor batch against the visited set into `block`,
    /// counting every batch id as an index probe. Returns `false` when
    /// the whole batch was already visited (nothing fresh to verify).
    fn collect_fresh(&mut self, batch: &[u32], stats: &mut QueryStats) -> bool {
        stats.index_probes += batch.len();
        self.block.clear();
        for &id in batch {
            if self.visited.insert(id) {
                self.block.push(id);
            }
        }
        !self.block.is_empty()
    }
}

/// Verify the fresh candidates in `scratch.block` against `q` through
/// the shared canonical staging: sort into memory order, optionally
/// screen through the SQ8 pre-filter
/// ([`dblsh_data::kernels::canonical_verify_keys_prefiltered`], when
/// `prune` carries the current squared-distance threshold), fused
/// distance kernel over the internal-order rows, canonical
/// `(distance, external id)` consumption keys in `scratch.keys`.
///
/// Accumulates `verify_nanos` (when `timing` is set) and the prefilter
/// counters into `stats`.
#[inline]
fn verify_block(
    index: &DbLsh,
    q: &[f32],
    scratch: &mut QueryScratch,
    timing: bool,
    prune: Option<f32>,
    stats: &mut QueryStats,
) {
    let started = if timing { Some(Instant::now()) } else { None };
    let verify = &index.rows;
    match prune {
        Some(threshold) => {
            let (pruned, survived) = canonical_verify_keys_prefiltered(
                q,
                verify.flat(),
                verify.dim(),
                &index.sq8,
                &scratch.prep,
                threshold,
                &mut scratch.block,
                &mut scratch.dists,
                &mut scratch.survivors,
                &mut scratch.keys,
                |internal| index.to_ext(internal),
            );
            stats.prefilter_pruned += pruned;
            stats.prefilter_survivors += survived;
        }
        None => canonical_verify_keys(
            q,
            verify.flat(),
            verify.dim(),
            &mut scratch.block,
            &mut scratch.dists,
            &mut scratch.keys,
            |internal| index.to_ext(internal),
        ),
    }
    if let Some(t) = started {
        stats.verify_nanos += t.elapsed().as_nanos() as u64;
    }
}

/// [`push_candidate_unchecked`] with a parallel mirror of the raw
/// *squared* f32 distances — the prune-threshold source. The threshold
/// must be the k-th squared distance exactly as the verify kernel
/// produced it (not a re-squared `sqrt`), or the bound comparison would
/// not be conservative.
#[inline]
fn push_candidate_with_sq(
    top: &mut Vec<Neighbor>,
    top_sq: &mut Vec<f32>,
    cand: Neighbor,
    d2: f32,
    k: usize,
) {
    let pos = top.partition_point(|n| n.dist <= cand.dist);
    if pos >= k {
        return;
    }
    top.insert(pos, cand);
    top_sq.insert(pos, d2);
    top.truncate(k);
    top_sq.truncate(k);
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = const { RefCell::new(QueryScratch::new()) };
}

/// Borrow the thread's scratch, prepared for a query against `index`.
fn with_scratch<T>(index: &DbLsh, q: &[f32], f: impl FnOnce(&mut QueryScratch) -> T) -> T {
    SCRATCH.with(|cell| {
        let mut scratch = match cell.try_borrow_mut() {
            Ok(s) => s,
            // A Drop impl re-entering the query path would hit this; fall
            // back to a fresh scratch rather than panicking.
            Err(_) => return f(&mut fresh_scratch(index, q)),
        };
        prepare_scratch(&mut scratch, index, q);
        f(&mut scratch)
    })
}

fn fresh_scratch(index: &DbLsh, q: &[f32]) -> QueryScratch {
    let mut s = QueryScratch::new();
    prepare_scratch(&mut s, index, q);
    s
}

fn prepare_scratch(scratch: &mut QueryScratch, index: &DbLsh, q: &[f32]) {
    // The visited domain is *internal* ids — physical store rows.
    scratch.visited.reset(index.store.len());
    let (l, k) = (index.params.l, index.params.k);
    scratch.qproj.resize(l * k, 0.0);
    for i in 0..l {
        index
            .hasher
            .project_into(i, q, &mut scratch.qproj[i * k..(i + 1) * k]);
    }
    index.sq8.prepare_query(q, &mut scratch.prep);
}

impl DbLsh {
    /// Algorithm 1: one `(r, c)`-NN probe. Returns a point within `c*r`
    /// of `q` (or the point that exhausted the budget — by event E2 it is
    /// within `c*r` with constant probability), or `None` for "no point
    /// within r" (case 2 of Definition 2).
    pub fn r_c_nn(&self, q: &[f32], r: f64) -> Result<(Option<Neighbor>, QueryStats), DbLshError> {
        check_query(self.rows.dim(), q, 1)?;
        if !(r > 0.0 && r.is_finite()) {
            return Err(DbLshError::invalid(
                "r",
                "probe radius must be positive and finite",
            ));
        }
        Ok(with_scratch(self, q, |scratch| {
            let mut stats = QueryStats::default();
            let budget = self.params.rcnn_budget();
            let k = self.params.k;
            let cr = self.params.c * r;
            stats.rounds = 1;
            for (i, tree) in self.trees.iter().enumerate() {
                let view = self.store.view(i);
                let qp = &scratch.qproj[i * k..(i + 1) * k];
                let window = Rect::centered_cube(qp, self.params.w0 * r);
                let mut cursor = tree.window(&view, &window);
                while let Some(batch) = cursor.next_batch() {
                    if !scratch.collect_fresh(batch, &mut stats) {
                        continue;
                    }
                    // Always exact: a single probe has no evolving k-th
                    // best to prune against.
                    verify_block(self, q, scratch, false, None, &mut stats);
                    for &key in &scratch.keys {
                        stats.candidates += 1;
                        let (id, d) = key_parts(key);
                        if stats.candidates >= budget || d <= cr {
                            return (Some(Neighbor { id, dist: d as f32 }), stats);
                        }
                    }
                }
            }
            (None, stats)
        }))
    }

    /// Algorithm 2: c-ANN by (r,c)-NN probes on the ladder
    /// `r = r_min, c r_min, c^2 r_min, ...`. Equivalent to
    /// `k_ann(q, 1)` but returning a single point.
    pub fn c_ann(&self, q: &[f32]) -> Result<(Option<Neighbor>, QueryStats), DbLshError> {
        let res = self.k_ann(q, 1)?;
        Ok((res.neighbors.first().copied(), res.stats))
    }

    /// (c,k)-ANN (Section IV-C) with the index-wide defaults; see
    /// [`DbLsh::search_with`] for per-query tuning.
    pub fn k_ann(&self, q: &[f32], k: usize) -> Result<SearchResult, DbLshError> {
        self.search_with(q, k, &SearchOptions::default())
    }

    /// (c,k)-ANN (Section IV-C): the two termination conditions become
    /// "`2tL + k` points verified" and "the current k-th NN is within
    /// `c*r`". `opts` overrides the budget, ladder start and round cap
    /// for this query only.
    ///
    /// Verified points are shared across ladder rounds (a window at radius
    /// `c*r` is a superset of the window at `r`), so each round only pays
    /// for newly encountered candidates.
    pub fn search_with(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> Result<SearchResult, DbLshError> {
        check_query(self.rows.dim(), q, k)?;
        let plan = opts.resolved(self, k)?;
        let mut res = with_scratch(self, q, |scratch| self.ladder_core(q, k, &plan, scratch));
        if opts.skip_stats {
            res.stats = QueryStats::default();
        }
        Ok(res)
    }

    fn ladder_core(
        &self,
        q: &[f32],
        k: usize,
        plan: &LadderPlan,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        let LadderPlan {
            budget,
            r0,
            max_rounds,
            timing,
            prefilter,
        } = *plan;
        let kdim = self.params.k;
        let live = self.len();
        let mut stats = QueryStats::default();
        let mut top: Vec<Neighbor> = Vec::with_capacity(k + 1);
        // Mirror of `top`'s raw squared f32 distances (the verify
        // kernel's native output) — the prefilter's prune threshold.
        let mut top_sq: Vec<f32> = Vec::with_capacity(k + 1);

        let mut r = r0;
        let mut verified_total = 0usize;
        'ladder: for _round in 0..max_rounds {
            stats.rounds += 1;
            let cr = self.params.c * r;
            // Previously verified points may already satisfy the current
            // radius (found "too early" in a smaller round).
            if top.len() == k && top[k - 1].dist as f64 <= cr {
                break 'ladder;
            }
            for (i, tree) in self.trees.iter().enumerate() {
                let view = self.store.view(i);
                let qp = &scratch.qproj[i * kdim..(i + 1) * kdim];
                let window = Rect::centered_cube(qp, self.params.w0 * r);
                let mut cursor = tree.window(&view, &window);
                while let Some(batch) = cursor.next_batch() {
                    if !scratch.collect_fresh(batch, &mut stats) {
                        continue;
                    }
                    // Prune threshold as of block start: the k-th best
                    // squared distance (∞ while the top is not full — no
                    // pruning until k candidates exist). Pruned
                    // candidates still emit a canonical key carrying
                    // their *bound*, which sorts strictly after every
                    // key that could update the top, so the counters and
                    // the top trajectory are byte-identical to the exact
                    // path.
                    let prune = prefilter.then(|| {
                        if top.len() == k {
                            top_sq[k - 1]
                        } else {
                            f32::INFINITY
                        }
                    });
                    verify_block(self, q, scratch, timing, prune, &mut stats);
                    // Line 6 of Algorithm 1, (c,k) variant, per candidate
                    // in canonical (distance, external id) order:
                    for &key in &scratch.keys {
                        verified_total += 1;
                        stats.candidates += 1;
                        let (id, d) = key_parts(key);
                        let d2 = f32::from_bits((key >> 32) as u32);
                        push_candidate_with_sq(
                            &mut top,
                            &mut top_sq,
                            Neighbor { id, dist: d as f32 },
                            d2,
                            k,
                        );
                        if verified_total >= budget
                            || (top.len() == k && top[k - 1].dist as f64 <= cr)
                        {
                            break 'ladder;
                        }
                    }
                }
            }
            if verified_total >= live {
                break; // every live point verified; nothing left to find
            }
            r *= self.params.c;
        }

        SearchResult {
            neighbors: top,
            stats,
        }
    }

    /// Answer one (c,k)-ANN query per row of `queries`, fanning the rows
    /// across all available cores. Results are in query order.
    pub fn search_batch(
        &self,
        queries: &Dataset,
        k: usize,
    ) -> Result<Vec<SearchResult>, DbLshError> {
        self.search_batch_with(queries, k, &SearchOptions::default())
    }

    /// [`DbLsh::search_batch`] with per-batch [`SearchOptions`].
    pub fn search_batch_with(
        &self,
        queries: &Dataset,
        k: usize,
        opts: &SearchOptions,
    ) -> Result<Vec<SearchResult>, DbLshError> {
        let plan = opts.resolved(self, k)?;
        let mut results = dblsh_data::parallel_search_batch(queries, self.rows.dim(), k, |q| {
            Ok(with_scratch(self, q, |scratch| {
                self.ladder_core(q, k, &plan, scratch)
            }))
        })?;
        if opts.skip_stats {
            for r in &mut results {
                r.stats = QueryStats::default();
            }
        }
        Ok(results)
    }

    /// Total heap footprint of the index structures: the shared
    /// projection store, the `L` flat R*-tree arenas, the id maps and
    /// the SQ8 codes — everything the index holds *beyond* its one copy
    /// of the dataset rows, which is not counted. See
    /// [`DbLsh::memory_breakdown`] for the per-component split.
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// Per-component heap footprint: the one shared [`crate::ProjStore`]
    /// (all `n x (L*K)` projected coordinates), the `L` id-only tree
    /// arenas (node structure and inline inner bounds, no coordinates),
    /// the id-mapping state (the two `u32` maps), the SQ8 code store,
    /// and — as an overlay — the `dead_bytes` that tombstoned rows
    /// currently pin across the store, the dataset rows and the maps.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let dead = self.dead_rows();
        let dim = self.rows.dim();
        // Per dead row: its projection row, its dataset row, and its two
        // u32 map entries (mapped indexes only). Logical (len-based)
        // size, like every other figure here.
        let per_dead_row = self.store.row_width() * std::mem::size_of::<f32>()
            + dim * std::mem::size_of::<f32>()
            + 2 * std::mem::size_of::<u32>() * usize::from(self.maps.is_some())
            + dim * std::mem::size_of::<u8>() // sq8 code row
            + 1; // sq8 clamped flag
        MemoryBreakdown {
            proj_store_bytes: self.store.memory_bytes(),
            tree_bytes: self.trees.iter().map(|t| t.approx_memory()).sum(),
            // Logical (len-based) size; Vec growth slack after heavy
            // insert traffic is deliberately excluded.
            relabel_bytes: self.maps.as_ref().map_or(0, |m| {
                (m.ext_of_int.len() + m.int_of_ext.len()) * std::mem::size_of::<u32>()
            }),
            sq8_bytes: self.sq8.memory_bytes(),
            dead_bytes: dead * per_dead_row,
        }
    }

    /// Incremental (c,k)-ANN — the "more efficient search strategies and
    /// early termination conditions" the paper's conclusion leaves as
    /// future work, in the style of I-LSH/EI-LSH: instead of the discrete
    /// radius ladder, browse each projected space in *ascending projected
    /// distance* (best-first on the R*-trees) and merge the `L` streams,
    /// verifying candidates as they surface.
    ///
    /// Early termination: for the dynamic family,
    /// `E[||G_i(o) - G_i(q)||^2] = K ||o - q||^2`, so once the smallest
    /// projected distance still unseen exceeds `sqrt(K) * c * d_k` (with
    /// `d_k` the current k-th true distance), no unverified point can
    /// displace the current top-k c-approximately, and the scan stops.
    /// The `2tL + k` budget still applies as a hard cap.
    ///
    /// Compared to [`DbLsh::k_ann`], this trades the ladder's windowing
    /// overhead for heap maintenance: it shines when the NN radius is
    /// unknown or wildly query-dependent (no `r_min` tuning at all).
    pub fn k_ann_incremental(&self, q: &[f32], k: usize) -> Result<SearchResult, DbLshError> {
        /// Candidates drained from the merged streams per verification
        /// block: enough to amortize the fused kernel, small enough that
        /// the early-termination test (whose `d_k` is frozen during one
        /// drain) lags by at most one block.
        const INCR_BLOCK: usize = 16;
        check_query(self.rows.dim(), q, k)?;
        let live = self.len();
        Ok(with_scratch(self, q, |scratch| {
            let kdim = self.params.k;
            let mut stats = QueryStats {
                rounds: 1,
                ..Default::default()
            };
            let mut top: Vec<Neighbor> = Vec::with_capacity(k + 1);
            let budget = self.params.kann_budget(k);
            let stop_scale = (self.params.k as f64).sqrt() * self.params.c;

            let views: Vec<_> = (0..self.trees.len()).map(|i| self.store.view(i)).collect();
            let mut streams: Vec<_> = self
                .trees
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    t.nearest_iter(&views[i], &scratch.qproj[i * kdim..(i + 1) * kdim])
                        .peekable()
                })
                .collect();

            let mut verified = 0usize;
            'merge: loop {
                // Drain phase: up to INCR_BLOCK fresh candidates in
                // ascending projected distance across the L streams.
                scratch.block.clear();
                let dk = if top.len() == k {
                    top[k - 1].dist as f64
                } else {
                    f64::INFINITY
                };
                let mut drained_dry = false;
                while scratch.block.len() < INCR_BLOCK {
                    // pick the stream whose head has the smallest
                    // projected distance
                    let mut best: Option<(f64, usize)> = None;
                    for (i, s) in streams.iter_mut().enumerate() {
                        if let Some(&(_, d2)) = s.peek() {
                            if best.is_none_or(|(b, _)| d2 < b) {
                                best = Some((d2, i));
                            }
                        }
                    }
                    let Some((proj_d2, i)) = best else {
                        drained_dry = true;
                        break;
                    };
                    // early termination on the projected-distance
                    // estimator (d_k frozen for this block)
                    if dk.is_finite() && proj_d2.sqrt() > stop_scale * dk {
                        drained_dry = true;
                        break;
                    }
                    // `best` was computed from a successful peek of
                    // stream `i`, so `next` cannot come up empty.
                    let Some((id, _)) = streams[i].next() else {
                        drained_dry = true;
                        break;
                    };
                    stats.index_probes += 1;
                    if scratch.visited.insert(id) {
                        scratch.block.push(id);
                    }
                }
                // Verify phase: blocked kernel, canonical consumption —
                // always exact (the projected-distance early-termination
                // test needs every drained candidate's true distance).
                if !scratch.block.is_empty() {
                    verify_block(self, q, scratch, false, None, &mut stats);
                    for &key in &scratch.keys {
                        verified += 1;
                        stats.candidates += 1;
                        let (id, d) = key_parts(key);
                        push_candidate_unchecked(&mut top, Neighbor { id, dist: d as f32 }, k);
                        if verified >= budget || verified >= live {
                            break 'merge;
                        }
                    }
                }
                if drained_dry {
                    break;
                }
            }

            SearchResult {
                neighbors: top,
                stats,
            }
        }))
    }
}

/// Reusable buffers for a [`LadderProber`]: the visited bitset, the
/// query-projection buffer and the candidate-block staging of the blocked
/// verification stage. Owned by the caller (serving workers keep a pool
/// of these in thread-locals — one per shard — and reuse them across
/// requests, which is what keeps the fan-out path allocation-free after
/// warm-up).
#[derive(Debug)]
pub struct ProberScratch {
    visited: Visited,
    qproj: Vec<f64>,
    /// Corners, DFS stack and leaf-hit buffer of the window probes.
    window: WindowScratch,
    block: Vec<u32>,
    dists: Vec<f32>,
    keys: Vec<u64>,
    /// One round's canonical keys, for the single-prober drivers
    /// ([`DbLsh::search_canonical`]); a fan-out merges into its own.
    round_keys: Vec<u64>,
    survivors: Vec<u32>,
    prep: Sq8Query,
}

impl ProberScratch {
    /// Empty buffers (const-constructible for thread-local pools); they
    /// size themselves on first use.
    pub const fn new() -> Self {
        ProberScratch {
            visited: Visited::empty(),
            qproj: Vec::new(),
            window: WindowScratch::new(),
            block: Vec::new(),
            dists: Vec::new(),
            keys: Vec::new(),
            round_keys: Vec::new(),
            survivors: Vec::new(),
            prep: Sq8Query::empty(),
        }
    }
}

impl Default for ProberScratch {
    fn default() -> Self {
        ProberScratch::new()
    }
}

/// Per-query probing state over one [`DbLsh`] index: the building block
/// of the *canonical round-exhaustive* query mode ([`CanonicalLadder`]).
///
/// A prober is created once per (query, index) pair and asked for one
/// ladder round at a time via [`LadderProber::probe_round`]; its visited
/// bitset persists across rounds, so every candidate is verified at most
/// once per query. A sharded serving layer holds one prober per shard
/// and merges their per-round key streams; because window membership,
/// per-row distances and the canonical `(distance, id)` key order are all
/// independent of which shard a point lives in, the merged stream is
/// byte-identical to a single prober over the union of the shards.
pub struct LadderProber<'a> {
    index: &'a DbLsh,
    q: &'a [f32],
    scratch: &'a mut ProberScratch,
}

impl<'a> LadderProber<'a> {
    /// Number of live points in the probed index.
    pub fn live(&self) -> usize {
        self.index.len()
    }

    /// The window scans of one round: every id inside `W(G_i(q), w0 r)`
    /// in each of the `L` trees is counted into `stats.index_probes`,
    /// and those not yet visited this query are left in `scratch.block`.
    /// Runs in the scratch's buffers — a warm prober allocates nothing.
    fn scan_round(&mut self, r: f64, stats: &mut QueryStats) {
        let kdim = self.index.params.k;
        let side = self.index.params.w0 * r;
        let scratch = &mut *self.scratch;
        scratch.block.clear();
        for (i, tree) in self.index.trees.iter().enumerate() {
            let view = self.index.store.view(i);
            let qp = &scratch.qproj[i * kdim..(i + 1) * kdim];
            let mut cursor = tree.window_cube_in(&view, qp, side, &mut scratch.window);
            while let Some(batch) = cursor.next_batch() {
                stats.index_probes += batch.len();
                for &id in batch {
                    if scratch.visited.insert(id) {
                        scratch.block.push(id);
                    }
                }
            }
        }
    }

    /// Probe one ladder round at radius `r`: scan the window
    /// `W(G_i(q), w0 r)` in all `L` trees, verify every *fresh* (not yet
    /// visited) candidate with the blocked distance kernel, and append
    /// the canonical consumption keys — `(squared-distance bits << 32) |
    /// to_global(external id)` — to `out`, sorted ascending among
    /// themselves.
    ///
    /// `to_global` maps this index's external ids into the caller's id
    /// space (identity for an unsharded index; the shard's global-id
    /// table in `dblsh-serve`). Window hits are counted into
    /// `stats.index_probes` here; `candidates` and `rounds` are counted
    /// by the consumer ([`CanonicalLadder`]), which alone decides how far
    /// into the round the query actually reads. When `timing` is set the
    /// verification stage is timed into `stats.verify_nanos`.
    ///
    /// `prune` is the SQ8 pre-filter threshold for this round —
    /// [`CanonicalLadder::prune_threshold`] when the plan enables the
    /// prefilter, `None` for the always-exact path. Pruned candidates
    /// still emit a canonical key (carrying their conservative *bound*,
    /// which sorts strictly after every key that could change the
    /// consumer's top-k), so the merged stream stays byte-identical to
    /// the exact path; prune counts land in `stats.prefilter_pruned` /
    /// `prefilter_survivors`. Because every shard of a fan-out quantizes
    /// against the same grid, per-shard prune decisions — and therefore
    /// the merged counters — match an unsharded probe exactly.
    pub fn probe_round(
        &mut self,
        r: f64,
        timing: bool,
        prune: Option<f32>,
        stats: &mut QueryStats,
        to_global: impl Fn(u32) -> u32,
        out: &mut Vec<u64>,
    ) {
        self.scan_round(r, stats);
        if self.scratch.block.is_empty() {
            return;
        }
        let started = if timing { Some(Instant::now()) } else { None };
        let verify = &self.index.rows;
        match prune {
            Some(threshold) => {
                let (pruned, survived) = canonical_verify_keys_prefiltered(
                    self.q,
                    verify.flat(),
                    verify.dim(),
                    &self.index.sq8,
                    &self.scratch.prep,
                    threshold,
                    &mut self.scratch.block,
                    &mut self.scratch.dists,
                    &mut self.scratch.survivors,
                    &mut self.scratch.keys,
                    |internal| to_global(self.index.to_ext(internal)),
                );
                stats.prefilter_pruned += pruned;
                stats.prefilter_survivors += survived;
            }
            None => canonical_verify_keys(
                self.q,
                verify.flat(),
                verify.dim(),
                &mut self.scratch.block,
                &mut self.scratch.dists,
                &mut self.scratch.keys,
                |internal| to_global(self.index.to_ext(internal)),
            ),
        }
        if let Some(t) = started {
            stats.verify_nanos += t.elapsed().as_nanos() as u64;
        }
        out.extend_from_slice(&self.scratch.keys);
    }

    /// [`LadderProber::probe_round`] with per-stage timing into `trace`:
    /// the window scan lands under [`dblsh_telemetry::Stage::TreeProbe`],
    /// and the verification splits into
    /// [`dblsh_telemetry::Stage::Prefilter`] (SQ8 bound scan + survivor
    /// partition) and [`dblsh_telemetry::Stage::Verify`] (fused distance
    /// kernel + canonical key sort) via
    /// [`dblsh_data::kernels::canonical_verify_keys_prefiltered_traced`].
    /// Keys, counters and prune decisions are byte-identical to the
    /// untraced method (the traced kernel mirrors the untraced one
    /// statement for statement); only the clock reads are added.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_round_traced(
        &mut self,
        r: f64,
        timing: bool,
        prune: Option<f32>,
        stats: &mut QueryStats,
        to_global: impl Fn(u32) -> u32,
        out: &mut Vec<u64>,
        trace: &mut QueryTrace,
    ) {
        let scan_started = Instant::now();
        self.scan_round(r, stats);
        trace.add(Stage::TreeProbe, scan_started.elapsed().as_nanos() as u64);
        if self.scratch.block.is_empty() {
            return;
        }
        let started = if timing { Some(Instant::now()) } else { None };
        let verify = &self.index.rows;
        match prune {
            Some(threshold) => {
                let mut split = VerifySplit::default();
                let (pruned, survived) = canonical_verify_keys_prefiltered_traced(
                    self.q,
                    verify.flat(),
                    verify.dim(),
                    &self.index.sq8,
                    &self.scratch.prep,
                    threshold,
                    &mut self.scratch.block,
                    &mut self.scratch.dists,
                    &mut self.scratch.survivors,
                    &mut self.scratch.keys,
                    |internal| to_global(self.index.to_ext(internal)),
                    &mut split,
                );
                stats.prefilter_pruned += pruned;
                stats.prefilter_survivors += survived;
                trace.add(Stage::Prefilter, split.prefilter_nanos);
                trace.add(Stage::Verify, split.verify_nanos);
            }
            None => {
                let verify_started = Instant::now();
                canonical_verify_keys(
                    self.q,
                    verify.flat(),
                    verify.dim(),
                    &mut self.scratch.block,
                    &mut self.scratch.dists,
                    &mut self.scratch.keys,
                    |internal| to_global(self.index.to_ext(internal)),
                );
                trace.add(Stage::Verify, verify_started.elapsed().as_nanos() as u64);
            }
        }
        if let Some(t) = started {
            stats.verify_nanos += t.elapsed().as_nanos() as u64;
        }
        out.extend_from_slice(&self.scratch.keys);
    }
}

/// The deterministic coordinator of the canonical round-exhaustive
/// (c,k)-ANN ladder — the serving engine's query semantics.
///
/// Unlike [`DbLsh::k_ann`], which stops mid-round at whatever point of
/// its internal tree-enumeration order the budget or `c·r` condition
/// fires, the canonical ladder collects *every* in-window candidate of a
/// round (from one prober, or merged from one prober per shard), sorts
/// them into canonical `(distance, external id)` order, and only then
/// applies the per-candidate budget and termination checks of
/// Algorithm 1. The answer therefore depends only on the candidate
/// *sets* per round — never on tree layout, shard assignment or
/// enumeration order — which is what makes a sharded index answer
/// byte-identically to an unsharded one.
///
/// Drive it as: `while let Some(r) = ladder.begin_round(&mut stats) {
/// probe all sources at r; sort the merged keys; ladder.consume(..) }`,
/// then [`CanonicalLadder::into_result`].
#[derive(Debug)]
pub struct CanonicalLadder {
    top: Vec<Neighbor>,
    /// Raw squared f32 distances mirroring `top` — the prune-threshold
    /// source for [`CanonicalLadder::prune_threshold`].
    top_sq: Vec<f32>,
    k: usize,
    c: f64,
    r: f64,
    cr: f64,
    budget: usize,
    max_rounds: usize,
    rounds_begun: usize,
    live: usize,
    verified: usize,
    done: bool,
}

impl CanonicalLadder {
    /// A ladder for one query: `plan` from [`SearchOptions::plan`], `c`
    /// from the (shared) index parameters, `live` the total number of
    /// live points across every probed source.
    pub fn new(plan: &LadderPlan, c: f64, k: usize, live: usize) -> Self {
        CanonicalLadder {
            top: Vec::with_capacity(k + 1),
            top_sq: Vec::with_capacity(k + 1),
            k,
            c,
            r: plan.r0,
            cr: 0.0,
            budget: plan.budget,
            max_rounds: plan.max_rounds,
            rounds_begun: 0,
            live,
            verified: 0,
            done: false,
        }
    }

    /// Start the next round. Returns the radius to probe, or `None` when
    /// the ladder has terminated (answer already within `c·r`, budget
    /// spent, every live point verified, or round cap reached). Must be
    /// followed by exactly one [`CanonicalLadder::consume`] of the
    /// round's merged keys when it returns `Some`.
    pub fn begin_round(&mut self, stats: &mut QueryStats) -> Option<f64> {
        if self.done || self.rounds_begun == self.max_rounds {
            return None;
        }
        self.rounds_begun += 1;
        stats.rounds += 1;
        self.cr = self.c * self.r;
        // Previously verified points may already satisfy the current
        // radius (found "too early" in a smaller round).
        if self.top.len() == self.k && self.top[self.k - 1].dist as f64 <= self.cr {
            self.done = true;
            return None;
        }
        Some(self.r)
    }

    /// The SQ8 pre-filter threshold for the coming round: the k-th best
    /// *squared* distance exactly as the verify kernel produced it, or
    /// `+∞` while the top is not yet full (no pruning until `k`
    /// candidates exist). Pass to every
    /// [`LadderProber::probe_round`] of the round when the plan enables
    /// the prefilter.
    pub fn prune_threshold(&self) -> f32 {
        if self.top.len() == self.k {
            self.top_sq[self.k - 1]
        } else {
            f32::INFINITY
        }
    }

    /// Consume one round's candidates — the concatenation of every
    /// prober's [`LadderProber::probe_round`] output, sorted ascending
    /// (already sorted for a single prober) — applying the budget and
    /// `c·r` termination checks per candidate in canonical order.
    pub fn consume(&mut self, sorted_keys: &[u64], stats: &mut QueryStats) {
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        for &key in sorted_keys {
            self.verified += 1;
            stats.candidates += 1;
            let (id, d) = key_parts(key);
            let d2 = f32::from_bits((key >> 32) as u32);
            push_candidate_with_sq(
                &mut self.top,
                &mut self.top_sq,
                Neighbor { id, dist: d as f32 },
                d2,
                self.k,
            );
            if self.verified >= self.budget
                || (self.top.len() == self.k && self.top[self.k - 1].dist as f64 <= self.cr)
            {
                self.done = true;
                return;
            }
        }
        if self.verified >= self.live {
            self.done = true; // every live point verified; nothing left
            return;
        }
        self.r *= self.c;
    }

    /// The current top-k (ascending distance), e.g. for inspection
    /// between rounds.
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.top
    }

    /// Finish the query.
    pub fn into_result(self, stats: QueryStats) -> SearchResult {
        SearchResult {
            neighbors: self.top,
            stats,
        }
    }
}

thread_local! {
    /// The canonical entry points' buffers, reused across queries on the
    /// same thread like the classic path's `SCRATCH` — the two modes must
    /// not differ by allocation overhead.
    static CANONICAL_SCRATCH: RefCell<ProberScratch> =
        const { RefCell::new(ProberScratch::new()) };
}

/// Run `f` on the thread's canonical-mode scratch.
fn with_canonical_scratch<T>(f: impl FnOnce(&mut ProberScratch) -> T) -> T {
    CANONICAL_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrancy (a Drop impl querying mid-query) falls back to
        // fresh buffers rather than panicking.
        Err(_) => f(&mut ProberScratch::new()),
    })
}

impl DbLsh {
    /// Create a [`LadderProber`] for `q` over this index, using (and
    /// resetting) the caller's `scratch` buffers. Fails on a malformed
    /// query vector.
    pub fn ladder_prober<'a>(
        &'a self,
        q: &'a [f32],
        scratch: &'a mut ProberScratch,
    ) -> Result<LadderProber<'a>, DbLshError> {
        check_query(self.rows.dim(), q, 1)?;
        // Internal-id domain: physical store rows.
        scratch.visited.reset(self.store.len());
        let (l, k) = (self.params.l, self.params.k);
        scratch.qproj.resize(l * k, 0.0);
        for i in 0..l {
            self.hasher
                .project_into(i, q, &mut scratch.qproj[i * k..(i + 1) * k]);
        }
        self.sq8.prepare_query(q, &mut scratch.prep);
        Ok(LadderProber {
            index: self,
            q,
            scratch,
        })
    }

    /// [`DbLsh::ladder_prober`] with the projection stage — the `L x K`
    /// matrix-vector products plus the SQ8 query preparation — timed into
    /// `trace` under [`dblsh_telemetry::Stage::Projection`].
    pub fn ladder_prober_traced<'a>(
        &'a self,
        q: &'a [f32],
        scratch: &'a mut ProberScratch,
        trace: &mut QueryTrace,
    ) -> Result<LadderProber<'a>, DbLshError> {
        let started = Instant::now();
        let prober = self.ladder_prober(q, scratch)?;
        trace.add(Stage::Projection, started.elapsed().as_nanos() as u64);
        Ok(prober)
    }

    /// (c,k)-ANN in the *canonical round-exhaustive* mode — the serving
    /// engine's query semantics (see [`CanonicalLadder`]).
    ///
    /// Each ladder round verifies **every** in-window candidate and
    /// consumes them in canonical `(distance, external id)` order, so the
    /// answer (and its work counters) depends only on the per-round
    /// candidate sets — a `dblsh_serve`-sharded index over the same data
    /// and parameters answers byte-identically for any shard count.
    /// Compared to [`DbLsh::k_ann`] this may verify up to one round of
    /// candidates beyond the budget/termination point (the classic mode
    /// stops at leaf-batch granularity instead); recall is never lower.
    pub fn search_canonical(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
    ) -> Result<SearchResult, DbLshError> {
        check_query(self.rows.dim(), q, k)?;
        let plan = opts.resolved(self, k)?;
        let mut res = with_canonical_scratch(|scratch| self.canonical_core(q, k, &plan, scratch))?;
        if opts.skip_stats {
            res.stats = QueryStats::default();
        }
        Ok(res)
    }

    fn canonical_core(
        &self,
        q: &[f32],
        k: usize,
        plan: &LadderPlan,
        scratch: &mut ProberScratch,
    ) -> Result<SearchResult, DbLshError> {
        let mut prober = self.ladder_prober(q, scratch)?;
        let mut ladder = CanonicalLadder::new(plan, self.params.c, k, self.len());
        let mut stats = QueryStats::default();
        let mut keys = std::mem::take(&mut prober.scratch.round_keys);
        while let Some(r) = ladder.begin_round(&mut stats) {
            keys.clear();
            let prune = plan.prefilter.then(|| ladder.prune_threshold());
            // A single prober's round output is already canonically
            // sorted — no merge needed.
            prober.probe_round(r, plan.timing, prune, &mut stats, |ext| ext, &mut keys);
            ladder.consume(&keys, &mut stats);
        }
        prober.scratch.round_keys = keys;
        Ok(ladder.into_result(stats))
    }

    /// [`DbLsh::search_canonical`] with a per-stage [`QueryTrace`]:
    /// projection, window scanning, SQ8 pre-filtering, exact
    /// verification and canonical-order consumption
    /// ([`dblsh_telemetry::Stage::Merge`]) are timed into `trace`.
    /// Answers and [`QueryStats`] are byte-identical to the untraced
    /// path — pinned by tests — so the serving engine can flip tracing
    /// per request without perturbing results.
    pub fn search_canonical_traced(
        &self,
        q: &[f32],
        k: usize,
        opts: &SearchOptions,
        trace: &mut QueryTrace,
    ) -> Result<SearchResult, DbLshError> {
        check_query(self.rows.dim(), q, k)?;
        let plan = opts.resolved(self, k)?;
        let mut res = with_canonical_scratch(|scratch| {
            self.canonical_core_traced(q, k, &plan, scratch, trace)
        })?;
        if opts.skip_stats {
            res.stats = QueryStats::default();
        }
        Ok(res)
    }

    fn canonical_core_traced(
        &self,
        q: &[f32],
        k: usize,
        plan: &LadderPlan,
        scratch: &mut ProberScratch,
        trace: &mut QueryTrace,
    ) -> Result<SearchResult, DbLshError> {
        let mut prober = self.ladder_prober_traced(q, scratch, trace)?;
        let mut ladder = CanonicalLadder::new(plan, self.params.c, k, self.len());
        let mut stats = QueryStats::default();
        let mut keys = std::mem::take(&mut prober.scratch.round_keys);
        while let Some(r) = ladder.begin_round(&mut stats) {
            keys.clear();
            let prune = plan.prefilter.then(|| ladder.prune_threshold());
            prober.probe_round_traced(
                r,
                plan.timing,
                prune,
                &mut stats,
                |ext| ext,
                &mut keys,
                trace,
            );
            let merge_started = Instant::now();
            ladder.consume(&keys, &mut stats);
            trace.add(Stage::Merge, merge_started.elapsed().as_nanos() as u64);
        }
        prober.scratch.round_keys = keys;
        Ok(ladder.into_result(stats))
    }
}

impl AnnIndex for DbLsh {
    fn name(&self) -> &'static str {
        "DB-LSH"
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult, DbLshError> {
        self.k_ann(query, k)
    }

    fn search_batch(&self, queries: &Dataset, k: usize) -> Result<Vec<SearchResult>, DbLshError> {
        DbLsh::search_batch(self, queries, k)
    }

    fn index_size_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DbLshParams;
    use dblsh_data::dataset::sq_dist;
    use dblsh_data::ground_truth::exact_knn_single;
    use dblsh_data::synthetic::{gaussian_mixture, split_queries, MixtureConfig};
    use dblsh_data::{metrics, Dataset};
    use dblsh_index::CoordSource;
    use std::sync::Arc;

    fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
        gaussian_mixture(&MixtureConfig {
            n,
            dim,
            clusters: 30,
            cluster_std: 1.0,
            spread: 60.0,
            noise_frac: 0.02,
            seed,
        })
    }

    fn build(data: &Arc<Dataset>) -> DbLsh {
        let params = DbLshParams::paper_defaults(data.len())
            .with_kl(8, 4)
            .with_r_min(0.5);
        DbLsh::build(Arc::clone(data), &params).unwrap()
    }

    #[test]
    fn k_ann_has_high_recall_on_clustered_data() {
        let mut data = clustered(4000, 24, 11);
        let queries = split_queries(&mut data, 20, 3);
        let data = Arc::new(data);
        let idx = build(&data);
        let mut recalls = Vec::new();
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let truth = exact_knn_single(&data, q, 10);
            let got = idx.k_ann(q, 10).unwrap();
            recalls.push(metrics::recall(&got.neighbors, &truth));
        }
        let mean = metrics::mean(&recalls);
        assert!(mean > 0.8, "mean recall too low: {mean}");
    }

    #[test]
    fn k_ann_respects_c2_guarantee_on_top1() {
        // Theorem 1: returned point within c^2 * r* with constant
        // probability; across 30 queries the *average* must hold easily.
        let mut data = clustered(3000, 16, 5);
        let queries = split_queries(&mut data, 30, 8);
        let data = Arc::new(data);
        let idx = build(&data);
        let c2 = idx.params().c * idx.params().c;
        let mut ok = 0;
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let truth = exact_knn_single(&data, q, 1)[0];
            if let (Some(got), _) = idx.c_ann(q).unwrap() {
                if got.dist as f64 <= c2 * truth.dist as f64 + 1e-6 {
                    ok += 1;
                }
            }
        }
        // far above the theoretical floor of (1/2 - 1/e) ~ 0.13
        assert!(ok >= 25, "only {ok}/30 met the c^2 bound");
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let data = Arc::new(clustered(2000, 16, 9));
        let idx = build(&data);
        let res = idx.k_ann(data.point(17), 25).unwrap();
        assert!(res.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
        let mut ids = res.ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), res.neighbors.len());
    }

    #[test]
    fn budget_is_respected() {
        let data = Arc::new(clustered(3000, 16, 2));
        let params = DbLshParams::paper_defaults(data.len())
            .with_kl(8, 4)
            .with_t(4); // tiny budget: 2*4*4 + k
        let idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let res = idx.k_ann(data.point(0), 5).unwrap();
        assert!(
            res.stats.candidates <= params.kann_budget(5),
            "verified {} candidates, budget {}",
            res.stats.candidates,
            params.kann_budget(5)
        );
    }

    #[test]
    fn search_options_override_budget_and_ladder() {
        let data = Arc::new(clustered(3000, 16, 21));
        let idx = build(&data);
        let q = data.point(7);
        // budget of 1: exactly one candidate verified
        let tight = idx
            .search_with(
                q,
                5,
                &SearchOptions {
                    budget: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(tight.stats.candidates, 1);
        // one round only
        let one_round = idx
            .search_with(
                q,
                5,
                &SearchOptions {
                    max_rounds: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(one_round.stats.rounds, 1);
        // larger per-query budget may only help recall
        let wide = idx
            .search_with(
                q,
                5,
                &SearchOptions {
                    budget: Some(data.len()),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(wide.neighbors.len() == 5);
        // stats can be suppressed
        let quiet = idx
            .search_with(
                q,
                5,
                &SearchOptions {
                    skip_stats: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(quiet.stats, QueryStats::default());
        assert!(!quiet.neighbors.is_empty());
    }

    #[test]
    fn search_options_validate() {
        let data = Arc::new(clustered(500, 8, 1));
        let idx = build(&data);
        let q = data.point(0);
        for opts in [
            SearchOptions {
                budget: Some(0),
                ..Default::default()
            },
            SearchOptions {
                r_min: Some(0.0),
                ..Default::default()
            },
            SearchOptions {
                r_min: Some(f64::NAN),
                ..Default::default()
            },
            SearchOptions {
                max_rounds: Some(0),
                ..Default::default()
            },
        ] {
            assert!(
                matches!(
                    idx.search_with(q, 3, &opts),
                    Err(DbLshError::InvalidParameter { .. })
                ),
                "{opts:?} accepted"
            );
        }
    }

    #[test]
    fn malformed_queries_error_not_panic() {
        let data = Arc::new(clustered(500, 8, 4));
        let idx = build(&data);
        assert!(matches!(
            idx.k_ann(&[1.0; 3], 5),
            Err(DbLshError::DimensionMismatch {
                expected: 8,
                got: 3
            })
        ));
        assert!(matches!(
            idx.k_ann(&[f32::NAN; 8], 5),
            Err(DbLshError::NonFiniteCoordinate)
        ));
        assert!(matches!(
            idx.k_ann(&[0.0; 8], 0),
            Err(DbLshError::InvalidParameter { param: "k", .. })
        ));
        assert!(matches!(
            idx.r_c_nn(&[0.0; 8], -1.0),
            Err(DbLshError::InvalidParameter { param: "r", .. })
        ));
        assert!(matches!(
            idx.k_ann_incremental(&[1.0; 2], 5),
            Err(DbLshError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn search_batch_matches_sequential() {
        let mut data = clustered(3000, 16, 14);
        let queries = split_queries(&mut data, 40, 6);
        let data = Arc::new(data);
        let idx = build(&data);
        let batch = idx.search_batch(&queries, 10).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (qi, res) in batch.iter().enumerate() {
            let solo = idx.k_ann(queries.point(qi), 10).unwrap();
            assert_eq!(res.ids(), solo.ids(), "query {qi} differs in batch mode");
            assert_eq!(res.stats, solo.stats);
        }
    }

    #[test]
    fn search_batch_validates_and_handles_empty() {
        let data = Arc::new(clustered(500, 8, 3));
        let idx = build(&data);
        assert!(idx.search_batch(&Dataset::empty(8), 5).unwrap().is_empty());
        assert!(matches!(
            idx.search_batch(&Dataset::empty(4), 5),
            Err(DbLshError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            idx.search_batch(&Dataset::empty(8), 0),
            Err(DbLshError::InvalidParameter { param: "k", .. })
        ));
    }

    #[test]
    fn query_on_indexed_point_meets_guarantee() {
        // At r* = 0 the ladder guarantee degrades to c^2 * r_min; on this
        // workload the point itself is found in practice.
        let data = Arc::new(clustered(1500, 12, 4));
        let idx = build(&data);
        let res = idx.k_ann(data.point(42), 1).unwrap();
        let bound = idx.params().c * idx.params().c * idx.params().r_min;
        assert!((res.neighbors[0].dist as f64) <= bound);
    }

    #[test]
    fn r_c_nn_contract() {
        let data = Arc::new(clustered(2000, 12, 6));
        let idx = build(&data);
        let q = data.point(10);
        // huge radius: must return something within c*r
        let (hit, stats) = idx.r_c_nn(q, 1000.0).unwrap();
        let hit = hit.expect("radius covers everything");
        assert!(hit.dist as f64 <= idx.params().c * 1000.0);
        assert_eq!(stats.rounds, 1);
        // microscopic radius on a far-away query: typically nothing
        let far = vec![1e4f32; 12];
        let (none, _) = idx.r_c_nn(&far, 1e-9).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn k_larger_than_dataset_is_safe() {
        let data = Arc::new(clustered(50, 8, 3));
        let params = DbLshParams::paper_defaults(50).with_kl(4, 2);
        let idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let res = idx.k_ann(data.point(0), 500).unwrap();
        assert!(res.neighbors.len() <= 50);
        assert!(!res.neighbors.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let data = Arc::new(clustered(2000, 16, 1));
        let idx = build(&data);
        let res = idx.k_ann(data.point(3), 10).unwrap();
        assert!(res.stats.rounds >= 1);
        assert!(res.stats.candidates >= res.neighbors.len());
        assert!(res.stats.index_probes >= res.stats.candidates);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn incremental_mode_matches_ladder_quality() {
        let mut data = clustered(3000, 16, 8);
        let queries = split_queries(&mut data, 15, 12);
        let data = Arc::new(data);
        let idx = build(&data);
        let mut ladder = Vec::new();
        let mut incremental = Vec::new();
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let truth = exact_knn_single(&data, q, 10);
            ladder.push(metrics::recall(
                &idx.k_ann(q, 10).unwrap().neighbors,
                &truth,
            ));
            incremental.push(metrics::recall(
                &idx.k_ann_incremental(q, 10).unwrap().neighbors,
                &truth,
            ));
        }
        let li = metrics::mean(&ladder);
        let inc = metrics::mean(&incremental);
        assert!(inc > 0.8, "incremental recall too low: {inc}");
        assert!(
            inc + 0.15 > li,
            "incremental ({inc}) far below ladder ({li})"
        );
    }

    #[test]
    fn incremental_mode_contracts() {
        let data = Arc::new(clustered(1000, 12, 3));
        let idx = build(&data);
        let res = idx.k_ann_incremental(data.point(5), 8).unwrap();
        assert!(res.neighbors.len() <= 8);
        assert!(res.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert!(res.stats.candidates <= idx.params().kann_budget(8));
        // the query point itself has projected distance 0 in every stream,
        // so incremental browsing always verifies it first
        assert_eq!(res.neighbors[0].id, 5);
        assert_eq!(res.neighbors[0].dist, 0.0);
    }

    #[test]
    fn canonical_mode_contracts() {
        let mut data = clustered(3000, 16, 8);
        let queries = split_queries(&mut data, 15, 12);
        let data = Arc::new(data);
        let idx = build(&data);
        let mut recalls = Vec::new();
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let truth = exact_knn_single(&data, q, 10);
            let res = idx
                .search_canonical(q, 10, &SearchOptions::default())
                .unwrap();
            // deterministic: same call, same bytes
            let again = idx
                .search_canonical(q, 10, &SearchOptions::default())
                .unwrap();
            assert_eq!(res.neighbors, again.neighbors);
            assert_eq!(res.stats, again.stats);
            assert!(res.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
            recalls.push(metrics::recall(&res.neighbors, &truth));
            // canonical consumption is a canonical-order prefix of the
            // same candidate pool the classic ladder draws from, so it
            // can only improve on the classic answer's k-th distance
            let classic = idx.k_ann(q, 10).unwrap();
            if res.neighbors.len() == 10 && classic.neighbors.len() == 10 {
                assert!(res.neighbors[9].dist <= classic.neighbors[9].dist + 1e-6);
            }
        }
        assert!(metrics::mean(&recalls) > 0.8);
    }

    #[test]
    fn canonical_mode_respects_overrides() {
        let data = Arc::new(clustered(2000, 16, 31));
        let idx = build(&data);
        let q = data.point(3);
        let tight = idx
            .search_canonical(
                q,
                5,
                &SearchOptions {
                    budget: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(tight.stats.candidates, 1);
        let one_round = idx
            .search_canonical(
                q,
                5,
                &SearchOptions {
                    max_rounds: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(one_round.stats.rounds, 1);
        let quiet = idx
            .search_canonical(
                q,
                5,
                &SearchOptions {
                    skip_stats: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(quiet.stats, QueryStats::default());
        assert!(!quiet.neighbors.is_empty());
        assert!(matches!(
            idx.search_canonical(&[1.0; 3], 5, &SearchOptions::default()),
            Err(DbLshError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn canonical_mode_is_relabel_invariant() {
        // the serving semantics must not depend on the internal layout
        let data = Arc::new(clustered(1500, 12, 44));
        let params = DbLshParams::paper_defaults(data.len())
            .with_kl(6, 3)
            .with_r_min(0.5);
        let relabeled = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let identity =
            DbLsh::build(Arc::clone(&data), &params.clone().with_relabel(false)).unwrap();
        for qi in [0usize, 7, 500, 1499] {
            let q = data.point(qi);
            let a = relabeled
                .search_canonical(q, 8, &SearchOptions::default())
                .unwrap();
            let b = identity
                .search_canonical(q, 8, &SearchOptions::default())
                .unwrap();
            assert_eq!(a.neighbors, b.neighbors);
            assert_eq!(a.stats, b.stats);
        }
    }

    /// The canonical ladder by brute force: per round, the ids inside
    /// each tree's window by the `f64` reference predicate over the
    /// projection store (no tree, no `f32` window), verified with the
    /// scalar kernel and consumed under Algorithm 1's rules.
    fn brute_force_canonical(idx: &DbLsh, q: &[f32], k: usize) -> SearchResult {
        let p = idx.params();
        let mut qproj = vec![0.0f64; p.k];
        let mut seen = vec![false; idx.store.len()];
        let mut top: Vec<Neighbor> = Vec::new();
        let mut stats = QueryStats::default();
        let (budget, live) = (p.kann_budget(k), idx.len());
        let mut r = p.r_min;
        while stats.rounds < p.max_rounds {
            stats.rounds += 1;
            let cr = p.c * r;
            let within = |top: &[Neighbor]| top.len() == k && top[k - 1].dist as f64 <= cr;
            if within(&top) {
                break;
            }
            let mut keys: Vec<u64> = Vec::new();
            for i in 0..p.l {
                idx.hasher().project_into(i, q, &mut qproj);
                let window = Rect::centered_cube(&qproj, p.w0 * r);
                let view = idx.proj_store().view(i);
                for id in 0..idx.store.len() as u32 {
                    let bounds = window.lo().iter().zip(window.hi());
                    let mut at = view.coords(id).iter().zip(bounds);
                    if !at.all(|(&v, (&lo, &hi))| lo <= v as f64 && v as f64 <= hi) {
                        continue;
                    }
                    stats.index_probes += 1;
                    if !std::mem::replace(&mut seen[id as usize], true) {
                        let d2 = sq_dist(q, idx.rows.point(id as usize));
                        keys.push(((d2.to_bits() as u64) << 32) | idx.to_ext(id) as u64);
                    }
                }
            }
            keys.sort_unstable();
            let mut done = false;
            for key in keys {
                stats.candidates += 1;
                let (id, d) = key_parts(key);
                top.push(Neighbor { id, dist: d as f32 });
                top.sort_by(|a, b| a.dist.total_cmp(&b.dist)); // stable: ties keep key order
                top.truncate(k);
                if stats.candidates >= budget || within(&top) {
                    done = true;
                    break;
                }
            }
            if done || stats.candidates >= live {
                break;
            }
            r *= p.c;
        }
        SearchResult {
            neighbors: top,
            stats,
        }
    }

    #[test]
    fn canonical_search_equals_brute_force_over_f64_windows() {
        // Pins in tier-1 what the benchmark's traced replay checks:
        // `index_probes` is the number of ids inside the probed windows,
        // and the answer is the canonical ladder over exactly those sets.
        let mut data = clustered(2500, 16, 21);
        let queries = split_queries(&mut data, 25, 4);
        let data = Arc::new(data);
        // K = 10: two whole SIMD chunks and an overlapping tail.
        let params = DbLshParams::paper_defaults(data.len())
            .with_kl(10, 4)
            .with_r_min(0.5);
        for relabel in [true, false] {
            let idx =
                DbLsh::build(Arc::clone(&data), &params.clone().with_relabel(relabel)).unwrap();
            let mut probes = 0;
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                let want = brute_force_canonical(&idx, q, 10);
                let exact = SearchOptions {
                    prefilter: false,
                    ..Default::default()
                };
                let got = idx.search_canonical(q, 10, &exact).unwrap();
                assert_eq!(
                    got.neighbors, want.neighbors,
                    "relabel {relabel} query {qi}"
                );
                assert_eq!(got.stats, want.stats, "relabel {relabel} query {qi}");
                // The prefilter reorders only the unread tail of a round.
                let screened = idx
                    .search_canonical(q, 10, &SearchOptions::default())
                    .unwrap();
                assert_eq!(screened.neighbors, want.neighbors, "query {qi}");
                assert_eq!(
                    (
                        screened.stats.rounds,
                        screened.stats.index_probes,
                        screened.stats.candidates
                    ),
                    (
                        want.stats.rounds,
                        want.stats.index_probes,
                        want.stats.candidates
                    ),
                    "relabel {relabel} query {qi}"
                );
                probes += want.stats.index_probes;
            }
            assert!(probes > 1000, "windows too empty to pin anything: {probes}");
        }
    }

    #[test]
    fn prober_reuse_across_queries_is_clean() {
        // one scratch, many queries: the visited bitset must reset fully
        let data = Arc::new(clustered(800, 12, 9));
        let idx = build(&data);
        let mut scratch = ProberScratch::default();
        for qi in [3usize, 3, 50, 3] {
            let q = data.point(qi).to_vec();
            let mut stats = QueryStats::default();
            let mut keys = Vec::new();
            let mut prober = idx.ladder_prober(&q, &mut scratch).unwrap();
            prober.probe_round(5.0, false, None, &mut stats, |e| e, &mut keys);
            // the query point itself is always in its own window
            assert!(
                keys.iter().any(|&key| key_parts(key).0 == qi as u32),
                "query point missing from its own window probe"
            );
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn prefilter_answers_and_shared_counters_are_byte_identical() {
        let mut data = clustered(3000, 16, 77);
        let queries = split_queries(&mut data, 12, 5);
        let data = Arc::new(data);
        let idx = build(&data);
        let on = SearchOptions::default();
        assert!(on.prefilter, "prefilter is the default");
        let off = SearchOptions {
            prefilter: false,
            ..Default::default()
        };
        let mut total_pruned = 0usize;
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            for (a, b) in [
                (
                    idx.search_with(q, 10, &on).unwrap(),
                    idx.search_with(q, 10, &off).unwrap(),
                ),
                (
                    idx.search_canonical(q, 10, &on).unwrap(),
                    idx.search_canonical(q, 10, &off).unwrap(),
                ),
            ] {
                assert_eq!(a.neighbors, b.neighbors, "query {qi}");
                // The shared work counters match bit for bit — pruned
                // candidates are still counted (their bound-keys flow
                // through the same canonical consumption).
                assert_eq!(a.stats.candidates, b.stats.candidates, "query {qi}");
                assert_eq!(a.stats.rounds, b.stats.rounds, "query {qi}");
                assert_eq!(a.stats.index_probes, b.stats.index_probes, "query {qi}");
                // Only the prefilter's own counters differ.
                assert_eq!(b.stats.prefilter_pruned, 0);
                assert_eq!(b.stats.prefilter_survivors, 0);
                // Every screened candidate is either pruned or verified;
                // consumption may stop mid-block, so the screen covers
                // at least the consumed candidates.
                assert!(
                    a.stats.prefilter_pruned + a.stats.prefilter_survivors >= a.stats.candidates,
                    "query {qi}: screened fewer candidates than consumed"
                );
                assert!(a.stats.prefilter_survivors > 0, "query {qi}");
                total_pruned += a.stats.prefilter_pruned;
            }
        }
        assert!(
            total_pruned > 0,
            "prefilter never pruned anything across 12 clustered queries"
        );
    }

    #[test]
    fn duplicate_points_handled() {
        // 100 copies of the same vector + some distinct ones
        let mut rows = vec![vec![1.0f32; 8]; 100];
        for i in 0..50 {
            rows.push(vec![i as f32 + 10.0; 8]);
        }
        let data = Arc::new(Dataset::from_rows(&rows));
        let params = DbLshParams::paper_defaults(150).with_kl(4, 2);
        let idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let res = idx.k_ann(&[1.0f32; 8], 5).unwrap();
        assert_eq!(res.neighbors.len(), 5);
        assert!(res.neighbors.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn removed_points_never_returned() {
        let data = Arc::new(clustered(800, 12, 19));
        let mut idx = build(&data);
        let q = data.point(5).to_vec();
        // remove the query point and its current neighbors
        let before = idx.k_ann(&q, 5).unwrap();
        for id in before.ids() {
            idx.remove(id).unwrap();
        }
        let after = idx.k_ann(&q, 5).unwrap();
        for n in &after.neighbors {
            assert!(
                !before.ids().contains(&n.id),
                "removed id {} resurfaced",
                n.id
            );
            assert!(idx.contains(n.id));
        }
    }

    #[test]
    fn inserted_points_are_findable() {
        let data = Arc::new(clustered(800, 12, 23));
        let mut idx = build(&data);
        let novel = vec![500.0f32; 12]; // far from all mass
        let id = idx.insert(&novel).unwrap();
        let res = idx.k_ann(&novel, 1).unwrap();
        assert_eq!(res.neighbors[0].id, id);
        assert_eq!(res.neighbors[0].dist, 0.0);
    }

    #[test]
    fn traced_canonical_matches_untraced_byte_for_byte() {
        // The span recorder must be a pure observer: answers and every
        // work counter byte-identical with tracing on, prefilter on or
        // off — only the QueryTrace differs from zero.
        let mut data = clustered(2500, 16, 31);
        let queries = split_queries(&mut data, 8, 12);
        let data = Arc::new(data);
        let idx = build(&data);
        for prefilter in [true, false] {
            let opts = SearchOptions {
                prefilter,
                ..Default::default()
            };
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                let plain = idx.search_canonical(q, 10, &opts).unwrap();
                let mut trace = dblsh_telemetry::QueryTrace::default();
                let traced = idx
                    .search_canonical_traced(q, 10, &opts, &mut trace)
                    .unwrap();
                assert_eq!(plain.neighbors, traced.neighbors, "query {qi}");
                assert_eq!(plain.stats, traced.stats, "query {qi}");
                assert!(
                    trace.get(Stage::Projection) > 0,
                    "query {qi}: projection stage not timed"
                );
                assert!(
                    trace.get(Stage::TreeProbe) > 0,
                    "query {qi}: tree-probe stage not timed"
                );
            }
        }
    }

    #[test]
    fn traced_prober_round_matches_untraced_keys() {
        let data = Arc::new(clustered(1500, 12, 37));
        let idx = build(&data);
        let q = data.point(3);
        for prune in [None, Some(f32::INFINITY), Some(25.0)] {
            let mut s1 = ProberScratch::new();
            let mut s2 = ProberScratch::new();
            let mut stats1 = QueryStats::default();
            let mut stats2 = QueryStats::default();
            let mut keys1 = Vec::new();
            let mut keys2 = Vec::new();
            let mut trace = QueryTrace::default();
            let mut p1 = idx.ladder_prober(q, &mut s1).unwrap();
            p1.probe_round(2.0, false, prune, &mut stats1, |e| e, &mut keys1);
            let mut p2 = idx.ladder_prober_traced(q, &mut s2, &mut trace).unwrap();
            p2.probe_round_traced(
                2.0,
                false,
                prune,
                &mut stats2,
                |e| e,
                &mut keys2,
                &mut trace,
            );
            assert_eq!(keys1, keys2, "prune {prune:?}");
            assert_eq!(stats1, stats2, "prune {prune:?}");
        }
    }
}
