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
//! [`ProberScratch`] shared by every mode: the visited bitset, the
//! `L x K` projection buffer, the window-probe state and the
//! candidate-block buffers are reused across queries on the same thread
//! (the bitset is cleared sparsely — only words actually touched are
//! zeroed).
//!
//! There is one query path: every mode obtains a [`LadderProber`], walks
//! its windows leaf batch by leaf batch and verifies fresh candidates
//! through one stage; the ladder modes leave Algorithm 1's stop rules to
//! [`CanonicalLadder`]. Tracing is an `Option<&mut QueryTrace>` argument
//! of that path, and the clock is read only when it is `Some`.
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
    canonical_verify_keys, canonical_verify_keys_prefiltered, key_parts, VerifySplit,
};
use dblsh_data::{
    push_candidate_unchecked, AnnIndex, Dataset, DbLshError, Neighbor, QueryStats, SearchResult,
    Sq8Query, Visited,
};
use dblsh_index::WindowScratch;
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
    /// The packed tree arenas of every segment (main and delta levels),
    /// each sized exactly at build: per tree a `u32` per id, an 8-byte
    /// `(first, count)` span per node and a `2K`-float box per node but
    /// the root. No point coordinates — those are counted in
    /// `proj_store_bytes`.
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
    /// rows, the SQ8 codes, the id maps and the trees occupied by
    /// *tombstoned* rows (per dead row: one projection row, one `f32`
    /// row, one code row and flag, two map entries on mapped indexes, and
    /// one `u32` leaf entry per tree while a tree still holds it) —
    /// payload a [`crate::DbLsh::compact`] call would reclaim. An overlay
    /// over the other components (plus the backing dataset, which the
    /// breakdown otherwise does not count), **not** an additional component:
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
    /// search paths never read the flag — a trace is the
    /// `Option<&mut QueryTrace>` argument of [`DbLsh::ladder_prober`] and
    /// [`LadderProber::probe_round`], and the clock is read only when it
    /// is `Some` — but the serving engine and the wire protocol carry the
    /// flag per request to decide whether to record a
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
        self.with_prober(q, |mut prober| {
            let mut stats = QueryStats {
                rounds: 1,
                ..Default::default()
            };
            let budget = self.params.rcnn_budget();
            let cr = self.params.c * r;
            let mut hit = None;
            prober.for_each_batch(r, |fresh, batch| {
                fresh.admit(self, batch, &mut stats);
                // Always exact: a single probe has no evolving k-th best
                // to prune against.
                for &key in fresh.verify(self, q, false, None, &mut stats, |ext| ext, None) {
                    stats.candidates += 1;
                    let (id, d) = key_parts(key);
                    if stats.candidates >= budget || d <= cr {
                        hit = Some(Neighbor { id, dist: d as f32 });
                        return true;
                    }
                }
                false
            });
            (hit, stats)
        })
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
        let plan = opts.plan(&self.params, k)?;
        let mut res = self.with_prober(q, |prober| self.ladder_core(prober, k, &plan))?;
        if opts.skip_stats {
            res.stats = QueryStats::default();
        }
        Ok(res)
    }

    /// The classic ladder: Algorithm 1's rules ([`CanonicalLadder`])
    /// applied per leaf batch, in the trees' enumeration order, so the
    /// scan stops mid-round the moment one fires.
    fn ladder_core(&self, mut prober: LadderProber, k: usize, plan: &LadderPlan) -> SearchResult {
        let q = prober.q;
        let mut ladder = CanonicalLadder::new(plan, self.params.c, k, self.len());
        let mut stats = QueryStats::default();
        while let Some(r) = ladder.begin_round(&mut stats) {
            let stopped = prober.for_each_batch(r, |fresh, batch| {
                fresh.admit(self, batch, &mut stats);
                // Threshold as of block start; see `probe_round` for why
                // pruned candidates cannot change the top's trajectory.
                let prune = plan.prefilter.then(|| ladder.prune_threshold());
                let keys = fresh.verify(self, q, plan.timing, prune, &mut stats, |ext| ext, None);
                ladder.offer(keys, &mut stats)
            });
            if !stopped {
                ladder.end_round();
            }
        }
        ladder.into_result(stats)
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
        opts.plan(&self.params, k)?; // bad options fail even an empty batch
        let search = |q: &[f32]| self.search_with(q, k, opts);
        dblsh_data::parallel_search_batch(queries, self.rows.dim(), k, search)
    }

    /// Total heap footprint of the index structures: the shared
    /// projection store, the flat R*-tree arenas, the id maps and
    /// the SQ8 codes — everything the index holds *beyond* its one copy
    /// of the dataset rows, which is not counted. See
    /// [`DbLsh::memory_breakdown`] for the per-component split.
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// Per-component heap footprint: the one shared [`crate::ProjStore`]
    /// (all `n x (L*K)` projected coordinates), the id-only tree arenas
    /// of every segment (node structure and inline inner bounds, no
    /// coordinates), the id-mapping state (the two `u32` maps), the SQ8
    /// code store, and — as an overlay — the `dead_bytes` that
    /// tombstoned rows currently pin across the store, the dataset rows,
    /// the maps and the trees.
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

        // A dead row's leaf entries count only while trees still hold
        // them: one u32 per tree of its segment.
        let dead_held: usize = self.segments.iter().map(|seg| seg.dead_held).sum();
        let held_entry_bytes = dead_held * self.params.l * std::mem::size_of::<u32>();
        MemoryBreakdown {
            proj_store_bytes: self.store.memory_bytes(),
            tree_bytes: self
                .segments
                .iter()
                .flat_map(|seg| &seg.trees)
                .map(|t| t.approx_memory())
                .sum(),
            // Logical (len-based) size; Vec growth slack after heavy
            // insert traffic is deliberately excluded.
            relabel_bytes: self.maps.as_ref().map_or(0, |m| {
                (m.ext_of_int.len() + m.int_of_ext.len()) * std::mem::size_of::<u32>()
            }),
            sq8_bytes: self.sq8.memory_bytes(),
            dead_bytes: dead * per_dead_row + held_entry_bytes,
        }
    }

    /// Incremental (c,k)-ANN — the "more efficient search strategies and
    /// early termination conditions" the paper's conclusion leaves as
    /// future work, in the style of I-LSH/EI-LSH: instead of the discrete
    /// radius ladder, browse each projected space in *ascending projected
    /// distance* (best-first on the R*-trees) and merge the `L` streams,
    /// verifying candidates as they surface. Each projected space
    /// contributes one stream per segment (main and every delta level)
    /// and one sorted list of its tail rows.
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
        self.with_prober(q, |prober| {
            let ProberScratch { qproj, fresh, .. } = prober.scratch;
            let kdim = self.params.k;
            let mut stats = QueryStats {
                rounds: 1,
                ..Default::default()
            };
            let mut top: Vec<Neighbor> = Vec::with_capacity(k + 1);
            let budget = self.params.kann_budget(k);
            let stop_scale = (self.params.k as f64).sqrt() * self.params.c;

            // Per projected space: one stream per segment's tree, then
            // the tail as one sorted list.
            let views: Vec<_> = (0..self.params.l).map(|i| self.store.view(i)).collect();
            let tail = self.tail();
            type Stream<'s> = Box<dyn Iterator<Item = (u32, f64)> + 's>;
            let mut streams = Vec::new();
            for (i, view) in views.iter().enumerate() {
                let qp = &qproj[i * kdim..(i + 1) * kdim];
                for seg in &self.segments {
                    let stream: Stream = Box::new(seg.trees[i].nearest_iter(view, qp));
                    streams.push(stream.peekable());
                }
                if !tail.is_empty() {
                    let run = dblsh_index::nearest_run(view, tail.clone(), qp);
                    let stream: Stream = Box::new(run.into_iter());
                    streams.push(stream.peekable());
                }
            }

            let mut verified = 0usize;
            'merge: loop {
                // Drain phase: up to INCR_BLOCK fresh candidates in
                // ascending projected distance across the L streams.
                let dk = if top.len() == k {
                    top[k - 1].dist as f64
                } else {
                    f64::INFINITY
                };
                let mut drained_dry = false;
                while fresh.block.len() < INCR_BLOCK {
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
                    fresh.admit(self, &[id], &mut stats);
                }
                // Verify phase: blocked kernel, canonical consumption —
                // always exact (the projected-distance early-termination
                // test needs every drained candidate's true distance).
                for &key in fresh.verify(self, q, false, None, &mut stats, |ext| ext, None) {
                    verified += 1;
                    stats.candidates += 1;
                    let (id, d) = key_parts(key);
                    push_candidate_unchecked(&mut top, Neighbor { id, dist: d as f32 }, k);
                    if verified >= budget || verified >= live {
                        break 'merge;
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
        })
    }
}

/// Reusable buffers for a [`LadderProber`] — the one per-query scratch
/// every mode runs in: the query projections, the window-probe state, the
/// visited bitset and the candidate-block staging of the blocked
/// verification stage. The unsharded entry points share one per thread,
/// serving workers keep one per shard in a thread-local; reuse across
/// requests is what keeps the query path allocation-free after warm-up.
/// [`DbLsh::ladder_prober`] resets it, so nothing carries over from one
/// query — or one mode — to the next.
#[derive(Debug)]
pub struct ProberScratch {
    qproj: Vec<f64>,
    /// Corners, DFS stack and leaf-hit buffer of the window probes.
    window: WindowScratch,
    fresh: FreshBlock,
}

/// The verification stage's share of a [`ProberScratch`], split out so a
/// window cursor can hold the probe state while candidates are verified.
#[derive(Debug)]
struct FreshBlock {
    /// Whether the index has tombstoned rows that probes can meet, set
    /// per query: a clean index pays no liveness check.
    skip_dead: bool,
    visited: Visited,
    /// Admitted (not yet visited this query) internal ids awaiting
    /// verification.
    block: Vec<u32>,
    /// Squared distances of the block, parallel to `block`.
    dists: Vec<f32>,
    /// Canonical consumption keys: `(sq-dist bits << 32) | public id`.
    keys: Vec<u64>,
    /// Ids of the current block that survived the SQ8 pre-filter.
    survivors: Vec<u32>,
    /// Quantized-domain query state for the SQ8 bound scan.
    prep: Sq8Query,
}

impl ProberScratch {
    /// Empty buffers (const-constructible for thread-local pools); they
    /// size themselves on first use.
    pub const fn new() -> Self {
        ProberScratch {
            qproj: Vec::new(),
            window: WindowScratch::new(),
            fresh: FreshBlock {
                skip_dead: false,
                visited: Visited::empty(),
                block: Vec::new(),
                dists: Vec::new(),
                keys: Vec::new(),
                survivors: Vec::new(),
                prep: Sq8Query::empty(),
            },
        }
    }
}

impl Default for ProberScratch {
    fn default() -> Self {
        ProberScratch::new()
    }
}

/// Run `f`, adding its wall time to `stage` of a traced query. An
/// untraced query (`None`) reads no clock.
#[inline]
fn timed<T>(trace: Option<&mut QueryTrace>, stage: Stage, f: impl FnOnce() -> T) -> T {
    let Some(trace) = trace else { return f() };
    let started = Instant::now();
    let out = f();
    trace.add(stage, started.elapsed().as_nanos() as u64);
    out
}

impl FreshBlock {
    /// Admit one cursor batch: tombstoned ids (still held by a tree or
    /// the tail until the next rebuild) are dropped first, every other id
    /// counts as an index probe, and the ones not yet visited this query
    /// join the block. `index_probes` thus counts what trees over the
    /// live rows alone would yield.
    #[inline]
    fn admit(&mut self, index: &DbLsh, batch: &[u32], stats: &mut QueryStats) {
        if self.skip_dead {
            for &id in batch {
                if index.is_live_row(id) {
                    stats.index_probes += 1;
                    if self.visited.insert(id) {
                        self.block.push(id);
                    }
                }
            }
            return;
        }
        stats.index_probes += batch.len();
        for &id in batch {
            if self.visited.insert(id) {
                self.block.push(id);
            }
        }
    }

    /// The one verification stage: drain the admitted block through the
    /// shared canonical staging — sort into memory order, screen through
    /// the SQ8 pre-filter when `prune` carries the current
    /// squared-distance threshold, fused distance kernel over the
    /// internal-order rows — and return the canonical
    /// `(distance, to_global(external id))` keys, sorted ascending (none
    /// when nothing was admitted). Adds `verify_nanos` (when `timing` is
    /// set) and the prefilter counters to `stats`, and the
    /// [`Stage::Prefilter`] / [`Stage::Verify`] split to `trace`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn verify(
        &mut self,
        index: &DbLsh,
        q: &[f32],
        timing: bool,
        prune: Option<f32>,
        stats: &mut QueryStats,
        to_global: impl Fn(u32) -> u32,
        trace: Option<&mut QueryTrace>,
    ) -> &[u64] {
        self.keys.clear();
        if self.block.is_empty() {
            return &self.keys;
        }
        let started = timing.then(Instant::now);
        let rows = &index.rows;
        let to_public = |internal| to_global(index.to_ext(internal));
        match prune {
            Some(threshold) => {
                let mut split = VerifySplit::default();
                let (pruned, survived) = canonical_verify_keys_prefiltered(
                    q,
                    rows.flat(),
                    rows.dim(),
                    &index.sq8,
                    &self.prep,
                    threshold,
                    &mut self.block,
                    &mut self.dists,
                    &mut self.survivors,
                    &mut self.keys,
                    to_public,
                    trace.is_some().then_some(&mut split),
                );
                stats.prefilter_pruned += pruned;
                stats.prefilter_survivors += survived;
                if let Some(trace) = trace {
                    trace.add(Stage::Prefilter, split.prefilter_nanos);
                    trace.add(Stage::Verify, split.verify_nanos);
                }
            }
            None => timed(trace, Stage::Verify, || {
                canonical_verify_keys(
                    q,
                    rows.flat(),
                    rows.dim(),
                    &mut self.block,
                    &mut self.dists,
                    &mut self.keys,
                    to_public,
                )
            }),
        }
        if let Some(t) = started {
            stats.verify_nanos += t.elapsed().as_nanos() as u64;
        }
        self.block.clear();
        &self.keys
    }
}

/// Per-query probing state over one [`DbLsh`] index: what every query
/// mode is built from.
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
    /// Walk the windows `W(G_i(q), w0 r)` of the `L` projected spaces in
    /// order — in each space main's tree, each delta level's, then a
    /// sweep of the tail — handing `f` each leaf's (and the tail's)
    /// in-window ids together with the verification stage; stops early,
    /// returning `true`, as soon as `f` does. Runs in the scratch's
    /// buffers — a warm prober allocates nothing.
    #[inline]
    fn for_each_batch(
        &mut self,
        r: f64,
        mut f: impl FnMut(&mut FreshBlock, &[u32]) -> bool,
    ) -> bool {
        let index = self.index;
        let kdim = index.params.k;
        let side = index.params.w0 * r;
        let tail = index.tail();
        let scratch = &mut *self.scratch;
        for i in 0..index.params.l {
            let view = index.store.view(i);
            // One rounded window per space, probed in every segment.
            scratch
                .window
                .set_cube(&scratch.qproj[i * kdim..(i + 1) * kdim], side);
            for seg in &index.segments {
                let mut cursor = seg.trees[i].window_in(&view, &mut scratch.window);
                while let Some(batch) = cursor.next_batch() {
                    if f(&mut scratch.fresh, batch) {
                        return true;
                    }
                }
            }
            if !tail.is_empty() {
                let hits = scratch.window.scan(&view, tail.clone());
                if !hits.is_empty() && f(&mut scratch.fresh, hits) {
                    return true;
                }
            }
        }
        false
    }

    /// Probe one ladder round at radius `r`: scan the window
    /// `W(G_i(q), w0 r)` in all `L` trees, verify every *fresh* (not yet
    /// visited) candidate with the blocked distance kernel, and return
    /// the canonical consumption keys — `(squared-distance bits << 32) |
    /// to_global(external id)` — sorted ascending.
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
    ///
    /// With `trace` set, the window scan is timed under
    /// [`Stage::TreeProbe`] and the verification under
    /// [`Stage::Prefilter`] (SQ8 bound scan + survivor partition) and
    /// [`Stage::Verify`] (fused distance kernel + canonical key sort);
    /// `None` reads no clock. The trace decides nothing else.
    pub fn probe_round(
        &mut self,
        r: f64,
        timing: bool,
        prune: Option<f32>,
        stats: &mut QueryStats,
        to_global: impl Fn(u32) -> u32,
        mut trace: Option<&mut QueryTrace>,
    ) -> &[u64] {
        let index = self.index;
        timed(trace.as_deref_mut(), Stage::TreeProbe, || {
            self.for_each_batch(r, |fresh, batch| {
                fresh.admit(index, batch, stats);
                false
            })
        });
        let fresh = &mut self.scratch.fresh;
        fresh.verify(self.index, self.q, timing, prune, stats, to_global, trace)
    }
}

/// Algorithm 1's stop rules, written once: push each verified candidate
/// into the top-k, stop on the `2tL + k` budget or once the k-th best is
/// within `c·r`, stop when every live point is verified, else
/// `r ← c·r` — for the classic ladder and for the canonical
/// round-exhaustive (c,k)-ANN ladder, the serving engine's query
/// semantics.
///
/// [`DbLsh::k_ann`] offers each leaf batch as the trees enumerate it and
/// so stops mid-round at whatever point of that enumeration order a rule
/// fires. The canonical mode collects *every* in-window candidate of a
/// round (from one prober, or merged from one prober per shard), sorts
/// them into canonical `(distance, external id)` order, and only then
/// offers them. Its answer therefore depends only on the candidate
/// *sets* per round — never on tree layout, shard assignment or
/// enumeration order — which is what makes a sharded index answer
/// byte-identically to an unsharded one.
///
/// Drive it as: `while let Some(r) = ladder.begin_round(&mut stats) {
/// probe at r; for each sorted key run: if ladder.offer(..) { stop
/// probing }; if no offer stopped: ladder.end_round() }`, then
/// [`CanonicalLadder::into_result`]. [`CanonicalLadder::consume`] is the
/// offer + end-of-round pair for callers with one run per round.
#[derive(Debug)]
pub struct CanonicalLadder {
    top: Vec<Neighbor>,
    /// Raw squared f32 distances mirroring `top` — the prune-threshold
    /// source for [`CanonicalLadder::prune_threshold`]. The threshold
    /// must be the k-th squared distance exactly as the verify kernel
    /// produced it (not a re-squared `sqrt`), or the bound comparison
    /// would not be conservative.
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
    /// spent, every live point verified, or round cap reached). When it
    /// returns `Some`, the round's keys go through
    /// [`CanonicalLadder::offer`] and the round is closed with
    /// [`CanonicalLadder::end_round`] (or both at once with
    /// [`CanonicalLadder::consume`]).
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

    /// The SQ8 pre-filter threshold as of now: the k-th best *squared*
    /// distance exactly as the verify kernel produced it, or `+∞` while
    /// the top is not yet full (no pruning until `k` candidates exist).
    /// Pass to every [`LadderProber::probe_round`] of the round when the
    /// plan enables the prefilter.
    pub fn prune_threshold(&self) -> f32 {
        if self.top.len() == self.k {
            self.top_sq[self.k - 1]
        } else {
            f32::INFINITY
        }
    }

    /// Offer a run of the current round's candidates, sorted ascending
    /// (one leaf batch's keys, or a whole round's), applying the budget
    /// and `c·r` checks of Algorithm 1's Line 6 per candidate in
    /// canonical order. Returns `true` — and the ladder is finished — as
    /// soon as one fires; the rest of the run is not read.
    pub fn offer(&mut self, sorted_keys: &[u64], stats: &mut QueryStats) -> bool {
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        let k = self.k;
        for &key in sorted_keys {
            self.verified += 1;
            stats.candidates += 1;
            let (id, d) = key_parts(key);
            let dist = d as f32;
            let pos = self.top.partition_point(|n| n.dist <= dist);
            if pos < k {
                self.top.insert(pos, Neighbor { id, dist });
                self.top_sq.insert(pos, f32::from_bits((key >> 32) as u32));
                self.top.truncate(k);
                self.top_sq.truncate(k);
            }
            if self.verified >= self.budget
                || (self.top.len() == k && self.top[k - 1].dist as f64 <= self.cr)
            {
                self.done = true;
                return true;
            }
        }
        false
    }

    /// Close a round in which no [`CanonicalLadder::offer`] stopped: the
    /// ladder is finished if every live point has been verified (nothing
    /// left to find), otherwise `r ← c·r`.
    pub fn end_round(&mut self) {
        if self.verified >= self.live {
            self.done = true;
        } else {
            self.r *= self.c;
        }
    }

    /// Consume one whole round — the concatenation of every prober's
    /// [`LadderProber::probe_round`] output, sorted ascending (already
    /// sorted for a single prober): one offer, then the end of the round.
    pub fn consume(&mut self, sorted_keys: &[u64], stats: &mut QueryStats) {
        if !self.offer(sorted_keys, stats) {
            self.end_round();
        }
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
    /// The unsharded entry points' buffers, reused across queries — of
    /// any mode — on the same thread.
    static SCRATCH: RefCell<ProberScratch> = const { RefCell::new(ProberScratch::new()) };
}

impl DbLsh {
    /// Create a [`LadderProber`] for `q` over this index, using (and
    /// resetting) the caller's `scratch` buffers: the `L x K`
    /// matrix-vector products plus the SQ8 query preparation, timed under
    /// [`Stage::Projection`] when the query is traced. Fails on a
    /// malformed query vector.
    pub fn ladder_prober<'a>(
        &'a self,
        q: &'a [f32],
        scratch: &'a mut ProberScratch,
        trace: Option<&mut QueryTrace>,
    ) -> Result<LadderProber<'a>, DbLshError> {
        check_query(self.rows.dim(), q, 1)?;
        timed(trace, Stage::Projection, || {
            // Internal-id domain: physical store rows.
            scratch.fresh.visited.reset(self.store.len());
            scratch.fresh.block.clear();
            scratch.fresh.skip_dead = self.dead_rows() > 0;
            let (l, k) = (self.params.l, self.params.k);
            scratch.qproj.resize(l * k, 0.0);
            for i in 0..l {
                self.hasher
                    .project_into(i, q, &mut scratch.qproj[i * k..(i + 1) * k]);
            }
            self.sq8.prepare_query(q, &mut scratch.fresh.prep);
        });
        Ok(LadderProber {
            index: self,
            q,
            scratch,
        })
    }

    /// Run `f` on a prober for `q` over the thread's scratch.
    fn with_prober<T>(
        &self,
        q: &[f32],
        f: impl FnOnce(LadderProber) -> T,
    ) -> Result<T, DbLshError> {
        let run = |scratch: &mut ProberScratch| self.ladder_prober(q, scratch, None).map(f);
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => run(&mut scratch),
            // Re-entrancy (a Drop impl querying mid-query) falls back to
            // fresh buffers rather than panicking.
            Err(_) => run(&mut ProberScratch::new()),
        })
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
        let plan = opts.plan(&self.params, k)?;
        let mut res = self.with_prober(q, |prober| self.canonical_core(prober, k, &plan))?;
        if opts.skip_stats {
            res.stats = QueryStats::default();
        }
        Ok(res)
    }

    fn canonical_core(
        &self,
        mut prober: LadderProber,
        k: usize,
        plan: &LadderPlan,
    ) -> SearchResult {
        let mut ladder = CanonicalLadder::new(plan, self.params.c, k, self.len());
        let mut stats = QueryStats::default();
        while let Some(r) = ladder.begin_round(&mut stats) {
            let prune = plan.prefilter.then(|| ladder.prune_threshold());
            // A single prober's round output is already canonically
            // sorted — no merge needed.
            let keys = prober.probe_round(r, plan.timing, prune, &mut stats, |ext| ext, None);
            ladder.consume(keys, &mut stats);
        }
        ladder.into_result(stats)
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
    use dblsh_index::{CoordSource, Rect};
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
            let (mut stats, mut trace) = (QueryStats::default(), QueryTrace::new());
            let mut prober = idx
                .ladder_prober(&q, &mut scratch, Some(&mut trace))
                .unwrap();
            let keys = prober.probe_round(5.0, false, None, &mut stats, |e| e, Some(&mut trace));
            // the query point itself is always in its own window
            assert!(
                keys.iter().any(|&key| key_parts(key).0 == qi as u32),
                "query point missing from its own window probe"
            );
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            assert!(trace.get(Stage::Projection) > 0 && trace.get(Stage::TreeProbe) > 0);
        }
        // One thread-local scratch under every mode, in every order: each
        // answer equals what a fresh thread (a fresh scratch) gives.
        type Mode<'a> = &'a (dyn Fn(&[f32]) -> (Vec<Neighbor>, QueryStats) + Sync);
        let of = |r: SearchResult| (r.neighbors, r.stats);
        let defaults = SearchOptions::default();
        let modes: [Mode; 4] = [
            &|q| of(idx.k_ann(q, 5).unwrap()),
            &|q| {
                let (hit, stats) = idx.r_c_nn(q, 5.0).unwrap();
                (hit.into_iter().collect(), stats)
            },
            &|q| of(idx.k_ann_incremental(q, 5).unwrap()),
            &|q| of(idx.search_canonical(q, 5, &defaults).unwrap()),
        ];
        let qs = [data.point(3), data.point(50)];
        let fresh = |m: usize, qi: usize| {
            std::thread::scope(|s| s.spawn(|| modes[m](qs[qi])).join().unwrap())
        };
        for (a, b) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
            for (m, qi) in [(a, 0), (b, 1), (a, 0)] {
                assert_eq!(modes[m](qs[qi]), fresh(m, qi), "mode {m} in {a}, {b}, {a}");
            }
        }
    }

    #[test]
    fn ladder_offers_in_chunks_equal_one_consume() {
        // 40 candidates far outside c·r, budget never reached: no stop
        // fires mid-round, so only the end of the round may differ.
        let plan = LadderPlan {
            budget: 1000,
            r0: 0.5,
            max_rounds: 8,
            timing: false,
            prefilter: true,
        };
        let keys: Vec<u64> = (0..40u32)
            .map(|i| (((9.0 + i as f32).to_bits() as u64) << 32) | i as u64)
            .collect();
        // live = 40: the live-set rule ends the ladder; 1000: r ← c·r.
        for (live, chunk) in [(1000, 1), (1000, 7), (1000, 40), (40, 7), (40, 32)] {
            let mut whole = CanonicalLadder::new(&plan, 1.5, 5, live);
            let mut parts = CanonicalLadder::new(&plan, 1.5, 5, live);
            let (mut s1, mut s2) = (QueryStats::default(), QueryStats::default());
            assert_eq!(whole.begin_round(&mut s1), Some(0.5));
            assert_eq!(parts.begin_round(&mut s2), Some(0.5));
            whole.consume(&keys, &mut s1);
            for run in keys.chunks(chunk) {
                assert!(!parts.offer(run, &mut s2));
            }
            parts.end_round();
            // Debug prints every field: top, top_sq, verified, r, done.
            assert_eq!(format!("{parts:?}"), format!("{whole:?}"));
            assert_eq!((s1, whole.verified, whole.done), (s2, 40, live == 40));
            assert_eq!(whole.r, if live == 40 { 0.5 } else { 0.75 });
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

    /// Removed ids stay in main's trees until the next rebuild; a probe
    /// must drop them before counting, so every work counter reads as on
    /// trees that never held them (here: the same index compacted).
    #[test]
    fn index_probes_exclude_tombstoned_ids_still_in_main() {
        let data = Arc::new(clustered(1500, 12, 29));
        let mut idx = build(&data);
        for id in (0..1500u32).step_by(3) {
            idx.remove(id).unwrap();
        }
        assert_eq!(idx.segments[0].dead_held, 500, "main still holds them");
        let opts = SearchOptions::default();
        let queries: Vec<&[f32]> = (0..1500).step_by(50).map(|i| data.point(i)).collect();
        let held: Vec<SearchResult> = queries
            .iter()
            .map(|q| idx.search_canonical(q, 10, &opts).unwrap())
            .collect();
        assert!(held.iter().any(|r| r.stats.index_probes > 0));
        idx.compact();
        assert_eq!(idx.segments[0].dead_held, 0);
        for (q, want) in queries.iter().zip(&held) {
            let got = idx.search_canonical(q, 10, &opts).unwrap();
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.neighbors, want.neighbors);
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
}
