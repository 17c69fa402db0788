//! Index construction (paper Section IV-B) and dynamic maintenance:
//! project the dataset into `L` K-dimensional spaces — all into one
//! shared [`ProjStore`] row per point — bulk-load one id-only R*-tree per
//! space over the store's column views, and keep the trees in sync under
//! point insertions and removals — the update path the paper's dynamic
//! bucketing makes possible ("DB-LSH naturally supports updates since the
//! R*-tree is a dynamic structure").
//!
//! # Internal vs external id space
//!
//! At bulk build the index (by default) computes a *locality-preserving
//! permutation* of the points — the STR leaf order of tree 0 over the
//! first projected space ([`dblsh_index::str_order`]) — and lays out its
//! dataset rows and its projection-store rows in that order. The index
//! holds the vectors **once**, in this internal order. Every id inside
//! the trees and the store is an **internal** id (a row in the relabeled
//! layout); every id that crosses the public API — [`DbLsh::insert`]'s
//! return value, [`DbLsh::remove`]'s argument, `Neighbor::id` in results
//! — is an **external** id (the caller's original row index), translated
//! through two `u32` maps. Queries therefore read near-sequential memory
//! in leaf scans and candidate verification while no id or answer shows
//! the permutation (only the row order of [`DbLsh::data`] does): answers
//! are byte-identical to an identity-order build — up to
//! tie-breaking among exact duplicate points, whose identical projections
//! are split between leaves by internal id, which the permutation changes
//! — a property the relabel parity tests assert on distinct-point data.

use std::ops::Range;
use std::sync::Arc;

use dblsh_data::{Dataset, DbLshError, Sq8Grid, Sq8Store};
use dblsh_index::{RStarTree, StridedCoords};

use crate::hasher::GaussianHasher;
use crate::params::DbLshParams;
use crate::proj_store::ProjStore;

/// Sentinel in [`IdMaps::int_of_ext`] for external ids whose rows were
/// dropped by [`DbLsh::compact`]: the id is still part of the external
/// id space (ids are never recycled) but no longer has a physical row.
/// Guarded everywhere by the tombstone bitset — a dead id is rejected
/// before any map lookup would dereference it.
pub(crate) const DEAD: u32 = u32::MAX;

/// The internal↔external id maps. Present on locality-relabeled builds
/// (where they carry the build permutation) and on any index that has
/// been [`DbLsh::compact`]ed (where external ids become sparse over the
/// dense internal rows — compaction is a second permutation through the
/// same machinery the PR-3 relabeling introduced).
#[derive(Debug)]
pub(crate) struct IdMaps {
    /// `ext_of_int[internal] = external`, one entry per physical row.
    pub(crate) ext_of_int: Vec<u32>,
    /// `int_of_ext[external] = internal`, one entry per external id ever
    /// handed out; [`DEAD`] for ids whose rows were compacted away.
    pub(crate) int_of_ext: Vec<u32>,
}

/// Bulk-load one R*-tree per projected space over `ids`, tree-parallel:
/// tree `i` reads only column view `i` of the (immutable) store. Build,
/// [`DbLsh::compact`] and snapshot load all pack their trees here.
pub(crate) fn build_trees(store: &ProjStore, ids: &[u32], cap: usize) -> Vec<RStarTree> {
    let mut trees: Vec<Option<RStarTree>> = Vec::new();
    trees.resize_with(store.l(), || None);
    std::thread::scope(|s| {
        for (i, slot) in trees.iter_mut().enumerate() {
            s.spawn(move || {
                *slot = Some(RStarTree::bulk_load_with_capacity(&store.view(i), ids, cap));
            });
        }
    });
    // lint: allow(panic-free-surface) — thread::scope joined every tree builder, so each slot was written
    trees.into_iter().map(|t| t.expect("tree built")).collect()
}

/// What one [`DbLsh::compact`] call reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Tombstoned rows whose space was dropped from the store, the
    /// dataset and the maps.
    pub dropped_rows: usize,
    /// Live rows surviving the compaction.
    pub live_rows: usize,
    /// Logical bytes reclaimed — the [`crate::MemoryBreakdown`]
    /// `dead_bytes` figure at the moment of compaction (0 when the call
    /// was a no-op).
    pub reclaimed_bytes: usize,
}

/// A built DB-LSH index.
///
/// Construct through [`crate::DbLshBuilder`] (or the lower-level
/// [`DbLsh::build`]); query through [`DbLsh::k_ann`] /
/// [`DbLsh::search_with`] / [`DbLsh::search_batch`]; maintain dynamically
/// through [`DbLsh::insert`] and [`DbLsh::remove`].
///
/// Internally the index is **flat**: every point's `L` projections live
/// in one row of the shared [`ProjStore`], and the `L` R*-trees store
/// only `u32` ids, resolving coordinates through per-tree column views of
/// the store. See the [`crate::proj_store`] module docs for the layout.
///
/// Removed points are *tombstoned*: their rows stay in the backing
/// [`Dataset`] and in the projection store (ids are stable row indexes)
/// but they are deleted from all `L` trees, so no query ever returns
/// them. [`DbLsh::len`] counts live points only.
///
/// All ids on this public surface — arguments to [`DbLsh::remove`] /
/// [`DbLsh::contains`] / [`DbLsh::point`], return values of
/// [`DbLsh::insert`], and `Neighbor::id` in every query result — are
/// **external** ids: row indexes into the dataset exactly as the caller
/// supplied it. The locality-relabeled internal id space (module docs)
/// shows only in the physical row order of [`DbLsh::data`].
#[derive(Debug)]
pub struct DbLsh {
    pub(crate) params: DbLshParams,
    pub(crate) hasher: GaussianHasher,
    pub(crate) trees: Vec<RStarTree>,
    pub(crate) store: ProjStore,
    /// The point rows in *internal* (store/tree) order — the index's
    /// only copy of the vectors, read by candidate verification and
    /// addressed by id through the maps. Holds the rows of
    /// tombstoned-but-not-yet-compacted ids too; always in lockstep
    /// with the store row for row.
    pub(crate) rows: Dataset,
    /// Internal↔external id maps; `None` while internal id == external
    /// id (identity-order builds that were never compacted).
    pub(crate) maps: Option<IdMaps>,
    /// SQ8 quantized codes of `rows` — the stage-1 pre-filter scans
    /// these before any f32 row is touched. Kept in lockstep with the
    /// rows through insert/compact; the grid (per-dimension `min`/`step`)
    /// is learned once at build and never re-learned, so pruning
    /// decisions — and therefore the prefilter counters — are stable
    /// across churn, compaction and save/load.
    pub(crate) sq8: Sq8Store,
    /// Tombstone bitset over *external* ids (1 = removed). Compaction
    /// drops the rows but keeps the bits: a dead id must answer
    /// `contains == false` / `remove == Ok(false)` forever, at one bit
    /// per id ever handed out.
    pub(crate) removed: Vec<u64>,
    /// Number of live (non-tombstoned) points.
    pub(crate) live: usize,
    /// One past the largest external id ever handed out — the id the
    /// next [`DbLsh::insert`] returns. Exceeds the physical row count
    /// once compaction has dropped dead rows.
    pub(crate) ext_len: usize,
}

impl DbLsh {
    /// Build the index: `L` projections of the full dataset written into
    /// the shared projection store (row-parallel), a locality-preserving
    /// relabel of the rows (unless [`DbLshParams::relabel`] is off), then
    /// one bulk-loaded R*-tree per space (tree-parallel) over the store's
    /// column views.
    ///
    /// The index takes the rows over: a uniquely held `Arc` is unwrapped
    /// (relabeled builds then rewrite the rows in internal order and drop
    /// the original), a shared one is copied once, here. The caller's
    /// handle is never retained, so no later write copies the dataset.
    ///
    /// Fails with [`DbLshError::EmptyDataset`] on an empty dataset and
    /// [`DbLshError::InvalidParameter`] on malformed parameters.
    pub fn build(data: Arc<Dataset>, params: &DbLshParams) -> Result<Self, DbLshError> {
        Self::build_with_grid(data, params, None)
    }

    /// [`DbLsh::build`] with an externally supplied SQ8 quantization
    /// grid. `None` learns the grid from this dataset (the normal path);
    /// `Some` injects a grid learned over a *superset* of the data — the
    /// sharded serving layer uses this so every shard quantizes against
    /// the same grid and per-shard prune decisions (and therefore the
    /// merged prefilter counters) match an unsharded build exactly.
    ///
    /// Grid learning is order-independent (a per-dimension min/max over
    /// the point multiset), so a relabeled and an identity build of the
    /// same rows always learn the same grid.
    pub fn build_with_grid(
        data: Arc<Dataset>,
        params: &DbLshParams,
        grid: Option<Sq8Grid>,
    ) -> Result<Self, DbLshError> {
        params.validate()?;
        if data.is_empty() {
            return Err(DbLshError::EmptyDataset);
        }
        if data.len() > u32::MAX as usize {
            return Err(DbLshError::CapacityExceeded {
                limit: u32::MAX as usize,
            });
        }
        let (l, k) = (params.l, params.k);
        let hasher = GaussianHasher::new(data.dim(), k, l, params.seed);
        let n = data.len();
        let ids: Vec<u32> = (0..n as u32).collect();

        // Phase 1: fill the projection rows (external order) row-parallel — each worker projects a
        // contiguous run of points into all L column windows of its rows
        // (accumulating in f64, storing at f32).
        let width = l * k;
        let mut flat = vec![0.0f32; n * width];
        let threads = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
            .clamp(1, n);
        let rows_per = n.div_ceil(threads);
        std::thread::scope(|s| {
            for (t, chunk) in flat.chunks_mut(rows_per * width).enumerate() {
                let hasher = &hasher;
                let data = &data;
                s.spawn(move || {
                    let mut scratch = vec![0.0f64; k];
                    for (r, row) in chunk.chunks_exact_mut(width).enumerate() {
                        let point = data.point(t * rows_per + r);
                        for i in 0..l {
                            hasher.project_into(i, point, &mut scratch);
                            for (dst, &v) in row[i * k..(i + 1) * k].iter_mut().zip(&scratch) {
                                *dst = v as f32;
                            }
                        }
                    }
                });
            }
        });
        // Phase 2: locality-aware relabeling. The STR leaf order of tree 0
        // over the first projected space is a locality-preserving
        // permutation: relabeled to it, every leaf of every future tree-0
        // bulk load is a contiguous run of row ids, and the other trees'
        // leaves (correlated through the shared Gaussian family) stay far
        // more local than insertion order. Both the projection rows and
        // the dataset rows are laid out in that order so leaf scans and
        // exact-distance verification read near-sequential memory.
        let (maps, rows) = if params.relabel {
            let view0 = StridedCoords::new(&flat, width, 0, k);
            let perm = dblsh_index::str_order(&view0, &ids, params.node_capacity);
            let mut permuted = vec![0.0f32; flat.len()];
            for (int, &ext) in perm.iter().enumerate() {
                let src = ext as usize * width;
                permuted[int * width..(int + 1) * width].copy_from_slice(&flat[src..src + width]);
            }
            flat = permuted;
            let mut int_of_ext = vec![0u32; n];
            for (int, &ext) in perm.iter().enumerate() {
                int_of_ext[ext as usize] = int as u32;
            }
            let rows = data.reordered(&perm);
            // A uniquely held original is freed before the trees are built.
            drop(data);
            (
                Some(IdMaps {
                    ext_of_int: perm,
                    int_of_ext,
                }),
                rows,
            )
        } else {
            (
                None,
                Arc::try_unwrap(data).unwrap_or_else(|shared| Dataset::clone(&shared)),
            )
        };
        let store = ProjStore::from_flat(l, k, flat);

        // Phase 3: bulk-load the L trees in parallel.
        let trees = build_trees(&store, &ids, params.node_capacity);

        // Stage-1 pre-filter state: resolve the quantization grid
        // (injected or learned over the full dataset — order-independent
        // either way), then encode the rows as they lie so the bound
        // scan walks the same layout verification does.
        let grid = match grid {
            Some(g) => {
                if g.dim() != rows.dim() {
                    return Err(DbLshError::DimensionMismatch {
                        expected: rows.dim(),
                        got: g.dim(),
                    });
                }
                g
            }
            None => Sq8Grid::learn(rows.dim(), rows.flat()),
        };
        let sq8 = Sq8Store::build(grid, rows.flat());

        Ok(DbLsh {
            params: params.clone(),
            hasher,
            trees,
            store,
            rows,
            maps,
            sq8,
            removed: vec![0; n.div_ceil(64)],
            live: n,
            ext_len: n,
        })
    }

    /// Map an internal id (tree/store row) to the caller-visible external
    /// id. Identity on unmapped indexes.
    #[inline]
    pub(crate) fn to_ext(&self, internal: u32) -> u32 {
        match &self.maps {
            Some(m) => m.ext_of_int[internal as usize],
            None => internal,
        }
    }

    /// Map an external id to the internal id the trees and the store use.
    /// Callers guard with the tombstone bitset first — a compacted-away
    /// id maps to the [`DEAD`] sentinel.
    #[inline]
    pub(crate) fn to_int(&self, external: u32) -> u32 {
        match &self.maps {
            Some(m) => m.int_of_ext[external as usize],
            None => external,
        }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &DbLshParams {
        &self.params
    }

    /// The index's rows in **physical** (internal) order: the one copy
    /// of the vectors the index owns, laid out the way verification
    /// scans it, with removed points' rows still present until the next
    /// [`DbLsh::compact`]. Row `i` is the point with id `i` only on an
    /// identity-order build that was never compacted — use
    /// [`DbLsh::point`] for id-addressed access.
    pub fn data(&self) -> &Dataset {
        &self.rows
    }

    /// Borrow the point with external id `id`, or `None` if `id` does
    /// not name a live point of this index. Works identically before and
    /// after [`DbLsh::compact`].
    pub fn point(&self, id: u32) -> Option<&[f32]> {
        if !self.contains(id) {
            return None;
        }
        Some(self.rows.point(self.to_int(id) as usize))
    }

    /// Whether this index was built with the locality permutation (see
    /// the module docs and [`DbLshParams::relabel`]).
    pub fn is_relabeled(&self) -> bool {
        self.params.relabel
    }

    /// The projection family.
    pub fn hasher(&self) -> &GaussianHasher {
        &self.hasher
    }

    /// The shared projected-point store backing all `L` trees.
    pub fn proj_store(&self) -> &ProjStore {
        &self.store
    }

    /// The SQ8 quantized code store the stage-1 verification pre-filter
    /// scans (codes in internal order, grid fixed at build).
    pub fn sq8_store(&self) -> &Sq8Store {
        &self.sq8
    }

    /// Per-tree structure statistics (node counts, entry counts, arena
    /// bytes) — the tree side of [`DbLsh::memory_breakdown`].
    pub fn tree_stats(&self) -> Vec<dblsh_index::TreeStats> {
        self.trees.iter().map(|t| t.stats()).collect()
    }

    /// Number of live indexed points (insertions minus removals).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One past the largest external id ever handed out — the id the
    /// next [`DbLsh::insert`] returns. Every id in `0..id_bound()` has
    /// been handed out exactly once (ids are never recycled); ids of
    /// removed points stay tombstoned forever, even after their rows are
    /// reclaimed by [`DbLsh::compact`].
    pub fn id_bound(&self) -> usize {
        self.ext_len
    }

    /// Number of tombstoned rows still occupying physical space (in the
    /// store, the dataset and the maps) — what [`DbLsh::compact`] would
    /// reclaim, and what drives a serving layer's compaction policy.
    pub fn dead_rows(&self) -> usize {
        self.store.len() - self.live
    }

    /// Whether `id` names a live point of this index.
    pub fn contains(&self, id: u32) -> bool {
        (id as usize) < self.ext_len && !self.is_removed(id)
    }

    #[inline]
    pub(crate) fn is_removed(&self, id: u32) -> bool {
        self.removed[(id / 64) as usize] & (1u64 << (id % 64)) != 0
    }

    /// Insert one point: append its row to the index's rows and the
    /// projection store, then insert the id into every tree (R\*
    /// insertion with forced reinsertion). Returns the new point's id —
    /// [`DbLsh::id_bound`] before the call.
    pub fn insert(&mut self, point: &[f32]) -> Result<u32, DbLshError> {
        // DEAD (u32::MAX) is reserved as the dropped-row sentinel, so the
        // largest usable id is u32::MAX - 1.
        if self.ext_len >= u32::MAX as usize {
            return Err(DbLshError::CapacityExceeded {
                limit: u32::MAX as usize,
            });
        }
        let id = self.ext_len as u32;
        // The appended row is the largest external id and the newest
        // internal row at once, so it lands at the tail of every
        // structure: rows, codes, store, and both maps. The push is the
        // first mutation and validates dimensionality and finiteness, so
        // a rejected point leaves the index untouched.
        self.rows.try_push(point)?;
        // The grid is NOT re-learned: a point outside the build-time
        // range is flagged clamped and the pre-filter never prunes it
        // (bound 0), keeping the bound conservative without perturbing
        // existing codes.
        self.sq8.push(point);
        if let Some(m) = &mut self.maps {
            let internal = self.store.len() as u32;
            m.ext_of_int.push(id);
            debug_assert_eq!(m.int_of_ext.len(), id as usize);
            m.int_of_ext.push(internal);
        }
        let store_id = self.store.push_projected(&self.hasher, point);
        debug_assert_eq!(
            store_id,
            self.to_int(id),
            "store rows out of step with the id maps"
        );
        let store = &self.store;
        for (i, tree) in self.trees.iter_mut().enumerate() {
            tree.insert(&store.view(i), store_id);
        }
        if self.removed.len() * 64 <= id as usize {
            self.removed.push(0);
        }
        self.live += 1;
        self.ext_len += 1;
        Ok(id)
    }

    /// Remove the point `id` from all `L` trees, tombstoning its dataset
    /// row. Returns `Ok(true)` if the point was live, `Ok(false)` if it
    /// had already been removed, and `Err(UnknownId)` if `id` never named
    /// a point of this index.
    ///
    /// The removal descends each tree guided by the id's stored
    /// projection row — no re-projection work is done.
    pub fn remove(&mut self, id: u32) -> Result<bool, DbLshError> {
        if id as usize >= self.ext_len {
            return Err(DbLshError::UnknownId { id });
        }
        if self.is_removed(id) {
            return Ok(false);
        }
        let internal = self.to_int(id);
        let store = &self.store;
        for (i, tree) in self.trees.iter_mut().enumerate() {
            let found = tree.remove(&store.view(i), internal);
            debug_assert!(
                found,
                "live id {id} (internal {internal}) missing from tree {i}"
            );
        }
        self.removed[(id / 64) as usize] |= 1u64 << (id % 64);
        self.live -= 1;
        Ok(true)
    }

    /// Reclaim the space of every tombstoned row: rewrite the projection
    /// store, the dataset rows and the id maps without the dead rows, and
    /// rebuild the `L` trees over the compacted store through the bulk
    /// path. External ids are **preserved** — live points keep the ids
    /// they had, dead ids stay dead forever (never recycled) — and
    /// canonical-mode query answers ([`DbLsh::search_canonical`]) are
    /// byte-identical before and after, because per-round window
    /// candidate *sets* and per-row distances are unchanged. (The classic
    /// [`DbLsh::k_ann`] mode stops at leaf-batch granularity, and
    /// rebuilding the trees can move leaf boundaries, so it guarantees
    /// the same candidate pool but not bit-equal early-exit points.)
    ///
    /// The relative internal order of the surviving rows is kept, so the
    /// locality of a relabeled build survives compaction, and every
    /// structure is rewritten once, in that one order.
    ///
    /// No-op (and cheap) when there are no dead rows. Cost otherwise is
    /// `O(n)` copying plus the `L` parallel bulk loads — comparable to a
    /// fresh build minus all projection work.
    pub fn compact(&mut self) -> CompactionStats {
        let dropped = self.dead_rows();
        let live = self.live;
        if dropped == 0 {
            return CompactionStats {
                dropped_rows: 0,
                live_rows: live,
                reclaimed_bytes: 0,
            };
        }
        let reclaimed_bytes = self.memory_breakdown().dead_bytes;
        let n_old = self.store.len();
        let (l, k) = (self.params.l, self.params.k);
        let width = l * k;

        // The compaction permutation: surviving rows keep their relative
        // internal order (`keep[new_int] = old_int`, ascending).
        let mut keep: Vec<u32> = Vec::with_capacity(live);
        for old_int in 0..n_old as u32 {
            if !self.is_removed(self.to_ext(old_int)) {
                keep.push(old_int);
            }
        }
        debug_assert_eq!(keep.len(), live, "live counter out of sync");
        // Surviving rows keep their codes (and the build-time grid), so
        // prune decisions are byte-identical across a compaction.
        self.sq8 = self.sq8.retained(&keep);

        // The surviving dataset rows were validated on the way in, so
        // they are copied without a second finiteness check.
        self.rows = self.rows.reordered(&keep);

        // New projection rows and id maps, in one pass over `keep`.
        let mut flat = Vec::with_capacity(live * width);
        let mut ext_of_int = Vec::with_capacity(live);
        let mut int_of_ext = vec![DEAD; self.ext_len];
        for (new_int, &old_int) in keep.iter().enumerate() {
            flat.extend_from_slice(self.store.row(old_int));
            let ext = self.to_ext(old_int);
            ext_of_int.push(ext);
            int_of_ext[ext as usize] = new_int as u32;
        }

        // Swap everything in, then rebuild the trees over the compacted
        // store (tree-parallel, exactly the build path). The tombstone
        // bits of the dropped ids stay set — one bit per id is the
        // price of never recycling ids.
        self.store = ProjStore::from_flat(l, k, flat);
        self.maps = Some(IdMaps {
            ext_of_int,
            int_of_ext,
        });
        let ids: Vec<u32> = (0..live as u32).collect();
        self.trees = build_trees(&self.store, &ids, self.params.node_capacity);

        CompactionStats {
            dropped_rows: dropped,
            live_rows: live,
            reclaimed_bytes,
        }
    }

    /// Verify cross-structure invariants: the store mirrors the dataset
    /// row for row, the id maps are mutually inverse over the physical
    /// rows (with every compacted-away id tombstoned and mapped to the
    /// dead sentinel), every tree holds exactly the live (internal) ids,
    /// at exactly the coordinates the hasher assigns their rows, and
    /// satisfies its own R\* invariants. Panics with a
    /// description on violation. Exposed for tests and debugging; cost
    /// is `O(L * n * (K * d + log n))`.
    pub fn check_invariants(&self) {
        let rows = self.store.len();
        assert_eq!(
            rows,
            self.rows.len(),
            "projection store out of sync with dataset"
        );
        assert!(rows <= self.ext_len, "more rows than ids handed out");
        if let Some(m) = &self.maps {
            assert_eq!(m.ext_of_int.len(), rows, "ext_of_int out of step");
            assert_eq!(m.int_of_ext.len(), self.ext_len, "int_of_ext out of step");
            for int in 0..rows {
                let ext = m.ext_of_int[int] as usize;
                assert!(ext < self.ext_len, "row {int} maps to unissued id {ext}");
                assert_eq!(
                    m.int_of_ext[ext], int as u32,
                    "id maps are not inverse at internal {int}"
                );
            }
            let present = m.int_of_ext.iter().filter(|&&i| i != DEAD).count();
            assert_eq!(present, rows, "int_of_ext names phantom rows");
            for (ext, &int) in m.int_of_ext.iter().enumerate() {
                if int == DEAD {
                    assert!(
                        self.is_removed(ext as u32),
                        "id {ext} has no row but is not tombstoned"
                    );
                }
            }
        } else {
            assert_eq!(self.ext_len, rows, "unmapped index must have dense ids");
        }
        assert_eq!(self.sq8.len(), rows, "sq8 code store out of sync");
        assert_eq!(
            self.sq8.grid().dim(),
            self.rows.dim(),
            "sq8 grid dimensionality out of step with the dataset"
        );
        // Codes must be encoded over the *internal* row order: re-encode
        // row 0 under the store's own grid and compare.
        if rows > 0 {
            let probe = Sq8Store::build(self.sq8.grid().clone(), self.rows.point(0));
            assert_eq!(
                probe.codes_row(0),
                self.sq8.codes_row(0),
                "sq8 codes do not encode the internal row order"
            );
        }
        let live_ids: Vec<u32> = {
            let mut v: Vec<u32> = (0..self.ext_len as u32)
                .filter(|&ext| !self.is_removed(ext))
                .map(|ext| self.to_int(ext))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(live_ids.len(), self.live, "live counter out of sync");
        let mut proj = vec![0.0f64; self.params.k];
        for (i, tree) in self.trees.iter().enumerate() {
            let view = self.store.view(i);
            tree.check_invariants(&view);
            assert_eq!(tree.len(), self.live, "tree {i} size != live count");
            let mut ids: Vec<u32> = tree.iter_points(&view).map(|(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(ids, live_ids, "tree {i} does not hold exactly the live ids");
            for (id, coords) in tree.iter_points(&view) {
                self.hasher
                    .project_into(i, self.rows.point(id as usize), &mut proj);
                assert!(
                    coords.iter().zip(&proj).all(|(&c, &p)| c == p as f32),
                    "tree {i} stores internal id {id} at stale coordinates"
                );
            }
        }
    }

    /// Estimate a radius-ladder start from the data: the median
    /// nearest-neighbor distance within an evenly spaced sample, divided
    /// by `c^4`. Starting the ladder below the true NN radius only costs
    /// a few empty probe rounds (each `O(L log n)`); starting above it
    /// makes the very first `(r, c)`-NN probe accept points within `c*r`
    /// that are far beyond the real neighbors, which destroys recall —
    /// so the estimate is deliberately biased low.
    ///
    /// Cost: one blocked pass over the rows, split across the available
    /// threads. Each block of 256 rows is read from memory once and stays
    /// in cache while every probe's distances to it are computed (with
    /// [`dblsh_data::kernels::sq_dist_block`], bit-identical per row to
    /// `sq_dist`). A per-probe minimum does not depend on the order rows
    /// are visited in, so the estimate is bit-identical to one full scan
    /// per probe.
    pub fn estimate_r_min(data: &Dataset, params: &DbLshParams, sample: usize) -> f64 {
        let n = data.len();
        if n < 2 {
            return params.r_min;
        }
        // Exact NN distance of up to 16 evenly spaced probes against the
        // *full* dataset. Sampling both sides instead would overestimate
        // badly on clustered data (a sparse sample sees inter-cluster
        // distances, not NN distances).
        let probes = sample.clamp(1, 16).min(n);
        let step = (n / probes).max(1);
        let probe_rows: Vec<usize> = (0..n).step_by(step).take(probes).collect();
        let threads = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
            .clamp(1, n.div_ceil(R_MIN_BLOCK_ROWS));
        let rows_per = n.div_ceil(threads);
        // best[t][p]: probe p's nearest nonzero squared distance among
        // thread t's rows.
        let mut best = vec![vec![f64::INFINITY; probes]; threads];
        std::thread::scope(|s| {
            for (t, best) in best.iter_mut().enumerate() {
                let rows = t * rows_per..((t + 1) * rows_per).min(n);
                let probe_rows = &probe_rows;
                s.spawn(move || nearest_nonzero(data, probe_rows, rows, best));
            }
        });
        let mut nn_dists: Vec<f64> = (0..probes)
            .map(|p| best.iter().map(|b| b[p]).fold(f64::INFINITY, f64::min))
            .filter(|d| d.is_finite())
            .map(f64::sqrt)
            .collect();
        if nn_dists.is_empty() {
            return params.r_min;
        }
        nn_dists.sort_by(f64::total_cmp);
        let median = nn_dists[nn_dists.len() / 2];
        (median / params.c.powi(4)).max(f64::MIN_POSITIVE)
    }
}

/// Rows per block of [`DbLsh::estimate_r_min`]'s pass: 256 rows of a
/// 96-d dataset are 96 KiB, which stays in L2 across all 16 probes.
const R_MIN_BLOCK_ROWS: usize = 256;

/// Lower `best[p]` to the smallest nonzero squared distance from row
/// `probe_rows[p]` to any other row in `rows`, a block at a time.
fn nearest_nonzero(data: &Dataset, probe_rows: &[usize], rows: Range<usize>, best: &mut [f64]) {
    let mut ids: Vec<u32> = Vec::with_capacity(R_MIN_BLOCK_ROWS);
    let mut d2 = vec![0.0f32; R_MIN_BLOCK_ROWS];
    for start in rows.clone().step_by(R_MIN_BLOCK_ROWS) {
        ids.clear();
        ids.extend(start as u32..(start + R_MIN_BLOCK_ROWS).min(rows.end) as u32);
        let d2 = &mut d2[..ids.len()];
        for (best, &p) in best.iter_mut().zip(probe_rows) {
            data.sq_dists(data.point(p), &ids, d2);
            for (&j, &d) in ids.iter().zip(d2.iter()) {
                let d = d as f64;
                if j as usize != p && d > 0.0 && d < *best {
                    *best = d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};

    fn small_data() -> Arc<Dataset> {
        Arc::new(gaussian_mixture(&MixtureConfig {
            n: 1000,
            dim: 16,
            clusters: 10,
            ..Default::default()
        }))
    }

    #[test]
    fn build_creates_l_trees_with_all_points() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(6, 3);
        let idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        assert_eq!(idx.trees.len(), 3);
        for (i, t) in idx.trees.iter().enumerate() {
            assert_eq!(t.len(), 1000);
            assert_eq!(t.dim(), 6);
            t.check_invariants(&idx.store.view(i));
        }
        assert_eq!(idx.store.len(), 1000);
        assert_eq!(idx.store.row_width(), 18);
        assert_eq!(idx.len(), 1000);
        assert!(!idx.is_empty());
    }

    #[test]
    fn build_is_deterministic() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(4, 2);
        let a = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let b = DbLsh::build(Arc::clone(&data), &params).unwrap();
        // same projections => identical stores and same tree MBRs
        assert_eq!(a.store.row(0), b.store.row(0));
        for i in 0..a.trees.len() {
            assert_eq!(
                a.trees[i].mbr(&a.store.view(i)),
                b.trees[i].mbr(&b.store.view(i))
            );
        }
    }

    #[test]
    fn estimate_r_min_is_positive_and_modest() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len());
        let r = DbLsh::estimate_r_min(&data, &params, 100);
        assert!(r > 0.0);
        assert!(r < 1e4);
    }

    /// The estimate as 16 separate scans, one full pass per probe: the
    /// reference the blocked pass must match bit for bit.
    fn r_min_by_scans(data: &Dataset, params: &DbLshParams, sample: usize) -> f64 {
        let n = data.len();
        if n < 2 {
            return params.r_min;
        }
        let probes = sample.clamp(1, 16).min(n);
        let step = (n / probes).max(1);
        let mut nn_dists: Vec<f64> = Vec::new();
        for i in (0..n).step_by(step).take(probes) {
            let mut best = f64::INFINITY;
            for j in 0..n {
                let d = dblsh_data::dataset::sq_dist(data.point(i), data.point(j)) as f64;
                if i != j && d > 0.0 && d < best {
                    best = d;
                }
            }
            if best.is_finite() {
                nn_dists.push(best.sqrt());
            }
        }
        if nn_dists.is_empty() {
            return params.r_min;
        }
        nn_dists.sort_by(f64::total_cmp);
        (nn_dists[nn_dists.len() / 2] / params.c.powi(4)).max(f64::MIN_POSITIVE)
    }

    #[test]
    fn estimate_r_min_is_bit_identical_to_per_probe_scans() {
        let params = DbLshParams::paper_defaults(1000).with_r_min(0.75);
        let dim = 12;
        for n in [2usize, 15, 16, 17, 5000] {
            let mut s = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut value = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f32 / (1u64 << 24) as f32 * 50.0 - 25.0
            };
            let distinct: Vec<f32> = (0..n * dim).map(|_| value()).collect();
            // Rows in equal pairs: every probe's zero distance is skipped.
            let pairs: Vec<f32> = (0..n)
                .flat_map(|i| distinct[(i / 2) * dim..(i / 2 + 1) * dim].to_vec())
                .collect();
            // One repeated row: no nonzero distance at all.
            let constant: Vec<f32> = distinct[..dim].repeat(n);
            for flat in [distinct, pairs, constant] {
                let data = Dataset::from_flat(dim, flat);
                for sample in [1, 16, 100] {
                    assert_eq!(
                        DbLsh::estimate_r_min(&data, &params, sample).to_bits(),
                        r_min_by_scans(&data, &params, sample).to_bits(),
                        "n={n} sample={sample}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = Arc::new(Dataset::empty(8));
        let err = DbLsh::build(data, &DbLshParams::paper_defaults(10)).unwrap_err();
        assert_eq!(err, DbLshError::EmptyDataset);
    }

    #[test]
    fn invalid_params_rejected_not_panicking() {
        let data = small_data();
        let err = DbLsh::build(
            Arc::clone(&data),
            &DbLshParams::paper_defaults(1000).with_c(0.5),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DbLshError::InvalidParameter { param: "c", .. }
        ));
    }

    #[test]
    fn insert_grows_every_tree_and_the_store() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(5, 3);
        let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let p = vec![0.25f32; 16];
        let id = idx.insert(&p).unwrap();
        assert_eq!(id, 1000);
        assert_eq!(idx.len(), 1001);
        assert_eq!(idx.store.len(), 1001);
        assert!(idx.contains(id));
        for (i, t) in idx.trees.iter().enumerate() {
            assert_eq!(t.len(), 1001);
            t.check_invariants(&idx.store.view(i));
        }
        // the backing dataset gained the row
        assert_eq!(idx.data().point(1000), &p[..]);
    }

    #[test]
    fn insert_validates_input() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(4, 2);
        let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        assert_eq!(
            idx.insert(&[1.0; 3]).unwrap_err(),
            DbLshError::DimensionMismatch {
                expected: 16,
                got: 3
            }
        );
        assert_eq!(
            idx.insert(&[f32::NAN; 16]).unwrap_err(),
            DbLshError::NonFiniteCoordinate
        );
        assert_eq!(idx.len(), 1000, "failed inserts must not change the index");
        assert_eq!(idx.store.len(), 1000);
    }

    #[test]
    fn remove_tombstones_and_shrinks_trees() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(5, 3);
        let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        assert!(idx.remove(17).unwrap());
        assert!(!idx.remove(17).unwrap(), "second removal reports false");
        assert_eq!(
            idx.remove(5000).unwrap_err(),
            DbLshError::UnknownId { id: 5000 }
        );
        assert_eq!(idx.len(), 999);
        assert!(!idx.contains(17));
        // the store keeps the tombstoned row (ids are stable)
        assert_eq!(idx.store.len(), 1000);
        for (i, t) in idx.trees.iter().enumerate() {
            assert_eq!(t.len(), 999);
            t.check_invariants(&idx.store.view(i));
        }
    }

    #[test]
    fn insert_after_remove_uses_fresh_id() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(4, 2);
        let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        idx.remove(0).unwrap();
        let id = idx.insert(&[1.5f32; 16]).unwrap();
        assert_eq!(id, 1000, "tombstoned rows are never recycled");
        assert!(idx.contains(id));
        assert!(!idx.contains(0));
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    fn compact_reclaims_dead_rows_and_preserves_ids() {
        for relabel in [true, false] {
            let data = small_data();
            let params = DbLshParams::paper_defaults(data.len())
                .with_kl(5, 3)
                .with_relabel(relabel);
            let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
            for id in 0..500u32 {
                idx.remove(id).unwrap();
            }
            assert_eq!(idx.dead_rows(), 500);
            assert!(idx.memory_breakdown().dead_bytes > 0);
            let before_total = idx.memory_breakdown().total();
            let stats = idx.compact();
            assert_eq!(stats.dropped_rows, 500);
            assert_eq!(stats.live_rows, 500);
            assert!(stats.reclaimed_bytes > 0);
            idx.check_invariants();
            assert_eq!(idx.dead_rows(), 0);
            assert_eq!(idx.memory_breakdown().dead_bytes, 0);
            assert!(
                idx.memory_breakdown().total() < before_total,
                "relabel={relabel}: total bytes must shrink"
            );
            assert_eq!(idx.len(), 500);
            assert_eq!(idx.id_bound(), 1000, "external id space is preserved");
            assert_eq!(idx.data().len(), 500, "dead dataset rows dropped");
            assert_eq!(idx.store.len(), 500, "dead store rows dropped");
            for id in 0..500u32 {
                assert!(!idx.contains(id));
                assert!(!idx.remove(id).unwrap(), "dead ids stay dead");
                assert!(idx.point(id).is_none());
            }
            for id in 500..1000u32 {
                assert!(idx.contains(id));
                assert_eq!(idx.point(id).unwrap(), data.point(id as usize));
            }
            // ids are still never recycled after a compaction
            let id = idx.insert(&[2.5f32; 16]).unwrap();
            assert_eq!(id, 1000);
            idx.check_invariants();
        }
    }

    #[test]
    fn compact_on_clean_index_is_a_noop() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(4, 2);
        let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let stats = idx.compact();
        assert_eq!(stats.dropped_rows, 0);
        assert_eq!(stats.reclaimed_bytes, 0);
        assert!(idx.is_relabeled(), "no-op compaction keeps the layout");
        idx.check_invariants();
    }

    #[test]
    fn compact_preserves_canonical_answers() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len())
            .with_kl(6, 3)
            .with_r_min(0.5);
        let mut never = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let mut compacted = DbLsh::build(Arc::clone(&data), &params).unwrap();
        for id in (0..1000u32).step_by(3) {
            never.remove(id).unwrap();
            compacted.remove(id).unwrap();
        }
        compacted.compact();
        let opts = crate::SearchOptions::default();
        for qi in [1usize, 400, 999] {
            let q = data.point(qi);
            let a = never.search_canonical(q, 8, &opts).unwrap();
            let b = compacted.search_canonical(q, 8, &opts).unwrap();
            assert_eq!(a.neighbors, b.neighbors, "query {qi}");
            assert_eq!(a.stats, b.stats, "query {qi}");
        }
    }

    #[test]
    fn repeated_compactions_through_churn_stay_consistent() {
        let data = small_data();
        let params = DbLshParams::paper_defaults(data.len()).with_kl(4, 2);
        let mut idx = DbLsh::build(Arc::clone(&data), &params).unwrap();
        let mut next_remove = 0u32;
        for round in 0..4 {
            for _ in 0..100 {
                idx.remove(next_remove).unwrap();
                next_remove += 2; // 400 removes, all inside the bulk ids
            }
            for i in 0..50 {
                idx.insert(&[round as f32 + i as f32 * 0.01; 16]).unwrap();
            }
            idx.compact();
            idx.check_invariants();
            assert_eq!(idx.dead_rows(), 0);
        }
        assert_eq!(idx.len(), 1000 - 400 + 200);
        assert_eq!(idx.id_bound(), 1000 + 200);
    }
}
