//! Query operations: pausable window cursors, best-first incremental
//! nearest-neighbor iteration (Hjaltason–Samet distance browsing), and
//! convenience wrappers.
//!
//! All cursors run over the tree's packed arena: a descent tests a node's
//! children on one contiguous run of boxes and scans a leaf as one run of
//! ids — no rectangle is cloned and nothing is allocated per step (the
//! only allocations are the cursor's own stack/heap, once per query).

use std::borrow::BorrowMut;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::coords::CoordSource;
use crate::rect::{geom, Rect};
use crate::tree::RStarTree;
use crate::window::{ceil_f32, floor_f32, sweep, Window32};

impl RStarTree {
    /// Lazy window query: yields the id of every point inside `window`,
    /// in index order. The cursor borrows the tree and the coordinate
    /// source and owns its buffers; it can be dropped at any time, which
    /// is how Algorithm 1 of the paper stops after `2tL + 1` verified
    /// candidates. (Coordinates of a yielded id are one
    /// [`CoordSource::coords`] call away for callers that need them.)
    ///
    /// Contract (debug-checked): `window.dim() == self.dim() == src.dim()`.
    pub fn window<'t, S: CoordSource>(&'t self, src: &'t S, window: &Rect) -> WindowCursor<'t, S> {
        debug_assert_eq!(window.dim(), self.dim(), "window dimensionality mismatch");
        let mut buf = WindowScratch::new();
        buf.set(window.lo().iter().copied(), window.hi().iter().copied());
        WindowCursor::start(self, src, buf)
    }

    /// [`RStarTree::window`] over the hypercube of side `side` centered
    /// at `center` — the same corners [`Rect::centered_cube`] computes —
    /// running in the caller's `buf` instead of buffers of its own: a
    /// caller that keeps one [`WindowScratch`] probes without allocating.
    ///
    /// Contract (debug-checked): `center.len() == self.dim() == src.dim()`
    /// and `side >= 0`.
    pub fn window_cube_in<'t, S: CoordSource>(
        &'t self,
        src: &'t S,
        center: &[f64],
        side: f64,
        buf: &'t mut WindowScratch,
    ) -> WindowCursor<'t, S, &'t mut WindowScratch> {
        buf.set_cube(center, side);
        self.window_in(src, buf)
    }

    /// [`RStarTree::window`] over the window `buf` holds — the one its
    /// last [`WindowScratch::set_cube`] (or cube probe) rounded — so
    /// several trees over the same space probe one window rounded once.
    ///
    /// Contract (debug-checked): the window, `src` and the tree share
    /// one dimensionality.
    pub fn window_in<'t, S: CoordSource>(
        &'t self,
        src: &'t S,
        buf: &'t mut WindowScratch,
    ) -> WindowCursor<'t, S, &'t mut WindowScratch> {
        WindowCursor::start(self, src, buf)
    }

    /// Eager window query, mainly for tests.
    pub fn window_all<S: CoordSource>(&self, src: &S, window: &Rect) -> Vec<u32> {
        self.window(src, window).collect()
    }

    /// Best-first incremental nearest-neighbor iterator from `q`; yields
    /// `(id, squared_distance)` in ascending distance order.
    ///
    /// Contract (debug-checked): `q.len() == self.dim() == src.dim()` and
    /// `q` is finite.
    pub fn nearest_iter<'t, S: CoordSource>(&'t self, src: &'t S, q: &[f64]) -> NearestIter<'t, S> {
        debug_assert_eq!(q.len(), self.dim(), "query dimensionality mismatch");
        debug_assert_eq!(src.dim(), self.dim(), "source dimensionality mismatch");
        debug_assert!(q.iter().all(|v| v.is_finite()), "non-finite query");
        let mut heap = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(Reverse(HeapItem {
                dist2: 0.0,
                kind: ItemKind::Node(self.root()),
            }));
        }
        NearestIter {
            tree: self,
            src,
            q: q.into(),
            heap,
            dists: Vec::new(),
        }
    }

    /// The `k` nearest points to `q` as `(id, squared_distance)`,
    /// ascending.
    ///
    /// Unlike [`RStarTree::nearest_iter`]`.take(k)` — which must feed
    /// every point of every opened leaf through the global priority
    /// queue to stay resumable — this runs classic bounded best-first
    /// search: a min-heap frontier of unopened nodes and a `k`-element
    /// max-heap of results, with leaf points and subtrees beyond the
    /// current k-th distance pruned instead of enqueued. Same answers,
    /// a fraction of the heap traffic.
    pub fn k_nearest<S: CoordSource>(&self, src: &S, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        debug_assert_eq!(q.len(), self.dim(), "query dimensionality mismatch");
        debug_assert_eq!(src.dim(), self.dim(), "source dimensionality mismatch");
        debug_assert!(q.iter().all(|v| v.is_finite()), "non-finite query");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let dim = self.dim();
        let mut frontier: BinaryHeap<Reverse<HeapItem>> = BinaryHeap::new();
        frontier.push(Reverse(HeapItem {
            dist2: 0.0,
            kind: ItemKind::Node(self.root()),
        }));
        // Max-heap of the best k points seen; its top is the pruning bound.
        let mut result: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k + 1);
        while let Some(Reverse(item)) = frontier.pop() {
            if result.len() == k && result.peek().is_some_and(|t| item.dist2 >= t.dist2) {
                break; // the frontier is ascending: nothing can improve
            }
            let ItemKind::Node(idx) = item.kind else {
                continue; // the frontier holds nodes only
            };
            if self.is_leaf(idx) {
                for &c in self.leaf_ids(idx) {
                    let d2 = sq_dist(q, src.coords(c));
                    if result.len() < k {
                        result.push(HeapItem {
                            dist2: d2,
                            kind: ItemKind::Point(c),
                        });
                    } else if result.peek().is_some_and(|t| d2 < t.dist2) {
                        result.pop();
                        result.push(HeapItem {
                            dist2: d2,
                            kind: ItemKind::Point(c),
                        });
                    }
                }
            } else {
                let bound = if result.len() == k {
                    result.peek().map_or(f64::INFINITY, |t| t.dist2)
                } else {
                    f64::INFINITY
                };
                let run = self.spans[idx].range();
                for (c, b) in run.clone().zip(self.run_bounds(run).chunks_exact(2 * dim)) {
                    let (blo, bhi) = b.split_at(dim);
                    let md2 = geom::min_dist2(blo, bhi, q);
                    if md2 < bound {
                        frontier.push(Reverse(HeapItem {
                            dist2: md2,
                            kind: ItemKind::Node(c),
                        }));
                    }
                }
            }
        }
        // into_sorted_vec is ascending by the same Ord the heap used.
        result
            .into_sorted_vec()
            .into_iter()
            .filter_map(|item| match item.kind {
                // The result heap holds points only.
                ItemKind::Point(id) => Some((id, item.dist2)),
                ItemKind::Node(_) => None,
            })
            .collect()
    }

    /// Iterate over every stored point (depth-first order, which is
    /// leaf order).
    pub fn iter_points<'t, S: CoordSource>(
        &'t self,
        src: &'t S,
    ) -> impl Iterator<Item = (u32, &'t [f32])> + 't {
        self.ids.iter().map(move |&id| (id, src.coords(id)))
    }
}

/// The buffers of one window probe: the window's inward-rounded `f32`
/// corners, the DFS stack and the current leaf's hits. A
/// [`RStarTree::window`] cursor allocates its own; callers that probe in
/// a loop keep one and pass it to [`RStarTree::window_cube_in`].
#[derive(Debug, Default)]
pub struct WindowScratch {
    /// The window in storage precision (see the `window` module): the lo
    /// corner's `dim` values, then the hi corner's.
    corners: Vec<f32>,
    /// (inner node, next child node) — explicit DFS stack so the
    /// enumeration can pause between leaves.
    stack: Vec<(u32, u32)>,
    /// Hits of the current leaf; `hit_at` is the drain position.
    hits: Vec<u32>,
    hit_at: usize,
}

impl WindowScratch {
    /// Empty buffers (const-constructible for thread-local pools); they
    /// size themselves on first use.
    pub const fn new() -> Self {
        WindowScratch {
            corners: Vec::new(),
            stack: Vec::new(),
            hits: Vec::new(),
            hit_at: 0,
        }
    }

    /// Round the window with `f64` corners `lo`, `hi` inward into
    /// `corners`.
    fn set(&mut self, lo: impl Iterator<Item = f64>, hi: impl Iterator<Item = f64>) {
        self.corners.clear();
        self.corners.extend(lo.map(ceil_f32));
        self.corners.extend(hi.map(floor_f32));
    }

    /// Make the hypercube of side `side` centered at `center` — the
    /// corners [`Rect::centered_cube`] computes, rounded inward once —
    /// the window of the next [`RStarTree::window_in`] cursors and
    /// [`WindowScratch::scan`] calls.
    ///
    /// Contract (debug-checked): `side >= 0`.
    pub fn set_cube(&mut self, center: &[f64], side: f64) {
        debug_assert!(side >= 0.0, "invalid width {side}");
        let half = side / 2.0;
        self.set(
            center.iter().map(|&c| c - half),
            center.iter().map(|&c| c + half),
        );
    }

    /// The ids of the run `ids` whose points lie in the window of the
    /// last [`WindowScratch::set_cube`], ascending: the membership test
    /// of a leaf scan, swept over points that no tree holds. The hits
    /// stay in this scratch until its next probe.
    ///
    /// Contract (debug-checked): the window and `src` share one
    /// dimensionality.
    pub fn scan<S: CoordSource>(&mut self, src: &S, ids: Range<u32>) -> &[u32] {
        debug_assert_eq!(
            self.corners.len(),
            2 * src.dim(),
            "window dimensionality mismatch"
        );
        self.stack.clear();
        self.hits.clear();
        let window = Window32::from_corners(&self.corners);
        sweep(window, ids, |id| src.coords(id), &mut self.hits);
        self.hit_at = self.hits.len();
        &self.hits
    }
}

/// `(id, squared distance to q)` for every id of the run `ids`, ascending
/// by distance and then by id: the stream [`RStarTree::nearest_iter`]
/// yields, for points that no tree holds. Distances are computed as the
/// iterator computes them, so the two streams merge exactly.
///
/// Contract (debug-checked): `q.len() == src.dim()`.
pub fn nearest_run<S: CoordSource>(src: &S, ids: Range<u32>, q: &[f64]) -> Vec<(u32, f64)> {
    debug_assert_eq!(q.len(), src.dim(), "query dimensionality mismatch");
    let mut out: Vec<(u32, f64)> = ids.map(|id| (id, sq_dist(q, src.coords(id)))).collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

/// Lazy depth-first window-query cursor. See [`RStarTree::window`].
///
/// The cursor works one leaf at a time: when the descent reaches a leaf
/// whose box intersects the window, the whole leaf is scanned in one
/// tight loop into a hit buffer (so the containment tests and the
/// scattered coordinate reads stay hot, uninterrupted by the caller),
/// and `next()` then drains the buffer. Leaves whose boxes are *fully
/// contained* in the window skip the coordinate reads entirely — every
/// id is a hit by construction. The descent tests a node's children on
/// one contiguous run of the tree's boxes (see the `tree` module).
/// Pausing granularity is one leaf (at most `max_entries` points
/// scanned beyond where the caller stops).
///
/// Callers that verify candidates in blocks consume whole leaves through
/// [`WindowCursor::next_batch`] instead of the per-id [`Iterator`]; both
/// interfaces share the same traversal state and can be mixed.
///
/// `B` is where the traversal state lives: a [`WindowScratch`] of the
/// cursor's own, or the caller's by `&mut`.
pub struct WindowCursor<'t, S, B = WindowScratch> {
    tree: &'t RStarTree,
    src: &'t S,
    buf: B,
}

impl<'t, S: CoordSource, B: BorrowMut<WindowScratch>> WindowCursor<'t, S, B> {
    /// Cursor over the window `buf` holds, positioned before the first
    /// hit.
    fn start(tree: &'t RStarTree, src: &'t S, mut buf: B) -> Self {
        let st = buf.borrow_mut();
        debug_assert_eq!(
            st.corners.len(),
            2 * tree.dim(),
            "window dimensionality mismatch"
        );
        debug_assert_eq!(src.dim(), tree.dim(), "source dimensionality mismatch");
        st.stack.clear();
        st.hits.clear();
        st.hit_at = 0;
        let mut cursor = WindowCursor { tree, src, buf };
        // A single-leaf tree scans the root directly (it has no stored
        // box); taller trees start with the root on the inner-node stack.
        let root = tree.root();
        if tree.is_leaf(root) {
            cursor.scan_leaf(root, false);
        } else {
            let first = tree.spans[root].first;
            cursor.buf.borrow_mut().stack.push((root as u32, first));
        }
        cursor
    }

    /// Advance to the next leaf with in-window points and return all of
    /// them at once — the batch interface the blocked verification
    /// pipeline drains (one tree leaf per batch, so the pause granularity
    /// is identical to the per-id [`Iterator`] path). Returns `None` once
    /// the window is exhausted. Ids not yet drained through `next()` are
    /// included in the first batch.
    pub fn next_batch(&mut self) -> Option<&[u32]> {
        loop {
            let st = self.buf.borrow();
            if st.hit_at < st.hits.len() {
                break;
            }
            self.descend_to_next_leaf()?;
        }
        let st = self.buf.borrow_mut();
        let at = std::mem::replace(&mut st.hit_at, st.hits.len());
        Some(&st.hits[at..])
    }

    /// Walk the DFS stack to the next leaf intersecting the window and
    /// scan it into the hit buffer. `None` when the traversal is done.
    fn descend_to_next_leaf(&mut self) -> Option<()> {
        let tree = self.tree;
        loop {
            let st = self.buf.borrow_mut();
            let top = st.stack.last_mut()?;
            let (node, child) = (top.0 as usize, top.1 as usize);
            if child >= tree.spans[node].range().end {
                st.stack.pop();
                continue;
            }
            top.1 += 1;
            let (blo, bhi) = tree.run_bounds(child..child + 1).split_at(tree.dim());
            let window = Window32::from_corners(&st.corners);
            if window.intersects(blo, bhi) {
                // All leaves share one depth: a leaf child ends the descent.
                if tree.is_leaf(child) {
                    let contained = window.contains_box(blo, bhi);
                    self.scan_leaf(child, contained);
                    return Some(());
                }
                st.stack.push((child as u32, tree.spans[child].first));
            }
        }
    }

    /// Refill the hit buffer from leaf `leaf`: all of it when the leaf is
    /// `fully_contained`, else the points inside the window, compacted
    /// without a branch on the (unpredictable) test outcome.
    fn scan_leaf(&mut self, leaf: usize, fully_contained: bool) {
        let ids = self.tree.leaf_ids(leaf);
        let st = self.buf.borrow_mut();
        st.hit_at = 0;
        st.hits.clear();
        if fully_contained {
            st.hits.extend_from_slice(ids);
            return;
        }
        // Every id is stored at the write position; the position moves
        // on only past the ids that are inside.
        st.hits.resize(ids.len(), 0);
        let window = Window32::from_corners(&st.corners);
        let mut kept = 0;
        for &id in ids {
            st.hits[kept] = id;
            kept += usize::from(window.contains_point(self.src.coords(id)));
        }
        st.hits.truncate(kept);
    }
}

impl<S: CoordSource, B: BorrowMut<WindowScratch>> Iterator for WindowCursor<'_, S, B> {
    type Item = u32;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // Fast path: drain the current leaf's hits.
            let st = self.buf.borrow_mut();
            if let Some(&id) = st.hits.get(st.hit_at) {
                st.hit_at += 1;
                return Some(id);
            }
            // Descend to the next leaf whose box intersects the window.
            self.descend_to_next_leaf()?;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ItemKind {
    Node(usize),
    Point(u32),
}

#[derive(Debug, Clone, Copy)]
struct HeapItem {
    dist2: f64,
    kind: ItemKind,
}

impl PartialEq for HeapItem {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2 && self.kind == other.kind
    }
}
impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via Reverse; points before nodes at equal distance so a
        // point at distance exactly MINDIST of an unopened node is emitted
        // without opening the node.
        self.dist2.total_cmp(&other.dist2).then_with(|| {
            let rank = |k: &ItemKind| match k {
                ItemKind::Point(_) => 0,
                ItemKind::Node(_) => 1,
            };
            rank(&self.kind).cmp(&rank(&other.kind))
        })
    }
}

/// Best-first incremental NN iterator. See [`RStarTree::nearest_iter`].
pub struct NearestIter<'t, S> {
    tree: &'t RStarTree,
    src: &'t S,
    q: Box<[f64]>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    /// Scratch for one leaf's distances (see the expansion two-phase).
    dists: Vec<f64>,
}

impl<S: CoordSource> Iterator for NearestIter<'_, S> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let dim = self.tree.dim();
        while let Some(Reverse(item)) = self.heap.pop() {
            match item.kind {
                ItemKind::Point(id) => return Some((id, item.dist2)),
                ItemKind::Node(idx) => {
                    let tree = self.tree;
                    let run = tree.spans[idx].range();
                    let q: &[f64] = &self.q;
                    self.heap.reserve(run.len());
                    if tree.is_leaf(idx) {
                        // Two phases: first a pure distance pass whose loads
                        // are independent (the out-of-order core overlaps the
                        // scattered store reads), then the heap pushes.
                        let ids = tree.leaf_ids(idx);
                        self.dists.clear();
                        self.dists
                            .extend(ids.iter().map(|&c| sq_dist(q, self.src.coords(c))));
                        for (&c, &d) in ids.iter().zip(&self.dists) {
                            self.heap.push(Reverse(HeapItem {
                                dist2: d,
                                kind: ItemKind::Point(c),
                            }));
                        }
                    } else {
                        for (c, b) in run.clone().zip(tree.run_bounds(run).chunks_exact(2 * dim)) {
                            let (blo, bhi) = b.split_at(dim);
                            self.heap.push(Reverse(HeapItem {
                                dist2: geom::min_dist2(blo, bhi, q),
                                kind: ItemKind::Node(c),
                            }));
                        }
                    }
                }
            }
        }
        None
    }
}

#[inline]
fn sq_dist(a: &[f64], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let split = chunks * 4;
    let (a4, ar) = a.split_at(split);
    let (b4, br) = b.split_at(split);
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        let d0 = ca[0] - cb[0] as f64;
        let d1 = ca[1] - cb[1] as f64;
        let d2 = ca[2] - cb[2] as f64;
        let d3 = ca[3] - cb[3] as f64;
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    for (&x, &y) in ar.iter().zip(br) {
        let d = x - y as f64;
        s0 += d * d;
    }
    (s0 + s1) + (s2 + s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::OwnedCoords;

    fn build_grid(side: usize) -> (OwnedCoords, RStarTree) {
        let mut src = OwnedCoords::new(2);
        for x in 0..side {
            for y in 0..side {
                src.push(&[x as f32, y as f32]);
            }
        }
        let ids: Vec<u32> = (0..src.len() as u32).collect();
        let t = RStarTree::bulk_load(&src, &ids);
        (src, t)
    }

    #[test]
    fn window_matches_brute_force() {
        let (src, t) = build_grid(15);
        let w = Rect::new(&[2.5, 3.0], &[7.0, 9.5]);
        let mut got = t.window_all(&src, &w);
        got.sort_unstable();
        let mut want = Vec::new();
        for x in 0..15u32 {
            for y in 0..15u32 {
                if (2.5..=7.0).contains(&(x as f64)) && (3.0..=9.5).contains(&(y as f64)) {
                    want.push(x * 15 + y);
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn window_cursor_is_lazy_and_resumable() {
        let (src, t) = build_grid(10);
        let w = Rect::new(&[0.0, 0.0], &[9.0, 9.0]);
        let mut cursor = t.window(&src, &w);
        let first: Vec<u32> = cursor.by_ref().take(5).collect();
        assert_eq!(first.len(), 5);
        let rest: Vec<u32> = cursor.collect();
        assert_eq!(first.len() + rest.len(), 100);
        // no overlap between the two batches
        for id in &first {
            assert!(!rest.contains(id));
        }
    }

    #[test]
    fn next_batch_covers_window_in_leaf_chunks() {
        let (src, t) = build_grid(15);
        let w = Rect::new(&[2.5, 3.0], &[7.0, 9.5]);
        let mut want = t.window_all(&src, &w);
        want.sort_unstable();
        let mut got: Vec<u32> = Vec::new();
        let mut cursor = t.window(&src, &w);
        let mut batches = 0;
        while let Some(batch) = cursor.next_batch() {
            assert!(!batch.is_empty(), "batches are never empty");
            got.extend_from_slice(batch);
            batches += 1;
        }
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(batches >= 1);
        // mixed consumption: a few ids via next(), the rest via batches
        let mut cursor = t.window(&src, &w);
        let mut mixed: Vec<u32> = cursor.by_ref().take(3).collect();
        while let Some(batch) = cursor.next_batch() {
            mixed.extend_from_slice(batch);
        }
        mixed.sort_unstable();
        assert_eq!(mixed, want);
    }

    #[test]
    fn cube_probe_in_a_reused_scratch_equals_the_rect_window() {
        // One scratch across trees of different shape and dimension,
        // including after a cursor abandoned mid-leaf: every probe must
        // start clean and yield the ids of `window(&centered_cube)` in
        // the same order.
        let mut buf = WindowScratch::new();
        let (grid, grid_tree) = build_grid(15);
        let line = OwnedCoords::from_flat(1, (0..40).map(|i| i as f32 * 0.5).collect());
        let line_tree = RStarTree::bulk_load(&line, &(0..40).collect::<Vec<u32>>());
        let five = OwnedCoords::from_flat(5, (0..500).map(|i| (i * 7 % 31) as f32).collect());
        let five_tree = RStarTree::bulk_load(&five, &(0..100).collect::<Vec<u32>>());
        let probes: [(&OwnedCoords, &RStarTree, &[f64], f64); 5] = [
            (&grid, &grid_tree, &[7.0, 7.0], 6.0),
            (&line, &line_tree, &[10.1], 3.0),
            (&five, &five_tree, &[15.0, 15.0, 15.0, 15.0, 15.0], 29.0),
            (&grid, &grid_tree, &[0.5, 13.5], 3.0),
            (&grid, &grid_tree, &[100.0, 100.0], 1.0),
        ];
        for (src, tree, center, side) in probes {
            let want = tree.window_all(src, &Rect::centered_cube(center, side));
            let mut cursor = tree.window_cube_in(src, center, side, &mut buf);
            let got: Vec<u32> = cursor.by_ref().collect();
            assert_eq!(got, want, "center {center:?} side {side}");
            assert!(cursor.next_batch().is_none());
            // leave the scratch mid-leaf for the next probe
            let _ = tree.window_cube_in(src, center, side, &mut buf).next();
        }
    }

    #[test]
    fn empty_window_yields_nothing() {
        let (src, t) = build_grid(5);
        let w = Rect::new(&[100.0, 100.0], &[101.0, 101.0]);
        assert!(t.window_all(&src, &w).is_empty());
    }

    #[test]
    fn window_on_empty_tree() {
        let src = OwnedCoords::new(2);
        let t = RStarTree::bulk_load(&src, &[]);
        let w = Rect::new(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(t.window_all(&src, &w).is_empty());
    }

    #[test]
    fn nearest_iter_ascending_and_complete() {
        let (src, t) = build_grid(12);
        let q = [4.3, 7.8];
        let got: Vec<(u32, f64)> = t.nearest_iter(&src, &q).collect();
        assert_eq!(got.len(), 144);
        for pair in got.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "distances not ascending");
        }
        // first returned is the true NN
        let (id, d2) = got[0];
        assert_eq!(id, 4 * 12 + 8);
        assert!((d2 - (0.3f64 * 0.3 + 0.2 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let (src, t) = build_grid(9);
        let q = [3.1, 3.1];
        let got = t.k_nearest(&src, &q, 7);
        let mut brute: Vec<(u32, f64)> = (0..81u32)
            .map(|id| {
                let x = (id / 9) as f64;
                let y = (id % 9) as f64;
                (id, (x - q[0]).powi(2) + (y - q[1]).powi(2))
            })
            .collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1));
        let got_d: Vec<f64> = got.iter().map(|&(_, d)| d).collect();
        let want_d: Vec<f64> = brute[..7].iter().map(|&(_, d)| d).collect();
        for (g, w) in got_d.iter().zip(want_d.iter()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn scan_equals_the_window_of_a_tree_over_the_run() {
        // Dimensions on both arms of the probe kernel (1 and 5 lanes),
        // runs at the start, middle and end of the source, and one
        // scratch shared with tree cursors.
        let mut buf = WindowScratch::new();
        let five = OwnedCoords::from_flat(5, (0..1000).map(|i| (i * 7 % 31) as f32).collect());
        let line = OwnedCoords::from_flat(1, (0..40).map(|i| i as f32 * 0.5).collect());
        let probes: [(&OwnedCoords, Range<u32>, &[f64], f64); 5] = [
            (&five, 0..32, &[15.0; 5], 29.0),
            (&five, 100..200, &[10.0, 20.0, 5.0, 15.0, 15.0], 24.0),
            (&five, 199..200, &[15.0; 5], 60.0),
            (&line, 30..40, &[17.0], 3.0),
            (&line, 0..0, &[0.0], 1.0),
        ];
        for (src, run, center, side) in probes {
            let ids: Vec<u32> = run.clone().collect();
            let tree = RStarTree::bulk_load(src, &ids);
            let mut want = tree.window_all(src, &Rect::centered_cube(center, side));
            want.sort_unstable();
            let _ = tree.window_cube_in(src, center, side, &mut buf).next();
            buf.set_cube(center, side);
            let got = buf.scan(src, run.clone()).to_vec();
            assert_eq!(got, want, "run {run:?} center {center:?} side {side}");
            // the window stays set: a tree cursor probes the same one
            let mut again: Vec<u32> = tree.window_in(src, &mut buf).collect();
            again.sort_unstable();
            assert_eq!(again, want);
        }
    }

    #[test]
    fn nearest_run_equals_nearest_iter_over_the_run() {
        let (src, _) = build_grid(12);
        let q = [4.3, 7.8];
        let ids: Vec<u32> = (20..90).collect();
        let tree = RStarTree::bulk_load(&src, &ids);
        let got = nearest_run(&src, 20..90, &q);
        let want: Vec<(u32, f64)> = tree.nearest_iter(&src, &q).collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "distances differ");
        }
        assert!(got.windows(2).all(|p| (p[0].1, p[0].0) < (p[1].1, p[1].0)));
    }

    #[test]
    fn iter_points_covers_everything() {
        let (src, t) = build_grid(8);
        let mut ids: Vec<u32> = t.iter_points(&src).map(|(id, _)| id).collect();
        ids.sort_unstable();
        let want: Vec<u32> = (0..64).collect();
        assert_eq!(ids, want);
    }

    /// Reference for the cursor: a recursive depth-first walk over the
    /// arena, testing the window in `f64`, with one batch per leaf that
    /// holds a hit.
    fn dfs_batches(tree: &RStarTree, src: &OwnedCoords, lo: &[f64], hi: &[f64]) -> Vec<Vec<u32>> {
        fn walk(
            tree: &RStarTree,
            src: &OwnedCoords,
            (lo, hi): (&[f64], &[f64]),
            node: usize,
            out: &mut Vec<Vec<u32>>,
        ) {
            if tree.is_leaf(node) {
                let hits: Vec<u32> = tree
                    .leaf_ids(node)
                    .iter()
                    .copied()
                    .filter(|&id| geom::window_contains_point(lo, hi, src.coords(id)))
                    .collect();
                if !hits.is_empty() {
                    out.push(hits);
                }
                return;
            }
            let (dim, run) = (tree.dim(), tree.spans[node].range());
            for (c, b) in run.clone().zip(tree.run_bounds(run).chunks_exact(2 * dim)) {
                let (blo, bhi) = b.split_at(dim);
                if geom::window_intersects(lo, hi, blo, bhi) {
                    walk(tree, src, (lo, hi), c, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(tree, src, (lo, hi), tree.root(), &mut out);
        out
    }

    fn cursor_batches<B: BorrowMut<WindowScratch>>(
        mut cursor: WindowCursor<'_, OwnedCoords, B>,
    ) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        while let Some(batch) = cursor.next_batch() {
            out.push(batch.to_vec());
        }
        out
    }

    #[test]
    fn cursor_batches_equal_a_depth_first_walk() {
        // One scratch across every tree, each probe after a cursor
        // abandoned mid-window: the cursor must hand out the reference's
        // batches, batch for batch, on both arms of the probe kernel
        // (dims 1-3 portable, >= 4 SSE2 on x86_64).
        let mut buf = WindowScratch::new();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for cap in [4, 8, 32] {
            for dim in [1, 2, 3, 4, 5, 8] {
                // Empty, one point, one full leaf, many leaves, and many
                // leaves over a 4-value grid (every axis full of ties).
                for (n, ties) in [
                    (0, false),
                    (1, false),
                    (cap, false),
                    (700, false),
                    (700, true),
                ] {
                    let flat = (0..n * dim)
                        .map(|_| {
                            let v = unit() * 100.0;
                            (if ties { (v / 25.0).floor() * 25.0 } else { v }) as f32
                        })
                        .collect();
                    let src = OwnedCoords::from_flat(dim, flat);
                    let ids: Vec<u32> = (0..n as u32).collect();
                    let tree = RStarTree::bulk_load_with_capacity(&src, &ids, cap);
                    tree.check_invariants(&src);
                    let at = |id: u32| src.coords(id).iter().map(|&v| v as f64).collect();
                    let centers: Vec<Vec<f64>> = if n == 0 {
                        vec![vec![50.0; dim]]
                    } else {
                        vec![at(0), at(n as u32 / 2), vec![50.0; dim]]
                    };
                    for center in &centers {
                        for side in [0.0, 100.0 * 0.02f64.powf(1.0 / dim as f64), 60.0, 300.0] {
                            let window = Rect::centered_cube(center, side);
                            let want = dfs_batches(&tree, &src, window.lo(), window.hi());
                            let what = format!("cap {cap} dim {dim} n {n} ties {ties} side {side}");
                            assert_eq!(cursor_batches(tree.window(&src, &window)), want, "{what}");
                            let cursor = tree.window_cube_in(&src, center, side, &mut buf);
                            assert_eq!(cursor_batches(cursor), want, "{what}, shared scratch");
                            // Abandon a cursor one batch and one id in.
                            let mut cursor = tree.window_cube_in(&src, center, side, &mut buf);
                            let _ = cursor.next_batch();
                            let _ = cursor.next();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let (src, t) = build_grid(3);
        assert_eq!(t.k_nearest(&src, &[0.0, 0.0], 100).len(), 9);
    }
}
