//! Query operations: pausable window cursors, best-first incremental
//! nearest-neighbor iteration (Hjaltason–Samet distance browsing), and
//! convenience wrappers.
//!
//! All cursors run over the flat node arena: the descent touches only the
//! inline bounds runs of inner nodes and the dense id arrays of leaves —
//! no rectangle is cloned and nothing is allocated per step (the only
//! allocations are the cursor's own stack/heap, once per query).

use std::borrow::BorrowMut;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::coords::CoordSource;
use crate::rect::{geom, Rect};
use crate::tree::{child_bounds, RStarTree};
use crate::window::{ceil_f32, floor_f32, Window32};

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
        let (lo, hi) = (window.lo().iter().copied(), window.hi().iter().copied());
        WindowCursor::start(self, src, WindowScratch::new(), lo, hi)
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
        debug_assert!(side >= 0.0, "invalid width {side}");
        let half = side / 2.0;
        let lo = center.iter().map(|&c| c - half);
        let hi = center.iter().map(|&c| c + half);
        WindowCursor::start(self, src, buf, lo, hi)
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
                kind: ItemKind::Node(self.root),
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
            kind: ItemKind::Node(self.root),
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
            let n = &self.nodes[idx];
            if n.is_leaf() {
                for &c in &n.children {
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
                for (&c, b) in n.children.iter().zip(n.bounds.chunks_exact(2 * dim)) {
                    let (blo, bhi) = b.split_at(dim);
                    let md2 = geom::min_dist2(blo, bhi, q);
                    if md2 < bound {
                        frontier.push(Reverse(HeapItem {
                            dist2: md2,
                            kind: ItemKind::Node(c as usize),
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

    /// Iterate over every stored point (depth-first order).
    pub fn iter_points<'t, S: CoordSource>(
        &'t self,
        src: &'t S,
    ) -> impl Iterator<Item = (u32, &'t [f32])> + 't {
        let mut stack = vec![(self.root, 0usize)];
        std::iter::from_fn(move || loop {
            let &(node, pos) = stack.last()?;
            let n = &self.nodes[node];
            if pos >= n.children.len() {
                stack.pop();
                continue;
            }
            if let Some(top) = stack.last_mut() {
                top.1 += 1;
            }
            let c = n.children[pos];
            if n.is_leaf() {
                return Some((c, src.coords(c)));
            }
            stack.push((c as usize, 0));
        })
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
    /// (inner node index, next entry position) — explicit DFS stack so
    /// the enumeration can pause between leaves.
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
}

/// Lazy depth-first window-query cursor. See [`RStarTree::window`].
///
/// The cursor works one leaf at a time: when the descent reaches a leaf
/// whose bounds intersect the window, the whole leaf is scanned in one
/// tight loop into a hit buffer (so the containment tests and the
/// scattered coordinate reads stay hot, uninterrupted by the caller),
/// and `next()` then drains the buffer. Leaves whose bounds are *fully
/// contained* in the window skip the coordinate reads entirely — every
/// id is a hit by construction. Pausing granularity is one leaf
/// (at most `max_entries` points scanned beyond where the caller stops).
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
    /// Cursor over the window with `f64` corners `lo`, `hi`, positioned
    /// before the first hit.
    fn start(
        tree: &'t RStarTree,
        src: &'t S,
        mut buf: B,
        lo: impl ExactSizeIterator<Item = f64>,
        hi: impl ExactSizeIterator<Item = f64>,
    ) -> Self {
        debug_assert_eq!(lo.len(), tree.dim(), "window dimensionality mismatch");
        debug_assert_eq!(src.dim(), tree.dim(), "source dimensionality mismatch");
        let st = buf.borrow_mut();
        st.corners.clear();
        st.corners.extend(lo.map(ceil_f32));
        st.corners.extend(hi.map(floor_f32));
        st.stack.clear();
        st.hits.clear();
        st.hit_at = 0;
        let mut cursor = WindowCursor { tree, src, buf };
        // A single-leaf tree scans the root directly; taller trees start
        // with the root on the inner-node stack.
        if tree.nodes[tree.root].is_leaf() {
            cursor.scan_leaf(tree.root, false);
        } else {
            cursor.buf.borrow_mut().stack.push((tree.root as u32, 0));
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
        let dim = tree.dim();
        loop {
            let st = self.buf.borrow_mut();
            let top = st.stack.last_mut()?;
            let (n, pos) = (&tree.nodes[top.0 as usize], top.1 as usize);
            if pos >= n.children.len() {
                st.stack.pop();
                continue;
            }
            top.1 += 1;
            let (blo, bhi) = child_bounds(n, dim, pos);
            let window = Window32::from_corners(&st.corners);
            if window.intersects(blo, bhi) {
                let c = n.children[pos];
                // Children of a level-1 node are leaves.
                if n.level == 1 {
                    let contained = window.contains_box(blo, bhi);
                    self.scan_leaf(c as usize, contained);
                    return Some(());
                }
                st.stack.push((c, 0));
            }
        }
    }

    /// Refill the hit buffer from leaf `idx`: all of it when the leaf is
    /// `fully_contained`, else the points inside the window, compacted
    /// without a branch on the (unpredictable) test outcome.
    fn scan_leaf(&mut self, idx: usize, fully_contained: bool) {
        let ids = &self.tree.nodes[idx].children[..];
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
            // Descend to the next leaf whose bounds intersect the window.
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
                    let n = &self.tree.nodes[idx];
                    let q: &[f64] = &self.q;
                    self.heap.reserve(n.children.len());
                    if n.is_leaf() {
                        // Two phases: first a pure distance pass whose loads
                        // are independent (the out-of-order core overlaps the
                        // scattered store reads), then the heap pushes.
                        self.dists.clear();
                        self.dists
                            .extend(n.children.iter().map(|&c| sq_dist(q, self.src.coords(c))));
                        for (&c, &d) in n.children.iter().zip(&self.dists) {
                            self.heap.push(Reverse(HeapItem {
                                dist2: d,
                                kind: ItemKind::Point(c),
                            }));
                        }
                    } else {
                        for (&c, b) in n.children.iter().zip(n.bounds.chunks_exact(2 * dim)) {
                            let (blo, bhi) = b.split_at(dim);
                            self.heap.push(Reverse(HeapItem {
                                dist2: geom::min_dist2(blo, bhi, q),
                                kind: ItemKind::Node(c as usize),
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
        let mut t = RStarTree::new(2);
        for x in 0..side {
            for y in 0..side {
                let id = src.push(&[x as f32, y as f32]);
                t.insert(&src, id);
            }
        }
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
        let t = RStarTree::new(2);
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
    fn iter_points_covers_everything() {
        let (src, t) = build_grid(8);
        let mut ids: Vec<u32> = t.iter_points(&src).map(|(id, _)| id).collect();
        ids.sort_unstable();
        let want: Vec<u32> = (0..64).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let (src, t) = build_grid(3);
        assert_eq!(t.k_nearest(&src, &[0.0, 0.0], 100).len(), 9);
    }
}
