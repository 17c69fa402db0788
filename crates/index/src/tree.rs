//! The R*-tree proper: one packed arena per tree, built once by bulk
//! loading ([`RStarTree::bulk_load`]) and never mutated afterwards. The
//! node layout and the query algorithms are those of Beckmann, Kriegel,
//! Schneider, Seeger: "The R*-tree: an efficient and robust access method
//! for points and rectangles" (SIGMOD 1990); a point set that changes is
//! indexed by bulk-loading new trees, not by editing old ones.
//!
//! # Packed arena
//!
//! STR packing lays the nodes out level by level — the leaves first, then
//! their parents, the root last — and the children of any inner node are
//! a contiguous run of the level below. A tree is therefore three flat
//! arrays, each allocated once at its exact size:
//!
//! * `ids` — every point id, leaf after leaf (the bulk loader's order);
//! * `spans` — one `(first, count)` per node, numbered in that level
//!   order: a leaf's run of `ids`, an inner node's run of child nodes.
//!   The level of a node is implied by the range its number falls in
//!   (nodes `0..leaves` are the leaves), so no child-index array exists;
//! * `bounds` — the MBR of every node but the root, `lo_0..lo_{d-1},
//!   hi_0..hi_{d-1}` at `bounds[node * 2 * dim ..]`. The boxes a descent
//!   tests at one node are its children's: one contiguous run.
//!
//! The tree owns **no coordinates**: a leaf is a run of ids resolved on
//! demand through a [`CoordSource`], so `L` trees share one projection
//! store. Every leaf sits at the same depth, so a descent knows a node
//! is a leaf from its number alone, and a depth-first walk meets the
//! leaves in node order.

use std::ops::Range;

use crate::coords::CoordSource;
use crate::rect::{geom, Rect};

/// Default maximum entries per node.
pub(crate) const DEFAULT_MAX_ENTRIES: usize = 32;

/// One node of the arena: a leaf's run of `ids`, or an inner node's run
/// of child node numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) first: u32,
    pub(crate) count: u32,
}

impl Span {
    #[inline]
    pub(crate) fn range(self) -> Range<usize> {
        self.first as usize..(self.first + self.count) as usize
    }
}

/// Node count of every level of a tree with `leaves` leaves and fan-out
/// `max_entries`, leaves first and the root's level (width 1) last.
pub(crate) fn level_widths(leaves: usize, max_entries: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(leaves), move |&w| {
        (w > 1).then(|| w.div_ceil(max_entries))
    })
}

/// Structure counters and footprint of one tree, for memory accounting
/// and layout regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Arena nodes.
    pub nodes: usize,
    /// Point entries across all leaves.
    pub leaf_entries: usize,
    /// Child entries across all inner nodes.
    pub inner_entries: usize,
    /// Heap footprint of the tree structure in bytes: the tree itself
    /// and its three arena arrays (ids, node spans, non-root bounds), at
    /// capacity. Point coordinates are *not* included — they live in the
    /// [`CoordSource`], owned and accounted once by the caller.
    pub structure_bytes: usize,
}

/// An in-memory R*-tree over points with runtime dimensionality.
///
/// Point payloads are `u32` identifiers resolved through a
/// [`CoordSource`] (typically row indexes into the owning projection
/// store). Every operation that touches coordinates takes the source as
/// an argument; the caller must pass a source honoring the
/// [`CoordSource`] contract (stable coordinates per live id) with
/// `src.dim() == tree.dim()`. Ids are unique within one tree.
///
/// A tree is immutable: [`RStarTree::bulk_load`] is the only constructor,
/// and every other method reads.
#[derive(Debug)]
pub struct RStarTree {
    pub(crate) dim: usize,
    pub(crate) max_entries: usize,
    /// Number of leaves: nodes `0..leaves`.
    pub(crate) leaves: usize,
    /// Point ids, leaf after leaf.
    pub(crate) ids: Vec<u32>,
    /// One span per node, leaves first, the root last.
    pub(crate) spans: Vec<Span>,
    /// `2 * dim` values per node but the root: its lo corner, then its
    /// hi corner.
    pub(crate) bounds: Vec<f32>,
}

impl RStarTree {
    /// Number of points in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Coordinate dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Height of the tree: 1 for a single leaf node.
    pub fn height(&self) -> usize {
        level_widths(self.leaves, self.max_entries).count()
    }

    /// Number of the root node (the last one).
    #[inline]
    pub(crate) fn root(&self) -> usize {
        self.spans.len() - 1
    }

    #[inline]
    pub(crate) fn is_leaf(&self, node: usize) -> bool {
        node < self.leaves
    }

    /// The ids of leaf `leaf`.
    #[inline]
    pub(crate) fn leaf_ids(&self, leaf: usize) -> &[u32] {
        &self.ids[self.spans[leaf].range()]
    }

    /// The boxes of the nodes of `run` (never the root), `2 * dim`
    /// values each.
    #[inline]
    pub(crate) fn run_bounds(&self, run: Range<usize>) -> &[f32] {
        let w = 2 * self.dim;
        &self.bounds[run.start * w..run.end * w]
    }

    /// Exact minimum bounding rectangle of the whole tree, `None` if empty.
    pub fn mbr<S: CoordSource>(&self, src: &S) -> Option<Rect> {
        if self.is_empty() {
            None
        } else {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            self.node_mbr_into(src, self.root(), &mut lo, &mut hi);
            let lo64: Vec<f64> = lo.iter().map(|&v| v as f64).collect();
            let hi64: Vec<f64> = hi.iter().map(|&v| v as f64).collect();
            Some(Rect::new(&lo64, &hi64))
        }
    }

    /// Exact MBR of node `node`, written into `lo`/`hi` (resized to
    /// `dim`): over its points' coordinates for a leaf, over its
    /// children's stored boxes for an inner node.
    pub(crate) fn node_mbr_into<S: CoordSource>(
        &self,
        src: &S,
        node: usize,
        lo: &mut Vec<f32>,
        hi: &mut Vec<f32>,
    ) {
        let run = self.spans[node].range();
        debug_assert!(!run.is_empty(), "node_mbr on empty node");
        // Enlarging from (+inf, -inf) copies the first entry exactly.
        lo.clear();
        lo.resize(self.dim, f32::INFINITY);
        hi.clear();
        hi.resize(self.dim, f32::NEG_INFINITY);
        if self.is_leaf(node) {
            for &id in &self.ids[run] {
                let c = src.coords(id);
                geom::enlarge(lo, hi, c, c);
            }
        } else {
            for b in self.run_bounds(run).chunks_exact(2 * self.dim) {
                let (blo, bhi) = b.split_at(self.dim);
                geom::enlarge(lo, hi, blo, bhi);
            }
        }
    }

    /// Structure counters and heap footprint. See [`TreeStats`].
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            nodes: self.spans.len(),
            leaf_entries: self.ids.len(),
            inner_entries: self.spans[self.leaves..]
                .iter()
                .map(|s| s.count as usize)
                .sum(),
            structure_bytes: std::mem::size_of::<Self>()
                + self.ids.capacity() * std::mem::size_of::<u32>()
                + self.spans.capacity() * std::mem::size_of::<Span>()
                + self.bounds.capacity() * std::mem::size_of::<f32>(),
        }
    }

    /// Approximate heap footprint of the tree structure in bytes. Leaf
    /// coordinates live in the caller's [`CoordSource`] and are *not*
    /// counted here. Used for the paper's index-size comparisons.
    pub fn approx_memory(&self) -> usize {
        self.stats().structure_bytes
    }

    /// Verify structural invariants; panics with a description on
    /// violation. Exposed for tests and debugging.
    ///
    /// The node ranges tile the arena: each level's spans cover the
    /// level below (the leaves' cover `ids`) in order, and `bounds` holds
    /// exactly one box per non-root node. Every stored box is the exact
    /// MBR of its node, every leaf lies at the same depth — so a
    /// depth-first walk meets the leaves in node order — and every id
    /// appears once.
    pub fn check_invariants<S: CoordSource>(&self, src: &S) {
        // Each level's spans tile the one below, in order.
        let mut below = 0..self.ids.len();
        let mut start = 0;
        for (level, width) in level_widths(self.leaves, self.max_entries).enumerate() {
            let nodes = start..start + width;
            assert!(
                nodes.end <= self.spans.len(),
                "level {level} runs past the node table"
            );
            let mut next = below.start;
            for node in nodes.clone() {
                let span = self.spans[node];
                assert_eq!(
                    span.first as usize, next,
                    "node {node} does not start where its left sibling ends"
                );
                assert!(
                    span.count as usize <= self.max_entries,
                    "node {node} overflows: {} entries",
                    span.count
                );
                assert!(
                    span.count > 0 || self.is_empty(),
                    "node {node} of a non-empty tree is empty"
                );
                next += span.count as usize;
            }
            assert_eq!(next, below.end, "level {level} does not tile the one below");
            below = nodes;
            start += width;
        }
        assert_eq!(start, self.spans.len(), "nodes past the root");
        assert_eq!(
            self.bounds.len(),
            self.root() * 2 * self.dim,
            "bounds do not hold one box per non-root node"
        );
        if !self.is_leaf(self.root()) {
            assert!(
                self.spans[self.root()].count >= 2,
                "inner root must have at least two children"
            );
        }

        // Stored boxes, bottom-up: each is the exact MBR of its node.
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for node in 0..self.root() {
            self.node_mbr_into(src, node, &mut lo, &mut hi);
            let (slo, shi) = self.run_bounds(node..node + 1).split_at(self.dim);
            assert!(
                slo == &lo[..] && shi == &hi[..],
                "stored MBR of node {node} is not exact: stored ({slo:?}, {shi:?}), exact ({lo:?}, {hi:?})"
            );
        }

        // Depth-first from the root: every leaf at one depth, met in
        // node order.
        let depth = self.height() - 1;
        let mut stack = vec![(self.root(), 0)];
        let mut next_leaf = 0;
        while let Some((node, d)) = stack.pop() {
            if self.is_leaf(node) {
                assert_eq!(d, depth, "leaf {node} at depth {d}, not {depth}");
                assert_eq!(
                    node, next_leaf,
                    "depth-first walk meets leaf {node} out of order"
                );
                next_leaf += 1;
            } else {
                stack.extend(self.spans[node].range().rev().map(|c| (c, d + 1)));
            }
        }
        assert_eq!(next_leaf, self.leaves, "leaves unreachable from the root");

        let mut ids = self.ids.clone();
        ids.sort_unstable();
        assert!(ids.windows(2).all(|w| w[0] != w[1]), "an id appears twice");
        for &id in &self.ids {
            assert_eq!(src.coords(id).len(), self.dim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::OwnedCoords;

    fn grid_source(side: usize) -> OwnedCoords {
        let mut src = OwnedCoords::new(2);
        for x in 0..side {
            for y in 0..side {
                src.push(&[x as f32, y as f32]);
            }
        }
        src
    }

    fn all_ids(src: &OwnedCoords) -> Vec<u32> {
        (0..src.len() as u32).collect()
    }

    #[test]
    fn empty_tree_properties() {
        let src = OwnedCoords::new(3);
        let t = RStarTree::bulk_load(&src, &[]);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.dim(), 3);
        assert_eq!(t.height(), 1);
        assert!(t.mbr(&src).is_none());
        t.check_invariants(&src);
    }

    #[test]
    fn duplicate_coordinates_allowed() {
        let src = OwnedCoords::from_flat(1, vec![1.0; 100]);
        let t = RStarTree::bulk_load(&src, &all_ids(&src));
        assert_eq!(t.len(), 100);
        assert!(t.height() >= 2);
        t.check_invariants(&src);
    }

    #[test]
    fn node_capacity_is_clamped_to_rstar_minimum() {
        let src = grid_source(3);
        let t = RStarTree::bulk_load_with_capacity(&src, &all_ids(&src), 1);
        assert_eq!(t.max_entries, 4);
        t.check_invariants(&src);
    }

    #[test]
    fn stats_track_entries_and_structure() {
        let src = grid_source(15);
        let t = RStarTree::bulk_load(&src, &all_ids(&src));
        let s = t.stats();
        assert_eq!(s.leaf_entries, 225);
        assert!(s.nodes >= 8, "nodes = {}", s.nodes);
        assert_eq!(s.inner_entries, s.nodes - 1);
        assert!(s.structure_bytes > 0);
        assert_eq!(s.structure_bytes, t.approx_memory());
        let mbr = t.mbr(&src).unwrap();
        assert_eq!(mbr.lo(), &[0.0, 0.0]);
        assert_eq!(mbr.hi(), &[14.0, 14.0]);
    }

    #[test]
    fn structure_bytes_are_the_arena_lengths() {
        assert_eq!(std::mem::size_of::<Span>(), 8);
        for (side, cap) in [(0, 32), (1, 32), (5, 32), (15, 4), (15, 32), (40, 8)] {
            let src = grid_source(side);
            let t = RStarTree::bulk_load_with_capacity(&src, &all_ids(&src), cap);
            t.check_invariants(&src);
            // Sized exactly at build: no capacity slack anywhere.
            assert_eq!(t.ids.capacity(), t.ids.len());
            assert_eq!(t.spans.capacity(), t.spans.len());
            assert_eq!(t.bounds.capacity(), t.bounds.len());
            // One id per point, one span per node, one box per non-root
            // node.
            let s = t.stats();
            assert_eq!(t.ids.len(), side * side);
            assert_eq!(
                s.nodes,
                level_widths(t.leaves, t.max_entries).sum::<usize>()
            );
            assert_eq!(t.bounds.len(), (s.nodes - 1) * 2 * 2);
            assert_eq!(
                s.structure_bytes,
                std::mem::size_of::<RStarTree>()
                    + 4 * side * side
                    + 8 * s.nodes
                    + 16 * (s.nodes - 1),
                "side {side} cap {cap}"
            );
            assert_eq!(s.inner_entries, s.nodes - 1);
        }
    }

    #[test]
    #[should_panic(expected = "is not exact")]
    fn check_invariants_catches_a_loose_box() {
        let src = grid_source(15);
        let mut t = RStarTree::bulk_load_with_capacity(&src, &all_ids(&src), 4);
        t.bounds[0] -= 1.0;
        t.check_invariants(&src);
    }

    #[test]
    #[should_panic(expected = "does not start where its left sibling ends")]
    fn check_invariants_catches_a_gap_between_siblings() {
        let src = grid_source(15);
        let mut t = RStarTree::bulk_load_with_capacity(&src, &all_ids(&src), 4);
        t.spans[0].count -= 1;
        t.check_invariants(&src);
    }

    #[test]
    #[should_panic(expected = "an id appears twice")]
    fn check_invariants_catches_a_repeated_id() {
        // All points coincide, so every box stays exact.
        let src = OwnedCoords::from_flat(1, vec![1.0; 100]);
        let mut t = RStarTree::bulk_load(&src, &all_ids(&src));
        t.ids[1] = t.ids[0];
        t.check_invariants(&src);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_coordinate_panics_in_debug() {
        let src = OwnedCoords::from_flat(1, vec![f32::NAN]);
        RStarTree::bulk_load(&src, &[0]);
    }
}
