//! The R*-tree proper: flat arena storage, built once by bulk loading
//! ([`RStarTree::bulk_load`]) and never mutated afterwards. The node
//! layout and the query algorithms are those of Beckmann, Kriegel,
//! Schneider, Seeger: "The R*-tree: an efficient and robust access method
//! for points and rectangles" (SIGMOD 1990); a point set that changes is
//! indexed by bulk-loading new trees, not by editing old ones.
//!
//! # Flat layout
//!
//! The tree owns **no coordinates**. A node is two parallel flat arrays:
//! `children` (point ids in leaves, arena node indexes in inner nodes)
//! and `bounds` (inner nodes only: one inline `2 * dim` run of
//! `lo_0..lo_{d-1}, hi_0..hi_{d-1}` per child). Leaf coordinates are
//! resolved on demand through a [`CoordSource`], so a leaf scan walks a
//! dense id array plus one contiguous coordinate buffer — no per-entry
//! boxes, no rectangle cloning anywhere on the descent.

use crate::coords::CoordSource;
use crate::rect::{geom, Rect};

/// Default maximum entries per node.
pub(crate) const DEFAULT_MAX_ENTRIES: usize = 32;

/// One node of the arena: `children[j]` is a point id (leaves) or an
/// arena index (inner nodes); inner nodes keep child `j`'s bounding box
/// inline at `bounds[j*2*dim .. (j+1)*2*dim]` (lo corner then hi corner).
#[derive(Debug)]
pub(crate) struct Node {
    /// 0 for leaves; parents of leaves are level 1, etc.
    pub(crate) level: u32,
    pub(crate) children: Vec<u32>,
    pub(crate) bounds: Vec<f32>,
}

impl Node {
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }
}

/// Bounding box of child `j` of an inner node, as `(lo, hi)` slices into
/// the node's flat bounds arena.
#[inline]
pub(crate) fn child_bounds(node: &Node, dim: usize, j: usize) -> (&[f32], &[f32]) {
    node.bounds[j * 2 * dim..(j + 1) * 2 * dim].split_at(dim)
}

/// Bounding box of entry `j` of any node: inner children come from the
/// bounds arena, leaf points degenerate to their coordinates (same slice
/// as both corners).
#[inline]
pub(crate) fn entry_bounds<'a, S: CoordSource>(
    node: &'a Node,
    dim: usize,
    src: &'a S,
    j: usize,
) -> (&'a [f32], &'a [f32]) {
    if node.is_leaf() {
        let c = src.coords(node.children[j]);
        (c, c)
    } else {
        child_bounds(node, dim, j)
    }
}

/// Structure counters and footprint of one tree, for memory accounting
/// and layout regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Live arena nodes.
    pub nodes: usize,
    /// Point entries across all leaves.
    pub leaf_entries: usize,
    /// Child entries across all inner nodes.
    pub inner_entries: usize,
    /// Heap footprint of the tree structure in bytes (arena, children,
    /// inline bounds). Point coordinates are *not* included — they live
    /// in the [`CoordSource`], owned and accounted once by the caller.
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
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: usize,
    pub(crate) len: usize,
}

impl RStarTree {
    /// Number of points in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinate dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Height of the tree: 1 for a single leaf node.
    pub fn height(&self) -> usize {
        self.nodes[self.root].level as usize + 1
    }

    /// Exact minimum bounding rectangle of the whole tree, `None` if empty.
    pub fn mbr<S: CoordSource>(&self, src: &S) -> Option<Rect> {
        if self.is_empty() {
            None
        } else {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            self.node_mbr_into(src, self.root, &mut lo, &mut hi);
            let lo64: Vec<f64> = lo.iter().map(|&v| v as f64).collect();
            let hi64: Vec<f64> = hi.iter().map(|&v| v as f64).collect();
            Some(Rect::new(&lo64, &hi64))
        }
    }

    /// Append `node` to the arena; returns its index.
    pub(crate) fn alloc(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Exact MBR of node `idx`, written into `lo`/`hi` (resized to `dim`).
    pub(crate) fn node_mbr_into<S: CoordSource>(
        &self,
        src: &S,
        idx: usize,
        lo: &mut Vec<f32>,
        hi: &mut Vec<f32>,
    ) {
        let node = &self.nodes[idx];
        debug_assert!(!node.children.is_empty(), "node_mbr on empty node");
        let (flo, fhi) = entry_bounds(node, self.dim, src, 0);
        lo.clear();
        lo.extend_from_slice(flo);
        hi.clear();
        hi.extend_from_slice(fhi);
        for j in 1..node.children.len() {
            let (elo, ehi) = entry_bounds(node, self.dim, src, j);
            geom::enlarge(lo, hi, elo, ehi);
        }
    }

    /// Structure counters and heap footprint. See [`TreeStats`].
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats {
            nodes: 0,
            leaf_entries: 0,
            inner_entries: 0,
            structure_bytes: std::mem::size_of::<Self>()
                + self.nodes.capacity() * std::mem::size_of::<Node>(),
        };
        for n in &self.nodes {
            s.structure_bytes += n.children.capacity() * std::mem::size_of::<u32>()
                + n.bounds.capacity() * std::mem::size_of::<f32>();
            s.nodes += 1;
            if n.is_leaf() {
                s.leaf_entries += n.children.len();
            } else {
                s.inner_entries += n.children.len();
            }
        }
        s
    }

    /// Approximate heap footprint of the tree structure in bytes. Leaf
    /// coordinates live in the caller's [`CoordSource`] and are *not*
    /// counted here. Used for the paper's index-size comparisons.
    pub fn approx_memory(&self) -> usize {
        self.stats().structure_bytes
    }

    /// Verify structural invariants; panics with a description on
    /// violation. Exposed for tests and debugging.
    pub fn check_invariants<S: CoordSource>(&self, src: &S) {
        let mut seen = 0usize;
        self.check_node(src, self.root, None, &mut seen);
        assert_eq!(seen, self.len, "len() does not match stored points");
        let root = &self.nodes[self.root];
        if root.level > 0 {
            assert!(
                root.children.len() >= 2,
                "inner root must have at least two children"
            );
        }
    }

    fn check_node<S: CoordSource>(
        &self,
        src: &S,
        idx: usize,
        expected_bounds: Option<(&[f32], &[f32])>,
        seen: &mut usize,
    ) {
        let node = &self.nodes[idx];
        assert!(
            node.children.len() <= self.max_entries,
            "node {idx} overflows: {} entries",
            node.children.len()
        );
        if idx != self.root {
            assert!(!node.children.is_empty(), "non-root node {idx} is empty");
        }
        if let Some((elo, ehi)) = expected_bounds {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            self.node_mbr_into(src, idx, &mut lo, &mut hi);
            assert!(
                elo == &lo[..] && ehi == &hi[..],
                "stored MBR of node {idx} is not exact (level {}): stored ({elo:?}, {ehi:?}), exact ({lo:?}, {hi:?})",
                node.level
            );
        }
        if node.is_leaf() {
            assert!(node.bounds.is_empty(), "leaf {idx} carries arena bounds");
            for &id in &node.children {
                assert_eq!(src.coords(id).len(), self.dim);
                *seen += 1;
            }
        } else {
            assert_eq!(
                node.bounds.len(),
                node.children.len() * 2 * self.dim,
                "inner node {idx} bounds arena out of step with its children"
            );
            for pos in 0..node.children.len() {
                let c = node.children[pos] as usize;
                assert_eq!(
                    self.nodes[c].level + 1,
                    node.level,
                    "level mismatch between {idx} and child {c}"
                );
                let (lo, hi) = child_bounds(node, self.dim, pos);
                self.check_node(src, c, Some((lo, hi)), seen);
            }
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_coordinate_panics_in_debug() {
        let src = OwnedCoords::from_flat(1, vec![f32::NAN]);
        RStarTree::bulk_load(&src, &[0]);
    }
}
