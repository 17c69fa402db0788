//! Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).
//!
//! The paper constructs its L R*-trees with bulk loading ("DB-LSH adopts
//! the bulk-loading strategy to construct R*-Trees, which is a more
//! efficient strategy than conventional insertion strategies" —
//! Section VI-B.2). STR packs points into fully-filled leaves by recursive
//! slab partitioning, then packs each level into the one above it. Leaves
//! are runs of one id array in STR order; every level above is a run of
//! the one below, and every node but the root stores its box in the
//! tree's one bounds array (see the `tree` module).
//!
//! # Partitioning at memory speed
//!
//! STR only needs each slab's *contents*, not its internal order. Each
//! recursion level therefore makes one sequential pass that writes a
//! `u64` key per point — the order-preserving `u32` image of its
//! coordinate on the level's axis above its id — and then splits the keys
//! at the slab boundaries (leaf boundaries on the last axis) with
//! recursive `select_nth_unstable`: no full sort, and no coordinate
//! gather inside a comparator.
//!
//! # Tie rule
//!
//! Points are ordered on each axis by `(coordinate, id)`, with coordinates
//! compared as [`f32::total_cmp`] does. Equal coordinates straddling a
//! slab boundary are thus split by id, so a tree (and [`str_order`])
//! depends only on the *set* of ids and their coordinates — never on the
//! order of the `ids` argument.

use std::ops::Range;

use crate::coords::CoordSource;
use crate::tree::{level_widths, RStarTree, Span};

impl RStarTree {
    /// Bulk-load a tree over the points `ids`, with coordinates resolved
    /// through `src`. Leaves are packed full. The tree depends only on
    /// the set of ids and their coordinates (module docs, tie rule).
    ///
    /// Contract (debug-checked): ids are unique and every id resolves to
    /// finite coordinates of dimensionality `src.dim()`.
    pub fn bulk_load<S: CoordSource>(src: &S, ids: &[u32]) -> Self {
        Self::bulk_load_with_capacity(src, ids, crate::tree::DEFAULT_MAX_ENTRIES)
    }

    /// [`RStarTree::bulk_load`] with a custom node fan-out (clamped to
    /// a minimum of 4).
    pub fn bulk_load_with_capacity<S: CoordSource>(
        src: &S,
        ids: &[u32],
        max_entries: usize,
    ) -> Self {
        let max_entries = max_entries.max(4);
        let dim = src.dim();
        debug_assert!(dim >= 1, "dimension must be at least 1");
        // The leaves: runs of the STR order, each ascending so a leaf
        // scan walks the shared coordinate store monotonically
        // (prefetch-friendly) instead of in space-filling order. No ids
        // give one empty leaf.
        let (ids, groups) = str_leaves(src, ids, max_entries);
        let leaves = groups.len();
        let nodes: usize = level_widths(leaves, max_entries).sum();
        let mut spans = Vec::with_capacity(nodes);
        spans.extend(groups.into_iter().map(|g| Span {
            first: g.start as u32,
            count: g.len() as u32,
        }));
        let mut tree = RStarTree {
            dim,
            max_entries,
            leaves,
            ids,
            spans,
            bounds: Vec::with_capacity((nodes - 1) * 2 * dim),
        };

        // Level by level until a single root remains: the box of every
        // node of the level, then one parent per `max_entries` of them.
        let (mut lo, mut hi): (Vec<f32>, Vec<f32>) = (Vec::new(), Vec::new());
        let mut level = 0..leaves;
        while level.len() > 1 {
            for node in level.clone() {
                tree.node_mbr_into(src, node, &mut lo, &mut hi);
                tree.bounds.extend_from_slice(&lo);
                tree.bounds.extend_from_slice(&hi);
            }
            for first in level.clone().step_by(max_entries) {
                tree.spans.push(Span {
                    first: first as u32,
                    count: max_entries.min(level.end - first) as u32,
                });
            }
            level = level.end..tree.spans.len();
        }
        debug_assert_eq!(tree.spans.len(), nodes);
        tree
    }
}

/// The locality-preserving point order STR bulk loading induces: the
/// concatenation of the leaf groups [`RStarTree::bulk_load_with_capacity`]
/// would form over `ids` (same slab recursion, same `cap.max(4)` leaf
/// size, same `(coordinate, id)` tie rule), each group sorted ascending by
/// id. Like the tree, the order depends only on the set of ids and their
/// coordinates, not on the order of `ids`.
///
/// Relabeling points to this order makes every future leaf of a tree
/// bulk-loaded over the same coordinates a *contiguous run* of ids, so
/// leaf scans and candidate verification read near-sequential memory —
/// the id-space half of DB-LSH's locality-aware relabeling (`dblsh-core`
/// reorders its dataset and projection store rows to match).
///
/// Contract (debug-checked, as for bulk loading): ids are unique and
/// resolve to finite coordinates of dimensionality `src.dim()`.
pub fn str_order<S: CoordSource>(src: &S, ids: &[u32], max_entries: usize) -> Vec<u32> {
    str_leaves(src, ids, max_entries.max(4)).0
}

/// STR leaf groups of at most `cap` ids over `ids`: the ids in leaf order,
/// each leaf's run sorted ascending, and the run of every leaf.
fn str_leaves<S: CoordSource>(src: &S, ids: &[u32], cap: usize) -> (Vec<u32>, Vec<Range<usize>>) {
    debug_assert!(
        ids.iter()
            .all(|&id| src.coords(id).iter().all(|v| v.is_finite())),
        "non-finite coordinate in STR partitioning"
    );
    debug_assert!(
        {
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        },
        "duplicate id in STR partitioning"
    );
    let mut keys: Vec<u64> = ids.iter().map(|&id| u64::from(id)).collect();
    let mut groups = Vec::with_capacity(ids.len() / cap + 1);
    str_partition(&mut keys, 0, src, cap, &mut groups, 0);
    let mut order: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
    for g in &groups {
        order[g.clone()].sort_unstable();
    }
    (order, groups)
}

/// Recursively tile `keys` (ids in the low 32 bits) into contiguous
/// leaf-sized ranges appended to `groups`, in `(coordinate, id)` order on
/// each axis. `base` is the offset of `keys` within the full array. On
/// return each range holds exactly the ids of its leaf, in no particular
/// order.
fn str_partition<S: CoordSource>(
    keys: &mut [u64],
    axis: usize,
    src: &S,
    cap: usize,
    groups: &mut Vec<Range<usize>>,
    base: usize,
) {
    let n = keys.len();
    if n <= cap {
        groups.push(base..base + n);
        return;
    }
    for key in keys.iter_mut() {
        let id = *key as u32;
        *key = (u64::from(ordered_bits(src.coords(id)[axis])) << 32) | u64::from(id);
    }
    let dim = src.dim();
    if axis + 1 == dim {
        // Last axis: consecutive leaf-sized runs.
        select_runs(keys, cap);
        for start in (0..n).step_by(cap) {
            groups.push(base + start..base + (start + cap).min(n));
        }
        return;
    }
    // Number of leaves below this subarray and slab count for this axis:
    // S = ceil(P^(1/remaining_axes)).
    let leaves = n.div_ceil(cap);
    let remaining = (dim - axis) as f64;
    let slabs = (leaves as f64).powf(1.0 / remaining).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    select_runs(keys, slab_size);
    for (i, slab) in keys.chunks_mut(slab_size).enumerate() {
        str_partition(slab, axis + 1, src, cap, groups, base + i * slab_size);
    }
}

/// Rearrange `keys` so every consecutive `run`-long chunk (the last one
/// possibly shorter) holds exactly the keys a full sort would put there:
/// a `select_nth_unstable` at the middle chunk boundary, then each half.
fn select_runs(keys: &mut [u64], run: usize) {
    let runs = keys.len().div_ceil(run);
    if runs <= 1 {
        return;
    }
    let mid = runs / 2 * run;
    keys.select_nth_unstable(mid);
    let (lo, hi) = keys.split_at_mut(mid);
    select_runs(lo, run);
    select_runs(hi, run);
}

/// The `u32` whose unsigned order is [`f32::total_cmp`]'s order: the sign
/// bit is set on non-negative values, and negative values are inverted
/// whole so that larger magnitudes sort lower.
#[inline]
fn ordered_bits(v: f32) -> u32 {
    let bits = v.to_bits();
    bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::OwnedCoords;
    use crate::rect::Rect;

    fn random_source(n: usize, dim: usize, seed: u64) -> OwnedCoords {
        // xorshift-based deterministic pseudo-random coordinates
        let mut s = seed.max(1);
        let mut out = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            out.push(((s >> 11) as f64 / (1u64 << 53) as f64 * 100.0) as f32);
        }
        OwnedCoords::from_flat(dim, out)
    }

    #[test]
    fn bulk_load_empty() {
        let src = OwnedCoords::new(4);
        let t = RStarTree::bulk_load(&src, &[]);
        assert!(t.is_empty());
        t.check_invariants(&src);
    }

    #[test]
    fn bulk_load_single_point() {
        let src = OwnedCoords::from_flat(3, vec![1.0, 2.0, 3.0]);
        let t = RStarTree::bulk_load(&src, &[0]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.check_invariants(&src);
        assert_eq!(t.k_nearest(&src, &[0.0, 0.0, 0.0], 1), vec![(0, 14.0)]);
        // one leaf, which is the root: no stored box
        assert_eq!(t.stats().nodes, 1);
    }

    /// One tree over every point and trees bulk-loaded one run of ids
    /// at a time (the way a growing index adds points) hold the same
    /// contents: a window over the runs' union equals the window over
    /// the one tree.
    #[test]
    fn bulk_load_matches_incremental_contents() {
        let n = 3000;
        let dim = 3;
        let src = random_source(n, dim, 42);
        let ids: Vec<u32> = (0..n as u32).collect();
        let bulk = RStarTree::bulk_load(&src, &ids);
        bulk.check_invariants(&src);
        assert_eq!(bulk.len(), n);

        let runs: Vec<RStarTree> = [0..1000, 1000..2024, 2024..2999, 2999..3000]
            .into_iter()
            .map(|run| RStarTree::bulk_load(&src, &ids[run]))
            .collect();
        for run in &runs {
            run.check_invariants(&src);
        }

        let w = Rect::new(&[10.0, 10.0, 10.0], &[60.0, 55.0, 70.0]);
        let mut a = bulk.window_all(&src, &w);
        let mut b: Vec<u32> = runs.iter().flat_map(|t| t.window_all(&src, &w)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "window should catch some points");
    }

    #[test]
    fn bulk_load_is_shallower_than_incremental() {
        let n = 5000;
        let src = random_source(n, 2, 7);
        let ids: Vec<u32> = (0..n as u32).collect();
        let bulk = RStarTree::bulk_load(&src, &ids);
        // ceil(log_32(5000/32)) + 1 = 3 levels at fan-out 32
        assert!(bulk.height() <= 3, "height = {}", bulk.height());
    }

    #[test]
    fn str_order_is_a_locality_permutation() {
        let n = 2000;
        let dim = 4;
        let src = random_source(n, dim, 21);
        let ids: Vec<u32> = (0..n as u32).collect();
        let order = str_order(&src, &ids, 32);
        // a permutation of the input ids
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ids);
        // relabeling to this order makes bulk-loaded leaves contiguous id
        // runs: rebuild coordinates in the new order and check that every
        // leaf of a fresh bulk load covers a dense id range
        let mut flat = Vec::with_capacity(n * dim);
        for &ext in &order {
            flat.extend_from_slice(src.coords(ext));
        }
        let relabeled = OwnedCoords::from_flat(dim, flat);
        let tree = RStarTree::bulk_load(&relabeled, &ids);
        tree.check_invariants(&relabeled);
        let mut covered = 0u32;
        let mut leaf_ids: Vec<u32> = Vec::new();
        let mut all: Vec<u32> = tree.iter_points(&relabeled).map(|(id, _)| id).collect();
        all.sort_unstable();
        assert_eq!(all.len(), n);
        // walk leaves via window batches over an all-covering window
        let everything = Rect::new(&[-1e9; 4], &[1e9; 4]);
        let mut cursor = tree.window(&relabeled, &everything);
        while let Some(batch) = cursor.next_batch() {
            leaf_ids.clear();
            leaf_ids.extend_from_slice(batch);
            leaf_ids.sort_unstable();
            assert_eq!(
                leaf_ids.last().unwrap() - leaf_ids[0] + 1,
                leaf_ids.len() as u32,
                "leaf ids are not a contiguous run"
            );
            covered += leaf_ids.len() as u32;
        }
        assert_eq!(covered, n as u32);
    }

    /// Coordinates on a 5-value integer grid: every axis is full of ties.
    fn grid_source(n: usize, dim: usize, seed: u64) -> OwnedCoords {
        let flat = random_source(n, dim, seed)
            .flat()
            .iter()
            .map(|v| (v / 20.0).floor())
            .collect();
        OwnedCoords::from_flat(dim, flat)
    }

    /// Deterministic Fisher–Yates shuffle of `0..n`.
    fn shuffled_ids(n: usize, seed: u64) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ids.swap(i, (s % (i as u64 + 1)) as usize);
        }
        ids
    }

    #[test]
    fn ordered_bits_is_total_cmp_order() {
        let values = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.5,
            -f32::MIN_POSITIVE,
            -1e-45,
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    ordered_bits(a).cmp(&ordered_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn trees_and_order_depend_only_on_ids_and_coordinates() {
        let (n, dim) = (3000, 3);
        let src = grid_source(n, dim, 11);
        let ids: Vec<u32> = (0..n as u32).collect();
        for cap in [4, 32] {
            let tree = format!("{:?}", RStarTree::bulk_load_with_capacity(&src, &ids, cap));
            let order = str_order(&src, &ids, cap);
            for seed in [3, 77, 1234] {
                let shuffled = shuffled_ids(n, seed);
                assert_eq!(
                    format!(
                        "{:?}",
                        RStarTree::bulk_load_with_capacity(&src, &shuffled, cap)
                    ),
                    tree,
                    "cap {cap}, shuffle {seed}: tree depends on input order"
                );
                assert_eq!(
                    str_order(&src, &shuffled, cap),
                    order,
                    "cap {cap}, shuffle {seed}: str_order depends on input order"
                );
            }
        }
    }

    /// Test-local oracle: the full-sort STR recursion, every slab sorted
    /// by `(coordinate, id)`, each leaf group sorted by id.
    fn oracle_leaves(src: &OwnedCoords, ids: &[u32], cap: usize) -> Vec<Vec<u32>> {
        fn rec(
            order: &mut [u32],
            axis: usize,
            src: &OwnedCoords,
            cap: usize,
            out: &mut Vec<Vec<u32>>,
        ) {
            let n = order.len();
            let leaf = |run: &[u32]| {
                let mut run = run.to_vec();
                run.sort_unstable();
                run
            };
            if n <= cap {
                out.push(leaf(order));
                return;
            }
            order.sort_unstable_by(|&a, &b| {
                src.coords(a)[axis]
                    .total_cmp(&src.coords(b)[axis])
                    .then(a.cmp(&b))
            });
            let dim = src.dim();
            if axis + 1 == dim {
                out.extend(order.chunks(cap).map(leaf));
                return;
            }
            let leaves = n.div_ceil(cap);
            let slabs = (leaves as f64).powf(1.0 / (dim - axis) as f64).ceil() as usize;
            for slab in order.chunks_mut(n.div_ceil(slabs.max(1))) {
                rec(slab, axis + 1, src, cap, out);
            }
        }
        let mut order = ids.to_vec();
        let mut out = Vec::new();
        rec(&mut order, 0, src, cap, &mut out);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn select_partition_matches_full_sort_oracle(
            dim in 1usize..5,
            n in 0usize..600,
            cap in 4usize..40,
            cells in proptest::prelude::prop::collection::vec((-3i32..4, 0u8..4, -1.0f32..1.0), 2400),
            seed in 1u64..1000,
        ) {
            // Mostly tied grid values, some -0.0 beside +0.0, some unique.
            let flat: Vec<f32> = cells[..n * dim]
                .iter()
                .map(|&(v, kind, frac)| match kind {
                    0 if v == 0 => -0.0,
                    3 => v as f32 + frac,
                    _ => v as f32,
                })
                .collect();
            let src = OwnedCoords::from_flat(dim, flat);
            let ids = shuffled_ids(n, seed);
            let (order, groups) = str_leaves(&src, &ids, cap);
            let got: Vec<Vec<u32>> = groups.into_iter().map(|g| order[g].to_vec()).collect();
            proptest::prop_assert_eq!(got, oracle_leaves(&src, &ids, cap));
        }
    }

    #[test]
    fn bulk_load_over_strided_view() {
        // Two interleaved 2-d point sets over one flat buffer: each
        // column window bulk-loads independently.
        let n = 200;
        let flat = random_source(n, 4, 5).flat().to_vec();
        let ids: Vec<u32> = (0..n as u32).collect();
        let left = crate::StridedCoords::new(&flat, 4, 0, 2);
        let right = crate::StridedCoords::new(&flat, 4, 2, 2);
        let tl = RStarTree::bulk_load(&left, &ids);
        let tr = RStarTree::bulk_load(&right, &ids);
        tl.check_invariants(&left);
        tr.check_invariants(&right);
        let everything = Rect::new(&[-1.0, -1.0], &[101.0, 101.0]);
        assert_eq!(tl.window_all(&left, &everything).len(), n);
        assert_eq!(tr.window_all(&right, &everything).len(), n);
    }
}
