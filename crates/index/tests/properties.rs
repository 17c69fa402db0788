//! Property-based tests: the flat-layout R*-tree must agree with brute
//! force on every query, for every construction path (incremental, bulk,
//! mixed), and bulk-built vs insert-grown trees must stay interchangeable
//! under interleaved insert/remove.

use dblsh_index::{OwnedCoords, RStarTree, Rect};
use proptest::prelude::*;

/// Strategy: a small point cloud in [-50, 50]^dim.
fn points(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-50.0f32..50.0, dim..=dim), 1..max_n)
}

fn source(pts: &[Vec<f32>], dim: usize) -> OwnedCoords {
    let flat: Vec<f32> = pts.iter().flatten().copied().collect();
    OwnedCoords::from_flat(dim, flat)
}

fn brute_window(pts: &[Vec<f32>], lo: &[f64], hi: &[f64]) -> Vec<u32> {
    let mut out: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            p.iter()
                .enumerate()
                .all(|(i, &v)| lo[i] <= v as f64 && v as f64 <= hi[i])
        })
        .map(|(i, _)| i as u32)
        .collect();
    out.sort_unstable();
    out
}

fn brute_knn(pts: &[Vec<f32>], q: &[f64], k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = pts
        .iter()
        .map(|p| {
            p.iter()
                .zip(q)
                .map(|(&a, &b)| (a as f64 - b) * (a as f64 - b))
                .sum()
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d.truncate(k);
    d
}

/// Dimensionalities the window tests run at: below one 4-lane chunk
/// (the safe arm of the probe kernel), whole chunks (4, 8, 12) and every
/// overlapping-tail length (5, 7, 10, 13).
const WINDOW_DIMS: [usize; 9] = [1, 3, 4, 5, 7, 8, 10, 12, 13];

/// A window over the first `dim` coordinates, sized (with `center`
/// near the middle of the cloud and `width` near 1) so that several
/// percent of a uniform `[-50, 50]^dim` cloud fall inside whatever the
/// dimensionality.
fn window_at(dim: usize, center: &[f64], width: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let side = 100.0 * 0.15f64.powf(1.0 / dim as f64);
    let lo = (0..dim)
        .map(|i| center[i] - side * width[i] / 2.0)
        .collect();
    let hi = (0..dim)
        .map(|i| center[i] + side * width[i] / 2.0)
        .collect();
    (lo, hi)
}

/// The first `dim` coordinates of every point.
fn truncated(pts: &[Vec<f32>], dim: usize) -> Vec<Vec<f32>> {
    pts.iter().map(|p| p[..dim].to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_equals_brute_force_incremental(
        pts in points(13, 200),
        center in prop::collection::vec(-15.0f64..15.0, 13),
        width in prop::collection::vec(0.85f64..1.15, 13),
    ) {
        for dim in WINDOW_DIMS {
            let pts = truncated(&pts, dim);
            let src = source(&pts, dim);
            let mut t = RStarTree::new(dim);
            for i in 0..pts.len() {
                t.insert(&src, i as u32);
            }
            t.check_invariants(&src);
            let (lo, hi) = window_at(dim, &center, &width);
            let mut got = t.window_all(&src, &Rect::new(&lo, &hi));
            got.sort_unstable();
            prop_assert_eq!(got, brute_window(&pts, &lo, &hi), "dim {}", dim);
        }
    }

    #[test]
    fn window_equals_brute_force_bulk(
        pts in points(13, 400),
        center in prop::collection::vec(-15.0f64..15.0, 13),
        width in prop::collection::vec(0.85f64..1.15, 13),
    ) {
        for dim in WINDOW_DIMS {
            let pts = truncated(&pts, dim);
            let src = source(&pts, dim);
            let ids: Vec<u32> = (0..pts.len() as u32).collect();
            let t = RStarTree::bulk_load(&src, &ids);
            t.check_invariants(&src);
            let (lo, hi) = window_at(dim, &center, &width);
            let mut got = t.window_all(&src, &Rect::new(&lo, &hi));
            got.sort_unstable();
            prop_assert_eq!(got, brute_window(&pts, &lo, &hi), "dim {}", dim);
        }
    }

    #[test]
    fn knn_distances_equal_brute_force(
        pts in points(4, 150),
        q in prop::collection::vec(-60.0f64..60.0, 4),
        k in 1usize..20,
    ) {
        let src = source(&pts, 4);
        let mut t = RStarTree::new(4);
        for i in 0..pts.len() {
            t.insert(&src, i as u32);
        }
        let got: Vec<f64> = t.k_nearest(&src, &q, k).into_iter().map(|(_, d)| d).collect();
        let want = brute_knn(&pts, &q, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "{} vs {}", g, w);
        }
    }

    #[test]
    fn removal_keeps_remaining_set_queryable(
        pts in points(2, 120),
        keep_mod in 2usize..5,
    ) {
        let src = source(&pts, 2);
        let mut t = RStarTree::new(2);
        for i in 0..pts.len() {
            t.insert(&src, i as u32);
        }
        for i in 0..pts.len() {
            if i % keep_mod != 0 {
                prop_assert!(t.remove(&src, i as u32));
            }
        }
        t.check_invariants(&src);
        let survivors: Vec<u32> = (0..pts.len())
            .filter(|i| i % keep_mod == 0)
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(t.len(), survivors.len());
        let w = Rect::new(&[-50.0, -50.0], &[50.0, 50.0]);
        let mut got = t.window_all(&src, &w);
        got.sort_unstable();
        prop_assert_eq!(got, survivors);
    }

    #[test]
    fn nearest_iter_is_sorted_prefix_closed(
        pts in points(3, 150),
        q in prop::collection::vec(-60.0f64..60.0, 3),
    ) {
        let src = source(&pts, 3);
        let mut t = RStarTree::new(3);
        for i in 0..pts.len() {
            t.insert(&src, i as u32);
        }
        let all: Vec<(u32, f64)> = t.nearest_iter(&src, &q).collect();
        prop_assert_eq!(all.len(), pts.len());
        for w in all.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    /// A bulk-built tree and an insert-grown tree over the same prefix
    /// must stay interchangeable through the same tail of interleaved
    /// inserts and removes: identical point sets under `window_all`, and
    /// identical `k_nearest` distances.
    #[test]
    fn bulk_and_grown_agree_after_interleaved_updates(
        pts in points(3, 160),
        split_frac in 0.2f64..0.8,
        remove_mod in 2usize..5,
        q in prop::collection::vec(-60.0f64..60.0, 3),
    ) {
        let src = source(&pts, 3);
        let n = pts.len();
        let split = ((n as f64 * split_frac) as usize).clamp(1, n);
        let prefix_ids: Vec<u32> = (0..split as u32).collect();

        let mut bulk = RStarTree::bulk_load(&src, &prefix_ids);
        let mut grown = RStarTree::new(3);
        for &id in &prefix_ids {
            grown.insert(&src, id);
        }

        // Interleave: insert the tail, removing every remove_mod-th
        // prefix point along the way — in identical order on both trees.
        for row in split..n {
            bulk.insert(&src, row as u32);
            grown.insert(&src, row as u32);
            let victim = (row - split) as u32;
            if victim.is_multiple_of(remove_mod as u32) && (victim as usize) < split {
                prop_assert!(bulk.remove(&src, victim));
                prop_assert!(grown.remove(&src, victim));
            }
        }
        bulk.check_invariants(&src);
        grown.check_invariants(&src);
        prop_assert_eq!(bulk.len(), grown.len());

        let w = Rect::new(&[-50.0, -50.0, -50.0], &[50.0, 50.0, 50.0]);
        let mut a = bulk.window_all(&src, &w);
        let mut b = grown.window_all(&src, &w);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "live point sets diverge");

        let da: Vec<f64> = bulk.k_nearest(&src, &q, 10).into_iter().map(|(_, d)| d).collect();
        let db: Vec<f64> = grown.k_nearest(&src, &q, 10).into_iter().map(|(_, d)| d).collect();
        prop_assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(&db) {
            prop_assert!((x - y).abs() < 1e-9, "knn distances diverge: {} vs {}", x, y);
        }
    }

    /// The structure reported by `stats` stays consistent with the
    /// logical contents, and the flat layout never allocates coordinate
    /// storage inside the tree (structure bytes are independent of how
    /// large the coordinate values are).
    #[test]
    fn stats_count_live_entries(
        pts in points(2, 200),
    ) {
        let src = source(&pts, 2);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let t = RStarTree::bulk_load(&src, &ids);
        let s = t.stats();
        prop_assert_eq!(s.leaf_entries, pts.len());
        prop_assert_eq!(s.structure_bytes, t.approx_memory());
        // Every tree byte is structure: ids (4 bytes each) plus inner
        // bounds — there is no per-point coordinate storage, which lives
        // in the CoordSource.
        let coord_bytes = std::mem::size_of_val(src.flat());
        prop_assert!(s.structure_bytes < coord_bytes + 4096,
            "structure {} suspiciously large vs coords {}", s.structure_bytes, coord_bytes);
    }
}
