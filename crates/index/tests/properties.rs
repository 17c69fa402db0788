//! Property-based tests: the flat-layout R*-tree must agree with brute
//! force on every query, whether one tree holds every point or the points
//! are split into runs, one bulk-loaded tree each.

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

    /// Points indexed incrementally, one bulk-loaded tree per run of
    /// ids (the way a growing index adds them): the union of the runs'
    /// windows is the brute-force window.
    #[test]
    fn window_equals_brute_force_incremental(
        pts in points(13, 200),
        run in 1usize..70,
        center in prop::collection::vec(-15.0f64..15.0, 13),
        width in prop::collection::vec(0.85f64..1.15, 13),
    ) {
        for dim in WINDOW_DIMS {
            let pts = truncated(&pts, dim);
            let src = source(&pts, dim);
            let ids: Vec<u32> = (0..pts.len() as u32).collect();
            let (lo, hi) = window_at(dim, &center, &width);
            let mut got = Vec::new();
            for chunk in ids.chunks(run) {
                let t = RStarTree::bulk_load(&src, chunk);
                t.check_invariants(&src);
                got.extend(t.window_all(&src, &Rect::new(&lo, &hi)));
            }
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
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let t = RStarTree::bulk_load(&src, &ids);
        let got: Vec<f64> = t.k_nearest(&src, &q, k).into_iter().map(|(_, d)| d).collect();
        let want = brute_knn(&pts, &q, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "{} vs {}", g, w);
        }
    }

    #[test]
    fn nearest_iter_is_sorted_prefix_closed(
        pts in points(3, 150),
        q in prop::collection::vec(-60.0f64..60.0, 3),
    ) {
        let src = source(&pts, 3);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let t = RStarTree::bulk_load(&src, &ids);
        let all: Vec<(u32, f64)> = t.nearest_iter(&src, &q).collect();
        prop_assert_eq!(all.len(), pts.len());
        for w in all.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    /// The structure reported by `stats` stays consistent with the
    /// logical contents, and the packed arena holds no coordinates:
    /// structure bytes are the tree itself, 4 bytes per id, one 8-byte
    /// `(first, count)` span per node and one `2 x dim` f32 box per
    /// non-root node — nothing per point beyond its id, and no slack.
    #[test]
    fn stats_count_live_entries(
        pts in points(2, 200),
    ) {
        let src = source(&pts, 2);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let t = RStarTree::bulk_load(&src, &ids);
        let s = t.stats();
        prop_assert_eq!(s.leaf_entries, pts.len());
        prop_assert_eq!(s.inner_entries, s.nodes - 1);
        prop_assert_eq!(s.structure_bytes, t.approx_memory());
        prop_assert_eq!(
            s.structure_bytes,
            std::mem::size_of::<RStarTree>() + 4 * pts.len() + 8 * s.nodes + 2 * 2 * 4 * (s.nodes - 1)
        );
    }
}
