//! Property tests of the dynamic-update path: an index grown through
//! `insert` (and shrunk through `remove`) must be indistinguishable from
//! one bulk-built over its live points across every write-path boundary
//! — tail flush, level merge, fold — and `remove`d points must never
//! resurface in any query mode.

use std::sync::Arc;

use dblsh_core::{DbLsh, DbLshParams, SearchOptions};
use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
use dblsh_data::{Dataset, SearchResult};
use proptest::prelude::*;

fn dataset(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-100.0f32..100.0, dim..=dim), 4..max_n)
}

fn params(n: usize) -> DbLshParams {
    DbLshParams::paper_defaults(n).with_kl(4, 3).with_r_min(0.5)
}

/// Node capacity of the write-boundary test: tail runs of `CAP²` = 16
/// rows, and a fold once the delta holds more than main's rows / (6 ·
/// `CAP`) — the thresholds the module docs of `dblsh_core::index` derive
/// from `node_capacity`.
const CAP: usize = 4;
const RUN: usize = CAP * CAP;
const FOLD_DIVISOR: usize = 6 * CAP;

/// Per-space leaf entries of every tree of `index` (main, levels).
fn held(index: &DbLsh) -> usize {
    let stats = index.tree_stats();
    assert!(stats
        .windows(2)
        .all(|w| w[0].leaf_entries == w[1].leaf_entries));
    stats[0].leaf_entries
}

/// `search_canonical` on `grown` and on a fresh bulk build over its live
/// points (quantized against `grown`'s grid, ids mapped back) must agree
/// on ids, distance bits and all five work counters, for every query.
fn assert_fresh_build_parity(grown: &DbLsh, params: &DbLshParams, queries: &[Vec<f32>]) {
    let live: Vec<u32> = (0..grown.id_bound() as u32)
        .filter(|&id| grown.contains(id))
        .collect();
    let rows: Vec<Vec<f32>> = live
        .iter()
        .map(|&id| grown.point(id).unwrap().to_vec())
        .collect();
    let grid = grown.sq8_store().grid().clone();
    let fresh =
        DbLsh::build_with_grid(Arc::new(Dataset::from_rows(&rows)), params, Some(grid)).unwrap();
    fresh.check_invariants();
    let opts = SearchOptions::default();
    for (qi, q) in queries.iter().enumerate() {
        let a = grown.search_canonical(q, 8, &opts).unwrap();
        let SearchResult {
            mut neighbors,
            stats,
        } = fresh.search_canonical(q, 8, &opts).unwrap();
        for n in &mut neighbors {
            n.id = live[n.id as usize];
        }
        let bits = |r: &[dblsh_data::Neighbor]| -> Vec<(u32, u32)> {
            r.iter().map(|n| (n.id, n.dist.to_bits())).collect()
        };
        assert_eq!(bits(&a.neighbors), bits(&neighbors), "query {qi}: answers");
        assert_eq!(a.stats, stats, "query {qi}: work counters");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writes cross every boundary of the write path — a tail flush, a
    /// level merge and a fold — with removes landing in main, in a level
    /// and in the tail, and the grown index answers `search_canonical`
    /// exactly like a fresh bulk build over its live points at each
    /// stage. Queries include the newest rows, so every tail row is hit.
    #[test]
    fn grown_index_answers_like_a_fresh_build_across_write_boundaries(
        seed in 0u64..1_000_000,
        base_extra in 0usize..200,
        remove_mod in 2usize..5,
        qpick in prop::collection::vec(0usize..1_000_000, 4),
    ) {
        // Main large enough that two tail runs merge, and half a run
        // more waits in the tail, before a fold.
        let n0 = 3 * RUN * FOLD_DIVISOR + base_extra;
        let dim = 6;
        let all = gaussian_mixture(&MixtureConfig {
            n: n0 + 4 * n0 / FOLD_DIVISOR,
            dim,
            clusters: 12,
            seed,
            ..Default::default()
        });
        let mut params = DbLshParams::paper_defaults(n0).with_kl(4, 3).with_r_min(0.5);
        params.node_capacity = CAP;
        let base = Dataset::from_flat(dim, all.flat()[..n0 * dim].to_vec());
        let mut grown = DbLsh::build(Arc::new(base), &params).unwrap();
        // Ids are dense, so the next id is the next unused mixture row.
        let insert = |grown: &mut DbLsh, count: usize| {
            for _ in 0..count {
                let next = grown.id_bound();
                assert_eq!(grown.insert(all.point(next)).unwrap() as usize, next);
            }
        };
        let queries = |newest: usize| -> Vec<Vec<f32>> {
            let mut q: Vec<Vec<f32>> = qpick
                .iter()
                .map(|&i| all.point(i % n0).to_vec())
                .collect();
            q.extend((newest.saturating_sub(3)..newest).map(|i| all.point(i).to_vec()));
            q
        };

        // A flush (16 rows become a level) and a merge (a second run
        // doubles it): 32 rows held by one level, none folded yet.
        insert(&mut grown, 2 * RUN);
        prop_assert_eq!(held(&grown), n0 + 2 * RUN);
        // Half a run more stays in the tail.
        insert(&mut grown, RUN / 2);
        prop_assert_eq!(held(&grown), n0 + 2 * RUN);
        // Removes in main, in the level and in the tail.
        let (tail_start, next) = (n0 + 2 * RUN, grown.id_bound());
        let victims = (0..n0)
            .step_by(remove_mod * 7)
            .chain((n0..tail_start).step_by(remove_mod))
            .chain((tail_start..next).step_by(remove_mod));
        for id in victims {
            prop_assert!(grown.remove(id as u32).unwrap());
        }
        prop_assert_eq!(held(&grown), n0 + 2 * RUN, "removes touch no tree");
        grown.check_invariants();
        assert_fresh_build_parity(&grown, &params, &queries(next));

        // Past the fold cap everything folds into main, live ids only;
        // then a short tail again, with one more remove in each segment.
        let live_before = grown.len();
        insert(&mut grown, n0 / FOLD_DIVISOR);
        prop_assert!(held(&grown) < grown.id_bound(), "a fold dropped the removed ids");
        prop_assert!(held(&grown) <= live_before + n0 / FOLD_DIVISOR);
        insert(&mut grown, RUN / 2 + 1);
        let next = grown.id_bound();
        for id in [1, tail_start + 1, next - 1] {
            let _ = grown.remove(id as u32).unwrap();
        }
        grown.check_invariants();
        assert_fresh_build_parity(&grown, &params, &queries(next));

        // Compaction changes nothing a query can see.
        let before: Vec<SearchResult> = queries(next)
            .iter()
            .map(|q| grown.search_canonical(q, 8, &SearchOptions::default()).unwrap())
            .collect();
        grown.compact();
        grown.check_invariants();
        for (q, want) in queries(next).iter().zip(&before) {
            let got = grown.search_canonical(q, 8, &SearchOptions::default()).unwrap();
            prop_assert_eq!(&got.neighbors, &want.neighbors);
            prop_assert_eq!(got.stats, want.stats);
        }
    }

    /// Content parity: bulk-building over `rows` and bulk-building over a
    /// prefix then `insert`ing the rest produce structurally equivalent
    /// indexes — same live ids at the same projected coordinates in every
    /// tree (asserted by `check_invariants`, which recomputes the
    /// projections) — and their `k_ann` answers agree.
    #[test]
    fn insert_grown_equals_bulk_built(
        rows in dataset(120, 8),
        split_frac in 0.1f64..0.9,
        k in 1usize..10,
        qi in 0usize..120,
    ) {
        let all = Dataset::from_rows(&rows);
        let n = all.len();
        let split = ((n as f64 * split_frac) as usize).clamp(1, n);
        let p = params(n);

        let bulk = DbLsh::build(Arc::new(all.clone()), &p).unwrap();

        let prefix = Dataset::from_flat(8, all.flat()[..split * 8].to_vec());
        let mut grown = DbLsh::build(Arc::new(prefix), &p).unwrap();
        for row in split..n {
            let id = grown.insert(all.point(row)).unwrap();
            prop_assert_eq!(id as usize, row, "insert ids must be dense row indexes");
        }

        prop_assert_eq!(grown.len(), bulk.len());
        bulk.check_invariants();
        grown.check_invariants();

        // Identical hasher (same seed, same dim) + identical point set =>
        // identical query answers. The segments differ (one main vs main,
        // delta levels and tail), so candidate enumeration order inside a
        // window differs; compare with an exhaustive per-query budget so
        // both indexes verify every point falling in their (identical)
        // windows before terminating.
        let q = all.point(qi % n).to_vec();
        let opts = SearchOptions { budget: Some(n), ..Default::default() };
        let rb = bulk.search_with(&q, k, &opts).unwrap();
        let rg = grown.search_with(&q, k, &opts).unwrap();
        let db: Vec<f32> = rb.dists();
        let dg: Vec<f32> = rg.dists();
        prop_assert_eq!(&db, &dg, "bulk and insert-grown answers diverge");
    }

    /// Removal: ids removed from the index never appear in any query
    /// mode's results, and the bookkeeping (len / contains / invariants)
    /// stays consistent.
    #[test]
    fn removed_ids_never_resurface(
        rows in dataset(100, 6),
        remove_mod in 2usize..5,
        k in 1usize..10,
        qi in 0usize..100,
    ) {
        let all = Dataset::from_rows(&rows);
        let n = all.len();
        let mut idx = DbLsh::build(Arc::new(all.clone()), &params(n)).unwrap();

        let removed: Vec<u32> = (0..n as u32).filter(|id| id % remove_mod as u32 == 0).collect();
        // keep at least one live point
        let removed = &removed[..removed.len().min(n - 1)];
        for &id in removed {
            prop_assert!(idx.remove(id).unwrap(), "first removal of {} reports true", id);
            prop_assert!(!idx.remove(id).unwrap(), "second removal of {} reports false", id);
        }
        prop_assert_eq!(idx.len(), n - removed.len());
        idx.check_invariants();

        let q = all.point(qi % n).to_vec();
        let ladder = idx.k_ann(&q, k).unwrap();
        let incremental = idx.k_ann_incremental(&q, k).unwrap();
        let probe = idx.r_c_nn(&q, 1000.0).unwrap().0;
        let batch = {
            let queries = Dataset::from_rows(std::slice::from_ref(&q));
            idx.search_batch(&queries, k).unwrap().remove(0)
        };
        for res in [&ladder, &incremental, &batch] {
            for nb in &res.neighbors {
                prop_assert!(
                    !removed.contains(&nb.id),
                    "removed id {} returned", nb.id
                );
                prop_assert!(idx.contains(nb.id));
            }
        }
        if let Some(hit) = probe {
            prop_assert!(!removed.contains(&hit.id), "removed id {} probed", hit.id);
        }
    }

    /// Flat-layout parity under interleaved updates: a bulk-built index
    /// and an insert-grown index receiving the same tail of interleaved
    /// inserts and removes answer identically (exhaustive budget), and
    /// both report consistent projection-store state.
    #[test]
    fn bulk_and_grown_agree_after_interleaved_updates(
        rows in dataset(100, 7),
        split_frac in 0.2f64..0.8,
        remove_mod in 2usize..5,
        extra in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 7..=7), 1..12),
        k in 1usize..8,
        qi in 0usize..100,
    ) {
        let all = Dataset::from_rows(&rows);
        let n = all.len();
        let split = ((n as f64 * split_frac) as usize).clamp(1, n);
        let p = params(n);

        let mut bulk = DbLsh::build(Arc::new(all.clone()), &p).unwrap();
        let prefix = Dataset::from_flat(7, all.flat()[..split * 7].to_vec());
        let mut grown = DbLsh::build(Arc::new(prefix), &p).unwrap();
        for row in split..n {
            grown.insert(all.point(row)).unwrap();
        }

        // Same interleaved tail on both: remove every remove_mod-th
        // existing id, insert the extra points.
        for (j, e) in extra.iter().enumerate() {
            let victim = ((j * remove_mod) % n) as u32;
            prop_assert_eq!(
                bulk.remove(victim).unwrap_or(false),
                grown.remove(victim).unwrap_or(false)
            );
            let ib = bulk.insert(e).unwrap();
            let ig = grown.insert(e).unwrap();
            prop_assert_eq!(ib, ig, "ids must stay in lockstep");
        }
        prop_assert_eq!(bulk.len(), grown.len());
        bulk.check_invariants();
        grown.check_invariants();
        // the shared store mirrors the dataset row for row in both
        prop_assert_eq!(bulk.proj_store().len(), bulk.data().len());
        prop_assert_eq!(grown.proj_store().len(), grown.data().len());

        let q = bulk.data().point(qi % bulk.data().len()).to_vec();
        let opts = SearchOptions { budget: Some(bulk.data().len()), ..Default::default() };
        let rb = bulk.search_with(&q, k, &opts).unwrap();
        let rg = grown.search_with(&q, k, &opts).unwrap();
        prop_assert_eq!(rb.dists(), rg.dists(), "bulk and grown answers diverge");
    }

    /// Insert after remove: the index stays consistent through interleaved
    /// updates, new ids are never recycled, and a fresh insert is
    /// immediately findable as its own nearest neighbor.
    #[test]
    fn interleaved_updates_stay_consistent(
        rows in dataset(60, 5),
        extra in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 5..=5), 1..10),
    ) {
        let all = Dataset::from_rows(&rows);
        let n = all.len();
        let mut idx = DbLsh::build(Arc::new(all), &params(n)).unwrap();

        for (j, p) in extra.iter().enumerate() {
            // remove an existing live point, then insert a new one
            let victim = (j % n) as u32;
            if idx.contains(victim) {
                prop_assert!(idx.remove(victim).unwrap());
            }
            let id = idx.insert(p).unwrap();
            prop_assert_eq!(id, (n + j) as u32, "ids must never be recycled");
            let found = idx.k_ann(p, 1).unwrap();
            prop_assert_eq!(found.neighbors[0].id, id);
            prop_assert_eq!(found.neighbors[0].dist, 0.0);
        }
        idx.check_invariants();
    }
}
