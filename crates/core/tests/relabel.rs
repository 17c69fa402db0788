//! Relabel parity property tests: a locality-relabeled (bulk-built) index
//! must be *observationally identical* to an identity-order build — same
//! neighbor ids, bit-identical distances, same work counters — across
//! every query mode, and must stay identical through interleaved
//! `insert`/`remove` traffic after relabeling.
//!
//! This holds by construction: per-row distances from the fused kernel
//! are bit-identical to the scalar kernel regardless of block position,
//! candidate blocks are consumed in canonical `(distance, external id)`
//! order, and all public ids are translated back to the external space.

use std::sync::Arc;

use dblsh_core::{DbLsh, DbLshParams, SearchOptions};
use dblsh_data::Dataset;
use proptest::prelude::*;

/// Distinct-row datasets: duplicate points project to identical
/// coordinates, which makes the STR grouping (and therefore which leaf a
/// tied point lands in) depend on the input order — deduplicate so the
/// parity claim is about the relabeling, not about tie-breaking.
fn distinct_rows(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-100.0f32..100.0, dim..=dim), 4..max_n).prop_map(
        |mut rows| {
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows.dedup();
            rows
        },
    )
}

fn params(n: usize) -> DbLshParams {
    DbLshParams::paper_defaults(n)
        .with_kl(4, 3)
        .with_r_min(0.5)
        .with_t(4) // small budget so the budget cutoff is exercised
}

fn assert_same_answers(a: &DbLsh, b: &DbLsh, q: &[f32], k: usize) {
    let ra = a.k_ann(q, k).unwrap();
    let rb = b.k_ann(q, k).unwrap();
    assert_eq!(ra.neighbors, rb.neighbors, "k_ann answers diverge");
    assert_eq!(ra.stats, rb.stats, "k_ann work accounting diverges");

    let (pa, sa) = a.r_c_nn(q, 2.0).unwrap();
    let (pb, sb) = b.r_c_nn(q, 2.0).unwrap();
    assert_eq!(pa, pb, "r_c_nn answers diverge");
    assert_eq!(sa, sb);

    let ia = a.k_ann_incremental(q, k).unwrap();
    let ib = b.k_ann_incremental(q, k).unwrap();
    assert_eq!(ia.neighbors, ib.neighbors, "incremental answers diverge");
    assert_eq!(ia.stats, ib.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-identical answers: ids, distances (bitwise — both builds run
    /// the same per-row kernel in the same canonical order) and stats
    /// agree between a relabeled and an identity-order build, in every
    /// query mode, for fresh bulk builds.
    #[test]
    fn relabeled_build_answers_identically(
        rows in distinct_rows(120, 8),
        k in 1usize..10,
        qi in 0usize..120,
    ) {
        let data = Arc::new(Dataset::from_rows(&rows));
        let n = data.len();
        let p = params(n);
        let relabeled = DbLsh::build(Arc::clone(&data), &p).unwrap();
        let identity =
            DbLsh::build(Arc::clone(&data), &p.clone().with_relabel(false)).unwrap();
        prop_assert!(relabeled.is_relabeled());
        prop_assert!(!identity.is_relabeled());
        relabeled.check_invariants();

        // id-addressed access is the caller's row order either way
        for id in 0..n as u32 {
            prop_assert_eq!(relabeled.point(id), Some(data.point(id as usize)));
            prop_assert_eq!(identity.point(id), Some(data.point(id as usize)));
        }

        let q = data.point(qi % n).to_vec();
        assert_same_answers(&relabeled, &identity, &q, k);

        // an off-dataset query too (midpoint of two rows)
        let q2: Vec<f32> = data
            .point(0)
            .iter()
            .zip(data.point(n - 1))
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        assert_same_answers(&relabeled, &identity, &q2, k);
    }

    /// Parity survives dynamic traffic: after the same interleaved
    /// removes and inserts on both builds, ids stay in lockstep and all
    /// query modes still answer byte-identically.
    #[test]
    fn relabeled_parity_through_interleaved_updates(
        rows in distinct_rows(100, 6),
        extra in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 6..=6), 1..12),
        remove_mod in 2usize..5,
        k in 1usize..8,
        qi in 0usize..100,
    ) {
        let data = Arc::new(Dataset::from_rows(&rows));
        let n = data.len();
        let p = params(n);
        let mut relabeled = DbLsh::build(Arc::clone(&data), &p).unwrap();
        let mut identity =
            DbLsh::build(Arc::clone(&data), &p.clone().with_relabel(false)).unwrap();

        for (j, e) in extra.iter().enumerate() {
            let victim = ((j * remove_mod) % n) as u32;
            prop_assert_eq!(
                relabeled.remove(victim).unwrap_or(false),
                identity.remove(victim).unwrap_or(false),
                "remove outcomes diverge"
            );
            let ir = relabeled.insert(e).unwrap();
            let ii = identity.insert(e).unwrap();
            prop_assert_eq!(ir, ii, "external insert ids must stay in lockstep");
            prop_assert!(relabeled.contains(ir));
        }
        prop_assert_eq!(relabeled.len(), identity.len());
        relabeled.check_invariants();
        identity.check_invariants();

        let q = relabeled.data().point(qi % relabeled.data().len()).to_vec();
        assert_same_answers(&relabeled, &identity, &q, k);

        // per-query overrides keep parity too
        let opts = SearchOptions { budget: Some(3), ..Default::default() };
        let ra = relabeled.search_with(&q, k, &opts).unwrap();
        let rb = identity.search_with(&q, k, &opts).unwrap();
        prop_assert_eq!(ra.neighbors, rb.neighbors);
        prop_assert_eq!(ra.stats, rb.stats);
        prop_assert!(ra.stats.candidates <= 3, "budget override ignored");
    }
}
