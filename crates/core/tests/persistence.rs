//! Compaction and snapshot property tests.
//!
//! * **Compaction transparency**: a compacted index must answer
//!   canonical-mode queries **byte-identically** to a never-compacted
//!   index that saw the same interleaved insert/remove traffic — same
//!   neighbor ids, bit-identical distances, same work counters — and
//!   external ids must stay stable and never be recycled across
//!   compactions.
//! * **Snapshot round trip**: `save` → `load` restores an index that
//!   answers byte-identically in canonical mode, with all dynamic state
//!   (tombstones, id bound, live count) intact, and that saves back to
//!   the same bytes.
//! * **Corruption safety**: truncated or bit-flipped snapshot bytes
//!   yield typed [`DbLshError`]s — never panics, never a silently wrong
//!   index.

use std::sync::Arc;

use dblsh_core::{DbLsh, DbLshParams, SearchOptions};
use dblsh_data::{Dataset, DbLshError};
use proptest::prelude::*;

/// Distinct-row datasets (duplicate points make leaf tie-breaking
/// order-dependent, exactly as in the relabel parity tests — the claims
/// here are about compaction and persistence, not duplicate
/// tie-breaks).
fn distinct_rows(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-100.0f32..100.0, dim..=dim), 8..max_n).prop_map(
        |mut rows| {
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows.dedup();
            rows
        },
    )
}

fn params(n: usize, relabel: bool) -> DbLshParams {
    DbLshParams::paper_defaults(n)
        .with_kl(4, 3)
        .with_r_min(0.5)
        .with_t(4)
        .with_relabel(relabel)
}

fn assert_canonical_parity(a: &DbLsh, b: &DbLsh, q: &[f32], k: usize) {
    let opts = SearchOptions::default();
    let ra = a.search_canonical(q, k, &opts).unwrap();
    let rb = b.search_canonical(q, k, &opts).unwrap();
    assert_eq!(ra.neighbors, rb.neighbors, "canonical answers diverge");
    for (x, y) in ra.neighbors.iter().zip(&rb.neighbors) {
        assert_eq!(
            x.dist.to_bits(),
            y.dist.to_bits(),
            "distances not byte-identical"
        );
    }
    assert_eq!(ra.stats, rb.stats, "work counters diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved insert/remove traffic with compactions sprinkled in:
    /// the compacted index stays byte-identical to the never-compacted
    /// one in canonical mode, external ids stay in lockstep (never
    /// recycled), and the compacted index reports zero dead rows after
    /// its final compaction.
    #[test]
    fn compaction_is_query_transparent_under_churn(
        rows in distinct_rows(90, 8),
        extra in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 8..=8), 1..16),
        remove_mod in 2usize..5,
        relabel in prop::bool::ANY,
        k in 1usize..8,
        qi in 0usize..90,
    ) {
        let data = Arc::new(Dataset::from_rows(&rows));
        let n = data.len();
        let p = params(n, relabel);
        let mut plain = DbLsh::build(Arc::clone(&data), &p).unwrap();
        let mut compacted = DbLsh::build(Arc::clone(&data), &p).unwrap();

        for (j, e) in extra.iter().enumerate() {
            let victim = ((j * remove_mod) % n) as u32;
            prop_assert_eq!(
                plain.remove(victim).unwrap_or(false),
                compacted.remove(victim).unwrap_or(false),
                "remove outcomes diverge"
            );
            let ia = plain.insert(e).unwrap();
            let ib = compacted.insert(e).unwrap();
            prop_assert_eq!(ia, ib, "external ids must stay in lockstep");
            if j % 3 == 0 {
                compacted.compact();
            }
        }
        compacted.compact();
        compacted.check_invariants();
        plain.check_invariants();
        prop_assert_eq!(compacted.dead_rows(), 0);
        prop_assert_eq!(compacted.memory_breakdown().dead_bytes, 0);
        prop_assert_eq!(compacted.len(), plain.len());
        prop_assert_eq!(compacted.id_bound(), plain.id_bound());

        // live/dead id visibility is identical
        for id in 0..plain.id_bound() as u32 {
            prop_assert_eq!(plain.contains(id), compacted.contains(id), "id {}", id);
            prop_assert_eq!(plain.point(id), compacted.point(id));
        }

        let q = data.point(qi % n).to_vec();
        assert_canonical_parity(&plain, &compacted, &q, k);
        // an off-dataset query too
        let q2: Vec<f32> = data
            .point(0)
            .iter()
            .zip(data.point(n - 1))
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        assert_canonical_parity(&plain, &compacted, &q2, k);

        // ids are never recycled: the next insert gets a fresh id on both
        let next = plain.insert(&[55.5; 8]).unwrap();
        prop_assert_eq!(compacted.insert(&[55.5; 8]).unwrap(), next);
    }

    /// save -> load -> query parity, through churn and compaction, for
    /// both relabeled and identity layouts.
    #[test]
    fn snapshot_round_trip_preserves_answers(
        rows in distinct_rows(90, 8),
        removes in prop::collection::vec(0usize..90, 0..20),
        relabel in prop::bool::ANY,
        do_compact in prop::bool::ANY,
        k in 1usize..8,
        qi in 0usize..90,
    ) {
        let data = Arc::new(Dataset::from_rows(&rows));
        let n = data.len();
        let mut idx = DbLsh::build(Arc::clone(&data), &params(n, relabel)).unwrap();
        for &r in &removes {
            let _ = idx.remove((r % n) as u32);
        }
        idx.insert(&[3.25; 8]).unwrap();
        if do_compact {
            idx.compact();
        }

        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let mut loaded = DbLsh::load(&bytes[..]).unwrap();
        loaded.check_invariants();
        // rows, store and maps are read into place: a re-save is the file
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        prop_assert_eq!(&again, &bytes, "save -> load -> save changed the bytes");
        prop_assert_eq!(loaded.len(), idx.len());
        prop_assert_eq!(loaded.id_bound(), idx.id_bound());
        prop_assert_eq!(loaded.dead_rows(), idx.dead_rows());
        prop_assert_eq!(loaded.params(), idx.params());
        for id in 0..idx.id_bound() as u32 {
            prop_assert_eq!(idx.contains(id), loaded.contains(id));
            prop_assert_eq!(idx.point(id), loaded.point(id));
        }

        let q = data.point(qi % n).to_vec();
        assert_canonical_parity(&idx, &loaded, &q, k);

        // the loaded index stays fully dynamic: fresh inserts agree
        prop_assert_eq!(
            idx.insert(&[7.5; 8]).unwrap(),
            loaded.insert(&[7.5; 8]).unwrap()
        );
        let q3 = vec![7.5f32; 8];
        assert_canonical_parity(&idx, &loaded, &q3, k);
    }

    /// Mangled snapshots fail with typed errors, never panics: every
    /// truncation prefix and a sweep of single-bit flips.
    #[test]
    fn mangled_snapshots_yield_typed_errors(
        rows in distinct_rows(40, 6),
        flip_seed in 0usize..1000,
    ) {
        let data = Arc::new(Dataset::from_rows(&rows));
        let idx = DbLsh::build(Arc::clone(&data), &params(data.len(), true)).unwrap();
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();

        // truncations: a spread of prefixes including section boundaries
        for cut in [0, 7, 11, 19, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            match DbLsh::load(&bytes[..cut.min(bytes.len() - 1)]) {
                Err(DbLshError::CorruptSnapshot { .. }) => {}
                other => prop_assert!(false, "cut {}: {:?}", cut, other.map(|_| ())),
            }
        }
        // one random single-bit flip per case
        let pos = flip_seed % bytes.len();
        let bit = 1u8 << (flip_seed % 8);
        let mut bad = bytes.clone();
        bad[pos] ^= bit;
        match DbLsh::load(&bad[..]) {
            Err(DbLshError::CorruptSnapshot { .. }) => {}
            Err(other) => prop_assert!(false, "flip at {pos}: unexpected error {other:?}"),
            Ok(_) => prop_assert!(false, "flip of bit {bit:#x} at {pos} went undetected"),
        }
    }
}
