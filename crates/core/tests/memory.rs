//! Layout regression tests: the flat index (shared `f32` projection
//! store + one packed id-only arena per tree) must stay strictly below the memory
//! footprint of the seed layout, which boxed every leaf's coordinates
//! (`Entry::Point { coords: Box<[f64]> }`) and every inner bound
//! (`Rect` = two `Box<[f64]>`s) inside 48-byte entry enums, per tree.
//!
//! And the single-row-copy claim, measured rather than accounted: a
//! counting global allocator shows an index that owns its rows holds
//! `memory_bytes()` plus *one* copy of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dblsh_core::{DbLsh, DbLshParams};
use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
use dblsh_data::Dataset;

/// Bytes currently allocated by this test binary.
static LIVE_HEAP: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees are this allocator's; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // order: Relaxed — a statistic, read only while no other test runs.
            LIVE_HEAP.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        // order: Relaxed — as in `alloc`.
        LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` as in `dealloc`; `new_size` is the
        // caller's, passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // order: Relaxed — as in `alloc`.
            LIVE_HEAP.fetch_add(new_size, Ordering::Relaxed);
            LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The heap counter is process-wide and `cargo test` runs this file's
/// tests on parallel threads: every test holds this lock, so the one
/// that reads the counter sees only its own allocations.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Conservative (under-)estimate of what the seed layout spent on the
/// same trees: per leaf entry a 48-byte `Entry` enum plus a
/// `K x f64` coordinate box; per inner entry a 48-byte enum plus a
/// `2 x K x f64` rect; per node the old 32-byte header. Allocator
/// headers and `Vec` slack are ignored, which only makes the bound
/// harder to beat.
fn seed_layout_estimate(index: &DbLsh) -> usize {
    let k = index.params().k;
    index
        .tree_stats()
        .iter()
        .map(|stats| {
            stats.nodes * 32
                + stats.leaf_entries * (48 + k * 8)
                + stats.inner_entries * (48 + k * 16)
        })
        .sum()
}

#[test]
fn flat_index_reports_strictly_less_than_seed_layout_at_10k() {
    let _serial = serial();
    let data = Arc::new(gaussian_mixture(&MixtureConfig {
        n: 10_000,
        dim: 32,
        clusters: 30,
        ..Default::default()
    }));
    // Relabeling adds the id maps, accounted separately below; the
    // flat-vs-seed layout claim is about the structural layout itself,
    // so pin it on the identity-order build.
    let params = DbLshParams::paper_defaults(data.len())
        .with_kl(10, 5)
        .with_relabel(false);
    let index = DbLsh::build(Arc::clone(&data), &params).unwrap();

    let flat = index.memory_bytes();
    let seed = seed_layout_estimate(&index);
    assert!(
        flat < seed,
        "flat layout ({flat} B) must undercut the seed layout ({seed} B)"
    );
    // The structural win is large, not marginal: the seed stored every
    // coordinate in f64 boxes behind 48-byte enums; the flat layout
    // stores them once, in f32, plus 4-byte ids.
    assert!(
        flat * 2 < seed,
        "expected at least 2x reduction: flat {flat} B vs seed {seed} B"
    );

    let breakdown = index.memory_breakdown();
    assert_eq!(breakdown.total(), flat);
    assert!(breakdown.proj_store_bytes > 0);
    assert!(breakdown.tree_bytes > 0);
    assert_eq!(breakdown.relabel_bytes, 0, "identity build has no maps");
    // The store dominates: n * L * K * 4 bytes of coordinates vs id-only
    // tree arenas.
    assert!(breakdown.proj_store_bytes > breakdown.tree_bytes);
    // Store size is exactly predictable (capacity may round up).
    let n = data.len();
    let expect_store = n * params.l * params.k * 4;
    assert!(breakdown.proj_store_bytes >= expect_store);
    assert!(breakdown.proj_store_bytes <= expect_store * 2);
    // Tree size is exactly predictable: a fresh build is one bulk-loaded
    // tree per space, each one packed arena sized exactly — a `u32` per
    // id, an 8-byte `(first, count)` per node and a `2K`-float box per
    // node but the root.
    let stats = index.tree_stats();
    assert_eq!(stats.len(), params.l);
    for s in &stats {
        assert_eq!(s.leaf_entries, n);
        assert_eq!(
            s.structure_bytes,
            std::mem::size_of::<dblsh_index::RStarTree>()
                + 4 * n
                + 8 * s.nodes
                + 2 * params.k * 4 * (s.nodes - 1)
        );
    }
    assert_eq!(
        breakdown.tree_bytes,
        stats.iter().map(|s| s.structure_bytes).sum::<usize>()
    );
}

#[test]
fn relabeled_index_accounts_its_locality_state() {
    let _serial = serial();
    let data = Arc::new(gaussian_mixture(&MixtureConfig {
        n: 10_000,
        dim: 32,
        clusters: 30,
        ..Default::default()
    }));
    let params = DbLshParams::paper_defaults(data.len()).with_kl(10, 5);
    let index = DbLsh::build(Arc::clone(&data), &params).unwrap();
    assert!(index.is_relabeled());

    let breakdown = index.memory_breakdown();
    assert_eq!(breakdown.total(), index.memory_bytes());
    // The relabel state is exactly the two u32 maps: the rows exist
    // once, in internal order, and are not a component.
    let n = data.len();
    assert_eq!(breakdown.relabel_bytes, n * 2 * 4);
    // Identical trees/store as the identity build — relabeling permutes
    // rows, it does not grow the structural layout — so the whole index
    // costs exactly the maps more.
    let identity = DbLsh::build(Arc::clone(&data), &params.clone().with_relabel(false)).unwrap();
    let id_breakdown = identity.memory_breakdown();
    assert_eq!(breakdown.proj_store_bytes, id_breakdown.proj_store_bytes);
    assert_eq!(index.memory_bytes(), identity.memory_bytes() + 8 * n);
}

#[test]
fn an_owning_index_holds_its_rows_once() {
    let _serial = serial();
    let config = MixtureConfig {
        n: 20_000,
        dim: 32,
        clusters: 30,
        ..Default::default()
    };
    // Sole owner of its rows — a served shard, a loaded index: the heap
    // the index pins is its accounted structures plus one row copy.
    // order: Relaxed — `serial()` keeps every other test off the counter.
    let before = LIVE_HEAP.load(Ordering::Relaxed);
    let data = gaussian_mixture(&config);
    let row_bytes = std::mem::size_of_val(data.flat());
    let params = DbLshParams::paper_defaults(data.len());
    let index = DbLsh::build(Arc::new(data), &params).unwrap();
    let held = LIVE_HEAP.load(Ordering::Relaxed) - before;
    // (No rows hide in the accounted part: its id-map share is the maps.)
    assert_eq!(index.memory_breakdown().relabel_bytes, 8 * index.len());
    let budget = index.memory_bytes() + row_bytes + row_bytes / 20;
    assert!(
        held <= budget,
        "index holds {held} B of heap: memory_bytes() {} B + {:.2} row copies",
        index.memory_bytes(),
        (held - index.memory_bytes()) as f64 / row_bytes as f64
    );

    // The index never keeps the caller's handle, so no write can touch
    // — or copy — the caller's dataset.
    let shared = Arc::new(gaussian_mixture(&config));
    let mut built = DbLsh::build(Arc::clone(&shared), &params).unwrap();
    assert_eq!(Arc::strong_count(&shared), 1);
    let snapshot = Dataset::clone(&shared);
    for i in 0..100 {
        built.insert(&[i as f32; 32]).unwrap();
    }
    assert_eq!(*shared, snapshot, "caller's dataset changed under inserts");
    assert_eq!(built.len(), shared.len() + 100);
}

#[test]
fn dead_bytes_tracks_churn_and_compaction_reclaims_it() {
    let _serial = serial();
    let data = Arc::new(gaussian_mixture(&MixtureConfig {
        n: 2_000,
        dim: 16,
        clusters: 10,
        ..Default::default()
    }));
    let params = DbLshParams::paper_defaults(data.len()).with_kl(8, 3);
    let mut index = DbLsh::build(Arc::clone(&data), &params).unwrap();
    assert_eq!(index.memory_breakdown().dead_bytes, 0, "fresh build");

    // Remove half: dead_bytes must report exactly the tombstoned rows'
    // share of the store, the dataset rows, the id maps, the SQ8 code
    // store and the leaf entries main's trees still hold.
    for id in 0..1000u32 {
        index.remove(id).unwrap();
    }
    let breakdown = index.memory_breakdown();
    let per_row = 8 * 3 * 4 /* store row */ + 16 * 4 /* dataset row */
        + 8 /* map entries */ + 16 /* sq8 code row */ + 1 /* sq8 clamped flag */
        + 3 * 4 /* one u32 leaf entry per tree */;
    assert_eq!(breakdown.dead_bytes, 1000 * per_row);
    assert_eq!(index.dead_rows(), 1000);

    // Compaction returns it to zero and shrinks the owned total.
    let before_total = breakdown.total();
    let stats = index.compact();
    assert_eq!(stats.reclaimed_bytes, 1000 * per_row);
    let after = index.memory_breakdown();
    assert_eq!(after.dead_bytes, 0);
    assert!(
        after.total() < before_total,
        "compacted total {} must undercut pre-compaction total {}",
        after.total(),
        before_total
    );
    index.check_invariants();
}

#[test]
fn memory_shrinks_versus_seed_even_after_updates() {
    let _serial = serial();
    let data = Arc::new(gaussian_mixture(&MixtureConfig {
        n: 2_000,
        dim: 16,
        clusters: 10,
        ..Default::default()
    }));
    let params = DbLshParams::paper_defaults(data.len()).with_kl(8, 3);
    let mut index = DbLsh::build(Arc::clone(&data), &params).unwrap();
    for id in 0..500u32 {
        index.remove(id).unwrap();
    }
    for i in 0..250 {
        index.insert(&[i as f32; 16]).unwrap();
    }
    index.check_invariants();
    // The flat-vs-seed claim is about the structural layout; the SQ8
    // pre-filter codes are a *new* component the seed never carried, so
    // they are excluded from the comparison (and bounded separately —
    // one u8 per coordinate plus one flag byte per row stays a sliver
    // of the projection store).
    let breakdown = index.memory_breakdown();
    assert!(breakdown.total() - breakdown.sq8_bytes < seed_layout_estimate(&index));
    assert!(
        breakdown.sq8_bytes * 4 < breakdown.proj_store_bytes,
        "sq8 codes ({} B) should be a sliver of the store ({} B)",
        breakdown.sq8_bytes,
        breakdown.proj_store_bytes
    );
}
