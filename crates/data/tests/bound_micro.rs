//! Ignored-by-default microbenchmark isolating the pre-filter bound scan
//! against the exact kernel it gates.  Run with:
//! `cargo test -q -p dblsh-data --release --test bound_micro -- --ignored --nocapture`

use dblsh_data::dataset::sq_dist;
use dblsh_data::kernels::{
    canonical_verify_keys, canonical_verify_keys_prefiltered, sq_dist_block,
};
use dblsh_data::sq8::lower_bound_block;
use dblsh_data::{Sq8Query, Sq8Store};
use std::time::Instant;

#[test]
#[ignore]
fn bound_scan_vs_exact_kernel() {
    for (n, dim) in [
        (5000usize, 24usize),
        (50000, 128),
        (300000, 96),
        (500000, 128),
    ] {
        run(n, dim);
    }
}

fn run(n: usize, dim: usize) {
    let flat: Vec<f32> = (0..n * dim)
        .map(|i| (((i * 2654435761 + 7) % 8191) as f32 / 8191.0 - 0.5) * 120.0)
        .collect();
    let store = Sq8Store::learn_and_build(dim, &flat);
    let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.61).sin() * 30.0).collect();
    let mut prep = Sq8Query::empty();
    store.prepare_query(&q, &mut prep);

    // Distinct pseudo-random blocks per iteration, so large datasets are
    // measured with realistic (cache-cold) row access instead of re-scanning
    // one hot block.
    // Enough distinct blocks that large datasets cannot stay cache-hot
    // across iterations.
    let nblocks = (n / 150).clamp(64, 2048);
    let blocks: Vec<Vec<u32>> = (0..nblocks)
        .map(|b| {
            let mut ids: Vec<u32> = (0..195u32)
                .map(|i| ((b * 195 + i as usize) * 2654435761 % n) as u32)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    let rows: usize = blocks.iter().map(|b| b.len()).sum();

    let iters = (400_000 / rows).max(8);
    let mut bounds = Vec::new();
    let t = Instant::now();
    for it in 0..iters {
        for b in &blocks {
            lower_bound_block(&prep, &store, b, &mut bounds);
        }
        std::hint::black_box(it);
    }
    let bound_ns = t.elapsed().as_nanos() as f64 / (iters * rows) as f64;

    let mut dists = vec![0.0f32; 256];
    let t = Instant::now();
    for it in 0..iters {
        for b in &blocks {
            dists.resize(b.len(), 0.0);
            sq_dist_block(&q, &flat, dim, b, &mut dists);
        }
        std::hint::black_box(it);
    }
    let exact_ns = t.elapsed().as_nanos() as f64 / (iters * rows) as f64;

    let mut acc = 0.0f32;
    let t = Instant::now();
    for _ in 0..iters {
        for b in &blocks {
            for &id in b {
                acc += sq_dist(&q, &flat[id as usize * dim..(id as usize + 1) * dim]);
            }
        }
    }
    let scalar_ns = t.elapsed().as_nanos() as f64 / (iters * rows) as f64;

    println!(
        "n={n} dim={dim}: per-row bound scan {bound_ns:.1} ns, exact block kernel {exact_ns:.1} ns, \
         scalar exact {scalar_ns:.1} ns (acc {acc:.1}, arch {:?})",
        dblsh_data::kernels::simd_arch()
    );

    // Full staging pipelines, prefiltered vs plain, at a threshold chosen
    // to prune about 2/3 of each block (the rate smoke observes).
    let mut all = Vec::new();
    for b in &blocks {
        for &id in b {
            all.push(sq_dist(
                &q,
                &flat[id as usize * dim..(id as usize + 1) * dim],
            ));
        }
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = all[all.len() / 3];

    let mut block_scratch = Vec::new();
    let mut dists2 = Vec::new();
    let mut survivors = Vec::new();
    let mut keys = Vec::new();
    let mut pruned_total = 0usize;
    let t = Instant::now();
    for _ in 0..iters {
        for b in &blocks {
            block_scratch.clear();
            block_scratch.extend_from_slice(b);
            let (p, _s) = canonical_verify_keys_prefiltered(
                &q,
                &flat,
                dim,
                &store,
                &prep,
                threshold,
                &mut block_scratch,
                &mut dists2,
                &mut survivors,
                &mut keys,
                |id| id,
                None,
            );
            pruned_total += p;
        }
    }
    let on_ns = t.elapsed().as_nanos() as f64 / (iters * rows) as f64;

    let t = Instant::now();
    for _ in 0..iters {
        for b in &blocks {
            block_scratch.clear();
            block_scratch.extend_from_slice(b);
            canonical_verify_keys(
                &q,
                &flat,
                dim,
                &mut block_scratch,
                &mut dists2,
                &mut keys,
                |id| id,
            );
        }
    }
    let off_ns = t.elapsed().as_nanos() as f64 / (iters * rows) as f64;
    println!(
        "  staging per-row: prefilter ON {on_ns:.1} ns, OFF {off_ns:.1} ns \
         ({:.1}% pruned, speedup {:.2}x)",
        pruned_total as f64 / (iters * rows) as f64 * 100.0,
        off_ns / on_ns
    );
}
