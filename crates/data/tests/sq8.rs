//! Property tests of the SQ8 quantized pre-filter: the lower bound must
//! never exceed the exact squared distance (the soundness the pruning
//! contract rests on), every compiled SIMD arm of the bound scan — and of
//! the exact kernels it gates — must be bit-identical to its scalar
//! reference, and the branch-free encoder must match `f32::round`.

use dblsh_data::dataset::sq_dist;
use dblsh_data::sq8::{lower_bound, lower_bound_block, lower_bound_scalar};
use dblsh_data::{Sq8Grid, Sq8Query, Sq8Store};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix: `n` rows of `dim` values in
/// roughly `[-scale, scale]`, with every dimension `j < constant_dims`
/// pinned to a single value (min == max grid degeneracy).
fn matrix(n: usize, dim: usize, scale: f32, constant_dims: usize, seed: usize) -> Vec<f32> {
    (0..n * dim)
        .map(|i| {
            let j = i % dim;
            if j < constant_dims {
                scale * 0.25
            } else {
                (((i * 2654435761 + seed) % 8191) as f32 / 8191.0 - 0.5) * 2.0 * scale
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: for every row the grid was learned from,
    /// `lower_bound <= sq_dist` — across tiny and huge coordinate
    /// scales, degenerate constant dimensions, and queries far outside
    /// the learned range.
    #[test]
    fn lower_bound_never_exceeds_exact(
        dim in 1usize..48,
        n in 1usize..24,
        scale_exp in -6i32..7,
        constant_dims in 0usize..4,
        q_offset in -3.0f32..3.0,
        seed in 0usize..1000,
    ) {
        let scale = 10.0f32.powi(scale_exp);
        let constant_dims = constant_dims.min(dim);
        let flat = matrix(n, dim, scale, constant_dims, seed);
        let store = Sq8Store::learn_and_build(dim, &flat);
        // Queries both inside and well outside the learned box.
        let q: Vec<f32> = (0..dim)
            .map(|j| ((j + seed) as f32 * 0.61).sin() * scale * (1.0 + q_offset.abs()) + q_offset * scale)
            .collect();
        let mut prep = Sq8Query::empty();
        store.prepare_query(&q, &mut prep);
        for id in 0..n as u32 {
            prop_assert!(!store.is_clamped(id), "learned rows never clamp");
            let bound = lower_bound(&prep, store.codes_row(id));
            let exact = sq_dist(&q, &flat[id as usize * dim..(id as usize + 1) * dim]);
            prop_assert!(
                bound <= exact,
                "row {}: bound {} exceeds exact {} (dim={}, scale={})",
                id, bound, exact, dim, scale
            );
        }
    }

    /// Every compiled arm of the bound scan returns bit-identical
    /// results — the pre-filter's prune/keep decisions cannot depend on
    /// which CPU the query ran on.
    #[test]
    fn lower_bound_arms_are_bitwise_identical(
        dim in 1usize..48,
        n in 1usize..16,
        seed in 0usize..1000,
    ) {
        let flat = matrix(n, dim, 20.0, 0, seed);
        let store = Sq8Store::learn_and_build(dim, &flat);
        let q: Vec<f32> = (0..dim).map(|j| ((j + seed) as f32 * 0.37).cos() * 25.0).collect();
        let mut prep = Sq8Query::empty();
        store.prepare_query(&q, &mut prep);
        for id in 0..n as u32 {
            let codes = store.codes_row(id);
            let scalar = lower_bound_scalar(&prep, codes);
            prop_assert_eq!(lower_bound(&prep, codes).to_bits(), scalar.to_bits());
            #[cfg(target_arch = "x86_64")]
            {
                prop_assert_eq!(
                    dblsh_data::sq8::x86::lower_bound_sse2(&prep, codes).to_bits(),
                    scalar.to_bits(),
                    "sse2 arm diverged at row {}", id
                );
                if is_x86_feature_detected!("avx2") {
                    prop_assert_eq!(
                        dblsh_data::sq8::x86::lower_bound_avx2(&prep, codes).to_bits(),
                        scalar.to_bits(),
                        "avx2 arm diverged at row {}", id
                    );
                }
            }
            #[cfg(target_arch = "aarch64")]
            prop_assert_eq!(
                dblsh_data::sq8::neon::lower_bound_neon(&prep, codes).to_bits(),
                scalar.to_bits(),
                "neon arm diverged at row {}", id
            );
        }
    }

    /// The batched bound scan (the hot-path entry point, one dispatch per
    /// block) is bitwise-identical to the per-row dispatcher, arm by arm,
    /// and forces clamped rows to `0.0`.
    #[test]
    fn lower_bound_block_matches_per_row(
        dim in 1usize..48,
        n in 1usize..16,
        seed in 0usize..1000,
    ) {
        let flat = matrix(n, dim, 20.0, 0, seed);
        let mut store = Sq8Store::learn_and_build(dim, &flat);
        let clamp_row: Vec<f32> = (0..dim).map(|_| 1e7).collect();
        store.push(&clamp_row);
        let q: Vec<f32> = (0..dim).map(|j| ((j + seed) as f32 * 0.53).sin() * 25.0).collect();
        let mut prep = Sq8Query::empty();
        store.prepare_query(&q, &mut prep);
        let mut ids: Vec<u32> = (0..store.len() as u32).rev().collect();
        ids.push(0); // duplicate id: block entries need not be unique
        let mut got = Vec::new();
        lower_bound_block(&prep, &store, &ids, &mut got);
        prop_assert_eq!(got.len(), ids.len());
        for (j, &id) in ids.iter().enumerate() {
            let want = if store.is_clamped(id) { 0.0 } else { lower_bound(&prep, store.codes_row(id)) };
            prop_assert_eq!(got[j].to_bits(), want.to_bits(), "block row {} (id {})", j, id);
        }
        prop_assert_eq!(got[0].to_bits(), 0.0f32.to_bits(), "clamped row must bound to 0");
        let mut scalar = vec![0.0f32; ids.len()];
        dblsh_data::sq8::lower_bound_block_scalar(&prep, &store, &ids, &mut scalar);
        #[cfg(target_arch = "x86_64")]
        {
            let mut arm = vec![0.0f32; ids.len()];
            dblsh_data::sq8::x86::lower_bound_block_sse2(&prep, &store, &ids, &mut arm);
            for j in 0..ids.len() {
                prop_assert_eq!(arm[j].to_bits(), scalar[j].to_bits(), "sse2 block row {}", j);
            }
            if is_x86_feature_detected!("avx2") {
                dblsh_data::sq8::x86::lower_bound_block_avx2(&prep, &store, &ids, &mut arm);
                for j in 0..ids.len() {
                    prop_assert_eq!(arm[j].to_bits(), scalar[j].to_bits(), "avx2 block row {}", j);
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            let mut arm = vec![0.0f32; ids.len()];
            dblsh_data::sq8::neon::lower_bound_block_neon(&prep, &store, &ids, &mut arm);
            for j in 0..ids.len() {
                prop_assert_eq!(arm[j].to_bits(), scalar[j].to_bits(), "neon block row {}", j);
            }
        }
    }

    /// Every compiled arm of the exact kernels stays bitwise equal to the
    /// scalar reference (the canonical-answer byte-identity contract).
    #[test]
    fn exact_kernel_arms_are_bitwise_identical(
        dim in 1usize..40,
        n in 0usize..12,
        seed in 0usize..1000,
    ) {
        use dblsh_data::kernels::{dot_f64, matvec_scalar, sq_dist_block_scalar};
        let flat = matrix(n.max(1), dim, 30.0, 0, seed);
        let q: Vec<f32> = (0..dim).map(|j| ((j + seed) as f32 * 0.23).sin() * 15.0).collect();
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        let mut want = vec![0.0f32; n];
        sq_dist_block_scalar(&q, &flat, dim, &ids, &mut want);
        let mut got = vec![0.0f32; n];
        #[cfg(target_arch = "x86_64")]
        {
            dblsh_data::kernels::x86::sq_dist_block_sse2(&q, &flat, dim, &ids, &mut got);
            for j in 0..n {
                prop_assert_eq!(got[j].to_bits(), want[j].to_bits(), "sse2 row {}", j);
            }
            if is_x86_feature_detected!("avx2") {
                dblsh_data::kernels::x86::sq_dist_block_avx2(&q, &flat, dim, &ids, &mut got);
                for j in 0..n {
                    prop_assert_eq!(got[j].to_bits(), want[j].to_bits(), "avx2 row {}", j);
                }
                let a: Vec<f64> = (0..n * dim).map(|i| ((i + seed) as f64 * 0.41).sin()).collect();
                let mut mv = vec![0.0f64; n];
                matvec_scalar(&a, dim, &q, &mut mv);
                let mut mv_avx = vec![0.0f64; n];
                dblsh_data::kernels::x86::matvec_avx2(&a, dim, &q, &mut mv_avx);
                for j in 0..n {
                    prop_assert_eq!(mv_avx[j].to_bits(), mv[j].to_bits(), "matvec avx2 row {}", j);
                    prop_assert_eq!(
                        dblsh_data::kernels::x86::dot_f64_avx2(&a[j * dim..(j + 1) * dim], &q).to_bits(),
                        dot_f64(&a[j * dim..(j + 1) * dim], &q).to_bits(),
                        "dot avx2 row {}", j
                    );
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            dblsh_data::kernels::neon::sq_dist_block_neon(&q, &flat, dim, &ids, &mut got);
            for j in 0..n {
                prop_assert_eq!(got[j].to_bits(), want[j].to_bits(), "neon row {}", j);
            }
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let _ = &mut got;
        }
    }
}

/// Rows pushed after the grid was learned can fall outside the box: they
/// must be flagged clamped (the pre-filter then assigns them bound 0 and
/// never prunes them), while in-range pushes stay prunable.
#[test]
fn out_of_range_pushes_are_clamped_and_never_pruned() {
    let flat = matrix(8, 4, 1.0, 0, 7);
    let mut store = Sq8Store::learn_and_build(4, &flat);
    store.push(&[1e6, 0.0, 0.0, 0.0]);
    assert!(store.is_clamped(8), "far-out row must be flagged");
    store.push(&flat[..4]);
    assert!(!store.is_clamped(9), "in-range row stays prunable");
}

/// The grid itself is order-independent: learning over a permuted copy
/// of the rows yields the identical grid (the property the sharded
/// full-dataset grid injection relies on).
#[test]
fn grid_learning_is_order_independent() {
    let dim = 6;
    let flat = matrix(50, dim, 12.0, 1, 3);
    let grid = Sq8Grid::learn(dim, &flat);
    let mut rows: Vec<&[f32]> = flat.chunks(dim).collect();
    rows.reverse();
    rows.rotate_left(17);
    let permuted: Vec<f32> = rows.concat();
    let back = Sq8Grid::learn(dim, &permuted);
    assert_eq!(grid.min(), back.min());
    assert_eq!(grid.step(), back.step());
}

/// The encoder written with `f32::round`: the reference that
/// [`Sq8Grid::encode_row`]'s branch-free rounding must match bit for bit.
fn encode_by_round(grid: &Sq8Grid, row: &[f32]) -> (Vec<u8>, bool) {
    let mut clamped = false;
    let codes = row
        .iter()
        .enumerate()
        .map(|(j, &x)| {
            let r = ((x - grid.min()[j]) / grid.step()[j]).round();
            if r.is_finite() && (0.0..=255.0).contains(&r) {
                r as u8
            } else {
                clamped = true;
                if r > 255.0 {
                    255
                } else {
                    0
                }
            }
        })
        .collect();
    (codes, clamped)
}

/// Every rounding boundary `k ± 0.5` of the grid, one ulp either side of
/// it, the ends `-0.5` / `255.5`, `±0.0` and values far off the grid, on
/// an exact unit grid and on grids whose steps are not representable.
#[test]
fn encode_row_matches_f32_round() {
    let grids = [
        (0.0f32, 1.0f32),
        (-3.7, 0.1),
        (1e-3, 1.0 / 3.0),
        (-1e6, 7.77e3),
        (42.0, 3.0e-7),
    ];
    for (min, step) in grids {
        let grid = Sq8Grid::from_parts(vec![min], vec![step]).unwrap();
        let mut xs = vec![0.0f32, -0.0, min, -1e30, 1e30, f32::MIN, f32::MAX];
        for k in 0..=256 {
            for t in [k as f32 - 0.5, k as f32, k as f32 + 0.5] {
                let x = min + t * step;
                xs.extend([x.next_down(), x, x.next_up()]);
            }
        }
        let mut got = [0u8];
        for x in xs {
            let clamped = grid.encode_row(&[x], &mut got);
            let (want, want_clamped) = encode_by_round(&grid, &[x]);
            assert_eq!(
                (got.to_vec(), clamped),
                (want, want_clamped),
                "x = {x:e} on grid min {min}, step {step}"
            );
        }
    }
    // On the unit grid the scaled value is the input itself.
    let unit = Sq8Grid::from_parts(vec![0.0], vec![1.0]).unwrap();
    let mut got = [0u8];
    for (x, code, clamped) in [
        (-0.5f32, 0u8, true),
        ((-0.5f32).next_up(), 0, false),
        (-0.0, 0, false),
        (0.5, 1, false),
        (0.5f32.next_down(), 0, false),
        (254.5, 255, false),
        (255.5f32.next_down(), 255, false),
        (255.5, 255, true),
    ] {
        assert_eq!(unit.encode_row(&[x], &mut got), clamped, "x = {x}");
        assert_eq!(got[0], code, "x = {x}");
    }
}

/// Multi-dimensional rows: one out-of-grid coordinate flags the whole
/// row, and `build` (chunked across threads) and `push` agree with the
/// reference row for row.
#[test]
fn build_and_push_encode_like_the_reference() {
    let dim = 7;
    let flat = matrix(1000, dim, 3.0, 1, 5);
    let mut store = Sq8Store::learn_and_build(dim, &flat);
    let mut far = flat[..dim].to_vec();
    far[4] = 1e4;
    store.push(&far);
    store.push(&flat[dim..2 * dim]);
    let rows: Vec<&[f32]> = flat
        .chunks_exact(dim)
        .chain([&far[..], &flat[dim..2 * dim]])
        .collect();
    assert_eq!(store.len(), rows.len());
    for (id, row) in rows.into_iter().enumerate() {
        let (codes, clamped) = encode_by_round(store.grid(), row);
        assert_eq!(store.codes_row(id as u32), &codes[..], "row {id}");
        assert_eq!(store.is_clamped(id as u32), clamped, "row {id}");
    }
    assert!(store.is_clamped(1000) && !store.is_clamped(1001));
}
