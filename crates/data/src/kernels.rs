//! Blocked hot-path kernels: batched multi-point distance verification
//! and the row-panel matvec behind every query projection.
//!
//! Both kernels exist to organize memory traffic, not to change the math:
//!
//! * [`sq_dist_block`] verifies one query against a *batch* of dataset
//!   rows in one call. Callers sort the batch into memory order first
//!   (ascending row id), which turns the gather into a near-sequential
//!   sweep — on a locality-relabeled dataset the rows of one tree leaf
//!   are physically adjacent. Per row it runs the 4-way-unrolled scalar
//!   kernel: a 4-rows-fused variant (query chunk shared across four row
//!   streams, one accumulator bank per row) was benchmarked *slower*
//!   here — on the SSE2 baseline LLVM vectorizes the fusion across rows
//!   with six shuffles per chunk, while the scalar kernel's per-row
//!   4-lane pattern already saturates the FP units, and the out-of-order
//!   core overlaps consecutive rows' loads on its own (the standing
//!   benchmark's `data.kernels.sq_dist_block_ns_per_row` metric times
//!   this kernel).
//! * [`matvec`] computes `out[j] = a_j . x` for a row-major panel of
//!   projection rows, two rows at a time sharing each `x` load — the
//!   query-side `G_i(q)` projection that every LSH method in this
//!   workspace pays per query.
//!
//! # Bitwise determinism
//!
//! Per-row results are **bit-identical** to the scalar kernels
//! ([`crate::dataset::sq_dist`] and a single-row dot): every lane uses
//! the same 4-way accumulator pattern over the same dimension order with
//! the same `(s0 + s1) + (s2 + s3)` reduction. A row's distance therefore
//! does not depend on its position inside a block or on the block
//! boundaries — which is what lets a locality-relabeled index return
//! byte-identical answers to an identity-order build (the relabel parity
//! property tests assert exactly this).
//!
//! # Runtime SIMD dispatch
//!
//! [`sq_dist_block`] and [`matvec`] dispatch once per process (cached in
//! an atomic, see [`simd_arch`]) to explicit-SIMD variants in the `x86`
//! / `neon` modules (each compiled only on its own arch). The exact-path
//! variants preserve bitwise parity
//! with the scalar reference by pinning the *same* 4-accumulator lane
//! layout and `(s0 + s1) + (s2 + s3)` reduction — one `__m128` (or
//! `float32x4_t`) *is* the four scalar accumulators, AVX2 fuses two rows
//! per iteration with an independent 128-bit bank per row, and the `f64`
//! projection dot uses one `__m256d` as its four lanes. **No FMA on the
//! exact path** — contracting `mul+add` would change results bit-for-bit.
//! The per-arch kernels are public precisely so the parity tests can
//! exercise every compiled variant against the scalar reference.

use std::time::Instant;

use crate::dataset::sq_dist;
use crate::sq8::{lower_bound_block, Sq8Query, Sq8Store};

/// The SIMD instruction set the runtime dispatcher selected for this
/// process. Exposed so benchmarks and tests can report / force-check the
/// active arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdArch {
    /// Portable scalar kernels (non-x86, non-aarch64 targets).
    Scalar,
    /// x86-64 baseline 128-bit arm.
    Sse2,
    /// x86-64 256-bit arm (detected at runtime).
    Avx2,
    /// AArch64 baseline 128-bit arm.
    Neon,
}

/// Detect (once; cached in an atomic) which SIMD arm the kernels use.
pub fn simd_arch() -> SimdArch {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHE: AtomicU8 = AtomicU8::new(0);
    // order: idempotent detection cache — every thread that misses
    // computes the identical code, so racing writers are harmless and
    // the cell publishes nothing beyond its own value.
    match CACHE.load(Ordering::Relaxed) {
        1 => SimdArch::Scalar,
        2 => SimdArch::Sse2,
        3 => SimdArch::Avx2,
        4 => SimdArch::Neon,
        _ => {
            let arch = detect_simd_arch();
            let code = match arch {
                SimdArch::Scalar => 1,
                SimdArch::Sse2 => 2,
                SimdArch::Avx2 => 3,
                SimdArch::Neon => 4,
            };
            // order: publishing the same value every writer computes;
            // losing the race just repeats the cheap cpuid detection.
            CACHE.store(code, Ordering::Relaxed);
            arch
        }
    }
}

fn detect_simd_arch() -> SimdArch {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdArch::Avx2
        } else {
            SimdArch::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdArch::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdArch::Scalar
    }
}

/// Squared distances from `q` to the rows `ids` of the row-major matrix
/// `flat` (rows are `dim` wide), written into `out[j]` for `ids[j]`.
///
/// Every per-row result is **bit-identical** to [`sq_dist`]`(q, row)`
/// regardless of batch composition. Callers that sort `ids` ascending
/// turn the row gather into a monotone — on a relabeled store
/// near-sequential — memory sweep (see the module docs for why the
/// per-row path is the scalar kernel rather than a multi-row fusion).
///
/// # Contract
/// (debug-checked) `q.len() == dim`, `out.len() == ids.len()`, and every
/// id indexes a full row of `flat`.
#[inline]
pub fn sq_dist_block(q: &[f32], flat: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
    debug_assert_eq!(q.len(), dim, "query dimensionality mismatch");
    debug_assert_eq!(out.len(), ids.len(), "output length mismatch");
    debug_assert!(
        ids.iter().all(|&id| (id as usize + 1) * dim <= flat.len()),
        "row id out of range"
    );
    match simd_arch() {
        #[cfg(target_arch = "x86_64")]
        SimdArch::Avx2 => x86::sq_dist_block_avx2(q, flat, dim, ids, out),
        #[cfg(target_arch = "x86_64")]
        SimdArch::Sse2 => x86::sq_dist_block_sse2(q, flat, dim, ids, out),
        #[cfg(target_arch = "aarch64")]
        SimdArch::Neon => neon::sq_dist_block_neon(q, flat, dim, ids, out),
        _ => sq_dist_block_scalar(q, flat, dim, ids, out),
    }
}

/// Portable scalar arm of [`sq_dist_block`]: the reference every SIMD
/// variant is parity-tested against.
pub fn sq_dist_block_scalar(q: &[f32], flat: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
    for (o, &id) in out.iter_mut().zip(ids) {
        *o = sq_dist(q, &flat[id as usize * dim..id as usize * dim + dim]);
    }
}

/// The canonical blocked-verification staging shared by the DB-LSH core
/// and the baselines' `Verifier`: sort the fresh `block` of row ids into
/// memory order, compute their squared distances from `q` with
/// [`sq_dist_block`], and fill `keys` with the canonical consumption
/// keys — `(squared-distance bits << 32) | public id` — sorted ascending.
/// IEEE-754 bit order is value order for the non-negative squared
/// distances, so key order is ascending `(distance, public id)`; recover
/// the parts with [`key_parts`].
///
/// `to_public` maps a row id to the id embedded in the key: the DB-LSH
/// core passes its internal→external map, callers without an id
/// indirection pass the identity.
#[inline]
pub fn canonical_verify_keys(
    q: &[f32],
    flat: &[f32],
    dim: usize,
    block: &mut [u32],
    dists: &mut Vec<f32>,
    keys: &mut Vec<u64>,
    to_public: impl Fn(u32) -> u32,
) {
    block.sort_unstable();
    dists.resize(block.len(), 0.0);
    sq_dist_block(q, flat, dim, block, dists);
    keys.clear();
    for (&id, &d2) in block.iter().zip(dists.iter()) {
        keys.push(((d2.to_bits() as u64) << 32) | to_public(id) as u64);
    }
    keys.sort_unstable();
}

/// [`canonical_verify_keys`] with the SQ8 pre-filter in front: candidates
/// whose quantized lower bound exceeds `threshold` skip the exact kernel
/// entirely and contribute a key carrying the *bound's* bits instead of
/// an exact distance. Returns `(pruned, survivors)` candidate counts for
/// the `prefilter_pruned` / `prefilter_survivors` stats.
///
/// # Why consumers cannot tell the difference
///
/// Pruning uses strict `bound > threshold`, where `threshold` is the
/// current k-th best *exact squared distance* (`f32::INFINITY` until the
/// top is full, which disables pruning). Because the bound never exceeds
/// the row's exact distance, every pruned candidate is provably outside
/// the final top-k; and because the top only improves, any key that can
/// still update the top has exact bits `<= threshold` bits `<` every
/// pruned key's bound bits. The top-updating prefix of the sorted key
/// stream is therefore identical with the filter on or off; pruned keys
/// only permute the stream's *tail*, which count-based budget breaks and
/// top-driven radius breaks cannot observe. Canonical answers — and every
/// stats counter fed by key consumption — stay byte-identical.
///
/// Passing `threshold = f32::INFINITY` skips the bound scan (nothing can
/// be pruned) but still reports every candidate as a survivor.
///
/// A traced caller passes `Some(split)` and gets the call's wall time
/// added to it, divided at the partition boundary; `None` reads no clock.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn canonical_verify_keys_prefiltered(
    q: &[f32],
    flat: &[f32],
    dim: usize,
    store: &Sq8Store,
    prep: &Sq8Query,
    threshold: f32,
    block: &mut [u32],
    dists: &mut Vec<f32>,
    survivors: &mut Vec<u32>,
    keys: &mut Vec<u64>,
    to_public: impl Fn(u32) -> u32,
    split: Option<&mut VerifySplit>,
) -> (usize, usize) {
    let started = split.is_some().then(Instant::now);
    block.sort_unstable();
    survivors.clear();
    keys.clear();
    if threshold == f32::INFINITY {
        survivors.extend_from_slice(block);
    } else {
        // Bound scan first (one SIMD-arm dispatch for the whole block, into
        // `dists` as scratch), then partition; `dists` is re-filled with the
        // survivors' exact distances below. Each survivor's `f32` row is
        // prefetched as soon as it survives, so by the time the exact kernel
        // runs, its scattered cache lines are already in flight.
        lower_bound_block(prep, store, block, dists);
        for (&id, &bound) in block.iter().zip(dists.iter()) {
            if bound > threshold {
                keys.push(((bound.to_bits() as u64) << 32) | to_public(id) as u64);
            } else {
                prefetch_row(flat, dim, id);
                survivors.push(id);
            }
        }
    }
    let pruned = block.len() - survivors.len();
    let partitioned = split.is_some().then(Instant::now);
    dists.resize(survivors.len(), 0.0);
    sq_dist_block(q, flat, dim, survivors, dists);
    for (&id, &d2) in survivors.iter().zip(dists.iter()) {
        keys.push(((d2.to_bits() as u64) << 32) | to_public(id) as u64);
    }
    keys.sort_unstable();
    if let (Some(split), Some(t0), Some(t1)) = (split, started, partitioned) {
        split.prefilter_nanos += t1.duration_since(t0).as_nanos() as u64;
        split.verify_nanos += t1.elapsed().as_nanos() as u64;
    }
    (pruned, survivors.len())
}

/// Nanosecond attribution of one verification call, split at the
/// boundary the fused kernel hides: the SQ8 bound scan and partition
/// (`prefilter_nanos`) versus the exact blocked distance kernel plus key
/// build and sort (`verify_nanos`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifySplit {
    /// Time in the quantized lower-bound scan and survivor partition.
    pub prefilter_nanos: u64,
    /// Time in the exact distance kernel, key build, and key sort.
    pub verify_nanos: u64,
}

/// Best-effort prefetch of row `id`'s `f32` coordinates toward L1. The
/// pre-filter partition issues one of these per survivor, overlapping the
/// scattered row loads with the rest of the bound partition so the exact
/// kernel doesn't stall on them. No-op on targets without a stable
/// prefetch intrinsic; never affects results, only cache state.
#[inline(always)]
fn prefetch_row(flat: &[f32], dim: usize, id: u32) {
    #[cfg(target_arch = "x86_64")]
    {
        let base = id as usize * dim;
        if base + dim <= flat.len() {
            let p = flat[base..].as_ptr() as *const i8;
            let bytes = dim * std::mem::size_of::<f32>();
            let mut off = 0;
            while off < bytes {
                // SAFETY: prefetch only touches cache state and the pointer
                // stays within `flat`'s allocation.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(p.add(off), std::arch::x86_64::_MM_HINT_T0)
                };
                off += 64;
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (flat, dim, id);
    }
}

/// Split a key produced by [`canonical_verify_keys`] back into
/// `(public id, exact distance)`.
#[inline]
pub fn key_parts(key: u64) -> (u32, f64) {
    let d2 = f32::from_bits((key >> 32) as u32) as f64;
    (key as u32, d2.sqrt())
}

/// Dot product of one `f64` projection row with an `f32` point,
/// accumulated in `f64` with the shared 4-way unroll. The single-row
/// lane of [`matvec`]; kept public for callers projecting one row.
#[inline]
pub fn dot_f64(a: &[f64], x: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), x.len());
    let chunks = a.len() / 4;
    let (a4, ar) = a.split_at(chunks * 4);
    let (x4, xr) = x.split_at(chunks * 4);
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    for (ca, cx) in a4.chunks_exact(4).zip(x4.chunks_exact(4)) {
        s0 += ca[0] * cx[0] as f64;
        s1 += ca[1] * cx[1] as f64;
        s2 += ca[2] * cx[2] as f64;
        s3 += ca[3] * cx[3] as f64;
    }
    for (va, vx) in ar.iter().zip(xr) {
        s0 += va * *vx as f64;
    }
    (s0 + s1) + (s2 + s3)
}

/// Two rows of [`matvec`] at once, sharing each `x` load. Per-row
/// accumulation is bit-identical to [`dot_f64`].
#[inline]
fn dot2_f64(a0: &[f64], a1: &[f64], x: &[f32]) -> (f64, f64) {
    debug_assert!(a0.len() == x.len() && a1.len() == x.len());
    let chunks = x.len() / 4;
    let split = chunks * 4;
    let (a04, a0r) = a0.split_at(split);
    let (a14, a1r) = a1.split_at(split);
    let (x4, xr) = x.split_at(split);
    let mut s = [[0.0f64; 4]; 2];
    for c in 0..chunks {
        let base = c * 4;
        let xc = &x4[base..base + 4];
        let x0 = xc[0] as f64;
        let x1 = xc[1] as f64;
        let x2 = xc[2] as f64;
        let x3 = xc[3] as f64;
        let c0 = &a04[base..base + 4];
        let c1 = &a14[base..base + 4];
        s[0][0] += c0[0] * x0;
        s[0][1] += c0[1] * x1;
        s[0][2] += c0[2] * x2;
        s[0][3] += c0[3] * x3;
        s[1][0] += c1[0] * x0;
        s[1][1] += c1[1] * x1;
        s[1][2] += c1[2] * x2;
        s[1][3] += c1[3] * x3;
    }
    for (i, &xv) in xr.iter().enumerate() {
        s[0][0] += a0r[i] * xv as f64;
        s[1][0] += a1r[i] * xv as f64;
    }
    (
        (s[0][0] + s[0][1]) + (s[0][2] + s[0][3]),
        (s[1][0] + s[1][1]) + (s[1][2] + s[1][3]),
    )
}

/// Row-panel matvec: `out[j] = a_j . x` where `a` is a row-major
/// `[out.len()][dim]` panel of `f64` projection rows and `x` is an `f32`
/// point. Rows are processed in pairs sharing each `x` load; per-row
/// results are bit-identical to [`dot_f64`].
///
/// # Contract
/// (debug-checked) `x.len() == dim` and `a.len() == out.len() * dim`.
#[inline]
pub fn matvec(a: &[f64], dim: usize, x: &[f32], out: &mut [f64]) {
    debug_assert_eq!(x.len(), dim, "point dimensionality mismatch");
    debug_assert_eq!(a.len(), out.len() * dim, "panel shape mismatch");
    match simd_arch() {
        #[cfg(target_arch = "x86_64")]
        SimdArch::Avx2 => x86::matvec_avx2(a, dim, x, out),
        // SSE2's two f64 lanes cannot host the 4-lane bank without
        // splitting it; the scalar kernel already saturates the FP units
        // there, so only AVX2 gets an explicit f64 arm.
        _ => matvec_scalar(a, dim, x, out),
    }
}

/// Portable scalar arm of [`matvec`]: the reference every SIMD variant is
/// parity-tested against.
pub fn matvec_scalar(a: &[f64], dim: usize, x: &[f32], out: &mut [f64]) {
    let pairs = out.len() / 2;
    for p in 0..pairs {
        let j = p * 2;
        let (d0, d1) = dot2_f64(
            &a[j * dim..(j + 1) * dim],
            &a[(j + 1) * dim..(j + 2) * dim],
            x,
        );
        out[j] = d0;
        out[j + 1] = d1;
    }
    if out.len() % 2 == 1 {
        let j = out.len() - 1;
        out[j] = dot_f64(&a[j * dim..(j + 1) * dim], x);
    }
}

/// x86-64 explicit-SIMD arms of the exact kernels. Public so the parity
/// tests can exercise every compiled variant against the scalar
/// reference; production code reaches them through [`sq_dist_block`] /
/// [`matvec`] dispatch.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use std::arch::x86_64::*;

    /// SSE2 arm of [`crate::dataset::sq_dist`]: one `__m128` *is* the
    /// scalar kernel's four accumulators, so the result is bit-identical.
    pub fn sq_dist_sse2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: SSE2 is part of the x86_64 baseline; all loads stay
        // within the equal-length slices checked above.
        unsafe { sq_dist_sse2_impl(a, b) }
    }

    /// # Safety
    /// The caller must guarantee SSE2 is available (part of the x86_64
    /// baseline) and that `a.len() == b.len()` — every vector load reads
    /// 4 lanes inside the common prefix, the tail is scalar-indexed.
    #[target_feature(enable = "sse2")]
    unsafe fn sq_dist_sse2_impl(a: &[f32], b: &[f32]) -> f32 {
        let dim = a.len();
        let chunks = dim / 4;
        let split = chunks * 4;
        let mut bank = _mm_setzero_ps();
        for c in 0..chunks {
            let base = c * 4;
            let av = _mm_loadu_ps(a.as_ptr().add(base));
            let bv = _mm_loadu_ps(b.as_ptr().add(base));
            let d = _mm_sub_ps(av, bv);
            bank = _mm_add_ps(bank, _mm_mul_ps(d, d));
        }
        let mut s = [0.0f32; 4];
        _mm_storeu_ps(s.as_mut_ptr(), bank);
        for i in split..dim {
            let d = a[i] - b[i];
            s[0] += d * d;
        }
        (s[0] + s[1]) + (s[2] + s[3])
    }

    /// SSE2 arm of [`super::sq_dist_block`].
    pub fn sq_dist_block_sse2(q: &[f32], flat: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = sq_dist_sse2(q, &flat[id as usize * dim..id as usize * dim + dim]);
        }
    }

    /// AVX2 arm of [`super::sq_dist_block`]: two rows per iteration, each
    /// row owning one 128-bit half of a `__m256` as its private 4-lane
    /// accumulator bank — per-row arithmetic is exactly the scalar
    /// kernel's, so results stay bit-identical. No FMA.
    ///
    /// # Panics
    /// Panics if AVX2 is not available at runtime.
    pub fn sq_dist_block_avx2(q: &[f32], flat: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
        assert!(
            is_x86_feature_detected!("avx2"),
            "sq_dist_block_avx2 requires AVX2"
        );
        // SAFETY: AVX2 availability was just asserted; the dispatcher's
        // debug contract guarantees every id indexes a full row.
        unsafe { sq_dist_block_avx2_impl(q, flat, dim, ids, out) }
    }

    /// # Safety
    /// The caller must guarantee AVX2 is available and the dispatcher
    /// contract holds: `q.len() == dim`, `out.len() == ids.len()`, and
    /// every id indexes a full `dim`-wide row of `flat` — the row slices
    /// taken below bounds-check against that shape.
    #[target_feature(enable = "avx2")]
    unsafe fn sq_dist_block_avx2_impl(
        q: &[f32],
        flat: &[f32],
        dim: usize,
        ids: &[u32],
        out: &mut [f32],
    ) {
        let pairs = ids.len() / 2;
        for p in 0..pairs {
            let j = p * 2;
            let r0 = &flat[ids[j] as usize * dim..ids[j] as usize * dim + dim];
            let r1 = &flat[ids[j + 1] as usize * dim..ids[j + 1] as usize * dim + dim];
            let (d0, d1) = sq_dist2_avx2(q, r0, r1);
            out[j] = d0;
            out[j + 1] = d1;
        }
        if ids.len() % 2 == 1 {
            let j = ids.len() - 1;
            out[j] =
                sq_dist_sse2_impl(q, &flat[ids[j] as usize * dim..ids[j] as usize * dim + dim]);
        }
    }

    /// # Safety
    /// The caller must guarantee AVX2 is available and that `r0` and
    /// `r1` are at least `q.len()` long — every 4-lane load stays inside
    /// `q.len()` rounded down to a multiple of 4, the tail is indexed.
    #[target_feature(enable = "avx2")]
    unsafe fn sq_dist2_avx2(q: &[f32], r0: &[f32], r1: &[f32]) -> (f32, f32) {
        let dim = q.len();
        let chunks = dim / 4;
        let split = chunks * 4;
        let mut bank = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * 4;
            let qv = _mm_loadu_ps(q.as_ptr().add(base));
            let qq = _mm256_set_m128(qv, qv);
            let rv = _mm256_set_m128(
                _mm_loadu_ps(r1.as_ptr().add(base)),
                _mm_loadu_ps(r0.as_ptr().add(base)),
            );
            let d = _mm256_sub_ps(qq, rv);
            bank = _mm256_add_ps(bank, _mm256_mul_ps(d, d));
        }
        let mut s = [0.0f32; 8];
        _mm256_storeu_ps(s.as_mut_ptr(), bank);
        for i in split..dim {
            let d0 = q[i] - r0[i];
            s[0] += d0 * d0;
            let d1 = q[i] - r1[i];
            s[4] += d1 * d1;
        }
        ((s[0] + s[1]) + (s[2] + s[3]), (s[4] + s[5]) + (s[6] + s[7]))
    }

    /// AVX2 arm of [`super::dot_f64`]: one `__m256d` holds the scalar
    /// kernel's four `f64` accumulators. No FMA — parity requires
    /// separate multiply and add.
    ///
    /// # Panics
    /// Panics if AVX2 is not available at runtime.
    pub fn dot_f64_avx2(a: &[f64], x: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), x.len());
        assert!(
            is_x86_feature_detected!("avx2"),
            "dot_f64_avx2 requires AVX2"
        );
        // SAFETY: AVX2 availability was just asserted; all loads stay
        // within the equal-length slices checked above.
        unsafe { dot_f64_avx2_impl(a, x) }
    }

    /// # Safety
    /// The caller must guarantee AVX2 is available and that
    /// `a.len() == x.len()` — the 4-lane loads walk the common prefix,
    /// the remainder is scalar-indexed.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_f64_avx2_impl(a: &[f64], x: &[f32]) -> f64 {
        let dim = a.len();
        let chunks = dim / 4;
        let split = chunks * 4;
        let mut bank = _mm256_setzero_pd();
        for c in 0..chunks {
            let base = c * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(base));
            let xv = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(base)));
            bank = _mm256_add_pd(bank, _mm256_mul_pd(av, xv));
        }
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), bank);
        for i in split..dim {
            s[0] += a[i] * x[i] as f64;
        }
        (s[0] + s[1]) + (s[2] + s[3])
    }

    /// # Safety
    /// The caller must guarantee AVX2 is available and that `a0` and
    /// `a1` are at least `x.len()` long — all 4-lane loads stay inside
    /// `x.len()` rounded down to a multiple of 4, the tail is indexed.
    #[target_feature(enable = "avx2")]
    unsafe fn dot2_f64_avx2(a0: &[f64], a1: &[f64], x: &[f32]) -> (f64, f64) {
        let dim = x.len();
        let chunks = dim / 4;
        let split = chunks * 4;
        let mut b0 = _mm256_setzero_pd();
        let mut b1 = _mm256_setzero_pd();
        for c in 0..chunks {
            let base = c * 4;
            let xv = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(base)));
            let a0v = _mm256_loadu_pd(a0.as_ptr().add(base));
            let a1v = _mm256_loadu_pd(a1.as_ptr().add(base));
            b0 = _mm256_add_pd(b0, _mm256_mul_pd(a0v, xv));
            b1 = _mm256_add_pd(b1, _mm256_mul_pd(a1v, xv));
        }
        let mut s0 = [0.0f64; 4];
        let mut s1 = [0.0f64; 4];
        _mm256_storeu_pd(s0.as_mut_ptr(), b0);
        _mm256_storeu_pd(s1.as_mut_ptr(), b1);
        for i in split..dim {
            let xv = x[i] as f64;
            s0[0] += a0[i] * xv;
            s1[0] += a1[i] * xv;
        }
        (
            (s0[0] + s0[1]) + (s0[2] + s0[3]),
            (s1[0] + s1[1]) + (s1[2] + s1[3]),
        )
    }

    /// AVX2 arm of [`super::matvec`]: row pairs share each converted `x`
    /// load; per-row accumulation is bit-identical to [`super::dot_f64`].
    ///
    /// # Panics
    /// Panics if AVX2 is not available at runtime.
    pub fn matvec_avx2(a: &[f64], dim: usize, x: &[f32], out: &mut [f64]) {
        assert!(
            is_x86_feature_detected!("avx2"),
            "matvec_avx2 requires AVX2"
        );
        // SAFETY: AVX2 availability was just asserted; the dispatcher's
        // debug contract guarantees the panel shape.
        unsafe { matvec_avx2_impl(a, dim, x, out) }
    }

    /// # Safety
    /// The caller must guarantee AVX2 is available and the dispatcher
    /// contract holds: `x.len() == dim` and `a.len() == out.len() * dim`
    /// — the per-row slices taken below bounds-check against that panel.
    #[target_feature(enable = "avx2")]
    unsafe fn matvec_avx2_impl(a: &[f64], dim: usize, x: &[f32], out: &mut [f64]) {
        let pairs = out.len() / 2;
        for p in 0..pairs {
            let j = p * 2;
            let (d0, d1) = dot2_f64_avx2(
                &a[j * dim..(j + 1) * dim],
                &a[(j + 1) * dim..(j + 2) * dim],
                x,
            );
            out[j] = d0;
            out[j + 1] = d1;
        }
        if out.len() % 2 == 1 {
            let j = out.len() - 1;
            out[j] = dot_f64_avx2_impl(&a[j * dim..(j + 1) * dim], x);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::sq_dist;
        use super::*;

        #[test]
        fn sse2_sq_dist_matches_scalar_bitwise() {
            for dim in [1usize, 3, 4, 5, 7, 8, 13, 24, 129] {
                let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
                let b: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).cos() * 2.0).collect();
                assert_eq!(
                    sq_dist_sse2(&a, &b).to_bits(),
                    sq_dist(&a, &b).to_bits(),
                    "dim={dim}"
                );
            }
        }
    }
}

/// AArch64 NEON arms of the exact kernels. `f32` distances only — the
/// `f64` projection dot keeps its scalar form here (NEON's two `f64`
/// lanes cannot host the 4-lane bank without splitting it).
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use std::arch::aarch64::*;

    /// NEON arm of [`crate::dataset::sq_dist`]: one `float32x4_t` *is*
    /// the scalar kernel's four accumulators, so the result is
    /// bit-identical.
    pub fn sq_dist_neon(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: NEON is part of the aarch64 baseline; all loads stay
        // within the equal-length slices checked above.
        unsafe { sq_dist_neon_impl(a, b) }
    }

    /// # Safety
    /// The caller must guarantee NEON is available (part of the aarch64
    /// baseline) and that `a.len() == b.len()` — every vector load reads
    /// 4 lanes inside the common prefix, the tail is scalar-indexed.
    #[target_feature(enable = "neon")]
    unsafe fn sq_dist_neon_impl(a: &[f32], b: &[f32]) -> f32 {
        let dim = a.len();
        let chunks = dim / 4;
        let split = chunks * 4;
        let mut bank = vdupq_n_f32(0.0);
        for c in 0..chunks {
            let base = c * 4;
            let av = vld1q_f32(a.as_ptr().add(base));
            let bv = vld1q_f32(b.as_ptr().add(base));
            let d = vsubq_f32(av, bv);
            bank = vaddq_f32(bank, vmulq_f32(d, d));
        }
        let mut s = [0.0f32; 4];
        vst1q_f32(s.as_mut_ptr(), bank);
        for i in split..dim {
            let d = a[i] - b[i];
            s[0] += d * d;
        }
        (s[0] + s[1]) + (s[2] + s[3])
    }

    /// NEON arm of [`super::sq_dist_block`].
    pub fn sq_dist_block_neon(q: &[f32], flat: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = sq_dist_neon(q, &flat[id as usize * dim..id as usize * dim + dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dim: usize) -> Vec<f32> {
        (0..n * dim)
            .map(|i| ((i * 37) % 101) as f32 * 0.13 - 5.0)
            .collect()
    }

    #[test]
    fn sq_dist_block_matches_scalar_bitwise() {
        for dim in [1usize, 3, 4, 5, 7, 8, 13, 24] {
            for n in 0..10usize {
                let flat = rows(n.max(1), dim);
                let q: Vec<f32> = (0..dim).map(|i| i as f32 * 0.7 - 1.0).collect();
                let ids: Vec<u32> = (0..n as u32).rev().collect();
                let mut out = vec![0.0f32; n];
                sq_dist_block(&q, &flat, dim, &ids, &mut out);
                for (j, &id) in ids.iter().enumerate() {
                    let want = sq_dist(&q, &flat[id as usize * dim..(id as usize + 1) * dim]);
                    assert_eq!(out[j].to_bits(), want.to_bits(), "dim={dim} n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn matvec_matches_dot_bitwise() {
        for dim in [1usize, 2, 4, 5, 9, 16, 31] {
            for m in 0..8usize {
                let a: Vec<f64> = (0..m * dim).map(|i| (i as f64 * 0.37).sin()).collect();
                let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
                let mut out = vec![0.0f64; m];
                matvec(&a, dim, &x, &mut out);
                for j in 0..m {
                    let want = dot_f64(&a[j * dim..(j + 1) * dim], &x);
                    assert_eq!(out[j].to_bits(), want.to_bits(), "dim={dim} m={m} j={j}");
                }
            }
        }
    }
}
