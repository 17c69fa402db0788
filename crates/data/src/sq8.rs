//! SQ8 scalar quantization for the verification pre-filter.
//!
//! Every row of the dataset is encoded as one `u8` per dimension against a
//! per-dimension `[min, max]` grid learned at build time.  At query time the
//! codes are scanned with a runtime-dispatched SIMD kernel that produces a
//! **conservative lower bound** on the squared distance between the query and
//! the original `f32` row.  Candidates whose bound exceeds the current pruning
//! threshold are provably outside the top-k and are dropped before their `f32`
//! row is ever touched; survivors still go through the bit-parity exact kernel
//! ([`crate::kernels::sq_dist_block`]), so canonical answers stay byte-identical
//! whether the pre-filter is on or off.
//!
//! # Why the bound is safe
//!
//! For dimension `j` with grid `min_j` / `step_j`, a stored value `x_j` encodes
//! to `c_j = round((x_j - min_j) / step_j)` clamped to `[0, 255]`.  When the
//! rounded value fits the grid, the scaled coordinate `t_x = (x_j - min_j) /
//! step_j` satisfies `|t_x - c_j| <= 0.5 + rounding`, so for a query scaled the
//! same way (`t_j`):
//!
//! ```text
//! |q_j - x_j| = step_j * |t_j - t_x| >= step_j * max(0, |t_j - c_j| - slack_j)
//! ```
//!
//! where `slack_j = 0.5 + 8·EPS·(|t_j| + 256)` absorbs every `f32` rounding
//! step in both the encoder and the query preparation.  Summing the squared
//! per-dimension bounds and deflating the total by `1 - EPS·(4·dim + 16)`
//! absorbs the accumulation rounding, so the final value never exceeds the
//! exact squared distance computed by the scalar reference kernel.  Rows whose
//! encoding clamped (inserted after build, outside the learned grid) and any
//! non-finite intermediate collapse the bound to `0.0`, which never prunes.
//!
//! # Determinism across SIMD arms
//!
//! Although pruning would be *correct* with any bound at all, the kernel pins a
//! fixed 8-lane accumulator layout and `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`
//! reduction so that scalar, SSE2, AVX2 and NEON arms produce bitwise-identical
//! bounds.  That keeps the `prefilter_pruned` / `prefilter_survivors` counters
//! (and therefore every stats-parity test) identical across machines, not just
//! the canonical answers.

use crate::error::DbLshError;

/// Per-dimension quantization grid: `min` and `step` for each dimension.
///
/// `step` is always finite and strictly positive; constant dimensions
/// (`min == max`) use `step = 1.0` so every row encodes to code `0` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Grid {
    min: Vec<f32>,
    step: Vec<f32>,
}

impl Sq8Grid {
    /// Learn a grid from `rows * dim` row-major flat data.
    ///
    /// The result depends only on the *multiset* of values per dimension, so
    /// relabeled / reordered builds of the same dataset learn the same grid.
    pub fn learn(dim: usize, flat: &[f32]) -> Sq8Grid {
        assert!(dim > 0, "Sq8Grid::learn: dim must be positive");
        assert_eq!(flat.len() % dim, 0, "Sq8Grid::learn: ragged flat data");
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for row in flat.chunks_exact(dim) {
            for (j, &v) in row.iter().enumerate() {
                if v < min[j] {
                    min[j] = v;
                }
                if v > max[j] {
                    max[j] = v;
                }
            }
        }
        let mut step = Vec::with_capacity(dim);
        for j in 0..dim {
            if !min[j].is_finite() {
                // Empty input: pick an arbitrary valid grid.
                min[j] = 0.0;
                max[j] = 0.0;
            }
            let s = (max[j] - min[j]) / 255.0;
            step.push(if s.is_finite() && s > 0.0 { s } else { 1.0 });
        }
        Sq8Grid { min, step }
    }

    /// Reassemble a grid from snapshot parts, validating the invariants that
    /// [`Sq8Grid::learn`] guarantees. Violations surface as
    /// [`DbLshError::CorruptSnapshot`] — this is the snapshot decode path.
    pub fn from_parts(min: Vec<f32>, step: Vec<f32>) -> Result<Sq8Grid, DbLshError> {
        if min.is_empty() || min.len() != step.len() {
            return Err(DbLshError::corrupt(
                "sq8 grid: min/step length mismatch or empty",
            ));
        }
        if min.iter().any(|v| !v.is_finite()) {
            return Err(DbLshError::corrupt("sq8 grid: non-finite min"));
        }
        if step.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(DbLshError::corrupt(
                "sq8 grid: step must be finite and positive",
            ));
        }
        Ok(Sq8Grid { min, step })
    }

    /// Number of dimensions the grid quantizes.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Per-dimension grid origin.
    pub fn min(&self) -> &[f32] {
        &self.min
    }

    /// Per-dimension grid step (finite, strictly positive).
    pub fn step(&self) -> &[f32] {
        &self.step
    }

    /// Encode one row into `codes` (both `dim` long): `codes[j]` is
    /// `round((row[j] - min[j]) / step[j])` clamped to `[0, 255]`. Returns
    /// whether the row clamped — some scaled value (or a NaN) rounded
    /// outside the grid.
    ///
    /// Rounding is branch-free: clamp the scaled value to `[0, 255]`,
    /// truncate, and add one when the dropped fraction (exact in `f32`) is
    /// at least `0.5`. On the in-grid interval `(-0.5, 255.5)` that is
    /// bit-identical to [`f32::round`] (half away from zero); outside it
    /// the code saturates at `0` or `255`.
    pub fn encode_row(&self, row: &[f32], codes: &mut [u8]) -> bool {
        let dim = self.dim();
        assert_eq!(row.len(), dim, "Sq8Grid::encode_row: dimension mismatch");
        assert_eq!(codes.len(), dim, "Sq8Grid::encode_row: code row length");
        let mut clamped = false;
        for (((code, &x), &min), &step) in codes.iter_mut().zip(row).zip(&self.min).zip(&self.step)
        {
            let t = (x - min) / step;
            clamped |= !((t > -0.5) & (t < 255.5));
            let v = t.clamp(0.0, 255.0); // NaN stays NaN and casts to code 0
            let whole = v as u8;
            *code = whole + (v - f32::from(whole) >= 0.5) as u8;
        }
        clamped
    }
}

/// SQ8 code store: one `u8` per dimension per row plus a per-row flag marking
/// rows whose encoding clamped (their lower bound is forced to `0.0`).
///
/// Rows are kept in the same internal order as the dataset rows of the
/// owning index, so candidate ids address codes directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Store {
    grid: Sq8Grid,
    codes: Vec<u8>,
    clamped: Vec<u8>,
}

impl Sq8Store {
    /// Encode every row of `flat` (row-major, `grid.dim()` wide) against
    /// `grid`, in row chunks on the available threads.
    pub fn build(grid: Sq8Grid, flat: &[f32]) -> Sq8Store {
        let dim = grid.dim();
        assert_eq!(flat.len() % dim, 0, "Sq8Store::build: ragged flat data");
        let rows = flat.len() / dim;
        let mut codes = vec![0u8; rows * dim];
        let mut clamped = vec![0u8; rows];
        let threads = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
            .clamp(1, rows.max(1));
        let rows_per = rows.div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let chunks = codes
                .chunks_mut(rows_per * dim)
                .zip(clamped.chunks_mut(rows_per))
                .zip(flat.chunks(rows_per * dim));
            for ((codes, clamped), flat) in chunks {
                let grid = &grid;
                s.spawn(move || {
                    let rows = codes.chunks_exact_mut(dim).zip(flat.chunks_exact(dim));
                    for ((codes, row), flag) in rows.zip(clamped) {
                        *flag = grid.encode_row(row, codes) as u8;
                    }
                });
            }
        });
        Sq8Store {
            grid,
            codes,
            clamped,
        }
    }

    /// Learn a grid from `flat` and encode every row against it.
    pub fn learn_and_build(dim: usize, flat: &[f32]) -> Sq8Store {
        Sq8Store::build(Sq8Grid::learn(dim, flat), flat)
    }

    /// Append one row's codes; sets the clamped flag if any dimension fell
    /// outside the learned grid (the row then never gets pruned).
    pub fn push(&mut self, point: &[f32]) {
        let dim = self.grid.dim();
        assert_eq!(point.len(), dim, "Sq8Store::push: dimension mismatch");
        let start = self.codes.len();
        self.codes.resize(start + dim, 0);
        let clamped = self.grid.encode_row(point, &mut self.codes[start..]);
        self.clamped.push(clamped as u8);
    }

    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.clamped.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.clamped.is_empty()
    }

    /// The grid rows are encoded against.
    pub fn grid(&self) -> &Sq8Grid {
        &self.grid
    }

    /// Codes of row `id`.
    pub fn codes_row(&self, id: u32) -> &[u8] {
        let dim = self.grid.dim();
        let base = id as usize * dim;
        &self.codes[base..base + dim]
    }

    /// Whether row `id`'s encoding clamped (bound is untrustworthy, never prune).
    pub fn is_clamped(&self, id: u32) -> bool {
        self.clamped[id as usize] != 0
    }

    /// Rebuild the store keeping only the rows named by `keep` (ascending old
    /// internal ids), in `keep` order — mirrors index compaction.
    pub fn retained(&self, keep: &[u32]) -> Sq8Store {
        let dim = self.grid.dim();
        let mut codes = Vec::with_capacity(keep.len() * dim);
        let mut clamped = Vec::with_capacity(keep.len());
        for &old in keep {
            codes.extend_from_slice(self.codes_row(old));
            clamped.push(self.clamped[old as usize]);
        }
        Sq8Store {
            grid: self.grid.clone(),
            codes,
            clamped,
        }
    }

    /// Logical (len-based) bytes held by the code store — one `u8` code
    /// per coordinate, one clamped flag per row, plus the grid. Len-based
    /// like the index memory breakdown's other figures, so `Vec` growth
    /// slack after insert traffic does not distort the accounting.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len()
            + self.clamped.len()
            + (self.grid.min.len() + self.grid.step.len()) * std::mem::size_of::<f32>()
    }

    /// Prepare `query` for bound scans against this store's grid, reusing the
    /// allocations inside `prep`.
    pub fn prepare_query(&self, query: &[f32], prep: &mut Sq8Query) {
        prep.prepare(&self.grid, query);
    }
}

/// Per-query scratch for the lower-bound scan: the query rescaled into grid
/// coordinates plus per-dimension slack and squared step.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Query {
    t: Vec<f32>,
    slack: Vec<f32>,
    step_sq: Vec<f32>,
    deflate: f32,
}

impl Sq8Query {
    /// An empty prep, suitable for const thread-local scratch.
    pub const fn empty() -> Sq8Query {
        Sq8Query {
            t: Vec::new(),
            slack: Vec::new(),
            step_sq: Vec::new(),
            deflate: 1.0,
        }
    }

    /// Rescale `query` into `grid` coordinates and precompute per-dimension
    /// slack.  Dimensions whose rescaled coordinate is non-finite get infinite
    /// slack so they contribute exactly `0.0` to every bound.
    pub fn prepare(&mut self, grid: &Sq8Grid, query: &[f32]) {
        let dim = grid.dim();
        assert_eq!(query.len(), dim, "Sq8Query::prepare: dimension mismatch");
        self.t.clear();
        self.slack.clear();
        self.step_sq.clear();
        for (j, &qv) in query.iter().enumerate() {
            let t = (qv - grid.min[j]) / grid.step[j];
            if t.is_finite() {
                self.t.push(t);
                self.slack
                    .push(0.5 + 8.0 * f32::EPSILON * (t.abs() + 256.0));
            } else {
                self.t.push(0.0);
                self.slack.push(f32::INFINITY);
            }
            self.step_sq.push(grid.step[j] * grid.step[j]);
        }
        self.deflate = (1.0 - f32::EPSILON * (4 * dim + 16) as f32).max(0.0);
    }

    /// Number of dimensions the prep was built for (0 before first `prepare`).
    pub fn dim(&self) -> usize {
        self.t.len()
    }
}

/// Conservative lower bound on the squared distance between the prepared query
/// and the row encoded by `codes`, via the runtime-dispatched SIMD arm.
///
/// Guarantees `lower_bound(prep, codes) <= sq_dist(query, row)` for the `f32`
/// row that produced `codes` with no clamping; returns `0.0` (never prunes)
/// whenever the bound cannot be trusted.  Bitwise-identical across all arms.
pub fn lower_bound(prep: &Sq8Query, codes: &[u8]) -> f32 {
    match crate::kernels::simd_arch() {
        #[cfg(target_arch = "x86_64")]
        crate::kernels::SimdArch::Avx2 => x86::lower_bound_avx2(prep, codes),
        #[cfg(target_arch = "x86_64")]
        crate::kernels::SimdArch::Sse2 => x86::lower_bound_sse2(prep, codes),
        #[cfg(target_arch = "aarch64")]
        crate::kernels::SimdArch::Neon => neon::lower_bound_neon(prep, codes),
        _ => lower_bound_scalar(prep, codes),
    }
}

/// Batched [`lower_bound`]: `out[i]` becomes the bound for `ids[i]`, with
/// rows flagged clamped forced to `0.0` (never pruned).  Resolves the SIMD
/// arm — and its feature check — **once** for the whole batch, letting the
/// per-row kernel inline into the batch loop; this is what the pre-filter
/// hot path calls.  Each `out[i]` is bitwise-identical to the per-row
/// `lower_bound` result.
pub fn lower_bound_block(prep: &Sq8Query, store: &Sq8Store, ids: &[u32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(ids.len(), 0.0);
    match crate::kernels::simd_arch() {
        #[cfg(target_arch = "x86_64")]
        crate::kernels::SimdArch::Avx2 => x86::lower_bound_block_avx2(prep, store, ids, out),
        #[cfg(target_arch = "x86_64")]
        crate::kernels::SimdArch::Sse2 => x86::lower_bound_block_sse2(prep, store, ids, out),
        #[cfg(target_arch = "aarch64")]
        crate::kernels::SimdArch::Neon => neon::lower_bound_block_neon(prep, store, ids, out),
        _ => lower_bound_block_scalar(prep, store, ids, out),
    }
}

/// Portable scalar arm of [`lower_bound_block`].
pub fn lower_bound_block_scalar(prep: &Sq8Query, store: &Sq8Store, ids: &[u32], out: &mut [f32]) {
    for (o, &id) in out.iter_mut().zip(ids) {
        *o = if store.is_clamped(id) {
            0.0
        } else {
            lower_bound_scalar(prep, store.codes_row(id))
        };
    }
}

/// Accumulate the `dim % 8` tail dimensions into lane 0 — shared verbatim
/// by the scalar reference and every SIMD arm so the reduction order stays
/// bit-identical across all of them.
#[inline(always)]
fn tail_into_lane0(prep: &Sq8Query, codes: &[u8], split: usize, acc: &mut [f32; 8]) {
    for (j, &c) in codes.iter().enumerate().skip(split) {
        let d = (prep.t[j] - c as f32).abs();
        let e = (d - prep.slack[j]).max(0.0);
        acc[0] += e * e * prep.step_sq[j];
    }
}

/// Finalize a raw lane sum into the guaranteed-safe bound: deflate for
/// accumulation rounding and collapse anything suspicious to `0.0`.
#[inline]
fn finish_bound(sum: f32, deflate: f32) -> f32 {
    let bound = sum * deflate;
    if bound.is_finite() {
        bound.max(0.0)
    } else {
        0.0
    }
}

/// Portable scalar reference for the lower-bound scan.
///
/// Pins the 8-lane accumulator layout and `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`
/// reduction that every SIMD arm replicates bit-for-bit.
pub fn lower_bound_scalar(prep: &Sq8Query, codes: &[u8]) -> f32 {
    let dim = codes.len();
    debug_assert_eq!(prep.t.len(), dim, "lower_bound: prep/codes dim mismatch");
    let chunks = dim / 8;
    let split = chunks * 8;
    let mut acc = [0.0f32; 8];
    for c in 0..chunks {
        let base = c * 8;
        for (lane, a) in acc.iter_mut().enumerate() {
            let j = base + lane;
            let d = (prep.t[j] - codes[j] as f32).abs();
            let e = (d - prep.slack[j]).max(0.0);
            *a += e * e * prep.step_sq[j];
        }
    }
    tail_into_lane0(prep, codes, split, &mut acc);
    let sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    finish_bound(sum, prep.deflate)
}

/// x86-64 SIMD arms of the lower-bound scan.  Public so the parity tests can
/// exercise each compiled variant directly.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use super::{finish_bound, Sq8Query, Sq8Store};
    use std::arch::x86_64::*;

    /// SSE2 arm (baseline on x86-64).  Bitwise-identical to the scalar
    /// reference: two 4-lane banks cover scalar lanes 0–3 and 4–7.
    pub fn lower_bound_sse2(prep: &Sq8Query, codes: &[u8]) -> f32 {
        // SAFETY: SSE2 is part of the x86_64 baseline, so the target feature
        // is always available; all pointer arithmetic stays within the slices
        // checked by the debug assertion in the kernel.
        unsafe { lower_bound_sse2_impl(prep, codes) }
    }

    /// # Safety
    /// The caller must guarantee SSE2 is available (part of the x86_64
    /// baseline) and that `prep` spans `codes.len()` lanes — every 4-lane
    /// load stays below `codes.len()` rounded down to a multiple of 8,
    /// the tail is handled by the bounds-checked scalar helper.
    #[target_feature(enable = "sse2")]
    unsafe fn lower_bound_sse2_impl(prep: &Sq8Query, codes: &[u8]) -> f32 {
        let dim = codes.len();
        debug_assert_eq!(prep.t.len(), dim, "lower_bound: prep/codes dim mismatch");
        let chunks = dim / 8;
        let split = chunks * 8;
        let zero = _mm_setzero_ps();
        let sign = _mm_set1_ps(-0.0);
        let zero_i = _mm_setzero_si128();
        let mut lo = zero;
        let mut hi = zero;
        for c in 0..chunks {
            let base = c * 8;
            // Widen 8 u8 codes to two f32x4 vectors (exact: values <= 255).
            let c8 = _mm_loadl_epi64(codes.as_ptr().add(base) as *const __m128i);
            let c16 = _mm_unpacklo_epi8(c8, zero_i);
            let f_lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(c16, zero_i));
            let f_hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(c16, zero_i));
            for (half, f) in [(0usize, f_lo), (4usize, f_hi)] {
                let t = _mm_loadu_ps(prep.t.as_ptr().add(base + half));
                let slack = _mm_loadu_ps(prep.slack.as_ptr().add(base + half));
                let s2 = _mm_loadu_ps(prep.step_sq.as_ptr().add(base + half));
                let d = _mm_andnot_ps(sign, _mm_sub_ps(t, f));
                let e = _mm_max_ps(_mm_sub_ps(d, slack), zero);
                let term = _mm_mul_ps(_mm_mul_ps(e, e), s2);
                if half == 0 {
                    lo = _mm_add_ps(lo, term);
                } else {
                    hi = _mm_add_ps(hi, term);
                }
            }
        }
        let mut acc = [0.0f32; 8];
        _mm_storeu_ps(acc.as_mut_ptr(), lo);
        _mm_storeu_ps(acc.as_mut_ptr().add(4), hi);
        super::tail_into_lane0(prep, codes, split, &mut acc);
        let sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        finish_bound(sum, prep.deflate)
    }

    /// AVX2 arm.  One 8-lane bank; the `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`
    /// reduction matches the scalar reference bit-for-bit.
    ///
    /// # Panics
    /// Panics if AVX2 is not available at runtime.
    pub fn lower_bound_avx2(prep: &Sq8Query, codes: &[u8]) -> f32 {
        assert!(
            is_x86_feature_detected!("avx2"),
            "lower_bound_avx2 requires AVX2"
        );
        // SAFETY: AVX2 availability was just asserted; all pointer arithmetic
        // stays within the slices checked by the kernel's debug assertion.
        unsafe { lower_bound_avx2_impl(prep, codes) }
    }

    /// # Safety
    /// The caller must guarantee AVX2 is available and that `prep` spans
    /// `codes.len()` lanes — every 8-lane load stays below `codes.len()`
    /// rounded down to a multiple of 8, the tail is handled by the
    /// bounds-checked scalar helper.
    #[target_feature(enable = "avx2")]
    unsafe fn lower_bound_avx2_impl(prep: &Sq8Query, codes: &[u8]) -> f32 {
        let dim = codes.len();
        debug_assert_eq!(prep.t.len(), dim, "lower_bound: prep/codes dim mismatch");
        let chunks = dim / 8;
        let split = chunks * 8;
        let zero = _mm256_setzero_ps();
        let sign = _mm256_set1_ps(-0.0);
        let mut bank = zero;
        for c in 0..chunks {
            let base = c * 8;
            // Widen 8 u8 codes to f32x8 (exact: values <= 255).
            let c8 = _mm_loadl_epi64(codes.as_ptr().add(base) as *const __m128i);
            let f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c8));
            let t = _mm256_loadu_ps(prep.t.as_ptr().add(base));
            let slack = _mm256_loadu_ps(prep.slack.as_ptr().add(base));
            let s2 = _mm256_loadu_ps(prep.step_sq.as_ptr().add(base));
            let d = _mm256_andnot_ps(sign, _mm256_sub_ps(t, f));
            let e = _mm256_max_ps(_mm256_sub_ps(d, slack), zero);
            bank = _mm256_add_ps(bank, _mm256_mul_ps(_mm256_mul_ps(e, e), s2));
        }
        let mut acc = [0.0f32; 8];
        _mm256_storeu_ps(acc.as_mut_ptr(), bank);
        super::tail_into_lane0(prep, codes, split, &mut acc);
        let sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        finish_bound(sum, prep.deflate)
    }

    /// SSE2 arm of [`super::lower_bound_block`]: one feature context for the
    /// whole batch so the per-row kernel inlines into the loop.
    pub fn lower_bound_block_sse2(prep: &Sq8Query, store: &Sq8Store, ids: &[u32], out: &mut [f32]) {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { lower_bound_block_sse2_impl(prep, store, ids, out) }
    }

    /// # Safety
    /// The caller must guarantee SSE2 is available (x86_64 baseline) and
    /// that every id has a row in `store` — `codes_row` bounds-checks the
    /// slice it hands to the per-row kernel, whose length precondition it
    /// thereby satisfies.
    #[target_feature(enable = "sse2")]
    unsafe fn lower_bound_block_sse2_impl(
        prep: &Sq8Query,
        store: &Sq8Store,
        ids: &[u32],
        out: &mut [f32],
    ) {
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = if store.is_clamped(id) {
                0.0
            } else {
                lower_bound_sse2_impl(prep, store.codes_row(id))
            };
        }
    }

    /// AVX2 arm of [`super::lower_bound_block`]: the feature check runs once
    /// per batch instead of once per candidate row.
    ///
    /// # Panics
    /// Panics if AVX2 is not available at runtime.
    pub fn lower_bound_block_avx2(prep: &Sq8Query, store: &Sq8Store, ids: &[u32], out: &mut [f32]) {
        assert!(
            is_x86_feature_detected!("avx2"),
            "lower_bound_block_avx2 requires AVX2"
        );
        // SAFETY: AVX2 availability was just asserted.
        unsafe { lower_bound_block_avx2_impl(prep, store, ids, out) }
    }

    /// Interleaves four rows per tile: the shared `t`/`slack`/`step_sq`
    /// loads amortize across the tile and the four independent accumulator
    /// chains hide the widen→sub→max→mul latency that makes the one-row
    /// kernel latency-bound at small `dim`.  Each row still executes the
    /// exact per-row operation sequence, so results stay bitwise-identical
    /// to [`super::lower_bound_scalar`].
    /// # Safety
    /// The caller must guarantee AVX2 is available and that `prep` and
    /// every id's row share the store's `dim` — the tile loads walk `dim`
    /// rounded down to a multiple of 8 over slices `codes_row` has
    /// bounds-checked to exactly `dim` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn lower_bound_block_avx2_impl(
        prep: &Sq8Query,
        store: &Sq8Store,
        ids: &[u32],
        out: &mut [f32],
    ) {
        let dim = store.grid().dim();
        debug_assert_eq!(prep.t.len(), dim, "lower_bound: prep/store dim mismatch");
        let chunks = dim / 8;
        let split = chunks * 8;
        let zero = _mm256_setzero_ps();
        let sign = _mm256_set1_ps(-0.0);
        let mut i = 0;
        while i + 4 <= ids.len() {
            let rows = [
                store.codes_row(ids[i]),
                store.codes_row(ids[i + 1]),
                store.codes_row(ids[i + 2]),
                store.codes_row(ids[i + 3]),
            ];
            // Pull code rows two tiles ahead toward L1 while this tile
            // computes — candidate rows are scattered, so the hardware
            // prefetcher cannot see them coming, and one tile of compute
            // is shorter than a DRAM round-trip.
            if i + 12 <= ids.len() {
                for r in 0..4 {
                    let next = store.codes_row(ids[i + 8 + r]).as_ptr();
                    _mm_prefetch(next as *const i8, _MM_HINT_T0);
                    if dim > 64 {
                        _mm_prefetch(next.add(64) as *const i8, _MM_HINT_T0);
                    }
                }
            }
            let mut banks = [zero; 4];
            for c in 0..chunks {
                let base = c * 8;
                let t = _mm256_loadu_ps(prep.t.as_ptr().add(base));
                let slack = _mm256_loadu_ps(prep.slack.as_ptr().add(base));
                let s2 = _mm256_loadu_ps(prep.step_sq.as_ptr().add(base));
                for (r, row) in rows.iter().enumerate() {
                    // Widen 8 u8 codes to f32x8 (exact: values <= 255).
                    let c8 = _mm_loadl_epi64(row.as_ptr().add(base) as *const __m128i);
                    let f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c8));
                    let d = _mm256_andnot_ps(sign, _mm256_sub_ps(t, f));
                    let e = _mm256_max_ps(_mm256_sub_ps(d, slack), zero);
                    banks[r] = _mm256_add_ps(banks[r], _mm256_mul_ps(_mm256_mul_ps(e, e), s2));
                }
            }
            for (r, row) in rows.iter().enumerate() {
                let mut acc = [0.0f32; 8];
                _mm256_storeu_ps(acc.as_mut_ptr(), banks[r]);
                super::tail_into_lane0(prep, row, split, &mut acc);
                let sum = ((acc[0] + acc[4]) + (acc[1] + acc[5]))
                    + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
                out[i + r] = if store.is_clamped(ids[i + r]) {
                    0.0
                } else {
                    finish_bound(sum, prep.deflate)
                };
            }
            i += 4;
        }
        while i < ids.len() {
            let id = ids[i];
            out[i] = if store.is_clamped(id) {
                0.0
            } else {
                lower_bound_avx2_impl(prep, store.codes_row(id))
            };
            i += 1;
        }
    }
}

/// AArch64 NEON arm of the lower-bound scan.
#[cfg(target_arch = "aarch64")]
pub mod neon {
    use super::{finish_bound, Sq8Query, Sq8Store};
    use std::arch::aarch64::*;

    /// NEON arm (baseline on aarch64).  Two 4-lane banks cover scalar lanes
    /// 0–3 and 4–7, matching the scalar reference bit-for-bit.
    pub fn lower_bound_neon(prep: &Sq8Query, codes: &[u8]) -> f32 {
        // SAFETY: NEON is part of the aarch64 baseline, so the target feature
        // is always available; all pointer arithmetic stays within the slices
        // checked by the kernel's debug assertion.
        unsafe { lower_bound_neon_impl(prep, codes) }
    }

    /// # Safety
    /// The caller must guarantee NEON is available (part of the aarch64
    /// baseline) and that `prep` spans `codes.len()` lanes — every 4-lane
    /// load stays below `codes.len()` rounded down to a multiple of 8,
    /// the tail is handled by the bounds-checked scalar helper.
    #[target_feature(enable = "neon")]
    unsafe fn lower_bound_neon_impl(prep: &Sq8Query, codes: &[u8]) -> f32 {
        let dim = codes.len();
        debug_assert_eq!(prep.t.len(), dim, "lower_bound: prep/codes dim mismatch");
        let chunks = dim / 8;
        let split = chunks * 8;
        let zero = vdupq_n_f32(0.0);
        let mut lo = zero;
        let mut hi = zero;
        for c in 0..chunks {
            let base = c * 8;
            // Widen 8 u8 codes to two f32x4 vectors (exact: values <= 255).
            let c8 = vld1_u8(codes.as_ptr().add(base));
            let c16 = vmovl_u8(c8);
            let f_lo = vcvtq_f32_u32(vmovl_u16(vget_low_u16(c16)));
            let f_hi = vcvtq_f32_u32(vmovl_u16(vget_high_u16(c16)));
            for (half, f) in [(0usize, f_lo), (4usize, f_hi)] {
                let t = vld1q_f32(prep.t.as_ptr().add(base + half));
                let slack = vld1q_f32(prep.slack.as_ptr().add(base + half));
                let s2 = vld1q_f32(prep.step_sq.as_ptr().add(base + half));
                let d = vabsq_f32(vsubq_f32(t, f));
                let e = vmaxq_f32(vsubq_f32(d, slack), zero);
                let term = vmulq_f32(vmulq_f32(e, e), s2);
                if half == 0 {
                    lo = vaddq_f32(lo, term);
                } else {
                    hi = vaddq_f32(hi, term);
                }
            }
        }
        let mut acc = [0.0f32; 8];
        vst1q_f32(acc.as_mut_ptr(), lo);
        vst1q_f32(acc.as_mut_ptr().add(4), hi);
        super::tail_into_lane0(prep, codes, split, &mut acc);
        let sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        finish_bound(sum, prep.deflate)
    }

    /// NEON arm of [`super::lower_bound_block`]: one feature context for the
    /// whole batch so the per-row kernel inlines into the loop.
    pub fn lower_bound_block_neon(prep: &Sq8Query, store: &Sq8Store, ids: &[u32], out: &mut [f32]) {
        // SAFETY: NEON is part of the aarch64 baseline.
        unsafe { lower_bound_block_neon_impl(prep, store, ids, out) }
    }

    /// # Safety
    /// The caller must guarantee NEON is available (aarch64 baseline) and
    /// that every id has a row in `store` — `codes_row` bounds-checks the
    /// slice it hands to the per-row kernel, whose length precondition it
    /// thereby satisfies.
    #[target_feature(enable = "neon")]
    unsafe fn lower_bound_block_neon_impl(
        prep: &Sq8Query,
        store: &Sq8Store,
        ids: &[u32],
        out: &mut [f32],
    ) {
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = if store.is_clamped(id) {
                0.0
            } else {
                lower_bound_neon_impl(prep, store.codes_row(id))
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::sq_dist;

    fn rows(n: usize, dim: usize, salt: u64) -> Vec<f32> {
        (0..n * dim)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                ((x >> 33) as f32 / (1u64 << 31) as f32) * 20.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn grid_is_order_independent() {
        let dim = 7;
        let flat = rows(40, dim, 3);
        let g = Sq8Grid::learn(dim, &flat);
        let mut rev: Vec<f32> = Vec::new();
        for r in flat.chunks_exact(dim).rev() {
            rev.extend_from_slice(r);
        }
        let g2 = Sq8Grid::learn(dim, &rev);
        assert_eq!(g, g2);
    }

    #[test]
    fn bound_never_exceeds_exact_distance() {
        for &dim in &[1usize, 3, 8, 9, 24, 33] {
            let flat = rows(50, dim, dim as u64);
            let store = Sq8Store::learn_and_build(dim, &flat);
            let mut prep = Sq8Query::empty();
            for qi in 0..10 {
                let q = &rows(50, dim, 777 + qi)[..dim];
                store.prepare_query(q, &mut prep);
                for id in 0..store.len() as u32 {
                    let exact = sq_dist(q, &flat[id as usize * dim..(id as usize + 1) * dim]);
                    let bound = lower_bound(&prep, store.codes_row(id));
                    assert!(
                        bound <= exact,
                        "dim {dim} id {id}: bound {bound} > exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_dimensions_bound_to_zero_against_members() {
        let dim = 5;
        let mut flat = rows(20, dim, 9);
        for row in flat.chunks_exact_mut(dim) {
            row[2] = 4.25; // constant dimension -> min == max -> step = 1.0
        }
        let store = Sq8Store::learn_and_build(dim, &flat);
        assert_eq!(store.grid().step()[2], 1.0);
        let mut prep = Sq8Query::empty();
        let q = flat[..dim].to_vec();
        store.prepare_query(&q, &mut prep);
        let bound = lower_bound(&prep, store.codes_row(0));
        assert_eq!(bound, 0.0, "a member row must never bound above zero");
    }

    #[test]
    fn clamped_rows_never_prune() {
        let dim = 4;
        let flat = rows(10, dim, 1);
        let mut store = Sq8Store::learn_and_build(dim, &flat);
        store.push(&[1e9; 4]); // far outside the learned grid
        let id = store.len() as u32 - 1;
        assert!(store.is_clamped(id));
        assert!(!store.is_clamped(0));
    }

    #[test]
    fn retained_matches_rebuild() {
        let dim = 6;
        let flat = rows(30, dim, 5);
        let store = Sq8Store::learn_and_build(dim, &flat);
        let keep: Vec<u32> = (0..30).filter(|i| i % 3 != 0).collect();
        let retained = store.retained(&keep);
        let mut kept_flat = Vec::new();
        for &k in &keep {
            kept_flat.extend_from_slice(&flat[k as usize * dim..(k as usize + 1) * dim]);
        }
        let rebuilt = Sq8Store::build(store.grid().clone(), &kept_flat);
        assert_eq!(retained, rebuilt);
    }

    #[test]
    fn non_finite_query_coordinates_contribute_zero() {
        let dim = 3;
        let flat = rows(8, dim, 2);
        let store = Sq8Store::learn_and_build(dim, &flat);
        let mut prep = Sq8Query::empty();
        // A query coordinate so large that (q - min) overflows to infinity.
        store.prepare_query(&[f32::MAX, 0.0, 0.0], &mut prep);
        let bound = lower_bound(&prep, store.codes_row(0));
        assert!(bound.is_finite());
    }

    #[test]
    fn from_parts_validates() {
        assert!(Sq8Grid::from_parts(vec![0.0], vec![1.0]).is_ok());
        assert!(Sq8Grid::from_parts(vec![], vec![]).is_err());
        assert!(Sq8Grid::from_parts(vec![0.0], vec![0.0]).is_err());
        assert!(Sq8Grid::from_parts(vec![0.0], vec![f32::NAN]).is_err());
        assert!(Sq8Grid::from_parts(vec![f32::INFINITY], vec![1.0]).is_err());
        assert!(Sq8Grid::from_parts(vec![0.0, 1.0], vec![1.0]).is_err());
    }
}
