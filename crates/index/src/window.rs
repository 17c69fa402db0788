//! The window-probe kernel: an `f64` query window rounded *inward* to
//! `f32` once per probe, and the three predicates a probe evaluates —
//! point-in-window, box-intersects-window, box-inside-window — as
//! branch-free comparisons in the storage precision; plus [`sweep`], the
//! point predicate run over a run of points that no tree holds.
//!
//! # Why the rounding is exact
//!
//! Take one dimension of the window, `[lo, hi]` in `f64`, and let
//! `lo32` be the smallest `f32` with `lo32 >= lo` and `hi32` the largest
//! `f32` with `hi32 <= hi` ([`ceil_f32`], [`floor_f32`]). Every stored
//! coordinate or bound `v` is an `f32`, and `f32 -> f64` is exact and
//! order-preserving, so `lo <= v as f64` holds iff `v` is one of the
//! `f32`s at or above `lo` — iff `lo32 <= v` — and symmetrically
//! `v as f64 <= hi` iff `v <= hi32`. Membership is therefore *identical*
//! to comparing in `f64`, for every `f32` including `±0.0`, subnormals
//! and `±∞`; NaN is false on both sides. A window narrower than the
//! local `f32` spacing rounds to `lo32 > hi32` and is empty, as it is in
//! `f64`.
//!
//! All three predicates have the shape `∀i: lo[i] <= x[i] ∧ y[i] <=
//! hi[i]` ([`between`]): a point passes itself as `x` and `y`, a box
//! intersects with `(x, y) = (box hi, box lo)` and is contained with
//! `(x, y) = (box lo, box hi)`.

/// Smallest `f32` that is `>= x` (`+∞` above `f32::MAX`).
#[inline]
pub(crate) fn ceil_f32(x: f64) -> f32 {
    let f = x as f32; // nearest; may land on either side of x
    if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// Largest `f32` that is `<= x` (`-∞` below `f32::MIN`).
#[inline]
pub(crate) fn floor_f32(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) > x {
        f.next_down()
    } else {
        f
    }
}

/// A query window in storage precision: the inward-rounded `f32`
/// corners of one probe, borrowed from the cursor's buffers.
#[derive(Clone, Copy)]
pub(crate) struct Window32<'a> {
    pub lo: &'a [f32],
    pub hi: &'a [f32],
}

impl<'a> Window32<'a> {
    /// The window whose lo corner is the first half of `corners` and
    /// whose hi corner is the second.
    #[inline]
    pub fn from_corners(corners: &'a [f32]) -> Self {
        let (lo, hi) = corners.split_at(corners.len() / 2);
        Window32 { lo, hi }
    }

    /// True iff stored point `p` lies inside the window.
    #[inline]
    pub fn contains_point(&self, p: &[f32]) -> bool {
        between(self.lo, p, p, self.hi)
    }

    /// True iff the window and the stored box share a point.
    #[inline]
    pub fn intersects(&self, blo: &[f32], bhi: &[f32]) -> bool {
        between(self.lo, bhi, blo, self.hi)
    }

    /// True iff the stored box lies fully inside the window (boundary
    /// inclusive) — every point below it is a hit.
    #[inline]
    pub fn contains_box(&self, blo: &[f32], bhi: &[f32]) -> bool {
        between(self.lo, blo, bhi, self.hi)
    }
}

/// Append to `hits` every id of `ids` whose point (`coords(id)`) lies in
/// `window` — [`Window32::contains_point`] swept over a run of points
/// that no box was checked against, so most of them miss. The window's
/// corners are loaded once per sweep, and a point is rejected on its
/// first four dimensions before the rest are read.
#[inline]
pub(crate) fn sweep<'p>(
    window: Window32,
    ids: impl Iterator<Item = u32>,
    coords: impl Fn(u32) -> &'p [f32],
    hits: &mut Vec<u32>,
) {
    #[cfg(all(target_arch = "x86_64", not(dblsh_portable_window)))]
    if (4..=4 * SWEEP_CHUNKS).contains(&window.lo.len()) {
        return sweep_sse2(window, ids, coords, hits);
    }
    for id in ids {
        if window.contains_point(coords(id)) {
            hits.push(id);
        }
    }
}

/// Most 4-lane chunks [`sweep_sse2`] keeps in registers (64 dimensions).
#[cfg(target_arch = "x86_64")]
const SWEEP_CHUNKS: usize = 16;

/// The SSE2 arm of [`sweep`] for 4 to `4 * SWEEP_CHUNKS` dimensions: the
/// chunking of [`between_sse2`] (whole chunks, then one overlapping
/// chunk over the last four lanes), with the corner chunks loaded once.
#[cfg(target_arch = "x86_64")]
#[cfg_attr(dblsh_portable_window, allow(dead_code))]
#[inline]
pub(crate) fn sweep_sse2<'p>(
    window: Window32,
    ids: impl Iterator<Item = u32>,
    coords: impl Fn(u32) -> &'p [f32],
    hits: &mut Vec<u32>,
) {
    use std::arch::x86_64::{_mm_and_ps, _mm_cmple_ps, _mm_loadu_ps, _mm_movemask_ps};
    let d = window.lo.len();
    if !(4..=4 * SWEEP_CHUNKS).contains(&d) || window.hi.len() != d {
        return;
    }
    // Chunk offsets: 0, 4, .. while a whole chunk fits, then d - 4.
    let chunks = d.div_ceil(4);
    let offset = |c: usize| (4 * c).min(d - 4);
    // SAFETY: SSE2 is part of the x86_64 baseline. Both corners hold
    // exactly `d >= 4` values (checked above) and so does every point
    // tested (checked per point); every load reads the 4 lanes at an
    // offset `<= d - 4`, and `chunks <= SWEEP_CHUNKS` because
    // `d <= 4 * SWEEP_CHUNKS`.
    unsafe {
        let corner = |v: &[f32], c: usize| _mm_loadu_ps(v.as_ptr().add(offset(c)));
        let (mut lo, mut hi) = (
            [corner(window.lo, 0); SWEEP_CHUNKS],
            [corner(window.hi, 0); SWEEP_CHUNKS],
        );
        for c in 1..chunks {
            lo[c] = corner(window.lo, c);
            hi[c] = corner(window.hi, c);
        }
        let inside = |p: &[f32], c: usize| {
            let v = corner(p, c);
            _mm_and_ps(_mm_cmple_ps(lo[c], v), _mm_cmple_ps(v, hi[c]))
        };
        for id in ids {
            let p = coords(id);
            if p.len() != d {
                continue;
            }
            let mut all = inside(p, 0);
            if _mm_movemask_ps(all) != 0b1111 {
                continue;
            }
            for c in 1..chunks {
                all = _mm_and_ps(all, inside(p, c));
            }
            if _mm_movemask_ps(all) == 0b1111 {
                hits.push(id);
            }
        }
    }
}

/// `∀i: lo[i] <= x[i] ∧ y[i] <= hi[i]`, evaluated without a
/// data-dependent branch. Slices of unequal length (a violated
/// dimensionality contract) compare false.
///
/// Building with `RUSTFLAGS="--cfg dblsh_portable_window"` routes every
/// call through the safe arm, so the test suite can run both arms on one
/// `x86_64` host.
#[inline]
pub(crate) fn between(lo: &[f32], x: &[f32], y: &[f32], hi: &[f32]) -> bool {
    #[cfg(all(target_arch = "x86_64", not(dblsh_portable_window)))]
    if lo.len() >= 4 {
        return between_sse2(lo, x, y, hi);
    }
    between_portable(lo, x, y, hi)
}

/// The safe arm of [`between`]: every target other than `x86_64`, and
/// fewer than four dimensions everywhere.
#[inline]
pub(crate) fn between_portable(lo: &[f32], x: &[f32], y: &[f32], hi: &[f32]) -> bool {
    let d = lo.len();
    if x.len() != d || y.len() != d || hi.len() != d {
        return false;
    }
    let mut inside = true;
    for i in 0..d {
        inside &= (lo[i] <= x[i]) & (y[i] <= hi[i]);
    }
    inside
}

/// The SSE2 arm of [`between`] for `lo.len() >= 4`: whole 4-lane chunks,
/// then one overlapping load covering the last four lanes (re-testing a
/// lane cannot change an AND).
#[cfg(target_arch = "x86_64")]
#[cfg_attr(dblsh_portable_window, allow(dead_code))]
#[inline]
pub(crate) fn between_sse2(lo: &[f32], x: &[f32], y: &[f32], hi: &[f32]) -> bool {
    use std::arch::x86_64::{_mm_and_ps, _mm_cmple_ps, _mm_loadu_ps, _mm_movemask_ps};
    let d = lo.len();
    if d < 4 || x.len() != d || y.len() != d || hi.len() != d {
        return false;
    }
    // SAFETY: SSE2 is part of the x86_64 baseline. All four slices hold
    // exactly `d >= 4` values (checked above) and every load reads the 4
    // lanes at an offset `<= d - 4`: the loop stops at `off + 4 <= d`
    // and the tail offset is `d - 4` itself.
    unsafe {
        let lanes = |off: usize| {
            _mm_and_ps(
                _mm_cmple_ps(
                    _mm_loadu_ps(lo.as_ptr().add(off)),
                    _mm_loadu_ps(x.as_ptr().add(off)),
                ),
                _mm_cmple_ps(
                    _mm_loadu_ps(y.as_ptr().add(off)),
                    _mm_loadu_ps(hi.as_ptr().add(off)),
                ),
            )
        };
        let mut inside = lanes(0);
        let mut off = 4;
        while off + 4 <= d {
            inside = _mm_and_ps(inside, lanes(off));
            off += 4;
        }
        if off < d {
            inside = _mm_and_ps(inside, lanes(d - 4));
        }
        _mm_movemask_ps(inside) == 0b1111
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::geom;
    use proptest::prelude::*;

    /// The smallest positive subnormal `f32`.
    const TINY: f32 = f32::from_bits(1);

    /// One arm of [`between`].
    type Arm = fn(&[f32], &[f32], &[f32], &[f32]) -> bool;

    #[test]
    fn rounding_is_inward_and_tight() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            0.1,
            -0.1,
            1e-50,
            -1e-50,
            5e-324,
            TINY as f64,
            TINY as f64 * 1.5,
            f32::MAX as f64,
            f32::MIN as f64,
            f32::MAX as f64 * (1.0 + 1e-9),
            f32::MIN as f64 * (1.0 + 1e-9),
            1e39,
            -1e39,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            16_777_217.0, // 2^24 + 1: the first integer f32 cannot hold
        ];
        for x in cases {
            let (up, down) = (ceil_f32(x), floor_f32(x));
            assert!(up as f64 >= x && (down as f64) <= x, "{x}: [{down}, {up}]");
            // tight: one step further crosses x (or there is no step left)
            assert!(
                up == f32::NEG_INFINITY || (up.next_down() as f64) < x,
                "{x}: ceil {up}"
            );
            assert!(
                down == f32::INFINITY || (down.next_up() as f64) > x,
                "{x}: floor {down}"
            );
            if x as f32 as f64 == x {
                assert_eq!((up, down), (x as f32, x as f32), "{x} is an f32");
            }
        }
        assert_eq!(ceil_f32(1e-50), TINY);
        assert_eq!(floor_f32(-1e-50), -TINY);
        assert_eq!(ceil_f32(1e39), f32::INFINITY);
        assert_eq!(floor_f32(1e39), f32::MAX);
        assert_eq!(ceil_f32(-1e39), f32::MIN);
        assert!(ceil_f32(f64::NAN).is_nan() && floor_f32(f64::NAN).is_nan());
    }

    #[test]
    fn window_below_one_f32_spacing_is_empty() {
        // (1, 1 + 2^-23) holds no f32, and neither do the intervals on
        // either side of zero below the smallest subnormal.
        for (lo, hi) in [
            (1.0 + 1e-9, 1.0 + 1e-8),
            (1e-50, 1e-46),
            (-1e-46, -1e-50),
            (1e39, 1e300),
        ] {
            let (lo32, hi32) = (ceil_f32(lo), floor_f32(hi));
            assert!(lo32 > hi32, "[{lo}, {hi}] rounds to [{lo32}, {hi32}]");
        }
    }

    #[test]
    fn unequal_lengths_compare_false() {
        let (four, five) = ([0.0f32; 4], [0.0f32; 5]);
        let mut hits = Vec::new();
        let window = Window32 {
            lo: &four,
            hi: &four,
        };
        let run = [&five[..], &four[..4], &four[..3]];
        sweep(window, 0..3, |id| run[id as usize], &mut hits);
        assert_eq!(hits, [1]);
        assert!(between(&four, &four, &four, &four));
        assert!(!between(&four, &five, &four, &four));
        assert!(!between(&five, &five, &five, &four));
        assert!(!between_portable(
            &four[..2],
            &four[..3],
            &four[..2],
            &four[..2]
        ));
    }

    /// One `f64` window corner: ordinary values, exact `f32`s, values
    /// strictly between two adjacent `f32`s, zeros, subnormals, the ends
    /// of the `f32` range and values beyond it.
    fn corner() -> impl Strategy<Value = f64> {
        prop_oneof![
            -100.0f64..100.0,
            (-100.0f32..100.0).prop_map(|v| v as f64),
            (-100.0f32..100.0, 0.0f64..1.0).prop_map(|(v, t)| {
                let (a, b) = (v as f64, v.next_up() as f64);
                a + (b - a) * t
            }),
            (0u32..0x0080_0000, 0.0f64..1.0)
                .prop_map(|(bits, t)| (f32::from_bits(bits) as f64) + (TINY as f64) * t),
            (0u32..0x0080_0000).prop_map(|bits| -(f32::from_bits(bits) as f64)),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(1e-320),
                Just(-1e-320),
                Just(f32::MAX as f64),
                Just(f32::MIN as f64),
                Just(3.5e38),
                Just(-3.5e38),
                Just(1e300),
                Just(-1e300),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
        ]
    }

    /// A stored value aimed at the rounded corners `[lo, hi]` of one
    /// dimension: codes 0..3 sit inside (when the window is not empty),
    /// the rest are the corners' neighbours and the `f32` extremes.
    fn stored(code: u8, lo: f32, hi: f32, free: f32) -> f32 {
        match code {
            0 => lo,
            1 => hi,
            2 => lo / 2.0 + hi / 2.0,
            3 => lo.next_down(),
            4 => lo.next_up(),
            5 => hi.next_down(),
            6 => hi.next_up(),
            7 => 0.0,
            8 => -0.0,
            9 => TINY,
            10 => -TINY,
            11 => f32::MAX,
            12 => f32::MIN,
            _ => free,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The kernel's three predicates — through the dispatcher the
        /// cursor calls, and through each arm by name — agree with the
        /// mixed-precision `f64` reference on inputs built to sit on,
        /// one ulp below and one ulp above every rounded corner.
        #[test]
        fn window32_equals_f64_reference(
            dim in 1usize..=13,
            // Per dimension two corners, ordered unless the flag is 0 (an
            // inverted window is empty on both sides of the comparison).
            corners in prop::collection::vec((corner(), corner(), 0u8..4), 13),
            // Per dimension: codes of the point, the box lo and the box
            // hi when that dimension is picked as adversarial.
            codes in prop::collection::vec((0u8..14, 0u8..14, 0u8..14), 13),
            inside in prop::collection::vec(0u8..3, 13),
            free in prop::collection::vec(-150.0f32..150.0, 13),
            // Dimensions that get the adversarial codes; the others stay
            // inside so the conjunction is decided at the boundary.
            hot in prop::collection::vec(0usize..13, 0..4),
        ) {
            let ordered = |&(a, b, flag): &(f64, f64, u8)| {
                if flag == 0 { (a, b) } else { (a.min(b), a.max(b)) }
            };
            let (wlo, whi): (Vec<f64>, Vec<f64>) = corners[..dim].iter().map(ordered).unzip();
            let lo32: Vec<f32> = wlo.iter().map(|&v| ceil_f32(v)).collect();
            let hi32: Vec<f32> = whi.iter().map(|&v| floor_f32(v)).collect();
            let pick = |i: usize, code: u8| {
                let code = if hot.contains(&i) { code } else { inside[i] };
                stored(code, lo32[i], hi32[i], free[i])
            };
            let p: Vec<f32> = (0..dim).map(|i| pick(i, codes[i].0)).collect();
            let blo: Vec<f32> = (0..dim).map(|i| pick(i, codes[i].1)).collect();
            let bhi: Vec<f32> = (0..dim).map(|i| pick(i, codes[i].2)).collect();

            let want = [
                geom::window_contains_point(&wlo, &whi, &p),
                geom::window_intersects(&wlo, &whi, &blo, &bhi),
                geom::window_contains_box(&wlo, &whi, &blo, &bhi),
            ];
            let window = Window32 { lo: &lo32, hi: &hi32 };
            let got = [
                window.contains_point(&p),
                window.intersects(&blo, &bhi),
                window.contains_box(&blo, &bhi),
            ];
            prop_assert_eq!(got, want, "dispatch: window {:?}..{:?}, p {:?}, box {:?}..{:?}",
                wlo, whi, p, blo, bhi);
            let arm = |f: Arm| [
                f(&lo32, &p, &p, &hi32),
                f(&lo32, &bhi, &blo, &hi32),
                f(&lo32, &blo, &bhi, &hi32),
            ];
            prop_assert_eq!(arm(between_portable), want, "portable arm");
            #[cfg(target_arch = "x86_64")]
            if dim >= 4 {
                prop_assert_eq!(arm(between_sse2), want, "sse2 arm");
            }
            // The run sweep: the point alone, then among decoys on either
            // side of every rounded corner.
            let decoys: Vec<Vec<f32>> = (0..dim)
                .flat_map(|i| {
                    [lo32[i].next_down(), hi32[i].next_up()].map(|v| {
                        let mut d = p.clone();
                        d[i] = v;
                        d
                    })
                })
                .collect();
            let run: Vec<&[f32]> = decoys.iter().map(|d| &d[..]).chain([&p[..]]).collect();
            let mut hits = Vec::new();
            sweep(window, 0..run.len() as u32, |id| run[id as usize], &mut hits);
            let expect: Vec<u32> = (0..run.len() as u32)
                .filter(|&id| window.contains_point(run[id as usize]))
                .collect();
            prop_assert_eq!(&hits, &expect, "sweep");
            prop_assert_eq!(hits.contains(&(run.len() as u32 - 1)), want[0], "sweep");
            #[cfg(target_arch = "x86_64")]
            if dim >= 4 {
                let mut sse2 = Vec::new();
                sweep_sse2(window, 0..run.len() as u32, |id| run[id as usize], &mut sse2);
                prop_assert_eq!(sse2, hits, "sse2 sweep");
            }
        }
    }
}
