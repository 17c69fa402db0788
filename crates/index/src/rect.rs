//! Axis-aligned bounding rectangles with runtime dimensionality.
//!
//! [`Rect`] is the *boundary value type*, in `f64`: callers describe
//! query windows with it and [`crate::RStarTree::mbr`] reports the
//! tree's extent as one. Inside the tree, bounds are never materialized
//! as `Rect`s — nodes keep their children's boxes inline in flat `f32`
//! arenas and all geometry runs over the slice helpers in [`geom`], so
//! the hot path performs no rectangle cloning and no per-entry
//! allocation.

/// An axis-aligned hyper-rectangle `[lo_0, hi_0] x ... x [lo_{d-1}, hi_{d-1}]`.
///
/// Degenerate rectangles (points, `lo == hi`) are valid.
///
/// # Contract
///
/// Constructors require corners of equal, non-zero dimensionality with
/// `lo[i] <= hi[i]` and no NaN in any dimension. The contract is checked
/// with `debug_assert!` only: violating it in release builds is safe
/// (no undefined behavior) but yields unspecified query results —
/// typically an empty window. Callers holding unvalidated input should
/// validate before constructing (as `dblsh-core` does via `DbLshError`).
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Rectangle from corner slices. See the type-level contract.
    pub fn new(lo: &[f64], hi: &[f64]) -> Self {
        debug_assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        debug_assert!(!lo.is_empty(), "zero-dimensional rectangle");
        debug_assert!(
            lo.iter().zip(hi).all(|(&l, &h)| l <= h),
            "inverted or NaN rectangle: lo {lo:?}, hi {hi:?}"
        );
        Rect {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Degenerate rectangle covering a single point.
    pub fn point(coords: &[f64]) -> Self {
        debug_assert!(!coords.is_empty(), "zero-dimensional point");
        debug_assert!(coords.iter().all(|v| !v.is_nan()), "NaN coordinate");
        Rect {
            lo: coords.into(),
            hi: coords.into(),
        }
    }

    /// Hypercube of side `w >= 0` centered at `center` — the paper's
    /// query-centric bucket `W(G_i(q), w)` (Eq. 8).
    pub fn centered_cube(center: &[f64], w: f64) -> Self {
        debug_assert!(w >= 0.0 && !w.is_nan(), "invalid width {w}");
        let half = w / 2.0;
        let lo: Vec<f64> = center.iter().map(|&c| c - half).collect();
        let hi: Vec<f64> = center.iter().map(|&c| c + half).collect();
        Rect::new(&lo, &hi)
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// True iff the two rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.iter().zip(other.hi.iter()).all(|(&a, &b)| a <= b)
            && other.lo.iter().zip(self.hi.iter()).all(|(&a, &b)| a <= b)
    }

    /// True iff `p` lies inside the rectangle (boundary inclusive).
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), p.len());
        p.iter()
            .enumerate()
            .all(|(i, &v)| self.lo[i] <= v && v <= self.hi[i])
    }

    /// True iff `other` is fully inside `self` (boundary inclusive).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.iter().zip(other.lo.iter()).all(|(&a, &b)| a <= b)
            && self.hi.iter().zip(other.hi.iter()).all(|(&a, &b)| b <= a)
    }

    /// Hyper-volume (product of side lengths).
    #[inline]
    pub fn area(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| h - l)
            .product()
    }

    /// Margin: sum of side lengths (the R\* split heuristic score).
    #[inline]
    pub fn margin(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| h - l)
            .sum()
    }

    /// Volume of the intersection with `other` (0 when disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let mut v = 1.0;
        for i in 0..self.dim() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if lo >= hi {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Grow to the smallest rectangle covering both `self` and `other`.
    pub fn enlarge(&mut self, other: &Rect) {
        for i in 0..self.lo.len() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// Smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        let mut r = self.clone();
        r.enlarge(other);
        r
    }

    /// Extra volume needed to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Center coordinate in dimension `i`.
    #[inline]
    pub fn center(&self, i: usize) -> f64 {
        0.5 * (self.lo[i] + self.hi[i])
    }

    /// Squared Euclidean distance between the centers of two rectangles.
    pub fn center_dist2(&self, other: &Rect) -> f64 {
        (0..self.dim())
            .map(|i| {
                let d = self.center(i) - other.center(i);
                d * d
            })
            .sum()
    }

    /// MINDIST: squared Euclidean distance from point `p` to the nearest
    /// point of the rectangle (0 if `p` is inside). Drives best-first NN.
    pub fn min_dist2(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), p.len());
        let mut acc = 0.0;
        for ((&v, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            let d = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }
}

/// Allocation-free rectangle geometry over raw `(lo, hi)` corner slices —
/// the arithmetic layer of the flat node arena. A degenerate box (a
/// point) is expressed by passing the same slice as both corners.
///
/// Stored bounds and coordinates are `f32` (half the memory traffic of
/// the hot path); every derived quantity (areas, margins, distances) is
/// accumulated in `f64` so the R\* heuristics never overflow or lose
/// order on high-dimensional products. Window queries do not come
/// through here: they run on the exact `f32` window of
/// [`crate::window`], and the mixed-precision `window_*` predicates at
/// the bottom (an `f64` window against stored values cast up, which is
/// exact) are compiled for tests only, as that kernel's reference.
pub(crate) mod geom {
    /// Hyper-volume (product of side lengths, in `f64`).
    #[inline]
    pub fn area(lo: &[f32], hi: &[f32]) -> f64 {
        lo.iter()
            .zip(hi)
            .map(|(&l, &h)| (h as f64) - (l as f64))
            .product()
    }

    /// Sum of side lengths (in `f64`).
    #[inline]
    pub fn margin(lo: &[f32], hi: &[f32]) -> f64 {
        lo.iter()
            .zip(hi)
            .map(|(&l, &h)| (h as f64) - (l as f64))
            .sum()
    }

    /// Volume of the intersection (0 when disjoint).
    #[inline]
    pub fn overlap_area(alo: &[f32], ahi: &[f32], blo: &[f32], bhi: &[f32]) -> f64 {
        let mut v = 1.0f64;
        for i in 0..alo.len() {
            let lo = alo[i].max(blo[i]);
            let hi = ahi[i].min(bhi[i]);
            if lo >= hi {
                return 0.0;
            }
            v *= (hi as f64) - (lo as f64);
        }
        v
    }

    /// Volume of the smallest box covering both inputs, without
    /// materializing it.
    #[inline]
    pub fn union_area(alo: &[f32], ahi: &[f32], blo: &[f32], bhi: &[f32]) -> f64 {
        let mut v = 1.0f64;
        for i in 0..alo.len() {
            v *= (ahi[i].max(bhi[i]) as f64) - (alo[i].min(blo[i]) as f64);
        }
        v
    }

    /// Extra volume box `a` needs to also cover box `e`.
    #[inline]
    pub fn enlargement(alo: &[f32], ahi: &[f32], elo: &[f32], ehi: &[f32]) -> f64 {
        union_area(alo, ahi, elo, ehi) - area(alo, ahi)
    }

    /// Overlap of `union(a, e)` with `o`, without materializing the union.
    #[inline]
    pub fn overlap_area_of_union(
        alo: &[f32],
        ahi: &[f32],
        elo: &[f32],
        ehi: &[f32],
        olo: &[f32],
        ohi: &[f32],
    ) -> f64 {
        let mut v = 1.0f64;
        for i in 0..alo.len() {
            let ulo = alo[i].min(elo[i]);
            let uhi = ahi[i].max(ehi[i]);
            let lo = ulo.max(olo[i]);
            let hi = uhi.min(ohi[i]);
            if lo >= hi {
                return 0.0;
            }
            v *= (hi as f64) - (lo as f64);
        }
        v
    }

    /// Grow box `(lo, hi)` in place to cover box `(plo, phi)`.
    #[inline]
    pub fn enlarge(lo: &mut [f32], hi: &mut [f32], plo: &[f32], phi: &[f32]) {
        // Selects, not conditional stores: they compile to branch-free
        // min/max, which keeps bulk loading's per-point MBR sweep free of
        // mispredicted branches.
        for (((lo, hi), &plo), &phi) in lo.iter_mut().zip(hi.iter_mut()).zip(plo).zip(phi) {
            *lo = if plo < *lo { plo } else { *lo };
            *hi = if phi > *hi { phi } else { *hi };
        }
    }

    /// True iff stored point `p` lies inside stored box `(lo, hi)`.
    #[inline]
    pub fn contains_point(lo: &[f32], hi: &[f32], p: &[f32]) -> bool {
        debug_assert_eq!(lo.len(), p.len());
        lo.iter()
            .zip(hi)
            .zip(p)
            .all(|((&l, &h), &v)| l <= v && v <= h)
    }

    /// Squared Euclidean distance between the centers of two boxes.
    #[inline]
    pub fn center_dist2(alo: &[f32], ahi: &[f32], blo: &[f32], bhi: &[f32]) -> f64 {
        (0..alo.len())
            .map(|i| {
                let d = 0.5 * ((alo[i] as f64) + (ahi[i] as f64))
                    - 0.5 * ((blo[i] as f64) + (bhi[i] as f64));
                d * d
            })
            .sum()
    }

    // --- mixed precision: f64 query geometry vs f32 stored data ---

    /// True iff stored point `p` lies inside the `f64` query window.
    #[cfg(test)]
    pub fn window_contains_point(lo: &[f64], hi: &[f64], p: &[f32]) -> bool {
        debug_assert_eq!(lo.len(), p.len());
        lo.iter()
            .zip(hi)
            .zip(p)
            .all(|((&l, &h), &v)| l <= v as f64 && v as f64 <= h)
    }

    /// True iff the `f64` query window intersects the stored `f32` box.
    #[cfg(test)]
    pub fn window_intersects(wlo: &[f64], whi: &[f64], blo: &[f32], bhi: &[f32]) -> bool {
        wlo.iter().zip(bhi).all(|(&w, &b)| w <= b as f64)
            && blo.iter().zip(whi).all(|(&b, &w)| b as f64 <= w)
    }

    /// True iff the stored `f32` box lies fully inside the `f64` query
    /// window (boundary inclusive) — every point below it is a hit.
    #[cfg(test)]
    pub fn window_contains_box(wlo: &[f64], whi: &[f64], blo: &[f32], bhi: &[f32]) -> bool {
        wlo.iter().zip(blo).all(|(&w, &b)| w <= b as f64)
            && bhi.iter().zip(whi).all(|(&b, &w)| b as f64 <= w)
    }

    /// MINDIST: squared `f64` distance from query point `q` to the
    /// nearest point of the stored box.
    #[inline]
    pub fn min_dist2(lo: &[f32], hi: &[f32], q: &[f64]) -> f64 {
        debug_assert_eq!(lo.len(), q.len());
        let mut acc = 0.0;
        for ((&v, &l), &h) in q.iter().zip(lo).zip(hi) {
            let (l, h) = (l as f64, h as f64);
            let d = if v < l {
                l - v
            } else if v > h {
                v - h
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_rect_roundtrip() {
        let r = Rect::point(&[1.0, -2.0, 3.5]);
        assert_eq!(r.lo(), &[1.0, -2.0, 3.5]);
        assert_eq!(r.hi(), &[1.0, -2.0, 3.5]);
        assert_eq!(r.area(), 0.0);
        assert!(r.contains_point(&[1.0, -2.0, 3.5]));
    }

    #[test]
    fn centered_cube_is_the_paper_window() {
        // W(G(q), w) = [g_j - w/2, g_j + w/2] per dimension (Eq. 8).
        let r = Rect::centered_cube(&[0.0, 10.0], 4.0);
        assert_eq!(r.lo(), &[-2.0, 8.0]);
        assert_eq!(r.hi(), &[2.0, 12.0]);
        assert!(r.contains_point(&[-2.0, 12.0])); // boundary inclusive
        assert!(!r.contains_point(&[-2.1, 10.0]));
    }

    #[test]
    fn intersection_and_containment() {
        let a = Rect::new(&[0.0, 0.0], &[2.0, 2.0]);
        let b = Rect::new(&[1.0, 1.0], &[3.0, 3.0]);
        let c = Rect::new(&[2.5, 2.5], &[4.0, 4.0]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c));
        assert!(a.contains_rect(&Rect::new(&[0.5, 0.5], &[1.5, 1.5])));
        assert!(!a.contains_rect(&b));
        // touching edges count as intersecting
        assert!(a.intersects(&Rect::new(&[2.0, 0.0], &[3.0, 1.0])));
    }

    #[test]
    fn areas_margins_overlap() {
        let a = Rect::new(&[0.0, 0.0], &[2.0, 3.0]);
        let b = Rect::new(&[1.0, 1.0], &[3.0, 5.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(a.overlap_area(&b), 1.0 * 2.0);
        assert_eq!(a.union(&b).area(), 3.0 * 5.0);
        assert_eq!(a.enlargement(&b), 15.0 - 6.0);
        let far = Rect::new(&[10.0, 10.0], &[11.0, 11.0]);
        assert_eq!(a.overlap_area(&far), 0.0);
    }

    #[test]
    fn min_dist2_cases() {
        let r = Rect::new(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(r.min_dist2(&[1.0, 1.0]), 0.0); // inside
        assert_eq!(r.min_dist2(&[3.0, 1.0]), 1.0); // right face
        assert_eq!(r.min_dist2(&[3.0, 3.0]), 2.0); // corner
        assert_eq!(r.min_dist2(&[-2.0, 1.0]), 4.0); // left face
    }

    #[test]
    fn geom_matches_rect_methods_on_exact_values() {
        // Small integers are exact in both f32 and f64, so the f32 arena
        // geometry must agree with the f64 Rect reference bit for bit.
        let (alo, ahi) = ([0.0f32, -1.0], [2.0f32, 3.0]);
        let (blo, bhi) = ([1.0f32, 0.0], [4.0f32, 1.0]);
        let a = Rect::new(&[0.0, -1.0], &[2.0, 3.0]);
        let b = Rect::new(&[1.0, 0.0], &[4.0, 1.0]);
        assert_eq!(geom::area(&alo, &ahi), a.area());
        assert_eq!(geom::margin(&alo, &ahi), a.margin());
        assert_eq!(
            geom::overlap_area(&alo, &ahi, &blo, &bhi),
            a.overlap_area(&b)
        );
        assert_eq!(geom::union_area(&alo, &ahi, &blo, &bhi), a.union(&b).area());
        assert_eq!(geom::enlargement(&alo, &ahi, &blo, &bhi), a.enlargement(&b));
        let (olo, ohi) = ([3.0f32, -2.0], [5.0f32, 4.0]);
        let o = Rect::new(&[3.0, -2.0], &[5.0, 4.0]);
        assert_eq!(
            geom::overlap_area_of_union(&alo, &ahi, &blo, &bhi, &olo, &ohi),
            a.union(&b).overlap_area(&o)
        );
        assert_eq!(
            geom::center_dist2(&alo, &ahi, &blo, &bhi),
            a.center_dist2(&b)
        );
    }

    #[test]
    fn mixed_precision_window_predicates() {
        let wlo = [0.0f64, 0.0];
        let whi = [2.0f64, 2.0];
        assert!(geom::window_contains_point(&wlo, &whi, &[1.0f32, 2.0]));
        assert!(!geom::window_contains_point(&wlo, &whi, &[1.0f32, 2.1]));
        assert!(geom::window_intersects(
            &wlo,
            &whi,
            &[2.0f32, 0.0],
            &[3.0f32, 1.0]
        ));
        assert!(!geom::window_intersects(
            &wlo,
            &whi,
            &[2.5f32, 0.0],
            &[3.0f32, 1.0]
        ));
        assert_eq!(
            geom::min_dist2(&[0.0f32, 0.0], &[2.0f32, 2.0], &[3.0, 3.0]),
            2.0
        );
        assert_eq!(
            geom::min_dist2(&[0.0f32, 0.0], &[2.0f32, 2.0], &[1.0, 1.0]),
            0.0
        );
    }

    // The construction contract is debug-checked only (see the type-level
    // docs): these panics exist in test/debug profiles, not in release.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_panics_in_debug() {
        Rect::new(&[1.0], &[0.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_point_panics_in_debug() {
        Rect::point(&[f64::NAN]);
    }
}
