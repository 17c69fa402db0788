//! Coordinate resolution for id-only trees.
//!
//! The flat-layout [`crate::RStarTree`] stores **no point coordinates**:
//! leaf entries are bare `u32` ids, and every operation that needs the
//! actual position of a point resolves it through a [`CoordSource`]. This
//! is what lets one contiguous projection matrix (the `ProjStore` of
//! `dblsh-core`) back all `L` trees without a single per-entry heap
//! allocation, and what makes leaf scans cache-linear: a leaf is a run of
//! ids whose coordinates live `stride` apart in one flat buffer.
//!
//! Two ready-made sources are provided:
//!
//! * [`StridedCoords`] — a borrowed view over a row-major matrix, with an
//!   optional column offset (how a per-tree `K`-wide column window of an
//!   `n x (L*K)` projection store is expressed);
//! * [`OwnedCoords`] — an owning flat buffer, convenient for tests and
//!   standalone tree users.
//!
//! Coordinates are `f32`: the datasets this workspace indexes are `f32`
//! to begin with, so storing projections at the same precision halves
//! the memory traffic of every leaf scan without losing information the
//! input ever had. Distances are computed in `f64` over values cast up
//! from the store; window membership is decided in `f32` itself, against
//! the query window rounded inward to `f32` — which selects exactly the
//! points the `f64` comparison would (see the crate docs).

/// Resolves point ids to coordinate slices.
///
/// # Contract
///
/// For as long as an id is present in a tree backed by this source,
/// `coords(id)` must keep returning the *same* finite values of length
/// [`CoordSource::dim`]. The tree caches bounding boxes derived from
/// these coordinates; a source that mutates a live id's coordinates (or
/// shrinks below an id still stored) leaves the tree internally
/// inconsistent. Violations are caught by `debug_assert!`s and
/// [`crate::RStarTree::check_invariants`], never by release-mode checks.
pub trait CoordSource {
    /// Coordinate dimensionality of every point.
    fn dim(&self) -> usize;

    /// Coordinates of point `id`, of length [`CoordSource::dim`].
    fn coords(&self, id: u32) -> &[f32];
}

impl<S: CoordSource + ?Sized> CoordSource for &S {
    #[inline]
    fn dim(&self) -> usize {
        (**self).dim()
    }

    #[inline]
    fn coords(&self, id: u32) -> &[f32] {
        (**self).coords(id)
    }
}

/// A borrowed [`CoordSource`] over a row-major `f32` matrix: point `id`
/// occupies columns `offset .. offset + dim` of row `id`, rows are
/// `stride` values wide.
///
/// With `offset = i * k, stride = l * k` this is exactly the `i`-th
/// tree's column window into an `n x (L*K)` projection store; with
/// `offset = 0, stride = dim` (see [`StridedCoords::flat`]) it is a plain
/// dense matrix.
#[derive(Debug, Clone, Copy)]
pub struct StridedCoords<'a> {
    data: &'a [f32],
    stride: usize,
    offset: usize,
    dim: usize,
}

impl<'a> StridedCoords<'a> {
    /// View over `data` with explicit geometry.
    ///
    /// # Contract
    /// `dim >= 1`, `offset + dim <= stride`, and `data.len()` is a
    /// multiple of `stride` (checked in debug builds).
    pub fn new(data: &'a [f32], stride: usize, offset: usize, dim: usize) -> Self {
        debug_assert!(dim >= 1, "zero-dimensional coordinate view");
        debug_assert!(
            offset + dim <= stride,
            "column window [{offset}, {}) exceeds row stride {stride}",
            offset + dim
        );
        debug_assert_eq!(
            data.len() % stride,
            0,
            "buffer length {} is not a whole number of {stride}-wide rows",
            data.len()
        );
        StridedCoords {
            data,
            stride,
            offset,
            dim,
        }
    }

    /// Dense view: rows are exactly `dim` wide with no offset.
    pub fn flat(dim: usize, data: &'a [f32]) -> Self {
        StridedCoords::new(data, dim, 0, dim)
    }

    /// Number of addressable points (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.stride
    }

    /// True if the view addresses no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl CoordSource for StridedCoords<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn coords(&self, id: u32) -> &[f32] {
        let start = id as usize * self.stride + self.offset;
        &self.data[start..start + self.dim]
    }
}

/// An owning flat [`CoordSource`]: ids are dense row indexes in insertion
/// order. The simplest way to drive a standalone [`crate::RStarTree`].
#[derive(Debug, Clone, Default)]
pub struct OwnedCoords {
    dim: usize,
    data: Vec<f32>,
}

impl OwnedCoords {
    /// Empty source of dimensionality `dim >= 1`.
    pub fn new(dim: usize) -> Self {
        debug_assert!(dim >= 1, "zero-dimensional coordinate store");
        OwnedCoords {
            dim,
            data: Vec::new(),
        }
    }

    /// Source over an existing row-major buffer
    /// (`data.len()` must be a multiple of `dim`; debug-checked).
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        debug_assert!(dim >= 1, "zero-dimensional coordinate store");
        debug_assert_eq!(data.len() % dim, 0, "flat buffer length mismatch");
        OwnedCoords { dim, data }
    }

    /// Append one point, returning its id (the dense row index).
    pub fn push(&mut self, coords: &[f32]) -> u32 {
        debug_assert_eq!(coords.len(), self.dim, "coordinate dimensionality mismatch");
        let id = self.len() as u32;
        self.data.extend_from_slice(coords);
        id
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing row-major buffer.
    #[inline]
    pub fn flat(&self) -> &[f32] {
        &self.data
    }
}

impl CoordSource for OwnedCoords {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn coords(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_coords_roundtrip() {
        let mut s = OwnedCoords::new(3);
        assert!(s.is_empty());
        assert_eq!(s.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(s.push(&[-1.0, 0.0, 4.5]), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.coords(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.coords(1), &[-1.0, 0.0, 4.5]);
    }

    #[test]
    fn strided_column_window() {
        // 2 rows of stride 6, two 3-wide column windows
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let left = StridedCoords::new(&data, 6, 0, 3);
        let right = StridedCoords::new(&data, 6, 3, 3);
        assert_eq!(left.len(), 2);
        assert_eq!(left.coords(0), &[0.0, 1.0, 2.0]);
        assert_eq!(right.coords(0), &[3.0, 4.0, 5.0]);
        assert_eq!(left.coords(1), &[6.0, 7.0, 8.0]);
        assert_eq!(right.coords(1), &[9.0, 10.0, 11.0]);
    }

    #[test]
    fn flat_view_matches_owned() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let v = StridedCoords::flat(2, &data);
        let o = OwnedCoords::from_flat(2, data.clone());
        assert_eq!(v.len(), o.len());
        for id in 0..2 {
            assert_eq!(v.coords(id), o.coords(id));
        }
    }

    #[test]
    fn references_delegate() {
        let o = OwnedCoords::from_flat(2, vec![5.0, 6.0]);
        let r: &OwnedCoords = &o;
        assert_eq!(CoordSource::dim(&r), 2);
        assert_eq!(CoordSource::coords(&r, 0), &[5.0, 6.0]);
    }
}
