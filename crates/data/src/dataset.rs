//! Flat row-major point matrix plus distance kernels.

use crate::error::DbLshError;

/// A dataset of `n` points in `d`-dimensional Euclidean space, stored as a
/// contiguous row-major `f32` matrix (the layout of fvecs files and of
/// every ANN benchmark suite).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
}

impl Dataset {
    /// Wrap an existing flat buffer. `data.len()` must be a multiple of
    /// `dim` (or empty), and every coordinate must be finite.
    pub fn try_from_flat(dim: usize, data: Vec<f32>) -> Result<Self, DbLshError> {
        if dim == 0 {
            return Err(DbLshError::invalid("dim", "must be at least 1"));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(DbLshError::invalid(
                "data",
                format!(
                    "flat buffer length {} is not a multiple of dim {}",
                    data.len(),
                    dim
                ),
            ));
        }
        if !data.iter().all(|v| v.is_finite()) {
            return Err(DbLshError::NonFiniteCoordinate);
        }
        Ok(Dataset { dim, data })
    }

    /// Panicking convenience form of [`Dataset::try_from_flat`], for tests
    /// and generators whose inputs are correct by construction.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        match Dataset::try_from_flat(dim, data) {
            Ok(d) => d,
            Err(DbLshError::NonFiniteCoordinate) => panic!("non-finite coordinate rejected"), // lint: allow(panic-free-surface) — the panic is this convenience form's documented contract; try_from_flat is the fallible twin
            Err(DbLshError::InvalidParameter { reason, .. }) => {
                panic!("{reason}") // lint: allow(panic-free-surface) — documented panicking contract; try_from_flat is the fallible twin
            }
            Err(e) => panic!("{e}"), // lint: allow(panic-free-surface) — documented panicking contract; try_from_flat is the fallible twin
        }
    }

    /// Build from individual rows. All rows must share one length, and at
    /// least one row is required (use [`Dataset::empty`] otherwise — a
    /// zero-row set carries no dimensionality).
    pub fn try_from_rows(rows: &[Vec<f32>]) -> Result<Self, DbLshError> {
        let Some(first) = rows.first() else {
            return Err(DbLshError::EmptyDataset);
        };
        let dim = first.len();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            if r.len() != dim {
                return Err(DbLshError::DimensionMismatch {
                    expected: dim,
                    got: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Dataset::try_from_flat(dim, data)
    }

    /// Panicking convenience form of [`Dataset::try_from_rows`] (mainly
    /// for tests and examples).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        match Dataset::try_from_rows(rows) {
            Ok(d) => d,
            Err(DbLshError::EmptyDataset) => {
                panic!("empty row set; use from_flat for empty") // lint: allow(panic-free-surface) — documented panicking contract; try_from_rows is the fallible twin
            }
            Err(DbLshError::DimensionMismatch { .. }) => panic!("ragged rows"), // lint: allow(panic-free-surface) — documented panicking contract; try_from_rows is the fallible twin
            Err(DbLshError::NonFiniteCoordinate) => panic!("non-finite coordinate rejected"), // lint: allow(panic-free-surface) — documented panicking contract; try_from_rows is the fallible twin
            Err(e) => panic!("{e}"), // lint: allow(panic-free-surface) — documented panicking contract; try_from_rows is the fallible twin
        }
    }

    /// Empty dataset of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        Dataset::from_flat(dim, Vec::new())
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole flat buffer.
    #[inline]
    pub fn flat(&self) -> &[f32] {
        &self.data
    }

    /// Append one point, validating dimensionality and finiteness.
    pub fn try_push(&mut self, point: &[f32]) -> Result<(), DbLshError> {
        if point.len() != self.dim {
            return Err(DbLshError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        if !point.iter().all(|v| v.is_finite()) {
            return Err(DbLshError::NonFiniteCoordinate);
        }
        self.data.extend_from_slice(point);
        Ok(())
    }

    /// Panicking convenience form of [`Dataset::try_push`].
    pub fn push(&mut self, point: &[f32]) {
        match self.try_push(point) {
            Ok(()) => {}
            Err(DbLshError::DimensionMismatch { .. }) => panic!("dimensionality mismatch"), // lint: allow(panic-free-surface) — documented panicking contract; try_push is the fallible twin
            Err(DbLshError::NonFiniteCoordinate) => panic!("non-finite coordinate rejected"), // lint: allow(panic-free-surface) — documented panicking contract; try_push is the fallible twin
            Err(e) => panic!("{e}"), // lint: allow(panic-free-surface) — documented panicking contract; try_push is the fallible twin
        }
    }

    /// A copy of this dataset holding the rows `order` names, in that
    /// order: row `i` of the result is row `order[i]` of `self`. Values
    /// are copied from an already-validated dataset, so no finiteness
    /// re-check is paid.
    ///
    /// With a permutation this is the data-layout half of locality-aware
    /// id relabeling: the DB-LSH core computes a locality-preserving
    /// permutation of its points at bulk build and reorders the backing
    /// rows so that candidate verification reads near-sequential memory.
    /// With a subset it is compaction, which keeps only the live rows.
    ///
    /// # Contract
    /// (debug-checked) `order` holds distinct row indexes of `self`.
    pub fn reordered(&self, order: &[u32]) -> Dataset {
        debug_assert!(
            {
                let mut seen = vec![false; self.len()];
                order.iter().all(|&r| {
                    (r as usize) < seen.len() && !std::mem::replace(&mut seen[r as usize], true)
                })
            },
            "order does not hold distinct row indexes"
        );
        let dim = self.dim;
        let mut data = Vec::with_capacity(order.len() * dim);
        for &r in order {
            data.extend_from_slice(self.point(r as usize));
        }
        Dataset { dim, data }
    }

    /// Squared distances from `q` to the rows `ids`, written into
    /// `out[j]` for `ids[j]` — the fused verification kernel
    /// ([`crate::kernels::sq_dist_block`]) over this dataset's flat
    /// buffer. Per-row results are bit-identical to [`sq_dist`].
    ///
    /// # Contract
    /// (debug-checked) `q.len() == self.dim()`, `out.len() == ids.len()`,
    /// every id is a valid row.
    #[inline]
    pub fn sq_dists(&self, q: &[f32], ids: &[u32], out: &mut [f32]) {
        crate::kernels::sq_dist_block(q, &self.data, self.dim, ids, out);
    }

    /// Remove the rows in `sorted_rows` (ascending, unique) and return them
    /// as a new dataset — how the paper carves queries out of each corpus
    /// ("we randomly select 100 points as queries and remove them from the
    /// datasets").
    pub fn extract_rows(&mut self, sorted_rows: &[usize]) -> Dataset {
        let mut extracted = Vec::with_capacity(sorted_rows.len() * self.dim);
        for w in sorted_rows.windows(2) {
            assert!(w[0] < w[1], "rows must be ascending and unique");
        }
        for &r in sorted_rows {
            assert!(r < self.len(), "row {r} out of bounds");
            extracted.extend_from_slice(self.point(r));
        }
        // compact in one pass, skipping extracted rows
        let dim = self.dim;
        let mut keep = Vec::with_capacity(self.data.len() - extracted.len());
        let mut it = sorted_rows.iter().peekable();
        for row in 0..self.len() {
            if it.peek() == Some(&&row) {
                it.next();
            } else {
                keep.extend_from_slice(&self.data[row * dim..(row + 1) * dim]);
            }
        }
        self.data = keep;
        Dataset::from_flat(dim, extracted)
    }
}

/// Squared Euclidean distance with 4-way unrolling; the single hottest
/// kernel in every verification loop, so it avoids bounds checks via
/// exact-chunk iteration.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = a.len() / 4;
    let (a4, a_rest) = a.split_at(chunks * 4);
    let (b4, b_rest) = b.split_at(chunks * 4);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    for (x, y) in a_rest.iter().zip(b_rest) {
        let d = x - y;
        acc0 += d * d;
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_accessors() {
        let d = Dataset::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.point(1), &[3.0, 4.0]);
        assert_eq!(d.flat().len(), 6);
    }

    #[test]
    fn push_extends() {
        let mut d = Dataset::empty(3);
        assert!(d.is_empty());
        d.push(&[1.0, 2.0, 3.0]);
        d.push(&[4.0, 5.0, 6.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn extract_rows_splits_dataset() {
        let mut d = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let q = d.extract_rows(&[1, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.point(0), &[1.0]);
        assert_eq!(q.point(1), &[3.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.point(0), &[0.0]);
        assert_eq!(d.point(1), &[2.0]);
        assert_eq!(d.point(2), &[4.0]);
    }

    #[test]
    fn sq_dist_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.3).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32 * 0.7).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((sq_dist(&a, &b) - naive).abs() < 1e-3);
        assert_eq!(sq_dist(&a, &a), 0.0);
        assert!((dist(&a, &b) - naive.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn sq_dist_various_lengths() {
        for len in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            let a = vec![1.0f32; len];
            let b = vec![3.0f32; len];
            assert_eq!(sq_dist(&a, &b), 4.0 * len as f32, "len={len}");
        }
    }

    #[test]
    fn reordered_permutes_rows() {
        let d = Dataset::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]]);
        let r = d.reordered(&[2, 0, 1]);
        assert_eq!(r.point(0), &[4.0, 5.0]);
        assert_eq!(r.point(1), &[0.0, 1.0]);
        assert_eq!(r.point(2), &[2.0, 3.0]);
        assert_eq!(r.len(), 3);
        // a subset keeps just the named rows
        let kept = d.reordered(&[0, 2]);
        assert_eq!(kept.flat(), &[0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn sq_dists_matches_scalar() {
        let d = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 2.0], vec![3.0, 4.0]]);
        let q = [1.0f32, 1.0];
        let ids = [2u32, 0, 1];
        let mut out = [0.0f32; 3];
        d.sq_dists(&q, &ids, &mut out);
        for (j, &id) in ids.iter().enumerate() {
            assert_eq!(out[j], sq_dist(&q, d.point(id as usize)));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bad_flat_length_panics() {
        Dataset::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Dataset::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Dataset::from_flat(1, vec![f32::NAN]);
    }
}
