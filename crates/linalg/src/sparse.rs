//! Sparse vectors and CSR matrices for featurized data.

use crate::block::merge_pairs_into;
use crate::{shape_err, DenseMatrix, ShapeError};
use rayon::prelude::*;

/// A sparse vector with sorted, unique indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Creates an empty sparse vector of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a sparse vector from unsorted (index, value) pairs.
    ///
    /// Duplicate indices are summed (as in feature hashing, where distinct
    /// n-grams may collide into the same bucket). Zero values are dropped.
    pub fn from_pairs(dim: usize, mut pairs: Vec<(u32, f64)>) -> Result<Self, ShapeError> {
        let mut indices: Vec<u32> = Vec::with_capacity(pairs.len());
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        merge_pairs_into(&mut pairs, dim, &mut indices, &mut values)?;
        Ok(Self {
            dim,
            indices,
            values,
        })
    }

    /// Dimensionality of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Sorted indices of the non-zero entries.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Values of the non-zero entries, parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Appends an entry whose index must be strictly greater than the last.
    ///
    /// Used by encoders that emit features in increasing index order.
    pub fn push(&mut self, index: u32, value: f64) {
        debug_assert!((index as usize) < self.dim);
        debug_assert!(self.indices.last().is_none_or(|&last| last < index));
        if value != 0.0 {
            self.indices.push(index);
            self.values.push(value);
        }
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }
}

/// Compressed sparse row matrix.
///
/// Feature pipelines produce one [`SparseVec`] per tuple; stacking them yields
/// a `CsrMatrix` that classifiers consume. Row offsets (`indptr`) follow the
/// usual CSR convention: row `r` occupies `indices[indptr[r]..indptr[r+1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix by stacking sparse rows of equal dimensionality.
    pub fn from_sparse_rows(rows: &[SparseVec]) -> Result<Self, ShapeError> {
        let cols = rows.first().map_or(0, SparseVec::dim);
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0usize);
        let nnz: usize = rows.iter().map(SparseVec::nnz).sum();
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for (r, row) in rows.iter().enumerate() {
            if row.dim() != cols {
                return Err(shape_err(format!(
                    "row {} has dim {}, expected {}",
                    r,
                    row.dim(),
                    cols
                )));
            }
            indices.extend_from_slice(row.indices());
            values.extend_from_slice(row.values());
            indptr.push(indices.len());
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from a dense row-major matrix, dropping zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut indptr = Vec::with_capacity(dense.rows() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in dense.row_iter() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Sorted column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Iterator over `(indices, values)` row views.
    pub fn row_iter(&self) -> impl Iterator<Item = (&[u32], &[f64])> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Sparse × dense product: `self (n×d) * dense (d×k) -> n×k`.
    ///
    /// Parallelized over output rows; this is the hot path of every
    /// classifier's forward pass.
    pub fn matmul_dense(&self, dense: &DenseMatrix) -> Result<DenseMatrix, ShapeError> {
        if self.cols != dense.rows() {
            return Err(shape_err(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows,
                self.cols,
                dense.rows(),
                dense.cols()
            )));
        }
        let k = dense.cols();
        let mut out = DenseMatrix::zeros(self.rows, k);
        out.data_mut()
            .par_chunks_mut(k.max(1))
            .enumerate()
            .for_each(|(r, out_row)| {
                let (idx, vals) = self.row(r);
                for (&col, &v) in idx.iter().zip(vals) {
                    let w_row = dense.row(col as usize);
                    for (o, &w) in out_row.iter_mut().zip(w_row) {
                        *o += v * w;
                    }
                }
            });
        Ok(out)
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                out.set(r, c as usize, v);
            }
        }
        out
    }

    /// Returns a new matrix containing the selected rows, in order.
    pub fn select_rows(&self, selection: &[usize]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(selection.len() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in selection {
            let (idx, vals) = self.row(r);
            indices.extend_from_slice(idx);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: selection.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }
}

/// Incremental row-major CSR constructor.
///
/// The allocation-free counterpart of collecting `SparseVec`s and calling
/// [`CsrMatrix::from_sparse_rows`]: rows are appended straight into the
/// final index/value arrays from a caller-owned scratch pair buffer, so a
/// transform loop performs no per-row allocations (the scratch buffer's
/// capacity — pre-sized by the previous row's nnz — is retained across
/// rows).
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Starts a builder for matrices with `cols` columns.
    pub fn new(cols: usize) -> Self {
        Self::with_capacity(cols, 0, 0)
    }

    /// Starts a builder with row/nnz capacity reserved up front.
    pub fn with_capacity(cols: usize, rows: usize, nnz: usize) -> Self {
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        Self {
            cols,
            indptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends one row from unsorted `(column, value)` pairs, with the
    /// merge semantics of [`SparseVec::from_pairs`] (duplicates summed,
    /// zeros dropped, out-of-bounds rejected). `pairs` is cleared on
    /// success so it can be reused as the next row's scratch buffer.
    pub fn push_row_pairs(&mut self, pairs: &mut Vec<(u32, f64)>) -> Result<(), ShapeError> {
        merge_pairs_into(pairs, self.cols, &mut self.indices, &mut self.values)?;
        self.indptr.push(self.indices.len());
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Finalizes the matrix.
    pub fn finish(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.indptr.len() - 1,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(dim: usize, pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(dim, pairs.to_vec()).unwrap()
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = sv(10, &[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 4.0]);
    }

    #[test]
    fn from_pairs_drops_cancelled_entries() {
        let v = sv(4, &[(1, 1.0), (1, -1.0), (2, 2.0)]);
        assert_eq!(v.indices(), &[2]);
    }

    #[test]
    fn from_pairs_rejects_out_of_bounds() {
        assert!(SparseVec::from_pairs(3, vec![(3, 1.0)]).is_err());
    }

    #[test]
    fn to_dense_round_trip() {
        let v = sv(3, &[(1, 5.0)]);
        assert_eq!(v.to_dense(), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn csr_from_rows_and_back() {
        let rows = vec![sv(3, &[(0, 1.0)]), sv(3, &[(1, 2.0), (2, 3.0)])];
        let m = CsrMatrix::from_sparse_rows(&rows).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 3);
        let d = m.to_dense();
        assert_eq!(d.data(), &[1.0, 0.0, 0.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    fn csr_rejects_mismatched_row_dims() {
        let rows = vec![sv(3, &[]), sv(4, &[])];
        assert!(CsrMatrix::from_sparse_rows(&rows).is_err());
    }

    #[test]
    fn csr_matmul_dense_matches_dense_matmul() {
        let rows = vec![sv(3, &[(0, 1.0), (2, 2.0)]), sv(3, &[(1, 3.0)])];
        let m = CsrMatrix::from_sparse_rows(&rows).unwrap();
        let w = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let got = m.matmul_dense(&w).unwrap();
        let expected = m.to_dense().matmul(&w).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn csr_matmul_rejects_bad_shapes() {
        let m = CsrMatrix::from_sparse_rows(&[sv(3, &[])]).unwrap();
        assert!(m.matmul_dense(&DenseMatrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn csr_from_dense_drops_zeros() {
        let d = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]).unwrap();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn csr_select_rows_reorders() {
        let rows = vec![sv(2, &[(0, 1.0)]), sv(2, &[(1, 2.0)])];
        let m = CsrMatrix::from_sparse_rows(&rows).unwrap();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0).0, &[1]);
        assert_eq!(s.row(1).0, &[0]);
    }

    #[test]
    fn csr_builder_matches_from_sparse_rows() {
        let row_pairs: [&[(u32, f64)]; 3] = [&[(2, 1.0), (0, 2.0)], &[], &[(1, 3.0), (1, 4.0)]];
        let rows: Vec<SparseVec> = row_pairs.iter().map(|p| sv(3, p)).collect();
        let expected = CsrMatrix::from_sparse_rows(&rows).unwrap();
        let mut b = CsrBuilder::with_capacity(3, 3, 4);
        let mut scratch = Vec::new();
        for p in row_pairs {
            scratch.extend_from_slice(p);
            b.push_row_pairs(&mut scratch).unwrap();
            assert!(scratch.is_empty());
        }
        assert_eq!(b.rows(), 3);
        assert_eq!(b.finish(), expected);
    }

    #[test]
    fn csr_builder_rejects_out_of_bounds_without_corrupting_state() {
        let mut b = CsrBuilder::new(2);
        let mut scratch = vec![(1, 1.0)];
        b.push_row_pairs(&mut scratch).unwrap();
        scratch.extend([(0, 1.0), (5, 1.0)]);
        assert!(b.push_row_pairs(&mut scratch).is_err());
        let m = {
            scratch.clear();
            scratch.push((0, 2.0));
            b.push_row_pairs(&mut scratch).unwrap();
            b.finish()
        };
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), (&[1u32][..], &[1.0][..]));
        assert_eq!(m.row(1), (&[0u32][..], &[2.0][..]));
    }
}
