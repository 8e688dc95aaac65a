//! CSR matrices for featurized data.

use crate::{shape_err, DenseMatrix, ShapeError};
use rayon::prelude::*;

/// Compressed sparse row matrix.
///
/// Feature pipelines append one row per tuple to a [`CsrBuilder`], whose
/// `finish` yields the `CsrMatrix` that classifiers consume. Row offsets
/// (`indptr`) follow the usual CSR convention: row `r` occupies
/// `indices[indptr[r]..indptr[r+1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
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

/// Incremental row-major CSR constructor, the one way to build a
/// [`CsrMatrix`] from `(column, value)` pairs.
///
/// Rows are appended straight into the final index/value arrays from a
/// caller-owned scratch pair buffer, so a transform loop performs no
/// per-row allocations (the scratch buffer's capacity — pre-sized by the
/// previous row's nnz — is retained across rows).
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

    /// Appends one row from unsorted `(column, value)` pairs: pairs are
    /// sorted by column, duplicates summed (as in feature hashing, where
    /// distinct n-grams may collide into the same bucket) and zeros
    /// dropped. An out-of-bounds column rejects the row and leaves the
    /// builder as it was. `pairs` is cleared on success so it can be
    /// reused as the next row's scratch buffer.
    pub fn push_row_pairs(&mut self, pairs: &mut Vec<(u32, f64)>) -> Result<(), ShapeError> {
        let (indices, values) = (&mut self.indices, &mut self.values);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let start = indices.len();
        for &(i, v) in pairs.iter() {
            if i as usize >= self.cols {
                indices.truncate(start);
                values.truncate(start);
                return Err(shape_err(format!(
                    "index {i} out of bounds for dim {}",
                    self.cols
                )));
            }
            if indices.len() > start && indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += v;
                continue;
            }
            indices.push(i);
            values.push(v);
        }
        // Collisions may cancel out exactly; compact away resulting zeros.
        if values[start..].contains(&0.0) {
            let mut write = start;
            for read in start..indices.len() {
                if values[read] != 0.0 {
                    indices[write] = indices[read];
                    values[write] = values[read];
                    write += 1;
                }
            }
            indices.truncate(write);
            values.truncate(write);
        }
        pairs.clear();
        self.indptr.push(indices.len());
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

    /// Builds a `cols`-column matrix, one row per pair list.
    fn csr(cols: usize, rows: &[&[(u32, f64)]]) -> CsrMatrix {
        let mut b = CsrBuilder::new(cols);
        for pairs in rows {
            b.push_row_pairs(&mut pairs.to_vec()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn push_row_pairs_sorts_and_merges_duplicates() {
        let m = csr(10, &[&[(5, 1.0), (2, 2.0), (5, 3.0)]]);
        assert_eq!(m.row(0), (&[2u32, 5][..], &[2.0, 4.0][..]));
    }

    #[test]
    fn push_row_pairs_drops_cancelled_entries() {
        let m = csr(4, &[&[(1, 1.0), (1, -1.0), (2, 2.0)]]);
        assert_eq!(m.row(0), (&[2u32][..], &[2.0][..]));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn builder_stacks_rows_including_empty_ones() {
        let mut b = CsrBuilder::with_capacity(3, 3, 4);
        let mut scratch = Vec::new();
        let row_pairs: [&[(u32, f64)]; 3] = [&[(2, 1.0), (0, 2.0)], &[], &[(1, 3.0), (1, 4.0)]];
        for p in row_pairs {
            scratch.extend_from_slice(p);
            b.push_row_pairs(&mut scratch).unwrap();
            assert!(scratch.is_empty());
        }
        assert_eq!(b.rows(), 3);
        let m = b.finish();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 3, 3));
        assert_eq!(m.row(0), (&[0u32, 2][..], &[2.0, 1.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row(2), (&[1u32][..], &[7.0][..]));
    }

    #[test]
    fn builder_rejects_out_of_bounds_without_corrupting_state() {
        let mut b = CsrBuilder::new(2);
        let mut scratch = vec![(1, 1.0)];
        b.push_row_pairs(&mut scratch).unwrap();
        scratch.extend([(0, 1.0), (5, 1.0)]);
        assert!(b.push_row_pairs(&mut scratch).is_err());
        assert_eq!(b.rows(), 1);
        let m = {
            scratch.clear();
            scratch.push((0, 2.0));
            b.push_row_pairs(&mut scratch).unwrap();
            b.finish()
        };
        assert_eq!(m.rows(), 2);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0), (&[1u32][..], &[1.0][..]));
        assert_eq!(m.row(1), (&[0u32][..], &[2.0][..]));
    }

    #[test]
    fn csr_matmul_dense_matches_dense_matmul() {
        let m = csr(3, &[&[(0, 1.0), (2, 2.0)], &[(1, 3.0)]]);
        let dense = DenseMatrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]).unwrap();
        let w = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let got = m.matmul_dense(&w).unwrap();
        assert_eq!(got, dense.matmul(&w).unwrap());
    }

    #[test]
    fn csr_matmul_rejects_bad_shapes() {
        let m = csr(3, &[&[]]);
        assert!(m.matmul_dense(&DenseMatrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn csr_from_dense_drops_zeros() {
        let d = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]).unwrap();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m, csr(2, &[&[(1, 1.0)], &[(0, 2.0)]]));
    }

    #[test]
    fn csr_select_rows_reorders() {
        let m = csr(2, &[&[(0, 1.0)], &[(1, 2.0)]]);
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0).0, &[1]);
        assert_eq!(s.row(1).0, &[0]);
    }
}
