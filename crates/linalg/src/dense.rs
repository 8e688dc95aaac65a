//! Row-major dense matrix.

use crate::{shape_err, ShapeError};
use rayon::prelude::*;

/// Output-width cutover between [`DenseMatrix::matmul`]'s two
/// bit-identical kernels. Wide outputs vectorize the streaming kernel's
/// inner loop across output columns (and its zero-skip rides ReLU
/// sparsity in the lhs); at or below this width that loop is too narrow
/// to vectorize, and the transpose-packed kernel's branch-free dot
/// products over contiguous panels win instead.
const PACKED_MATMUL_MAX_COLS: usize = 16;

/// A row-major dense matrix of `f64` values.
///
/// This is the exchange type for model outputs across the workspace: a batch
/// of class-probability predictions is an `n × m` dense matrix whose rows sum
/// to one.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(shape_err(format!(
                "buffer of length {} cannot form a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, ShapeError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(shape_err(format!(
                    "row {} has length {}, expected {}",
                    i,
                    r.len(),
                    cols
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `c` into a new vector.
    pub fn column(&self, c: usize) -> Vec<f64> {
        self.column_iter(c).collect()
    }

    /// Iterator over the values of column `c`, without materializing them.
    #[inline]
    pub fn column_iter(&self, c: usize) -> impl Iterator<Item = f64> + '_ {
        debug_assert!(c < self.cols || self.rows == 0);
        (0..self.rows).map(move |r| self.get(r, c))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Dense matrix multiplication `self * other`, parallelized over rows.
    ///
    /// Two kernels, dispatched on output width (the private
    /// `PACKED_MATMUL_MAX_COLS` sets the cutover): a *streaming* kernel
    /// that makes one pass over `k` per row, vectorizing across output
    /// columns and skipping zero entries of `self` (ReLU activations make
    /// `self` sparse in practice), and — for narrow outputs, where that inner
    /// loop cannot vectorize — a *packed* kernel that transposes `other`
    /// once and accumulates four branch-free dot products over contiguous
    /// panels per pass. Every output cell is the `k`-ascending sum over
    /// the row either way, so the kernels agree bit for bit and the
    /// dispatch is purely a performance choice.
    ///
    /// **Contract:** `other` must be finite. The streaming kernel's skip
    /// of `a == 0.0` drops IEEE propagation of NaN/∞ *from `other`*
    /// through zero entries of `self` (`0 · NaN` is NaN, but the skip
    /// never multiplies), so a poisoned `other` may go partially
    /// unnoticed — and the packed kernel relies on the same contract for
    /// its skipless sums to match (`x + 0·b = x` requires finite `b`).
    /// Non-finite entries of `self` still propagate normally into every
    /// output column they touch. Debug builds assert the contract;
    /// release builds skip the check on the hot path.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix, ShapeError> {
        if self.cols != other.rows {
            return Err(shape_err(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        debug_assert!(
            other.data.iter().all(|v| v.is_finite()),
            "matmul rhs must be finite: the zero-skip fast path cannot \
             propagate NaN/inf through zero entries of the lhs"
        );
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        let oc = other.cols;
        // Both kernels accumulate each output cell as the k-ascending
        // sum over the lhs row, so the dispatch is purely a performance
        // choice (see PACKED_MATMUL_MAX_COLS): narrow outputs — MLP
        // heads, binary-class logits — take the packed kernel, wide ones
        // the streaming kernel.
        if oc <= PACKED_MATMUL_MAX_COLS {
            let packed = other.transpose();
            out.data
                .par_chunks_mut(oc.max(1))
                .zip(self.data.par_chunks(self.cols.max(1)))
                .for_each(|(out_row, a_row)| {
                    // No zero-skip here: with a finite rhs, adding the
                    // `±0.0` products of skipped entries cannot change any
                    // sum (the accumulator never goes negative-zero), so
                    // this branch-free loop is bit-identical to the
                    // streaming kernel — and it vectorizes.
                    let mut j = 0;
                    while j + 4 <= oc {
                        let b0 = packed.row(j);
                        let b1 = packed.row(j + 1);
                        let b2 = packed.row(j + 2);
                        let b3 = packed.row(j + 3);
                        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                        for (k, &a) in a_row.iter().enumerate() {
                            s0 += a * b0[k];
                            s1 += a * b1[k];
                            s2 += a * b2[k];
                            s3 += a * b3[k];
                        }
                        out_row[j] = s0;
                        out_row[j + 1] = s1;
                        out_row[j + 2] = s2;
                        out_row[j + 3] = s3;
                        j += 4;
                    }
                    while j < oc {
                        let bj = packed.row(j);
                        let mut s = 0.0;
                        for (k, &a) in a_row.iter().enumerate() {
                            s += a * bj[k];
                        }
                        out_row[j] = s;
                        j += 1;
                    }
                });
        } else {
            out.data
                .par_chunks_mut(oc.max(1))
                .zip(self.data.par_chunks(self.cols.max(1)))
                .for_each(|(out_row, a_row)| {
                    for (k, &a) in a_row.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let b_row = &other.data[k * oc..(k + 1) * oc];
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                });
        }
        Ok(out)
    }

    /// Element-wise addition of a row vector (broadcast over rows).
    pub fn add_row_vector(&mut self, bias: &[f64]) -> Result<(), ShapeError> {
        if bias.len() != self.cols {
            return Err(shape_err(format!(
                "bias of length {} does not match {} columns",
                bias.len(),
                self.cols
            )));
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        self.data.par_iter_mut().for_each(|v| *v = f(*v));
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Element-wise `self += s * other`.
    pub fn axpy(&mut self, s: f64, other: &DenseMatrix) -> Result<(), ShapeError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(shape_err("axpy shape mismatch"));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// Returns the per-row index of the maximum value (ties broken towards
    /// the lower index), i.e. the predicted class for a probability matrix.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.row_iter().map(crate::ops::argmax).collect()
    }

    /// Builds a new matrix containing only the selected rows.
    pub fn select_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        DenseMatrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    /// The documented matmul contract: non-finite rhs entries are a caller
    /// bug, rejected up front in debug builds — the zero-skip fast path
    /// cannot propagate them through zero lhs entries.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "matmul rhs must be finite")]
    fn matmul_rejects_non_finite_rhs_in_debug() {
        let a = DenseMatrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 1, vec![f64::NAN, 2.0]).unwrap();
        let _ = a.matmul(&b);
    }

    /// Non-finite *lhs* entries are never skipped and poison every output
    /// column they touch, as IEEE semantics demand.
    #[test]
    fn matmul_propagates_non_finite_lhs() {
        let a = DenseMatrix::from_vec(1, 2, vec![f64::NAN, 1.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.data().iter().all(|v| v.is_nan()));
    }

    /// The register-blocked kernel accumulates each output cell in the
    /// same k-ascending zero-skip order as a naive loop, so results are
    /// bit-identical for every output width (quad main loop + remainder).
    #[test]
    fn matmul_register_blocking_matches_naive_bitwise() {
        // Output widths straddle PACKED_MATMUL_MAX_COLS so both the packed
        // kernel (narrow, incl. remainder-loop widths) and the streaming
        // kernel (wide) are checked against the zero-skip reference.
        let k_dim = 13;
        for oc in (1..=9).chain([15, 16, 17, 24, 33]) {
            let mut state = 0x2545F4914F6CDD1Du64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64) / f64::from(1u32 << 31) - 1.0
            };
            let a_data: Vec<f64> = (0..3 * k_dim)
                .map(|i| if i % 3 == 0 { 0.0 } else { next() })
                .collect();
            let b_data: Vec<f64> = (0..k_dim * oc).map(|_| next()).collect();
            let a = DenseMatrix::from_vec(3, k_dim, a_data).unwrap();
            let b = DenseMatrix::from_vec(k_dim, oc, b_data).unwrap();
            let fast = a.matmul(&b).unwrap();
            for r in 0..3 {
                for j in 0..oc {
                    let mut s = 0.0;
                    for k in 0..k_dim {
                        let av = a.get(r, k);
                        if av == 0.0 {
                            continue;
                        }
                        s += av * b.get(k, j);
                    }
                    assert_eq!(fast.get(r, j).to_bits(), s.to_bits(), "cell ({r}, {j})");
                }
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn argmax_rows_picks_largest_entry() {
        let m = DenseMatrix::from_vec(2, 3, vec![0.1, 0.7, 0.2, 0.5, 0.2, 0.3]).unwrap();
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.add_row_vector(&[1.0, 2.0]).unwrap();
        assert_eq!(m.data(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn select_rows_extracts_in_order() {
        let m = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DenseMatrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 2, vec![2.0, 3.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 2.5]);
    }

    #[test]
    fn column_extracts_values() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }
}
