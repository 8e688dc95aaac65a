//! Numerically-stable activation functions and reductions.

use crate::DenseMatrix;

/// Rectified linear unit.
#[inline]
pub fn relu(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Derivative of ReLU evaluated at the pre-activation `x`.
#[inline]
pub fn relu_grad(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Index of the maximum element; ties resolve to the lowest index.
/// Returns 0 for empty input.
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// In-place stable softmax of a single slice of logits.
pub fn softmax_in_place(row: &mut [f64]) {
    let m = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    } else {
        // All logits were -inf; fall back to uniform.
        let u = 1.0 / row.len() as f64;
        for v in row.iter_mut() {
            *v = u;
        }
    }
}

/// Row-wise stable softmax of a logits matrix.
pub fn stable_softmax(logits: &DenseMatrix) -> DenseMatrix {
    let mut out = logits.clone();
    let cols = out.cols();
    if cols == 0 {
        return out;
    }
    for row in out.data_mut().chunks_exact_mut(cols) {
        softmax_in_place(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(2.5), 1.0);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        let p = stable_softmax(&logits);
        for row in p.row_iter() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_under_huge_logits() {
        let logits = DenseMatrix::from_vec(1, 2, vec![1e308, 1e308]).unwrap();
        let p = stable_softmax(&logits);
        assert!((p.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn softmax_of_neg_infinite_row_is_uniform() {
        let logits =
            DenseMatrix::from_vec(1, 2, vec![f64::NEG_INFINITY, f64::NEG_INFINITY]).unwrap();
        let p = stable_softmax(&logits);
        assert!((p.get(0, 0) - 0.5).abs() < 1e-12);
    }
}
