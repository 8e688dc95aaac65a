//! Percentile summaries of model outputs.
//!
//! The paper featurizes a batch of black box predictions by the class-wise
//! percentiles of the predicted probabilities, collected at
//! 0, 5, 10, …, 100 (§4). [`VIGINTILE_GRID`] is exactly that grid.

/// Number of percentile positions in the paper's 0,5,…,100 grid.
pub const VIGINTILE_COUNT: usize = 21;

/// The paper's percentile grid as a shared constant: 0, 5, 10, …, 100.
///
/// Every featurization path — the exact [`PercentileScratch`] sort and the
/// sketch query path ([`crate::QuantileSketch::extend_percentiles`]) —
/// reads this single definition, so the two feature layouts cannot drift.
pub const VIGINTILE_GRID: [f64; VIGINTILE_COUNT] = [
    0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0,
    80.0, 85.0, 90.0, 95.0, 100.0,
];

/// Percentile of an already-sorted slice using linear interpolation
/// (the same `linear` convention as NumPy's default).
///
/// `q` is clamped into `[0, 100]`, so `q = 0` always returns `min` and
/// `q = 100` always returns `max` — including for tiny inputs (n ≤ 3),
/// where an unclamped rank used to be able to index one past the end in
/// release builds when float error nudged a grid endpoint above 100.
/// Empty input returns NaN.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (q.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64).clamp(0.0, (n - 1) as f64);
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let w = rank - lo as f64;
                sorted[lo] * (1.0 - w) + sorted[hi] * w
            }
        }
    }
}

/// Computes the requested percentiles of `values` (need not be sorted).
///
/// Non-finite values are dropped first; if nothing remains, all outputs are
/// 0.0 (a neutral featurization for an empty batch).
pub fn percentiles(values: &[f64], qs: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(qs.len());
    PercentileScratch::new().extend_percentiles(values.iter().copied(), qs, &mut out);
    out
}

/// Reusable sort buffer for repeated percentile computations.
///
/// Featurizing a probability matrix computes the same percentile grid once
/// per class column; reusing one scratch buffer across columns (and across
/// batches) sorts in place without a fresh allocation per call.
#[derive(Debug, Default)]
pub struct PercentileScratch {
    buf: Vec<f64>,
}

impl PercentileScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the requested percentiles of `values` to `out`, using the
    /// internal buffer for the sort. Semantics match [`percentiles`]:
    /// non-finite values are dropped, and an empty input yields 0.0 for
    /// every requested percentile.
    pub fn extend_percentiles(
        &mut self,
        values: impl IntoIterator<Item = f64>,
        qs: &[f64],
        out: &mut Vec<f64>,
    ) {
        self.buf.clear();
        self.buf
            .extend(values.into_iter().filter(|x| x.is_finite()));
        if self.buf.is_empty() {
            out.extend(std::iter::repeat_n(0.0, qs.len()));
            return;
        }
        self.buf
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        out.extend(qs.iter().map(|&q| percentile_sorted(&self.buf, q)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_21_points_ending_at_100() {
        let g = VIGINTILE_GRID;
        assert_eq!(g.len(), VIGINTILE_COUNT);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 100.0);
    }

    #[test]
    fn grid_constant_matches_the_generated_grid() {
        // The shared constant is the single source of truth for both the
        // exact and the sketch feature layouts; pin it against the
        // arithmetic definition.
        for (i, &q) in VIGINTILE_GRID.iter().enumerate() {
            assert_eq!(q, i as f64 * 5.0);
        }
    }

    #[test]
    fn percentile_of_singleton_is_the_value() {
        assert_eq!(percentile_sorted(&[42.0], 0.0), 42.0);
        assert_eq!(percentile_sorted(&[42.0], 100.0), 42.0);
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(percentile_sorted(&[1.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn extremes_are_min_and_max() {
        let v = [5.0, 1.0, 9.0, 3.0];
        let out = percentiles(&v, &[0.0, 100.0]);
        assert_eq!(out, vec![1.0, 9.0]);
    }

    #[test]
    fn quartiles_match_numpy_linear() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        let out = percentiles(&[1.0, 2.0, 3.0, 4.0], &[25.0, 75.0]);
        assert!((out[0] - 1.75).abs() < 1e-12);
        assert!((out[1] - 3.25).abs() < 1e-12);
    }

    #[test]
    fn nan_values_are_ignored() {
        let out = percentiles(&[f64::NAN, 1.0, 2.0], &[100.0]);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn empty_input_yields_zeros() {
        let out = percentiles(&[], &[0.0, 50.0, 100.0]);
        assert_eq!(out, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn boundary_percentiles_are_exact_for_tiny_inputs() {
        // q = 0 must be min and q = 100 must be max for n ∈ {1, 2, 3} —
        // the small-n regime where interpolation ranks land exactly on the
        // array ends and any off-by-one indexes out of bounds.
        let cases: [&[f64]; 3] = [&[4.0], &[1.0, 9.0], &[1.0, 5.0, 9.0]];
        for sorted in cases {
            let n = sorted.len();
            assert_eq!(percentile_sorted(sorted, 0.0), sorted[0], "min, n={n}");
            assert_eq!(
                percentile_sorted(sorted, 100.0),
                sorted[n - 1],
                "max, n={n}"
            );
        }
    }

    #[test]
    fn out_of_range_q_clamps_instead_of_indexing_past_the_end() {
        // Accumulated float error can push a grid endpoint marginally past
        // 100; in release builds the old rank computation indexed one past
        // the end. The clamp pins those to min/max.
        let sorted = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&sorted, 100.0 + 1e-9), 3.0);
        assert_eq!(percentile_sorted(&sorted, -1e-9), 1.0);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let v: Vec<f64> = (0..100).map(|i| (i * 7 % 31) as f64).collect();
        let qs = VIGINTILE_GRID;
        let out = percentiles(&v, &qs);
        for w in out.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }
}
