//! Calibrated score intervals — the serving stack's central estimate type.
//!
//! A point estimate of the serving score carries no notion of its own
//! uncertainty, so alarm thresholds on it must be hand-tuned wide enough
//! to absorb calibration noise. Following Elder et al. (*Learning
//! Prediction Intervals for Model Performance*), the predictor instead
//! emits a [`ScoreInterval`]: ensemble quantiles of the random forest's
//! per-tree predictions, widened by a split-conformal half-width
//! calibrated on held-out corrupted copies (see
//! [`conformal_halfwidth`]). The monitor's interval alarm policy then
//! asks the calibration-free question "does the retained test score still
//! sit inside the serving interval?" instead of "did the point estimate
//! drop below a tuned cutoff?".

use crate::CoreError;
use serde::{Deserialize, Serialize};

/// Default miscoverage rate `alpha` of predictor intervals: a 90% interval.
pub const DEFAULT_INTERVAL_ALPHA: f64 = 0.1;

/// A calibrated interval estimate of the model's score on one serving
/// batch: the nominal coverage is `1 - alpha`.
///
/// Serializes losslessly except that the non-finite bounds of a degraded
/// interval travel as JSON `null` and come back as `NaN` (the vendored
/// serde maps non-finite floats through `null` — the same convention as
/// [`BatchReport::estimate`](crate::BatchReport::estimate)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreInterval {
    /// Point estimate of the serving score (the ensemble mean — identical
    /// to what the point APIs return).
    pub point: f64,
    /// Lower interval bound.
    pub lo: f64,
    /// Upper interval bound.
    pub hi: f64,
    /// Miscoverage rate: the interval targets `1 - alpha` coverage.
    pub alpha: f64,
}

impl ScoreInterval {
    /// A degraded interval: all bounds withheld (NaN), `alpha` retained.
    /// Marks batches whose scoring failed terminally, mirroring the NaN
    /// estimate of degraded point reports.
    pub fn degraded(alpha: f64) -> Self {
        Self {
            point: f64::NAN,
            lo: f64::NAN,
            hi: f64::NAN,
            alpha,
        }
    }

    /// Whether this is a degraded (all-NaN) interval.
    pub fn is_degraded(&self) -> bool {
        self.point.is_nan() && self.lo.is_nan() && self.hi.is_nan()
    }

    /// Interval width `hi - lo` — the system's self-reported uncertainty.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Interval midpoint `(lo + hi) / 2` — the value the monitor's EWMA
    /// smooths under the interval alarm policy.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether `value` lies inside the closed interval `[lo, hi]`.
    /// Always `false` for a degraded interval (NaN compares false).
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// The same interval shifted so its midpoint sits at `midpoint`,
    /// preserving the half-widths on either side. Used for the smoothed
    /// violation check: the EWMA smooths the midpoint, and the batch's own
    /// width is re-applied around it.
    pub fn recentered(&self, midpoint: f64) -> Self {
        let shift = midpoint - self.midpoint();
        Self {
            point: self.point + shift,
            lo: self.lo + shift,
            hi: self.hi + shift,
            alpha: self.alpha,
        }
    }

    /// Validates the interval invariants for externally supplied
    /// intervals: either all of `point`/`lo`/`hi` are finite with
    /// `0 ≤ lo ≤ point ≤ hi ≤ 1` (every score lies in `[0, 1]`), or all
    /// three are NaN (a degraded interval); `alpha` must be finite and in
    /// `(0, 1)` either way.
    pub fn validate(&self) -> Result<(), CoreError> {
        check_interval_alpha(self.alpha)?;
        if self.is_degraded() {
            return Ok(());
        }
        if !(self.point.is_finite() && self.lo.is_finite() && self.hi.is_finite()) {
            return Err(CoreError::new(format!(
                "interval bounds must be all finite or all NaN, got \
                 [lo {}, point {}, hi {}]",
                self.lo, self.point, self.hi
            )));
        }
        if !(self.lo <= self.point && self.point <= self.hi) {
            return Err(CoreError::new(format!(
                "interval bounds must satisfy lo ≤ point ≤ hi, got \
                 [lo {}, point {}, hi {}]",
                self.lo, self.point, self.hi
            )));
        }
        if !(0.0 <= self.lo && self.hi <= 1.0) {
            return Err(CoreError::new(format!(
                "interval bounds must lie in [0, 1], got [lo {}, point {}, hi {}]",
                self.lo, self.point, self.hi
            )));
        }
        Ok(())
    }
}

/// Rejects a miscoverage rate `alpha` outside `(0, 1)` (non-finite
/// included) — the one check behind fitting, artifact loading and
/// externally supplied intervals.
pub(crate) fn check_interval_alpha(alpha: f64) -> Result<(), CoreError> {
    if alpha.is_finite() && 0.0 < alpha && alpha < 1.0 {
        return Ok(());
    }
    Err(CoreError::new(format!(
        "interval_alpha must lie in (0, 1), got {alpha}"
    )))
}

/// The split-conformal half-width at miscoverage `alpha` from a sorted
/// slice of held-out absolute residuals: the order statistic of rank
/// `⌈(n + 1)(1 − alpha)⌉` (clamped to `n`), the standard finite-sample
/// correction that makes `prediction ± halfwidth` cover a fresh residual
/// with probability at least `1 − alpha` under exchangeability.
///
/// Returns 0.0 on an empty slice (no calibration evidence — the caller
/// falls back to bare ensemble quantiles). On a fixed residual
/// distribution the returned rank fraction `⌈(n+1)(1−alpha)⌉ / n`
/// decreases toward `1 − alpha` as `n` grows, so the half-width shrinks
/// monotonically with the calibration budget — pinned by the width
/// property tests.
pub fn conformal_halfwidth(sorted_residuals: &[f64], alpha: f64) -> f64 {
    let n = sorted_residuals.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((n + 1) as f64 * (1.0 - alpha)).ceil() as usize;
    sorted_residuals[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(lo: f64, point: f64, hi: f64) -> ScoreInterval {
        ScoreInterval {
            point,
            lo,
            hi,
            alpha: 0.1,
        }
    }

    #[test]
    fn width_midpoint_and_containment() {
        let iv = interval(0.6, 0.7, 0.9);
        assert!((iv.width() - 0.3).abs() < 1e-15);
        assert!((iv.midpoint() - 0.75).abs() < 1e-15);
        assert!(iv.contains(0.6) && iv.contains(0.9) && iv.contains(0.75));
        assert!(!iv.contains(0.59) && !iv.contains(0.91));
    }

    #[test]
    fn recentered_preserves_width_and_offsets() {
        let iv = interval(0.6, 0.65, 0.9);
        let shifted = iv.recentered(0.5);
        assert!((shifted.midpoint() - 0.5).abs() < 1e-15);
        assert!((shifted.width() - iv.width()).abs() < 1e-15);
        assert!((shifted.point - shifted.lo) - (iv.point - iv.lo) < 1e-15);
        assert_eq!(shifted.alpha, iv.alpha);
    }

    #[test]
    fn validation_accepts_consistent_and_degraded_rejects_mixed() {
        assert!(interval(0.6, 0.7, 0.9).validate().is_ok());
        assert!(interval(0.7, 0.7, 0.7).validate().is_ok());
        assert!(ScoreInterval::degraded(0.1).validate().is_ok());
        // Out-of-order bounds.
        let err = interval(0.9, 0.7, 0.6).validate().unwrap_err();
        assert!(err.message.contains("lo ≤ point ≤ hi"), "{err}");
        // Point outside [lo, hi].
        assert!(interval(0.6, 0.95, 0.9).validate().is_err());
        // Mixed finite/NaN bounds.
        let mut iv = interval(0.6, f64::NAN, 0.9);
        let err = iv.validate().unwrap_err();
        assert!(err.message.contains("all finite or all NaN"), "{err}");
        iv = interval(f64::NAN, 0.7, f64::NAN);
        assert!(iv.validate().is_err());
        // Infinite bounds are as unusable as NaN ones.
        assert!(interval(f64::NEG_INFINITY, 0.7, 0.9).validate().is_err());
        // No score lies outside [0, 1]; its edges are scores.
        assert!(interval(0.0, 0.5, 1.0).validate().is_ok());
        for (lo, point, hi) in [(-0.1, 0.5, 0.9), (0.6, 0.7, 1.2), (-5.0, 8125.0, 9e9)] {
            let err = interval(lo, point, hi).validate().unwrap_err();
            assert!(err.message.contains("in [0, 1]"), "{err}");
        }
        // Bad alpha fails even on otherwise-valid bounds.
        for alpha in [0.0, 1.0, -0.1, f64::NAN] {
            let iv = ScoreInterval {
                alpha,
                ..interval(0.6, 0.7, 0.9)
            };
            assert!(iv.validate().is_err(), "alpha {alpha} accepted");
        }
    }

    #[test]
    fn degraded_interval_contains_nothing() {
        let iv = ScoreInterval::degraded(0.1);
        assert!(iv.is_degraded());
        assert!(!iv.contains(0.5));
        assert!(iv.width().is_nan() && iv.midpoint().is_nan());
    }

    #[test]
    fn conformal_halfwidth_is_the_finite_sample_order_statistic() {
        // n = 9, alpha = 0.1: rank ⌈10 · 0.9⌉ = 9 → the maximum.
        let residuals: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
        assert_eq!(conformal_halfwidth(&residuals, 0.1), 0.9);
        // n = 19, alpha = 0.1: rank ⌈20 · 0.9⌉ = 18 of 19.
        let residuals: Vec<f64> = (1..=19).map(|i| i as f64).collect();
        assert_eq!(conformal_halfwidth(&residuals, 0.1), 18.0);
        // Large alpha picks a low order statistic, never below the first.
        assert_eq!(conformal_halfwidth(&residuals, 0.99), 1.0);
        // No calibration evidence → no widening.
        assert_eq!(conformal_halfwidth(&[], 0.1), 0.0);
    }

    #[test]
    fn conformal_halfwidth_shrinks_as_calibration_grows() {
        // Deterministic quantile grids of the same Exp-like residual
        // distribution: at fixed alpha the rank fraction ⌈(n+1)·0.9⌉/n
        // decreases toward 0.9 as n grows, so the selected order statistic
        // of a fixed distribution is non-increasing in n.
        let quantile = |u: f64| -> f64 { -(1.0 - u).ln() };
        let grid = |n: usize| -> Vec<f64> {
            (1..=n)
                .map(|i| quantile(i as f64 / (n + 1) as f64))
                .collect()
        };
        let widths: Vec<f64> = [20, 40, 80, 160, 320]
            .iter()
            .map(|&n| conformal_halfwidth(&grid(n), 0.1))
            .collect();
        for pair in widths.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-12,
                "width grew with calibration: {widths:?}"
            );
        }
        assert!(widths[0] > widths[widths.len() - 1], "{widths:?}");
    }

    #[test]
    fn interval_serde_round_trips_with_nan_as_null() {
        let iv = interval(0.6, 0.7, 0.9);
        let json = serde_json::to_string(&iv).unwrap();
        let back: ScoreInterval = serde_json::from_str(&json).unwrap();
        assert_eq!(back, iv);
        let degraded = ScoreInterval::degraded(0.1);
        let json = serde_json::to_string(&degraded).unwrap();
        assert!(json.contains("null"), "{json}");
        let back: ScoreInterval = serde_json::from_str(&json).unwrap();
        assert!(back.is_degraded());
        assert_eq!(back.alpha, 0.1);
    }
}
