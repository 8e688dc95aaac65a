//! Two-sample hypothesis tests used by the validator and the baselines.

use crate::special::{chi2_sf, kolmogorov_sf};

/// Result of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestOutcome {
    /// The test statistic (KS D statistic, or the χ² statistic).
    pub statistic: f64,
    /// Asymptotic p-value under the null hypothesis of equal distributions.
    pub p_value: f64,
}

impl TestOutcome {
    /// Whether the null hypothesis is rejected at significance level `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Bonferroni-corrected per-test significance level for `n_tests` tests at
/// family-wise level `alpha`.
pub fn bonferroni_alpha(alpha: f64, n_tests: usize) -> f64 {
    if n_tests == 0 {
        alpha
    } else {
        alpha / n_tests as f64
    }
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Computes the maximum distance `D` between the empirical CDFs of the two
/// samples and the asymptotic p-value via the Kolmogorov distribution with
/// the standard small-sample correction
/// `λ = (√n_e + 0.12 + 0.11/√n_e) · D` where `n_e = n·m/(n+m)`.
///
/// Non-finite values (NaN propagated from corrupted data) are excluded from
/// both samples; an empty sample yields `D = 0, p = 1` (no evidence).
pub fn ks_two_sample(sample_a: &[f64], sample_b: &[f64]) -> TestOutcome {
    let mut a: Vec<f64> = sample_a.iter().copied().filter(|v| v.is_finite()).collect();
    let mut b: Vec<f64> = sample_b.iter().copied().filter(|v| v.is_finite()).collect();
    if a.is_empty() || b.is_empty() {
        return TestOutcome {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    a.sort_unstable_by(|x, y| x.partial_cmp(y).expect("finite values compare"));
    b.sort_unstable_by(|x, y| x.partial_cmp(y).expect("finite values compare"));

    let (n, m) = (a.len(), b.len());
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = a[i].min(b[j]);
        while i < n && a[i] <= x {
            i += 1;
        }
        while j < m && b[j] <= x {
            j += 1;
        }
        let fa = i as f64 / n as f64;
        let fb = j as f64 / m as f64;
        d = d.max((fa - fb).abs());
    }

    TestOutcome {
        statistic: d,
        p_value: ks_p_value(n as f64, m as f64, d),
    }
}

/// Asymptotic p-value of a two-sample KS distance `d` between samples of
/// sizes `n` and `m`, with the small-sample correction
/// `λ = (√n_e + 0.12 + 0.11/√n_e) · d` where `n_e = n·m/(n+m)`. Shared by
/// [`ks_two_sample`] and [`crate::EcdfSketch::ks_test`].
pub(crate) fn ks_p_value(n: f64, m: f64, d: f64) -> f64 {
    let ne = n * m / (n + m);
    let sqrt_ne = ne.sqrt();
    kolmogorov_sf((sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d)
}

/// Pearson χ² two-sample test on category counts.
///
/// Given observed counts per category for two samples, tests the null
/// hypothesis that both samples are drawn from the same categorical
/// distribution (test of homogeneity). Categories with zero total count are
/// dropped. Degrees of freedom: `(#categories − 1)`.
pub fn chi2_test_counts(counts_a: &[f64], counts_b: &[f64]) -> TestOutcome {
    assert_eq!(
        counts_a.len(),
        counts_b.len(),
        "count vectors must align on categories"
    );
    let total_a: f64 = counts_a.iter().sum();
    let total_b: f64 = counts_b.iter().sum();
    if total_a == 0.0 || total_b == 0.0 {
        return TestOutcome {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let grand = total_a + total_b;
    let mut stat = 0.0;
    let mut used_categories = 0usize;
    for (&oa, &ob) in counts_a.iter().zip(counts_b) {
        let col = oa + ob;
        if col == 0.0 {
            continue;
        }
        used_categories += 1;
        let ea = col * total_a / grand;
        let eb = col * total_b / grand;
        stat += (oa - ea).powi(2) / ea + (ob - eb).powi(2) / eb;
    }
    if used_categories < 2 {
        return TestOutcome {
            statistic: 0.0,
            p_value: 1.0,
        };
    }
    let df = (used_categories - 1) as f64;
    TestOutcome {
        statistic: stat,
        p_value: chi2_sf(stat, df),
    }
}

#[cfg(test)]
#[allow(clippy::module_inception)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_distr::StandardNormal;

    fn normal_sample(n: usize, mean: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| mean + <f64 as From<f32>>::from(rng.sample::<f32, _>(StandardNormal)))
            .collect()
    }

    #[test]
    fn ks_identical_samples_have_zero_statistic() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let out = ks_two_sample(&a, &a);
        assert_eq!(out.statistic, 0.0);
        assert!((out.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        let out = ks_two_sample(&a, &b);
        assert!((out.statistic - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_detects_mean_shift_on_large_samples() {
        let a = normal_sample(2000, 0.0, 1);
        let b = normal_sample(2000, 0.5, 2);
        let out = ks_two_sample(&a, &b);
        assert!(out.p_value < 1e-6, "p={}", out.p_value);
    }

    #[test]
    fn ks_same_distribution_usually_not_rejected() {
        let a = normal_sample(1000, 0.0, 3);
        let b = normal_sample(1000, 0.0, 4);
        let out = ks_two_sample(&a, &b);
        assert!(out.p_value > 0.01, "p={}", out.p_value);
    }

    #[test]
    fn ks_ignores_nan_values() {
        let a = [1.0, 2.0, f64::NAN, 3.0];
        let b = [1.0, 2.0, 3.0];
        let out = ks_two_sample(&a, &b);
        assert_eq!(out.statistic, 0.0);
    }

    #[test]
    fn ks_empty_sample_yields_no_evidence() {
        let out = ks_two_sample(&[], &[1.0, 2.0]);
        assert_eq!(out.p_value, 1.0);
    }

    #[test]
    fn ks_statistic_known_small_case() {
        // ECDF distance between {1,2} and {2,3}: at x in [2,3), F_a=1, F_b=0.5.
        let out = ks_two_sample(&[1.0, 2.0], &[2.0, 3.0]);
        assert!((out.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_one_element_samples_are_well_defined() {
        // n = m = 1 gives n_e = 0.5, the smallest possible effective sample;
        // the scaled statistic λ lands deep in the small-λ regime where the
        // survival function used to return garbage. Identical singletons must
        // give no evidence, distinct ones a finite, non-significant p-value.
        let same = ks_two_sample(&[0.3], &[0.3]);
        assert_eq!(same.statistic, 0.0);
        assert!((same.p_value - 1.0).abs() < 1e-9);

        let diff = ks_two_sample(&[0.0], &[1.0]);
        assert!((diff.statistic - 1.0).abs() < 1e-12);
        assert!(diff.p_value.is_finite());
        assert!(
            (0.2..=1.0).contains(&diff.p_value),
            "one observation apiece can never be significant, p={}",
            diff.p_value
        );
    }

    #[test]
    fn ks_all_tied_samples_are_well_defined() {
        // Every value identical within and across samples: D = 0, p = 1.
        let tied = vec![0.7; 50];
        let out = ks_two_sample(&tied, &tied);
        assert_eq!(out.statistic, 0.0);
        assert!((out.p_value - 1.0).abs() < 1e-9);

        // Two distinct constants: ECDFs are disjoint step functions, D = 1,
        // and the p-value must be a genuine small number, not NaN.
        let a = vec![0.0; 50];
        let b = vec![1.0; 50];
        let out = ks_two_sample(&a, &b);
        assert!((out.statistic - 1.0).abs() < 1e-12);
        assert!(out.p_value.is_finite());
        assert!(out.p_value < 1e-6, "p={}", out.p_value);
    }

    #[test]
    fn ks_all_nan_sample_yields_no_evidence_not_nan() {
        // A fully-corrupted column filters down to an empty sample; the
        // outcome must stay finite so it cannot poison monitor EWMAs.
        let a = [f64::NAN, f64::NAN, f64::NAN];
        let b = [1.0, 2.0, 3.0];
        for out in [ks_two_sample(&a, &b), ks_two_sample(&a, &a)] {
            assert_eq!(out.statistic, 0.0);
            assert_eq!(out.p_value, 1.0);
            assert!(out.statistic.is_finite() && out.p_value.is_finite());
        }
    }

    #[test]
    fn chi2_identical_counts_not_rejected() {
        let out = chi2_test_counts(&[50.0, 50.0], &[50.0, 50.0]);
        assert_eq!(out.statistic, 0.0);
        assert!((out.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chi2_shifted_counts_rejected() {
        let out = chi2_test_counts(&[90.0, 10.0], &[10.0, 90.0]);
        assert!(out.p_value < 1e-6);
    }

    #[test]
    fn chi2_hand_computed_statistic() {
        // 2x2 homogeneity: a=[10,20], b=[20,10]; expected all 15.
        let out = chi2_test_counts(&[10.0, 20.0], &[20.0, 10.0]);
        let expected = (25.0 / 15.0) * 4.0;
        assert!((out.statistic - expected).abs() < 1e-9);
    }

    #[test]
    fn chi2_drops_empty_categories() {
        let a = [10.0, 0.0, 10.0];
        let b = [10.0, 0.0, 10.0];
        let out = chi2_test_counts(&a, &b);
        assert_eq!(out.statistic, 0.0);
    }

    #[test]
    fn bonferroni_divides_alpha() {
        assert_eq!(bonferroni_alpha(0.05, 5), 0.01);
        assert_eq!(bonferroni_alpha(0.05, 0), 0.05);
    }

    #[test]
    fn rejects_at_uses_strict_inequality() {
        let t = TestOutcome {
            statistic: 1.0,
            p_value: 0.05,
        };
        assert!(!t.rejects_at(0.05));
        assert!(t.rejects_at(0.051));
    }
}
