//! Task-independent dataset-shift detection baselines (§6.2).
//!
//! All three baselines answer the same question as the performance
//! validator — "should we trust the predictions on this serving batch?" —
//! but via fixed hypothesis tests instead of a learned model:
//!
//! * [`RelationalShiftDetector`] (REL) tests the *raw input columns*
//!   (KS for numeric, χ² for categorical) with Bonferroni correction,
//! * [`BbseDetector`] (BBSE, Lipton et al. 2018) KS-tests the per-class
//!   softmax outputs of the black box model,
//! * [`BbseHardDetector`] (BBSEh, Rabanser et al. 2019) χ²-tests the
//!   histogram of *predicted classes*.
//!
//! Following Rabanser et al., each test compares against α = 0.05 (with
//! Bonferroni correction across the multiple tests of REL and BBSE).

use crate::features::{FeatureSource, OutputReference};
use lvp_dataframe::{CategoricalColumn, ColumnType, DataFrame};
use lvp_models::BlackBoxModel;
use lvp_stats::{bonferroni_alpha, chi2_test_counts, ks_two_sample, TestOutcome};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Family-wise significance level used by all baselines.
pub const ALPHA: f64 = 0.05;

/// A task-independent shift detector that raises an alarm on a serving
/// batch.
pub trait Baseline: Send + Sync {
    /// Short display name.
    fn name(&self) -> &str;

    /// `true` when the detector finds a significant shift — i.e. the
    /// predictions on this batch should *not* be trusted.
    fn detects_shift(&self, serving: &DataFrame) -> bool;
}

/// REL: univariate shift tests on the raw input columns.
pub struct RelationalShiftDetector {
    reference: DataFrame,
}

impl RelationalShiftDetector {
    /// Stores the reference (held-out test) data for later comparisons.
    pub fn new(reference: DataFrame) -> Self {
        Self { reference }
    }

    fn categorical_counts(
        reference: &CategoricalColumn,
        serving: &CategoricalColumn,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut categories: BTreeMap<&str, usize> = BTreeMap::new();
        for v in reference.iter().chain(serving.iter()).flatten() {
            let next = categories.len();
            categories.entry(v).or_insert(next);
        }
        // Missing values form their own category: nulls appearing only in
        // the serving data are exactly the shift REL should notice.
        let null_idx = categories.len();
        let mut counts_a = vec![0.0; categories.len() + 1];
        let mut counts_b = vec![0.0; categories.len() + 1];
        for v in reference.iter() {
            match v {
                Some(s) => counts_a[categories[s]] += 1.0,
                None => counts_a[null_idx] += 1.0,
            }
        }
        for v in serving.iter() {
            match v {
                Some(s) => counts_b[categories[s]] += 1.0,
                None => counts_b[null_idx] += 1.0,
            }
        }
        (counts_a, counts_b)
    }
}

impl Baseline for RelationalShiftDetector {
    fn name(&self) -> &str {
        "REL"
    }

    fn detects_shift(&self, serving: &DataFrame) -> bool {
        let schema = self.reference.schema();
        let n_tests = schema
            .fields()
            .iter()
            .filter(|f| matches!(f.ty, ColumnType::Numeric | ColumnType::Categorical))
            .count();
        if n_tests == 0 {
            return false;
        }
        let alpha = bonferroni_alpha(ALPHA, n_tests);
        for (i, field) in schema.fields().iter().enumerate() {
            match field.ty {
                ColumnType::Numeric => {
                    let a: Vec<f64> = self
                        .reference
                        .column(i)
                        .as_numeric()
                        .map_or_else(|_| Vec::new(), |v| v.iter().flatten().copied().collect());
                    let b: Vec<f64> = serving
                        .column(i)
                        .as_numeric()
                        .map_or_else(|_| Vec::new(), |v| v.iter().flatten().copied().collect());
                    // Missing-value asymmetry is itself a shift signal.
                    let null_a = self.reference.column(i).null_count() as f64
                        / self.reference.n_rows().max(1) as f64;
                    let null_b =
                        serving.column(i).null_count() as f64 / serving.n_rows().max(1) as f64;
                    if (null_b - null_a).abs() > 0.10 {
                        return true;
                    }
                    if ks_two_sample(&a, &b).rejects_at(alpha) {
                        return true;
                    }
                }
                ColumnType::Categorical => {
                    let (Ok(ref_vals), Ok(srv_vals)) = (
                        self.reference.column(i).as_categorical(),
                        serving.column(i).as_categorical(),
                    ) else {
                        continue;
                    };
                    let (ca, cb) = Self::categorical_counts(ref_vals, srv_vals);
                    if chi2_test_counts(&ca, &cb).rejects_at(alpha) {
                        return true;
                    }
                }
                // Raw shift tests are not applicable to text/image columns
                // (the paper notes REL "was not applicable to the image
                // dataset").
                ColumnType::Text | ColumnType::Image => {}
            }
        }
        false
    }
}

/// BBSE: Kolmogorov–Smirnov tests on the per-class softmax outputs of the
/// black box model.
pub struct BbseDetector {
    model: Arc<dyn BlackBoxModel>,
    reference: OutputReference,
}

impl BbseDetector {
    /// Records the model's outputs on the held-out test data.
    pub fn new(model: Arc<dyn BlackBoxModel>, test: &DataFrame) -> Self {
        let reference = OutputReference::from_outputs(&model.predict_proba(test));
        Self { model, reference }
    }

    /// The per-class KS outcomes of the serving batch's outputs against
    /// the retained test-time outputs.
    pub(crate) fn per_class_ks(&self, serving: &DataFrame) -> Vec<TestOutcome> {
        let proba = self.model.predict_proba(serving);
        self.reference
            .ks(&FeatureSource::Exact(&proba))
            .expect("the model's outputs match its retained class count")
    }
}

impl Baseline for BbseDetector {
    fn name(&self) -> &str {
        "BBSE"
    }

    fn detects_shift(&self, serving: &DataFrame) -> bool {
        let outcomes = self.per_class_ks(serving);
        let alpha = bonferroni_alpha(ALPHA, outcomes.len());
        outcomes.iter().any(|outcome| outcome.rejects_at(alpha))
    }
}

/// BBSEh: χ² test on the counts of *predicted classes*.
pub struct BbseHardDetector {
    model: Arc<dyn BlackBoxModel>,
    test_class_counts: Vec<f64>,
}

impl BbseHardDetector {
    /// Records the model's predicted-class histogram on the held-out test
    /// data.
    pub fn new(model: Arc<dyn BlackBoxModel>, test: &DataFrame) -> Self {
        let proba = model.predict_proba(test);
        let mut counts = vec![0.0; model.n_classes()];
        for c in proba.argmax_rows() {
            counts[c] += 1.0;
        }
        Self {
            model,
            test_class_counts: counts,
        }
    }
}

impl Baseline for BbseHardDetector {
    fn name(&self) -> &str {
        "BBSEh"
    }

    fn detects_shift(&self, serving: &DataFrame) -> bool {
        let proba = self.model.predict_proba(serving);
        let mut counts = vec![0.0; self.model.n_classes()];
        for c in proba.argmax_rows() {
            counts[c] += 1.0;
        }
        // Two-sample homogeneity test: the reference histogram is itself a
        // finite sample, so a goodness-of-fit test against it (treating it
        // as the exact null distribution) under-counts the variance and
        // false-alarms far above the nominal level.
        chi2_test_counts(&counts, &self.test_class_counts).rejects_at(ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Arc<dyn BlackBoxModel>, DataFrame, DataFrame) {
        let df = toy_frame(400);
        let mut rng = StdRng::seed_from_u64(21);
        let (train, rest) = df.split_frac(0.5, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        (model, test, serving)
    }

    fn nulled(serving: &DataFrame) -> DataFrame {
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        corrupted
    }

    #[test]
    fn rel_quiet_on_clean_data_loud_on_missing_values() {
        let (_, test, serving) = setup();
        let rel = RelationalShiftDetector::new(test);
        assert!(!rel.detects_shift(&serving));
        assert!(rel.detects_shift(&nulled(&serving)));
    }

    #[test]
    fn bbse_quiet_on_clean_data_loud_on_corruption() {
        let (model, test, serving) = setup();
        let bbse = BbseDetector::new(model, &test);
        assert!(!bbse.detects_shift(&serving));
        assert!(bbse.detects_shift(&nulled(&serving)));
    }

    #[test]
    fn bbseh_detects_class_histogram_shift() {
        let (model, test, serving) = setup();
        let bbseh = BbseHardDetector::new(model.clone(), &test);
        assert!(!bbseh.detects_shift(&serving));
        // Serve only rows the model predicts as class 0 — a hard label
        // shift in the predicted-class histogram.
        let proba = model.predict_proba(&serving);
        let only_zero: Vec<usize> = proba
            .argmax_rows()
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c == 0)
            .map(|(i, _)| i)
            .collect();
        let shifted = serving.select_rows(&only_zero);
        assert!(bbseh.detects_shift(&shifted));
    }

    #[test]
    fn baseline_names() {
        let (model, test, _) = setup();
        assert_eq!(RelationalShiftDetector::new(test.clone()).name(), "REL");
        assert_eq!(BbseDetector::new(model.clone(), &test).name(), "BBSE");
        assert_eq!(BbseHardDetector::new(model, &test).name(), "BBSEh");
    }

    #[test]
    fn rel_counts_nulls_as_their_own_category() {
        let (ca, cb) = RelationalShiftDetector::categorical_counts(
            &[Some("a"), Some("b")].into_iter().collect(),
            &[None, Some("a")].into_iter().collect(),
        );
        assert_eq!(ca, vec![1.0, 1.0, 0.0]);
        assert_eq!(cb, vec![1.0, 0.0, 1.0]);
    }
}
