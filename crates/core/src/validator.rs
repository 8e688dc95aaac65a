//! The performance validator: the binary-classification variant of the
//! performance prediction problem (§2, §4).
//!
//! Given a user-chosen acceptable relative quality loss `t` (e.g. 5%), the
//! validator predicts whether the score on a serving batch satisfies
//! `ℓ_serving ≥ (1 − t) · ℓ_test`. Unlike the plain predictor it retains
//! the black box model's outputs on the test set and augments the
//! percentile features with per-class two-sample Kolmogorov–Smirnov
//! statistics between serving-time and test-time outputs (§4 mentions
//! exactly this construction, reusing the hypothesis-test signal of
//! Lipton et al.).

use crate::engine::generate_batches_resilient;
use crate::features::{FeatureSource, OutputReference};
use crate::predictor::checked_outputs;
use crate::{CoreError, Metric};
use lvp_corruptions::ErrorGen;
use lvp_dataframe::DataFrame;
use lvp_linalg::{CsrMatrix, DenseMatrix};
use lvp_models::gbdt::{GbdtClassifier, GbdtConfig};
use lvp_models::{BlackBoxModel, Classifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Percentile features of one batch plus, when a `reference` is given,
/// each class's KS statistic and p-value against it. A free function so the
/// fitting loop can featurize before the validator exists.
fn featurize_against(
    source: &FeatureSource<'_>,
    reference: Option<&OutputReference>,
) -> Result<Vec<f64>, CoreError> {
    let mut f = source.percentile_features();
    if let Some(reference) = reference {
        for outcome in reference.ks(source)? {
            f.extend([outcome.statistic, outcome.p_value]);
        }
    }
    Ok(f)
}

/// Configuration for fitting a [`PerformanceValidator`].
#[derive(Debug, Clone)]
pub struct ValidatorConfig {
    /// Acceptable relative quality loss `t` (e.g. 0.05 for 5%).
    pub threshold: f64,
    /// Corrupted copies generated per error generator.
    pub runs_per_generator: usize,
    /// Additional uncorrupted copies.
    pub clean_copies: usize,
    /// The scoring function of the black box model.
    pub metric: Metric,
    /// Configuration of the gradient-boosted decision-tree classifier.
    pub gbdt: GbdtConfig,
    /// Include the KS-test features (disable for the ablation bench).
    pub use_ks_features: bool,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        Self {
            threshold: 0.05,
            runs_per_generator: 100,
            clean_copies: 20,
            metric: Metric::Accuracy,
            gbdt: GbdtConfig {
                n_rounds: 40,
                max_depth: 3,
                ..GbdtConfig::default()
            },
            use_ks_features: true,
        }
    }
}

impl ValidatorConfig {
    /// A cheaper configuration for tests and smoke runs.
    pub fn fast(threshold: f64) -> Self {
        Self {
            threshold,
            runs_per_generator: 25,
            clean_copies: 10,
            gbdt: GbdtConfig {
                n_rounds: 15,
                max_depth: 3,
                ..GbdtConfig::default()
            },
            ..Self::default()
        }
    }
}

/// The validator's verdict on one serving batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationOutcome {
    /// `true` when the predictions can be trusted (score within threshold).
    pub within_threshold: bool,
    /// The classifier's confidence that the score is within the threshold.
    pub confidence: f64,
}

/// A learned performance validator for a fixed black box model and quality
/// threshold.
pub struct PerformanceValidator {
    pub(crate) model: Arc<dyn BlackBoxModel>,
    pub(crate) classifier: GbdtClassifier,
    /// The model's test-time outputs, retained at fit time: the KS features
    /// compare every serving batch against them (exact columns for an
    /// exact batch, their ECDF sketches for a sketched one).
    pub(crate) reference: OutputReference,
    pub(crate) test_score: f64,
    pub(crate) threshold: f64,
    pub(crate) metric: Metric,
    pub(crate) use_ks_features: bool,
    /// Fingerprint of the held-out test frame's schema; serving frames are
    /// checked against it before featurization.
    pub(crate) schema_fingerprint: Option<u64>,
}

impl PerformanceValidator {
    /// Learns the validator from synthetically corrupted copies of the
    /// held-out test data, as in Algorithm 1 but with binary labels
    /// `ℓ_corrupt ≥ (1 − t) · ℓ_test`.
    pub fn fit(
        model: Arc<dyn BlackBoxModel>,
        test: &DataFrame,
        generators: &[Box<dyn ErrorGen>],
        config: &ValidatorConfig,
        rng: &mut StdRng,
    ) -> Result<Self, CoreError> {
        if test.n_rows() == 0 {
            return Err(CoreError::new("held-out test data is empty"));
        }
        if generators.is_empty() {
            return Err(CoreError::new("need at least one error generator"));
        }
        if !(0.0..1.0).contains(&config.threshold) {
            return Err(CoreError::new("threshold must lie in [0, 1)"));
        }
        // Retain the test-time outputs: the KS features compare serving
        // batches against them (the "major difference" §3 points out).
        let test_outputs = model.try_predict_proba(test)?;
        let test_score = config.metric.score(&test_outputs, test.labels())?;
        let reference = OutputReference::from_outputs(&test_outputs);
        let ks_reference = config.use_ks_features.then_some(&reference);
        let featurize =
            |proba: &DenseMatrix| featurize_against(&FeatureSource::Exact(proba), ks_reference);

        // Algorithm 1's generation loop with binary labels, fanned out by
        // the deterministic batch engine (its output is bit-identical at
        // any thread count, so the validator always runs it in parallel).
        let generated: Vec<(Vec<f64>, u32)> = generate_batches_resilient(
            model.as_ref(),
            test,
            generators,
            config.runs_per_generator,
            config.clean_copies,
            config.metric,
            rng.gen(),
            true,
            1.0,
            None,
            |batch| {
                let f = featurize(&batch.proba)
                    .expect("fit-time outputs match the fitted model's class count");
                (
                    f,
                    u32::from(batch.score >= (1.0 - config.threshold) * test_score),
                )
            },
        )?
        .results;
        let (mut features, mut labels): (Vec<Vec<f64>>, Vec<u32>) = generated.into_iter().unzip();

        if labels.iter().all(|&l| l == 0) || labels.iter().all(|&l| l == 1) {
            // Degenerate training set: corruption always (or never) broke
            // the threshold. Inject the clean full-batch case to keep two
            // classes, mirroring p_err = 0.
            features.push(featurize(&test_outputs)?);
            labels.push(1);
            if labels.iter().all(|&l| l == 1) {
                // Still degenerate — synthesize a catastrophic case from
                // uniform-random outputs.
                let m = model.n_classes();
                let uniform =
                    DenseMatrix::from_vec(4, m, vec![1.0 / m as f64; 4 * m]).expect("sized");
                features.push(featurize(&uniform)?);
                labels.push(0);
            }
        }

        let x = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&features)
                .map_err(|e| CoreError::new(format!("feature matrix: {e}")))?,
        );
        let mut gbdt_rng = StdRng::seed_from_u64(rng.gen());
        let classifier = GbdtClassifier::fit(&x, &labels, 2, &config.gbdt, &mut gbdt_rng)?;
        Ok(Self {
            model,
            classifier,
            reference,
            test_score,
            threshold: config.threshold,
            metric: config.metric,
            use_ks_features: config.use_ks_features,
            schema_fingerprint: Some(test.schema().fingerprint()),
        })
    }

    /// Featurizes one batch of model outputs from either source:
    /// percentile statistics plus (optionally) per-class KS statistic and
    /// p-value against the retained test-time outputs — the materialized
    /// columns for an exact source, their ECDF sketches for a sketched one
    /// (each dimension within the sketches' proven error bound of the exact
    /// path). Errors when the source's class count disagrees with the
    /// model's.
    pub fn featurize(&self, source: &FeatureSource<'_>) -> Result<Vec<f64>, CoreError> {
        source.check_classes(self.model.n_classes(), "validator")?;
        featurize_against(source, self.use_ks_features.then_some(&self.reference))
    }

    /// Decides whether the model's predictions on the serving batch can be
    /// trusted. A terminal model failure (e.g. a remote endpoint out of
    /// retries) is an error whose [`CoreError::model_error`] carries the
    /// typed cause.
    pub fn validate(&self, serving: &DataFrame) -> Result<ValidationOutcome, CoreError> {
        let proba = checked_outputs(self.model.as_ref(), self.schema_fingerprint, serving)?;
        self.validate_source(&FeatureSource::Exact(&proba))
    }

    /// Decides from a batch of model outputs directly — materialized, or
    /// streamed sketch state for batches too large (or too distributed) to
    /// materialize.
    pub fn validate_source(
        &self,
        source: &FeatureSource<'_>,
    ) -> Result<ValidationOutcome, CoreError> {
        let features = self.featurize(source)?;
        let x = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[features]).expect("single feature row"),
        );
        let p = self.classifier.predict_proba(&x);
        let confidence = p.get(0, 1);
        Ok(ValidationOutcome {
            within_threshold: confidence >= 0.5,
            confidence,
        })
    }

    /// The model's reference score on the held-out test data.
    pub fn test_score(&self) -> f64 {
        self.test_score
    }

    /// The configured acceptable relative loss `t`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The scoring function used.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Fingerprint of the fit-time test schema, when known.
    pub fn schema_fingerprint(&self) -> Option<u64> {
        self.schema_fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchSketch;
    use lvp_corruptions::standard_tabular_suite;
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, ModelKind};

    fn fitted_validator(threshold: f64) -> (PerformanceValidator, DataFrame) {
        let df = toy_frame(300);
        let mut rng = StdRng::seed_from_u64(11);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let validator = PerformanceValidator::fit(
            model,
            &test,
            &gens,
            &ValidatorConfig::fast(threshold),
            &mut rng,
        )
        .unwrap();
        (validator, serving)
    }

    #[test]
    fn clean_data_passes_validation() {
        let (validator, serving) = fitted_validator(0.10);
        let outcome = validator.validate(&serving).unwrap();
        assert!(
            outcome.within_threshold,
            "confidence {}",
            outcome.confidence
        );
    }

    #[test]
    fn catastrophic_corruption_fails_validation() {
        let (validator, serving) = fitted_validator(0.10);
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        let outcome = validator.validate(&corrupted).unwrap();
        assert!(
            !outcome.within_threshold,
            "confidence {}",
            outcome.confidence
        );
    }

    #[test]
    fn threshold_accessors() {
        let (validator, _) = fitted_validator(0.05);
        assert_eq!(validator.threshold(), 0.05);
        assert!(validator.test_score() > 0.8);
    }

    #[test]
    fn ks_features_extend_dimensionality() {
        let (validator, serving) = fitted_validator(0.05);
        let proba = validator.model.predict_proba(&serving);
        let f = validator.featurize(&FeatureSource::Exact(&proba)).unwrap();
        // 42 percentile dims + 2 KS dims per class.
        assert_eq!(f.len(), 42 + 4);
    }

    #[test]
    fn mismatched_class_count_is_rejected_not_truncated() {
        let (validator, _) = fitted_validator(0.05);
        // Three class columns against a validator fitted on two.
        for cols in [3, 1] {
            let proba = DenseMatrix::from_vec(5, cols, vec![1.0 / cols as f64; 5 * cols]).unwrap();
            let source = FeatureSource::Exact(&proba);
            assert!(validator.featurize(&source).is_err());
            let err = validator.validate_source(&source).unwrap_err();
            assert!(err.message.contains("validator was fitted for 2"), "{err}");
        }
    }

    #[test]
    fn rejects_invalid_threshold() {
        let df = toy_frame(60);
        let mut rng = StdRng::seed_from_u64(12);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &df, &mut rng).unwrap());
        let gens = standard_tabular_suite(df.schema());
        let bad = ValidatorConfig {
            threshold: 1.5,
            ..ValidatorConfig::fast(0.05)
        };
        assert!(PerformanceValidator::fit(model, &df, &gens, &bad, &mut rng).is_err());
    }

    #[test]
    fn confidence_is_probability() {
        let (validator, serving) = fitted_validator(0.05);
        let outcome = validator.validate(&serving).unwrap();
        assert!((0.0..=1.0).contains(&outcome.confidence));
    }

    #[test]
    fn sketched_validation_agrees_with_exact_on_clean_data() {
        let (validator, serving) = fitted_validator(0.10);
        let proba = validator.model.predict_proba(&serving);
        let exact = validator
            .validate_source(&FeatureSource::Exact(&proba))
            .unwrap();
        let sketch = BatchSketch::from_outputs(&proba);
        let sketched = validator
            .validate_source(&FeatureSource::Sketched(&sketch))
            .unwrap();
        assert_eq!(exact.within_threshold, sketched.within_threshold);
    }

    #[test]
    fn sketched_features_share_layout_and_stay_near_exact() {
        let (validator, serving) = fitted_validator(0.05);
        let proba = validator.model.predict_proba(&serving);
        let exact = validator.featurize(&FeatureSource::Exact(&proba)).unwrap();
        let sketch = BatchSketch::from_outputs(&proba);
        let sketched = validator
            .featurize(&FeatureSource::Sketched(&sketch))
            .unwrap();
        assert_eq!(exact.len(), sketched.len());
        // Percentile block: bounded by the quantile sketches' proven
        // value-error bound. KS block: p-values are smooth in D, so just
        // check the statistics stay close.
        let bound = sketch.value_error_bound() + 1e-12;
        for (a, b) in exact[..42].iter().zip(&sketched[..42]) {
            assert!((a - b).abs() <= bound, "exact {a} sketched {b}");
        }
        for pair in sketched[42..].chunks(2) {
            assert!((0.0..=1.0).contains(&pair[0]));
            assert!((0.0..=1.0).contains(&pair[1]));
        }
    }

    #[test]
    fn sketched_validation_rejects_mismatched_class_count() {
        let (validator, _) = fitted_validator(0.05);
        let sketch = BatchSketch::new(3);
        let err = validator
            .validate_source(&FeatureSource::Sketched(&sketch))
            .unwrap_err();
        assert!(err.message.contains("batch sketch tracks 3"), "{err}");
    }

    /// A remote endpoint that is down for good: every call fails
    /// terminally, so reaching the panicking `predict_proba` fails the test.
    struct Unreachable;

    impl BlackBoxModel for Unreachable {
        fn try_predict_proba(
            &self,
            _data: &DataFrame,
        ) -> Result<DenseMatrix, lvp_models::ModelError> {
            Err(lvp_models::ModelError::transient(
                "endpoint down: retry budget exhausted",
            ))
        }
        fn n_classes(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "unreachable"
        }
    }

    #[test]
    fn terminal_model_failures_are_typed_errors_not_panics() {
        let (validator, serving) = fitted_validator(0.05);
        let down: Arc<dyn BlackBoxModel> = Arc::new(Unreachable);
        let restored =
            PerformanceValidator::from_artifact(validator.to_artifact(), Arc::clone(&down))
                .unwrap();
        let err = restored.validate(&serving).unwrap_err();
        assert!(err.model_error().is_some(), "{err}");

        let gens = standard_tabular_suite(serving.schema());
        let mut rng = StdRng::seed_from_u64(13);
        let config = ValidatorConfig::fast(0.05);
        match PerformanceValidator::fit(down, &serving, &gens, &config, &mut rng) {
            Err(err) => assert!(err.model_error().is_some(), "{err}"),
            Ok(_) => panic!("fit against an unreachable model succeeded"),
        }
    }

    #[test]
    fn test_ecdf_is_a_pure_function_of_the_columns() {
        let (validator, _) = fitted_validator(0.05);
        // The reference sketches equal the ones a serving batch of the same
        // outputs streams into, so sketched KS tests compare like with like.
        let columns = validator.reference.columns().unwrap();
        let rows: Vec<Vec<f64>> = (0..columns[0].len())
            .map(|r| columns.iter().map(|c| c[r]).collect())
            .collect();
        let streamed = BatchSketch::from_outputs(&DenseMatrix::from_rows(&rows).unwrap());
        assert_eq!(validator.reference.ecdfs(), streamed.ecdfs());
    }
}
