//! The learned performance predictor (Algorithms 1 and 2).

use crate::engine::{generate_batches_resilient, GeneratedBatch};
use crate::features::{prediction_statistics, FeatureSource};
use crate::interval::{
    check_interval_alpha, conformal_halfwidth, ScoreInterval, DEFAULT_INTERVAL_ALPHA,
};
use crate::{CoreError, Metric};
use lvp_corruptions::ErrorGen;
use lvp_dataframe::DataFrame;
use lvp_linalg::DenseMatrix;
use lvp_models::forest::{default_forest_grid, ForestConfig, RandomForestRegressor};
use lvp_models::{BlackBoxModel, CV_FOLDS};
use lvp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for fitting a [`PerformancePredictor`].
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Corrupted copies generated per error generator (the paper repeats
    /// 100 times per column/error combination; generators sample their own
    /// column subsets, so this is the total per generator).
    pub runs_per_generator: usize,
    /// Additional uncorrupted copies of the test data (the `p_err = 0`
    /// regime).
    pub clean_copies: usize,
    /// The scoring function of the black box model.
    pub metric: Metric,
    /// Hyperparameter grid for the random-forest meta-model, searched with
    /// [`CV_FOLDS`]-fold cross-validation like the paper's. Configurations
    /// that differ only in `n_trees` share one forest per fold of the
    /// largest count and are scored on its leading trees (see
    /// [`RandomForestRegressor::fit_cv`]), so a grid over tree counts costs
    /// about what its largest member costs alone.
    pub forest_grid: Vec<ForestConfig>,
    /// Fan the generation loop out across threads. The output is
    /// bit-identical to the sequential loop (see [`crate::engine`]), so
    /// this only trades wall-clock time for CPU.
    pub parallel: bool,
    /// Minimum fraction of Algorithm 1 generation tasks that must score
    /// successfully for the fit to proceed. `1.0` (the default) demands
    /// every task succeed; lowering it lets fitting against a flaky remote
    /// model skip-and-record terminally failed batches (see
    /// [`generate_batches_resilient`](crate::generate_batches_resilient)).
    pub min_batch_survival: f64,
    /// Miscoverage rate of the predictor's score intervals: a
    /// `1 - interval_alpha` interval (default 0.1 → a 90% interval).
    pub interval_alpha: f64,
    /// Split-conformal calibration stride over the Algorithm 1 training
    /// examples: every `calibration_stride`-th example (in deterministic
    /// task order) is held out to calibrate interval half-widths from the
    /// held-out absolute residuals of an auxiliary forest fitted on the
    /// rest. The *main* meta-regressor still trains on every example, so
    /// point estimates are unchanged. The default of 2 is the standard
    /// equal split of split-conformal calibration. A stride below 2 (or
    /// too few held-out examples) disables conformal widening — intervals
    /// then fall back to bare ensemble quantiles.
    pub calibration_stride: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            runs_per_generator: 100,
            clean_copies: 10,
            metric: Metric::Accuracy,
            forest_grid: default_forest_grid(),
            parallel: true,
            min_batch_survival: 1.0,
            interval_alpha: DEFAULT_INTERVAL_ALPHA,
            calibration_stride: 2,
        }
    }
}

impl PredictorConfig {
    /// A cheaper configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            runs_per_generator: 25,
            clean_copies: 5,
            forest_grid: vec![ForestConfig {
                n_trees: 25,
                ..ForestConfig::default()
            }],
            ..Self::default()
        }
    }
}

/// One (features, score) pair recorded during Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingExample {
    /// Percentile featurization ζ of the model outputs on one corrupted
    /// copy.
    pub features: Vec<f64>,
    /// True score ℓ of the model on that copy.
    pub score: f64,
    /// Name of the generator that produced the copy.
    pub generator: String,
}

/// A learned performance predictor `h` for a fixed black box model (§3).
///
/// Deployed alongside the model, it estimates the model's score on unseen,
/// unlabeled serving batches from the distribution of the model's outputs.
pub struct PerformancePredictor {
    pub(crate) model: Arc<dyn BlackBoxModel>,
    pub(crate) regressor: RandomForestRegressor,
    pub(crate) metric: Metric,
    pub(crate) test_score: f64,
    /// Expected featurization dimensionality (n_classes × 21).
    pub(crate) n_feature_dims: usize,
    /// Class count the meta-regressor was trained against; serving output
    /// matrices with a different width are rejected.
    pub(crate) n_classes: usize,
    /// Fingerprint of the held-out test frame's schema, when fitting went
    /// through a frame (`None` for `fit_from_examples`, which never sees
    /// one). Serving frames are checked against it before featurization.
    pub(crate) schema_fingerprint: Option<u64>,
    /// Miscoverage rate of the predictor's score intervals.
    pub(crate) interval_alpha: f64,
    /// Sorted held-out absolute residuals of the split-conformal
    /// calibration slice; `None` when calibration was disabled or the
    /// slice was too small (intervals then carry no conformal widening).
    pub(crate) calibration: Option<Vec<f64>>,
}

/// Minimum held-out examples for conformal calibration: below this the
/// order-statistic half-width is dominated by sampling noise, so the
/// predictor falls back to bare ensemble quantiles instead.
const MIN_CALIBRATION: usize = 8;

impl TrainingExample {
    /// Featurizes one Algorithm 1 batch into a training example — the
    /// `featurize` closure [`generate_batches_resilient`] takes when the
    /// caller wants the paper's percentile features.
    pub fn from_batch(batch: GeneratedBatch<'_>) -> Self {
        Self {
            features: prediction_statistics(&batch.proba),
            score: batch.score,
            generator: batch.generator.to_string(),
        }
    }
}

/// The black box's outputs on a serving frame, behind the checks every
/// frame-level entry point runs: the frame must be non-empty and match
/// the fit-time schema fingerprint. Scoring goes through the fallible
/// `try_predict_proba`, so a remote model's terminal failure becomes a
/// [`CoreError`] whose source chain carries the typed `ModelError`
/// instead of a panic.
pub(crate) fn checked_outputs(
    model: &dyn BlackBoxModel,
    schema_fingerprint: Option<u64>,
    frame: &DataFrame,
) -> Result<DenseMatrix, CoreError> {
    if frame.n_rows() == 0 {
        return Err(CoreError::new("serving batch is empty"));
    }
    let actual = frame.schema().fingerprint();
    if let Some(expected) = schema_fingerprint.filter(|&expected| expected != actual) {
        return Err(CoreError::new(format!(
            "serving frame schema fingerprint {actual:#x} does not match \
             the fit-time schema fingerprint {expected:#x}"
        )));
    }
    Ok(model.try_predict_proba(frame)?)
}

impl PerformancePredictor {
    /// Algorithm 1: learns a performance predictor for `model` from
    /// synthetically corrupted copies of the held-out `test` data.
    pub fn fit(
        model: Arc<dyn BlackBoxModel>,
        test: &DataFrame,
        generators: &[Box<dyn ErrorGen>],
        config: &PredictorConfig,
        rng: &mut StdRng,
    ) -> Result<Self, CoreError> {
        Self::fit_instrumented(model, test, generators, config, rng, None)
    }

    /// [`Self::fit`] with optional telemetry: the Algorithm 1 generation
    /// loop records its per-phase timings and batch counters into
    /// `registry` (see [`generate_batches_resilient`]).
    /// The fitted predictor is bit-identical with and without telemetry.
    pub fn fit_instrumented(
        model: Arc<dyn BlackBoxModel>,
        test: &DataFrame,
        generators: &[Box<dyn ErrorGen>],
        config: &PredictorConfig,
        rng: &mut StdRng,
        telemetry: Option<&Registry>,
    ) -> Result<Self, CoreError> {
        if test.n_rows() == 0 {
            return Err(CoreError::new("held-out test data is empty"));
        }
        if generators.is_empty() {
            return Err(CoreError::new("need at least one error generator"));
        }
        // The reference score is not skippable: without it there is no
        // alarm threshold, so a terminal failure here fails the fit (with
        // the typed cause on the error's source chain).
        let test_proba = model.try_predict_proba(test)?;
        let test_score = config.metric.score(&test_proba, test.labels())?;

        let examples = generate_batches_resilient(
            model.as_ref(),
            test,
            generators,
            config.runs_per_generator,
            config.clean_copies,
            config.metric,
            rng.gen(),
            config.parallel,
            config.min_batch_survival,
            telemetry,
            TrainingExample::from_batch,
        )?
        .results;
        let mut predictor = Self::fit_from_examples(model, examples, test_score, config, rng)?;
        predictor.schema_fingerprint = Some(test.schema().fingerprint());
        Ok(predictor)
    }

    /// Trains the meta-regressor on pre-generated examples (used by the
    /// ablation benches to swap featurizations or meta-models).
    pub fn fit_from_examples(
        model: Arc<dyn BlackBoxModel>,
        examples: Vec<TrainingExample>,
        test_score: f64,
        config: &PredictorConfig,
        rng: &mut StdRng,
    ) -> Result<Self, CoreError> {
        if examples.is_empty() {
            return Err(CoreError::new("no training examples generated"));
        }
        check_interval_alpha(config.interval_alpha)?;
        let model_classes = model.n_classes();
        let n_feature_dims = examples[0].features.len();
        let rows: Vec<Vec<f64>> = examples.iter().map(|e| e.features.clone()).collect();
        let x = DenseMatrix::from_rows(&rows)
            .map_err(|e| CoreError::new(format!("feature matrix: {e}")))?;
        let targets: Vec<f64> = examples.iter().map(|e| e.score).collect();
        // The main meta-regressor trains on *every* example, exactly as
        // before intervals existed — point estimates stay bit-identical.
        // Its forest seed is drawn first, the calibration seed after, so
        // adding calibration never perturbs the main forest's RNG stream.
        let mut forest_rng = StdRng::seed_from_u64(rng.gen());
        let (regressor, _) = RandomForestRegressor::fit_cv(
            &x,
            &targets,
            &config.forest_grid,
            CV_FOLDS,
            &mut forest_rng,
        )?;
        let calibration = Self::calibrate_residuals(&x, &targets, config, rng)?;
        Ok(Self {
            model,
            n_classes: model_classes,
            regressor,
            metric: config.metric,
            test_score,
            n_feature_dims,
            schema_fingerprint: None,
            interval_alpha: config.interval_alpha,
            calibration,
        })
    }

    /// Split-conformal calibration (Elder et al.): hold out every
    /// `calibration_stride`-th training example, fit an auxiliary forest
    /// on the rest, and record the sorted absolute residuals on the
    /// held-out slice. The examples arrive in deterministic task order
    /// (generator-major, clean stream last — see [`crate::engine`]), so
    /// the index-stride split is bit-identical at any thread count.
    fn calibrate_residuals(
        x: &DenseMatrix,
        targets: &[f64],
        config: &PredictorConfig,
        rng: &mut StdRng,
    ) -> Result<Option<Vec<f64>>, CoreError> {
        let stride = config.calibration_stride;
        if stride < 2 {
            return Ok(None);
        }
        let held_out: Vec<usize> = (0..x.rows()).filter(|i| i % stride == stride - 1).collect();
        let fit_idx: Vec<usize> = (0..x.rows()).filter(|i| i % stride != stride - 1).collect();
        if held_out.len() < MIN_CALIBRATION || fit_idx.is_empty() {
            return Ok(None);
        }
        let aux_config = config
            .forest_grid
            .first()
            .copied()
            .ok_or_else(|| CoreError::new("empty forest grid"))?;
        let mut aux_rng = StdRng::seed_from_u64(rng.gen());
        let x_fit = x.select_rows(&fit_idx);
        let y_fit: Vec<f64> = fit_idx.iter().map(|&i| targets[i]).collect();
        let aux = RandomForestRegressor::fit(&x_fit, &y_fit, &aux_config, &mut aux_rng)?;
        let predictions = aux.predict(&x.select_rows(&held_out));
        let mut residuals: Vec<f64> = predictions
            .iter()
            .zip(held_out.iter().map(|&i| targets[i]))
            .map(|(&p, y)| (p.clamp(0.0, 1.0) - y).abs())
            .collect();
        residuals.sort_by(f64::total_cmp);
        Ok(Some(residuals))
    }

    /// Algorithm 2: estimates the model's score on an unseen, unlabeled
    /// serving batch — the `point` of [`Self::predict_interval`].
    pub fn predict(&self, serving: &DataFrame) -> Result<f64, CoreError> {
        Ok(self.predict_interval(serving)?.point)
    }

    /// Algorithm 2 with uncertainty: estimates the model's score on an
    /// unseen serving batch as a calibrated [`ScoreInterval`] (see
    /// [`Self::predict_source`]).
    pub fn predict_interval(&self, serving: &DataFrame) -> Result<ScoreInterval, CoreError> {
        let proba = self.model_outputs(serving)?;
        self.predict_source(&FeatureSource::Exact(&proba))
    }

    /// The black box model's raw outputs on a non-empty, schema-checked
    /// frame (no score estimation).
    pub fn model_outputs(&self, frame: &DataFrame) -> Result<DenseMatrix, CoreError> {
        checked_outputs(self.model.as_ref(), self.schema_fingerprint, frame)
    }

    /// Estimates the score of one batch of model outputs — a materialized
    /// matrix or streamed sketch state (within the sketches' proven error
    /// bound of the exact path) — as a calibrated [`ScoreInterval`]. Every
    /// input form scores through here; the source must pass
    /// [`Self::check_source`].
    ///
    /// The point is the per-tree mean (summed in tree order — bit-identical
    /// to the forest's ensemble prediction), the raw bounds are the
    /// `alpha/2` and `1 - alpha/2` ensemble quantiles, and the conformal
    /// half-width widens them symmetrically. Both the quantile edges and
    /// the residual order statistic budget `alpha/2` miscoverage *per
    /// side* (a Bonferroni split of the two-sided `alpha`), so the widened
    /// interval stays valid even though the half-width is applied to each
    /// edge separately. Bounds are clamped into `[0, 1]` and then snapped
    /// outward so the invariant `lo ≤ point ≤ hi` always holds.
    pub fn predict_source(&self, source: &FeatureSource<'_>) -> Result<ScoreInterval, CoreError> {
        self.check_source(source)?;
        let features = source.percentile_features();
        if features.len() != self.n_feature_dims {
            return Err(CoreError::new(format!(
                "featurization produced {} dims but the meta-regressor \
                 expects {}",
                features.len(),
                self.n_feature_dims
            )));
        }
        let per_tree = self.regressor.predict_per_tree_row(&features);
        let point = (per_tree.iter().sum::<f64>() / per_tree.len() as f64).clamp(0.0, 1.0);
        let mut sorted = per_tree;
        sorted.sort_by(f64::total_cmp);
        let alpha = self.interval_alpha;
        let q_lo = lvp_stats::percentile_sorted(&sorted, 100.0 * (alpha / 2.0));
        let q_hi = lvp_stats::percentile_sorted(&sorted, 100.0 * (1.0 - alpha / 2.0));
        let halfwidth = self
            .calibration
            .as_deref()
            .map_or(0.0, |residuals| conformal_halfwidth(residuals, 0.5 * alpha));
        Ok(ScoreInterval {
            point,
            lo: (q_lo - halfwidth).clamp(0.0, 1.0).min(point),
            hi: (q_hi + halfwidth).clamp(0.0, 1.0).max(point),
            alpha,
        })
    }

    /// The class-count check of [`Self::predict_source`]: a mismatched
    /// width would misalign every percentile block the meta-regressor
    /// consumes, so it is rejected. Exposed so callers can reject a batch
    /// before committing to it.
    pub fn check_source(&self, source: &FeatureSource<'_>) -> Result<(), CoreError> {
        source.check_classes(self.n_classes, "predictor")
    }

    /// The model's score on the held-out test data (the reference point for
    /// alarm thresholds).
    pub fn test_score(&self) -> f64 {
        self.test_score
    }

    /// The scoring function the predictor estimates.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Miscoverage rate of the predictor's score intervals.
    pub fn interval_alpha(&self) -> f64 {
        self.interval_alpha
    }

    /// The sorted held-out conformal calibration residuals, when
    /// calibration ran at fit time.
    pub fn calibration_residuals(&self) -> Option<&[f64]> {
        self.calibration.as_deref()
    }

    /// Class count the predictor was fitted against.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Fingerprint of the fit-time test schema, when known.
    pub fn schema_fingerprint(&self) -> Option<u64> {
        self.schema_fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_corruptions::{standard_tabular_suite, MissingValues};
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, ModelKind};

    fn fitted_predictor() -> (PerformancePredictor, DataFrame) {
        let df = toy_frame(300);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let predictor =
            PerformancePredictor::fit(model, &test, &gens, &PredictorConfig::fast(), &mut rng)
                .unwrap();
        (predictor, serving)
    }

    #[test]
    fn clean_serving_data_scores_near_test_score() {
        let (predictor, serving) = fitted_predictor();
        let estimate = predictor.predict(&serving).unwrap();
        assert!(
            (estimate - predictor.test_score()).abs() < 0.15,
            "estimate {estimate} vs test {}",
            predictor.test_score()
        );
    }

    #[test]
    fn heavy_corruption_lowers_the_estimate() {
        let (predictor, serving) = fitted_predictor();
        // Null out the label-revealing categorical column everywhere.
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        let clean_est = predictor.predict(&serving).unwrap();
        let corrupt_est = predictor.predict(&corrupted).unwrap();
        assert!(
            corrupt_est < clean_est - 0.1,
            "clean {clean_est} vs corrupt {corrupt_est}"
        );
    }

    #[test]
    fn interval_brackets_the_point_estimate_and_covers_clean_batches() {
        let (predictor, serving) = fitted_predictor();
        let interval = predictor.predict_interval(&serving).unwrap();
        interval.validate().unwrap();
        assert_eq!(interval.alpha, 0.1);
        assert!(interval.lo <= interval.point && interval.point <= interval.hi);
        assert!((0.0..=1.0).contains(&interval.lo) && (0.0..=1.0).contains(&interval.hi));
        // The point is bit-identical to the point API.
        let point = predictor.predict(&serving).unwrap();
        assert_eq!(interval.point.to_bits(), point.to_bits());
        // Conformal calibration ran (fast config: 25·4 + 5 = 105 examples,
        // stride 2 → 52 held out) and widens the interval.
        let residuals = predictor.calibration_residuals().unwrap();
        assert!(residuals.len() >= 20, "{}", residuals.len());
        assert!(residuals.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(interval.width() > 0.0);
        // The calibrated 90% interval covers the test score on clean data —
        // the honest version of the old hand-tuned threshold contract.
        assert!(
            interval.contains(predictor.test_score()),
            "test score {} outside [{}, {}]",
            predictor.test_score(),
            interval.lo,
            interval.hi
        );
    }

    #[test]
    fn corruption_pushes_the_interval_below_the_test_score() {
        let (predictor, serving) = fitted_predictor();
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        let clean = predictor.predict_interval(&serving).unwrap();
        let corrupt = predictor.predict_interval(&corrupted).unwrap();
        assert!(corrupt.point < clean.point - 0.1);
        assert!(
            !corrupt.contains(predictor.test_score()),
            "corrupted interval [{}, {}] still covers test score {}",
            corrupt.lo,
            corrupt.hi,
            predictor.test_score()
        );
    }

    #[test]
    fn interval_paths_agree_on_outputs_and_sketches() {
        let (predictor, serving) = fitted_predictor();
        let interval = predictor.predict_interval(&serving).unwrap();
        let proba = predictor.model_outputs(&serving).unwrap();
        let from_outputs = predictor
            .predict_source(&FeatureSource::Exact(&proba))
            .unwrap();
        assert_eq!(interval, from_outputs);
        // The sketch path answers within the sketch error bound, with the
        // same invariants.
        let sketch = crate::BatchSketch::from_outputs(&proba);
        let from_sketch = predictor
            .predict_source(&FeatureSource::Sketched(&sketch))
            .unwrap();
        from_sketch.validate().unwrap();
        assert!((from_sketch.point - interval.point).abs() < 0.05);
    }

    #[test]
    fn disabling_calibration_falls_back_to_ensemble_quantiles() {
        let df = toy_frame(300);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let config = PredictorConfig {
            calibration_stride: 0,
            ..PredictorConfig::fast()
        };
        let predictor = PerformancePredictor::fit(model, &test, &gens, &config, &mut rng).unwrap();
        assert!(predictor.calibration_residuals().is_none());
        let interval = predictor.predict_interval(&serving).unwrap();
        interval.validate().unwrap();
        assert!(interval.lo <= interval.point && interval.point <= interval.hi);
    }

    #[test]
    fn invalid_interval_alpha_is_rejected_at_fit_time() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(5);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &df, &mut rng).unwrap());
        let gens = standard_tabular_suite(df.schema());
        for alpha in [0.0, 1.0, f64::NAN] {
            let config = PredictorConfig {
                interval_alpha: alpha,
                ..PredictorConfig::fast()
            };
            let err = match PerformancePredictor::fit(
                Arc::clone(&model),
                &df,
                &gens,
                &config,
                &mut rng,
            ) {
                Err(err) => err,
                Ok(_) => panic!("alpha {alpha} accepted"),
            };
            assert!(err.message.contains("interval_alpha"), "{err}");
        }
    }

    #[test]
    fn empty_forest_grid_is_an_error_not_a_panic() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(6);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &df, &mut rng).unwrap());
        let gens = standard_tabular_suite(df.schema());
        let config = PredictorConfig {
            forest_grid: vec![],
            ..PredictorConfig::fast()
        };
        let err = match PerformancePredictor::fit(model, &df, &gens, &config, &mut rng) {
            Err(err) => err,
            Ok(_) => panic!("an empty forest grid was accepted"),
        };
        assert!(err.message.contains("empty hyperparameter grid"), "{err}");
    }

    #[test]
    fn predictions_are_clamped_to_unit_interval() {
        let (predictor, serving) = fitted_predictor();
        let est = predictor.predict(&serving).unwrap();
        assert!((0.0..=1.0).contains(&est));
    }

    #[test]
    fn rejects_empty_inputs() {
        let df = toy_frame(50);
        let mut rng = StdRng::seed_from_u64(2);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &df, &mut rng).unwrap());
        let empty = df.select_rows(&[]);
        let gens = standard_tabular_suite(df.schema());
        assert!(PerformancePredictor::fit(
            model.clone(),
            &empty,
            &gens,
            &PredictorConfig::fast(),
            &mut rng
        )
        .is_err());
        assert!(
            PerformancePredictor::fit(model, &df, &[], &PredictorConfig::fast(), &mut rng).is_err()
        );
    }

    #[test]
    fn wrong_class_count_outputs_are_rejected_in_release_builds_too() {
        let (predictor, _) = fitted_predictor();
        // Three class columns against a two-class predictor: previously a
        // debug_assert, now a real error in every build profile.
        let wide = DenseMatrix::from_vec(4, 3, vec![1.0 / 3.0; 12]).unwrap();
        let err = predictor
            .predict_source(&FeatureSource::Exact(&wide))
            .unwrap_err();
        assert!(
            err.message.contains("output matrix has 3 class columns"),
            "{err}"
        );
        let narrow = DenseMatrix::from_vec(4, 1, vec![1.0; 4]).unwrap();
        assert!(predictor
            .predict_source(&FeatureSource::Exact(&narrow))
            .is_err());
        let sketch = crate::BatchSketch::new(3);
        let err = predictor
            .predict_source(&FeatureSource::Sketched(&sketch))
            .unwrap_err();
        assert!(
            err.message.contains("batch sketch tracks 3 class columns"),
            "{err}"
        );
    }

    #[test]
    fn mismatched_serving_schema_is_rejected() {
        let (predictor, serving) = fitted_predictor();
        assert!(predictor.schema_fingerprint().is_some());
        // A frame with a different schema (same column types, one column
        // renamed) must be rejected before the model ever sees it.
        use lvp_dataframe::{CellValue, ColumnType, DataFrameBuilder, Field, Schema};
        let schema = Schema::new(vec![
            Field::new("x_renamed", ColumnType::Numeric),
            Field::new("c", ColumnType::Categorical),
        ])
        .unwrap();
        let mut b = DataFrameBuilder::new(schema, vec!["no".into(), "yes".into()]);
        for i in 0..40u32 {
            b.push_row(
                vec![CellValue::Num(f64::from(i)), CellValue::Cat("even".into())],
                i % 2,
            )
            .unwrap();
        }
        let other = b.finish().unwrap();
        let err = predictor.predict(&other).unwrap_err();
        assert!(err.message.contains("schema fingerprint"), "{err}");
        // The matching frame still passes.
        assert!(predictor.predict(&serving).is_ok());
    }

    #[test]
    fn training_examples_carry_generator_names() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(3);
        let model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let gens: Vec<Box<dyn ErrorGen>> =
            vec![Box::new(MissingValues::all_categorical(df.schema()))];
        let ex = generate_batches_resilient(
            model.as_ref(),
            &df,
            &gens,
            5,
            2,
            Metric::Accuracy,
            rng.gen(),
            true,
            1.0,
            None,
            TrainingExample::from_batch,
        )
        .unwrap()
        .results;
        assert_eq!(ex.len(), 7);
        assert_eq!(ex[0].generator, "missing_values");
        assert_eq!(ex[6].generator, "clean");
        assert!(ex.iter().all(|e| (0.0..=1.0).contains(&e.score)));
        assert!(ex.iter().all(|e| e.features.len() == 42));
    }
}
