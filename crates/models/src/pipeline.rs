//! Black box pipelines: a private feature map plus a private classifier,
//! exposed only through [`BlackBoxModel`].

use crate::convnet::{ConvNet, ConvNetConfig};
use crate::featurize::{FeaturePipeline, PipelineConfig};
use crate::gbdt::{default_gbdt_grid, GbdtClassifier, GbdtConfig};
use crate::linear::{default_lr_grid, LogisticRegression, LrConfig};
use crate::mlp::{default_mlp_grid, MlpConfig, NeuralNet};
use crate::{BlackBoxModel, Classifier, ModelError};
use lvp_dataframe::DataFrame;
use lvp_linalg::{CsrMatrix, DenseMatrix};
use lvp_telemetry::{Counter, Histogram, Registry, Span};
use rand::Rng;

/// A feature pipeline and classifier bundled behind the black box contract.
///
/// Neither the fitted feature map nor the classifier is reachable from the
/// outside — downstream consumers can only score raw tuples through
/// [`BlackBoxModel::try_predict_proba`], matching the paper's
/// problem statement. Serving featurizes through
/// [`FeaturePipeline::transform`], the same path training used.
pub(crate) struct PipelineModel {
    featurizer: FeaturePipeline,
    classifier: Box<dyn Classifier>,
    name: String,
    telemetry: Option<PredictTelemetry>,
}

/// Pre-resolved registry handles for the scoring hot path: pure
/// atomics per call, no name lookups.
struct PredictTelemetry {
    calls: Counter,
    rows: Counter,
    latency: Histogram,
}

impl BlackBoxModel for PipelineModel {
    /// Rejects a frame whose columns differ in count or kind from the ones
    /// the pipeline was fitted on, instead of panicking or encoding a
    /// mismatched column as missing.
    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        self.featurizer
            .check_frame(data)
            .map_err(ModelError::invalid_input)?;
        let _span = self.telemetry.as_ref().map(|t| {
            t.calls.inc();
            t.rows.add(data.n_rows() as u64);
            Span::new(t.latency.clone())
        });
        Ok(self
            .classifier
            .predict_proba(&self.featurizer.transform(data)))
    }

    fn n_classes(&self) -> usize {
        self.classifier.n_classes()
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Registers `model.predict.{calls,rows,latency}`. Call/row totals are
    /// deterministic for a seeded workload; latency buckets are wall-clock,
    /// so they stay out of deterministic snapshot views.
    fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(PredictTelemetry {
            calls: registry.counter("model.predict.calls"),
            rows: registry.counter("model.predict.rows"),
            latency: registry.histogram("model.predict.latency"),
        });
    }
}

/// The model families evaluated in the paper (§6 "Models").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression (`lr`).
    Lr,
    /// Feed-forward neural network (`dnn`).
    Dnn,
    /// Gradient-boosted decision trees (`xgb`).
    Xgb,
    /// Convolutional network (`conv`), image data only.
    Conv,
}

impl ModelKind {
    /// The tabular model families (everything except `conv`).
    pub const TABULAR: [ModelKind; 3] = [ModelKind::Lr, ModelKind::Dnn, ModelKind::Xgb];

    /// The paper's short name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lr => "lr",
            ModelKind::Dnn => "dnn",
            ModelKind::Xgb => "xgb",
            ModelKind::Conv => "conv",
        }
    }
}

/// Number of folds used for every cross-validated fit (the paper uses 5).
pub const CV_FOLDS: usize = 5;

/// Side length of the images in `train`'s first non-empty image column;
/// `who` names the caller in the error for a frame without images.
pub(crate) fn image_side(train: &DataFrame, who: &str) -> Result<usize, ModelError> {
    for i in train.schema().image_columns() {
        if let Ok(images) = train.column(i).as_image() {
            if let Some(img) = images.iter().flatten().next() {
                return Ok(img.width);
            }
        }
    }
    Err(ModelError::new(format!("{who} requires an image column")))
}

/// Builds a black box: fits the feature pipeline on `train`, trains a
/// classifier on the features with `fit(x, labels, n_classes)`, and seals
/// both into a [`PipelineModel`] named `name`.
pub(crate) fn seal(
    train: &DataFrame,
    pipeline_config: &PipelineConfig,
    name: &str,
    fit: impl FnOnce(&CsrMatrix, &[u32], usize) -> Result<Box<dyn Classifier>, ModelError>,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let featurizer = FeaturePipeline::fit(train, pipeline_config);
    let x = featurizer.transform(train);
    let classifier = fit(&x, train.labels(), train.n_classes())?;
    Ok(Box::new(PipelineModel {
        featurizer,
        classifier,
        name: name.to_string(),
        telemetry: None,
    }))
}

/// Trains the requested model family with its default CV protocol: a
/// [`CV_FOLDS`]-fold grid search over the family's default grid (the
/// convnet trains its one scaled configuration, see DESIGN.md).
pub fn train_model(
    kind: ModelKind,
    train: &DataFrame,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    seal(
        train,
        &PipelineConfig::default(),
        kind.name(),
        |x, labels, m| {
            Ok(match kind {
                ModelKind::Lr => Box::new(
                    LogisticRegression::fit_cv(x, labels, m, &default_lr_grid(), CV_FOLDS, rng)?.0,
                ),
                ModelKind::Dnn => {
                    Box::new(NeuralNet::fit_cv(x, labels, m, &default_mlp_grid(), CV_FOLDS, rng)?.0)
                }
                ModelKind::Xgb => Box::new(
                    GbdtClassifier::fit_cv(x, labels, m, &default_gbdt_grid(), CV_FOLDS, rng)?.0,
                ),
                ModelKind::Conv => {
                    let cfg = ConvNetConfig::small(image_side(train, "convnet")?);
                    Box::new(ConvNet::fit(x, labels, m, &cfg, rng)?)
                }
            })
        },
    )
}

/// Trains the requested model family with fixed default hyperparameters,
/// skipping the cross-validated grid search. Used by the smoke-scale
/// experiment harness where wall-clock matters more than the last accuracy
/// point; `--scale paper` runs keep the full CV protocol via
/// [`train_model`].
pub fn train_model_quick(
    kind: ModelKind,
    train: &DataFrame,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    // High-dimensional hashed text blows up exact-split tree training;
    // quick mode trades hash buckets for wall-clock (the full CV protocol
    // of `train_model` keeps the default dimensionality).
    let has_text = !train.schema().text_columns().is_empty();
    let pipeline_config = if has_text {
        PipelineConfig {
            text_buckets: 512,
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig::default()
    };
    seal(train, &pipeline_config, kind.name(), |x, labels, m| {
        Ok(match kind {
            ModelKind::Lr => Box::new(LogisticRegression::fit(
                x,
                labels,
                m,
                &LrConfig::default(),
                rng,
            )?),
            ModelKind::Dnn => Box::new(NeuralNet::fit(x, labels, m, &MlpConfig::default(), rng)?),
            ModelKind::Xgb => Box::new(GbdtClassifier::fit(
                x,
                labels,
                m,
                &GbdtConfig {
                    colsample: if has_text { 0.2 } else { 0.8 },
                    ..GbdtConfig::default()
                },
                rng,
            )?),
            ModelKind::Conv => {
                let cfg = ConvNetConfig::small(image_side(train, "convnet")?);
                Box::new(ConvNet::fit(x, labels, m, &cfg, rng)?)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_accuracy;
    use lvp_dataframe::{toy_frame, Column, ColumnType, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pipeline_model_hides_internals_and_predicts() {
        let df = toy_frame(60);
        let mut rng = StdRng::seed_from_u64(1);
        let model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        assert_eq!(model.name(), "lr");
        assert_eq!(model.n_classes(), 2);
        let p = model.predict_proba(&df);
        assert_eq!(p.rows(), 60);
        assert_eq!(p.cols(), 2);
        // toy_frame's label is perfectly encoded in the categorical column.
        assert!(model_accuracy(model.as_ref(), &df) > 0.95);
    }

    #[test]
    fn try_predict_proba_rejects_frames_the_pipeline_was_not_fitted_for() {
        let df = lvp_datasets::income(80, &mut StdRng::seed_from_u64(5));
        let model = train_model_quick(ModelKind::Lr, &df, &mut StdRng::seed_from_u64(6)).unwrap();
        assert_eq!(
            model.try_predict_proba(&df).unwrap(),
            model.predict_proba(&df)
        );
        let expect_invalid = |frame: &DataFrame, needle: &str| {
            let err = model.try_predict_proba(frame).unwrap_err();
            assert_eq!(err.kind, crate::ModelErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        };
        // One column fewer: the last fitted column is missing.
        let last = df.n_cols() - 1;
        let short = DataFrame::new(
            Schema::new(df.schema().fields()[..last].to_vec()).unwrap(),
            (0..last).map(|i| df.column(i).clone()).collect(),
            df.labels().to_vec(),
            df.label_names().to_vec(),
        )
        .unwrap();
        expect_invalid(&short, &format!("column {last}: "));
        // A numeric column where a categorical one was fitted.
        let cat = df.schema().categorical_columns()[0];
        let mut fields = df.schema().fields().to_vec();
        fields[cat].ty = ColumnType::Numeric;
        let mut columns: Vec<Column> = (0..df.n_cols()).map(|i| df.column(i).clone()).collect();
        columns[cat] = Column::Numeric(vec![Some(1.0); df.n_rows()]);
        let retyped = DataFrame::new(
            Schema::new(fields).unwrap(),
            columns,
            df.labels().to_vec(),
            df.label_names().to_vec(),
        )
        .unwrap();
        let column = format!("column {cat} ('{}')", df.schema().field(cat).name);
        expect_invalid(&retyped, &column);
        // `predict_proba` runs the same check: it panics naming the column
        // rather than scoring the column as all-missing.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predict_proba(&retyped)
        }))
        .unwrap_err();
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with("black box `lr` failed to score: model error: "));
        assert!(message.contains(&column), "{message}");
    }

    #[test]
    fn attached_telemetry_counts_calls_and_rows() {
        let df = toy_frame(40);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let registry = Registry::new();
        model.attach_telemetry(&registry);
        let reference = {
            let mut rng = StdRng::seed_from_u64(4);
            train_model(ModelKind::Lr, &df, &mut rng)
                .unwrap()
                .predict_proba(&df)
        };
        // Instrumentation must not change the outputs.
        assert_eq!(model.predict_proba(&df), reference);
        assert_eq!(model.predict_proba(&df), reference);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["model.predict.calls"], 2);
        assert_eq!(snap.counters["model.predict.rows"], 80);
        let h = &snap.histograms["model.predict.latency"];
        assert_eq!(h.count, 2);
        assert_eq!(h.bucket_total(), h.count);
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Lr.name(), "lr");
        assert_eq!(ModelKind::Conv.name(), "conv");
        assert_eq!(ModelKind::TABULAR.len(), 3);
    }

    #[test]
    fn convnet_requires_images() {
        let df = toy_frame(10);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(train_model(ModelKind::Conv, &df, &mut rng).is_err());
    }
}
