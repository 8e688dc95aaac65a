//! Learning to validate the predictions of black box classifiers — the
//! paper's core contribution.
//!
//! Given a pretrained black box model `f∘φ`, a held-out labeled test set and
//! a set of user-specified error generators, this crate learns:
//!
//! * a **performance predictor** ([`PerformancePredictor`], Algorithms 1 &
//!   2): a random-forest regressor that estimates the model's score on an
//!   unseen, *unlabeled* serving batch from class-wise percentiles of the
//!   model's output distribution;
//! * a **performance validator** ([`PerformanceValidator`], §2/§4): a
//!   gradient-boosted classifier that decides whether the score on the
//!   serving batch is within a user-chosen threshold `t` of the test score,
//!   using the percentile features plus Kolmogorov–Smirnov statistics
//!   between the serving-time and (retained) test-time model outputs;
//! * the three task-independent **baselines** it is evaluated against
//!   (§6.2): [`RelationalShiftDetector`] (univariate tests on raw inputs),
//!   [`BbseDetector`] (KS on softmax outputs, Lipton et al.) and
//!   [`BbseHardDetector`] (χ² on predicted-class counts, Rabanser et al.).

mod baselines;
pub mod engine;
mod features;
mod interval;
mod monitor;
mod persistence;
mod predictor;
mod validator;

pub use baselines::{Baseline, BbseDetector, BbseHardDetector, RelationalShiftDetector};
pub use engine::{
    generate_batches_resilient, subsample_lower_bound, GeneratedBatch, GenerationOutcome,
    SkippedBatch,
};
pub use features::{feature_dimensionality, prediction_statistics, BatchSketch, FeatureSource};
pub use interval::{conformal_halfwidth, ScoreInterval, DEFAULT_INTERVAL_ALPHA};
pub use monitor::{
    AlarmMode, BatchMonitor, BatchReport, BatchTelemetry, ClassDrift, MonitorPolicy,
};
pub use persistence::{
    atomic_write_durable, check_version, checksum64, from_json, is_enveloped, load_json, save_json,
    to_json, unwrap_envelope, wrap_envelope, MonitorArtifact, PredictorArtifact, ServingArtifact,
    ValidatorArtifact, ARTIFACT_VERSION, ENVELOPE_MAGIC,
};
pub use predictor::{PerformancePredictor, PredictorConfig, TrainingExample};
pub use validator::{PerformanceValidator, ValidationOutcome, ValidatorConfig};

use lvp_linalg::DenseMatrix;

/// The scoring function `L` the black box model is known to optimize (§2).
/// Artifacts serialize it as its variant name: `"Accuracy"` or `"Auc"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Metric {
    /// Classification accuracy.
    #[default]
    Accuracy,
    /// Area under the ROC curve (binary tasks).
    Auc,
}

impl Metric {
    /// Computes the metric from a probability matrix and true labels.
    ///
    /// [`Metric::Auc`] requires exactly two probability columns: scoring a
    /// degenerate single-column or multiclass matrix is rejected rather
    /// than silently ranking an arbitrary column.
    pub fn score(self, proba: &DenseMatrix, labels: &[u32]) -> Result<f64, CoreError> {
        self.validate_n_classes(proba.cols())?;
        match self {
            Metric::Accuracy => {
                let truth: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
                Ok(lvp_stats::accuracy(&proba.argmax_rows(), &truth))
            }
            Metric::Auc => {
                let scores = proba.column(1);
                let truth: Vec<bool> = labels.iter().map(|&l| l == 1).collect();
                Ok(lvp_stats::auc_binary(&scores, &truth))
            }
        }
    }

    /// Checks up front that this metric can score a model with `n_classes`
    /// output columns, so batch-generation loops fail fast instead of on
    /// the first scored batch.
    pub(crate) fn validate_n_classes(self, n_classes: usize) -> Result<(), CoreError> {
        match self {
            Metric::Accuracy => Ok(()),
            Metric::Auc if n_classes == 2 => Ok(()),
            Metric::Auc => Err(CoreError::new(format!(
                "AUC requires a binary model with 2 probability columns, got {n_classes}"
            ))),
        }
    }
}

/// Machine-readable classification of a [`CoreError`], so callers can
/// drive policy without parsing messages. Today the non-`Other` kinds all
/// come from the persistence layer: a monitoring daemon recovering its
/// state needs to distinguish "the artifact file is damaged" (truncation,
/// bit rot — restore from a replica, alarm loudly) from a plain I/O
/// failure or a semantic version mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreErrorKind {
    /// Anything without a more specific classification.
    Other,
    /// A filesystem operation failed.
    Io,
    /// A persisted artifact ends before its declared payload length —
    /// the signature of a crash mid-write.
    Truncated,
    /// A persisted artifact's payload does not match its recorded
    /// checksum — bit rot, or an overwrite by something else.
    ChecksumMismatch,
    /// A persisted artifact's envelope header is malformed.
    CorruptHeader,
}

/// Errors produced while fitting or applying predictors and validators.
///
/// Wrapped failures (notably [`lvp_models::ModelError`]s from a remote
/// serving path) are kept as a proper `source` chain rather than being
/// stringified, so callers can walk [`std::error::Error::source`] — or use
/// [`CoreError::model_error`] — to recover the typed cause and decide, for
/// instance, whether a failed batch is retryable/degradable. Persistence
/// failures additionally carry a [`CoreErrorKind`] so integrity damage
/// (truncation, checksum mismatch) is distinguishable from ordinary I/O.
#[derive(Debug)]
pub struct CoreError {
    /// Human-readable description.
    pub message: String,
    /// Machine-readable classification.
    kind: CoreErrorKind,
    /// The underlying cause, when this error wraps a lower-level failure.
    source: Option<Box<dyn std::error::Error + Send + Sync>>,
}

impl CoreError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            kind: CoreErrorKind::Other,
            source: None,
        }
    }

    pub(crate) fn with_kind(kind: CoreErrorKind, message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            kind,
            source: None,
        }
    }

    pub(crate) fn with_source(
        message: impl Into<String>,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        Self {
            message: message.into(),
            kind: CoreErrorKind::Other,
            source: Some(Box::new(source)),
        }
    }

    /// Machine-readable classification of this error (persistence
    /// integrity failures are the typed ones; everything else is
    /// [`CoreErrorKind::Other`]).
    pub fn kind(&self) -> CoreErrorKind {
        self.kind
    }

    /// The wrapped [`lvp_models::ModelError`], if this error originated in
    /// the model-serving layer. Drives the monitor's degradation decision:
    /// a serving failure degrades the batch, anything else stays fatal.
    pub fn model_error(&self) -> Option<&lvp_models::ModelError> {
        self.source
            .as_deref()
            .and_then(|s| s.downcast_ref::<lvp_models::ModelError>())
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core error: {}", self.message)
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|s| s as &(dyn std::error::Error + 'static))
    }
}

impl From<lvp_models::ModelError> for CoreError {
    fn from(e: lvp_models::ModelError) -> Self {
        CoreError::with_source(e.message.clone(), e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_accuracy_from_proba() {
        let proba = DenseMatrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
        assert_eq!(Metric::Accuracy.score(&proba, &[0, 1]).unwrap(), 1.0);
        assert_eq!(Metric::Accuracy.score(&proba, &[1, 0]).unwrap(), 0.0);
    }

    #[test]
    fn metric_auc_from_proba() {
        let proba =
            DenseMatrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9], vec![0.6, 0.4]]).unwrap();
        // class-1 scores: 0.1, 0.9, 0.4; labels 0, 1, 0 → perfect ranking.
        assert_eq!(Metric::Auc.score(&proba, &[0, 1, 0]).unwrap(), 1.0);
    }

    #[test]
    fn metric_auc_rejects_non_binary_probability_matrices() {
        // A degenerate single-column matrix used to be scored silently
        // against column 0; it must now be an error.
        let one_col = DenseMatrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let err = Metric::Auc.score(&one_col, &[0, 1]).unwrap_err();
        assert!(err.message.contains("2 probability columns"), "{err}");
        // Multiclass output is equally unscoreable with binary AUC.
        let three_col =
            DenseMatrix::from_rows(&[vec![0.2, 0.3, 0.5], vec![0.1, 0.8, 0.1]]).unwrap();
        assert!(Metric::Auc.score(&three_col, &[0, 1]).is_err());
        // Accuracy is class-count agnostic.
        assert!(Metric::Accuracy.score(&three_col, &[2, 1]).is_ok());
    }
}
