//! From-scratch classifier and regressor implementations, exposed to the
//! rest of the workspace strictly as black boxes.
//!
//! The paper treats the deployed model as a black box: an executable that
//! maps raw relational tuples to class probabilities through an *unknown*
//! feature map φ and prediction function f. This crate enforces that
//! contract in the type system: downstream crates (notably `lvp-core`) only
//! ever see the [`BlackBoxModel`] trait, which exposes `predict_proba` on a
//! raw [`DataFrame`] and nothing else.
//!
//! Model families (matching §6 "Models" of the paper):
//!
//! * [`linear::LogisticRegression`] (`lr`) — multinomial logistic regression
//!   trained with minibatch SGD, grid-searched over regularization and
//!   learning rate with k-fold cross-validation,
//! * [`mlp::NeuralNet`] (`dnn`) — two ReLU hidden layers + softmax output,
//!   trained with Adam, grid-searched over layer sizes,
//! * [`gbdt::GbdtClassifier`] (`xgb`) — second-order (Newton) gradient
//!   boosted regression trees on logistic loss,
//! * [`convnet::ConvNet`] (`conv`) — conv(32)→conv(64)→maxpool→dense(128)
//!   with ReLU and dropout for the image tasks,
//! * [`forest::RandomForestRegressor`] — the meta-model of the paper's
//!   performance predictor,
//! * [`automl`] — three AutoML-style searchers producing opaque pipelines,
//! * [`cloud`] — a simulated cloud prediction service (Google AutoML Tables
//!   stand-in) that only exposes batched scoring over a handle, with a
//!   deterministic seed-driven fault-injection plan for chaos testing,
//! * [`resilience`] — a fault-tolerant [`resilience::ResilientModel`]
//!   wrapper (retry with seeded-jitter backoff, circuit breaker, response
//!   validation) for flaky remote endpoints.
//!
//! [`DataFrame`]: lvp_dataframe::DataFrame

pub mod automl;
pub mod cloud;
pub mod convnet;
pub mod cv;
pub mod forest;
pub mod gbdt;
pub mod linear;
pub mod mlp;
pub mod resilience;
pub mod tree;

mod opt;
mod pipeline;

pub use resilience::{
    backoff_nanos, validate_probability_matrix, BreakerConfig, CircuitBreaker, CircuitState,
    ResilienceConfig, ResilientModel, VirtualClock,
};

pub use pipeline::{train_model, train_model_quick, ModelKind, PipelineModel, CV_FOLDS};

use lvp_dataframe::DataFrame;
use lvp_linalg::{CsrMatrix, DenseMatrix};

/// Classification of a [`ModelError`], used by the resilience layer to
/// decide whether an operation is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelErrorKind {
    /// Transient infrastructure failure (timeout, dropped connection, 5xx);
    /// the same request may well succeed on a retry.
    Transient,
    /// The service rejected the request to shed load (rate limit / quota);
    /// retryable after backing off.
    RateLimited,
    /// The service answered, but the response violates the prediction
    /// contract (wrong shape, non-finite or non-normalized probability
    /// rows). Retryable — a healthy replica may answer correctly.
    InvalidResponse,
    /// The request itself is invalid (unknown handle, malformed frame);
    /// retrying the identical request cannot succeed.
    InvalidInput,
    /// Unclassified failure (training errors, internal bugs); treated as
    /// permanent.
    #[default]
    Internal,
}

impl ModelErrorKind {
    /// Whether an error of this kind may succeed when the identical
    /// request is retried.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ModelErrorKind::Transient
                | ModelErrorKind::RateLimited
                | ModelErrorKind::InvalidResponse
        )
    }
}

/// Error produced when a model cannot be trained or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// Human-readable description.
    pub message: String,
    /// Failure class (drives the resilience layer's retry decision).
    pub kind: ModelErrorKind,
}

impl ModelError {
    /// Creates an unclassified (permanent) error from any displayable
    /// message.
    pub fn new(message: impl Into<String>) -> Self {
        Self::with_kind(message, ModelErrorKind::Internal)
    }

    /// Creates an error with an explicit failure class.
    pub fn with_kind(message: impl Into<String>, kind: ModelErrorKind) -> Self {
        Self {
            message: message.into(),
            kind,
        }
    }

    /// A retryable transient-infrastructure error.
    pub fn transient(message: impl Into<String>) -> Self {
        Self::with_kind(message, ModelErrorKind::Transient)
    }

    /// A retryable rate-limit / quota rejection.
    pub fn rate_limited(message: impl Into<String>) -> Self {
        Self::with_kind(message, ModelErrorKind::RateLimited)
    }

    /// A contract-violating response (wrong shape or corrupt probabilities).
    pub fn invalid_response(message: impl Into<String>) -> Self {
        Self::with_kind(message, ModelErrorKind::InvalidResponse)
    }

    /// A permanently invalid request.
    pub fn invalid_input(message: impl Into<String>) -> Self {
        Self::with_kind(message, ModelErrorKind::InvalidInput)
    }

    /// Whether the identical request may succeed on a retry.
    pub fn is_retryable(&self) -> bool {
        self.kind.is_retryable()
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model error: {}", self.message)
    }
}

impl std::error::Error for ModelError {}

/// A classifier over featurized data: maps a sparse feature matrix to an
/// `n × m` matrix of class probabilities.
pub trait Classifier: Send + Sync {
    /// Predicted class-probability matrix, rows summing to 1.
    fn predict_proba(&self, x: &CsrMatrix) -> DenseMatrix;
    /// Number of classes `m`.
    fn n_classes(&self) -> usize;
}

/// A regressor over dense feature vectors.
pub trait Regressor: Send + Sync {
    /// Predicted target for each row of `x`.
    fn predict(&self, x: &DenseMatrix) -> Vec<f64>;
}

/// The black box contract of the paper (§2): raw tuples in, class
/// probabilities out, nothing else observable.
///
/// Implementations bundle a private feature map and a private prediction
/// function; neither is reachable through this trait.
pub trait BlackBoxModel: Send + Sync {
    /// Class probabilities for a batch of raw tuples (`n × m`).
    fn predict_proba(&self, data: &DataFrame) -> DenseMatrix;
    /// Fallible variant of [`Self::predict_proba`] for serving paths that
    /// must survive remote failures. Local in-process models can never fail
    /// a prediction, so the default simply wraps [`Self::predict_proba`];
    /// remote adapters ([`cloud::RemoteModel`],
    /// [`resilience::ResilientModel`]) override it to surface transport
    /// errors and contract violations as typed [`ModelError`]s instead of
    /// panicking.
    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        Ok(self.predict_proba(data))
    }
    /// Number of classes `m`.
    fn n_classes(&self) -> usize;
    /// Short display name (e.g. `"lr"`).
    fn name(&self) -> &str;
    /// Whether the model scores rows independently: row `r`'s output bits
    /// depend only on row `r`, and whether a call fails does not depend on
    /// which rows it carries. A caller may then score only some rows of a
    /// batch and reuse earlier outputs for the rest, as Algorithm 1 does
    /// for every row a corruption left unchanged.
    ///
    /// The default is `true` because every in-process family (lr, dnn,
    /// xgb, conv and the AutoML pipelines) featurizes and scores row by
    /// row; a property test checks lr, dnn, xgb and the cloud service's
    /// AutoML pipeline over random batches and subsets. A default of `false`
    /// would silently switch reuse off behind any wrapper that forwards
    /// only the required methods, such as a benchmark's timing wrapper.
    /// A wrapper must forward this method. A model whose outputs or
    /// failures depend on the batch's size or content returns `false`:
    /// [`cloud::RemoteModel`] does while a content-keyed fault plan is
    /// installed.
    fn rows_are_independent(&self) -> bool {
        true
    }
    /// Registers this model's serving metrics (call counts, latency) with
    /// `registry`. Models without internal state to report keep the default
    /// no-op. Call before sharing the model (`Arc::from`); recording itself
    /// is `&self` and thread-safe.
    fn attach_telemetry(&mut self, _registry: &lvp_telemetry::Registry) {}
}

/// Accuracy of a black box model on labeled data (harness-side helper; the
/// performance predictor itself never has labels for serving data).
pub fn model_accuracy(model: &dyn BlackBoxModel, df: &DataFrame) -> f64 {
    let proba = model.predict_proba(df);
    lvp_stats::accuracy(&proba.argmax_rows(), &df.labels_usize())
}

/// One-hot encodes integer labels as an `n × m` indicator matrix.
pub fn one_hot_labels(labels: &[u32], n_classes: usize) -> DenseMatrix {
    let mut y = DenseMatrix::zeros(labels.len(), n_classes);
    for (i, &l) in labels.iter().enumerate() {
        y.set(i, l as usize, 1.0);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_labels_sets_indicators() {
        let y = one_hot_labels(&[0, 2, 1], 3);
        assert_eq!(y.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(y.row(1), &[0.0, 0.0, 1.0]);
        assert_eq!(y.row(2), &[0.0, 1.0, 0.0]);
    }
}
