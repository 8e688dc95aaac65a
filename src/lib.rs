//! # lvp — Learning to Validate the Predictions of Black Box Classifiers
//!
//! A from-scratch Rust reproduction of Schelter, Rukat & Biessmann,
//! *"Learning to Validate the Predictions of Black Box Classifiers on Unseen
//! Data"*, SIGMOD 2020.
//!
//! The workspace implements the full system described by the paper:
//!
//! * a typed columnar [`dataframe`] with per-cell nullability,
//! * several classifier families trained from scratch and sealed as black
//!   boxes ([`models`]): logistic regression, feed-forward networks,
//!   gradient-boosted trees, convolutional networks, plus AutoML-style
//!   searchers and a simulated cloud prediction service; each bundles a
//!   private feature map (standardization, one-hot encoding and hashed
//!   n-grams, fitted on training data only),
//! * programmatic error generators ([`corruptions`]) for typical dataset
//!   shifts (missing values, outliers, swapped columns, scaling, adversarial
//!   text, image noise/rotation, …),
//! * and the paper's contribution ([`core`]): a learned **performance
//!   predictor** that estimates a black box model's score on unseen,
//!   unlabeled serving data, a threshold-based **performance validator**, and
//!   the REL / BBSE / BBSEh baselines it is evaluated against.
//!
//! ## Quickstart
//!
//! ```no_run
//! use lvp::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // 1. Generate data and train a black box model on the source split.
//! let df = lvp::datasets::income(2_000, &mut rng);
//! let (source, serving) = df.split_frac(0.5, &mut rng);
//! let (train, test) = source.split_frac(0.8, &mut rng);
//! let model: std::sync::Arc<dyn BlackBoxModel> =
//!     std::sync::Arc::from(lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
//!
//! // 2. Specify the error types we may see in production.
//! let errors = lvp::corruptions::standard_tabular_suite(test.schema());
//!
//! // 3. Learn a performance predictor (Algorithm 1).
//! let predictor = PerformancePredictor::fit(
//!     model, &test, &errors, &PredictorConfig::default(), &mut rng,
//! ).unwrap();
//!
//! // 4. Estimate the score on unseen serving data (Algorithm 2).
//! let estimate = predictor.predict(&serving).unwrap();
//! println!("estimated accuracy on serving batch: {estimate:.3}");
//! ```
//!
//! ## The black box is sealed
//!
//! As in the paper (§2), a trained model exposes class probabilities and
//! nothing else: [`models::BlackBoxModel`] is the whole interface. Its
//! feature map φ and its prediction function f are private to
//! `lvp-models`, so none of the following compiles.
//!
//! The feature map, as a root re-export and as a module of `lvp-models`:
//!
//! ```compile_fail,E0432
//! use lvp::featurize::FeaturePipeline;
//! ```
//!
//! ```compile_fail,E0603
//! use lvp::models::featurize::FeaturePipeline;
//! ```
//!
//! The classifier families and their cross-validation:
//!
//! ```compile_fail,E0603
//! use lvp::models::linear::LogisticRegression;
//! ```
//!
//! ```compile_fail,E0603
//! use lvp::models::cv::kfold_select;
//! ```
//!
//! The pipeline that bundles φ and f:
//!
//! ```compile_fail,E0432
//! use lvp::models::PipelineModel;
//! ```

pub use lvp_core as core;
pub use lvp_corruptions as corruptions;
pub use lvp_dataframe as dataframe;
pub use lvp_datasets as datasets;
pub use lvp_linalg as linalg;
pub use lvp_models as models;
pub use lvp_server as server;
pub use lvp_stats as stats;
pub use lvp_telemetry as telemetry;

/// Convenience re-exports covering the common end-to-end workflow.
pub mod prelude {
    pub use lvp_core::{
        Baseline, BatchMonitor, BatchReport, BbseDetector, BbseHardDetector, Metric, MonitorPolicy,
        PerformancePredictor, PerformanceValidator, PredictorConfig, RelationalShiftDetector,
        ValidatorConfig,
    };
    pub use lvp_corruptions::ErrorGen;
    pub use lvp_dataframe::{ColumnType, DataFrame, Schema};
    pub use lvp_linalg::{CsrMatrix, DenseMatrix};
    pub use lvp_models::{
        BlackBoxModel, ModelError, ModelErrorKind, ModelKind, ResilienceConfig, ResilientModel,
        VirtualClock,
    };
}
