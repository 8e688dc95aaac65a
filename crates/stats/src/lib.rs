//! Statistical machinery for validating black box model predictions.
//!
//! The performance validator and all three baselines of the paper rest on a
//! small set of statistical tools, implemented here from first principles:
//!
//! * two-sample Kolmogorov–Smirnov and Pearson χ² hypothesis tests with
//!   asymptotic p-values ([`tests`]),
//! * percentile summaries of model outputs, the feature map of the learned
//!   performance predictor ([`percentile`]),
//! * classification/regression metrics: accuracy, precision/recall/F1, ROC
//!   AUC, MAE ([`metrics`]),
//! * the special functions backing the p-value computations ([`special`]).

pub mod metrics;
pub mod percentile;
pub mod sketch;
pub mod special;
pub mod tests;

pub use metrics::{
    accuracy, auc_binary, confusion_binary, f1_score, mean_absolute_error, precision_recall_f1,
    BinaryConfusion,
};
pub use percentile::{
    percentile_sorted, percentiles, PercentileScratch, VIGINTILE_COUNT, VIGINTILE_GRID,
};
pub use sketch::{EcdfSketch, QuantileSketch, SketchMergeError, DEFAULT_SKETCH_BINS};
pub use tests::{bonferroni_alpha, chi2_test_counts, ks_two_sample, TestOutcome};
