//! Shared harness for regenerating every figure of the paper's evaluation.
//!
//! Each `fig*` binary in `src/bin/` reproduces one figure (see DESIGN.md
//! for the experiment index). All binaries share:
//!
//! * [`Scale`] — smoke/small/paper experiment sizes selected via
//!   `--scale`; paper scale uses the full dataset sizes and CV-trained
//!   models, smoke/small shrink everything proportionally so the suite
//!   runs on a single CPU core,
//! * [`prepare_split`] / [`train_for`] — the §6.1 protocol: randomly
//!   partition a dataset into source and serving data, train the black box
//!   model on the source side,
//! * [`Summary`] — order statistics over absolute-error distributions
//!   (the quantities the paper's box plots and percentile bands report),
//! * [`write_results`] — machine-readable JSON output under `results/`.

pub mod harness;
pub mod summary;
pub mod validation;

pub use harness::{
    estimate_and_accuracy, prepare_split, serving_errors, train_for, ExperimentEnv, Scale,
    SplitSpec,
};
pub use summary::{write_results, Summary};

use serde::Serialize;

/// One printed/persisted result row shared by the figure binaries.
#[derive(Debug, Clone, Serialize)]
pub struct ResultRow {
    /// Experiment identifier (e.g. "fig2").
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Error type / condition under test.
    pub condition: String,
    /// Named measurement values for this row.
    pub values: std::collections::BTreeMap<String, f64>,
}

impl ResultRow {
    /// Creates a row with no measurements yet.
    pub fn new(
        experiment: impl Into<String>,
        dataset: impl Into<String>,
        model: impl Into<String>,
        condition: impl Into<String>,
    ) -> Self {
        Self {
            experiment: experiment.into(),
            dataset: dataset.into(),
            model: model.into(),
            condition: condition.into(),
            values: std::collections::BTreeMap::new(),
        }
    }

    /// Adds a named measurement.
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.values.insert(key.to_string(), value);
        self
    }
}
