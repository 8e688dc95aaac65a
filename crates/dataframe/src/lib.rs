//! A typed columnar relational data structure with per-cell nullability.
//!
//! This crate is the workspace's stand-in for the pandas DataFrame the paper
//! builds on: black box pipelines consume a [`DataFrame`] of raw relational
//! data, and error generators produce corrupted copies of one. Four column
//! types cover the paper's six datasets:
//!
//! * [`ColumnType::Numeric`] — `f64` with missing values,
//! * [`ColumnType::Categorical`] — string categories with missing values,
//!   stored as dictionary codes ([`CategoricalColumn`]),
//! * [`ColumnType::Text`] — free text (tweets),
//! * [`ColumnType::Image`] — small grayscale images (digits / fashion).
//!
//! Every cell can independently be null, which is what most of the paper's
//! error generators exploit. Frames also carry the label column (`labels`)
//! so the experiment harness can compute *true* scores on serving data; the
//! performance predictor itself never reads it.

mod column;
pub mod csv;
mod frame;
mod hash;
mod schema;

pub use column::{CategoricalColumn, CellValue, Column, ImageData};
pub use csv::{read_csv_file, read_csv_str, read_serving_csv_str, write_csv_string, CsvOptions};
pub use frame::{toy_frame, DataFrame, DataFrameBuilder};
pub use hash::Fnv1a;
pub use schema::{ColumnType, Field, Schema};

/// Errors produced by dataframe construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Column lengths or label length disagree.
    LengthMismatch(String),
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// An operation was applied to a column of the wrong type.
    TypeMismatch(String),
    /// Construction input was structurally invalid.
    Invalid(String),
    /// A label value outside the frame's class names.
    UnknownClass(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::LengthMismatch(m) => write!(f, "length mismatch: {m}"),
            FrameError::UnknownColumn(m) => write!(f, "unknown column: {m}"),
            FrameError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            FrameError::Invalid(m) => write!(f, "invalid frame: {m}"),
            FrameError::UnknownClass(m) => write!(f, "unknown class label: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}
