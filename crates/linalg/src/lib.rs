//! Dense and sparse linear algebra primitives used across the `lvp` workspace.
//!
//! The workspace trains several classifier families from scratch (logistic
//! regression, multi-layer perceptrons, gradient-boosted trees, convolutional
//! networks), all of which operate on the two matrix types defined here:
//!
//! * [`DenseMatrix`] — row-major `f64` matrix used for model outputs
//!   (class-probability matrices), network weights and activations.
//! * [`CsrMatrix`] — compressed sparse row matrix used for featurized
//!   relational/text data, where one-hot and hashed n-gram encodings produce
//!   mostly-zero rows.
//!
//! The crate deliberately avoids external BLAS bindings: matrices involved in
//! the paper's experiments are small enough (thousands of rows, at most a few
//! thousand columns) that straightforward loops with `rayon` parallelism over
//! rows are sufficient and keep the build dependency-free.

mod block;
mod dense;
mod ops;
mod sparse;

pub use block::row_blocks;
pub use dense::DenseMatrix;
pub use ops::{relu, relu_grad, softmax_in_place, stable_softmax};
pub use sparse::{CsrBuilder, CsrMatrix};

/// Error type for shape mismatches in linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape error: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

pub(crate) fn shape_err(message: impl Into<String>) -> ShapeError {
    ShapeError {
        message: message.into(),
    }
}
