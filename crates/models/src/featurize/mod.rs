//! The black box's private feature map φ: turns relational [`DataFrame`]s
//! into sparse matrices.
//!
//! Mirrors the paper's featurization (§6 "Datasets"): numeric attributes are
//! standardized, categorical attributes one-hot encoded, textual attributes
//! hashed as word-level n-grams into a large sparse vector, and image
//! attributes flattened to pixel intensities. Encoders are *fitted on
//! training data only* and later applied to unseen (possibly corrupted)
//! serving data — exactly the discipline a scikit-learn `Pipeline` enforces.
//!
//! Missing-value semantics (these are what give the paper's error generators
//! their bite):
//!
//! * a missing numeric cell imputes to the training mean (0 after scaling),
//! * a missing or *unseen* categorical value one-hot encodes to all zeros,
//! * missing text hashes to an empty vector,
//! * a missing image becomes an all-zero pixel block.
//!
//! The module is private to this crate: nothing outside a sealed pipeline
//! can fit or apply φ.
//!
//! [`DataFrame`]: lvp_dataframe::DataFrame

mod encoders;
mod hashing;
mod pipeline;

pub use pipeline::{FeaturePipeline, PipelineConfig};
