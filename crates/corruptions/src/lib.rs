//! Programmatic error generators simulating dataset shift and data errors.
//!
//! The paper's key departure from prior work: instead of assuming a
//! parametric form of dataset shift, the engineer *programmatically
//! specifies* the kinds of errors they expect (missing values, outliers,
//! swapped columns, scaling bugs, adversarial text, image noise/rotation,
//! …) and the system learns how each affects the black box model's outputs.
//!
//! Every generator implements [`ErrorGen`]: given a frame, it returns a
//! corrupted *copy*, choosing its own random magnitude per invocation
//! (which columns, what fraction of cells, how strong) — matching §6's
//! protocol of "randomly chosen magnitudes". The absence of errors is
//! represented by sometimes-small sampled fractions, and harness code can
//! additionally mix in uncorrupted copies.
//!
//! The generators that corrupt cells in place share one implementation of
//! that protocol, the crate-private `CellWise` trait: it chooses 1 to n
//! candidate columns and, per column, the fraction of rows and one coin per
//! row; a generator supplies only its name, its candidate columns and what
//! it does to a chosen column and to each row that is hit.
//!
//! The generators whose mechanism needs the model itself (the paper's
//! model-entropy-based missing values) receive it through
//! [`ErrorGen::corrupt_with_model`].

mod entropy;
mod extended;
mod image;
mod mixture;
mod tabular;
mod text;

pub use entropy::EntropyMissingValues;
pub use extended::{
    extended_tabular_suite, CategoryFlip, ConstantFill, DuplicateRows, SelectionBias,
};
pub use image::{ImageNoise, ImageRotation};
pub use mixture::{CleanCopy, Mixture};
pub use tabular::{
    EncodingErrors, FlippedSign, MissingValues, Outliers, Scaling, Smearing, SwappedColumns, Typos,
};
pub use text::AdversarialLeetspeak;

use lvp_dataframe::{DataFrame, Schema};
use lvp_models::BlackBoxModel;
use rand::rngs::StdRng;
use rand::Rng;

/// A programmatic error generator.
///
/// Implementations must be cheap to apply repeatedly: the performance
/// predictor corrupts the held-out test set hundreds to thousands of times
/// during training (Algorithm 1).
pub trait ErrorGen: Send + Sync {
    /// Short, stable identifier (used in experiment reports).
    fn name(&self) -> &str;

    /// The column indices this generator may write to when corrupting `df`.
    ///
    /// Frames are copy-on-write ([`DataFrame::column_mut`] materializes a
    /// private copy of just the written column), so a corrupted copy shares
    /// the storage of every column *not* in this set with its input. Row
    /// re-selection generators (selection bias, duplication) return an empty
    /// set: they rebuild every column but never alter cell values.
    ///
    /// The default conservatively declares every column.
    fn touched_columns(&self, df: &DataFrame) -> Vec<usize> {
        (0..df.n_cols()).collect()
    }

    /// Returns a corrupted copy of `df`, sampling the corruption magnitude
    /// (columns, fraction, strength) internally. Implementations clone the
    /// input (cheap: column storage is shared) and mutate only the columns
    /// declared by [`ErrorGen::touched_columns`].
    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame;

    /// Like [`ErrorGen::corrupt`], but with access to the deployed model
    /// for generators whose corruption depends on model behaviour.
    fn corrupt_with_model(
        &self,
        df: &DataFrame,
        _model: Option<&dyn BlackBoxModel>,
        rng: &mut StdRng,
    ) -> DataFrame {
        self.corrupt(df, rng)
    }
}

/// The paper's four "known" tabular error types (§6.2.1): missing values,
/// outliers, swapped columns and scaling.
pub fn standard_tabular_suite(schema: &Schema) -> Vec<Box<dyn ErrorGen>> {
    vec![
        Box::new(MissingValues::all_categorical(schema)),
        Box::new(Outliers::all_numeric(schema)),
        Box::new(SwappedColumns::all_pairs(schema)),
        Box::new(Scaling::all_numeric(schema)),
    ]
}

/// The paper's three "unknown" tabular error types (§6.2.2): typos,
/// smearing and flipped signs — used for evaluating generalization to
/// errors the validator never trained on.
pub fn unknown_tabular_suite(schema: &Schema) -> Vec<Box<dyn ErrorGen>> {
    vec![
        Box::new(Typos::all_categorical(schema)),
        Box::new(Smearing::all_numeric(schema)),
        Box::new(FlippedSign::all_numeric(schema)),
    ]
}

/// The image error types of §6: additive Gaussian noise and rotations.
pub fn image_suite(schema: &Schema) -> Vec<Box<dyn ErrorGen>> {
    vec![
        Box::new(ImageNoise::all_images(schema)),
        Box::new(ImageRotation::all_images(schema)),
    ]
}

/// The adversarial-text suite for the tweets dataset.
pub fn text_suite(schema: &Schema) -> Vec<Box<dyn ErrorGen>> {
    vec![
        Box::new(AdversarialLeetspeak::all_text(schema)),
        Box::new(EncodingErrors::all_text(schema)),
    ]
}

/// §6's cell-wise corruption protocol, which every generator that corrupts
/// cells in place follows and which makes it an [`ErrorGen`].
///
/// Per call the draws come in one fixed order: the chosen columns
/// ([`choose_columns`]); then, per chosen column, its fraction of rows
/// ([`sample_fraction`]), the column's own magnitude, if the generator has
/// one, and one [`Hits`] coin per row in row order.
pub(crate) trait CellWise: Send + Sync {
    /// The generator's [`ErrorGen::name`].
    const NAME: &'static str;

    /// The columns a call may choose, which are its
    /// [`ErrorGen::touched_columns`].
    fn candidates(&self) -> &[usize];

    /// Corrupts the chosen column `col` of the copy `out`: draws the
    /// column's magnitude, then corrupts the rows `hits` picks. It gets the
    /// copy and not the column, so that it may materialize the column on
    /// its first hit only.
    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng);
}

impl<T: CellWise> ErrorGen for T {
    fn name(&self) -> &str {
        T::NAME
    }

    fn touched_columns(&self, _df: &DataFrame) -> Vec<usize> {
        self.candidates().to_vec()
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        let mut out = df.clone();
        for col in choose_columns(self.candidates(), rng) {
            let hits = Hits(sample_fraction(rng));
            self.corrupt_column(&mut out, col, hits, rng);
        }
        out
    }
}

/// The per-row coin of the protocol: each row is hit with probability `.0`.
#[derive(Clone, Copy)]
pub(crate) struct Hits(pub(crate) f64);

impl Hits {
    /// Tosses one coin per row in `0..n_rows`, in row order, and calls `hit`
    /// for each row that is hit. The coin is tossed for a row whose cell is
    /// missing too, so the draws never depend on where the holes are.
    pub(crate) fn each(
        self,
        n_rows: usize,
        rng: &mut StdRng,
        mut hit: impl FnMut(usize, &mut StdRng),
    ) {
        for row in 0..n_rows {
            if rng.gen::<f64>() < self.0 {
                hit(row, rng);
            }
        }
    }

    /// The rows [`Self::each`] hits, in row order, drawn as it draws them.
    pub(crate) fn rows(self, n_rows: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut rows = Vec::new();
        self.each(n_rows, rng, |row, _| rows.push(row));
        rows
    }
}

/// Picks the fraction of rows to corrupt — uniform over `[0.02, 1)`, the
/// paper's randomly sampled corruption probabilities with no fraction
/// below 0.02.
pub(crate) fn sample_fraction(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.02..1.0)
}

/// Chooses a non-empty random subset of the candidate columns (the paper
/// corrupts "1 to n" randomly chosen columns).
pub(crate) fn choose_columns(candidates: &[usize], rng: &mut StdRng) -> Vec<usize> {
    use rand::seq::SliceRandom;
    if candidates.is_empty() {
        return Vec::new();
    }
    let k = rng.gen_range(1..=candidates.len());
    let mut cols = candidates.to_vec();
    cols.shuffle(rng);
    cols.truncate(k);
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_dataframe::toy_frame;
    use rand::SeedableRng;

    #[test]
    fn suites_match_schema_capabilities() {
        let df = toy_frame(4);
        let std = standard_tabular_suite(df.schema());
        assert_eq!(std.len(), 4);
        let unk = unknown_tabular_suite(df.schema());
        assert_eq!(unk.len(), 3);
    }

    #[test]
    fn choose_columns_is_nonempty_subset() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let cols = choose_columns(&[3, 5, 9], &mut rng);
            assert!(!cols.is_empty() && cols.len() <= 3);
            assert!(cols.iter().all(|c| [3, 5, 9].contains(c)));
        }
        assert!(choose_columns(&[], &mut rng).is_empty());
    }

    #[test]
    fn sample_fraction_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let f = sample_fraction(&mut rng);
            assert!((0.02..1.0).contains(&f), "{f}");
        }
    }

    fn all_tabular_generators(df: &DataFrame) -> Vec<Box<dyn ErrorGen>> {
        let mut gens = standard_tabular_suite(df.schema());
        gens.extend(unknown_tabular_suite(df.schema()));
        gens.extend(extended_tabular_suite(df.schema()));
        gens.push(Box::new(EntropyMissingValues::all_tabular(df.schema())));
        gens.push(Box::new(EncodingErrors::all_categorical(df.schema())));
        gens.push(Box::new(CleanCopy));
        gens
    }

    #[test]
    fn invented_values_extend_only_the_copys_dictionary() {
        let df = toy_frame(120);
        let base = df.column(1).as_categorical().unwrap();
        let mut inventors = Vec::new();
        for g in all_tabular_generators(&df) {
            for seed in 0..5u64 {
                let out = g.corrupt(&df, &mut StdRng::seed_from_u64(seed));
                let values = out.column(1).as_categorical().unwrap();
                let invented = values.iter().flatten().any(|v| v != "even" && v != "odd");
                // Append-only: the copy's codes keep their base values.
                assert_eq!(&values.dictionary()[..2], base.dictionary(), "{}", g.name());
                if invented {
                    assert!(!values.shares_dictionary(base), "{}", g.name());
                    inventors.push(g.name().to_string());
                }
            }
        }
        inventors.dedup();
        assert_eq!(
            inventors,
            [
                "swapped_columns",
                "typos",
                "constant_fill",
                "encoding_errors"
            ]
        );
        // The base frame's cells and dictionary are untouched.
        assert_eq!(base.dictionary(), ["even", "odd"]);
        assert_eq!(df, toy_frame(120));
    }

    #[test]
    fn undeclared_columns_share_storage_after_corruption() {
        let df = toy_frame(120);
        let mut rng = StdRng::seed_from_u64(5);
        for g in all_tabular_generators(&df) {
            let touched = g.touched_columns(&df);
            // Row re-selectors (empty touched set, except CleanCopy) rebuild
            // storage even when the row count happens to be unchanged.
            if touched.is_empty() && g.name() != "clean" {
                continue;
            }
            for _ in 0..5 {
                let out = g.corrupt(&df, &mut rng);
                if out.n_rows() != df.n_rows() {
                    continue;
                }
                for col in 0..df.n_cols() {
                    if !touched.contains(&col) {
                        assert!(
                            df.shares_column_storage(&out, col),
                            "{} copied undeclared column {col}",
                            g.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn touched_columns_declares_every_mutated_column() {
        let df = toy_frame(90);
        for g in all_tabular_generators(&df) {
            let touched = g.touched_columns(&df);
            for seed in 0..10u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let out = g.corrupt(&df, &mut rng);
                if out.n_rows() != df.n_rows() {
                    continue;
                }
                for col in 0..df.n_cols() {
                    if out.column(col) != df.column(col) {
                        assert!(
                            touched.contains(&col),
                            "{} mutated undeclared column {col} (seed {seed})",
                            g.name()
                        );
                    }
                }
            }
        }
    }
}
