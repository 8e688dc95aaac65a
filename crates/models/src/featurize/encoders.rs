//! Per-column encoders. Each encoder is fitted on a training column and then
//! emits features for any cell into a caller-provided pair buffer with a
//! fixed column offset.

use super::hashing::{bucket_hash, tokenize, word_ngrams};
use lvp_dataframe::{CategoricalColumn, Column, ColumnType, ImageData};
use std::collections::BTreeMap;

/// Standardizes a numeric column to zero mean and unit variance.
///
/// Missing values impute to the training mean, i.e. 0 after scaling — the
/// same behaviour as a `SimpleImputer(mean) → StandardScaler` pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericScaler {
    mean: f64,
    std: f64,
}

impl NumericScaler {
    /// Fits mean/std on the non-missing values of a training column.
    pub fn fit(values: &[Option<f64>]) -> Self {
        let present: Vec<f64> = values
            .iter()
            .filter_map(|v| *v)
            .filter(|v| v.is_finite())
            .collect();
        if present.is_empty() {
            return Self {
                mean: 0.0,
                std: 1.0,
            };
        }
        let mean = present.iter().sum::<f64>() / present.len() as f64;
        let var = present.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / present.len() as f64;
        let std = if var > 0.0 { var.sqrt() } else { 1.0 };
        Self { mean, std }
    }

    /// Number of output dimensions (always 1).
    pub fn width(&self) -> usize {
        1
    }

    /// Encodes one cell into `(offset, value)` pairs.
    pub fn encode(&self, value: Option<f64>, offset: u32, out: &mut Vec<(u32, f64)>) {
        if let Some(v) = value {
            if v.is_finite() {
                let scaled = (v - self.mean) / self.std;
                if scaled != 0.0 {
                    out.push((offset, scaled));
                }
            }
        }
        // Missing / non-finite → imputed to mean → exactly 0 after scaling.
    }
}

/// One-hot encodes a categorical column over the categories observed during
/// fitting. Unseen categories and missing values produce a zero vector.
#[derive(Debug, Clone, PartialEq)]
pub struct OneHotEncoder {
    categories: BTreeMap<String, u32>,
}

impl OneHotEncoder {
    /// Collects the category dictionary from a training column. Indices
    /// follow the order in which values first appear in the *cells*, so a
    /// column's dictionary order and any values it holds that no cell holds
    /// do not affect the fit.
    pub fn fit(values: &CategoricalColumn) -> Self {
        let mut categories = BTreeMap::new();
        let mut seen = vec![false; values.dictionary().len()];
        for code in values.codes().flatten() {
            if !std::mem::replace(&mut seen[code as usize], true) {
                let next = categories.len() as u32;
                categories.insert(values.dictionary()[code as usize].clone(), next);
            }
        }
        Self { categories }
    }

    /// Number of output dimensions (one per observed category).
    pub fn width(&self) -> usize {
        self.categories.len()
    }

    /// The one-hot index of every code of `values`' dictionary: `None` for
    /// a value not observed during fitting. Encoding a cell is then one
    /// lookup by its code.
    pub(crate) fn index_by_code(&self, values: &CategoricalColumn) -> Vec<Option<u32>> {
        values
            .dictionary()
            .iter()
            .map(|v| self.categories.get(v.as_str()).copied())
            .collect()
    }
}

/// Hashes word-level n-grams of a text cell into `n_buckets` dimensions with
/// L2-normalized term counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HashingTextEncoder {
    n_buckets: u32,
    max_ngram: usize,
}

impl HashingTextEncoder {
    /// Creates an encoder with the given bucket count and maximum n-gram
    /// order. Hashing needs no fitting.
    pub fn new(n_buckets: u32, max_ngram: usize) -> Self {
        assert!(n_buckets > 0, "need at least one bucket");
        assert!(max_ngram >= 1, "need at least unigrams");
        Self {
            n_buckets,
            max_ngram,
        }
    }

    /// Number of output dimensions.
    pub fn width(&self) -> usize {
        self.n_buckets as usize
    }

    /// Encodes one text cell.
    pub fn encode(&self, value: Option<&str>, offset: u32, out: &mut Vec<(u32, f64)>) {
        let Some(text) = value else { return };
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return;
        }
        let grams = word_ngrams(&tokens, self.max_ngram);
        let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
        for g in &grams {
            let bucket = (bucket_hash(g.as_bytes()) % u64::from(self.n_buckets)) as u32;
            *counts.entry(bucket).or_insert(0.0) += 1.0;
        }
        let norm = counts.values().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return;
        }
        for (bucket, count) in counts {
            out.push((offset + bucket, count / norm));
        }
    }
}

/// Flattens grayscale images to raw pixel intensities. The image geometry is
/// fixed at fit time; images of a different size (or missing images) encode
/// to zeros for the out-of-range part.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageEncoder {
    width_px: usize,
    height_px: usize,
}

impl ImageEncoder {
    /// Fixes the geometry from the first present training image.
    pub fn fit(values: &[Option<ImageData>]) -> Self {
        let (w, h) = values
            .iter()
            .flatten()
            .map(|img| (img.width, img.height))
            .next()
            .unwrap_or((0, 0));
        Self {
            width_px: w,
            height_px: h,
        }
    }

    /// Number of output dimensions (`width × height` pixels).
    pub fn width(&self) -> usize {
        self.width_px * self.height_px
    }

    /// Encodes one image cell as its nonzero pixels.
    pub fn encode(&self, value: Option<&ImageData>, offset: u32, out: &mut Vec<(u32, f64)>) {
        let Some(img) = value else { return };
        for y in 0..self.height_px {
            for x in 0..self.width_px {
                let v = img.get(x, y);
                if v != 0.0 && v.is_finite() {
                    out.push((offset + (y * self.width_px + x) as u32, v));
                }
            }
        }
    }
}

/// Encoder for one schema column; dispatches on the column type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColumnEncoder {
    Numeric(NumericScaler),
    Categorical(OneHotEncoder),
    Text(HashingTextEncoder),
    Image(ImageEncoder),
}

impl ColumnEncoder {
    /// The column kind this encoder was fitted on.
    pub(crate) fn ty(&self) -> ColumnType {
        match self {
            ColumnEncoder::Numeric(_) => ColumnType::Numeric,
            ColumnEncoder::Categorical(_) => ColumnType::Categorical,
            ColumnEncoder::Text(_) => ColumnType::Text,
            ColumnEncoder::Image(_) => ColumnType::Image,
        }
    }

    pub(crate) fn width(&self) -> usize {
        match self {
            ColumnEncoder::Numeric(e) => e.width(),
            ColumnEncoder::Categorical(e) => e.width(),
            ColumnEncoder::Text(e) => e.width(),
            ColumnEncoder::Image(e) => e.width(),
        }
    }

    /// Binds the encoder to the frame column it will encode, doing the
    /// per-column work once: a categorical column's dictionary is
    /// translated to one-hot indices here. A column of another kind than
    /// the encoder's cannot occur for frames that pass
    /// `FeaturePipeline::check_frame`; it encodes as all-missing.
    pub(crate) fn bind<'a>(&'a self, column: &'a Column) -> BoundEncoder<'a> {
        match (self, column) {
            (ColumnEncoder::Numeric(e), Column::Numeric(v)) => BoundEncoder::Numeric(e, v),
            (ColumnEncoder::Categorical(e), Column::Categorical(v)) => {
                BoundEncoder::Categorical(v, e.index_by_code(v))
            }
            (ColumnEncoder::Text(e), Column::Text(v)) => BoundEncoder::Text(e, v),
            (ColumnEncoder::Image(e), Column::Image(v)) => BoundEncoder::Image(e, v),
            _ => BoundEncoder::Missing,
        }
    }
}

/// A fitted encoder bound to one frame column.
pub(crate) enum BoundEncoder<'a> {
    Numeric(&'a NumericScaler, &'a [Option<f64>]),
    /// The column and the one-hot index of each of its codes.
    Categorical(&'a CategoricalColumn, Vec<Option<u32>>),
    Text(&'a HashingTextEncoder, &'a [Option<String>]),
    Image(&'a ImageEncoder, &'a [Option<ImageData>]),
    Missing,
}

impl BoundEncoder<'_> {
    /// Encodes the cell at `row` into `(offset + index, value)` pairs.
    pub(crate) fn encode(&self, row: usize, offset: u32, out: &mut Vec<(u32, f64)>) {
        match self {
            BoundEncoder::Numeric(e, v) => e.encode(v[row], offset, out),
            BoundEncoder::Categorical(v, index_by_code) => {
                if let Some(idx) = v.code(row).and_then(|code| index_by_code[code as usize]) {
                    out.push((offset + idx, 1.0));
                }
            }
            BoundEncoder::Text(e, v) => e.encode(v[row].as_deref(), offset, out),
            BoundEncoder::Image(e, v) => e.encode(v[row].as_ref(), offset, out),
            BoundEncoder::Missing => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_standardizes() {
        let s = NumericScaler::fit(&[Some(1.0), Some(3.0)]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 1.0);
        let mut out = vec![];
        s.encode(Some(3.0), 5, &mut out);
        assert_eq!(out, vec![(5, 1.0)]);
    }

    #[test]
    fn scaler_handles_constant_column() {
        let s = NumericScaler::fit(&[Some(7.0), Some(7.0)]);
        assert_eq!(s.std, 1.0);
        let mut out = vec![];
        s.encode(Some(7.0), 0, &mut out);
        assert!(out.is_empty()); // scaled value is exactly 0
    }

    #[test]
    fn scaler_imputes_missing_to_zero() {
        let s = NumericScaler::fit(&[Some(1.0), Some(3.0)]);
        let mut out = vec![];
        s.encode(None, 0, &mut out);
        assert!(out.is_empty());
        s.encode(Some(f64::NAN), 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn scaler_ignores_nonfinite_during_fit() {
        let s = NumericScaler::fit(&[Some(1.0), Some(f64::INFINITY), Some(3.0)]);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn scaler_all_missing_column() {
        let s = NumericScaler::fit(&[None, None]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std, 1.0);
    }

    fn categorical(values: &[Option<&str>]) -> CategoricalColumn {
        values.iter().copied().collect()
    }

    fn one_hot(e: &OneHotEncoder, column: &Column) -> Vec<Vec<(u32, f64)>> {
        let bound = ColumnEncoder::Categorical(e.clone());
        let bound = bound.bind(column);
        (0..column.len())
            .map(|row| {
                let mut out = vec![];
                bound.encode(row, 10, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn one_hot_encodes_known_categories() {
        let e = OneHotEncoder::fit(&categorical(&[Some("a"), Some("b"), Some("a")]));
        assert_eq!(e.width(), 2);
        let serving = Column::Categorical(categorical(&[Some("b"), Some("a")]));
        assert_eq!(
            one_hot(&e, &serving),
            vec![vec![(11, 1.0)], vec![(10, 1.0)]]
        );
    }

    #[test]
    fn one_hot_unseen_category_is_zero_vector() {
        let e = OneHotEncoder::fit(&categorical(&[Some("a")]));
        let serving = categorical(&[Some("zzz"), None, Some("a")]);
        assert_eq!(e.index_by_code(&serving), vec![None, Some(0)]);
        let rows = one_hot(&e, &Column::Categorical(serving));
        assert_eq!(rows, vec![vec![], vec![], vec![(10, 1.0)]]);
    }

    #[test]
    fn one_hot_category_ids_are_deterministic() {
        let e1 = OneHotEncoder::fit(&categorical(&[Some("x"), Some("y")]));
        let e2 = OneHotEncoder::fit(&categorical(&[Some("x"), Some("y")]));
        assert_eq!(e1, e2);
    }

    #[test]
    fn one_hot_fit_counts_only_values_present_in_cells() {
        // A subsample keeps its parent's dictionary, including values none
        // of its rows hold; those must not widen the encoder.
        let parent = categorical(&[Some("a"), Some("b"), Some("c"), None, Some("b")]);
        let subsample = Column::Categorical(parent).select(&[4, 3, 4]);
        let values = subsample.as_categorical().unwrap();
        assert_eq!(values.dictionary().len(), 3);
        let e = OneHotEncoder::fit(values);
        assert_eq!(e.width(), 1);
        assert_eq!(e, OneHotEncoder::fit(&categorical(&[Some("b")])));
    }

    #[test]
    fn one_hot_indices_follow_cells_not_dictionary_order() {
        // Same cells, dictionaries in opposite orders: same fitted encoder.
        let forward = categorical(&[Some("x"), Some("y")]);
        let reversed = Column::Categorical(categorical(&[Some("y"), Some("x")])).select(&[1, 0]);
        let reversed = reversed.as_categorical().unwrap();
        assert_ne!(forward.dictionary(), reversed.dictionary());
        assert_eq!(OneHotEncoder::fit(&forward), OneHotEncoder::fit(reversed));
    }

    #[test]
    fn hashing_encoder_is_l2_normalized() {
        let e = HashingTextEncoder::new(64, 2);
        let mut out = vec![];
        e.encode(Some("the cat sat"), 0, &mut out);
        let norm: f64 = out.iter().map(|(_, v)| v * v).sum::<f64>();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hashing_encoder_empty_text_is_empty() {
        let e = HashingTextEncoder::new(64, 2);
        let mut out = vec![];
        e.encode(Some("..."), 0, &mut out);
        assert!(out.is_empty());
        e.encode(None, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hashing_encoder_changed_spelling_changes_buckets() {
        let e = HashingTextEncoder::new(4096, 1);
        let mut a = vec![];
        let mut b = vec![];
        e.encode(Some("hello world"), 0, &mut a);
        e.encode(Some("h3110 w041d"), 0, &mut b);
        let ia: Vec<u32> = a.iter().map(|p| p.0).collect();
        let ib: Vec<u32> = b.iter().map(|p| p.0).collect();
        assert_ne!(ia, ib);
    }

    #[test]
    fn image_encoder_flattens_pixels() {
        let mut img = ImageData::zeros(2, 2);
        img.set(1, 0, 0.5);
        img.set(0, 1, 0.25);
        let e = ImageEncoder::fit(&[Some(img.clone())]);
        assert_eq!(e.width(), 4);
        let mut out = vec![];
        e.encode(Some(&img), 0, &mut out);
        assert_eq!(out, vec![(1, 0.5), (2, 0.25)]);
    }

    #[test]
    fn image_encoder_missing_image_is_zeros() {
        let e = ImageEncoder::fit(&[Some(ImageData::zeros(2, 2))]);
        let mut out = vec![];
        e.encode(None, 0, &mut out);
        assert!(out.is_empty());
    }
}
