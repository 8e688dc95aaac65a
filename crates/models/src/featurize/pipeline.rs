//! The fitted feature pipeline: schema-driven concatenation of per-column
//! encoders.

use super::encoders::{
    ColumnEncoder, HashingTextEncoder, ImageEncoder, NumericScaler, OneHotEncoder,
};
use lvp_dataframe::{ColumnType, DataFrame};
use lvp_linalg::{CsrBuilder, CsrMatrix};

/// Configuration for fitting a [`FeaturePipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Buckets for the hashing vectorizer applied to text columns.
    pub text_buckets: u32,
    /// Maximum word n-gram order for text columns.
    pub max_ngram: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            text_buckets: 2048,
            max_ngram: 2,
        }
    }
}

/// A feature pipeline fitted on training data.
///
/// `transform` may afterwards be applied to any frame sharing the training
/// schema — including corrupted serving data, which is the whole point: the
/// encoders' missing/unseen semantics determine how data errors propagate
/// into the model's feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePipeline {
    encoders: Vec<ColumnEncoder>,
    offsets: Vec<u32>,
    total_width: usize,
}

impl FeaturePipeline {
    /// Fits one encoder per schema column on the training frame.
    pub fn fit(train: &DataFrame, config: &PipelineConfig) -> Self {
        let mut encoders = Vec::with_capacity(train.n_cols());
        for (i, field) in train.schema().fields().iter().enumerate() {
            let col = train.column(i);
            let enc = match field.ty {
                ColumnType::Numeric => ColumnEncoder::Numeric(NumericScaler::fit(
                    col.as_numeric().expect("schema-validated column"),
                )),
                ColumnType::Categorical => ColumnEncoder::Categorical(OneHotEncoder::fit(
                    col.as_categorical().expect("schema-validated column"),
                )),
                ColumnType::Text => ColumnEncoder::Text(HashingTextEncoder::new(
                    config.text_buckets,
                    config.max_ngram,
                )),
                ColumnType::Image => ColumnEncoder::Image(ImageEncoder::fit(
                    col.as_image().expect("schema-validated column"),
                )),
            };
            encoders.push(enc);
        }
        let mut offsets = Vec::with_capacity(encoders.len());
        let mut acc: u32 = 0;
        for e in &encoders {
            offsets.push(acc);
            acc += e.width() as u32;
        }
        Self {
            encoders,
            offsets,
            total_width: acc as usize,
        }
    }

    /// Checks that `df` has the columns this pipeline was fitted on: the
    /// same number, and the same kind at every position. The error names
    /// the first column that differs. [`Self::transform`] assumes both — a
    /// missing column panics on an out-of-bounds index, and a column of
    /// another kind encodes as all-missing.
    pub fn check_frame(&self, df: &DataFrame) -> Result<(), String> {
        let describe = |ty: Option<ColumnType>| {
            ty.map_or("no column".to_string(), |ty| format!("a {ty:?} column"))
        };
        for i in 0..self.encoders.len().max(df.n_cols()) {
            let fitted = self.encoders.get(i).map(ColumnEncoder::ty);
            let found = (i < df.n_cols()).then(|| df.column(i).ty());
            if fitted != found {
                let name = df.schema().fields().get(i);
                return Err(format!(
                    "column {i}{}: the pipeline was fitted on {} but the frame has {}",
                    name.map_or(String::new(), |field| format!(" ('{}')", field.name)),
                    describe(fitted),
                    describe(found)
                ));
            }
        }
        Ok(())
    }

    /// Transforms a frame into a CSR feature matrix, one row per tuple.
    ///
    /// Binds every encoder to its column once, which translates each
    /// categorical dictionary to one-hot indices, then encodes cell by cell
    /// into one reused scratch buffer and streams rows straight into a
    /// [`CsrBuilder`]. Beyond the output matrix, a call allocates only the
    /// bindings and one index per dictionary value. Training and serving
    /// both featurize here. The frame must pass [`Self::check_frame`].
    pub fn transform(&self, df: &DataFrame) -> CsrMatrix {
        let mut builder = CsrBuilder::with_capacity(self.total_width, df.n_rows(), df.n_rows());
        let bound: Vec<_> = self
            .encoders
            .iter()
            .enumerate()
            .map(|(i, enc)| (enc.bind(df.column(i)), self.offsets[i]))
            .collect();
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for r in 0..df.n_rows() {
            for (enc, offset) in &bound {
                enc.encode(r, *offset, &mut pairs);
            }
            builder
                .push_row_pairs(&mut pairs)
                .expect("encoder offsets stay in bounds");
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_corruptions::{standard_tabular_suite, CategoryFlip, ErrorGen, SwappedColumns, Typos};
    use lvp_dataframe::{
        read_csv_str, toy_frame, write_csv_string, CellValue, CsvOptions, DataFrameBuilder, Field,
        Schema,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pipeline_width_covers_all_columns() {
        let df = toy_frame(10);
        let p = FeaturePipeline::fit(&df, &PipelineConfig::default());
        // 1 numeric dim + 2 one-hot categories ("even"/"odd").
        assert_eq!(p.total_width, 3);
    }

    #[test]
    fn transform_produces_expected_shape() {
        let df = toy_frame(8);
        let p = FeaturePipeline::fit(&df, &PipelineConfig::default());
        let x = p.transform(&df);
        assert_eq!(x.rows(), 8);
        assert_eq!(x.cols(), 3);
    }

    #[test]
    fn transform_on_unseen_data_keeps_dimensionality() {
        let train = toy_frame(10);
        let serve = toy_frame(4);
        let p = FeaturePipeline::fit(&train, &PipelineConfig::default());
        let x = p.transform(&serve);
        assert_eq!(x.cols(), p.total_width);
        assert_eq!(x.rows(), 4);
    }

    #[test]
    fn missing_cells_encode_to_zero_rows() {
        let mut df = toy_frame(3);
        df.column_mut(0).set_null(1);
        df.column_mut(1).set_null(1);
        let p = FeaturePipeline::fit(&toy_frame(10), &PipelineConfig::default());
        let x = p.transform(&df);
        let (idx, _) = x.row(1);
        assert!(idx.is_empty(), "fully-missing row must encode to zeros");
    }

    #[test]
    fn standardization_uses_training_statistics() {
        let train = toy_frame(11); // x: 0..=10, mean 5
        let p = FeaturePipeline::fit(&train, &PipelineConfig::default());
        let x = p.transform(&train);
        // Column 0 of row 5 holds (5 - mean)/std == 0 → stored as implicit zero.
        let (idx, _) = x.row(5);
        assert!(!idx.contains(&0));
        // Row 0 holds a negative standardized value in column 0.
        let (idx, vals) = x.row(0);
        assert_eq!(idx.first(), Some(&0));
        assert!(vals[0] < 0.0);
    }

    /// One numeric column `x` and one categorical column `c`.
    fn mixed_schema() -> Schema {
        Schema::new(vec![
            Field::new("x", ColumnType::Numeric),
            Field::new("c", ColumnType::Categorical),
        ])
        .unwrap()
    }

    /// Builds a random small mixed frame from proptest-generated cells.
    fn build_frame(nums: &[f64], cats: &[u8]) -> DataFrame {
        let n = nums.len().min(cats.len());
        let mut b = DataFrameBuilder::new(mixed_schema(), vec!["n".into(), "y".into()]);
        for i in 0..n {
            b.push_row(
                vec![
                    CellValue::Num(nums[i]),
                    CellValue::Cat(format!("c{}", cats[i] % 5)),
                ],
                (i % 2) as u32,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn featurization_dimensionality_is_stable_under_corruption(
            nums in prop::collection::vec(-100f64..100.0, 8..40),
            cats in prop::collection::vec(0u8..255, 8..40),
            seed in 0u64..1000,
        ) {
            let df = build_frame(&nums, &cats);
            let pipeline = FeaturePipeline::fit(&df, &PipelineConfig::default());
            let clean = pipeline.transform(&df);
            let mut rng = StdRng::seed_from_u64(seed);
            for gen in standard_tabular_suite(df.schema()) {
                let corrupted = gen.corrupt(&df, &mut rng);
                let x = pipeline.transform(&corrupted);
                prop_assert_eq!(x.cols(), clean.cols(), "{}", gen.name());
                prop_assert_eq!(x.rows(), clean.rows(), "{}", gen.name());
            }
        }

        #[test]
        fn corrupted_frames_survive_a_csv_round_trip_by_value(
            nums in prop::collection::vec(-1000f64..1000.0, 4..40),
            cats in prop::collection::vec(0u8..255, 4..40),
            seed in 0u64..1000,
        ) {
            let n = nums.len().min(cats.len());
            let mut b = DataFrameBuilder::new(mixed_schema(), vec!["n".into(), "y".into()]);
            for i in 0..n {
                // Multi-letter categories, so a typo never leaves a number.
                let cat = CellValue::Cat(format!("cat{}", cats[i] % 5));
                b.push_row(vec![CellValue::Num(nums[i]), cat], (i % 2) as u32).unwrap();
            }
            // The reversed rows keep the builder's dictionary, whose order is
            // not their first-seen order, which the CSV reader's has.
            let df = b.finish().unwrap().select_rows(&(0..n).rev().collect::<Vec<_>>());
            let pipeline = FeaturePipeline::fit(&df, &PipelineConfig::default());
            let gens: Vec<Box<dyn ErrorGen>> = vec![
                Box::new(Typos::all_categorical(df.schema())),
                Box::new(CategoryFlip::all_categorical(df.schema())),
                Box::new(SwappedColumns::all_pairs(df.schema())),
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut corrupted = df.clone();
            for gen in &gens {
                corrupted = gen.corrupt(&corrupted, &mut rng);
                let csv = write_csv_string(&corrupted).unwrap();
                let back = read_csv_str(&csv, "label", &CsvOptions::default()).unwrap();
                // CSV stores no types: the reader infers a column as numeric
                // when every value it holds is a number, and as categorical
                // when it holds none, which a fully swapped pair of columns
                // does. Values are only comparable under the same schema.
                if back.schema() != corrupted.schema() {
                    prop_assert_eq!(gen.name(), "swapped_columns");
                    continue;
                }
                // The copy's dictionary extends its parent's; the read-back
                // frame's holds only the values its cells hold, in first-seen
                // order. Equality and featurization see values alone.
                prop_assert_eq!(&back, &corrupted, "{}", gen.name());
                let (a, b) = (pipeline.transform(&back), pipeline.transform(&corrupted));
                prop_assert_eq!(a.rows(), b.rows());
                for r in 0..a.rows() {
                    let ((ia, va), (ib, vb)) = (a.row(r), b.row(r));
                    prop_assert_eq!(ia, ib, "{} row {}", gen.name(), r);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(va), bits(vb), "{} row {}", gen.name(), r);
                }
            }
        }

        #[test]
        fn one_hot_unseen_rows_encode_to_zero_block(
            cats in prop::collection::vec(0u8..5, 8..40),
        ) {
            let nums: Vec<f64> = (0..cats.len()).map(|i| i as f64).collect();
            let df = build_frame(&nums, &cats);
            let pipeline = FeaturePipeline::fit(&df, &PipelineConfig::default());
            // A frame with a category never seen during fitting.
            let schema = df.schema().clone();
            let mut b = DataFrameBuilder::new(schema, vec!["n".into(), "y".into()]);
            b.push_row(vec![CellValue::Num(0.0), CellValue::Cat("UNSEEN".into())], 0).unwrap();
            let unseen = b.finish().unwrap();
            let x = pipeline.transform(&unseen);
            // Only the numeric dim may be nonzero.
            let (idx, _) = x.row(0);
            prop_assert!(idx.iter().all(|&c| c == 0));
        }
    }
}
