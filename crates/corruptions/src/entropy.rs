//! Model-entropy-based missing values (§6 "Model-entropy based missing
//! values"): an active-learning-flavoured corruption that discards values
//! from the examples the classifier is *most certain* about.
//!
//! Uncertainty is measured as `1 − p_max` where `p_max` is the highest class
//! probability the model assigns to the example; values are dropped from
//! the least-uncertain ("easy") samples. This makes the corruption depend
//! on the deployed model's behaviour, which is why it needs
//! [`ErrorGen::corrupt_with_model`].

use crate::{sample_fraction, ErrorGen, Hits};
use lvp_dataframe::{DataFrame, Schema};
use lvp_models::BlackBoxModel;
use rand::rngs::StdRng;
use rand::Rng;

/// Drops values from the examples the model classifies most confidently.
#[derive(Debug, Clone)]
pub struct EntropyMissingValues {
    candidate_columns: Vec<usize>,
}

impl EntropyMissingValues {
    /// Targets all categorical and numeric columns of the schema.
    pub fn all_tabular(schema: &Schema) -> Self {
        let mut cols = schema.categorical_columns();
        cols.extend(schema.numeric_columns());
        Self {
            candidate_columns: cols,
        }
    }
}

impl ErrorGen for EntropyMissingValues {
    fn touched_columns(&self, _df: &DataFrame) -> Vec<usize> {
        self.candidate_columns.clone()
    }

    fn name(&self) -> &str {
        "entropy_missing_values"
    }

    /// Without a model the generator degrades to uniformly random missing
    /// values over its candidate columns.
    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        let mut out = df.clone();
        if self.candidate_columns.is_empty() {
            return out;
        }
        let col = self.candidate_columns[rng.gen_range(0..self.candidate_columns.len())];
        let hits = Hits(sample_fraction(rng));
        hits.each(out.n_rows(), rng, |row, _| {
            out.column_mut(col).set_null(row)
        });
        out
    }

    fn corrupt_with_model(
        &self,
        df: &DataFrame,
        model: Option<&dyn BlackBoxModel>,
        rng: &mut StdRng,
    ) -> DataFrame {
        let Some(model) = model else {
            return self.corrupt(df, rng);
        };
        if self.candidate_columns.is_empty() || df.n_rows() == 0 {
            return df.clone();
        }
        let proba = model.predict_proba(df);
        // Uncertainty 1 - p_max per row; ascending sort puts "easy"
        // (confidently classified) rows first.
        let mut order: Vec<(usize, f64)> = proba
            .row_iter()
            .enumerate()
            .map(|(i, row)| {
                let p_max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (i, 1.0 - p_max)
            })
            .collect();
        order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let col = self.candidate_columns[rng.gen_range(0..self.candidate_columns.len())];
        let p = sample_fraction(rng);
        let n_drop = ((df.n_rows() as f64) * p).round() as usize;
        let mut out = df.clone();
        for &(row, _) in order.iter().take(n_drop) {
            out.column_mut(col).set_null(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_dataframe::toy_frame;
    use lvp_linalg::DenseMatrix;
    use rand::SeedableRng;

    /// A fake model that is confident on even rows, uncertain on odd rows.
    struct AlternatingConfidence;

    impl BlackBoxModel for AlternatingConfidence {
        fn try_predict_proba(
            &self,
            data: &DataFrame,
        ) -> Result<DenseMatrix, lvp_models::ModelError> {
            let mut m = DenseMatrix::zeros(data.n_rows(), 2);
            for r in 0..data.n_rows() {
                // toy_frame stores row index in the numeric column.
                let idx = data.column(0).as_numeric().unwrap()[r].unwrap_or(1.0) as usize;
                let p = if idx.is_multiple_of(2) { 0.99 } else { 0.55 };
                m.set(r, 0, p);
                m.set(r, 1, 1.0 - p);
            }
            Ok(m)
        }

        fn n_classes(&self) -> usize {
            2
        }

        fn name(&self) -> &str {
            "fake"
        }
    }

    #[test]
    fn drops_values_from_confident_rows_first() {
        let df = toy_frame(100);
        let gen = EntropyMissingValues::all_tabular(df.schema());
        let model = AlternatingConfidence;
        // Try several seeds; whenever fewer than half the rows are dropped,
        // every dropped row must be an even ("easy") one.
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = gen.corrupt_with_model(&df, Some(&model), &mut rng);
            let mut dropped_rows = Vec::new();
            for col in 0..out.n_cols() {
                for r in 0..out.n_rows() {
                    let orig_present = !matches!(df.cell(r, col), lvp_dataframe::CellValue::Null);
                    let now_missing = matches!(out.cell(r, col), lvp_dataframe::CellValue::Null);
                    if orig_present && now_missing {
                        dropped_rows.push(r);
                    }
                }
            }
            if !dropped_rows.is_empty() && dropped_rows.len() <= 50 {
                assert!(
                    dropped_rows.iter().all(|r| r % 2 == 0),
                    "seed {seed}: dropped odd (uncertain) rows {dropped_rows:?}"
                );
            }
        }
    }

    #[test]
    fn without_model_falls_back_to_random_missing() {
        let df = toy_frame(100);
        let gen = EntropyMissingValues::all_tabular(df.schema());
        let mut rng = StdRng::seed_from_u64(1);
        let out = gen.corrupt_with_model(&df, None, &mut rng);
        assert_eq!(out.n_rows(), 100);
    }

    #[test]
    fn preserves_shape_and_labels() {
        let df = toy_frame(60);
        let gen = EntropyMissingValues::all_tabular(df.schema());
        let mut rng = StdRng::seed_from_u64(2);
        let out = gen.corrupt_with_model(&df, Some(&AlternatingConfidence), &mut rng);
        assert_eq!(out.labels(), df.labels());
        assert_eq!(out.schema(), df.schema());
    }
}
