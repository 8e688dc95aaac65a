//! Extended error generators beyond the paper's evaluated set.
//!
//! §7 names "investigating the effects of more error types" as future
//! work; these generators cover additional failure modes commonly seen in
//! production pipelines:
//!
//! * [`SelectionBias`] — the serving batch is not an i.i.d. sample but
//!   filtered towards one side of a numeric column (covariate shift from,
//!   e.g., a partial upstream outage),
//! * [`CategoryFlip`] — values of a categorical column are replaced by
//!   *other valid categories* (a broken join attaching the wrong
//!   dimension rows; invisible to null counting),
//! * [`ConstantFill`] — a column collapses to a single default value
//!   (a defaulting bug in input forms),
//! * [`DuplicateRows`] — a fraction of rows is duplicated (at-least-once
//!   delivery in the ingestion pipeline).

use crate::{sample_fraction, CellWise, ErrorGen, Hits};
use lvp_dataframe::{DataFrame, Schema};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Serves a non-i.i.d. batch biased towards low or high values of a
/// randomly chosen numeric column.
#[derive(Debug, Clone)]
pub struct SelectionBias {
    candidate_columns: Vec<usize>,
}

impl SelectionBias {
    /// Targets all numeric columns of the schema.
    pub fn all_numeric(schema: &Schema) -> Self {
        Self {
            candidate_columns: schema.numeric_columns(),
        }
    }
}

impl ErrorGen for SelectionBias {
    fn touched_columns(&self, _df: &DataFrame) -> Vec<usize> {
        // Pure row re-selection: no cell value is ever altered.
        Vec::new()
    }

    fn name(&self) -> &str {
        "selection_bias"
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        if self.candidate_columns.is_empty() || df.n_rows() < 4 {
            return df.clone();
        }
        let col = self.candidate_columns[rng.gen_range(0..self.candidate_columns.len())];
        let values = df.column(col).as_numeric().expect("numeric candidate");
        let mut order: Vec<usize> = (0..df.n_rows()).collect();
        order.sort_by(|&a, &b| {
            let va = values[a].unwrap_or(f64::MAX);
            let vb = values[b].unwrap_or(f64::MAX);
            va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
        });
        if rng.gen_bool(0.5) {
            order.reverse();
        }
        // Keep between 30% and 90% of the rows from the biased end.
        let keep_frac = rng.gen_range(0.3..0.9);
        let keep = ((df.n_rows() as f64) * keep_frac).round().max(2.0) as usize;
        order.truncate(keep.min(df.n_rows()));
        order.shuffle(rng);
        df.select_rows(&order)
    }
}

/// Replaces categorical values with *other* categories observed in the
/// same column.
#[derive(Debug, Clone)]
pub struct CategoryFlip(Vec<usize>);

impl CategoryFlip {
    /// Targets all categorical columns of the schema.
    pub fn all_categorical(schema: &Schema) -> Self {
        Self(schema.categorical_columns())
    }
}

impl CellWise for CategoryFlip {
    const NAME: &'static str = "category_flip";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        // The codes of the distinct values the cells hold, sorted by
        // value. Distinct values have distinct codes, so comparing
        // codes compares values.
        let distinct: Vec<u32> = {
            let values = out.column(col).as_categorical().expect("categorical");
            let dictionary = values.dictionary();
            let mut present = vec![false; dictionary.len()];
            for code in values.codes().flatten() {
                present[code as usize] = true;
            }
            let mut d: Vec<u32> = (0..dictionary.len() as u32)
                .filter(|&code| present[code as usize])
                .collect();
            d.sort_by_key(|&code| &dictionary[code as usize]);
            d
        };
        if distinct.len() < 2 {
            return;
        }
        let values = out
            .column_mut(col)
            .as_categorical_mut()
            .expect("categorical candidate");
        hits.each(values.len(), rng, |row, rng| {
            if let Some(current) = values.code(row) {
                // Draw a replacement different from the current value.
                loop {
                    let candidate = distinct[rng.gen_range(0..distinct.len())];
                    if candidate != current {
                        values.set_code(row, Some(candidate));
                        break;
                    }
                }
            }
        });
    }
}

/// Collapses a fraction of a column to a constant default value.
#[derive(Debug, Clone)]
pub struct ConstantFill {
    numeric_columns: Vec<usize>,
    categorical_columns: Vec<usize>,
}

impl ConstantFill {
    /// Targets all numeric and categorical columns of the schema.
    pub fn all_tabular(schema: &Schema) -> Self {
        Self {
            numeric_columns: schema.numeric_columns(),
            categorical_columns: schema.categorical_columns(),
        }
    }
}

impl ErrorGen for ConstantFill {
    fn touched_columns(&self, _df: &DataFrame) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .numeric_columns
            .iter()
            .chain(&self.categorical_columns)
            .copied()
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn name(&self) -> &str {
        "constant_fill"
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        let mut out = df.clone();
        let numeric_first = !self.numeric_columns.is_empty()
            && (self.categorical_columns.is_empty() || rng.gen_bool(0.5));
        let hits = Hits(sample_fraction(rng));
        if numeric_first {
            let col = self.numeric_columns[rng.gen_range(0..self.numeric_columns.len())];
            let values = out.column_mut(col).as_numeric_mut().expect("numeric");
            // Zero: the classic uninitialized default.
            hits.each(values.len(), rng, |row, _| values[row] = Some(0.0));
        } else if !self.categorical_columns.is_empty() {
            let col = self.categorical_columns[rng.gen_range(0..self.categorical_columns.len())];
            let values = out
                .column_mut(col)
                .as_categorical_mut()
                .expect("categorical");
            let unknown = values.intern("unknown");
            hits.each(values.len(), rng, |row, _| {
                values.set_code(row, Some(unknown));
            });
        }
        out
    }
}

/// Duplicates a fraction of the rows (at-least-once ingestion).
#[derive(Debug, Clone, Default)]
pub struct DuplicateRows;

impl ErrorGen for DuplicateRows {
    fn touched_columns(&self, _df: &DataFrame) -> Vec<usize> {
        // Pure row re-selection: no cell value is ever altered.
        Vec::new()
    }

    fn name(&self) -> &str {
        "duplicate_rows"
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        if df.n_rows() == 0 {
            return df.clone();
        }
        let hits = Hits(sample_fraction(rng));
        let mut indices: Vec<usize> = (0..df.n_rows()).collect();
        hits.each(df.n_rows(), rng, |row, _| indices.push(row));
        indices.shuffle(rng);
        df.select_rows(&indices)
    }
}

/// Suite of the extended (beyond-paper) error types applicable to tabular
/// data.
pub fn extended_tabular_suite(schema: &Schema) -> Vec<Box<dyn ErrorGen>> {
    vec![
        Box::new(SelectionBias::all_numeric(schema)),
        Box::new(CategoryFlip::all_categorical(schema)),
        Box::new(ConstantFill::all_tabular(schema)),
        Box::new(DuplicateRows),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_dataframe::toy_frame;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn selection_bias_shrinks_and_biases_the_batch() {
        let df = toy_frame(200);
        let gen = SelectionBias::all_numeric(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        assert!(out.n_rows() < df.n_rows());
        assert!(out.n_rows() >= 2);
        // The kept values must be a contiguous prefix/suffix of the sorted
        // value range, i.e. mean differs from the full mean.
        let full_mean: f64 = df
            .column(0)
            .as_numeric()
            .unwrap()
            .iter()
            .flatten()
            .sum::<f64>()
            / df.n_rows() as f64;
        let kept_mean: f64 = out
            .column(0)
            .as_numeric()
            .unwrap()
            .iter()
            .flatten()
            .sum::<f64>()
            / out.n_rows() as f64;
        assert!((kept_mean - full_mean).abs() > 1.0);
    }

    #[test]
    fn category_flip_replaces_with_other_valid_categories() {
        let df = toy_frame(300);
        let gen = CategoryFlip::all_categorical(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        let orig = df.column(1).as_categorical().unwrap();
        let new = out.column(1).as_categorical().unwrap();
        let mut flipped = 0;
        for (o, n) in orig.iter().zip(new.iter()) {
            let n = n.expect("flip never introduces nulls");
            assert!(n == "even" || n == "odd", "only valid categories: {n}");
            if o != Some(n) {
                flipped += 1;
            }
        }
        assert!(flipped > 0);
    }

    #[test]
    fn constant_fill_collapses_values() {
        let df = toy_frame(300);
        let gen = ConstantFill::all_tabular(df.schema());
        let mut changed_any = false;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = gen.corrupt(&df, &mut rng);
            if out != df {
                changed_any = true;
            }
            assert_eq!(out.n_rows(), df.n_rows());
        }
        assert!(changed_any);
    }

    #[test]
    fn duplicate_rows_grows_the_batch() {
        let df = toy_frame(100);
        let mut rng = rng();
        let out = DuplicateRows.corrupt(&df, &mut rng);
        assert!(out.n_rows() > df.n_rows());
        assert!(out.n_rows() <= 2 * df.n_rows());
    }

    #[test]
    fn extended_suite_has_four_members() {
        let df = toy_frame(4);
        assert_eq!(extended_tabular_suite(df.schema()).len(), 4);
    }

    #[test]
    fn selection_bias_on_empty_frame_is_identity() {
        let df = toy_frame(2);
        let empty = df.select_rows(&[]);
        let gen = SelectionBias::all_numeric(df.schema());
        let mut rng = rng();
        assert_eq!(gen.corrupt(&empty, &mut rng).n_rows(), 0);
    }
}
