//! Error generators for tabular (numeric + categorical) attributes.

use crate::{sample_fraction, CellWise, ErrorGen, Hits};
use lvp_dataframe::{DataFrame, Schema};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// The numeric cells of candidate column `col`, materialized.
fn numeric_mut(out: &mut DataFrame, col: usize) -> &mut Vec<Option<f64>> {
    out.column_mut(col)
        .as_numeric_mut()
        .expect("numeric candidate")
}

/// Introduces missing values at random into categorical columns
/// (the paper's first error type; e.g. nulls from broken data integration).
#[derive(Debug, Clone)]
pub struct MissingValues(Vec<usize>);

impl MissingValues {
    /// Targets all categorical columns of the schema.
    pub fn all_categorical(schema: &Schema) -> Self {
        Self(schema.categorical_columns())
    }
}

impl CellWise for MissingValues {
    const NAME: &'static str = "missing_values";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        // `column_mut` per hit: a column no row hits keeps sharing storage.
        hits.each(out.n_rows(), rng, |row, _| {
            out.column_mut(col).set_null(row)
        });
    }
}

/// Adds Gaussian noise centered at the data point with a standard deviation
/// scaled from `[2, 5]` column standard deviations (the paper's outlier
/// generator).
#[derive(Debug, Clone)]
pub struct Outliers(Vec<usize>);

impl Outliers {
    /// Targets all numeric columns of the schema.
    pub fn all_numeric(schema: &Schema) -> Self {
        Self(schema.numeric_columns())
    }
}

fn column_std(values: &[Option<f64>]) -> f64 {
    let present: Vec<f64> = values
        .iter()
        .flatten()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if present.len() < 2 {
        return 1.0;
    }
    let mean = present.iter().sum::<f64>() / present.len() as f64;
    let var = present.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / present.len() as f64;
    if var > 0.0 {
        var.sqrt()
    } else {
        1.0
    }
}

impl CellWise for Outliers {
    const NAME: &'static str = "outliers";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let scale: f64 = rng.gen_range(2.0..5.0);
        let std = column_std(out.column(col).as_numeric().expect("numeric candidate"));
        let noise = Normal::new(0.0, scale * std).expect("finite parameters");
        let values = numeric_mut(out, col);
        hits.each(values.len(), rng, |row, rng| {
            if let Some(x) = &mut values[row] {
                *x += noise.sample(rng);
            }
        });
    }
}

/// Swaps a proportion of values between pairs of categorical and numeric
/// columns (the paper's swapped-columns error; e.g. buggy input forms).
#[derive(Debug, Clone)]
pub struct SwappedColumns {
    numeric_columns: Vec<usize>,
    categorical_columns: Vec<usize>,
}

impl SwappedColumns {
    /// Considers all (categorical, numeric) pairs of the schema.
    pub fn all_pairs(schema: &Schema) -> Self {
        Self {
            numeric_columns: schema.numeric_columns(),
            categorical_columns: schema.categorical_columns(),
        }
    }
}

impl ErrorGen for SwappedColumns {
    fn touched_columns(&self, df: &DataFrame) -> Vec<usize> {
        if self.numeric_columns.is_empty() || self.categorical_columns.is_empty() {
            // The degenerate fallback swaps between any pair of columns.
            return (0..df.n_cols()).collect();
        }
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
        "swapped_columns"
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        let mut out = df.clone();
        if self.numeric_columns.is_empty() || self.categorical_columns.is_empty() {
            // Degenerate schema: swap within the same type family instead.
            let all: Vec<usize> = (0..df.n_cols()).collect();
            if all.len() < 2 {
                return out;
            }
            let a = all[rng.gen_range(0..all.len())];
            let mut b = all[rng.gen_range(0..all.len())];
            while b == a {
                b = all[rng.gen_range(0..all.len())];
            }
            let rows = Hits(sample_fraction(rng)).rows(out.n_rows(), rng);
            out.swap_cells(a, b, &rows);
            return out;
        }
        let n_pairs = rng.gen_range(
            1..=self
                .numeric_columns
                .len()
                .min(self.categorical_columns.len()),
        );
        for _ in 0..n_pairs {
            let num = self.numeric_columns[rng.gen_range(0..self.numeric_columns.len())];
            let cat = self.categorical_columns[rng.gen_range(0..self.categorical_columns.len())];
            let rows = Hits(sample_fraction(rng)).rows(out.n_rows(), rng);
            out.swap_cells(num, cat, &rows);
        }
        out
    }
}

/// Scales a subset of numeric values by 10, 100 or 1000 (the paper's
/// unit-change bug, e.g. seconds accidentally recorded as milliseconds).
#[derive(Debug, Clone)]
pub struct Scaling(Vec<usize>);

impl Scaling {
    /// Targets all numeric columns of the schema.
    pub fn all_numeric(schema: &Schema) -> Self {
        Self(schema.numeric_columns())
    }

    /// Targets an explicit set of column indices.
    pub fn for_columns(columns: Vec<usize>) -> Self {
        Self(columns)
    }
}

impl CellWise for Scaling {
    const NAME: &'static str = "scaling";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let factor = [10.0, 100.0, 1000.0][rng.gen_range(0..3)];
        let values = numeric_mut(out, col);
        hits.each(values.len(), rng, |row, _| {
            if let Some(x) = &mut values[row] {
                *x *= factor;
            }
        });
    }
}

/// Introduces typos into categorical values (§6.2.2 "unknown" error).
///
/// A typo turns a category into a string the one-hot encoder has never
/// seen, which encodes to a zero vector — the same mechanism as a missing
/// value, which is exactly why the predictor generalizes to it.
#[derive(Debug, Clone)]
pub struct Typos(Vec<usize>);

impl Typos {
    /// Targets all categorical columns of the schema.
    pub fn all_categorical(schema: &Schema) -> Self {
        Self(schema.categorical_columns())
    }
}

fn introduce_typo(value: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = value.chars().collect();
    if chars.is_empty() {
        return "x".to_string();
    }
    let pos = rng.gen_range(0..chars.len());
    let mut out = String::with_capacity(value.len() + 1);
    match rng.gen_range(0..3) {
        0 => {
            // Duplicate a character.
            for (i, c) in chars.iter().enumerate() {
                out.push(*c);
                if i == pos {
                    out.push(*c);
                }
            }
        }
        1 => {
            // Drop a character (keep at least one).
            if chars.len() == 1 {
                out.push('x');
            } else {
                for (i, c) in chars.iter().enumerate() {
                    if i != pos {
                        out.push(*c);
                    }
                }
            }
        }
        _ => {
            // Substitute with a neighbouring letter.
            for (i, c) in chars.iter().enumerate() {
                if i == pos {
                    out.push(((*c as u8).wrapping_add(1)) as char);
                } else {
                    out.push(*c);
                }
            }
        }
    }
    out
}

impl CellWise for Typos {
    const NAME: &'static str = "typos";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let values = out
            .column_mut(col)
            .as_categorical_mut()
            .expect("categorical candidate");
        hits.each(values.len(), rng, |row, rng| {
            if let Some(s) = values.get(row) {
                let typo = introduce_typo(s, rng);
                values.set(row, Some(&typo));
            }
        });
    }
}

/// "Smears" numeric values by a random ±10% (§6.2.2 "unknown" error).
#[derive(Debug, Clone)]
pub struct Smearing(Vec<usize>);

impl Smearing {
    /// Targets all numeric columns of the schema.
    pub fn all_numeric(schema: &Schema) -> Self {
        Self(schema.numeric_columns())
    }
}

impl CellWise for Smearing {
    const NAME: &'static str = "smearing";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let values = numeric_mut(out, col);
        hits.each(values.len(), rng, |row, rng| {
            if let Some(x) = &mut values[row] {
                *x *= 1.0 + rng.gen_range(-0.10..0.10);
            }
        });
    }
}

/// Flips the sign of numeric values (§6.2.2 "unknown" error).
#[derive(Debug, Clone)]
pub struct FlippedSign(Vec<usize>);

impl FlippedSign {
    /// Targets all numeric columns of the schema.
    pub fn all_numeric(schema: &Schema) -> Self {
        Self(schema.numeric_columns())
    }
}

impl CellWise for FlippedSign {
    const NAME: &'static str = "flipped_sign";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let values = numeric_mut(out, col);
        hits.each(values.len(), rng, |row, _| {
            if let Some(x) = &mut values[row] {
                *x = -*x;
            }
        });
    }
}

/// Simulates encoding errors in categorical or text values by swapping
/// characters for look-alikes from a different encoding (the paper's §4
/// example: `E → É`, `ö/ü → œ`).
#[derive(Debug, Clone)]
pub struct EncodingErrors(Vec<usize>);

impl EncodingErrors {
    /// Targets all text columns of the schema.
    pub fn all_text(schema: &Schema) -> Self {
        Self(schema.text_columns())
    }

    /// Targets all categorical columns of the schema.
    pub fn all_categorical(schema: &Schema) -> Self {
        Self(schema.categorical_columns())
    }
}

fn garble_encoding(value: &str) -> String {
    value
        .replace('E', "É")
        .replace('e', "é")
        .replace('o', "œ")
        .replace('u', "û")
}

impl CellWise for EncodingErrors {
    const NAME: &'static str = "encoding_errors";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let column = out.column_mut(col);
        if let Ok(values) = column.as_text_mut() {
            hits.each(values.len(), rng, |row, _| {
                if let Some(s) = &mut values[row] {
                    *s = garble_encoding(s);
                }
            });
        } else if let Ok(values) = column.as_categorical_mut() {
            hits.each(values.len(), rng, |row, _| {
                if let Some(s) = values.get(row) {
                    let garbled = garble_encoding(s);
                    values.set(row, Some(&garbled));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_dataframe::toy_frame;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn missing_values_introduces_nulls_only_in_categorical() {
        let df = toy_frame(200);
        let gen = MissingValues::all_categorical(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        assert_eq!(out.n_rows(), df.n_rows());
        assert!(out.column(1).null_count() > 0);
        assert_eq!(out.column(0).null_count(), 0);
        // Original untouched.
        assert_eq!(df.total_null_count(), 0);
    }

    #[test]
    fn outliers_changes_numeric_values() {
        let df = toy_frame(200);
        let gen = Outliers::all_numeric(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        let orig = df.column(0).as_numeric().unwrap();
        let new = out.column(0).as_numeric().unwrap();
        let changed = orig.iter().zip(new).filter(|(a, b)| a != b).count();
        assert!(changed > 0);
        // Labels must never change.
        assert_eq!(df.labels(), out.labels());
    }

    #[test]
    fn swapped_columns_moves_values_across_types() {
        let df = toy_frame(300);
        let gen = SwappedColumns::all_pairs(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        // Numeric column should have nulls (unparseable categories swapped
        // in) and categorical should contain numeric strings.
        assert!(out.column(0).null_count() > 0);
        let cats = out.column(1).as_categorical().unwrap();
        assert!(cats.iter().flatten().any(|s| s.parse::<f64>().is_ok()));
    }

    #[test]
    fn scaling_multiplies_by_power_of_ten() {
        let df = toy_frame(100);
        let gen = Scaling::all_numeric(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        let orig = df.column(0).as_numeric().unwrap();
        let new = out.column(0).as_numeric().unwrap();
        for (o, n) in orig.iter().zip(new) {
            let (o, n) = (o.unwrap(), n.unwrap());
            if o != n && o != 0.0 {
                let ratio = n / o;
                assert!(
                    [10.0, 100.0, 1000.0]
                        .iter()
                        .any(|f| (ratio - f).abs() < 1e-9),
                    "unexpected ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn typos_produce_unseen_categories() {
        let df = toy_frame(300);
        let gen = Typos::all_categorical(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        let cats = out.column(1).as_categorical().unwrap();
        let garbled = cats
            .iter()
            .flatten()
            .filter(|s| *s != "even" && *s != "odd")
            .count();
        assert!(garbled > 0);
    }

    #[test]
    fn typo_never_yields_original() {
        let mut rng = rng();
        for _ in 0..100 {
            let t = introduce_typo("married", &mut rng);
            assert_ne!(t, "married");
        }
    }

    #[test]
    fn smearing_stays_within_ten_percent() {
        let df = toy_frame(200);
        let gen = Smearing::all_numeric(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        let orig = df.column(0).as_numeric().unwrap();
        let new = out.column(0).as_numeric().unwrap();
        for (o, n) in orig.iter().zip(new) {
            let (o, n) = (o.unwrap(), n.unwrap());
            if o != 0.0 {
                assert!((n / o - 1.0).abs() <= 0.1 + 1e-9);
            }
        }
    }

    #[test]
    fn flipped_sign_negates() {
        let df = toy_frame(200);
        let gen = FlippedSign::all_numeric(df.schema());
        let mut rng = rng();
        let out = gen.corrupt(&df, &mut rng);
        let orig = df.column(0).as_numeric().unwrap();
        let new = out.column(0).as_numeric().unwrap();
        let flipped = orig
            .iter()
            .zip(new)
            .filter(|(o, n)| o.unwrap() != 0.0 && n.unwrap() == -o.unwrap())
            .count();
        assert!(flipped > 0);
    }

    #[test]
    fn encoding_errors_replace_characters() {
        assert_eq!(garble_encoding("hello you"), "héllœ yœû");
    }

    #[test]
    fn generators_never_change_row_count_or_labels() {
        let df = toy_frame(97);
        let mut rng = rng();
        let gens: Vec<Box<dyn ErrorGen>> = vec![
            Box::new(MissingValues::all_categorical(df.schema())),
            Box::new(Outliers::all_numeric(df.schema())),
            Box::new(SwappedColumns::all_pairs(df.schema())),
            Box::new(Scaling::all_numeric(df.schema())),
            Box::new(Typos::all_categorical(df.schema())),
            Box::new(Smearing::all_numeric(df.schema())),
            Box::new(FlippedSign::all_numeric(df.schema())),
        ];
        for g in &gens {
            let out = g.corrupt(&df, &mut rng);
            assert_eq!(out.n_rows(), 97, "{}", g.name());
            assert_eq!(out.labels(), df.labels(), "{}", g.name());
            assert_eq!(out.schema(), df.schema(), "{}", g.name());
        }
    }
}
