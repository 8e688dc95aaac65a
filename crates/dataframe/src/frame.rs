//! The [`DataFrame`] type and its builder.

use crate::column::format_num;
use crate::{CellValue, Column, ColumnType, Field, FrameError, Schema};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// A batch of labeled relational tuples with copy-on-write columnar storage.
///
/// Labels are class indices into [`DataFrame::label_names`]. The label column
/// is intentionally *not* part of the schema: the black box model and the
/// performance predictor only ever see the attribute columns, while the
/// experiment harness uses the labels to compute true scores.
///
/// Columns are reference-counted: cloning a frame shares every column, and
/// [`DataFrame::column_mut`] materializes a private copy of just the column
/// being written. Error generators clone the input frame and then mutate a
/// few columns, so the hundreds of corrupted copies Algorithm 1 creates
/// share the storage of every untouched column.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    labels: Vec<u32>,
    label_names: Vec<String>,
}

impl DataFrame {
    /// Builds a frame, validating that all columns and the label vector have
    /// equal lengths, columns match the schema types, and labels index into
    /// `label_names`.
    pub fn new(
        schema: Schema,
        columns: Vec<Column>,
        labels: Vec<u32>,
        label_names: Vec<String>,
    ) -> Result<Self, FrameError> {
        if schema.len() != columns.len() {
            return Err(FrameError::Invalid(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let n_rows = labels.len();
        for (i, col) in columns.iter().enumerate() {
            if col.len() != n_rows {
                return Err(FrameError::LengthMismatch(format!(
                    "column '{}' has {} rows, labels have {}",
                    schema.field(i).name,
                    col.len(),
                    n_rows
                )));
            }
            if col.ty() != schema.field(i).ty {
                return Err(FrameError::TypeMismatch(format!(
                    "column '{}' declared {:?} but stores {:?}",
                    schema.field(i).name,
                    schema.field(i).ty,
                    col.ty()
                )));
            }
        }
        if label_names.is_empty() && n_rows > 0 {
            return Err(FrameError::Invalid("label_names must not be empty".into()));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l as usize >= label_names.len()) {
            return Err(FrameError::Invalid(format!(
                "label {} out of range for {} classes",
                bad,
                label_names.len()
            )));
        }
        Ok(Self {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            labels,
            label_names,
        })
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of attribute columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// The frame's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Mutable column at position `i` (used by error generators, which
    /// always operate on a cloned frame). Copy-on-write: if the column is
    /// shared with another frame, a private copy is materialized first.
    pub fn column_mut(&mut self, i: usize) -> &mut Column {
        Arc::make_mut(&mut self.columns[i])
    }

    /// Whether `self` and `other` share the physical storage of column `i`
    /// (copy-on-write bookkeeping; used by tests and memory accounting).
    pub fn shares_column_storage(&self, other: &DataFrame, i: usize) -> bool {
        Arc::ptr_eq(&self.columns[i], &other.columns[i])
    }

    /// A clone that shares no column storage with `self` — every column is
    /// physically copied. Used by tests comparing copy-on-write behaviour
    /// against eager copies.
    pub fn deep_clone(&self) -> DataFrame {
        DataFrame {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(Column::clone(c)))
                .collect(),
            labels: self.labels.clone(),
            label_names: self.label_names.clone(),
        }
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, FrameError> {
        let i = self
            .schema
            .index_of(name)
            .ok_or_else(|| FrameError::UnknownColumn(name.to_string()))?;
        Ok(&self.columns[i])
    }

    /// Class labels, one per tuple.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Human-readable class names; `labels` index into this.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.label_names.len()
    }

    /// Labels as `usize` (convenience for metric computations).
    pub fn labels_usize(&self) -> Vec<usize> {
        self.labels.iter().map(|&l| l as usize).collect()
    }

    /// Swaps the cell values of two columns at each of `rows` in turn,
    /// applying the coercion rules of [`Column::set_cell_coercing`] in both
    /// directions. Empty `rows` leave both columns' storage shared.
    ///
    /// A numeric and a categorical column swap without a per-cell
    /// [`CellValue`]: each distinct number is formatted and interned once
    /// (per bit pattern) and each category parsed once (per code), in the
    /// order of `rows`, so the codes and the dictionary come out as a swap
    /// cell by cell leaves them. Other pairs of types swap cell by cell.
    pub fn swap_cells(&mut self, col_a: usize, col_b: usize, rows: &[usize]) {
        if rows.is_empty() {
            return;
        }
        match (self.columns[col_a].ty(), self.columns[col_b].ty()) {
            (ColumnType::Numeric, ColumnType::Categorical) => {
                self.swap_numbers_and_categories(col_a, col_b, rows)
            }
            (ColumnType::Categorical, ColumnType::Numeric) => {
                self.swap_numbers_and_categories(col_b, col_a, rows)
            }
            _ => {
                for &row in rows {
                    let a = self.columns[col_a].cell(row);
                    let b = self.columns[col_b].cell(row);
                    self.column_mut(col_a).set_cell_coercing(row, b);
                    self.column_mut(col_b).set_cell_coercing(row, a);
                }
            }
        }
    }

    /// [`Self::swap_cells`] of the numeric column `num` and the categorical
    /// column `cat`.
    fn swap_numbers_and_categories(&mut self, num: usize, cat: usize, rows: &[usize]) {
        let [num, cat] = self
            .columns
            .get_disjoint_mut([num, cat])
            .expect("columns of two types are two columns");
        let values = Arc::make_mut(num).as_numeric_mut().expect("numeric column");
        let categories = Arc::make_mut(cat)
            .as_categorical_mut()
            .expect("categorical column");
        let mut parsed: HashMap<u32, Option<f64>> = HashMap::new();
        let mut interned: HashMap<u64, u32> = HashMap::new();
        for &row in rows {
            let number = values[row];
            values[row] = categories.code(row).and_then(|code| {
                *parsed
                    .entry(code)
                    .or_insert_with(|| categories.dictionary()[code as usize].trim().parse().ok())
            });
            let code = number.map(|x| {
                *interned
                    .entry(x.to_bits())
                    .or_insert_with(|| categories.intern(&format_num(x)))
            });
            categories.set_code(row, code);
        }
    }

    /// Returns a new frame containing the selected rows, in order. Indices
    /// may repeat (sampling with replacement).
    ///
    /// Selecting every row in its original order (the identity selection)
    /// shares column storage with `self` instead of copying.
    pub fn select_rows(&self, indices: &[usize]) -> DataFrame {
        let identity =
            indices.len() == self.n_rows() && indices.iter().enumerate().all(|(i, &j)| i == j);
        if identity {
            return self.clone();
        }
        DataFrame {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.select(indices)))
                .collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            label_names: self.label_names.clone(),
        }
    }

    /// Randomly partitions the rows into two disjoint frames, the first
    /// containing `round(frac * n_rows)` rows.
    pub fn split_frac(&self, frac: f64, rng: &mut impl Rng) -> (DataFrame, DataFrame) {
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.shuffle(rng);
        let cut = ((self.n_rows() as f64) * frac).round() as usize;
        let cut = cut.min(self.n_rows());
        (self.select_rows(&idx[..cut]), self.select_rows(&idx[cut..]))
    }

    /// Draws `n` rows uniformly without replacement (all rows if `n` exceeds
    /// the frame size).
    pub fn sample_n(&self, n: usize, rng: &mut impl Rng) -> DataFrame {
        self.select_rows(&self.sample_indices(n, rng))
    }

    /// The row indices [`Self::sample_n`] selects, in draw order: `n` rows
    /// drawn uniformly without replacement (all rows if `n` exceeds the
    /// frame size). Both consume the same draws from `rng`.
    pub fn sample_indices(&self, n: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.shuffle(rng);
        idx.truncate(n.min(self.n_rows()));
        idx
    }

    /// The rows, in ascending order, at which `self` holds a different
    /// value than `base` in some column; `None` when `self` is not
    /// row-aligned with `base` (another row count, schema or labels), so
    /// that row `r` of one need not be row `r` of the other.
    ///
    /// Only the columns whose storage `self` no longer shares with `base`
    /// are compared: a shared column holds the same cells by construction.
    /// Categorical cells compare by value, whatever their dictionaries.
    /// Numeric and pixel values compare by bit pattern, so a difference
    /// only a bit pattern shows (`0.0` against `-0.0`) counts as a change.
    pub fn changed_rows(&self, base: &DataFrame) -> Option<Vec<usize>> {
        if self.n_rows() != base.n_rows()
            || self.schema != base.schema
            || self.labels != base.labels
        {
            return None;
        }
        let mut changed = vec![false; self.n_rows()];
        for (i, column) in self.columns.iter().enumerate() {
            if !self.shares_column_storage(base, i) {
                column.mark_changed_rows(&base.columns[i], &mut changed);
            }
        }
        Some(
            changed
                .iter()
                .enumerate()
                .filter(|(_, &c)| c)
                .map(|(r, _)| r)
                .collect(),
        )
    }

    /// Returns a class-balanced frame by downsampling every class to the
    /// size of the rarest class (the paper resamples to balanced classes to
    /// make accuracy interpretable).
    pub fn balance_classes(&self, rng: &mut impl Rng) -> DataFrame {
        let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); self.n_classes()];
        for (i, &l) in self.labels.iter().enumerate() {
            per_class[l as usize].push(i);
        }
        let min = per_class
            .iter()
            .map(Vec::len)
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0);
        let mut selected = Vec::with_capacity(min * self.n_classes());
        for class_rows in &mut per_class {
            class_rows.shuffle(rng);
            selected.extend_from_slice(&class_rows[..min.min(class_rows.len())]);
        }
        selected.shuffle(rng);
        self.select_rows(&selected)
    }

    /// Cell at `(row, col)` as a [`CellValue`].
    pub fn cell(&self, row: usize, col: usize) -> CellValue {
        self.columns[col].cell(row)
    }

    /// Total number of missing cells across all columns.
    pub fn total_null_count(&self) -> usize {
        self.columns.iter().map(|c| c.null_count()).sum()
    }
}

/// Incremental row-oriented builder used by the dataset generators.
#[derive(Debug)]
pub struct DataFrameBuilder {
    schema: Schema,
    columns: Vec<Column>,
    labels: Vec<u32>,
    label_names: Vec<String>,
}

impl DataFrameBuilder {
    /// Starts a builder for the given schema and class names.
    pub fn new(schema: Schema, label_names: Vec<String>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.ty))
            .collect();
        Self {
            schema,
            columns,
            labels: Vec::new(),
            label_names,
        }
    }

    /// Appends one tuple. `cells` must align with the schema; values are
    /// coerced per [`Column::set_cell_coercing`].
    pub fn push_row(&mut self, cells: Vec<CellValue>, label: u32) -> Result<(), FrameError> {
        if cells.len() != self.schema.len() {
            return Err(FrameError::LengthMismatch(format!(
                "row has {} cells, schema expects {}",
                cells.len(),
                self.schema.len()
            )));
        }
        let row = self.labels.len();
        for (col, cell) in self.columns.iter_mut().zip(cells) {
            // Grow the column with a placeholder, then coerce into it.
            match col {
                Column::Numeric(v) => v.push(None),
                Column::Categorical(v) => v.push(None),
                Column::Text(v) => v.push(None),
                Column::Image(v) => v.push(None),
            }
            col.set_cell_coercing(row, cell);
        }
        self.labels.push(label);
        Ok(())
    }

    /// Finalizes the frame.
    pub fn finish(self) -> Result<DataFrame, FrameError> {
        DataFrame::new(self.schema, self.columns, self.labels, self.label_names)
    }
}

/// Convenience constructor for test fixtures: a small frame with one numeric
/// and one categorical column.
pub fn toy_frame(n: usize) -> DataFrame {
    let schema = Schema::new(vec![
        Field::new("x", ColumnType::Numeric),
        Field::new("c", ColumnType::Categorical),
    ])
    .expect("valid schema");
    let mut b = DataFrameBuilder::new(schema, vec!["no".into(), "yes".into()]);
    for i in 0..n {
        b.push_row(
            vec![
                CellValue::Num(i as f64),
                CellValue::Cat(if i % 2 == 0 { "even" } else { "odd" }.into()),
            ],
            (i % 2) as u32,
        )
        .expect("row matches schema");
    }
    b.finish().expect("valid frame")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CategoricalColumn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_validates_column_count() {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let err = DataFrame::new(schema, vec![], vec![], vec!["a".into()]);
        assert!(err.is_err());
    }

    #[test]
    fn new_validates_lengths() {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let err = DataFrame::new(
            schema,
            vec![Column::Numeric(vec![Some(1.0)])],
            vec![0, 1],
            vec!["a".into(), "b".into()],
        );
        assert!(matches!(err, Err(FrameError::LengthMismatch(_))));
    }

    #[test]
    fn new_validates_column_types() {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let err = DataFrame::new(
            schema,
            vec![Column::Text(vec![Some("hi".into())])],
            vec![0],
            vec!["a".into()],
        );
        assert!(matches!(err, Err(FrameError::TypeMismatch(_))));
    }

    #[test]
    fn new_validates_label_range() {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let err = DataFrame::new(
            schema,
            vec![Column::Numeric(vec![Some(1.0)])],
            vec![5],
            vec!["a".into()],
        );
        assert!(err.is_err());
    }

    #[test]
    fn toy_frame_shape() {
        let df = toy_frame(10);
        assert_eq!(df.n_rows(), 10);
        assert_eq!(df.n_cols(), 2);
        assert_eq!(df.n_classes(), 2);
    }

    #[test]
    fn split_frac_partitions_rows() {
        let df = toy_frame(100);
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = df.split_frac(0.3, &mut rng);
        assert_eq!(a.n_rows(), 30);
        assert_eq!(b.n_rows(), 70);
    }

    #[test]
    fn sample_n_caps_at_frame_size() {
        let df = toy_frame(5);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(df.sample_n(10, &mut rng).n_rows(), 5);
        assert_eq!(df.sample_n(3, &mut rng).n_rows(), 3);
    }

    #[test]
    fn sample_n_oversized_returns_every_row_exactly_once() {
        // Regression: n > n_rows must be a permutation of the full frame —
        // all rows present, none duplicated — not a short or padded sample.
        let df = toy_frame(7);
        let mut rng = StdRng::seed_from_u64(9);
        for n in [7, 8, 100, usize::MAX] {
            let s = df.sample_n(n, &mut rng);
            assert_eq!(s.n_rows(), 7, "n={n}");
            let mut labels: Vec<u32> = s.labels().to_vec();
            labels.sort_unstable();
            let mut want: Vec<u32> = df.labels().to_vec();
            want.sort_unstable();
            assert_eq!(labels, want, "n={n}");
        }
        // Degenerate frames stay well-defined.
        let empty = df.sample_n(0, &mut rng);
        assert_eq!(empty.n_rows(), 0);
        assert_eq!(empty.n_cols(), df.n_cols());
    }

    #[test]
    fn sample_n_selects_the_sampled_indices_and_draws_alike() {
        let df = toy_frame(40);
        for n in [0, 1, 17, 40, 41] {
            let (mut a, mut b) = (
                StdRng::seed_from_u64(n as u64),
                StdRng::seed_from_u64(n as u64),
            );
            let sampled = df.sample_n(n, &mut a);
            let indices = df.sample_indices(n, &mut b);
            assert_eq!(sampled, df.select_rows(&indices), "n={n}");
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "n={n}: rng states diverged");
        }
    }

    #[test]
    fn changed_rows_finds_value_changes_in_unshared_columns() {
        let df = toy_frame(8);
        assert_eq!(df.clone().changed_rows(&df), Some(vec![]));
        let mut copy = df.clone();
        copy.column_mut(0).set_null(5);
        copy.column_mut(1)
            .set_cell_coercing(2, CellValue::Cat("new".into()));
        // Rewriting a cell with its own value changes nothing.
        copy.column_mut(1)
            .set_cell_coercing(3, CellValue::Cat("odd".into()));
        assert_eq!(copy.changed_rows(&df), Some(vec![2, 5]));
        // A deep copy shares no storage, so every column is compared.
        assert_eq!(df.deep_clone().changed_rows(&df), Some(vec![]));
        // Equal values under another dictionary layout are unchanged.
        let mut b = DataFrameBuilder::new(df.schema().clone(), df.label_names().to_vec());
        for r in (0..8).rev() {
            let cat = if r == 4 {
                CellValue::Cat("new".into())
            } else {
                df.cell(r, 1)
            };
            b.push_row(vec![df.cell(r, 0), cat], df.labels()[r])
                .unwrap();
        }
        let relaid = b.finish().unwrap().select_rows(&[7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(relaid.changed_rows(&df), Some(vec![4]));
    }

    #[test]
    fn changed_rows_compares_numbers_by_bits() {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let frame = |values: &[f64]| {
            let column = Column::Numeric(values.iter().copied().map(Some).collect());
            DataFrame::new(
                schema.clone(),
                vec![column],
                vec![0; values.len()],
                vec!["a".into()],
            )
            .unwrap()
        };
        let base = frame(&[f64::NAN, 0.0, 1.0]);
        assert_eq!(
            frame(&[f64::NAN, -0.0, 1.0]).changed_rows(&base),
            Some(vec![1])
        );
    }

    #[test]
    fn changed_rows_is_none_unless_row_aligned() {
        let df = toy_frame(6);
        // Another row count, other labels, another schema.
        assert_eq!(df.select_rows(&[0, 1, 2]).changed_rows(&df), None);
        assert_eq!(df.select_rows(&[1, 0, 2, 3, 4, 5]).changed_rows(&df), None);
        let renamed = DataFrame::new(
            Schema::new(vec![
                Field::new("y", ColumnType::Numeric),
                Field::new("c", ColumnType::Categorical),
            ])
            .unwrap(),
            vec![df.column(0).clone(), df.column(1).clone()],
            df.labels().to_vec(),
            df.label_names().to_vec(),
        )
        .unwrap();
        assert_eq!(renamed.changed_rows(&df), None);
        // Reordering rows of equal labels keeps alignment but changes values.
        assert_eq!(
            df.select_rows(&[2, 1, 0, 3, 4, 5]).changed_rows(&df),
            Some(vec![0, 2])
        );
    }

    #[test]
    fn balance_classes_equalizes_counts() {
        // 8 even (class 0), but drop some to make it unbalanced: build custom.
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let mut b = DataFrameBuilder::new(schema, vec!["a".into(), "b".into()]);
        for i in 0..30 {
            b.push_row(vec![CellValue::Num(i as f64)], u32::from(i < 10))
                .unwrap();
        }
        let df = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let bal = df.balance_classes(&mut rng);
        let ones = bal.labels().iter().filter(|&&l| l == 1).count();
        let zeros = bal.labels().iter().filter(|&&l| l == 0).count();
        assert_eq!(ones, 10);
        assert_eq!(zeros, 10);
    }

    #[test]
    fn swap_cells_coerces_both_directions() {
        let mut df = toy_frame(4);
        // numeric "0" <-> categorical "even"
        df.swap_cells(0, 1, &[0]);
        // numeric column got "even" -> unparseable -> null
        assert_eq!(df.column(0).as_numeric().unwrap()[0], None);
        // categorical column got 0.0 -> "0"
        assert_eq!(df.column(1).as_categorical().unwrap().get(0), Some("0"));
    }

    /// The swap row by row through [`CellValue`]s, as `swap_cells` once
    /// did it: the reference the bulk swap must match.
    fn swap_cell_by_cell(df: &mut DataFrame, col_a: usize, col_b: usize, rows: &[usize]) {
        for &row in rows {
            let a = df.column(col_a).cell(row);
            let b = df.column(col_b).cell(row);
            df.column_mut(col_a).set_cell_coercing(row, b);
            df.column_mut(col_b).set_cell_coercing(row, a);
        }
    }

    /// A seeded frame of numeric (0, 2), categorical (1, 3) and text (4)
    /// columns whose cells come from pools of awkward values, missing
    /// cells included.
    fn awkward_frame(n: usize, seed: u64) -> DataFrame {
        let numbers = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            7.0,
            -3.0,
            3.5,
            -2.25,
            0.1,
            1e15,
            1e20,
        ];
        let categories = [" 3.5 ", "7", "-0", "inf", "NaN", "1e20", "a", "b b"];
        let schema = Schema::new(vec![
            Field::new("n0", ColumnType::Numeric),
            Field::new("c0", ColumnType::Categorical),
            Field::new("n1", ColumnType::Numeric),
            Field::new("c1", ColumnType::Categorical),
            Field::new("t", ColumnType::Text),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DataFrameBuilder::new(schema, vec!["a".into()]);
        for _ in 0..n {
            let mut number = || match rng.gen_range(0..numbers.len() + 3) {
                i if i < numbers.len() => CellValue::Num(numbers[i]),
                i if i == numbers.len() => CellValue::Null,
                _ => CellValue::Num((rng.gen_range(-50.0..50.0_f64) * 4.0).round() / 4.0),
            };
            let (n0, n1) = (number(), number());
            let mut category = || match rng.gen_range(0..=categories.len()) {
                i if i < categories.len() => CellValue::Cat(categories[i].into()),
                _ => CellValue::Null,
            };
            let (c0, c1) = (category(), category());
            b.push_row(vec![n0, c0, n1, c1, CellValue::Text("t 1".into())], 0)
                .unwrap();
        }
        b.finish().unwrap()
    }

    /// Asserts that `a` and `b` hold the same cells, numbers by bit
    /// pattern, and the same codes under the same dictionaries.
    fn assert_same_cells(a: &DataFrame, b: &DataFrame, context: &str) {
        for col in 0..a.n_cols() {
            match (a.column(col), b.column(col)) {
                (Column::Numeric(x), Column::Numeric(y)) => {
                    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|c| c.map(f64::to_bits)).collect()
                    };
                    assert_eq!(bits(x), bits(y), "{context}: column {col}");
                }
                (Column::Categorical(x), Column::Categorical(y)) => {
                    assert_eq!(x.dictionary(), y.dictionary(), "{context}: column {col}");
                    assert!(x.codes().eq(y.codes()), "{context}: column {col}");
                }
                (x, y) => assert_eq!(x, y, "{context}: column {col}"),
            }
        }
    }

    #[test]
    fn bulk_swap_matches_the_cell_by_cell_swap() {
        let pairs = [
            (0, 1),
            (1, 0),
            (0, 1),
            (2, 1),
            (3, 0),
            (1, 2),
            (0, 4),
            (4, 3),
        ];
        for seed in 0..6 {
            let base = awkward_frame(120, seed);
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let (mut bulk, mut reference) = (base.clone(), base.clone());
            for (step, &(a, b)) in pairs.iter().enumerate() {
                // No row, every row, a few, half, or rows in random order
                // with repeats (a repeated row swaps back).
                let n = base.n_rows();
                let rows: Vec<usize> = match (step + seed as usize) % 5 {
                    4 => (0..n).map(|_| rng.gen_range(0..n)).collect(),
                    kind => {
                        let fraction = [0.0, 1.0, 0.05, 0.5][kind];
                        (0..n).filter(|_| rng.gen::<f64>() < fraction).collect()
                    }
                };
                let (before, reference_before) = (bulk.clone(), reference.clone());
                bulk.swap_cells(a, b, &rows);
                swap_cell_by_cell(&mut reference, a, b, &rows);
                let context = format!("seed {seed}, step {step}, swap ({a}, {b})");
                assert_same_cells(&bulk, &reference, &context);
                for col in 0..base.n_cols() {
                    let hit = !rows.is_empty() && (col == a || col == b);
                    assert_eq!(
                        bulk.shares_column_storage(&before, col),
                        !hit,
                        "{context}: column {col}"
                    );
                    if let (Column::Categorical(x), Column::Categorical(y)) =
                        (bulk.column(col), reference.column(col))
                    {
                        let dictionary_kept = |now: &CategoricalColumn, was: &DataFrame| {
                            now.shares_dictionary(was.column(col).as_categorical().unwrap())
                        };
                        assert_eq!(
                            dictionary_kept(x, &before),
                            dictionary_kept(y, &reference_before),
                            "{context}: column {col}"
                        );
                    }
                }
            }
            assert_ne!(bulk, base, "seed {seed}: the swaps changed nothing");
        }
    }

    #[test]
    fn select_rows_preserves_labels() {
        let df = toy_frame(6);
        let s = df.select_rows(&[5, 0]);
        assert_eq!(s.labels(), &[1, 0]);
        assert_eq!(s.column(0).as_numeric().unwrap()[0], Some(5.0));
    }

    #[test]
    fn column_by_name_errors_on_unknown() {
        let df = toy_frame(2);
        assert!(df.column_by_name("x").is_ok());
        assert!(matches!(
            df.column_by_name("nope"),
            Err(FrameError::UnknownColumn(_))
        ));
    }

    #[test]
    fn builder_rejects_wrong_arity() {
        let schema = Schema::new(vec![Field::new("x", ColumnType::Numeric)]).unwrap();
        let mut b = DataFrameBuilder::new(schema, vec!["a".into()]);
        assert!(b.push_row(vec![], 0).is_err());
    }

    #[test]
    fn total_null_count_sums_columns() {
        let mut df = toy_frame(3);
        df.column_mut(0).set_null(1);
        df.column_mut(1).set_null(2);
        assert_eq!(df.total_null_count(), 2);
    }

    #[test]
    fn clone_shares_all_column_storage() {
        let df = toy_frame(16);
        let copy = df.clone();
        for col in 0..df.n_cols() {
            assert!(df.shares_column_storage(&copy, col));
        }
    }

    #[test]
    fn column_mut_unshares_only_the_written_column() {
        let df = toy_frame(16);
        let mut copy = df.clone();
        copy.column_mut(0).set_null(3);
        assert!(!df.shares_column_storage(&copy, 0));
        assert!(df.shares_column_storage(&copy, 1));
        // The original is untouched by the copy's write.
        assert_eq!(df.column(0).null_count(), 0);
        assert_eq!(copy.column(0).null_count(), 1);
    }

    #[test]
    fn row_selection_and_other_column_writes_share_the_dictionary() {
        let df = toy_frame(16);
        let dictionary_shared = |other: &DataFrame| {
            let (a, b) = (df.column(1), other.column(1));
            a.as_categorical()
                .unwrap()
                .shares_dictionary(b.as_categorical().unwrap())
        };
        assert!(dictionary_shared(&df.select_rows(&[3, 1, 3])));
        assert!(dictionary_shared(
            &df.sample_n(5, &mut StdRng::seed_from_u64(3))
        ));
        let mut copy = df.clone();
        copy.column_mut(0).set_null(2);
        assert!(dictionary_shared(&copy));
        // Writing an existing value copies codes, not the dictionary.
        copy.column_mut(1)
            .set_cell_coercing(0, CellValue::Cat("odd".into()));
        assert!(!df.shares_column_storage(&copy, 1));
        assert!(dictionary_shared(&copy));
        // A new value extends the copy's own dictionary only.
        copy.column_mut(1)
            .set_cell_coercing(1, CellValue::Cat("new".into()));
        assert!(!dictionary_shared(&copy));
        assert_eq!(df.column(1).as_categorical().unwrap().dictionary().len(), 2);
        assert_eq!(df, toy_frame(16));
    }

    #[test]
    fn equality_compares_values_not_dictionaries() {
        // Rebuilding the rows in reverse interns "odd" first; reversing
        // back gives the same cells under a dictionary in the other order.
        let df = toy_frame(6);
        let mut b = DataFrameBuilder::new(df.schema().clone(), df.label_names().to_vec());
        for r in (0..6).rev() {
            b.push_row(vec![df.cell(r, 0), df.cell(r, 1)], df.labels()[r])
                .unwrap();
        }
        let same = b.finish().unwrap().select_rows(&[5, 4, 3, 2, 1, 0]);
        let dictionary =
            |f: &DataFrame| f.column(1).as_categorical().unwrap().dictionary().to_vec();
        assert_eq!(dictionary(&df), ["even", "odd"]);
        assert_eq!(dictionary(&same), ["odd", "even"]);
        assert_eq!(same, df);
        // A dictionary value that no cell holds does not count either.
        let mut extended = df.clone();
        extended
            .column_mut(1)
            .as_categorical_mut()
            .unwrap()
            .intern("unused");
        assert_eq!(extended, df);
        let mut changed = df.clone();
        changed.column_mut(1).set_null(0);
        assert_ne!(changed, df);
    }

    #[test]
    fn deep_clone_shares_nothing_but_is_equal() {
        let df = toy_frame(8);
        let deep = df.deep_clone();
        assert_eq!(df, deep);
        for col in 0..df.n_cols() {
            assert!(!df.shares_column_storage(&deep, col));
        }
    }

    #[test]
    fn identity_selection_shares_storage() {
        let df = toy_frame(5);
        let idx: Vec<usize> = (0..5).collect();
        let same = df.select_rows(&idx);
        assert_eq!(same, df);
        for col in 0..df.n_cols() {
            assert!(df.shares_column_storage(&same, col));
        }
        // A permuted selection must copy.
        let perm = df.select_rows(&[4, 3, 2, 1, 0]);
        assert!(!df.shares_column_storage(&perm, 0));
    }
}
