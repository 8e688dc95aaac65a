//! Column storage and cell values.

use crate::{ColumnType, FrameError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A small grayscale image with pixel intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageData {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Row-major pixel intensities, `width * height` values.
    pub pixels: Vec<f64>,
}

impl ImageData {
    /// Creates an all-black image.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Pixel at `(x, y)`; out-of-bounds reads return 0.0.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x]
        } else {
            0.0
        }
    }

    /// Sets pixel `(x, y)`; out-of-bounds writes are ignored.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = v;
        }
    }
}

/// A single cell value, used for type-coercing operations such as the
/// swapped-columns error generator.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// Missing value.
    Null,
    /// Numeric value.
    Num(f64),
    /// Categorical value.
    Cat(String),
    /// Text value.
    Text(String),
    /// Image value.
    Image(ImageData),
}

/// The code of a missing cell.
const MISSING: u32 = u32::MAX;

/// The distinct values a categorical column has held, each under the code
/// it was first given. Append-only and duplicate-free, so a code names one
/// value for the dictionary's whole life, and two cells of one column hold
/// the same value exactly when they hold the same code.
#[derive(Debug, Clone, Default)]
struct Dictionary {
    values: Vec<String>,
    codes: HashMap<String, u32>,
}

/// A categorical column: one `u32` code per cell into a dictionary of
/// values that copies of the column share.
///
/// Selecting rows, and the copy-on-write copy of a column, copy the 4-byte
/// codes and one pointer, never a string. Values enter only through [`Self::intern`]
/// (directly or through [`Self::set`] and [`Self::push`]), which extends
/// this column's own copy of the dictionary when the value is new, so a
/// corrupted copy never changes the dictionary of the frame it came from.
///
/// A dictionary may hold values no cell holds: a subsample keeps its
/// parent's dictionary, and overwritten values stay in it. Equality
/// therefore compares the cells' values, not codes or dictionaries.
#[derive(Debug, Clone, Default)]
pub struct CategoricalColumn {
    codes: Vec<u32>,
    dictionary: Arc<Dictionary>,
}

impl CategoricalColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Value of the cell at `row`; `None` when it is missing.
    pub fn get(&self, row: usize) -> Option<&str> {
        self.code(row).map(|c| self.value(c))
    }

    /// Dictionary code of the cell at `row`; `None` when it is missing.
    #[inline]
    pub fn code(&self, row: usize) -> Option<u32> {
        let code = self.codes[row];
        (code != MISSING).then_some(code)
    }

    /// The cells' dictionary codes in row order; `None` for a missing cell.
    pub fn codes(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        self.codes.iter().map(|&c| (c != MISSING).then_some(c))
    }

    /// The cells' values in row order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        self.codes().map(|code| code.map(|c| self.value(c)))
    }

    fn value(&self, code: u32) -> &str {
        &self.dictionary.values[code as usize]
    }

    /// The dictionary: the value of every code, indexed by code. It may
    /// hold values that no cell holds.
    pub fn dictionary(&self) -> &[String] {
        &self.dictionary.values
    }

    /// Whether `self` and `other` share one physical dictionary
    /// (copy-on-write bookkeeping; used by tests).
    pub fn shares_dictionary(&self, other: &CategoricalColumn) -> bool {
        Arc::ptr_eq(&self.dictionary, &other.dictionary)
    }

    /// The code of `value`, first adding it to this column's dictionary if
    /// it is new. Adding copies a dictionary shared with other columns.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.dictionary.codes.get(value) {
            return code;
        }
        let dictionary = Arc::make_mut(&mut self.dictionary);
        let code = u32::try_from(dictionary.values.len())
            .ok()
            .filter(|&c| c != MISSING)
            .expect("a categorical dictionary holds fewer than u32::MAX values");
        dictionary.values.push(value.to_owned());
        dictionary.codes.insert(value.to_owned(), code);
        code
    }

    /// Stores `value` at `row`, interning it.
    pub fn set(&mut self, row: usize, value: Option<&str>) {
        let code = value.map(|v| self.intern(v));
        self.set_code(row, code);
    }

    /// Stores the dictionary code `code` at `row`.
    ///
    /// # Panics
    /// If `code` is not in this column's dictionary.
    pub fn set_code(&mut self, row: usize, code: Option<u32>) {
        self.codes[row] = match code {
            Some(c) => {
                assert!(
                    (c as usize) < self.dictionary.values.len(),
                    "code {c} is not in the column's dictionary"
                );
                c
            }
            None => MISSING,
        };
    }

    /// Appends a cell, interning its value.
    pub fn push(&mut self, value: Option<&str>) {
        self.codes.push(MISSING);
        self.set(self.codes.len() - 1, value);
    }

    fn null_count(&self) -> usize {
        self.codes.iter().filter(|&&c| c == MISSING).count()
    }

    fn select(&self, indices: &[usize]) -> CategoricalColumn {
        CategoricalColumn {
            codes: indices.iter().map(|&i| self.codes[i]).collect(),
            dictionary: Arc::clone(&self.dictionary),
        }
    }

    /// Sets `changed[r]` for every row whose value differs from `base`'s.
    fn mark_changed_rows(&self, base: &CategoricalColumn, changed: &mut [bool]) {
        if self.shares_dictionary(base) {
            mark_unequal(&self.codes, &base.codes, changed, |a, b| a == b);
            return;
        }
        // `base`'s code for each of our codes; `None` when `base`'s
        // dictionary lacks the value.
        let to_base: Vec<Option<u32>> = self
            .dictionary
            .values
            .iter()
            .map(|v| base.dictionary.codes.get(v).copied())
            .collect();
        mark_unequal(&self.codes, &base.codes, changed, |&a, &b| {
            if a == MISSING {
                b == MISSING
            } else {
                to_base[a as usize] == Some(b)
            }
        });
    }
}

/// Sets `changed[r]` wherever `same(a[r], b[r])` is false.
fn mark_unequal<T>(a: &[T], b: &[T], changed: &mut [bool], same: impl Fn(&T, &T) -> bool) {
    for ((flag, x), y) in changed.iter_mut().zip(a).zip(b) {
        *flag |= !same(x, y);
    }
}

impl PartialEq for CategoricalColumn {
    fn eq(&self, other: &Self) -> bool {
        if self.shares_dictionary(other) {
            return self.codes == other.codes;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<'a> FromIterator<Option<&'a str>> for CategoricalColumn {
    fn from_iter<I: IntoIterator<Item = Option<&'a str>>>(values: I) -> Self {
        let mut column = CategoricalColumn::default();
        for value in values {
            column.push(value);
        }
        column
    }
}

/// Columnar storage for one attribute. Each variant stores one optional
/// value per row; `None` encodes a missing cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Numeric attribute values.
    Numeric(Vec<Option<f64>>),
    /// Categorical attribute values, stored as dictionary codes.
    Categorical(CategoricalColumn),
    /// Text attribute values.
    Text(Vec<Option<String>>),
    /// Image attribute values.
    Image(Vec<Option<ImageData>>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(v) => v.len(),
            Column::Text(v) => v.len(),
            Column::Image(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn ty(&self) -> ColumnType {
        match self {
            Column::Numeric(_) => ColumnType::Numeric,
            Column::Categorical(_) => ColumnType::Categorical,
            Column::Text(_) => ColumnType::Text,
            Column::Image(_) => ColumnType::Image,
        }
    }

    /// Number of missing cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Numeric(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Categorical(v) => v.null_count(),
            Column::Text(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Image(v) => v.iter().filter(|c| c.is_none()).count(),
        }
    }

    /// An empty column of the given type.
    pub fn empty(ty: ColumnType) -> Column {
        match ty {
            ColumnType::Numeric => Column::Numeric(Vec::new()),
            ColumnType::Categorical => Column::Categorical(CategoricalColumn::default()),
            ColumnType::Text => Column::Text(Vec::new()),
            ColumnType::Image => Column::Image(Vec::new()),
        }
    }

    /// Cell at `row` as a [`CellValue`].
    pub fn cell(&self, row: usize) -> CellValue {
        match self {
            Column::Numeric(v) => v[row].map_or(CellValue::Null, CellValue::Num),
            Column::Categorical(v) => v
                .get(row)
                .map_or(CellValue::Null, |s| CellValue::Cat(s.to_owned())),
            Column::Text(v) => v[row].clone().map_or(CellValue::Null, CellValue::Text),
            Column::Image(v) => v[row].clone().map_or(CellValue::Null, CellValue::Image),
        }
    }

    /// Stores `value` at `row`, coercing across types where a faithful
    /// coercion exists — mirroring what happens when a buggy pipeline swaps
    /// values between object-typed pandas columns:
    ///
    /// * a number written into a categorical/text column becomes its decimal
    ///   string (an unseen category for downstream one-hot encoders),
    /// * a string written into a numeric column is parsed; unparseable
    ///   strings become missing values,
    /// * anything written into an image column other than an image becomes a
    ///   missing image,
    /// * [`CellValue::Null`] always produces a missing cell.
    pub fn set_cell_coercing(&mut self, row: usize, value: CellValue) {
        match self {
            Column::Numeric(v) => {
                v[row] = match value {
                    CellValue::Num(x) => Some(x),
                    CellValue::Cat(s) | CellValue::Text(s) => s.trim().parse::<f64>().ok(),
                    CellValue::Null | CellValue::Image(_) => None,
                };
            }
            Column::Categorical(v) => match value {
                CellValue::Cat(s) | CellValue::Text(s) => v.set(row, Some(&s)),
                CellValue::Num(x) => v.set(row, Some(&format_num(x))),
                CellValue::Null | CellValue::Image(_) => v.set(row, None),
            },
            Column::Text(v) => {
                v[row] = match value {
                    CellValue::Cat(s) | CellValue::Text(s) => Some(s),
                    CellValue::Num(x) => Some(format_num(x)),
                    CellValue::Null | CellValue::Image(_) => None,
                };
            }
            Column::Image(v) => {
                v[row] = match value {
                    CellValue::Image(img) => Some(img),
                    _ => None,
                };
            }
        }
    }

    /// Sets the cell at `row` to missing.
    pub fn set_null(&mut self, row: usize) {
        self.set_cell_coercing(row, CellValue::Null);
    }

    /// Returns a new column containing the selected rows, in order.
    pub fn select(&self, indices: &[usize]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(indices.iter().map(|&i| v[i]).collect()),
            Column::Categorical(v) => Column::Categorical(v.select(indices)),
            Column::Text(v) => Column::Text(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Image(v) => Column::Image(indices.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Sets `changed[r]` for every row whose value differs from `base`'s,
    /// and for every row when the two columns differ in type. Numbers and
    /// pixels compare by bit pattern, categories and text by value.
    pub(crate) fn mark_changed_rows(&self, base: &Column, changed: &mut [bool]) {
        let same_bits =
            |x: &Option<f64>, y: &Option<f64>| x.map(f64::to_bits) == y.map(f64::to_bits);
        let same_image = |x: &Option<ImageData>, y: &Option<ImageData>| match (x, y) {
            (Some(x), Some(y)) => {
                (x.width, x.height) == (y.width, y.height)
                    && x.pixels
                        .iter()
                        .map(|p| p.to_bits())
                        .eq(y.pixels.iter().map(|p| p.to_bits()))
            }
            (x, y) => x.is_none() && y.is_none(),
        };
        match (self, base) {
            (Column::Numeric(a), Column::Numeric(b)) => mark_unequal(a, b, changed, same_bits),
            (Column::Categorical(a), Column::Categorical(b)) => a.mark_changed_rows(b, changed),
            (Column::Text(a), Column::Text(b)) => mark_unequal(a, b, changed, |x, y| x == y),
            (Column::Image(a), Column::Image(b)) => mark_unequal(a, b, changed, same_image),
            _ => changed.fill(true),
        }
    }

    /// Borrows the numeric values, failing on other column types.
    pub fn as_numeric(&self) -> Result<&[Option<f64>], FrameError> {
        match self {
            Column::Numeric(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected numeric column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Mutably borrows the numeric values, failing on other column types.
    pub fn as_numeric_mut(&mut self) -> Result<&mut Vec<Option<f64>>, FrameError> {
        match self {
            Column::Numeric(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected numeric column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Borrows the categorical values, failing on other column types.
    pub fn as_categorical(&self) -> Result<&CategoricalColumn, FrameError> {
        match self {
            Column::Categorical(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected categorical column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Mutably borrows the categorical values, failing on other column types.
    pub fn as_categorical_mut(&mut self) -> Result<&mut CategoricalColumn, FrameError> {
        match self {
            Column::Categorical(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected categorical column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Borrows the text values, failing on other column types.
    pub fn as_text(&self) -> Result<&[Option<String>], FrameError> {
        match self {
            Column::Text(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected text column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Mutably borrows the text values, failing on other column types.
    pub fn as_text_mut(&mut self) -> Result<&mut Vec<Option<String>>, FrameError> {
        match self {
            Column::Text(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected text column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Borrows the image values, failing on other column types.
    pub fn as_image(&self) -> Result<&[Option<ImageData>], FrameError> {
        match self {
            Column::Image(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected image column, found {:?}",
                other.ty()
            ))),
        }
    }

    /// Mutably borrows the image values, failing on other column types.
    pub fn as_image_mut(&mut self) -> Result<&mut Vec<Option<ImageData>>, FrameError> {
        match self {
            Column::Image(v) => Ok(v),
            other => Err(FrameError::TypeMismatch(format!(
                "expected image column, found {:?}",
                other.ty()
            ))),
        }
    }
}

/// Renders a number the way a CSV round-trip would: integers without a
/// decimal point, everything else in shortest form.
pub(crate) fn format_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_get_set_in_bounds() {
        let mut img = ImageData::zeros(4, 3);
        img.set(2, 1, 0.5);
        assert_eq!(img.get(2, 1), 0.5);
        assert_eq!(img.get(3, 2), 0.0);
    }

    #[test]
    fn image_out_of_bounds_is_safe() {
        let mut img = ImageData::zeros(2, 2);
        img.set(5, 5, 1.0);
        assert_eq!(img.get(5, 5), 0.0);
    }

    #[test]
    fn null_count_per_variant() {
        let c = Column::Numeric(vec![Some(1.0), None, Some(2.0)]);
        assert_eq!(c.null_count(), 1);
        let c = Column::Categorical([None, None].into_iter().collect());
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn coerce_number_into_categorical_becomes_string() {
        let mut c = Column::Categorical([Some("a")].into_iter().collect());
        c.set_cell_coercing(0, CellValue::Num(42.0));
        assert_eq!(c.as_categorical().unwrap().get(0), Some("42"));
    }

    #[test]
    fn coerce_parseable_string_into_numeric() {
        let mut c = Column::Numeric(vec![Some(1.0)]);
        c.set_cell_coercing(0, CellValue::Cat(" 3.5 ".into()));
        assert_eq!(c.as_numeric().unwrap()[0], Some(3.5));
    }

    #[test]
    fn coerce_unparseable_string_into_numeric_is_null() {
        let mut c = Column::Numeric(vec![Some(1.0)]);
        c.set_cell_coercing(0, CellValue::Cat("married".into()));
        assert_eq!(c.as_numeric().unwrap()[0], None);
    }

    #[test]
    fn coerce_image_rejects_scalars() {
        let mut c = Column::Image(vec![Some(ImageData::zeros(1, 1))]);
        c.set_cell_coercing(0, CellValue::Num(1.0));
        assert_eq!(c.as_image().unwrap()[0], None);
    }

    #[test]
    fn set_null_clears_cell() {
        let mut c = Column::Text(vec![Some("hi".into())]);
        c.set_null(0);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn select_reorders_and_duplicates() {
        let c = Column::Numeric(vec![Some(1.0), Some(2.0), Some(3.0)]);
        let s = c.select(&[2, 0, 2]);
        assert_eq!(s.as_numeric().unwrap(), &[Some(3.0), Some(1.0), Some(3.0)]);
    }

    #[test]
    fn cell_round_trip() {
        let c = Column::Numeric(vec![Some(7.0), None]);
        assert_eq!(c.cell(0), CellValue::Num(7.0));
        assert_eq!(c.cell(1), CellValue::Null);
    }

    #[test]
    fn typed_accessors_reject_wrong_type() {
        let c = Column::Numeric(vec![]);
        assert!(c.as_categorical().is_err());
        assert!(c.as_text().is_err());
        assert!(c.as_image().is_err());
    }

    #[test]
    fn format_num_integers_have_no_decimal_point() {
        let mut c = Column::Text(vec![None]);
        c.set_cell_coercing(0, CellValue::Num(1234.0));
        assert_eq!(c.as_text().unwrap()[0], Some("1234".into()));
        c.set_cell_coercing(0, CellValue::Num(12.5));
        assert_eq!(c.as_text().unwrap()[0], Some("12.5".into()));
    }
}
