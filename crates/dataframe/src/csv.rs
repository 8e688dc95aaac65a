//! Minimal CSV ingestion and export for [`DataFrame`]s.
//!
//! Supports the subset of RFC 4180 that real ML training files use:
//! a header row, quoted fields containing commas/newlines/escaped quotes,
//! and empty / `NA` / `?` / `null` markers for missing cells. Column types
//! are inferred (numeric if every non-missing value parses as `f64`,
//! categorical otherwise; columns can be forced to text). The label column
//! is named explicitly and its distinct values become the class names.

use crate::{CellValue, ColumnType, DataFrame, DataFrameBuilder, Field, FrameError, Schema};
use std::collections::BTreeMap;

/// Options controlling CSV parsing.
#[derive(Debug, Clone, Default)]
pub struct CsvOptions {
    /// Columns to load as free text instead of inferring numeric/categorical.
    pub text_columns: Vec<String>,
}

/// Values treated as missing cells.
fn is_missing(raw: &str) -> bool {
    matches!(raw.trim(), "" | "NA" | "na" | "N/A" | "?" | "null" | "NULL")
}

/// Splits CSV content into records of fields, honouring quotes.
fn parse_records(content: &str) -> Result<Vec<Vec<String>>, FrameError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = content.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(FrameError::Invalid("unterminated quoted field".into()));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        if !(record.len() == 1 && record[0].is_empty()) {
            records.push(record);
        }
    }
    Ok(records)
}

/// Parses CSV content into a frame. `label_column` names the target
/// attribute; its distinct values (sorted) become the class names.
pub fn read_csv_str(
    content: &str,
    label_column: &str,
    options: &CsvOptions,
) -> Result<DataFrame, FrameError> {
    let records = parse_records(content)?;
    let Some((header, rows)) = records.split_first() else {
        return Err(FrameError::Invalid("empty CSV input".into()));
    };
    let label_idx = header
        .iter()
        .position(|h| h == label_column)
        .ok_or_else(|| FrameError::UnknownColumn(label_column.to_string()))?;
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(FrameError::Invalid(format!(
                "record {} has {} fields, header has {}",
                i + 1,
                row.len(),
                header.len()
            )));
        }
        if is_missing(&row[label_idx]) {
            return Err(FrameError::Invalid(format!(
                "record {} is missing its label",
                i + 1
            )));
        }
    }

    // Class dictionary from distinct label values, sorted for determinism.
    let mut label_names: Vec<String> = rows.iter().map(|r| r[label_idx].clone()).collect();
    label_names.sort();
    label_names.dedup();
    let label_ids: BTreeMap<&str, u32> = label_names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i as u32))
        .collect();

    // Infer per-column types over the feature columns.
    let feature_cols: Vec<usize> = (0..header.len()).filter(|&c| c != label_idx).collect();
    let mut fields = Vec::with_capacity(feature_cols.len());
    for &c in &feature_cols {
        let name = header[c].clone();
        let ty = if options.text_columns.contains(&name) {
            ColumnType::Text
        } else {
            let all_numeric = rows
                .iter()
                .map(|r| r[c].as_str())
                .filter(|v| !is_missing(v))
                .all(|v| v.trim().parse::<f64>().is_ok());
            let any_present = rows.iter().any(|r| !is_missing(&r[c]));
            if all_numeric && any_present {
                ColumnType::Numeric
            } else {
                ColumnType::Categorical
            }
        };
        fields.push(Field::new(name, ty));
    }
    let schema = Schema::new(fields)?;
    let mut builder = DataFrameBuilder::new(schema.clone(), label_names.clone());
    for row in rows {
        let mut cells = Vec::with_capacity(feature_cols.len());
        for (fi, &c) in feature_cols.iter().enumerate() {
            let raw = row[c].as_str();
            let cell = if is_missing(raw) {
                CellValue::Null
            } else {
                match schema.field(fi).ty {
                    ColumnType::Numeric => CellValue::Num(
                        raw.trim()
                            .parse::<f64>()
                            .expect("validated during inference"),
                    ),
                    ColumnType::Categorical => CellValue::Cat(raw.to_string()),
                    ColumnType::Text => CellValue::Text(raw.to_string()),
                    ColumnType::Image => CellValue::Null,
                }
            };
            cells.push(cell);
        }
        let label = label_ids[row[label_idx].as_str()];
        builder.push_row(cells, label)?;
    }
    builder.finish()
}

/// Reads a CSV file from disk.
pub fn read_csv_file(
    path: &std::path::Path,
    label_column: &str,
    options: &CsvOptions,
) -> Result<DataFrame, FrameError> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| FrameError::Invalid(format!("cannot read {}: {e}", path.display())))?;
    read_csv_str(&content, label_column, options)
}

fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serializes a frame (features + trailing `label` column) as CSV.
/// Image columns are not representable and are rejected.
pub fn write_csv_string(df: &DataFrame) -> Result<String, FrameError> {
    if !df.schema().image_columns().is_empty() {
        return Err(FrameError::TypeMismatch(
            "image columns cannot be exported to CSV".into(),
        ));
    }
    let mut out = String::new();
    for field in df.schema().fields() {
        out.push_str(&quote(&field.name));
        out.push(',');
    }
    out.push_str("label\n");
    for r in 0..df.n_rows() {
        for c in 0..df.n_cols() {
            match df.cell(r, c) {
                CellValue::Null => {}
                CellValue::Num(v) => {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        out.push_str(&format!("{}", v as i64));
                    } else {
                        out.push_str(&format!("{v}"));
                    }
                }
                CellValue::Cat(s) | CellValue::Text(s) => out.push_str(&quote(&s)),
                CellValue::Image(_) => unreachable!("image columns rejected above"),
            }
            out.push(',');
        }
        out.push_str(&quote(&df.label_names()[df.labels()[r] as usize]));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "age,job,note,approved\n34,engineer,fine,yes\n51,clerk,\"ok, good\",no\n,manager,NA,yes\n";

    #[test]
    fn reads_header_and_rows() {
        let df = read_csv_str(
            SAMPLE,
            "approved",
            &CsvOptions {
                text_columns: vec!["note".into()],
            },
        )
        .unwrap();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.label_names(), &["no".to_string(), "yes".to_string()]);
        assert_eq!(df.labels(), &[1, 0, 1]);
    }

    #[test]
    fn infers_types_and_missing_values() {
        let df = read_csv_str(SAMPLE, "approved", &CsvOptions::default()).unwrap();
        let schema = df.schema();
        assert_eq!(schema.field(0).ty, ColumnType::Numeric); // age
        assert_eq!(schema.field(1).ty, ColumnType::Categorical); // job
        let ages = df.column(0).as_numeric().unwrap();
        assert_eq!(ages[0], Some(34.0));
        assert_eq!(ages[2], None); // empty cell
        let notes = df.column(2).as_categorical().unwrap();
        assert_eq!(notes.get(1), Some("ok, good")); // quoted comma
        assert_eq!(notes.get(2), None); // NA
    }

    #[test]
    fn quoted_fields_with_escaped_quotes() {
        let csv = "x,y\n\"he said \"\"hi\"\"\",1\n";
        let df = read_csv_str(csv, "y", &CsvOptions::default()).unwrap();
        assert_eq!(
            df.column(0).as_categorical().unwrap().get(0),
            Some("he said \"hi\"")
        );
    }

    #[test]
    fn rejects_unknown_label_column() {
        assert!(matches!(
            read_csv_str(SAMPLE, "nope", &CsvOptions::default()),
            Err(FrameError::UnknownColumn(_))
        ));
    }

    #[test]
    fn rejects_ragged_records() {
        let csv = "a,b\n1,2\n3\n";
        assert!(read_csv_str(csv, "b", &CsvOptions::default()).is_err());
    }

    #[test]
    fn rejects_missing_labels() {
        let csv = "a,b\n1,\n";
        assert!(read_csv_str(csv, "b", &CsvOptions::default()).is_err());
    }

    #[test]
    fn rejects_unterminated_quote() {
        let csv = "a,b\n\"oops,1\n";
        assert!(read_csv_str(csv, "b", &CsvOptions::default()).is_err());
    }

    #[test]
    fn round_trip_preserves_frame() {
        let df = read_csv_str(SAMPLE, "approved", &CsvOptions::default()).unwrap();
        let csv = write_csv_string(&df).unwrap();
        let back = read_csv_str(&csv, "label", &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), df.n_rows());
        assert_eq!(back.labels(), df.labels());
        assert_eq!(
            back.column(0).as_numeric().unwrap(),
            df.column(0).as_numeric().unwrap()
        );
    }

    #[test]
    fn export_rejects_images() {
        use crate::ImageData;
        let schema = Schema::new(vec![Field::new("img", ColumnType::Image)]).unwrap();
        let mut b = DataFrameBuilder::new(schema, vec!["a".into()]);
        b.push_row(vec![CellValue::Image(ImageData::zeros(2, 2))], 0)
            .unwrap();
        let df = b.finish().unwrap();
        assert!(write_csv_string(&df).is_err());
    }

    #[test]
    fn crlf_line_endings_are_handled() {
        let csv = "a,b\r\n1,yes\r\n2,no\r\n";
        let df = read_csv_str(csv, "b", &CsvOptions::default()).unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.column(0).as_numeric().unwrap()[1], Some(2.0));
    }
}
