//! Minimal CSV ingestion and export for [`DataFrame`]s.
//!
//! Supports the subset of RFC 4180 that real ML training files use:
//! a header row, quoted fields containing commas/newlines/escaped quotes,
//! and empty / `NA` / `?` / `null` markers for missing cells. Column types
//! are inferred (numeric if every non-missing value parses as `f64`,
//! categorical otherwise; columns can be forced to text). The label column
//! is named explicitly and its distinct values become the class names.
//! Serving files are parsed against the training frame instead: its schema
//! and class names, with the label column optional.

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
    read_frame(content, label_column, options, None).map(|(df, _)| df)
}

/// Parses serving tuples with `training`'s columns, types and class names.
/// The label column is optional; the flag says whether `content` has it
/// (without it every label is 0). A value that does not parse in a numeric
/// column is a missing cell, a data error like any the predictor catches.
pub fn read_serving_csv_str(
    content: &str,
    label_column: &str,
    training: &DataFrame,
) -> Result<(DataFrame, bool), FrameError> {
    let options = CsvOptions::default();
    read_frame(content, label_column, &options, Some(training))
}

fn read_frame(
    content: &str,
    label_column: &str,
    options: &CsvOptions,
    training: Option<&DataFrame>,
) -> Result<(DataFrame, bool), FrameError> {
    let records = parse_records(content)?;
    let Some((header, rows)) = records.split_first() else {
        return Err(FrameError::Invalid("empty CSV input".into()));
    };
    let label_idx = header.iter().position(|h| h == label_column);
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(FrameError::Invalid(format!(
                "record {} has {} fields, header has {}",
                i + 1,
                row.len(),
                header.len()
            )));
        }
        if label_idx.is_some_and(|l| is_missing(&row[l])) {
            return Err(FrameError::Invalid(format!(
                "record {} is missing its label",
                i + 1
            )));
        }
    }

    let feature_cols: Vec<usize> = (0..header.len())
        .filter(|&c| Some(c) != label_idx)
        .collect();
    let names = feature_cols.iter().map(|&c| &header[c]);
    let (schema, label_names) = match training {
        Some(t) if !names.eq(t.schema().fields().iter().map(|f| &f.name)) => {
            return Err(FrameError::Invalid("columns differ from training".into()))
        }
        Some(t) => (t.schema().clone(), t.label_names().to_vec()),
        None => {
            let label_idx =
                label_idx.ok_or_else(|| FrameError::UnknownColumn(label_column.to_string()))?;
            // Class dictionary from distinct label values, sorted for determinism.
            let mut label_names: Vec<String> = rows.iter().map(|r| r[label_idx].clone()).collect();
            label_names.sort();
            label_names.dedup();

            // Infer per-column types over the feature columns.
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
            (Schema::new(fields)?, label_names)
        }
    };
    let label_ids: BTreeMap<&str, u32> = label_names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i as u32))
        .collect();
    let mut builder = DataFrameBuilder::new(schema, label_names.clone());
    for row in rows {
        // The builder converts each string to its column's type: numbers
        // parse, and a value that does not becomes a missing cell.
        let cells = feature_cols
            .iter()
            .map(|&c| match row[c].as_str() {
                raw if is_missing(raw) => CellValue::Null,
                raw => CellValue::Text(raw.to_string()),
            })
            .collect();
        let label = match label_idx {
            Some(l) => *label_ids
                .get(row[l].as_str())
                .ok_or_else(|| FrameError::UnknownClass(row[l].clone()))?,
            None => 0,
        };
        builder.push_row(cells, label)?;
    }
    Ok((builder.finish()?, label_idx.is_some()))
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
    fn serving_files_take_the_training_schema_and_class_names() {
        let training = read_csv_str(SAMPLE, "approved", &CsvOptions::default()).unwrap();
        // One class only, and `age` entirely missing.
        let csv = "age,job,note,approved\n,clerk,x,yes\nNA,chef,y,yes\n";
        let (df, labeled) = read_serving_csv_str(csv, "approved", &training).unwrap();
        assert!(labeled);
        assert_eq!(df.schema(), training.schema());
        assert_eq!(df.label_names(), training.label_names());
        assert_eq!(df.labels(), &[1, 1], "yes keeps its training id");
        assert_eq!(df.column(0).as_numeric().unwrap(), &[None, None]);
        // Without the label column the same cells parse, unlabeled.
        let (df, labeled) =
            read_serving_csv_str("age,job,note\n40,clerk,x\n", "approved", &training).unwrap();
        assert!(!labeled);
        assert_eq!(df.column(0).as_numeric().unwrap(), &[Some(40.0)]);
        let (df, _) =
            read_serving_csv_str("age,job,note\nold,a,b\n", "approved", &training).unwrap();
        assert_eq!(
            df.column(0).as_numeric().unwrap(),
            &[None],
            "unparseable: missing"
        );
    }

    #[test]
    fn serving_files_reject_what_training_never_saw() {
        let training = read_csv_str(SAMPLE, "approved", &CsvOptions::default()).unwrap();
        let parse = |csv: &str| read_serving_csv_str(csv, "approved", &training).unwrap_err();
        assert_eq!(
            parse("age,job,note,approved\n1,a,b,maybe\n"),
            FrameError::UnknownClass("maybe".into())
        );
        for columns in [
            "age,job,approved",
            "job,age,note,approved",
            "age,job,note,x,approved",
        ] {
            let csv = format!(
                "{columns}\n{}yes\n",
                "1,".repeat(columns.split(',').count() - 1)
            );
            assert!(matches!(parse(&csv), FrameError::Invalid(m) if m.contains("columns differ")));
        }
    }

    #[test]
    fn crlf_line_endings_are_handled() {
        let csv = "a,b\r\n1,yes\r\n2,no\r\n";
        let df = read_csv_str(csv, "b", &CsvOptions::default()).unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.column(0).as_numeric().unwrap()[1], Some(2.0));
    }
}
