//! Adversarial text corruption for the tweets dataset.

use crate::{CellWise, Hits};
use lvp_dataframe::{DataFrame, Schema};
use rand::rngs::StdRng;

/// Simulates an adversarial attack where authors re-spell their text in
/// 'leetspeak' to evade the classifier (the paper's example: "hello world"
/// → "h3110 w041d").
#[derive(Debug, Clone)]
pub struct AdversarialLeetspeak(Vec<usize>);

impl AdversarialLeetspeak {
    /// Targets all text columns of the schema.
    pub fn all_text(schema: &Schema) -> Self {
        Self(schema.text_columns())
    }
}

/// Leetspeak character substitutions used by the attack.
pub fn to_leetspeak(text: &str) -> String {
    text.chars()
        .map(|c| match c.to_ascii_lowercase() {
            'e' => '3',
            'l' => '1',
            'o' => '0',
            'a' => '4',
            't' => '7',
            's' => '5',
            'i' => '1',
            other => other,
        })
        .collect()
}

impl CellWise for AdversarialLeetspeak {
    const NAME: &'static str = "adversarial_leetspeak";

    fn candidates(&self) -> &[usize] {
        &self.0
    }

    fn corrupt_column(&self, out: &mut DataFrame, col: usize, hits: Hits, rng: &mut StdRng) {
        let values = out.column_mut(col).as_text_mut().expect("text candidate");
        hits.each(values.len(), rng, |row, _| {
            if let Some(s) = &mut values[row] {
                *s = to_leetspeak(s);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorGen;
    use lvp_dataframe::{CellValue, ColumnType, DataFrameBuilder, Field, Schema};
    use rand::SeedableRng;

    fn text_frame(n: usize) -> DataFrame {
        let schema = Schema::new(vec![Field::new("msg", ColumnType::Text)]).unwrap();
        let mut b = DataFrameBuilder::new(schema, vec!["a".into(), "b".into()]);
        for i in 0..n {
            b.push_row(
                vec![CellValue::Text("hello world total loss".into())],
                (i % 2) as u32,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn leetspeak_substitutions_match_paper_example() {
        assert_eq!(to_leetspeak("hello world"), "h3110 w0r1d");
    }

    #[test]
    fn corruption_rewrites_some_rows() {
        let df = text_frame(200);
        let gen = AdversarialLeetspeak::all_text(df.schema());
        let mut rng = StdRng::seed_from_u64(7);
        let out = gen.corrupt(&df, &mut rng);
        let texts = out.column(0).as_text().unwrap();
        let rewritten = texts
            .iter()
            .flatten()
            .filter(|s| s.contains('3') || s.contains('0'))
            .count();
        assert!(rewritten > 0);
        assert_eq!(out.n_rows(), 200);
    }

    #[test]
    fn original_frame_unchanged() {
        let df = text_frame(20);
        let gen = AdversarialLeetspeak::all_text(df.schema());
        let mut rng = StdRng::seed_from_u64(8);
        let _ = gen.corrupt(&df, &mut rng);
        for t in df.column(0).as_text().unwrap() {
            assert_eq!(t.as_deref(), Some("hello world total loss"));
        }
    }
}
