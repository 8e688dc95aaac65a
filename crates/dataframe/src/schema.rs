//! Column types, fields and schemas.

use crate::Fnv1a;
use serde::{Deserialize, Serialize};

/// The type of a relational attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// Continuous numeric attribute (`f64`).
    Numeric,
    /// Discrete string-valued attribute.
    Categorical,
    /// Free-text attribute (tokenized downstream by hashing vectorizers).
    Text,
    /// Small grayscale image attribute.
    Image,
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Attribute name, unique within a schema.
    pub name: String,
    /// Attribute type.
    pub ty: ColumnType,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered collection of fields describing a [`crate::DataFrame`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema from fields. Names must be unique.
    pub fn new(fields: Vec<Field>) -> Result<Self, crate::FrameError> {
        for i in 0..fields.len() {
            for j in (i + 1)..fields.len() {
                if fields[i].name == fields[j].name {
                    return Err(crate::FrameError::Invalid(format!(
                        "duplicate column name '{}'",
                        fields[i].name
                    )));
                }
            }
        }
        Ok(Self { fields })
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Position of the column named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Indices of all columns with the given type.
    pub fn columns_of_type(&self, ty: ColumnType) -> Vec<usize> {
        self.fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ty == ty)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of numeric columns.
    pub fn numeric_columns(&self) -> Vec<usize> {
        self.columns_of_type(ColumnType::Numeric)
    }

    /// Indices of categorical columns.
    pub fn categorical_columns(&self) -> Vec<usize> {
        self.columns_of_type(ColumnType::Categorical)
    }

    /// Indices of text columns.
    pub fn text_columns(&self) -> Vec<usize> {
        self.columns_of_type(ColumnType::Text)
    }

    /// Indices of image columns.
    pub fn image_columns(&self) -> Vec<usize> {
        self.columns_of_type(ColumnType::Image)
    }

    /// A deterministic fingerprint of the schema: field order, names and
    /// types all contribute. Persisted artifacts record the fit-time
    /// fingerprint so serving systems can reject frames with a different
    /// shape before any featurization happens.
    ///
    /// FNV-1a over the field list, truncated to 53 bits so the value
    /// survives a round trip through JSON numbers exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new(0);
        for field in &self.fields {
            hash.write(field.name.as_bytes());
            // Separator that cannot occur inside a UTF-8 name, so
            // ("ab", Numeric), ("a", ...) cannot collide by concatenation.
            hash.write_u8(0xff);
            hash.write_u8(match field.ty {
                ColumnType::Numeric => 0,
                ColumnType::Categorical => 1,
                ColumnType::Text => 2,
                ColumnType::Image => 3,
            });
        }
        hash.finish() & ((1 << 53) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("age", ColumnType::Numeric),
            Field::new("job", ColumnType::Categorical),
            Field::new("bio", ColumnType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![
            Field::new("a", ColumnType::Numeric),
            Field::new("a", ColumnType::Text),
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn index_of_finds_columns() {
        let s = schema();
        assert_eq!(s.index_of("job"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn type_filters() {
        let s = schema();
        assert_eq!(s.numeric_columns(), vec![0]);
        assert_eq!(s.categorical_columns(), vec![1]);
        assert_eq!(s.text_columns(), vec![2]);
        assert!(s.image_columns().is_empty());
    }

    #[test]
    fn fingerprint_is_deterministic_and_shape_sensitive() {
        let s = schema();
        assert_eq!(s.fingerprint(), schema().fingerprint());
        // Renaming, retyping or reordering a field changes the fingerprint.
        let renamed = Schema::new(vec![
            Field::new("age2", ColumnType::Numeric),
            Field::new("job", ColumnType::Categorical),
            Field::new("bio", ColumnType::Text),
        ])
        .unwrap();
        let retyped = Schema::new(vec![
            Field::new("age", ColumnType::Categorical),
            Field::new("job", ColumnType::Categorical),
            Field::new("bio", ColumnType::Text),
        ])
        .unwrap();
        let reordered = Schema::new(vec![
            Field::new("job", ColumnType::Categorical),
            Field::new("age", ColumnType::Numeric),
            Field::new("bio", ColumnType::Text),
        ])
        .unwrap();
        assert_ne!(s.fingerprint(), renamed.fingerprint());
        assert_ne!(s.fingerprint(), retyped.fingerprint());
        assert_ne!(s.fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn fingerprint_fits_in_53_bits() {
        assert!(schema().fingerprint() < (1 << 53));
    }

    #[test]
    fn len_and_field_access() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "age");
        assert!(!s.is_empty());
    }
}
