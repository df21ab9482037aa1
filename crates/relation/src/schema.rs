//! Schemas: ordered, named, typed columns.

use crate::error::{RelError, RelResult};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A named, typed column in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name. Names are matched case-insensitively by the SQL binder
    /// but stored verbatim.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered collection of fields.
///
/// Duplicate names are rejected at construction: the pipeline queries always
/// alias ambiguous join outputs, and rejecting duplicates early converts a
/// class of subtle binder bugs into immediate errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared schema handle; operators pass these around freely.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema, rejecting duplicate column names (case-insensitive).
    pub fn new(fields: Vec<Field>) -> RelResult<Self> {
        for (i, f) in fields.iter().enumerate() {
            for other in &fields[i + 1..] {
                if f.name.eq_ignore_ascii_case(&other.name) {
                    return Err(RelError::Schema(format!(
                        "duplicate column name: {}",
                        f.name
                    )));
                }
            }
        }
        Ok(Schema { fields })
    }

    /// Build a schema from `(name, type)` pairs. Panics on duplicates; use
    /// in code paths where the names are static.
    // The names are literals at every call site, so a duplicate is a bug
    // in that line of code, not a runtime input; `Schema::new` is the
    // fallible path for names that come from data.
    #[allow(clippy::expect_used)]
    pub fn of(pairs: &[(&str, DataType)]) -> SchemaRef {
        Arc::new(
            Schema::new(
                pairs
                    .iter()
                    .map(|(n, t)| Field::new(*n, *t))
                    .collect::<Vec<_>>(),
            )
            .expect("static schema must not contain duplicates"),
        )
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> RelResult<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// The type of the column named `name`.
    pub fn dtype_of(&self, name: &str) -> RelResult<DataType> {
        Ok(self.fields[self.index_of(name)?].dtype)
    }

    /// Concatenate two schemas (used by joins). Name collisions are resolved
    /// by suffixing the right side's colliding names with `suffix`, then
    /// `suffix2`, `suffix3`, … until unique.
    pub fn join(&self, right: &Schema, right_suffix: &str) -> RelResult<Schema> {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let collides = |fields: &[Field], name: &str| {
                fields.iter().any(|g| g.name.eq_ignore_ascii_case(name))
            };
            let mut name = f.name.clone();
            let mut attempt = 1;
            while collides(&fields, &name) {
                name = if attempt == 1 {
                    format!("{}{right_suffix}", f.name)
                } else {
                    format!("{}{right_suffix}{attempt}", f.name)
                };
                attempt += 1;
            }
            fields.push(Field::new(name, f.dtype));
        }
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicates_case_insensitively() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("A", DataType::Str),
        ]);
        assert!(matches!(err, Err(RelError::Schema(_))));
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = Schema::of(&[("Query1", DataType::Str), ("distance", DataType::Float)]);
        assert_eq!(s.index_of("query1").unwrap(), 0);
        assert_eq!(s.index_of("DISTANCE").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn join_suffixes_collisions() {
        let l = Schema::of(&[("q", DataType::Str), ("d", DataType::Float)]);
        let r = Schema::of(&[("q", DataType::Str), ("c", DataType::Int)]);
        let j = l.join(&r, "_r").unwrap();
        let names: Vec<_> = j.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["q", "d", "q_r", "c"]);
    }

    #[test]
    fn display_formats_schema() {
        let s = Schema::of(&[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(a: INT)");
    }
}
