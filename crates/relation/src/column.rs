//! Columnar storage: one typed vector per column.

use crate::error::{RelError, RelResult};
use crate::value::{canonical_f64_bits, total_f64_cmp, DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A column of values, stored as a typed vector.
///
/// Keeping values unboxed per type (rather than `Vec<Value>`) roughly halves
/// the memory footprint of the similarity-graph tables and lets every
/// operator run a typed loop over a slice. Tables hold their columns behind
/// an `Arc`, so a scan or a renaming projection shares a column instead of
/// copying it.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean column.
    Bool(Vec<bool>),
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<Arc<str>>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
        }
    }

    /// Create an empty column with pre-reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx` (clones; strings are cheap `Arc` bumps).
    pub fn value(&self, idx: usize) -> Value {
        match self {
            Column::Bool(v) => Value::Bool(v[idx]),
            Column::Int(v) => Value::Int(v[idx]),
            Column::Float(v) => Value::Float(v[idx]),
            Column::Str(v) => Value::Str(Arc::clone(&v[idx])),
        }
    }

    /// Append a value, checking the type.
    pub fn push(&mut self, value: Value) -> RelResult<()> {
        match (self, value) {
            (Column::Bool(v), Value::Bool(b)) => v.push(b),
            (Column::Int(v), Value::Int(i)) => v.push(i),
            (Column::Float(v), Value::Float(x)) => v.push(x),
            // Implicit int→float widening mirrors `Value::as_float`.
            (Column::Float(v), Value::Int(i)) => v.push(i as f64),
            (Column::Str(v), Value::Str(s)) => v.push(s),
            (col, value) => {
                return Err(RelError::TypeMismatch {
                    expected: col.dtype().to_string(),
                    actual: value.data_type().to_string(),
                    context: "Column::push".to_string(),
                })
            }
        }
        Ok(())
    }

    /// A column of `rows` copies of `value`.
    pub(crate) fn repeat(value: &Value, rows: usize) -> Column {
        match value {
            Value::Bool(b) => Column::Bool(vec![*b; rows]),
            Value::Int(i) => Column::Int(vec![*i; rows]),
            Value::Float(x) => Column::Float(vec![*x; rows]),
            Value::Str(s) => Column::Str(vec![Arc::clone(s); rows]),
        }
    }

    /// Append the value at `idx` of `other` (same-typed columns only).
    /// Avoids the `Value` round-trip on the hot shuffle path.
    pub fn push_from(&mut self, other: &Column, idx: usize) -> RelResult<()> {
        match (self, other) {
            (Column::Bool(dst), Column::Bool(src)) => dst.push(src[idx]),
            (Column::Int(dst), Column::Int(src)) => dst.push(src[idx]),
            (Column::Float(dst), Column::Float(src)) => dst.push(src[idx]),
            (Column::Str(dst), Column::Str(src)) => dst.push(Arc::clone(&src[idx])),
            (dst, src) => {
                return Err(RelError::TypeMismatch {
                    expected: dst.dtype().to_string(),
                    actual: src.dtype().to_string(),
                    context: "Column::push_from".to_string(),
                })
            }
        }
        Ok(())
    }

    /// `self[a]` against `other[b]` in [`Value`]'s total order, without
    /// building either value.
    pub(crate) fn cmp_at(&self, a: usize, other: &Column, b: usize) -> Ordering {
        match (self, other) {
            (Column::Bool(x), Column::Bool(y)) => x[a].cmp(&y[b]),
            (Column::Int(x), Column::Int(y)) => x[a].cmp(&y[b]),
            (Column::Float(x), Column::Float(y)) => total_f64_cmp(x[a], y[b]),
            (Column::Str(x), Column::Str(y)) => x[a].cmp(&y[b]),
            _ => self.value(a).cmp(&other.value(b)),
        }
    }

    /// `self[a] == other[b]` under [`Value`]'s equality (floats compared
    /// canonically: NaN equals NaN, -0.0 equals 0.0).
    pub(crate) fn eq_at(&self, a: usize, other: &Column, b: usize) -> bool {
        match (self, other) {
            (Column::Bool(x), Column::Bool(y)) => x[a] == y[b],
            (Column::Int(x), Column::Int(y)) => x[a] == y[b],
            (Column::Float(x), Column::Float(y)) => {
                canonical_f64_bits(x[a]) == canonical_f64_bits(y[b])
            }
            (Column::Str(x), Column::Str(y)) => x[a] == y[b],
            _ => self.value(a) == other.value(b),
        }
    }

    /// Gather rows at the given indices into a new column.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| Arc::clone(&v[i])).collect()),
        }
    }

    /// Append all rows of `other` (same type required).
    pub fn extend_from(&mut self, other: &Column) -> RelResult<()> {
        match (self, other) {
            (Column::Bool(dst), Column::Bool(src)) => dst.extend_from_slice(src),
            (Column::Int(dst), Column::Int(src)) => dst.extend_from_slice(src),
            (Column::Float(dst), Column::Float(src)) => dst.extend_from_slice(src),
            (Column::Str(dst), Column::Str(src)) => dst.extend(src.iter().map(Arc::clone)),
            (dst, src) => {
                return Err(RelError::TypeMismatch {
                    expected: dst.dtype().to_string(),
                    actual: src.dtype().to_string(),
                    context: "Column::extend_from".to_string(),
                })
            }
        }
        Ok(())
    }

    /// Approximate byte footprint of the column payload.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Str(v) => v.iter().map(|s| s.len()).sum(),
        }
    }

    /// Borrow as an integer slice, if this is an int column.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as a float slice, if this is a float column.
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as a string slice column, if this is a string column.
    pub fn as_str(&self) -> Option<&[Arc<str>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_types() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        assert!(c.push(Value::str("x")).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn push_widens_int_to_float() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.value(0), Value::Float(2.0));
    }

    #[test]
    fn gather_picks_rows() {
        let c = Column::Int(vec![10, 20, 30, 40]);
        assert_eq!(c.gather(&[3, 0]), Column::Int(vec![40, 10]));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Column::Str(vec![Arc::from("x")]);
        let b = Column::Str(vec![Arc::from("y")]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.value(1), Value::str("y"));
    }

    #[test]
    fn push_from_rejects_other_types() {
        let mut c = Column::empty(DataType::Int);
        c.push_from(&Column::Int(vec![7]), 0).unwrap();
        assert!(c.push_from(&Column::Float(vec![7.0]), 0).is_err());
        assert_eq!(c, Column::Int(vec![7]));
    }

    #[test]
    fn byte_size_strings() {
        let c = Column::Str(vec![Arc::from("ab"), Arc::from("cde")]);
        assert_eq!(c.byte_size(), 5);
    }
}
