//! Scalar values and data types.
//!
//! The engine supports exactly the four types the e# pipeline needs:
//! booleans, 64-bit integers, 64-bit floats and interned strings. There is
//! deliberately no NULL: every query in the pipeline (including the Figure 4
//! community-detection queries) is NULL-free, and omitting nullability keeps
//! every operator's hot loop branch-free.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string (reference-counted, cheap to clone).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
        };
        f.write_str(name)
    }
}

/// A single scalar value.
///
/// Strings are `Arc<str>` so that values can be cloned freely during
/// partitioning and shuffling without copying the bytes.
#[derive(Debug, Clone)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Extract a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a float. Integers are widened, which mirrors SQL's implicit
    /// numeric promotion and lets `distance > 0` work whether the column
    /// was loaded as INT or FLOAT.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used for the Table 9 style
    /// read/write accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len(),
        }
    }
}

/// The one NaN an expression produces. Rust does not fix the sign or
/// payload of a NaN that arithmetic or a math function returns (it can
/// differ between optimisation levels), so every float-producing
/// expression operation — arithmetic and UDF results, in the column
/// kernels and the row oracle alike — passes its result through here:
/// a NaN result is always `f64::NAN`, the NaN [`canonical_f64_bits`]
/// identifies every NaN with.
#[inline]
pub(crate) fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// Canonicalize a float for hashing/equality: all NaNs are identified and
/// negative zero maps to positive zero. The engine never produces NaN in
/// pipeline queries, but property tests exercise it.
pub(crate) fn canonical_f64_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0.0_f64.to_bits()
    } else {
        x.to_bits()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => canonical_f64_bits(*a) == canonical_f64_bits(*b),
            (Value::Str(a), Value::Str(b)) => a == b,
            // Cross-type numeric equality: keeps `Int` and `Float` join keys
            // coherent after arithmetic promoted one side.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => hash_bool(*b, state),
            Value::Int(i) => hash_int(*i, state),
            Value::Float(x) => hash_float(*x, state),
            Value::Str(s) => hash_str(s, state),
        }
    }
}

// The bytes each type feeds a hasher. The column-at-a-time key hashing
// (`exec::partition`) calls these same functions, so a row hashed from
// its columns and the same row hashed as `Value`s land in the same
// partition.

pub(crate) fn hash_bool<H: Hasher>(b: bool, state: &mut H) {
    state.write_u8(0);
    b.hash(state);
}

/// Ints hash through the float canonicalization, so Int(2) and
/// Float(2.0) collide as equality requires.
pub(crate) fn hash_int<H: Hasher>(i: i64, state: &mut H) {
    hash_float(i as f64, state);
}

pub(crate) fn hash_float<H: Hasher>(x: f64, state: &mut H) {
    state.write_u8(1);
    state.write_u64(canonical_f64_bits(x));
}

pub(crate) fn hash_str<H: Hasher>(s: &str, state: &mut H) {
    state.write_u8(3);
    s.hash(state);
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: within a type, natural order (floats by IEEE total order
    /// after NaN canonicalization); across numeric types, by numeric value;
    /// otherwise by type tag. Used by the sort operator and by deterministic
    /// tie-breaking in aggregates.
    fn cmp(&self, other: &Self) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => total_f64_cmp(*a, *b),
            (Value::Int(a), Value::Float(b)) => total_f64_cmp(*a as f64, *b),
            (Value::Float(a), Value::Int(b)) => total_f64_cmp(*a, *b as f64),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

pub(crate) fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    f64::from_bits(canonical_f64_bits(a)).total_cmp(&f64::from_bits(canonical_f64_bits(b)))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn numeric_cross_type_equality_and_hash() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_self_equal_after_canonicalization() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn as_float_widens_ints() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::str("x").as_float(), None);
    }

    #[test]
    fn byte_size_accounts_strings() {
        assert_eq!(Value::str("abcd").byte_size(), 4);
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Bool(true).byte_size(), 1);
    }
}
