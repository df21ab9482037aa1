//! Scalar user-defined functions.
//!
//! The Figure 4 community-detection queries rely on a pipeline-supplied
//! `ModulGain(query1, query2)` predicate; this registry is how such
//! functions are injected into SQL and logical plans. A few string/math
//! built-ins are always present.
//!
//! Expressions call a UDF a column at a time ([`ScalarUdf::invoke_column`]).
//! Its default is a loop over [`ScalarUdf::invoke`], so a function written
//! for one row works unchanged; a hot function (Figure 4's `ModulGain`)
//! overrides it with a typed kernel over the argument slices.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar function callable from expressions.
///
/// Implementations must be pure and thread-safe: the parallel executor
/// evaluates the same compiled expression concurrently from several workers.
pub trait ScalarUdf: Send + Sync {
    /// Function name (used case-insensitively).
    fn name(&self) -> &str;
    /// Static result type.
    fn output_type(&self) -> DataType;
    /// Evaluate on one row's argument values.
    fn invoke(&self, args: &[Value]) -> RelResult<Value>;

    /// Evaluate on `rows` rows at once: `args` holds one column of
    /// `rows` values per argument, and the result is a column of
    /// [`ScalarUdf::output_type`] with one value per row. Must fail
    /// exactly when [`ScalarUdf::invoke`] fails on some row.
    fn invoke_column(&self, args: &[&Column], rows: usize) -> RelResult<Column> {
        let mut out = Column::with_capacity(self.output_type(), rows);
        let mut values = Vec::with_capacity(args.len());
        for row in 0..rows {
            values.clear();
            values.extend(args.iter().map(|col| col.value(row)));
            out.push(self.invoke(&values)?)?;
        }
        Ok(out)
    }
}

/// A UDF backed by a closure.
pub struct FnUdf<F> {
    name: String,
    output: DataType,
    f: F,
}

impl<F> FnUdf<F>
where
    F: Fn(&[Value]) -> RelResult<Value> + Send + Sync,
{
    /// Wrap a closure as a UDF.
    pub fn new(name: impl Into<String>, output: DataType, f: F) -> Self {
        FnUdf {
            name: name.into(),
            output,
            f,
        }
    }
}

impl<F> ScalarUdf for FnUdf<F>
where
    F: Fn(&[Value]) -> RelResult<Value> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn output_type(&self) -> DataType {
        self.output
    }

    fn invoke(&self, args: &[Value]) -> RelResult<Value> {
        (self.f)(args)
    }
}

/// Registry of scalar functions, keyed by lower-cased name.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    udfs: HashMap<String, Arc<dyn ScalarUdf>>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry pre-loaded with the built-ins: `lower(str)`, `upper(str)`,
    /// `abs(num)`, `ln(num)`, `sqrt(num)`.
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        reg.register(Arc::new(FnUdf::new("lower", DataType::Str, |args| {
            let s = one_str(args, "lower")?;
            Ok(Value::str(s.to_lowercase()))
        })));
        reg.register(Arc::new(FnUdf::new("upper", DataType::Str, |args| {
            let s = one_str(args, "upper")?;
            Ok(Value::str(s.to_uppercase()))
        })));
        reg.register(Arc::new(FnUdf::new("abs", DataType::Float, |args| {
            Ok(Value::Float(one_num(args, "abs")?.abs()))
        })));
        reg.register(Arc::new(FnUdf::new("ln", DataType::Float, |args| {
            let x = one_num(args, "ln")?;
            if x <= 0.0 {
                return Err(RelError::Eval(format!("ln of non-positive value {x}")));
            }
            Ok(Value::Float(x.ln()))
        })));
        reg.register(Arc::new(FnUdf::new("sqrt", DataType::Float, |args| {
            let x = one_num(args, "sqrt")?;
            if x < 0.0 {
                return Err(RelError::Eval(format!("sqrt of negative value {x}")));
            }
            Ok(Value::Float(x.sqrt()))
        })));
        reg
    }

    /// Register (or replace) a function.
    pub fn register(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.udfs.insert(udf.name().to_lowercase(), udf);
    }

    /// Look up a function by case-insensitive name.
    pub fn get(&self, name: &str) -> RelResult<Arc<dyn ScalarUdf>> {
        self.udfs
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| RelError::UnknownFunction(name.to_string()))
    }

    /// Whether a function with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.udfs.contains_key(&name.to_lowercase())
    }
}

fn one_str<'a>(args: &'a [Value], context: &str) -> RelResult<&'a str> {
    match args {
        [v] => v.as_str().ok_or_else(|| RelError::TypeMismatch {
            expected: "STR".into(),
            actual: v.data_type().to_string(),
            context: context.into(),
        }),
        _ => Err(RelError::Eval(format!(
            "{context} expects exactly 1 argument, got {}",
            args.len()
        ))),
    }
}

fn one_num(args: &[Value], context: &str) -> RelResult<f64> {
    match args {
        [v] => v.as_float().ok_or_else(|| RelError::TypeMismatch {
            expected: "numeric".into(),
            actual: v.data_type().to_string(),
            context: context.into(),
        }),
        _ => Err(RelError::Eval(format!(
            "{context} expects exactly 1 argument, got {}",
            args.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_work() {
        let reg = UdfRegistry::with_builtins();
        assert_eq!(
            reg.get("LOWER")
                .unwrap()
                .invoke(&[Value::str("NFL Draft")])
                .unwrap(),
            Value::str("nfl draft")
        );
        assert_eq!(
            reg.get("abs").unwrap().invoke(&[Value::Int(-3)]).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn ln_rejects_non_positive() {
        let reg = UdfRegistry::with_builtins();
        assert!(reg.get("ln").unwrap().invoke(&[Value::Int(0)]).is_err());
    }

    #[test]
    fn custom_udf_round_trip() {
        let mut reg = UdfRegistry::new();
        reg.register(Arc::new(FnUdf::new("plus1", DataType::Int, |args| {
            Ok(Value::Int(args[0].as_int().unwrap() + 1))
        })));
        assert_eq!(
            reg.get("plus1").unwrap().invoke(&[Value::Int(41)]).unwrap(),
            Value::Int(42)
        );
        assert!(reg.get("missing").is_err());
    }

    #[test]
    fn column_call_loops_over_rows() {
        let reg = UdfRegistry::with_builtins();
        let arg = Column::Int(vec![-3, 4]);
        let out = reg.get("abs").unwrap().invoke_column(&[&arg], 2).unwrap();
        assert_eq!(out, Column::Float(vec![3.0, 4.0]));
        let bad = Column::Int(vec![1, 0]);
        assert!(reg.get("ln").unwrap().invoke_column(&[&bad], 2).is_err());
    }

    #[test]
    fn arity_checked() {
        let reg = UdfRegistry::with_builtins();
        assert!(reg.get("lower").unwrap().invoke(&[]).is_err());
    }
}
