//! Row filtering and projection, each one vectorised expression
//! evaluation per predicate or output column.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::expr::{CompiledExpr, Expr};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::udf::UdfRegistry;
use crate::value::DataType;
use std::sync::Arc;

/// Keep only the rows for which `predicate` evaluates to `true`.
///
/// The predicate's top-level AND conjuncts run in order over a selection
/// vector: each is evaluated only on the rows every earlier conjunct
/// accepted, as `A AND B` short-circuits row by row, and the surviving
/// rows are gathered once at the end. A conjunct that errors on a row an
/// earlier one rejected is never run on it.
pub fn filter(input: &Table, predicate: &CompiledExpr) -> RelResult<Table> {
    if input.is_empty() {
        return Ok(input.clone());
    }
    let mut conjuncts = Vec::new();
    predicate.conjuncts(&mut conjuncts);
    // `None` while every row is still selected.
    let mut sel: Option<Vec<usize>> = None;
    for conjunct in conjuncts {
        if sel.as_ref().is_some_and(Vec::is_empty) {
            break;
        }
        let col = conjunct.eval_column(input, sel.as_deref())?;
        let Column::Bool(mask) = col.as_ref() else {
            return Err(RelError::TypeMismatch {
                expected: "BOOL".into(),
                actual: col.dtype().to_string(),
                context: "filter predicate".into(),
            });
        };
        sel = match sel {
            None if mask.iter().all(|&keep| keep) => None,
            None => Some((0..mask.len()).filter(|&i| mask[i]).collect()),
            Some(rows) => Some(
                rows.into_iter()
                    .zip(mask)
                    .filter_map(|(row, &keep)| keep.then_some(row))
                    .collect(),
            ),
        };
    }
    Ok(match sel {
        None => input.clone(),
        Some(rows) => input.gather(&rows),
    })
}

/// One output column of a projection: a compiled expression, its output
/// name and its output type.
pub struct ProjectionSpec {
    /// Compiled expression producing the column.
    pub expr: CompiledExpr,
    /// Output column name.
    pub name: String,
    /// Output column type.
    pub dtype: DataType,
}

impl ProjectionSpec {
    /// Compile a logical `(expr, alias)` pair against an input schema.
    pub fn compile(
        expr: &Expr,
        alias: Option<&str>,
        schema: &Schema,
        udfs: &UdfRegistry,
    ) -> RelResult<Self> {
        let compiled = expr.compile(schema, udfs)?;
        Ok(ProjectionSpec {
            dtype: compiled.output_type(schema),
            expr: compiled,
            name: alias
                .map(str::to_string)
                .unwrap_or_else(|| expr.default_name()),
        })
    }
}

/// Evaluate each projection over every input row, producing a new table.
/// A projection that only renames a column shares it with the input.
pub fn project(input: &Table, specs: &[ProjectionSpec]) -> RelResult<Table> {
    let schema = Arc::new(Schema::new(
        specs
            .iter()
            .map(|s| Field::new(s.name.clone(), s.dtype))
            .collect(),
    )?);
    let columns = specs
        .iter()
        .map(|spec| {
            let col = spec.expr.eval_column(input, None)?;
            if col.dtype() != spec.dtype {
                return Err(RelError::TypeMismatch {
                    expected: spec.dtype.to_string(),
                    actual: col.dtype().to_string(),
                    context: format!("projection {}", spec.name),
                });
            }
            Ok(col)
        })
        .collect::<RelResult<Vec<_>>>()?;
    Table::from_shared(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn input() -> Table {
        let schema = Schema::of(&[("q", DataType::Str), ("clicks", DataType::Int)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("NFL"), Value::Int(60)],
                vec![Value::str("49ers"), Value::Int(20)],
                vec![Value::str("nasdaq"), Value::Int(80)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = input();
        let udfs = UdfRegistry::with_builtins();
        let pred = Expr::col("clicks")
            .ge(Expr::lit(50_i64))
            .compile(t.schema(), &udfs)
            .unwrap();
        let out = filter(&t, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0)[0], Value::str("NFL"));
    }

    #[test]
    fn filter_rejects_non_boolean_predicate() {
        let t = input();
        let udfs = UdfRegistry::with_builtins();
        let pred = Expr::col("clicks").compile(t.schema(), &udfs).unwrap();
        assert!(filter(&t, &pred).is_err());
    }

    #[test]
    fn project_renames_and_computes() {
        let t = input();
        let udfs = UdfRegistry::with_builtins();
        let specs = vec![
            ProjectionSpec::compile(
                &Expr::call("lower", vec![Expr::col("q")]),
                Some("query"),
                t.schema(),
                &udfs,
            )
            .unwrap(),
            ProjectionSpec::compile(
                &Expr::col("clicks").binary(crate::expr::BinOp::Mul, Expr::lit(2_i64)),
                Some("double"),
                t.schema(),
                &udfs,
            )
            .unwrap(),
        ];
        let out = project(&t, &specs).unwrap();
        assert_eq!(out.schema().fields()[0].name, "query");
        assert_eq!(out.row(0), vec![Value::str("nfl"), Value::Int(120)]);
    }
}
