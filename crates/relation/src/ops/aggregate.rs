//! Hash aggregation with grouping.
//!
//! Includes the non-standard `argmax(order, value)` aggregate that the
//! paper's community-detection SQL (Figure 4) uses for the neighborhood
//! separation step: per group, return `value` of the row where `order` is
//! maximal (deterministic tie-break on the smaller `value`).

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::ops::keys::{Groups, Keys};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use std::cmp::Ordering;
use std::sync::Arc;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`count(*)`).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean (always FLOAT).
    Avg,
    /// `argmax(order, value)`: the `value` at the maximal `order`.
    ArgMax,
}

/// One aggregate output column.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column (the value column; `None` only for `Count`).
    pub col: Option<usize>,
    /// Ordering column for `ArgMax`.
    pub by: Option<usize>,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// `count(*) as name`.
    pub fn count(name: impl Into<String>) -> Self {
        AggSpec {
            func: AggFunc::Count,
            col: None,
            by: None,
            name: name.into(),
        }
    }

    /// A single-column aggregate.
    pub fn on(func: AggFunc, col: usize, name: impl Into<String>) -> Self {
        AggSpec {
            func,
            col: Some(col),
            by: None,
            name: name.into(),
        }
    }

    /// `argmax(by, col) as name`.
    pub fn argmax(by: usize, col: usize, name: impl Into<String>) -> Self {
        AggSpec {
            func: AggFunc::ArgMax,
            col: Some(col),
            by: Some(by),
            name: name.into(),
        }
    }

    pub(crate) fn output_type(&self, input: &Schema) -> RelResult<DataType> {
        Ok(match self.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::ArgMax => {
                input.field(self.value_col()?).dtype
            }
        })
    }

    /// The value column (every function but `Count` reads one).
    pub(crate) fn value_col(&self) -> RelResult<usize> {
        self.col
            .ok_or_else(|| RelError::InvalidPlan(format!("aggregate {} needs a column", self.name)))
    }

    /// The ordering column of `ArgMax`.
    pub(crate) fn order_col(&self) -> RelResult<usize> {
        self.by.ok_or_else(|| {
            RelError::InvalidPlan(format!("aggregate {} needs an ordering column", self.name))
        })
    }
}

/// Group `input` by the given key columns and evaluate the aggregates.
///
/// Output columns are the group keys (original names) followed by one
/// column per aggregate. Groups are emitted in ascending key order, making
/// the operator fully deterministic. Rows are grouped by a typed key
/// table, and every aggregate is one typed pass over its input column in
/// row order, so float sums add in the same order as a row-at-a-time
/// fold.
pub fn aggregate(input: &Table, group_keys: &[usize], aggs: &[AggSpec]) -> RelResult<Table> {
    let in_schema = input.schema();
    let mut fields: Vec<Field> = group_keys
        .iter()
        .map(|&k| in_schema.field(k).clone())
        .collect();
    for spec in aggs {
        fields.push(Field::new(spec.name.clone(), spec.output_type(in_schema)?));
    }
    let out_schema = Arc::new(Schema::new(fields)?);
    if input.is_empty() {
        return Ok(Table::empty(out_schema));
    }

    let keys = Keys::new(input, group_keys);
    let groups = Groups::of(&keys)?;
    let mut order: Vec<usize> = (0..groups.firsts.len()).collect();
    order.sort_unstable_by(|&a, &b| keys.cmp(groups.firsts[a], groups.firsts[b]));

    let first_rows = in_order(&groups.firsts, &order);
    let mut columns: Vec<Arc<Column>> = group_keys
        .iter()
        .map(|&k| Arc::new(input.column(k).gather(&first_rows)))
        .collect();
    for spec in aggs {
        columns.push(Arc::new(fold(input, spec, &groups, &order)?));
    }
    Table::from_shared(out_schema, columns)
}

/// Per-group values listed in output order.
fn in_order<T: Copy>(per_group: &[T], order: &[usize]) -> Vec<T> {
    order.iter().map(|&g| per_group[g]).collect()
}

/// One aggregate over every group, listed in output order.
fn fold(input: &Table, spec: &AggSpec, groups: &Groups, order: &[usize]) -> RelResult<Column> {
    let n = groups.firsts.len();
    let group_of = &groups.group_of;
    Ok(match spec.func {
        AggFunc::Count => {
            let mut counts = vec![0i64; n];
            for &g in group_of {
                counts[g as usize] += 1;
            }
            Column::Int(in_order(&counts, order))
        }
        AggFunc::Sum => match input.column(spec.value_col()?) {
            Column::Int(v) => {
                let mut sums = vec![0i64; n];
                for (&g, &x) in group_of.iter().zip(v) {
                    sums[g as usize] = sums[g as usize].wrapping_add(x);
                }
                Column::Int(in_order(&sums, order))
            }
            Column::Float(v) => {
                let mut sums = vec![0.0f64; n];
                for (&g, &x) in group_of.iter().zip(v) {
                    sums[g as usize] += x;
                }
                Column::Float(in_order(&sums, order))
            }
            other => return Err(not_numeric("sum", other)),
        },
        AggFunc::Avg => {
            let mut sums = vec![0.0f64; n];
            let mut counts = vec![0i64; n];
            let mut add = |g: u32, x: f64| {
                sums[g as usize] += x;
                counts[g as usize] += 1;
            };
            match input.column(spec.value_col()?) {
                Column::Int(v) => group_of.iter().zip(v).for_each(|(&g, &x)| add(g, x as f64)),
                Column::Float(v) => group_of.iter().zip(v).for_each(|(&g, &x)| add(g, x)),
                other => return Err(not_numeric("avg", other)),
            }
            Column::Float(order.iter().map(|&g| sums[g] / counts[g] as f64).collect())
        }
        AggFunc::Min | AggFunc::Max => {
            let col = input.column(spec.value_col()?);
            let wins = if spec.func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            // Each group starts at its first row; only a strictly better
            // row replaces the best, so ties keep the earliest.
            let mut best = groups.firsts.clone();
            for (row, &g) in group_of.iter().enumerate() {
                let b = &mut best[g as usize];
                if col.cmp_at(row, col, *b) == wins {
                    *b = row;
                }
            }
            col.gather(&in_order(&best, order))
        }
        AggFunc::ArgMax => {
            let by = input.column(spec.order_col()?);
            let col = input.column(spec.value_col()?);
            let mut best = groups.firsts.clone();
            for (row, &g) in group_of.iter().enumerate() {
                let b = &mut best[g as usize];
                // Strictly greater order wins; on equal order, the
                // smaller value wins so results do not depend on input
                // order (the paper's Step 2 just says "keep the
                // closest"; we need determinism for the SQL-vs-native
                // equivalence tests).
                let wins = match by.cmp_at(row, by, *b) {
                    Ordering::Greater => true,
                    Ordering::Equal => col.cmp_at(row, col, *b) == Ordering::Less,
                    Ordering::Less => false,
                };
                if wins {
                    *b = row;
                }
            }
            col.gather(&in_order(&best, order))
        }
    })
}

fn not_numeric(context: &str, col: &Column) -> RelError {
    RelError::TypeMismatch {
        expected: "numeric".into(),
        actual: col.dtype().to_string(),
        context: context.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn input() -> Table {
        let schema = Schema::of(&[
            ("grp", DataType::Str),
            ("x", DataType::Int),
            ("w", DataType::Float),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("a"), Value::Int(1), Value::Float(0.5)],
                vec![Value::str("a"), Value::Int(5), Value::Float(0.1)],
                vec![Value::str("b"), Value::Int(2), Value::Float(0.9)],
                vec![Value::str("a"), Value::Int(3), Value::Float(0.7)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn count_sum_avg_min_max() {
        let t = input();
        let out = aggregate(
            &t,
            &[0],
            &[
                AggSpec::count("n"),
                AggSpec::on(AggFunc::Sum, 1, "sx"),
                AggSpec::on(AggFunc::Avg, 1, "ax"),
                AggSpec::on(AggFunc::Min, 1, "mn"),
                AggSpec::on(AggFunc::Max, 1, "mx"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        // Group "a" comes first (sorted output).
        assert_eq!(
            out.row(0),
            vec![
                Value::str("a"),
                Value::Int(3),
                Value::Int(9),
                Value::Float(3.0),
                Value::Int(1),
                Value::Int(5)
            ]
        );
    }

    #[test]
    fn argmax_picks_value_at_max_order() {
        let t = input();
        // Per group: x at maximal w.
        let out = aggregate(&t, &[0], &[AggSpec::argmax(2, 1, "best")]).unwrap();
        assert_eq!(out.row(0), vec![Value::str("a"), Value::Int(3)]); // w=0.7
        assert_eq!(out.row(1), vec![Value::str("b"), Value::Int(2)]);
    }

    #[test]
    fn argmax_breaks_ties_on_smaller_value() {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Str), ("w", DataType::Float)]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::Int(0), Value::str("zzz"), Value::Float(1.0)],
                vec![Value::Int(0), Value::str("aaa"), Value::Float(1.0)],
            ],
        )
        .unwrap();
        let out = aggregate(&t, &[0], &[AggSpec::argmax(2, 1, "best")]).unwrap();
        assert_eq!(out.row(0)[1], Value::str("aaa"));
    }

    #[test]
    fn global_aggregate_with_no_keys() {
        let t = input();
        let out = aggregate(&t, &[], &[AggSpec::count("n")]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int(4)]);
    }

    #[test]
    fn sum_over_strings_rejected() {
        let t = input();
        assert!(aggregate(&t, &[], &[AggSpec::on(AggFunc::Sum, 0, "s")]).is_err());
    }
}
