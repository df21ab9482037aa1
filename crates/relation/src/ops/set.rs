//! Set-flavored operators: union, distinct, limit.

use crate::error::{RelError, RelResult};
use crate::ops::keys::{Groups, Keys};
use crate::table::Table;

/// Bag union: concatenate tables with identical schemas.
pub fn union_all(parts: &[Table]) -> RelResult<Table> {
    if parts.is_empty() {
        return Err(RelError::InvalidPlan("union of zero inputs".into()));
    }
    Table::concat(parts)
}

/// Remove duplicate rows, keeping the first occurrence of each.
pub fn distinct(input: &Table) -> RelResult<Table> {
    let all: Vec<usize> = (0..input.schema().len()).collect();
    let groups = Groups::of(&Keys::new(input, &all))?;
    Ok(input.gather(&groups.firsts))
}

/// Keep the first `n` rows.
pub fn limit(input: &Table, n: usize) -> RelResult<Table> {
    let n = n.min(input.num_rows());
    let indices: Vec<usize> = (0..n).collect();
    Ok(input.gather(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn table(vals: &[i64]) -> Table {
        let schema = Schema::of(&[("x", DataType::Int)]);
        Table::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)]).collect()).unwrap()
    }

    #[test]
    fn union_concatenates() {
        let out = union_all(&[table(&[1, 2]), table(&[3])]).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn distinct_removes_duplicates_keeping_first() {
        let out = distinct(&table(&[3, 1, 3, 2, 1])).unwrap();
        let vals: Vec<Value> = out.iter_rows().map(|r| r[0].clone()).collect();
        assert_eq!(vals, vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn limit_truncates_and_clamps() {
        assert_eq!(limit(&table(&[1, 2, 3]), 2).unwrap().num_rows(), 2);
        assert_eq!(limit(&table(&[1]), 10).unwrap().num_rows(), 1);
    }
}
