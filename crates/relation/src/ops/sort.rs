//! Sorting.

use crate::error::RelResult;
use crate::table::Table;

/// One sort key: column index plus direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column to order by.
    pub col: usize,
    /// True for ascending order.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key on `col`.
    pub fn asc(col: usize) -> Self {
        SortKey {
            col,
            ascending: true,
        }
    }

    /// Descending key on `col`.
    pub fn desc(col: usize) -> Self {
        SortKey {
            col,
            ascending: false,
        }
    }
}

/// Stable sort by the given keys (first key most significant).
pub fn sort(input: &Table, keys: &[SortKey]) -> RelResult<Table> {
    let mut indices: Vec<usize> = (0..input.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        for key in keys {
            let col = input.column(key.col);
            let ord = col.cmp_at(a, col, b);
            let ord = if key.ascending { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(input.gather(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn input() -> Table {
        let schema = Schema::of(&[("name", DataType::Str), ("score", DataType::Float)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("b"), Value::Float(2.0)],
                vec![Value::str("a"), Value::Float(3.0)],
                vec![Value::str("c"), Value::Float(2.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn sorts_descending_with_tiebreak() {
        let t = input();
        let out = sort(&t, &[SortKey::desc(1), SortKey::asc(0)]).unwrap();
        let names: Vec<Value> = out.iter_rows().map(|r| r[0].clone()).collect();
        assert_eq!(
            names,
            vec![Value::str("a"), Value::str("b"), Value::str("c")]
        );
    }

    #[test]
    fn sort_is_stable() {
        let t = input();
        let out = sort(&t, &[SortKey::asc(1)]).unwrap();
        // b precedes c among equal scores because it appeared first.
        assert_eq!(out.row(0)[0], Value::str("b"));
        assert_eq!(out.row(1)[0], Value::str("c"));
    }
}
