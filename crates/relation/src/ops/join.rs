//! Hash equi-join.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::ops::keys::{Keys, RowIndex};
use crate::table::Table;
use std::sync::Arc;

/// Which side the hash table is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// Build on the left input, probe with the right.
    BuildLeft,
    /// Build on the right input, probe with the left (the default: in the
    /// pipeline the right side is the small `communities` table).
    BuildRight,
}

/// Inner hash equi-join of `left` and `right` on the given key columns.
///
/// Output schema is `left ++ right` with colliding right-side names suffixed
/// by `_r` (the SQL binder projects/aliases on top of this). Output row
/// order follows the probe side, and a probe row's matches come in
/// build-row order, which makes the operator deterministic for a given
/// build side.
///
/// The build rows are chained in a key index (`ops::keys`). One `Int` key
/// column whose span `max − min + 1` is no larger than the hashed index
/// would allocate is addressed directly, by `key − min`: nothing is
/// hashed, a probe key outside `[min, max]` matches nothing, and a match
/// needs no key compare. Every other key is hashed. Both list a chain's
/// rows in ascending order, so the output does not depend on which the
/// build keys chose.
pub fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    side: JoinSide,
) -> RelResult<Table> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(RelError::InvalidPlan(format!(
            "join key arity mismatch: {} vs {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    for (&lk, &rk) in left_keys.iter().zip(right_keys) {
        let lt = left.schema().field(lk).dtype;
        let rt = right.schema().field(rk).dtype;
        if lt != rt {
            return Err(RelError::TypeMismatch {
                expected: lt.to_string(),
                actual: rt.to_string(),
                context: "join keys".into(),
            });
        }
    }

    let (build, probe, build_keys, probe_keys, build_is_left) = match side {
        JoinSide::BuildLeft => (left, right, left_keys, right_keys, true),
        JoinSide::BuildRight => (right, left, right_keys, left_keys, false),
    };

    // Build phase: chain the build rows by key (see `ops::keys`).
    let build_keys = Keys::new(build, build_keys);
    let index = RowIndex::build(&build_keys)?;

    // Probe phase: collect matching (probe_row, build_row) index pairs.
    let (probe_idx, build_idx) = index.matches(&build_keys, &Keys::new(probe, probe_keys));
    let (left_idx, right_idx) = if build_is_left {
        (build_idx, probe_idx)
    } else {
        (probe_idx, build_idx)
    };

    let out_schema = Arc::new(left.schema().join(right.schema(), "_r")?);
    let mut columns = gather_all(left, &left_idx);
    columns.extend(gather_all(right, &right_idx));
    Table::from_shared(out_schema, columns)
}

/// `table`'s columns at the rows `idx`; shared, not copied, when `idx`
/// is every row in order (a probe side whose rows each match once).
fn gather_all(table: &Table, idx: &[usize]) -> Vec<Arc<Column>> {
    let identity = idx.len() == table.num_rows() && idx.iter().enumerate().all(|(i, &r)| i == r);
    table
        .columns()
        .iter()
        .map(|c| {
            if identity {
                Arc::clone(c)
            } else {
                Arc::new(c.gather(idx))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn graph() -> Table {
        let schema = Schema::of(&[
            ("query1", DataType::Str),
            ("query2", DataType::Str),
            ("distance", DataType::Float),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("49ers"), Value::str("nfl"), Value::Float(0.29)],
                vec![
                    Value::str("nfl"),
                    Value::str("football"),
                    Value::Float(0.4),
                ],
            ],
        )
        .unwrap()
    }

    fn communities() -> Table {
        let schema = Schema::of(&[("comm_name", DataType::Str), ("query", DataType::Str)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("c1"), Value::str("49ers")],
                vec![Value::str("c2"), Value::str("nfl")],
                vec![Value::str("c2"), Value::str("football")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_matches_keys() {
        let g = graph();
        let c = communities();
        // graph.query1 = communities.query
        let out = hash_join(&g, &c, &[0], &[1], JoinSide::BuildRight).unwrap();
        assert_eq!(out.num_rows(), 2);
        let names: Vec<_> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["query1", "query2", "distance", "comm_name", "query"]
        );
    }

    #[test]
    fn join_output_agrees_across_build_sides() {
        let g = graph();
        let c = communities();
        let a = hash_join(&g, &c, &[1], &[1], JoinSide::BuildRight).unwrap();
        let b = hash_join(&g, &c, &[1], &[1], JoinSide::BuildLeft).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn join_duplicates_multiply() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let l = Table::from_rows(
            Arc::clone(&schema),
            vec![vec![Value::Int(1)], vec![Value::Int(1)]],
        )
        .unwrap();
        let r = Table::from_rows(
            schema,
            vec![vec![Value::Int(1)], vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        let out = hash_join(&l, &r, &[0], &[0], JoinSide::BuildRight).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn join_key_type_mismatch_rejected() {
        let l = Table::empty(Schema::of(&[("k", DataType::Int)]));
        let r = Table::empty(Schema::of(&[("k", DataType::Str)]));
        assert!(hash_join(&l, &r, &[0], &[0], JoinSide::BuildRight).is_err());
    }

    #[test]
    fn empty_probe_yields_empty() {
        let l = Table::empty(Schema::of(&[("k", DataType::Int)]));
        let r = Table::from_rows(Schema::of(&[("k", DataType::Int)]), vec![vec![Value::Int(1)]])
            .unwrap();
        let out = hash_join(&l, &r, &[0], &[0], JoinSide::BuildRight).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
