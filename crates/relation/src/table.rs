//! In-memory tables: a schema plus one shared column vector per field.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::schema::SchemaRef;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable in-memory relation.
///
/// Columns are reference-counted: cloning a table, scanning it, or
/// projecting a column under a new name copies pointers, not rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: SchemaRef,
    columns: Vec<Arc<Column>>,
}

impl Table {
    /// Create a table from a schema and matching columns.
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> RelResult<Self> {
        Self::from_shared(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Create a table from a schema and matching shared columns.
    pub(crate) fn from_shared(schema: SchemaRef, columns: Vec<Arc<Column>>) -> RelResult<Self> {
        if schema.len() != columns.len() {
            return Err(RelError::InvalidPlan(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        let mut rows = None;
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.dtype != col.dtype() {
                return Err(RelError::TypeMismatch {
                    expected: field.dtype.to_string(),
                    actual: col.dtype().to_string(),
                    context: format!("column {}", field.name),
                });
            }
            match rows {
                None => rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(RelError::InvalidPlan(format!(
                        "ragged columns: {} vs {}",
                        n,
                        col.len()
                    )))
                }
                _ => {}
            }
        }
        Ok(Table { schema, columns })
    }

    /// Create an empty table with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::empty(f.dtype)))
            .collect();
        Table { schema, columns }
    }

    /// Build a table from rows of values. Mostly used by tests and by the
    /// SQL VALUES-style constructors; bulk paths use [`TableBuilder`].
    pub fn from_rows(schema: SchemaRef, rows: Vec<Vec<Value>>) -> RelResult<Self> {
        let mut builder = TableBuilder::new(Arc::clone(&schema));
        for row in rows {
            builder.push_row(row)?;
        }
        Ok(builder.finish())
    }

    /// The table's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> RelResult<&Column> {
        Ok(self.column(self.schema.index_of(name)?))
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// True when the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Materialize row `idx` as a vector of values.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(idx)).collect()
    }

    /// Iterate rows as value vectors. Convenient for tests and small
    /// results; operators work column-wise instead.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows()).map(|i| self.row(i))
    }

    /// Gather the given row indices into a new table.
    pub fn gather(&self, indices: &[usize]) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(indices)))
                .collect(),
        }
    }

    /// Keep rows where `mask` is true.
    pub fn filter_rows(&self, mask: &[bool]) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.filter(mask)))
                .collect(),
        }
    }

    /// Concatenate tables with identical schemas.
    pub fn concat(parts: &[Table]) -> RelResult<Table> {
        let Some(first) = parts.first() else {
            return Err(RelError::InvalidPlan("concat of zero tables".into()));
        };
        let rows = parts.iter().map(Table::num_rows).sum();
        let mut columns: Vec<Column> = first
            .schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, rows))
            .collect();
        for part in parts {
            if part.schema.as_ref() != first.schema.as_ref() {
                return Err(RelError::InvalidPlan(
                    "concat of tables with differing schemas".into(),
                ));
            }
            for (dst, src) in columns.iter_mut().zip(&part.columns) {
                dst.extend_from(src)?;
            }
        }
        Table::new(Arc::clone(&first.schema), columns)
    }

    /// Approximate payload size in bytes; feeds the Table 9 style
    /// read/write accounting.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Rows sorted lexicographically — canonical form for order-insensitive
    /// comparisons in tests (SQL vs native equivalence).
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = self.iter_rows().collect();
        rows.sort();
        rows
    }
}

impl fmt::Display for Table {
    /// Render a small ASCII preview (up to 20 rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|fl| fl.name.as_str())
            .collect();
        writeln!(f, "{}", names.join(" | "))?;
        for (i, row) in self.iter_rows().enumerate() {
            if i >= 20 {
                writeln!(f, "... ({} rows total)", self.num_rows())?;
                break;
            }
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Row-at-a-time table builder with type checking.
pub struct TableBuilder {
    schema: SchemaRef,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        TableBuilder { schema, columns }
    }

    /// Start building with row capacity reserved.
    pub fn with_capacity(schema: SchemaRef, rows: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, rows))
            .collect();
        TableBuilder { schema, columns }
    }

    /// Append one row.
    pub fn push_row(&mut self, row: Vec<Value>) -> RelResult<()> {
        if row.len() != self.columns.len() {
            return Err(RelError::InvalidPlan(format!(
                "row has {} values, schema has {} fields",
                row.len(),
                self.columns.len()
            )));
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value)?;
        }
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish and return the table.
    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns.into_iter().map(Arc::new).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn sample() -> Table {
        let schema = Schema::of(&[("q", DataType::Str), ("clicks", DataType::Int)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("nfl"), Value::Int(20)],
                vec![Value::str("49ers"), Value::Int(25)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_round_trips() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1), vec![Value::str("49ers"), Value::Int(25)]);
    }

    #[test]
    fn new_rejects_ragged_columns() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let err = Table::new(schema, vec![Column::Int(vec![1]), Column::Int(vec![])]);
        assert!(err.is_err());
    }

    #[test]
    fn new_rejects_type_mismatch() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let err = Table::new(schema, vec![Column::Float(vec![1.0])]);
        assert!(matches!(err, Err(RelError::TypeMismatch { .. })));
    }

    #[test]
    fn concat_appends_rows() {
        let t = sample();
        let joined = Table::concat(&[t.clone(), t.clone()]).unwrap();
        assert_eq!(joined.num_rows(), 4);
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let t = sample();
        let other = Table::empty(Schema::of(&[("x", DataType::Int)]));
        assert!(Table::concat(&[t, other]).is_err());
    }

    #[test]
    fn sorted_rows_canonicalizes_order() {
        let t = sample();
        let rows = t.sorted_rows();
        assert_eq!(rows[0][0], Value::str("49ers"));
    }

    #[test]
    fn builder_checks_row_width() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let mut b = TableBuilder::new(schema);
        assert!(b.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
    }
}
