//! Scalar expressions: a small logical expression language plus a compiled,
//! index-resolved form evaluated a column at a time.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::udf::UdfRegistry;
use crate::value::{canonical_nan, total_f64_cmp, DataType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Binary operators supported by the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Equality (`=`).
    Eq,
    /// Inequality (`<>` / `!=`).
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A logical scalar expression over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// A scalar function call, resolved against the [`UdfRegistry`] at
    /// compile time. Built-ins (`lower`, `abs`, `ln`) are registered by
    /// default; pipelines add their own (e.g. `ModulGain` in Figure 4).
    Call {
        /// Function name (case-insensitive).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference helper.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal helper.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Lit(value.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinOp::Eq, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinOp::Gt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        self.binary(BinOp::Ge, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinOp::Lt, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinOp::Or, other)
    }

    /// Generic binary combinator.
    pub fn binary(self, op: BinOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Function call helper.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Compile against a schema, resolving column names to indices and
    /// function names to UDF handles.
    pub fn compile(&self, schema: &Schema, udfs: &UdfRegistry) -> RelResult<CompiledExpr> {
        Ok(match self {
            Expr::Col(name) => CompiledExpr::Col(schema.index_of(name)?),
            Expr::Lit(v) => CompiledExpr::Lit(v.clone()),
            Expr::Binary { op, left, right } => CompiledExpr::Binary {
                op: *op,
                left: Box::new(left.compile(schema, udfs)?),
                right: Box::new(right.compile(schema, udfs)?),
            },
            Expr::Not(inner) => CompiledExpr::Not(Box::new(inner.compile(schema, udfs)?)),
            Expr::Call { name, args } => {
                let udf = udfs.get(name)?;
                let compiled = args
                    .iter()
                    .map(|a| a.compile(schema, udfs))
                    .collect::<RelResult<Vec<_>>>()?;
                CompiledExpr::Call {
                    udf,
                    args: compiled,
                }
            }
        })
    }

    /// Infer the output type against a schema (UDFs report their own).
    pub fn output_type(&self, schema: &Schema, udfs: &UdfRegistry) -> RelResult<DataType> {
        Ok(self.compile(schema, udfs)?.output_type(schema))
    }

    /// A display name used when a projection has no explicit alias.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Col(name) => name.clone(),
            Expr::Lit(v) => v.to_string(),
            Expr::Binary { op, left, right } => {
                format!("{} {} {}", left.default_name(), op, right.default_name())
            }
            Expr::Not(inner) => format!("NOT {}", inner.default_name()),
            Expr::Call { name, args } => {
                let inner: Vec<String> = args.iter().map(Expr::default_name).collect();
                format!("{}({})", name, inner.join(", "))
            }
        }
    }
}

/// An expression with column indices and UDF handles resolved.
#[derive(Clone)]
pub enum CompiledExpr {
    /// Column by position.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Binary op.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// Logical negation.
    Not(Box<CompiledExpr>),
    /// Resolved scalar function call.
    Call {
        /// The function implementation.
        udf: Arc<dyn crate::udf::ScalarUdf>,
        /// Compiled arguments.
        args: Vec<CompiledExpr>,
    },
}

impl CompiledExpr {
    /// Evaluate over the rows `sel` of `table` (every row when `None`), a
    /// column at a time: one value per selected row, in selection order.
    ///
    /// Fails exactly when evaluating some selected row on its own would.
    /// AND/OR evaluate their right side only on the rows their left side
    /// leaves undecided, so `false AND 1/0` does not divide. A UDF's
    /// values are converted to its declared output type as
    /// [`Column::push`] converts them.
    pub fn eval_column(&self, table: &Table, sel: Option<&[usize]>) -> RelResult<Arc<Column>> {
        let rows = sel.map_or(table.num_rows(), <[usize]>::len);
        if rows == 0 {
            return Ok(Arc::new(Column::empty(self.output_type(table.schema()))));
        }
        self.eval_rows(table, sel, rows)
    }

    /// The result type over `schema`: INT arithmetic stays INT except
    /// division, comparisons and logic are BOOL, UDFs declare theirs.
    pub(crate) fn output_type(&self, schema: &Schema) -> DataType {
        match self {
            CompiledExpr::Col(idx) => schema.field(*idx).dtype,
            CompiledExpr::Lit(v) => v.data_type(),
            CompiledExpr::Binary { op, left, right } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let floats = left.output_type(schema) == DataType::Float
                        || right.output_type(schema) == DataType::Float;
                    if floats {
                        DataType::Float
                    } else {
                        DataType::Int
                    }
                }
                BinOp::Div => DataType::Float,
                _ => DataType::Bool,
            },
            CompiledExpr::Not(_) => DataType::Bool,
            CompiledExpr::Call { udf, .. } => udf.output_type(),
        }
    }

    /// [`CompiledExpr::eval_column`] over `rows > 0` selected rows.
    fn eval_rows(
        &self,
        table: &Table,
        sel: Option<&[usize]>,
        rows: usize,
    ) -> RelResult<Arc<Column>> {
        let col = match self {
            CompiledExpr::Col(idx) => {
                let col = &table.columns()[*idx];
                return Ok(match sel {
                    None => Arc::clone(col),
                    Some(sel) => Arc::new(col.gather(sel)),
                });
            }
            CompiledExpr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => return logical(*op, left, right, table, sel, rows),
            CompiledExpr::Lit(v) => Column::repeat(v, rows),
            CompiledExpr::Binary { op, left, right } if is_comparison(*op) => {
                // A numeric literal is compared as a scalar, not as a
                // column of copies.
                let scalar = match (left.as_ref(), right.as_ref()) {
                    (other, CompiledExpr::Lit(lit)) if is_number(lit) => Some((other, lit, false)),
                    (CompiledExpr::Lit(lit), other) if is_number(lit) => Some((other, lit, true)),
                    _ => None,
                };
                match scalar {
                    Some((other, lit, flipped)) => {
                        let col = other.eval_rows(table, sel, rows)?;
                        compare_scalar(*op, &col, lit, flipped)
                    }
                    None => {
                        let l = left.eval_rows(table, sel, rows)?;
                        let r = right.eval_rows(table, sel, rows)?;
                        compare(*op, &l, &r)
                    }
                }
            }
            CompiledExpr::Binary { op, left, right } => {
                let l = left.eval_rows(table, sel, rows)?;
                let r = right.eval_rows(table, sel, rows)?;
                arithmetic(*op, &l, &r)?
            }
            CompiledExpr::Not(inner) => {
                let v = inner.eval_rows(table, sel, rows)?;
                Column::Bool(bools(&v, "NOT")?.iter().map(|b| !b).collect())
            }
            CompiledExpr::Call { udf, args } => {
                let args = args
                    .iter()
                    .map(|a| a.eval_rows(table, sel, rows))
                    .collect::<RelResult<Vec<_>>>()?;
                let args: Vec<&Column> = args.iter().map(|c| c.as_ref()).collect();
                let mut out = udf.invoke_column(&args, rows)?;
                if let Column::Float(values) = &mut out {
                    values.iter_mut().for_each(|x| *x = canonical_nan(*x));
                }
                if out.len() != rows {
                    return Err(RelError::Eval(format!(
                        "{} returned {} values for {rows} rows",
                        udf.name(),
                        out.len()
                    )));
                }
                out
            }
        };
        Ok(Arc::new(col))
    }

    /// The operands of this expression's top-level ANDs, left to right
    /// (the expression itself when it is no AND), appended to `out`.
    pub(crate) fn conjuncts<'a>(&'a self, out: &mut Vec<&'a CompiledExpr>) {
        match self {
            CompiledExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                left.conjuncts(out);
                right.conjuncts(out);
            }
            other => out.push(other),
        }
    }

    /// Every column position this expression reads, appended to `out`.
    pub(crate) fn columns_read(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Col(idx) => out.push(*idx),
            CompiledExpr::Lit(_) => {}
            CompiledExpr::Binary { left, right, .. } => {
                left.columns_read(out);
                right.columns_read(out);
            }
            CompiledExpr::Not(inner) => inner.columns_read(out),
            CompiledExpr::Call { args, .. } => args.iter().for_each(|a| a.columns_read(out)),
        }
    }

    /// This expression reading column `map[i]` wherever it read column
    /// `i`.
    pub(crate) fn remap(&self, map: &[usize]) -> CompiledExpr {
        match self {
            CompiledExpr::Col(idx) => CompiledExpr::Col(map[*idx]),
            CompiledExpr::Lit(v) => CompiledExpr::Lit(v.clone()),
            CompiledExpr::Binary { op, left, right } => CompiledExpr::Binary {
                op: *op,
                left: Box::new(left.remap(map)),
                right: Box::new(right.remap(map)),
            },
            CompiledExpr::Not(inner) => CompiledExpr::Not(Box::new(inner.remap(map))),
            CompiledExpr::Call { udf, args } => CompiledExpr::Call {
                udf: Arc::clone(udf),
                args: args.iter().map(|a| a.remap(map)).collect(),
            },
        }
    }
}

/// A boolean column's values, or the type error `context` reports.
fn bools<'a>(col: &'a Column, context: &str) -> RelResult<&'a [bool]> {
    match col {
        Column::Bool(b) => Ok(b),
        other => Err(RelError::TypeMismatch {
            expected: "BOOL".into(),
            actual: other.dtype().to_string(),
            context: context.into(),
        }),
    }
}

/// AND / OR: the right side runs only on the rows the left side leaves
/// undecided (true for AND, false for OR).
fn logical(
    op: BinOp,
    left: &CompiledExpr,
    right: &CompiledExpr,
    table: &Table,
    sel: Option<&[usize]>,
    rows: usize,
) -> RelResult<Arc<Column>> {
    let decided = op == BinOp::Or;
    let l = left.eval_rows(table, sel, rows)?;
    let lv = bools(&l, "AND/OR")?;
    let undecided: Vec<usize> = (0..rows).filter(|&i| lv[i] != decided).collect();
    if undecided.is_empty() {
        return Ok(l);
    }
    if undecided.len() == rows {
        let r = right.eval_rows(table, sel, rows)?;
        bools(&r, "AND/OR")?;
        return Ok(r);
    }
    let sub: Vec<usize> = match sel {
        None => undecided.clone(),
        Some(sel) => undecided.iter().map(|&i| sel[i]).collect(),
    };
    let r = right.eval_rows(table, Some(&sub), sub.len())?;
    let mut out = lv.to_vec();
    for (&i, &b) in undecided.iter().zip(bools(&r, "AND/OR")?) {
        out[i] = b;
    }
    Ok(Arc::new(Column::Bool(out)))
}

/// `f` over the paired values of two equally long slices.
fn zip<A, B, O>(a: &[A], b: &[B], f: impl Fn(&A, &B) -> O) -> Vec<O> {
    a.iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// The values as floats, widening INT as `Value::as_float` does.
fn floats(col: &Column) -> Option<Cow<'_, [f64]>> {
    match col {
        Column::Float(v) => Some(Cow::Borrowed(v)),
        Column::Int(v) => Some(Cow::Owned(v.iter().map(|&i| i as f64).collect())),
        Column::Bool(_) | Column::Str(_) => None,
    }
}

/// True for the six comparison operators.
fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// True for an INT or FLOAT value.
fn is_number(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Float(_))
}

/// Whether `op` holds between two values that order as `ord`.
fn holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        _ => ord.is_ge(),
    }
}

/// A comparison in [`Value`]'s total order. Equality agrees with the
/// order on every pair of types, so one ordering test serves `=` too.
fn compare(op: BinOp, l: &Column, r: &Column) -> Column {
    let test = move |ord: Ordering| holds(op, ord);
    Column::Bool(match (l, r) {
        (Column::Int(a), Column::Int(b)) => zip(a, b, |x, y| test(x.cmp(y))),
        (Column::Str(a), Column::Str(b)) => zip(a, b, |x, y| test(x.cmp(y))),
        (Column::Bool(a), Column::Bool(b)) => zip(a, b, |x, y| test(x.cmp(y))),
        _ => match (floats(l), floats(r)) {
            (Some(a), Some(b)) => zip(&a, &b, |&x, &y| test(total_f64_cmp(x, y))),
            // Otherwise the types differ and order by type tag.
            _ => vec![test(type_tag(l.dtype()).cmp(&type_tag(r.dtype()))); l.len()],
        },
    })
}

/// [`compare`] of each value of `col` against the numeric literal `lit`
/// (`lit op col` when `flipped`), in the same order: INT against INT as
/// integers, any other numeric pair through [`total_f64_cmp`] with the
/// INT side widened, one value at a time.
fn compare_scalar(op: BinOp, col: &Column, lit: &Value, flipped: bool) -> Column {
    let test = move |ord: Ordering| holds(op, if flipped { ord.reverse() } else { ord });
    Column::Bool(match (col, lit) {
        (Column::Int(a), Value::Int(b)) => a.iter().map(|x| test(x.cmp(b))).collect(),
        (Column::Int(a), Value::Float(b)) => a
            .iter()
            .map(|&x| test(total_f64_cmp(x as f64, *b)))
            .collect(),
        (Column::Float(a), Value::Int(b)) => {
            let b = *b as f64;
            a.iter().map(|&x| test(total_f64_cmp(x, b))).collect()
        }
        (Column::Float(a), Value::Float(b)) => {
            a.iter().map(|&x| test(total_f64_cmp(x, *b))).collect()
        }
        // A BOOL or STR column against a number orders by type tag.
        _ => vec![test(type_tag(col.dtype()).cmp(&type_tag(lit.data_type()))); col.len()],
    })
}

/// [`Value`]'s cross-type order: BOOL < numbers < STR.
fn type_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Bool => 0,
        DataType::Int | DataType::Float => 1,
        DataType::Str => 2,
    }
}

/// Arithmetic: INT op INT stays integral (wrapping) except division,
/// which always produces a float (matching the modularity formulas'
/// expectations); any other numeric pair computes in floats, and a NaN
/// result is the canonical one ([`canonical_nan`]).
fn arithmetic(op: BinOp, l: &Column, r: &Column) -> RelResult<Column> {
    let by_zero = || RelError::Eval("division by zero".into());
    if let (Column::Int(a), Column::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Column::Int(zip(a, b, |x, y| x.wrapping_add(*y))),
            BinOp::Sub => Column::Int(zip(a, b, |x, y| x.wrapping_sub(*y))),
            BinOp::Mul => Column::Int(zip(a, b, |x, y| x.wrapping_mul(*y))),
            _ => {
                if b.contains(&0) {
                    return Err(by_zero());
                }
                Column::Float(zip(a, b, |&x, &y| x as f64 / y as f64))
            }
        });
    }
    let (Some(a), Some(b)) = (floats(l), floats(r)) else {
        return Err(RelError::TypeMismatch {
            expected: "numeric".into(),
            actual: format!("{} {} {}", l.dtype(), op, r.dtype()),
            context: "arithmetic".into(),
        });
    };
    Ok(Column::Float(match op {
        BinOp::Add => zip(&a, &b, |x, y| canonical_nan(x + y)),
        BinOp::Sub => zip(&a, &b, |x, y| canonical_nan(x - y)),
        BinOp::Mul => zip(&a, &b, |x, y| canonical_nan(x * y)),
        _ => {
            if b.contains(&0.0) {
                return Err(by_zero());
            }
            zip(&a, &b, |x, y| canonical_nan(x / y))
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn table() -> Table {
        let schema = Schema::of(&[("name", DataType::Str), ("n", DataType::Int)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("NFL"), Value::Int(3)],
                vec![Value::str("49ers"), Value::Int(10)],
            ],
        )
        .unwrap()
    }

    /// Evaluate `e` over every row of `t`.
    fn eval(e: &Expr, t: &Table) -> RelResult<Column> {
        let compiled = e
            .compile(t.schema(), &UdfRegistry::with_builtins())
            .unwrap();
        compiled.eval_column(t, None).map(|c| c.as_ref().clone())
    }

    #[test]
    fn comparison_and_arithmetic() {
        let t = table();
        let e = Expr::col("n").gt(Expr::lit(5_i64));
        assert_eq!(eval(&e, &t).unwrap(), Column::Bool(vec![false, true]));

        let sum = Expr::col("n").binary(BinOp::Add, Expr::lit(1_i64));
        assert_eq!(eval(&sum, &t).unwrap(), Column::Int(vec![4, 11]));
    }

    #[test]
    fn division_is_float_and_checked() {
        let t = table();
        let div = Expr::col("n").binary(BinOp::Div, Expr::lit(4_i64));
        assert_eq!(eval(&div, &t).unwrap(), Column::Float(vec![0.75, 2.5]));
        let by_zero = Expr::col("n").binary(BinOp::Div, Expr::lit(0_i64));
        assert!(eval(&by_zero, &t).is_err());
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        let t = table();
        // RHS would be a type error (Int where BOOL expected); AND must not
        // reach it when LHS is false.
        let e = Expr::lit(false).and(Expr::col("n"));
        assert_eq!(eval(&e, &t).unwrap(), Column::Bool(vec![false, false]));
        let e = Expr::lit(true).or(Expr::col("n"));
        assert_eq!(eval(&e, &t).unwrap(), Column::Bool(vec![true, true]));
        // Row-wise: the division runs only on the row `n > 5` leaves
        // undecided, whose divisor is not zero.
        let divisor = Expr::col("n").binary(BinOp::Sub, Expr::lit(3_i64));
        let guarded = Expr::col("n").gt(Expr::lit(5_i64)).and(
            Expr::lit(1_i64)
                .binary(BinOp::Div, divisor)
                .gt(Expr::lit(0_i64)),
        );
        assert_eq!(eval(&guarded, &t).unwrap(), Column::Bool(vec![false, true]));
    }

    #[test]
    fn selection_picks_rows_in_order() {
        let t = table();
        let e = Expr::col("n").binary(BinOp::Mul, Expr::lit(2_i64));
        let compiled = e
            .compile(t.schema(), &UdfRegistry::with_builtins())
            .unwrap();
        let out = compiled.eval_column(&t, Some(&[1, 1, 0])).unwrap();
        assert_eq!(*out, Column::Int(vec![20, 20, 6]));
        let none = compiled.eval_column(&t, Some(&[])).unwrap();
        assert_eq!(*none, Column::Int(vec![]));
    }

    #[test]
    fn builtin_lower_applies() {
        let t = table();
        let e = Expr::call("lower", vec![Expr::col("name")]);
        assert_eq!(
            eval(&e, &t).unwrap(),
            Column::Str(vec![Arc::from("nfl"), Arc::from("49ers")])
        );
    }

    #[test]
    fn unknown_column_fails_compile() {
        let t = table();
        let e = Expr::col("missing");
        assert!(e
            .compile(t.schema(), &UdfRegistry::with_builtins())
            .is_err());
    }

    #[test]
    fn output_type_inference() {
        let t = table();
        let udfs = UdfRegistry::with_builtins();
        assert_eq!(
            Expr::col("n")
                .gt(Expr::lit(1_i64))
                .output_type(t.schema(), &udfs)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::col("n")
                .binary(BinOp::Div, Expr::lit(2_i64))
                .output_type(t.schema(), &udfs)
                .unwrap(),
            DataType::Float
        );
    }
}
