//! Reference implementations the engine is checked against:
//!
//! * row-at-a-time versions of the column-at-a-time kernels — expression
//!   evaluation one row and one `Value` at a time, and the hash join and
//!   aggregate keyed by `Vec<Value>` (`tests/proptest_columnar.rs` checks
//!   the kernels against them row for row);
//! * the naive logical-plan executor ([`ExecContext::execute`],
//!   [`run_sql_unoptimized`]), the semantics the physical planner must
//!   reproduce (`tests/planner_equiv.rs`, `plan.rs`'s unit tests).
//!
//! Compiled only for tests and under the `test-support` feature.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::exec::StageStats;
use crate::expr::{BinOp, CompiledExpr, Expr};
use crate::ops::{self, AggFunc, AggSpec, JoinSide, ProjectionSpec, SortKey};
use crate::plan::{equi_pair, flatten_and, lower_agg, ExecContext, LogicalPlan};
use crate::schema::{Field, Schema};
use crate::sql::plan_sql;
use crate::table::Table;
use crate::value::{canonical_nan, DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

impl CompiledExpr {
    /// Reference for [`CompiledExpr::eval_column`]: evaluate over row
    /// `row` of `table`.
    pub fn eval(&self, table: &Table, row: usize) -> RelResult<Value> {
        match self {
            CompiledExpr::Col(idx) => Ok(table.column(*idx).value(row)),
            CompiledExpr::Lit(v) => Ok(v.clone()),
            CompiledExpr::Binary { op, left, right } => {
                // Short-circuit logical operators before evaluating the
                // right side.
                if *op == BinOp::And || *op == BinOp::Or {
                    let l = expect_bool(left.eval(table, row)?, "AND/OR")?;
                    return match (op, l) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let r = expect_bool(right.eval(table, row)?, "AND/OR")?;
                            Ok(Value::Bool(r))
                        }
                    };
                }
                let l = left.eval(table, row)?;
                let r = right.eval(table, row)?;
                eval_binary(*op, l, r)
            }
            CompiledExpr::Not(inner) => {
                let v = expect_bool(inner.eval(table, row)?, "NOT")?;
                Ok(Value::Bool(!v))
            }
            CompiledExpr::Call { udf, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(table, row)?);
                }
                Ok(match udf.invoke(&values)? {
                    Value::Float(x) => Value::Float(canonical_nan(x)),
                    value => value,
                })
            }
        }
    }

    /// [`CompiledExpr::eval`] over every row, producing one value per row.
    pub fn eval_all(&self, table: &Table) -> RelResult<Vec<Value>> {
        (0..table.num_rows())
            .map(|row| self.eval(table, row))
            .collect()
    }
}

fn expect_bool(v: Value, context: &str) -> RelResult<bool> {
    v.as_bool().ok_or_else(|| RelError::TypeMismatch {
        expected: "BOOL".into(),
        actual: v.data_type().to_string(),
        context: context.into(),
    })
}

fn eval_binary(op: BinOp, l: Value, r: Value) -> RelResult<Value> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => Ok(Value::Bool(l < r)),
        Le => Ok(Value::Bool(l <= r)),
        Gt => Ok(Value::Bool(l > r)),
        Ge => Ok(Value::Bool(l >= r)),
        Add | Sub | Mul | Div => eval_arith(op, l, r),
        And | Or => unreachable!("handled with short-circuit"),
    }
}

fn eval_arith(op: BinOp, l: Value, r: Value) -> RelResult<Value> {
    // Integer arithmetic stays integral except for division, which always
    // produces a float (matching the modularity formulas' expectations).
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    return Err(RelError::Eval("division by zero".into()));
                }
                Value::Float(*a as f64 / *b as f64)
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.as_float(), r.as_float()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(RelError::TypeMismatch {
                expected: "numeric".into(),
                actual: format!("{} {} {}", l.data_type(), op, r.data_type()),
                context: "arithmetic".into(),
            })
        }
    };
    Ok(Value::Float(canonical_nan(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(RelError::Eval("division by zero".into()));
            }
            a / b
        }
        _ => unreachable!(),
    })))
}

/// Reference for [`crate::ops::hash_join`]: build rows indexed by their
/// `Vec<Value>` keys in a `HashMap`, probed row by row.
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

    // Build phase: key -> row indices.
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build.num_rows());
    for row in 0..build.num_rows() {
        let key: Vec<Value> = build_keys
            .iter()
            .map(|&k| build.column(k).value(row))
            .collect();
        index.entry(key).or_default().push(row);
    }

    // Probe phase: collect matching (left_row, right_row) index pairs.
    let mut left_idx = Vec::new();
    let mut right_idx = Vec::new();
    let mut key = Vec::with_capacity(probe_keys.len());
    for row in 0..probe.num_rows() {
        key.clear();
        key.extend(probe_keys.iter().map(|&k| probe.column(k).value(row)));
        if let Some(matches) = index.get(&key) {
            for &b in matches {
                if build_is_left {
                    left_idx.push(b);
                    right_idx.push(row);
                } else {
                    left_idx.push(row);
                    right_idx.push(b);
                }
            }
        }
    }

    let out_schema = Arc::new(left.schema().join(right.schema(), "_r")?);
    let mut columns = Vec::with_capacity(out_schema.len());
    for col in left.columns() {
        columns.push(col.gather(&left_idx));
    }
    for col in right.columns() {
        columns.push(col.gather(&right_idx));
    }
    Table::new(out_schema, columns)
}

/// Per-group accumulator state.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt(i64),
    SumFloat(f64),
    MinMax(Option<Value>),
    Avg { sum: f64, n: i64 },
    ArgMax { best: Option<(Value, Value)> },
}

impl AggState {
    fn new(spec: &AggSpec, input: &Schema) -> RelResult<Self> {
        Ok(match spec.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => match input.field(spec.value_col()?).dtype {
                DataType::Int => AggState::SumInt(0),
                DataType::Float => AggState::SumFloat(0.0),
                other => {
                    return Err(RelError::TypeMismatch {
                        expected: "numeric".into(),
                        actual: other.to_string(),
                        context: "sum".into(),
                    })
                }
            },
            AggFunc::Min | AggFunc::Max => AggState::MinMax(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::ArgMax => AggState::ArgMax { best: None },
        })
    }

    fn update(&mut self, spec: &AggSpec, table: &Table, row: usize) -> RelResult<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(acc) => {
                let v = table.column(spec.value_col()?).value(row);
                *acc += v.as_int().ok_or_else(|| type_err("sum", &v))?;
            }
            AggState::SumFloat(acc) => {
                let v = table.column(spec.value_col()?).value(row);
                *acc += v.as_float().ok_or_else(|| type_err("sum", &v))?;
            }
            AggState::MinMax(best) => {
                let v = table.column(spec.value_col()?).value(row);
                let replace = match (&*best, spec.func) {
                    (None, _) => true,
                    (Some(b), AggFunc::Min) => v < *b,
                    (Some(b), _) => v > *b,
                };
                if replace {
                    *best = Some(v);
                }
            }
            AggState::Avg { sum, n } => {
                let v = table.column(spec.value_col()?).value(row);
                *sum += v.as_float().ok_or_else(|| type_err("avg", &v))?;
                *n += 1;
            }
            AggState::ArgMax { best } => {
                let order = table.column(spec.order_col()?).value(row);
                let value = table.column(spec.value_col()?).value(row);
                let replace = match best {
                    None => true,
                    // Strictly greater order wins; on equal order, the
                    // smaller value wins so results do not depend on input
                    // order (the paper's Step 2 just says "keep the
                    // closest"; we need determinism for the SQL-vs-native
                    // equivalence tests).
                    Some((bo, bv)) => order > *bo || (order == *bo && value < *bv),
                };
                if replace {
                    *best = Some((order, value));
                }
            }
        }
        Ok(())
    }

    fn finish(self, spec: &AggSpec) -> RelResult<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt(acc) => Value::Int(acc),
            AggState::SumFloat(acc) => Value::Float(acc),
            AggState::MinMax(best) => {
                best.ok_or_else(|| RelError::Eval(format!("{}: empty group", spec.name)))?
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    return Err(RelError::Eval(format!("{}: empty group", spec.name)));
                }
                Value::Float(sum / n as f64)
            }
            AggState::ArgMax { best } => best
                .map(|(_, v)| v)
                .ok_or_else(|| RelError::Eval(format!("{}: empty group", spec.name)))?,
        })
    }
}

fn type_err(context: &str, v: &Value) -> RelError {
    RelError::TypeMismatch {
        expected: "numeric".into(),
        actual: v.data_type().to_string(),
        context: context.into(),
    }
}

/// Reference for [`crate::ops::aggregate`]: groups keyed by the rows'
/// `Vec<Value>` keys in a `HashMap`, one accumulator per group and
/// aggregate, groups sorted by key.
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

    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    for row in 0..input.num_rows() {
        let key: Vec<Value> = group_keys
            .iter()
            .map(|&k| input.column(k).value(row))
            .collect();
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                let fresh = aggs
                    .iter()
                    .map(|spec| AggState::new(spec, in_schema))
                    .collect::<RelResult<Vec<_>>>()?;
                groups.entry(key.clone()).or_insert(fresh)
            }
        };
        for (state, spec) in states.iter_mut().zip(aggs) {
            state.update(spec, input, row)?;
        }
    }

    // Deterministic output order.
    let mut entries: Vec<(Vec<Value>, Vec<AggState>)> = groups.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut columns: Vec<Column> = out_schema
        .fields()
        .iter()
        .map(|f| Column::with_capacity(f.dtype, entries.len()))
        .collect();
    for (key, states) in entries {
        for (i, v) in key.into_iter().enumerate() {
            columns[i].push(v)?;
        }
        for (i, (state, spec)) in states.into_iter().zip(aggs).enumerate() {
            columns[group_keys.len() + i].push(state.finish(spec)?)?;
        }
    }
    Table::new(out_schema, columns)
}

impl ExecContext {
    /// The naive executor: run a logical plan operator by operator, each
    /// input materialized, with no pushdown and no cost-based choice. The
    /// reference semantics that [`ExecContext::execute_physical`] is
    /// checked against.
    pub fn execute(&self, plan: &LogicalPlan) -> RelResult<Table> {
        let start = Instant::now();
        let (result, rows_in, bytes_in) = match plan {
            LogicalPlan::Scan { table } => {
                let t = self.catalog.get(table)?;
                let (r, b) = (t.num_rows() as u64, t.byte_size() as u64);
                (t, r, b)
            }
            LogicalPlan::Filter { input, predicate } => {
                let t = self.execute(input)?;
                let compiled = predicate.compile(t.schema(), &self.udfs)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::filter(&t, &compiled)?, io.0, io.1)
            }
            LogicalPlan::Project { input, exprs } => {
                let t = self.execute(input)?;
                let specs = exprs
                    .iter()
                    .map(|(e, alias)| {
                        ProjectionSpec::compile(e, alias.as_deref(), t.schema(), &self.udfs)
                    })
                    .collect::<RelResult<Vec<_>>>()?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::project(&t, &specs)?, io.0, io.1)
            }
            LogicalPlan::Join { left, right, on } => {
                let l = self.execute(left)?;
                let r = self.execute(right)?;
                let rows = (l.num_rows() + r.num_rows()) as u64;
                let bytes = (l.byte_size() + r.byte_size()) as u64;
                (self.execute_join(&l, &r, on)?, rows, bytes)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let t = self.execute(input)?;
                let keys = group_by
                    .iter()
                    .map(|name| t.schema().index_of(name))
                    .collect::<RelResult<Vec<_>>>()?;
                let specs = aggs
                    .iter()
                    .map(|call| lower_agg(call, t.schema()))
                    .collect::<RelResult<Vec<_>>>()?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (self.cluster.aggregate(&t, &keys, &specs)?, io.0, io.1)
            }
            LogicalPlan::Sort { input, keys } => {
                let t = self.execute(input)?;
                let sort_keys = keys
                    .iter()
                    .map(|(name, asc)| {
                        Ok(SortKey {
                            col: t.schema().index_of(name)?,
                            ascending: *asc,
                        })
                    })
                    .collect::<RelResult<Vec<_>>>()?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::sort(&t, &sort_keys)?, io.0, io.1)
            }
            LogicalPlan::Limit { input, n } => {
                let t = self.execute(input)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::limit(&t, *n)?, io.0, io.1)
            }
            LogicalPlan::Distinct { input } => {
                let t = self.execute(input)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::distinct(&t)?, io.0, io.1)
            }
            LogicalPlan::UnionAll { inputs } => {
                let tables = inputs
                    .iter()
                    .map(|p| self.execute(p))
                    .collect::<RelResult<Vec<_>>>()?;
                let rows = tables.iter().map(|t| t.num_rows() as u64).sum();
                let bytes = tables.iter().map(|t| t.byte_size() as u64).sum();
                (ops::union_all(&tables)?, rows, bytes)
            }
        };
        if let Some(stats) = &self.stats {
            let mut rec = StageStats::new(plan.label(), self.cluster.workers());
            rec.wall = start.elapsed();
            rec.rows_read = rows_in;
            rec.bytes_read = bytes_in;
            rec.rows_written = result.num_rows() as u64;
            rec.bytes_written = result.byte_size() as u64;
            stats.record(rec);
        }
        Ok(result)
    }

    /// Split a join condition into hash keys and a residual predicate, then
    /// run a serial hash join built on the right.
    fn execute_join(&self, left: &Table, right: &Table, on: &Expr) -> RelResult<Table> {
        let mut conjuncts = Vec::new();
        flatten_and(on, &mut conjuncts);
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual: Option<Expr> = None;
        for c in conjuncts {
            match equi_pair(c, left.schema(), right.schema()) {
                Some((l, r)) => {
                    left_keys.push(l);
                    right_keys.push(r);
                }
                None => {
                    residual = Some(match residual {
                        Some(acc) => acc.and(c.clone()),
                        None => c.clone(),
                    });
                }
            }
        }
        if left_keys.is_empty() {
            return Err(RelError::InvalidPlan(
                "join condition contains no equi-join predicate".into(),
            ));
        }
        let joined = ops::hash_join(left, right, &left_keys, &right_keys, JoinSide::BuildRight)?;
        match residual {
            Some(expr) => {
                let compiled = expr.compile(joined.schema(), &self.udfs)?;
                ops::filter(&joined, &compiled)
            }
            None => Ok(joined),
        }
    }
}

/// Parse, bind and execute SQL text on the naive executor
/// ([`ExecContext::execute`]): the reference semantics for
/// [`crate::run_sql`].
pub fn run_sql_unoptimized(sql: &str, ctx: &ExecContext) -> RelResult<Table> {
    let plan = plan_sql(sql, ctx)?;
    ctx.execute(&plan)
}
