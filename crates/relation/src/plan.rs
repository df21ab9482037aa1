//! Logical plans and the context they run in.
//!
//! Plans are built either by the SQL binder ([`crate::sql`]) or directly
//! through the builder methods, lowered by [`crate::physical::optimize`]
//! and run by [`ExecContext::execute_physical`]; the context owns the
//! catalog, the UDF registry, the worker pool and the join strategy.

use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::exec::{Cluster, JoinStrategy, StatsRegistry};
use crate::expr::{BinOp, Expr};
use crate::ops::{AggFunc, AggSpec};
use crate::schema::Schema;
use crate::udf::UdfRegistry;

/// An aggregate call in a logical [`LogicalPlan::Aggregate`] node.
///
/// Aggregate arguments are restricted to plain column names — every query
/// in the pipeline (and in Figure 4) aggregates bare columns, and the
/// restriction keeps the parallel aggregation path trivially correct.
#[derive(Debug, Clone)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument column names. `Count` takes zero; `ArgMax` takes
    /// `(order, value)`; the rest take one.
    pub args: Vec<String>,
    /// Output column name.
    pub alias: String,
}

/// A logical relational operator tree.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan a catalog table by name.
    Scan {
        /// Table name.
        table: String,
    },
    /// Filter rows by a boolean expression.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Compute output columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, optional alias)` pairs.
        exprs: Vec<(Expr, Option<String>)>,
    },
    /// Inner equi-join; `on` is a conjunction of equalities (non-equi
    /// conjuncts become a residual post-join filter).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join condition.
        on: Expr,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping column names.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// Sort by named columns.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Bag union of same-schema inputs.
    UnionAll {
        /// Input plans.
        inputs: Vec<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Filter builder.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Project builder.
    pub fn project(self, exprs: Vec<(Expr, Option<String>)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    /// Join builder.
    pub fn join(self, right: LogicalPlan, on: Expr) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
        }
    }

    /// Aggregate builder.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggCall>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Sort builder.
    pub fn sort(self, keys: Vec<(String, bool)>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// Limit builder.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Distinct builder.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Short node label for stats and EXPLAIN-style output.
    pub fn label(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "scan",
            LogicalPlan::Filter { .. } => "filter",
            LogicalPlan::Project { .. } => "project",
            LogicalPlan::Join { .. } => "join",
            LogicalPlan::Aggregate { .. } => "aggregate",
            LogicalPlan::Sort { .. } => "sort",
            LogicalPlan::Limit { .. } => "limit",
            LogicalPlan::Distinct { .. } => "distinct",
            LogicalPlan::UnionAll { .. } => "union",
        }
    }
}

/// Everything needed to execute a logical plan.
#[derive(Clone)]
pub struct ExecContext {
    /// Table registry.
    pub catalog: Catalog,
    /// Scalar function registry.
    pub udfs: UdfRegistry,
    /// Worker pool.
    pub cluster: Cluster,
    /// Physical join strategy (§4.2.3): the planner's fallback when it
    /// has no estimates.
    pub join_strategy: JoinStrategy,
    /// Optional per-operator statistics sink.
    pub stats: Option<StatsRegistry>,
    /// Memory grant in bytes for blocking operators (sort, hash join,
    /// hash aggregate) in the physical executor. When an operator's
    /// working set exceeds the grant, it spills to disk instead of
    /// growing. `None` = unlimited (never spill).
    pub memory_grant: Option<usize>,
    /// Directory for spill files; the system temp dir when `None`.
    pub spill_root: Option<std::path::PathBuf>,
    /// Measured per-node statistics from a previous execution of the same
    /// query shape; the optimizer prefers these over its static guesses
    /// (§4.2.3's configured strategy choice, made a measured one).
    pub history: crate::physical::PlanHistory,
}

impl ExecContext {
    /// A serial context with built-in UDFs and no stats.
    pub fn new(catalog: Catalog) -> Self {
        ExecContext {
            catalog,
            udfs: UdfRegistry::with_builtins(),
            cluster: Cluster::serial(),
            join_strategy: JoinStrategy::Broadcast,
            stats: None,
            memory_grant: None,
            spill_root: None,
            history: crate::physical::PlanHistory::default(),
        }
    }

    /// Set the worker pool.
    pub fn with_cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = cluster;
        self
    }

    /// Set the join strategy.
    pub fn with_join_strategy(mut self, strategy: JoinStrategy) -> Self {
        self.join_strategy = strategy;
        self
    }

    /// Attach a statistics registry.
    pub fn with_stats(mut self, stats: StatsRegistry) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Cap the memory grant of blocking operators (bytes); they spill to
    /// disk beyond it.
    pub fn with_memory_grant(mut self, bytes: usize) -> Self {
        self.memory_grant = Some(bytes);
        self
    }

    /// Set the spill directory root.
    pub fn with_spill_root(mut self, root: impl Into<std::path::PathBuf>) -> Self {
        self.spill_root = Some(root.into());
        self
    }

    /// Feed measured node statistics back into the optimizer.
    pub fn with_history(mut self, history: crate::physical::PlanHistory) -> Self {
        self.history = history;
        self
    }
}

/// Collect the AND-conjuncts of an expression tree.
pub(crate) fn flatten_and<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

/// If `expr` is `lcol = rcol` with the columns on opposite join sides,
/// return their indices as `(left_idx, right_idx)`.
pub(crate) fn equi_pair(expr: &Expr, left: &Schema, right: &Schema) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left: a,
        right: b,
    } = expr
    else {
        return None;
    };
    let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) else {
        return None;
    };
    match (left.index_of(x), right.index_of(y)) {
        (Ok(l), Ok(r)) => Some((l, r)),
        _ => match (left.index_of(y), right.index_of(x)) {
            (Ok(l), Ok(r)) => Some((l, r)),
            _ => None,
        },
    }
}

/// Lower a logical aggregate call to a physical [`AggSpec`].
pub(crate) fn lower_agg(call: &AggCall, schema: &Schema) -> RelResult<AggSpec> {
    let idx = |name: &String| schema.index_of(name);
    match call.func {
        AggFunc::Count => {
            if !call.args.is_empty() {
                return Err(RelError::InvalidPlan(
                    "count(*) takes no column arguments".into(),
                ));
            }
            Ok(AggSpec::count(call.alias.clone()))
        }
        AggFunc::ArgMax => {
            let [order, value] = call.args.as_slice() else {
                return Err(RelError::InvalidPlan(
                    "argmax expects exactly (order, value)".into(),
                ));
            };
            Ok(AggSpec::argmax(idx(order)?, idx(value)?, call.alias.clone()))
        }
        func => {
            let [col] = call.args.as_slice() else {
                return Err(RelError::InvalidPlan(format!(
                    "{:?} expects exactly one column",
                    func
                )));
            };
            Ok(AggSpec::on(func, idx(col)?, call.alias.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn context() -> ExecContext {
        let catalog = Catalog::new();
        let schema = Schema::of(&[
            ("query1", DataType::Str),
            ("query2", DataType::Str),
            ("distance", DataType::Float),
        ]);
        let graph = Table::from_rows(
            schema,
            vec![
                vec![Value::str("49ers"), Value::str("nfl"), Value::Float(0.3)],
                vec![Value::str("nfl"), Value::str("football"), Value::Float(0.5)],
                vec![Value::str("sf"), Value::str("49ers"), Value::Float(0.2)],
            ],
        )
        .unwrap();
        catalog.register("graph", graph);
        let comm_schema = Schema::of(&[("comm_name", DataType::Str), ("query", DataType::Str)]);
        let communities = Table::from_rows(
            comm_schema,
            vec![
                vec![Value::str("a"), Value::str("49ers")],
                vec![Value::str("a"), Value::str("nfl")],
                vec![Value::str("b"), Value::str("football")],
                vec![Value::str("c"), Value::str("sf")],
            ],
        )
        .unwrap();
        catalog.register("communities", communities);
        ExecContext::new(catalog)
    }

    #[test]
    fn scan_filter_project() {
        let ctx = context();
        let plan = LogicalPlan::scan("graph")
            .filter(Expr::col("distance").gt(Expr::lit(0.25)))
            .project(vec![(Expr::col("query1"), Some("q".into()))]);
        let out = ctx.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.schema().fields()[0].name, "q");
    }

    #[test]
    fn join_with_residual_filter() {
        let ctx = context();
        let on = Expr::col("query2")
            .eq(Expr::col("query"))
            .and(Expr::col("distance").gt(Expr::lit(0.25)));
        let plan = LogicalPlan::scan("graph").join(LogicalPlan::scan("communities"), on);
        let out = ctx.execute(&plan).unwrap();
        // Only rows with distance > 0.25 whose query2 appears in communities.
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn join_without_equi_predicate_is_rejected() {
        let ctx = context();
        let on = Expr::col("distance").gt(Expr::lit(0.0));
        let plan = LogicalPlan::scan("graph").join(LogicalPlan::scan("communities"), on);
        assert!(ctx.execute(&plan).is_err());
    }

    #[test]
    fn aggregate_plan_runs() {
        let ctx = context();
        let plan = LogicalPlan::scan("communities").aggregate(
            vec!["comm_name".into()],
            vec![AggCall {
                func: AggFunc::Count,
                args: vec![],
                alias: "n".into(),
            }],
        );
        let out = ctx.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.row(0), vec![Value::str("a"), Value::Int(2)]);
    }

    #[test]
    fn sort_and_limit() {
        let ctx = context();
        let plan = LogicalPlan::scan("graph")
            .sort(vec![("distance".into(), false)])
            .limit(1);
        let out = ctx.execute(&plan).unwrap();
        assert_eq!(out.row(0)[2], Value::Float(0.5));
    }

    #[test]
    fn stats_are_recorded_per_operator() {
        let stats = StatsRegistry::new();
        let ctx = context().with_stats(stats.clone());
        let plan = LogicalPlan::scan("graph").filter(Expr::col("distance").gt(Expr::lit(0.0)));
        ctx.execute(&plan).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.len(), 2); // scan + filter
        assert_eq!(snap[0].stage, "scan");
        assert_eq!(snap[1].stage, "filter");
        assert_eq!(snap[1].rows_read, 3);
    }
}
