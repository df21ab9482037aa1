//! Physical plans: the logical→physical optimizer and its out-of-core
//! executor.
//!
//! [`optimize`] rewrites a [`LogicalPlan`] and lowers it into a
//! [`PhysicalPlan`]:
//!
//! * **predicate pushdown** — WHERE conjuncts sink through projections
//!   (by substitution), joins (to the side whose schema covers them) and
//!   aggregations (group-key conjuncts only) until they fuse into the
//!   scan itself, where paged tables evaluate them per page;
//! * **projection pushdown** — only the columns an operator tree actually
//!   references are decoded at the scan;
//! * **limit pushdown** — a LIMIT above row-preserving operators stops
//!   the scan from fetching further pages;
//! * **cost-based join planning** — build side and replicated-vs-
//!   co-partitioned strategy (§4.2.3) are chosen from catalog statistics,
//!   corrected by measured [`StageStats`] from a previous run of the same
//!   plan shape ([`PlanHistory`]) — the paper's *configured* strategy
//!   choice turned into a *measured* one.
//!
//! [`ExecContext::execute_physical`] runs the tree, recording one
//! [`StageStats`] per node (tagged with the node id for EXPLAIN ANALYZE).
//! Blocking operators honor the context's memory grant: a sort larger
//! than the grant becomes an external merge sort over checksummed spill
//! runs, and hash join/aggregate inputs are hash-partitioned to disk and
//! processed partition-at-a-time.

use crate::binfmt;
use crate::catalog::Source;
use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::exec::{hash_partition, JoinStrategy, StageStats};
use crate::expr::Expr;
use crate::ops::{self, AggFunc, JoinSide, ProjectionSpec, SortKey};
use crate::paged::ScanOptions;
use crate::plan::{equi_pair, flatten_and, lower_agg, AggCall, ExecContext, LogicalPlan};
use crate::schema::{Field, Schema, SchemaRef};
use crate::table::Table;
use crate::value::DataType;
use bytes::Bytes;
use esharp_storage::{SpillDir, SpillHandle, SpillReader, PAGE_SIZE};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Broadcast threshold when the context has no explicit memory grant.
const DEFAULT_BROADCAST_BYTES: usize = 64 << 20;
/// Rows per spill frame in external sort runs.
const SPILL_BATCH_ROWS: usize = 512;
/// Most partitions a spilling join/aggregate will fan out to.
const MAX_SPILL_PARTS: usize = 64;

/// Measured `(rows, bytes)` produced per physical node in a previous run
/// of the same plan shape, keyed by `label#node_id`. Node ids are assigned
/// in preorder during lowering, so re-planning the same query yields the
/// same keys — which is what lets the clustering loop feed iteration
/// *n*'s measurements into iteration *n+1*'s plan.
#[derive(Debug, Clone, Default)]
pub struct PlanHistory {
    map: HashMap<String, (u64, u64)>,
}

impl PlanHistory {
    /// Empty history (the optimizer falls back to static estimates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from recorded stats; later records for the same node win.
    pub fn from_stats(stats: &[StageStats]) -> Self {
        let mut map = HashMap::new();
        for s in stats {
            if let Some(node) = s.node {
                map.insert(
                    format!("{}#{node}", s.stage),
                    (s.rows_written, s.bytes_written),
                );
            }
        }
        PlanHistory { map }
    }

    /// Measured `(rows, bytes)` for a node, if any.
    pub fn lookup(&self, stage: &str, node: usize) -> Option<(u64, u64)> {
        self.map.get(&format!("{stage}#{node}")).copied()
    }

    /// True when no measurements are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The optimizer's cardinality guess for one node's output.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output bytes.
    pub bytes: f64,
    /// True when the numbers come from [`PlanHistory`] measurements
    /// rather than static heuristics.
    pub measured: bool,
}

impl Estimate {
    fn new(rows: f64, bytes: f64) -> Self {
        Estimate {
            rows,
            bytes,
            measured: false,
        }
    }
}

/// A physical operator tree with per-node ids (preorder) and estimates.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Table scan with pushed-down predicate / projection / limit. On
    /// paged sources all three apply while pages stream through the
    /// buffer pool.
    SeqScan {
        /// Node id.
        id: usize,
        /// Catalog table name.
        table: String,
        /// Columns to keep (indices into the base schema), `None` = all.
        projection: Option<Vec<usize>>,
        /// Pushed-down predicate over the base schema.
        predicate: Option<Expr>,
        /// Pushed-down row cap (applies after the predicate).
        limit: Option<usize>,
        /// Output estimate.
        est: Estimate,
    },
    /// Residual filter that could not be pushed further down.
    Filter {
        /// Node id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate over the input schema.
        predicate: Expr,
        /// Output estimate.
        est: Estimate,
    },
    /// Expression projection.
    Project {
        /// Node id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// `(expression, optional alias)` pairs.
        exprs: Vec<(Expr, Option<String>)>,
        /// Output estimate.
        est: Estimate,
    },
    /// Hash equi-join with planner-chosen build side and strategy.
    HashJoin {
        /// Node id.
        id: usize,
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join condition (equi conjuncts become hash keys; the rest a
        /// residual filter).
        on: Expr,
        /// Build the hash table on the left input (cost-chosen).
        build_left: bool,
        /// Replicated vs co-partitioned execution (cost-chosen).
        strategy: JoinStrategy,
        /// Output estimate.
        est: Estimate,
    },
    /// Hash aggregation.
    Aggregate {
        /// Node id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Grouping column names.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output estimate.
        est: Estimate,
    },
    /// Sort (external merge sort when the input exceeds the grant).
    Sort {
        /// Node id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// `(column, ascending)` keys.
        keys: Vec<(String, bool)>,
        /// Output estimate.
        est: Estimate,
    },
    /// Row cap.
    Limit {
        /// Node id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Cap.
        n: usize,
        /// Output estimate.
        est: Estimate,
    },
    /// Duplicate elimination.
    Distinct {
        /// Node id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Output estimate.
        est: Estimate,
    },
    /// Bag union.
    UnionAll {
        /// Node id.
        id: usize,
        /// Inputs.
        inputs: Vec<PhysicalPlan>,
        /// Output estimate.
        est: Estimate,
    },
}

impl PhysicalPlan {
    /// The node id (preorder position in the plan tree).
    pub fn id(&self) -> usize {
        match self {
            PhysicalPlan::SeqScan { id, .. }
            | PhysicalPlan::Filter { id, .. }
            | PhysicalPlan::Project { id, .. }
            | PhysicalPlan::HashJoin { id, .. }
            | PhysicalPlan::Aggregate { id, .. }
            | PhysicalPlan::Sort { id, .. }
            | PhysicalPlan::Limit { id, .. }
            | PhysicalPlan::Distinct { id, .. }
            | PhysicalPlan::UnionAll { id, .. } => *id,
        }
    }

    /// Short stage label, matching [`LogicalPlan::label`] so the
    /// pipeline's stats rollups keep working.
    pub fn label(&self) -> &'static str {
        match self {
            PhysicalPlan::SeqScan { .. } => "scan",
            PhysicalPlan::Filter { .. } => "filter",
            PhysicalPlan::Project { .. } => "project",
            PhysicalPlan::HashJoin { .. } => "join",
            PhysicalPlan::Aggregate { .. } => "aggregate",
            PhysicalPlan::Sort { .. } => "sort",
            PhysicalPlan::Limit { .. } => "limit",
            PhysicalPlan::Distinct { .. } => "distinct",
            PhysicalPlan::UnionAll { .. } => "union",
        }
    }

    /// The optimizer's output estimate for this node.
    pub fn estimate(&self) -> Estimate {
        match self {
            PhysicalPlan::SeqScan { est, .. }
            | PhysicalPlan::Filter { est, .. }
            | PhysicalPlan::Project { est, .. }
            | PhysicalPlan::HashJoin { est, .. }
            | PhysicalPlan::Aggregate { est, .. }
            | PhysicalPlan::Sort { est, .. }
            | PhysicalPlan::Limit { est, .. }
            | PhysicalPlan::Distinct { est, .. }
            | PhysicalPlan::UnionAll { est, .. } => *est,
        }
    }
}

// ---------------------------------------------------------------------------
// Expression helpers
// ---------------------------------------------------------------------------

/// Collect every column name referenced by an expression.
fn collect_cols(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Col(name) => out.push(name.clone()),
        Expr::Lit(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        Expr::Not(inner) => collect_cols(inner, out),
        Expr::Call { args, .. } => {
            for a in args {
                collect_cols(a, out);
            }
        }
    }
}

/// Split an expression into its AND-conjuncts, owned.
fn conjuncts_of(expr: Expr) -> Vec<Expr> {
    let mut refs = Vec::new();
    flatten_and(&expr, &mut refs);
    refs.into_iter().cloned().collect()
}

/// AND-combine conjuncts back into one predicate.
fn and_all(mut conjs: Vec<Expr>) -> Option<Expr> {
    let first = if conjs.is_empty() {
        return None;
    } else {
        conjs.remove(0)
    };
    Some(conjs.into_iter().fold(first, |acc, c| acc.and(c)))
}

/// Replace every column reference using a projection's `output name →
/// defining expression` map; `None` when a name is not produced by the
/// projection (the conjunct cannot be pushed through it).
fn substitute(expr: &Expr, map: &[(String, Expr)]) -> Option<Expr> {
    Some(match expr {
        Expr::Col(name) => map
            .iter()
            .find(|(out, _)| out.eq_ignore_ascii_case(name))
            .map(|(_, def)| def.clone())?,
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute(left, map)?),
            right: Box::new(substitute(right, map)?),
        },
        Expr::Not(inner) => Expr::Not(Box::new(substitute(inner, map)?)),
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| substitute(a, map))
                .collect::<Option<Vec<_>>>()?,
        },
    })
}

fn resolvable(schema: &Schema, name: &str) -> bool {
    schema.index_of(name).is_ok()
}

/// Output schema of a logical plan, without executing it.
pub(crate) fn logical_schema(plan: &LogicalPlan, ctx: &ExecContext) -> RelResult<SchemaRef> {
    Ok(match plan {
        LogicalPlan::Scan { table } => ctx.catalog.schema_of(table)?,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => logical_schema(input, ctx)?,
        LogicalPlan::Project { input, exprs } => {
            let in_schema = logical_schema(input, ctx)?;
            let fields = exprs
                .iter()
                .map(|(e, alias)| {
                    let name = alias.clone().unwrap_or_else(|| e.default_name());
                    Ok(Field::new(name, e.output_type(&in_schema, &ctx.udfs)?))
                })
                .collect::<RelResult<Vec<_>>>()?;
            Arc::new(Schema::new(fields)?)
        }
        LogicalPlan::Join { left, right, .. } => {
            let ls = logical_schema(left, ctx)?;
            let rs = logical_schema(right, ctx)?;
            Arc::new(ls.join(&rs, "_r")?)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_schema = logical_schema(input, ctx)?;
            let mut fields = group_by
                .iter()
                .map(|g| {
                    let idx = in_schema.index_of(g)?;
                    Ok(in_schema.field(idx).clone())
                })
                .collect::<RelResult<Vec<_>>>()?;
            for call in aggs {
                let dtype = match call.func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        let [col] = call.args.as_slice() else {
                            return Err(RelError::InvalidPlan(format!(
                                "{:?} expects exactly one column",
                                call.func
                            )));
                        };
                        in_schema.dtype_of(col)?
                    }
                    AggFunc::ArgMax => {
                        let [_, value] = call.args.as_slice() else {
                            return Err(RelError::InvalidPlan(
                                "argmax expects exactly (order, value)".into(),
                            ));
                        };
                        in_schema.dtype_of(value)?
                    }
                };
                fields.push(Field::new(call.alias.clone(), dtype));
            }
            Arc::new(Schema::new(fields)?)
        }
        LogicalPlan::UnionAll { inputs } => {
            let first = inputs.first().ok_or_else(|| {
                RelError::InvalidPlan("UNION ALL with no inputs".into())
            })?;
            logical_schema(first, ctx)?
        }
    })
}

// ---------------------------------------------------------------------------
// Predicate pushdown (logical rewrite)
// ---------------------------------------------------------------------------

fn apply_pending(plan: LogicalPlan, pending: Vec<Expr>) -> LogicalPlan {
    match and_all(pending) {
        Some(pred) => plan.filter(pred),
        None => plan,
    }
}

/// Sink `pending` conjuncts (collected from Filters above) as deep as
/// possible into `plan`.
fn push_predicates(
    plan: LogicalPlan,
    mut pending: Vec<Expr>,
    ctx: &ExecContext,
) -> RelResult<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            pending.extend(conjuncts_of(predicate));
            push_predicates(*input, pending, ctx)?
        }
        LogicalPlan::Project { input, exprs } => {
            // A conjunct passes through when every column it references is
            // an output of this projection: substitute the defining
            // expressions (pure by construction) and keep sinking.
            let map: Vec<(String, Expr)> = exprs
                .iter()
                .map(|(e, alias)| {
                    (
                        alias.clone().unwrap_or_else(|| e.default_name()),
                        e.clone(),
                    )
                })
                .collect();
            let mut pushed = Vec::new();
            let mut kept = Vec::new();
            for c in pending {
                match substitute(&c, &map) {
                    Some(s) => pushed.push(s),
                    None => kept.push(c),
                }
            }
            let input = push_predicates(*input, pushed, ctx)?;
            apply_pending(
                LogicalPlan::Project {
                    input: Box::new(input),
                    exprs,
                },
                kept,
            )
        }
        LogicalPlan::Join { left, right, on } => {
            let ls = logical_schema(&left, ctx)?;
            let rs = logical_schema(&right, ctx)?;
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut kept = Vec::new();
            for c in pending {
                let mut cols = Vec::new();
                collect_cols(&c, &mut cols);
                // Join output names: left columns keep their names, right
                // columns keep theirs unless they collided (then they got
                // a "_r" suffix and stay above the join).
                let all_left = !cols.is_empty() && cols.iter().all(|n| resolvable(&ls, n));
                let all_right = !cols.is_empty()
                    && cols
                        .iter()
                        .all(|n| !resolvable(&ls, n) && resolvable(&rs, n));
                if all_left {
                    to_left.push(c);
                } else if all_right {
                    to_right.push(c);
                } else {
                    kept.push(c);
                }
            }
            let left = push_predicates(*left, to_left, ctx)?;
            let right = push_predicates(*right, to_right, ctx)?;
            apply_pending(
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on,
                },
                kept,
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Conjuncts over group keys alone select whole groups, so they
            // commute with the aggregation; anything touching an aggregate
            // output stays above.
            let mut pushed = Vec::new();
            let mut kept = Vec::new();
            for c in pending {
                let mut cols = Vec::new();
                collect_cols(&c, &mut cols);
                let group_only = !cols.is_empty()
                    && cols
                        .iter()
                        .all(|n| group_by.iter().any(|g| g.eq_ignore_ascii_case(n)));
                if group_only {
                    pushed.push(c);
                } else {
                    kept.push(c);
                }
            }
            let input = push_predicates(*input, pushed, ctx)?;
            apply_pending(
                LogicalPlan::Aggregate {
                    input: Box::new(input),
                    group_by,
                    aggs,
                },
                kept,
            )
        }
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_predicates(*input, pending, ctx)?),
            keys,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(push_predicates(*input, pending, ctx)?),
        },
        LogicalPlan::Limit { input, n } => {
            // Filtering does not commute with LIMIT: leave the conjuncts
            // above and restart the sink below it.
            let inner = push_predicates(*input, Vec::new(), ctx)?;
            apply_pending(
                LogicalPlan::Limit {
                    input: Box::new(inner),
                    n,
                },
                pending,
            )
        }
        LogicalPlan::UnionAll { inputs } => {
            let rewritten = inputs
                .into_iter()
                .map(|p| push_predicates(p, pending.clone(), ctx))
                .collect::<RelResult<Vec<_>>>()?;
            LogicalPlan::UnionAll { inputs: rewritten }
        }
        scan @ LogicalPlan::Scan { .. } => apply_pending(scan, pending),
    })
}

// ---------------------------------------------------------------------------
// Lowering: projection/limit pushdown + cost-based physical choices
// ---------------------------------------------------------------------------

/// Set of required (lowercased) column names; `None` = all columns.
type Required = Option<std::collections::BTreeSet<String>>;

fn names_of(exprs: &[Expr]) -> std::collections::BTreeSet<String> {
    let mut cols = Vec::new();
    for e in exprs {
        collect_cols(e, &mut cols);
    }
    cols.into_iter().map(|c| c.to_lowercase()).collect()
}

struct Lowerer<'a> {
    ctx: &'a ExecContext,
    next_id: usize,
}

impl Lowerer<'_> {
    fn fresh_id(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// History-corrected estimate for a node.
    fn corrected(&self, label: &str, id: usize, est: Estimate) -> Estimate {
        match self.ctx.history.lookup(label, id) {
            Some((rows, bytes)) => Estimate {
                rows: rows as f64,
                bytes: bytes as f64,
                measured: true,
            },
            None => est,
        }
    }

    fn scan_estimate(&self, table: &str) -> Estimate {
        match self.ctx.catalog.stats_of(table) {
            Ok((rows, bytes)) => Estimate::new(rows as f64, bytes as f64),
            Err(_) => Estimate::new(1_000.0, 64_000.0),
        }
    }

    fn lower_scan(
        &mut self,
        table: &str,
        predicate: Option<Expr>,
        required: &Required,
        limit: Option<usize>,
    ) -> RelResult<PhysicalPlan> {
        let id = self.fresh_id();
        let schema = self.ctx.catalog.schema_of(table)?;
        let projection = required.as_ref().and_then(|req| {
            let mut idx: Vec<usize> = schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| req.contains(&f.name.to_lowercase()))
                .map(|(i, _)| i)
                .collect();
            if idx.is_empty() {
                // A scan must produce at least one column (e.g. a bare
                // count(*) requires only row existence).
                idx.push(0);
            }
            if idx.len() == schema.len() {
                None
            } else {
                Some(idx)
            }
        });
        let mut est = self.scan_estimate(table);
        if predicate.is_some() {
            est.rows *= 0.33;
            est.bytes *= 0.33;
        }
        if let Some(n) = limit {
            if (n as f64) < est.rows {
                let scale = n as f64 / est.rows.max(1.0);
                est.rows = n as f64;
                est.bytes *= scale;
            }
        }
        if let Some(cols) = &projection {
            est.bytes *= cols.len() as f64 / schema.len().max(1) as f64;
        }
        Ok(PhysicalPlan::SeqScan {
            id,
            table: table.to_string(),
            projection,
            predicate,
            limit,
            est: self.corrected("scan", id, est),
        })
    }

    /// Lower a (predicate-pushed) logical plan. `required` is the set of
    /// output columns the parent actually consumes; `limit` is a row cap
    /// that may legally reach the scan (only propagated through
    /// row-preserving operators).
    fn lower(
        &mut self,
        plan: &LogicalPlan,
        required: &Required,
        limit: Option<usize>,
    ) -> RelResult<PhysicalPlan> {
        match plan {
            LogicalPlan::Scan { table } => self.lower_scan(table, None, required, limit),
            LogicalPlan::Filter { input, predicate } => {
                if let LogicalPlan::Scan { table } = input.as_ref() {
                    // Fuse into the scan: the predicate runs against the
                    // full base schema before projection and limit.
                    return self.lower_scan(table, Some(predicate.clone()), required, limit);
                }
                let id = self.fresh_id();
                let child_required = required.as_ref().map(|req| {
                    let mut r = req.clone();
                    r.extend(names_of(std::slice::from_ref(predicate)));
                    r
                });
                let input = self.lower(input, &child_required, None)?;
                let mut est = input.estimate();
                est.rows *= 0.33;
                est.bytes *= 0.33;
                est.measured = false;
                Ok(PhysicalPlan::Filter {
                    id,
                    input: Box::new(input),
                    predicate: predicate.clone(),
                    est: self.corrected("filter", id, est),
                })
            }
            LogicalPlan::Project { input, exprs } => {
                let id = self.fresh_id();
                let pruned: Vec<(Expr, Option<String>)> = match required {
                    Some(req) => {
                        let kept: Vec<_> = exprs
                            .iter()
                            .filter(|(e, alias)| {
                                let name =
                                    alias.clone().unwrap_or_else(|| e.default_name());
                                req.contains(&name.to_lowercase())
                            })
                            .cloned()
                            .collect();
                        if kept.is_empty() {
                            exprs.iter().take(1).cloned().collect()
                        } else {
                            kept
                        }
                    }
                    None => exprs.clone(),
                };
                let child_required = Some(names_of(
                    &pruned.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>(),
                ));
                let input = self.lower(input, &child_required, limit)?;
                let mut est = input.estimate();
                est.measured = false;
                Ok(PhysicalPlan::Project {
                    id,
                    input: Box::new(input),
                    exprs: pruned,
                    est: self.corrected("project", id, est),
                })
            }
            LogicalPlan::Join { left, right, on } => {
                let id = self.fresh_id();
                let ls = logical_schema(left, self.ctx)?;
                let rs = logical_schema(right, self.ctx)?;
                let (req_left, req_right) = match required {
                    None => (None, None),
                    Some(req) => {
                        let mut rl = std::collections::BTreeSet::new();
                        let mut rr = std::collections::BTreeSet::new();
                        for name in req {
                            if resolvable(&ls, name) {
                                rl.insert(name.clone());
                            } else if resolvable(&rs, name) {
                                rr.insert(name.clone());
                            } else if let Some(base) = name.strip_suffix("_r") {
                                // A collision-renamed right column: keep
                                // both the right original and the left
                                // collider so the rename stays stable.
                                if resolvable(&rs, base) {
                                    rr.insert(base.to_string());
                                    if resolvable(&ls, base) {
                                        rl.insert(base.to_string());
                                    }
                                }
                            }
                        }
                        for name in names_of(std::slice::from_ref(on)) {
                            if resolvable(&ls, &name) {
                                rl.insert(name.clone());
                            }
                            if resolvable(&rs, &name) {
                                rr.insert(name);
                            }
                        }
                        (Some(rl), Some(rr))
                    }
                };
                let left = self.lower(left, &req_left, None)?;
                let right = self.lower(right, &req_right, None)?;
                let (el, er) = (left.estimate(), right.estimate());
                let build_left = el.bytes < er.bytes;
                let build_bytes = el.bytes.min(er.bytes);
                let threshold = self.ctx.memory_grant.unwrap_or(DEFAULT_BROADCAST_BYTES);
                let strategy = if build_bytes <= threshold as f64 {
                    JoinStrategy::Broadcast
                } else {
                    JoinStrategy::CoPartitioned
                };
                let rows = el.rows.max(er.rows);
                let width = el.bytes / el.rows.max(1.0) + er.bytes / er.rows.max(1.0);
                let est = Estimate::new(rows, rows * width);
                Ok(PhysicalPlan::HashJoin {
                    id,
                    left: Box::new(left),
                    right: Box::new(right),
                    on: on.clone(),
                    build_left,
                    strategy,
                    est: self.corrected("join", id, est),
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let id = self.fresh_id();
                let mut req = std::collections::BTreeSet::new();
                for g in group_by {
                    req.insert(g.to_lowercase());
                }
                for call in aggs {
                    for a in &call.args {
                        req.insert(a.to_lowercase());
                    }
                }
                let child_required = Some(req);
                let input = self.lower(input, &child_required, None)?;
                let in_est = input.estimate();
                let est = Estimate::new(
                    (in_est.rows / 2.0).max(1.0),
                    (in_est.bytes / 2.0).max(64.0),
                );
                Ok(PhysicalPlan::Aggregate {
                    id,
                    input: Box::new(input),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    est: self.corrected("aggregate", id, est),
                })
            }
            LogicalPlan::Sort { input, keys } => {
                let id = self.fresh_id();
                let child_required = required.as_ref().map(|req| {
                    let mut r = req.clone();
                    for (name, _) in keys {
                        r.insert(name.to_lowercase());
                    }
                    r
                });
                let input = self.lower(input, &child_required, None)?;
                let est = input.estimate();
                Ok(PhysicalPlan::Sort {
                    id,
                    input: Box::new(input),
                    keys: keys.clone(),
                    est,
                })
            }
            LogicalPlan::Limit { input, n } => {
                let id = self.fresh_id();
                let eff = match limit {
                    Some(outer) => outer.min(*n),
                    None => *n,
                };
                let input = self.lower(input, required, Some(eff))?;
                let mut est = input.estimate();
                if (eff as f64) < est.rows {
                    est.bytes *= eff as f64 / est.rows.max(1.0);
                    est.rows = eff as f64;
                }
                Ok(PhysicalPlan::Limit {
                    id,
                    input: Box::new(input),
                    n: *n,
                    est,
                })
            }
            LogicalPlan::Distinct { input } => {
                let id = self.fresh_id();
                // Distinct compares whole rows: pruning columns below it
                // would change which rows are duplicates.
                let input = self.lower(input, &None, None)?;
                let mut est = input.estimate();
                est.rows = (est.rows / 2.0).max(1.0);
                est.bytes /= 2.0;
                Ok(PhysicalPlan::Distinct {
                    id,
                    input: Box::new(input),
                    est,
                })
            }
            LogicalPlan::UnionAll { inputs } => {
                let id = self.fresh_id();
                let lowered = inputs
                    .iter()
                    .map(|p| self.lower(p, required, limit))
                    .collect::<RelResult<Vec<_>>>()?;
                let rows = lowered.iter().map(|p| p.estimate().rows).sum();
                let bytes = lowered.iter().map(|p| p.estimate().bytes).sum();
                Ok(PhysicalPlan::UnionAll {
                    id,
                    inputs: lowered,
                    est: Estimate::new(rows, bytes),
                })
            }
        }
    }
}

/// Optimize a logical plan into a physical one: push predicates,
/// projections and limits toward the scans, then choose join build sides
/// and strategies from (history-corrected) cost estimates.
pub fn optimize(plan: &LogicalPlan, ctx: &ExecContext) -> RelResult<PhysicalPlan> {
    let pushed = push_predicates(plan.clone(), Vec::new(), ctx)?;
    let mut lowerer = Lowerer { ctx, next_id: 0 };
    lowerer.lower(&pushed, &None, None)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Spill accounting an operator reports into its [`StageStats`].
#[derive(Default, Clone, Copy)]
struct SpillIo {
    bytes: u64,
    parts: u64,
}

impl ExecContext {
    /// Execute a physical plan to a materialized table, recording one
    /// [`StageStats`] per node (tagged with its node id) into the
    /// context's stats registry.
    pub fn execute_physical(&self, plan: &PhysicalPlan) -> RelResult<Table> {
        let start = Instant::now();
        let mut spill = SpillIo::default();
        let (result, rows_in, bytes_in) = match plan {
            PhysicalPlan::SeqScan {
                table,
                projection,
                predicate,
                limit,
                ..
            } => self.run_scan(table, projection.as_deref(), predicate.as_ref(), *limit)?,
            PhysicalPlan::Filter {
                input, predicate, ..
            } => {
                let t = self.execute_physical(input)?;
                let compiled = predicate.compile(t.schema(), &self.udfs)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::filter(&t, &compiled)?, io.0, io.1)
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let t = self.execute_physical(input)?;
                let specs = exprs
                    .iter()
                    .map(|(e, alias)| {
                        ProjectionSpec::compile(e, alias.as_deref(), t.schema(), &self.udfs)
                    })
                    .collect::<RelResult<Vec<_>>>()?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::project(&t, &specs)?, io.0, io.1)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                on,
                build_left,
                strategy,
                ..
            } => {
                let l = self.execute_physical(left)?;
                let r = self.execute_physical(right)?;
                let rows = (l.num_rows() + r.num_rows()) as u64;
                let bytes = (l.byte_size() + r.byte_size()) as u64;
                let joined = self.run_join(&l, &r, on, *build_left, *strategy, &mut spill)?;
                (joined, rows, bytes)
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let t = self.execute_physical(input)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (self.run_aggregate(&t, group_by, aggs, &mut spill)?, io.0, io.1)
            }
            PhysicalPlan::Sort { input, keys, .. } => {
                let t = self.execute_physical(input)?;
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
                (self.run_sort(&t, &sort_keys, &mut spill)?, io.0, io.1)
            }
            PhysicalPlan::Limit { input, n, .. } => {
                let t = self.execute_physical(input)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::limit(&t, *n)?, io.0, io.1)
            }
            PhysicalPlan::Distinct { input, .. } => {
                let t = self.execute_physical(input)?;
                let io = (t.num_rows() as u64, t.byte_size() as u64);
                (ops::distinct(&t)?, io.0, io.1)
            }
            PhysicalPlan::UnionAll { inputs, .. } => {
                let tables = inputs
                    .iter()
                    .map(|p| self.execute_physical(p))
                    .collect::<RelResult<Vec<_>>>()?;
                let rows = tables.iter().map(|t| t.num_rows() as u64).sum();
                let bytes = tables.iter().map(|t| t.byte_size() as u64).sum();
                (ops::union_all(&tables)?, rows, bytes)
            }
        };
        if let Some(stats) = &self.stats {
            let mut rec = StageStats::new(plan.label(), self.cluster.workers());
            rec.node = Some(plan.id());
            rec.wall = start.elapsed();
            rec.rows_read = rows_in;
            rec.bytes_read = bytes_in;
            rec.rows_written = result.num_rows() as u64;
            rec.bytes_written = result.byte_size() as u64;
            rec.spill_bytes = spill.bytes;
            rec.spill_parts = spill.parts;
            stats.record(rec);
        }
        Ok(result)
    }

    /// Scan with pushdown. Returns `(table, rows_scanned, bytes_scanned)`.
    fn run_scan(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        predicate: Option<&Expr>,
        limit: Option<usize>,
    ) -> RelResult<(Table, u64, u64)> {
        match self.catalog.get_source(table)? {
            Source::Paged { table, pool } => {
                let compiled = predicate
                    .map(|p| p.compile(table.schema(), &self.udfs))
                    .transpose()?;
                let outcome = table.scan(
                    &pool,
                    &ScanOptions {
                        predicate: compiled.as_ref(),
                        projection,
                        limit,
                    },
                )?;
                Ok((
                    outcome.table,
                    outcome.rows_scanned,
                    outcome.pages_read * PAGE_SIZE as u64,
                ))
            }
            Source::Mem(t) => {
                let mut out = t.clone();
                let mut scanned = t.num_rows() as u64;
                match predicate {
                    Some(p) => {
                        let compiled = p.compile(t.schema(), &self.udfs)?;
                        out = ops::filter(&out, &compiled)?;
                        if let Some(n) = limit {
                            out = ops::limit(&out, n)?;
                        }
                    }
                    None => {
                        if let Some(n) = limit {
                            out = ops::limit(&out, n)?;
                            scanned = out.num_rows() as u64;
                        }
                    }
                }
                if let Some(cols) = projection {
                    let fields = cols
                        .iter()
                        .map(|&i| out.schema().field(i).clone())
                        .collect::<Vec<_>>();
                    let schema = Arc::new(Schema::new(fields)?);
                    let columns = cols.iter().map(|&i| Arc::clone(&out.columns()[i])).collect();
                    out = Table::from_shared(schema, columns)?;
                }
                let bytes = t.byte_size() as u64;
                Ok((out, scanned, bytes))
            }
        }
    }

    /// Hash join with planner-chosen build side/strategy, spilling when
    /// the build side exceeds the memory grant.
    fn run_join(
        &self,
        left: &Table,
        right: &Table,
        on: &Expr,
        build_left: bool,
        strategy: JoinStrategy,
        spill: &mut SpillIo,
    ) -> RelResult<Table> {
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

        let build_bytes = if build_left {
            left.byte_size()
        } else {
            right.byte_size()
        };
        let joined = match self.memory_grant {
            Some(grant) if build_bytes > grant => self.spill_join(
                left,
                right,
                &left_keys,
                &right_keys,
                build_left,
                grant,
                spill,
            )?,
            _ => self.in_memory_join(left, right, &left_keys, &right_keys, build_left, strategy)?,
        };
        match residual {
            Some(expr) => {
                let compiled = expr.compile(joined.schema(), &self.udfs)?;
                ops::filter(&joined, &compiled)
            }
            None => Ok(joined),
        }
    }

    fn in_memory_join(
        &self,
        left: &Table,
        right: &Table,
        lk: &[usize],
        rk: &[usize],
        build_left: bool,
        strategy: JoinStrategy,
    ) -> RelResult<Table> {
        let side = if build_left {
            JoinSide::BuildLeft
        } else {
            JoinSide::BuildRight
        };
        if self.cluster.workers() == 1 {
            return ops::hash_join(left, right, lk, rk, side);
        }
        let parts = match strategy {
            JoinStrategy::Broadcast => {
                if build_left {
                    // Replicate the left build side; chunk the right probe.
                    let chunks = crate::exec::chunk_partition(right, self.cluster.workers());
                    self.cluster.map_partitions(chunks, |_, chunk| {
                        ops::hash_join(left, &chunk, lk, rk, JoinSide::BuildLeft)
                    })?
                } else {
                    let chunks = crate::exec::chunk_partition(left, self.cluster.workers());
                    self.cluster.map_partitions(chunks, |_, chunk| {
                        ops::hash_join(&chunk, right, lk, rk, JoinSide::BuildRight)
                    })?
                }
            }
            JoinStrategy::CoPartitioned => {
                let lparts = hash_partition(left, lk, self.cluster.workers());
                let rparts = hash_partition(right, rk, self.cluster.workers());
                self.cluster.map_partitions(lparts, |i, lpart| {
                    ops::hash_join(&lpart, &rparts[i], lk, rk, side)
                })?
            }
        };
        Table::concat(&parts)
    }

    /// Grace-style partitioned hash join: both inputs are hash-partitioned
    /// on the keys to checksummed spill files, then each partition pair is
    /// joined on its own — bounding the build hash table to roughly
    /// `build_bytes / parts`.
    #[allow(clippy::too_many_arguments)]
    fn spill_join(
        &self,
        left: &Table,
        right: &Table,
        lk: &[usize],
        rk: &[usize],
        build_left: bool,
        grant: usize,
        spill: &mut SpillIo,
    ) -> RelResult<Table> {
        let build_bytes = if build_left {
            left.byte_size()
        } else {
            right.byte_size()
        };
        let parts = (build_bytes / grant.max(1) + 1).clamp(2, MAX_SPILL_PARTS);
        let dir = SpillDir::new(&self.spill_dir(), "join")?;
        let (lh, rh) = {
            let mut lw = dir.writer("left")?;
            for part in hash_partition(left, lk, parts) {
                lw.append(&binfmt::encode_table(&part))?;
            }
            let mut rw = dir.writer("right")?;
            for part in hash_partition(right, rk, parts) {
                rw.append(&binfmt::encode_table(&part))?;
            }
            (lw.finish()?, rw.finish()?)
        };
        spill.bytes += lh.bytes + rh.bytes;
        spill.parts += parts as u64;

        let side = if build_left {
            JoinSide::BuildLeft
        } else {
            JoinSide::BuildRight
        };
        let mut lr = lh.reader()?;
        let mut rr = rh.reader()?;
        let mut outputs = Vec::with_capacity(parts);
        while let (Some(lbuf), Some(rbuf)) = (lr.next_frame()?, rr.next_frame()?) {
            let lpart = binfmt::decode_table(Bytes::from(lbuf))?;
            let rpart = binfmt::decode_table(Bytes::from(rbuf))?;
            outputs.push(ops::hash_join(&lpart, &rpart, lk, rk, side)?);
        }
        Table::concat(&outputs)
    }

    /// Aggregate, hash-partitioning the input to disk first when it
    /// exceeds the grant. The spilled path re-sorts its output by the
    /// group keys so it is bit-identical to the in-memory operator (which
    /// emits groups in ascending key order).
    fn run_aggregate(
        &self,
        input: &Table,
        group_by: &[String],
        aggs: &[AggCall],
        spill: &mut SpillIo,
    ) -> RelResult<Table> {
        let keys = group_by
            .iter()
            .map(|name| input.schema().index_of(name))
            .collect::<RelResult<Vec<_>>>()?;
        let specs = aggs
            .iter()
            .map(|call| lower_agg(call, input.schema()))
            .collect::<RelResult<Vec<_>>>()?;
        match self.memory_grant {
            Some(grant) if input.byte_size() > grant && !keys.is_empty() => {
                let parts = (input.byte_size() / grant.max(1) + 1).clamp(2, MAX_SPILL_PARTS);
                let dir = SpillDir::new(&self.spill_dir(), "agg")?;
                let handle = {
                    let mut w = dir.writer("parts")?;
                    for part in hash_partition(input, &keys, parts) {
                        w.append(&binfmt::encode_table(&part))?;
                    }
                    w.finish()?
                };
                spill.bytes += handle.bytes;
                spill.parts += parts as u64;
                let mut reader = handle.reader()?;
                let mut outputs = Vec::with_capacity(parts);
                while let Some(buf) = reader.next_frame()? {
                    let part = binfmt::decode_table(Bytes::from(buf))?;
                    outputs.push(ops::aggregate(&part, &keys, &specs)?);
                }
                let merged = Table::concat(&outputs)?;
                // Restore the global ascending-key order of the in-memory
                // operator (group keys are columns 0..keys.len() of the
                // output).
                let sort_keys: Vec<SortKey> =
                    (0..keys.len()).map(SortKey::asc).collect();
                ops::sort(&merged, &sort_keys)
            }
            _ => self.cluster.aggregate(input, &keys, &specs),
        }
    }

    /// Sort, via external merge sort when the input exceeds the grant.
    fn run_sort(&self, input: &Table, keys: &[SortKey], spill: &mut SpillIo) -> RelResult<Table> {
        match self.memory_grant {
            Some(grant) if input.byte_size() > grant && input.num_rows() > 1 => {
                self.external_sort(input, keys, grant, spill)
            }
            _ => ops::sort(input, keys),
        }
    }

    /// Split the input into grant-sized runs, sort each in memory, spill
    /// the runs as checksummed frames, and k-way merge them. Ties across
    /// runs resolve to the earlier run, which (with stable in-run sorting
    /// over contiguous chunks) makes the result identical to a stable
    /// in-memory sort.
    fn external_sort(
        &self,
        input: &Table,
        keys: &[SortKey],
        grant: usize,
        spill: &mut SpillIo,
    ) -> RelResult<Table> {
        let rows = input.num_rows();
        let avg_row = (input.byte_size() / rows.max(1)).max(1);
        let per_run = (grant / avg_row).max(1);
        let dir = SpillDir::new(&self.spill_dir(), "sort")?;
        let mut handles: Vec<SpillHandle> = Vec::new();
        let mut start = 0usize;
        let mut run_no = 0usize;
        while start < rows {
            let end = (start + per_run).min(rows);
            let indices: Vec<usize> = (start..end).collect();
            let run = ops::sort(&input.gather(&indices), keys)?;
            let mut w = dir.writer(&format!("run-{run_no}"))?;
            let mut off = 0usize;
            while off < run.num_rows() {
                let batch_end = (off + SPILL_BATCH_ROWS).min(run.num_rows());
                let batch_idx: Vec<usize> = (off..batch_end).collect();
                w.append(&binfmt::encode_table(&run.gather(&batch_idx)))?;
                off = batch_end;
            }
            let h = w.finish()?;
            spill.bytes += h.bytes;
            handles.push(h);
            start = end;
            run_no += 1;
        }
        spill.parts += handles.len() as u64;

        struct RunCursor {
            reader: SpillReader,
            batch: Table,
            pos: usize,
        }
        impl RunCursor {
            fn open(handle: &SpillHandle) -> RelResult<Option<RunCursor>> {
                let mut reader = handle.reader()?;
                match reader.next_frame()? {
                    Some(buf) => Ok(Some(RunCursor {
                        reader,
                        batch: binfmt::decode_table(Bytes::from(buf))?,
                        pos: 0,
                    })),
                    None => Ok(None),
                }
            }
            fn done(&self) -> bool {
                self.pos >= self.batch.num_rows()
            }
            fn advance(&mut self) -> RelResult<()> {
                self.pos += 1;
                if self.pos >= self.batch.num_rows() {
                    if let Some(buf) = self.reader.next_frame()? {
                        self.batch = binfmt::decode_table(Bytes::from(buf))?;
                        self.pos = 0;
                    }
                }
                Ok(())
            }
        }

        fn cmp_rows(a: &Table, ar: usize, b: &Table, br: usize, keys: &[SortKey]) -> Ordering {
            for k in keys {
                let ord = a.column(k.col).cmp_at(ar, b.column(k.col), br);
                let ord = if k.ascending { ord } else { ord.reverse() };
                if !ord.is_eq() {
                    return ord;
                }
            }
            Ordering::Equal
        }

        let mut cursors: Vec<RunCursor> = Vec::with_capacity(handles.len());
        for h in &handles {
            if let Some(c) = RunCursor::open(h)? {
                cursors.push(c);
            }
        }
        let mut out: Vec<Column> = input
            .schema()
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, rows))
            .collect();
        loop {
            let mut best: Option<usize> = None;
            for i in 0..cursors.len() {
                if cursors[i].done() {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        // Strict less-than keeps the earlier run on ties.
                        if cmp_rows(
                            &cursors[i].batch,
                            cursors[i].pos,
                            &cursors[b].batch,
                            cursors[b].pos,
                            keys,
                        ) == Ordering::Less
                        {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(b) = best else { break };
            let cursor = &mut cursors[b];
            for (dst, src) in out.iter_mut().zip(cursor.batch.columns()) {
                dst.push_from(src, cursor.pos)?;
            }
            cursor.advance()?;
        }
        Table::new(input.schema().clone(), out)
    }

    fn spill_dir(&self) -> std::path::PathBuf {
        self.spill_root
            .clone()
            .unwrap_or_else(std::env::temp_dir)
    }
}
