//! Binder: resolves a parsed [`Query`] against a catalog into a
//! [`LogicalPlan`].
//!
//! Every base-table column is renamed to `alias.column` immediately above
//! its scan, which makes multi-self-join queries (like Figure 4's double
//! join against `communities`) unambiguous without fragile suffix rules.
//! Like the paper's pseudo-SQL, predicates may refer to SELECT-list aliases
//! (`where ModulGain(query1, query2) > 0` with `query1` defined in the
//! SELECT list); the binder falls back to alias substitution when scope
//! resolution fails.

use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::expr::Expr;
use crate::ops::AggFunc;
use crate::plan::{AggCall, LogicalPlan};
use crate::sql::ast::*;
use crate::udf::UdfRegistry;

/// Bind a full statement (a query or a `UNION ALL` chain).
pub fn bind_statement(
    statement: &Statement,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> RelResult<LogicalPlan> {
    let mut plans = statement
        .queries
        .iter()
        .map(|q| bind(q, catalog, udfs))
        .collect::<RelResult<Vec<_>>>()?;
    Ok(match plans.len() {
        1 => plans.remove(0),
        _ => LogicalPlan::UnionAll { inputs: plans },
    })
}

/// One visible column during binding.
#[derive(Debug, Clone)]
struct ScopeCol {
    /// Table alias this column came from.
    alias: String,
    /// Bare column name.
    name: String,
    /// Physical name in the bound plan (`alias.name`).
    physical: String,
}

/// Bind a parsed query to a logical plan.
pub fn bind(query: &Query, catalog: &Catalog, udfs: &UdfRegistry) -> RelResult<LogicalPlan> {
    let binder = Binder { catalog, udfs };
    binder.bind_query(query)
}

struct Binder<'a> {
    catalog: &'a Catalog,
    udfs: &'a UdfRegistry,
}

impl Binder<'_> {
    fn bind_query(&self, query: &Query) -> RelResult<LogicalPlan> {
        let mut scope: Vec<ScopeCol> = Vec::new();
        let mut plan = self.aliased_scan(&query.from, &mut scope)?;

        for join in &query.joins {
            let right = self.aliased_scan(&join.table, &mut scope)?;
            let on = self.bind_expr(&join.on, &scope, &[])?;
            plan = plan.join(right, on);
        }

        // Select-list aliases usable from WHERE/GROUP BY (paper style).
        let aliases: Vec<(String, &AstExpr)> = query
            .items
            .iter()
            .filter_map(|item| match item {
                SelectItem::Expr {
                    expr,
                    alias: Some(a),
                } => Some((a.clone(), expr)),
                _ => None,
            })
            .collect();

        if let Some(where_clause) = &query.where_clause {
            let predicate = self.bind_expr(where_clause, &scope, &aliases)?;
            plan = plan.filter(predicate);
        }

        let has_aggs = query.items.iter().any(|item| {
            matches!(item, SelectItem::Expr { expr, .. } if contains_aggregate(expr))
        });

        if !query.group_by.is_empty() || has_aggs {
            plan = self.bind_aggregate(query, plan, &scope, &aliases)?;
            if let Some(having) = &query.having {
                // HAVING references the grouped *output* columns by name
                // (`having n >= 5` after `count(*) as n`): bind with an
                // empty scope-rewrite — columns pass through verbatim and
                // are resolved against the aggregate's output schema at
                // execution time.
                let predicate = bind_output_expr(having, self.udfs)?;
                plan = plan.filter(predicate);
            }
        } else {
            if query.having.is_some() {
                return Err(RelError::InvalidPlan(
                    "HAVING requires GROUP BY".into(),
                ));
            }
            plan = self.bind_projection(query, plan, &scope)?;
        }

        if query.distinct {
            plan = plan.distinct();
        }
        if !query.order_by.is_empty() {
            let keys = query
                .order_by
                .iter()
                .map(|key| match &key.expr {
                    AstExpr::Col { name, .. } => Ok((name.clone(), key.ascending)),
                    other => Err(RelError::Parse(format!(
                        "ORDER BY supports output column names only, got {other:?}"
                    ))),
                })
                .collect::<RelResult<Vec<_>>>()?;
            plan = plan.sort(keys);
        }
        if let Some(n) = query.limit {
            plan = plan.limit(n);
        }
        Ok(plan)
    }

    /// Scan + rename every column to `alias.column`, extending the scope.
    fn aliased_scan(&self, table: &TableRef, scope: &mut Vec<ScopeCol>) -> RelResult<LogicalPlan> {
        let alias = table
            .alias
            .clone()
            .unwrap_or_else(|| table.name.clone())
            .to_lowercase();
        if scope.iter().any(|c| c.alias == alias) {
            return Err(RelError::InvalidPlan(format!(
                "duplicate table alias: {alias}"
            )));
        }
        let schema = self.catalog.schema_of(&table.name)?;
        let mut renames = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            let physical = format!("{alias}.{}", field.name.to_lowercase());
            renames.push((Expr::col(field.name.clone()), Some(physical.clone())));
            scope.push(ScopeCol {
                alias: alias.clone(),
                name: field.name.to_lowercase(),
                physical,
            });
        }
        Ok(LogicalPlan::scan(table.name.clone()).project(renames))
    }

    /// Resolve a (possibly qualified) column name against the scope.
    fn resolve(&self, qualifier: Option<&str>, name: &str, scope: &[ScopeCol]) -> RelResult<String> {
        let name_lc = name.to_lowercase();
        let matches: Vec<&ScopeCol> = match qualifier {
            Some(q) => {
                let q = q.to_lowercase();
                scope
                    .iter()
                    .filter(|c| c.alias == q && c.name == name_lc)
                    .collect()
            }
            None => scope.iter().filter(|c| c.name == name_lc).collect(),
        };
        match matches.len() {
            0 => Err(RelError::UnknownColumn(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            })),
            1 => Ok(matches[0].physical.clone()),
            _ => Err(RelError::InvalidPlan(format!(
                "ambiguous column reference: {name} (matches {})",
                matches
                    .iter()
                    .map(|c| c.physical.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))),
        }
    }

    /// Bind a scalar AST expression. `aliases` supplies SELECT-list alias
    /// substitution for unresolvable bare names.
    fn bind_expr(
        &self,
        ast: &AstExpr,
        scope: &[ScopeCol],
        aliases: &[(String, &AstExpr)],
    ) -> RelResult<Expr> {
        Ok(match ast {
            AstExpr::Lit(v) => Expr::Lit(v.clone()),
            AstExpr::Col { qualifier, name } => {
                match self.resolve(qualifier.as_deref(), name, scope) {
                    Ok(physical) => Expr::Col(physical),
                    Err(err) => {
                        if qualifier.is_none() {
                            if let Some((_, sub)) = aliases
                                .iter()
                                .find(|(a, _)| a.eq_ignore_ascii_case(name))
                            {
                                // Substitute the aliased select expression,
                                // with aliases disabled to prevent cycles.
                                return self.bind_expr(sub, scope, &[]);
                            }
                        }
                        return Err(err);
                    }
                }
            }
            AstExpr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(self.bind_expr(left, scope, aliases)?),
                right: Box::new(self.bind_expr(right, scope, aliases)?),
            },
            AstExpr::Not(inner) => Expr::Not(Box::new(self.bind_expr(inner, scope, aliases)?)),
            AstExpr::Call { name, args, is_star } => {
                if *is_star || aggregate_func(name).is_some() {
                    return Err(RelError::InvalidPlan(format!(
                        "aggregate {name} is not allowed in a scalar context"
                    )));
                }
                if !self.udfs.contains(name) {
                    return Err(RelError::UnknownFunction(name.clone()));
                }
                Expr::Call {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| self.bind_expr(a, scope, aliases))
                        .collect::<RelResult<Vec<_>>>()?,
                }
            }
        })
    }

    /// Bind a plain (non-grouped) SELECT list.
    fn bind_projection(
        &self,
        query: &Query,
        plan: LogicalPlan,
        scope: &[ScopeCol],
    ) -> RelResult<LogicalPlan> {
        let mut exprs = Vec::new();
        for item in &query.items {
            match item {
                SelectItem::Star => {
                    for col in scope {
                        let output = self.star_output_name(col, scope);
                        exprs.push((Expr::Col(col.physical.clone()), Some(output)));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, scope, &[])?;
                    let name = output_name(expr, alias.as_deref());
                    exprs.push((bound, Some(name)));
                }
            }
        }
        Ok(plan.project(exprs))
    }

    /// For `SELECT *`: use the bare name when unique in scope, otherwise
    /// the qualified physical name.
    fn star_output_name(&self, col: &ScopeCol, scope: &[ScopeCol]) -> String {
        let dup = scope.iter().filter(|c| c.name == col.name).count() > 1;
        if dup {
            col.physical.clone()
        } else {
            col.name.clone()
        }
    }

    /// Bind a grouped SELECT: aggregate node plus an output projection.
    fn bind_aggregate(
        &self,
        query: &Query,
        plan: LogicalPlan,
        scope: &[ScopeCol],
        aliases: &[(String, &AstExpr)],
    ) -> RelResult<LogicalPlan> {
        // Resolve the GROUP BY columns.
        let mut group_cols: Vec<String> = Vec::new();
        for g in &query.group_by {
            match g {
                AstExpr::Col { qualifier, name } => {
                    // Allow grouping on select-list aliases of plain columns.
                    let physical = match self.resolve(qualifier.as_deref(), name, scope) {
                        Ok(p) => p,
                        Err(err) => match aliases
                            .iter()
                            .find(|(a, _)| a.eq_ignore_ascii_case(name))
                            .map(|(_, e)| *e)
                        {
                            Some(AstExpr::Col { qualifier, name }) => {
                                self.resolve(qualifier.as_deref(), name, scope)?
                            }
                            _ => return Err(err),
                        },
                    };
                    group_cols.push(physical);
                }
                other => {
                    return Err(RelError::InvalidPlan(format!(
                        "GROUP BY supports column references only, got {other:?}"
                    )))
                }
            }
        }

        // Walk the select list: each item is a grouping column or an
        // aggregate call.
        let mut agg_calls: Vec<AggCall> = Vec::new();
        // (output name, source column in the aggregate's output)
        let mut outputs: Vec<(String, String)> = Vec::new();
        for item in &query.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(RelError::InvalidPlan(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ));
            };
            if let AstExpr::Call { name, args, is_star } = expr {
                if let Some(func) = aggregate_func(name) {
                    let call_args = if *is_star {
                        vec![]
                    } else {
                        args.iter()
                            .map(|a| match a {
                                AstExpr::Col { qualifier, name } => {
                                    self.resolve(qualifier.as_deref(), name, scope)
                                }
                                other => Err(RelError::InvalidPlan(format!(
                                    "aggregate arguments must be plain columns, got {other:?}"
                                ))),
                            })
                            .collect::<RelResult<Vec<_>>>()?
                    };
                    let out = output_name(expr, alias.as_deref());
                    agg_calls.push(AggCall {
                        func,
                        args: call_args,
                        alias: out.clone(),
                    });
                    outputs.push((out.clone(), out));
                    continue;
                }
            }
            // Must be a grouping column.
            match expr {
                AstExpr::Col { qualifier, name } => {
                    let physical = self.resolve(qualifier.as_deref(), name, scope)?;
                    if !group_cols.contains(&physical) {
                        return Err(RelError::InvalidPlan(format!(
                            "column {physical} must appear in GROUP BY"
                        )));
                    }
                    outputs.push((output_name(expr, alias.as_deref()), physical));
                }
                other => {
                    return Err(RelError::InvalidPlan(format!(
                        "grouped SELECT items must be columns or aggregates, got {other:?}"
                    )))
                }
            }
        }

        let plan = plan.aggregate(group_cols, agg_calls);
        let exprs = outputs
            .into_iter()
            .map(|(out, source)| (Expr::Col(source), Some(out)))
            .collect();
        Ok(plan.project(exprs))
    }
}

/// Bind an expression against a plan's *output* columns: column names are
/// taken verbatim (the executor resolves them against the output schema),
/// scalar UDFs are checked against the registry, aggregates are rejected.
fn bind_output_expr(ast: &AstExpr, udfs: &UdfRegistry) -> RelResult<Expr> {
    Ok(match ast {
        AstExpr::Lit(v) => Expr::Lit(v.clone()),
        AstExpr::Col { qualifier, name } => {
            if qualifier.is_some() {
                return Err(RelError::InvalidPlan(format!(
                    "HAVING references output columns by bare name, got {qualifier:?}.{name}"
                )));
            }
            Expr::Col(name.to_lowercase())
        }
        AstExpr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind_output_expr(left, udfs)?),
            right: Box::new(bind_output_expr(right, udfs)?),
        },
        AstExpr::Not(inner) => Expr::Not(Box::new(bind_output_expr(inner, udfs)?)),
        AstExpr::Call { name, args, is_star } => {
            if *is_star || aggregate_func(name).is_some() {
                return Err(RelError::InvalidPlan(format!(
                    "HAVING must reference aggregate aliases, not call {name} directly"
                )));
            }
            if !udfs.contains(name) {
                return Err(RelError::UnknownFunction(name.clone()));
            }
            Expr::Call {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| bind_output_expr(a, udfs))
                    .collect::<RelResult<Vec<_>>>()?,
            }
        }
    })
}

/// Map a function name to an aggregate, if it is one.
fn aggregate_func(name: &str) -> Option<AggFunc> {
    let lower = name.to_lowercase();
    Some(match lower.as_str() {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        "argmax" => AggFunc::ArgMax,
        _ => return None,
    })
}

/// True if the expression contains an aggregate call anywhere.
fn contains_aggregate(expr: &AstExpr) -> bool {
    match expr {
        AstExpr::Lit(_) | AstExpr::Col { .. } => false,
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Not(inner) => contains_aggregate(inner),
        AstExpr::Call { name, args, .. } => {
            aggregate_func(name).is_some() || args.iter().any(contains_aggregate)
        }
    }
}

/// The output column name for a select item.
fn output_name(expr: &AstExpr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        AstExpr::Col { name, .. } => name.to_lowercase(),
        AstExpr::Call { name, .. } => name.to_lowercase(),
        AstExpr::Lit(v) => v.to_string(),
        other => format!("{other:?}"),
    }
}
