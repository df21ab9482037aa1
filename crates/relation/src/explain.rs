//! EXPLAIN-style rendering of physical plans, with estimates or with
//! measured statistics (EXPLAIN ANALYZE).

use crate::exec::StageStats;
use crate::expr::Expr;
use crate::physical::PhysicalPlan;
use crate::plan::AggCall;
use std::fmt::Write as _;

/// Render an optimized physical plan with its pushdown, build-side and
/// strategy annotations:
///
/// ```text
/// Sort: distance DESC  (est 330 rows)
///   HashJoin: query2 = query  [build=right, Broadcast]  (est 1000 rows)
///     SeqScan: graph  [pred: distance > 0.25] [cols: 2/4]  (est 330 rows)
///     SeqScan: communities  (est 40 rows)
/// ```
pub fn explain_physical(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    render_physical(plan, 0, None, &mut out);
    out
}

/// Render a physical plan annotated with *measured* per-node statistics
/// (EXPLAIN ANALYZE): actual rows, bytes and spill activity from a
/// [`StageStats`] snapshot recorded by `execute_physical`, matched to
/// nodes by id.
pub fn explain_analyze(plan: &PhysicalPlan, stats: &[StageStats]) -> String {
    let mut out = String::new();
    render_physical(plan, 0, Some(stats), &mut out);
    out
}

fn node_stats(stats: &[StageStats], id: usize) -> Option<&StageStats> {
    // Later records win: the snapshot may hold several runs of the plan.
    stats.iter().rev().find(|s| s.node == Some(id))
}

fn render_physical(
    plan: &PhysicalPlan,
    depth: usize,
    stats: Option<&[StageStats]>,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    let head = match plan {
        PhysicalPlan::SeqScan {
            table,
            projection,
            predicate,
            limit,
            ..
        } => {
            let mut s = format!("{pad}SeqScan: {table}");
            if let Some(p) = predicate {
                let _ = write!(s, "  [pred: {}]", expr_text(p));
            }
            if let Some(cols) = projection {
                let _ = write!(s, "  [cols: {}]", cols.len());
            }
            if let Some(n) = limit {
                let _ = write!(s, "  [limit: {n}]");
            }
            s
        }
        PhysicalPlan::Filter { predicate, .. } => {
            format!("{pad}Filter: {}", expr_text(predicate))
        }
        PhysicalPlan::Project { exprs, .. } => {
            let cols: Vec<String> = exprs
                .iter()
                .map(|(e, alias)| match alias {
                    Some(a) if *a != e.default_name() => {
                        format!("{} AS {a}", expr_text(e))
                    }
                    _ => expr_text(e),
                })
                .collect();
            format!("{pad}Project: {}", cols.join(", "))
        }
        PhysicalPlan::HashJoin {
            on,
            build_left,
            strategy,
            ..
        } => format!(
            "{pad}HashJoin: {}  [build={}, {strategy:?}]",
            expr_text(on),
            if *build_left { "left" } else { "right" },
        ),
        PhysicalPlan::Aggregate {
            group_by, aggs, ..
        } => {
            let aggs_text: Vec<String> = aggs.iter().map(agg_text).collect();
            format!(
                "{pad}Aggregate: group by [{}], compute [{}]",
                group_by.join(", "),
                aggs_text.join(", ")
            )
        }
        PhysicalPlan::Sort { keys, .. } => {
            let keys_text: Vec<String> = keys
                .iter()
                .map(|(name, asc)| format!("{name} {}", if *asc { "ASC" } else { "DESC" }))
                .collect();
            format!("{pad}Sort: {}", keys_text.join(", "))
        }
        PhysicalPlan::Limit { n, .. } => format!("{pad}Limit: {n}"),
        PhysicalPlan::Distinct { .. } => format!("{pad}Distinct"),
        PhysicalPlan::UnionAll { inputs, .. } => {
            format!("{pad}UnionAll ({} inputs)", inputs.len())
        }
    };
    out.push_str(&head);
    match stats {
        Some(snapshot) => match node_stats(snapshot, plan.id()) {
            Some(s) => {
                let _ = write!(
                    out,
                    "  (actual: {} rows in, {} rows out, {} B out, {:?}",
                    s.rows_read, s.rows_written, s.bytes_written, s.wall
                );
                if s.spill_bytes > 0 {
                    let _ = write!(
                        out,
                        ", spilled {} B / {} parts",
                        s.spill_bytes, s.spill_parts
                    );
                }
                out.push(')');
            }
            None => out.push_str("  (actual: not executed)"),
        },
        None => {
            let est = plan.estimate();
            let _ = write!(
                out,
                "  (est {} rows{})",
                est.rows.round() as u64,
                if est.measured { ", measured" } else { "" }
            );
        }
    }
    out.push('\n');
    match plan {
        PhysicalPlan::SeqScan { .. } => {}
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input, .. } => {
            render_physical(input, depth + 1, stats, out);
        }
        PhysicalPlan::HashJoin { left, right, .. } => {
            render_physical(left, depth + 1, stats, out);
            render_physical(right, depth + 1, stats, out);
        }
        PhysicalPlan::UnionAll { inputs, .. } => {
            for input in inputs {
                render_physical(input, depth + 1, stats, out);
            }
        }
    }
}

fn expr_text(expr: &Expr) -> String {
    expr.default_name()
}

fn agg_text(call: &AggCall) -> String {
    format!(
        "{:?}({}) AS {}",
        call.func,
        call.args.join(", "),
        call.alias
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::expr::Expr;
    use crate::ops::AggFunc;
    use crate::physical::optimize;
    use crate::plan::{ExecContext, LogicalPlan};
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::DataType;

    fn ctx() -> ExecContext {
        let catalog = Catalog::new();
        let graph = Schema::of(&[
            ("query1", DataType::Str),
            ("query2", DataType::Str),
            ("distance", DataType::Float),
        ]);
        catalog.register("graph", Table::from_rows(graph, Vec::new()).unwrap());
        let communities = Schema::of(&[("comm_name", DataType::Int), ("query", DataType::Str)]);
        catalog.register("communities", Table::from_rows(communities, Vec::new()).unwrap());
        ExecContext::new(catalog)
    }

    #[test]
    fn renders_nested_plans() {
        // The filter reads an aggregate output, so it stays a Filter node
        // instead of sinking into the scan.
        let plan = LogicalPlan::scan("graph")
            .aggregate(
                vec!["query1".into()],
                vec![AggCall {
                    func: AggFunc::Max,
                    args: vec!["distance".into()],
                    alias: "distance".into(),
                }],
            )
            .filter(Expr::col("distance").gt(Expr::lit(0.25)))
            .project(vec![(Expr::col("query1"), Some("q".into()))])
            .limit(5);
        let text = explain_physical(&optimize(&plan, &ctx()).unwrap());
        assert!(text.contains("Limit: 5"), "{text}");
        assert!(text.contains("Project: query1 AS q"), "{text}");
        assert!(text.contains("Filter: distance > 0.25"), "{text}");
        assert!(text.contains("Max(distance) AS distance"), "{text}");
        assert!(text.contains("        SeqScan: graph"), "{text}");
        // Indentation deepens by 2 per level.
        let depths: Vec<usize> = text
            .lines()
            .map(|l| l.len() - l.trim_start().len())
            .collect();
        assert_eq!(depths, vec![0, 2, 4, 6, 8], "{text}");
    }

    #[test]
    fn renders_aggregates_and_joins() {
        let plan = LogicalPlan::scan("graph")
            .join(
                LogicalPlan::scan("communities"),
                Expr::col("query2").eq(Expr::col("query")),
            )
            .aggregate(
                vec!["comm_name".into()],
                vec![AggCall {
                    func: AggFunc::ArgMax,
                    args: vec!["distance".into(), "query1".into()],
                    alias: "owner".into(),
                }],
            );
        let text = explain_physical(&optimize(&plan, &ctx()).unwrap());
        assert!(text.contains("Aggregate: group by [comm_name]"), "{text}");
        assert!(text.contains("ArgMax(distance, query1) AS owner"), "{text}");
        assert!(text.contains("HashJoin: query2 = query  [build="), "{text}");
    }
}
