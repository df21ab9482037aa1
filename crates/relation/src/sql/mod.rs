//! SQL front-end: lexer → parser → binder.
//!
//! The dialect is the small SELECT subset needed to express the paper's
//! Figure 4 community-detection queries, plus DISTINCT / ORDER BY / LIMIT
//! for inspection queries: qualified columns, inner joins, WHERE with
//! scalar UDFs (`ModulGain`), GROUP BY with the `argmax` aggregate, and
//! SELECT-list aliases visible from WHERE (as in the paper's pseudo-SQL).

mod ast;
mod binder;
mod lexer;
mod parser;

pub use ast::{AstExpr, JoinClause, OrderKey, Query, SelectItem, Statement, TableRef};
pub use binder::{bind, bind_statement};
pub use lexer::{tokenize, Token};
pub use parser::parse;

use crate::error::RelResult;
use crate::plan::{ExecContext, LogicalPlan};
use crate::table::Table;

/// Parse and bind SQL text into a logical plan using the context's catalog
/// and UDF registry.
pub fn plan_sql(sql: &str, ctx: &ExecContext) -> RelResult<LogicalPlan> {
    let statement = parse(sql)?;
    bind_statement(&statement, &ctx.catalog, &ctx.udfs)
}

/// Parse, bind, optimize and execute SQL text through the physical
/// planner: predicates/projections/limits are pushed into the scans,
/// join build sides and strategies are cost-chosen, and blocking
/// operators spill under the context's memory grant.
pub fn run_sql(sql: &str, ctx: &ExecContext) -> RelResult<Table> {
    let plan = plan_sql(sql, ctx)?;
    let physical = crate::physical::optimize(&plan, ctx)?;
    ctx.execute_physical(&physical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::Schema;
    use crate::udf::{FnUdf, UdfRegistry};
    use crate::value::{DataType, Value};
    use std::sync::Arc;

    fn context() -> ExecContext {
        let catalog = Catalog::new();
        let graph_schema = Schema::of(&[
            ("query1", DataType::Str),
            ("query2", DataType::Str),
            ("distance", DataType::Float),
        ]);
        catalog.register(
            "graph",
            Table::from_rows(
                graph_schema,
                vec![
                    vec![Value::str("49ers"), Value::str("nfl"), Value::Float(0.29)],
                    vec![Value::str("nfl"), Value::str("football"), Value::Float(0.41)],
                    vec![Value::str("sf"), Value::str("49ers"), Value::Float(0.12)],
                    vec![Value::str("football"), Value::str("nfl"), Value::Float(0.50)],
                ],
            )
            .unwrap(),
        );
        let comm_schema = Schema::of(&[("comm_name", DataType::Str), ("query", DataType::Str)]);
        catalog.register(
            "communities",
            Table::from_rows(
                comm_schema,
                vec![
                    vec![Value::str("49ers"), Value::str("49ers")],
                    vec![Value::str("nfl"), Value::str("nfl")],
                    vec![Value::str("football"), Value::str("football")],
                    vec![Value::str("sf"), Value::str("sf")],
                ],
            )
            .unwrap(),
        );
        ExecContext::new(catalog)
    }

    #[test]
    fn select_where_projects_and_filters() {
        let ctx = context();
        let out = run_sql(
            "select query1, distance from graph where distance > 0.25 order by distance desc",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.row(0)[0], Value::str("football"));
        let names: Vec<_> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["query1", "distance"]);
    }

    #[test]
    fn double_self_join_with_udf_in_where() {
        let ctx = context();
        let mut udfs = UdfRegistry::with_builtins();
        // A toy ModulGain: positive iff the two community names differ.
        udfs.register(Arc::new(FnUdf::new("ModulGain", DataType::Float, |args| {
            let a = args[0].as_str().unwrap_or_default();
            let b = args[1].as_str().unwrap_or_default();
            Ok(Value::Float(if a == b { -1.0 } else { 1.0 }))
        })));
        let ctx = ExecContext { udfs, ..ctx };
        let out = run_sql(
            "select c1.comm_name as comm1, c2.comm_name as comm2, distance \
             from graph \
             inner join communities c1 on c1.query = graph.query1 \
             inner join communities c2 on c2.query = graph.query2 \
             where ModulGain(comm1, comm2) > 0",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.schema().fields()[0].name, "comm1");
    }

    #[test]
    fn group_by_argmax_matches_paper_partitions_query() {
        let ctx = context();
        let out = run_sql(
            "select query2, argmax(distance, query1) as best from graph group by query2 order by query2",
            &ctx,
        )
        .unwrap();
        // query2 values: 49ers, football, nfl(x2 -> argmax by distance).
        assert_eq!(out.num_rows(), 3);
        let nfl_row: Vec<Value> = out
            .iter_rows()
            .find(|r| r[0] == Value::str("nfl"))
            .unwrap();
        assert_eq!(nfl_row[1], Value::str("football")); // distance 0.50 beats 0.29
    }

    #[test]
    fn count_star_group_by() {
        let ctx = context();
        let out = run_sql(
            "select comm_name, count(*) as n from communities group by comm_name",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert!(out.iter_rows().all(|r| r[1] == Value::Int(1)));
    }

    #[test]
    fn select_star_join_disambiguates() {
        let ctx = context();
        let out = run_sql(
            "select * from graph inner join communities c1 on c1.query = graph.query1 limit 2",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        let names: Vec<_> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        // `query` is unique across scope; the rest keep bare names.
        assert_eq!(
            names,
            vec!["query1", "query2", "distance", "comm_name", "query"]
        );
    }

    #[test]
    fn unknown_references_error_cleanly() {
        let ctx = context();
        assert!(run_sql("select nope from graph", &ctx).is_err());
        assert!(run_sql("select query1 from nope", &ctx).is_err());
        assert!(run_sql("select fn(query1) from graph", &ctx).is_err());
    }

    #[test]
    fn scalar_functions_and_arithmetic_in_projections() {
        let ctx = context();
        let out = run_sql(
            "select upper(query1) as q, distance * 2 as d2, distance + 1 as d1              from graph where query1 = '49ers'",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::str("49ERS"));
        assert_eq!(out.row(0)[1], Value::Float(0.58));
        assert_eq!(out.row(0)[2], Value::Float(1.29));
    }

    #[test]
    fn order_by_multiple_keys_with_strings() {
        let ctx = context();
        let out = run_sql(
            "select query1, query2 from graph order by query1 desc, query2 asc",
            &ctx,
        )
        .unwrap();
        let firsts: Vec<Value> = out.iter_rows().map(|r| r[0].clone()).collect();
        let mut sorted = firsts.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn where_with_string_literals_and_not() {
        let ctx = context();
        let out = run_sql(
            "select query1 from graph where not (query1 = 'nfl' or query1 = 'sf')",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        for row in out.iter_rows() {
            assert_ne!(row[0], Value::str("nfl"));
            assert_ne!(row[0], Value::str("sf"));
        }
    }

    #[test]
    fn implicit_aliases_without_as() {
        let ctx = context();
        let out = run_sql("select query1 q, distance d from graph limit 1", &ctx).unwrap();
        let names: Vec<&str> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["q", "d"]);
    }

    #[test]
    fn ambiguous_bare_columns_are_rejected() {
        let ctx = context();
        // `comm_name`/`query` exist once; joining communities to itself
        // makes `query` ambiguous.
        let err = run_sql(
            "select query from communities c1 inner join communities c2 on c1.query = c2.query",
            &ctx,
        );
        assert!(err.is_err());
        // Qualified references resolve fine.
        let ok = run_sql(
            "select c1.query from communities c1 inner join communities c2 on c1.query = c2.query",
            &ctx,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn union_all_concatenates_branches() {
        let ctx = context();
        let out = run_sql(
            "select query1 as q from graph where distance > 0.4              union all              select query2 as q from graph where distance > 0.4",
            &ctx,
        )
        .unwrap();
        // Two rows with distance > 0.4 → 2 + 2 rows.
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.schema().fields()[0].name, "q");
    }

    #[test]
    fn union_all_requires_matching_schemas() {
        let ctx = context();
        assert!(run_sql(
            "select query1 from graph union all select distance from graph",
            &ctx
        )
        .is_err());
    }

    #[test]
    fn having_filters_groups() {
        let ctx = context();
        // Per query2: count appearances; keep only repeated ones.
        let out = run_sql(
            "select query2, count(*) as n from graph group by query2 having n >= 2",
            &ctx,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0), vec![Value::str("nfl"), Value::Int(2)]);
    }

    #[test]
    fn having_without_group_by_is_rejected() {
        let ctx = context();
        assert!(run_sql("select query1 from graph having query1 = 'x'", &ctx).is_err());
    }

    #[test]
    fn having_rejects_direct_aggregate_calls() {
        let ctx = context();
        assert!(run_sql(
            "select query2, count(*) as n from graph group by query2 having count(*) >= 2",
            &ctx
        )
        .is_err());
    }

    #[test]
    fn planning_reads_no_pages_of_a_paged_table() {
        let dir = std::env::temp_dir().join(format!("esharp_plan_paged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = context();
        let graph = ctx.catalog.get("graph").unwrap();
        let paged = Arc::new(crate::paged::PagedTable::create(&dir.join("graph"), &graph).unwrap());
        let pool = Arc::new(crate::BufferPool::new(2));
        ctx.catalog.register_paged("graph", paged, pool.clone());
        let sql = "select g.query1, c.comm_name from graph g \
                   inner join communities c on c.query = g.query2 where g.distance > 0.25";
        let touched = |pool: &crate::BufferPool| {
            let stats = pool.stats();
            stats.hits + stats.misses
        };
        let before = touched(&pool);
        let plan = plan_sql(sql, &ctx).unwrap();
        crate::physical::optimize(&plan, &ctx).unwrap();
        assert_eq!(touched(&pool), before, "planning fetched pages");
        // Running it does read them.
        assert_eq!(run_sql(sql, &ctx).unwrap().num_rows(), 3);
        assert!(touched(&pool) > before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_deduplicates() {
        let ctx = context();
        let out = run_sql("select distinct comm_name from communities", &ctx).unwrap();
        assert_eq!(out.num_rows(), 4);
    }
}
