//! EXPLAIN-style rendering of physical plans, with estimates or with
//! measured statistics (EXPLAIN ANALYZE).

use crate::exec::StageStats;
use crate::expr::Expr;
use crate::physical::PhysicalPlan;
use crate::plan::AggCall;
use std::fmt::Write as _;
use std::time::Duration;

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
/// (EXPLAIN ANALYZE): actual rows, bytes, wall time and spill activity
/// from a [`StageStats`] snapshot recorded by `execute_physical`, matched
/// to nodes by id. Each line shows the node's inclusive wall time and its
/// `self` time: the wall minus its direct inputs' walls, so the self
/// times of a plan add up to its root's wall.
///
/// ```text
/// Filter: c1.comm_name <> c2.comm_name AND ModulGain(c1.comm_name, c2.comm_name) > 0  (actual: 976 rows in, 976 rows out, 46848 B out, 115.622µs, self 24.761µs)
///   HashJoin: c2.query = graph.node2  [build=right, Broadcast]  (actual: 1152 rows in, 976 rows out, 46848 B out, 90.861µs, self 42.107µs)
/// ```
pub fn explain_analyze(plan: &PhysicalPlan, stats: &[StageStats]) -> String {
    let mut out = String::new();
    render_physical(plan, 0, Some(stats), &mut out);
    out
}

fn node_stats(stats: &[StageStats], id: usize) -> Option<&StageStats> {
    // Later records win: the snapshot may hold several runs of the plan.
    stats.iter().rev().find(|s| s.node == Some(id))
}

/// `plan`'s own wall time: its inclusive wall less its direct inputs'.
/// The inputs run one after another inside the node's own timer, so the
/// difference never goes below zero on a monotonic clock.
fn self_wall(plan: &PhysicalPlan, stats: &[StageStats]) -> Option<Duration> {
    let inputs: Duration = plan
        .inputs()
        .into_iter()
        .filter_map(|input| node_stats(stats, input.id()))
        .map(|s| s.wall)
        .sum();
    node_stats(stats, plan.id()).map(|s| s.wall.saturating_sub(inputs))
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
                    "  (actual: {} rows in, {} rows out, {} B out, {:?}, self {:?}",
                    s.rows_read,
                    s.rows_written,
                    s.bytes_written,
                    s.wall,
                    self_wall(plan, snapshot).unwrap_or_default()
                );
                if s.pages > 0 {
                    let _ = write!(
                        out,
                        ", {} pages ({} hits, {} misses)",
                        s.pages, s.pool_hits, s.pool_misses
                    );
                }
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
    for input in plan.inputs() {
        render_physical(input, depth + 1, stats, out);
    }
}

/// Self time per operator kind, summed over any number of executed
/// plans: the per-operator cost table of a whole run. A scan that
/// fetched pages counts as `scan (paged)` and an operator that spilled
/// as `<kind> (spilled)`, so the cost of the memory bound stands apart.
///
/// A caller that runs the plans in a loop can also name the loop's own
/// phases between them ([`OperatorTimes::add_phase`]) and give the loop's
/// wall ([`OperatorTimes::set_wall`]); the table then ends with those
/// phases, the `unattributed` rest and the `loop` wall.
#[derive(Debug, Default, Clone)]
pub struct OperatorTimes {
    /// `(kind, runs, summed self time)` in first-seen order.
    kinds: Vec<(String, u64, Duration)>,
    /// `(phase, runs, summed wall)` in first-seen order.
    phases: Vec<(String, u64, Duration)>,
    /// The wall of the loop the operators and phases ran in.
    wall: Option<Duration>,
}

/// Add one run of `spent` to the row named `name`, appending the row
/// when it is new.
fn add_row(rows: &mut Vec<(String, u64, Duration)>, name: &str, spent: Duration) {
    match rows.iter_mut().find(|(k, ..)| k == name) {
        Some((_, runs, total)) => {
            *runs += 1;
            *total += spent;
        }
        None => rows.push((name.to_string(), 1, spent)),
    }
}

impl OperatorTimes {
    /// Add every node of `plan` that `stats` (an EXPLAIN ANALYZE
    /// snapshot of its run) measured.
    pub fn add(&mut self, plan: &PhysicalPlan, stats: &[StageStats]) {
        if let (Some(s), Some(own)) = (node_stats(stats, plan.id()), self_wall(plan, stats)) {
            let kind = if s.pages > 0 {
                format!("{} (paged)", plan.label())
            } else if s.spill_bytes > 0 {
                format!("{} (spilled)", plan.label())
            } else {
                plan.label().to_string()
            };
            add_row(&mut self.kinds, &kind, own);
        }
        for input in plan.inputs() {
            self.add(input, stats);
        }
    }

    /// Add one run of a named phase of the caller's loop that took
    /// `spent` outside every operator.
    pub fn add_phase(&mut self, phase: &str, spent: Duration) {
        add_row(&mut self.phases, phase, spent);
    }

    /// Set the wall of the loop the operators and phases ran in.
    pub fn set_wall(&mut self, wall: Duration) {
        self.wall = Some(wall);
    }
}

impl std::fmt::Display for OperatorTimes {
    /// One line per kind, the most expensive first, then the total; then,
    /// when the loop was named, its phases, the unattributed rest and the
    /// loop wall.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut rows = self.kinds.clone();
        rows.sort_by_key(|row| std::cmp::Reverse(row.2));
        writeln!(f, "{:<20} {:>6} {:>12}", "operator", "runs", "self ms")?;
        for (kind, runs, total) in &rows {
            writeln!(f, "{kind:<20} {runs:>6} {:>12.3}", ms(*total))?;
        }
        let total: Duration = rows.iter().map(|r| r.2).sum();
        let runs: u64 = rows.iter().map(|r| r.1).sum();
        writeln!(f, "{:<20} {runs:>6} {:>12.3}", "total", ms(total))?;
        for (phase, runs, spent) in &self.phases {
            writeln!(f, "{phase:<20} {runs:>6} {:>12.3}", ms(*spent))?;
        }
        if let Some(wall) = self.wall {
            // Negative when the rows overlap and add up to more than the
            // loop.
            let phases: Duration = self.phases.iter().map(|r| r.2).sum();
            let rest = ms(wall) - ms(total) - ms(phases);
            writeln!(f, "{:<20} {:>6} {rest:>12.3}", "unattributed", "")?;
            writeln!(f, "{:<20} {:>6} {:>12.3}", "loop", "", ms(wall))?;
        }
        Ok(())
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

    #[test]
    fn self_times_add_up_to_the_root_wall() {
        use crate::exec::StatsRegistry;
        use crate::value::Value;
        let catalog = Catalog::new();
        let graph = Schema::of(&[("node1", DataType::Int), ("node2", DataType::Int)]);
        let rows = (0..400i64)
            .map(|i| vec![Value::Int(i % 37), Value::Int(i % 53)])
            .collect();
        catalog.register("graph", Table::from_rows(graph, rows).unwrap());
        let communities = Schema::of(&[("comm_name", DataType::Int), ("query", DataType::Int)]);
        let rows = (0..53i64)
            .map(|i| vec![Value::Int(i / 4), Value::Int(i)])
            .collect();
        catalog.register("communities", Table::from_rows(communities, rows).unwrap());
        let registry = StatsRegistry::new();
        let ctx = ExecContext::new(catalog).with_stats(registry.clone());
        let plan = LogicalPlan::scan("graph")
            .join(
                LogicalPlan::scan("communities"),
                Expr::col("node2").eq(Expr::col("query")),
            )
            .filter(Expr::col("node1").gt(Expr::col("comm_name")))
            .aggregate(
                vec!["comm_name".into()],
                vec![AggCall {
                    func: AggFunc::ArgMax,
                    args: vec!["node2".into(), "node1".into()],
                    alias: "owner".into(),
                }],
            );
        let physical = optimize(&plan, &ctx).unwrap();
        ctx.execute_physical(&physical).unwrap();
        let stats = registry.snapshot();

        fn self_sum(plan: &PhysicalPlan, stats: &[StageStats]) -> Duration {
            let own = self_wall(plan, stats).expect("every node ran");
            let inputs = plan.inputs().into_iter();
            own + inputs.map(|p| self_sum(p, stats)).sum::<Duration>()
        }
        let root = node_stats(&stats, physical.id()).unwrap().wall;
        assert!(physical.inputs().len() == 1 && root > Duration::ZERO);
        assert_eq!(self_sum(&physical, &stats), root);
        let text = explain_analyze(&physical, &stats);
        let lines = text.lines().count();
        assert_eq!(text.matches(", self ").count(), lines, "{text}");
        let mut times = OperatorTimes::default();
        times.add(&physical, &stats);
        let table = times.to_string();
        for kind in ["aggregate", "filter", "join", "scan", "total"] {
            assert!(table.lines().any(|l| l.starts_with(kind)), "{table}");
        }
    }

    /// The number before `label` in `line`, as in `… 12 pages (…`.
    fn count_before(line: &str, label: &str) -> u64 {
        let head = &line[..line.find(label).unwrap_or_else(|| panic!("{label}: {line}"))];
        head.rsplit([' ', '(']).next().unwrap().parse().unwrap()
    }

    #[test]
    fn paged_scans_print_their_pool_traffic() {
        use crate::exec::StatsRegistry;
        use crate::paged::PagedTable;
        use crate::value::Value;
        use esharp_storage::BufferPool;
        use std::sync::Arc;
        let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
        let rows = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::str(format!("name-{i}"))])
            .collect();
        let table = Table::from_rows(schema, rows).unwrap();
        let dir = std::env::temp_dir().join(format!("esharp_explain_pages_{}", std::process::id()));
        let paged = Arc::new(PagedTable::create(&dir.join("t"), &table).unwrap());
        assert!(paged.page_count() > 4);
        let catalog = Catalog::new();
        // Three frames: the scan turns its small ring over, and the
        // second run of the plan finds the ring's pages resident.
        catalog.register_paged("t", Arc::clone(&paged), Arc::new(BufferPool::new(3)));
        let registry = StatsRegistry::new();
        let ctx = ExecContext::new(catalog).with_stats(registry.clone());
        let physical = optimize(&LogicalPlan::scan("t"), &ctx).unwrap();
        let mut hits = 0;
        for _ in 0..2 {
            let mark = registry.len();
            ctx.execute_physical(&physical).unwrap();
            let text = explain_analyze(&physical, &registry.since(mark));
            let line = text.lines().find(|l| l.contains("SeqScan: t")).unwrap();
            assert_eq!(count_before(line, " pages ("), paged.page_count(), "{line}");
            let (h, m) = (count_before(line, " hits"), count_before(line, " misses"));
            assert_eq!(h + m, paged.page_count(), "{line}");
            hits += h;
        }
        assert!(hits > 0, "the second scan finds pages resident");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
