//! SQL-based modularity maximization (§4.2.2, Figure 4) — the paper's
//! headline implementation, executed on the `esharp-relation` engine.
//!
//! Each iteration runs the two declarative statements of Figure 4 through
//! the SQL front-end:
//!
//! ```sql
//! -- Step 1: neighborhood creation
//! neighbors  = select c1.comm_name as comm1, c2.comm_name as comm2,
//!                     ModulGain(c1.comm_name, c2.comm_name) as gain
//!              from graph
//!              inner join communities c1 on c1.query = graph.node1
//!              inner join communities c2 on c2.query = graph.node2
//!              where c1.comm_name <> c2.comm_name
//!                and ModulGain(c1.comm_name, c2.comm_name) > 0;
//! -- Step 2: neighborhood separation
//! partitions = select comm2, argmax(gain, comm1) as owner
//!              from neighbors group by comm2;
//! ```
//!
//! `ModulGain` is registered as a scalar UDF over the current partition
//! statistics (equations 8–9), evaluated a column at a time. Step 3 —
//! "grouping and renaming … executed in one map-reduce pass" — loads the
//! `partitions` rows into an owner array and hands it to the native
//! loop's Step 3: communities absent from `partitions` (no positive
//! neighbor) keep their name, and mutual selections collapse to the
//! smaller id ([`crate::parallel::choose_owners`]), so the two paths
//! produce identical partitions iteration for iteration.

use crate::assignment::Assignment;
use crate::modularity::{delta_mod, PartitionStats};
use crate::parallel::{aggregate, ClusteringOutcome, IterationStat};
use esharp_graph::relation_io::multigraph_to_table;
use esharp_graph::MultiGraph;
use esharp_relation::{
    explain_analyze, explain_physical, optimize, plan_sql, BufferPool, Catalog, Cluster, Column,
    DataType, ExecContext, OperatorTimes, PagedTable, PhysicalPlan, PlanHistory, PoolStats,
    RelError, RelResult, ScalarUdf, StageStats, StatsRegistry, Table, Value,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the SQL-based clustering loop.
#[derive(Debug, Clone)]
pub struct SqlClusterConfig {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Worker threads for the parallel joins/aggregations.
    pub workers: usize,
    /// Optional per-operator statistics sink (Table 9 accounting).
    pub stats: Option<StatsRegistry>,
    /// When set, the graph table is written to an on-disk paged heap
    /// file and every scan streams its pages through a buffer pool of
    /// this many bytes (out-of-core execution). `None` keeps the graph
    /// in memory.
    pub buffer_pool_bytes: Option<usize>,
    /// Memory grant in bytes for blocking operators (sort, hash join,
    /// hash aggregate): an operator whose working set exceeds the grant
    /// spills to disk instead of growing. `None` = never spill.
    pub memory_grant: Option<usize>,
    /// Capture EXPLAIN text for the Figure 4 statements (the first
    /// iteration's plan and the history-informed re-plan of the second)
    /// and EXPLAIN ANALYZE text for both statements of every iteration,
    /// with each operator's self time, ending with each operator kind's
    /// self time summed over all iterations, returned in
    /// [`SqlRunReport::explain`].
    pub explain: bool,
}

impl Default for SqlClusterConfig {
    fn default() -> Self {
        SqlClusterConfig {
            max_iterations: 20,
            workers: 1,
            stats: None,
            buffer_pool_bytes: None,
            memory_grant: None,
            explain: false,
        }
    }
}

/// Side-channel observations from [`cluster_sql_report`].
#[derive(Debug, Clone, Default)]
pub struct SqlRunReport {
    /// Buffer-pool counters when the graph ran out-of-core
    /// (`buffer_pool_bytes` was set).
    pub pool: Option<PoolStats>,
    /// EXPLAIN / EXPLAIN ANALYZE text when `explain` was requested.
    pub explain: Option<String>,
}

/// The Figure 4 statements (in this engine's dialect — standard `ON`
/// equality conditions instead of the paper's shorthand `on query2`).
pub const NEIGHBORS_SQL: &str = "\
select c1.comm_name as comm1, c2.comm_name as comm2, \
       ModulGain(c1.comm_name, c2.comm_name) as gain \
from graph \
inner join communities c1 on c1.query = graph.node1 \
inner join communities c2 on c2.query = graph.node2 \
where c1.comm_name <> c2.comm_name \
  and ModulGain(c1.comm_name, c2.comm_name) > 0";

/// Step 2 of Figure 4.
pub const PARTITIONS_SQL: &str =
    "select comm2, argmax(gain, comm1) as owner from neighbors group by comm2";

/// Run the paper's SQL-based clustering on a multigraph.
pub fn cluster_sql(graph: &MultiGraph, config: &SqlClusterConfig) -> RelResult<ClusteringOutcome> {
    cluster_sql_report(graph, config).map(|(outcome, _)| outcome)
}

/// Distinguishes concurrent out-of-core runs sharing one temp dir.
static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Like [`cluster_sql`], but also returns a [`SqlRunReport`] with
/// buffer-pool counters and (when requested) EXPLAIN output.
pub fn cluster_sql_report(
    graph: &MultiGraph,
    config: &SqlClusterConfig,
) -> RelResult<(ClusteringOutcome, SqlRunReport)> {
    let catalog = Catalog::new();
    let graph_table = multigraph_to_table(graph)?;

    // Working directory for heap and spill files; removed on exit.
    let workdir = std::env::temp_dir().join(format!(
        "esharp-sql-{}-{}",
        std::process::id(),
        RUN_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let needs_disk = config.buffer_pool_bytes.is_some() || config.memory_grant.is_some();
    if needs_disk {
        std::fs::create_dir_all(&workdir)?;
    }

    let pool = match config.buffer_pool_bytes {
        Some(bytes) => {
            let base = workdir.join("graph");
            let paged = Arc::new(PagedTable::create(&base, &graph_table)?);
            let pool = Arc::new(BufferPool::with_capacity_bytes(bytes));
            catalog.register_paged("graph", paged, pool.clone());
            Some(pool)
        }
        None => {
            catalog.register("graph", graph_table);
            None
        }
    };

    // Record stats even when the caller did not ask for them: the measured
    // per-node rows/bytes feed the next iteration's plan (PlanHistory).
    let registry = config.stats.clone().unwrap_or_default();
    let mut ctx = ExecContext::new(catalog)
        .with_cluster(Cluster::new(config.workers))
        .with_stats(registry.clone());
    if let Some(grant) = config.memory_grant {
        ctx = ctx.with_memory_grant(grant);
    }
    if needs_disk {
        ctx = ctx.with_spill_root(workdir.clone());
    }
    let result = cluster_sql_inner(graph, config, ctx, &registry, pool.as_deref());
    if needs_disk {
        let _ = std::fs::remove_dir_all(&workdir);
    }
    result
}

fn cluster_sql_inner(
    graph: &MultiGraph,
    config: &SqlClusterConfig,
    mut ctx: ExecContext,
    registry: &StatsRegistry,
    pool: Option<&BufferPool>,
) -> RelResult<(ClusteringOutcome, SqlRunReport)> {
    let started = Instant::now();
    let mut report = SqlRunReport::default();
    let mut explain_text = String::new();
    // Operator self times and the loop's own phases around them.
    let mut times = OperatorTimes::default();
    // Per-statement measured feedback: the two Figure 4 statements keep
    // their plan shape across iterations, so node ids line up and the
    // optimizer can replace its static guesses with measured rows/bytes.
    let mut neighbors_history = PlanHistory::new();
    let mut partitions_history = PlanHistory::new();

    let mut assignment = Assignment::singletons(graph.num_nodes());
    // The statistics of the current assignment: computed once per
    // assignment, for its trace entry and for the next iteration's
    // ModulGain.
    let mut stats = timed(&mut times, PARTITION_STATS, || {
        PartitionStats::compute_with(graph, &assignment, config.workers)
    });
    let mut trace = Vec::with_capacity(config.max_iterations + 1);
    trace.push(IterationStat {
        iteration: 0,
        communities: graph.num_nodes(),
        total_modularity: stats.total_modularity(),
        merges: 0,
    });

    for iteration in 1..=config.max_iterations {
        // Register the current communities table and the ModulGain UDF
        // over this iteration's partition statistics.
        let communities = timed(&mut times, "communities table", || {
            esharp_graph::relation_io::assignment_to_table(assignment.as_slice())
        })?;
        ctx.catalog.register("communities", communities);
        timed(&mut times, "ModulGain build", || {
            ctx.udfs.register(Arc::new(ModulGain::new(&stats)))
        });

        // Step 1 (SQL): neighborhood creation, planned with last
        // iteration's measurements.
        let (neighbors, nphys, run) = run_statement(
            &mut ctx,
            registry,
            NEIGHBORS_SQL,
            &mut neighbors_history,
            &mut times,
        )?;
        if config.explain {
            if iteration <= 2 {
                explain_text.push_str(&format!(
                    "-- iteration {iteration}: neighbors (EXPLAIN{})\n{}",
                    if iteration == 2 {
                        ", history-informed"
                    } else {
                        ""
                    },
                    explain_physical(&nphys)
                ));
            }
            explain_text.push_str(&format!(
                "-- iteration {iteration}: neighbors (EXPLAIN ANALYZE)\n{}",
                explain_analyze(&nphys, &run)
            ));
            times.add(&nphys, &run);
        }
        ctx.catalog.register("neighbors", neighbors);

        // Step 2 (SQL): neighborhood separation.
        let (partitions, pphys, run) = run_statement(
            &mut ctx,
            registry,
            PARTITIONS_SQL,
            &mut partitions_history,
            &mut times,
        )?;
        if config.explain {
            explain_text.push_str(&format!(
                "-- iteration {iteration}: partitions (EXPLAIN ANALYZE)\n{}",
                explain_analyze(&pphys, &run)
            ));
            times.add(&pphys, &run);
        }

        // Step 3: aggregation/renaming, over an owner array filled from
        // the `partitions` rows.
        let merged = timed(&mut times, "step 3", || -> RelResult<_> {
            let ints = |name: &str| {
                partitions
                    .column_by_name(name)?
                    .as_int()
                    .ok_or_else(|| RelError::Eval(format!("non-int {name} column")))
            };
            let mut owners: Vec<u32> = (0..stats.id_bound() as u32).collect();
            for (&c, &o) in ints("comm2")?.iter().zip(ints("owner")?) {
                owners[c as usize] = o as u32;
            }
            Ok(aggregate(&assignment, &stats, &mut owners))
        })?;
        let Some((renamed, merges)) = merged else {
            break;
        };
        assignment = renamed;
        stats = timed(&mut times, PARTITION_STATS, || {
            PartitionStats::compute_with(graph, &assignment, config.workers)
        });
        trace.push(IterationStat {
            iteration,
            communities: stats.num_communities(),
            total_modularity: stats.total_modularity(),
            merges,
        });
    }
    times.set_wall(started.elapsed());

    report.pool = pool.map(|p| p.stats());
    if config.explain {
        explain_text.push_str(&format!(
            "-- self time by operator, all iterations\n{times}"
        ));
        report.explain = Some(explain_text);
    }
    Ok((ClusteringOutcome { assignment, trace }, report))
}

/// The loop phase [`PartitionStats::compute_with`] runs in, before the
/// loop and in every iteration.
const PARTITION_STATS: &str = "partition statistics";

/// Run `f`, adding its wall time to `times` as one run of `phase`.
fn timed<T>(times: &mut OperatorTimes, phase: &str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    times.add_phase(phase, started.elapsed());
    out
}

/// Plan one Figure 4 statement with the measurements of its previous run
/// in `history`, run it, and leave the measurements of this run in
/// `history` for the next. Returns the result, the plan and the stats of
/// this run; planning and the history bookkeeping are phases of `times`.
fn run_statement(
    ctx: &mut ExecContext,
    registry: &StatsRegistry,
    sql: &str,
    history: &mut PlanHistory,
    times: &mut OperatorTimes,
) -> RelResult<(Table, PhysicalPlan, Vec<StageStats>)> {
    ctx.history = std::mem::take(history);
    let plan = timed(times, "planning", || optimize(&plan_sql(sql, ctx)?, ctx))?;
    let mark = timed(times, "plan history", || registry.len());
    let result = ctx.execute_physical(&plan)?;
    let run = timed(times, "plan history", || {
        let run = registry.since(mark);
        *history = PlanHistory::from_stats(&run);
        run
    });
    Ok((result, plan, run))
}

/// `ModulGain(comm1, comm2)`: the gain of merging two communities under
/// one iteration's partition statistics (equations 8–9), evaluated as a
/// typed `INT × INT → FLOAT` kernel over the argument columns.
struct ModulGain {
    /// Degree sum per community id; 0 for an id that is no community.
    degree: Vec<u64>,
    /// Inter-community edge counts by [`pair_key`].
    between: HashMap<u64, u64, BuildHasherDefault<PairHasher>>,
    /// Total unit edges `m_G`.
    m_g: f64,
}

impl ModulGain {
    fn new(stats: &PartitionStats) -> Self {
        ModulGain {
            degree: stats.degrees().to_vec(),
            between: stats
                .between()
                .iter()
                .map(|&(a, b, m)| (pair_key(a, b), m))
                .collect(),
            m_g: stats.total_edges() as f64,
        }
    }

    /// [`PartitionStats::delta_mod`] of two community ids, with the same
    /// operands in the same order.
    fn gain(&self, a: i64, b: i64) -> f64 {
        let (a, b) = (a as u32, b as u32);
        if a == b {
            return 0.0;
        }
        let m12 = self.between.get(&pair_key(a, b)).copied().unwrap_or(0) as f64;
        let degree = |c: u32| self.degree.get(c as usize).copied().unwrap_or(0) as f64;
        delta_mod(m12, degree(a), degree(b), self.m_g)
    }
}

/// An unordered community pair as one integer key.
fn pair_key(a: u32, b: u32) -> u64 {
    (u64::from(a.min(b)) << 32) | u64::from(a.max(b))
}

/// Hashes a [`pair_key`] with one multiply, folding the well-mixed high
/// half onto the low bits the table indexes by.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

fn modulgain_args_error() -> RelError {
    RelError::Eval("ModulGain expects 2 integer community ids".into())
}

impl ScalarUdf for ModulGain {
    fn name(&self) -> &str {
        "ModulGain"
    }

    fn output_type(&self) -> DataType {
        DataType::Float
    }

    fn invoke(&self, args: &[Value]) -> RelResult<Value> {
        let [a, b] = args else {
            return Err(modulgain_args_error());
        };
        let (Some(a), Some(b)) = (a.as_int(), b.as_int()) else {
            return Err(modulgain_args_error());
        };
        Ok(Value::Float(self.gain(a, b)))
    }

    fn invoke_column(&self, args: &[&Column], rows: usize) -> RelResult<Column> {
        if rows == 0 {
            return Ok(Column::Float(Vec::new()));
        }
        let [a, b] = args else {
            return Err(modulgain_args_error());
        };
        let (Some(a), Some(b)) = (a.as_int(), b.as_int()) else {
            return Err(modulgain_args_error());
        };
        Ok(Column::Float(
            a.iter().zip(b).map(|(&a, &b)| self.gain(a, b)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{cluster_parallel, ParallelConfig};

    fn two_cliques() -> MultiGraph {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push((base + i, base + j, 1));
                }
            }
        }
        edges.push((3, 4, 1));
        MultiGraph::from_edges(8, edges)
    }

    #[test]
    fn sql_recovers_two_cliques() {
        let g = two_cliques();
        let out = cluster_sql(&g, &SqlClusterConfig::default()).unwrap();
        let truth = Assignment::from_vec(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert!(out.assignment.same_partition(&truth));
    }

    #[test]
    fn sql_matches_native_exactly() {
        let g = two_cliques();
        let sql = cluster_sql(&g, &SqlClusterConfig::default()).unwrap();
        let native = cluster_parallel(&g, &ParallelConfig::default());
        assert_eq!(sql.assignment, native.assignment);
        assert_eq!(sql.trace, native.trace);
    }

    #[test]
    fn sql_matches_native_on_four_workers() {
        let g = two_cliques();
        let sql = cluster_sql(&g, &SqlClusterConfig { workers: 4, ..Default::default() }).unwrap();
        let native = cluster_parallel(&g, &ParallelConfig::default());
        assert_eq!(sql.assignment, native.assignment);
    }

    #[test]
    fn out_of_core_matches_in_memory_bit_for_bit() {
        let g = two_cliques();
        let mem = cluster_sql(&g, &SqlClusterConfig::default()).unwrap();
        // Tiny pool (2 pages) and tiny grant force paging and spilling.
        let (ooc, report) = cluster_sql_report(
            &g,
            &SqlClusterConfig {
                buffer_pool_bytes: Some(2 * 8192),
                memory_grant: Some(256),
                explain: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(mem.assignment, ooc.assignment);
        assert_eq!(mem.trace, ooc.trace);
        let pool = report.pool.expect("paged run must report pool stats");
        assert!(pool.hits + pool.misses > 0);
        let text = report.explain.expect("explain was requested");
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("SeqScan: graph"));
        assert!(text.contains("actual:"));
        assert!(text.contains("history-informed"));
        assert!(text.contains(" pages ("), "paged scans print their pool traffic");
        assert!(text.contains("-- self time by operator, all iterations"));
        assert!(text.contains("scan (paged)"));
        assert!(text.lines().any(|l| l.starts_with("planning")));
    }

    #[test]
    fn explain_names_the_loop_outside_the_operators() {
        let (_, report) = cluster_sql_report(
            &two_cliques(),
            &SqlClusterConfig {
                explain: true,
                ..Default::default()
            },
        )
        .unwrap();
        let text = report.explain.expect("explain was requested");
        let table = &text[text.find("-- self time by operator").unwrap()..];
        let ms = |row: &str| -> f64 {
            let line = table.lines().find(|l| l.starts_with(row));
            let line = line.unwrap_or_else(|| panic!("no {row} row:\n{table}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        for row in [
            "communities table",
            "ModulGain build",
            "partition statistics",
            "planning",
            "plan history",
            "step 3",
        ] {
            assert!(ms(row) >= 0.0, "{table}");
        }
        // The operators and the named phases fit inside the loop wall.
        assert!(ms("unattributed") >= 0.0, "{table}");
        assert!(ms("loop") >= ms("total"), "{table}");
    }

    #[test]
    fn stats_registry_sees_the_joins() {
        let g = two_cliques();
        let registry = StatsRegistry::new();
        cluster_sql(
            &g,
            &SqlClusterConfig {
                stats: Some(registry.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = registry.snapshot();
        assert!(snap.iter().any(|s| s.stage == "join"));
        assert!(snap.iter().any(|s| s.stage == "aggregate"));
    }
}
