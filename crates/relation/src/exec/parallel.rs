//! The worker pool relational operators run on, and the two join
//! strategies of §4.2.3.
//!
//! The expensive neighborhood join runs either as a *replicated*
//! (broadcast) join — the small `communities` table is copied to every
//! worker and the large `graph` table is chunked — or as a
//! *co-partitioned* join, where both inputs are hash-partitioned on the
//! join key and joined partition-wise. The physical executor runs both
//! (`PhysicalPlan::HashJoin`, on either build side) over
//! [`Cluster::map_partitions`]. Grouping runs as "one map-reduce pass":
//! partition on the group key, aggregate each partition independently
//! ([`Cluster::aggregate`]).

use crate::error::RelResult;
use crate::exec::partition::hash_partition;
use crate::ops::{aggregate, AggSpec};
use crate::table::Table;
use esharp_par::{shared_pool, ThreadPool};
use std::sync::Arc;

/// Which physical join strategy to use (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Replicate the build side to every worker; chunk the probe side.
    /// Best when the build side fits in memory on every node — the paper's
    /// preferred plan for the communities⋈graph join.
    Broadcast,
    /// Hash-partition both inputs on the join key and join partition-wise
    /// ("chain two map-side joins" in the paper's terms). Needed when
    /// neither side fits on one node.
    CoPartitioned,
}

/// A pool of logical workers backed by the process-wide persistent
/// [`esharp_par`] pool: threads are built once per worker count and reused
/// across every join and aggregation — mirroring the paper's elastic VM
/// allocation where "a relational operator can use between one and
/// hundreds of virtual machines", minus the per-operator start-up cost.
/// Cloning a `Cluster` shares the pool; it never spawns.
#[derive(Debug, Clone)]
pub struct Cluster {
    pool: Arc<ThreadPool>,
}

impl Cluster {
    /// A cluster with the given worker count (minimum 1), attached to the
    /// shared pool for that count.
    pub fn new(workers: usize) -> Self {
        Cluster {
            pool: shared_pool(workers),
        }
    }

    /// A serial "cluster" of one worker.
    pub fn serial() -> Self {
        Cluster::new(1)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Apply `f` to every partition concurrently, preserving partition
    /// order in the result.
    pub fn map_partitions<F>(&self, parts: Vec<Table>, f: F) -> RelResult<Vec<Table>>
    where
        F: Fn(usize, Table) -> RelResult<Table> + Sync,
    {
        if self.workers() == 1 || parts.len() <= 1 {
            return parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| f(i, p))
                .collect();
        }
        let f = &f;
        let tasks: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| move || f(i, part))
            .collect();
        self.pool.run(tasks).into_iter().collect()
    }

    /// Parallel grouped aggregation: partition on the group keys (the "map"
    /// emitting on the key), aggregate each partition (the "reduce"), and
    /// concatenate — legal because hash partitioning co-locates groups.
    pub fn aggregate(
        &self,
        input: &Table,
        group_keys: &[usize],
        aggs: &[AggSpec],
    ) -> RelResult<Table> {
        if self.workers() == 1 || group_keys.is_empty() {
            return aggregate(input, group_keys, aggs);
        }
        let parts = hash_partition(input, group_keys, self.workers());
        let results = self.map_partitions(parts, |_, part| aggregate(&part, group_keys, aggs))?;
        Table::concat(&results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::expr::Expr;
    use crate::ops::AggFunc;
    use crate::physical::{Estimate, PhysicalPlan};
    use crate::plan::ExecContext;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn graph(n: i64) -> Table {
        let schema = Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]);
        Table::from_rows(
            schema,
            (0..n)
                .map(|i| vec![Value::Int(i % 17), Value::Int((i * 7) % 13)])
                .collect(),
        )
        .unwrap()
    }

    fn nodes() -> Table {
        let schema = Schema::of(&[("id", DataType::Int), ("comm", DataType::Int)]);
        Table::from_rows(
            schema,
            (0..17).map(|i| vec![Value::Int(i), Value::Int(i / 3)]).collect(),
        )
        .unwrap()
    }

    /// `graph ⋈ nodes ON src = id` through the physical executor, with the
    /// strategy, build side and worker count forced.
    fn join(workers: usize, strategy: JoinStrategy, build_left: bool) -> Vec<Vec<Value>> {
        let catalog = Catalog::new();
        catalog.register("graph", graph(200));
        catalog.register("nodes", nodes());
        let ctx = ExecContext::new(catalog).with_cluster(Cluster::new(workers));
        let est = Estimate {
            rows: 0.0,
            bytes: 0.0,
            measured: false,
        };
        let scan = |id, table: &str| {
            Box::new(PhysicalPlan::SeqScan {
                id,
                table: table.into(),
                projection: None,
                predicate: None,
                limit: None,
                est,
            })
        };
        let plan = PhysicalPlan::HashJoin {
            id: 0,
            left: scan(1, "graph"),
            right: scan(2, "nodes"),
            on: Expr::col("src").eq(Expr::col("id")),
            build_left,
            strategy,
            est,
        };
        ctx.execute_physical(&plan).unwrap().sorted_rows()
    }

    #[test]
    fn broadcast_matches_serial_join() {
        for build_left in [false, true] {
            let serial = join(1, JoinStrategy::Broadcast, build_left);
            assert_eq!(serial.len(), 200);
            assert_eq!(join(4, JoinStrategy::Broadcast, build_left), serial);
        }
    }

    #[test]
    fn copartitioned_matches_broadcast() {
        for build_left in [false, true] {
            assert_eq!(
                join(4, JoinStrategy::CoPartitioned, build_left),
                join(4, JoinStrategy::Broadcast, build_left)
            );
        }
    }

    #[test]
    fn parallel_aggregate_matches_serial() {
        let g = graph(500);
        let aggs = [
            AggSpec::count("n"),
            AggSpec::on(AggFunc::Sum, 1, "s"),
            AggSpec::on(AggFunc::Max, 1, "m"),
        ];
        let serial = Cluster::serial().aggregate(&g, &[0], &aggs).unwrap();
        let par = Cluster::new(8).aggregate(&g, &[0], &aggs).unwrap();
        assert_eq!(serial.sorted_rows(), par.sorted_rows());
    }

    #[test]
    fn argmax_survives_partitioning() {
        let g = graph(500);
        let aggs = [AggSpec::argmax(1, 1, "best")];
        let serial = Cluster::serial().aggregate(&g, &[0], &aggs).unwrap();
        let par = Cluster::new(4).aggregate(&g, &[0], &aggs).unwrap();
        assert_eq!(serial.sorted_rows(), par.sorted_rows());
    }
}
