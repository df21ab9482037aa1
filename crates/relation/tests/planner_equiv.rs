//! Planner equivalence: the optimized physical plan — predicate,
//! projection and limit pushdown into the paged scan, cost-chosen join
//! build side and strategy, and spilling operators at tiny memory
//! grants — must produce **bit-identical** tables to the naive
//! unoptimized in-memory executor, over random tables and queries.
//!
//! The optimized side runs the worst case on purpose: tables registered
//! as *paged* heap files behind a two-frame buffer pool, memory grants
//! small enough to force external sort, partitioned hash-join spill and
//! aggregate spill, and both serial and multi-worker clusters.

use esharp_relation::oracle::run_sql_unoptimized;
use esharp_relation::{
    run_sql, BufferPool, Catalog, Cluster, DataType, ExecContext, PagedTable, Schema, Table,
    Value,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows for the fact table `t(k int, v int, name str)`.
fn arb_t(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..8, -100i64..100), 0..max_rows).prop_map(|rows| {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("name", DataType::Str),
        ]);
        Table::from_rows(
            schema,
            rows.into_iter()
                .map(|(k, v)| vec![Value::Int(k), Value::Int(v), Value::str(format!("n{}", k % 4))])
                .collect(),
        )
        .unwrap()
    })
}

/// Rows for the dimension table `u(k2 int, w int)`.
fn arb_u(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..8, -50i64..50), 0..max_rows).prop_map(|rows| {
        let schema = Schema::of(&[("k2", DataType::Int), ("w", DataType::Int)]);
        Table::from_rows(
            schema,
            rows.into_iter()
                .map(|(k, w)| vec![Value::Int(k), Value::Int(w)])
                .collect(),
        )
        .unwrap()
    })
}

/// Query shapes whose output is fully deterministic on both paths (scans
/// preserve row order; every group-by/join query totally orders its
/// output), so plain `==` on the result tables is the right comparison.
fn query(shape: u8, x: i64, n: usize) -> String {
    match shape % 7 {
        // Pushdown trifecta: predicate + projection + limit into the scan.
        0 => format!("select name, v from t where v >= {x} and k < 6 limit {n}"),
        // Distinct blocks projection pruning; sort above.
        1 => "select distinct k from t order by k".into(),
        // Join with residual filter; total order on all output columns.
        2 => format!(
            "select k, v, w from t inner join u on k = k2 \
             where w >= {x} order by k, v, w limit {n}"
        ),
        // Aggregate with every function over int inputs.
        3 => format!(
            "select k, sum(v) as sv, count(*) as c, min(v) as lo, max(v) as hi, \
             avg(v) as mean from t where v >= {x} group by k order by k"
        ),
        // Join feeding an aggregate (the clustering-SQL shape).
        4 => "select k, sum(w) as sw from t inner join u on k = k2 group by k order by k".into(),
        // Union-all: branch-ordered concatenation, deterministic as-is;
        // the pushdown clones the (per-branch) predicates downward.
        5 => format!(
            "select k, v from t where v >= {x} \
             union all select k2 as k, w as v from u where w >= {x}"
        ),
        // Sort with a descending key and a limit on top.
        _ => format!("select k, v from t order by v desc, k limit {n}"),
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

/// Run `sql` through the optimizer against *paged* tables with a tiny
/// buffer pool and the given grant, and through the naive logical
/// executor against in-memory tables. Returns both results.
fn run_both(
    t: &Table,
    u: &Table,
    sql: &str,
    grant: usize,
    workers: usize,
) -> (Table, Table) {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "esharp_planner_equiv_{}_{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let paged_catalog = Catalog::new();
    let pool = std::sync::Arc::new(BufferPool::new(2));
    let paged_t = PagedTable::create(&dir.join("t"), t).unwrap();
    let paged_u = PagedTable::create(&dir.join("u"), u).unwrap();
    paged_catalog.register_paged("t", paged_t.into(), pool.clone());
    paged_catalog.register_paged("u", paged_u.into(), pool);
    let ctx_opt = ExecContext::new(paged_catalog)
        .with_cluster(Cluster::new(workers))
        .with_memory_grant(grant)
        .with_spill_root(dir.join("spill"));

    let mem_catalog = Catalog::new();
    mem_catalog.register("t", t.clone());
    mem_catalog.register("u", u.clone());
    let ctx_naive = ExecContext::new(mem_catalog);

    let optimized = run_sql(sql, &ctx_opt).unwrap();
    let naive = run_sql_unoptimized(sql, &ctx_naive).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (optimized, naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: optimized out-of-core execution under a
    /// spill-forcing grant is bit-identical to the naive in-memory path.
    #[test]
    fn optimized_plan_is_bit_identical_to_naive_exec(
        t in arb_t(50),
        u in arb_u(30),
        shape in 0u8..7,
        x in -60i64..60,
        n in 1usize..25,
        grant_idx in 0usize..3,
        many_workers in any::<bool>(),
    ) {
        // Tiny grants force external sort / hash spill; the large one
        // keeps everything in memory on the same physical plan shapes.
        let grant = [64usize, 512, 1 << 20][grant_idx];
        let workers = if many_workers { 3 } else { 1 };
        let sql = query(shape, x, n);
        let (optimized, naive) = run_both(&t, &u, &sql, grant, workers);
        prop_assert_eq!(
            optimized, naive,
            "optimized != naive for {} (grant {}, {} workers)", sql, grant, workers
        );
    }
}
