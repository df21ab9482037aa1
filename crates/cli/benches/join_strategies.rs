//! §4.2.3 ablation: replicated (broadcast) vs co-partitioned execution of
//! the neighborhood-listing join (`graph ⋈ communities`), serial vs
//! parallel, as the physical executor runs it (`PhysicalPlan::HashJoin`
//! with the strategy forced, built on `communities`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esharp_relation::{
    Catalog, Cluster, DataType, Estimate, ExecContext, Expr, JoinStrategy, PhysicalPlan, Schema,
    Table, TableBuilder, Value,
};
use std::hint::black_box;

fn make_graph_table(edges: usize) -> Table {
    let schema = Schema::of(&[
        ("node1", DataType::Int),
        ("node2", DataType::Int),
        ("multiplicity", DataType::Int),
    ]);
    let mut b = TableBuilder::with_capacity(schema, edges);
    for i in 0..edges as i64 {
        b.push_row(vec![
            Value::Int(i % 997),
            Value::Int((i * 31) % 997),
            Value::Int(1 + i % 5),
        ])
        .unwrap();
    }
    b.finish()
}

fn make_communities_table(nodes: i64) -> Table {
    let schema = Schema::of(&[("comm_name", DataType::Int), ("query", DataType::Int)]);
    let mut b = TableBuilder::with_capacity(schema, nodes as usize);
    for i in 0..nodes {
        b.push_row(vec![Value::Int(i / 7), Value::Int(i)]).unwrap();
    }
    b.finish()
}

/// `graph ⋈ communities ON node1 = query`, building on `communities`.
fn join_plan(strategy: JoinStrategy) -> PhysicalPlan {
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
    PhysicalPlan::HashJoin {
        id: 0,
        left: scan(1, "graph"),
        right: scan(2, "communities"),
        on: Expr::col("node1").eq(Expr::col("query")),
        build_left: false,
        strategy,
        est,
    }
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_strategies");
    group.sample_size(20);
    for &edges in &[20_000usize, 100_000] {
        let catalog = Catalog::new();
        catalog.register("graph", make_graph_table(edges));
        catalog.register("communities", make_communities_table(997));
        for (label, workers, strategy) in [
            ("serial", 1usize, JoinStrategy::Broadcast),
            ("broadcast_4w", 4, JoinStrategy::Broadcast),
            ("copartitioned_4w", 4, JoinStrategy::CoPartitioned),
        ] {
            let ctx = ExecContext::new(catalog.clone()).with_cluster(Cluster::new(workers));
            let plan = join_plan(strategy);
            group.bench_function(BenchmarkId::new(label, edges), |b| {
                b.iter(|| black_box(ctx.execute_physical(&plan).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_joins);
criterion_main!(benches);
