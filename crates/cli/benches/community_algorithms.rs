//! Ablation bench: clustering algorithms on planted-community graphs.
//!
//! Compares the paper's 3-step parallel algorithm (serial and threaded),
//! the same loop through the Figure 4 SQL path, Newman/CNM, Louvain and
//! label propagation — runtime per algorithm and per graph size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esharp_cli::planted_multigraph;
use esharp_community::{
    cluster_label_propagation, cluster_louvain, cluster_newman, cluster_parallel, cluster_sql,
    LabelPropConfig, LouvainConfig, NewmanConfig, ParallelConfig, SqlClusterConfig,
};
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("community_algorithms");
    group.sample_size(10);
    for &(groups, size) in &[(10usize, 10usize), (30, 12)] {
        let graph = planted_multigraph(groups, size, 42);
        let nodes = groups * size;
        group.bench_with_input(
            BenchmarkId::new("parallel_3step_1w", nodes),
            &graph,
            |b, g| {
                b.iter(|| {
                    black_box(cluster_parallel(
                        g,
                        &ParallelConfig {
                            workers: 1,
                            ..Default::default()
                        },
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel_3step_4w", nodes),
            &graph,
            |b, g| {
                b.iter(|| {
                    black_box(cluster_parallel(
                        g,
                        &ParallelConfig {
                            workers: 4,
                            ..Default::default()
                        },
                    ))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("sql_figure4", nodes), &graph, |b, g| {
            b.iter(|| black_box(cluster_sql(g, &SqlClusterConfig::default()).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("newman_cnm", nodes), &graph, |b, g| {
            b.iter(|| black_box(cluster_newman(g, &NewmanConfig::default())))
        });
        group.bench_with_input(BenchmarkId::new("louvain", nodes), &graph, |b, g| {
            b.iter(|| black_box(cluster_louvain(g, &LouvainConfig::default())))
        });
        group.bench_with_input(BenchmarkId::new("label_propagation", nodes), &graph, |b, g| {
            b.iter(|| black_box(cluster_label_propagation(g, &LabelPropConfig::default())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
