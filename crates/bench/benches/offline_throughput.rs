//! Offline kernel throughput at 1/2/4/8 workers: graph build (row-wise
//! pair accumulation), clustering statistics (dense accumulators), and the
//! communities⋈graph join on the persistent pool. The committed
//! `BENCH_offline.json` is the same measurement via `esharp bench --json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esharp_bench::offline::OfflineWorkload;
use std::hint::black_box;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_offline_throughput(c: &mut Criterion) {
    let workload = OfflineWorkload::generate(100_000, 2016);
    let mut group = c.benchmark_group("offline_throughput");
    group.sample_size(10);

    group.bench_function("graph_build_hashmap_reference", |b| {
        b.iter(|| black_box(workload.reference_build()))
    });
    for workers in WORKER_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("graph_build_flat", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(workload.build(workers))),
        );
    }
    for workers in WORKER_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("cluster_dense_stats", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(workload.cluster(workers))),
        );
    }
    for workers in WORKER_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("relation_join_aggregate", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(workload.join_aggregate(workers))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_offline_throughput);
criterion_main!(benches);
