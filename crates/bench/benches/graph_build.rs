//! Ablation bench: similarity-graph construction through the URL inverted
//! index (the production path, after Baeza-Yates & Tiberi) vs naive
//! all-pairs cosine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esharp_graph::{build_graph, ClickVector, GraphConfig};
use esharp_querylog::{AggregatedLog, LogConfig, LogGenerator, World, WorldConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The baseline: cosine of every pair of click vectors, quadratic in the
/// vocabulary. Returns the `(a, b, similarity)` triples at or above the
/// threshold, nodes numbered in term-id order.
fn all_pairs_cosine(log: &AggregatedLog, min_similarity: f64) -> Vec<(u32, u32, f64)> {
    let mut pairs_per_term: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
    for record in &log.records {
        let pairs = pairs_per_term.entry(record.term).or_default();
        pairs.push((record.url, record.clicks as f64));
    }
    let vectors: Vec<ClickVector> = pairs_per_term
        .into_values()
        .map(ClickVector::from_pairs)
        .collect();
    let mut edges = Vec::new();
    for i in 0..vectors.len() {
        for j in i + 1..vectors.len() {
            let sim = vectors[i].cosine(&vectors[j]);
            if sim >= min_similarity {
                edges.push((i as u32, j as u32, sim));
            }
        }
    }
    edges
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    for &(domains, events) in &[(4usize, 20_000usize), (12, 60_000)] {
        let world = World::generate(&WorldConfig {
            domains_per_category: domains,
            ..WorldConfig::tiny(7)
        });
        let log = AggregatedLog::from_events(
            LogGenerator::new(
                &world,
                &LogConfig {
                    events,
                    ..LogConfig::tiny(7)
                },
            ),
            world.terms.len(),
        );
        let (filtered, _) = log.filter_min_support(10);
        let config = GraphConfig::default();
        let terms = filtered.num_terms();
        group.bench_with_input(
            BenchmarkId::new("inverted_index", terms),
            &filtered,
            |b, log| b.iter(|| black_box(build_graph(log, &world, &config))),
        );
        group.bench_with_input(
            BenchmarkId::new("naive_all_pairs", terms),
            &filtered,
            |b, log| b.iter(|| black_box(all_pairs_cosine(log, config.min_similarity))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_graph_build);
criterion_main!(benches);
