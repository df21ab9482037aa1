//! Table 9's online rows: expansion latency (< 100 ms in the paper) and
//! detection latency (< 1 s), measured on a built testbed.

use criterion::{criterion_group, criterion_main, Criterion};
use esharp_eval::{EvalScale, Testbed};
use std::hint::black_box;

fn bench_online(c: &mut Criterion) {
    let tb = Testbed::build(EvalScale::Small, 2016);
    let mut group = c.benchmark_group("online_latency");

    group.bench_function("expansion_lookup", |b| {
        b.iter(|| black_box(tb.esharp.domains().expand("49ers", 25)))
    });
    group.bench_function("baseline_detection", |b| {
        b.iter(|| black_box(tb.esharp.search_baseline(&tb.corpus, "49ers")))
    });
    group.bench_function("esharp_search", |b| {
        b.iter(|| black_box(tb.esharp.search(&tb.corpus, "49ers")))
    });
    group.bench_function("esharp_search_unknown_query", |b| {
        b.iter(|| black_box(tb.esharp.search(&tb.corpus, "no such topic")))
    });

    // The two hot-path halves in isolation: k-way union over interned
    // postings, and the flat-scratch ranking of its match set.
    let expansion = tb.esharp.domains().expand("49ers", 25);
    group.bench_function("match_kway_union", |b| {
        b.iter(|| black_box(tb.corpus.match_terms_with(&expansion, 1)))
    });
    let matched = tb.corpus.match_terms_with(&expansion, 1);
    let detector = esharp_expert::Detector::new(
        &tb.corpus,
        tb.esharp.config().detector.clone(),
    );
    group.bench_function("rank_flat_scratch", |b| {
        b.iter(|| black_box(detector.rank_candidates(&matched)))
    });
    group.bench_function("rank_hashmap_reference", |b| {
        b.iter(|| black_box(detector.rank_candidates_reference(&matched)))
    });
    group.finish();
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
