//! Property-based tests of graph normalization, discretization, and the
//! parallel builder's determinism.

use esharp_graph::{build_graph, Edge, GraphConfig, MultiGraph, SimilarityGraph};
use esharp_querylog::{AggregatedLog, LogConfig, LogGenerator, World, WorldConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_edges(nodes: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec(
        (0u32..nodes, 0u32..nodes, 0.01f64..1.0),
        0..max_edges,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(a, b, weight)| Edge { a, b, weight })
            .collect()
    })
}

proptest! {
    #[test]
    fn graph_normalization_invariants(edges in arb_edges(12, 50)) {
        let labels: Vec<Arc<str>> = (0..12).map(|i| Arc::from(format!("t{i}").as_str())).collect();
        let g = SimilarityGraph::new(labels, edges);
        // No self loops, endpoints ordered, no duplicates.
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            prop_assert!(e.a < e.b);
            prop_assert!(seen.insert((e.a, e.b)));
        }
        // CSR adjacency is symmetric and consistent with the edge list.
        let mut degree_sum = 0usize;
        for v in 0..g.num_nodes() as u32 {
            degree_sum += g.degree(v);
            for &(w, weight) in g.neighbors(v) {
                let back = g.neighbors(w).iter().any(|&(x, xw)| x == v && xw == weight);
                prop_assert!(back, "asymmetric adjacency {v}-{w}");
            }
        }
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn discretization_conserves_totals(edges in arb_edges(10, 40), scale in 1.0f64..100.0) {
        let labels: Vec<Arc<str>> = (0..10).map(|i| Arc::from(format!("t{i}").as_str())).collect();
        let g = SimilarityGraph::new(labels, edges);
        let mg = MultiGraph::from_similarity(&g, scale);
        prop_assert_eq!(mg.num_nodes(), g.num_nodes());
        // Edges rounding to zero are dropped; the rest keep multiplicity ≥ 1
        // and degree sum = 2 m_G.
        prop_assert!(mg.edges().len() <= g.num_edges());
        let expected_kept = g
            .edges()
            .iter()
            .filter(|e| (e.weight * scale).round() as u64 >= 1)
            .count();
        prop_assert_eq!(mg.edges().len(), expected_kept);
        let mut total = 0u64;
        for &(_, _, k) in mg.edges() {
            prop_assert!(k >= 1);
            total += k;
        }
        prop_assert_eq!(total, mg.total_edges());
        prop_assert_eq!(mg.degrees().iter().sum::<u64>(), mg.total_degree());
    }
}

proptest! {
    // Each case generates a fresh world + log, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The row kernel must be bit-identical at any worker count: a row of
    /// pair sums is accumulated by one task from start to finish, so thread
    /// scheduling never reaches the f64 sums. Any seed, any fanout cap
    /// (400 skips nothing here, the small ones skip lists and so move
    /// every later list's rank) ⇒ the same graph at 1, 2, 3 and 8 workers.
    #[test]
    fn parallel_build_bitexact_for_any_seed(
        seed in 0u64..1024,
        fanout_choice in 0usize..4,
        events in 1_000usize..6_000,
    ) {
        let world = World::generate(&WorldConfig::tiny(seed));
        let log = AggregatedLog::from_events(
            LogGenerator::new(
                &world,
                &LogConfig { events, ..LogConfig::tiny(seed ^ 1) },
            ),
            world.terms.len(),
        );
        let (filtered, _) = log.filter_min_support(5);

        let max_url_fanout = [1, 3, 8, 400][fanout_choice];
        let serial_config = GraphConfig { max_url_fanout, ..GraphConfig::default() };
        let (serial, serial_stats) = build_graph(&filtered, &world, &serial_config);
        prop_assert!(max_url_fanout > 1 || serial_stats.urls_skipped > 0);
        for workers in [2, 3, 8] {
            let parallel_config = GraphConfig { workers, ..serial_config.clone() };
            let (parallel, stats) = build_graph(&filtered, &world, &parallel_config);

            prop_assert_eq!(parallel.num_nodes(), serial.num_nodes());
            prop_assert_eq!(&stats, &serial_stats);
            prop_assert_eq!(parallel.num_edges(), serial.num_edges());
            for (p, s) in parallel.edges().iter().zip(serial.edges()) {
                prop_assert_eq!((p.a, p.b), (s.a, s.b));
                prop_assert_eq!(
                    p.weight.to_bits(),
                    s.weight.to_bits(),
                    "workers={}: edge ({}, {}) weight drifted",
                    workers, p.a, p.b
                );
            }
        }
    }
}
