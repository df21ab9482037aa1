//! Property-based tests of the modularity math and the clustering
//! algorithms on random multigraphs.

use esharp_community::{
    ari, choose_owners, cluster_label_propagation, cluster_louvain, cluster_newman,
    cluster_parallel, cluster_sql, delta_mod, nmi, Assignment, ClusteringOutcome, IterationStat,
    LabelPropConfig, LouvainConfig, NewmanConfig, ParallelConfig, PartitionStats, SqlClusterConfig,
};
use esharp_graph::MultiGraph;
use esharp_relation::PAGE_SIZE;
use oracle::HashStats;
use proptest::prelude::*;

/// The hash-map statistics, owner choice and loop the dense kernels
/// replaced (the crate's own test reference, shared through `#[path]`).
#[path = "../src/oracle.rs"]
mod oracle;

/// Random multigraph strategy: up to `n` nodes, random weighted edges.
fn arb_multigraph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = MultiGraph> {
    (2usize..=max_nodes).prop_flat_map(move |n| {
        prop::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..4), 0..max_edges)
            .prop_map(move |edges| MultiGraph::from_edges(n, edges))
    })
}

/// Random assignment over `n` nodes with up to `n` labels.
fn arb_assignment(n: usize) -> impl Strategy<Value = Assignment> {
    prop::collection::vec(0u32..n.max(1) as u32, n).prop_map(Assignment::from_vec)
}

/// A multigraph with isolated nodes and an assignment over sparse
/// representative ids: the edges join the first `n` nodes, `isolated` more
/// nodes have none and each stays a community of its own (degree 0, ids
/// above every other), and the other nodes' labels are multiples of
/// `stride`.
fn arb_sparse_case() -> impl Strategy<Value = (MultiGraph, Assignment)> {
    (2usize..=30, 0usize..4, 1u32..5).prop_flat_map(|(n, isolated, stride)| {
        (
            prop::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..4), 0..80),
            prop::collection::vec(0u32..n as u32, n),
        )
            .prop_map(move |(edges, labels)| {
                let total = n + isolated;
                let labels = labels
                    .into_iter()
                    .map(|l| l / stride * stride)
                    .chain(n as u32..total as u32)
                    .collect();
                (
                    MultiGraph::from_edges(total, edges),
                    Assignment::from_vec(labels),
                )
            })
    })
}

fn assert_same_trace(got: &ClusteringOutcome, want: &ClusteringOutcome) {
    assert_eq!(got.assignment, want.assignment);
    assert_eq!(got.trace, want.trace);
    for (a, b) in got.trace.iter().zip(&want.trace) {
        assert_eq!(a.total_modularity.to_bits(), b.total_modularity.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_stats_equal_the_hashmap_oracle((g, a) in arb_sparse_case()) {
        let reference = HashStats::compute(&g, &a);
        for workers in [1, 2, 3] {
            let dense = PartitionStats::compute_with(&g, &a, workers);
            prop_assert_eq!(&HashStats::of(&dense), &reference);
            prop_assert_eq!(
                dense.total_modularity().to_bits(),
                reference.total_modularity().to_bits()
            );
            let communities = dense.communities();
            for &c1 in communities {
                prop_assert_eq!(
                    dense.community_modularity(c1).to_bits(),
                    reference.community_modularity(c1).to_bits()
                );
                // Every pair, connected or not, and an id that is no
                // community (ids stay below 40).
                for &c2 in communities.iter().chain([&1000]) {
                    prop_assert_eq!(
                        dense.delta_mod(c1, c2).to_bits(),
                        reference.delta_mod(c1, c2).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn dense_owners_equal_the_hashmap_oracle((g, a) in arb_sparse_case()) {
        let owners = choose_owners(&PartitionStats::compute(&g, &a));
        let reference = oracle::choose_owners(&HashStats::compute(&g, &a));
        // Every community the reference names is an id below the
        // array's length, so this walks all of them.
        for (c, &o) in owners.iter().enumerate() {
            prop_assert_eq!(o, reference.get(&(c as u32)).copied().unwrap_or(c as u32));
        }
    }

    #[test]
    fn dense_loop_equals_the_hashmap_loop((g, _) in arb_sparse_case()) {
        let reference = oracle::cluster(&g, 20);
        for workers in [1, 2, 3] {
            let config = ParallelConfig { max_iterations: 20, workers };
            assert_same_trace(&cluster_parallel(&g, &config), &reference);
        }
    }

    #[test]
    fn whole_graph_modularity_is_zero(g in arb_multigraph(12, 40)) {
        let whole = Assignment::from_vec(vec![0; g.num_nodes()]);
        let stats = PartitionStats::compute(&g, &whole);
        prop_assert!(stats.total_modularity().abs() < 1e-9);
    }

    #[test]
    fn delta_mod_shortcut_equals_direct_difference(g in arb_multigraph(10, 30)) {
        // Pick two singleton communities and compare eq. 8 with the direct
        // TMod difference (eq. 7).
        let n = g.num_nodes();
        prop_assume!(n >= 2);
        let before = Assignment::singletons(n);
        let stats = PartitionStats::compute(&g, &before);
        let shortcut = stats.delta_mod(0, 1);
        let mut merged = before.clone();
        merged.set(1, 0);
        let direct = PartitionStats::compute(&g, &merged).total_modularity()
            - stats.total_modularity();
        prop_assert!((shortcut - direct).abs() < 1e-9, "{} vs {}", shortcut, direct);
    }

    #[test]
    fn normalized_modularity_is_bounded(g in arb_multigraph(12, 40), seed_parts in 1u32..5) {
        let a = Assignment::from_vec(
            (0..g.num_nodes() as u32).map(|v| v % seed_parts).collect(),
        );
        let q = PartitionStats::compute(&g, &a).normalized_modularity();
        prop_assert!((-1.0..=1.0).contains(&q), "Q = {}", q);
    }

    #[test]
    fn all_algorithms_produce_total_assignments(g in arb_multigraph(14, 50)) {
        let n = g.num_nodes();
        for assignment in [
            cluster_parallel(&g, &ParallelConfig::default()).assignment,
            cluster_newman(&g, &NewmanConfig::default()),
            cluster_louvain(&g, &LouvainConfig::default()),
            cluster_label_propagation(&g, &LabelPropConfig::default()),
        ] {
            prop_assert_eq!(assignment.len(), n);
            prop_assert!(assignment.num_communities() >= 1);
            prop_assert!(assignment.num_communities() <= n);
        }
    }

    #[test]
    fn greedy_algorithms_never_lose_to_singletons(g in arb_multigraph(14, 50)) {
        let singles = PartitionStats::compute(&g, &Assignment::singletons(g.num_nodes()))
            .total_modularity();
        for assignment in [
            cluster_parallel(&g, &ParallelConfig::default()).assignment,
            cluster_newman(&g, &NewmanConfig::default()),
            cluster_louvain(&g, &LouvainConfig::default()),
        ] {
            let q = PartitionStats::compute(&g, &assignment).total_modularity();
            prop_assert!(q >= singles - 1e-9, "ended below singletons: {} < {}", q, singles);
        }
    }

    #[test]
    fn sql_equals_native_on_random_graphs(g in arb_multigraph(60, 300)) {
        let native = cluster_parallel(&g, &ParallelConfig::default());
        let configs = [
            ("in memory", SqlClusterConfig::default()),
            (
                // Two pool pages and a 256 B grant: every scan pages and
                // every join and aggregate spills.
                "out of core",
                SqlClusterConfig {
                    buffer_pool_bytes: Some(2 * PAGE_SIZE),
                    memory_grant: Some(256),
                    ..SqlClusterConfig::default()
                },
            ),
            ("3 workers", SqlClusterConfig { workers: 3, ..SqlClusterConfig::default() }),
        ];
        for (name, config) in configs {
            let sql = cluster_sql(&g, &config).unwrap();
            prop_assert_eq!(&native.assignment, &sql.assignment, "{}", name);
            prop_assert_eq!(&native.trace, &sql.trace, "{}", name);
        }
    }

    #[test]
    fn nmi_and_ari_are_symmetric_and_self_perfect(
        a in arb_assignment(10),
        b in arb_assignment(10),
    ) {
        prop_assert!((nmi(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((ari(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-9);
        prop_assert!((ari(&a, &b) - ari(&b, &a)).abs() < 1e-9);
        let v = nmi(&a, &b);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn canonicalize_preserves_partition(a in arb_assignment(12)) {
        let c = a.canonicalize();
        prop_assert!(a.same_partition(&c));
        prop_assert_eq!(a.num_communities(), c.num_communities());
        prop_assert_eq!(a.sizes(), c.sizes());
    }
}
