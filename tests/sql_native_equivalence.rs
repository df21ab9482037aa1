//! The SQL-based clustering (Figure 4 on the relational engine) must
//! produce exactly the same partitions as the native 3-step algorithm —
//! on the real pipeline graph and on randomized graphs, serial and
//! parallel.

use esharp_community::{cluster_parallel, cluster_sql, ParallelConfig, SqlClusterConfig};
use esharp_eval::{EvalScale, Testbed};
use esharp_graph::MultiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_multigraph(seed: u64, nodes: usize, edges: usize) -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw: Vec<(u32, u32, u64)> = (0..edges)
        .map(|_| {
            (
                rng.gen_range(0..nodes as u32),
                rng.gen_range(0..nodes as u32),
                rng.gen_range(1..5),
            )
        })
        .collect();
    MultiGraph::from_edges(nodes, raw)
}

#[test]
fn equivalence_on_random_graphs() {
    for seed in 0..8 {
        let graph = random_multigraph(seed, 40, 120);
        let native = cluster_parallel(&graph, &ParallelConfig::default());
        let sql = cluster_sql(&graph, &SqlClusterConfig::default()).unwrap();
        assert_eq!(
            native.assignment, sql.assignment,
            "assignment mismatch on seed {seed}"
        );
        assert_eq!(native.trace, sql.trace, "trace mismatch on seed {seed}");
    }
}

#[test]
fn equivalence_on_the_pipeline_graph() {
    let tb = Testbed::build(EvalScale::Tiny, 201);
    let graph = &tb.artifacts.multigraph;
    let native = cluster_parallel(graph, &ParallelConfig::default());
    let sql = cluster_sql(graph, &SqlClusterConfig::default()).unwrap();
    assert_eq!(native.assignment, sql.assignment);
}

#[test]
fn parallelism_does_not_change_results() {
    let graph = random_multigraph(42, 60, 200);
    let reference = cluster_sql(&graph, &SqlClusterConfig::default()).unwrap();
    let out = cluster_sql(&graph, &SqlClusterConfig { workers: 4, ..Default::default() }).unwrap();
    assert_eq!(out.assignment, reference.assignment);
}

#[test]
fn native_parallel_workers_agree_with_serial() {
    let graph = random_multigraph(7, 80, 300);
    let serial = cluster_parallel(
        &graph,
        &ParallelConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let parallel = cluster_parallel(
        &graph,
        &ParallelConfig {
            workers: 8,
            ..Default::default()
        },
    );
    assert_eq!(serial.assignment, parallel.assignment);
    assert_eq!(serial.trace, parallel.trace);
}
