//! # esharp-cli
//!
//! The command-line surface of the reproduction:
//!
//! * `esharp` — build / search / inspect / sql / cluster / serve / ingest
//!   (see `src/bin/esharp.rs`).
//! * `repro` — regenerates every table and figure of the paper's
//!   evaluation (see EXPERIMENTS.md).
//! * Two Criterion benches for the paper's ablations:
//!   `community_algorithms` (the 3-step parallel algorithm vs Newman vs
//!   Louvain vs label propagation vs the SQL path, DESIGN.md §5) and
//!   `join_strategies` (broadcast vs co-partitioned joins, §4.2.3).
//!
//! Performance is measured by the repo benchmark under `benchmark/`
//! (see `benchmark/README.md` and PERF.md), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use esharp_graph::MultiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible random multigraph with planted communities: `groups`
/// cliques of `size` nodes, intra-group edges dense, inter-group edges
/// sparse. Used by the clustering benches.
pub fn planted_multigraph(groups: usize, size: usize, seed: u64) -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = groups * size;
    let mut edges = Vec::new();
    for g in 0..groups {
        let base = (g * size) as u32;
        for i in 0..size as u32 {
            for j in i + 1..size as u32 {
                if rng.gen_bool(0.6) {
                    edges.push((base + i, base + j, rng.gen_range(1..4)));
                }
            }
        }
    }
    // Sparse inter-group noise.
    for _ in 0..n {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        edges.push((a, b, 1));
    }
    MultiGraph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_graph_is_reproducible_and_clusterable() {
        let a = planted_multigraph(4, 8, 9);
        let b = planted_multigraph(4, 8, 9);
        assert_eq!(a.edges(), b.edges());
        let out = esharp_community::cluster_parallel(
            &a,
            &esharp_community::ParallelConfig::default(),
        );
        assert!(out.assignment.num_communities() <= 4 * 8);
        assert!(out.assignment.num_communities() >= 2);
    }
}
