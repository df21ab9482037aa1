//! Label propagation — the second ablation comparator (a non-modularity
//! "community detection paradigm" in the sense of the paper's future-work
//! note). Near-linear time, no objective function.
//!
//! Standard asynchronous LPA (Raghavan et al.): nodes are visited in a
//! shuffled order each sweep and adopt the incident label with the largest
//! total edge weight, breaking ties uniformly at random (deterministically
//! seeded — plain smallest-label tie-breaking floods the whole graph with
//! one label on unweighted ties). Converges when every node already holds
//! a maximal label.

use crate::assignment::Assignment;
use esharp_graph::MultiGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of the propagation loop.
#[derive(Debug, Clone)]
pub struct LabelPropConfig {
    /// Sweep cap (propagation on meshes can oscillate; the cap bounds it).
    pub max_sweeps: usize,
    /// Seed for visit order and tie-breaking.
    pub seed: u64,
}

impl Default for LabelPropConfig {
    fn default() -> Self {
        LabelPropConfig {
            max_sweeps: 50,
            seed: 0x1a6e,
        }
    }
}

/// Run label propagation and return the assignment.
pub fn cluster_label_propagation(graph: &MultiGraph, config: &LabelPropConfig) -> Assignment {
    let n = graph.num_nodes();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    if n == 0 {
        return Assignment::from_vec(labels);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut adjacency: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for &(a, b, k) in graph.edges() {
        adjacency[a as usize].push((b, k));
        adjacency[b as usize].push((a, k));
    }
    let mut order: Vec<usize> = (0..n).collect();

    for _ in 0..config.max_sweeps {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &v in &order {
            if adjacency[v].is_empty() {
                continue;
            }
            let mut weight_by_label: HashMap<u32, u64> = HashMap::new();
            for &(w, k) in &adjacency[v] {
                *weight_by_label.entry(labels[w as usize]).or_insert(0) += k;
            }
            let Some(&max_weight) = weight_by_label.values().max() else {
                continue; // unreachable: `v` has at least one neighbor
            };
            let mut maxima: Vec<u32> = weight_by_label
                .into_iter()
                .filter(|&(_, w)| w == max_weight)
                .map(|(l, _)| l)
                .collect();
            maxima.sort_unstable();
            if maxima.contains(&labels[v]) {
                continue; // current label already maximal — stable
            }
            let pick = maxima[rng.gen_range(0..maxima.len())];
            labels[v] = pick;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    Assignment::from_vec(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques() -> MultiGraph {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push((base + i, base + j, 1));
                }
            }
        }
        edges.push((3, 4, 1));
        MultiGraph::from_edges(8, edges)
    }

    #[test]
    fn separates_two_cliques_for_most_seeds() {
        // LPA is stochastic; require that a clear majority of seeds recover
        // the planted structure (flooding would fail almost all of them).
        let truth = Assignment::from_vec(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let mut hits = 0;
        for seed in 0..20 {
            let a = cluster_label_propagation(
                &two_cliques(),
                &LabelPropConfig {
                    max_sweeps: 50,
                    seed,
                },
            );
            if a.same_partition(&truth) {
                hits += 1;
            }
        }
        assert!(hits >= 12, "only {hits}/20 seeds recovered the cliques");
    }

    #[test]
    fn isolated_nodes_keep_their_own_label() {
        let g = MultiGraph::from_edges(4, vec![(0, 1, 1)]);
        let a = cluster_label_propagation(&g, &LabelPropConfig::default());
        assert_ne!(a.community_of(2), a.community_of(3));
        assert_eq!(a.community_of(0), a.community_of(1));
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = two_cliques();
        let a = cluster_label_propagation(&g, &LabelPropConfig::default());
        let b = cluster_label_propagation(&g, &LabelPropConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn respects_edge_weights() {
        // Node 2 is tied to clique {0,1} by a heavy edge and to {3,4} by
        // light ones; weight must win.
        let g = MultiGraph::from_edges(
            5,
            vec![(0, 1, 5), (0, 2, 5), (1, 2, 5), (2, 3, 1), (3, 4, 5)],
        );
        let a = cluster_label_propagation(&g, &LabelPropConfig::default());
        assert_eq!(a.community_of(2), a.community_of(0));
        assert_ne!(a.community_of(2), a.community_of(3));
    }
}
