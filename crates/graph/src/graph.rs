//! The term-similarity graph: weighted, undirected, with node labels.

use std::collections::HashMap;
use std::sync::Arc;

/// Node index inside a [`SimilarityGraph`] (dense, 0-based — distinct from
/// the world-level `TermId`, because the support filter drops terms).
pub type NodeId = u32;

/// One undirected weighted edge (`a < b` by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Similarity weight in `(0, 1]`.
    pub weight: f64,
}

/// A weighted undirected term-similarity graph with CSR adjacency.
#[derive(Debug, Clone)]
pub struct SimilarityGraph {
    labels: Vec<Arc<str>>,
    edges: Vec<Edge>,
    /// CSR offsets: node `v`'s neighbors live at `adj[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    /// `(neighbor, weight)` pairs.
    adj: Vec<(NodeId, f64)>,
}

impl SimilarityGraph {
    /// Build a graph from node labels and undirected edges. Edge endpoints
    /// are normalized to `a < b`; self-loops are dropped; duplicate edges
    /// keep the maximum weight.
    pub fn new(labels: Vec<Arc<str>>, mut edges: Vec<Edge>) -> Self {
        let n = labels.len();
        // Edges that are already canonical (what `build_graph` hands over)
        // need neither the dedup map nor the sort. Canonical includes a
        // positive weight: the dedup floors weights at 0.0.
        let canonical = edges.iter().all(|e| e.a < e.b && e.weight > 0.0)
            && edges.windows(2).all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b));
        if !canonical {
            let mut dedup: HashMap<(NodeId, NodeId), f64> = HashMap::with_capacity(edges.len());
            for e in &edges {
                if e.a == e.b {
                    continue;
                }
                let key = (e.a.min(e.b), e.a.max(e.b));
                debug_assert!((key.1 as usize) < n, "edge endpoint out of range");
                let w = dedup.entry(key).or_insert(0.0);
                if e.weight > *w {
                    *w = e.weight;
                }
            }
            edges = dedup
                .into_iter()
                .map(|((a, b), weight)| Edge { a, b, weight })
                .collect();
            edges.sort_by_key(|e| (e.a, e.b));
        }

        // CSR adjacency (both directions).
        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.a as usize] += 1;
            degree[e.b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![(0 as NodeId, 0.0); acc];
        for e in &edges {
            adj[cursor[e.a as usize]] = (e.b, e.weight);
            cursor[e.a as usize] += 1;
            adj[cursor[e.b as usize]] = (e.a, e.weight);
            cursor[e.b as usize] += 1;
        }
        SimilarityGraph {
            labels,
            edges,
            offsets,
            adj,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node labels (term texts).
    pub fn labels(&self) -> &[Arc<str>] {
        &self.labels
    }

    /// The label of one node.
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node as usize]
    }

    /// Find a node by its exact label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| l.as_ref() == label)
            .map(|i| i as NodeId)
    }

    /// All edges (normalized, sorted).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// `(neighbor, weight)` pairs of a node.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        let v = node as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Unweighted degree of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Approximate payload bytes (Table 9 accounting).
    pub fn byte_size(&self) -> u64 {
        let label_bytes: usize = self.labels.iter().map(|l| l.len()).sum();
        (label_bytes + self.edges.len() * std::mem::size_of::<Edge>()) as u64
    }
}

/// The discretized multigraph of §4.2.1's footnote: "we rescale and
/// discretize the weights to obtain integers. Then, we create one edge for
/// each unit." Modularity is computed on this representation.
#[derive(Debug, Clone)]
pub struct MultiGraph {
    /// Number of nodes (same node ids as the source graph).
    num_nodes: usize,
    /// `(a, b, multiplicity)` with `a < b`, sorted.
    edges: Vec<(NodeId, NodeId, u64)>,
    /// Weighted degree of each node (sum of incident multiplicities).
    degrees: Vec<u64>,
    /// Total number of unit edges `m_G` (sum of multiplicities).
    total_edges: u64,
}

impl MultiGraph {
    /// Discretize a similarity graph: each edge's multiplicity is
    /// `round(weight * scale)`; edges rounding to zero are dropped. The
    /// scale therefore doubles as the clustering resolution: weaker ties
    /// stay visible in the [`SimilarityGraph`] (Figure 7's "closest
    /// communities") but do not participate in modularity maximization —
    /// keeping a unit floor instead lets every sub-threshold tie merge
    /// communities (the classic resolution limit).
    pub fn from_similarity(graph: &SimilarityGraph, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let mut edges = Vec::with_capacity(graph.num_edges());
        let mut degrees = vec![0u64; graph.num_nodes()];
        let mut total = 0u64;
        for e in graph.edges() {
            let k = (e.weight * scale).round() as u64;
            if k == 0 {
                continue;
            }
            edges.push((e.a, e.b, k));
            degrees[e.a as usize] += k;
            degrees[e.b as usize] += k;
            total += k;
        }
        MultiGraph {
            num_nodes: graph.num_nodes(),
            edges,
            degrees,
            total_edges: total,
        }
    }

    /// Build directly from `(a, b, multiplicity)` triples (tests, fixtures).
    pub fn from_edges(num_nodes: usize, raw: Vec<(NodeId, NodeId, u64)>) -> Self {
        let mut dedup: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        for (a, b, k) in raw {
            if a == b || k == 0 {
                continue;
            }
            *dedup.entry((a.min(b), a.max(b))).or_insert(0) += k;
        }
        let mut edges: Vec<(NodeId, NodeId, u64)> =
            dedup.into_iter().map(|((a, b), k)| (a, b, k)).collect();
        edges.sort_unstable();
        let mut degrees = vec![0u64; num_nodes];
        let mut total = 0u64;
        for &(a, b, k) in &edges {
            degrees[a as usize] += k;
            degrees[b as usize] += k;
            total += k;
        }
        MultiGraph {
            num_nodes,
            edges,
            degrees,
            total_edges: total,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// `(a, b, multiplicity)` triples, sorted, `a < b`.
    pub fn edges(&self) -> &[(NodeId, NodeId, u64)] {
        &self.edges
    }

    /// Weighted degree of a node.
    pub fn degree(&self, node: NodeId) -> u64 {
        self.degrees[node as usize]
    }

    /// All weighted degrees.
    pub fn degrees(&self) -> &[u64] {
        &self.degrees
    }

    /// Total unit-edge count `m_G`.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Sum of all degrees `D_G = 2 m_G`.
    pub fn total_degree(&self) -> u64 {
        2 * self.total_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<Arc<str>> {
        (0..n).map(|i| Arc::from(format!("t{i}").as_str())).collect()
    }

    #[test]
    fn normalizes_dedups_and_drops_self_loops() {
        let g = SimilarityGraph::new(
            labels(3),
            vec![
                Edge { a: 1, b: 0, weight: 0.5 },
                Edge { a: 0, b: 1, weight: 0.9 },
                Edge { a: 2, b: 2, weight: 1.0 },
                Edge { a: 1, b: 2, weight: 0.2 },
            ],
        );
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges()[0], Edge { a: 0, b: 1, weight: 0.9 });
    }

    #[test]
    fn canonical_edges_skip_the_dedup_and_build_the_same_graph() {
        let canonical = vec![
            Edge { a: 0, b: 1, weight: 0.9 },
            Edge { a: 0, b: 3, weight: 0.1 },
            Edge { a: 1, b: 2, weight: 0.2 },
            Edge { a: 2, b: 3, weight: 1.0 },
        ];
        let fast = SimilarityGraph::new(labels(4), canonical.clone());
        assert_eq!(fast.edges(), canonical.as_slice());

        // The same graph through the dedup path: unsorted, flipped
        // endpoints, a weaker duplicate, a self-loop.
        let reversed: Vec<Edge> = canonical.iter().rev().copied().collect();
        let flipped: Vec<Edge> = canonical
            .iter()
            .map(|e| Edge { a: e.b, b: e.a, weight: e.weight })
            .collect();
        let mut duplicate = canonical.clone();
        duplicate.push(Edge { a: 1, b: 0, weight: 0.5 });
        let mut self_loop = canonical.clone();
        self_loop.insert(2, Edge { a: 1, b: 1, weight: 0.7 });
        for (name, edges) in [
            ("reversed", reversed),
            ("flipped", flipped),
            ("duplicate", duplicate),
            ("self-loop", self_loop),
        ] {
            let slow = SimilarityGraph::new(labels(4), edges);
            assert_eq!(slow.edges(), fast.edges(), "{name}");
            for v in 0..4 {
                assert_eq!(slow.neighbors(v), fast.neighbors(v), "{name}: node {v}");
            }
        }

        // Sorted but not canonical: an equal pair twice, a zero weight.
        let twice = vec![canonical[0], Edge { weight: 0.95, ..canonical[0] }, canonical[1]];
        let g = SimilarityGraph::new(labels(4), twice);
        assert_eq!(g.edges(), &[Edge { weight: 0.95, ..canonical[0] }, canonical[1]]);
        let zero = vec![Edge { a: 0, b: 1, weight: -0.0 }];
        let g = SimilarityGraph::new(labels(2), zero);
        assert_eq!(g.edges()[0].weight.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn csr_adjacency_is_symmetric() {
        let g = SimilarityGraph::new(
            labels(4),
            vec![
                Edge { a: 0, b: 1, weight: 0.5 },
                Edge { a: 1, b: 2, weight: 0.4 },
                Edge { a: 0, b: 3, weight: 0.1 },
            ],
        );
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 1);
        let n1: Vec<NodeId> = g.neighbors(1).iter().map(|&(v, _)| v).collect();
        assert!(n1.contains(&0) && n1.contains(&2));
        assert_eq!(g.neighbors(3), &[(0, 0.1)]);
    }

    #[test]
    fn node_lookup_by_label() {
        let g = SimilarityGraph::new(labels(2), vec![]);
        assert_eq!(g.node_by_label("t1"), Some(1));
        assert_eq!(g.node_by_label("zzz"), None);
    }

    #[test]
    fn discretization_rounds_and_drops_weak_edges() {
        let g = SimilarityGraph::new(
            labels(3),
            vec![
                Edge { a: 0, b: 1, weight: 0.55 },
                Edge { a: 1, b: 2, weight: 0.001 },
            ],
        );
        let mg = MultiGraph::from_similarity(&g, 10.0);
        // 0.55*10 rounds to 6; 0.001*10 rounds to 0 and is dropped.
        assert_eq!(mg.edges(), &[(0, 1, 6)]);
        assert_eq!(mg.degree(1), 6);
        assert_eq!(mg.degree(2), 0);
        assert_eq!(mg.total_edges(), 6);
        assert_eq!(mg.total_degree(), 12);
    }

    #[test]
    fn from_edges_merges_duplicates() {
        let mg = MultiGraph::from_edges(3, vec![(0, 1, 2), (1, 0, 3), (2, 2, 5), (1, 2, 0)]);
        assert_eq!(mg.edges(), &[(0, 1, 5)]);
        assert_eq!(mg.total_edges(), 5);
    }
}
