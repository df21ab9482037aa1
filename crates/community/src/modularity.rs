//! Modularity arithmetic (§4.2.1, equations 3–9).
//!
//! The paper works on the *unnormalized* modularity
//! `Mod(C) = m_C − m_G · (D_C / D_G)²` (their footnote: dividing by `m_G`
//! "is equivalent to ours" since it is constant). We follow that
//! convention and also expose the conventional normalized value
//! `Q = TMod / m_G` for comparison against the literature.

use crate::assignment::Assignment;
use esharp_graph::MultiGraph;
use esharp_par::shared_pool;

/// Aggregate statistics of a partition over a multigraph: everything the
/// merge decisions need.
///
/// Community ids are node representatives, so every per-community
/// statistic is a dense array indexed by id, sized by the largest id + 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStats {
    /// Sum of (weighted) degrees `D_C` per community id; 0 for an id that
    /// is no community.
    degree: Vec<u64>,
    /// Intra-community unit-edge counts `m_C` per community id.
    internal: Vec<u64>,
    /// The non-empty communities (any node maps to them, even at degree
    /// 0), ascending.
    communities: Vec<u32>,
    /// Inter-community unit-edge counts `m_{C1↔C2}` as `(min, max, m)`,
    /// sorted by pair.
    between: Vec<(u32, u32, u64)>,
    /// Total unit edges `m_G` of the graph.
    total_edges: u64,
}

impl PartitionStats {
    /// Compute all statistics in one pass over the edges.
    pub fn compute(graph: &MultiGraph, assignment: &Assignment) -> Self {
        Self::compute_with(graph, assignment, 1)
    }

    /// [`PartitionStats::compute`] over `workers` edge chunks on the
    /// persistent shared pool (one worker is one chunk, run inline).
    ///
    /// Each chunk fills a dense internal-count array and a buffer of
    /// packed inter-community pairs; the arrays are added and the buffers
    /// sorted and folded. Every count is a `u64`, whose addition is exact
    /// and order-independent, so the result is identical at any worker
    /// count.
    pub fn compute_with(graph: &MultiGraph, assignment: &Assignment, workers: usize) -> Self {
        let labels = assignment.as_slice();
        let id_bound = labels.iter().max().map_or(0, |&c| c as usize + 1);
        let mut degree = vec![0u64; id_bound];
        let mut occupied = vec![false; id_bound];
        for (&c, &d) in labels.iter().zip(graph.degrees()) {
            degree[c as usize] += d;
            occupied[c as usize] = true;
        }
        let communities = (0..id_bound as u32)
            .filter(|&c| occupied[c as usize])
            .collect();

        let edges = graph.edges();
        let chunk = edges.len().div_ceil(workers.max(1)).max(1);
        let mut partials = shared_pool(workers)
            .map_chunks(edges, chunk, |edges| {
                let mut internal = vec![0u64; id_bound];
                let mut between: Vec<(u64, u64)> = Vec::new();
                for &(a, b, k) in edges {
                    let (ca, cb) = (labels[a as usize], labels[b as usize]);
                    if ca == cb {
                        internal[ca as usize] += k;
                        continue;
                    }
                    let pair = (u64::from(ca.min(cb)) << 32) | u64::from(ca.max(cb));
                    // Edges are sorted by endpoint, so runs of one pair
                    // are common once communities grow: fold them here.
                    match between.last_mut() {
                        Some((last, m)) if *last == pair => *m += k,
                        _ => between.push((pair, k)),
                    }
                }
                (internal, between)
            })
            .into_iter();
        let (mut internal, mut packed) = partials
            .next()
            .unwrap_or_else(|| (vec![0; id_bound], Vec::new()));
        for (chunk_internal, chunk_between) in partials {
            for (total, part) in internal.iter_mut().zip(chunk_internal) {
                *total += part;
            }
            packed.extend(chunk_between);
        }
        packed.sort_unstable_by_key(|&(pair, _)| pair);
        let mut between: Vec<(u32, u32, u64)> = Vec::with_capacity(packed.len());
        for (pair, k) in packed {
            let (a, b) = ((pair >> 32) as u32, pair as u32);
            match between.last_mut() {
                Some((la, lb, m)) if (*la, *lb) == (a, b) => *m += k,
                _ => between.push((a, b, k)),
            }
        }
        PartitionStats {
            degree,
            internal,
            communities,
            between,
            total_edges: graph.total_edges(),
        }
    }

    /// Degree sum `D_C` of a community id (0 for an id that is no
    /// community).
    pub fn degree(&self, community: u32) -> u64 {
        self.degree.get(community as usize).copied().unwrap_or(0)
    }

    /// Every degree sum, indexed by community id.
    pub(crate) fn degrees(&self) -> &[u64] {
        &self.degree
    }

    /// Intra-community unit-edge count `m_C`.
    pub fn internal(&self, community: u32) -> u64 {
        self.internal.get(community as usize).copied().unwrap_or(0)
    }

    /// The non-empty communities, ascending.
    pub fn communities(&self) -> &[u32] {
        &self.communities
    }

    /// Every connected community pair as `(min, max, m_{min↔max})`,
    /// sorted by pair.
    pub fn between(&self) -> &[(u32, u32, u64)] {
        &self.between
    }

    /// Total unit edges `m_G` of the graph.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// One past the largest community id: the length of an array indexed
    /// by community id.
    pub(crate) fn id_bound(&self) -> usize {
        self.degree.len()
    }

    /// `Mod(C) = m_C − m_G (D_C / D_G)²` (equation 6).
    pub fn community_modularity(&self, community: u32) -> f64 {
        let m_c = self.internal(community) as f64;
        let d_c = self.degree(community) as f64;
        let m_g = self.total_edges as f64;
        if m_g == 0.0 {
            return 0.0;
        }
        let d_g = 2.0 * m_g;
        m_c - m_g * (d_c / d_g) * (d_c / d_g)
    }

    /// Total modularity `TMod = Σ_C Mod(C)` (equation 2), summed in
    /// ascending community order so the result is bit-stable.
    pub fn total_modularity(&self) -> f64 {
        self.communities
            .iter()
            .map(|&c| self.community_modularity(c))
            .sum()
    }

    /// Conventional normalized modularity `Q = TMod / m_G`.
    pub fn normalized_modularity(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.total_modularity() / self.total_edges as f64
        }
    }

    /// Merge gain `ΔMod = m_{1↔2} − D₁·D₂ / (2 m_G)` (equations 8–9).
    /// Returns 0 for unknown communities (degree 0).
    pub fn delta_mod(&self, c1: u32, c2: u32) -> f64 {
        if c1 == c2 {
            return 0.0;
        }
        let m12 = self
            .between
            .binary_search_by_key(&(c1.min(c2), c1.max(c2)), |&(a, b, _)| (a, b))
            .map_or(0, |i| self.between[i].2);
        self.pair_gain(c1, c2, m12)
    }

    /// [`PartitionStats::delta_mod`] of two distinct communities joined by
    /// `m12` unit edges, with the same operands in the same order.
    pub(crate) fn pair_gain(&self, c1: u32, c2: u32, m12: u64) -> f64 {
        delta_mod(
            m12 as f64,
            self.degree(c1) as f64,
            self.degree(c2) as f64,
            self.total_edges as f64,
        )
    }

    /// Number of non-empty communities.
    pub fn num_communities(&self) -> usize {
        self.communities.len()
    }
}

/// The raw ΔMod formula (equations 8–9): gain of merging two communities
/// with `m12` connecting unit edges and degree sums `d1`, `d2` in a graph
/// of `m_g` unit edges.
pub fn delta_mod(m12: f64, d1: f64, d2: f64, m_g: f64) -> f64 {
    if m_g == 0.0 {
        return 0.0;
    }
    m12 - (d1 * d2) / (2.0 * m_g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::oracle::HashStats;
    use esharp_graph::MultiGraph;

    /// Two triangles joined by one edge — the canonical two-community graph.
    fn two_triangles() -> MultiGraph {
        MultiGraph::from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
                (2, 3, 1),
            ],
        )
    }

    #[test]
    fn singletons_have_negative_total_modularity() {
        let g = two_triangles();
        let a = Assignment::singletons(g.num_nodes());
        let stats = PartitionStats::compute(&g, &a);
        assert_eq!(stats.num_communities(), 6);
        // No internal edges: every Mod(C) is −m_G (D_C/D_G)² < 0.
        assert!(stats.total_modularity() < 0.0);
    }

    #[test]
    fn true_partition_beats_singletons_and_whole() {
        let g = two_triangles();
        let truth = Assignment::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let singles = Assignment::singletons(6);
        let whole = Assignment::from_vec(vec![0; 6]);
        let q_truth = PartitionStats::compute(&g, &truth).total_modularity();
        let q_singles = PartitionStats::compute(&g, &singles).total_modularity();
        let q_whole = PartitionStats::compute(&g, &whole).total_modularity();
        assert!(q_truth > q_singles);
        assert!(q_truth > q_whole);
    }

    #[test]
    fn whole_graph_modularity_is_zero() {
        // With everything in one community, m_C = m_G and D_C = D_G, so
        // Mod = m_G − m_G · 1 = 0.
        let g = two_triangles();
        let whole = Assignment::from_vec(vec![0; 6]);
        let stats = PartitionStats::compute(&g, &whole);
        assert!((stats.total_modularity() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn delta_mod_matches_direct_difference() {
        // Equation 8 is a shortcut for eq 7; verify they agree.
        let g = two_triangles();
        let before = Assignment::from_vec(vec![0, 0, 0, 1, 1, 2]);
        let stats = PartitionStats::compute(&g, &before);
        let shortcut = stats.delta_mod(1, 2);

        let after = Assignment::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let direct =
            PartitionStats::compute(&g, &after).total_modularity() - stats.total_modularity();
        assert!(
            (shortcut - direct).abs() < 1e-9,
            "shortcut {shortcut} vs direct {direct}"
        );
    }

    #[test]
    fn delta_mod_positive_for_dense_pairs_negative_for_far_pairs() {
        let g = two_triangles();
        let a = Assignment::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let stats = PartitionStats::compute(&g, &a);
        // Merging the two triangles (one connecting edge, heavy degrees)
        // must not pay.
        assert!(stats.delta_mod(0, 1) < 0.0);
        // Merging a community with itself is 0.
        assert_eq!(stats.delta_mod(0, 0), 0.0);
    }

    #[test]
    fn normalized_modularity_in_range() {
        let g = two_triangles();
        let a = Assignment::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let q = PartitionStats::compute(&g, &a).normalized_modularity();
        assert!(q > 0.0 && q <= 1.0, "Q = {q}");
    }

    #[test]
    fn labels_above_the_node_count_match_the_reference() {
        // Hand-built labels need not be node ids: the arrays grow to the
        // largest label.
        let g = MultiGraph::from_edges(5, vec![(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1)]);
        let a = Assignment::from_vec(vec![7, 7, 3, 3, 9]);
        let dense = PartitionStats::compute(&g, &a);
        let reference = HashStats::compute(&g, &a);
        assert_eq!(dense.id_bound(), 10);
        assert_eq!(dense.communities(), &[3, 7, 9]);
        assert_eq!(HashStats::of(&dense), reference);
        assert_eq!(
            dense.total_modularity().to_bits(),
            reference.total_modularity().to_bits()
        );
        for (c1, c2) in [(3, 7), (7, 3), (3, 9), (7, 9), (7, 7), (1, 3)] {
            assert_eq!(
                dense.delta_mod(c1, c2).to_bits(),
                reference.delta_mod(c1, c2).to_bits()
            );
        }
    }

    #[test]
    fn empty_graph_is_all_zero() {
        let g = MultiGraph::from_edges(3, vec![]);
        let a = Assignment::singletons(3);
        let stats = PartitionStats::compute(&g, &a);
        assert_eq!(stats.total_modularity(), 0.0);
        assert_eq!(stats.delta_mod(0, 1), 0.0);
    }
}
