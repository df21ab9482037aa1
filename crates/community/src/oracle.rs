//! The hash-map clustering loop the dense statistics replaced, kept as the
//! test reference: [`HashStats`] is the former `PartitionStats` (one
//! `HashMap` per statistic), [`choose_owners`] the former owner selection
//! and [`cluster`] the former native loop, which canonicalises both
//! assignments to test convergence.
//!
//! Test-only. The crate's unit tests declare it `#[cfg(test)]`, and
//! `tests/proptest_community.rs` includes this same file through
//! `#[path]`, so both suites check against one copy; it names the crate's
//! types through its parent module, which each includer provides.

// Each includer uses a different subset.
#![allow(dead_code)]

use super::{delta_mod, Assignment, ClusteringOutcome, IterationStat, PartitionStats};
use esharp_graph::MultiGraph;
use std::collections::HashMap;

/// Partition statistics keyed by community id in hash maps.
#[derive(Debug, Clone, PartialEq)]
pub struct HashStats {
    /// Sum of (weighted) degrees per community id.
    pub degree_sum: HashMap<u32, u64>,
    /// Intra-community unit-edge counts `m_C`.
    pub internal_edges: HashMap<u32, u64>,
    /// Inter-community unit-edge counts keyed by `(min, max)` id.
    pub between_edges: HashMap<(u32, u32), u64>,
    /// Total unit edges `m_G` of the graph.
    pub total_edges: u64,
}

impl HashStats {
    /// Compute all statistics in one pass over the edges.
    pub fn compute(graph: &MultiGraph, assignment: &Assignment) -> Self {
        let mut degree_sum: HashMap<u32, u64> = HashMap::new();
        for node in 0..graph.num_nodes() {
            let c = assignment.community_of(node as u32);
            *degree_sum.entry(c).or_insert(0) += graph.degree(node as u32);
        }
        let mut internal_edges: HashMap<u32, u64> = HashMap::new();
        let mut between_edges: HashMap<(u32, u32), u64> = HashMap::new();
        for &(a, b, k) in graph.edges() {
            let (ca, cb) = (assignment.community_of(a), assignment.community_of(b));
            if ca == cb {
                *internal_edges.entry(ca).or_insert(0) += k;
            } else {
                *between_edges.entry((ca.min(cb), ca.max(cb))).or_insert(0) += k;
            }
        }
        HashStats {
            degree_sum,
            internal_edges,
            between_edges,
            total_edges: graph.total_edges(),
        }
    }

    /// `Mod(C) = m_C − m_G (D_C / D_G)²` (equation 6).
    pub fn community_modularity(&self, community: u32) -> f64 {
        let m_c = *self.internal_edges.get(&community).unwrap_or(&0) as f64;
        let d_c = *self.degree_sum.get(&community).unwrap_or(&0) as f64;
        let m_g = self.total_edges as f64;
        if m_g == 0.0 {
            return 0.0;
        }
        let d_g = 2.0 * m_g;
        m_c - m_g * (d_c / d_g) * (d_c / d_g)
    }

    /// `TMod = Σ_C Mod(C)`, summed in sorted community order.
    pub fn total_modularity(&self) -> f64 {
        let mut communities: Vec<u32> = self.degree_sum.keys().copied().collect();
        communities.sort_unstable();
        communities
            .into_iter()
            .map(|c| self.community_modularity(c))
            .sum()
    }

    /// Merge gain `ΔMod` (equations 8–9); 0 for unknown communities.
    pub fn delta_mod(&self, c1: u32, c2: u32) -> f64 {
        if c1 == c2 {
            return 0.0;
        }
        let m12 = *self
            .between_edges
            .get(&(c1.min(c2), c1.max(c2)))
            .unwrap_or(&0) as f64;
        let d1 = *self.degree_sum.get(&c1).unwrap_or(&0) as f64;
        let d2 = *self.degree_sum.get(&c2).unwrap_or(&0) as f64;
        delta_mod(m12, d1, d2, self.total_edges as f64)
    }

    /// Number of non-empty communities.
    pub fn num_communities(&self) -> usize {
        self.degree_sum.len()
    }

    /// The dense statistics in this shape, for comparison.
    pub fn of(dense: &PartitionStats) -> Self {
        let communities = dense.communities();
        HashStats {
            degree_sum: communities.iter().map(|&c| (c, dense.degree(c))).collect(),
            internal_edges: communities
                .iter()
                .filter(|&&c| dense.internal(c) > 0)
                .map(|&c| (c, dense.internal(c)))
                .collect(),
            between_edges: dense
                .between()
                .iter()
                .map(|&(a, b, m)| ((a, b), m))
                .collect(),
            total_edges: dense.total_edges(),
        }
    }
}

/// Steps 1+2 with the mutual-selection repair: each community's best
/// positive-gain neighbor (ties to the smaller owner id); absent when no
/// neighbor has positive gain.
pub fn choose_owners(stats: &HashStats) -> HashMap<u32, u32> {
    let mut best: HashMap<u32, (f64, u32)> = HashMap::new();
    for &(a, b) in stats.between_edges.keys() {
        let gain = stats.delta_mod(a, b);
        if gain <= 0.0 {
            continue;
        }
        for (community, owner) in [(a, b), (b, a)] {
            match best.get_mut(&community) {
                Some((g, o)) => {
                    if gain > *g || (gain == *g && owner < *o) {
                        *g = gain;
                        *o = owner;
                    }
                }
                None => {
                    best.insert(community, (gain, owner));
                }
            }
        }
    }
    let mut owners: HashMap<u32, u32> = best.into_iter().map(|(c, (_, o))| (c, o)).collect();
    let snapshot: Vec<(u32, u32)> = owners.iter().map(|(&c, &o)| (c, o)).collect();
    for (c, o) in snapshot {
        if owners.get(&o) == Some(&c) {
            let target = c.min(o);
            owners.insert(c, target);
            owners.insert(o, target);
        }
    }
    owners
}

/// The 3-step loop from singletons, computing the statistics twice per
/// iteration and testing convergence with [`Assignment::same_partition`].
pub fn cluster(graph: &MultiGraph, max_iterations: usize) -> ClusteringOutcome {
    let mut assignment = Assignment::singletons(graph.num_nodes());
    let mut trace = vec![IterationStat {
        iteration: 0,
        communities: graph.num_nodes(),
        total_modularity: HashStats::compute(graph, &assignment).total_modularity(),
        merges: 0,
    }];
    for iteration in 1..=max_iterations {
        let stats = HashStats::compute(graph, &assignment);
        let owners = choose_owners(&stats);
        if owners.is_empty() {
            break;
        }
        let mut merges = 0;
        let mut renamed = assignment.clone();
        for node in 0..graph.num_nodes() as u32 {
            let c = assignment.community_of(node);
            if let Some(&owner) = owners.get(&c) {
                if owner != c {
                    renamed.set(node, owner);
                }
            }
        }
        for (&c, &owner) in &owners {
            if owner != c {
                merges += 1;
            }
        }
        if merges == 0 || renamed.same_partition(&assignment) {
            break;
        }
        assignment = renamed;
        let after = HashStats::compute(graph, &assignment);
        trace.push(IterationStat {
            iteration,
            communities: after.num_communities(),
            total_modularity: after.total_modularity(),
            merges,
        });
    }
    ClusteringOutcome { assignment, trace }
}
