//! The paper's parallel 3-step modularity-maximization algorithm (§4.2.2,
//! Figure 3) — native implementation.
//!
//! Per iteration:
//! 1. **Neighborhood creation** — for every pair of connected communities
//!    `(C1, C2)` with `ΔMod > 0`, `C2` belongs to `C1`'s neighborhood.
//! 2. **Neighborhood separation** — each community keeps only the
//!    neighborhood whose `ΔMod` is largest (the SQL's
//!    `argmax(distance, query1) … group by query2`).
//! 3. **Aggregation** — every community is renamed to its chosen
//!    neighborhood owner.
//!
//! Communities with no positive neighbor keep their own name. The loop
//! stops when an iteration changes nothing (convergence — Figure 5 shows
//! ~6 iterations on the paper's production graph) or after `max_iterations`.
//!
//! The statistics of each assignment — degree sums, internal and
//! inter-community edge counts — are dense arrays indexed by community id
//! ([`PartitionStats`]), computed once per assignment over edge chunks on
//! the process-wide persistent [`esharp_par`] pool, the map-reduce shape
//! the paper targets. All merged quantities are `u64` counts, whose sums
//! are exact and order-independent, so the clustering result is identical
//! at any worker count.

use crate::assignment::Assignment;
use crate::modularity::PartitionStats;
use esharp_graph::MultiGraph;
use serde::{Deserialize, Serialize};

/// Configuration of the parallel merge loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Iteration cap (the algorithm usually converges much sooner).
    pub max_iterations: usize,
    /// Worker threads for the statistics pass.
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            max_iterations: 20,
            workers: 1,
        }
    }
}

/// One row of the Figure 5 convergence trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationStat {
    /// Iteration number (0 = the singleton initialization).
    pub iteration: usize,
    /// Communities alive after this iteration.
    pub communities: usize,
    /// Total modularity after this iteration (paper's unnormalized TMod).
    pub total_modularity: f64,
    /// Communities that changed owner in this iteration.
    pub merges: usize,
}

/// Result of a clustering run: final assignment plus the per-iteration
/// trace that regenerates Figure 5.
#[derive(Debug, Clone)]
pub struct ClusteringOutcome {
    /// Final node → community assignment.
    pub assignment: Assignment,
    /// Per-iteration statistics (index 0 describes the initialization).
    pub trace: Vec<IterationStat>,
}

impl ClusteringOutcome {
    /// Communities after the final iteration.
    pub fn num_communities(&self) -> usize {
        self.trace.last().map_or(0, |s| s.communities)
    }

    /// Iterations executed (excluding the initialization row).
    pub fn iterations(&self) -> usize {
        self.trace.len().saturating_sub(1)
    }
}

/// Run the paper's 3-step algorithm to convergence.
pub fn cluster_parallel(graph: &MultiGraph, config: &ParallelConfig) -> ClusteringOutcome {
    match cluster_parallel_resumable(graph, config, None, |_, _| {
        Ok::<(), std::convert::Infallible>(())
    }) {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    }
}

/// Resumable, observer-carrying variant of [`cluster_parallel`] — the
/// crash-safe pipeline's entry point.
///
/// `on_iteration` fires after the initialization row and after every
/// completed iteration, receiving the assignment and the trace so far;
/// a checkpointing caller persists that pair and propagates its own error
/// type `E` out of the loop. After a crash, the last persisted pair comes
/// back in as `resume` and the loop continues from
/// `trace.last().iteration + 1` — a run killed at iteration 4 restarts at
/// 4, not 0.
///
/// Determinism: one iteration is a pure function of `(graph, assignment)`
/// (the [`PartitionStats::compute_with`] merge order is fixed and
/// worker-count independent), so a resumed run reproduces the
/// uninterrupted run's assignment and trace bit for bit. A `resume` that
/// does not fit the graph (stale checkpoint) — the wrong node count, or a
/// community id that is no node — is ignored and the run starts clean.
pub fn cluster_parallel_resumable<E>(
    graph: &MultiGraph,
    config: &ParallelConfig,
    resume: Option<(Assignment, Vec<IterationStat>)>,
    mut on_iteration: impl FnMut(&Assignment, &[IterationStat]) -> Result<(), E>,
) -> Result<ClusteringOutcome, E> {
    let num_nodes = graph.num_nodes();
    let (mut assignment, mut trace) = resume
        .filter(|(a, t)| {
            a.len() == num_nodes
                && !t.is_empty()
                && a.as_slice().iter().all(|&c| (c as usize) < num_nodes)
        })
        .unwrap_or_else(|| (Assignment::singletons(num_nodes), Vec::new()));
    // The statistics of the current assignment: computed once per
    // assignment, for its trace row and for the next iteration's choice.
    let mut stats = PartitionStats::compute_with(graph, &assignment, config.workers);
    if trace.is_empty() {
        trace.push(IterationStat {
            iteration: 0,
            communities: num_nodes,
            total_modularity: stats.total_modularity(),
            merges: 0,
        });
        on_iteration(&assignment, &trace)?;
    }

    let first = trace.last().map_or(0, |s| s.iteration) + 1;
    for iteration in first..=config.max_iterations {
        let mut owners = best_owners(&stats);
        let Some((renamed, merges)) = aggregate(&assignment, &stats, &mut owners) else {
            break;
        };
        assignment = renamed;
        stats = PartitionStats::compute_with(graph, &assignment, config.workers);
        trace.push(IterationStat {
            iteration,
            communities: stats.num_communities(),
            total_modularity: stats.total_modularity(),
            merges,
        });
        on_iteration(&assignment, &trace)?;
    }

    Ok(ClusteringOutcome { assignment, trace })
}

/// Steps 1+2: the owner array Step 3 applies — for each community id,
/// the best (`argmax ΔMod`) positive-gain neighbor to merge into, or the
/// id itself when no neighbor has positive gain. Tie-break: the smaller
/// owner id — matching the relational `argmax`'s deterministic tie-break
/// so the SQL and native paths agree exactly.
///
/// One repair on top of the paper's pseudo-code: when two communities
/// mutually select each other, renaming as written would merely *swap*
/// their names forever. Both are redirected to the smaller id instead, so
/// a mutual selection becomes an actual merge. (Production systems built
/// on the paper's Figure 4 need the same symmetry-breaking; DESIGN.md §4
/// lists it as a documented deviation.)
pub fn choose_owners(stats: &PartitionStats) -> Vec<u32> {
    let mut owners = best_owners(stats);
    resolve_mutual(&mut owners);
    owners
}

/// Steps 1+2 before the mutual-selection repair.
fn best_owners(stats: &PartitionStats) -> Vec<u32> {
    let mut owners: Vec<u32> = (0..stats.id_bound() as u32).collect();
    // A community's own id with gain 0 stands for "no neighbor yet": the
    // first positive gain always replaces it.
    let mut best = vec![0.0f64; owners.len()];
    for &(a, b, m) in stats.between() {
        let gain = stats.pair_gain(a, b, m);
        if gain <= 0.0 {
            continue;
        }
        // `b` may join `a`'s neighborhood and vice versa.
        for (community, owner) in [(a as usize, b), (b as usize, a)] {
            let (g, o) = (best[community], owners[community]);
            if gain > g || (gain == g && owner < o) {
                best[community] = gain;
                owners[community] = owner;
            }
        }
    }
    owners
}

/// Collapse every mutual selection (`c → o`, `o → c`) to the smaller id,
/// in one ascending pass: the pair is met first at its smaller id.
fn resolve_mutual(owners: &mut [u32]) {
    for c in 0..owners.len() {
        let o = owners[c] as usize;
        if o > c && owners[o] as usize == c {
            owners[c] = c as u32;
            owners[o] = c as u32;
        }
    }
}

/// Step 3, shared by the native and the SQL loop: repair mutual
/// selections in `owners` (indexed by community id; an id that keeps its
/// name maps to itself), rename every node to its community's owner and
/// count the communities that changed owner. `None` when the iteration
/// changes nothing: no merge, or only a rename cycle (A→B→C→A) that
/// permutes labels without changing the partition — the rename changes
/// the partition exactly when two communities get the same owner.
pub(crate) fn aggregate(
    assignment: &Assignment,
    stats: &PartitionStats,
    owners: &mut [u32],
) -> Option<(Assignment, usize)> {
    resolve_mutual(owners);
    let mut merges = 0;
    let mut merged = false;
    let mut taken = vec![false; owners.len()];
    for &c in stats.communities() {
        let owner = owners[c as usize];
        merges += usize::from(owner != c);
        merged |= std::mem::replace(&mut taken[owner as usize], true);
    }
    if !merged {
        return None;
    }
    let renamed = assignment
        .as_slice()
        .iter()
        .map(|&c| owners[c as usize])
        .collect();
    Some((Assignment::from_vec(renamed), merges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, HashStats};

    /// Two 4-cliques linked by a single edge.
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
    fn recovers_the_two_cliques() {
        let g = two_cliques();
        let out = cluster_parallel(&g, &ParallelConfig::default());
        let truth = Assignment::from_vec(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert!(
            out.assignment.same_partition(&truth),
            "got {:?}",
            out.assignment.as_slice()
        );
    }

    #[test]
    fn trace_is_monotone_in_community_count() {
        let g = two_cliques();
        let out = cluster_parallel(&g, &ParallelConfig::default());
        assert!(out.trace.len() >= 2);
        assert_eq!(out.trace[0].communities, 8);
        for pair in out.trace.windows(2) {
            assert!(pair[1].communities <= pair[0].communities);
        }
        // The greedy ends far above the singleton initialization.
        let first = out.trace.first().unwrap().total_modularity;
        let last = out.trace.last().unwrap().total_modularity;
        assert!(last > first);
    }

    #[test]
    fn parallel_stats_match_serial() {
        let g = two_cliques();
        let a = Assignment::from_vec(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(
            PartitionStats::compute_with(&g, &a, 1),
            PartitionStats::compute_with(&g, &a, 4)
        );
    }

    /// A weighted graph with more edges than the largest worker count has
    /// chunks.
    fn weighted_ring_of_cliques() -> MultiGraph {
        let mut edges = Vec::new();
        for clique in 0..6u32 {
            let base = clique * 5;
            for i in 0..5 {
                for j in i + 1..5 {
                    edges.push((base + i, base + j, 1 + ((i + j) % 3) as u64));
                }
            }
            let next = ((clique + 1) % 6) * 5;
            edges.push((base + 4, next, 2));
        }
        MultiGraph::from_edges(30, edges)
    }

    #[test]
    fn dense_stats_match_hashmap_reference() {
        let g = weighted_ring_of_cliques();
        // Communities with varied sizes, including a degree-carrying merge
        // of nodes across cliques and sparse representative ids.
        let communities: Vec<u32> = (0..30u32).map(|n| (n / 7) * 7).collect();
        let a = Assignment::from_vec(communities);
        let reference = HashStats::compute(&g, &a);
        for workers in [1, 2, 4, 8] {
            let dense = PartitionStats::compute_with(&g, &a, workers);
            assert_eq!(HashStats::of(&dense), reference, "workers={workers}");
            assert_eq!(
                dense.total_modularity().to_bits(),
                reference.total_modularity().to_bits()
            );
        }
    }

    #[test]
    fn owners_and_loop_match_hashmap_reference() {
        for g in [two_cliques(), weighted_ring_of_cliques()] {
            let stats = PartitionStats::compute(&g, &Assignment::singletons(g.num_nodes()));
            let expected = oracle::choose_owners(&HashStats::compute(
                &g,
                &Assignment::singletons(g.num_nodes()),
            ));
            for (c, &owner) in choose_owners(&stats).iter().enumerate() {
                assert_eq!(
                    owner,
                    expected.get(&(c as u32)).copied().unwrap_or(c as u32)
                );
            }
            let reference = oracle::cluster(&g, 20);
            for workers in [1, 3] {
                let out = cluster_parallel(
                    &g,
                    &ParallelConfig {
                        workers,
                        max_iterations: 20,
                    },
                );
                assert_eq!(out.assignment, reference.assignment);
                assert_eq!(out.trace, reference.trace);
            }
        }
    }

    #[test]
    fn workers_do_not_change_the_result() {
        let g = two_cliques();
        let serial = cluster_parallel(
            &g,
            &ParallelConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let par = cluster_parallel(
            &g,
            &ParallelConfig {
                workers: 4,
                ..Default::default()
            },
        );
        assert!(serial.assignment.same_partition(&par.assignment));
        assert_eq!(serial.trace, par.trace);
    }

    #[test]
    fn isolated_nodes_stay_orphans() {
        let g = MultiGraph::from_edges(5, vec![(0, 1, 3)]);
        let out = cluster_parallel(&g, &ParallelConfig::default());
        // Nodes 2,3,4 are isolated: they must remain singletons.
        let a = &out.assignment;
        assert_eq!(a.community_of(0), a.community_of(1));
        assert_ne!(a.community_of(2), a.community_of(3));
        assert_eq!(out.num_communities(), 4);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = MultiGraph::from_edges(3, vec![]);
        let out = cluster_parallel(&g, &ParallelConfig::default());
        assert_eq!(out.iterations(), 0);
        assert_eq!(out.assignment.num_communities(), 3);
    }

    #[test]
    fn resume_from_any_iteration_is_bit_identical() {
        let g = weighted_ring_of_cliques();
        let config = ParallelConfig::default();
        let reference = cluster_parallel(&g, &config);
        assert!(
            reference.iterations() >= 2,
            "graph converges too fast to test resume"
        );

        // Record the state after every iteration, then restart from each
        // as if the process had died right after persisting it.
        let mut states: Vec<(Assignment, Vec<IterationStat>)> = Vec::new();
        cluster_parallel_resumable(&g, &config, None, |a, t| {
            states.push((a.clone(), t.to_vec()));
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        for (i, state) in states.into_iter().enumerate() {
            let resumed = cluster_parallel_resumable(&g, &config, Some(state), |_, _| {
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            assert_eq!(
                resumed.assignment.as_slice(),
                reference.assignment.as_slice(),
                "resume after callback {i} diverged"
            );
            assert_eq!(
                resumed.trace, reference.trace,
                "trace after callback {i} diverged"
            );
            for (a, b) in resumed.trace.iter().zip(&reference.trace) {
                assert_eq!(
                    a.total_modularity.to_bits(),
                    b.total_modularity.to_bits(),
                    "modularity not bit-identical at iteration {}",
                    a.iteration
                );
            }
        }
    }

    #[test]
    fn stale_resume_state_is_ignored() {
        let g = two_cliques();
        let reference = cluster_parallel(&g, &ParallelConfig::default());
        let stale_trace = vec![IterationStat {
            iteration: 7,
            communities: 3,
            total_modularity: 0.0,
            merges: 0,
        }];
        for stale in [
            Assignment::singletons(3), // wrong node count
            // A community id that is no node: it would index past every
            // per-community array.
            Assignment::from_vec(vec![0, 0, 0, 0, 4, 4, 4, 8]),
        ] {
            let out = cluster_parallel_resumable(
                &g,
                &ParallelConfig::default(),
                Some((stale, stale_trace.clone())),
                |_, _| Ok::<(), std::convert::Infallible>(()),
            )
            .unwrap();
            assert_eq!(out.trace, reference.trace);
            assert_eq!(out.assignment, reference.assignment);
        }
    }

    #[test]
    fn callback_errors_abort_the_loop() {
        let g = two_cliques();
        let mut calls = 0;
        let out = cluster_parallel_resumable(&g, &ParallelConfig::default(), None, |_, t| {
            calls += 1;
            if t.last().map_or(0, |s| s.iteration) >= 1 {
                Err("disk full")
            } else {
                Ok(())
            }
        });
        assert_eq!(out.unwrap_err(), "disk full");
        assert_eq!(calls, 2, "must stop at the first failing persist");
    }
}
