//! Building the similarity graph from an aggregated log (§4.1).
//!
//! Naive all-pairs cosine is quadratic in the vocabulary; the practical
//! construction (after Baeza-Yates & Tiberi, the paper's [1]) accumulates
//! dot products *through the URL inverted index*: two queries only share a
//! dot-product term if they clicked the same URL, so walking each query's
//! URLs and the postings behind them visits exactly the non-zero entries
//! of the similarity matrix. URLs clicked by a huge number of distinct
//! queries (hubs) are capped — they carry little discriminative signal and
//! would otherwise make the pair generation quadratic again.

use crate::graph::{Edge, NodeId, SimilarityGraph};
use crate::vector::ClickVector;
use esharp_par::{default_chunk, shared_pool};
use esharp_querylog::{AggregatedLog, UrlId, World};
use std::sync::Arc;

/// Graph construction parameters.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Minimum cosine similarity for an edge to be kept.
    pub min_similarity: f64,
    /// URLs clicked by more than this many distinct queries are skipped in
    /// pair generation (hub suppression).
    pub max_url_fanout: usize,
    /// Worker threads for the pair-accumulation kernel. The output is
    /// bit-identical at any value (see the determinism note on
    /// [`build_graph`]); this knob only trades wall clock.
    pub workers: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            min_similarity: 0.02,
            max_url_fanout: 400,
            workers: 1,
        }
    }
}

/// Intermediate per-pair accumulation statistics, reported for Table 9
/// style accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Distinct queries that survived the support filter and got a vector.
    pub num_queries: usize,
    /// Candidate pairs accumulated through the inverted index.
    pub candidate_pairs: usize,
    /// Edges kept after the similarity threshold.
    pub edges_kept: usize,
    /// URLs skipped by the fanout cap.
    pub urls_skipped: usize,
}

/// Build the term-similarity graph from an aggregated (and already
/// support-filtered) log. Node labels are term texts resolved through the
/// world.
///
/// # Determinism
///
/// A pair's weight is one fixed f64 addition tree, whatever the worker
/// count. URL posting lists that pass the fanout cap are numbered in
/// URL-id order and cut into chunks of `default_chunk(kept lists)`; a
/// pair's contributions are summed left to right in URL order inside each
/// chunk, and the per-chunk sums are then added left to right in chunk
/// order. The chunk number only labels that tree. The work is split by
/// node instead: each row `i` of the similarity matrix (all pairs
/// `(i, j > i)`) is accumulated on its own, so no sum ever crosses a task
/// and the rows concatenate in node order with nothing to merge.
pub fn build_graph(
    log: &AggregatedLog,
    world: &World,
    config: &GraphConfig,
) -> (SimilarityGraph, BuildStats) {
    // 1. Dense node ids in first-appearance order (records are sorted by
    //    term, so term-id order). The term → node table is sized from the
    //    records themselves: `from_events` accepts term ids the world
    //    never issued.
    let num_terms = log.records.iter().map(|r| r.term as usize + 1).max();
    let mut node_of_term = vec![NodeId::MAX; num_terms.unwrap_or(0)];
    let mut labels: Vec<Arc<str>> = Vec::new();
    let mut pairs_per_node: Vec<Vec<(UrlId, f64)>> = Vec::new();
    for record in &log.records {
        let node = &mut node_of_term[record.term as usize];
        if *node == NodeId::MAX {
            *node = labels.len() as NodeId;
            labels.push(Arc::from(world.term_text(record.term)));
            pairs_per_node.push(Vec::new());
        }
        pairs_per_node[*node as usize].push((record.url, record.clicks as f64));
    }

    // 2. Normalized click vector per node.
    let vectors = pairs_per_node.into_iter().map(ClickVector::from_pairs);
    let mut vectors: Vec<ClickVector> = vectors.collect();
    vectors.iter_mut().for_each(ClickVector::normalize);

    // 3. URL inverted index. 4. Pair sums, a row (node) at a time over
    //    fixed node ranges, each task with its own accumulator; 5. the
    //    threshold is applied as a row completes.
    let (index, urls_skipped) = PairIndex::new(&vectors, config.max_url_fanout);
    let nodes: Vec<NodeId> = (0..vectors.len() as NodeId).collect();
    let pool = shared_pool(config.workers);
    let rows = pool.map_chunks(&nodes, default_chunk(nodes.len()), |nodes| {
        index.accumulate(nodes, config.min_similarity)
    });
    let (edges, candidates): (Vec<Vec<Edge>>, Vec<usize>) = rows.into_iter().unzip();
    let edges = edges.concat();

    let stats = BuildStats {
        num_queries: labels.len(),
        candidate_pairs: candidates.iter().sum(),
        edges_kept: edges.len(),
        urls_skipped,
    };
    (SimilarityGraph::new(labels, edges), stats)
}

/// The URL inverted index in CSR form, and each node's way into it.
struct PairIndex {
    /// `(node, weight)` grouped by URL id, in node order within a URL.
    postings: Vec<(NodeId, f64)>,
    /// Node `i`'s kept URLs, in URL-id order, are
    /// `terms[row_start[i]..row_start[i + 1]]`.
    terms: Vec<RowTerm>,
    row_start: Vec<usize>,
}

/// One kept URL of one node's click vector.
struct RowTerm {
    /// The node's normalized weight on the URL.
    weight: f64,
    /// Chunk label of the URL's posting list (see [`build_graph`]), from 1.
    chunk: u32,
    /// The URL's postings that belong to later nodes.
    later: std::ops::Range<usize>,
}

/// Running sum of one pair `(i, j)` while row `i` is accumulated.
#[derive(Clone, Copy, Default)]
struct PairSum {
    /// Contributions of the chunk being read, added in URL order.
    partial: f64,
    /// Sum of the finished chunks' partials, added in chunk order.
    total: f64,
    /// Chunk label of the last contribution; 0 before the first.
    chunk: u32,
}

impl PairIndex {
    /// Counting sort of every vector component by URL id. Also returns
    /// how many URLs the fanout cap skipped.
    fn new(vectors: &[ClickVector], max_url_fanout: usize) -> (PairIndex, usize) {
        let components = || vectors.iter().flat_map(|v| v.components());
        let num_urls = components().map(|&(url, _)| url as usize + 1).max();
        let mut list_start = vec![0usize; num_urls.unwrap_or(0) + 1];
        for &(url, _) in components() {
            list_start[url as usize + 1] += 1;
        }
        // Rank the kept lists in URL-id order, from 1 (0: no list, or one
        // over the cap). Rank over chunk size, rounded up, is a list's chunk
        // label: 1, 2, … for kept lists and still 0 for the others.
        let (mut kept, mut urls_skipped) = (0, 0);
        let mut rank_of_url = vec![0usize; list_start.len() - 1];
        for (url, rank) in rank_of_url.iter_mut().enumerate() {
            let fanout = list_start[url + 1];
            if fanout > max_url_fanout {
                urls_skipped += 1;
            } else if fanout > 0 {
                kept += 1;
                *rank = kept;
            }
            list_start[url + 1] += list_start[url];
        }
        let chunk_size = default_chunk(kept);

        let mut fill = list_start.clone();
        let mut postings = vec![(0 as NodeId, 0.0); fill[fill.len() - 1]];
        let mut terms = Vec::new();
        let mut row_start = vec![0];
        for (node, vector) in vectors.iter().enumerate() {
            for &(url, weight) in vector.components() {
                let url = url as usize;
                postings[fill[url]] = (node as NodeId, weight);
                fill[url] += 1;
                let chunk = rank_of_url[url].div_ceil(chunk_size) as u32;
                if chunk > 0 {
                    terms.push(RowTerm {
                        weight,
                        chunk,
                        later: fill[url]..list_start[url + 1],
                    });
                }
            }
            row_start.push(terms.len());
        }
        let index = PairIndex {
            postings,
            terms,
            row_start,
        };
        (index, urls_skipped)
    }

    /// Rows `nodes` (a contiguous run) of the similarity matrix: the edges
    /// `(i, j > i)` at or above the threshold in `(i, j)` order, and the
    /// number of candidate pairs summed on the way.
    fn accumulate(&self, nodes: &[NodeId], min_similarity: f64) -> (Vec<Edge>, usize) {
        let mut sums = vec![PairSum::default(); self.row_start.len() - 1];
        let mut touched: Vec<NodeId> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut candidates = 0;
        for &i in nodes {
            let row = self.row_start[i as usize]..self.row_start[i as usize + 1];
            for term in &self.terms[row] {
                for &(j, weight) in &self.postings[term.later.clone()] {
                    let sum = &mut sums[j as usize];
                    if sum.chunk != term.chunk {
                        if sum.chunk == 0 {
                            touched.push(j);
                        }
                        // Weights are non-negative, so the `0.0 +` this
                        // puts in front of a first partial or a first
                        // contribution leaves its bits alone.
                        sum.total += sum.partial;
                        sum.partial = 0.0;
                        sum.chunk = term.chunk;
                    }
                    sum.partial += term.weight * weight;
                }
            }
            // Threshold first, then order only the survivors.
            candidates += touched.len();
            let first_of_row = edges.len();
            for b in touched.drain(..) {
                let sum = std::mem::take(&mut sums[b as usize]);
                let weight = sum.total + sum.partial;
                if weight >= min_similarity {
                    let weight = weight.min(1.0);
                    edges.push(Edge { a: i, b, weight });
                }
            }
            edges[first_of_row..].sort_unstable_by_key(|e| e.b);
        }
        (edges, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_querylog::{ClickRecord, LogConfig, LogGenerator, TermId, TermInfo, WorldConfig};
    use std::collections::{BTreeSet, HashMap};

    /// The kernel `build_graph` replaced, kept as its bit-identity oracle:
    /// every `(packed pair, wᵢ·wⱼ)` contribution of a chunk of kept posting
    /// lists goes into a flat buffer, a stable sort + left-to-right fold
    /// reduces the buffer, and the chunk outputs are concatenated in chunk
    /// order and reduced the same way. That is the f64 addition tree the
    /// row kernel has to reproduce.
    fn build_graph_sorted(
        log: &AggregatedLog,
        world: &World,
        config: &GraphConfig,
    ) -> (SimilarityGraph, BuildStats) {
        let (labels, mut vectors) = click_vectors(log, world);
        vectors.iter_mut().for_each(ClickVector::normalize);
        let mut inverted: HashMap<UrlId, Vec<(NodeId, f64)>> = HashMap::new();
        for (node, vector) in vectors.iter().enumerate() {
            for &(url, weight) in vector.components() {
                inverted
                    .entry(url)
                    .or_default()
                    .push((node as NodeId, weight));
            }
        }
        let mut posting_lists: Vec<(&UrlId, &Vec<(NodeId, f64)>)> = inverted.iter().collect();
        posting_lists.sort_by_key(|&(url, _)| *url);
        let kept_lists: Vec<&[(NodeId, f64)]> = posting_lists
            .iter()
            .filter(|(_, postings)| postings.len() <= config.max_url_fanout)
            .map(|(_, postings)| postings.as_slice())
            .collect();

        let mut contributions: Vec<(u64, f64)> = Vec::new();
        for lists in kept_lists.chunks(default_chunk(kept_lists.len())) {
            let mut buffer: Vec<(u64, f64)> = Vec::new();
            for postings in lists {
                for i in 0..postings.len() {
                    let (ni, wi) = postings[i];
                    for &(nj, wj) in &postings[i + 1..] {
                        buffer.push((((ni as u64) << 32) | nj as u64, wi * wj));
                    }
                }
            }
            fold_sorted_contributions(&mut buffer);
            contributions.extend(buffer);
        }
        fold_sorted_contributions(&mut contributions);

        let edges: Vec<Edge> = contributions
            .iter()
            .filter(|&&(_, w)| w >= config.min_similarity)
            .map(|&(pair, weight)| Edge {
                a: (pair >> 32) as NodeId,
                b: pair as NodeId,
                weight: weight.min(1.0),
            })
            .collect();
        let stats = BuildStats {
            num_queries: labels.len(),
            candidate_pairs: contributions.len(),
            edges_kept: edges.len(),
            urls_skipped: posting_lists.len() - kept_lists.len(),
        };
        (SimilarityGraph::new(labels, edges), stats)
    }

    /// Stable-sort by pair and fold each equal-key run left-to-right in
    /// place. Stability matters: contributions to the same pair keep their
    /// original (URL / chunk) order, which pins the f64 addition sequence.
    fn fold_sorted_contributions(contributions: &mut Vec<(u64, f64)>) {
        contributions.sort_by_key(|&(pair, _)| pair);
        let mut write = 0;
        let mut read = 0;
        while read < contributions.len() {
            let (pair, mut sum) = contributions[read];
            read += 1;
            while read < contributions.len() && contributions[read].0 == pair {
                sum += contributions[read].1;
                read += 1;
            }
            contributions[write] = (pair, sum);
            write += 1;
        }
        contributions.truncate(write);
    }

    /// Reference implementation: all-pairs cosine over the same vectors.
    fn build_graph_naive(
        log: &AggregatedLog,
        world: &World,
        config: &GraphConfig,
    ) -> SimilarityGraph {
        let (labels, vectors) = click_vectors(log, world);
        let mut edges = Vec::new();
        for i in 0..vectors.len() {
            for j in i + 1..vectors.len() {
                let sim = vectors[i].cosine(&vectors[j]);
                if sim >= config.min_similarity {
                    edges.push(Edge {
                        a: i as NodeId,
                        b: j as NodeId,
                        weight: sim,
                    });
                }
            }
        }
        SimilarityGraph::new(labels, edges)
    }

    /// Node labels and raw (un-normalized) click vectors, the way both
    /// references number nodes: a `HashMap` in first-appearance order.
    fn click_vectors(log: &AggregatedLog, world: &World) -> (Vec<Arc<str>>, Vec<ClickVector>) {
        let mut node_of_term: HashMap<TermId, NodeId> = HashMap::new();
        let mut labels: Vec<Arc<str>> = Vec::new();
        let mut pairs_per_node: Vec<Vec<(UrlId, f64)>> = Vec::new();
        for record in &log.records {
            let node = *node_of_term.entry(record.term).or_insert_with(|| {
                labels.push(Arc::from(world.term_text(record.term)));
                pairs_per_node.push(Vec::new());
                labels.len() as NodeId - 1
            });
            pairs_per_node[node as usize].push((record.url, record.clicks as f64));
        }
        let vectors = pairs_per_node
            .into_iter()
            .map(ClickVector::from_pairs)
            .collect();
        (labels, vectors)
    }

    /// Same labels, same edges with the same weight bits, same statistics.
    fn assert_bit_identical(
        got: &(SimilarityGraph, BuildStats),
        want: &(SimilarityGraph, BuildStats),
        context: &str,
    ) {
        assert_eq!(got.1, want.1, "{context}: stats");
        assert_eq!(got.0.labels(), want.0.labels(), "{context}: labels");
        assert_eq!(
            got.0.num_edges(),
            want.0.num_edges(),
            "{context}: edge count"
        );
        for (g, w) in got.0.edges().iter().zip(want.0.edges()) {
            assert_eq!(
                (g.a, g.b, g.weight.to_bits()),
                (w.a, w.b, w.weight.to_bits()),
                "{context}: edge ({}, {}) {} vs {}",
                w.a,
                w.b,
                g.weight,
                w.weight
            );
        }
    }

    fn build_inputs() -> (World, AggregatedLog) {
        generated_inputs(&LogConfig::tiny(11), 10)
    }

    /// A tiny world and a support-filtered log of it, both from the log
    /// configuration's seed.
    fn generated_inputs(config: &LogConfig, min_support: u64) -> (World, AggregatedLog) {
        let world = World::generate(&WorldConfig::tiny(config.seed));
        let log = AggregatedLog::from_events(LogGenerator::new(&world, config), world.terms.len());
        (world, log.filter_min_support(min_support).0)
    }

    /// A log built to reach every shape of the addition tree: 600 terms
    /// (three node ranges), 900 URLs of which every seventh is a hub over
    /// the fanout cap of 8 (so a list's kept rank is not its URL rank),
    /// and 771 kept lists in four chunks of 256. Terms `5g..5g+4` click
    /// the three URLs `g`, `g+300`, `g+600`, which puts pairs inside one
    /// group in up to three different chunks, and every URL also gets a
    /// few pseudo-random terms for pairs across groups.
    fn multi_chunk_inputs() -> (World, AggregatedLog) {
        let terms = (0..600)
            .map(|i| TermInfo {
                text: format!("t{i}"),
                domains: Vec::new(),
            })
            .collect();
        let world = World {
            domains: Vec::new(),
            terms,
            urls: Vec::new(),
            seed: 0,
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut clicks: HashMap<(TermId, UrlId), u64> = HashMap::new();
        for url in 0..900u32 {
            if url % 7 == 3 {
                for k in 0..12 {
                    clicks.insert(((url * 13 + k * 47) % 600, url), 1 + next(5));
                }
                continue;
            }
            let group = url % 300;
            for member in 0..5 {
                // Not every member clicks every one of its group's URLs.
                if next(4) > 0 {
                    clicks.insert((group * 5 % 600 + member, url), 1 + next(40));
                }
            }
            for _ in 0..next(4) {
                clicks.insert((next(600) as TermId, url), 1 + next(10));
            }
        }
        let mut records: Vec<ClickRecord> = clicks
            .into_iter()
            .map(|((term, url), clicks)| ClickRecord { term, url, clicks })
            .collect();
        records.sort_by_key(|r| (r.term, r.url));
        let log = AggregatedLog {
            records,
            term_totals: Vec::new(),
            raw_events: 0,
        };
        (world, log)
    }

    #[test]
    fn multi_chunk_log_is_bit_identical_to_the_sort_and_fold_oracle() {
        let (world, log) = multi_chunk_inputs();
        let mut config = GraphConfig {
            min_similarity: 0.01,
            max_url_fanout: 8,
            workers: 1,
        };

        // The input really has the shape its comment claims.
        let mut terms_of_url: HashMap<UrlId, Vec<TermId>> = HashMap::new();
        for r in &log.records {
            terms_of_url.entry(r.url).or_default().push(r.term);
        }
        let mut urls: Vec<UrlId> = terms_of_url.keys().copied().collect();
        urls.sort_unstable();
        let kept: Vec<UrlId> = urls
            .iter()
            .copied()
            .filter(|u| terms_of_url[u].len() <= config.max_url_fanout)
            .collect();
        assert!(kept.len() >= 3 * 256 && kept.len() < urls.len());
        assert_eq!(default_chunk(kept.len()), 256);
        let mut chunks_of_pair: HashMap<(TermId, TermId), BTreeSet<usize>> = HashMap::new();
        for (rank, url) in kept.iter().enumerate() {
            let terms = &terms_of_url[url];
            for (k, &a) in terms.iter().enumerate() {
                for &b in &terms[k + 1..] {
                    chunks_of_pair.entry((a, b)).or_default().insert(rank / 256);
                }
            }
        }
        assert_ne!(kept[300], urls[300], "hubs shift the kept ranks");
        for spread in 1..=3 {
            let pairs = chunks_of_pair
                .values()
                .filter(|c| c.len() == spread)
                .count();
            assert!(pairs > 0, "no pair co-clicks URLs of {spread} chunk(s)");
        }

        let oracle = build_graph_sorted(&log, &world, &config);
        assert_eq!(oracle.1.candidate_pairs, chunks_of_pair.len());
        assert!(oracle.1.urls_skipped > 100 && oracle.1.edges_kept > 1000);
        for workers in [1, 2, 3, 8] {
            config.workers = workers;
            let built = build_graph(&log, &world, &config);
            assert_bit_identical(&built, &oracle, &format!("workers={workers}"));
        }
    }

    #[test]
    fn generated_logs_are_bit_identical_to_the_oracle_at_any_fanout() {
        for seed in 0..6u64 {
            let log_config = LogConfig {
                events: 4_000,
                ..LogConfig::tiny(seed)
            };
            let (world, filtered) = generated_inputs(&log_config, 5);
            for max_url_fanout in [0, 1, 3, 10, 400, usize::MAX] {
                for workers in [1, 3] {
                    let config = GraphConfig {
                        max_url_fanout,
                        workers,
                        ..GraphConfig::default()
                    };
                    assert_bit_identical(
                        &build_graph(&filtered, &world, &config),
                        &build_graph_sorted(&filtered, &world, &config),
                        &format!("seed={seed} fanout={max_url_fanout} workers={workers}"),
                    );
                }
            }
        }
    }

    #[test]
    fn unsorted_and_empty_logs_number_nodes_like_the_oracle() {
        let (world, mut log) = build_inputs();
        log.records.reverse();
        let config = GraphConfig::default();
        assert_bit_identical(
            &build_graph(&log, &world, &config),
            &build_graph_sorted(&log, &world, &config),
            "reversed records",
        );
        let (graph, stats) = build_graph(&AggregatedLog::default(), &world, &config);
        assert_eq!((graph.num_nodes(), graph.num_edges()), (0, 0));
        assert_eq!(stats, BuildStats::default());
    }

    #[test]
    fn term_table_is_sized_from_the_records() {
        // A log aggregated with a smaller `num_terms` than the world's:
        // nothing in the records says how many terms the world has.
        let (world, log) = build_inputs();
        let last = log.records.last().expect("non-empty log").term;
        assert!((last as usize) < world.terms.len());
        let short = AggregatedLog {
            term_totals: Vec::new(),
            ..log.clone()
        };
        let config = GraphConfig::default();
        assert_bit_identical(
            &build_graph(&short, &world, &config),
            &build_graph(&log, &world, &config),
            "no term totals",
        );
    }

    #[test]
    fn inverted_index_matches_naive_all_pairs() {
        let (world, log) = build_inputs();
        let config = GraphConfig {
            min_similarity: 0.10,
            max_url_fanout: usize::MAX, // no cap ⇒ must agree exactly
            workers: 1,
        };
        let (fast, _) = build_graph(&log, &world, &config);
        let naive = build_graph_naive(&log, &world, &config);
        assert_eq!(fast.num_nodes(), naive.num_nodes());
        assert_eq!(fast.num_edges(), naive.num_edges());
        for (a, b) in fast.edges().iter().zip(naive.edges()) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert!((a.weight - b.weight).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_matches_serial_bitexact() {
        let (world, log) = build_inputs();
        let mut config = GraphConfig::default();
        let serial = build_graph(&log, &world, &config);
        for workers in [2, 4, 8] {
            config.workers = workers;
            let parallel = build_graph(&log, &world, &config);
            assert_bit_identical(&parallel, &serial, &format!("workers={workers}"));
        }
    }

    #[test]
    fn same_domain_terms_are_strongly_connected() {
        let (world, log) = build_inputs();
        let (graph, _) = build_graph(&log, &world, &GraphConfig::default());
        let niners = graph.node_by_label("49ers");
        let draft = graph.node_by_label("49ers draft");
        let (Some(a), Some(b)) = (niners, draft) else {
            panic!("showcase terms missing from graph");
        };
        let weight = graph
            .neighbors(a)
            .iter()
            .find(|&&(v, _)| v == b)
            .map(|&(_, w)| w);
        assert!(
            weight.unwrap_or(0.0) > 0.3,
            "expected strong intra-domain similarity, got {weight:?}"
        );
    }

    #[test]
    fn cross_category_terms_are_not_connected_strongly() {
        let (world, log) = build_inputs();
        let (graph, _) = build_graph(&log, &world, &GraphConfig::default());
        if let (Some(a), Some(b)) = (
            graph.node_by_label("49ers"),
            graph.node_by_label("diabetes"),
        ) {
            let weight = graph
                .neighbors(a)
                .iter()
                .find(|&&(v, _)| v == b)
                .map(|&(_, w)| w)
                .unwrap_or(0.0);
            assert!(weight < 0.2, "49ers–diabetes similarity {weight}");
        }
    }

    #[test]
    fn fanout_cap_skips_hub_urls() {
        let (world, log) = build_inputs();
        let config = GraphConfig {
            min_similarity: 0.02,
            max_url_fanout: 5,
            workers: 1,
        };
        let (_, stats) = build_graph(&log, &world, &config);
        assert!(stats.urls_skipped > 0);
    }

    #[test]
    fn stats_are_coherent() {
        let (world, log) = build_inputs();
        let (graph, stats) = build_graph(&log, &world, &GraphConfig::default());
        assert_eq!(stats.num_queries, graph.num_nodes());
        assert_eq!(stats.edges_kept, graph.num_edges());
        assert!(stats.candidate_pairs >= stats.edges_kept);
    }
}
