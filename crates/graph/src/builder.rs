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
use esharp_par::{default_chunk, shared_pool};
use esharp_querylog::{AggregatedLog, UrlId, World};
use std::ops::Range;
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
    // 1. Normalized click vectors, one flat row per node. 2. URL inverted
    //    index. 3. Pair sums, a row (node) at a time over fixed node
    //    ranges, each task with its own accumulator; 4. the threshold is
    //    applied as a row completes.
    let (labels, rows) = ClickRows::new(log, world);
    let (index, urls_skipped) = PairIndex::new(rows, config.max_url_fanout);
    let nodes: Vec<NodeId> = (0..labels.len() as NodeId).collect();
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

/// Every node's click vector in one CSR array: node `i`'s components,
/// sorted by URL id with duplicate URLs merged and scaled to unit norm, are
/// `components[start[i]..start[i + 1]]`.
struct ClickRows {
    components: Vec<(UrlId, f64)>,
    start: Vec<usize>,
}

/// Node labels, and each node's raw components at `start[i]..start[i + 1]`
/// for [`ClickRows::new`] to sort, merge and scale.
type Grouped = (Vec<Arc<str>>, Vec<usize>, Vec<(UrlId, f64)>);

impl ClickRows {
    /// Node labels and rows. Nodes are numbered in first-appearance order,
    /// which is term-id order for records sorted by term, as `from_events`
    /// and `filter_min_support` hand them over.
    fn new(log: &AggregatedLog, world: &World) -> (Vec<Arc<str>>, ClickRows) {
        let (labels, mut start, mut components) = if log.records.is_sorted_by_key(|r| r.term) {
            Self::group_runs(log, world)
        } else {
            Self::group_by_counting(log, world)
        };

        // Merging duplicates only shortens rows, so each row moves left in
        // place. The merge (stable, in record order), the norm and the
        // division are the oracles' `ClickVector`'s, addition for addition.
        let mut end = 0;
        for node in 0..labels.len() {
            let row = start[node]..start[node + 1];
            let strictly_increasing = components[row.clone()].is_sorted_by(|a, b| a.0 < b.0);
            let first = end;
            if strictly_increasing && first == row.start {
                // Nothing to merge and nowhere to move.
                end = row.end;
            } else {
                if !strictly_increasing {
                    components[row.clone()].sort_by_key(|&(url, _)| url);
                }
                for k in row {
                    let (url, clicks) = components[k];
                    if end > first && components[end - 1].0 == url {
                        components[end - 1].1 += clicks;
                    } else {
                        components[end] = (url, clicks);
                        end += 1;
                    }
                }
            }
            start[node] = first;
            let row = &mut components[first..end];
            let norm = row.iter().map(|&(_, x)| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                row.iter_mut().for_each(|(_, x)| *x /= norm);
            }
        }
        start[labels.len()] = end;
        components.truncate(end);
        (labels, ClickRows { components, start })
    }

    /// Records sorted by term already lie grouped: a node is a run of one
    /// term, and its components are its records, in order.
    fn group_runs(log: &AggregatedLog, world: &World) -> Grouped {
        let mut labels: Vec<Arc<str>> = Vec::new();
        let mut start = Vec::new();
        for (k, record) in log.records.iter().enumerate() {
            if k == 0 || log.records[k - 1].term != record.term {
                labels.push(Arc::from(world.term_text(record.term)));
                start.push(k);
            }
        }
        start.push(log.records.len());
        let components = log.records.iter().map(|r| (r.url, r.clicks as f64));
        (labels, start, components.collect())
    }

    /// Records in any other order: a counting sort by node. The term →
    /// node table is sized from the records themselves: `from_events`
    /// accepts term ids the world never issued.
    fn group_by_counting(log: &AggregatedLog, world: &World) -> Grouped {
        let num_terms = log.records.iter().map(|r| r.term as usize + 1).max();
        let mut node_of_term = vec![NodeId::MAX; num_terms.unwrap_or(0)];
        let mut labels: Vec<Arc<str>> = Vec::new();
        let mut start = vec![0];
        for record in &log.records {
            let node = &mut node_of_term[record.term as usize];
            if *node == NodeId::MAX {
                *node = labels.len() as NodeId;
                labels.push(Arc::from(world.term_text(record.term)));
                start.push(0);
            }
            start[*node as usize + 1] += 1;
        }
        for node in 1..start.len() {
            start[node] += start[node - 1];
        }
        let mut fill = start.clone();
        let mut components = vec![(0, 0.0); log.records.len()];
        for record in &log.records {
            let slot = &mut fill[node_of_term[record.term as usize] as usize];
            components[*slot] = (record.url, record.clicks as f64);
            *slot += 1;
        }
        (labels, start, components)
    }

    /// Positions of node `i`'s components.
    fn row(&self, i: NodeId) -> Range<usize> {
        self.start[i as usize]..self.start[i as usize + 1]
    }
}

/// The URL inverted index in CSR form, and each component's way into it.
struct PairIndex {
    rows: ClickRows,
    /// The kept lists' `(node, weight)` postings as two parallel arrays,
    /// grouped by URL id, in node order within a URL.
    node: Vec<NodeId>,
    weight: Vec<f64>,
    /// Per URL id.
    lists: Vec<UrlList>,
    /// Per component of `rows`: the position just after its own posting,
    /// so `after[c]..lists[url].end` are the URL's postings of later nodes.
    after: Vec<u32>,
}

/// Where one URL's posting list ends, and which chunk it is summed in.
#[derive(Clone, Copy)]
struct UrlList {
    end: u32,
    /// Chunk label (see [`build_graph`]), from 1; 0 for a list over the
    /// fanout cap, which is left empty.
    chunk: u32,
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
    /// Counting sort of every row component by URL id. Also returns how
    /// many URLs the fanout cap skipped.
    fn new(rows: ClickRows, max_url_fanout: usize) -> (PairIndex, usize) {
        assert!(rows.components.len() <= u32::MAX as usize, "u32 positions");
        let urls = || rows.components.iter().map(|&(url, _)| url as usize);
        let mut fanout = vec![0; urls().max().map_or(0, |url| url + 1)];
        for url in urls() {
            fanout[url] += 1;
        }
        // Kept lists are ranked in URL-id order from 1; rank over chunk
        // size, rounded up, is a list's chunk label. Every list starts out
        // with `end` at its start and is filled up to its end below.
        let kept = fanout.iter().filter(|&&n| n > 0 && n <= max_url_fanout);
        let chunk_size = default_chunk(kept.count());
        let (mut rank, mut postings, mut urls_skipped) = (0usize, 0, 0);
        let mut lists: Vec<UrlList> = fanout
            .iter()
            .map(|&n| {
                let end = postings as u32;
                if n > max_url_fanout {
                    urls_skipped += 1;
                    return UrlList { end, chunk: 0 };
                }
                rank += usize::from(n > 0);
                postings += n;
                let chunk = rank.div_ceil(chunk_size) as u32;
                UrlList { end, chunk }
            })
            .collect();

        let mut node = vec![0; postings];
        let mut weight = vec![0.0; postings];
        let mut after = Vec::with_capacity(rows.components.len());
        for i in 0..rows.start.len() - 1 {
            for &(url, w) in &rows.components[rows.row(i as NodeId)] {
                let list = &mut lists[url as usize];
                if list.chunk > 0 {
                    node[list.end as usize] = i as NodeId;
                    weight[list.end as usize] = w;
                    list.end += 1;
                }
                after.push(list.end);
            }
        }
        let index = PairIndex {
            rows,
            node,
            weight,
            lists,
            after,
        };
        (index, urls_skipped)
    }

    /// Rows `nodes` (a contiguous run) of the similarity matrix: the edges
    /// `(i, j > i)` at or above the threshold in `(i, j)` order, and the
    /// number of candidate pairs summed on the way.
    fn accumulate(&self, nodes: &[NodeId], min_similarity: f64) -> (Vec<Edge>, usize) {
        let mut sums = vec![PairSum::default(); self.rows.start.len() - 1];
        let mut touched: Vec<NodeId> = vec![0; sums.len()];
        let mut edges: Vec<Edge> = Vec::new();
        let mut candidates = 0;
        for &i in nodes {
            let mut len = 0;
            for c in self.rows.row(i) {
                let (url, wi) = self.rows.components[c];
                let list = self.lists[url as usize];
                let later = self.after[c] as usize..list.end as usize;
                for (&j, &wj) in self.node[later.clone()].iter().zip(&self.weight[later]) {
                    // Masks, not a branch: about half the contributions
                    // open a new (pair, chunk) sum. `keep` is all ones
                    // while the chunk goes on, and a masked-out partial
                    // is +0.0. Sums are non-negative, so `total + 0.0`
                    // keeps its bits, and so does a first partial or
                    // contribution added to `0.0`.
                    let sum = &mut sums[j as usize];
                    let keep = u64::from(sum.chunk == list.chunk).wrapping_neg();
                    touched[len] = j;
                    len += usize::from(sum.chunk == 0);
                    let partial = sum.partial.to_bits();
                    sum.total += f64::from_bits(partial & !keep);
                    sum.partial = f64::from_bits(partial & keep) + wi * wj;
                    sum.chunk = list.chunk;
                }
            }
            // Threshold first, then order only the survivors.
            candidates += len;
            let first_of_row = edges.len();
            for &b in &touched[..len] {
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
    use crate::vector::ClickVector;
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

    /// The records of the next test, shuffled; see there.
    fn split_zero_click_and_shuffled_inputs() -> (World, AggregatedLog) {
        let terms = (0..24)
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
        let mut records = Vec::new();
        let mut push = |term, url, clicks| records.push(ClickRecord { term, url, clicks });
        for url in 0..6 {
            push(0, url, 0);
        }
        for url in 0..40 {
            let big = 1 << 53;
            match url % 3 {
                0 => [1, 1, big].into_iter().for_each(|c| push(1, url, c)),
                1 => [big, 1, 1].into_iter().for_each(|c| push(1, url, c)),
                _ => [1, big].into_iter().for_each(|c| push(1, url, c)),
            }
        }
        for term in 2..24 {
            for k in 0..5 {
                let url = (term * 7 + k * 11) % 40;
                push(term, url, u64::from(term + k) % 4);
                if k % 2 == 0 {
                    push(term, url, 1 + u64::from(k));
                }
            }
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..records.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            records.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let log = AggregatedLog {
            records,
            term_totals: Vec::new(),
            raw_events: 0,
        };
        (world, log)
    }

    /// Inputs `from_events` never produces, which the rows must merge and
    /// sort themselves as `ClickVector::from_pairs` does: one `(term, url)`
    /// split over two or three records, zero-click records (term 0 has
    /// nothing else), and the records shuffled. Term 1's row is long enough
    /// for an unstable sort to reorder equal URLs, and its split clicks
    /// (`2⁵³` and ones) sum to different f64s in different orders.
    #[test]
    fn split_zero_click_and_shuffled_records_match_the_oracle() {
        let (world, log) = split_zero_click_and_shuffled_inputs();
        for max_url_fanout in [3, 400] {
            let mut config = GraphConfig {
                min_similarity: 0.01,
                max_url_fanout,
                workers: 1,
            };
            let oracle = build_graph_sorted(&log, &world, &config);
            assert!(oracle.1.edges_kept > 10, "{:?}", oracle.1);
            assert_eq!(oracle.1.urls_skipped > 0, max_url_fanout == 3);
            for workers in [1, 2, 3, 8] {
                config.workers = workers;
                assert_bit_identical(
                    &build_graph(&log, &world, &config),
                    &oracle,
                    &format!("fanout={max_url_fanout} workers={workers}"),
                );
            }
        }
    }

    /// The previous test's records stably sorted by term alone: sorted by
    /// term, rows go straight from the records, so the runs themselves
    /// must hold their split duplicates, zero clicks and unsorted URLs.
    /// In a second log terms 12 and up keep one record per URL in URL
    /// order: rows that need no merge, which must still move left past
    /// the rows earlier merges shortened.
    #[test]
    fn term_sorted_records_with_split_and_unsorted_urls_match_the_oracle() {
        let (world, mut log) = split_zero_click_and_shuffled_inputs();
        log.records.sort_by_key(|r| r.term);
        let split = log
            .records
            .windows(2)
            .any(|w| (w[0].term, w[0].url) == (w[1].term, w[1].url));
        let unsorted = log
            .records
            .windows(2)
            .any(|w| w[0].term == w[1].term && w[0].url > w[1].url);
        assert!(split && unsorted && log.records.iter().any(|r| r.clicks == 0));
        let mut merged_then_increasing = log.clone();
        let mut seen = BTreeSet::new();
        let records = &mut merged_then_increasing.records;
        records.retain(|r| r.term < 12 || seen.insert((r.term, r.url)));
        let tail = records.partition_point(|r| r.term < 12);
        records[tail..].sort_by_key(|r| (r.term, r.url));
        for log in [log, merged_then_increasing] {
            for max_url_fanout in [3, 400] {
                let mut config = GraphConfig {
                    min_similarity: 0.01,
                    max_url_fanout,
                    workers: 1,
                };
                let oracle = build_graph_sorted(&log, &world, &config);
                assert!(oracle.1.edges_kept > 10, "{:?}", oracle.1);
                for workers in [1, 3] {
                    config.workers = workers;
                    assert_bit_identical(
                        &build_graph(&log, &world, &config),
                        &oracle,
                        &format!("fanout={max_url_fanout} workers={workers}"),
                    );
                }
            }
        }
    }

    /// One run per term, but the terms descending: not sorted by term, so
    /// the counting path numbers the nodes, in first-appearance order.
    #[test]
    fn descending_term_runs_take_the_counting_path_and_match_the_oracle() {
        let (world, mut log) = build_inputs();
        log.records.sort_by_key(|r| std::cmp::Reverse(r.term));
        assert!(!log.records.is_sorted_by_key(|r| r.term));
        let mut config = GraphConfig::default();
        let oracle = build_graph_sorted(&log, &world, &config);
        let first = world.term_text(log.records[0].term);
        assert_eq!(&*oracle.0.labels()[0], first);
        for workers in [1, 3] {
            config.workers = workers;
            assert_bit_identical(
                &build_graph(&log, &world, &config),
                &oracle,
                &format!("workers={workers}"),
            );
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
