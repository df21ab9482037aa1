//! Pluggable expertise retrieval.
//!
//! §7.1: "As our framework is based on query expansion, we do not compete
//! with any of these approaches. Our system can work with any Expertise
//! Retrieval system." This trait is that seam: e#'s expansion produces a
//! set of matching tweets; any retriever can turn that evidence into a
//! ranked expert list. [`PalCountsRetriever`] is the paper's production
//! choice; [`FrequencyRetriever`] is a deliberately naive alternative used
//! by tests and ablations to show the seam works.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use esharp_expert::{Detector, DetectorConfig, ExpertResult, Features};
use esharp_microblog::{Corpus, TweetId};
use std::collections::HashMap;

/// A strategy turning matched tweets into ranked experts.
pub trait ExpertiseRetriever: Send + Sync {
    /// Rank candidate experts given the tweets that matched the (expanded)
    /// query.
    fn retrieve(&self, corpus: &Corpus, matched: &[TweetId]) -> Vec<ExpertResult>;

    /// Rank one match set per query, in order — the batch planner's rank
    /// seam. The default simply loops [`ExpertiseRetriever::retrieve`];
    /// implementations may amortize per-call setup, but each set's
    /// result must stay bit-identical to a lone `retrieve` call.
    fn retrieve_batch(&self, corpus: &Corpus, match_sets: &[Vec<TweetId>]) -> Vec<Vec<ExpertResult>> {
        match_sets
            .iter()
            .map(|matched| self.retrieve(corpus, matched))
            .collect()
    }

    /// Human-readable retriever name.
    fn name(&self) -> &'static str;
}

/// The Pal & Counts detector (§3) behind the retriever seam.
#[derive(Debug, Clone, Default)]
pub struct PalCountsRetriever {
    /// Detector configuration.
    pub config: DetectorConfig,
}

impl PalCountsRetriever {
    /// Build from a detector configuration.
    pub fn new(config: DetectorConfig) -> Self {
        PalCountsRetriever { config }
    }
}

impl ExpertiseRetriever for PalCountsRetriever {
    fn retrieve(&self, corpus: &Corpus, matched: &[TweetId]) -> Vec<ExpertResult> {
        Detector::new(corpus, self.config.clone()).rank_candidates(matched)
    }

    fn retrieve_batch(&self, corpus: &Corpus, match_sets: &[Vec<TweetId>]) -> Vec<Vec<ExpertResult>> {
        // One detector (one config clone) and one scratch checkout for
        // the whole batch instead of one per query.
        Detector::new(corpus, self.config.clone()).rank_candidates_batch(match_sets)
    }

    fn name(&self) -> &'static str {
        "pal-counts"
    }
}

/// A naive frequency baseline: rank authors by their absolute number of
/// on-topic tweets, ignoring specialization and influence entirely. Used
/// to demonstrate retriever pluggability and as a lower anchor in
/// ablations (it surfaces prolific generalists over specialists).
#[derive(Debug, Clone)]
pub struct FrequencyRetriever {
    /// Cap on results.
    pub max_results: usize,
}

impl Default for FrequencyRetriever {
    fn default() -> Self {
        FrequencyRetriever { max_results: 15 }
    }
}

impl ExpertiseRetriever for FrequencyRetriever {
    fn retrieve(&self, corpus: &Corpus, matched: &[TweetId]) -> Vec<ExpertResult> {
        let author = corpus.columns().author();
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for &tid in matched {
            *counts.entry(author[tid as usize]).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u32, u64)> = counts.into_iter().collect();
        // Only the top `max_results` entries survive, so a full sort is
        // wasted work on large candidate sets: select the prefix in O(n),
        // then sort just that prefix. The comparator (count desc, user id
        // asc) is the same in both steps, so the output is identical to
        // the old sort-everything-then-truncate.
        let cmp = |a: &(u32, u64), b: &(u32, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        if self.max_results == 0 {
            return Vec::new();
        }
        if ranked.len() > self.max_results {
            ranked.select_nth_unstable_by(self.max_results - 1, cmp);
            ranked.truncate(self.max_results);
        }
        ranked.sort_unstable_by(cmp);
        ranked
            .into_iter()
            .map(|(user, n)| ExpertResult {
                user,
                score: n as f64,
                features: Features {
                    ts: 0.0,
                    mi: 0.0,
                    ri: 0.0,
                },
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "frequency"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_microblog::{generate_corpus, CorpusConfig};
    use esharp_querylog::{World, WorldConfig};

    fn corpus() -> Corpus {
        let world = World::generate(&WorldConfig::tiny(91));
        generate_corpus(&world, &CorpusConfig::tiny(91))
    }

    #[test]
    fn pal_counts_retriever_matches_direct_detector() {
        let corpus = corpus();
        let matched = corpus.match_query("diabetes");
        let retriever = PalCountsRetriever::default();
        let direct = Detector::new(&corpus, DetectorConfig::default()).rank_candidates(&matched);
        assert_eq!(retriever.retrieve(&corpus, &matched), direct);
        assert_eq!(retriever.name(), "pal-counts");
    }

    #[test]
    fn frequency_retriever_ranks_by_volume() {
        let corpus = corpus();
        let matched = corpus.match_query("diabetes");
        let results = FrequencyRetriever::default().retrieve(&corpus, &matched);
        assert!(!results.is_empty());
        for pair in results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        assert!(results.len() <= 15);
    }

    #[test]
    fn frequency_partial_sort_matches_full_sort() {
        let corpus = corpus();
        let matched = corpus.match_query("diabetes");
        // Reference: full sort then truncate (the pre-partial-sort code).
        let reference = |max: usize| -> Vec<(u32, f64)> {
            let mut counts: HashMap<u32, u64> = HashMap::new();
            for &tid in &matched {
                *counts.entry(corpus.tweet(tid).author).or_insert(0) += 1;
            }
            let mut ranked: Vec<(u32, u64)> = counts.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked
                .into_iter()
                .take(max)
                .map(|(u, n)| (u, n as f64))
                .collect()
        };
        for max in [0usize, 1, 2, 5, 15, 10_000] {
            let got: Vec<(u32, f64)> = FrequencyRetriever { max_results: max }
                .retrieve(&corpus, &matched)
                .into_iter()
                .map(|r| (r.user, r.score))
                .collect();
            assert_eq!(got, reference(max), "max_results={max}");
        }
    }

    #[test]
    fn retrievers_are_object_safe() {
        let corpus = corpus();
        let matched = corpus.match_query("diabetes");
        let retrievers: Vec<Box<dyn ExpertiseRetriever>> = vec![
            Box::new(PalCountsRetriever::default()),
            Box::new(FrequencyRetriever::default()),
        ];
        for r in &retrievers {
            let _ = r.retrieve(&corpus, &matched);
        }
    }
}
