//! The reference implementation the rank kernel is checked against: the
//! pre-scratch detector, kept verbatim — per-query `HashMap`
//! accumulation over owned `Tweet`s (`Corpus::tweet`, materialized from
//! the rows the kernel ranks from; the microblog crate's
//! `proptest_columns` checks those rows against a model built outside
//! the corpus), allocating log + z-score columns, a full sort. The unit
//! tests and the property suites (`tests/proptest_expert.rs`,
//! `tests/alloc_free.rs`, the serve crate's `proptest_batch.rs`) pin the
//! kernel to it bit for bit. Compiled only for tests and under the
//! `test-support` feature.

use crate::cluster_filter::cluster_cut;
use crate::detector::{Detector, ExpertResult};
use crate::features::{ratio, Features, TopicCounts};
use crate::features_ext::{compute_extended, is_conversational, ExtendedCounts, ExtendedFeatures};
use crate::normalize::{log_transform, z_scores_in_place};
use esharp_microblog::{Corpus, TweetId, UserId};
use std::collections::HashMap;

/// Candidate selection (§3): "a candidate expert is either an author of a
/// tweet, or a person mentioned in a tweet. In both cases, the tweet must
/// match the query." Returns each candidate's on-topic counts.
pub fn collect_candidates(
    corpus: &Corpus,
    matching: &[TweetId],
) -> HashMap<UserId, TopicCounts> {
    let mut candidates: HashMap<UserId, TopicCounts> = HashMap::new();
    for &tid in matching {
        let tweet = corpus.tweet(tid);
        candidates
            .entry(tweet.author)
            .or_default()
            .tweets_on_topic += 1;
        for &mentioned in &tweet.mentions {
            candidates.entry(mentioned).or_default().mentions_on_topic += 1;
        }
        if let Some(original_author) = tweet.retweet_of {
            candidates
                .entry(original_author)
                .or_default()
                .retweets_on_topic += 1;
        }
    }
    candidates
}

/// Turn on-topic counts into the TS/MI/RI ratios, each total read
/// through the corpus (the kernel reads the user's totals row once).
pub fn compute_features(corpus: &Corpus, user: UserId, counts: &TopicCounts) -> Features {
    Features {
        ts: ratio(counts.tweets_on_topic.into(), corpus.tweets_by(user)),
        mi: ratio(counts.mentions_on_topic.into(), corpus.mentions_of(user)),
        ri: ratio(counts.retweets_on_topic.into(), corpus.retweets_of(user)),
    }
}

/// Accumulate extended counts for every author in the match set.
pub fn collect_extended(corpus: &Corpus, matching: &[TweetId]) -> HashMap<UserId, ExtendedCounts> {
    let mut counts: HashMap<UserId, ExtendedCounts> = HashMap::new();
    for &tid in matching {
        let tweet = corpus.tweet(tid);
        let entry = counts.entry(tweet.author).or_default();
        entry.tweets += 1;
        if tweet.retweet_of.is_none() {
            entry.original += 1;
        }
        if !is_conversational(corpus, tid) {
            entry.non_chat += 1;
        }
    }
    counts
}

/// Z-scores of a sample: `(x − µ) / σ`. When the standard deviation is 0
/// (all candidates identical, or a single candidate), every z-score is 0.
/// The kernel's in-place form over a copy, so the two cannot differ in a
/// single bit.
pub fn z_scores(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    z_scores_in_place(&mut out);
    out
}

/// Apply the full paper pipeline to one feature column: log-transform then
/// z-score, every `ln` taken afresh — the reference for the kernel's
/// memoized `normalize_into`. MI and RI are zero for most candidates, so
/// `ln(0 + ε)` is taken once.
pub fn normalize_feature(values: &[f64], epsilon: f64) -> Vec<f64> {
    let ln_zero = log_transform(0.0, epsilon);
    let mut out: Vec<f64> = values
        .iter()
        .map(|&x| {
            if x == 0.0 {
                ln_zero
            } else {
                log_transform(x, epsilon)
            }
        })
        .collect();
    z_scores_in_place(&mut out);
    out
}

/// Pal & Counts' cluster-analysis filter over finished results: split
/// them into two clusters by score (1-D 2-means, deterministic
/// initialization at min/max) and keep the higher-scoring cluster.
pub fn cluster_filter(results: Vec<ExpertResult>) -> Vec<ExpertResult> {
    let scores: Vec<f64> = results.iter().map(|r| r.score).collect();
    match cluster_cut(&scores) {
        None => results,
        Some(cut) => results.into_iter().filter(|r| r.score >= cut).collect(),
    }
}

impl<'c> Detector<'c> {
    /// The reference rank: the same contract as
    /// [`Detector::rank_candidates`], computed the pre-scratch way.
    pub fn rank_candidates_reference(&self, matching: &[TweetId]) -> Vec<ExpertResult> {
        let candidate_counts = collect_candidates(self.corpus, matching);
        if candidate_counts.is_empty() {
            return Vec::new();
        }
        // Deterministic candidate order before any numeric work.
        let mut entries: Vec<(UserId, Features)> = candidate_counts
            .iter()
            .map(|(&user, counts)| (user, compute_features(self.corpus, user, counts)))
            .collect();
        entries.sort_by_key(|&(user, _)| user);

        let ts: Vec<f64> = entries.iter().map(|(_, f)| f.ts).collect();
        let mi: Vec<f64> = entries.iter().map(|(_, f)| f.mi).collect();
        let ri: Vec<f64> = entries.iter().map(|(_, f)| f.ri).collect();
        let zts = normalize_feature(&ts, self.config.log_epsilon);
        let zmi = normalize_feature(&mi, self.config.log_epsilon);
        let zri = normalize_feature(&ri, self.config.log_epsilon);

        let extended_contrib: Vec<f64> = match &self.config.extended {
            None => vec![0.0; entries.len()],
            Some(weights) => {
                let ext_counts = collect_extended(self.corpus, matching);
                let ext: Vec<ExtendedFeatures> = entries
                    .iter()
                    .map(|&(user, _)| {
                        let counts = ext_counts.get(&user).copied().unwrap_or_default();
                        compute_extended(self.corpus, user, &counts)
                    })
                    .collect();
                let zss = z_scores(&ext.iter().map(|f| f.ss).collect::<Vec<_>>());
                let zncs = z_scores(&ext.iter().map(|f| f.ncs).collect::<Vec<_>>());
                let zrt = z_scores(&ext.iter().map(|f| f.rt).collect::<Vec<_>>());
                let zhub = z_scores(&ext.iter().map(|f| f.hub).collect::<Vec<_>>());
                (0..entries.len())
                    .map(|i| weights.combine(zss[i], zncs[i], zrt[i], zhub[i]))
                    .collect()
            }
        };

        self.finish_reference(entries, zts, zmi, zri, extended_contrib)
    }

    /// The reference's scoring tail: weighted sum, optional cluster
    /// filter, threshold, sort, cap.
    fn finish_reference(
        &self,
        entries: Vec<(UserId, Features)>,
        zts: Vec<f64>,
        zmi: Vec<f64>,
        zri: Vec<f64>,
        extended_contrib: Vec<f64>,
    ) -> Vec<ExpertResult> {
        let (w_ts, w_mi, w_ri) = self.config.weights;
        let mut results: Vec<ExpertResult> = entries
            .iter()
            .enumerate()
            .map(|(i, &(user, features))| ExpertResult {
                user,
                score: w_ts * zts[i] + w_mi * zmi[i] + w_ri * zri[i] + extended_contrib[i],
                features,
            })
            .collect();

        if self.config.cluster_filter && results.len() >= 4 {
            results = cluster_filter(results);
        }

        results.retain(|r| r.score >= self.config.min_zscore);
        results.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.user.cmp(&b.user)));
        results.truncate(self.config.max_results);
        results
    }
}
