//! The end-to-end baseline detector: candidate selection → features →
//! normalization → weighted ranking → z-score threshold (§3).

use crate::cluster_filter::cluster_cut;
use crate::features::{CandidateScratch, Features};
use crate::features_ext::ExtendedWeights;
use crate::normalize::{normalize_into, z_scores_in_place};
use esharp_microblog::{Corpus, TweetId, UserId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Per-thread candidate scratch: the serve worker pool shares one
    /// detector across threads, so the reusable buffers live here rather
    /// than behind a lock on the rank path.
    static SCRATCH: RefCell<CandidateScratch> = RefCell::new(CandidateScratch::default());
}

/// The one checkout of the per-thread [`CandidateScratch`].
fn with_scratch<R>(rank: impl FnOnce(&mut CandidateScratch) -> R) -> R {
    SCRATCH.with(|scratch| rank(&mut scratch.borrow_mut()))
}

/// Detector configuration. Defaults follow the paper: the three features
/// the authors "present as important", aggregated by a weighted sum with a
/// TS-dominant weighting, up to 15 experts per query (the crowdsourcing
/// setup), and the expensive cluster-analysis filter disabled ("it is
/// contrary to our objective of improving recall … we discarded it").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Weights of (TS, MI, RI) in the aggregated score.
    pub weights: (f64, f64, f64),
    /// Reject candidates whose aggregated score is below this threshold —
    /// the tuning knob swept in Figure 9.
    pub min_zscore: f64,
    /// Cap on returned experts ("we generated up to 15 experts per
    /// algorithm").
    pub max_results: usize,
    /// Additive epsilon inside the log transform.
    pub log_epsilon: f64,
    /// Enable Pal & Counts' optional cluster-analysis filter (ablation;
    /// the paper's production version runs without it).
    pub cluster_filter: bool,
    /// Fold in the fuller WSDM'11 feature tier (SS/NCS/RT/HUB) that e#'s
    /// production simplification dropped (ablation; `None` reproduces the
    /// paper's detector exactly).
    pub extended: Option<ExtendedWeights>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            weights: (1.0, 0.5, 0.5),
            min_zscore: 0.0,
            max_results: 15,
            log_epsilon: 1e-6,
            cluster_filter: false,
            extended: None,
        }
    }
}

/// One ranked expert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertResult {
    /// The account.
    pub user: UserId,
    /// Aggregated (weighted z-score) score.
    pub score: f64,
    /// Raw feature ratios.
    pub features: Features,
}

/// The Pal & Counts detector over a fixed corpus.
#[derive(Debug, Clone)]
pub struct Detector<'c> {
    pub(crate) corpus: &'c Corpus,
    pub(crate) config: DetectorConfig,
}

impl<'c> Detector<'c> {
    /// Create a detector over a corpus.
    pub fn new(corpus: &'c Corpus, config: DetectorConfig) -> Self {
        Detector { corpus, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Search experts for a single query string (baseline behaviour: no
    /// expansion).
    pub fn search(&self, query: &str) -> Vec<ExpertResult> {
        let matching = self.corpus.match_query(query);
        self.rank_candidates(&matching)
    }

    /// Rank the candidates induced by an explicit set of matching tweets.
    /// e#'s query expansion unions several match sets and calls this once,
    /// so baseline and expanded searches share one scoring path. Results
    /// are bit-identical to the `oracle` module's
    /// `rank_candidates_reference` (enforced by proptest).
    pub fn rank_candidates(&self, matching: &[TweetId]) -> Vec<ExpertResult> {
        with_scratch(|scratch| self.rank_in(matching, scratch))
    }

    /// Rank several match sets — the batch planner's rank seam. Each
    /// set's result is bit-identical to calling
    /// [`Detector::rank_candidates`] on it alone: every rank leaves the
    /// scratch zeroed, so sets cannot observe each other; sharing one
    /// checkout only amortizes the `RefCell` borrow.
    pub fn rank_candidates_batch(&self, match_sets: &[Vec<TweetId>]) -> Vec<Vec<ExpertResult>> {
        with_scratch(|scratch| {
            match_sets
                .iter()
                .map(|matching| self.rank_in(matching, scratch))
                .collect()
        })
    }

    /// The rank kernel: count candidates over the corpus columns, then
    /// normalize, aggregate and select over the scratch's per-candidate
    /// vectors. The returned `Vec` is the only allocation of a warm call.
    fn rank_in(&self, matching: &[TweetId], scratch: &mut CandidateScratch) -> Vec<ExpertResult> {
        scratch.collect(self.corpus, matching);
        // The weighted sum, term by term in the reference's order so
        // every score is the same f64: TS, MI, RI, then the extended tier.
        let (w_ts, w_mi, w_ri) = self.config.weights;
        let epsilon = self.config.log_epsilon;
        let CandidateScratch { candidates, z, score, .. } = &mut *scratch;
        normalize_into(candidates.iter().map(|(_, f)| f.ts), epsilon, z);
        score.clear();
        score.extend(z.iter().map(|z| w_ts * z));
        normalize_into(candidates.iter().map(|(_, f)| f.mi), epsilon, z);
        score.iter_mut().zip(&*z).for_each(|(s, z)| *s += w_mi * z);
        normalize_into(candidates.iter().map(|(_, f)| f.ri), epsilon, z);
        score.iter_mut().zip(&*z).for_each(|(s, z)| *s += w_ri * z);
        match &self.config.extended {
            // The reference adds a zero contribution, which turns a
            // score of -0.0 into +0.0; `total_cmp` tells them apart.
            None => score.iter_mut().for_each(|s| *s += 0.0),
            Some(weights) => {
                scratch.collect_extended(self.corpus, matching);
                scratch.ext.iter_mut().for_each(|column| z_scores_in_place(column));
                let [zss, zncs, zrt, zhub] = &scratch.ext;
                for (i, s) in scratch.score.iter_mut().enumerate() {
                    *s += weights.combine(zss[i], zncs[i], zrt[i], zhub[i]);
                }
            }
        }
        let results = self.finish(scratch);
        scratch.reset();
        results
    }

    /// The scoring tail: cluster cut and threshold, then the top
    /// `max_results` by (score descending, user ascending) selected
    /// before they are sorted, and only those materialized.
    fn finish(&self, scratch: &mut CandidateScratch) -> Vec<ExpertResult> {
        let CandidateScratch { candidates, score, order, .. } = scratch;
        let score = &score[..];
        let cut = self.config.cluster_filter.then(|| cluster_cut(score)).flatten();
        order.clear();
        order.extend((0..score.len() as u32).filter(|&i| {
            let s = score[i as usize];
            cut.is_none_or(|cut| s >= cut) && s >= self.config.min_zscore
        }));
        // Candidates are in ascending user order, so the index breaks ties.
        let by_rank = |a: &u32, b: &u32| {
            score[*b as usize].total_cmp(&score[*a as usize]).then_with(|| a.cmp(b))
        };
        let keep = self.config.max_results;
        if order.len() > keep {
            if keep > 0 {
                order.select_nth_unstable_by(keep - 1, by_rank);
            }
            order.truncate(keep);
        }
        order.sort_unstable_by(by_rank);
        order
            .iter()
            .map(|&i| {
                let (user, features) = candidates[i as usize];
                ExpertResult { user, score: score[i as usize], features }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_microblog::{generate_corpus, CorpusConfig};
    use esharp_querylog::{World, WorldConfig};

    fn build() -> (World, Corpus) {
        let world = World::generate(&WorldConfig::tiny(31));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(31));
        (world, corpus)
    }

    #[test]
    fn finds_the_planted_experts_first() {
        let (world, corpus) = build();
        let detector = Detector::new(&corpus, DetectorConfig::default());
        let results = detector.search("diabetes");
        assert!(!results.is_empty(), "no candidates for diabetes");
        let diabetes = world.domain_by_label("diabetes").unwrap();
        // The top result should be a planted diabetes expert.
        let top = corpus.user(results[0].user);
        assert!(
            top.expert_domains.contains(&diabetes.id),
            "top hit {} is not a diabetes expert",
            top.handle
        );
    }

    #[test]
    fn unknown_query_returns_empty() {
        let (_, corpus) = build();
        let detector = Detector::new(&corpus, DetectorConfig::default());
        assert!(detector.search("zzzzqqq").is_empty());
    }

    #[test]
    fn results_are_sorted_capped_and_deterministic() {
        let (_, corpus) = build();
        let config = DetectorConfig {
            max_results: 5,
            min_zscore: -10.0,
            ..Default::default()
        };
        let detector = Detector::new(&corpus, config);
        let a = detector.search("football");
        let b = detector.search("football");
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        for pair in a.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn min_zscore_is_monotone_in_result_count() {
        let (_, corpus) = build();
        let counts: Vec<usize> = [-1.0, 0.0, 1.0, 2.0, 4.0]
            .iter()
            .map(|&threshold| {
                let config = DetectorConfig {
                    min_zscore: threshold,
                    max_results: usize::MAX,
                    ..Default::default()
                };
                Detector::new(&corpus, config).search("football").len()
            })
            .collect();
        for pair in counts.windows(2) {
            assert!(pair[0] >= pair[1], "counts not monotone: {counts:?}");
        }
    }

    #[test]
    fn extended_features_change_ranking_but_not_the_contract() {
        let (_, corpus) = build();
        let plain = Detector::new(&corpus, DetectorConfig::default());
        let extended = Detector::new(
            &corpus,
            DetectorConfig {
                extended: Some(crate::features_ext::ExtendedWeights::default()),
                min_zscore: f64::NEG_INFINITY,
                max_results: usize::MAX,
                ..Default::default()
            },
        );
        let a = plain.search("football");
        let b = extended.search("football");
        assert!(!b.is_empty());
        // Same candidate universe, possibly different order/scores.
        let mut ua: Vec<u32> = plain
            .rank_candidates(&corpus.match_query("football"))
            .iter()
            .map(|e| e.user)
            .collect();
        let mut ub: Vec<u32> = b.iter().map(|e| e.user).collect();
        ua.sort_unstable();
        ub.sort_unstable();
        // The plain detector filters at z >= 0; compare against its
        // unfiltered universe instead.
        assert!(ua.iter().all(|u| ub.contains(u)));
        // Determinism.
        assert_eq!(b, extended.search("football"));
        let _ = a;
    }

    #[test]
    fn rank_candidates_over_union_equals_search_for_single_query() {
        let (_, corpus) = build();
        let detector = Detector::new(&corpus, DetectorConfig::default());
        let matching = corpus.match_query("football");
        assert_eq!(detector.rank_candidates(&matching), detector.search("football"));
    }

    #[test]
    fn scratch_path_is_bit_identical_to_reference() {
        let (world, corpus) = build();
        for config in [
            DetectorConfig::default(),
            DetectorConfig {
                extended: Some(crate::features_ext::ExtendedWeights::default()),
                min_zscore: f64::NEG_INFINITY,
                max_results: usize::MAX,
                ..Default::default()
            },
            DetectorConfig {
                cluster_filter: true,
                min_zscore: -5.0,
                ..Default::default()
            },
        ] {
            let detector = Detector::new(&corpus, config);
            let mut scratch = crate::features::CandidateScratch::default();
            for domain in &world.domains {
                let matching = corpus.match_query(&domain.label);
                let fast = detector.rank_in(&matching, &mut scratch);
                let reference = detector.rank_candidates_reference(&matching);
                assert_eq!(fast, reference, "divergence on {:?}", domain.label);
            }
        }
    }
}
