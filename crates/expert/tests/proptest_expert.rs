//! Property-based tests of normalization and ranking invariants.

use esharp_expert::oracle::{normalize_feature, z_scores};
use esharp_expert::{Detector, DetectorConfig, ExpertResult, ExtendedWeights};
use esharp_microblog::{Corpus, Tweet, User};
use proptest::prelude::*;

proptest! {
    #[test]
    fn z_scores_center_and_scale(values in prop::collection::vec(-1e3f64..1e3, 2..50)) {
        let z = z_scores(&values);
        prop_assert_eq!(z.len(), values.len());
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        prop_assert!(mean.abs() < 1e-6, "mean = {}", mean);
        // Either all-zero (degenerate sample) or unit variance.
        let var: f64 = z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64;
        prop_assert!(var.abs() < 1e-9 || (var - 1.0).abs() < 1e-6, "var = {}", var);
    }

    #[test]
    fn z_scores_preserve_order(values in prop::collection::vec(-1e3f64..1e3, 2..50)) {
        let z = z_scores(&values);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    prop_assert!(z[i] <= z[j]);
                }
            }
        }
    }

    #[test]
    fn normalize_feature_is_finite_on_ratios(values in prop::collection::vec(0.0f64..=1.0, 1..40)) {
        for z in normalize_feature(&values, 1e-6) {
            prop_assert!(z.is_finite());
        }
    }
}

fn users(n: usize) -> Vec<User> {
    (0..n as u32)
        .map(|id| User {
            id,
            handle: format!("u{id}"),
            display_name: String::new(),
            description: String::new(),
            followers: u64::from(id) * 7 % 5,
            verified: false,
            expert_domains: vec![],
            spam: false,
        })
        .collect()
}

/// Build a corpus where user `i` posts `counts[i]` on-topic tweets and
/// `off[i]` off-topic ones.
fn corpus_from_counts(counts: &[u8], off: &[u8]) -> Corpus {
    let users = users(counts.len());
    let mut tweets = Vec::new();
    for (uid, (&on, &off_count)) in counts.iter().zip(off).enumerate() {
        for _ in 0..on {
            let id = tweets.len() as u32;
            tweets.push(Tweet::parse(id, uid as u32, "topic post", |_| None));
        }
        for _ in 0..off_count {
            let id = tweets.len() as u32;
            tweets.push(Tweet::parse(id, uid as u32, "something else", |_| None));
        }
    }
    Corpus::new(users, tweets)
}

proptest! {
    #[test]
    fn detector_respects_threshold_monotonicity(
        counts in prop::collection::vec(0u8..6, 2..10),
        off in prop::collection::vec(0u8..6, 2..10),
    ) {
        prop_assume!(counts.iter().any(|&c| c > 0));
        let n = counts.len().min(off.len());
        let corpus = corpus_from_counts(&counts[..n], &off[..n]);
        let mut last = usize::MAX;
        for threshold in [-5.0, 0.0, 1.0, 3.0] {
            let config = DetectorConfig {
                min_zscore: threshold,
                max_results: usize::MAX,
                ..Default::default()
            };
            let hits = Detector::new(&corpus, config).search("topic").len();
            prop_assert!(hits <= last);
            last = hits;
        }
    }

    #[test]
    fn scratch_rank_is_bit_identical_to_reference(
        counts in prop::collection::vec(0u8..6, 2..10),
        off in prop::collection::vec(0u8..6, 2..10),
        picks in prop::collection::vec(prop::bool::ANY, 1..60),
    ) {
        // The flat-scratch rank path must reproduce the HashMap reference
        // path bit-for-bit (same users, same f64 scores, same order) on an
        // arbitrary sorted subset of tweets — including the empty subset
        // and subsets that leave some users with zero matches.
        let n = counts.len().min(off.len());
        let corpus = corpus_from_counts(&counts[..n], &off[..n]);
        let matching: Vec<u32> = (0..corpus.tweets().len() as u32)
            .filter(|&id| picks.get(id as usize).copied().unwrap_or(false))
            .collect();
        let detector = Detector::new(&corpus, DetectorConfig::default());
        prop_assert_eq!(
            detector.rank_candidates(&matching),
            detector.rank_candidates_reference(&matching)
        );
    }

    #[test]
    fn detector_scores_are_finite_and_sorted(
        counts in prop::collection::vec(0u8..6, 2..10),
        off in prop::collection::vec(0u8..6, 2..10),
    ) {
        prop_assume!(counts.iter().any(|&c| c > 0));
        let n = counts.len().min(off.len());
        let corpus = corpus_from_counts(&counts[..n], &off[..n]);
        let config = DetectorConfig {
            min_zscore: f64::NEG_INFINITY,
            max_results: usize::MAX,
            ..Default::default()
        };
        let results = Detector::new(&corpus, config).search("topic");
        for r in &results {
            prop_assert!(r.score.is_finite());
            prop_assert!((0.0..=1.0).contains(&r.features.ts));
        }
        for pair in results.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
    }
}

/// Every detector setting the kernel branches on: the selection cap
/// (none kept, one, the paper's 15, all), the threshold (off, the
/// default, a strict one), and both ablation tiers on and off.
fn config_grid() -> Vec<DetectorConfig> {
    let mut grid = Vec::new();
    for max_results in [0, 1, 15, usize::MAX] {
        for min_zscore in [f64::NEG_INFINITY, 0.0, 2.0] {
            for cluster_filter in [false, true] {
                for extended in [None, Some(ExtendedWeights::default())] {
                    grid.push(DetectorConfig {
                        max_results,
                        min_zscore,
                        cluster_filter,
                        extended,
                        ..Default::default()
                    });
                }
            }
        }
    }
    grid
}

/// `ExpertResult: PartialEq` compares f64s with `==`, which calls -0.0
/// and +0.0 equal; the kernel promises the same bits.
fn bits(results: &[ExpertResult]) -> Vec<(u32, [u64; 4])> {
    results
        .iter()
        .map(|r| {
            let f = r.features;
            (r.user, [r.score, f.ts, f.mi, f.ri].map(f64::to_bits))
        })
        .collect()
}

fn assert_kernel_is_the_reference(corpus: &Corpus, matching: &[u32]) {
    for config in config_grid() {
        let detector = Detector::new(corpus, config.clone());
        assert_eq!(
            bits(&detector.rank_candidates(matching)),
            bits(&detector.rank_candidates_reference(matching)),
            "{config:?} over {matching:?}"
        );
    }
}

/// A tweet by `author`: on or off topic, optionally a retweet of, a
/// reply to, or a mention of another user.
fn tweet_text(on_topic: bool, shape: u8, other: u32) -> String {
    let body = if on_topic { "topic post" } else { "something else" };
    match shape % 4 {
        0 => body.to_string(),
        1 => format!("rt @u{other}: {body}"),
        2 => format!("@u{other} {body}"),
        _ => format!("{body} with @u{other} and @u{}", other / 2),
    }
}

proptest! {
    #[test]
    fn kernel_is_the_reference_over_delta_and_tombstones(
        base in prop::collection::vec((0u32..8, prop::bool::ANY, 0u8..4, 0u32..8), 1..40),
        appended in prop::collection::vec((0u32..8, prop::bool::ANY, 0u8..4, 0u32..8), 1..20),
        deleted in prop::collection::vec(0usize..60, 0..12),
        picks in prop::collection::vec(prop::bool::ANY, 60),
    ) {
        let tweets: Vec<Tweet> = base
            .iter()
            .enumerate()
            .map(|(id, &(author, on_topic, shape, other))| {
                Tweet::parse(id as u32, author, tweet_text(on_topic, shape, other), |h| {
                    h.strip_prefix('u')?.parse().ok().filter(|&u: &u32| u < 8)
                })
            })
            .collect();
        let mut corpus = Corpus::new(users(8), tweets);
        for &(author, on_topic, shape, other) in &appended {
            corpus
                .append_tweet(&format!("u{author}"), &tweet_text(on_topic, shape, other))
                .unwrap();
        }
        for &id in &deleted {
            // Out of range or already deleted: nothing to do.
            let _ = corpus.delete_tweet(id as u32);
        }
        prop_assert!(corpus.has_delta());

        // What a search hands the ranker, and any live subset of it.
        assert_kernel_is_the_reference(&corpus, &corpus.match_query("topic"));
        let subset: Vec<u32> = (0..corpus.tweets().len() as u32)
            .filter(|&id| picks[id as usize] && !corpus.is_deleted(id))
            .collect();
        assert_kernel_is_the_reference(&corpus, &subset);
    }
}

#[test]
fn ties_single_candidates_and_flat_features_select_like_the_reference() {
    let parse = |id: u32, author: u32, text: &str| {
        Tweet::parse(id, author, text, |h| h.strip_prefix('u')?.parse().ok())
    };
    // Six users with the same activity: every feature column is flat, so
    // σ = 0, every score is 0, and the cap cuts through one long tie
    // that only the user id breaks.
    let flat: Vec<Tweet> = (0..6)
        .flat_map(|u| [(2 * u, u, "topic post"), (2 * u + 1, u, "something else")])
        .map(|(id, author, text)| parse(id, author, text))
        .collect();
    let corpus = Corpus::new(users(6), flat);
    let everyone = corpus.match_query("topic");
    assert_kernel_is_the_reference(&corpus, &everyone);
    let top: Vec<u32> = Detector::new(&corpus, DetectorConfig { max_results: 3, ..Default::default() })
        .rank_candidates(&everyone)
        .iter()
        .map(|r| r.user)
        .collect();
    assert_eq!(top, vec![0, 1, 2], "equal scores rank by ascending user id");

    // A single candidate: σ = 0 with n = 1.
    assert_kernel_is_the_reference(&corpus, &everyone[..1]);
    assert_kernel_is_the_reference(&corpus, &[]);

    // Two score levels, σ > 0: users 1, 3, 4 tie above users 0, 2, 5 and
    // a cap of 1 or 15 falls inside or across the upper tie.
    let mut two_levels: Vec<Tweet> = Vec::new();
    for user in 0..6u32 {
        let on_topic = if [1, 3, 4].contains(&user) { 3 } else { 1 };
        for i in 0..4 {
            let text = if i < on_topic { "topic post" } else { "something else" };
            two_levels.push(parse(two_levels.len() as u32, user, text));
        }
    }
    let corpus = Corpus::new(users(6), two_levels);
    let matching = corpus.match_query("topic");
    assert_kernel_is_the_reference(&corpus, &matching);
    let config = DetectorConfig { max_results: 2, min_zscore: f64::NEG_INFINITY, ..Default::default() };
    let top: Vec<u32> = Detector::new(&corpus, config)
        .rank_candidates(&matching)
        .iter()
        .map(|r| r.user)
        .collect();
    assert_eq!(top, vec![1, 3], "the cap falls inside the upper tie");
}
