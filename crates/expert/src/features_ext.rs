//! The fuller Pal & Counts feature set.
//!
//! §3: "In their paper, Pal and Counts evaluate a dozen features. We kept
//! those which they present as important" — TS, MI, RI. This module
//! implements the next tier of the original WSDM'11 feature family on top
//! of the same corpus statistics, so the simplification can be measured
//! instead of assumed (see the `extended_features` ablation):
//!
//! * **SS — signal strength**: `#original tweets on topic / #tweets on
//!   topic` (authors of original content over pure retweeters).
//! * **NCS — non-chat signal**: share of on-topic tweets that are not
//!   conversational (do not start with a mention).
//! * **RT — retweet rate**: `#retweets by user on topic / #tweets by user
//!   on topic` (high values indicate an amplifier, not a source; enters
//!   the score negatively).
//! * **HUB — network attention**: `log(1 + followers)`, the coarse
//!   influence prior the original paper derives from the social graph.

use crate::features::ratio;
use esharp_microblog::{Corpus, TweetId, UserId};
use serde::{Deserialize, Serialize};

/// The extended feature vector (complements [`crate::Features`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtendedFeatures {
    /// Signal strength: originality of the on-topic stream.
    pub ss: f64,
    /// Non-chat signal: broadcast (not conversational) share.
    pub ncs: f64,
    /// Retweet rate: share of the user's on-topic tweets that are
    /// themselves retweets.
    pub rt: f64,
    /// Network attention: `ln(1 + followers)`.
    pub hub: f64,
}

/// Per-candidate extended counts accumulated from the match set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendedCounts {
    /// On-topic tweets authored by the user.
    pub tweets: u64,
    /// … of which are original (not retweets).
    pub original: u64,
    /// … of which are broadcast (do not start with a mention).
    pub non_chat: u64,
}

/// True when a tweet is conversational — it opens with a mention. The
/// check runs on the corpus's interned tokens (one array lookup + first
/// byte of the interned text), not on a re-tokenization of the tweet.
pub fn is_conversational(corpus: &Corpus, tweet: TweetId) -> bool {
    corpus
        .tweet_tokens(tweet)
        .first()
        .map(|&t| corpus.token_text(t).starts_with('@'))
        .unwrap_or(false)
}

/// Turn extended counts into the feature vector.
pub fn compute_extended(corpus: &Corpus, user: UserId, counts: &ExtendedCounts) -> ExtendedFeatures {
    let retweets_authored = counts.tweets.saturating_sub(counts.original);
    // Mentioned-only candidates authored nothing on topic: all-zero
    // counts, so every ratio is zero.
    ExtendedFeatures {
        ss: ratio(counts.original, counts.tweets),
        ncs: ratio(counts.non_chat, counts.tweets),
        rt: ratio(retweets_authored, counts.tweets),
        hub: (1.0 + corpus.user(user).followers as f64).ln(),
    }
}

/// Weights for folding the extended features into the aggregate score.
/// RT enters negatively: pure amplifiers are not sources.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExtendedWeights {
    /// Weight of SS.
    pub ss: f64,
    /// Weight of NCS.
    pub ncs: f64,
    /// Weight of RT (applied negatively).
    pub rt: f64,
    /// Weight of HUB.
    pub hub: f64,
}

impl Default for ExtendedWeights {
    fn default() -> Self {
        ExtendedWeights {
            ss: 0.3,
            ncs: 0.2,
            rt: 0.3,
            hub: 0.1,
        }
    }
}

impl ExtendedWeights {
    /// The weighted extended contribution for one candidate, over
    /// *z-scored* feature columns.
    pub fn combine(&self, zss: f64, zncs: f64, zrt: f64, zhub: f64) -> f64 {
        self.ss * zss + self.ncs * zncs - self.rt * zrt + self.hub * zhub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::collect_extended;
    use esharp_microblog::{Tweet, User};

    fn user(id: UserId, handle: &str, followers: u64) -> User {
        User {
            id,
            handle: handle.to_string(),
            display_name: handle.to_string(),
            description: String::new(),
            followers,
            verified: false,
            expert_domains: vec![],
            spam: false,
        }
    }

    fn corpus() -> Corpus {
        let users = vec![user(0, "orig", 100), user(1, "amp", 10)];
        let resolve = |h: &str| match h {
            "orig" => Some(0),
            "amp" => Some(1),
            _ => None,
        };
        let tweets = vec![
            Tweet::parse(0, 0, "niners win big today", resolve),
            Tweet::parse(1, 0, "@amp the niners looked great", resolve),
            Tweet::parse(2, 1, "rt @orig: niners win big today", resolve),
        ];
        Corpus::new(users, tweets)
    }

    #[test]
    fn extended_counts_split_original_and_chat() {
        let c = corpus();
        let matching = c.match_query("niners");
        let counts = collect_extended(&c, &matching);
        let orig = counts[&0];
        assert_eq!(orig.tweets, 2);
        assert_eq!(orig.original, 2);
        assert_eq!(orig.non_chat, 1); // tweet 1 starts with @amp
        let amp = counts[&1];
        assert_eq!(amp.tweets, 1);
        assert_eq!(amp.original, 0);
    }

    #[test]
    fn features_separate_sources_from_amplifiers() {
        let c = corpus();
        let matching = c.match_query("niners");
        let counts = collect_extended(&c, &matching);
        let orig = compute_extended(&c, 0, &counts[&0]);
        let amp = compute_extended(&c, 1, &counts[&1]);
        assert!(orig.ss > amp.ss);
        assert!(amp.rt > orig.rt);
        assert!(orig.hub > amp.hub); // more followers
        assert!((amp.rt - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_penalize_retweet_rate() {
        let w = ExtendedWeights::default();
        let source = w.combine(1.0, 1.0, -1.0, 0.0);
        let amplifier = w.combine(-1.0, -1.0, 1.0, 0.0);
        assert!(source > amplifier);
    }

    #[test]
    fn empty_counts_are_all_zero() {
        let c = corpus();
        let f = compute_extended(&c, 0, &ExtendedCounts::default());
        assert_eq!(f.ss, 0.0);
        assert_eq!(f.rt, 0.0);
        assert!(f.hub > 0.0); // followers exist regardless of activity
    }
}
