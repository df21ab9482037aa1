//! Candidate selection and the three textual-evidence features of Pal &
//! Counts, as simplified for production in e# (§3).
//!
//! * `TS` — topical signal: `#tweets by user on topic / #tweets by user`.
//! * `MI` — mention impact: `#mentions of user on topic / #mentions`.
//! * `RI` — retweet impact: `#retweets of user's tweets on topic /
//!   #retweets of user's tweets`.

use crate::features_ext::{compute_extended, is_conversational, ExtendedCounts};
use crate::normalize::LnMemo;
use esharp_microblog::{Corpus, TweetId, UserId, UserTotals, NO_RETWEET};
use serde::{Deserialize, Serialize};

/// The raw feature triple for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Features {
    /// Topical signal.
    pub ts: f64,
    /// Mention impact.
    pub mi: f64,
    /// Retweet impact.
    pub ri: f64,
}

/// Per-candidate on-topic counts, before normalization by user totals.
/// Tweet ids and the mention CSR are `u32`, so no count outgrows one:
/// 12 bytes, and five users share a cache line of the dense table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopicCounts {
    /// Matching tweets authored by the user.
    pub tweets_on_topic: u32,
    /// Mentions of the user inside matching tweets.
    pub mentions_on_topic: u32,
    /// Matching retweets of the user's content.
    pub retweets_on_topic: u32,
}

/// Everything a rank needs besides its result, owned per thread and
/// reused: the candidate-counting tables, indexed by user, and the
/// per-candidate vectors of the running query.
///
/// Counting reads the corpus's flat [`esharp_microblog::TweetColumns`]
/// and is an array add plus a bit set per event. The bitmap's word sweep
/// then yields the candidates in ascending user order — the order the
/// reference's `collect_candidates`-then-sort produces, so every later
/// sum adds in the same order and rankings are bit-identical (enforced
/// by proptest) — with no sort and no per-event "first touch?" probe.
/// The sweep takes each candidate's row as it reads it, so between
/// queries every row and every bit is zero with no second pass; a warm
/// query allocates nothing here and writes nothing beyond its own
/// candidates' rows.
#[derive(Debug, Default)]
pub(crate) struct CandidateScratch {
    /// One row per corpus user.
    counts: Vec<TopicCounts>,
    /// Bit `u` is set once the running query touched user `u`.
    touched: Vec<u64>,
    /// Extended-tier counts per candidate, when that tier is on.
    ext_counts: Vec<ExtendedCounts>,
    /// Set while a query is between `collect` and `reset`, so a query
    /// that panicked half-way (a tweet id past the corpus) cannot leave
    /// its counts to the thread's next one.
    in_flight: bool,
    /// `ln(x + ε)` of the ratios this thread has normalized.
    pub(crate) ln: LnMemo,
    /// The running query's candidates with their raw TS / MI / RI
    /// ratios, in ascending user order.
    pub(crate) candidates: Vec<(UserId, Features)>,
    /// Their raw SS / NCS / RT / HUB, when the extended tier is on.
    pub(crate) ext: [Vec<f64>; 4],
    /// The feature column being normalized.
    pub(crate) z: Vec<f64>,
    /// Their aggregated scores.
    pub(crate) score: Vec<f64>,
    /// Indices into the vectors above: the candidates still in the
    /// running, then the winners in rank order.
    pub(crate) order: Vec<u32>,
}

impl CandidateScratch {
    /// Candidate selection (§3) and the feature ratios, over the
    /// columns: same semantics as the reference's `collect_candidates` +
    /// `compute_features` per candidate in ascending user order.
    pub(crate) fn collect(&mut self, corpus: &Corpus, matching: &[TweetId]) {
        let users = corpus.users().len();
        if self.in_flight {
            self.counts.fill(TopicCounts::default());
            self.touched.fill(0);
        }
        // Grow-only, and only when the user table grew: a live corpus
        // swap after compaction, or an `add_user`.
        if users > self.counts.len() {
            self.counts.resize(users, TopicCounts::default());
            self.touched.resize(users.div_ceil(64), 0);
        }
        self.in_flight = true;

        let columns = corpus.columns();
        let (author, retweet_of) = (columns.author(), columns.retweet_of());
        let (counts, touched) = (&mut self.counts[..], &mut self.touched[..]);
        let mut touch = |user: UserId| touched[(user / 64) as usize] |= 1 << (user % 64);
        for &tid in matching {
            let t = tid as usize;
            touch(author[t]);
            counts[author[t] as usize].tweets_on_topic += 1;
            for &mentioned in columns.mentions(tid) {
                touch(mentioned);
                counts[mentioned as usize].mentions_on_topic += 1;
            }
            if retweet_of[t] != NO_RETWEET {
                touch(retweet_of[t]);
                counts[retweet_of[t] as usize].retweets_on_topic += 1;
            }
        }

        // The sweep: each touched user's bit and count row are taken
        // (left zero for the next query) and its totals row read once.
        let totals = columns.totals();
        self.candidates.clear();
        for (word, bits) in touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let user = (word * 64) as UserId + bits.trailing_zeros();
                bits &= bits - 1;
                let row = std::mem::take(&mut counts[user as usize]);
                self.candidates.push((user, ratios(&row, &totals[user as usize])));
            }
        }
    }

    /// The extended tier's raw features of every candidate, into `ext`:
    /// same semantics as the reference's `collect_extended` +
    /// [`compute_extended`] per candidate. Call after `collect`.
    pub(crate) fn collect_extended(&mut self, corpus: &Corpus, matching: &[TweetId]) {
        self.ext_counts.clear();
        self.ext_counts
            .resize(self.candidates.len(), ExtendedCounts::default());
        let columns = corpus.columns();
        let (author, retweet_of) = (columns.author(), columns.retweet_of());
        for &tid in matching {
            // Every author of a matched tweet is a candidate.
            let Ok(i) = self
                .candidates
                .binary_search_by_key(&author[tid as usize], |&(user, _)| user)
            else {
                continue;
            };
            let row = &mut self.ext_counts[i];
            row.tweets += 1;
            if retweet_of[tid as usize] == NO_RETWEET {
                row.original += 1;
            }
            if !is_conversational(corpus, tid) {
                row.non_chat += 1;
            }
        }
        self.ext.iter_mut().for_each(Vec::clear);
        for (&(user, _), counts) in self.candidates.iter().zip(&self.ext_counts) {
            let f = compute_extended(corpus, user, counts);
            for (column, value) in self.ext.iter_mut().zip([f.ss, f.ncs, f.rt, f.hub]) {
                column.push(value);
            }
        }
    }

    /// End the running query: its rows and bits went in the sweep.
    pub(crate) fn reset(&mut self) {
        self.in_flight = false;
    }
}

/// `num / den`; a zero denominator yields a zero feature (the user has
/// no activity of that kind at all).
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Turn on-topic counts into the TS/MI/RI ratios over the user's totals
/// row, read once. (The reference's `compute_features` reads the three
/// totals through the corpus.)
fn ratios(counts: &TopicCounts, totals: &UserTotals) -> Features {
    Features {
        ts: ratio(counts.tweets_on_topic.into(), totals.tweets),
        mi: ratio(counts.mentions_on_topic.into(), totals.mentions),
        ri: ratio(counts.retweets_on_topic.into(), totals.retweets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{collect_candidates, compute_features};
    use esharp_microblog::{Tweet, User};

    fn user(id: UserId, handle: &str) -> User {
        User {
            id,
            handle: handle.to_string(),
            display_name: handle.to_string(),
            description: String::new(),
            followers: 0,
            verified: false,
            expert_domains: vec![],
            spam: false,
        }
    }

    fn corpus() -> Corpus {
        let users = vec![user(0, "alice"), user(1, "bob"), user(2, "carol")];
        let resolve = |h: &str| match h {
            "alice" => Some(0),
            "bob" => Some(1),
            "carol" => Some(2),
            _ => None,
        };
        let tweets = vec![
            Tweet::parse(0, 0, "niners win today", resolve),
            Tweet::parse(1, 0, "pasta recipe thread", resolve),
            Tweet::parse(2, 1, "rt @alice: niners win today", resolve),
            Tweet::parse(3, 2, "watching the niners with @alice", resolve),
            Tweet::parse(4, 2, "niners niners niners", resolve),
        ];
        Corpus::new(users, tweets)
    }

    #[test]
    fn candidates_include_authors_mentioned_and_retweeted() {
        let c = corpus();
        let matching = c.match_query("niners");
        assert_eq!(
            matching,
            c.ids_of_texts(&[
                "niners win today",
                "rt @alice: niners win today",
                "watching the niners with @alice",
                "niners niners niners",
            ])
        );
        let candidates = collect_candidates(&c, &matching);
        // Authors 0,1,2 plus alice via mention/retweet.
        assert_eq!(candidates.len(), 3);
        let alice = candidates[&0];
        assert_eq!(alice.tweets_on_topic, 1);
        assert_eq!(alice.mentions_on_topic, 2); // RT text + explicit mention
        assert_eq!(alice.retweets_on_topic, 1);
    }

    #[test]
    fn features_are_ratios_of_totals() {
        let c = corpus();
        let matching = c.match_query("niners");
        let candidates = collect_candidates(&c, &matching);
        let f = compute_features(&c, 0, &candidates[&0]);
        assert!((f.ts - 0.5).abs() < 1e-12); // 1 of alice's 2 tweets
        assert!((f.mi - 1.0).abs() < 1e-12); // both mentions on topic
        assert!((f.ri - 1.0).abs() < 1e-12); // her only retweet on topic
    }

    #[test]
    fn zero_denominators_yield_zero_features() {
        let c = corpus();
        let matching = c.match_query("niners");
        let candidates = collect_candidates(&c, &matching);
        // Carol is never mentioned or retweeted.
        let f = compute_features(&c, 2, &candidates[&2]);
        assert_eq!(f.mi, 0.0);
        assert_eq!(f.ri, 0.0);
        assert!(f.ts > 0.0);
    }

    #[test]
    fn empty_match_set_yields_no_candidates() {
        let c = corpus();
        assert!(collect_candidates(&c, &[]).is_empty());
    }

    /// What `collect` left in the scratch, as `collect_candidates` +
    /// `compute_features` would report it.
    fn collected(scratch: &CandidateScratch) -> Vec<(UserId, Features)> {
        scratch.candidates.clone()
    }

    fn reference(c: &Corpus, matching: &[TweetId]) -> Vec<(UserId, Features)> {
        let mut all: Vec<(UserId, Features)> = collect_candidates(c, matching)
            .iter()
            .map(|(&user, counts)| (user, compute_features(c, user, counts)))
            .collect();
        all.sort_by_key(|&(user, _)| user);
        all
    }

    #[test]
    fn column_collect_equals_the_tweet_walk_in_ascending_user_order() {
        let c = corpus();
        let mut scratch = CandidateScratch::default();
        for query in ["niners", "pasta", "today", "absent"] {
            let matching = c.match_query(query);
            scratch.collect(&c, &matching);
            assert_eq!(collected(&scratch), reference(&c, &matching), "{query}");
            scratch.reset();
            assert!(scratch.counts.iter().all(|row| *row == TopicCounts::default()));
            assert!(scratch.touched.iter().all(|&word| word == 0));
        }
    }

    #[test]
    fn tables_grow_with_the_user_table_and_never_shrink() {
        let mut c = corpus();
        let mut scratch = CandidateScratch::default();
        scratch.collect(&c, &[0]);
        scratch.reset();
        assert_eq!((scratch.counts.len(), scratch.touched.len()), (3, 1));
        for i in 0..70 {
            c.add_user(&format!("u{i}"), "", "", 0, false).unwrap();
        }
        let id = c.append_tweet("u69", "niners with @alice").unwrap();
        scratch.collect(&c, &[id]);
        assert_eq!(collected(&scratch), reference(&c, &[id]));
        scratch.reset();
        assert_eq!((scratch.counts.len(), scratch.touched.len()), (73, 2));
        // A smaller corpus on the same thread reuses the larger tables.
        scratch.collect(&corpus(), &[0]);
        assert_eq!(scratch.counts.len(), 73);
    }

    #[test]
    fn a_query_that_panicked_leaves_nothing_to_the_next() {
        let c = corpus();
        let mut scratch = CandidateScratch::default();
        let out_of_range = [0, 2, 99];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scratch.collect(&c, &out_of_range)
        }));
        assert!(panicked.is_err(), "tweet 99 does not exist");
        let matching = c.match_query("pasta");
        scratch.collect(&c, &matching);
        assert_eq!(collected(&scratch), reference(&c, &matching));
    }
}
