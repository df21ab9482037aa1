//! The rank-side tweet columns: what the expert detector reads per
//! matched tweet, as flat arrays in tweet-id order (DESIGN.md §14).
//!
//! A [`Tweet`] owns a `String` and a heap `Vec` of mentions, so reading
//! `author` / `mentions` / `retweet_of` through `&Tweet` is a dependent
//! pointer chase per matched tweet. The columns hold the same three
//! facts as `u32` arrays (mentions as CSR) plus the per-user totals that
//! are the TS / MI / RI denominators, packed one row per user. They are
//! derived in memory from the tweet table — like the handle index, they
//! are never persisted — and only [`TweetColumns::push`] and
//! [`TweetColumns::uncount`] ever change them, so they cannot drift from
//! `Corpus::tweets()` (property-tested in `tests/proptest_columns.rs`).

use crate::types::{Tweet, TweetId, UserId};

/// `retweet_of` value of a tweet that is not a retweet.
pub const NO_RETWEET: UserId = UserId::MAX;

/// One user's activity totals — the TS / MI / RI denominators — in one
/// row, so a candidate's three denominators share a cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UserTotals {
    /// Tweets authored by the user.
    pub tweets: u64,
    /// Mentions the user received.
    pub mentions: u64,
    /// Retweets of the user's content.
    pub retweets: u64,
}

/// Flat per-tweet columns and packed per-user totals.
#[derive(Debug, Clone, Default)]
pub struct TweetColumns {
    author: Vec<UserId>,
    retweet_of: Vec<UserId>,
    /// Tweet `t` mentions `mention_ids[mention_offsets[t] ..
    /// mention_offsets[t + 1]]` (text order, duplicates kept).
    mention_offsets: Vec<u32>,
    mention_ids: Vec<UserId>,
    totals: Vec<UserTotals>,
}

impl TweetColumns {
    /// Empty columns over `users` users, with room for `tweets` rows.
    pub(crate) fn with_capacity(users: usize, tweets: usize) -> TweetColumns {
        let mut mention_offsets = Vec::with_capacity(tweets + 1);
        mention_offsets.push(0);
        TweetColumns {
            author: Vec::with_capacity(tweets),
            retweet_of: Vec::with_capacity(tweets),
            mention_offsets,
            mention_ids: Vec::new(),
            totals: vec![UserTotals::default(); users],
        }
    }

    /// The columns of `tweets` in order, totals counted from them.
    pub(crate) fn from_tweets(users: usize, tweets: &[Tweet]) -> TweetColumns {
        let mut columns = TweetColumns::with_capacity(users, tweets.len());
        for tweet in tweets {
            columns.push(tweet);
        }
        columns
    }

    /// Replace the counted totals with persisted ones (the binary load
    /// paths: the file's totals stay authoritative, as they were before
    /// the columns existed). The three slices are one entry per user.
    pub(crate) fn with_totals(
        mut self,
        tweets: &[u64],
        mentions: &[u64],
        retweets: &[u64],
    ) -> Self {
        self.totals = tweets
            .iter()
            .zip(mentions)
            .zip(retweets)
            .map(|((&tweets, &mentions), &retweets)| UserTotals {
                tweets,
                mentions,
                retweets,
            })
            .collect();
        self
    }

    /// A totals row for a newly registered user.
    pub(crate) fn add_user(&mut self) {
        self.totals.push(UserTotals::default());
    }

    /// Append the row of the next tweet and count it into its users'
    /// totals. Rows are positional: the caller pushes tweets in id order.
    pub(crate) fn push(&mut self, tweet: &Tweet) {
        debug_assert_eq!(
            tweet.id as usize,
            self.author.len(),
            "tweet ids equal their index"
        );
        self.author.push(tweet.author);
        self.retweet_of.push(tweet.retweet_of.unwrap_or(NO_RETWEET));
        self.mention_ids.extend_from_slice(&tweet.mentions);
        self.mention_offsets.push(self.mention_ids.len() as u32);
        self.totals[tweet.author as usize].tweets += 1;
        for &mentioned in &tweet.mentions {
            self.totals[mentioned as usize].mentions += 1;
        }
        if let Some(original) = tweet.retweet_of {
            self.totals[original as usize].retweets += 1;
        }
    }

    /// Take tweet `id` back out of the totals (a tombstone: the row
    /// stays, since ids are positional, and no match set names it again).
    pub(crate) fn uncount(&mut self, id: TweetId) {
        let t = id as usize;
        let author = &mut self.totals[self.author[t] as usize].tweets;
        *author = author.saturating_sub(1);
        let (lo, hi) = (self.mention_offsets[t], self.mention_offsets[t + 1]);
        for &mentioned in &self.mention_ids[lo as usize..hi as usize] {
            let mentions = &mut self.totals[mentioned as usize].mentions;
            *mentions = mentions.saturating_sub(1);
        }
        if self.retweet_of[t] != NO_RETWEET {
            let retweets = &mut self.totals[self.retweet_of[t] as usize].retweets;
            *retweets = retweets.saturating_sub(1);
        }
    }

    /// Author of every tweet, by tweet id.
    #[inline]
    pub fn author(&self) -> &[UserId] {
        &self.author
    }

    /// Original author of every retweet, by tweet id; [`NO_RETWEET`]
    /// where the tweet is not one.
    #[inline]
    pub fn retweet_of(&self) -> &[UserId] {
        &self.retweet_of
    }

    /// The users tweet `id` mentions (text order, duplicates kept).
    #[inline]
    pub fn mentions(&self, id: TweetId) -> &[UserId] {
        let (lo, hi) = (
            self.mention_offsets[id as usize],
            self.mention_offsets[id as usize + 1],
        );
        &self.mention_ids[lo as usize..hi as usize]
    }

    /// CSR offsets into [`TweetColumns::mention_ids`], one more than
    /// there are tweets.
    pub fn mention_offsets(&self) -> &[u32] {
        &self.mention_offsets
    }

    /// Mentioned users of all tweets, concatenated in tweet order.
    pub fn mention_ids(&self) -> &[UserId] {
        &self.mention_ids
    }

    /// Per-user totals, by user id.
    #[inline]
    pub fn totals(&self) -> &[UserTotals] {
        &self.totals
    }
}
