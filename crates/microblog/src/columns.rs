//! The tweet table: every tweet of a corpus as flat arrays in tweet-id
//! order (DESIGN.md §14), the one place a corpus keeps its tweets.
//!
//! A row is its author, its retweet source and its mentions (CSR) as
//! `u32` arrays, and its text as a slice of one UTF-8 arena with `u32`
//! offsets, the layout of the corpus file's text section. Beside the
//! rows sit the per-user totals that are the TS / MI / RI denominators,
//! packed one row per user. Ranking reads a matched tweet's author,
//! retweet source and mentions here without a pointer chase, and an
//! owned [`Tweet`] is materialized from a row only when asked for.
//!
//! A build pushes its tweets in input order and gathers the rows in
//! topic order ([`TweetColumns::gather`], which counts the totals); the
//! corpus file persists the rows and the totals, and a load adopts them
//! as they are. After that only [`TweetColumns::push`] and
//! [`TweetColumns::uncount`] change them (checked against a plain
//! `Vec<Tweet>` model in `tests/proptest_columns.rs`).

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

/// Flat per-tweet columns, the text arena and packed per-user totals.
#[derive(Debug, Clone, Default)]
pub struct TweetColumns {
    author: Vec<UserId>,
    retweet_of: Vec<UserId>,
    /// Tweet `t` mentions `mention_ids[mention_offsets[t] ..
    /// mention_offsets[t + 1]]` (text order, duplicates kept).
    mention_offsets: Vec<u32>,
    mention_ids: Vec<UserId>,
    /// Tweet `t`'s text is `text[text_offsets[t] .. text_offsets[t + 1]]`;
    /// every offset lies on a character boundary.
    text_offsets: Vec<u32>,
    text: String,
    totals: Vec<UserTotals>,
}

impl TweetColumns {
    /// Empty columns over `users` users, with room for `tweets` rows and
    /// `text_bytes` bytes of text.
    pub(crate) fn with_capacity(users: usize, tweets: usize, text_bytes: usize) -> TweetColumns {
        let mut mention_offsets = Vec::with_capacity(tweets + 1);
        mention_offsets.push(0);
        let mut text_offsets = Vec::with_capacity(tweets + 1);
        text_offsets.push(0);
        TweetColumns {
            author: Vec::with_capacity(tweets),
            retweet_of: Vec::with_capacity(tweets),
            mention_offsets,
            mention_ids: Vec::new(),
            text_offsets,
            text: String::with_capacity(text_bytes),
            totals: vec![UserTotals::default(); users],
        }
    }

    /// Adopt decoded columns as they are: the corpus file's text,
    /// author, retweet and mention sections, and its persisted totals,
    /// which stay authoritative (nothing recounts them). The caller has
    /// checked that the rows agree in length, both CSRs are well formed,
    /// every text offset lies on a character boundary, and `totals` has
    /// one row per user.
    pub(crate) fn from_parts(
        author: Vec<UserId>,
        retweet_of: Vec<UserId>,
        mention_offsets: Vec<u32>,
        mention_ids: Vec<UserId>,
        text_offsets: Vec<u32>,
        text: String,
        totals: Vec<UserTotals>,
    ) -> TweetColumns {
        TweetColumns {
            author,
            retweet_of,
            mention_offsets,
            mention_ids,
            text_offsets,
            text,
            totals,
        }
    }

    /// A totals row for a newly registered user.
    pub(crate) fn add_user(&mut self) {
        self.totals.push(UserTotals::default());
    }

    /// Append the row of the next tweet, its text to the arena, and count
    /// it into its users' totals. Rows are positional: the caller pushes
    /// tweets in id order, and keeps the arena within `u32` offsets.
    pub(crate) fn push(&mut self, tweet: &Tweet) {
        debug_assert_eq!(tweet.id as usize, self.len(), "tweet ids equal their index");
        let retweet_of = tweet.retweet_of.unwrap_or(NO_RETWEET);
        self.push_row(tweet.author, &tweet.text, &tweet.mentions, retweet_of);
    }

    fn push_row(&mut self, author: UserId, text: &str, mentions: &[UserId], retweet_of: UserId) {
        self.text.push_str(text);
        let end = u32::try_from(self.text.len())
            .unwrap_or_else(|_| panic!("tweet texts exceed the 4 GiB a corpus holds"));
        self.text_offsets.push(end);
        self.author.push(author);
        self.retweet_of.push(retweet_of);
        self.mention_ids.extend_from_slice(mentions);
        self.mention_offsets.push(self.mention_ids.len() as u32);
        self.totals[author as usize].tweets += 1;
        for &mentioned in mentions {
            self.totals[mentioned as usize].mentions += 1;
        }
        if retweet_of != NO_RETWEET {
            self.totals[retweet_of as usize].retweets += 1;
        }
    }

    /// New columns over `users` users holding rows `rows` of these, in
    /// that order (row `j` of the result is row `rows[j]` here), their
    /// totals counted from those rows alone.
    pub(crate) fn gather(&self, rows: &[u32], users: usize) -> TweetColumns {
        let text_bytes = rows.iter().map(|&t| self.text(t).len()).sum();
        let mut gathered = TweetColumns::with_capacity(users, rows.len(), text_bytes);
        for &t in rows {
            let (author, retweet_of) = (self.author[t as usize], self.retweet_of[t as usize]);
            gathered.push_row(author, self.text(t), self.mentions(t), retweet_of);
        }
        gathered
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

    /// Number of rows (tweets).
    pub(crate) fn len(&self) -> usize {
        self.author.len()
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

    /// The text of tweet `id`.
    #[inline]
    pub fn text(&self, id: TweetId) -> &str {
        let (lo, hi) = (
            self.text_offsets[id as usize],
            self.text_offsets[id as usize + 1],
        );
        &self.text[lo as usize..hi as usize]
    }

    /// Byte offsets into [`TweetColumns::text_arena`], one more than
    /// there are tweets.
    pub fn text_offsets(&self) -> &[u32] {
        &self.text_offsets
    }

    /// Every tweet text, concatenated in tweet order.
    pub fn text_arena(&self) -> &str {
        &self.text
    }

    /// Per-user totals, by user id.
    #[inline]
    pub fn totals(&self) -> &[UserTotals] {
        &self.totals
    }
}
