//! The corpus: users, tweets and the indexes the expert detector needs.

use crate::columns::TweetColumns;
use crate::index::{intersect, PostingsIndex};
use crate::intern::SymbolTable;
use crate::tokenize::tokenize;
use crate::types::{TokenId, Tweet, TweetId, User, UserId};
use std::cell::RefCell;
use std::collections::HashMap;

/// An indexed microblog corpus.
///
/// Besides the raw tables, the corpus maintains:
/// * a corpus-wide symbol table interning every token to a dense
///   [`TokenId`] (tokens are interned once at build time; the online
///   path never hashes a tweet token again),
/// * each tweet's interned tokens in a flat CSR arena
///   ([`Corpus::tweet_tokens`]),
/// * a CSR token inverted index ([`PostingsIndex`]) for all-terms query
///   matching (§3),
/// * the rank-side [`TweetColumns`]: author / retweet source / mentions
///   of every tweet as flat arrays, and per-user totals (#tweets,
///   #mentions received, #retweets received) — the denominators of the
///   TS / MI / RI features,
/// * an LSM-style **delta segment** for streaming ingestion: tweets
///   appended after the last (re)build land in per-token delta posting
///   lists instead of the immutable CSR arena, deletions become
///   tombstones, and the read path merges base + delta and filters
///   tombstones before anything is ranked. [`Corpus::compact`] folds the
///   delta back into a fresh base, bit-identical to a from-scratch
///   rebuild of the same logical corpus.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    users: Vec<User>,
    tweets: Vec<Tweet>,
    /// Token text ↔ dense id.
    symbols: SymbolTable,
    /// Tweet `t`'s tokens (in text order, duplicates kept) are
    /// `token_ids[token_offsets[t] .. token_offsets[t + 1]]`.
    token_offsets: Vec<u32>,
    token_ids: Vec<TokenId>,
    /// token id → sorted tweet ids containing it (base segment only).
    postings: PostingsIndex,
    /// handle → user id.
    handle_index: HashMap<String, UserId>,
    /// What ranking reads of `tweets`, as flat arrays, plus the per-user
    /// totals. Derived from `tweets` in memory, never persisted.
    columns: TweetColumns,
    /// Tweets `[0, base_tweets)` are covered by the CSR postings; later
    /// ids live in `delta_postings`. Appended ids are always larger than
    /// every base id, so base ++ delta concatenation stays sorted.
    base_tweets: u32,
    /// Tokens `[0, base_tokens)` have CSR posting lists; tokens interned
    /// by appends are delta-only until compaction.
    base_tokens: u32,
    /// token id → sorted tweet ids appended since the last compaction.
    delta_postings: HashMap<TokenId, Vec<TweetId>>,
    /// Sorted ids of logically deleted tweets (filtered from every match
    /// set; physically removed by compaction).
    tombstones: Vec<TweetId>,
}

impl Corpus {
    /// Build an indexed corpus from users and tweets. Tweet and user ids
    /// must equal their indices. The same steps as the streaming
    /// `CorpusBuilder`, over a tweet list already in memory.
    pub fn new(users: Vec<User>, tweets: Vec<Tweet>) -> Corpus {
        let mut builder = CorpusBuilder::new(users);
        for tweet in &tweets {
            builder.index(tweet);
        }
        builder.tweets = tweets;
        builder.finish()
    }

    /// Assemble a corpus with an empty delta from its interned parts: where
    /// every constructor ends (the build, the corpus file load — no
    /// re-tokenization, no postings rebuild — and compaction). Only the
    /// handle index and the base watermarks are derived here.
    pub(crate) fn from_parts(
        users: Vec<User>,
        tweets: Vec<Tweet>,
        symbols: SymbolTable,
        token_offsets: Vec<u32>,
        token_ids: Vec<TokenId>,
        postings: PostingsIndex,
        columns: TweetColumns,
    ) -> Corpus {
        Corpus {
            handle_index: users.iter().map(|u| (u.handle.clone(), u.id)).collect(),
            base_tweets: tweets.len() as u32,
            base_tokens: symbols.len() as u32,
            users,
            tweets,
            symbols,
            token_offsets,
            token_ids,
            postings,
            columns,
            delta_postings: HashMap::new(),
            tombstones: Vec::new(),
        }
    }

    /// All users.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All tweets.
    pub fn tweets(&self) -> &[Tweet] {
        &self.tweets
    }

    /// One user.
    pub fn user(&self, id: UserId) -> &User {
        &self.users[id as usize]
    }

    /// One tweet.
    pub fn tweet(&self, id: TweetId) -> &Tweet {
        &self.tweets[id as usize]
    }

    /// A tweet's interned tokens, in text order (duplicates kept).
    pub fn tweet_tokens(&self, id: TweetId) -> &[TokenId] {
        let t = id as usize;
        let offsets = &self.token_offsets;
        &self.token_ids[offsets[t] as usize..offsets[t + 1] as usize]
    }

    /// The id of a token text, if interned anywhere in the corpus.
    pub fn token_id(&self, text: &str) -> Option<TokenId> {
        self.symbols.get(text)
    }

    /// The text of an interned token.
    pub fn token_text(&self, id: TokenId) -> &str {
        self.symbols.text(id)
    }

    /// Distinct tokens in the corpus.
    pub fn num_tokens(&self) -> usize {
        self.symbols.len()
    }

    /// The sorted **base-segment** tweet ids containing `token`. Tweets
    /// appended since the last compaction live in the delta segment and
    /// are not visible here; the query path ([`Corpus::match_query`],
    /// [`Corpus::match_expansions`]) merges both segments. Tokens first
    /// interned by an append have no base list yet and return empty.
    pub fn postings(&self, token: TokenId) -> &[TweetId] {
        if token >= self.base_tokens {
            return &[];
        }
        self.postings.postings(token)
    }

    /// Resolve a handle to a user id.
    pub fn user_by_handle(&self, handle: &str) -> Option<UserId> {
        self.handle_index.get(handle).copied()
    }

    /// Total tweets authored by `user`.
    pub fn tweets_by(&self, user: UserId) -> u64 {
        self.columns.totals()[user as usize].tweets
    }

    /// Total mentions received by `user`.
    pub fn mentions_of(&self, user: UserId) -> u64 {
        self.columns.totals()[user as usize].mentions
    }

    /// Total retweets received by `user`.
    pub fn retweets_of(&self, user: UserId) -> u64 {
        self.columns.totals()[user as usize].retweets
    }

    /// The rank-side columns: author, retweet source and mentions of
    /// every tweet as flat arrays, and the packed per-user totals.
    pub fn columns(&self) -> &TweetColumns {
        &self.columns
    }

    /// Tweets matching a query: the tweet must contain **all** the query's
    /// tokens after lower-casing (§3). A sorted-postings intersection
    /// starting from the rarest token; a single-token query borrows its
    /// posting list and copies it only once, at the end.
    pub fn match_query(&self, query: &str) -> Vec<TweetId> {
        let matched = match self.match_term(query) {
            TermMatch::Borrowed(list) => list.to_vec(),
            TermMatch::Owned(list) => list,
            TermMatch::Pooled(buf) => buf.take(),
        };
        self.without_tombstones(matched)
    }

    /// Like [`Corpus::match_query`], borrowing the posting list outright
    /// when no intersection shrinks it (single-token queries — the common
    /// case for expansion terms).
    pub(crate) fn match_term(&self, term: &str) -> TermMatch<'_> {
        // Fast path: a term already in normalized form — space-separated
        // ASCII lowercase alphanumeric words, which `tokenize` maps to
        // themselves — feeds the symbol table directly. Expansion terms
        // ("draft", "sarah palin news") are stored in exactly this form,
        // so the tokenizer's per-term `Vec<String>` never materializes on
        // the expansion-union path; anything else (sigils, punctuation,
        // uppercase, non-ASCII) takes the full tokenizer below.
        let normalized = term
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b' ');
        let mut lists: Vec<TermMatch<'_>>;
        if normalized {
            lists = Vec::new();
            for word in term.split_ascii_whitespace() {
                match self.symbols.get(word) {
                    Some(id) => lists.push(self.merged_postings(id)),
                    None => return TermMatch::Owned(Vec::new()),
                }
            }
        } else {
            let tokens = tokenize(term);
            lists = Vec::with_capacity(tokens.len());
            for token in &tokens {
                match self.symbols.get(token) {
                    Some(id) => lists.push(self.merged_postings(id)),
                    None => return TermMatch::Owned(Vec::new()),
                }
            }
        }
        match lists.len() {
            0 => TermMatch::Owned(Vec::new()),
            1 => lists.remove(0),
            _ => {
                let mut slices: Vec<&[TweetId]> =
                    lists.iter().map(TermMatch::as_slice).collect();
                slices.sort_by_key(|list| list.len());
                let mut result = intersect(slices[0], slices[1]);
                for list in &slices[2..] {
                    if result.is_empty() {
                        break;
                    }
                    result = intersect(&result, list);
                }
                TermMatch::Owned(result)
            }
        }
    }

    /// Base ++ delta posting list for one token. Every delta id is larger
    /// than every base id, so simple concatenation is the k-way merge.
    /// When the token genuinely has both segments the concatenation lands
    /// in a pooled per-thread scratch buffer ([`PooledBuf`]) instead of a
    /// fresh allocation — the base+delta read overhead was partly this
    /// per-term, per-query `Vec`.
    fn merged_postings(&self, token: TokenId) -> TermMatch<'_> {
        let base: &[TweetId] = if token < self.base_tokens {
            self.postings.postings(token)
        } else {
            &[]
        };
        match self.delta_postings.get(&token) {
            None => TermMatch::Borrowed(base),
            Some(delta) if base.is_empty() => TermMatch::Borrowed(delta),
            Some(delta) => {
                let mut buf = PooledBuf::checkout(base.len() + delta.len());
                buf.0.extend_from_slice(base);
                buf.0.extend_from_slice(delta);
                TermMatch::Pooled(buf)
            }
        }
    }

    /// Drop tombstoned ids from a sorted match set — the last step before
    /// any match set escapes to ranking.
    pub(crate) fn without_tombstones(&self, mut matched: Vec<TweetId>) -> Vec<TweetId> {
        if !self.tombstones.is_empty() {
            matched.retain(|id| self.tombstones.binary_search(id).is_err());
        }
        matched
    }

    /// The shard a term's postings traversal is charged to: the shard of
    /// its first known token. Load distribution only — correctness never
    /// depends on the assignment. Public so the chaos bench can aim a
    /// stall plan at the genuine home shard of its query mix.
    pub fn term_home_shard(&self, term: &str) -> usize {
        if self.postings.shard_count() <= 1 {
            return 0;
        }
        let first = term
            .split_ascii_whitespace()
            .next()
            .map(str::to_ascii_lowercase)
            .and_then(|w| self.symbols.get(&w))
            .or_else(|| tokenize(term).first().and_then(|t| self.symbols.get(t)));
        first.map_or(0, |token| self.postings.shard_of(token))
    }

    // ------------------------------------------------------------------
    // Shard layout: observation and re-cutting.
    // ------------------------------------------------------------------

    /// Number of postings shards in the in-memory layout.
    pub fn shard_count(&self) -> usize {
        self.postings.shard_count()
    }

    /// Re-cut the base postings into `k` contiguous token-range shards
    /// balanced by postings bytes. Query results are unaffected (the
    /// shard layout is invisible to matching); the delta segment and
    /// tombstones are untouched.
    pub fn reshard(&mut self, k: usize) {
        self.postings = self.postings.resharded(k);
    }

    /// Payload bytes of each postings shard (offsets + arena), in shard
    /// order — the raw series behind the skew metrics.
    pub fn shard_postings_bytes(&self) -> Vec<u64> {
        self.postings.shards().iter().map(|s| s.byte_size()).collect()
    }

    /// The postings index (read-only; used by the corpus file writer).
    pub(crate) fn postings_index(&self) -> &PostingsIndex {
        &self.postings
    }

    /// The flat per-tweet token columns `(offsets, ids)` (used by the
    /// corpus file writer).
    pub(crate) fn token_arena_parts(&self) -> (&[u32], &[TokenId]) {
        (&self.token_offsets, &self.token_ids)
    }

    /// Approximate corpus payload size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.tweets.iter().map(|t| t.text.len() as u64).sum()
    }

    // ------------------------------------------------------------------
    // Streaming ingestion: the delta segment (esharp-ingest's substrate).
    // ------------------------------------------------------------------

    /// Register a new user so later appends can author and mention them.
    /// Ingested users start with no expert labels and are never spam —
    /// labels are an evaluation-side concept.
    pub fn add_user(
        &mut self,
        handle: &str,
        display_name: &str,
        description: &str,
        followers: u64,
        verified: bool,
    ) -> Result<UserId, String> {
        if handle.is_empty() {
            return Err("user handle must be non-empty".to_string());
        }
        if self.handle_index.contains_key(handle) {
            return Err(format!("handle {handle:?} already exists"));
        }
        if self.users.len() >= u32::MAX as usize {
            return Err("user id space exhausted".to_string());
        }
        let id = self.users.len() as UserId;
        self.users.push(User {
            id,
            handle: handle.to_string(),
            display_name: display_name.to_string(),
            description: description.to_string(),
            followers,
            verified,
            expert_domains: Vec::new(),
            spam: false,
        });
        self.handle_index.insert(handle.to_string(), id);
        self.columns.add_user();
        Ok(id)
    }

    /// Append one tweet to the delta segment. The text is tokenized and
    /// interned through the same symbol table as the base build (new
    /// tokens get fresh dense ids past the base watermark), per-user
    /// totals update in place, and the tweet joins the per-token delta
    /// posting lists. `author` is a handle so ingest streams are
    /// self-contained.
    pub fn append_tweet(&mut self, author: &str, text: &str) -> Result<TweetId, String> {
        let Some(&author_id) = self.handle_index.get(author) else {
            return Err(format!("unknown author handle {author:?}"));
        };
        if self.tweets.len() >= u32::MAX as usize {
            return Err("tweet id space exhausted".to_string());
        }
        let id = self.tweets.len() as TweetId;
        let tweet = {
            let handles = &self.handle_index;
            Tweet::parse(id, author_id, text, |h| handles.get(h).copied())
        };
        self.columns.push(&tweet);
        for token in tokenize(&tweet.text) {
            let tok = self.symbols.intern(&token);
            self.token_ids.push(tok);
            let list = self.delta_postings.entry(tok).or_default();
            // Appended ids are monotonic, so dedup needs only a last-entry
            // check and every delta list stays sorted by construction.
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
        self.token_offsets.push(self.token_ids.len() as u32);
        self.tweets.push(tweet);
        Ok(id)
    }

    /// Logically delete a tweet: a tombstone hides it from every match
    /// set immediately and per-user totals drop as if it never existed.
    /// The bytes are reclaimed at the next [`Corpus::compact`].
    pub fn delete_tweet(&mut self, id: TweetId) -> Result<(), String> {
        if (id as usize) >= self.tweets.len() {
            return Err(format!("tweet {id} does not exist"));
        }
        let pos = match self.tombstones.binary_search(&id) {
            Ok(_) => return Err(format!("tweet {id} is already deleted")),
            Err(pos) => pos,
        };
        self.columns.uncount(id);
        self.tombstones.insert(pos, id);
        Ok(())
    }

    /// `true` once any append or delete landed since the last (re)build —
    /// i.e. the corpus carries delta state the corpus file cannot
    /// represent until [`Corpus::compact`] folds it in.
    pub fn has_delta(&self) -> bool {
        self.tweets.len() > self.base_tweets as usize || !self.tombstones.is_empty()
    }

    /// Tweets covered by the immutable base CSR postings.
    pub fn base_tweet_count(&self) -> usize {
        self.base_tweets as usize
    }

    /// Tweets appended since the last compaction (tombstoned or not).
    pub fn delta_tweet_count(&self) -> usize {
        self.tweets.len() - self.base_tweets as usize
    }

    /// Logically deleted tweets awaiting physical removal.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Tweets visible to queries (total minus tombstones).
    pub fn live_tweet_count(&self) -> usize {
        self.tweets.len() - self.tombstones.len()
    }

    /// Whether `id` is tombstoned.
    pub fn is_deleted(&self, id: TweetId) -> bool {
        self.tombstones.binary_search(&id).is_ok()
    }

    /// Fold the delta segment into a fresh base: drop tombstoned tweets,
    /// renumber survivors densely, and rebuild the CSR postings — without
    /// re-tokenizing (the interned arenas are remapped in first-appearance
    /// order, which makes the result bit-identical to
    /// `Corpus::new(users, surviving_tweets)`).
    pub fn compact(&self) -> Corpus {
        self.compact_with_map().0
    }

    /// [`Corpus::compact`] plus the old-id → new-id map (`None` for
    /// tombstoned tweets) so callers holding ids minted before the
    /// compaction — e.g. queued deletes — can remap them.
    pub fn compact_with_map(&self) -> (Corpus, Vec<Option<TweetId>>) {
        let mut map: Vec<Option<TweetId>> = vec![None; self.tweets.len()];
        // Token remap table, filled in first-appearance order over the
        // surviving tweets — exactly the order `Corpus::new` would intern.
        const UNMAPPED: TokenId = u32::MAX;
        let mut token_map: Vec<TokenId> = vec![UNMAPPED; self.symbols.len()];
        let mut new_texts: Vec<Box<str>> = Vec::new();

        let live = self.live_tweet_count();
        let mut tweets: Vec<Tweet> = Vec::with_capacity(live);
        let mut token_offsets: Vec<u32> = Vec::with_capacity(live + 1);
        let mut token_ids: Vec<TokenId> = Vec::new();
        token_offsets.push(0);
        let mut columns = TweetColumns::with_capacity(self.users.len(), live);

        for t in &self.tweets {
            if self.tombstones.binary_search(&t.id).is_ok() {
                continue;
            }
            let new_id = tweets.len() as TweetId;
            map[t.id as usize] = Some(new_id);
            for &old_tok in self.tweet_tokens(t.id) {
                let new_tok = if token_map[old_tok as usize] == UNMAPPED {
                    let fresh = new_texts.len() as TokenId;
                    new_texts.push(self.symbols.text(old_tok).into());
                    token_map[old_tok as usize] = fresh;
                    fresh
                } else {
                    token_map[old_tok as usize]
                };
                token_ids.push(new_tok);
            }
            token_offsets.push(token_ids.len() as u32);
            let mut survivor = t.clone();
            survivor.id = new_id;
            columns.push(&survivor);
            tweets.push(survivor);
        }

        // token_map pushes each surviving text exactly once, so interning
        // assigns the same sequential ids `from_texts` would — without a
        // fallible constructor on this panic-free path.
        let mut symbols = SymbolTable::with_capacity(new_texts.len());
        for text in &new_texts {
            symbols.intern(text);
        }
        let postings = PostingsIndex::build(
            symbols.len(),
            token_offsets.windows(2).map(|w| &token_ids[w[0] as usize..w[1] as usize]),
        );
        // Compaction preserves the shard layout: the delta folds into a
        // fresh single-shard build, re-cut to the old K so a sharded
        // serving layout survives ingest churn (no-op for K = 1).
        let shard_count = self.postings.shard_count();
        let postings = if shard_count > 1 {
            postings.resharded(shard_count)
        } else {
            postings
        };
        let compacted = Corpus::from_parts(
            self.users.clone(),
            tweets,
            symbols,
            token_offsets,
            token_ids,
            postings,
            columns,
        );
        (compacted, map)
    }
}

/// Incremental corpus construction, the one build path: a generator
/// pushes each tweet as it is produced (tokenized, interned and totalled
/// on the spot) instead of materializing the whole tweet list first and
/// then re-walking it, and [`Corpus::new`] runs the same steps over a
/// list already in memory, so for the same users and tweet sequence the
/// two are bit-identical — the million-user synthetic scale is built this
/// way with peak memory equal to the finished corpus.
pub(crate) struct CorpusBuilder {
    users: Vec<User>,
    tweets: Vec<Tweet>,
    symbols: SymbolTable,
    token_offsets: Vec<u32>,
    token_ids: Vec<TokenId>,
    columns: TweetColumns,
}

impl CorpusBuilder {
    /// Start a build over a fixed user table (tweets stream in after).
    pub(crate) fn new(users: Vec<User>) -> CorpusBuilder {
        let columns = TweetColumns::with_capacity(users.len(), 0);
        CorpusBuilder {
            users,
            tweets: Vec::new(),
            symbols: SymbolTable::new(),
            token_offsets: vec![0],
            token_ids: Vec::new(),
            columns,
        }
    }

    /// The user table (generators need handles for mention text).
    pub(crate) fn users(&self) -> &[User] {
        &self.users
    }

    /// The id the next pushed tweet must carry.
    pub(crate) fn next_tweet_id(&self) -> TweetId {
        self.tweets.len() as TweetId
    }

    /// Ingest one tweet: index it and retain it.
    pub(crate) fn push_tweet(&mut self, tweet: Tweet) {
        debug_assert_eq!(tweet.id, self.next_tweet_id());
        self.index(&tweet);
        self.tweets.push(tweet);
    }

    /// Count the next tweet into the columns and per-user totals, and
    /// tokenize and intern its text into the CSR arena.
    fn index(&mut self, tweet: &Tweet) {
        self.columns.push(tweet);
        for token in tokenize(&tweet.text) {
            self.token_ids.push(self.symbols.intern(&token));
        }
        self.token_offsets.push(self.token_ids.len() as u32);
    }

    /// Build the postings index and assemble the corpus.
    pub(crate) fn finish(self) -> Corpus {
        let postings = PostingsIndex::build(
            self.symbols.len(),
            self.token_offsets
                .windows(2)
                .map(|w| &self.token_ids[w[0] as usize..w[1] as usize]),
        );
        Corpus::from_parts(
            self.users,
            self.tweets,
            self.symbols,
            self.token_offsets,
            self.token_ids,
            postings,
            self.columns,
        )
    }
}

/// A per-term match set: borrowed straight from the postings arena when
/// no intersection shrank it, or held in a pooled scratch buffer when
/// the base+delta concatenation had to materialize.
pub(crate) enum TermMatch<'c> {
    Borrowed(&'c [TweetId]),
    Owned(Vec<TweetId>),
    Pooled(PooledBuf),
}

impl TermMatch<'_> {
    pub(crate) fn as_slice(&self) -> &[TweetId] {
        match self {
            TermMatch::Borrowed(list) => list,
            TermMatch::Owned(list) => list.as_slice(),
            TermMatch::Pooled(buf) => buf.0.as_slice(),
        }
    }
}

thread_local! {
    /// Reusable base++delta concatenation buffers, per thread (each
    /// scatter-gather worker keeps its own pool). Checked out by
    /// [`Corpus::merged_postings`], returned on drop at the end of the
    /// query, so steady-state base+delta reads allocate nothing.
    static UNION_BUFS: RefCell<Vec<Vec<TweetId>>> = const { RefCell::new(Vec::new()) };
}

/// Cap on pooled buffers per thread: queries hold at most one buffer per
/// delta-dirty term, and expansion sets are small.
const MAX_POOLED_BUFS: usize = 32;

/// A `Vec<TweetId>` borrowed from the thread-local pool; cleared and
/// returned on drop.
pub(crate) struct PooledBuf(Vec<TweetId>);

impl PooledBuf {
    fn checkout(capacity: usize) -> PooledBuf {
        let mut buf = UNION_BUFS
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        buf.clear();
        buf.reserve(capacity);
        PooledBuf(buf)
    }

    /// Keep the contents, returning nothing to the pool (the
    /// `match_query` exit, where the caller owns the result).
    fn take(mut self) -> Vec<TweetId> {
        std::mem::take(&mut self.0)
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.0.capacity() == 0 {
            return;
        }
        let buf = std::mem::take(&mut self.0);
        UNION_BUFS.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < MAX_POOLED_BUFS {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(id: UserId, handle: &str) -> User {
        User {
            id,
            handle: handle.to_string(),
            display_name: handle.to_uppercase(),
            description: String::new(),
            followers: 10,
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
            Tweet::parse(0, 0, "the 49ers draft was exciting", resolve),
            Tweet::parse(1, 1, "RT @alice: the 49ers draft was exciting", resolve),
            Tweet::parse(2, 1, "niners game today with @carol", resolve),
            Tweet::parse(3, 2, "cooking pasta tonight", resolve),
        ];
        Corpus::new(users, tweets)
    }

    #[test]
    fn match_query_is_conjunctive_and_case_insensitive() {
        let c = corpus();
        assert_eq!(c.match_query("49ers DRAFT"), vec![0, 1]);
        assert_eq!(c.match_query("49ers pasta"), Vec::<TweetId>::new());
        assert_eq!(c.match_query("niners"), vec![2]);
        assert!(c.match_query("").is_empty());
        assert!(c.match_query("unknowntoken").is_empty());
    }

    #[test]
    fn match_terms_unions_per_term_matches() {
        let c = corpus();
        assert_eq!(
            c.match_terms_with(&["49ers draft".to_string(), "niners".to_string()], 1),
            vec![0, 1, 2]
        );
        // Overlapping terms dedup; unknown terms contribute nothing.
        assert_eq!(
            c.match_terms_with(
                &["49ers".to_string(), "draft".to_string(), "zzz".to_string()],
                1
            ),
            vec![0, 1]
        );
        assert!(c.match_terms_with(&[], 1).is_empty());
    }

    #[test]
    fn totals_count_mentions_and_retweets() {
        let c = corpus();
        assert_eq!(c.tweets_by(1), 2);
        assert_eq!(c.mentions_of(0), 1); // from the RT text
        assert_eq!(c.mentions_of(2), 1);
        assert_eq!(c.retweets_of(0), 1);
        assert_eq!(c.retweets_of(1), 0);
    }

    #[test]
    fn duplicate_tokens_index_once() {
        let users = vec![user(0, "a")];
        let tweets = vec![Tweet::parse(0, 0, "go go go niners", |_| None)];
        let c = Corpus::new(users, tweets);
        assert_eq!(c.match_query("go"), vec![0]);
        // The per-tweet token list keeps text order and duplicates …
        let go = c.token_id("go").unwrap();
        assert_eq!(c.tweet_tokens(0).iter().filter(|&&t| t == go).count(), 3);
        // … but the posting list holds the tweet once.
        assert_eq!(c.postings(go), &[0]);
    }

    #[test]
    fn interned_tokens_round_trip_text() {
        let c = corpus();
        let id = c.token_id("niners").unwrap();
        assert_eq!(c.token_text(id), "niners");
        assert!(c.num_tokens() > 0);
        assert_eq!(c.token_id("absent"), None);
    }

    #[test]
    fn save_load_round_trip_rebuilds_indexes() {
        let c = corpus();
        let dir =
            std::env::temp_dir().join(format!("esharp_corpus_io_test_{}", std::process::id()));
        let path = dir.join("corpus.bin");
        c.save_binary(&path).unwrap();
        let back = Corpus::load(&path).unwrap();
        assert_eq!(back.users().len(), c.users().len());
        assert_eq!(back.tweets().len(), c.tweets().len());
        assert_eq!(back.match_query("49ers draft"), c.match_query("49ers draft"));
        assert_eq!(back.mentions_of(0), c.mentions_of(0));
        assert_eq!(back.user_by_handle("carol"), Some(2));
        assert_eq!(back.token_id("niners"), c.token_id("niners"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn handle_lookup() {
        let c = corpus();
        assert_eq!(c.user_by_handle("bob"), Some(1));
        assert_eq!(c.user_by_handle("nobody"), None);
    }

    #[test]
    fn appended_tweets_are_searchable_immediately() {
        let mut c = corpus();
        assert!(!c.has_delta());
        let id = c.append_tweet("alice", "the niners draft steal").unwrap();
        assert_eq!(id, 4);
        assert!(c.has_delta());
        assert_eq!(c.delta_tweet_count(), 1);
        // Merged read path: base hits ++ delta hits, still sorted.
        assert_eq!(c.match_query("niners"), vec![2, 4]);
        assert_eq!(c.match_query("draft"), vec![0, 1, 4]);
        // A brand-new token exists only in the delta segment.
        let steal = c.token_id("steal").unwrap();
        assert_eq!(c.postings(steal), &[] as &[TweetId]);
        assert_eq!(c.match_query("steal"), vec![4]);
        // Totals updated in place.
        assert_eq!(c.tweets_by(0), 2);
    }

    #[test]
    fn append_resolves_mentions_and_retweets() {
        let mut c = corpus();
        let before = c.mentions_of(2);
        c.append_tweet("bob", "RT @carol: cooking pasta tonight").unwrap();
        assert_eq!(c.mentions_of(2), before + 1);
        assert_eq!(c.retweets_of(2), 1);
        assert!(c.append_tweet("nobody", "hi").is_err(), "unknown author");
    }

    #[test]
    fn added_users_can_author_and_be_mentioned() {
        let mut c = corpus();
        let dave = c.add_user("dave", "Dave", "bio", 42, true).unwrap();
        assert_eq!(c.user_by_handle("dave"), Some(dave));
        assert!(c.add_user("dave", "", "", 0, false).is_err(), "dup handle");
        let t = c.append_tweet("dave", "pasta recipes by @dave").unwrap();
        assert_eq!(c.tweets_by(dave), 1);
        assert_eq!(c.mentions_of(dave), 1);
        assert_eq!(c.match_query("pasta"), vec![3, t]);
    }

    #[test]
    fn tombstones_hide_tweets_and_reverse_totals() {
        let mut c = corpus();
        c.delete_tweet(1).unwrap();
        assert!(c.is_deleted(1));
        assert!(c.has_delta());
        assert_eq!(c.live_tweet_count(), 3);
        // Hidden from both conjunctive match and expansion union.
        assert_eq!(c.match_query("draft"), vec![0]);
        assert_eq!(
            c.match_terms_with(&["draft".to_string(), "niners".to_string()], 1),
            vec![0, 2]
        );
        // Totals roll back the RT's contribution.
        assert_eq!(c.tweets_by(1), 1);
        assert_eq!(c.mentions_of(0), 0);
        assert_eq!(c.retweets_of(0), 0);
        // Double delete and out-of-range are errors.
        assert!(c.delete_tweet(1).is_err());
        assert!(c.delete_tweet(99).is_err());
    }

    #[test]
    fn compaction_is_bit_identical_to_rebuild() {
        let mut c = corpus();
        c.add_user("dave", "Dave", "", 5, false).unwrap();
        c.append_tweet("dave", "niners niners go").unwrap();
        c.delete_tweet(1).unwrap();
        c.append_tweet("alice", "draft day pasta").unwrap();
        c.delete_tweet(4).unwrap(); // delete a delta tweet too

        let (compacted, map) = c.compact_with_map();
        assert!(!compacted.has_delta());
        assert_eq!(map[0], Some(0));
        assert_eq!(map[1], None);
        assert_eq!(map[4], None);
        assert_eq!(map[5], Some(3));

        // The reference: a from-scratch rebuild of the surviving tweets.
        let survivors: Vec<Tweet> = c
            .tweets()
            .iter()
            .filter(|t| !c.is_deleted(t.id))
            .enumerate()
            .map(|(i, t)| {
                let mut t = t.clone();
                t.id = i as TweetId;
                t
            })
            .collect();
        let rebuilt = Corpus::new(c.users().to_vec(), survivors);
        let a = crate::segio::encode(&compacted, 1).unwrap();
        let b = crate::segio::encode(&rebuilt, 1).unwrap();
        assert_eq!(a, b, "compacted bytes must equal a cold rebuild");

        // Query results survive the renumbering (delta view vs compacted).
        let live: Vec<TweetId> = c.match_query("niners");
        let remapped: Vec<TweetId> =
            live.iter().map(|&id| map[id as usize].unwrap()).collect();
        assert_eq!(compacted.match_query("niners"), remapped);
    }

    #[test]
    fn delta_corpus_refuses_save() {
        let mut c = corpus();
        c.append_tweet("alice", "ephemeral").unwrap();
        let dir = std::env::temp_dir().join(format!(
            "esharp_corpus_delta_save_test_{}",
            std::process::id()
        ));
        assert!(c.save_binary(dir.join("c.bin")).is_err());
        let compacted = c.compact();
        assert!(compacted.save_binary(dir.join("c.bin")).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }
}
