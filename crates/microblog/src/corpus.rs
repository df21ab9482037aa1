//! The corpus: users, tweets and the indexes the expert detector needs.

use crate::columns::TweetColumns;
use crate::index::{
    concat_runs, expand_into, intersect_runs, push_run, Postings, PostingsIndex, Run,
};
use crate::intern::SymbolTable;
use crate::order::{permute, topic_order};
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
///   matching (§3), every posting list a run list of adjacent ids,
/// * the rank-side [`TweetColumns`]: author / retweet source / mentions
///   of every tweet as flat arrays, and per-user totals (#tweets,
///   #mentions received, #retweets received) — the denominators of the
///   TS / MI / RI features,
/// * tweet ids in **topic order**, assigned by the build: tweets sharing
///   their rarest token are one run of adjacent ids, so a query's
///   matches and the columns ranking reads for them are contiguous,
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
    /// token id → the runs of tweet ids containing it (base segment only).
    postings: PostingsIndex,
    /// handle → user id.
    handle_index: HashMap<String, UserId>,
    /// What ranking reads of `tweets`, as flat arrays, plus the per-user
    /// totals. Counted from `tweets` by a build, adopted from the file by
    /// a load (which builds `tweets` from them).
    columns: TweetColumns,
    /// Tweets `[0, base_tweets)` are covered by the CSR postings; later
    /// ids live in `delta_postings`. Appended ids are always larger than
    /// every base id, so base ++ delta concatenation stays sorted.
    base_tweets: u32,
    /// Tokens `[0, base_tokens)` have CSR posting lists; tokens interned
    /// by appends are delta-only until compaction.
    base_tokens: u32,
    /// token id → the runs of tweet ids appended since the last
    /// compaction, in the base's run form.
    delta_postings: HashMap<TokenId, Vec<Run>>,
    /// Sorted ids of logically deleted tweets (filtered from every match
    /// set; physically removed by compaction).
    tombstones: Vec<TweetId>,
}

impl Corpus {
    /// Build an indexed corpus from users and tweets. On input, tweet and
    /// user ids must equal their indices. User ids are kept; tweet ids are
    /// not: the corpus assigns its own, in topic order (tweets sharing a
    /// rare token get adjacent ids, see DESIGN.md "Tweet-id order"), and
    /// rewrites [`Tweet::id`] to match, so `tweets()[i].id == i` holds
    /// afterwards but the input tweet at index `i` may now have another
    /// id. A tweet id is stable only within one corpus epoch: until the
    /// next build or [`Corpus::compact`]. Rebuilding from a corpus's own
    /// `tweets()` gives the same corpus. The same steps as the streaming
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

    /// The ids of the tweets whose text is one of `texts`, ascending (the
    /// order of a match set). The corpus assigns tweet ids itself, so
    /// code that knows tweets by content names them through this. A
    /// linear scan.
    pub fn ids_of_texts(&self, texts: &[&str]) -> Vec<TweetId> {
        self.tweets
            .iter()
            .filter(|t| texts.contains(&t.text.as_str()))
            .map(|t| t.id)
            .collect()
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

    /// The **base-segment** posting list of `token`, in run form (its
    /// `len` counts tweets). Tweets appended since the last compaction
    /// live in the delta segment and are not visible here; the query path
    /// ([`Corpus::match_query`], [`Corpus::match_expansions`]) merges both
    /// segments. Tokens first interned by an append have no base list yet
    /// and return empty.
    pub fn postings(&self, token: TokenId) -> Postings<'_> {
        if token >= self.base_tokens {
            return Postings::default();
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
    /// tokens after lower-casing (§3). A run-list intersection starting
    /// from the list with the fewest runs, expanded to ids at the end.
    pub fn match_query(&self, query: &str) -> Vec<TweetId> {
        let Some(tokens) = self.term_tokens(query) else {
            return Vec::new();
        };
        let mut matched = Vec::new();
        expand_into(self.match_tokens(&tokens).as_slice(), &mut matched);
        self.without_tombstones(matched)
    }

    /// A term's conjunctive token set, sorted and deduplicated: the ids
    /// of the tokens a matching tweet must contain, or `None` when one of
    /// them is not interned anywhere (the term matches nothing). An empty
    /// set (`""`, `"!!"`) also matches nothing. The one place a term's
    /// text is resolved: [`Corpus::match_query`] and the postings walk's
    /// plan both come through here.
    pub(crate) fn term_tokens(&self, term: &str) -> Option<Vec<TokenId>> {
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
        let mut ids: Vec<TokenId> = if normalized {
            term.split_ascii_whitespace()
                .map(|word| self.symbols.get(word))
                .collect::<Option<_>>()?
        } else {
            tokenize(term)
                .iter()
                .map(|token| self.symbols.get(token))
                .collect::<Option<_>>()?
        };
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }

    /// Tweets containing every token of `tokens` (a [`Corpus::term_tokens`]
    /// set), tombstones not yet filtered, as a run list: the posting list
    /// borrowed outright when no intersection shrinks it (single-token
    /// terms — the common case for expansion terms), else intersected run
    /// against run from the list with the fewest runs up.
    pub(crate) fn match_tokens(&self, tokens: &[TokenId]) -> TermMatch<'_> {
        let mut lists: Vec<TermMatch<'_>> =
            tokens.iter().map(|&id| self.merged_postings(id)).collect();
        match lists.len() {
            0 => TermMatch::Owned(Vec::new()),
            1 => lists.remove(0),
            _ => {
                let mut slices: Vec<&[Run]> = lists.iter().map(TermMatch::as_slice).collect();
                slices.sort_by_key(|list| list.len());
                let mut result = intersect_runs(slices[0], slices[1]);
                for list in &slices[2..] {
                    if result.is_empty() {
                        break;
                    }
                    result = intersect_runs(&result, list);
                }
                TermMatch::Owned(result)
            }
        }
    }

    /// Base ++ delta run list for one token. Every delta id is larger
    /// than every base id, so concatenation (coalescing the seam when the
    /// last base run touches the first delta run) is the merge.
    /// When the token genuinely has both segments the concatenation lands
    /// in a pooled per-thread scratch buffer ([`PooledBuf`]) instead of a
    /// fresh allocation — the base+delta read overhead was partly this
    /// per-term, per-query `Vec`.
    fn merged_postings(&self, token: TokenId) -> TermMatch<'_> {
        let base = self.postings(token).runs();
        match self.delta_postings.get(&token) {
            None => TermMatch::Borrowed(base),
            Some(delta) if base.is_empty() => TermMatch::Borrowed(delta),
            Some(delta) => {
                let mut buf = PooledBuf::checkout(base.len() + delta.len());
                concat_runs(base, delta, &mut buf.0);
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

    /// Payload bytes of each postings shard (offsets + run arena), in shard
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
            // Appended ids are monotonic, so a repeated token merges into
            // the run that already holds `id`, the next tweet's extends
            // it, and every delta list stays a canonical run list.
            push_run(self.delta_postings.entry(tok).or_default(), [id, 1]);
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

    /// Fold the delta segment into a fresh base: drop tombstoned tweets
    /// and lay the survivors out anew in topic order, as a build does —
    /// without re-tokenizing (the interned arenas are carried over). The
    /// result is bit-identical to `Corpus::new(users, surviving_tweets)`;
    /// every surviving tweet gets a new id, which is why an id is stable
    /// only between two compactions.
    pub fn compact(&self) -> Corpus {
        self.compact_with_map().0
    }

    /// [`Corpus::compact`] plus the old-id → new-id map (`None` for
    /// tombstoned tweets) so callers holding ids minted before the
    /// compaction — e.g. queued deletes — can remap them.
    pub fn compact_with_map(&self) -> (Corpus, Vec<Option<TweetId>>) {
        let live = self.live_tweet_count();
        let mut survivors: Vec<Tweet> = Vec::with_capacity(live);
        let mut token_offsets: Vec<u32> = Vec::with_capacity(live + 1);
        let mut token_ids: Vec<TokenId> = Vec::new();
        token_offsets.push(0);
        for t in &self.tweets {
            if self.is_deleted(t.id) {
                continue;
            }
            token_ids.extend_from_slice(self.tweet_tokens(t.id));
            token_offsets.push(token_ids.len() as u32);
            survivors.push(t.clone());
        }
        let old_ids: Vec<TweetId> = survivors.iter().map(|t| t.id).collect();
        let (mut compacted, order) = lay_out(
            self.users.clone(),
            survivors,
            self.symbols.texts(),
            &token_offsets,
            &token_ids,
        );
        let mut map: Vec<Option<TweetId>> = vec![None; self.tweets.len()];
        for (new_id, &survivor) in order.iter().enumerate() {
            map[old_ids[survivor as usize] as usize] = Some(new_id as TweetId);
        }
        // Compaction preserves the shard layout: the delta folds into a
        // fresh single-shard build, re-cut to the old K so a sharded
        // serving layout survives ingest churn.
        let shard_count = self.postings.shard_count();
        if shard_count > 1 {
            compacted.reshard(shard_count);
        }
        (compacted, map)
    }
}

/// Incremental corpus construction, the one build path: a generator
/// pushes each tweet as it is produced (tokenized and interned on the
/// spot) instead of materializing the whole tweet list first and then
/// re-walking it, and [`Corpus::new`] runs the same steps over a list
/// already in memory, so for the same users and tweet sequence the two
/// are bit-identical — the million-user synthetic scale is built this
/// way, with peak memory the finished corpus plus what the layout holds
/// while it runs (the input token arena and one 16-byte key per tweet).
///
/// Pushed tweets carry their input position as id (input ids equal their
/// indices). [`CorpusBuilder::finish`] then assigns the corpus's own ids,
/// in topic order (see [`lay_out`]), and lays every per-tweet structure
/// out in that order. Those ids hold for one corpus epoch: the next
/// build or compaction assigns them anew.
pub(crate) struct CorpusBuilder {
    users: Vec<User>,
    tweets: Vec<Tweet>,
    symbols: SymbolTable,
    token_offsets: Vec<u32>,
    token_ids: Vec<TokenId>,
}

impl CorpusBuilder {
    /// Start a build over a fixed user table (tweets stream in after).
    pub(crate) fn new(users: Vec<User>) -> CorpusBuilder {
        CorpusBuilder {
            users,
            tweets: Vec::new(),
            symbols: SymbolTable::new(),
            token_offsets: vec![0],
            token_ids: Vec::new(),
        }
    }

    /// The user table (generators need handles for mention text).
    pub(crate) fn users(&self) -> &[User] {
        &self.users
    }

    /// The id the next pushed tweet must carry: its input position.
    pub(crate) fn next_tweet_id(&self) -> TweetId {
        self.tweets.len() as TweetId
    }

    /// Ingest one tweet: index it and retain it.
    pub(crate) fn push_tweet(&mut self, tweet: Tweet) {
        debug_assert_eq!(tweet.id, self.next_tweet_id());
        self.index(&tweet);
        self.tweets.push(tweet);
    }

    /// Tokenize and intern the next tweet's text into the CSR arena.
    fn index(&mut self, tweet: &Tweet) {
        for token in tokenize(&tweet.text) {
            self.token_ids.push(self.symbols.intern(&token));
        }
        self.token_offsets.push(self.token_ids.len() as u32);
    }

    /// Assign ids in topic order and assemble the corpus.
    pub(crate) fn finish(self) -> Corpus {
        let texts = self.symbols.texts();
        lay_out(
            self.users,
            self.tweets,
            texts,
            &self.token_offsets,
            &self.token_ids,
        )
        .0
    }
}

/// Lay a tweet sequence out in topic order and assemble the corpus: the
/// one place tweet ids are assigned ([`CorpusBuilder::finish`] and
/// [`Corpus::compact_with_map`] both end here). Input tweet `i` has the
/// tokens `token_ids[token_offsets[i] .. token_offsets[i + 1]]`, and
/// input token `t` has the text `texts[t]`.
///
/// New id `j` is input tweet [`topic_order`]`[j]`. Tokens are interned
/// afresh in first appearance over the new order, and the token arena,
/// the tweet table, the columns and the postings are laid out in it. How
/// the input numbered its tokens never shows: every byte of the result is
/// a function of the input tweets alone, in input order. A
/// corpus's own tweet list is therefore a fixed point (rebuilding from
/// `tweets()` gives the same bytes), and compaction equals a cold rebuild
/// of the survivors. Returns the corpus and the order.
fn lay_out(
    users: Vec<User>,
    mut tweets: Vec<Tweet>,
    texts: &[Box<str>],
    token_offsets: &[u32],
    token_ids: &[TokenId],
) -> (Corpus, Vec<u32>) {
    let tokens_of = |i: usize| &token_ids[token_offsets[i] as usize..token_offsets[i + 1] as usize];
    let order = topic_order(&tweets, texts, token_offsets, token_ids);

    const UNMAPPED: TokenId = TokenId::MAX;
    let mut token_map = vec![UNMAPPED; texts.len()];
    let mut symbols = SymbolTable::with_capacity(texts.len());
    let mut offsets = Vec::with_capacity(order.len() + 1);
    let mut ids = Vec::with_capacity(token_ids.len());
    offsets.push(0);
    for &input in &order {
        for &old in tokens_of(input as usize) {
            let new = &mut token_map[old as usize];
            if *new == UNMAPPED {
                *new = symbols.intern(&texts[old as usize]);
            }
            ids.push(*new);
        }
        offsets.push(ids.len() as u32);
    }

    permute(&mut tweets, &order);
    for (id, tweet) in tweets.iter_mut().enumerate() {
        tweet.id = id as TweetId;
    }
    let columns = TweetColumns::from_tweets(users.len(), &tweets);
    let postings = PostingsIndex::build(
        symbols.len(),
        offsets.windows(2).map(|w| &ids[w[0] as usize..w[1] as usize]),
    );
    let corpus = Corpus::from_parts(users, tweets, symbols, offsets, ids, postings, columns);
    (corpus, order)
}

/// A per-term match set as a run list: borrowed straight from the
/// postings arena when no intersection shrank it, or held in a pooled
/// scratch buffer when the base+delta concatenation had to materialize.
pub(crate) enum TermMatch<'c> {
    Borrowed(&'c [Run]),
    Owned(Vec<Run>),
    Pooled(PooledBuf),
}

impl TermMatch<'_> {
    pub(crate) fn as_slice(&self) -> &[Run] {
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
    static UNION_BUFS: RefCell<Vec<Vec<Run>>> = const { RefCell::new(Vec::new()) };
}

/// Cap on pooled buffers per thread: queries hold at most one buffer per
/// delta-dirty term, and expansion sets are small.
const MAX_POOLED_BUFS: usize = 32;

/// A `Vec<Run>` borrowed from the thread-local pool; cleared and
/// returned on drop.
pub(crate) struct PooledBuf(Vec<Run>);

impl PooledBuf {
    fn checkout(capacity: usize) -> PooledBuf {
        let mut buf = UNION_BUFS
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        buf.clear();
        buf.reserve(capacity);
        PooledBuf(buf)
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
    use crate::segio::encode;
    use crate::synth::{generate_corpus, CorpusConfig};
    use esharp_querylog::{World, WorldConfig};

    const DRAFT: &str = "the 49ers draft was exciting";
    const DRAFT_RT: &str = "RT @alice: the 49ers draft was exciting";
    const NINERS: &str = "niners game today with @carol";
    const PASTA: &str = "cooking pasta tonight";

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
            Tweet::parse(0, 0, DRAFT, resolve),
            Tweet::parse(1, 1, DRAFT_RT, resolve),
            Tweet::parse(2, 1, NINERS, resolve),
            Tweet::parse(3, 2, PASTA, resolve),
        ];
        Corpus::new(users, tweets)
    }

    /// The one id of the tweet with this text.
    fn id_of(c: &Corpus, text: &str) -> TweetId {
        let ids = c.ids_of_texts(&[text]);
        assert_eq!(ids.len(), 1, "{text:?} names {} tweets", ids.len());
        ids[0]
    }

    /// A generated corpus large enough for the topic order to move
    /// nearly every tweet.
    fn generated(seed: u64) -> Corpus {
        generate_corpus(&World::generate(&WorldConfig::tiny(21)), &CorpusConfig::tiny(seed))
    }

    /// A key token as (missing, df, text): a missing token sorts last.
    type KeyToken<'c> = (bool, usize, &'c str);

    /// The key of every tweet, recomputed from the public API: its rarest
    /// and second-rarest distinct tokens by (document frequency, text).
    fn keys(c: &Corpus) -> Vec<(KeyToken<'_>, KeyToken<'_>)> {
        (0..c.tweets().len() as TweetId)
            .map(|id| {
                let mut ranked: Vec<KeyToken<'_>> = c
                    .tweet_tokens(id)
                    .iter()
                    .map(|&t| (false, c.postings(t).len(), c.token_text(t)))
                    .collect();
                ranked.sort_unstable();
                ranked.dedup();
                let at = |k: usize| ranked.get(k).copied().unwrap_or((true, 0, ""));
                (at(0), at(1))
            })
            .collect()
    }

    #[test]
    fn match_query_is_conjunctive_and_case_insensitive() {
        let c = corpus();
        assert_eq!(c.match_query("49ers DRAFT"), c.ids_of_texts(&[DRAFT, DRAFT_RT]));
        assert_eq!(c.match_query("49ers pasta"), Vec::<TweetId>::new());
        assert_eq!(c.match_query("niners"), c.ids_of_texts(&[NINERS]));
        assert!(c.match_query("").is_empty());
        assert!(c.match_query("unknowntoken").is_empty());
    }

    #[test]
    fn match_terms_unions_per_term_matches() {
        let c = corpus();
        assert_eq!(
            c.match_terms_with(&["49ers draft".to_string(), "niners".to_string()], 1),
            c.ids_of_texts(&[DRAFT, DRAFT_RT, NINERS])
        );
        // Overlapping terms dedup; unknown terms contribute nothing.
        assert_eq!(
            c.match_terms_with(
                &["49ers".to_string(), "draft".to_string(), "zzz".to_string()],
                1
            ),
            c.ids_of_texts(&[DRAFT, DRAFT_RT])
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
        let text = "go go go niners";
        let tweets = vec![Tweet::parse(0, 0, text, |_| None)];
        let c = Corpus::new(users, tweets);
        let id = id_of(&c, text);
        assert_eq!(c.match_query("go"), vec![id]);
        // The per-tweet token list keeps text order and duplicates …
        let go = c.token_id("go").unwrap();
        assert_eq!(c.tweet_tokens(id).iter().filter(|&&t| t == go).count(), 3);
        // … but the posting list holds the tweet once.
        assert_eq!(c.postings(go).to_vec(), [id]);
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
        let steal = "the niners draft steal";
        let id = c.append_tweet("alice", steal).unwrap();
        // The delta keeps arrival order: an appended id follows every base id.
        assert_eq!(id, 4);
        assert_eq!(c.ids_of_texts(&[steal]), vec![id]);
        assert!(c.has_delta());
        // Merged read path: base hits ++ delta hits, still sorted.
        assert_eq!(c.match_query("niners"), c.ids_of_texts(&[NINERS, steal]));
        assert_eq!(c.match_query("draft"), c.ids_of_texts(&[DRAFT, DRAFT_RT, steal]));
        // A brand-new token exists only in the delta segment.
        let steal_token = c.token_id("steal").unwrap();
        assert!(c.postings(steal_token).is_empty());
        assert_eq!(c.match_query("steal"), vec![id]);
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
        let recipes = "pasta recipes by @dave";
        let t = c.append_tweet("dave", recipes).unwrap();
        assert_eq!(c.tweets_by(dave), 1);
        assert_eq!(c.mentions_of(dave), 1);
        assert_eq!(c.ids_of_texts(&[recipes]), vec![t]);
        assert_eq!(c.match_query("pasta"), c.ids_of_texts(&[PASTA, recipes]));
    }

    #[test]
    fn tombstones_hide_tweets_and_reverse_totals() {
        let mut c = corpus();
        let rt = id_of(&c, DRAFT_RT);
        c.delete_tweet(rt).unwrap();
        assert!(c.is_deleted(rt));
        assert!(c.has_delta());
        assert_eq!(c.live_tweet_count(), 3);
        // Hidden from both conjunctive match and expansion union.
        assert_eq!(c.match_query("draft"), c.ids_of_texts(&[DRAFT]));
        assert_eq!(
            c.match_terms_with(&["draft".to_string(), "niners".to_string()], 1),
            c.ids_of_texts(&[DRAFT, NINERS])
        );
        // Totals roll back the RT's contribution.
        assert_eq!(c.tweets_by(1), 1);
        assert_eq!(c.mentions_of(0), 0);
        assert_eq!(c.retweets_of(0), 0);
        // Double delete and out-of-range are errors.
        assert!(c.delete_tweet(rt).is_err());
        assert!(c.delete_tweet(99).is_err());
    }

    /// Compact `c` and check the result byte for byte against a cold
    /// rebuild of the surviving tweets, and every match set against the
    /// delta view through the returned map.
    fn assert_compaction_matches_rebuild(c: &Corpus, query: &str) -> (Corpus, Vec<Option<TweetId>>) {
        let (compacted, map) = c.compact_with_map();
        assert!(!compacted.has_delta());

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
        let a = encode(&compacted, 1).unwrap();
        let b = encode(&rebuilt, 1).unwrap();
        assert_eq!(a, b, "compacted bytes must equal a cold rebuild");

        // Query results survive the renumbering (delta view vs compacted).
        let live: Vec<TweetId> = c.match_query(query);
        assert!(!live.is_empty(), "{query:?} must match something");
        let mut remapped: Vec<TweetId> =
            live.iter().map(|&id| map[id as usize].unwrap()).collect();
        remapped.sort_unstable();
        assert_eq!(compacted.match_query(query), remapped);
        (compacted, map)
    }

    #[test]
    fn compaction_is_bit_identical_to_rebuild() {
        let mut c = corpus();
        c.add_user("dave", "Dave", "", 5, false).unwrap();
        let go = c.append_tweet("dave", "niners niners go").unwrap();
        c.delete_tweet(id_of(&c, DRAFT_RT)).unwrap();
        let day = "draft day pasta";
        let day_id = c.append_tweet("alice", day).unwrap();
        c.delete_tweet(go).unwrap(); // delete a delta tweet too

        let (compacted, map) = assert_compaction_matches_rebuild(&c, "niners");
        assert_eq!(map[id_of(&c, DRAFT) as usize], Some(id_of(&compacted, DRAFT)));
        assert_eq!(map[id_of(&c, DRAFT_RT) as usize], None);
        assert_eq!(map[go as usize], None);
        assert_eq!(map[day_id as usize], Some(id_of(&compacted, day)));

        // A generated corpus, where the topic order really moves the ids:
        // delete every seventh base tweet, append copies of a few tweets
        // by other authors, and delete one of the appended tweets.
        let mut c = generated(3);
        let base = c.tweets().len() as TweetId;
        for id in (0..base).step_by(7) {
            c.delete_tweet(id).unwrap();
        }
        for id in (1..base).step_by(97) {
            let (author, text) = {
                let t = c.tweet(id);
                let author = (t.author + 1) % c.users().len() as UserId;
                (c.user(author).handle.clone(), t.text.clone())
            };
            c.append_tweet(&author, &text).unwrap();
        }
        c.delete_tweet(base + 1).unwrap();
        let (_, map) = assert_compaction_matches_rebuild(&c, "the");
        let new_ids: Vec<TweetId> = map.iter().flatten().copied().collect();
        assert!(
            new_ids.windows(2).any(|w| w[0] > w[1]),
            "the topic order left the survivors in arrival order"
        );
        // An appended tweet may now sit before base tweets.
        assert!(map[base as usize + 2..].iter().flatten().any(|&id| id < base / 2));
    }

    #[test]
    fn a_corpus_is_a_fixed_point_of_its_own_rebuild() {
        let c = generated(5);
        let bytes = encode(&c, 1).unwrap();
        let rebuilt = Corpus::new(c.users().to_vec(), c.tweets().to_vec());
        assert_eq!(encode(&rebuilt, 1).unwrap(), bytes, "rebuild from tweets()");
        assert_eq!(encode(&c.compact(), 1).unwrap(), bytes, "delta-free compaction");
    }

    #[test]
    fn tweets_sharing_a_key_token_form_one_id_run() {
        let c = generated(5);
        let keys = keys(&c);
        // Ids ascend with the key…
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "tweets are not in key order");
        // …so the tweets sharing a leading token are one run of adjacent
        // ids…
        let mut runs: HashMap<KeyToken<'_>, (usize, usize, usize)> = HashMap::new();
        for (id, (leading, _)) in keys.iter().enumerate() {
            let run = runs.entry(*leading).or_insert((id, id, 0));
            run.1 = id;
            run.2 += 1;
        }
        for (token, (first, last, count)) in &runs {
            assert_eq!(last - first + 1, *count, "the tweets led by {token:?} are split");
        }
        assert!(runs.len() > 10, "only {} runs", runs.len());
        // …and the authors ascend among tweets with the same key.
        for (id, pair) in c.tweets().windows(2).enumerate() {
            if keys[id] == keys[id + 1] {
                assert!(pair[0].author <= pair[1].author, "authors at {id}");
            }
        }
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
