//! Binary corpus persistence: O(bytes) load, no rebuild.
//!
//! [`Corpus::save`] writes JSON and [`Corpus::load`]ing it re-tokenizes
//! every tweet and rebuilds every index — fine for small fixtures, wrong
//! for a serving process that restarts against a multi-GB corpus. This
//! module serializes the *interned* representation (symbol table, per-
//! tweet token arena, CSR postings, per-user totals) directly onto the
//! shared `esharp-relation::binfmt` v2 checksummed frames, so loading is
//! decode + validate: no tokenization, no postings build, only the two
//! small hash indexes (token text → id, handle → user) are rebuilt.
//!
//! The file is eight length-prefixed frames (see [`FRAMES`]); every frame
//! is CRC32-checksummed, the container rejects trailing bytes, and writes
//! go through `atomic_write` — the same torn-write/bit-flip guarantees as
//! every other PR 2 artifact. Corruption surfaces as `io::Error`
//! (`InvalidData`), never a panic.

use crate::corpus::Corpus;
use crate::index::PostingsIndex;
use crate::intern::SymbolTable;
use crate::types::{Tweet, TweetId, User, UserId};
use esharp_relation::binfmt::{decode_frames_exact, encode_frames};
use esharp_relation::{atomic::atomic_write, Column, DataType, Schema, Table};
use std::io;
use std::path::Path;

/// Format revision carried in the meta frame (bump on layout change).
const FORMAT: i64 = 1;

/// The frames of a `corpus.bin`, in order: meta, users, user_domains,
/// tweets, tweet_tokens, tweet_mentions, symbols, postings. CSR arenas
/// (domains, tokens, mentions, postings) are flat child frames addressed
/// by per-row end offsets in their parent frame.
pub const FRAMES: usize = 8;

impl Corpus {
    /// Persist the corpus in the binary format (checksummed frames,
    /// atomic write). [`Corpus::load`] sniffs the format automatically.
    pub fn save_binary(&self, path: impl AsRef<Path>) -> io::Result<()> {
        atomic_write(path, &encode_corpus(self)?)
    }
}

/// Encode a corpus into the eight-frame binary container.
///
/// The container only represents fully-compacted corpora: delta posting
/// lists and tombstones have no frames, so encoding a corpus with
/// uncompacted ingest state is refused rather than silently dropping it.
pub fn encode_corpus(corpus: &Corpus) -> io::Result<Vec<u8>> {
    if corpus.has_delta() {
        return Err(io::Error::other(
            "corpus has uncompacted delta state (appends or tombstones); \
             call Corpus::compact() before encoding",
        ));
    }
    let rel = |e: esharp_relation::RelError| io::Error::other(e.to_string());

    let meta = Table::new(
        Schema::of(&[("key", DataType::Str), ("value", DataType::Int)]),
        vec![
            Column::Str(vec![
                "format".into(),
                "num_users".into(),
                "num_tweets".into(),
                "num_tokens".into(),
            ]),
            Column::Int(vec![
                FORMAT,
                corpus.users().len() as i64,
                corpus.tweets().len() as i64,
                corpus.num_tokens() as i64,
            ]),
        ],
    )
    .map_err(rel)?;

    let users = corpus.users();
    let mut domains: Vec<i64> = Vec::new();
    let mut domains_end = Vec::with_capacity(users.len());
    for u in users {
        domains.extend(u.expert_domains.iter().map(|&d| d as i64));
        domains_end.push(domains.len() as i64);
    }
    let users_table = Table::new(
        Schema::of(&[
            ("handle", DataType::Str),
            ("display_name", DataType::Str),
            ("description", DataType::Str),
            ("followers", DataType::Int),
            ("verified", DataType::Bool),
            ("spam", DataType::Bool),
            ("tweets_by", DataType::Int),
            ("mentions_of", DataType::Int),
            ("retweets_of", DataType::Int),
            ("domains_end", DataType::Int),
        ]),
        vec![
            Column::Str(users.iter().map(|u| u.handle.as_str().into()).collect()),
            Column::Str(users.iter().map(|u| u.display_name.as_str().into()).collect()),
            Column::Str(users.iter().map(|u| u.description.as_str().into()).collect()),
            Column::Int(users.iter().map(|u| u.followers as i64).collect()),
            Column::Bool(users.iter().map(|u| u.verified).collect()),
            Column::Bool(users.iter().map(|u| u.spam).collect()),
            Column::Int(users.iter().map(|u| corpus.tweets_by(u.id) as i64).collect()),
            Column::Int(users.iter().map(|u| corpus.mentions_of(u.id) as i64).collect()),
            Column::Int(users.iter().map(|u| corpus.retweets_of(u.id) as i64).collect()),
            Column::Int(domains_end),
        ],
    )
    .map_err(rel)?;
    let user_domains = Table::new(
        Schema::of(&[("domain", DataType::Int)]),
        vec![Column::Int(domains)],
    )
    .map_err(rel)?;

    let tweets = corpus.tweets();
    let mut tokens: Vec<i64> = Vec::new();
    let mut tokens_end = Vec::with_capacity(tweets.len());
    let mut mentions: Vec<i64> = Vec::new();
    let mut mentions_end = Vec::with_capacity(tweets.len());
    for t in tweets {
        tokens.extend(corpus.tweet_tokens(t.id).iter().map(|&tok| tok as i64));
        tokens_end.push(tokens.len() as i64);
        mentions.extend(t.mentions.iter().map(|&m| m as i64));
        mentions_end.push(mentions.len() as i64);
    }
    let tweets_table = Table::new(
        Schema::of(&[
            ("author", DataType::Int),
            ("text", DataType::Str),
            ("retweet_of", DataType::Int),
            ("tokens_end", DataType::Int),
            ("mentions_end", DataType::Int),
        ]),
        vec![
            Column::Int(tweets.iter().map(|t| t.author as i64).collect()),
            Column::Str(tweets.iter().map(|t| t.text.as_str().into()).collect()),
            Column::Int(
                tweets
                    .iter()
                    .map(|t| t.retweet_of.map_or(-1, |u| u as i64))
                    .collect(),
            ),
            Column::Int(tokens_end),
            Column::Int(mentions_end),
        ],
    )
    .map_err(rel)?;
    let tweet_tokens = Table::new(
        Schema::of(&[("token", DataType::Int)]),
        vec![Column::Int(tokens)],
    )
    .map_err(rel)?;
    let tweet_mentions = Table::new(
        Schema::of(&[("user", DataType::Int)]),
        vec![Column::Int(mentions)],
    )
    .map_err(rel)?;

    let num_tokens = corpus.num_tokens();
    let mut postings_end = Vec::with_capacity(num_tokens);
    let mut postings_flat: Vec<i64> = Vec::new();
    for token in 0..num_tokens {
        postings_flat.extend(corpus.postings(token as u32).iter().map(|&t| t as i64));
        postings_end.push(postings_flat.len() as i64);
    }
    let symbols = Table::new(
        Schema::of(&[("token", DataType::Str), ("postings_end", DataType::Int)]),
        vec![
            Column::Str(
                (0..num_tokens)
                    .map(|t| corpus.token_text(t as u32).into())
                    .collect(),
            ),
            Column::Int(postings_end),
        ],
    )
    .map_err(rel)?;
    let postings = Table::new(
        Schema::of(&[("tweet", DataType::Int)]),
        vec![Column::Int(postings_flat)],
    )
    .map_err(rel)?;

    Ok(encode_frames(&[
        meta,
        users_table,
        user_domains,
        tweets_table,
        tweet_tokens,
        tweet_mentions,
        symbols,
        postings,
    ]))
}

/// Decode a corpus from the binary container, validating every offset and
/// id. Corruption — bad checksum, truncation, out-of-range ids, non-
/// monotone offsets — errors with `InvalidData`; it never panics and
/// never yields a plausible-but-wrong corpus.
pub fn decode_corpus(data: &[u8]) -> io::Result<Corpus> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("corpus.bin: {msg}"));
    let frames = decode_frames_exact(data, FRAMES)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let [meta, users_t, user_domains, tweets_t, tweet_tokens, tweet_mentions, symbols_t, postings_t]: [Table; FRAMES] =
        frames
            .try_into()
            .map_err(|_| bad("wrong frame count"))?;

    // Meta.
    let keys = col_str(&meta, "key")?;
    let values = col_int(&meta, "value")?;
    let meta_value = |key: &str| -> io::Result<i64> {
        keys.iter()
            .position(|k| &**k == key)
            .map(|i| values[i])
            .ok_or_else(|| bad(&format!("meta key {key} missing")))
    };
    let format = meta_value("format")?;
    if format != FORMAT {
        return Err(bad(&format!("unsupported corpus format {format}")));
    }
    let num_users = checked_len(meta_value("num_users")?, "num_users")?;
    let num_tweets = checked_len(meta_value("num_tweets")?, "num_tweets")?;
    let num_tokens = checked_len(meta_value("num_tokens")?, "num_tokens")?;

    // Users + their domains arena.
    if users_t.num_rows() != num_users {
        return Err(bad("users frame row count disagrees with meta"));
    }
    let handles = col_str(&users_t, "handle")?;
    let display_names = col_str(&users_t, "display_name")?;
    let descriptions = col_str(&users_t, "description")?;
    let followers = col_int(&users_t, "followers")?;
    let verified = col_bool(&users_t, "verified")?;
    let spam = col_bool(&users_t, "spam")?;
    let tweets_by = col_int(&users_t, "tweets_by")?;
    let mentions_of = col_int(&users_t, "mentions_of")?;
    let retweets_of = col_int(&users_t, "retweets_of")?;
    let domains = col_int(&user_domains, "domain")?;
    let domain_offsets = ends_to_offsets(
        col_int(&users_t, "domains_end")?,
        domains.len(),
        "user domains",
    )?;
    let mut users = Vec::with_capacity(num_users);
    for i in 0..num_users {
        let expert_domains = domains[domain_offsets[i] as usize..domain_offsets[i + 1] as usize]
            .iter()
            .map(|&d| checked_id(d, u32::MAX as usize, "expert domain"))
            .collect::<io::Result<Vec<u32>>>()?;
        users.push(User {
            id: i as UserId,
            handle: handles[i].to_string(),
            display_name: display_names[i].to_string(),
            description: descriptions[i].to_string(),
            followers: checked_total(followers[i], "followers")?,
            verified: verified[i],
            expert_domains,
            spam: spam[i],
        });
    }
    let tweets_by_user = totals(tweets_by, "tweets_by")?;
    let mentions_of_user = totals(mentions_of, "mentions_of")?;
    let retweets_of_user = totals(retweets_of, "retweets_of")?;

    // Tweets + their token and mention arenas.
    if tweets_t.num_rows() != num_tweets {
        return Err(bad("tweets frame row count disagrees with meta"));
    }
    let authors = col_int(&tweets_t, "author")?;
    let texts = col_str(&tweets_t, "text")?;
    let retweet_ofs = col_int(&tweets_t, "retweet_of")?;
    let token_arena = col_int(&tweet_tokens, "token")?;
    let token_offsets = ends_to_offsets(
        col_int(&tweets_t, "tokens_end")?,
        token_arena.len(),
        "tweet tokens",
    )?;
    let mention_arena = col_int(&tweet_mentions, "user")?;
    let mention_offsets = ends_to_offsets(
        col_int(&tweets_t, "mentions_end")?,
        mention_arena.len(),
        "tweet mentions",
    )?;
    let mut tweets = Vec::with_capacity(num_tweets);
    for i in 0..num_tweets {
        let mentions = mention_arena[mention_offsets[i] as usize..mention_offsets[i + 1] as usize]
            .iter()
            .map(|&m| checked_id(m, num_users, "mention user id"))
            .collect::<io::Result<Vec<UserId>>>()?;
        let retweet_of = match retweet_ofs[i] {
            -1 => None,
            id => Some(checked_id(id, num_users, "retweet_of user id")?),
        };
        tweets.push(Tweet {
            id: i as TweetId,
            author: checked_id(authors[i], num_users, "tweet author")?,
            text: texts[i].to_string(),
            mentions,
            retweet_of,
        });
    }
    let token_ids = token_arena
        .iter()
        .map(|&t| checked_id(t, num_tokens, "tweet token id"))
        .collect::<io::Result<Vec<u32>>>()?;

    // Symbols + postings arena.
    if symbols_t.num_rows() != num_tokens {
        return Err(bad("symbols frame row count disagrees with meta"));
    }
    let texts: Vec<Box<str>> = col_str(&symbols_t, "token")?
        .iter()
        .map(|s| Box::from(&**s))
        .collect();
    let symbols = SymbolTable::from_texts(texts).map_err(|e| bad(&e))?;
    let posting_arena = col_int(&postings_t, "tweet")?;
    let posting_offsets = ends_to_offsets(
        col_int(&symbols_t, "postings_end")?,
        posting_arena.len(),
        "postings",
    )?;
    let posting_tweets = posting_arena
        .iter()
        .map(|&t| checked_id(t, num_tweets, "posting tweet id"))
        .collect::<io::Result<Vec<TweetId>>>()?;
    for w in posting_offsets.windows(2) {
        let list = &posting_tweets[w[0] as usize..w[1] as usize];
        if list.windows(2).any(|p| p[0] >= p[1]) {
            return Err(bad("posting list not strictly sorted"));
        }
    }
    let postings = PostingsIndex::from_parts(posting_offsets, posting_tweets)
        .map_err(|e| bad(&e))?;

    if tweets_by_user.len() != num_users
        || mentions_of_user.len() != num_users
        || retweets_of_user.len() != num_users
    {
        return Err(bad("per-user totals disagree with num_users"));
    }

    Ok(Corpus::from_parts(
        users,
        tweets,
        symbols,
        crate::arena::CorpusArena::Owned(token_offsets),
        crate::arena::CorpusArena::Owned(token_ids),
        postings,
        tweets_by_user,
        mentions_of_user,
        retweets_of_user,
    ))
}

pub(crate) fn col_int<'t>(table: &'t Table, name: &str) -> io::Result<&'t [i64]> {
    table
        .column_by_name(name)
        .ok()
        .and_then(Column::as_int)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corpus.bin: int column {name} missing"),
            )
        })
}

pub(crate) fn col_str<'t>(table: &'t Table, name: &str) -> io::Result<&'t [std::sync::Arc<str>]> {
    table
        .column_by_name(name)
        .ok()
        .and_then(Column::as_str)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corpus.bin: str column {name} missing"),
            )
        })
}

pub(crate) fn col_bool<'t>(table: &'t Table, name: &str) -> io::Result<&'t [bool]> {
    match table.column_by_name(name) {
        Ok(Column::Bool(v)) => Ok(v),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corpus.bin: bool column {name} missing"),
        )),
    }
}

/// Turn per-row end offsets into a `[0, end0, end1, …]` CSR offsets vec,
/// rejecting non-monotone sequences and a final end that misses the
/// arena length.
pub(crate) fn ends_to_offsets(ends: &[i64], arena_len: usize, what: &str) -> io::Result<Vec<u32>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("corpus.bin: {msg}"));
    let mut offsets = Vec::with_capacity(ends.len() + 1);
    offsets.push(0u32);
    let mut prev = 0i64;
    for &end in ends {
        if end < prev || end > arena_len as i64 {
            return Err(bad(format!("{what} offsets not monotone within the arena")));
        }
        prev = end;
        offsets.push(end as u32);
    }
    if prev != arena_len as i64 {
        return Err(bad(format!("{what} arena has bytes no row claims")));
    }
    Ok(offsets)
}

pub(crate) fn checked_id(value: i64, bound: usize, what: &str) -> io::Result<u32> {
    if value < 0 || value >= bound as i64 || value > u32::MAX as i64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corpus.bin: {what} {value} out of range"),
        ));
    }
    Ok(value as u32)
}

pub(crate) fn checked_total(value: i64, what: &str) -> io::Result<u64> {
    u64::try_from(value).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corpus.bin: negative {what}"),
        )
    })
}

pub(crate) fn checked_len(value: i64, what: &str) -> io::Result<usize> {
    if !(0..=u32::MAX as i64).contains(&value) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corpus.bin: {what} {value} out of range"),
        ));
    }
    Ok(value as usize)
}

pub(crate) fn totals(values: &[i64], what: &str) -> io::Result<Vec<u64>> {
    values.iter().map(|&v| checked_total(v, what)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::User;

    fn sample() -> Corpus {
        let users = vec![
            User {
                id: 0,
                handle: "alice".into(),
                display_name: "Alice".into(),
                description: "qb talk".into(),
                followers: 120,
                verified: true,
                expert_domains: vec![0, 3],
                spam: false,
            },
            User {
                id: 1,
                handle: "bob".into(),
                display_name: "Bob".into(),
                description: String::new(),
                followers: 4,
                verified: false,
                expert_domains: vec![],
                spam: true,
            },
        ];
        let resolve = |h: &str| match h {
            "alice" => Some(0),
            "bob" => Some(1),
            _ => None,
        };
        let tweets = vec![
            Tweet::parse(0, 0, "the 49ers draft was exciting", resolve),
            Tweet::parse(1, 1, "RT @alice: the 49ers draft was exciting", resolve),
            Tweet::parse(2, 1, "go go niners with @alice", resolve),
        ];
        Corpus::new(users, tweets)
    }

    fn equivalent(a: &Corpus, b: &Corpus) {
        assert_eq!(a.users().len(), b.users().len());
        for (x, y) in a.users().iter().zip(b.users()) {
            assert_eq!(x.handle, y.handle);
            assert_eq!(x.expert_domains, y.expert_domains);
            assert_eq!(x.followers, y.followers);
            assert_eq!((x.verified, x.spam), (y.verified, y.spam));
        }
        assert_eq!(a.tweets().len(), b.tweets().len());
        for (x, y) in a.tweets().iter().zip(b.tweets()) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.mentions, y.mentions);
            assert_eq!(x.retweet_of, y.retweet_of);
            assert_eq!(a.tweet_tokens(x.id), b.tweet_tokens(y.id));
        }
        assert_eq!(a.num_tokens(), b.num_tokens());
        for t in 0..a.num_tokens() as u32 {
            assert_eq!(a.token_text(t), b.token_text(t));
            assert_eq!(a.postings(t), b.postings(t));
        }
        for u in 0..a.users().len() as u32 {
            assert_eq!(a.tweets_by(u), b.tweets_by(u));
            assert_eq!(a.mentions_of(u), b.mentions_of(u));
            assert_eq!(a.retweets_of(u), b.retweets_of(u));
        }
    }

    #[test]
    fn binary_round_trip_is_identical() {
        let c = sample();
        let bytes = encode_corpus(&c).unwrap();
        let back = decode_corpus(&bytes).unwrap();
        equivalent(&c, &back);
        assert_eq!(back.match_query("49ers draft"), c.match_query("49ers draft"));
        assert_eq!(back.user_by_handle("bob"), Some(1));
    }

    #[test]
    fn save_binary_loads_through_autodetect() {
        let c = sample();
        let dir = std::env::temp_dir().join("esharp_binio_autodetect");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.bin");
        c.save_binary(&path).unwrap();
        let back = Corpus::load(&path).unwrap();
        equivalent(&c, &back);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let bytes = encode_corpus(&sample()).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_corpus(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_corpus(&sample()).unwrap();
        bytes.push(0);
        assert!(decode_corpus(&bytes).is_err());
    }
}
