//! The corpus file (`corpus.bin`): the whole compacted corpus in one
//! checksummed file, written once and atomically.
//!
//! ```text
//! header   magic "ESCF" | version u16 | reserved u16 (0)
//!          num_users u32 | num_tweets u32 | num_tokens u32 | shards K u32
//!          strings_len u64
//!          section table, 1 + K entries:
//!            row_start u32 | row_end u32 | arena_len u32 | crc u32
//!          header_crc u32              (CRC32 of every header byte before it)
//! strings  six sealed frames (`len u64 | crc32 u32 | table`, see
//!          `esharp_storage::atomic::read_frame`): meta, users,
//!          user_domains, tweets, tweet_mentions, symbols
//! pad      0–3 zero bytes, so the u32 body starts 4-aligned
//! body     1 + K sections of raw little-endian u32s, back to back: the
//!          token CSR (rows = tweets) and then one postings CSR per shard
//!          (rows = the shard's token range, offsets shard-local). A
//!          section is its row_end - row_start + 1 offsets followed by its
//!          arena_len ids; its table entry's crc covers exactly those bytes.
//! ```
//!
//! Every byte is covered by a checksum (the header's, a string frame's or
//! a body section's) or must be zero (the pad), and the header fixes the
//! file length, so truncation, a flipped bit anywhere, or trailing bytes
//! fail at open with `InvalidData` — never at query time and never with a
//! panic.
//! Structural checks then cover what a well-formed checksum cannot vouch
//! for: CSR offsets, id ranges and posting-list sortedness.
//!
//! One reader decodes the file. [`Corpus::load`] reads the string
//! section, decodes it into `String`s and frees it, then reads the body
//! into one byte buffer; [`decode`] takes both from a slice already in
//! memory. Either way `assemble` checks each body section's checksum and
//! decodes its little-endian run straight into the owned `Vec<u32>`
//! arenas the corpus keeps.

use crate::columns::TweetColumns;
use crate::corpus::Corpus;
use crate::index::{check_csr, PostingsIndex, PostingsShard};
use crate::intern::SymbolTable;
use crate::types::{Tweet, TweetId, User, UserId};
use esharp_relation::binfmt::{decode_frames_exact, encode_frames_into};
use esharp_relation::{Column, DataType, Schema, Table};
use esharp_storage::atomic::{atomic_write, crc32};
use std::borrow::Cow;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

/// Leading bytes of a corpus file.
const MAGIC: &[u8; 4] = b"ESCF";
/// File format revision. 1 was the eight-frame `corpus.bin` and the
/// `corpus.manifest` directory layout, 2 had a string-section CRC in the
/// header; none is readable any more.
const VERSION: u16 = 3;
/// Header bytes before the section table.
const FIXED: usize = 32;
/// Bytes per section-table entry.
const ENTRY: usize = 16;
/// Frames in the string section.
const GLOBAL_FRAMES: usize = 6;

/// The load mode [`load_sharded`] takes. Both variants run the same
/// loader, [`Corpus::load`], and give the same owned arenas: borrowing
/// the arenas out of the file buffer loaded no faster than copying them
/// (the buffer was a heap read of the whole file either way), so that
/// mode was removed. The names stay because the repo benchmark calls
/// `load_sharded` with both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Owned arenas.
    Copy,
    /// The same loader as [`LoadMode::Copy`].
    ZeroCopy,
}

fn bad(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corpus file: {msg}"))
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(raw)
}

fn to_usize(v: u64) -> io::Result<usize> {
    usize::try_from(v).map_err(|_| bad("larger than the address space"))
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

impl Corpus {
    /// Write the corpus file at `path` with its postings re-cut to
    /// `shards` contiguous token ranges balanced by postings bytes. One
    /// atomic write: a crash leaves the previous file or the new one.
    /// Uncompacted delta state is refused.
    pub fn save_sharded(&self, path: impl AsRef<Path>, shards: usize) -> io::Result<()> {
        atomic_write(path, &encode(self, shards)?)
    }

    /// [`Corpus::save_sharded`] with one shard.
    pub fn save_binary(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_sharded(path, 1)
    }

    /// Open the corpus file at `path`. The string section is read,
    /// decoded and freed before the body is read.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Corpus> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let head = read_header(&mut file, len)?;
        let global = decode_strings(&read_vec(&mut file, head.body_at - head.head_len)?, &head)?;
        let body = read_vec(&mut file, head.body_len)?;
        assemble(&head, global, &body)
    }
}

/// The bytes of the corpus file [`Corpus::save_sharded`] writes. The
/// encoding depends only on the logical corpus and `shards`, never on
/// how the corpus was loaded.
pub fn encode(corpus: &Corpus, shards: usize) -> io::Result<Vec<u8>> {
    if corpus.has_delta() {
        return Err(io::Error::other(
            "corpus has uncompacted delta state (appends or tombstones); \
             call Corpus::compact() before persisting",
        ));
    }
    // `resharded` always copies; skip it when the layout already matches.
    let current = corpus.postings_index();
    let index = if current.shard_count() == shards.clamp(1, current.num_tokens().max(1)) {
        Cow::Borrowed(current)
    } else {
        Cow::Owned(current.resharded(shards))
    };
    let (token_offsets, token_ids) = corpus.token_arena_parts();
    let mut sections = vec![(0, corpus.tweets().len() as u32, token_offsets, token_ids)];
    for shard in index.shards() {
        let (offsets, arena) = shard.parts();
        sections.push((shard.token_start(), shard.token_end(), offsets, arena));
    }

    let head_len = FIXED + ENTRY * sections.len() + 4;
    let mut out = Vec::with_capacity(head_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    for count in [
        corpus.users().len(),
        corpus.tweets().len(),
        corpus.num_tokens(),
        sections.len() - 1,
    ] {
        out.extend_from_slice(&(count as u32).to_le_bytes());
    }
    out.resize(head_len, 0); // patched below: strings_len and every crc
    encode_global(corpus, &mut out)?;
    let strings_len = (out.len() - head_len) as u64;
    out[24..32].copy_from_slice(&strings_len.to_le_bytes());
    out.resize(out.len().next_multiple_of(4), 0);
    let body_len: usize = sections.iter().map(|s| (s.2.len() + s.3.len()) * 4).sum();
    out.reserve_exact(body_len);

    for (i, &(row_start, row_end, offsets, arena)) in sections.iter().enumerate() {
        let at = out.len();
        put_u32s(&mut out, offsets);
        put_u32s(&mut out, arena);
        let crc = crc32(&out[at..]);
        let entry = FIXED + i * ENTRY;
        for (j, v) in [row_start, row_end, arena.len() as u32, crc].into_iter().enumerate() {
            out[entry + 4 * j..entry + 4 * j + 4].copy_from_slice(&v.to_le_bytes());
        }
    }
    let crc_at = head_len - 4;
    let header_crc = crc32(&out[..crc_at]);
    out[crc_at..head_len].copy_from_slice(&header_crc.to_le_bytes());
    Ok(out)
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    let at = out.len();
    out.resize(at + values.len() * 4, 0);
    for (dst, v) in out[at..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append the string section: the six frames that hold everything but
/// the u32 arenas (users, tweet texts and mentions, symbol texts,
/// per-user totals).
fn encode_global(corpus: &Corpus, out: &mut Vec<u8>) -> io::Result<()> {
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
                VERSION as i64,
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
    let mut mentions: Vec<i64> = Vec::new();
    let mut mentions_end = Vec::with_capacity(tweets.len());
    for t in tweets {
        mentions.extend(t.mentions.iter().map(|&m| m as i64));
        mentions_end.push(mentions.len() as i64);
    }
    let tweets_table = Table::new(
        Schema::of(&[
            ("author", DataType::Int),
            ("text", DataType::Str),
            ("retweet_of", DataType::Int),
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
            Column::Int(mentions_end),
        ],
    )
    .map_err(rel)?;
    let tweet_mentions = Table::new(
        Schema::of(&[("user", DataType::Int)]),
        vec![Column::Int(mentions)],
    )
    .map_err(rel)?;
    let symbols = Table::new(
        Schema::of(&[("token", DataType::Str)]),
        vec![Column::Str(
            (0..corpus.num_tokens())
                .map(|t| corpus.token_text(t as u32).into())
                .collect(),
        )],
    )
    .map_err(rel)?;

    encode_frames_into(
        out,
        &[
            meta,
            users_table,
            user_domains,
            tweets_table,
            tweet_mentions,
            symbols,
        ],
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------

/// [`Corpus::load`]; `mode` changes nothing (see [`LoadMode`]).
pub fn load_sharded(path: impl AsRef<Path>, _mode: LoadMode) -> io::Result<Corpus> {
    Corpus::load(path)
}

/// Decode corpus-file bytes already in memory: [`Corpus::load`]'s steps
/// over a slice.
pub fn decode(bytes: &[u8]) -> io::Result<Corpus> {
    let head = read_header(&mut &bytes[..], bytes.len() as u64)?;
    let global = decode_strings(&bytes[head.head_len..head.body_at], &head)?;
    assemble(&head, global, &bytes[head.body_at..])
}

/// Read exactly `len` bytes into a fresh vector. A length the allocator
/// cannot hold is an error, not an abort.
fn read_vec(src: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(len).map_err(|e| {
        io::Error::new(
            io::ErrorKind::OutOfMemory,
            format!("corpus file: {len} bytes: {e}"),
        )
    })?;
    src.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(buf)
}

/// One body section, as its table entry describes it.
struct Section {
    row_start: u32,
    row_end: u32,
    arena_len: u32,
    crc: u32,
}

impl Section {
    /// Offsets (one per row, plus one) and arena, in u32s.
    fn words(&self) -> u64 {
        u64::from(self.row_end - self.row_start) + 1 + u64::from(self.arena_len)
    }
}

struct Header {
    head_len: usize,
    num_users: u32,
    num_tweets: u32,
    num_tokens: u32,
    strings_len: usize,
    /// The token section, then one section per postings shard.
    sections: Vec<Section>,
    body_at: usize,
    body_len: usize,
}

/// Read and check the header of a `len`-byte corpus file: magic and
/// version, checksum, that the sections tile their row spaces, and that
/// the layout it describes is exactly `len` bytes long.
fn read_header(src: &mut impl Read, len: u64) -> io::Result<Header> {
    if len < (FIXED + 2 * ENTRY + 4) as u64 {
        if len >= 4 {
            let mut magic = [0u8; 4];
            src.read_exact(&mut magic)?;
            if &magic != MAGIC {
                return Err(stale());
            }
        }
        return Err(bad("truncated header"));
    }
    let mut head = vec![0u8; FIXED];
    src.read_exact(&mut head)?;
    if &head[0..4] != MAGIC || read_u16(&head, 4) != VERSION {
        return Err(stale());
    }
    let shards = u64::from(read_u32(&head, 20));
    let head_len = FIXED as u64 + (shards + 1) * ENTRY as u64 + 4;
    if shards == 0 || head_len > len {
        return Err(bad("truncated header or shard count out of range"));
    }
    head.resize(to_usize(head_len)?, 0);
    src.read_exact(&mut head[FIXED..])?;
    let crc_at = head.len() - 4;
    if read_u32(&head, crc_at) != crc32(&head[..crc_at]) {
        return Err(bad("header checksum mismatch"));
    }
    if read_u16(&head, 6) != 0 {
        return Err(bad("reserved header field set"));
    }

    let num_tweets = read_u32(&head, 12);
    let num_tokens = read_u32(&head, 16);
    let sections: Vec<Section> = (0..=shards as usize)
        .map(|i| {
            let at = FIXED + i * ENTRY;
            Section {
                row_start: read_u32(&head, at),
                row_end: read_u32(&head, at + 4),
                arena_len: read_u32(&head, at + 8),
                crc: read_u32(&head, at + 12),
            }
        })
        .collect();
    if sections[0].row_start != 0 || sections[0].row_end != num_tweets {
        return Err(bad("token section does not cover the tweets"));
    }
    let mut next = 0;
    for s in &sections[1..] {
        if s.row_start != next || s.row_end < s.row_start {
            return Err(bad("postings shards do not tile the token space"));
        }
        next = s.row_end;
    }
    if next != num_tokens {
        return Err(bad("postings shards do not cover the token space"));
    }

    let strings_len = read_u64(&head, 24);
    let body_at = (head_len + strings_len.min(len)).next_multiple_of(4);
    let body_len = sections
        .iter()
        .map(|s| s.words() * 4)
        .fold(0, u64::saturating_add);
    let described = body_at.saturating_add(body_len);
    if strings_len > len || described != len {
        return Err(bad(format!(
            "file is {len} bytes but its header describes {described}"
        )));
    }
    Ok(Header {
        head_len: head.len(),
        num_users: read_u32(&head, 8),
        num_tweets,
        num_tokens,
        strings_len: to_usize(strings_len)?,
        sections,
        body_at: to_usize(body_at)?,
        body_len: to_usize(body_len)?,
    })
}

/// The error for a file of another format or revision.
fn stale() -> io::Error {
    bad("not a corpus file of this version (an older corpus.bin or a \
         corpus.manifest); rebuild it with `esharp build`")
}

/// Check and decode the string section (`strings` runs through the pad,
/// which must be zero).
fn decode_strings(strings: &[u8], head: &Header) -> io::Result<Global> {
    let (frames, pad) = strings
        .split_at_checked(head.strings_len)
        .ok_or_else(|| bad("string section shorter than its length"))?;
    if pad.iter().any(|&b| b != 0) {
        return Err(bad("nonzero pad after the string section"));
    }
    decode_global(frames, head)
}

/// Check each body section against its checksum, decode its
/// little-endian runs into owned arenas, and assemble the corpus.
fn assemble(head: &Header, global: Global, body: &[u8]) -> io::Result<Corpus> {
    // The sections lie back to back from the start of the body.
    let mut rest = body;
    let mut next_section = |s: &Section| -> io::Result<(Vec<u32>, Vec<u32>)> {
        let (bytes, tail) = rest
            .split_at_checked(to_usize(s.words() * 4)?)
            .ok_or_else(|| bad("body shorter than its sections"))?;
        rest = tail;
        if crc32(bytes) != s.crc {
            return Err(bad("body section checksum mismatch"));
        }
        let (offsets, ids) = bytes.split_at((s.row_end - s.row_start) as usize * 4 + 4);
        Ok((le_u32s(offsets), le_u32s(ids)))
    };
    let (token_offsets, token_ids) = next_section(&head.sections[0])?;
    check_csr(&token_offsets, token_ids.len()).map_err(|e| bad(format!("tweet tokens: {e}")))?;
    if token_ids.iter().any(|&t| t >= head.num_tokens) {
        return Err(bad("tweet token id out of range"));
    }

    let mut shards = Vec::with_capacity(head.sections.len() - 1);
    for s in &head.sections[1..] {
        let (offsets, ids) = next_section(s)?;
        let shard = PostingsShard::new(s.row_start, s.row_end, offsets, ids).map_err(bad)?;
        let (offsets, ids) = shard.parts();
        if offsets
            .windows(2)
            .any(|w| ids[w[0] as usize..w[1] as usize].windows(2).any(|p| p[0] >= p[1]))
        {
            return Err(bad("posting list not strictly sorted"));
        }
        if ids.iter().any(|&t| t >= head.num_tweets) {
            return Err(bad("posting tweet id out of range"));
        }
        shards.push(shard);
    }
    let postings = PostingsIndex::from_shards(shards).map_err(bad)?;

    // The persisted per-user totals stay authoritative over the counted ones.
    let columns = TweetColumns::from_tweets(global.users.len(), &global.tweets).with_totals(
        &global.tweets_by_user,
        &global.mentions_of_user,
        &global.retweets_of_user,
    );
    Ok(Corpus::from_parts(
        global.users,
        global.tweets,
        global.symbols,
        token_offsets,
        token_ids,
        postings,
        columns,
    ))
}

fn le_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

struct Global {
    users: Vec<User>,
    tweets: Vec<Tweet>,
    symbols: SymbolTable,
    tweets_by_user: Vec<u64>,
    mentions_of_user: Vec<u64>,
    retweets_of_user: Vec<u64>,
}

fn decode_global(data: &[u8], head: &Header) -> io::Result<Global> {
    let frames = decode_frames_exact(data, GLOBAL_FRAMES).map_err(bad)?;
    let [meta, users_t, user_domains, tweets_t, tweet_mentions, symbols_t]: [Table;
        GLOBAL_FRAMES] = frames
        .try_into()
        .map_err(|_| bad("wrong frame count"))?;

    let keys = col_str(&meta, "key")?;
    let values = col_int(&meta, "value")?;
    let meta_value = |key: &str| -> io::Result<i64> {
        keys.iter()
            .position(|k| &**k == key)
            .map(|i| values[i])
            .ok_or_else(|| bad(format!("meta key {key} missing")))
    };
    if meta_value("format")? != VERSION as i64
        || meta_value("num_users")? != i64::from(head.num_users)
        || meta_value("num_tweets")? != i64::from(head.num_tweets)
        || meta_value("num_tokens")? != i64::from(head.num_tokens)
    {
        return Err(bad("string section disagrees with the header"));
    }
    let num_users = head.num_users as usize;
    let num_tweets = head.num_tweets as usize;

    if users_t.num_rows() != num_users {
        return Err(bad("users frame row count disagrees with the header"));
    }
    let handles = col_str(&users_t, "handle")?;
    let display_names = col_str(&users_t, "display_name")?;
    let descriptions = col_str(&users_t, "description")?;
    let followers = col_int(&users_t, "followers")?;
    let verified = col_bool(&users_t, "verified")?;
    let spam = col_bool(&users_t, "spam")?;
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
    let totals = |name: &str| -> io::Result<Vec<u64>> {
        col_int(&users_t, name)?
            .iter()
            .map(|&v| checked_total(v, name))
            .collect()
    };
    let tweets_by_user = totals("tweets_by")?;
    let mentions_of_user = totals("mentions_of")?;
    let retweets_of_user = totals("retweets_of")?;

    if tweets_t.num_rows() != num_tweets {
        return Err(bad("tweets frame row count disagrees with the header"));
    }
    let authors = col_int(&tweets_t, "author")?;
    let texts = col_str(&tweets_t, "text")?;
    let retweet_ofs = col_int(&tweets_t, "retweet_of")?;
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
            .map(|&u| checked_id(u, num_users, "mention user id"))
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

    if symbols_t.num_rows() != head.num_tokens as usize {
        return Err(bad("symbols frame row count disagrees with the header"));
    }
    let texts: Vec<Box<str>> = col_str(&symbols_t, "token")?
        .iter()
        .map(|s| Box::from(&**s))
        .collect();
    let symbols = SymbolTable::from_texts(texts).map_err(bad)?;

    Ok(Global {
        users,
        tweets,
        symbols,
        tweets_by_user,
        mentions_of_user,
        retweets_of_user,
    })
}

fn col_int<'t>(table: &'t Table, name: &str) -> io::Result<&'t [i64]> {
    table
        .column_by_name(name)
        .ok()
        .and_then(Column::as_int)
        .ok_or_else(|| bad(format!("int column {name} missing")))
}

fn col_str<'t>(table: &'t Table, name: &str) -> io::Result<&'t [Arc<str>]> {
    table
        .column_by_name(name)
        .ok()
        .and_then(Column::as_str)
        .ok_or_else(|| bad(format!("str column {name} missing")))
}

fn col_bool<'t>(table: &'t Table, name: &str) -> io::Result<&'t [bool]> {
    match table.column_by_name(name) {
        Ok(Column::Bool(v)) => Ok(v),
        _ => Err(bad(format!("bool column {name} missing"))),
    }
}

/// Turn per-row end offsets into a `[0, end0, end1, …]` CSR offsets vec,
/// rejecting non-monotone sequences and a final end that misses the
/// arena length.
fn ends_to_offsets(ends: &[i64], arena_len: usize, what: &str) -> io::Result<Vec<u32>> {
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
        return Err(bad(format!("{what} arena has entries no row claims")));
    }
    Ok(offsets)
}

fn checked_id(value: i64, bound: usize, what: &str) -> io::Result<u32> {
    if value < 0 || value >= bound as i64 || value > u32::MAX as i64 {
        return Err(bad(format!("{what} {value} out of range")));
    }
    Ok(value as u32)
}

fn checked_total(value: i64, what: &str) -> io::Result<u64> {
    u64::try_from(value).map_err(|_| bad(format!("negative {what}")))
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

    fn dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sharded_round_trip_both_modes() {
        let c = sample();
        for k in [1usize, 2, 4] {
            let d = dir(&format!("esharp_segio_round_trip_{k}"));
            let path = d.join("corpus.bin");
            c.save_sharded(&path, k).unwrap();
            let back = load_sharded(&path, LoadMode::Copy).unwrap();
            let zero_copy = load_sharded(&path, LoadMode::ZeroCopy).unwrap();
            assert_eq!(encode(&back, k).unwrap(), encode(&zero_copy, k).unwrap());
            assert_eq!(back.shard_count(), k);
            assert_eq!(back.users().len(), c.users().len());
            assert_eq!(back.tweets().len(), c.tweets().len());
            assert_eq!(back.num_tokens(), c.num_tokens());
            for t in 0..c.num_tokens() as u32 {
                assert_eq!(back.postings(t), c.postings(t));
                assert_eq!(back.token_text(t), c.token_text(t));
            }
            for id in 0..c.tweets().len() as u32 {
                assert_eq!(back.tweet_tokens(id), c.tweet_tokens(id));
            }
            assert_eq!(
                back.match_query("49ers draft"),
                c.match_query("49ers draft")
            );
            // Re-encoding at one shard count is byte-identical whatever
            // shard count the corpus came from.
            assert_eq!(encode(&back, 1).unwrap(), encode(&c, 1).unwrap());
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn corpus_load_opens_any_shard_count() {
        let c = sample();
        let d = dir("esharp_segio_load");
        let path = d.join("corpus.bin");
        c.save_sharded(&path, 2).unwrap();
        let back = Corpus::load(&path).unwrap();
        assert_eq!(back.shard_count(), 2);
        assert_eq!(back.match_query("niners"), c.match_query("niners"));
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn missing_segment_fails_at_open() {
        // A file cut after its token section lacks every postings section.
        let c = sample();
        let bytes = encode(&c, 3).unwrap();
        let postings_words: u64 = read_header(&mut &bytes[..], bytes.len() as u64)
            .unwrap()
            .sections[1..]
            .iter()
            .map(Section::words)
            .sum();
        let cut = bytes.len() - postings_words as usize * 4;
        let err = decode(&bytes[..cut]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn appends_after_a_load_are_searchable() {
        let c = sample();
        let d = dir("esharp_segio_append");
        let path = d.join("corpus.bin");
        c.save_sharded(&path, 2).unwrap();
        let mut back = Corpus::load(&path).unwrap();
        let steal = "the niners draft steal";
        let id = back.append_tweet("alice", steal).unwrap();
        assert_eq!(back.match_query("steal"), vec![id]);
        assert_eq!(
            back.match_query("draft"),
            back.ids_of_texts(&[
                "the 49ers draft was exciting",
                "RT @alice: the 49ers draft was exciting",
                steal
            ])
        );
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn lengths_no_allocation_can_hold_are_rejected() {
        for len in [isize::MAX as usize, usize::MAX] {
            let err = read_vec(&mut io::empty(), len).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::OutOfMemory, "{len}");
        }
        let err = read_vec(&mut &[1u8, 2][..], 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(read_vec(&mut &[1u8, 2, 3][..], 2).unwrap(), [1, 2]);
    }
}
