//! The corpus file (`corpus.bin`): the whole compacted corpus in one
//! checksummed file, written once and atomically.
//!
//! ```text
//! header   magic "ESCF" | version u16 | reserved u16 (0)
//!          num_users u32 | num_tweets u32 | num_tokens u32 | shards K u32
//!          strings_len u64
//!          section table, 5 + K entries:
//!            row_start u32 | row_end u32 | arena_len u32 | crc u32
//!          header_crc u32              (CRC32 of every header byte before it)
//! strings  four sealed frames (`len u64 | crc32 u32 | table`, see
//!          `esharp_storage::atomic::read_frame`): meta, users,
//!          user_domains, symbols
//! pad      0–3 zero bytes, so the body starts 4-aligned
//! body     5 + K sections of raw little-endian words, back to back; each
//!          table entry's crc covers exactly its section's bytes:
//!          text        num_tweets + 1 u32 byte offsets, then the arena_len
//!                      bytes of every tweet text (UTF-8), zero-padded to 4
//!          author      num_tweets u32 user ids
//!          retweet_of  num_tweets u32 user ids, `NO_RETWEET` for a tweet
//!                      that is not a retweet
//!          mentions    num_tweets + 1 offsets, then arena_len user ids
//!          tokens      num_tweets + 1 offsets, then arena_len token ids
//!          postings    one per shard: row_end - row_start + 1 offsets
//!                      (rows = the shard's token range, offsets
//!                      shard-local, counting words), then arena_len
//!                      words: each token's posting list as runs of
//!                      adjacent tweet ids, `start u32 | len u32` each
//! ```
//!
//! The four tweet sections and the token section have rows `0 ..
//! num_tweets`; author and retweet_of have no arena (arena_len 0).
//!
//! Every byte is covered by a checksum (the header's, a string frame's or
//! a body section's) or must be zero (the pads), and the header fixes the
//! file length, so truncation, a flipped bit anywhere, or trailing bytes
//! fail at open with `InvalidData` — never at query time and never with a
//! panic.
//! Structural checks then cover what a well-formed checksum cannot vouch
//! for: CSR offsets, text offsets on character boundaries of a UTF-8
//! arena, id ranges, and that every posting list is a canonical run
//! list (whole runs, none empty, ascending, never overlapping or
//! touching).
//!
//! One reader decodes the file. [`Corpus::load`] reads the string
//! section, decodes it into `String`s and frees it, then reads the body
//! one section at a time; [`decode`] takes both from a slice already in
//! memory. Either way `assemble` checks each body section's checksum and
//! decodes its little-endian run straight into the owned `Vec<u32>`
//! arenas the corpus keeps: the author, retweet and mention sections
//! become the rank-side [`TweetColumns`] as they are (the persisted
//! per-user totals beside them), and each `Tweet` is built from those
//! columns and its slice of the text arena, so the two cannot disagree.

use crate::columns::{TweetColumns, UserTotals, NO_RETWEET};
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
/// header, 3 kept the tweet table in binfmt frames, 4 held each posting
/// list as plain tweet ids; none is readable any more.
const VERSION: u16 = 5;
/// Header bytes before the section table.
const FIXED: usize = 32;
/// Bytes per section-table entry.
const ENTRY: usize = 16;
/// Frames in the string section.
const GLOBAL_FRAMES: usize = 4;
/// Body sections before the postings shards: text, author, retweet_of,
/// mentions and tokens, in file order.
const TWEET_SECTIONS: [Shape; 5] = [
    Shape::Text,
    Shape::Column,
    Shape::Column,
    Shape::Csr,
    Shape::Csr,
];

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

/// How a body section lays out its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Row offsets into a byte arena, zero-padded to 4 bytes.
    Text,
    /// One word per row, no arena.
    Column,
    /// Row offsets into an arena of words.
    Csr,
}

/// One body section, as its table entry describes it.
struct Section {
    shape: Shape,
    row_start: u32,
    row_end: u32,
    arena_len: u32,
    crc: u32,
}

impl Section {
    fn rows(&self) -> u64 {
        u64::from(self.row_end.saturating_sub(self.row_start))
    }

    /// Bytes of the section in the body (always a multiple of 4).
    fn len(&self) -> u64 {
        let (rows, arena) = (self.rows(), u64::from(self.arena_len));
        match self.shape {
            Shape::Text => (rows + 1) * 4 + arena.next_multiple_of(4),
            Shape::Column => rows * 4,
            Shape::Csr => (rows + 1 + arena) * 4,
        }
    }
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
    /// decoded and freed before the body is read, and the body is read
    /// one section at a time.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Corpus> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let head = read_header(&mut file, len)?;
        let global = decode_strings(&read_vec(&mut file, head.body_at - head.head_len)?, &head)?;
        assemble(&head, global, |len| read_vec(&mut file, len).map(Cow::Owned))
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
    let tweets = corpus.tweets();
    let columns = corpus.columns();
    let (token_offsets, token_ids) = corpus.token_arena_parts();
    let text_len: usize = tweets.iter().map(|t| t.text.len()).sum();
    let text_len = u32::try_from(text_len)
        .map_err(|_| io::Error::other("tweet texts exceed the 4 GiB a corpus file holds"))?;
    let num_tweets = tweets.len() as u32;
    let arenas = [text_len, 0, 0, columns.mention_ids().len() as u32, token_ids.len() as u32];
    let mut sections: Vec<Section> = TWEET_SECTIONS
        .iter()
        .zip(arenas)
        .map(|(&shape, arena_len)| Section {
            shape,
            row_start: 0,
            row_end: num_tweets,
            arena_len,
            crc: 0,
        })
        .collect();
    for shard in index.shards() {
        sections.push(Section {
            shape: Shape::Csr,
            row_start: shard.token_start(),
            row_end: shard.token_end(),
            arena_len: shard.parts().1.len() as u32,
            crc: 0,
        });
    }

    let head_len = FIXED + ENTRY * sections.len() + 4;
    let mut out = Vec::with_capacity(head_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    for count in [
        corpus.users().len(),
        tweets.len(),
        corpus.num_tokens(),
        sections.len() - TWEET_SECTIONS.len(),
    ] {
        out.extend_from_slice(&(count as u32).to_le_bytes());
    }
    out.resize(head_len, 0); // patched below: strings_len and every entry
    encode_global(corpus, &mut out)?;
    let strings_len = (out.len() - head_len) as u64;
    out[24..32].copy_from_slice(&strings_len.to_le_bytes());
    out.resize(out.len().next_multiple_of(4), 0);
    let body_len: u64 = sections.iter().map(Section::len).sum();
    out.reserve_exact(to_usize(body_len)?);

    // Each section's start in `out`, then the end of the last.
    let mut starts = vec![out.len()];
    put_text(&mut out, tweets);
    starts.push(out.len());
    for words in [columns.author(), columns.retweet_of()] {
        put_u32s(&mut out, words);
        starts.push(out.len());
    }
    let csrs = [
        (columns.mention_offsets(), columns.mention_ids()),
        (token_offsets, token_ids),
    ];
    let shards = index.shards().iter().map(PostingsShard::parts);
    for (offsets, arena) in csrs.into_iter().chain(shards) {
        put_u32s(&mut out, offsets);
        put_u32s(&mut out, arena);
        starts.push(out.len());
    }
    for (i, s) in sections.iter_mut().enumerate() {
        s.crc = crc32(&out[starts[i]..starts[i + 1]]);
        let entry = FIXED + i * ENTRY;
        for (j, v) in [s.row_start, s.row_end, s.arena_len, s.crc].into_iter().enumerate() {
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

/// Append the text section: the running byte offsets, every text, and
/// the zero pad to a 4-byte boundary. The caller has checked that the
/// texts fit u32 offsets.
fn put_text(out: &mut Vec<u8>, tweets: &[Tweet]) {
    let at = out.len();
    out.resize(at + (tweets.len() + 1) * 4, 0);
    let mut end = 0;
    for (dst, t) in out[at + 4..].chunks_exact_mut(4).zip(tweets) {
        end += t.text.len() as u32;
        dst.copy_from_slice(&end.to_le_bytes());
    }
    for t in tweets {
        out.extend_from_slice(t.text.as_bytes());
    }
    out.resize(out.len().next_multiple_of(4), 0);
}

/// Append the string section: the four frames that hold everything but
/// the body's words (users, symbol texts, per-user totals).
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
    let symbols = Table::new(
        Schema::of(&[("token", DataType::Str)]),
        vec![Column::Str(
            (0..corpus.num_tokens())
                .map(|t| corpus.token_text(t as u32).into())
                .collect(),
        )],
    )
    .map_err(rel)?;

    encode_frames_into(out, &[meta, users_table, user_domains, symbols]);
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
    let mut rest = &bytes[head.body_at..];
    assemble(&head, global, |len| {
        let (section, tail) = rest
            .split_at_checked(len)
            .ok_or_else(|| bad("body shorter than its sections"))?;
        rest = tail;
        Ok(Cow::Borrowed(section))
    })
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

struct Header {
    head_len: usize,
    num_users: u32,
    num_tweets: u32,
    num_tokens: u32,
    strings_len: usize,
    /// The tweet and token sections, then one section per postings shard.
    sections: Vec<Section>,
    body_at: usize,
}

/// Read and check the header of a `len`-byte corpus file: magic and
/// version, checksum, that the sections tile their row spaces, and that
/// the layout it describes is exactly `len` bytes long.
fn read_header(src: &mut impl Read, len: u64) -> io::Result<Header> {
    let fixed_sections = TWEET_SECTIONS.len();
    if len < (FIXED + (fixed_sections + 1) * ENTRY + 4) as u64 {
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
    let head_len = FIXED as u64 + (shards + fixed_sections as u64) * ENTRY as u64 + 4;
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
    let sections: Vec<Section> = (0..fixed_sections + shards as usize)
        .map(|i| {
            let at = FIXED + i * ENTRY;
            Section {
                shape: TWEET_SECTIONS.get(i).copied().unwrap_or(Shape::Csr),
                row_start: read_u32(&head, at),
                row_end: read_u32(&head, at + 4),
                arena_len: read_u32(&head, at + 8),
                crc: read_u32(&head, at + 12),
            }
        })
        .collect();
    let (tweet_sections, postings) = sections.split_at(fixed_sections);
    if tweet_sections
        .iter()
        .any(|s| s.row_start != 0 || s.row_end != num_tweets)
    {
        return Err(bad("a tweet section does not cover the tweets"));
    }
    if tweet_sections
        .iter()
        .any(|s| s.shape == Shape::Column && s.arena_len != 0)
    {
        return Err(bad("a column section claims an arena"));
    }
    let mut next = 0;
    for s in postings {
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
        .map(Section::len)
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

/// Take each body section in file order from `next` (which hands over
/// the next `len` bytes), check it against its checksum and its
/// structure, decode its little-endian runs into owned arenas, and
/// assemble the corpus.
fn assemble<'a>(
    head: &Header,
    global: Global,
    mut next: impl FnMut(usize) -> io::Result<Cow<'a, [u8]>>,
) -> io::Result<Corpus> {
    let mut sections = head.sections.iter();
    let mut next_section = || -> io::Result<(&Section, Cow<'a, [u8]>)> {
        let s = sections.next().ok_or_else(|| bad("missing body section"))?;
        let bytes = next(to_usize(s.len())?)?;
        if crc32(&bytes) != s.crc {
            return Err(bad("body section checksum mismatch"));
        }
        Ok((s, bytes))
    };
    let (text_section, text_bytes) = next_section()?;
    let (text_offsets, text) = text_arena(text_section, &text_bytes)?;
    let author = le_u32s(&next_section()?.1);
    let retweet_of = le_u32s(&next_section()?.1);
    let (mention_offsets, mention_ids) = csr(next_section()?, "tweet mentions")?;
    let num_users = head.num_users;
    if author.iter().chain(&mention_ids).any(|&u| u >= num_users) {
        return Err(bad("tweet author or mentioned user id out of range"));
    }
    if retweet_of.iter().any(|&u| u >= num_users && u != NO_RETWEET) {
        return Err(bad("retweet_of user id out of range"));
    }

    let mut tweets = Vec::with_capacity(author.len());
    for (i, ends) in text_offsets.windows(2).enumerate() {
        let text = text
            .get(ends[0] as usize..ends[1] as usize)
            .ok_or_else(|| bad("tweet text offset not on a character boundary"))?;
        let mentions = &mention_ids[mention_offsets[i] as usize..mention_offsets[i + 1] as usize];
        tweets.push(Tweet {
            id: i as TweetId,
            author: author[i],
            text: text.to_owned(),
            mentions: mentions.to_vec(),
            retweet_of: Some(retweet_of[i]).filter(|&u| u != NO_RETWEET),
        });
    }
    drop(text_bytes);
    // The persisted per-user totals stay authoritative: nothing recounts
    // them from the columns.
    let columns =
        TweetColumns::from_parts(author, retweet_of, mention_offsets, mention_ids, global.totals);

    let (token_offsets, token_ids) = csr(next_section()?, "tweet tokens")?;
    if token_ids.iter().any(|&t| t >= head.num_tokens) {
        return Err(bad("tweet token id out of range"));
    }

    let mut shards = Vec::with_capacity(head.sections.len() - TWEET_SECTIONS.len());
    for _ in TWEET_SECTIONS.len()..head.sections.len() {
        let (s, bytes) = next_section()?;
        let (offsets, runs) = split_csr(s, &bytes)?;
        let shard = PostingsShard::new(s.row_start, s.row_end, le_u32s(offsets), le_u32s(runs))
            .map_err(bad)?;
        if shard.id_end() > u64::from(head.num_tweets) {
            return Err(bad("posting tweet id out of range"));
        }
        shards.push(shard);
    }
    let postings = PostingsIndex::from_shards(shards).map_err(bad)?;

    Ok(Corpus::from_parts(
        global.users,
        tweets,
        global.symbols,
        token_offsets,
        token_ids,
        postings,
        columns,
    ))
}

/// A CSR section's offsets and arena, as byte runs.
fn split_csr<'b>(s: &Section, bytes: &'b [u8]) -> io::Result<(&'b [u8], &'b [u8])> {
    bytes
        .split_at_checked(to_usize(s.rows() * 4 + 4)?)
        .ok_or_else(|| bad("section shorter than its offsets"))
}

/// A checked CSR section over the tweets, decoded.
fn csr((s, bytes): (&Section, Cow<'_, [u8]>), what: &str) -> io::Result<(Vec<u32>, Vec<u32>)> {
    let (offsets, ids) = split_csr(s, &bytes)?;
    let (offsets, ids) = (le_u32s(offsets), le_u32s(ids));
    check_csr(&offsets, ids.len()).map_err(|e| bad(format!("{what}: {e}")))?;
    Ok((offsets, ids))
}

/// The text section's offsets and arena. The arena is checked as UTF-8
/// once, its pad must be zero, and the offsets must run monotonically
/// from 0 to its length; that each lies on a character boundary is
/// checked as the texts are sliced out.
fn text_arena<'b>(s: &Section, bytes: &'b [u8]) -> io::Result<(Vec<u32>, &'b str)> {
    let (offsets, rest) = split_csr(s, bytes)?;
    let (arena, pad) = rest
        .split_at_checked(s.arena_len as usize)
        .ok_or_else(|| bad("text section shorter than its arena"))?;
    if pad.iter().any(|&b| b != 0) {
        return Err(bad("nonzero pad after the text arena"));
    }
    let text = std::str::from_utf8(arena).map_err(|_| bad("tweet text arena is not UTF-8"))?;
    let offsets = le_u32s(offsets);
    check_csr(&offsets, arena.len()).map_err(|e| bad(format!("tweet texts: {e}")))?;
    Ok((offsets, text))
}

fn le_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

struct Global {
    users: Vec<User>,
    symbols: SymbolTable,
    /// The persisted per-user totals, one row per user.
    totals: Vec<UserTotals>,
}

fn decode_global(data: &[u8], head: &Header) -> io::Result<Global> {
    let frames = decode_frames_exact(data, GLOBAL_FRAMES).map_err(bad)?;
    let [meta, users_t, user_domains, symbols_t]: [Table; GLOBAL_FRAMES] = frames
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
    let (tweets, mentions, retweets) = (
        col_int(&users_t, "tweets_by")?,
        col_int(&users_t, "mentions_of")?,
        col_int(&users_t, "retweets_of")?,
    );
    let totals = tweets
        .iter()
        .zip(mentions)
        .zip(retweets)
        .map(|((&tweets, &mentions), &retweets)| {
            Ok(UserTotals {
                tweets: checked_total(tweets, "tweets_by")?,
                mentions: checked_total(mentions, "mentions_of")?,
                retweets: checked_total(retweets, "retweets_of")?,
            })
        })
        .collect::<io::Result<Vec<UserTotals>>>()?;

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
        symbols,
        totals,
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
        let postings_bytes: u64 = read_header(&mut &bytes[..], bytes.len() as u64)
            .unwrap()
            .sections[TWEET_SECTIONS.len()..]
            .iter()
            .map(Section::len)
            .sum();
        let cut = bytes.len() - postings_bytes as usize;
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
