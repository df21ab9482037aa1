//! Sharded corpus persistence: a manifest, a global segment, and one
//! raw-`u32` segment per postings shard — with a zero-copy load mode.
//!
//! The monolithic `corpus.bin` (see [`crate::binio`]) decodes every
//! arena out of `i64` frame columns into fresh `Vec`s; at million-user
//! scale the load is decode-bound, not I/O-bound. The sharded layout
//! splits the corpus at exactly the decode boundary:
//!
//! * **`corpus.manifest`** — a tiny checksummed table of contents:
//!   corpus counts, the shard count, and per-segment (length, CRC,
//!   token range) entries. Written last, atomically, so a partially
//!   written directory is never openable.
//! * **`global.bin`** — the string-heavy, inherently-owned data (users,
//!   tweet texts, mentions, symbol texts, per-user totals) in the same
//!   checksummed frame container as `corpus.bin`. Strings must be
//!   re-materialized as `String`s anyway, so zero-copy buys nothing
//!   here.
//! * **`tokens.seg`** — the per-tweet token arena (offsets + ids) as
//!   raw little-endian `u32` runs at 4-aligned offsets.
//! * **`postings-<i>.seg`** — one segment per postings shard: the
//!   shard-local CSR offsets and the postings arena, same raw layout.
//!
//! Loading reads each `.seg` into one page-aligned [`AlignedBuf`],
//! validates its CRC **once**, checks every structural invariant
//! (offset monotonicity, id ranges, strict posting-list sortedness) by
//! reading the buffer in place, and then either borrows the arenas
//! straight out of the buffer ([`LoadMode::ZeroCopy`] — the arenas in
//! the resulting [`Corpus`] are `CorpusArena::Shared` views and N
//! workers holding corpus clones share the segment bytes) or copies
//! them into owned vectors ([`LoadMode::Copy`] — the honest baseline
//! the bench compares against). Corruption of any byte — manifest,
//! global frames, or any segment, including a missing segment file —
//! fails at open with `InvalidData`, never at query time.

use crate::arena::{AlignedBuf, CorpusArena};
use crate::binio::{
    checked_id, checked_len, col_bool, col_int, col_str, ends_to_offsets, totals,
};
use crate::corpus::Corpus;
use crate::index::{PostingsIndex, PostingsShard};
use crate::intern::SymbolTable;
use crate::types::{Tweet, TweetId, User, UserId};
use esharp_relation::atomic::{atomic_write, crc32};
use esharp_relation::binfmt::{decode_frames_exact, encode_frames};
use esharp_relation::{Column, DataType, Schema, Table};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Leading bytes of a shard manifest ([`Corpus::load`] sniffs these).
pub const MANIFEST_MAGIC: &[u8; 4] = b"ESMF";
/// Leading bytes of every raw segment file.
const SEGMENT_MAGIC: &[u8; 4] = b"ESSG";
/// Manifest / segment format revision.
const VERSION: u16 = 1;
/// Segment kind: the per-tweet token arena.
const KIND_TOKENS: u16 = 1;
/// Segment kind: one postings shard.
const KIND_POSTINGS: u16 = 2;
/// Frames in `global.bin`: meta, users, user_domains, tweets,
/// tweet_mentions, symbols.
const GLOBAL_FRAMES: usize = 6;
/// Fixed-size segment header: magic, version, kind, crc, row range,
/// offsets length, arena length.
const SEG_HEADER: usize = 32;
/// Fixed manifest prefix before the per-shard entries.
const MANIFEST_HEADER: usize = 48;
/// Bytes per manifest shard entry.
const SHARD_ENTRY: usize = 20;

/// How segment arenas enter memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Decode segments into owned vectors (the materializing baseline).
    Copy,
    /// Borrow arenas out of the page-aligned segment buffers; the
    /// corpus holds `Arc`s to the buffers and copies nothing.
    ZeroCopy,
}

fn bad(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("sharded corpus: {msg}"))
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

impl Corpus {
    /// Persist the corpus as a shard manifest plus segments in
    /// `manifest_path`'s directory: `global.bin`, `tokens.seg`, and one
    /// `postings-<i>.seg` per shard, re-cut to `shards` contiguous
    /// token ranges balanced by postings bytes. Every file is written
    /// atomically; the manifest goes last, so a crash mid-save leaves
    /// either the old manifest or none — never a manifest naming
    /// half-written segments. Like the monolithic format, uncompacted
    /// delta state is refused.
    pub fn save_sharded(
        &self,
        manifest_path: impl AsRef<Path>,
        shards: usize,
    ) -> io::Result<()> {
        save_sharded(self, manifest_path.as_ref(), shards)
    }
}

fn save_sharded(corpus: &Corpus, manifest_path: &Path, shards: usize) -> io::Result<()> {
    if corpus.has_delta() {
        return Err(io::Error::other(
            "corpus has uncompacted delta state (appends or tombstones); \
             call Corpus::compact() before persisting",
        ));
    }
    let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;

    let global = encode_global(corpus)?;
    atomic_write(dir.join("global.bin"), &global)?;

    let (token_offsets, token_ids) = corpus.token_arena_parts();
    let tokens_seg = encode_segment(
        KIND_TOKENS,
        0,
        corpus.tweets().len() as u32,
        token_offsets,
        token_ids,
    );
    let tokens_crc = segment_crc(&tokens_seg);
    atomic_write(dir.join("tokens.seg"), &tokens_seg)?;

    let sharded = corpus.postings_index().resharded(shards);
    let mut entries = Vec::with_capacity(sharded.shard_count());
    for (i, shard) in sharded.shards().iter().enumerate() {
        let (offsets, arena) = shard.parts();
        let seg = encode_segment(
            KIND_POSTINGS,
            shard.token_start(),
            shard.token_end(),
            offsets,
            arena,
        );
        entries.push(ShardEntry {
            token_start: shard.token_start(),
            token_end: shard.token_end(),
            file_len: seg.len() as u64,
            crc: segment_crc(&seg),
        });
        atomic_write(dir.join(format!("postings-{i}.seg")), &seg)?;
    }

    let manifest = encode_manifest(
        corpus.users().len() as u32,
        corpus.tweets().len() as u32,
        corpus.num_tokens() as u32,
        global.len() as u64,
        tokens_seg.len() as u64,
        tokens_crc,
        &entries,
    );
    atomic_write(manifest_path, &manifest)
}

/// The CRC a segment's header carries (bytes `[12..]` of the file) —
/// also recorded in the manifest to bind manifest ↔ segment identity
/// without hashing any byte twice at open.
fn segment_crc(seg: &[u8]) -> u32 {
    u32::from_le_bytes([seg[8], seg[9], seg[10], seg[11]])
}

fn encode_segment(kind: u16, row_start: u32, row_end: u32, offsets: &[u32], arena: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEG_HEADER + (offsets.len() + arena.len()) * 4);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(&row_start.to_le_bytes());
    out.extend_from_slice(&row_end.to_le_bytes());
    out.extend_from_slice(&(offsets.len() as u32).to_le_bytes());
    out.extend_from_slice(&(arena.len() as u64).to_le_bytes());
    for &v in offsets {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &v in arena {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out[12..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

struct ShardEntry {
    token_start: u32,
    token_end: u32,
    file_len: u64,
    crc: u32,
}

fn encode_manifest(
    num_users: u32,
    num_tweets: u32,
    num_tokens: u32,
    global_len: u64,
    tokens_len: u64,
    tokens_crc: u32,
    shards: &[ShardEntry],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(MANIFEST_HEADER + shards.len() * SHARD_ENTRY);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // pad
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(&num_users.to_le_bytes());
    out.extend_from_slice(&num_tweets.to_le_bytes());
    out.extend_from_slice(&num_tokens.to_le_bytes());
    out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    out.extend_from_slice(&global_len.to_le_bytes());
    out.extend_from_slice(&tokens_len.to_le_bytes());
    out.extend_from_slice(&tokens_crc.to_le_bytes());
    for s in shards {
        out.extend_from_slice(&s.token_start.to_le_bytes());
        out.extend_from_slice(&s.token_end.to_le_bytes());
        out.extend_from_slice(&s.file_len.to_le_bytes());
        out.extend_from_slice(&s.crc.to_le_bytes());
    }
    let crc = crc32(&out[12..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// `global.bin`: the six string-heavy frames. Compared to the
/// monolithic container this drops the `tweet_tokens` and `postings`
/// frames (they live in raw segments) and the per-tweet `tokens_end`
/// column (the tokens segment carries its own offsets).
fn encode_global(corpus: &Corpus) -> io::Result<Vec<u8>> {
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

    Ok(encode_frames(&[
        meta,
        users_table,
        user_domains,
        tweets_table,
        tweet_mentions,
        symbols,
    ]))
}

// ---------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------

/// Open a sharded corpus from its manifest file.
pub fn load_sharded(manifest_path: impl AsRef<Path>, mode: LoadMode) -> io::Result<Corpus> {
    let path = manifest_path.as_ref();
    let data = std::fs::read(path)?;
    load_sharded_manifest(path, &data, mode)
}

/// Open a sharded corpus whose manifest bytes are already in hand (the
/// [`Corpus::load`] sniff path).
pub fn load_sharded_manifest(
    manifest_path: &Path,
    manifest: &[u8],
    mode: LoadMode,
) -> io::Result<Corpus> {
    let m = decode_manifest(manifest)?;
    let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));

    // global.bin — frame container, self-checksummed per frame.
    let global = std::fs::read(dir.join("global.bin"))
        .map_err(|e| bad(format!("global.bin: {e}")))?;
    if global.len() as u64 != m.global_len {
        return Err(bad(format!(
            "global.bin is {} bytes, manifest says {}",
            global.len(),
            m.global_len
        )));
    }
    let g = decode_global(&global, &m)?;

    // tokens.seg — the per-tweet token arena.
    let tokens_seg = open_segment(
        &dir.join("tokens.seg"),
        KIND_TOKENS,
        m.tokens_len,
        m.tokens_crc,
    )?;
    if tokens_seg.row_start != 0 || tokens_seg.row_end != m.num_tweets {
        return Err(bad("tokens segment row range disagrees with manifest"));
    }
    let (token_offsets, token_ids) = tokens_seg.arenas(mode)?;
    validate_offsets(&token_offsets, m.num_tweets as usize, token_ids.len(), "tweet tokens")?;
    if token_ids.iter().any(|&t| t >= m.num_tokens) {
        return Err(bad("tweet token id out of range"));
    }

    // postings-<i>.seg — one per shard; must tile [0, num_tokens).
    let mut shards = Vec::with_capacity(m.shards.len());
    for (i, entry) in m.shards.iter().enumerate() {
        let seg = open_segment(
            &dir.join(format!("postings-{i}.seg")),
            KIND_POSTINGS,
            entry.file_len,
            entry.crc,
        )?;
        if seg.row_start != entry.token_start || seg.row_end != entry.token_end {
            return Err(bad(format!(
                "postings-{i}.seg token range disagrees with manifest"
            )));
        }
        let (offsets, arena) = seg.arenas(mode)?;
        let range = (entry.token_end - entry.token_start) as usize;
        validate_offsets(&offsets, range, arena.len(), "postings")?;
        let offs = offsets.as_slice();
        let list_arena = arena.as_slice();
        for w in offs.windows(2) {
            let list = &list_arena[w[0] as usize..w[1] as usize];
            if list.windows(2).any(|p| p[0] >= p[1]) {
                return Err(bad("posting list not strictly sorted"));
            }
        }
        if list_arena.iter().any(|&t| t >= m.num_tweets) {
            return Err(bad("posting tweet id out of range"));
        }
        shards.push(
            PostingsShard::new(entry.token_start, entry.token_end, offsets, arena)
                .map_err(bad)?,
        );
    }
    if m.shards.last().map_or(0, |s| s.token_end) != m.num_tokens
        || m.shards.first().map_or(0, |s| s.token_start) != 0
    {
        return Err(bad("postings shards do not cover the token space"));
    }
    let postings = PostingsIndex::from_shards(shards).map_err(bad)?;

    Ok(Corpus::from_parts(
        g.users,
        g.tweets,
        g.symbols,
        token_offsets,
        token_ids,
        postings,
        g.tweets_by_user,
        g.mentions_of_user,
        g.retweets_of_user,
    ))
}

struct Manifest {
    num_users: u32,
    num_tweets: u32,
    num_tokens: u32,
    global_len: u64,
    tokens_len: u64,
    tokens_crc: u32,
    shards: Vec<ShardEntry>,
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

fn decode_manifest(data: &[u8]) -> io::Result<Manifest> {
    if data.len() < MANIFEST_HEADER {
        return Err(bad("manifest truncated"));
    }
    if &data[0..4] != MANIFEST_MAGIC {
        return Err(bad("manifest magic mismatch"));
    }
    if read_u16(data, 4) != VERSION {
        return Err(bad(format!("unsupported manifest version {}", read_u16(data, 4))));
    }
    if read_u32(data, 8) != crc32(&data[12..]) {
        return Err(bad("manifest checksum mismatch"));
    }
    let num_shards = read_u32(data, 24) as usize;
    if data.len() != MANIFEST_HEADER + num_shards * SHARD_ENTRY {
        return Err(bad("manifest length disagrees with its shard count"));
    }
    let mut shards = Vec::with_capacity(num_shards);
    for i in 0..num_shards {
        let at = MANIFEST_HEADER + i * SHARD_ENTRY;
        shards.push(ShardEntry {
            token_start: read_u32(data, at),
            token_end: read_u32(data, at + 4),
            file_len: read_u64(data, at + 8),
            crc: read_u32(data, at + 16),
        });
    }
    Ok(Manifest {
        num_users: read_u32(data, 12),
        num_tweets: read_u32(data, 16),
        num_tokens: read_u32(data, 20),
        global_len: read_u64(data, 28),
        tokens_len: read_u64(data, 36),
        tokens_crc: read_u32(data, 44),
        shards,
    })
}

/// A validated, parsed segment: the buffer plus the byte ranges of its
/// two arenas.
struct Segment {
    buf: Arc<AlignedBuf>,
    row_start: u32,
    row_end: u32,
    offsets_len: usize,
    arena_len: usize,
}

impl Segment {
    /// The (offsets, arena) pair in the requested representation.
    fn arenas(&self, mode: LoadMode) -> io::Result<(CorpusArena, CorpusArena)> {
        let offsets_at = SEG_HEADER;
        let arena_at = SEG_HEADER + self.offsets_len * 4;
        match mode {
            LoadMode::ZeroCopy => Ok((
                CorpusArena::shared(self.buf.clone(), offsets_at, self.offsets_len)
                    .map_err(bad)?,
                CorpusArena::shared(self.buf.clone(), arena_at, self.arena_len).map_err(bad)?,
            )),
            LoadMode::Copy => {
                let decode = |at: usize, len: usize| -> Vec<u32> {
                    self.buf.as_slice()[at..at + len * 4]
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect()
                };
                Ok((
                    CorpusArena::Owned(decode(offsets_at, self.offsets_len)),
                    CorpusArena::Owned(decode(arena_at, self.arena_len)),
                ))
            }
        }
    }
}

/// Read one segment file into a page-aligned buffer and validate its
/// header: magic, version, kind, the CRC over the payload (computed
/// exactly once), and that its length and CRC match what the manifest
/// recorded for it.
fn open_segment(path: &Path, kind: u16, want_len: u64, want_crc: u32) -> io::Result<Segment> {
    let name = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    let buf = AlignedBuf::from_file(path).map_err(|e| bad(format!("{name}: {e}")))?;
    let data = buf.as_slice();
    if data.len() as u64 != want_len {
        return Err(bad(format!(
            "{name} is {} bytes, manifest says {want_len}",
            data.len()
        )));
    }
    if data.len() < SEG_HEADER {
        return Err(bad(format!("{name} truncated")));
    }
    if &data[0..4] != SEGMENT_MAGIC {
        return Err(bad(format!("{name}: segment magic mismatch")));
    }
    if read_u16(data, 4) != VERSION {
        return Err(bad(format!("{name}: unsupported segment version")));
    }
    if read_u16(data, 6) != kind {
        return Err(bad(format!("{name}: wrong segment kind")));
    }
    let crc = read_u32(data, 8);
    if crc != want_crc {
        return Err(bad(format!("{name}: segment identity disagrees with manifest")));
    }
    if crc != crc32(&data[12..]) {
        return Err(bad(format!("{name}: segment checksum mismatch")));
    }
    let offsets_len = checked_len(read_u32(data, 20) as i64, "segment offsets length")?;
    let arena_len64 = read_u64(data, 24);
    if arena_len64 > u32::MAX as u64 {
        return Err(bad(format!("{name}: segment arena length out of range")));
    }
    let arena_len = arena_len64 as usize;
    let want = SEG_HEADER + (offsets_len + arena_len) * 4;
    if data.len() != want {
        return Err(bad(format!(
            "{name} is {} bytes but its header describes {want}",
            data.len()
        )));
    }
    let row_start = read_u32(data, 12);
    let row_end = read_u32(data, 16);
    Ok(Segment {
        buf: Arc::new(buf),
        row_start,
        row_end,
        offsets_len,
        arena_len,
    })
}

/// CSR offsets invariants shared by both segment kinds: one entry per
/// row plus one, starting at 0, monotone, ending at the arena length.
fn validate_offsets(
    offsets: &CorpusArena,
    rows: usize,
    arena_len: usize,
    what: &str,
) -> io::Result<()> {
    let offs = offsets.as_slice();
    if offs.len() != rows + 1 {
        return Err(bad(format!("{what} offsets hold {} entries for {rows} rows", offs.len())));
    }
    if offs.first() != Some(&0) {
        return Err(bad(format!("{what} offsets must start at 0")));
    }
    if offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad(format!("{what} offsets not monotone")));
    }
    if offs.last().copied().unwrap_or(0) as usize != arena_len {
        return Err(bad(format!("{what} offsets must end at the arena length")));
    }
    Ok(())
}

struct Global {
    users: Vec<User>,
    tweets: Vec<Tweet>,
    symbols: SymbolTable,
    tweets_by_user: Vec<u64>,
    mentions_of_user: Vec<u64>,
    retweets_of_user: Vec<u64>,
}

fn decode_global(data: &[u8], m: &Manifest) -> io::Result<Global> {
    let frames = decode_frames_exact(data, GLOBAL_FRAMES)
        .map_err(|e| bad(format!("global.bin: {e}")))?;
    let [meta, users_t, user_domains, tweets_t, tweet_mentions, symbols_t]: [Table;
        GLOBAL_FRAMES] = frames
        .try_into()
        .map_err(|_| bad("global.bin: wrong frame count"))?;

    let keys = col_str(&meta, "key")?;
    let values = col_int(&meta, "value")?;
    let meta_value = |key: &str| -> io::Result<i64> {
        keys.iter()
            .position(|k| &**k == key)
            .map(|i| values[i])
            .ok_or_else(|| bad(format!("global.bin: meta key {key} missing")))
    };
    if meta_value("format")? != VERSION as i64 {
        return Err(bad("global.bin: unsupported format"));
    }
    let num_users = checked_len(meta_value("num_users")?, "num_users")?;
    let num_tweets = checked_len(meta_value("num_tweets")?, "num_tweets")?;
    let num_tokens = checked_len(meta_value("num_tokens")?, "num_tokens")?;
    if num_users != m.num_users as usize
        || num_tweets != m.num_tweets as usize
        || num_tokens != m.num_tokens as usize
    {
        return Err(bad("global.bin counts disagree with the manifest"));
    }

    if users_t.num_rows() != num_users {
        return Err(bad("users frame row count disagrees with meta"));
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
            followers: u64::try_from(followers[i])
                .map_err(|_| bad("negative followers"))?,
            verified: verified[i],
            expert_domains,
            spam: spam[i],
        });
    }
    let tweets_by_user = totals(col_int(&users_t, "tweets_by")?, "tweets_by")?;
    let mentions_of_user = totals(col_int(&users_t, "mentions_of")?, "mentions_of")?;
    let retweets_of_user = totals(col_int(&users_t, "retweets_of")?, "retweets_of")?;

    if tweets_t.num_rows() != num_tweets {
        return Err(bad("tweets frame row count disagrees with meta"));
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

    if symbols_t.num_rows() != num_tokens {
        return Err(bad("symbols frame row count disagrees with meta"));
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
        let d = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sharded_round_trip_both_modes() {
        let c = sample();
        for k in [1usize, 2, 4] {
            let d = dir(&format!("esharp_segio_round_trip_{k}"));
            let manifest = d.join("corpus.manifest");
            c.save_sharded(&manifest, k).unwrap();
            for mode in [LoadMode::Copy, LoadMode::ZeroCopy] {
                let back = load_sharded(&manifest, mode).unwrap();
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
                assert_eq!(
                    back.is_zero_copy(),
                    mode == LoadMode::ZeroCopy && cfg!(target_endian = "little")
                );
                // Re-encoding through the monolithic container is
                // byte-identical regardless of shard count or load mode.
                assert_eq!(
                    crate::binio::encode_corpus(&back).unwrap(),
                    crate::binio::encode_corpus(&c).unwrap()
                );
            }
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn corpus_load_sniffs_the_manifest() {
        let c = sample();
        let d = dir("esharp_segio_sniff");
        let manifest = d.join("corpus.manifest");
        c.save_sharded(&manifest, 2).unwrap();
        let back = Corpus::load(&manifest).unwrap();
        assert_eq!(back.match_query("niners"), c.match_query("niners"));
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn missing_segment_fails_at_open() {
        let c = sample();
        let d = dir("esharp_segio_missing");
        let manifest = d.join("corpus.manifest");
        c.save_sharded(&manifest, 3).unwrap();
        std::fs::remove_file(d.join("postings-1.seg")).unwrap();
        assert!(load_sharded(&manifest, LoadMode::ZeroCopy).is_err());
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn zero_copy_appends_work_via_copy_on_write() {
        let c = sample();
        let d = dir("esharp_segio_cow");
        let manifest = d.join("corpus.manifest");
        c.save_sharded(&manifest, 2).unwrap();
        let mut back = load_sharded(&manifest, LoadMode::ZeroCopy).unwrap();
        let id = back.append_tweet("alice", "the niners draft steal").unwrap();
        assert_eq!(back.match_query("steal"), vec![id]);
        assert_eq!(back.match_query("draft"), vec![0, 1, id]);
        let _ = std::fs::remove_dir_all(d);
    }
}
