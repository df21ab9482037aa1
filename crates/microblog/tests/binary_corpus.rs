//! Corruption matrix for the corpus file (`corpus.bin`).
//!
//! The file's contract is sharp: a load either returns exactly the corpus
//! that was saved, or it fails at open with `InvalidData` — it never
//! panics and never yields a plausible-but-wrong corpus. These tests
//! drive that contract mechanically over two corpora (a built one and one
//! that went through appends, deletes and compaction), at one and three
//! postings shards, from memory and from disk: every damage of the one
//! corruption matrix (`esharp_fault::corrupt`), files of the older
//! formats, and files whose tweet or postings sections are damaged in
//! structure but sealed with recomputed checksums, which only the
//! structural checks can catch.

use esharp_fault::corrupt::{assert_rejects_damage_where, for_each_damage, Damage};
use esharp_microblog::segio::{self, LoadMode};
use esharp_microblog::{Corpus, Tweet, User};
use esharp_storage::atomic::frame_header;
use std::ops::Range;
use std::io::ErrorKind;
use std::path::PathBuf;

const SHARDS: [usize; 2] = [1, 3];

fn user(id: u32, handle: &str, followers: u64, verified: bool) -> User {
    User {
        id,
        handle: handle.into(),
        display_name: format!("User {handle}"),
        description: "knows things".into(),
        followers,
        verified,
        expert_domains: if id == 0 { vec![2, 5] } else { vec![] },
        spam: id == 2,
    }
}

/// A small corpus that still exercises every section of the file:
/// multiple users (one tweetless), mentions, a retweet, duplicate tokens,
/// non-ASCII text, and a token that appears in several tweets.
fn sample() -> Corpus {
    let users = vec![
        user(0, "ana", 900, true),
        user(1, "bo", 14, false),
        user(2, "idle", 0, false), // never tweets
    ];
    let resolve = |h: &str| match h {
        "ana" => Some(0),
        "bo" => Some(1),
        _ => None,
    };
    let tweets = vec![
        Tweet::parse(0, 0, "niners draft niners talk", resolve),
        Tweet::parse(1, 1, "RT @ana: niners draft niners talk", resolve),
        Tweet::parse(2, 1, "café ☕ with @ana about the draft", resolve),
        Tweet::parse(3, 0, "quiet sunday", resolve),
    ];
    Corpus::new(users, tweets)
}

/// A corpus that has been through the streaming path: built, mutated
/// through the delta segment (a new user, appends, deletes of a base and
/// of an appended tweet), then compacted.
fn streamed_then_compacted() -> Corpus {
    let mut corpus = Corpus::new(
        vec![user(0, "ana", 900, true), user(1, "bo", 14, false)],
        vec![
            Tweet::parse(0, 0, "niners draft niners talk", |_| None),
            Tweet::parse(1, 1, "café ☕ about the draft", |_| None),
        ],
    );
    corpus.add_user("cy", "Cy", "tab\there", 3, false).unwrap();
    corpus.append_tweet("cy", "fresh topic entirely @ana").unwrap();
    corpus.append_tweet("bo", "RT @cy: fresh topic entirely").unwrap();
    corpus.append_tweet("ana", "gone before compaction").unwrap();
    corpus.delete_tweet(1).unwrap();
    corpus.delete_tweet(4).unwrap();
    corpus.compact()
}

fn fixtures() -> Vec<(&'static str, Corpus)> {
    vec![("sample", sample()), ("streamed", streamed_then_compacted())]
}

/// Every (fixture, K) file, encoded.
fn files() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, corpus) in fixtures() {
        for k in SHARDS {
            out.push((format!("{name} K={k}"), segio::encode(&corpus, k).unwrap()));
        }
    }
    out
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esharp_corpus_file_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Structural equality over everything the corpus file persists.
fn assert_equivalent(a: &Corpus, b: &Corpus) {
    assert_eq!(a.users().len(), b.users().len());
    for (x, y) in a.users().iter().zip(b.users()) {
        assert_eq!(x.handle, y.handle);
        assert_eq!(x.display_name, y.display_name);
        assert_eq!(x.description, y.description);
        assert_eq!(x.followers, y.followers);
        assert_eq!(x.expert_domains, y.expert_domains);
        assert_eq!((x.verified, x.spam), (y.verified, y.spam));
    }
    assert_eq!(a.tweets().len(), b.tweets().len());
    for (x, y) in a.tweets().iter().zip(b.tweets()) {
        assert_eq!(x.author, y.author);
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

/// Bytes of alignment padding between the string section and the body.
fn pad_len(bytes: &[u8]) -> usize {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let shards = word(20);
    let strings_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let strings_end = 32 + 16 * (shards + 5) + 4 + strings_len;
    strings_end.next_multiple_of(4) - strings_end
}

#[test]
fn clean_bytes_round_trip() {
    for (name, corpus) in fixtures() {
        for k in SHARDS {
            let bytes = segio::encode(&corpus, k).unwrap();
            let back = segio::decode(&bytes).unwrap();
            assert_equivalent(&corpus, &back);
            assert_eq!(back.shard_count(), k, "{name} K={k}");
            // Re-encoding any loaded K at a fixed K gives identical bytes.
            for fixed in SHARDS {
                assert_eq!(
                    segio::encode(&back, fixed).unwrap(),
                    segio::encode(&corpus, fixed).unwrap(),
                    "{name} loaded at K={k}, re-encoded at K={fixed}"
                );
            }
        }
    }
    // The matrix below only tests the pad if some file has one.
    assert!(files().iter().any(|(_, bytes)| pad_len(bytes) > 0));
}

#[test]
fn decode_and_load_agree_on_every_fixture() {
    // `decode` (bytes in memory) and the file loader are one reader; the
    // two `LoadMode`s are one loader.
    let dir = tmpdir("agree");
    let path = dir.join("corpus.bin");
    for (name, bytes) in files() {
        std::fs::write(&path, &bytes).unwrap();
        let from_memory = segio::decode(&bytes).unwrap();
        let copy = segio::load_sharded(&path, LoadMode::Copy).unwrap();
        let zero_copy = segio::load_sharded(&path, LoadMode::ZeroCopy).unwrap();
        assert_equivalent(&from_memory, &copy);
        for k in SHARDS {
            let want = segio::encode(&from_memory, k).unwrap();
            assert_eq!(
                segio::encode(&copy, k).unwrap(),
                want,
                "{name}: Copy at K={k}"
            );
            assert_eq!(
                segio::encode(&zero_copy, k).unwrap(),
                want,
                "{name}: ZeroCopy at K={k}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The part of the corruption matrix `which` selects, for every fixture:
/// from memory, and from disk too unless `from_disk` is false (the flips
/// go through the same checks either way).
fn assert_rejected_where(tag: &str, from_disk: bool, which: impl Fn(Damage) -> bool) {
    let dir = tmpdir(tag);
    let path = dir.join("corpus.bin");
    for (name, bytes) in files() {
        assert_rejects_damage_where(&name, &bytes, &which, segio::decode);
        if !from_disk {
            continue;
        }
        for_each_damage(&bytes, |damage, image| {
            if !which(damage) {
                return;
            }
            std::fs::write(&path, image).unwrap();
            let err = Corpus::load(&path).expect_err(&format!("{name}: {damage:?}"));
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{name}: {damage:?} from disk");
        });
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_truncation_length_is_rejected() {
    assert_rejected_where("truncate", true, |damage| matches!(damage, Damage::Truncated(_)));
}

#[test]
fn every_single_bit_flip_is_rejected() {
    assert_rejected_where("flip", false, |damage| matches!(damage, Damage::Flipped { .. }));
}

#[test]
fn trailing_garbage_is_rejected() {
    assert_rejected_where("trailing", true, |damage| matches!(damage, Damage::Trailing(_)));
}

#[test]
fn two_files_in_one_directory_reopen_to_their_own_corpus() {
    let dir = tmpdir("two");
    let (a, b) = (sample(), streamed_then_compacted());
    a.save_sharded(dir.join("a.bin"), 3).unwrap();
    b.save_sharded(dir.join("b.bin"), 3).unwrap();
    a.save_binary(dir.join("a1.bin")).unwrap();
    assert_equivalent(&a, &Corpus::load(dir.join("a.bin")).unwrap());
    assert_equivalent(&b, &Corpus::load(dir.join("b.bin")).unwrap());
    assert_equivalent(&a, &Corpus::load(dir.join("a1.bin")).unwrap());
    // Nothing but the three files (the atomic writer's temporaries are
    // renamed away).
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn older_formats_fail_with_a_rebuild_hint() {
    // The eight-frame corpus.bin began with a frame length; the
    // multi-file layout's corpus.manifest with "ESMF". A current file with
    // its version bumped stands in for any other revision.
    let mut old_binary = 150u64.to_le_bytes().to_vec();
    old_binary.extend_from_slice(b"ESRT");
    old_binary.resize(200, 0);
    let mut old_manifest = b"ESMF".to_vec();
    old_manifest.extend_from_slice(&1u16.to_le_bytes());
    old_manifest.resize(68, 0);
    let mut next_version = segio::encode(&sample(), 1).unwrap();
    next_version[4] += 1;
    for (what, bytes) in [
        ("eight-frame corpus.bin", old_binary),
        ("corpus.manifest", old_manifest),
        ("another version", next_version),
    ] {
        let err = segio::decode(&bytes).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains("esharp build"), "{what}: {err}");
    }
}

// ---------------------------------------------------------------------
// Hostile structure: each file below is damaged inside one tweet section
// and then resealed (its section checksum and the header checksum
// recomputed), so it passes every checksum and must be caught by the
// structural checks.
// ---------------------------------------------------------------------

/// Body sections in file order before the postings shards.
const TEXT: usize = 0;
const AUTHOR: usize = 1;
const RETWEET_OF: usize = 2;
const MENTIONS: usize = 3;

fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn set_word(bytes: &mut [u8], at: usize, value: u32) {
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Where a corpus file's header and body sections lie.
struct Layout {
    num_users: u32,
    num_tweets: usize,
    head_len: usize,
    text_arena_len: usize,
    /// Byte range of every body section, in file order.
    sections: Vec<Range<usize>>,
}

impl Layout {
    fn of(bytes: &[u8]) -> Layout {
        let entries = 5 + word(bytes, 20) as usize;
        let head_len = 32 + 16 * entries + 4;
        let strings_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let mut at = (head_len + strings_len).next_multiple_of(4);
        let mut sections = Vec::new();
        for i in 0..entries {
            let entry = 32 + 16 * i;
            let rows = (word(bytes, entry + 4) - word(bytes, entry)) as usize;
            let arena = word(bytes, entry + 8) as usize;
            let len = match i {
                TEXT => (rows + 1) * 4 + arena.next_multiple_of(4),
                AUTHOR | RETWEET_OF => rows * 4,
                _ => (rows + 1 + arena) * 4,
            };
            sections.push(at..at + len);
            at += len;
        }
        assert_eq!(at, bytes.len(), "the sections tile the body");
        Layout {
            num_users: word(bytes, 8),
            num_tweets: word(bytes, 12) as usize,
            head_len,
            text_arena_len: word(bytes, 32 + 16 * TEXT + 8) as usize,
            sections,
        }
    }

    /// Byte position of word `i` of section `section`.
    fn word_at(&self, section: usize, i: usize) -> usize {
        self.sections[section].start + 4 * i
    }

    /// Byte position of the text arena.
    fn arena_at(&self) -> usize {
        self.word_at(TEXT, self.num_tweets + 1)
    }

    /// Recompute section `section`'s checksum and then the header's.
    fn reseal(&self, bytes: &mut [u8], section: usize) {
        let crc = |payload: &[u8]| frame_header(payload)[8..12].to_vec();
        let at = 32 + 16 * section + 12;
        let section_crc = crc(&bytes[self.sections[section].clone()]);
        bytes[at..at + 4].copy_from_slice(&section_crc);
        let crc_at = self.head_len - 4;
        let header_crc = crc(&bytes[..crc_at]);
        bytes[crc_at..self.head_len].copy_from_slice(&header_crc);
    }
}

/// Damage section `section` of every fixture file with `edit` (which
/// returns false where a file cannot carry that damage), reseal it, and
/// check that loading it, from memory and from disk, fails with
/// `InvalidData` naming `want`. At least one file must carry the damage.
fn assert_resealed_rejected(
    tag: &str,
    section: usize,
    want: &str,
    edit: impl Fn(&mut [u8], &Layout) -> bool,
) {
    assert_resealed_where(tag, want, false, |bytes, layout| {
        edit(bytes, layout).then_some(section)
    });
}

/// [`assert_resealed_rejected`] where `edit` picks the section it damaged
/// (`None` where a file cannot carry the damage); with `every_file`, each
/// fixture file must carry it.
fn assert_resealed_where(
    tag: &str,
    want: &str,
    every_file: bool,
    edit: impl Fn(&mut [u8], &Layout) -> Option<usize>,
) {
    let dir = tmpdir(tag);
    let path = dir.join("corpus.bin");
    let mut damaged = 0;
    for (name, mut bytes) in files() {
        let layout = Layout::of(&bytes);
        let Some(section) = edit(&mut bytes, &layout) else {
            assert!(!every_file, "{name}: cannot carry {tag}");
            continue;
        };
        layout.reseal(&mut bytes, section);
        std::fs::write(&path, &bytes).unwrap();
        for (from, result) in [("memory", segio::decode(&bytes)), ("disk", Corpus::load(&path))] {
            let err = result.err().unwrap_or_else(|| panic!("{name}: {tag} from {from} loaded"));
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{name}: {tag} from {from}");
            assert!(err.to_string().contains(want), "{name}: {tag} from {from}: {err}");
        }
        damaged += 1;
    }
    assert!(damaged > 0, "{tag}: no fixture file can carry this damage");
    let _ = std::fs::remove_dir_all(dir);
}

/// The text of tweet `i`: its byte range in the file.
fn text_range(bytes: &[u8], layout: &Layout, i: usize) -> Range<usize> {
    let arena = layout.arena_at();
    let (lo, hi) = (
        word(bytes, layout.word_at(TEXT, i)) as usize,
        word(bytes, layout.word_at(TEXT, i + 1)) as usize,
    );
    arena + lo..arena + hi
}

#[test]
fn a_text_offset_inside_a_character_is_rejected() {
    assert_resealed_rejected("mid_char", TEXT, "character boundary", |bytes, layout| {
        let n = layout.num_tweets;
        let Some((i, inside)) = (0..n).find_map(|i| {
            let range = text_range(bytes, layout, i);
            let text = std::str::from_utf8(&bytes[range.clone()]).unwrap();
            let (at, c) = text.char_indices().find(|(_, c)| c.len_utf8() > 1)?;
            Some((i, range.start - layout.arena_at() + at + c.len_utf8() - 1))
        }) else {
            return false;
        };
        // Move the boundary after tweet `i` into the character if there is
        // a later tweet, else the one before it; either keeps the offsets
        // monotone and the first and last offsets in place.
        let row = if i + 1 < n { i + 1 } else { i };
        set_word(bytes, layout.word_at(TEXT, row), inside as u32);
        row > 0
    });
}

#[test]
fn descending_text_offsets_are_rejected() {
    assert_resealed_rejected("descending", TEXT, "monotone", |bytes, layout| {
        let next = word(bytes, layout.word_at(TEXT, 2));
        set_word(bytes, layout.word_at(TEXT, 1), next + 1);
        true
    });
}

#[test]
fn a_last_text_offset_short_of_the_arena_is_rejected() {
    assert_resealed_rejected("last_offset", TEXT, "arena length", |bytes, layout| {
        let last = layout.word_at(TEXT, layout.num_tweets);
        set_word(bytes, last, layout.text_arena_len as u32 - 1);
        true
    });
}

#[test]
fn invalid_utf8_in_the_text_arena_is_rejected() {
    assert_resealed_rejected("utf8", TEXT, "not UTF-8", |bytes, layout| {
        bytes[layout.arena_at() + layout.text_arena_len / 2] = 0xFF;
        true
    });
}

#[test]
fn a_nonzero_text_arena_pad_is_rejected() {
    assert_resealed_rejected("arena_pad", TEXT, "nonzero pad", |bytes, layout| {
        if layout.text_arena_len % 4 == 0 {
            return false;
        }
        bytes[layout.sections[TEXT].end - 1] = 1;
        true
    });
}

#[test]
fn an_author_id_past_the_users_is_rejected() {
    assert_resealed_rejected("author", AUTHOR, "out of range", |bytes, layout| {
        set_word(bytes, layout.word_at(AUTHOR, layout.num_tweets - 1), layout.num_users);
        true
    });
}

#[test]
fn a_mentioned_id_past_the_users_is_rejected() {
    assert_resealed_rejected("mention", MENTIONS, "out of range", |bytes, layout| {
        let arena = layout.word_at(MENTIONS, layout.num_tweets + 1);
        if arena == layout.sections[MENTIONS].end {
            return false;
        }
        set_word(bytes, arena, layout.num_users);
        true
    });
}

#[test]
fn a_retweet_source_past_the_users_that_is_not_the_sentinel_is_rejected() {
    for (tag, id) in [("retweet_first", 0), ("retweet_last", u32::MAX - 1)] {
        assert_resealed_rejected(tag, RETWEET_OF, "out of range", |bytes, layout| {
            set_word(bytes, layout.word_at(RETWEET_OF, 0), id.max(layout.num_users));
            true
        });
    }
}


#[test]
fn a_version_4_file_fails_with_a_rebuild_hint() {
    // Version 4 held each posting list as plain tweet ids.
    let mut bytes = segio::encode(&sample(), 1).unwrap();
    bytes[4..6].copy_from_slice(&4u16.to_le_bytes());
    let err = segio::decode(&bytes).expect_err("version 4");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("esharp build"), "{err}");
}

// ---------------------------------------------------------------------
// Hostile postings: each file below has one posting list of one shard
// damaged, its offsets or its `[start, len]` runs, and is resealed. Every
// fixture file carries every damage, in whichever shard first can.
// ---------------------------------------------------------------------

/// The first postings section.
const POSTINGS: usize = 5;

/// Tokens (rows) of postings section `section`.
fn rows(bytes: &[u8], section: usize) -> usize {
    let entry = 32 + 16 * section;
    (word(bytes, entry + 4) - word(bytes, entry)) as usize
}

/// The runs of (shard-local) token `t`'s list in postings section
/// `section`: each run's byte position and `[start, len]`.
fn runs_at(bytes: &[u8], layout: &Layout, section: usize, t: usize) -> Vec<(usize, [u32; 2])> {
    let arena = layout.word_at(section, rows(bytes, section) + 1);
    let (lo, hi) = (
        word(bytes, layout.word_at(section, t)) as usize,
        word(bytes, layout.word_at(section, t + 1)) as usize,
    );
    (lo..hi)
        .step_by(2)
        .map(|w| {
            let at = arena + 4 * w;
            (at, [word(bytes, at), word(bytes, at + 4)])
        })
        .collect()
}

/// Damage a posting list of every fixture file with `edit(bytes, layout,
/// section)`, tried on each postings section in turn until it returns
/// true (it changes nothing when it returns false), and check the load
/// fails naming `want`.
fn assert_postings_rejected(
    tag: &str,
    want: &str,
    edit: impl Fn(&mut [u8], &Layout, usize) -> bool,
) {
    assert_resealed_where(tag, want, true, |bytes, layout| {
        (POSTINGS..layout.sections.len()).find(|&section| edit(bytes, layout, section))
    });
}

/// Hand token `t`'s list the first run of token `t + 1`'s (both in one
/// shard and non-empty) by moving the offset between them, rewritten by
/// `make` from the last run `t` had; `make` returns `None` where that run
/// cannot take the damage.
fn give_next_run(
    bytes: &mut [u8],
    layout: &Layout,
    section: usize,
    make: impl Fn([u32; 2]) -> Option<[u32; 2]>,
) -> bool {
    for t in 0..rows(bytes, section).saturating_sub(1) {
        let (mine, next) = (runs_at(bytes, layout, section, t), runs_at(bytes, layout, section, t + 1));
        let (Some(&(_, last)), Some(&(at, _))) = (mine.last(), next.first()) else {
            continue;
        };
        let Some([start, len]) = make(last) else {
            continue;
        };
        set_word(bytes, at, start);
        set_word(bytes, at + 4, len);
        let boundary = layout.word_at(section, t + 1);
        set_word(bytes, boundary, word(bytes, boundary) + 2);
        return true;
    }
    false
}

#[test]
fn posting_runs_out_of_order_are_rejected() {
    // A run wholly before the one it follows.
    assert_postings_rejected("runs_order", "out of order", |bytes, layout, section| {
        give_next_run(bytes, layout, section, |[start, _]| (start > 0).then(|| [start - 1, 1]))
    });
}

#[test]
fn overlapping_posting_runs_are_rejected() {
    // A run repeating the last id of the one before.
    assert_postings_rejected("runs_overlap", "overlapping", |bytes, layout, section| {
        give_next_run(bytes, layout, section, |[start, len]| Some([start + len - 1, 1]))
    });
}

#[test]
fn touching_posting_runs_left_uncoalesced_are_rejected() {
    // A run starting where the one before ends: one run written as two.
    assert_postings_rejected("runs_touch", "not coalesced", |bytes, layout, section| {
        let num_tweets = layout.num_tweets as u32;
        give_next_run(bytes, layout, section, |[start, len]| {
            (start + len < num_tweets).then(|| [start + len, 1])
        })
    });
}

#[test]
fn a_zero_length_posting_run_is_rejected() {
    assert_postings_rejected("runs_empty", "empty posting run", |bytes, layout, section| {
        let Some((at, _)) = (0..rows(bytes, section))
            .find_map(|t| runs_at(bytes, layout, section, t).first().copied())
        else {
            return false;
        };
        set_word(bytes, at + 4, 0);
        true
    });
}

#[test]
fn a_posting_run_ending_past_the_tweets_is_rejected() {
    assert_postings_rejected("runs_past", "out of range", |bytes, layout, section| {
        let Some((at, [start, _])) = (0..rows(bytes, section))
            .find_map(|t| runs_at(bytes, layout, section, t).last().copied())
        else {
            return false;
        };
        set_word(bytes, at + 4, layout.num_tweets as u32 + 1 - start);
        true
    });
}

#[test]
fn a_posting_run_cut_off_at_the_end_of_its_list_is_rejected() {
    // The offset after a non-empty list one word early: its last run
    // loses its length word to the next list.
    assert_postings_rejected("runs_cut", "cut off", |bytes, layout, section| {
        let Some(t) = (0..rows(bytes, section).saturating_sub(1))
            .find(|&t| !runs_at(bytes, layout, section, t).is_empty())
        else {
            return false;
        };
        let boundary = layout.word_at(section, t + 1);
        set_word(bytes, boundary, word(bytes, boundary) - 1);
        true
    });
}
