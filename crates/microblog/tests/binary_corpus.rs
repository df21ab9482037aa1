//! Corruption matrix for the corpus file (`corpus.bin`).
//!
//! The file's contract is sharp: a load either returns exactly the corpus
//! that was saved, or it fails at open with `InvalidData` — it never
//! panics and never yields a plausible-but-wrong corpus. These tests
//! drive that contract mechanically over two corpora (a built one and one
//! that went through appends, deletes and compaction), at one and three
//! postings shards, from memory and from disk: every truncation length,
//! every single-bit flip, trailing bytes, and files of the older formats.

use esharp_microblog::segio::{self, LoadMode};
use esharp_microblog::{Corpus, Tweet, User};
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

fn assert_rejected(bytes: &[u8], what: &str) {
    match segio::decode(bytes) {
        Ok(_) => panic!("{what} was accepted"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}"),
    }
}

/// Bytes of alignment padding between the string section and the body.
fn pad_len(bytes: &[u8]) -> usize {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let shards = word(20);
    let strings_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let strings_end = 36 + 16 * (shards + 1) + 4 + strings_len;
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

#[test]
fn every_truncation_length_is_rejected() {
    let dir = tmpdir("truncate");
    let path = dir.join("corpus.bin");
    for (name, bytes) in files() {
        for cut in 0..bytes.len() {
            let what = format!("{name} truncated to {cut}/{}", bytes.len());
            assert_rejected(&bytes[..cut], &what);
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = Corpus::load(&path).expect_err(&what);
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{what} from disk");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for (name, bytes) in files() {
        let mut corrupt = bytes.clone();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                corrupt[byte] ^= 1 << bit;
                assert_rejected(&corrupt, &format!("{name}: flip of byte {byte} bit {bit}"));
                corrupt[byte] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let dir = tmpdir("trailing");
    let path = dir.join("corpus.bin");
    for (name, bytes) in files() {
        for extra in [1usize, 3, 4, 7, 64] {
            let mut long = bytes.clone();
            long.extend(std::iter::repeat(0).take(extra));
            let what = format!("{name} with {extra} trailing bytes");
            assert_rejected(&long, &what);
            std::fs::write(&path, &long).unwrap();
            assert!(Corpus::load(&path).is_err(), "{what} from disk");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
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
