//! Fault matrix for the compaction writer.
//!
//! The corpus file codec rejects every damage of the one corruption
//! matrix, of a built and of a streamed-then-compacted corpus alike (see
//! `crates/microblog/tests/binary_corpus.rs`). These tests pin the
//! live-instance half of the guarantee: `LiveCorpus::open` reads the
//! base a compaction publishes through that codec, so a flipped bit
//! fails it, and when the compaction write itself is faulted (torn,
//! erroring, silently bit-flipped, killed), the previous base keeps
//! serving, on disk and in memory, with the delta still durable through
//! the oplog.

use esharp_fault::{Fault, FaultPlan, RetryPolicy};
use esharp_ingest::{IngestOp, LiveCorpus, COMPACT_SITE, OPLOG_SITE};
use esharp_microblog::{Corpus, Tweet, TweetId, User};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "esharp_crashsafety_ingest_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seeded(dir: &Path, plan: FaultPlan) -> LiveCorpus {
    let users = vec![User {
        id: 0,
        handle: "ana".into(),
        display_name: "Ana".into(),
        description: String::new(),
        followers: 10,
        verified: false,
        expert_domains: vec![],
        spam: false,
    }];
    let tweets = vec![Tweet::parse(0, 0, BASE, |_| None)];
    LiveCorpus::create(
        Corpus::new(users, tweets),
        dir.join("corpus.bin"),
        dir.join("oplog"),
    )
    .unwrap()
    .with_injector(Arc::new(plan), RetryPolicy::none())
}

const BASE: &str = "base tweet about niners";

/// The ids of the tweets with these texts, as the live corpus numbers
/// them now.
fn ids_of(live: &LiveCorpus, texts: &[&str]) -> Vec<TweetId> {
    live.read().corpus().ids_of_texts(texts)
}

/// The tweets matching `query` in the live corpus now.
fn matches(live: &LiveCorpus, query: &str) -> Vec<TweetId> {
    live.read().corpus().match_query(query)
}

/// The base file a clean compaction published, and its directory.
fn compacted_base(name: &str) -> (PathBuf, Vec<u8>) {
    let dir = tmpdir(name);
    let live = seeded(&dir, FaultPlan::new(0));
    let base_tweet = ids_of(&live, &[BASE])[0];
    live.apply_batch(&[
        IngestOp::AddUser {
            handle: "cy".into(),
            display_name: "Cy".into(),
            description: "tab\there".into(),
            followers: 3,
            verified: false,
        },
        IngestOp::Append {
            author: "cy".into(),
            text: "café ☕ fresh topic @ana".into(),
        },
        IngestOp::Delete { id: base_tweet },
    ])
    .unwrap();
    live.compact().unwrap().unwrap();
    drop(live);
    let base = std::fs::read(dir.join("corpus.bin")).unwrap();
    LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).expect("pristine base opens");
    (dir, base)
}

#[test]
fn a_flipped_bit_in_a_compacted_base_fails_the_open() {
    let (dir, mut base) = compacted_base("flip");
    let mid = base.len() / 2;
    base[mid] ^= 0x10;
    std::fs::write(dir.join("corpus.bin"), &base).unwrap();
    let err = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Every fault kind at the compaction write: the cycle fails, the
/// on-disk base is byte-identical to before, in-memory serving still
/// answers from base + delta, and a reopen replays the delta from the
/// oplog. Last-known-good is never lost.
#[test]
fn faulted_compaction_write_leaves_last_known_good_serving() {
    let faults = [
        ("io", Fault::IoError { transient: false }),
        (
            "torn",
            Fault::TornWrite {
                numerator: 1,
                denominator: 2,
            },
        ),
        ("flip", Fault::BitFlip { offset: 99, bit: 5 }),
        ("kill", Fault::Kill),
    ];
    for (name, fault) in faults {
        let dir = tmpdir(&format!("compact_{name}"));
        let live = seeded(&dir, FaultPlan::new(7).trigger(COMPACT_SITE, 0, fault));
        let base_before = std::fs::read(dir.join("corpus.bin")).unwrap();
        live.apply(&IngestOp::Append {
            author: "ana".into(),
            text: "delta delta delta".into(),
        })
        .unwrap();

        let err = live.compact().unwrap_err();
        assert!(!err.to_string().is_empty(), "{name}: error must explain");
        // On-disk base untouched; no stray .next shadowing it.
        assert_eq!(
            std::fs::read(dir.join("corpus.bin")).unwrap(),
            base_before,
            "{name}: base was clobbered"
        );
        assert!(
            !dir.join("corpus.bin.next").exists(),
            "{name}: leftover .next candidate"
        );
        // In-memory serving continues on base + delta.
        let delta = ids_of(&live, &["delta delta delta"]);
        assert_eq!(matches(&live, "delta"), delta);
        assert_eq!(matches(&live, "niners"), ids_of(&live, &[BASE]));
        drop(live);
        // And the delta was never only in memory: a reopen replays it.
        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        assert_eq!(matches(&back, "delta"), ids_of(&back, &["delta delta delta"]));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Same matrix at the oplog-commit write: the base candidate is
/// discarded, the previous (base, oplog) pair keeps serving.
#[test]
fn faulted_oplog_commit_leaves_last_known_good_serving() {
    for (name, fault) in [
        ("io", Fault::IoError { transient: false }),
        ("kill", Fault::Kill),
        (
            "torn",
            Fault::TornWrite {
                numerator: 2,
                denominator: 3,
            },
        ),
    ] {
        let dir = tmpdir(&format!("oplog_{name}"));
        let live = seeded(&dir, FaultPlan::new(13).trigger(OPLOG_SITE, 0, fault));
        let base_before = std::fs::read(dir.join("corpus.bin")).unwrap();
        let oplog_before = std::fs::read(dir.join("oplog")).unwrap();
        live.apply(&IngestOp::Append {
            author: "ana".into(),
            text: "delta payload".into(),
        })
        .unwrap();
        let oplog_with_delta = std::fs::read(dir.join("oplog")).unwrap();
        assert!(oplog_with_delta.len() > oplog_before.len());

        assert!(live.compact().is_err(), "{name}: commit should fail");
        assert_eq!(
            std::fs::read(dir.join("corpus.bin")).unwrap(),
            base_before,
            "{name}: base changed under a failed commit"
        );
        assert_eq!(
            std::fs::read(dir.join("oplog")).unwrap(),
            oplog_with_delta,
            "{name}: oplog changed under a failed commit"
        );
        assert!(!dir.join("corpus.bin.next").exists(), "{name}");
        assert!(!dir.join("oplog.pending").exists(), "{name}");
        assert_eq!(matches(&live, "payload"), ids_of(&live, &["delta payload"]));
        drop(live);
        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        assert_eq!(matches(&back, "payload"), ids_of(&back, &["delta payload"]));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A transient compaction-write fault clears under the retry policy —
/// the same recovery story as the offline checkpoint pipeline.
#[test]
fn transient_compaction_fault_retries_to_success() {
    let dir = tmpdir("transient");
    let live = seeded(
        &dir,
        FaultPlan::new(21).trigger(COMPACT_SITE, 0, Fault::IoError { transient: true }),
    )
    .with_injector(
        Arc::new(FaultPlan::new(21).trigger(
            COMPACT_SITE,
            0,
            Fault::IoError { transient: true },
        )),
        RetryPolicy { max_attempts: 3 },
    );
    live.apply(&IngestOp::Append {
        author: "ana".into(),
        text: "eventually durable".into(),
    })
    .unwrap();
    let report = live.compact().unwrap().unwrap();
    assert_eq!(report.after_tweets, 2);
    drop(live);
    let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
    assert_eq!(matches(&back, "eventually"), ids_of(&back, &["eventually durable"]));
    assert_eq!(back.read().pending_ops(), 0, "compaction committed");
    let _ = std::fs::remove_dir_all(dir);
}
