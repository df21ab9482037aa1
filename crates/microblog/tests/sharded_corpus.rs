//! Integration tests of the sharded corpus: scatter-gather search must
//! be bit-identical to the serial single-shard union at every shard and
//! worker count, a load must reproduce the exact corpus at every shard
//! count, and a file missing sections fails at open. The
//! exhaustive corruption matrix of the corpus file is in
//! `binary_corpus.rs`.

use esharp_microblog::{Corpus, Tweet, User};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn user(id: u32, handle: &str) -> User {
    User {
        id,
        handle: handle.to_string(),
        display_name: handle.to_string(),
        description: String::new(),
        followers: 0,
        verified: false,
        expert_domains: vec![],
        spam: false,
    }
}

/// A deterministic multi-user corpus with enough distinct tokens that
/// K=3 sharding actually splits the token space.
fn fixture_corpus() -> Corpus {
    let users: Vec<User> = (0..8).map(|i| user(i, &format!("u{i}"))).collect();
    let vocab = [
        "rust", "tokio", "diabetes", "insulin", "49ers", "football", "paris", "travel", "gpu",
        "kernel", "sourdough", "baking",
    ];
    let tweets: Vec<Tweet> = (0..64u32)
        .map(|i| {
            let a = vocab[i as usize % vocab.len()];
            let b = vocab[(i as usize * 5 + 3) % vocab.len()];
            Tweet::parse(i, i % 8, format!("{a} {b} update {}", i / 7), |_| None)
        })
        .collect();
    Corpus::new(users, tweets)
}

/// Fresh scratch dir per test (process-scoped so parallel test binaries
/// never collide).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esharp_sharded_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Round-trip through save_sharded at K; the loaded corpus must
/// reproduce `serial` for every term set under every worker count given.
fn assert_sharded_parity(
    corpus: &Corpus,
    dir: &Path,
    k: usize,
    term_sets: &[Vec<String>],
    workers: &[usize],
) {
    let path = dir.join(format!("k{k}.bin"));
    corpus.save_sharded(&path, k).expect("save_sharded");
    let loaded = Corpus::load(&path).expect("load");
    for terms in term_sets {
        let serial = corpus.match_terms_with(terms, 1);
        assert_eq!(loaded.match_terms_with(terms, 1), serial, "K={k} serial");
        for &w in workers {
            assert_eq!(
                loaded.match_terms_with(terms, w),
                serial,
                "K={k} workers={w} terms={terms:?}"
            );
        }
    }
}

#[test]
fn sharded_loads_are_bit_identical_to_the_original() {
    let corpus = fixture_corpus();
    let dir = tmpdir("bitident");
    let reference = dir.join("reference.bin");
    corpus.save_binary(&reference).expect("save reference");
    let want = std::fs::read(&reference).expect("read reference");
    for k in [1usize, 3, 7] {
        let path = dir.join(format!("k{k}.bin"));
        corpus.save_sharded(&path, k).expect("save_sharded");
        let loaded = Corpus::load(&path).expect("load");
        assert_eq!(loaded.shard_count(), k);
        let out = dir.join(format!("k{k}_resaved.bin"));
        loaded.save_binary(&out).expect("re-save");
        assert_eq!(
            std::fs::read(&out).expect("read"),
            want,
            "binary re-encode differs at K={k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_files_fail_at_open_not_query_time() {
    let corpus = fixture_corpus();
    let dir = tmpdir("missing");
    let path = dir.join("corpus.bin");
    corpus.save_sharded(&path, 3).expect("save_sharded");
    let pristine = std::fs::read(&path).expect("read pristine");
    // A file that ends early is missing its last sections: dropping the
    // postings shards from the last one down to all three fails at open.
    let mut resharded = corpus.clone();
    resharded.reshard(3);
    let mut cut = pristine.len();
    for (i, bytes) in resharded.shard_postings_bytes().iter().enumerate().rev() {
        cut -= *bytes as usize;
        std::fs::write(&path, &pristine[..cut]).expect("truncate");
        let err = Corpus::load(&path).expect_err(&format!("open must fail without shards {i}.."));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "shards {i}..");
    }
    // No file at all fails at open too.
    std::fs::remove_file(&path).expect("remove");
    let err = Corpus::load(&path).expect_err("missing file");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    std::fs::write(&path, &pristine).expect("restore");
    Corpus::load(&path).expect("restored corpus opens");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    // File I/O per case: keep the case count modest — the fixed tests
    // above cover the deterministic boundaries, this drives breadth.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded scatter-gather search over a random corpus is
    /// bit-identical to the serial single-shard union for every shard
    /// count and worker count.
    #[test]
    fn sharded_search_matches_serial_over_random_corpora(
        seed_words in prop::collection::vec(
            prop::collection::vec("[a-f]{1,3}", 1..6), 1..40),
        term_sets in prop::collection::vec(
            prop::collection::vec("[a-fA-F]{1,3}", 0..4), 1..4),
        k in 1usize..6,
        workers in 1usize..5,
    ) {
        let users = vec![user(0, "u0"), user(1, "u1")];
        let tweets: Vec<Tweet> = seed_words
            .iter()
            .enumerate()
            .map(|(i, words)| {
                Tweet::parse(i as u32, (i % 2) as u32, words.join(" "), |_| None)
            })
            .collect();
        let corpus = Corpus::new(users, tweets);
        let term_sets: Vec<Vec<String>> = term_sets
            .iter()
            .map(|terms| terms.iter().map(|t| t.to_string()).collect())
            .collect();

        // In-memory reshard parity (no disk round trip).
        let mut resharded = corpus.clone();
        resharded.reshard(k);
        prop_assert_eq!(resharded.shard_count(), k.min(corpus.num_tokens().max(1)));
        for terms in &term_sets {
            let serial = corpus.match_terms_with(terms, 1);
            prop_assert_eq!(resharded.match_terms_with(terms, workers), serial.clone());
            prop_assert_eq!(resharded.match_terms_with(terms, 1), serial);
        }

        // Disk round trip.
        let dir = tmpdir(&format!("prop{k}w{workers}"));
        assert_sharded_parity(&corpus, &dir, k, &term_sets, &[1, workers]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
