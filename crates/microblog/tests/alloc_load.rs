//! Loading a corpus allocates per section, never per tweet: the text
//! arena and the columns are adopted whole, and no `Tweet` is built. Two
//! corpora with the same users and the same vocabulary, one four times
//! the other in tweets, must load with the same number of allocations
//! to within a small constant.

use esharp_microblog::{segio, Corpus, Tweet, User};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness's other threads
    /// allocate whenever they like).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed through to `System` unchanged; the
// counter is a `const`-initialised thread-local `Cell` with no
// destructor, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Extra allocations the larger load may make: a few vectors grown by
/// pushes can take one more doubling each.
const SLACK: usize = 8;

const USERS: u32 = 6;
const TEXTS: [&str; 5] = [
    "the 49ers draft was exciting",
    "RT @u1: the 49ers draft was exciting",
    "pasta tonight with @u2 and @u3",
    "niners niners go",
    "@u4 draft day café ☕",
];

/// A corpus of `tweets` tweets cycling through `TEXTS` and the users:
/// every size has the same users and the same tokens.
fn corpus(tweets: usize) -> Corpus {
    let users = (0..USERS)
        .map(|id| User {
            id,
            handle: format!("u{id}"),
            display_name: format!("User {id}"),
            description: String::new(),
            followers: 1,
            verified: false,
            expert_domains: vec![],
            spam: false,
        })
        .collect();
    let resolve = |h: &str| {
        h.strip_prefix('u')?
            .parse()
            .ok()
            .filter(|&u: &u32| u < USERS)
    };
    let tweets = (0..tweets)
        .map(|i| Tweet::parse(i as u32, i as u32 % USERS, TEXTS[i % TEXTS.len()], resolve))
        .collect();
    Corpus::new(users, tweets)
}

#[test]
fn a_load_allocates_per_section_not_per_tweet() {
    const N: usize = 500;
    let dir = std::env::temp_dir().join(format!("esharp_alloc_load_{}", std::process::id()));
    let mut counts = Vec::new();
    for tweets in [N, 4 * N] {
        let corpus = corpus(tweets);
        let bytes = segio::encode(&corpus, 2).unwrap();
        let path = dir.join(format!("corpus-{tweets}.bin"));
        corpus.save_sharded(&path, 2).unwrap();

        let (decoded, back) = allocations_of(|| segio::decode(&bytes).unwrap());
        assert_eq!(back.tweet_count(), tweets);
        assert_eq!(segio::encode(&back, 2).unwrap(), bytes);
        let (loaded, back) = allocations_of(|| Corpus::load(&path).unwrap());
        assert_eq!(segio::encode(&back, 2).unwrap(), bytes);
        counts.push((decoded, loaded));
    }
    let _ = std::fs::remove_dir_all(dir);

    let [(decode_n, load_n), (decode_4n, load_4n)] = counts[..] else {
        unreachable!()
    };
    assert!(
        decode_4n <= decode_n + SLACK,
        "decode: {decode_n} allocations for {N} tweets, {decode_4n} for {}",
        4 * N
    );
    assert!(
        load_4n <= load_n + SLACK,
        "load: {load_n} allocations for {N} tweets, {load_4n} for {}",
        4 * N
    );
}
