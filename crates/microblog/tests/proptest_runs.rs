//! Property tests of the run-form posting lists against a `BTreeSet<u32>`
//! reference: the decoder's run check, the index build, run-against-run
//! intersection, the run-wise union and base ++ delta concatenation.
//!
//! Inputs mix dense id sets (long runs) with spread ones (lone ids) and
//! empty lists; the lists of one case share a window of ids, so their runs
//! touch and overlap across lists, and some lie far apart (the union's
//! sparse path). Windows sit at 0, in the middle of the `u32` range and
//! against `u32::MAX`, where a run's end (`start + len`) would wrap in
//! `u32`; the build's ids run up to `num_tweets - 1`. `scripts/tier1.sh`
//! runs this file in release too, where an overflow wraps instead of
//! panicking.

use esharp_microblog::index::{
    check_runs, concat_runs, intersect_runs, union_runs, PostingsIndex, PostingsShard, Run,
};
use esharp_microblog::TokenId;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Ids of one case lie within this many ids above its anchor (clamped at
/// `u32::MAX`).
const WINDOW: u32 = 2_000;

/// Where a case's window starts.
fn anchor() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        0u32..u32::MAX,
        Just(u32::MAX - WINDOW),
        Just(u32::MAX - 64),
        Just(u32::MAX),
    ]
}

/// One list as `(offset, len)` segments of its window.
type Segments = Vec<(u32, u32)>;

/// A case: its anchor, and each list's segments and whether it lies far
/// from the window (a million ids up, clamped).
type Case = (u32, Vec<(bool, Segments)>);

/// One list's segments: dense (a few long runs, overlapping each other at
/// times), spread (lone ids) or empty.
fn segments() -> impl Strategy<Value = Segments> {
    prop_oneof![
        prop::collection::vec((0u32..WINDOW, 1u32..400), 0..5),
        prop::collection::vec((0u32..WINDOW, Just(1u32)), 0..40),
        Just(Vec::new()),
    ]
}

/// The lists of one case; a third of them lie far from the window.
fn cases() -> impl Strategy<Value = Case> {
    (
        anchor(),
        prop::collection::vec(
            (
                prop_oneof![Just(false), Just(false), Just(true)],
                segments(),
            ),
            0..6,
        ),
    )
}

/// The id set a list's segments describe.
fn id_set(anchor: u32, far: bool, segments: &[(u32, u32)]) -> BTreeSet<u32> {
    let at = if far {
        anchor.saturating_add(1_000_000)
    } else {
        anchor
    };
    segments
        .iter()
        .flat_map(|&(offset, len)| {
            (0..len).map(move |i| at.saturating_add(offset).saturating_add(i))
        })
        .collect()
}

fn sets(anchor: u32, lists: &[(bool, Segments)]) -> Vec<BTreeSet<u32>> {
    lists
        .iter()
        .map(|(far, segments)| id_set(anchor, *far, segments))
        .collect()
}

/// The canonical run list of a reference set: each maximal range of
/// adjacent ids as one `[start, len]`.
fn runs(set: &BTreeSet<u32>) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for &id in set {
        match runs.last_mut() {
            Some([start, len]) if u64::from(*start) + u64::from(*len) == u64::from(id) => *len += 1,
            _ => runs.push([id, 1]),
        }
    }
    runs
}

/// The ids a run list holds, widened so a wrapped run shows.
fn ids_of(runs: &[Run]) -> Vec<u64> {
    runs.iter()
        .flat_map(|&[start, len]| (0..u64::from(len)).map(move |i| u64::from(start) + i))
        .collect()
}

fn widened(set: &BTreeSet<u32>) -> Vec<u64> {
    set.iter().map(|&id| u64::from(id)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn canonical_lists_pass_the_run_check((anchor, lists) in cases()) {
        for set in sets(anchor, &lists) {
            let list = runs(&set);
            prop_assert!(check_runs(list.as_flattened()).is_ok(), "{list:?}");
            prop_assert_eq!(ids_of(&list), widened(&set));
        }
    }

    #[test]
    fn intersection_matches_the_set_intersection((anchor, lists) in cases()) {
        let sets = sets(anchor, &lists);
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i..] {
                let both: BTreeSet<u32> = a.intersection(b).copied().collect();
                for (x, y) in [(a, b), (b, a)] {
                    let got = intersect_runs(&runs(x), &runs(y));
                    prop_assert_eq!(&got, &runs(&both), "canonical and exact");
                }
            }
        }
    }

    #[test]
    fn union_matches_the_set_union((anchor, lists) in cases()) {
        let sets = sets(anchor, &lists);
        let run_lists: Vec<Vec<Run>> = sets.iter().map(runs).collect();
        let refs: Vec<&[Run]> = run_lists.iter().map(Vec::as_slice).collect();
        let all: BTreeSet<u32> = sets.iter().flatten().copied().collect();
        prop_assert_eq!(union_runs(&refs), all.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn base_then_delta_concatenates_to_the_union(
        (anchor, lists) in cases(),
        cut in 0u32..WINDOW,
    ) {
        // A base segment and a delta above it: the set split at a cut,
        // so the seam often falls inside a run.
        let all: BTreeSet<u32> = sets(anchor, &lists).into_iter().flatten().collect();
        let at = anchor.saturating_add(cut);
        let base: BTreeSet<u32> = all.range(..at).copied().collect();
        let delta: BTreeSet<u32> = all.range(at..).copied().collect();
        let mut out = vec![[7, 7]];
        concat_runs(&runs(&base), &runs(&delta), &mut out);
        prop_assert_eq!(&out, &runs(&all), "seam coalesced, `out` cleared");
    }

    #[test]
    fn build_matches_per_token_sets(
        blocks in prop::collection::vec(
            (0u32..6, 1usize..40, prop::collection::vec(0u32..6, 0..3)),
            0..30,
        ),
    ) {
        // Topic-ordered tweets: a block is `repeat` adjacent tweets with
        // the same tokens, so tokens come in long runs, and a token may
        // repeat within a tweet.
        let tweets: Vec<Vec<TokenId>> = blocks
            .iter()
            .flat_map(|(main, repeat, noise)| {
                let tokens: Vec<TokenId> = std::iter::once(*main).chain(noise.iter().copied()).collect();
                std::iter::repeat_n(tokens, *repeat)
            })
            .collect();
        let index = PostingsIndex::build(6, tweets.iter().map(Vec::as_slice));
        for token in 0..6 {
            let want: BTreeSet<u32> = (0..tweets.len() as u32)
                .filter(|&id| tweets[id as usize].contains(&token))
                .collect();
            let list = index.postings(token);
            prop_assert_eq!(list.runs(), runs(&want).as_slice(), "token {}", token);
            prop_assert_eq!(list.len(), want.len());
        }
        // The decoder's checks accept every shard the build makes.
        let (offsets, arena) = index.shards()[0].parts();
        prop_assert!(PostingsShard::new(0, 6, offsets.to_vec(), arena.to_vec()).is_ok());
    }
}
