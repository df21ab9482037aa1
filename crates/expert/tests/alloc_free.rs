//! "Allocation-free" as a checked property: once the per-thread scratch
//! is warm, ranking a match set allocates only the `Vec` it returns.

use esharp_expert::{Detector, DetectorConfig, ExtendedWeights};
use esharp_microblog::{generate_corpus, CorpusConfig};
use esharp_querylog::{World, WorldConfig};
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

#[test]
fn a_warm_rank_allocates_only_its_result() {
    let world = World::generate(&WorldConfig::tiny(31));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(31));
    let match_sets: Vec<Vec<u32>> = world
        .domains
        .iter()
        .map(|domain| corpus.match_query(&domain.label))
        .chain([Vec::new()])
        .collect();
    // The largest query there can be: every tweet, so every author and
    // every mentioned user is a candidate.
    let everything: Vec<u32> = (0..corpus.tweets().len() as u32).collect();

    for config in [
        DetectorConfig::default(),
        DetectorConfig {
            extended: Some(ExtendedWeights::default()),
            cluster_filter: true,
            min_zscore: f64::NEG_INFINITY,
            ..Default::default()
        },
    ] {
        let detector = Detector::new(&corpus, config.clone());
        // The same detector with another ε: alternating the two flushes
        // the thread's `ln` memo on every rank, which must refill it in
        // place.
        let coarse = Detector::new(&corpus, DetectorConfig { log_epsilon: 1e-3, ..config });
        assert!(
            !detector.rank_candidates(&everything).is_empty(),
            "warm-up ranks"
        );

        for matching in match_sets.iter().chain([&everything]) {
            for detector in [&detector, &coarse] {
                let (allocations, experts) =
                    allocations_of(|| detector.rank_candidates(matching));
                assert!(
                    allocations <= 1,
                    "{allocations} allocations ranking {} tweets",
                    matching.len()
                );
                assert_eq!(experts, detector.rank_candidates_reference(matching));
            }
        }

        let (allocations, batch) = allocations_of(|| detector.rank_candidates_batch(&match_sets));
        assert!(
            allocations <= match_sets.len() + 1,
            "{allocations} allocations ranking a batch of {}",
            match_sets.len()
        );
        assert_eq!(batch.len(), match_sets.len());
    }
}
