//! Property-based tests of the distribution samplers, variant minting and
//! log aggregation.

use esharp_querylog::dist::{LogNormal, Zipf};
use esharp_querylog::variants::{mint_variants, variant, ALL_KINDS};
use esharp_querylog::{AggregatedLog, ClickRecord, RawEvent, TermId, UrlId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A term or URL id: small ones (at and past a small `num_terms`), the
/// widest ones, or anything.
fn wide_id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..16, Just(u32::MAX), Just(u32::MAX - 1), any::<u32>()]
}

/// `(term, url)` event streams: heavy repeats over a few wide ids, many
/// terms on one URL, one term over many URLs, and the empty stream.
fn event_streams() -> impl Strategy<Value = Vec<(TermId, UrlId)>> {
    let picks = prop::collection::vec((any::<usize>(), any::<usize>()), 0..400);
    prop_oneof![
        (
            prop::collection::vec(wide_id(), 1..5),
            prop::collection::vec(wide_id(), 1..5),
            picks
        )
            .prop_map(|(terms, urls, picks)| {
                let pick = |(i, j): (usize, usize)| (terms[i % terms.len()], urls[j % urls.len()]);
                picks.into_iter().map(pick).collect()
            }),
        (wide_id(), prop::collection::vec(wide_id(), 0..200))
            .prop_map(|(url, terms)| terms.into_iter().map(|t| (t, url)).collect()),
        (wide_id(), prop::collection::vec(wide_id(), 0..200))
            .prop_map(|(term, urls)| urls.into_iter().map(|u| (term, u)).collect()),
        Just(Vec::new()),
    ]
}

proptest! {
    #[test]
    fn zipf_pmf_is_a_distribution(n in 1usize..200, s in 0.1f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        // PMF is non-increasing in rank.
        for i in 1..n {
            prop_assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_samples_stay_in_range(n in 1usize..50, s in 0.1f64..3.0, seed in 0u64..1000) {
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn lognormal_is_positive(mu in -2.0f64..4.0, sigma in 0.1f64..2.0, seed in 0u64..1000) {
        let ln = LogNormal::new(mu, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = ln.sample(&mut rng);
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn variants_never_panic_and_differ(term in "[a-z0-9 ]{0,24}", seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in ALL_KINDS {
            if let Some(v) = variant(&term, kind, &mut rng) {
                prop_assert!(!v.is_empty());
            }
        }
        let minted = mint_variants(&term, 4, &mut rng);
        let mut dedup = minted.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), minted.len(), "duplicate variants");
        prop_assert!(!minted.iter().any(|v| *v == term.trim()));
    }

    #[test]
    fn aggregation_conserves_events(
        events in prop::collection::vec((0u32..10, 0u32..10), 0..200),
        min_support in 0u64..20,
    ) {
        let raw: Vec<RawEvent> = events
            .iter()
            .map(|&(term, url)| RawEvent { term, url })
            .collect();
        let log = AggregatedLog::from_events(raw.iter().copied(), 10);
        // Total clicks equal raw event count.
        let total: u64 = log.records.iter().map(|r| r.clicks).sum();
        prop_assert_eq!(total, raw.len() as u64);
        prop_assert_eq!(log.term_totals.iter().sum::<u64>(), raw.len() as u64);
        // Records are sorted and unique on (term, url).
        for pair in log.records.windows(2) {
            prop_assert!((pair[0].term, pair[0].url) < (pair[1].term, pair[1].url));
        }
        // Filtering keeps exactly the qualifying terms' records.
        let (filtered, dropped) = log.filter_min_support(min_support);
        for r in &filtered.records {
            prop_assert!(log.term_totals[r.term as usize] >= min_support);
        }
        let kept = filtered.num_terms();
        prop_assert_eq!(kept + dropped, log.num_terms());
    }

    #[test]
    fn aggregation_matches_an_ordered_map(events in event_streams(), num_terms in 0usize..24) {
        let mut counts: BTreeMap<(TermId, UrlId), u64> = BTreeMap::new();
        let mut term_totals = vec![0u64; num_terms];
        for &(term, url) in &events {
            *counts.entry((term, url)).or_insert(0) += 1;
            if let Some(total) = term_totals.get_mut(term as usize) {
                *total += 1;
            }
        }
        let records: Vec<ClickRecord> = counts
            .into_iter()
            .map(|((term, url), clicks)| ClickRecord { term, url, clicks })
            .collect();
        let raw = events.iter().map(|&(term, url)| RawEvent { term, url });
        let log = AggregatedLog::from_events(raw, num_terms);
        prop_assert_eq!(log.records, records);
        prop_assert_eq!(log.term_totals, term_totals);
        prop_assert_eq!(log.raw_events, events.len() as u64);
    }
}
