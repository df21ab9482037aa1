//! Log aggregation and support filtering (§4.1).
//!
//! The raw event stream is folded into `(query, url, clicks)` records, and
//! queries below the support threshold are dropped — the paper removes
//! "all the queries which appear less than 50 times per month, to reduce
//! noise and save space".

use crate::loggen::RawEvent;
use crate::world::{TermId, UrlId, World};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One aggregated click record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClickRecord {
    /// The query term.
    pub term: TermId,
    /// The clicked URL.
    pub url: UrlId,
    /// How many times this (query, URL) pair was observed.
    pub clicks: u64,
}

/// An aggregated query log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AggregatedLog {
    /// Aggregated records, sorted by (term, url) for determinism.
    pub records: Vec<ClickRecord>,
    /// Total clicks per term (indexed by `TermId`; terms never observed
    /// hold 0).
    pub term_totals: Vec<u64>,
    /// Number of raw events folded in.
    pub raw_events: u64,
}

impl AggregatedLog {
    /// Fold a raw event stream into aggregated records.
    // `inline` so each caller compiles this hot loop into itself rather
    // than depending on which codegen unit the instantiation lands in:
    // left to partitioning, a build that placed it out of line aggregated
    // the 8M-event refresh log ~20% slower (2-vCPU host).
    #[inline]
    pub fn from_events(events: impl Iterator<Item = RawEvent>, num_terms: usize) -> Self {
        let mut counts: HashMap<(TermId, UrlId), u64> = HashMap::new();
        let mut term_totals = vec![0u64; num_terms];
        let mut raw_events = 0u64;
        for ev in events {
            *counts.entry((ev.term, ev.url)).or_insert(0) += 1;
            if (ev.term as usize) < term_totals.len() {
                term_totals[ev.term as usize] += 1;
            }
            raw_events += 1;
        }
        let mut records: Vec<ClickRecord> = counts
            .into_iter()
            .map(|((term, url), clicks)| ClickRecord { term, url, clicks })
            .collect();
        records.sort_by_key(|r| (r.term, r.url));
        AggregatedLog {
            records,
            term_totals,
            raw_events,
        }
    }

    /// Drop every record whose query's *total* observation count is below
    /// `min_support` (the paper's 50-per-month rule). Returns the filtered
    /// log plus how many distinct queries were dropped. A term beyond
    /// `term_totals` (`from_events` keeps its records but has no total for
    /// it) has support 0.
    pub fn filter_min_support(&self, min_support: u64) -> (AggregatedLog, usize) {
        let keep = |term: TermId| {
            let total = self.term_totals.get(term as usize).copied().unwrap_or(0);
            total >= min_support
        };
        let records: Vec<ClickRecord> = self
            .records
            .iter()
            .filter(|r| keep(r.term))
            .copied()
            .collect();
        let dropped = self
            .term_totals
            .iter()
            .filter(|&&total| total > 0 && total < min_support)
            .count();
        let mut term_totals = vec![0u64; self.term_totals.len()];
        for (i, &total) in self.term_totals.iter().enumerate() {
            if total >= min_support {
                term_totals[i] = total;
            }
        }
        (
            AggregatedLog {
                records,
                term_totals,
                raw_events: self.raw_events,
            },
            dropped,
        )
    }

    /// Distinct queries present in the log.
    pub fn num_terms(&self) -> usize {
        self.term_totals.iter().filter(|&&t| t > 0).count()
    }

    /// Approximate payload size in bytes (Table 9 accounting: 998 GB in,
    /// 2.6 GB of similarity graph out in the paper).
    pub fn byte_size(&self) -> u64 {
        (self.records.len() * std::mem::size_of::<ClickRecord>()) as u64
    }

    /// Pretty textual form `(query, url, clicks)` for small logs, resolving
    /// ids through the world.
    pub fn resolve<'a>(
        &'a self,
        world: &'a World,
    ) -> impl Iterator<Item = (&'a str, &'a str, u64)> + 'a {
        self.records
            .iter()
            .map(move |r| (world.term_text(r.term), world.url_text(r.url), r.clicks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loggen::{LogConfig, LogGenerator};
    use crate::world::{World, WorldConfig};

    fn raw(term: TermId, url: UrlId) -> RawEvent {
        RawEvent { term, url }
    }

    #[test]
    fn aggregation_counts_pairs() {
        let events = vec![raw(0, 0), raw(0, 0), raw(0, 1), raw(1, 0)];
        let log = AggregatedLog::from_events(events.into_iter(), 2);
        assert_eq!(log.raw_events, 4);
        assert_eq!(
            log.records,
            vec![
                ClickRecord { term: 0, url: 0, clicks: 2 },
                ClickRecord { term: 0, url: 1, clicks: 1 },
                ClickRecord { term: 1, url: 0, clicks: 1 },
            ]
        );
        assert_eq!(log.term_totals, vec![3, 1]);
    }

    #[test]
    fn min_support_drops_tail_queries() {
        let events = vec![raw(0, 0), raw(0, 1), raw(0, 0), raw(1, 0)];
        let log = AggregatedLog::from_events(events.into_iter(), 2);
        let (filtered, dropped) = log.filter_min_support(2);
        assert_eq!(dropped, 1);
        assert!(filtered.records.iter().all(|r| r.term == 0));
        assert_eq!(filtered.num_terms(), 1);
        // Raw event count is preserved for accounting.
        assert_eq!(filtered.raw_events, 4);
    }

    #[test]
    fn term_beyond_num_terms_has_no_support() {
        // `from_events` keeps the records of term 7 but has no total for it.
        let events = vec![raw(0, 0), raw(0, 1), raw(7, 0), raw(7, 0), raw(7, 0)];
        let log = AggregatedLog::from_events(events.into_iter(), 2);
        assert!(log.records.iter().any(|r| r.term == 7 && r.clicks == 3));
        assert_eq!(log.term_totals, vec![2, 0]);
        let (filtered, dropped) = log.filter_min_support(2);
        assert_eq!(dropped, 0);
        assert!(filtered.records.iter().all(|r| r.term == 0));
        assert_eq!(filtered.records.len(), 2);
    }

    #[test]
    fn end_to_end_with_generator_most_terms_survive_reasonable_support() {
        let w = World::generate(&WorldConfig::tiny(1));
        let log = AggregatedLog::from_events(
            LogGenerator::new(&w, &LogConfig::tiny(2)),
            w.terms.len(),
        );
        let before = log.num_terms();
        // Pick a support threshold at the 75th percentile of totals so the
        // test is robust to world size: the head survives, the tail drops.
        let mut totals: Vec<u64> = log.term_totals.iter().copied().filter(|&t| t > 0).collect();
        totals.sort_unstable();
        let support = totals[totals.len() * 3 / 4];
        let (filtered, dropped) = log.filter_min_support(support);
        assert!(filtered.num_terms() + dropped == before);
        assert!(filtered.num_terms() > 0);
        // Zipf tail: some queries must fall below support.
        assert!(dropped > 0, "expected a long tail to be filtered");
    }
}
