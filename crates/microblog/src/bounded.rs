//! The postings-walk executor: one deadline-bounded scatter-gather that
//! every term match in the system runs through (DESIGN.md §11).
//!
//! [`Corpus::match_expansions`] takes a batch of ≥1 expansions (one term
//! list per query) and plans it once: the distinct terms across the
//! batch are grouped by home shard, each admitted shard runs as one task
//! that walks its terms' postings under the request's [`Budget`] and
//! abandons at term boundaries once it expires, and the gather unions,
//! per query, the match lists of the shards that answered and reports
//! the rest in a [`ShardOutcome`] instead of blocking on the slowest
//! shard. The other entry points are its degenerate cases —
//! [`Corpus::match_terms_bounded`] is a batch of one,
//! [`Corpus::match_terms_batch_with`] runs under a budget that never
//! expires, [`Corpus::match_terms_with`] is both, and `workers = 1` is
//! the serial walk. Three tail-tolerance mechanisms hang off it:
//!
//! * **chaos seams** — each shard attempt consults the injected
//!   [`FaultInjector`] at `search:shard:<i>` (attempt 0 = primary,
//!   1 = hedge), so stalls/delays/panics are seed-replayable (the I/O
//!   variants are ignored here),
//! * **hedging** — one hedger task waits `hedge_delay_us`, then
//!   re-issues every still-missing shard as attempt 1; slots are
//!   first-answer-wins, so a straggling primary and its hedge can race
//!   without affecting the merged bytes (a union is idempotent),
//! * **circuit breakers** — sick shards are skipped before any work is
//!   spent on them, and every attempt's outcome is recorded back.
//!
//! Determinism: on a [`esharp_fault::VirtualClock`] an injected wait
//! charges ticks to the waiting task *without advancing shared time*
//! (the wait becomes a task-local charge against the budget), so
//! whether a shard answers is a pure function of the chaos plan and the
//! budget — never of thread interleaving — and the chaos matrix can
//! assert exact missing-shard sets. Shard panics are caught per task; they surface as a missing
//! shard and a counter, never as a torn-down caller.

use crate::corpus::{Corpus, TermMatch};
use crate::index::{union_runs, Run};
use crate::types::{TokenId, TweetId};
use esharp_fault::{Budget, Fault, FaultInjector, NoFaults, ShardBreakers, TickSource};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Duration;

/// Everything a bounded fan-out needs beyond the terms themselves.
pub struct BoundedSearch<'a> {
    /// The request's deadline + cancellation token.
    pub budget: &'a Budget,
    /// Fault injector at the shard seams (production passes
    /// [`NoFaults`]).
    pub chaos: &'a dyn FaultInjector,
    /// Per-shard circuit breakers, if the caller runs them.
    pub breakers: Option<&'a ShardBreakers>,
    /// Whether to re-issue missing shards as hedged duplicates.
    pub hedge: bool,
    /// How long the hedger waits before re-issuing, in budget ticks.
    pub hedge_delay_us: u64,
}

/// The production injector is a unit value, so a shared static keeps
/// plain bounded searches allocation-free.
static NO_FAULTS: NoFaults = NoFaults;

impl<'a> BoundedSearch<'a> {
    /// A plain bounded search: deadline only, no chaos, no breakers, no
    /// hedging.
    pub fn new(budget: &'a Budget) -> BoundedSearch<'a> {
        BoundedSearch {
            budget,
            chaos: &NO_FAULTS,
            breakers: None,
            hedge: false,
            hedge_delay_us: 0,
        }
    }

    /// Enable hedged re-issue of missing shards after `delay_us` ticks.
    pub fn hedged(mut self, delay_us: u64) -> BoundedSearch<'a> {
        self.hedge = true;
        self.hedge_delay_us = delay_us;
        self
    }

    /// Inject chaos at the shard seams.
    pub fn with_chaos(mut self, chaos: &'a dyn FaultInjector) -> BoundedSearch<'a> {
        self.chaos = chaos;
        self
    }

    /// Gate and record shard attempts through circuit breakers.
    pub fn with_breakers(mut self, breakers: &'a ShardBreakers) -> BoundedSearch<'a> {
        self.breakers = Some(breakers);
        self
    }
}

/// What a bounded fan-out produced: the merged match set of the shards
/// that answered, plus exactly which shards did not and why.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Union of the shards that answered, tombstones filtered — when
    /// nothing is missing, bit-identical at every shard and worker
    /// count. Left empty by [`Corpus::match_expansions`], which returns
    /// one match set per query beside the outcome.
    pub matched: Vec<TweetId>,
    /// Shards that were tried but missed the deadline, stalled, or
    /// panicked (sorted).
    pub shards_missing: Vec<usize>,
    /// Shards skipped outright by an open circuit breaker (sorted).
    pub shards_skipped: Vec<usize>,
    /// Hedged duplicate attempts launched.
    pub hedges: u32,
    /// Hedged attempts that answered first for their shard.
    pub hedge_wins: u32,
    /// Shard attempts that panicked (contained; counted per attempt).
    pub shard_panics: u32,
}

impl ShardOutcome {
    /// Whether any shard's contribution is absent from `matched`.
    pub fn is_partial(&self) -> bool {
        !self.shards_missing.is_empty() || !self.shards_skipped.is_empty()
    }
}

/// Wait on `clock`, returning only the ticks the clock did **not**
/// observe — a wall clock's sleep shows up in `now_us()` so the charge
/// is ~0; a virtual clock's wait returns instantly without advancing
/// shared time, so the full wait becomes a task-local budget charge.
/// This split is what keeps concurrent tasks from racing on simulated
/// time.
fn charge_wait(clock: &dyn TickSource, us: u64, release: &(dyn Fn() -> bool + Sync)) -> u64 {
    let before = clock.now_us();
    let waited = clock.wait_us(us, release);
    waited.saturating_sub(clock.now_us().saturating_sub(before))
}

impl Corpus {
    /// Tweets matching **any** of `terms` (each term itself conjunctive,
    /// as in [`Corpus::match_query`]): [`Corpus::match_expansions`] for
    /// one query under a budget that never expires. The result is
    /// **bit-identical** at every shard count and worker count — a union
    /// over sorted deduplicated lists is a set operation, so the shard
    /// grouping only distributes work.
    pub fn match_terms_with(&self, terms: &[String], workers: usize) -> Vec<TweetId> {
        self.match_unbounded(&[terms], workers)
            .pop()
            .unwrap_or_default()
    }

    /// Batch form of [`Corpus::match_terms_with`]: one entry of
    /// `expansions` per query, one result per query, in order, each
    /// **bit-identical** to `match_terms_with(&expansions[i], workers)`
    /// (property-tested in `proptest_batch`) while every distinct term
    /// across the batch has its postings walked once.
    pub fn match_terms_batch_with(
        &self,
        expansions: &[Vec<String>],
        workers: usize,
    ) -> Vec<Vec<TweetId>> {
        let expansions: Vec<&[String]> = expansions.iter().map(Vec::as_slice).collect();
        self.match_unbounded(&expansions, workers)
    }

    /// [`Corpus::match_expansions`] with no deadline, chaos, breakers or
    /// hedging, so every shard answers.
    fn match_unbounded(&self, expansions: &[&[String]], workers: usize) -> Vec<Vec<TweetId>> {
        let budget = Budget::wall(Duration::MAX);
        let (matched, shards) =
            self.match_expansions(expansions, workers, &BoundedSearch::new(&budget));
        // Only a panic inside the walk can cost an unbounded match a
        // shard; pass it on rather than return a silently short answer.
        assert!(
            !shards.is_partial(),
            "postings walk panicked on shards {:?}",
            shards.shards_missing
        );
        matched
    }

    /// [`Corpus::match_expansions`] for one query: shards that miss the
    /// budget (or stall, or panic) are abandoned and reported in the
    /// [`ShardOutcome`] rather than stalling the gather forever. When
    /// every shard answers, `matched` is bit-identical to
    /// [`Corpus::match_terms_with`].
    pub fn match_terms_bounded(
        &self,
        terms: &[String],
        workers: usize,
        ctx: &BoundedSearch<'_>,
    ) -> ShardOutcome {
        let (mut matched, shards) = self.match_expansions(&[terms], workers, ctx);
        ShardOutcome {
            matched: matched.pop().unwrap_or_default(),
            ..shards
        }
    }

    /// The one postings walk. `expansions` holds one term list per
    /// query; the result holds one match set per query, in order, and
    /// the fan-out's shard accounting, shared by the whole batch (a
    /// shard contributes all of its terms to every query or none).
    ///
    /// Plan: the distinct terms across the batch, in first-seen order,
    /// are resolved once each to a token set (the normalized fast path
    /// or the tokenizer) and a home shard, and each query keeps only the
    /// terms no other of its terms subsumes (a term is dropped when a
    /// kept term on the same home shard has a subset of its tokens, so
    /// its matches are already in the union). The distinct terms some
    /// query keeps are grouped by home shard. Execute: each shard the breakers
    /// admit runs as one task on the shared pool — inline on the caller
    /// when `workers <= 1` — and publishes its per-term match lists (run
    /// lists: a term's posting runs, or for a multi-token term their
    /// run-against-run intersection) into a first-answer-wins slot.
    /// Gather: each query's set is one run-wise union over the lists of
    /// its kept terms whose shard answered, read back as sorted ids.
    pub fn match_expansions(
        &self,
        expansions: &[&[String]],
        workers: usize,
        ctx: &BoundedSearch<'_>,
    ) -> (Vec<Vec<TweetId>>, ShardOutcome) {
        let clock = ctx.budget.clock().as_ref();
        let mut term_index: HashMap<&str, usize> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let plan: Vec<Vec<usize>> = expansions
            .iter()
            .map(|terms| {
                terms
                    .iter()
                    .map(|term| {
                        *term_index.entry(term.as_str()).or_insert_with(|| {
                            distinct.push(term);
                            distinct.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let tokens: Vec<Option<Vec<TokenId>>> =
            distinct.iter().map(|term| self.term_tokens(term)).collect();
        let home: Vec<usize> = distinct.iter().map(|term| self.term_home_shard(term)).collect();
        let kept: Vec<Vec<usize>> =
            plan.iter().map(|terms| subsume(terms, &tokens, &home)).collect();
        let mut walked = vec![false; distinct.len()];
        kept.iter().flatten().for_each(|&term| walked[term] = true);
        // A shard is tried when any term of the batch lives there, walked
        // or not, so which shards answer — and the outcome — is the same
        // as if every term were walked.
        let mut homed = vec![false; self.shard_count().max(1)];
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); homed.len()];
        for (term, &shard) in home.iter().enumerate() {
            homed[shard] = true;
            if walked[term] {
                groups[shard].push(term);
            }
        }

        // Breaker gate: spend nothing on shards with open breakers.
        let mut admitted: Vec<usize> = Vec::new();
        let mut skipped: Vec<usize> = Vec::new();
        for (shard, &homed) in homed.iter().enumerate() {
            if !homed {
                continue;
            }
            if ctx.breakers.is_none_or(|b| b.allow(shard, clock)) {
                admitted.push(shard);
            } else {
                skipped.push(shard);
            }
        }

        // First-answer-wins result slot per admitted shard.
        let slots: Vec<Mutex<Option<Vec<TermMatch<'_>>>>> =
            admitted.iter().map(|_| Mutex::new(None)).collect();
        let done: Vec<AtomicBool> = admitted.iter().map(|_| AtomicBool::new(false)).collect();
        let primaries_running = AtomicUsize::new(admitted.len());
        let panics = AtomicU32::new(0);
        let hedges = AtomicU32::new(0);
        let hedge_wins = AtomicU32::new(0);

        // One shard attempt: consult chaos, respect the budget at every
        // term boundary, publish into the slot unless someone already
        // did. `base_charge` carries virtual ticks the attempt already
        // spent before starting (the hedger's own delay).
        let attempt_shard = |slot_idx: usize, attempt: u32, base_charge: u64| {
            let shard = admitted[slot_idx];
            let mut charged = base_charge;
            let release = || done[slot_idx].load(SeqCst) || ctx.budget.cancelled();
            let site = format!("search:shard:{shard}");
            match ctx.chaos.fault_at(&site, attempt) {
                Some(Fault::Delay { us }) => {
                    charged = charged.saturating_add(charge_wait(clock, us, &release));
                }
                Some(Fault::Stall) => {
                    // Wedged: never answers. Hold the worker until the
                    // budget runs out or a hedge fills the slot, then
                    // abandon — exactly what a real stuck shard costs.
                    let rest = ctx.budget.remaining_us_with(charged).saturating_add(1);
                    let _ = clock.wait_us(rest, &release);
                    return;
                }
                Some(Fault::Panic) => {
                    panic!("injected chaos panic at {site} attempt {attempt}")
                }
                _ => {}
            }
            let group = &groups[shard];
            let mut matches: Vec<TermMatch<'_>> = Vec::with_capacity(group.len());
            for &term in group {
                if ctx.budget.expired_with(charged) {
                    return;
                }
                matches.push(self.match_tokens(tokens[term].as_deref().unwrap_or_default()));
            }
            if ctx.budget.expired_with(charged) {
                return;
            }
            if let Ok(mut slot) = slots[slot_idx].lock() {
                if slot.is_none() {
                    *slot = Some(matches);
                    done[slot_idx].store(true, SeqCst);
                    if attempt > 0 {
                        hedge_wins.fetch_add(1, SeqCst);
                    }
                }
            }
        };

        // A panicking shard attempt must cost one shard, not the query:
        // contain it here (the pool would otherwise resume it on the
        // caller) and let the empty slot report it as missing.
        let contained = |slot_idx: usize, attempt: u32, base_charge: u64| {
            if catch_unwind(AssertUnwindSafe(|| attempt_shard(slot_idx, attempt, base_charge)))
                .is_err()
            {
                panics.fetch_add(1, SeqCst);
            }
        };
        let hedger = || {
            let all_done = || done.iter().all(|d| d.load(SeqCst)) || ctx.budget.cancelled();
            let charged = charge_wait(clock, ctx.hedge_delay_us, &all_done);
            // A wait the clock did not observe took no real time, and
            // neither do the primaries' chaos waits on such a clock: let
            // every primary return before reading the slots, so which
            // shards get hedged follows from the chaos plan and not from
            // which thread ran first. (The hedger is queued behind the
            // primaries, so all of them have been picked up by now.)
            while charged > 0 && primaries_running.load(SeqCst) > 0 {
                std::thread::yield_now();
            }
            for (slot_idx, slot_done) in done.iter().enumerate() {
                if slot_done.load(SeqCst) || ctx.budget.expired_with(charged) {
                    continue;
                }
                hedges.fetch_add(1, SeqCst);
                contained(slot_idx, 1, charged);
            }
        };

        let (contained, hedger, primaries_running) = (&contained, &hedger, &primaries_running);
        let primaries = admitted.len();
        let tasks: Vec<_> = (0..primaries + usize::from(ctx.hedge))
            .map(|task| {
                move || {
                    if task < primaries {
                        contained(task, 0, 0);
                        primaries_running.fetch_sub(1, SeqCst);
                    } else {
                        hedger();
                    }
                }
            })
            .collect();
        if workers <= 1 {
            tasks.into_iter().for_each(|task| task());
        } else {
            esharp_par::shared_pool(workers).run(tasks);
        }

        // Gather: scatter each answering shard's lists back to their
        // terms (slots are in ascending shard order), report the rest.
        let mut memo: Vec<Option<TermMatch<'_>>> = distinct.iter().map(|_| None).collect();
        let mut missing: Vec<usize> = Vec::new();
        for (slot, &shard) in slots.iter().zip(&admitted) {
            let answer = slot.lock().ok().and_then(|mut s| s.take());
            if let Some(breakers) = ctx.breakers {
                breakers.record(shard, answer.is_some(), clock);
            }
            match answer {
                Some(lists) => {
                    for (&term, list) in groups[shard].iter().zip(lists) {
                        memo[term] = Some(list);
                    }
                }
                None => missing.push(shard),
            }
        }
        let matched = kept
            .iter()
            .map(|terms| {
                let lists: Vec<&[Run]> = terms
                    .iter()
                    .filter_map(|&term| memo[term].as_ref().map(TermMatch::as_slice))
                    .collect();
                self.without_tombstones(union_runs(&lists))
            })
            .collect();
        let outcome = ShardOutcome {
            matched: Vec::new(),
            shards_missing: missing,
            shards_skipped: skipped,
            hedges: hedges.load(SeqCst),
            hedge_wins: hedge_wins.load(SeqCst),
            shard_panics: panics.load(SeqCst),
        };
        (matched, outcome)
    }
}

/// The terms of one query (indices into the batch's distinct terms) that
/// its union needs: visited by token-set size, smallest first (a stable
/// sort, so of two equal sets the first listed stays), a term is dropped
/// when a term already kept has a subset of its tokens and the same home
/// shard. A conjunctive match over more tokens is a subset of the match
/// over fewer — in base and delta postings alike, and before the
/// tombstone filter — so the union is unchanged. The same-shard rule
/// keeps a partial answer exact too: a dropped term's matches are
/// covered only by a term whose shard answers exactly when its own does.
/// A term with an unknown token or no tokens matches nothing and is
/// dropped outright, so an empty set never subsumes anything.
fn subsume(terms: &[usize], tokens: &[Option<Vec<TokenId>>], home: &[usize]) -> Vec<usize> {
    let mut by_size: Vec<(usize, &[TokenId])> = terms
        .iter()
        .filter_map(|&term| match tokens[term].as_deref() {
            Some(set) if !set.is_empty() => Some((term, set)),
            _ => None,
        })
        .collect();
    by_size.sort_by_key(|(_, set)| set.len());
    let mut kept: Vec<(usize, &[TokenId])> = Vec::with_capacity(by_size.len());
    for (term, set) in by_size {
        let covered = kept
            .iter()
            .any(|&(k, sub)| home[k] == home[term] && is_subset(sub, set));
        if !covered {
            kept.push((term, set));
        }
    }
    kept.into_iter().map(|(term, _)| term).collect()
}

/// Whether every id of `sub` is in `set` (both sorted, deduplicated).
fn is_subset(sub: &[TokenId], set: &[TokenId]) -> bool {
    let mut rest = set.iter();
    sub.iter().all(|id| rest.any(|x| x == id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_corpus, CorpusConfig};
    use esharp_fault::{BreakerConfig, FaultPlan, VirtualClock};
    use esharp_querylog::{World, WorldConfig};
    use std::sync::Arc;

    fn corpus_with_shards(k: usize) -> Corpus {
        let world = World::generate(&WorldConfig::tiny(21));
        let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
        corpus.reshard(k);
        corpus
    }

    fn spread_terms(corpus: &Corpus, per_shard: usize) -> Vec<String> {
        // Pick single-token terms covering every shard.
        let k = corpus.shard_count();
        let mut picked: Vec<Vec<String>> = vec![Vec::new(); k];
        for id in 0..corpus.num_tokens() {
            let token = corpus.token_text(id as TokenId).to_string();
            let shard = corpus.term_home_shard(&token);
            if picked[shard].len() < per_shard {
                picked[shard].push(token);
            }
        }
        let terms: Vec<String> = picked.into_iter().flatten().collect();
        assert!(
            terms.len() >= k,
            "synthetic corpus must cover every shard with at least one term"
        );
        terms
    }

    fn virtual_budget(limit_us: u64) -> Budget {
        Budget::with_clock(Arc::new(VirtualClock::new()), limit_us)
    }

    #[test]
    fn unbothered_bounded_search_is_bit_identical_to_serial() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let budget = virtual_budget(1_000_000);
        let outcome = corpus.match_terms_bounded(&terms, 4, &BoundedSearch::new(&budget));
        assert!(!outcome.is_partial());
        assert_eq!(outcome.matched, corpus.match_terms_with(&terms, 1));
        assert_eq!(outcome.hedges, 0);
        assert_eq!(outcome.shard_panics, 0);
    }

    #[test]
    fn stalled_shard_yields_partial_with_exact_missing_set() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let full = corpus.match_terms_with(&terms, 1);
        for stalled in 0..corpus.shard_count() {
            let plan = FaultPlan::new(1).stall_at(&format!("search:shard:{stalled}"));
            let budget = virtual_budget(10_000);
            let ctx = BoundedSearch::new(&budget).with_chaos(&plan);
            let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
            assert_eq!(outcome.shards_missing, vec![stalled]);
            assert!(outcome.is_partial());
            assert!(
                outcome.matched.iter().all(|id| full.contains(id)),
                "a partial answer must be a subset of the full answer"
            );
        }
    }

    /// Terms whose matches overlap across shards: every single-token
    /// term of `spread_terms`, and for token pairs that co-occur in a
    /// tweet with their home shards apart, the pair in both orders (each
    /// homed on its first token's shard, each a superset of a single
    /// whose home may be another shard), the pair again (a repeat) and a
    /// superset with an unknown word.
    fn overlapping_terms(corpus: &Corpus) -> Vec<String> {
        let mut terms = spread_terms(corpus, 2);
        let plain = |text: &str| text.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit());
        let mut pairs_per_shard = vec![0; corpus.shard_count()];
        for id in 0..corpus.tweet_count() as u32 {
            let tokens: Vec<&str> = corpus
                .tweet_tokens(id)
                .iter()
                .map(|&id| corpus.token_text(id))
                .filter(|text| plain(text))
                .collect();
            for pair in tokens.windows(2) {
                let (first, second) = (pair[0], pair[1]);
                let (a, b) = (corpus.term_home_shard(first), corpus.term_home_shard(second));
                if a == b || pairs_per_shard[a] >= 2 {
                    continue;
                }
                pairs_per_shard[a] += 1;
                terms.push(first.to_string());
                terms.push(format!("{second} {first}"));
                terms.push(format!("{first} {second}"));
                terms.push(format!("{second} {first}"));
                terms.push(format!("{first} {second} zzqq"));
            }
        }
        assert!(
            pairs_per_shard.iter().all(|&n| n > 0),
            "every shard must home a cross-shard pair: {pairs_per_shard:?}"
        );
        terms
    }

    #[test]
    fn stalled_shard_drops_exactly_the_terms_it_homes() {
        let corpus = corpus_with_shards(4);
        let terms = overlapping_terms(&corpus);
        for stalled in 0..corpus.shard_count() {
            let mut expected: Vec<TweetId> = terms
                .iter()
                .filter(|term| corpus.term_home_shard(term) != stalled)
                .flat_map(|term| corpus.match_query(term))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            let plan = FaultPlan::new(1).stall_at(&format!("search:shard:{stalled}"));
            let budget = virtual_budget(10_000);
            let ctx = BoundedSearch::new(&budget).with_chaos(&plan);
            let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
            assert_eq!(outcome.shards_missing, vec![stalled]);
            assert_eq!(outcome.matched, expected, "shard {stalled} stalled");
        }
    }

    #[test]
    fn hedging_recovers_a_stalled_shard_bit_identically() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let full = corpus.match_terms_with(&terms, 1);
        for stalled in 0..corpus.shard_count() {
            let plan = FaultPlan::new(1).stall_at(&format!("search:shard:{stalled}"));
            let budget = virtual_budget(10_000);
            let ctx = BoundedSearch::new(&budget).with_chaos(&plan).hedged(1_000);
            let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
            assert!(!outcome.is_partial(), "hedge must recover shard {stalled}");
            assert_eq!(outcome.matched, full);
            assert!(outcome.hedges >= 1);
            assert!(outcome.hedge_wins >= 1);
        }
    }

    #[test]
    fn panicking_shard_is_contained_and_reported() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let plan = FaultPlan::new(1).panic_at("search:shard:2");
        let budget = virtual_budget(1_000_000);
        let ctx = BoundedSearch::new(&budget).with_chaos(&plan);
        let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
        std::panic::set_hook(hook);
        assert_eq!(outcome.shards_missing, vec![2]);
        assert_eq!(outcome.shard_panics, 1);
    }

    #[test]
    fn injected_delay_within_budget_still_answers_in_full() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let plan = FaultPlan::new(1).trigger(
            "search:shard:1",
            0,
            Fault::Delay { us: 5_000 },
        );
        let budget = virtual_budget(10_000);
        let ctx = BoundedSearch::new(&budget).with_chaos(&plan);
        let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
        assert!(!outcome.is_partial(), "a delay under budget is invisible");
        assert_eq!(outcome.matched, corpus.match_terms_with(&terms, 1));
    }

    #[test]
    fn io_faults_at_a_shard_seam_are_ignored() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let plan = FaultPlan::new(1)
            .kill_at("search:shard:1")
            .trigger("search:shard:2", 0, Fault::IoError { transient: false });
        let budget = virtual_budget(10_000);
        let ctx = BoundedSearch::new(&budget).with_chaos(&plan);
        let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
        assert!(!outcome.is_partial(), "{outcome:?}");
        assert_eq!(outcome.matched, corpus.match_terms_with(&terms, 1));
    }

    #[test]
    fn breakers_trip_then_skip_then_recover() {
        let corpus = corpus_with_shards(4);
        let terms = spread_terms(&corpus, 2);
        let clock = Arc::new(VirtualClock::new());
        let breakers = ShardBreakers::new(BreakerConfig {
            threshold: 2,
            open_us: 50_000,
        });
        // Shard 3 stalls twice (limited trigger), tripping its breaker.
        let plan = FaultPlan::new(1).trigger_limited(
            "search:shard:3",
            Fault::Stall,
            2,
        );
        for _ in 0..2 {
            let budget = Budget::with_clock(clock.clone(), 10_000);
            let ctx = BoundedSearch::new(&budget)
                .with_chaos(&plan)
                .with_breakers(&breakers);
            let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
            assert_eq!(outcome.shards_missing, vec![3]);
        }
        assert_eq!(breakers.trips(), 1);

        // Next request: shard 3 skipped without spending any budget.
        let budget = Budget::with_clock(clock.clone(), 10_000);
        let ctx = BoundedSearch::new(&budget).with_breakers(&breakers);
        let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
        assert_eq!(outcome.shards_skipped, vec![3]);

        // After the open window, the (now healed) shard probes and the
        // breaker closes again.
        clock.advance_us(50_000);
        let budget = Budget::with_clock(clock.clone(), 10_000);
        let ctx = BoundedSearch::new(&budget).with_breakers(&breakers);
        let outcome = corpus.match_terms_bounded(&terms, 4, &ctx);
        assert!(!outcome.is_partial());
        assert_eq!(outcome.matched, corpus.match_terms_with(&terms, 1));
        assert_eq!(breakers.recoveries(), 1);
    }
}
