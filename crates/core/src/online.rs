//! The online stage (§5 + Figure 1 right half): query matching → query
//! expansion → expert detection over the union of per-term matches.

use crate::config::EsharpConfig;
use crate::domains::DomainCollection;
use crate::error::EsharpResult;
use crate::retriever::ExpertiseRetriever;
use esharp_expert::ExpertResult;
use esharp_fault::Budget;
use esharp_microblog::{BoundedSearch, Corpus};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Degraded-service state surfaced in [`SearchOutcome`] metadata when the
/// weekly domain refresh fails: e# keeps answering queries — the paper's
/// fallback position is always plain Pal & Counts — but callers can see
/// (and alert on) the degradation instead of silently serving stale or
/// unexpanded results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Degradation {
    /// A domain reload failed; results come from the last known-good
    /// collection (stale by one refresh cycle or more).
    StaleDomains {
        /// Why the reload failed.
        error: String,
    },
    /// No domain collection has ever loaded; expansion is disabled and
    /// results are plain (unexpanded) Pal & Counts.
    NoDomains {
        /// Why the load failed.
        error: String,
    },
}

/// Shard-level degradation of one bounded search: which parts of the
/// fan-out did not contribute to the answer, and why. Extends guarantee
/// 5's "degraded, visible, still answering" down to the shard level
/// (ROBUSTNESS.md guarantee 9): an answer missing shards is honestly
/// marked, never silently short.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialResult {
    /// Shards that were tried but missed the deadline, stalled or
    /// panicked (sorted).
    pub shards_missing: Vec<usize>,
    /// Shards skipped outright by an open circuit breaker (sorted).
    pub shards_skipped: Vec<usize>,
}

/// The result of one online search, with the per-phase timings the
/// paper reports in Table 9 (expansion < 100 ms, detection < 1 s).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Ranked experts.
    pub experts: Vec<ExpertResult>,
    /// The terms actually searched (query first; length 1 ⇒ no expansion
    /// happened).
    pub expansion: Vec<String>,
    /// Distinct tweets matched across all expansion terms.
    pub matched_tweets: usize,
    /// Time spent in domain lookup + expansion.
    pub expansion_time: Duration,
    /// Time spent matching and ranking (`match_time + rank_time`).
    pub detection_time: Duration,
    /// Time spent in postings intersection + k-way union.
    #[serde(default)]
    pub match_time: Duration,
    /// Time spent in candidate collection, feature scoring and ranking.
    #[serde(default)]
    pub rank_time: Duration,
    /// Present when the system is running degraded (stale or missing
    /// domain collection); `None` on the healthy path.
    pub degradation: Option<Degradation>,
    /// Present when a bounded search answered without every shard
    /// (deadline miss, stall, panic, or open breaker); `None` on the
    /// complete path and for unbounded searches.
    #[serde(default)]
    pub partial: Option<PartialResult>,
    /// Hedged duplicate shard attempts launched by this search (0 for
    /// unbounded searches and when hedging is off).
    #[serde(default)]
    pub hedges: u32,
    /// Hedged attempts that answered first for their shard.
    #[serde(default)]
    pub hedge_wins: u32,
    /// Shard attempts that panicked during this search (contained —
    /// the panic cost one shard's contribution, not the request).
    #[serde(default)]
    pub shard_panics: u32,
}

/// The e# online system: a domain collection plus a detector
/// configuration.
#[derive(Debug, Clone)]
pub struct Esharp {
    domains: DomainCollection,
    /// Sticky service state: set when a domain load/reload failed, cleared
    /// by the next successful reload, copied into every outcome.
    degradation: Option<Degradation>,
    config: EsharpConfig,
    /// Default retriever, built once at assembly time so the per-query
    /// path does not re-clone the detector configuration on every search.
    retriever: crate::retriever::PalCountsRetriever,
}

impl Esharp {
    /// Assemble the online system from offline artifacts.
    pub fn new(domains: DomainCollection, config: EsharpConfig) -> Self {
        let retriever = crate::retriever::PalCountsRetriever::new(config.detector.clone());
        Esharp {
            domains,
            degradation: None,
            config,
            retriever,
        }
    }

    /// Assemble from a persisted domain collection, strictly: a missing or
    /// corrupt file is an error.
    pub fn from_domains_file(path: impl AsRef<Path>, config: EsharpConfig) -> EsharpResult<Self> {
        let domains = DomainCollection::load(path)?;
        Ok(Esharp::new(domains, config))
    }

    /// Assemble from a persisted domain collection, degrading instead of
    /// failing: when the file is missing or corrupt the system starts with
    /// an empty collection (searches run unexpanded Pal & Counts) and
    /// every outcome carries [`Degradation::NoDomains`].
    pub fn from_domains_file_or_degraded(path: impl AsRef<Path>, config: EsharpConfig) -> Self {
        match Self::from_domains_file(path, config.clone()) {
            Ok(esharp) => esharp,
            Err(e) => {
                let mut esharp = Esharp::new(DomainCollection::default(), config);
                esharp.degradation = Some(Degradation::NoDomains { error: e.to_string() });
                esharp
            }
        }
    }

    /// Swap in a freshly persisted domain collection (the weekly refresh
    /// hand-off). On failure the last known-good collection stays active,
    /// subsequent outcomes carry [`Degradation::StaleDomains`] (or
    /// [`Degradation::NoDomains`] if none ever loaded), and the error is
    /// returned for logging — the serving path never goes down.
    pub fn reload_domains(&mut self, path: impl AsRef<Path>) -> EsharpResult<()> {
        match DomainCollection::load(path) {
            Ok(domains) => {
                self.domains = domains;
                self.degradation = None;
                Ok(())
            }
            Err(e) => {
                self.note_reload_failure(e.to_string());
                Err(e.into())
            }
        }
    }

    /// Record a reload failure without touching the collection: the last
    /// known-good state keeps serving, subsequent outcomes carry the
    /// degradation. Shared with the fault-injection seam in
    /// [`crate::shared::SharedEsharp`], which fails reloads before any
    /// file I/O happens.
    pub(crate) fn note_reload_failure(&mut self, error: String) {
        self.degradation = Some(match self.degradation {
            Some(Degradation::NoDomains { .. }) => Degradation::NoDomains { error },
            _ => Degradation::StaleDomains { error },
        });
    }

    /// The active domain collection (empty while running in
    /// [`Degradation::NoDomains`] mode).
    pub fn domains(&self) -> &DomainCollection {
        &self.domains
    }

    /// Current degraded-service state, if any.
    pub fn degradation(&self) -> Option<&Degradation> {
        self.degradation.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &EsharpConfig {
        &self.config
    }

    /// e# search: expand the query through its expertise domain (when one
    /// matches exactly, §5), run the match for every related term, union
    /// the results and rank once with the configured Pal & Counts
    /// detector.
    pub fn search(&self, corpus: &Corpus, query: &str) -> SearchOutcome {
        self.search_with(corpus, query, &self.retriever)
    }

    /// e# search through any [`ExpertiseRetriever`] — the §7.1 seam:
    /// "our system can work with any Expertise Retrieval system".
    /// Expansion and matching are identical to [`Esharp::search`]; only
    /// the ranking strategy changes.
    pub fn search_with(
        &self,
        corpus: &Corpus,
        query: &str,
        retriever: &dyn ExpertiseRetriever,
    ) -> SearchOutcome {
        self.execute(corpus, &[query], retriever, self.config.expansion, None)
            .pop()
            .unwrap_or_default()
    }

    /// Batched e# search: one outcome per query, in order, each
    /// **bit-identical** to [`Esharp::search`] on that query alone
    /// (property-tested). The win is amortization, not approximation:
    /// every distinct term across the batch has its posting lists
    /// traversed once and the rank phase reuses one scratch checkout.
    ///
    /// Batch execution is unbounded (no deadline, hedging, or breakers):
    /// answers are always complete, which is what lets the serving layer
    /// cache them interchangeably with complete single-query answers.
    pub fn search_batch(&self, corpus: &Corpus, queries: &[&str]) -> Vec<SearchOutcome> {
        self.execute(
            corpus,
            queries,
            &self.retriever,
            self.config.expansion,
            None,
        )
    }

    /// [`Esharp::search`] under a request budget: shard tasks abandon
    /// past the deadline, hedges and breakers apply when the context
    /// enables them, and an answer missing shards carries
    /// [`SearchOutcome::partial`] with the exact absent-shard set. When
    /// every shard answers in time the outcome is bit-identical to
    /// [`Esharp::search`].
    pub fn search_bounded(
        &self,
        corpus: &Corpus,
        query: &str,
        ctx: &BoundedSearch<'_>,
    ) -> SearchOutcome {
        self.execute(
            corpus,
            &[query],
            &self.retriever,
            self.config.expansion,
            Some(ctx),
        )
        .pop()
        .unwrap_or_default()
    }

    /// The Pal & Counts baseline on the same corpus and detector settings
    /// (no expansion) — the comparison arm of every experiment. It reads
    /// no domains, so it is never marked degraded.
    pub fn search_baseline(&self, corpus: &Corpus, query: &str) -> SearchOutcome {
        let mut outcomes = self.execute(corpus, &[query], &self.retriever, false, None);
        let mut outcome = outcomes.pop().unwrap_or_default();
        outcome.degradation = None;
        outcome
    }

    /// The online pipeline, once: expand every query (or just lower-case
    /// it when `expand` is off), match the whole batch through
    /// [`Corpus::match_expansions`] — under `ctx`, or under a budget that
    /// never expires when there is none — and rank every match set
    /// through one [`ExpertiseRetriever::retrieve_batch`] call, both over
    /// the batch's distinct term sets. Every entry point above is this
    /// with a batch of one, no context, or no expansion.
    ///
    /// Phase timings are reported **amortized** (the phase cost divided
    /// evenly across the batch) so latency histograms fed per outcome
    /// still sum to the true cost; the shard accounting belongs to the
    /// one fan-out and is repeated on each of its outcomes.
    fn execute(
        &self,
        corpus: &Corpus,
        queries: &[&str],
        retriever: &dyn ExpertiseRetriever,
        expand: bool,
        ctx: Option<&BoundedSearch<'_>>,
    ) -> Vec<SearchOutcome> {
        let n = queries.len().max(1) as u32;
        let expansion_started = Instant::now();
        let expansions: Vec<Vec<String>> = queries
            .iter()
            .map(|query| {
                if expand {
                    self.domains.expand(query, self.config.max_expansion_terms)
                } else {
                    vec![query.to_lowercase()]
                }
            })
            .collect();
        let expansion_time = expansion_started.elapsed() / n;

        // The members of a domain all expand to the same terms, each in
        // its own order, and a union is a set operation: match and rank
        // every distinct term set once and hand the result to each query
        // that planned it.
        let match_started = Instant::now();
        let mut plan_index: HashMap<Vec<&str>, usize> = HashMap::new();
        let mut plans: Vec<&[String]> = Vec::new();
        let plan_of: Vec<usize> = expansions
            .iter()
            .map(|terms| {
                let mut key: Vec<&str> = terms.iter().map(String::as_str).collect();
                key.sort_unstable();
                key.dedup();
                *plan_index.entry(key).or_insert_with(|| {
                    plans.push(terms);
                    plans.len() - 1
                })
            })
            .collect();
        let no_deadline = Budget::wall(Duration::MAX);
        let unbounded = BoundedSearch::new(&no_deadline);
        let (matched, shards) = corpus.match_expansions(
            &plans,
            self.config.search_workers,
            ctx.unwrap_or(&unbounded),
        );
        let match_time = match_started.elapsed() / n;
        let rank_started = Instant::now();
        let experts = retriever.retrieve_batch(corpus, &matched);
        let rank_time = rank_started.elapsed() / n;

        let partial = shards.is_partial().then(|| PartialResult {
            shards_missing: shards.shards_missing.clone(),
            shards_skipped: shards.shards_skipped.clone(),
        });
        expansions
            .into_iter()
            .zip(plan_of)
            .map(|(expansion, plan)| SearchOutcome {
                experts: experts.get(plan).cloned().unwrap_or_default(),
                expansion,
                matched_tweets: matched.get(plan).map_or(0, Vec::len),
                expansion_time,
                detection_time: match_time + rank_time,
                match_time,
                rank_time,
                degradation: self.degradation.clone(),
                partial: partial.clone(),
                hedges: shards.hedges,
                hedge_wins: shards.hedge_wins,
                shard_panics: shards.shard_panics,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::run_offline;
    use esharp_microblog::{generate_corpus, CorpusConfig};
    use esharp_querylog::{AggregatedLog, LogConfig, LogGenerator, World, WorldConfig};

    fn system() -> (World, Corpus, Esharp) {
        let world = World::generate(&WorldConfig::tiny(51));
        let log = AggregatedLog::from_events(
            LogGenerator::new(&world, &LogConfig::tiny(51)),
            world.terms.len(),
        );
        let config = EsharpConfig::tiny();
        let artifacts = run_offline(&log, &world, &config).unwrap();
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(51));
        (world, corpus, Esharp::new(artifacts.domains, config))
    }

    #[test]
    fn expansion_never_reduces_matches() {
        let (world, corpus, esharp) = system();
        for domain in &world.domains {
            let query = &domain.label;
            let expanded = esharp.search(&corpus, query);
            let baseline = esharp.search_baseline(&corpus, query);
            assert!(
                expanded.matched_tweets >= baseline.matched_tweets,
                "{query}: expanded {} < baseline {}",
                expanded.matched_tweets,
                baseline.matched_tweets
            );
        }
    }

    #[test]
    fn expansion_finds_hidden_experts_for_the_49ers() {
        let (_, corpus, esharp) = system();
        let expanded = esharp.search(&corpus, "49ers");
        let baseline = esharp.search_baseline(&corpus, "49ers");
        assert!(expanded.expansion.len() > 1, "49ers query did not expand");
        assert!(
            expanded.experts.len() >= baseline.experts.len(),
            "expansion lost experts"
        );
    }

    #[test]
    fn unknown_queries_degrade_to_baseline() {
        let (_, corpus, esharp) = system();
        let out = esharp.search(&corpus, "completely unknown phrase");
        assert_eq!(out.expansion.len(), 1);
        assert!(out.experts.is_empty());
    }

    #[test]
    fn expansion_disabled_equals_baseline() {
        let (world, corpus, esharp) = system();
        let mut config = esharp.config().clone();
        config.expansion = false;
        let plain = Esharp::new(esharp.domains().clone(), config);
        let q = &world.domains[0].label;
        assert_eq!(
            plain.search(&corpus, q).experts,
            esharp.search_baseline(&corpus, q).experts
        );
    }

    #[test]
    fn reload_failure_keeps_last_known_good_domains() {
        let (_, corpus, mut esharp) = system();
        let healthy = esharp.search(&corpus, "49ers");
        assert!(healthy.degradation.is_none());

        // Point the refresh at a corrupt file: the reload errors, the old
        // collection keeps serving, and outcomes say so.
        let dir = std::env::temp_dir().join("esharp_online_reload");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("domains.bin");
        std::fs::write(&bad, b"ESRT garbage").unwrap();
        assert!(esharp.reload_domains(&bad).is_err());

        let degraded = esharp.search(&corpus, "49ers");
        assert_eq!(degraded.expansion, healthy.expansion, "stale domains must keep serving");
        assert_eq!(degraded.experts, healthy.experts);
        assert!(
            matches!(degraded.degradation, Some(Degradation::StaleDomains { .. })),
            "got {:?}",
            degraded.degradation
        );

        // A successful reload restores the healthy state.
        esharp.domains().save(dir.join("good.bin")).unwrap();
        esharp.reload_domains(dir.join("good.bin")).unwrap();
        assert!(esharp.search(&corpus, "49ers").degradation.is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_domains_degrade_to_unexpanded_pal_counts() {
        let (_, corpus, esharp) = system();
        let degraded = Esharp::from_domains_file_or_degraded(
            "/nonexistent/esharp/domains.bin",
            esharp.config().clone(),
        );
        assert!(matches!(
            degraded.degradation(),
            Some(Degradation::NoDomains { .. })
        ));
        let out = degraded.search(&corpus, "49ers");
        let baseline = esharp.search_baseline(&corpus, "49ers");
        assert_eq!(out.expansion.len(), 1, "no-domains mode must not expand");
        assert_eq!(out.experts, baseline.experts);
        assert!(matches!(out.degradation, Some(Degradation::NoDomains { .. })));
        // Strict constructor errors instead.
        assert!(Esharp::from_domains_file(
            "/nonexistent/esharp/domains.bin",
            esharp.config().clone()
        )
        .is_err());
    }

    #[test]
    fn a_batch_ranks_each_distinct_term_set_once() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        struct Counting(AtomicUsize);
        impl ExpertiseRetriever for Counting {
            fn retrieve(&self, corpus: &Corpus, matched: &[u32]) -> Vec<ExpertResult> {
                self.0.fetch_add(1, SeqCst);
                crate::retriever::PalCountsRetriever::default().retrieve(corpus, matched)
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }
        let (_, corpus, esharp) = system();
        // Every member of a domain small enough to expand whole plans
        // the same term set, each in its own order.
        let domain = esharp
            .domains()
            .domains()
            .iter()
            .find(|d| (2..=esharp.config().max_expansion_terms).contains(&d.len()))
            .expect("a multi-term domain");
        let mut queries: Vec<&str> = domain.iter().map(String::as_str).collect();
        queries.push("completely unknown phrase");
        let counting = Counting(AtomicUsize::new(0));
        let batch = esharp.execute(&corpus, &queries, &counting, true, None);
        assert_eq!(counting.0.load(SeqCst), 2, "one domain plus the unknown query");
        for (query, got) in queries.iter().zip(&batch) {
            let alone = esharp.search(&corpus, query);
            assert_eq!(got.expansion, alone.expansion, "{query}: its own term order");
            assert_eq!(got.expansion[0], *query);
            assert_eq!(got.experts, alone.experts, "{query}");
            assert_eq!(got.matched_tweets, alone.matched_tweets, "{query}");
        }
    }

    #[test]
    fn online_latency_is_interactive() {
        // Table 9: expansion < 100 ms, detection < 1 s. Generous CI-safe
        // bounds, but the order of magnitude must hold.
        let (_, corpus, esharp) = system();
        let out = esharp.search(&corpus, "49ers");
        assert!(out.expansion_time < Duration::from_millis(100));
        assert!(out.detection_time < Duration::from_secs(1));
    }
}
