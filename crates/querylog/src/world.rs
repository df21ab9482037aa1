//! The synthetic *world*: ground-truth expertise domains.
//!
//! This is the substitution for the paper's proprietary data (DESIGN.md §1).
//! A world holds a set of *domains* — topics of expertise, each with a pool
//! of query terms (canonical forms plus minted surface variants) and a pool
//! of URLs. The search-log generator ([`crate::loggen`]) and the microblog
//! corpus generator (`esharp-microblog`) both sample from the same world,
//! which is what lets the evaluation score results against ground truth.
//!
//! Besides randomly generated domains, a world can include hand-authored
//! *showcase* domains reproducing the paper's running examples (the 49ers
//! cluster of Figure 7, and the query subjects of Tables 2–7), including
//! the `football` ambiguity from the introduction.

use crate::variants::mint_variants;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a domain inside a [`World`].
pub type DomainId = u32;
/// Identifier of an interned term.
pub type TermId = u32;
/// Identifier of an interned URL.
pub type UrlId = u32;

/// The six query-set categories of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Sports topics (49ers, nascar, …).
    Sports,
    /// Consumer electronics (bluetooth, xbox, …).
    Electronics,
    /// Finance (nasdaq, dow futures, …).
    Finance,
    /// Health (diabetes, asthma, …).
    Health,
    /// Encyclopedic topics (world war II, beyonce, …).
    Wikipedia,
    /// Everything else (the "Top 250" set samples across all categories
    /// including this one).
    General,
}

/// All categories, in Table 1 order.
pub const ALL_CATEGORIES: [Category; 6] = [
    Category::Sports,
    Category::Electronics,
    Category::Finance,
    Category::Health,
    Category::Wikipedia,
    Category::General,
];

impl Category {
    /// Display name matching Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Sports => "Sports",
            Category::Electronics => "Electronics",
            Category::Finance => "Finance",
            Category::Health => "Health",
            Category::Wikipedia => "Wikipedia",
            Category::General => "General",
        }
    }
}

/// An interned query term.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TermInfo {
    /// Surface form (already lower-case).
    pub text: String,
    /// Domains this term belongs to (more than one ⇒ ambiguous, like
    /// `football` meaning different sports on different continents).
    pub domains: Vec<DomainId>,
}

/// A ground-truth expertise domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Domain {
    /// Identifier (index into [`World::domains`]).
    pub id: DomainId,
    /// Human-readable label — the canonical head term.
    pub label: String,
    /// Category for query-set construction.
    pub category: Category,
    /// Member terms; index 0 is the head term.
    pub terms: Vec<TermId>,
    /// Parallel to `terms`: true when the term is a minted surface
    /// variant (hashtag/initials/typo). Variants are *searched* but
    /// rarely *posted* — the vocabulary gap behind the paper's recall
    /// problem.
    pub variant_flags: Vec<bool>,
    /// URLs owned by this domain (clicks concentrate here).
    pub urls: Vec<UrlId>,
    /// Category hub URLs shared with sibling domains (espn.com style);
    /// clicked with lower probability, they create the *weak* inter-domain
    /// edges behind Figure 7's "closest communities".
    pub hub_urls: Vec<UrlId>,
    /// Relative popularity weight (already normalized across the world).
    pub popularity: f64,
}

impl Domain {
    /// Indices into `terms` of the canonical (non-variant) terms.
    pub fn canonical_terms(&self) -> Vec<TermId> {
        self.terms
            .iter()
            .zip(&self.variant_flags)
            .filter(|&(_, &is_variant)| !is_variant)
            .map(|(&t, _)| t)
            .collect()
    }

    /// The minted surface-variant terms.
    pub fn variant_terms(&self) -> Vec<TermId> {
        self.terms
            .iter()
            .zip(&self.variant_flags)
            .filter(|&(_, &is_variant)| is_variant)
            .map(|(&t, _)| t)
            .collect()
    }
}

/// Configuration for world generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Randomly generated domains per category.
    pub domains_per_category: usize,
    /// Inclusive range of canonical terms per domain.
    pub concepts_per_domain: (usize, usize),
    /// Inclusive range of minted variants per canonical term.
    pub variants_per_concept: (usize, usize),
    /// Inclusive range of URLs per domain.
    pub urls_per_domain: (usize, usize),
    /// Hub URLs per category.
    pub hub_urls_per_category: usize,
    /// Probability that a generated canonical term is shared with a second
    /// domain of a *different* category (ambiguity).
    pub ambiguity_prob: f64,
    /// Include the hand-authored showcase domains from the paper.
    pub include_showcase: bool,
    /// RNG seed; everything downstream is deterministic in this.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            domains_per_category: 40,
            concepts_per_domain: (2, 6),
            variants_per_concept: (0, 3),
            urls_per_domain: (3, 8),
            hub_urls_per_category: 4,
            ambiguity_prob: 0.02,
            include_showcase: true,
            seed: 0xE5A4,
        }
    }
}

impl WorldConfig {
    /// A tiny world for unit tests (fast, still exercises every feature).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            domains_per_category: 4,
            concepts_per_domain: (2, 4),
            variants_per_concept: (0, 2),
            urls_per_domain: (2, 4),
            hub_urls_per_category: 2,
            ambiguity_prob: 0.05,
            include_showcase: true,
            seed,
        }
    }
}

/// The generated ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct World {
    /// All domains.
    pub domains: Vec<Domain>,
    /// Interned terms.
    pub terms: Vec<TermInfo>,
    /// Interned URLs.
    pub urls: Vec<String>,
    /// Seed the world was generated from.
    pub seed: u64,
}

impl World {
    /// Generate a world from a configuration.
    pub fn generate(config: &WorldConfig) -> World {
        Builder::new(config).build()
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// The text of a term id.
    pub fn term_text(&self, id: TermId) -> &str {
        &self.terms[id as usize].text
    }

    /// The text of a URL id.
    pub fn url_text(&self, id: UrlId) -> &str {
        &self.urls[id as usize]
    }

    /// Look up a term id by its exact lower-case text.
    pub fn term_id(&self, text: &str) -> Option<TermId> {
        // Linear scan is fine: worlds hold tens of thousands of terms and
        // this is a test/demo convenience, not a hot path.
        self.terms
            .iter()
            .position(|t| t.text == text)
            .map(|i| i as TermId)
    }

    /// The domain a term belongs to (first, when ambiguous).
    pub fn primary_domain_of(&self, term: TermId) -> Option<DomainId> {
        self.terms[term as usize].domains.first().copied()
    }

    /// Domains of a category, most popular first.
    pub fn domains_in_category(&self, category: Category) -> Vec<&Domain> {
        let mut out: Vec<&Domain> = self
            .domains
            .iter()
            .filter(|d| d.category == category)
            .collect();
        out.sort_by(|a, b| b.popularity.total_cmp(&a.popularity));
        out
    }

    /// The showcase domain labelled `label`, if the world includes it.
    pub fn domain_by_label(&self, label: &str) -> Option<&Domain> {
        self.domains.iter().find(|d| d.label == label)
    }

    /// Persist the world (ground truth) to a JSON file, so an experiment
    /// can be re-scored later without regenerating it.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Load a world persisted by [`World::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<World> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(std::io::Error::other)
    }
}

// ------------------------------------------------------------------------
// Generation internals.

struct Builder<'a> {
    config: &'a WorldConfig,
    rng: StdRng,
    domains: Vec<Domain>,
    terms: Vec<TermInfo>,
    term_index: HashMap<String, TermId>,
    urls: Vec<String>,
    url_index: HashMap<String, UrlId>,
    /// Number of hand-authored showcase domains at the front of `domains`.
    showcase_count: usize,
}

/// Syllables used to mint pseudo-words. Chosen to be pronounceable so the
/// demo output reads naturally.
const SYLLABLES: [&str; 24] = [
    "ba", "ce", "di", "fo", "ga", "hu", "ji", "ka", "lo", "mi", "na", "pe", "qu", "ra", "so",
    "ta", "ve", "wi", "xo", "yu", "za", "bri", "sto", "cla",
];

impl<'a> Builder<'a> {
    fn new(config: &'a WorldConfig) -> Self {
        Builder {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            domains: Vec::new(),
            terms: Vec::new(),
            term_index: HashMap::new(),
            urls: Vec::new(),
            url_index: HashMap::new(),
            showcase_count: 0,
        }
    }

    fn build(mut self) -> World {
        // Hub URLs per category first, so random domains can reference them.
        let mut hubs: HashMap<Category, Vec<UrlId>> = HashMap::new();
        for category in ALL_CATEGORIES {
            let mut ids = Vec::new();
            for i in 0..self.config.hub_urls_per_category {
                let url = format!("{}-hub{}.com", category.name().to_lowercase(), i);
                ids.push(self.intern_url(&url));
            }
            hubs.insert(category, ids);
        }

        if self.config.include_showcase {
            self.add_showcase_domains(&hubs);
            self.showcase_count = self.domains.len();
        }

        for category in ALL_CATEGORIES {
            for _ in 0..self.config.domains_per_category {
                self.add_random_domain(category, &hubs);
            }
        }

        // Normalize popularity weights to sum to 1.
        let total: f64 = self.domains.iter().map(|d| d.popularity).sum();
        for d in &mut self.domains {
            d.popularity /= total;
        }

        World {
            domains: self.domains,
            terms: self.terms,
            urls: self.urls,
            seed: self.config.seed,
        }
    }

    fn intern_url(&mut self, url: &str) -> UrlId {
        if let Some(&id) = self.url_index.get(url) {
            return id;
        }
        let id = self.urls.len() as UrlId;
        self.urls.push(url.to_string());
        self.url_index.insert(url.to_string(), id);
        id
    }

    /// Intern a term and attach it to a domain.
    fn intern_term(&mut self, text: &str, domain: DomainId) -> TermId {
        let text = text.to_lowercase();
        if let Some(&id) = self.term_index.get(&text) {
            let info = &mut self.terms[id as usize];
            if !info.domains.contains(&domain) {
                info.domains.push(domain);
            }
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(TermInfo {
            text: text.clone(),
            domains: vec![domain],
        });
        self.term_index.insert(text, id);
        id
    }

    fn pseudo_word(&mut self) -> String {
        let syllables = self.rng.gen_range(2..=3);
        (0..syllables)
            .map(|_| SYLLABLES[self.rng.gen_range(0..SYLLABLES.len())])
            .collect()
    }

    fn add_random_domain(&mut self, category: Category, hubs: &HashMap<Category, Vec<UrlId>>) {
        let id = self.domains.len() as DomainId;
        let head = {
            // Head concept: one or two pseudo-words.
            if self.rng.gen_bool(0.4) {
                format!("{} {}", self.pseudo_word(), self.pseudo_word())
            } else {
                self.pseudo_word()
            }
        };

        let (lo, hi) = self.config.concepts_per_domain;
        let concepts = self.rng.gen_range(lo..=hi);
        let mut concept_texts = vec![head.clone()];
        for _ in 1..concepts {
            // Related concept: shares the head word half the time
            // ("49ers" → "49ers draft"), a fresh word otherwise (player
            // names etc.).
            let text = if self.rng.gen_bool(0.5) {
                format!("{} {}", head, self.pseudo_word())
            } else {
                format!("{} {}", self.pseudo_word(), self.pseudo_word())
            };
            concept_texts.push(text);
        }

        // Ambiguity: occasionally share a concept with an existing domain
        // of another category (the "football" effect). Showcase domains
        // are excluded — they already carry their own hand-authored
        // ambiguity (`football`), and keeping them clean makes the
        // Figure 7 and Tables 2–7 output legible.
        if self.rng.gen_bool(self.config.ambiguity_prob) && self.domains.len() > self.showcase_count
        {
            let other = self
                .rng
                .gen_range(self.showcase_count..self.domains.len());
            if self.domains[other].category != category {
                if let Some(&t) = self.domains[other].terms.first() {
                    let text = self.terms[t as usize].text.clone();
                    concept_texts.push(text);
                }
            }
        }

        // Mint variants and intern everything.
        let (vlo, vhi) = self.config.variants_per_concept;
        let mut term_ids = Vec::new();
        let mut variant_flags = Vec::new();
        for concept in &concept_texts {
            term_ids.push(self.intern_term(concept, id));
            variant_flags.push(false);
            let n = self.rng.gen_range(vlo..=vhi);
            let minted = mint_variants(concept, n, &mut self.rng);
            for v in minted {
                term_ids.push(self.intern_term(&v, id));
                variant_flags.push(true);
            }
        }
        // Dedup while keeping flags aligned (duplicates are rare: an
        // ambiguous shared concept may repeat).
        let mut seen = std::collections::HashSet::new();
        let mut deduped_terms = Vec::with_capacity(term_ids.len());
        let mut deduped_flags = Vec::with_capacity(term_ids.len());
        for (t, f) in term_ids.into_iter().zip(variant_flags) {
            if seen.insert(t) {
                deduped_terms.push(t);
                deduped_flags.push(f);
            }
        }
        let term_ids = deduped_terms;
        let variant_flags = deduped_flags;

        // URLs.
        let (ulo, uhi) = self.config.urls_per_domain;
        let n_urls = self.rng.gen_range(ulo..=uhi);
        let slug = head.replace(' ', "");
        let urls: Vec<UrlId> = (0..n_urls)
            .map(|i| {
                let url = format!("{slug}-{i}.com");
                self.intern_url(&url)
            })
            .collect();

        // Popularity: log-normal weight ⇒ Zipf-ish ranking after sorting.
        let popularity = crate::dist::LogNormal::new(0.0, 1.4).sample(&mut self.rng);

        self.domains.push(Domain {
            id,
            label: head,
            category,
            terms: term_ids,
            variant_flags,
            urls,
            hub_urls: hubs[&category].clone(),
            popularity,
        });
    }

    /// Hand-authored domains reproducing the paper's running examples.
    /// Each entry: (label, category, canonical terms, surface variants,
    /// urls, popularity weight). Variants are searched but rarely posted.
    fn add_showcase_domains(&mut self, hubs: &HashMap<Category, Vec<UrlId>>) {
        type Entry = (
            &'static str,
            Category,
            &'static [&'static str],
            &'static [&'static str],
            &'static [&'static str],
            f64,
        );
        let showcase: [Entry; 11] = [
            (
                "49ers",
                Category::Sports,
                &["49ers", "49ers draft", "bruce ellington", "vernon davis", "49ers news"],
                &["niners", "sf 49ers", "#49ers"],
                &["49ers.com", "ninersnation.com", "49ers-blog.com", "ninersdigest.com", "49ers-forum.com"],
                6.0,
            ),
            (
                "nfl",
                Category::Sports,
                &["nfl", "football", "nfl draft", "nfl scores"],
                &["american football"],
                &["nfl.com", "nfl-news.com", "gridiron-today.com", "nfl-rumors.com"],
                8.0,
            ),
            (
                "soccer",
                Category::Sports,
                // The intro's ambiguity: `football` names a different sport
                // in Europe — shared term, different domain.
                &["soccer", "football", "premier league"],
                &["fotbal", "foot"],
                &["uefa.com", "premierleague.com", "worldfootball-daily.com", "goalwire.com"],
                5.0,
            ),
            (
                "san francisco",
                Category::Wikipedia,
                &["san francisco", "san francisco tourism", "golden gate"],
                &["#sanfrancisco", "sf"],
                &["sftravel.com", "sanfrancisco.gov", "sf-city-guide.com", "goldengatepark.org"],
                4.0,
            ),
            (
                "sf gate",
                Category::General,
                &["sf gate", "sf gate sports"],
                &["sfgate"],
                &["sfgate.com", "sfgate-archive.com", "sfgate-blogs.com"],
                2.0,
            ),
            (
                "colin kaepernick",
                Category::Sports,
                &["colin kaepernick"],
                &["kaepernick", "kaep"],
                &["kaepernick7.com", "kaep-highlights.com", "qb-profiles.com"],
                3.0,
            ),
            (
                "bluetooth speakers",
                Category::Electronics,
                &["bluetooth speakers", "bluetooth", "portable speaker"],
                &["wireless speakers", "bluetooth speaker reviews"],
                &["speakerhub.com", "audioreview.com"],
                5.0,
            ),
            (
                "dow futures",
                Category::Finance,
                &["dow futures", "dow jones", "dow"],
                &["djia futures", "stock futures"],
                &["markets-live.com", "futures-watch.com"],
                5.0,
            ),
            (
                "diabetes",
                Category::Health,
                &["diabetes", "type 1 diabetes", "diabetes symptoms", "insulin"],
                &["t1d", "#stopdiabetes"],
                &["diabetes.org", "diabetesnews.com"],
                5.0,
            ),
            (
                "world war i",
                Category::Wikipedia,
                &["world war i", "first world war"],
                &["ww1", "world war 1", "1914 1918"],
                &["ww1-history.org", "greatwar.co.uk"],
                3.0,
            ),
            (
                "sarah palin",
                Category::General,
                &["sarah palin", "sarah palin news"],
                &["palin", "#palin"],
                &["palin-news.com"],
                4.0,
            ),
        ];

        for (label, category, canonical, variants, urls, weight) in showcase {
            let id = self.domains.len() as DomainId;
            let mut term_ids = Vec::new();
            let mut variant_flags = Vec::new();
            for t in canonical {
                term_ids.push(self.intern_term(t, id));
                variant_flags.push(false);
            }
            for t in variants {
                term_ids.push(self.intern_term(t, id));
                variant_flags.push(true);
            }
            let url_ids: Vec<UrlId> = urls.iter().map(|u| self.intern_url(u)).collect();
            self.domains.push(Domain {
                id,
                label: label.to_string(),
                category,
                terms: term_ids,
                variant_flags,
                urls: url_ids,
                hub_urls: hubs[&category].clone(),
                popularity: weight,
            });
        }

        // Weak cross-domain URL sharing between the related showcase
        // topics, mirroring reality (espn.com serves both the 49ers and
        // the NFL; SF Gate covers the city and the team). These shared
        // tail URLs produce the weak inter-community edges Figure 7
        // visualizes as "closest communities".
        let shared: [(&str, &[&str]); 3] = [
            ("bayarea-news.com", &["49ers", "san francisco", "sf gate"]),
            ("pro-football-report.com", &["nfl", "colin kaepernick", "49ers"]),
            ("worldsport-live.com", &["nfl", "soccer"]),
        ];
        for (url, labels) in shared {
            let url_id = self.intern_url(url);
            for label in labels {
                if let Some(domain) = self.domains.iter_mut().find(|d| d.label == *label) {
                    domain.urls.push(url_id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_deterministic_in_seed() {
        let a = World::generate(&WorldConfig::tiny(9));
        let b = World::generate(&WorldConfig::tiny(9));
        assert_eq!(a.urls, b.urls);
        assert_eq!(a.terms.len(), b.terms.len());
        assert_eq!(a.domains.len(), b.domains.len());
        let c = World::generate(&WorldConfig::tiny(10));
        assert_ne!(
            a.terms.iter().map(|t| &t.text).collect::<Vec<_>>(),
            c.terms.iter().map(|t| &t.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn showcase_domains_present_with_paper_terms() {
        let w = World::generate(&WorldConfig::tiny(1));
        let niners = w.domain_by_label("49ers").expect("49ers domain");
        let texts: Vec<&str> = niners.terms.iter().map(|&t| w.term_text(t)).collect();
        assert!(texts.contains(&"niners"));
        assert!(texts.contains(&"vernon davis"));
        assert!(w.domain_by_label("dow futures").is_some());
        assert!(w.domain_by_label("sarah palin").is_some());
    }

    #[test]
    fn football_is_ambiguous_between_nfl_and_soccer() {
        let w = World::generate(&WorldConfig::tiny(1));
        let football = w.term_id("football").expect("football term");
        let domains = &w.terms[football as usize].domains;
        assert_eq!(domains.len(), 2, "football should belong to two domains");
        let labels: Vec<&str> = domains
            .iter()
            .map(|&d| w.domains[d as usize].label.as_str())
            .collect();
        assert!(labels.contains(&"nfl"));
        assert!(labels.contains(&"soccer"));
    }

    #[test]
    fn popularity_normalized() {
        let w = World::generate(&WorldConfig::tiny(3));
        let total: f64 = w.domains.iter().map(|d| d.popularity).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn terms_are_lowercase_and_domains_consistent() {
        let w = World::generate(&WorldConfig::tiny(5));
        for t in &w.terms {
            assert_eq!(t.text, t.text.to_lowercase());
            assert!(!t.domains.is_empty());
        }
        for d in &w.domains {
            assert!(!d.terms.is_empty());
            assert!(!d.urls.is_empty());
            for &t in &d.terms {
                assert!(
                    w.terms[t as usize].domains.contains(&d.id),
                    "term {} missing backlink to domain {}",
                    w.term_text(t),
                    d.label
                );
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let w = World::generate(&WorldConfig::tiny(77));
        let dir = std::env::temp_dir().join("esharp_world_io_test");
        let path = dir.join("world.json");
        w.save(&path).unwrap();
        let back = World::load(&path).unwrap();
        assert_eq!(back.domains.len(), w.domains.len());
        assert_eq!(back.urls, w.urls);
        assert_eq!(back.term_id("49ers"), w.term_id("49ers"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn categories_all_populated() {
        let w = World::generate(&WorldConfig::tiny(2));
        for c in ALL_CATEGORIES {
            assert!(
                !w.domains_in_category(c).is_empty(),
                "category {c:?} empty"
            );
        }
    }
}
