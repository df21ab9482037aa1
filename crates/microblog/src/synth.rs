//! Synthetic microblog corpus generation.
//!
//! Stands in for the paper's Twitter firehose (DESIGN.md §1). The
//! generator samples from the same ground-truth [`World`] as the search
//! log, so the evaluation can score detected experts against known labels.
//!
//! Account types:
//! * **Experts** — attached to specific domains; most of their posts are
//!   on-domain, and other users preferentially mention and retweet them
//!   (giving the TS/MI/RI features real signal).
//! * **Regulars** — a handful of interest domains, lower volume, rarely
//!   mentioned.
//! * **Spammers** — post across random domains with no concentration (the
//!   "spam, fake accounts" noise the paper calls out).
//!
//! Posts are short (one or two topical terms plus filler), so an expert
//! who tweets `niners` is invisible to a literal `49ers` query — the
//! sparsity that motivates e#'s query expansion.

use crate::corpus::Corpus;
use crate::types::{Tweet, TweetId, User, UserId};
use esharp_querylog::dist::LogNormal;
use esharp_querylog::{DomainId, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Corpus generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Experts minted per domain (inclusive range).
    pub experts_per_domain: (usize, usize),
    /// Regular (non-expert) accounts.
    pub regular_users: usize,
    /// Spam accounts.
    pub spam_users: usize,
    /// Log-normal (mu, sigma) of tweets per expert.
    pub expert_tweets: (f64, f64),
    /// Log-normal (mu, sigma) of tweets per regular/spam account.
    pub regular_tweets: (f64, f64),
    /// Probability an expert's post is on one of their own domains.
    pub expert_concentration: f64,
    /// Probability a post mentions a same-domain expert.
    pub mention_prob: f64,
    /// Probability a post is a retweet of a same-domain expert.
    pub retweet_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            experts_per_domain: (2, 4),
            regular_users: 400,
            spam_users: 40,
            expert_tweets: (3.4, 0.6),  // median ≈ 30 posts
            regular_tweets: (2.0, 0.7), // median ≈ 7 posts
            expert_concentration: 0.85,
            mention_prob: 0.25,
            retweet_prob: 0.15,
            seed: 0x7717,
        }
    }
}

impl CorpusConfig {
    /// Small configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        CorpusConfig {
            experts_per_domain: (1, 2),
            regular_users: 60,
            spam_users: 8,
            seed,
            ..CorpusConfig::default()
        }
    }

    /// Load-test configuration: ≥1M accounts producing ≥10M tweets
    /// (regular-volume mean ≈ e^(2.1+0.7²/2) ≈ 10.4 posts/account).
    /// Build it with [`generate_corpus_streaming`] — the batch generator
    /// works too, but the streaming build never holds a second tweet
    /// list: its peak memory is the finished corpus plus the layout's
    /// input token arena and sort keys.
    pub fn large(seed: u64) -> Self {
        CorpusConfig {
            experts_per_domain: (8, 16),
            regular_users: 1_000_000,
            spam_users: 50_000,
            regular_tweets: (2.1, 0.7),
            seed,
            ..CorpusConfig::default()
        }
    }
}

const FILLER: [&str; 18] = [
    "great", "today", "watch", "new", "the", "win", "update", "breaking", "love", "best",
    "live", "now", "big", "news", "this", "season", "really", "so",
];

const HANDLE_SUFFIX: [&str; 8] = [
    "news", "fan", "daily", "hub", "watch", "talk", "zone", "source",
];

const DESC_TEMPLATES: [&str; 6] = [
    "All news about {}",
    "Your source for all breaking {} updates",
    "Huge {} fan. LET'S GO!",
    "Covering {} since 2009",
    "{} analysis and opinion",
    "We deliver the latest {} news every day",
];

/// Where generated tweets land. Both corpus builders run the exact same
/// generation code against the exact same RNG stream — only the sink
/// differs — so their outputs are bit-identical by construction.
trait TweetSink {
    /// The fixed user table (handles are needed to compose mention text).
    fn users(&self) -> &[User];
    /// The id the next accepted tweet must carry.
    fn next_id(&self) -> TweetId;
    /// Accept one generated tweet.
    fn accept(&mut self, tweet: Tweet);
}

/// Batch sink: collect tweets for a one-shot [`Corpus::new`].
struct VecSink {
    users: Vec<User>,
    tweets: Vec<Tweet>,
}

impl TweetSink for VecSink {
    fn users(&self) -> &[User] {
        &self.users
    }
    fn next_id(&self) -> TweetId {
        self.tweets.len() as TweetId
    }
    fn accept(&mut self, tweet: Tweet) {
        self.tweets.push(tweet);
    }
}

impl TweetSink for crate::corpus::CorpusBuilder {
    fn users(&self) -> &[User] {
        self.users()
    }
    fn next_id(&self) -> TweetId {
        self.next_tweet_id()
    }
    fn accept(&mut self, tweet: Tweet) {
        self.push_tweet(tweet);
    }
}

/// Generate an indexed corpus from a world.
pub fn generate_corpus(world: &World, config: &CorpusConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (users, experts_of_domain) = generate_users(world, config, &mut rng);
    let mut sink = VecSink {
        users,
        tweets: Vec::new(),
    };
    generate_tweets(world, config, &experts_of_domain, &mut rng, &mut sink);
    Corpus::new(sink.users, sink.tweets)
}

/// Generate an indexed corpus from a world, tokenizing and interning
/// each tweet as it is produced instead of materializing the full tweet
/// list and re-walking it. Bit-identical to [`generate_corpus`] for the
/// same world and config; peak memory is the finished corpus plus the
/// layout's input token arena and sort keys. This is
/// how the [`CorpusConfig::large`] scale (1M users, 10M tweets) is
/// built.
pub fn generate_corpus_streaming(world: &World, config: &CorpusConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (users, experts_of_domain) = generate_users(world, config, &mut rng);
    let mut builder = crate::corpus::CorpusBuilder::new(users);
    generate_tweets(world, config, &experts_of_domain, &mut rng, &mut builder);
    builder.finish()
}

/// Mint the account population: per-domain experts, regulars, spammers.
fn generate_users(
    world: &World,
    config: &CorpusConfig,
    rng: &mut StdRng,
) -> (Vec<User>, Vec<Vec<UserId>>) {
    let mut users: Vec<User> = Vec::new();

    // --- Experts, per domain.
    let mut experts_of_domain: Vec<Vec<UserId>> = vec![Vec::new(); world.num_domains()];
    for domain in &world.domains {
        let (lo, hi) = config.experts_per_domain;
        let count = rng.gen_range(lo..=hi);
        for i in 0..count {
            let id = users.len() as UserId;
            let slug: String = domain
                .label
                .chars()
                .filter(|c| c.is_alphanumeric())
                .collect();
            let suffix = HANDLE_SUFFIX[rng.gen_range(0..HANDLE_SUFFIX.len())];
            let handle = format!("{slug}{suffix}{i}");
            let followers = LogNormal::new(6.0, 1.8).sample(rng) as u64;
            let template = DESC_TEMPLATES[rng.gen_range(0..DESC_TEMPLATES.len())];
            users.push(User {
                id,
                handle: handle.clone(),
                display_name: title_case(&format!("{} {}", domain.label, suffix)),
                description: template.replace("{}", &domain.label),
                followers,
                verified: followers > 20_000 && rng.gen_bool(0.5),
                expert_domains: vec![domain.id],
                spam: false,
            });
            experts_of_domain[domain.id as usize].push(id);
        }
    }

    // --- Regular users.
    for i in 0..config.regular_users {
        let id = users.len() as UserId;
        let followers = LogNormal::new(3.5, 1.2).sample(rng) as u64;
        users.push(User {
            id,
            handle: format!("user{i}"),
            display_name: format!("User {i}"),
            description: "just here for the timeline".to_string(),
            followers,
            verified: false,
            expert_domains: vec![],
            spam: false,
        });
    }

    // --- Spammers.
    for i in 0..config.spam_users {
        let id = users.len() as UserId;
        users.push(User {
            id,
            handle: format!("dealbot{i}"),
            display_name: format!("Best Deals {i}"),
            description: "amazing deals every hour, click now".to_string(),
            followers: rng.gen_range(0..50),
            verified: false,
            expert_domains: vec![],
            spam: true,
        });
    }

    (users, experts_of_domain)
}

/// Generate every tweet, in deterministic user order, into `sink`.
fn generate_tweets(
    world: &World,
    config: &CorpusConfig,
    experts_of_domain: &[Vec<UserId>],
    rng: &mut StdRng,
    sink: &mut impl TweetSink,
) {
    let expert_volume = LogNormal::new(config.expert_tweets.0, config.expert_tweets.1);
    let regular_volume = LogNormal::new(config.regular_tweets.0, config.regular_tweets.1);
    let num_users = sink.users().len();
    for uid in 0..num_users as UserId {
        let (is_expert, is_spam, own_domains) = {
            let u = &sink.users()[uid as usize];
            (!u.expert_domains.is_empty(), u.spam, u.expert_domains.clone())
        };
        let volume = if is_expert {
            expert_volume.sample(rng)
        } else {
            regular_volume.sample(rng)
        }
        .round()
        .max(1.0) as usize;

        // Regulars hold a few stable interests.
        let interests: Vec<DomainId> = if is_expert {
            own_domains.clone()
        } else {
            let k = rng.gen_range(2..=4);
            (0..k)
                .map(|_| rng.gen_range(0..world.num_domains()) as DomainId)
                .collect()
        };

        for _ in 0..volume {
            let domain_id = if is_spam {
                rng.gen_range(0..world.num_domains()) as DomainId
            } else if is_expert && rng.gen_bool(config.expert_concentration) {
                own_domains[rng.gen_range(0..own_domains.len())]
            } else if !is_expert && !interests.is_empty() && rng.gen_bool(0.8) {
                interests[rng.gen_range(0..interests.len())]
            } else {
                rng.gen_range(0..world.num_domains()) as DomainId
            };
            let tweet = compose_tweet(
                sink.next_id(),
                uid,
                domain_id,
                world,
                experts_of_domain,
                sink.users(),
                config,
                rng,
            );
            sink.accept(tweet);
        }
    }
}

/// Compose one post about `domain`: one or two of the domain's terms,
/// filler, and possibly a mention or retweet of a same-domain expert.
#[allow(clippy::too_many_arguments)]
fn compose_tweet(
    id: TweetId,
    author: UserId,
    domain: DomainId,
    world: &World,
    experts_of_domain: &[Vec<UserId>],
    users: &[User],
    config: &CorpusConfig,
    rng: &mut StdRng,
) -> Tweet {
    let d = &world.domains[domain as usize];
    // Posts use the domain's *canonical* vocabulary, geometrically
    // head-skewed; minted surface variants (hashtags, typos, initials)
    // are searched far more than they are posted. This vocabulary gap is
    // the paper's recall problem: a query for a variant matches no tweet
    // verbatim, yet its domain's experts are all there.
    let canonical = d.canonical_terms();
    let variants = d.variant_terms();
    let pick_term = |rng: &mut StdRng| {
        let pool = if !variants.is_empty() && rng.gen_bool(0.02) {
            &variants
        } else if !canonical.is_empty() {
            &canonical
        } else {
            &d.terms
        };
        let mut idx = 0;
        while idx + 1 < pool.len() && rng.gen_bool(0.35) {
            idx += 1;
        }
        let term = world.term_text(pool[idx]);
        // Posts often drop the qualifier of a multi-word concept
        // ("49ers draft" → just "49ers"), which defeats the detector's
        // conjunctive all-terms matching for the full phrase.
        if term.contains(' ') && rng.gen_bool(0.4) {
            term.split_whitespace().next().unwrap_or(term).to_string()
        } else {
            term.to_string()
        }
    };

    let mut body = String::new();
    body.push_str(FILLER[rng.gen_range(0..FILLER.len())]);
    body.push(' ');
    body.push_str(&pick_term(rng));
    if rng.gen_bool(0.3) {
        body.push(' ');
        body.push_str(&pick_term(rng));
    }
    body.push(' ');
    body.push_str(FILLER[rng.gen_range(0..FILLER.len())]);

    let experts = &experts_of_domain[domain as usize];
    let mut mentions: Vec<UserId> = Vec::new();
    let mut retweet_of = None;

    let candidates: Vec<UserId> = experts.iter().copied().filter(|&e| e != author).collect();
    if !candidates.is_empty() && rng.gen_bool(config.retweet_prob) {
        let target = candidates[rng.gen_range(0..candidates.len())];
        body = format!("rt @{}: {}", users[target as usize].handle, body);
        retweet_of = Some(target);
        mentions.push(target);
    } else if !candidates.is_empty() && rng.gen_bool(config.mention_prob) {
        let target = candidates[rng.gen_range(0..candidates.len())];
        body = format!("{} @{}", body, users[target as usize].handle);
        mentions.push(target);
    }

    Tweet {
        id,
        author,
        text: body,
        mentions,
        retweet_of,
    }
}

fn title_case(s: &str) -> String {
    s.split_whitespace()
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_querylog::WorldConfig;

    fn build() -> (World, Corpus) {
        let world = World::generate(&WorldConfig::tiny(21));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(21));
        (world, corpus)
    }

    #[test]
    fn corpus_is_deterministic() {
        let world = World::generate(&WorldConfig::tiny(21));
        let a = generate_corpus(&world, &CorpusConfig::tiny(5));
        let b = generate_corpus(&world, &CorpusConfig::tiny(5));
        assert_eq!(a.users().len(), b.users().len());
        assert_eq!(a.tweets().len(), b.tweets().len());
        assert_eq!(a.tweets()[10].text, b.tweets()[10].text);
    }

    #[test]
    fn streaming_build_is_bit_identical_to_batch() {
        let world = World::generate(&WorldConfig::tiny(21));
        let config = CorpusConfig::tiny(9);
        let batch = generate_corpus(&world, &config);
        let streamed = generate_corpus_streaming(&world, &config);
        assert_eq!(batch.users().len(), streamed.users().len());
        assert_eq!(batch.tweets().len(), streamed.tweets().len());
        assert_eq!(
            crate::segio::encode(&batch, 1).unwrap(),
            crate::segio::encode(&streamed, 1).unwrap()
        );
    }

    #[test]
    fn every_domain_has_experts() {
        let (world, corpus) = build();
        for d in &world.domains {
            let count = corpus
                .users()
                .iter()
                .filter(|u| u.expert_domains.contains(&d.id))
                .count();
            assert!(count >= 1, "domain {} has no experts", d.label);
        }
    }

    #[test]
    fn experts_are_topically_concentrated() {
        let (world, corpus) = build();
        // Pick one expert; most of their tweets must mention their domain's
        // vocabulary.
        let expert = corpus
            .users()
            .iter()
            .find(|u| !u.expert_domains.is_empty())
            .unwrap();
        let domain = &world.domains[expert.expert_domains[0] as usize];
        let domain_words: Vec<String> = domain
            .terms
            .iter()
            .flat_map(|&t| world.term_text(t).split_whitespace())
            .map(str::to_string)
            .collect();
        let own: Vec<&Tweet> = corpus
            .tweets()
            .iter()
            .filter(|t| t.author == expert.id)
            .collect();
        let on_topic = own
            .iter()
            .filter(|t| {
                crate::tokenize::tokenize(&t.text)
                    .iter()
                    .any(|tok| domain_words.contains(tok))
            })
            .count();
        assert!(
            on_topic * 2 > own.len(),
            "expert {} on-topic {}/{}",
            expert.handle,
            on_topic,
            own.len()
        );
    }

    #[test]
    fn mentions_and_retweets_flow_to_experts() {
        let (_, corpus) = build();
        let expert_mentions: u64 = corpus
            .users()
            .iter()
            .filter(|u| !u.expert_domains.is_empty())
            .map(|u| corpus.mentions_of(u.id))
            .sum();
        assert!(expert_mentions > 0, "no expert was ever mentioned");
        let expert_retweets: u64 = corpus
            .users()
            .iter()
            .filter(|u| !u.expert_domains.is_empty())
            .map(|u| corpus.retweets_of(u.id))
            .sum();
        assert!(expert_retweets > 0, "no expert was ever retweeted");
    }

    #[test]
    fn retweet_text_round_trips_through_parser() {
        let (_, corpus) = build();
        let rt = corpus
            .tweets()
            .iter()
            .find(|t| t.retweet_of.is_some())
            .expect("some retweets exist");
        let reparsed = Tweet::parse(rt.id, rt.author, rt.text.clone(), |h| {
            corpus.user_by_handle(h)
        });
        assert_eq!(reparsed.retweet_of, rt.retweet_of);
        assert_eq!(reparsed.mentions, rt.mentions);
    }
}
