//! The streaming path's core invariant, property-tested: after any
//! interleaving of appends, deletes, and compactions, a final compaction
//! yields a corpus **bit-identical** (under the binary encoding) to a
//! from-scratch `Corpus::new` rebuild of the same users and live tweets.
//! The reference model is a slot list mirroring the tweet array — `None`
//! for tombstones, densely renumbered in topic order at each compaction
//! by the string-keyed reference order — so delete targets and id remaps
//! are computed independently of the code under test.

use esharp_ingest::{IngestOp, LiveCorpus};
use esharp_microblog::segio;
use esharp_microblog::{topic_order_reference, Corpus, Tweet, User};
use proptest::prelude::*;

/// One scripted step: (action selector, target selector, tweet text).
type Step = (u8, usize, String);

/// Reference state: users in creation order, tweet slots mirroring the
/// corpus tweet array (`None` = tombstoned).
#[derive(Default)]
struct Model {
    users: Vec<String>,
    slots: Vec<Option<(u32, String)>>,
}

impl Model {
    /// Drop the tombstones and renumber the survivors densely, in the
    /// topic order a build assigns ids in (computed by the plain
    /// string-keyed reference, not by the code under test).
    fn compact(&mut self) {
        let live: Vec<(u32, String)> = self.slots.drain(..).flatten().collect();
        let keyed: Vec<(u32, &str)> = live.iter().map(|(a, t)| (*a, t.as_str())).collect();
        self.slots = topic_order_reference(&keyed)
            .into_iter()
            .map(|i| Some(live[i].clone()))
            .collect();
    }

    /// The cold rebuild: `Corpus::new` over the current live state, as
    /// the weekly offline pipeline would have built it.
    fn rebuild(&self) -> Corpus {
        let users: Vec<User> = self
            .users
            .iter()
            .enumerate()
            .map(|(id, handle)| User {
                id: id as u32,
                handle: handle.clone(),
                display_name: format!("User {handle}"),
                description: format!("about {handle}"),
                followers: id as u64 * 13,
                verified: id % 3 == 0,
                expert_domains: Vec::new(),
                spam: false,
            })
            .collect();
        let tweets: Vec<Tweet> = self
            .slots
            .iter()
            .flatten()
            .enumerate()
            .map(|(id, (author, text))| Tweet::parse(id as u32, *author, text, |_| None))
            .collect();
        Corpus::new(users, tweets)
    }
}

/// Interpret one step against both the live corpus and the model,
/// returning the op applied (if any).
fn run_step(live: &LiveCorpus, model: &mut Model, step: &Step) {
    let (action, target, text) = step;
    match action {
        // ~15%: register a user.
        0..=14 => {
            let handle = format!("u{}", model.users.len());
            let op = IngestOp::AddUser {
                handle: handle.clone(),
                display_name: format!("User {handle}"),
                description: format!("about {handle}"),
                followers: model.users.len() as u64 * 13,
                verified: model.users.len().is_multiple_of(3),
            };
            live.apply(&op).unwrap();
            model.users.push(handle);
        }
        // ~55%: append a tweet from an existing user.
        15..=69 => {
            if model.users.is_empty() {
                return;
            }
            let author = target % model.users.len();
            let op = IngestOp::Append {
                author: model.users[author].clone(),
                text: text.clone(),
            };
            live.apply(&op).unwrap();
            model.slots.push(Some((author as u32, text.clone())));
        }
        // ~15%: tombstone a live tweet.
        70..=84 => {
            let live_ids: Vec<usize> = (0..model.slots.len())
                .filter(|&i| model.slots[i].is_some())
                .collect();
            if live_ids.is_empty() {
                return;
            }
            let id = live_ids[target % live_ids.len()];
            live.apply(&IngestOp::Delete { id: id as u32 }).unwrap();
            model.slots[id] = None;
        }
        // ~15%: compact mid-stream.
        _ => {
            live.compact().unwrap();
            model.compact();
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..=99, 0usize..1024, "[a-z ]{1,24}"), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In-memory interleavings: final compaction ≡ cold rebuild, byte
    /// for byte.
    #[test]
    fn compaction_is_bit_identical_to_cold_rebuild(script in steps()) {
        let live = LiveCorpus::new(Corpus::new(Vec::new(), Vec::new()));
        let mut model = Model::default();
        for step in &script {
            run_step(&live, &mut model, step);
            // The merged read path agrees with the model at every step,
            // not just at compaction boundaries.
            prop_assert_eq!(
                live.read().corpus().live_tweet_count(),
                model.slots.iter().flatten().count()
            );
        }
        live.compact().unwrap();
        model.compact();
        let streamed = segio::encode(live.read().corpus(), 1).unwrap();
        let rebuilt = segio::encode(&model.rebuild(), 1).unwrap();
        prop_assert_eq!(streamed, rebuilt);
    }

    /// Persistent interleavings: crash (drop) at the end, reopen, replay
    /// the oplog — then the reopened instance compacts to the same bytes
    /// as the cold rebuild. Durability composes with the bit-identical
    /// guarantee.
    #[test]
    fn reopen_replay_then_compact_matches_cold_rebuild(script in steps()) {
        let dir = std::env::temp_dir().join(format!(
            "esharp_ingest_prop_{}_{}",
            std::process::id(),
            script.len() * 1000 + script.first().map_or(0, |s| s.1)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.bin");
        let oplog_path = dir.join("oplog");

        let live = LiveCorpus::create(
            Corpus::new(Vec::new(), Vec::new()),
            &corpus_path,
            &oplog_path,
        )
        .unwrap();
        let mut model = Model::default();
        for step in &script {
            run_step(&live, &mut model, step);
        }
        let before: Vec<u32> = live.read().corpus().match_query("a");
        drop(live); // simulated crash: no final compaction, no shutdown

        let reopened = LiveCorpus::open(&corpus_path, &oplog_path).unwrap();
        prop_assert_eq!(reopened.read().corpus().match_query("a"), before);
        reopened.compact().unwrap();
        model.compact();
        let streamed = segio::encode(reopened.read().corpus(), 1).unwrap();
        let rebuilt = segio::encode(&model.rebuild(), 1).unwrap();
        prop_assert_eq!(streamed, rebuilt);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
