//! # esharp-microblog
//!
//! Microblog (Twitter-like) corpus substrate for the e# reproduction
//! (EDBT 2016). The paper's detector consumes tweet text, authorship,
//! mentions and retweets; its corpus is proprietary, so this crate
//! provides both the data model and a synthetic generator driven by the
//! same ground-truth `World` as the search log (DESIGN.md §1).
//!
//! * [`User`], [`Tweet`] — entities, with mention/retweet parsing.
//! * [`Corpus`] — indexed corpus: interned tokens ([`SymbolTable`]),
//!   flat CSR postings ([`PostingsIndex`], each list a run list of
//!   adjacent tweet ids), conjunctive all-terms query matching (§3) with
//!   run-wise expansion unions, the rank-side
//!   [`TweetColumns`] (flat author / retweet / mention arrays and the
//!   per-user totals that are the TS/MI/RI denominators), persisted as
//!   one checksummed corpus file ([`segio`], `corpus.bin`, zero-rebuild
//!   load).
//! * [`generate_corpus`] — expert/regular/spam account generation with
//!   topically concentrated experts and short posts (the recall problem
//!   e# exists to fix).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounded;
mod columns;
mod corpus;
pub mod index;
mod intern;
mod order;
pub mod segio;
mod synth;
pub mod tokenize;
mod types;

pub use bounded::{BoundedSearch, ShardOutcome};
pub use columns::{TweetColumns, UserTotals, NO_RETWEET};
pub use corpus::Corpus;
pub use index::{PostingsIndex, PostingsShard};
pub use intern::SymbolTable;
pub use order::topic_order_reference;
pub use segio::LoadMode;
pub use synth::{generate_corpus, generate_corpus_streaming, CorpusConfig};
pub use types::{TokenId, Tweet, TweetId, User, UserId};
