//! `esharp-ingest` — streaming index maintenance for e#.
//!
//! The offline pipeline (esharp-core) builds expertise models from a
//! corpus snapshot; before this crate, keeping the index fresh meant a
//! weekly full rebuild. `esharp-ingest` replaces that with an LSM-style
//! maintenance loop:
//!
//! 1. **Delta segments** — new users and tweets are absorbed into the
//!    corpus's append-only delta overlay (`esharp_microblog::Corpus`),
//!    interned through the existing `TokenId` symbol table; deletions
//!    become tombstones filtered on the read path. Queries see every
//!    acked op immediately.
//! 2. **Write-ahead oplog** — with persistence configured, each batch is
//!    CRC-framed and fsynced to the oplog *before* it is applied, so a
//!    crash replays exactly the acked history ([`LiveCorpus::open`]).
//! 3. **Zero-downtime compaction** — a background thread
//!    ([`Compactor`]) folds the delta into a fresh base off-lock,
//!    verifies the written bytes by re-decode, and publishes via a
//!    two-file commit plus one pointer swap. Serving never pauses beyond
//!    that swap, and the corpus epoch bump invalidates anything cached
//!    against the old index.
//!
//! Compaction output is pinned — by unit test and by property test over
//! random append/delete/compact interleavings — to be bit-identical to a
//! from-scratch `Corpus::new` rebuild of the same live tweets, so the
//! streaming path can never drift from the weekly-rebuild semantics it
//! replaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compactor;
pub mod live;
pub mod ops;

pub use compactor::{Compactor, CompactorConfig};
pub use live::{
    CompactionReport, LiveCorpus, ReadGuard, APPEND_SITE, COMPACT_SITE, OPLOG_SITE,
};
pub use ops::{Applied, BatchCheck, IngestOp};
