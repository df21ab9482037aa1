//! # esharp-serve
//!
//! The concurrent query-serving layer for e# — the piece that turns the
//! one-shot library calls of `esharp-core` into the interactive *service*
//! the paper budgets for (§5, Table 9: expansion < 100 ms, detection
//! < 1 s per query). Production expert-search systems serve rankings from
//! precomputed artifacts behind a caching service layer (Spasojevic et
//! al., "Mining Half a Billion Topical Experts"); this crate is that
//! layer for the e# reproduction, std-only so the build stays hermetic.
//!
//! ## Shape
//!
//! A multi-threaded HTTP/1.1 server with an event-driven front end: one
//! nonblocking readiness loop ([`poller`]: Linux epoll, the crate's
//! only `unsafe` code) owns every socket, speaks keep-alive and
//! pipelining through per-connection state machines, and fans parsed
//! requests out to a fixed worker pool through a **bounded admission
//! queue** (the `esharp-par` caller/worker idiom, adapted from batch to
//! streaming; completions wake the loop through a socket pair). Seven
//! endpoints:
//!
//! | Endpoint             | Purpose                                          |
//! |----------------------|--------------------------------------------------|
//! | `GET /search?q=…`    | e# search, JSON body, result-cached              |
//! | `POST /search/batch` | newline-separated queries, shared index traversal|
//! | `GET /healthz`       | liveness + degradation state                     |
//! | `GET /metrics`       | counters, cache stats, latency histograms        |
//! | `POST /reload`       | hot domain reload (the weekly refresh hand-off)  |
//! | `POST /ingest`       | streaming op batch into the live corpus          |
//! | `POST /compact`      | synchronous delta-segment compaction             |
//!
//! Search serves from an `esharp-ingest`
//! [`LiveCorpus`](esharp_ingest::LiveCorpus): ingested tweets are
//! visible to the next query, and a background compactor (enabled via
//! [`ServeConfig::compact_threshold`]) folds the delta segment into a
//! fresh persisted base without pausing reads.
//!
//! ## Correctness anchors
//!
//! * **Epoch-keyed caching** — the result cache keys on `(normalized
//!   query, domains epoch, corpus epoch)` where the domains epoch comes
//!   from the same [`SharedEsharp`](esharp_core::SharedEsharp) snapshot
//!   as the collection searched (*every* reload attempt advances it) and
//!   the corpus epoch from the same `LiveCorpus` snapshot as the index
//!   searched (every ingested batch and compaction publish advances it).
//!   A cached body is therefore always byte-identical to a cold search
//!   against the collection *and index* that were live when it was
//!   cached; stale expansions, stale degradation states, and stale
//!   matches can never be served.
//! * **Load shedding** — when the admission queue is full the event
//!   loop answers `503 Retry-After` inline instead of queueing
//!   unboundedly: under overload the server sheds, it does not collapse,
//!   and admitted requests keep their latency. On a keep-alive
//!   connection the shed costs one request, not the connection.
//! * **Degraded serving** — a failed reload keeps the last known-good
//!   collection serving; outcomes carry the
//!   [`Degradation`](esharp_core::Degradation) in the JSON body and
//!   `/healthz` flips to `"degraded"`. Reload failures are injectable
//!   through `esharp-fault` (site `reload:domains`) for tests.
//!
//! All JSON is hand-rolled ([`json`]): deterministic output, no
//! serialization dependency on the serving path.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_code)]

pub mod cache;
mod conn;
mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;
#[allow(unsafe_code)]
pub mod poller;
pub mod server;

pub use cache::{CacheKey, ResultCache};
pub use metrics::{BreakerStats, Histogram, Metrics};
pub use server::{render_search_body, search_and_render, ServeConfig, ServeHooks, Server};
