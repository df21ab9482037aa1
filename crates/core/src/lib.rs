//! # esharp-core
//!
//! A from-scratch reproduction of **e#: Sharper Expertise Detection from
//! Microblogs** (Sellam, Hentschel, Kandylas, Alonso — EDBT 2016).
//!
//! e# retrieves topical experts from a microblog given a keyword query.
//! Its idea: enhance a precision-oriented expert detector (Pal & Counts)
//! with *query expansion* driven by a graph of expertise domains mined
//! offline from Web search logs, recovering the experts that short posts
//! hide (high recall at negligible precision cost).
//!
//! ```
//! use esharp_core::{Esharp, EsharpConfig, run_offline};
//! use esharp_querylog::{World, WorldConfig, LogGenerator, LogConfig, AggregatedLog};
//! use esharp_microblog::{generate_corpus, CorpusConfig};
//!
//! // Ground-truth world → synthetic search log → offline pipeline.
//! let world = World::generate(&WorldConfig::tiny(7));
//! let log = AggregatedLog::from_events(
//!     LogGenerator::new(&world, &LogConfig::tiny(7)), world.terms.len());
//! let config = EsharpConfig::tiny();
//! let artifacts = run_offline(&log, &world, &config).unwrap();
//!
//! // Microblog corpus → online search with expansion.
//! let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
//! let esharp = Esharp::new(artifacts.domains, config);
//! let outcome = esharp.search(&corpus, "49ers");
//! assert!(outcome.expansion[0] == "49ers");
//! ```
//!
//! Crate map (one crate per subsystem, see DESIGN.md): `esharp-relation`
//! (parallel relational engine + SQL front-end), `esharp-querylog`
//! (search-log substrate), `esharp-graph` (click-similarity graph),
//! `esharp-community` (modularity maximization incl. the Figure 4 SQL),
//! `esharp-microblog` (corpus substrate), `esharp-expert` (Pal & Counts
//! baseline), `esharp-eval` (experiments), `esharp-serve` (HTTP serving),
//! `esharp-cli` (the `esharp` and `repro` binaries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
mod config;
mod domains;
mod error;
mod offline;
mod online;
mod retriever;
mod shared;

pub use checkpoint::{CheckpointDir, Fingerprint};
pub use config::{ClusterBackend, EsharpConfig};
pub use domains::{DomainCollection, DomainIdx};
pub use error::{EsharpError, EsharpResult};
pub use offline::{run_clustering, run_offline, run_offline_resumable, OfflineArtifacts};
pub use online::{Degradation, Esharp, PartialResult, SearchOutcome};
pub use retriever::{ExpertiseRetriever, FrequencyRetriever, PalCountsRetriever};
pub use shared::{SharedEsharp, RELOAD_SITE};
