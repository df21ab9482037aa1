//! # esharp-querylog
//!
//! Search-query-log substrate for the e# reproduction (EDBT 2016).
//!
//! The paper builds its collection of expertise domains from one month of
//! commercial search-engine logs (998 GB). That data is proprietary, so
//! this crate provides the synthetic equivalent (see DESIGN.md §1):
//!
//! * [`World`] — ground-truth expertise domains: topics with canonical
//!   terms, minted surface variants (`#sanfrancisco`, `sf`, typos…), URL
//!   pools, category hub URLs and Zipf-ish popularity. Includes the
//!   paper's running examples (the 49ers cluster, `dow futures`,
//!   `diabetes`, the ambiguous `football`, …).
//! * [`LogGenerator`] — a deterministic stream of raw `(query, click)`
//!   events sampled from the world.
//! * [`AggregatedLog`] — the `(query, url, clicks)` aggregation plus the
//!   paper's ≥50-observations support filter (§4.1).
//!
//! ```
//! use esharp_querylog::{World, WorldConfig, LogGenerator, LogConfig, AggregatedLog};
//!
//! let world = World::generate(&WorldConfig::tiny(7));
//! let events = LogGenerator::new(&world, &LogConfig::tiny(7));
//! let log = AggregatedLog::from_events(events, world.terms.len());
//! let (filtered, _dropped) = log.filter_min_support(5);
//! assert!(filtered.num_terms() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod aggregate;
pub mod dist;
mod loggen;
pub mod variants;
mod world;

pub use aggregate::{AggregatedLog, ClickRecord};
pub use loggen::{LogConfig, LogGenerator, RawEvent};
pub use world::{
    Category, Domain, DomainId, TermId, TermInfo, UrlId, World, WorldConfig, ALL_CATEGORIES,
};
