//! # esharp-eval
//!
//! Evaluation harness reproducing §6 of *e#: Sharper Expertise Detection
//! from Microblogs* (EDBT 2016): the Table 1 query sets, the simulated
//! crowdsourcing protocol (3 noisy judges + majority voting), the
//! retrieval metrics, and one experiment module per table/figure
//! (Figures 5–10, Tables 1–9) plus ablations the paper could not run on
//! proprietary data (clustering quality vs ground truth, the discarded
//! precision filter).
//!
//! Entry point: build a [`Testbed`] at a scale, then call the experiment
//! functions in [`experiments`]. The `esharp-cli` crate's `repro`
//! binary drives all of them and writes EXPERIMENTS.md data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crowd;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod querysets;
pub mod report;

pub use crowd::{Crowd, CrowdConfig};
pub use harness::{EvalScale, Testbed};
pub use querysets::{build_query_sets, QuerySet};
