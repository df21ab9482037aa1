//! # esharp-graph
//!
//! Term-similarity graph construction from query-log click behaviour —
//! §4.1 of *e#: Sharper Expertise Detection from Microblogs* (EDBT 2016).
//!
//! Pipeline position: `esharp-querylog`'s aggregated `(query, url, clicks)`
//! records come in; a weighted undirected [`SimilarityGraph`] (cosine
//! similarity between per-query click vectors, built through the URL
//! inverted index rather than all-pairs) and its discretized
//! [`MultiGraph`] (the paper's unit-edge representation for modularity)
//! come out. [`relation_io`] converts graphs to/from the relational tables
//! the Figure 4 SQL operates on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
mod graph;
pub mod io;
pub mod relation_io;
#[cfg(test)]
mod vector;

pub use builder::{build_graph, BuildStats, GraphConfig};
pub use graph::{Edge, MultiGraph, NodeId, SimilarityGraph};
