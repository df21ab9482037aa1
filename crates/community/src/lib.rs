//! # esharp-community
//!
//! Community detection for e# (EDBT 2016, §4.2): modularity maximization
//! over the discretized term-similarity multigraph.
//!
//! Four algorithms over the same [`esharp_graph::MultiGraph`]:
//!
//! * [`cluster_parallel`] — the paper's contribution: the 3-step
//!   neighborhood-creation / separation / aggregation loop (§4.2.2,
//!   Figure 3), with a thread-parallel statistics pass.
//! * [`cluster_sql`] — the same loop expressed as the *actual Figure 4
//!   SQL*, parsed and executed by `esharp-relation` (with the `ModulGain`
//!   UDF and `argmax` aggregate). Produces bit-identical partitions to the
//!   native path.
//! * [`cluster_newman`] — Newman/CNM sequential greedy, the single-machine
//!   baseline of §4.2.1.
//! * [`cluster_louvain`] / [`cluster_label_propagation`] — the "other
//!   community detection paradigms" of the paper's future work, used as
//!   ablations.
//!
//! Plus the analysis tooling the evaluation needs: modularity math
//! (equations 3–9) in [`modularity`], the Figure 5 convergence trace, the
//! Figure 6 [`SizeHistogram`], Figure 7 [`neighborhood_of_term`], and
//! ground-truth quality metrics ([`nmi`], [`ari`]).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod assignment;
mod labelprop;
mod louvain;
pub mod metrics;
pub mod modularity;
mod neighborhood;
mod newman;
#[cfg(test)]
mod oracle;
mod parallel;
mod sqlimpl;
mod stats;

pub use assignment::Assignment;
pub use labelprop::{cluster_label_propagation, LabelPropConfig};
pub use louvain::{cluster_louvain, LouvainConfig};
pub use metrics::{ari, nmi};
pub use modularity::{delta_mod, PartitionStats};
pub use neighborhood::{neighborhood_of_term, CommunityView};
pub use newman::{cluster_newman, NewmanConfig};
pub use parallel::{
    choose_owners, cluster_parallel, cluster_parallel_resumable, ClusteringOutcome, IterationStat,
    ParallelConfig,
};
pub use sqlimpl::{
    cluster_sql, cluster_sql_report, SqlClusterConfig, SqlRunReport, NEIGHBORS_SQL, PARTITIONS_SQL,
};
pub use stats::SizeHistogram;
