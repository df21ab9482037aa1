//! End-to-end configuration of the e# pipeline.

use esharp_expert::DetectorConfig;
use esharp_graph::GraphConfig;
use serde::{Deserialize, Serialize};

/// Which community-detection backend the offline stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterBackend {
    /// The paper's parallel 3-step algorithm (native implementation).
    Parallel,
    /// The same algorithm through the Figure 4 SQL on `esharp-relation`.
    Sql,
    /// Newman/CNM sequential greedy (§4.2.1 baseline).
    Newman,
    /// Louvain (future-work ablation).
    Louvain,
    /// Label propagation (future-work ablation).
    LabelPropagation,
}

/// Full e# configuration: offline (graph + clustering) and online
/// (expansion + detection) parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EsharpConfig {
    /// Minimum query observations to survive the support filter (the
    /// paper's "less than 50 times per month" rule).
    pub min_support: u64,
    /// Similarity-graph construction parameters.
    #[serde(skip, default)]
    pub graph: GraphConfig,
    /// Weight discretization scale (§4.2.1 footnote: "rescale and
    /// discretize the weights to obtain integers").
    pub discretize_scale: f64,
    /// Clustering backend.
    pub backend: ClusterBackend,
    /// Iteration cap for the iterative backends.
    pub max_iterations: usize,
    /// Worker threads for the parallel/SQL backends.
    pub workers: usize,
    /// Baseline detector configuration.
    pub detector: DetectorConfig,
    /// Enable query expansion (false ⇒ e# degrades to the pure baseline).
    pub expansion: bool,
    /// Cap on related terms appended to a query ("append the corresponding
    /// keywords"; very large communities would otherwise flood matching).
    pub max_expansion_terms: usize,
    /// Worker threads for the online match phase: expansion terms are
    /// scattered over the corpus's postings shards and the per-shard
    /// unions merged deterministically, so results are bit-identical at
    /// any setting. `1` keeps the match phase serial on the caller.
    #[serde(default = "default_search_workers")]
    pub search_workers: usize,
    /// Buffer-pool budget (bytes) for the SQL backend. `Some` runs the
    /// clustering SQL out-of-core: the multigraph is written to a paged
    /// heap file and scanned through a pool of this many bytes. `None`
    /// keeps the tables fully in memory. Bit-identical either way.
    #[serde(default)]
    pub sql_buffer_pool_bytes: Option<usize>,
    /// Per-operator memory grant (bytes) for the SQL backend's blocking
    /// operators; sorts/joins/aggregates beyond it spill to checksummed
    /// run files. `None` means unbounded (never spill).
    #[serde(default)]
    pub sql_memory_grant: Option<usize>,
}

/// Serde fallback for configs written before `search_workers` existed.
fn default_search_workers() -> usize {
    4.min(esharp_par::detected_workers())
}

impl Default for EsharpConfig {
    fn default() -> Self {
        EsharpConfig {
            min_support: 50,
            graph: GraphConfig::default(),
            discretize_scale: 6.0,
            backend: ClusterBackend::Parallel,
            max_iterations: 20,
            // Clamp to the host: on a machine with fewer cores than the
            // nominal default, extra workers only add queue contention.
            // Results are identical either way (the esharp-par
            // determinism contract keys chunking on input length, never
            // on worker count).
            workers: 4.min(esharp_par::detected_workers()),
            detector: DetectorConfig::default(),
            expansion: true,
            max_expansion_terms: 25,
            search_workers: default_search_workers(),
            sql_buffer_pool_bytes: None,
            sql_memory_grant: None,
        }
    }
}

impl EsharpConfig {
    /// A small, fast configuration for unit tests: lower support threshold
    /// (tiny logs), serial execution.
    pub fn tiny() -> Self {
        EsharpConfig {
            min_support: 10,
            workers: 1,
            search_workers: 1,
            ..EsharpConfig::default()
        }
    }
}

// `GraphConfig` carries no serde derives (it lives in a crate without the
// derive feature wired for it); provide the Default the `serde(skip)`
// attribute needs.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = EsharpConfig::default();
        assert_eq!(c.min_support, 50);
        assert_eq!(c.detector.max_results, 15);
        assert!(c.expansion);
        assert_eq!(c.backend, ClusterBackend::Parallel);
    }

    #[test]
    fn config_serializes() {
        let c = EsharpConfig::tiny();
        let json = serde_json::to_string(&c).unwrap();
        let back: EsharpConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.min_support, c.min_support);
    }

    #[test]
    fn configs_written_with_a_since_removed_knob_still_load() {
        // A detector section saved while it still had a worker-count
        // field (removed in PR 17) carries a key nothing reads any more.
        let json = serde_json::to_string(&EsharpConfig::tiny()).unwrap();
        let old = json.replacen("\"max_results\":", "\"retired_knob\":4,\"max_results\":", 1);
        assert_ne!(old, json, "the detector section serializes max_results");
        let back: EsharpConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back.detector.max_results, 15);
    }
}
