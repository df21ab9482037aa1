//! The offline stage (§4 + Figure 1 left half): aggregated query log →
//! support filter → similarity graph → discretization → community
//! detection → [`DomainCollection`].
//!
//! Every stage is timed and sized so the pipeline can print its own
//! Table 9 analog.

use crate::checkpoint::{CheckpointDir, Fingerprint};
use crate::config::{ClusterBackend, EsharpConfig};
use crate::domains::DomainCollection;
use crate::error::{EsharpError, EsharpResult};
use esharp_community::{
    cluster_label_propagation, cluster_louvain, cluster_newman, cluster_parallel,
    cluster_parallel_resumable, cluster_sql, ClusteringOutcome, IterationStat, LabelPropConfig,
    LouvainConfig, NewmanConfig, ParallelConfig, PartitionStats, SqlClusterConfig,
};
use esharp_graph::{build_graph, BuildStats, MultiGraph, SimilarityGraph};
use esharp_querylog::{AggregatedLog, World};
use esharp_relation::StageStats;
use std::time::Instant;

/// Assumed byte width of one raw log event, used to report the size of the
/// *raw* input the extraction stage conceptually reads (the paper reads
/// 998 GB of raw logs; we only materialize aggregates).
const RAW_EVENT_BYTES: u64 = 60;

/// Everything the offline stage produces.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts {
    /// The similarity graph (kept for Figure 7 style inspection).
    pub graph: SimilarityGraph,
    /// The discretized multigraph clustering ran on.
    pub multigraph: MultiGraph,
    /// Clustering result with the Figure 5 iteration trace.
    pub outcome: ClusteringOutcome,
    /// The indexed domain collection (the online stage's input).
    pub domains: DomainCollection,
    /// Graph-construction statistics.
    pub build_stats: BuildStats,
    /// Queries dropped by the support filter.
    pub dropped_terms: usize,
    /// Per-stage resource records (Table 9 shape).
    pub stages: Vec<StageStats>,
}

/// Run the full offline pipeline on an aggregated log.
pub fn run_offline(
    log: &AggregatedLog,
    world: &World,
    config: &EsharpConfig,
) -> EsharpResult<OfflineArtifacts> {
    offline(log, world, config, None)
}

/// Crash-safe variant of [`run_offline`]: every stage (filtered log →
/// graph → multigraph → clustering → domains) is persisted to `ckpt` as a
/// checksummed, atomically-written checkpoint, and stages whose checkpoint
/// validates against the current configuration and inputs are *loaded*
/// instead of recomputed. The parallel clustering backend additionally
/// checkpoints its per-iteration trace, so a run killed at iteration 4
/// restarts at 4, not 0.
///
/// Determinism: the pipeline is bit-deterministic (see the `esharp-par`
/// contract), and each stage's loader reconstructs exactly what its saver
/// observed — so a run killed and resumed at *any* boundary produces
/// artifacts bit-identical to an uninterrupted run
/// (`tests/crashsafety.rs` proves this for every stage and iteration).
///
/// Invalid, stale or corrupt checkpoints are silently recomputed; write
/// failures surface as [`EsharpError::Io`].
pub fn run_offline_resumable(
    log: &AggregatedLog,
    world: &World,
    config: &EsharpConfig,
    ckpt: &CheckpointDir,
) -> EsharpResult<OfflineArtifacts> {
    offline(log, world, config, Some(ckpt))
}

/// The one offline pipeline. With a checkpoint directory each stage goes
/// through [`stage`]; without one nothing is fingerprinted, encoded or
/// loaded, and every stage is plain computation.
fn offline(
    log: &AggregatedLog,
    world: &World,
    config: &EsharpConfig,
    ckpt: Option<&CheckpointDir>,
) -> EsharpResult<OfflineArtifacts> {
    let fp = ckpt.map(|_| Fingerprint::new(config, log, world));
    let ckpt = ckpt.zip(fp.as_ref());
    let mut stages = Vec::new();

    // --- Extraction: support filter + similarity graph (§4.1).
    let started = Instant::now();
    let (filtered, dropped_terms) = stage(
        ckpt,
        "stage:filtered",
        |dir, fp| dir.load_filtered(fp),
        || Ok(log.filter_min_support(config.min_support)),
        |dir, fp, (filtered, dropped)| dir.store_filtered(fp, filtered, *dropped),
    )?;
    // The pipeline-level worker knob governs every offline stage; the
    // nested graph config only overrides it when set explicitly.
    let graph_config = esharp_graph::GraphConfig {
        workers: config.graph.workers.max(config.workers),
        ..config.graph.clone()
    };
    let (graph, build_stats) = stage(
        ckpt,
        "stage:graph",
        |dir, fp| dir.load_graph(fp),
        || Ok(build_graph(&filtered, world, &graph_config)),
        |dir, fp, (graph, stats)| dir.store_graph(fp, graph, stats),
    )?;
    let mut extraction = StageStats::new("extraction", config.workers);
    extraction.wall = started.elapsed();
    extraction.rows_read = log.raw_events;
    extraction.bytes_read = log.raw_events * RAW_EVENT_BYTES;
    extraction.rows_written = graph.num_edges() as u64;
    extraction.bytes_written = graph.byte_size();
    stages.push(extraction);

    // --- Clustering (§4.2): discretized multigraph, communities, domains.
    let started = Instant::now();
    let multigraph = stage(
        ckpt,
        "stage:multigraph",
        |dir, fp| dir.load_multigraph(fp),
        || Ok(MultiGraph::from_similarity(&graph, config.discretize_scale)),
        |dir, fp, mg| dir.store_multigraph(fp, mg),
    )?;
    // A checkpointed parallel backend resumes mid-stage from its
    // iteration trace; everything else clusters at stage granularity.
    let outcome = stage(
        ckpt,
        "stage:clustering",
        |dir, fp| dir.load_clustering_final(fp),
        || match ckpt {
            Some((dir, fp)) if config.backend == ClusterBackend::Parallel => {
                cluster_parallel_resumable(
                    &multigraph,
                    &ParallelConfig {
                        max_iterations: config.max_iterations,
                        workers: config.workers,
                    },
                    dir.load_clustering_progress(fp),
                    |assignment, trace| {
                        dir.store_clustering_progress(fp, assignment, trace)?;
                        let last = trace.last().map_or(0, |s| s.iteration);
                        dir.kill_point(&format!("iter:{last}"))
                    },
                )
            }
            _ => run_clustering(&multigraph, config),
        },
        |dir, fp, outcome| dir.store_clustering_final(fp, outcome),
    )?;
    let domains = stage(
        ckpt,
        "stage:domains",
        |dir, fp| dir.load_domains(fp),
        || Ok(DomainCollection::from_clustering(&graph, &outcome.assignment)),
        |dir, fp, domains| dir.store_domains(fp, domains),
    )?;
    let mut clustering = StageStats::new("clustering", config.workers);
    clustering.wall = started.elapsed();
    clustering.rows_read = graph.num_edges() as u64;
    clustering.bytes_read = graph.byte_size();
    clustering.rows_written = domains.len() as u64;
    clustering.bytes_written = domains.byte_size();
    stages.push(clustering);

    Ok(OfflineArtifacts {
        graph,
        multigraph,
        outcome,
        domains,
        build_stats,
        dropped_terms,
        stages,
    })
}

/// One offline stage. With a checkpoint: load it when a valid one
/// exists, otherwise compute and store it, then consult the stage's kill
/// point `site`. Without one: compute it.
fn stage<T>(
    ckpt: Option<(&CheckpointDir, &Fingerprint)>,
    site: &str,
    load: impl FnOnce(&CheckpointDir, &Fingerprint) -> Option<T>,
    compute: impl FnOnce() -> EsharpResult<T>,
    store: impl FnOnce(&CheckpointDir, &Fingerprint, &T) -> EsharpResult<()>,
) -> EsharpResult<T> {
    let Some((dir, fp)) = ckpt else {
        return compute();
    };
    let value = match load(dir, fp) {
        Some(cached) => cached,
        None => {
            let value = compute()?;
            store(dir, fp, &value)?;
            value
        }
    };
    dir.kill_point(site)?;
    Ok(value)
}

/// Dispatch to the configured clustering backend. Non-iterative backends
/// synthesize a two-row trace so downstream consumers (Figure 5) see a
/// uniform shape.
pub fn run_clustering(
    multigraph: &MultiGraph,
    config: &EsharpConfig,
) -> EsharpResult<ClusteringOutcome> {
    let outcome = match config.backend {
        ClusterBackend::Parallel => cluster_parallel(
            multigraph,
            &ParallelConfig {
                max_iterations: config.max_iterations,
                workers: config.workers,
            },
        ),
        ClusterBackend::Sql => cluster_sql(
            multigraph,
            &SqlClusterConfig {
                max_iterations: config.max_iterations,
                workers: config.workers,
                buffer_pool_bytes: config.sql_buffer_pool_bytes,
                memory_grant: config.sql_memory_grant,
                ..Default::default()
            },
        )
        .map_err(EsharpError::Relation)?,
        ClusterBackend::Newman => {
            wrap_flat(multigraph, cluster_newman(multigraph, &NewmanConfig::default()))
        }
        ClusterBackend::Louvain => wrap_flat(
            multigraph,
            cluster_louvain(
                multigraph,
                &LouvainConfig {
                    max_sweeps: config.max_iterations,
                    max_levels: 10,
                },
            ),
        ),
        ClusterBackend::LabelPropagation => wrap_flat(
            multigraph,
            cluster_label_propagation(
                multigraph,
                &LabelPropConfig {
                    max_sweeps: config.max_iterations,
                    ..Default::default()
                },
            ),
        ),
    };
    Ok(outcome)
}

fn wrap_flat(
    multigraph: &MultiGraph,
    assignment: esharp_community::Assignment,
) -> ClusteringOutcome {
    let initial = PartitionStats::compute(
        multigraph,
        &esharp_community::Assignment::singletons(multigraph.num_nodes()),
    );
    let after = PartitionStats::compute(multigraph, &assignment);
    let trace = vec![
        IterationStat {
            iteration: 0,
            communities: multigraph.num_nodes(),
            total_modularity: initial.total_modularity(),
            merges: 0,
        },
        IterationStat {
            iteration: 1,
            communities: after.num_communities(),
            total_modularity: after.total_modularity(),
            merges: 0,
        },
    ];
    ClusteringOutcome { assignment, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_querylog::{LogConfig, LogGenerator, WorldConfig};

    fn inputs() -> (World, AggregatedLog) {
        let world = World::generate(&WorldConfig::tiny(41));
        let log = AggregatedLog::from_events(
            LogGenerator::new(&world, &LogConfig::tiny(41)),
            world.terms.len(),
        );
        (world, log)
    }

    #[test]
    fn offline_pipeline_produces_usable_domains() {
        let (world, log) = inputs();
        let artifacts = run_offline(&log, &world, &EsharpConfig::tiny()).unwrap();
        assert!(artifacts.domains.len() > 1);
        // The 49ers showcase community must group at least one variant with
        // the head term.
        let niners = artifacts.domains.lookup("49ers").expect("49ers indexed");
        assert!(niners.len() >= 2, "49ers domain too small: {niners:?}");
        assert_eq!(artifacts.stages.len(), 2);
        assert!(artifacts.stages[0].bytes_read > artifacts.stages[0].bytes_written);
    }

    #[test]
    fn sql_backend_matches_parallel_backend() {
        let (world, log) = inputs();
        let mut config = EsharpConfig::tiny();
        config.backend = ClusterBackend::Parallel;
        let native = run_offline(&log, &world, &config).unwrap();
        config.backend = ClusterBackend::Sql;
        let sql = run_offline(&log, &world, &config).unwrap();
        assert!(native
            .outcome
            .assignment
            .same_partition(&sql.outcome.assignment));
    }

    /// Figure 5 pinned to committed numbers, so a refactor that agrees
    /// with a wrong oracle still fails: per trace row of the tiny
    /// pipeline, `(iteration, communities, merges, total_modularity
    /// bits)`, the same under the native and the SQL back-end.
    #[test]
    fn figure5_trace_golden() {
        const GOLDEN: &[(usize, usize, usize, u64)] = &[
            (0, 189, 0, 13848394953202964259),
            (1, 71, 146, 4653463434677711467),
            (2, 37, 44, 4657278929080560378),
            (3, 24, 16, 4657622543062169958),
            (4, 23, 1, 4657622741427669814),
        ];
        let (world, log) = inputs();
        for backend in [ClusterBackend::Parallel, ClusterBackend::Sql] {
            let config = EsharpConfig {
                backend,
                ..EsharpConfig::tiny()
            };
            let trace = run_offline(&log, &world, &config).unwrap().outcome.trace;
            let rows: Vec<_> = trace
                .iter()
                .map(|s| {
                    let bits = s.total_modularity.to_bits();
                    (s.iteration, s.communities, s.merges, bits)
                })
                .collect();
            assert_eq!(rows, GOLDEN, "{backend:?}");
        }
    }

    #[test]
    fn trace_has_convergence_shape() {
        let (world, log) = inputs();
        let artifacts = run_offline(&log, &world, &EsharpConfig::tiny()).unwrap();
        let trace = &artifacts.outcome.trace;
        assert!(trace.len() >= 2, "expected at least one merge iteration");
        assert!(trace.last().unwrap().communities < trace[0].communities);
    }

    #[test]
    fn alternative_backends_run() {
        let (world, log) = inputs();
        for backend in [
            ClusterBackend::Newman,
            ClusterBackend::Louvain,
            ClusterBackend::LabelPropagation,
        ] {
            let config = EsharpConfig {
                backend,
                ..EsharpConfig::tiny()
            };
            let artifacts = run_offline(&log, &world, &config).unwrap();
            assert!(artifacts.domains.len() > 1, "{backend:?} degenerate");
        }
    }
}
