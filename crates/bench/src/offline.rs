//! Offline-pipeline throughput measurement — the data behind
//! `esharp bench` and the committed `BENCH_offline.json` datapoints.
//!
//! Three kernels are timed at each requested worker count, mirroring the
//! three offline hot paths (§4, Figure 1 left half):
//!
//! 1. **Graph build** — inverted-index pair accumulation, a row of pair
//!    sums per node (nodes/sec, edges/sec).
//! 2. **Clustering** — the 3-step parallel algorithm with dense
//!    community accumulators (iterations/sec).
//! 3. **Relational exec** — the communities⋈graph broadcast join plus a
//!    grouped aggregation on the persistent `Cluster` pool (rows/sec).
//!
//! All three are deterministic in their outputs at any worker count, so
//! the samples differ only in wall clock. The report additionally times a
//! `HashMap`-entry reference implementation of the pair accumulation —
//! the single-thread speedup of `build_graph` is meaningful even on a
//! one-core host, where thread scaling is not (the JSON records
//! `host_cpus` so readers can judge the scaling rows accordingly).

use esharp_community::{cluster_parallel, ParallelConfig};
use esharp_graph::relation_io::multigraph_to_table;
use esharp_graph::{build_graph, GraphConfig, MultiGraph, SimilarityGraph};
use esharp_querylog::{AggregatedLog, LogConfig, LogGenerator, World, WorldConfig};
use esharp_relation::{Cluster, DataType, JoinStrategy, Schema, Table, TableBuilder, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Measurements for one worker count.
#[derive(Debug, Clone)]
pub struct WorkerSample {
    /// Worker threads used for all three kernels.
    pub workers: usize,
    /// Graph-build wall time in seconds.
    pub graph_build_secs: f64,
    /// Graph nodes produced per second.
    pub nodes_per_sec: f64,
    /// Graph edges produced per second.
    pub edges_per_sec: f64,
    /// Clustering wall time in seconds.
    pub cluster_secs: f64,
    /// Clustering iterations per second.
    pub iters_per_sec: f64,
    /// Join + aggregation wall time in seconds.
    pub relation_secs: f64,
    /// Joined rows processed per second.
    pub relation_rows_per_sec: f64,
}

/// A full offline-throughput report, serializable to JSON without any
/// external dependency (see [`OfflineBenchReport::to_json`]).
#[derive(Debug, Clone)]
pub struct OfflineBenchReport {
    /// Logical CPUs of the measuring host — scaling rows are only
    /// meaningful when this exceeds the worker count.
    pub host_cpus: usize,
    /// Raw log events the workload was generated from.
    pub events: u64,
    /// Generator seed.
    pub seed: u64,
    /// Nodes of the similarity graph under measurement.
    pub graph_nodes: usize,
    /// Edges of the similarity graph under measurement.
    pub graph_edges: usize,
    /// Wall seconds of the `HashMap`-entry reference accumulator
    /// (single-threaded).
    pub hashmap_reference_secs: f64,
    /// Wall seconds of `build_graph` at workers = 1.
    pub flat_accumulator_secs: f64,
    /// `hashmap_reference_secs / flat_accumulator_secs` — the
    /// implementation speedup independent of thread scaling.
    pub flat_vs_hashmap_speedup: f64,
    /// One row per measured worker count.
    pub samples: Vec<WorkerSample>,
    /// Out-of-core relational section: the clustering-style SQL with the
    /// buffer pool capped at 1/4 of the input size.
    pub out_of_core: OutOfCoreSample,
}

/// Measurements of the paged/spilling relational path: the clustering
/// join+aggregate SQL over the graph table stored in a paged heap file,
/// with the buffer pool capped at 1/4 of the input and a memory grant
/// small enough to force operator spills.
#[derive(Debug, Clone)]
pub struct OutOfCoreSample {
    /// Bytes of the paged graph table on disk.
    pub input_bytes: u64,
    /// Buffer-pool capacity in bytes (≤ 1/4 of `input_bytes`).
    pub pool_bytes: u64,
    /// Buffer-pool page hits across the whole section.
    pub pool_hits: u64,
    /// Buffer-pool page misses (disk reads).
    pub pool_misses: u64,
    /// `hits / (hits + misses)`.
    pub pool_hit_rate: f64,
    /// Pages evicted to make room via the clock.
    pub pool_evictions: u64,
    /// Scan-hint self-recycles (scan-resistant admission reusing the
    /// scan's own ring frames instead of evicting strangers).
    pub pool_recycles: u64,
    /// Bytes spilled by blocking operators under the memory grant.
    pub spill_bytes: u64,
    /// Spill partitions / sorted runs written.
    pub spill_parts: u64,
    /// Rows decoded by the limit-probe scan WITHOUT pushdown (the naive
    /// executor always materializes the full table).
    pub rows_scanned_naive: u64,
    /// Rows decoded by the same scan WITH predicate+limit pushdown — the
    /// scan stops fetching pages once the limit is satisfied.
    pub rows_scanned_pushdown: u64,
    /// Optimized out-of-core result equals the naive in-memory result,
    /// bit for bit.
    pub bit_identical: bool,
    /// Wall seconds of the optimized out-of-core clustering query.
    pub optimized_secs: f64,
    /// Wall seconds of the naive in-memory clustering query.
    pub naive_secs: f64,
}

impl OfflineBenchReport {
    /// Render the report as a stable, human-diffable JSON document.
    /// Hand-rolled so the bench binary works without a JSON crate.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"bench\": \"offline_throughput\",\n");
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        // Single-core hosts run every worker count on the same core: the
        // scaling samples below are not scaling evidence there.
        out.push_str(&format!(
            "  \"degenerate_host\": {},\n",
            self.host_cpus == 1
        ));
        out.push_str(&format!("  \"events\": {},\n", self.events));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"graph_nodes\": {},\n", self.graph_nodes));
        out.push_str(&format!("  \"graph_edges\": {},\n", self.graph_edges));
        out.push_str(&format!(
            "  \"hashmap_reference_secs\": {:.6},\n",
            self.hashmap_reference_secs
        ));
        out.push_str(&format!(
            "  \"flat_accumulator_secs\": {:.6},\n",
            self.flat_accumulator_secs
        ));
        out.push_str(&format!(
            "  \"flat_vs_hashmap_speedup\": {:.3},\n",
            self.flat_vs_hashmap_speedup
        ));
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workers\": {}, \"graph_build_secs\": {:.6}, \"nodes_per_sec\": {:.1}, \
                 \"edges_per_sec\": {:.1}, \"cluster_secs\": {:.6}, \"iters_per_sec\": {:.3}, \
                 \"relation_secs\": {:.6}, \"relation_rows_per_sec\": {:.1}}}{}\n",
                s.workers,
                s.graph_build_secs,
                s.nodes_per_sec,
                s.edges_per_sec,
                s.cluster_secs,
                s.iters_per_sec,
                s.relation_secs,
                s.relation_rows_per_sec,
                if i + 1 < self.samples.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let o = &self.out_of_core;
        out.push_str("  \"out_of_core\": {\n");
        out.push_str(&format!("    \"input_bytes\": {},\n", o.input_bytes));
        out.push_str(&format!("    \"pool_bytes\": {},\n", o.pool_bytes));
        out.push_str(&format!("    \"pool_hits\": {},\n", o.pool_hits));
        out.push_str(&format!("    \"pool_misses\": {},\n", o.pool_misses));
        out.push_str(&format!("    \"pool_hit_rate\": {:.4},\n", o.pool_hit_rate));
        out.push_str(&format!("    \"pool_evictions\": {},\n", o.pool_evictions));
        out.push_str(&format!("    \"pool_recycles\": {},\n", o.pool_recycles));
        out.push_str(&format!("    \"spill_bytes\": {},\n", o.spill_bytes));
        out.push_str(&format!("    \"spill_parts\": {},\n", o.spill_parts));
        out.push_str(&format!(
            "    \"rows_scanned_naive\": {},\n",
            o.rows_scanned_naive
        ));
        out.push_str(&format!(
            "    \"rows_scanned_pushdown\": {},\n",
            o.rows_scanned_pushdown
        ));
        out.push_str(&format!("    \"bit_identical\": {},\n", o.bit_identical));
        out.push_str(&format!("    \"optimized_secs\": {:.6},\n", o.optimized_secs));
        out.push_str(&format!("    \"naive_secs\": {:.6}\n", o.naive_secs));
        out.push_str("  }\n}\n");
        out
    }

    /// One row per sample, formatted for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "offline throughput — {} events, {} nodes / {} edges, host_cpus={}\n",
            self.events, self.graph_nodes, self.graph_edges, self.host_cpus
        ));
        out.push_str(&format!(
            "flat vs HashMap accumulator (1 thread): {:.2}x ({:.1} ms → {:.1} ms)\n",
            self.flat_vs_hashmap_speedup,
            self.hashmap_reference_secs * 1e3,
            self.flat_accumulator_secs * 1e3
        ));
        out.push_str(
            "workers  nodes/s      edges/s      iters/s   join rows/s\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:>7}  {:>11.0}  {:>11.0}  {:>8.2}  {:>12.0}\n",
                s.workers, s.nodes_per_sec, s.edges_per_sec, s.iters_per_sec, s.relation_rows_per_sec
            ));
        }
        let o = &self.out_of_core;
        out.push_str(&format!(
            "out-of-core: {} B input through a {} B pool — hit rate {:.1}%, {} evictions / {} recycles, \
             spilled {} B / {} parts, scan rows {} → {} with pushdown, bit_identical={}\n",
            o.input_bytes,
            o.pool_bytes,
            o.pool_hit_rate * 100.0,
            o.pool_evictions,
            o.pool_recycles,
            o.spill_bytes,
            o.spill_parts,
            o.rows_scanned_naive,
            o.rows_scanned_pushdown,
            o.bit_identical
        ));
        out
    }
}

/// The fixed workload every sample runs against: one generated log plus
/// the derived multigraph and relational tables, built once so the timed
/// sections measure only the kernels.
pub struct OfflineWorkload {
    world: World,
    filtered: AggregatedLog,
    events: u64,
    seed: u64,
    multigraph: MultiGraph,
    communities: Table,
    graph_table: Table,
}

impl OfflineWorkload {
    /// Generate the workload: a development-scale world (the `Small`
    /// preset's vocabulary — large enough that the candidate-pair space
    /// spills the cache, which is the regime the flat accumulator
    /// targets) with `events` raw log events, support-filtered exactly
    /// like the pipeline's extraction stage.
    pub fn generate(events: u64, seed: u64) -> OfflineWorkload {
        let world = World::generate(&WorldConfig {
            domains_per_category: 15,
            seed,
            ..WorldConfig::default()
        });
        let log = AggregatedLog::from_events(
            LogGenerator::new(
                &world,
                &LogConfig {
                    events: events as usize,
                    seed,
                    ..LogConfig::default()
                },
            ),
            world.terms.len(),
        );
        let (filtered, _) = log.filter_min_support(10);
        let config = GraphConfig::default();
        let (graph, _) = build_graph(&filtered, &world, &config);
        let multigraph = MultiGraph::from_similarity(&graph, 20.0);
        let (communities, graph_table) = relation_inputs(&multigraph);
        OfflineWorkload {
            world,
            filtered,
            events,
            seed,
            multigraph,
            communities,
            graph_table,
        }
    }

    /// Build the similarity graph at the given worker count.
    pub fn build(&self, workers: usize) -> SimilarityGraph {
        let config = GraphConfig {
            workers,
            ..GraphConfig::default()
        };
        build_graph(&self.filtered, &self.world, &config).0
    }

    /// Build the graph through the `HashMap`-entry reference accumulator.
    pub fn reference_build(&self) -> SimilarityGraph {
        hashmap_reference_graph(&self.filtered, &self.world)
    }

    /// Cluster the multigraph at the given worker count.
    pub fn cluster(&self, workers: usize) -> esharp_community::ClusteringOutcome {
        cluster_parallel(
            &self.multigraph,
            &ParallelConfig {
                workers,
                ..ParallelConfig::default()
            },
        )
    }

    /// The communities⋈graph broadcast join plus a grouped aggregation on
    /// the persistent pool; returns (joined rows, grouped rows).
    pub fn join_aggregate(&self, workers: usize) -> (usize, usize) {
        let cluster = Cluster::new(workers);
        let joined = cluster
            .join(
                &self.graph_table,
                &self.communities,
                &[0],
                &[0],
                JoinStrategy::Broadcast,
            )
            .expect("bench join");
        // Joined columns: node1, node2, multiplicity, node, comm — group
        // by the community, summing edge multiplicities into it.
        let grouped = cluster
            .aggregate(
                &joined,
                &[4],
                &[esharp_relation::ops::AggSpec::on(
                    esharp_relation::ops::AggFunc::Sum,
                    2,
                    "mass",
                )],
            )
            .expect("bench aggregate");
        (joined.num_rows(), grouped.num_rows())
    }

    /// Run the clustering-style SQL out of core: graph table in a paged
    /// heap file, buffer pool capped at 1/4 of the input, memory grant at
    /// 1/8 (forcing join/aggregate spills), and a limit-probe scan
    /// showing pushdown stopping page fetches early. The optimized result
    /// is checked bit-identical against the naive in-memory executor.
    pub fn out_of_core(&self) -> OutOfCoreSample {
        use esharp_relation::{
            run_sql, run_sql_unoptimized, BufferPool, Catalog, ExecContext, PagedTable,
            StatsRegistry, PAGE_SIZE,
        };
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("esharp-bench-ooc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("out-of-core workdir");
        let paged = Arc::new(
            PagedTable::create(&dir.join("graph"), &self.graph_table).expect("paged graph"),
        );
        let input_bytes = paged.byte_size();
        let pool_bytes = ((input_bytes / 4).max(2 * PAGE_SIZE as u64)) as usize;
        let pool = Arc::new(BufferPool::with_capacity_bytes(pool_bytes));

        let catalog = Catalog::new();
        catalog.register_paged("graph", paged, pool.clone());
        catalog.register("communities", self.communities.clone());
        let registry = StatsRegistry::new();
        let ctx = ExecContext::new(catalog)
            .with_stats(registry.clone())
            .with_memory_grant(((input_bytes / 8).max(4096)) as usize)
            .with_spill_root(dir.clone());

        // The §4.2.2-shaped workload: join communities onto the edge
        // table, aggregate edge mass per community.
        const CLUSTERING_SQL: &str = "select comm, sum(multiplicity) as mass \
             from graph inner join communities on node = node1 \
             group by comm order by comm";
        let started = Instant::now();
        let optimized = run_sql(CLUSTERING_SQL, &ctx).expect("out-of-core clustering SQL");
        let optimized_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let naive = run_sql_unoptimized(CLUSTERING_SQL, &ctx).expect("naive clustering SQL");
        let naive_secs = started.elapsed().as_secs_f64();
        let bit_identical = optimized == naive;
        let snapshot = registry.snapshot();
        let spill_bytes = snapshot.iter().map(|s| s.spill_bytes).sum();
        let spill_parts = snapshot.iter().map(|s| s.spill_parts).sum();

        // Limit probe: with predicate+limit pushdown the paged scan stops
        // fetching pages once the limit is satisfied; the naive executor
        // always decodes the full table.
        const LIMIT_SQL: &str = "select node1 from graph where multiplicity >= 1 limit 256";
        let mark = registry.snapshot().len();
        let _ = run_sql(LIMIT_SQL, &ctx).expect("limit probe");
        let rows_scanned_pushdown = registry.snapshot()[mark..]
            .iter()
            .filter(|s| s.stage == "scan")
            .map(|s| s.rows_read)
            .sum();
        let rows_scanned_naive = self.graph_table.num_rows() as u64;

        let stats = pool.stats();
        let _ = std::fs::remove_dir_all(&dir);
        OutOfCoreSample {
            input_bytes,
            pool_bytes: pool_bytes as u64,
            pool_hits: stats.hits,
            pool_misses: stats.misses,
            pool_hit_rate: stats.hit_rate(),
            pool_evictions: stats.evictions,
            pool_recycles: stats.recycles,
            spill_bytes,
            spill_parts,
            rows_scanned_naive,
            rows_scanned_pushdown,
            bit_identical,
            optimized_secs,
            naive_secs,
        }
    }

    /// Run every kernel at each worker count and assemble the report.
    pub fn measure(&self, worker_counts: &[usize]) -> OfflineBenchReport {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

        // Implementation comparison, single-threaded on both sides.
        let started = Instant::now();
        let reference = self.reference_build();
        let hashmap_reference_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let graph = self.build(1);
        let flat_accumulator_secs = started.elapsed().as_secs_f64();
        assert_eq!(
            graph.num_edges(),
            reference.num_edges(),
            "flat and HashMap accumulators must agree"
        );

        let samples = worker_counts
            .iter()
            .map(|&workers| {
                let started = Instant::now();
                let g = self.build(workers);
                let graph_build_secs = started.elapsed().as_secs_f64();

                let started = Instant::now();
                let outcome = self.cluster(workers);
                let cluster_secs = started.elapsed().as_secs_f64();

                let started = Instant::now();
                let (joined_rows, grouped_rows) = self.join_aggregate(workers);
                let relation_secs = started.elapsed().as_secs_f64();
                assert!(grouped_rows > 0);

                WorkerSample {
                    workers,
                    graph_build_secs,
                    nodes_per_sec: g.num_nodes() as f64 / graph_build_secs,
                    edges_per_sec: g.num_edges() as f64 / graph_build_secs,
                    cluster_secs,
                    iters_per_sec: outcome.iterations().max(1) as f64 / cluster_secs,
                    relation_secs,
                    relation_rows_per_sec: joined_rows as f64 / relation_secs,
                }
            })
            .collect();

        OfflineBenchReport {
            host_cpus,
            events: self.events,
            seed: self.seed,
            graph_nodes: graph.num_nodes(),
            graph_edges: graph.num_edges(),
            hashmap_reference_secs,
            flat_accumulator_secs,
            flat_vs_hashmap_speedup: hashmap_reference_secs / flat_accumulator_secs,
            samples,
            out_of_core: self.out_of_core(),
        }
    }
}

/// The multigraph edge table plus a `(node, comm)` assignment table — the
/// two inputs of the clustering join, shaped like `sqlimpl`'s relations.
fn relation_inputs(multigraph: &MultiGraph) -> (Table, Table) {
    let assignment = cluster_parallel(multigraph, &ParallelConfig::default()).assignment;
    let schema = Schema::of(&[("node", DataType::Int), ("comm", DataType::Int)]);
    let mut builder = TableBuilder::with_capacity(schema, multigraph.num_nodes());
    for node in 0..multigraph.num_nodes() as u32 {
        builder
            .push_row(vec![
                Value::Int(node as i64),
                Value::Int(assignment.community_of(node) as i64),
            ])
            .expect("communities table");
    }
    let communities = builder.finish();
    let graph_table = multigraph_to_table(multigraph).expect("graph table");
    (communities, graph_table)
}

/// The pre-refactor pair accumulator: one shared
/// `HashMap<(node, node), f64>` entry per candidate pair, updated in
/// URL-id order. Kept here (bench-only) as the baseline `build_graph`
/// is measured against; edge sets are identical and weights agree
/// up to f64 associativity.
pub fn hashmap_reference_graph(log: &AggregatedLog, world: &World) -> SimilarityGraph {
    use esharp_graph::ClickVector;
    use std::sync::Arc;

    let config = GraphConfig::default();
    let mut node_of_term: HashMap<u32, u32> = HashMap::new();
    let mut labels: Vec<Arc<str>> = Vec::new();
    for record in &log.records {
        node_of_term.entry(record.term).or_insert_with(|| {
            let id = labels.len() as u32;
            labels.push(Arc::from(world.term_text(record.term)));
            id
        });
    }
    let mut pairs_per_node: Vec<Vec<(u32, f64)>> = vec![Vec::new(); labels.len()];
    for record in &log.records {
        let node = node_of_term[&record.term];
        pairs_per_node[node as usize].push((record.url, record.clicks as f64));
    }
    let vectors: Vec<ClickVector> = pairs_per_node
        .into_iter()
        .map(|pairs| {
            let mut v = ClickVector::from_pairs(pairs);
            v.normalize();
            v
        })
        .collect();
    let mut inverted: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
    for (node, vector) in vectors.iter().enumerate() {
        for &(url, weight) in vector.components() {
            inverted
                .entry(url)
                .or_default()
                .push((node as u32, weight));
        }
    }
    let mut sims: HashMap<(u32, u32), f64> = HashMap::new();
    let mut posting_lists: Vec<(&u32, &Vec<(u32, f64)>)> = inverted.iter().collect();
    posting_lists.sort_by_key(|&(url, _)| *url);
    for (_, postings) in posting_lists {
        if postings.len() > config.max_url_fanout {
            continue;
        }
        for i in 0..postings.len() {
            let (ni, wi) = postings[i];
            for &(nj, wj) in &postings[i + 1..] {
                let key = (ni.min(nj), ni.max(nj));
                *sims.entry(key).or_insert(0.0) += wi * wj;
            }
        }
    }
    let edges: Vec<esharp_graph::Edge> = sims
        .into_iter()
        .filter(|&(_, w)| w >= config.min_similarity)
        .map(|((a, b), weight)| esharp_graph::Edge {
            a,
            b,
            weight: weight.min(1.0),
        })
        .collect();
    SimilarityGraph::new(labels, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_measures_and_serializes() {
        let workload = OfflineWorkload::generate(20_000, 7);
        let report = workload.measure(&[1, 2]);
        assert_eq!(report.samples.len(), 2);
        assert!(report.graph_nodes > 0 && report.graph_edges > 0);
        assert!(report.flat_vs_hashmap_speedup > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"offline_throughput\""));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.ends_with("}\n"));
        // Balanced braces/brackets — the emitter is hand-rolled.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count()
        );
    }

    #[test]
    fn out_of_core_is_bit_identical_and_pushdown_reduces_rows_scanned() {
        let workload = OfflineWorkload::generate(20_000, 7);
        let o = workload.out_of_core();
        assert!(o.bit_identical, "paged/spilling result must equal in-memory");
        assert!(o.pool_hits + o.pool_misses > 0, "scans must go through the pool");
        assert!(
            o.rows_scanned_pushdown < o.rows_scanned_naive,
            "limit pushdown must stop the scan early ({} vs {})",
            o.rows_scanned_pushdown,
            o.rows_scanned_naive
        );
        let json = workload.measure(&[1]).to_json();
        assert!(json.contains("\"out_of_core\""));
        assert!(json.contains("\"degenerate_host\""));
        assert!(json.contains("\"pool_hit_rate\""));
    }

    #[test]
    fn reference_accumulator_matches_flat_kernel() {
        let workload = OfflineWorkload::generate(20_000, 7);
        let flat = workload.build(4);
        let reference = hashmap_reference_graph(&workload.filtered, &workload.world);
        assert_eq!(flat.num_nodes(), reference.num_nodes());
        assert_eq!(flat.num_edges(), reference.num_edges());
        // Same edge set; weights agree up to f64 associativity (the
        // kernel sums per chunk of URL lists, so its addition tree differs
        // from the reference's strict left-to-right order). Bit-exactness
        // across *worker counts* is asserted in esharp-graph.
        for (a, b) in flat.edges().iter().zip(reference.edges()) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert!((a.weight - b.weight).abs() < 1e-9);
        }
    }
}
