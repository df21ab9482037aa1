//! `offline_refresh`: the weekly extraction + clustering refresh on
//! `log_8m`, under the native backend, the Figure 4 SQL in memory, and
//! the same SQL through a 1 MiB buffer pool with a 256 KiB memory grant.
//! `graph`, `community`, `relation` and `storage` do all the work; the
//! online crates do none.

use crate::affinity::Turns;
use crate::fixtures;
use crate::host::nproc;
use crate::replay::Fnv;
use crate::report::Report;
use crate::rig::SETUP_REPS;
use crate::spans::{self, Tracer};
use crate::stats::{best, Summary};
use crate::Options;
use esharp_community::{cluster_parallel, cluster_sql_report, ParallelConfig, SqlClusterConfig};
use esharp_core::{run_offline, ClusterBackend, DomainCollection, EsharpConfig};
use esharp_graph::{build_graph, GraphConfig, MultiGraph};
use esharp_querylog::{AggregatedLog, World};
use esharp_relation::StatsRegistry;
use std::time::{Duration, Instant};

/// Buffer pool of the out-of-core configuration.
const OOC_POOL_BYTES: usize = 1 << 20;
/// Per-operator memory grant of the out-of-core configuration.
const OOC_GRANT_BYTES: usize = 256 << 10;

/// The three configurations, in the order a cycle runs them.
const CONFIGS: [&str; 3] = ["parallel", "sql", "sql_ooc"];

fn config_for(name: &str, base: &EsharpConfig) -> EsharpConfig {
    match name {
        "parallel" => EsharpConfig {
            backend: ClusterBackend::Parallel,
            ..base.clone()
        },
        "sql" => EsharpConfig {
            backend: ClusterBackend::Sql,
            ..base.clone()
        },
        _ => EsharpConfig {
            backend: ClusterBackend::Sql,
            sql_buffer_pool_bytes: Some(OOC_POOL_BYTES),
            sql_memory_grant: Some(OOC_GRANT_BYTES),
            ..base.clone()
        },
    }
}

fn domains_checksum(domains: &DomainCollection) -> u32 {
    let mut fnv = Fnv::default();
    for group in domains.domains() {
        fnv.push(b"{");
        for term in group {
            fnv.push(term.as_bytes());
        }
    }
    fnv.0
}

/// What the traced replay of one refresh observed besides its spans.
#[derive(Default)]
struct Observed {
    nodes: usize,
    edges: usize,
    dropped_terms: usize,
    iterations: usize,
    modularity: f64,
    domains: usize,
    checksum: u32,
    rows_scanned: u64,
    spill_bytes: u64,
    spill_parts: u64,
    pool: Option<(f64, u64, u64)>,
}

/// One refresh, step by step as `run_offline` takes them, each call into
/// a layer under its own span.
fn traced_refresh(
    tracer: &mut Tracer,
    log: &AggregatedLog,
    world: &World,
    config: &EsharpConfig,
) -> Observed {
    let root = tracer.enter("refresh");
    let (graph, dropped_terms) = tracer.call("graph.build", || {
        let (filtered, dropped) = log.filter_min_support(config.min_support);
        let graph_config = GraphConfig {
            workers: config.graph.workers.max(config.workers),
            ..config.graph.clone()
        };
        (build_graph(&filtered, world, &graph_config).0, dropped)
    });
    let registry = StatsRegistry::new();
    // The backend and its memory limits come from `config`, as they do
    // inside `run_offline`.
    let sql = (config.backend == ClusterBackend::Sql)
        .then_some((config.sql_buffer_pool_bytes, config.sql_memory_grant));
    let span = match sql {
        None => "community.cluster_parallel",
        Some((None, _)) => "community.cluster_sql",
        Some(_) => "community.cluster_sql_ooc",
    };
    let (outcome, pool) = tracer.call(span, || {
        let multigraph = MultiGraph::from_similarity(&graph, config.discretize_scale);
        match sql {
            None => {
                let parallel = ParallelConfig {
                    max_iterations: config.max_iterations,
                    workers: config.workers,
                };
                (cluster_parallel(&multigraph, &parallel), None)
            }
            Some((buffer_pool_bytes, memory_grant)) => {
                let sql_config = SqlClusterConfig {
                    max_iterations: config.max_iterations,
                    workers: config.workers,
                    buffer_pool_bytes,
                    memory_grant,
                    stats: Some(registry.clone()),
                    ..SqlClusterConfig::default()
                };
                let (outcome, run) =
                    cluster_sql_report(&multigraph, &sql_config).expect("Figure 4 SQL clustering");
                (outcome, run.pool)
            }
        }
    });
    let domains = tracer.call("core.domains_from_clustering", || {
        DomainCollection::from_clustering(&graph, &outcome.assignment)
    });
    tracer.exit(root);
    let operators = registry.snapshot();
    Observed {
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        dropped_terms,
        iterations: outcome.iterations(),
        modularity: outcome.trace.last().map_or(0.0, |s| s.total_modularity),
        domains: domains.len(),
        checksum: domains_checksum(&domains),
        rows_scanned: operators
            .iter()
            .filter(|op| op.stage == "scan")
            .map(|op| op.rows_read)
            .sum(),
        spill_bytes: operators.iter().map(|op| op.spill_bytes).sum(),
        spill_parts: operators.iter().map(|op| op.spill_parts).sum(),
        pool: pool.map(|p| (p.hit_rate(), p.misses, p.evictions)),
    }
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new("offline_refresh", opts);
    // One worker on one processor at a time (see `affinity`): with a
    // worker per processor every parallel section ends when the slower
    // processor does: over ten runs of the seed code the three refresh
    // times spread 19-31% that way (the driver's check of the first
    // version) against 6-19% this way, 2-4% in a calm spell. What the
    // second processor buys is reported by the traced run
    // (`core.offline_nproc_workers_s`).
    let fixture = fixtures::log_8m(opts.scale, 1);
    let turns = Turns::new();
    report.fixture_generation_s = fixture.generation_s;
    let world = fixture.world;
    let base = fixture.config;

    // Set-up: aggregate the raw click events into the log the refresh
    // reads.
    let mut log = None;
    for _ in 0..SETUP_REPS {
        turns.next();
        let started = Instant::now();
        log = Some(AggregatedLog::from_events(
            fixture.events.iter().copied(),
            world.terms.len(),
        ));
        report.setup_samples_s.push(started.elapsed().as_secs_f64());
    }
    let log = log.expect("SETUP_REPS is at least 1");
    drop(fixture.events);

    let budget = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let mut whole_s: [Vec<f64>; 3] = Default::default();
    let mut checksums: Vec<u32> = Vec::new();
    let mut reference: Option<DomainCollection> = None;
    let mut disagreements = 0u64;
    let mut tracer = Tracer::new(true);
    let mut observed: [Observed; 3] = Default::default();
    // Whole cycles, so every configuration has the same sample count;
    // each cycle on the next processor.
    while whole_s[0].is_empty() || started.elapsed() < budget {
        turns.next();
        for (slot, name) in CONFIGS.iter().enumerate() {
            let config = config_for(name, &base);
            let run_started = Instant::now();
            let result = run_offline(&log, &world, &config);
            whole_s[slot].push(run_started.elapsed().as_secs_f64());
            report.attempted += 1;
            match result {
                Ok(artifacts) => {
                    checksums.push(domains_checksum(&artifacts.domains));
                    let same = reference
                        .get_or_insert_with(|| artifacts.domains.clone())
                        .domains()
                        == artifacts.domains.domains();
                    disagreements += u64::from(!same);
                }
                Err(_) => report.failed += 1,
            }
            if opts.trace {
                observed[slot] = traced_refresh(&mut tracer, &log, &world, &config);
                checksums.push(observed[slot].checksum);
            }
        }
    }
    report.failed += disagreements;
    report.check(
        "offline_configs_agree",
        disagreements == 0 && checksums.windows(2).all(|w| w[0] == w[1]),
        format!(
            "{} refreshes, {disagreements} domain collections differ from the first",
            checksums.len()
        ),
    );

    // Each configuration at its best refresh (see `stats::best`).
    let fastest: Vec<f64> = whole_s.iter().map(|s| best(s).unwrap_or(0.0)).collect();
    for (name, samples) in CONFIGS.iter().zip(&whole_s) {
        let summary = Summary::of(samples);
        report.name(&format!("offline_{name}_s"), summary.p50, "s");
        report.name(&format!("offline_{name}_s.q1"), summary.q1, "s");
        report.name(&format!("offline_{name}_s.q3"), summary.q3, "s");
        report.name(
            &format!("offline_{name}_s.count"),
            summary.count as f64,
            "count",
        );
    }
    let checksum = checksums.first().copied().unwrap_or(0);
    report.name("core.domains_checksum", f64::from(checksum), "count");

    if !opts.trace {
        report.end_to_end(1.0 / fastest[0], fastest[1] * 1e6, fastest[2] * 1e6);
        return report;
    }

    // The native refresh again with a worker per processor.
    turns.release();
    let parallel = EsharpConfig {
        workers: nproc(),
        ..config_for("parallel", &base)
    };
    let nproc_workers_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let run_started = Instant::now();
            let same = run_offline(&log, &world, &parallel).is_ok_and(|artifacts| {
                reference
                    .as_ref()
                    .is_some_and(|first| first.domains() == artifacts.domains.domains())
            });
            report.attempted += 1;
            report.failed += u64::from(!same);
            run_started.elapsed().as_secs_f64()
        })
        .collect();

    let times = spans::median_self_us(tracer.spans());
    let span_s = |span: &str| spans::row(&times, span) / 1e6;
    for &(name, us) in &times {
        report.name(&format!("budget.{name}_s"), us / 1e6, "s");
    }
    let graph_s = span_s("graph.build");
    let parallel_s = span_s("community.cluster_parallel");
    let refresh_s =
        graph_s + parallel_s + span_s("core.domains_from_clustering") + span_s("refresh");
    let (parallel, sql, ooc) = (&observed[0], &observed[1], &observed[2]);
    let (pool_hit_rate, pool_misses, pool_evictions) = ooc.pool.unwrap_or((0.0, 0, 0));
    tracer
        .write(&opts.out_dir.join("trace-offline_refresh.json"))
        .expect("writing the span file");
    report.per_layer(&[
        ("graph.build_s", graph_s),
        ("graph.nodes", parallel.nodes as f64),
        ("graph.edges", parallel.edges as f64),
        ("graph.dropped_terms", parallel.dropped_terms as f64),
        ("community.cluster_parallel_s", parallel_s),
        ("community.cluster_sql_s", span_s("community.cluster_sql")),
        (
            "community.cluster_sql_ooc_s",
            span_s("community.cluster_sql_ooc"),
        ),
        ("community.iterations", parallel.iterations as f64),
        ("community.modularity", parallel.modularity),
        ("community.domains", parallel.domains as f64),
        ("relation.rows_scanned", sql.rows_scanned as f64),
        ("relation.rows_scanned_ooc", ooc.rows_scanned as f64),
        ("storage.pool_hit_rate", pool_hit_rate),
        ("storage.pool_misses", pool_misses as f64),
        ("storage.pool_evictions", pool_evictions as f64),
        ("storage.spill_bytes", ooc.spill_bytes as f64),
        ("storage.spill_parts", ooc.spill_parts as f64),
        // What `run_offline` spends outside the graph and clustering
        // layers: multigraph glue, stage accounting, domain indexing.
        ("core.offline_self_s", fastest[0] - graph_s - parallel_s),
        (
            "core.offline_nproc_workers_s",
            best(&nproc_workers_s).unwrap_or(0.0),
        ),
        ("core.domains_checksum", f64::from(checksum)),
        // A refresh replayed step by step against the same refresh as
        // one `run_offline` call.
        (
            "bench.trace_overhead_share",
            (refresh_s - fastest[0]) / fastest[0],
        ),
        ("bench.spans", tracer.spans().len() as f64),
        ("bench.replayed_requests", (tracer.spans().len() / 4) as f64),
    ]);
    report
}
