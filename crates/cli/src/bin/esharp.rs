//! `esharp` — command-line front door to the e# reproduction.
//!
//! ```text
//! esharp build  [--scale tiny|small|paper] [--seed N] [--out DIR]
//!               [--shards K] [--checkpoint-dir DIR] [--resume]
//!     Run the offline pipeline, print stage stats, persist the domain
//!     collection (domains.bin), similarity graph (graph.bin) and corpus
//!     (corpus.bin, its postings cut into --shards K shards, default 1) —
//!     each checksummed and written atomically. With --checkpoint-dir
//!     every stage is checkpointed; --resume additionally reuses
//!     checkpoints left by a previous (possibly crashed) run instead of
//!     starting fresh.
//!
//! esharp search <query>… [--scale …] [--seed N] [--baseline] [--top K]
//!     Build the testbed and search each query, printing ranked experts
//!     with and without expansion.
//!
//! esharp inspect <term> [--scale …] [--seed N] [-k N]
//!     Print the term's community and its k closest communities (Fig 7).
//!
//! esharp sql "<select …>" [--scale …] [--seed N]
//!     Run SQL against the pipeline tables (log, graph, communities)
//!     through the engine's physical planner; prints the physical plan
//!     and the result.
//!
//! esharp cluster [--explain] [--buffer-pool-mb N] [--workers N]
//!                [--scale …] [--seed N]
//!     Run the paper's SQL-based clustering (Figure 4) through the
//!     cost-based physical planner. With --buffer-pool-mb N the graph
//!     table lives in a paged heap file and every scan streams pages
//!     through an N-MiB buffer pool, with blocking operators spilling
//!     under the same cap (out-of-core execution); pool hit rate and
//!     spill counters are printed at the end. --explain prints the
//!     chosen physical plans and, for every iteration, per-operator
//!     EXPLAIN ANALYZE stats (rows, bytes, wall and self time, spills)
//!     plus the history-informed re-plan of iteration 2, so the
//!     planner's cost decisions and each operator's time are auditable.
//!
//! esharp ingest --replay FILE [--corpus FILE] [--oplog FILE] [--compact]
//!               [--scale …] [--seed N]
//!     Replay a file of ingest op lines (`user\t…`, `tweet\t…`,
//!     `delete\tID`; `#` comments) into a live corpus. With --corpus and
//!     --oplog the corpus is opened from (or bootstrapped to) disk and
//!     every batch is WAL-logged; --compact folds the delta into the base
//!     afterwards. Without them, a synthetic testbed absorbs the replay
//!     in memory (a dry run).
//!
//! esharp serve [--addr HOST:PORT] [--workers N] [--cache-capacity N]
//!              [--queue-depth N] [--domains FILE] [--corpus FILE]
//!              [--compact-threshold N] [--compact-interval-ms N]
//!              [--deadline-ms N] [--hedge] [--hedge-delay-ms N]
//!              [--max-body-bytes N] [--scale …] [--seed N]
//!     Serve over HTTP: GET /search?q=…, GET /healthz, GET /metrics,
//!     POST /reload (hot domain reload from --domains), POST /ingest
//!     (streaming op batches), POST /compact (manual compaction). With
//!     --corpus (and a --domains file that exists) the server starts from
//!     persisted artifacts — no testbed build, no re-tokenization, no
//!     index rebuild. --compact-threshold N > 0 starts the background
//!     compactor. --deadline-ms bounds every search (shard work past the
//!     deadline is abandoned and the answer marked partial; clients can
//!     tighten per request with X-Esharp-Deadline-Ms). --hedge re-issues
//!     straggling shards after --hedge-delay-ms. --max-body-bytes caps
//!     POST bodies (413 above it). Runs until killed.
//! ```

use esharp_eval::{EvalScale, Testbed};
use esharp_graph::relation_io::{graph_to_table, log_to_table};
use esharp_relation::{
    explain_physical, optimize, plan_sql, Catalog, DataType, ExecContext, Schema, TableBuilder,
    Value,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: esharp <build|search|inspect|sql|cluster|serve|ingest> …  (see --help)");
        std::process::exit(2);
    };
    let opts = Options::parse(&args[1..]);
    match command.as_str() {
        "build" => build(&opts),
        "search" => search(&opts),
        "inspect" => inspect(&opts),
        "sql" => sql(&opts),
        "cluster" => cluster(&opts),
        "serve" => serve(&opts),
        "ingest" => ingest(&opts),
        "--help" | "-h" | "help" => {
            println!("subcommands: build, search, inspect, sql, cluster, serve, ingest");
            println!("flags: --scale tiny|small|paper, --seed N, --out DIR, --checkpoint-dir DIR, --resume, --baseline, --top K, -k N, --shards K, --addr HOST:PORT, --workers N, --cache-capacity N, --queue-depth N, --domains FILE, --corpus FILE, --replay FILE, --oplog FILE, --compact, --compact-threshold N, --compact-interval-ms N, --deadline-ms N, --hedge, --hedge-delay-ms N, --max-body-bytes N, --keep-alive-timeout-ms N, --max-pipeline-depth N, --batch-max-queries N, --explain, --buffer-pool-mb N");
        }
        other => fail(
            "parse arguments",
            format!("unknown subcommand {other:?} (run esharp --help)"),
        ),
    }
}

struct Options {
    scale: EvalScale,
    seed: u64,
    out: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
    baseline: bool,
    top: usize,
    k: usize,
    shards: usize,
    corpus: Option<String>,
    addr: String,
    workers: usize,
    cache_capacity: usize,
    queue_depth: usize,
    domains: Option<String>,
    replay: Option<String>,
    oplog: Option<String>,
    compact: bool,
    compact_threshold: usize,
    compact_interval_ms: u64,
    deadline_ms: u64,
    hedge: bool,
    hedge_delay_ms: u64,
    max_body_bytes: usize,
    keep_alive_timeout_ms: u64,
    max_pipeline_depth: usize,
    batch_max_queries: usize,
    explain: bool,
    buffer_pool_mb: u64,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut opts = Options {
            scale: EvalScale::Small,
            seed: 2016,
            out: None,
            checkpoint_dir: None,
            resume: false,
            baseline: false,
            top: 5,
            k: 3,
            shards: 0,
            corpus: None,
            addr: "127.0.0.1:8080".to_string(),
            workers: 4,
            cache_capacity: 1024,
            queue_depth: 64,
            domains: None,
            replay: None,
            oplog: None,
            compact: false,
            compact_threshold: 0,
            compact_interval_ms: 250,
            deadline_ms: 1000,
            hedge: false,
            hedge_delay_ms: 20,
            max_body_bytes: 64 * 1024,
            keep_alive_timeout_ms: 5_000,
            max_pipeline_depth: 32,
            batch_max_queries: 256,
            explain: false,
            buffer_pool_mb: 0,
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    opts.scale = match iter.next().map(String::as_str) {
                        Some("tiny") => EvalScale::Tiny,
                        Some("small") => EvalScale::Small,
                        Some("paper") => EvalScale::Paper,
                        other => {
                            eprintln!("unknown scale {other:?}");
                            std::process::exit(2);
                        }
                    }
                }
                "--seed" => opts.seed = next_num(&mut iter, "--seed"),
                "--out" => opts.out = Some(next_value(&mut iter, "--out")),
                "--checkpoint-dir" => {
                    opts.checkpoint_dir = Some(next_value(&mut iter, "--checkpoint-dir"))
                }
                "--resume" => opts.resume = true,
                "--baseline" => opts.baseline = true,
                "--top" => opts.top = next_num(&mut iter, "--top") as usize,
                "-k" => opts.k = next_num(&mut iter, "-k") as usize,
                "--shards" => opts.shards = next_num(&mut iter, "--shards") as usize,
                "--corpus" => opts.corpus = Some(next_value(&mut iter, "--corpus")),
                "--addr" => opts.addr = next_value(&mut iter, "--addr"),
                "--workers" => opts.workers = next_num(&mut iter, "--workers") as usize,
                "--cache-capacity" => {
                    opts.cache_capacity = next_num(&mut iter, "--cache-capacity") as usize
                }
                "--queue-depth" => opts.queue_depth = next_num(&mut iter, "--queue-depth") as usize,
                "--domains" => opts.domains = Some(next_value(&mut iter, "--domains")),
                "--replay" => opts.replay = Some(next_value(&mut iter, "--replay")),
                "--oplog" => opts.oplog = Some(next_value(&mut iter, "--oplog")),
                "--compact" => opts.compact = true,
                "--compact-threshold" => {
                    opts.compact_threshold = next_num(&mut iter, "--compact-threshold") as usize
                }
                "--compact-interval-ms" => {
                    opts.compact_interval_ms = next_num(&mut iter, "--compact-interval-ms")
                }
                "--deadline-ms" => opts.deadline_ms = next_num(&mut iter, "--deadline-ms"),
                "--hedge" => opts.hedge = true,
                "--hedge-delay-ms" => {
                    opts.hedge_delay_ms = next_num(&mut iter, "--hedge-delay-ms")
                }
                "--max-body-bytes" => {
                    opts.max_body_bytes = next_num(&mut iter, "--max-body-bytes") as usize
                }
                "--keep-alive-timeout-ms" => {
                    opts.keep_alive_timeout_ms = next_num(&mut iter, "--keep-alive-timeout-ms")
                }
                "--max-pipeline-depth" => {
                    opts.max_pipeline_depth =
                        next_num(&mut iter, "--max-pipeline-depth") as usize
                }
                "--batch-max-queries" => {
                    opts.batch_max_queries =
                        next_num(&mut iter, "--batch-max-queries") as usize
                }
                "--explain" => opts.explain = true,
                "--buffer-pool-mb" => {
                    opts.buffer_pool_mb = next_num(&mut iter, "--buffer-pool-mb")
                }
                // Unknown flags are hard errors (a typo silently becoming
                // a positional argument is how `--bsaeline` runs the wrong
                // experiment); only non-dash tokens are positionals.
                other if other.starts_with('-') => fail(
                    "parse arguments",
                    format!("unknown flag {other:?} (run esharp --help)"),
                ),
                other => opts.positional.push(other.to_string()),
            }
        }
        opts
    }
}

fn next_num(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> u64 {
    iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} expects a number");
        std::process::exit(2);
    })
}

/// The value of a flag that takes one. A missing value, or a next token
/// that is itself a flag, is an error: `build --out --shards 4` must not
/// write to a directory called `--shards`.
fn next_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    match iter.next() {
        Some(value) if !value.starts_with("--") => value.clone(),
        _ => {
            eprintln!("{flag} expects a value");
            std::process::exit(2);
        }
    }
}

/// Exit with a clean message instead of a panic backtrace: the CLI's
/// contract is "errors to stderr, nonzero exit", never `unwrap`/`expect`.
fn fail(context: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("esharp: {context}: {error}");
    std::process::exit(1);
}

fn testbed(opts: &Options) -> Testbed {
    eprintln!("building testbed (scale {:?}, seed {})…", opts.scale, opts.seed);
    let started = std::time::Instant::now();
    let tb = match &opts.checkpoint_dir {
        Some(dir) => {
            let ckpt = esharp_core::CheckpointDir::new(dir)
                .unwrap_or_else(|e| fail("open checkpoint dir", e));
            if opts.resume {
                eprintln!("resuming from checkpoints in {dir}…");
            } else {
                // A fresh run must not silently reuse last week's stages.
                ckpt.clear().unwrap_or_else(|e| fail("clear checkpoint dir", e));
            }
            Testbed::build_resumable(opts.scale, opts.seed, &ckpt)
                .unwrap_or_else(|e| fail("offline pipeline", e))
        }
        None => {
            if opts.resume {
                eprintln!("esharp: --resume requires --checkpoint-dir");
                std::process::exit(2);
            }
            Testbed::build(opts.scale, opts.seed)
        }
    };
    eprintln!(
        "ready in {:.1?}: {} domains · {} graph nodes · {} tweets",
        started.elapsed(),
        tb.world.num_domains(),
        tb.artifacts.graph.num_nodes(),
        tb.corpus.tweet_count()
    );
    tb
}

fn build(opts: &Options) {
    let tb = testbed(opts);
    println!("pipeline stages:");
    for stage in &tb.artifacts.stages {
        println!("  {stage}");
    }
    println!(
        "clustering: {} communities after {} iterations",
        tb.artifacts.outcome.num_communities(),
        tb.artifacts.outcome.iterations()
    );
    if let Some(dir) = &opts.out {
        let domains_path = format!("{dir}/domains.bin");
        let graph_path = format!("{dir}/graph.bin");
        let corpus_path = format!("{dir}/corpus.bin");
        tb.esharp
            .domains()
            .save(&domains_path)
            .unwrap_or_else(|e| fail("write domains", e));
        esharp_graph::io::save_graph(&tb.artifacts.graph, &graph_path)
            .unwrap_or_else(|e| fail("write graph", e));
        let shards = opts.shards.max(1);
        tb.corpus
            .save_sharded(&corpus_path, shards)
            .unwrap_or_else(|e| fail("write corpus", e));
        println!("persisted {domains_path}, {graph_path} and {corpus_path} (K={shards})");
    } else if opts.shards > 0 {
        fail("parse arguments", "--shards requires --out DIR");
    }
}

fn search(opts: &Options) {
    if opts.positional.is_empty() {
        eprintln!("usage: esharp search <query>…");
        std::process::exit(2);
    }
    let tb = testbed(opts);
    for query in &opts.positional {
        let outcome = if opts.baseline {
            tb.esharp.search_baseline(&tb.corpus, query)
        } else {
            tb.esharp.search(&tb.corpus, query)
        };
        println!(
            "\n{query:?} → {} tweets matched, expansion {:?}",
            outcome.matched_tweets, outcome.expansion
        );
        for (rank, expert) in outcome.experts.iter().take(opts.top).enumerate() {
            let user = tb.corpus.user(expert.user);
            println!(
                "  {:>2}. @{:<26} {:+.2}  {} followers{}  — {}",
                rank + 1,
                user.handle,
                expert.score,
                user.followers,
                if user.verified { " ✓" } else { "" },
                user.description
            );
        }
        if outcome.experts.is_empty() {
            println!("  (no experts found)");
        }
    }
}

fn inspect(opts: &Options) {
    let Some(term) = opts.positional.first() else {
        eprintln!("usage: esharp inspect <term>");
        std::process::exit(2);
    };
    let tb = testbed(opts);
    match esharp_eval::experiments::figures::fig7(&tb, term, opts.k) {
        Some(fig) => println!("{}", fig.render()),
        None => println!("{term:?} is not a node of the similarity graph at this scale"),
    }
}

fn serve(opts: &Options) {
    use esharp_serve::{ServeConfig, Server};
    // With --corpus the server starts from persisted artifacts: the
    // corpus loads in O(bytes) — no re-tokenization, no index rebuild —
    // and expansion domains come from --domains (degraded Pal & Counts
    // when absent). Without it, build the synthetic testbed as before.
    let (corpus, esharp) = match &opts.corpus {
        Some(path) => {
            eprintln!("loading corpus from {path}…");
            let started = std::time::Instant::now();
            let corpus =
                esharp_microblog::Corpus::load(path).unwrap_or_else(|e| fail("load corpus", e));
            eprintln!(
                "corpus ready in {:.1?}: {} users · {} tweets · {} tokens",
                started.elapsed(),
                corpus.users().len(),
                corpus.tweet_count(),
                corpus.num_tokens()
            );
            let config = esharp_core::EsharpConfig::default();
            let esharp = match &opts.domains {
                Some(dpath) => esharp_core::Esharp::from_domains_file_or_degraded(dpath, config),
                None => esharp_core::Esharp::new(esharp_core::DomainCollection::default(), config),
            };
            (corpus, esharp)
        }
        None => {
            let tb = testbed(opts);
            (tb.corpus, tb.esharp)
        }
    };
    let config = ServeConfig {
        workers: opts.workers,
        cache_capacity: opts.cache_capacity,
        queue_depth: opts.queue_depth,
        domains_path: opts.domains.clone().map(std::path::PathBuf::from),
        compact_threshold: opts.compact_threshold,
        compact_interval: std::time::Duration::from_millis(opts.compact_interval_ms),
        deadline: std::time::Duration::from_millis(opts.deadline_ms.max(1)),
        hedge: opts.hedge,
        hedge_delay: std::time::Duration::from_millis(opts.hedge_delay_ms),
        max_body_bytes: opts.max_body_bytes,
        keep_alive_timeout: std::time::Duration::from_millis(opts.keep_alive_timeout_ms.max(1)),
        max_pipeline_depth: opts.max_pipeline_depth.max(1),
        batch_max_queries: opts.batch_max_queries.max(1),
        ..ServeConfig::default()
    };
    if let Some(path) = &config.domains_path {
        // Fail fast on an unusable reload source rather than at the first
        // POST /reload in production.
        if !path.exists() {
            eprintln!("esharp: warning: --domains {} does not exist yet; POST /reload will fail until it does", path.display());
        }
    } else {
        eprintln!("esharp: note: no --domains file; POST /reload will answer 400");
    }
    let server = Server::start(
        &opts.addr,
        config,
        std::sync::Arc::new(corpus),
        std::sync::Arc::new(esharp_core::SharedEsharp::new(esharp)),
    )
    .unwrap_or_else(|e| fail("bind server", e));
    println!(
        "serving on http://{} ({} workers, cache {}, queue {}) — Ctrl-C to stop",
        server.local_addr(),
        opts.workers,
        opts.cache_capacity,
        opts.queue_depth
    );
    println!("endpoints: GET /search?q=…  POST /search/batch  GET /healthz  GET /metrics  POST /reload  POST /ingest  POST /compact");
    if opts.compact_threshold > 0 {
        println!(
            "background compaction: every {} pending ops (polled each {}ms)",
            opts.compact_threshold, opts.compact_interval_ms
        );
    }
    loop {
        std::thread::park();
    }
}

/// `esharp ingest --replay FILE`: feed a file of op lines into a live
/// corpus — persisted when `--corpus`/`--oplog` are given, an in-memory
/// dry run against the synthetic testbed otherwise.
fn ingest(opts: &Options) {
    use esharp_ingest::{IngestOp, LiveCorpus};
    let Some(replay_path) = &opts.replay else {
        eprintln!("usage: esharp ingest --replay FILE [--corpus FILE --oplog FILE] [--compact]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(replay_path)
        .unwrap_or_else(|e| fail("read replay file", e));
    let ops = IngestOp::parse_batch(&text).unwrap_or_else(|e| fail("parse replay file", e));
    if ops.is_empty() {
        fail("parse replay file", "no ops in the replay file");
    }

    let live = match (&opts.corpus, &opts.oplog) {
        (Some(corpus_path), Some(oplog_path)) => {
            if std::path::Path::new(corpus_path).exists() {
                eprintln!("opening live corpus from {corpus_path} (+ {oplog_path})…");
                LiveCorpus::open(corpus_path, oplog_path)
                    .unwrap_or_else(|e| fail("open live corpus", e))
            } else {
                eprintln!("bootstrapping {corpus_path} from the synthetic testbed…");
                let tb = testbed(opts);
                LiveCorpus::create(tb.corpus, corpus_path, oplog_path)
                    .unwrap_or_else(|e| fail("bootstrap live corpus", e))
            }
        }
        (None, None) => {
            eprintln!("no --corpus/--oplog: in-memory dry run against the testbed");
            let tb = testbed(opts);
            LiveCorpus::new(tb.corpus)
        }
        _ => fail(
            "parse arguments",
            "--corpus and --oplog must be given together",
        ),
    };

    let started = std::time::Instant::now();
    let applied = live
        .apply_batch(&ops)
        .unwrap_or_else(|e| fail("apply replay batch", e));
    println!(
        "applied {} ops in {:.1?} → corpus epoch {}, {} live tweets, {} pending ops",
        applied.len(),
        started.elapsed(),
        live.epoch(),
        live.read().corpus().live_tweet_count(),
        live.pending_ops(),
    );
    if opts.compact {
        let started = std::time::Instant::now();
        match live.compact().unwrap_or_else(|e| fail("compact", e)) {
            Some(report) => println!(
                "compacted in {:.1?}: {} → {} tweets ({} tombstones reclaimed), {} bytes written, publish pause {}µs",
                started.elapsed(),
                report.before_tweets,
                report.after_tweets,
                report.before_tombstones,
                report.bytes_written,
                report.pause.as_micros(),
            ),
            None => println!("nothing to compact"),
        }
    }
}

/// `esharp cluster`: the Figure 4 SQL clustering loop on the physical
/// planner, optionally out of core and with EXPLAIN ANALYZE output.
fn cluster(opts: &Options) {
    use esharp_community::{cluster_sql_report, SqlClusterConfig};
    let tb = testbed(opts);
    let multigraph = &tb.artifacts.multigraph;
    let pool_bytes = if opts.buffer_pool_mb > 0 {
        Some((opts.buffer_pool_mb as usize) << 20)
    } else {
        None
    };
    let config = SqlClusterConfig {
        workers: opts.workers,
        // The pool cap doubles as the operator memory grant: anything
        // that would not fit the pool spills instead of growing.
        buffer_pool_bytes: pool_bytes,
        memory_grant: pool_bytes,
        explain: opts.explain,
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let (outcome, report) =
        cluster_sql_report(multigraph, &config).unwrap_or_else(|e| fail("sql clustering", e));
    println!(
        "sql clustering: {} communities after {} iterations in {:.1?} ({} workers{})",
        outcome.num_communities(),
        outcome.iterations(),
        started.elapsed(),
        opts.workers,
        match pool_bytes {
            Some(bytes) => format!(", {} MiB pool", bytes >> 20),
            None => ", in memory".to_string(),
        }
    );
    for stat in &outcome.trace {
        println!(
            "  iter {:>2}: {:>6} communities, modularity {:.4}, {} merges",
            stat.iteration, stat.communities, stat.total_modularity, stat.merges
        );
    }
    if let Some(pool) = report.pool {
        println!(
            "buffer pool: {} hits / {} misses (hit rate {:.1}%), {} evictions, {} writebacks",
            pool.hits,
            pool.misses,
            pool.hit_rate() * 100.0,
            pool.evictions,
            pool.writebacks
        );
    }
    if let Some(text) = report.explain {
        print!("{text}");
    }
}

fn sql(opts: &Options) {
    let Some(query) = opts.positional.first() else {
        eprintln!("usage: esharp sql \"select …\"");
        std::process::exit(2);
    };
    let tb = testbed(opts);
    let catalog = Catalog::new();
    catalog.register(
        "log",
        log_to_table(&tb.log, &tb.world).unwrap_or_else(|e| fail("build log table", e)),
    );
    catalog.register(
        "graph",
        graph_to_table(&tb.artifacts.graph).unwrap_or_else(|e| fail("build graph table", e)),
    );
    // communities(comm_name, query) over term texts.
    let schema = Schema::of(&[("comm_name", DataType::Int), ("query", DataType::Str)]);
    let mut builder = TableBuilder::new(schema);
    for node in 0..tb.artifacts.graph.num_nodes() as u32 {
        builder
            .push_row(vec![
                Value::Int(tb.artifacts.outcome.assignment.community_of(node) as i64),
                Value::str(tb.artifacts.graph.label(node)),
            ])
            .unwrap_or_else(|e| fail("build communities table", e));
    }
    catalog.register("communities", builder.finish());

    let ctx = ExecContext::new(catalog);
    let physical = plan_sql(query, &ctx)
        .and_then(|plan| optimize(&plan, &ctx))
        .unwrap_or_else(|e| fail("plan", e));
    println!("-- EXPLAIN\n{}", explain_physical(&physical));
    let table = ctx
        .execute_physical(&physical)
        .unwrap_or_else(|e| fail("execute", e));
    println!("-- {} rows\n{table}", table.num_rows());
}
