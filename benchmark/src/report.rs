//! The metric catalogue and the report every run writes.
//!
//! `BENCHMARK.json` lists the same names and units; a unit test keeps
//! the two in step.

use crate::client::PhaseOutcome;
use crate::host::Host;
use serde::Serialize;
use std::path::Path;

/// The gated workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "search_uncached",
    "search_cached",
    "search_batch",
    "offline_refresh",
];

/// Workloads that run and report like the others but are not in
/// `BENCHMARK.json`, so the benchmark driver does not gate them.
/// `ingest_mixed` is reader, writer and compaction side by side, bound
/// by fsync and by how the host schedules three busy threads on two
/// processors: ten runs of the seed code spread its median read 19%
/// and its restart 21% in a spell in which the other workloads spread
/// 4-14% (`benchmark/README.md`), too close to the 25% a bound may be.
pub const EXTRA_WORKLOADS: [&str; 1] = ["ingest_mixed"];

/// Every workload this binary runs.
pub fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.into_iter().chain(EXTRA_WORKLOADS)
}

/// End-to-end metrics `(name, unit)`: what the last output line carries
/// with `--trace 0`, on every workload. The contract wants every
/// workload to report every end-to-end metric, so the three in front
/// are roles, filled per workload (the table in `benchmark/README.md`):
/// work completed per second, the median latency of the workload's
/// request, and its slow path (the most expensive request in twenty, the
/// restart, the out-of-core refresh).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("slow_path_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`: what the last output line carries
/// with `--trace 1`. A layer a workload does not exercise reports 0,
/// which is the prediction "no change" made checkable.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.parse_request_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.render_body_us", "us"),
    ("serve.render_response_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.shed_count", "count"),
    ("serve.batch_queries", "count"),
    ("serve.client_p50_us", "us"),
    ("serve.unattributed_us", "us"),
    ("core.expand_us", "us"),
    ("core.expansion_terms_per_query", "count"),
    ("core.search_bounded_us", "us"),
    ("core.search_self_us", "us"),
    ("core.search_batch_us", "us"),
    ("core.results_checksum", "count"),
    ("core.domains_save_s", "s"),
    ("core.domains_load_s", "s"),
    ("core.offline_self_s", "s"),
    ("core.offline_nproc_workers_s", "s"),
    ("core.domains_checksum", "count"),
    ("microblog.match_us", "us"),
    ("microblog.match_bounded_us", "us"),
    ("microblog.match_batch_us", "us"),
    ("microblog.postings_walked_per_query", "count"),
    ("microblog.matched_tweets_per_query", "count"),
    ("microblog.batch_shared_term_share", "ratio"),
    ("microblog.index_build_s", "s"),
    ("microblog.save_s", "s"),
    ("microblog.load_s", "s"),
    ("microblog.save_sharded_s", "s"),
    ("microblog.load_copy_s", "s"),
    ("microblog.load_zero_copy_s", "s"),
    ("microblog.persisted_bytes", "bytes"),
    ("microblog.corpus_bytes", "bytes"),
    ("expert.rank_us", "us"),
    ("expert.rank_batch_us", "us"),
    ("expert.experts_returned_per_query", "count"),
    ("ingest.apply_batch_us", "us"),
    ("ingest.parse_batch_us", "us"),
    ("ingest.wal_bytes_per_op", "bytes"),
    ("ingest.compact_total_ms", "ms"),
    ("ingest.compact_pause_ms", "ms"),
    ("ingest.compact_bytes_written", "bytes"),
    ("ingest.compactions", "count"),
    ("ingest.acked_ops", "count"),
    ("ingest.tail_ops_replayed", "count"),
    ("ingest.read_delta_overhead", "ratio"),
    ("ingest.read_stalled_share", "ratio"),
    ("ingest.ack_p50_us", "us"),
    ("ingest.ops_per_s", "1/s"),
    ("ingest.script_ops_per_s", "1/s"),
    ("ingest.reopen_s", "s"),
    ("ingest.restart_s", "s"),
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.dropped_terms", "count"),
    ("community.cluster_parallel_s", "s"),
    ("community.cluster_sql_s", "s"),
    ("community.cluster_sql_ooc_s", "s"),
    ("community.iterations", "count"),
    ("community.modularity", "score"),
    ("community.domains", "count"),
    ("relation.rows_scanned", "count"),
    ("relation.rows_scanned_ooc", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_misses", "count"),
    ("storage.pool_evictions", "count"),
    ("storage.spill_bytes", "bytes"),
    ("storage.spill_parts", "count"),
    ("bench.open_lag_p99_us", "us"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.closed_p50_us", "us"),
    ("bench.closed_p99_us", "us"),
    ("bench.closed_qps", "1/s"),
    ("bench.capacity_qps", "1/s"),
    ("bench.open_p50_us", "us"),
    ("bench.open_p95_us", "us"),
    ("bench.failed_share", "ratio"),
    ("bench.spans", "count"),
    ("bench.replayed_requests", "count"),
    ("bench.fixture_generation_s", "s"),
    ("bench.matchrank_share_of_p50", "ratio"),
    ("bench.budget_sum_us", "us"),
    ("bench.peak_rss_mb", "MiB"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// One output check and how it came out.
#[derive(Debug, Clone, Serialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// Smoke-sized fixtures (numbers mean nothing).
    pub smoke: bool,
    /// Host shape and provenance.
    pub host: Host,
    /// Server worker threads (0 when the workload has no server).
    pub server_workers: usize,
    /// Whether every output check passed and no request failed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: non-200, shed, transport error or wrong
    /// body.
    pub failed: u64,
    /// The last line's metrics: `END_TO_END` or `PER_LAYER`.
    pub metrics: Vec<Metric>,
    /// Every other named figure: the end-to-end metrics under the names
    /// the defining issue gave them, counts, budget rows.
    pub named: Vec<Metric>,
    /// Load phases with their attempted / ok / shed / error / wrong
    /// counts, durations and client counts.
    pub phases: Vec<PhaseOutcome>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Each repetition of the set-up step, seconds.
    pub setup_samples_s: Vec<f64>,
    /// Fixture generation, seconds (not part of `setup_s`).
    pub fixture_generation_s: f64,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, opts: &crate::Options) -> Report {
        Report {
            workload: workload.to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            trace: opts.trace,
            smoke: opts.scale == crate::fixtures::Scale::Smoke,
            host: Host::detect(),
            server_workers: 0,
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            named: Vec::new(),
            phases: Vec::new(),
            checks: Vec::new(),
            setup_samples_s: Vec::new(),
            fixture_generation_s: 0.0,
        }
    }

    /// Record an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// Record a named figure.
    pub fn name(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push(Metric::new(name, value, unit));
    }

    /// Add a load phase and its counts.
    pub fn phase(&mut self, phase: PhaseOutcome) {
        self.attempted += phase.attempted;
        self.failed += phase.failed();
        self.phases.push(phase);
    }

    /// Set the last line's end-to-end metrics.
    pub fn end_to_end(&mut self, throughput_per_s: f64, latency_p50_us: f64, slow_path_us: f64) {
        let setup_s = crate::stats::median(&self.setup_samples_s).unwrap_or(0.0);
        let values = [throughput_per_s, latency_p50_us, slow_path_us, setup_s];
        self.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect();
        self.name("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        self.name("failed_share", failed_share, "ratio");
    }

    /// Set the last line's per-layer metrics: every catalogue name, 0
    /// for the layers this workload did not exercise. The rows every
    /// traced run has (`bench.failed_share`, `bench.fixture_generation_s`,
    /// `bench.peak_rss_mb`) are filled in here.
    pub fn per_layer(&mut self, measured: &[(&str, f64)]) {
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        let common = [
            ("bench.failed_share", failed_share),
            ("bench.fixture_generation_s", self.fixture_generation_s),
            ("bench.peak_rss_mb", crate::host::peak_rss_mb()),
        ];
        let measured: Vec<(&str, f64)> = measured.iter().copied().chain(common).collect();
        for (name, _) in &measured {
            assert!(
                PER_LAYER.iter().any(|(known, _)| known == name),
                "{name} is not in the per-layer catalogue"
            );
        }
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, crate::spans::row(&measured, name), unit))
            .collect();
    }

    /// Decide `correct`: every check passed, nothing failed, and every
    /// reported value is a finite number.
    pub fn conclude(&mut self) {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        self.check(
            "metrics_are_finite",
            finite,
            format!("{} metrics", self.metrics.len()),
        );
        self.correct =
            self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.passed);
    }

    /// The contract's result line.
    pub fn last_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable rendering: every metric by name with its unit.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {} s, trace {}, nproc {}{}{})\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.host.nproc,
            if self.host.degenerate_host {
                ", DEGENERATE HOST"
            } else {
                ""
            },
            if self.smoke { ", SMOKE" } else { "" },
        );
        for phase in &self.phases {
            out.push_str(&format!(
                "phase {:<12} clients {} elapsed {:.2} s attempted {} ok {} shed {} errors {} wrong {} checked {} | p50 {:.1} us q1 {:.1} q3 {:.1} n {}\n",
                phase.name, phase.clients, phase.elapsed_s, phase.attempted, phase.ok,
                phase.shed, phase.errors, phase.wrong, phase.checked,
                phase.latency_us.p50, phase.latency_us.q1, phase.latency_us.q3,
                phase.latency_us.count,
            ));
        }
        for check in &self.checks {
            out.push_str(&format!(
                "check {:<36} {} ({})\n",
                check.name,
                if check.passed { "ok" } else { "FAILED" },
                check.detail
            ));
        }
        for metric in self.named.iter().chain(&self.metrics) {
            out.push_str(&format!(
                "{:<40} {:>16.4} {}\n",
                metric.name, metric.value, metric.unit
            ));
        }
        out
    }

    /// Write the report as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}
