//! Crash-safe checkpointing for the weekly offline refresh.
//!
//! The paper's pipeline is a weekly batch job over ~1 TB of logs; a crash
//! near the end of such a run is expensive if it means starting over.
//! [`CheckpointDir`] persists every pipeline stage — filtered log,
//! similarity graph, multigraph, clustering outcome, domain collection —
//! as a checksummed, atomically-written artifact tagged with a manifest
//! (format version + configuration hash + input fingerprint).
//! [`crate::run_offline_resumable`] consults the directory before each
//! stage and recomputes only what is missing or stale.
//!
//! ## File format
//!
//! One file per stage, all frames in `esharp-relation`'s checksummed
//! binary table container ([`encode_frames`]): frame 0 is the manifest
//! relation `manifest(key, value)`, the remaining frames are the stage
//! payload. Embedding the manifest in the artifact file (rather than a
//! sidecar) keeps validation atomic: the temp-file-then-rename write
//! publishes artifact and manifest together or not at all.
//!
//! ## Validation and staleness
//!
//! A checkpoint is used only when its format version, config hash and
//! input fingerprint all match the current run and every frame passes its
//! CRC. *Any* failure — missing file, truncation, bit flip, stale hash —
//! silently falls back to recomputing the stage; corruption can cost
//! time, never correctness. The config hash covers exactly the knobs
//! that change offline artifacts (support threshold, graph thresholds,
//! discretization scale, backend, iteration cap). Worker counts are
//! deliberately excluded: the `esharp-par` determinism contract makes
//! artifacts bit-identical at any worker count, so resuming a 16-worker
//! run with 4 workers is valid.
//!
//! ## Fault injection
//!
//! Every write funnels through [`atomic_write_with`] with the directory's
//! [`FaultInjector`], and stage boundaries consult `stage:<name>` /
//! `iter:<k>` sites via [`CheckpointDir::kill_point`] — so the
//! kill-at-every-stage resume matrix in `tests/crashsafety.rs` is driven
//! entirely by seeds, with no real signals or subprocesses. The default
//! injector is [`NoFaults`], which inlines to `None` and costs nothing.

use crate::config::{ClusterBackend, EsharpConfig};
use crate::domains::DomainCollection;
use crate::error::{EsharpError, EsharpResult};
use esharp_community::{Assignment, ClusteringOutcome, IterationStat};
use esharp_fault::{fault_error, FaultInjector, NoFaults, RetryPolicy};
use esharp_graph::io::{graph_from_tables, graph_tables};
use esharp_graph::{BuildStats, MultiGraph, SimilarityGraph};
use esharp_querylog::{AggregatedLog, ClickRecord, World};
use esharp_relation::atomic::atomic_write_with;
use esharp_relation::binfmt::{decode_frames_exact, encode_frames};
use esharp_relation::{DataType, Schema, Table, TableBuilder, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint format version; bumped when any stage's payload layout
/// changes so old checkpoints are recomputed, not misread.
const FORMAT: i64 = 1;

const FILTERED_FILE: &str = "filtered.ck";
const GRAPH_FILE: &str = "graph.ck";
const MULTIGRAPH_FILE: &str = "multigraph.ck";
const CLUSTERING_FILE: &str = "clustering.ck";
const PROGRESS_FILE: &str = "clustering.progress";
const DOMAINS_FILE: &str = "domains.ck";

/// What a checkpoint must match to be resumed: a hash of the
/// artifact-shaping configuration and a fingerprint of the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV hash over the offline-relevant [`EsharpConfig`] fields.
    pub config: u64,
    /// FNV hash over the aggregated log and the world it refers to.
    pub input: u64,
}

impl Fingerprint {
    /// Fingerprint a run. Hashes the full aggregated log (records, totals,
    /// raw-event count) plus the world's identity — a checkpoint from last
    /// week's log can never satisfy this week's run.
    pub fn new(config: &EsharpConfig, log: &AggregatedLog, world: &World) -> Fingerprint {
        let mut c = Fnv::new();
        c.u64(config.min_support);
        c.f64(config.graph.min_similarity);
        c.u64(config.graph.max_url_fanout as u64);
        c.f64(config.discretize_scale);
        c.u64(match config.backend {
            ClusterBackend::Parallel => 0,
            ClusterBackend::Sql => 1,
            ClusterBackend::Newman => 2,
            ClusterBackend::Louvain => 3,
            ClusterBackend::LabelPropagation => 4,
        });
        c.u64(config.max_iterations as u64);

        let mut i = Fnv::new();
        i.u64(world.seed);
        i.u64(world.terms.len() as u64);
        i.u64(world.urls.len() as u64);
        i.u64(log.raw_events);
        i.u64(log.term_totals.len() as u64);
        for &total in &log.term_totals {
            i.u64(total);
        }
        i.u64(log.records.len() as u64);
        for r in &log.records {
            i.u64(r.term as u64);
            i.u64(r.url as u64);
            i.u64(r.clicks);
        }
        Fingerprint { config: c.finish(), input: i.finish() }
    }
}

/// Incremental FNV-1a over 64-bit words (no allocation, no deps).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A directory of stage checkpoints plus the fault-injection context every
/// write in the resumable pipeline runs under.
pub struct CheckpointDir {
    root: PathBuf,
    injector: Arc<dyn FaultInjector>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for CheckpointDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointDir").field("root", &self.root).finish()
    }
}

impl CheckpointDir {
    /// Open (creating if needed) a checkpoint directory with no fault
    /// injection and no retries — the production configuration.
    pub fn new(root: impl Into<PathBuf>) -> EsharpResult<CheckpointDir> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| EsharpError::Io {
            kind: e.kind(),
            message: format!("create checkpoint dir {}: {e}", root.display()),
        })?;
        Ok(CheckpointDir {
            root,
            injector: Arc::new(NoFaults),
            retry: RetryPolicy::none(),
        })
    }

    /// Thread a deterministic fault injector and retry policy through
    /// every subsequent write and stage boundary (tests, chaos drills).
    pub fn with_faults(mut self, injector: Arc<dyn FaultInjector>, retry: RetryPolicy) -> Self {
        self.injector = injector;
        self.retry = retry;
        self
    }

    /// The directory holding the stage files.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Delete every stage checkpoint (a `--fresh`/non-`--resume` run: the
    /// directory stays, the state goes). Missing files are fine.
    pub fn clear(&self) -> EsharpResult<()> {
        for file in [
            FILTERED_FILE,
            GRAPH_FILE,
            MULTIGRAPH_FILE,
            CLUSTERING_FILE,
            PROGRESS_FILE,
            DOMAINS_FILE,
        ] {
            match std::fs::remove_file(self.root.join(file)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(EsharpError::Io {
                        kind: e.kind(),
                        message: format!("clear checkpoint {file}: {e}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Consult the injector at a non-write site (`stage:<name>`,
    /// `iter:<k>`): a planned fault there surfaces as an [`EsharpError`],
    /// modeling a process kill at that boundary.
    pub fn kill_point(&self, site: &str) -> EsharpResult<()> {
        match self.injector.fault_at(site, 0) {
            Some(fault) => Err(EsharpError::from(fault_error(fault, site))),
            None => Ok(()),
        }
    }

    fn store(
        &self,
        file: &str,
        fp: &Fingerprint,
        extras: &[(&str, i64)],
        mut payload: Vec<Table>,
    ) -> EsharpResult<()> {
        let mut frames = vec![manifest_table(fp, extras)?];
        frames.append(&mut payload);
        let buf = encode_frames(&frames);
        let site = format!("write:{file}");
        atomic_write_with(self.root.join(file), &buf, &*self.injector, &site, &self.retry)
            .map_err(|e| EsharpError::Io {
                kind: e.kind(),
                message: format!("{site}: {e}"),
            })
    }

    /// Load a stage file and validate its manifest against `fp`. Any
    /// failure — absent, corrupt, wrong frame count, stale hashes — is
    /// `None`: the caller recomputes the stage.
    fn load(&self, file: &str, fp: &Fingerprint, frames: usize) -> Option<(Manifest, Vec<Table>)> {
        let data = std::fs::read(self.root.join(file)).ok()?;
        let mut tables = decode_frames_exact(&data, frames + 1).ok()?;
        let manifest = Manifest::from_table(tables.first()?)?;
        if manifest.format != FORMAT
            || manifest.config != fp.config
            || manifest.input != fp.input
        {
            return None;
        }
        tables.remove(0);
        Some((manifest, tables))
    }

    // --- Stage 1: support-filtered log -----------------------------------

    pub(crate) fn store_filtered(
        &self,
        fp: &Fingerprint,
        log: &AggregatedLog,
        dropped: usize,
    ) -> EsharpResult<()> {
        let records_schema = Schema::of(&[
            ("term", DataType::Int),
            ("url", DataType::Int),
            ("clicks", DataType::Int),
        ]);
        let mut records = TableBuilder::with_capacity(records_schema, log.records.len());
        for r in &log.records {
            records
                .push_row(vec![
                    Value::Int(r.term as i64),
                    Value::Int(r.url as i64),
                    Value::Int(r.clicks as i64),
                ])
                .map_err(table_err)?;
        }
        let totals_schema = Schema::of(&[("total", DataType::Int)]);
        let mut totals = TableBuilder::with_capacity(totals_schema, log.term_totals.len());
        for &t in &log.term_totals {
            totals.push_row(vec![Value::Int(t as i64)]).map_err(table_err)?;
        }
        let extras = [
            ("raw_events", log.raw_events as i64),
            ("dropped", dropped as i64),
        ];
        self.store(FILTERED_FILE, fp, &extras, vec![records.finish(), totals.finish()])
    }

    pub(crate) fn load_filtered(&self, fp: &Fingerprint) -> Option<(AggregatedLog, usize)> {
        let (manifest, tables) = self.load(FILTERED_FILE, fp, 2)?;
        let raw_events = u64::try_from(manifest.extra("raw_events")?).ok()?;
        let dropped = usize::try_from(manifest.extra("dropped")?).ok()?;
        let (records_t, totals_t) = (&tables[0], &tables[1]);
        let term = records_t.column_by_name("term").ok()?;
        let url = records_t.column_by_name("url").ok()?;
        let clicks = records_t.column_by_name("clicks").ok()?;
        let mut records = Vec::with_capacity(records_t.num_rows());
        for row in 0..records_t.num_rows() {
            records.push(ClickRecord {
                term: u32::try_from(term.value(row).as_int()?).ok()?,
                url: u32::try_from(url.value(row).as_int()?).ok()?,
                clicks: u64::try_from(clicks.value(row).as_int()?).ok()?,
            });
        }
        let total = totals_t.column_by_name("total").ok()?;
        let mut term_totals = Vec::with_capacity(totals_t.num_rows());
        for row in 0..totals_t.num_rows() {
            term_totals.push(u64::try_from(total.value(row).as_int()?).ok()?);
        }
        Some((AggregatedLog { records, term_totals, raw_events }, dropped))
    }

    // --- Stage 2: similarity graph (+ build stats) -----------------------

    pub(crate) fn store_graph(
        &self,
        fp: &Fingerprint,
        graph: &SimilarityGraph,
        stats: &BuildStats,
    ) -> EsharpResult<()> {
        let (nodes, edges) = graph_tables(graph).map_err(EsharpError::from)?;
        let extras = [
            ("num_queries", stats.num_queries as i64),
            ("candidate_pairs", stats.candidate_pairs as i64),
            ("edges_kept", stats.edges_kept as i64),
            ("urls_skipped", stats.urls_skipped as i64),
        ];
        self.store(GRAPH_FILE, fp, &extras, vec![nodes, edges])
    }

    pub(crate) fn load_graph(&self, fp: &Fingerprint) -> Option<(SimilarityGraph, BuildStats)> {
        let (manifest, tables) = self.load(GRAPH_FILE, fp, 2)?;
        let graph = graph_from_tables(&tables[0], &tables[1]).ok()?;
        let stats = BuildStats {
            num_queries: usize::try_from(manifest.extra("num_queries")?).ok()?,
            candidate_pairs: usize::try_from(manifest.extra("candidate_pairs")?).ok()?,
            edges_kept: usize::try_from(manifest.extra("edges_kept")?).ok()?,
            urls_skipped: usize::try_from(manifest.extra("urls_skipped")?).ok()?,
        };
        Some((graph, stats))
    }

    // --- Stage 3: discretized multigraph ---------------------------------

    pub(crate) fn store_multigraph(&self, fp: &Fingerprint, mg: &MultiGraph) -> EsharpResult<()> {
        let schema = Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("k", DataType::Int),
        ]);
        let mut edges = TableBuilder::with_capacity(schema, mg.edges().len());
        for &(a, b, k) in mg.edges() {
            edges
                .push_row(vec![Value::Int(a as i64), Value::Int(b as i64), Value::Int(k as i64)])
                .map_err(table_err)?;
        }
        let extras = [("num_nodes", mg.num_nodes() as i64)];
        self.store(MULTIGRAPH_FILE, fp, &extras, vec![edges.finish()])
    }

    pub(crate) fn load_multigraph(&self, fp: &Fingerprint) -> Option<MultiGraph> {
        let (manifest, tables) = self.load(MULTIGRAPH_FILE, fp, 1)?;
        let num_nodes = usize::try_from(manifest.extra("num_nodes")?).ok()?;
        let t = &tables[0];
        let a = t.column_by_name("a").ok()?;
        let b = t.column_by_name("b").ok()?;
        let k = t.column_by_name("k").ok()?;
        let mut edges = Vec::with_capacity(t.num_rows());
        for row in 0..t.num_rows() {
            let ea = u32::try_from(a.value(row).as_int()?).ok()?;
            let eb = u32::try_from(b.value(row).as_int()?).ok()?;
            if ea as usize >= num_nodes || eb as usize >= num_nodes {
                return None;
            }
            edges.push((ea, eb, u64::try_from(k.value(row).as_int()?).ok()?));
        }
        Some(MultiGraph::from_edges(num_nodes, edges))
    }

    // --- Stage 4: clustering (final + per-iteration progress) ------------

    pub(crate) fn store_clustering(
        &self,
        file: &str,
        fp: &Fingerprint,
        assignment: &Assignment,
        trace: &[IterationStat],
    ) -> EsharpResult<()> {
        let assign_schema = Schema::of(&[("community", DataType::Int)]);
        let mut assign = TableBuilder::with_capacity(assign_schema, assignment.len());
        for &c in assignment.as_slice() {
            assign.push_row(vec![Value::Int(c as i64)]).map_err(table_err)?;
        }
        let trace_schema = Schema::of(&[
            ("iteration", DataType::Int),
            ("communities", DataType::Int),
            ("total_modularity", DataType::Float),
            ("merges", DataType::Int),
        ]);
        let mut trace_t = TableBuilder::with_capacity(trace_schema, trace.len());
        for s in trace {
            trace_t
                .push_row(vec![
                    Value::Int(s.iteration as i64),
                    Value::Int(s.communities as i64),
                    Value::Float(s.total_modularity),
                    Value::Int(s.merges as i64),
                ])
                .map_err(table_err)?;
        }
        self.store(file, fp, &[], vec![assign.finish(), trace_t.finish()])
    }

    pub(crate) fn load_clustering(
        &self,
        file: &str,
        fp: &Fingerprint,
    ) -> Option<(Assignment, Vec<IterationStat>)> {
        let (_, tables) = self.load(file, fp, 2)?;
        let (assign_t, trace_t) = (&tables[0], &tables[1]);
        let community = assign_t.column_by_name("community").ok()?;
        let mut communities = Vec::with_capacity(assign_t.num_rows());
        for row in 0..assign_t.num_rows() {
            communities.push(u32::try_from(community.value(row).as_int()?).ok()?);
        }
        let iteration = trace_t.column_by_name("iteration").ok()?;
        let comms = trace_t.column_by_name("communities").ok()?;
        let modularity = trace_t.column_by_name("total_modularity").ok()?;
        let merges = trace_t.column_by_name("merges").ok()?;
        let mut trace = Vec::with_capacity(trace_t.num_rows());
        for row in 0..trace_t.num_rows() {
            trace.push(IterationStat {
                iteration: usize::try_from(iteration.value(row).as_int()?).ok()?,
                communities: usize::try_from(comms.value(row).as_int()?).ok()?,
                total_modularity: modularity.value(row).as_float()?,
                merges: usize::try_from(merges.value(row).as_int()?).ok()?,
            });
        }
        if trace.is_empty() {
            return None;
        }
        Some((Assignment::from_vec(communities), trace))
    }

    pub(crate) fn store_clustering_final(
        &self,
        fp: &Fingerprint,
        outcome: &ClusteringOutcome,
    ) -> EsharpResult<()> {
        self.store_clustering(CLUSTERING_FILE, fp, &outcome.assignment, &outcome.trace)?;
        // The per-iteration progress file is now redundant; a crash between
        // the rename above and this unlink is harmless (the final file wins
        // on the next run).
        let _ = std::fs::remove_file(self.root.join(PROGRESS_FILE));
        Ok(())
    }

    pub(crate) fn load_clustering_final(&self, fp: &Fingerprint) -> Option<ClusteringOutcome> {
        let (assignment, trace) = self.load_clustering(CLUSTERING_FILE, fp)?;
        Some(ClusteringOutcome { assignment, trace })
    }

    pub(crate) fn store_clustering_progress(
        &self,
        fp: &Fingerprint,
        assignment: &Assignment,
        trace: &[IterationStat],
    ) -> EsharpResult<()> {
        self.store_clustering(PROGRESS_FILE, fp, assignment, trace)
    }

    pub(crate) fn load_clustering_progress(
        &self,
        fp: &Fingerprint,
    ) -> Option<(Assignment, Vec<IterationStat>)> {
        self.load_clustering(PROGRESS_FILE, fp)
    }

    // --- Stage 5: domain collection --------------------------------------

    pub(crate) fn store_domains(
        &self,
        fp: &Fingerprint,
        domains: &DomainCollection,
    ) -> EsharpResult<()> {
        let (meta, members) = domains.tables().map_err(EsharpError::from)?;
        self.store(DOMAINS_FILE, fp, &[], vec![meta, members])
    }

    pub(crate) fn load_domains(&self, fp: &Fingerprint) -> Option<DomainCollection> {
        let (_, tables) = self.load(DOMAINS_FILE, fp, 2)?;
        DomainCollection::decode(&tables).ok()
    }
}

fn table_err(e: esharp_relation::RelError) -> EsharpError {
    EsharpError::Relation(e)
}

fn manifest_table(fp: &Fingerprint, extras: &[(&str, i64)]) -> EsharpResult<Table> {
    let schema = Schema::of(&[("key", DataType::Str), ("value", DataType::Int)]);
    let mut t = TableBuilder::with_capacity(schema, 3 + extras.len());
    let mut push = |key: &str, value: i64| {
        t.push_row(vec![Value::str(key), Value::Int(value)]).map_err(table_err)
    };
    push("format", FORMAT)?;
    push("config", fp.config as i64)?;
    push("input", fp.input as i64)?;
    for &(key, value) in extras {
        push(key, value)?;
    }
    Ok(t.finish())
}

struct Manifest {
    format: i64,
    config: u64,
    input: u64,
    extras: HashMap<String, i64>,
}

impl Manifest {
    fn from_table(t: &Table) -> Option<Manifest> {
        let key_col = t.column_by_name("key").ok()?;
        let value_col = t.column_by_name("value").ok()?;
        let mut entries = HashMap::with_capacity(t.num_rows());
        for row in 0..t.num_rows() {
            let Value::Str(key) = key_col.value(row) else {
                return None;
            };
            entries.insert(key.to_string(), value_col.value(row).as_int()?);
        }
        Some(Manifest {
            format: entries.remove("format")?,
            config: entries.remove("config")? as u64,
            input: entries.remove("input")? as u64,
            extras: entries,
        })
    }

    fn extra(&self, key: &str) -> Option<i64> {
        self.extras.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_querylog::{LogConfig, LogGenerator, WorldConfig};

    fn inputs() -> (World, AggregatedLog, EsharpConfig) {
        let world = World::generate(&WorldConfig::tiny(41));
        let log = AggregatedLog::from_events(
            LogGenerator::new(&world, &LogConfig::tiny(41)),
            world.terms.len(),
        );
        (world, log, EsharpConfig::tiny())
    }

    fn temp_ckpt(name: &str) -> CheckpointDir {
        let root = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&root);
        CheckpointDir::new(root).unwrap()
    }

    #[test]
    fn fingerprint_tracks_config_and_input() {
        let (world, log, config) = inputs();
        let base = Fingerprint::new(&config, &log, &world);
        assert_eq!(base, Fingerprint::new(&config, &log, &world));

        let mut tweaked = config.clone();
        tweaked.min_support += 1;
        assert_ne!(base.config, Fingerprint::new(&tweaked, &log, &world).config);

        // Worker counts must NOT invalidate checkpoints (determinism
        // contract: artifacts are bit-identical at any worker count).
        let mut workers = config.clone();
        workers.workers = 16;
        assert_eq!(base.config, Fingerprint::new(&workers, &log, &world).config);

        let mut log2 = log.clone();
        log2.raw_events += 1;
        assert_ne!(base.input, Fingerprint::new(&config, &log2, &world).input);
    }

    #[test]
    fn filtered_stage_round_trips() {
        let (world, log, config) = inputs();
        let fp = Fingerprint::new(&config, &log, &world);
        let ckpt = temp_ckpt("esharp_ckpt_filtered");
        let (filtered, dropped) = log.filter_min_support(config.min_support);
        ckpt.store_filtered(&fp, &filtered, dropped).unwrap();
        let (back, back_dropped) = ckpt.load_filtered(&fp).unwrap();
        assert_eq!(back.records, filtered.records);
        assert_eq!(back.term_totals, filtered.term_totals);
        assert_eq!(back.raw_events, filtered.raw_events);
        assert_eq!(back_dropped, dropped);
        let _ = std::fs::remove_dir_all(ckpt.root());
    }

    #[test]
    fn stale_fingerprint_misses() {
        let (world, log, config) = inputs();
        let fp = Fingerprint::new(&config, &log, &world);
        let ckpt = temp_ckpt("esharp_ckpt_stale");
        let (filtered, dropped) = log.filter_min_support(config.min_support);
        ckpt.store_filtered(&fp, &filtered, dropped).unwrap();
        let stale = Fingerprint { config: fp.config ^ 1, input: fp.input };
        assert!(ckpt.load_filtered(&stale).is_none());
        let stale = Fingerprint { config: fp.config, input: fp.input ^ 1 };
        assert!(ckpt.load_filtered(&stale).is_none());
        let _ = std::fs::remove_dir_all(ckpt.root());
    }

    #[test]
    fn corrupt_checkpoints_fall_back_to_recompute() {
        let (world, log, config) = inputs();
        let fp = Fingerprint::new(&config, &log, &world);
        let ckpt = temp_ckpt("esharp_ckpt_corrupt");
        ckpt.store_filtered(&fp, &log, 0).unwrap();
        let path = ckpt.root().join(FILTERED_FILE);
        let good = std::fs::read(&path).unwrap();
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(ckpt.load_filtered(&fp).is_none(), "cut at {cut} accepted");
        }
        let mut flipped = good.clone();
        flipped[good.len() / 3] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(ckpt.load_filtered(&fp).is_none());
        let _ = std::fs::remove_dir_all(ckpt.root());
    }

    #[test]
    fn clustering_stage_round_trips_bit_exactly() {
        let (world, log, config) = inputs();
        let fp = Fingerprint::new(&config, &log, &world);
        let ckpt = temp_ckpt("esharp_ckpt_clustering");
        let assignment = Assignment::from_vec(vec![0, 0, 2, 2, 4]);
        let trace = vec![
            IterationStat { iteration: 0, communities: 5, total_modularity: -0.125, merges: 0 },
            IterationStat { iteration: 1, communities: 3, total_modularity: 0.7331, merges: 2 },
        ];
        ckpt.store_clustering_progress(&fp, &assignment, &trace).unwrap();
        let (a, t) = ckpt.load_clustering_progress(&fp).unwrap();
        assert_eq!(a.as_slice(), assignment.as_slice());
        assert_eq!(t, trace);
        for (x, y) in t.iter().zip(&trace) {
            assert_eq!(x.total_modularity.to_bits(), y.total_modularity.to_bits());
        }
        // Finalizing clears the progress file.
        let outcome = ClusteringOutcome { assignment, trace };
        ckpt.store_clustering_final(&fp, &outcome).unwrap();
        assert!(!ckpt.root().join(PROGRESS_FILE).exists());
        let back = ckpt.load_clustering_final(&fp).unwrap();
        assert_eq!(back.assignment.as_slice(), outcome.assignment.as_slice());
        assert_eq!(back.trace, outcome.trace);
        let _ = std::fs::remove_dir_all(ckpt.root());
    }

    #[test]
    fn kill_point_surfaces_planned_faults() {
        use esharp_fault::FaultPlan;
        let ckpt = temp_ckpt("esharp_ckpt_kill")
            .with_faults(Arc::new(FaultPlan::new(7).kill_at("stage:graph")), RetryPolicy::none());
        assert!(ckpt.kill_point("stage:filtered").is_ok());
        let err = ckpt.kill_point("stage:graph").unwrap_err();
        assert!(matches!(err, EsharpError::Io { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(ckpt.root());
    }
}
