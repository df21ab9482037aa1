//! `ingest_mixed`: writes beside reads on the same index.
//!
//! The server runs over `LiveCorpus::create` (WAL on, fsync per batch as
//! shipped) holding the first 80% of `corpus_1m`'s tweets. Connection A
//! reads `queries_uncached` open-loop at a fixed rate. Connection B is a
//! closed-loop writer running a fixed script of `POST /ingest` bodies
//! drawn in order from the held-out 20%, with a synchronous
//! `POST /compact` once per 128 bodies. Every batch bumps the corpus
//! epoch (cache invalidation), the delta segment taxes reads, and each
//! compaction rewrites the base on the second core. When the script
//! ends the server is dropped and `LiveCorpus::open` is timed until the
//! first byte-correct answer (three times; the best is reported).

use crate::affinity::Turns;
use crate::client::{run_phase, Conn, Load, Pace, PhaseOutcome, PreparedRequest, Verdict};
use crate::fixtures::{self, QueryOrder, Scale};
use crate::host::nproc;
use crate::replay::{self, Online};
use crate::report::Report;
use crate::rig;
use crate::spans::{self, Tracer};
use crate::stats::{best, median, Summary};
use crate::Options;
use esharp_ingest::{IngestOp, LiveCorpus};
use esharp_microblog::Corpus;
use esharp_serve::search_and_render;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// The paced reader's rate. At the 500 req/s of `search_uncached`'s open
/// phase one connection cannot drain the backlog a compaction's publish
/// pause leaves behind: the write lock prefers the writer, so queued reads
/// get through one per `POST /ingest` cycle, a fifth of the phase is spent
/// in backlog and the median read moved 1.35-1.78 ms over three runs. At
/// 200 req/s the backlog clears in a fraction of a second.
const READ_RATE: f64 = 200.0;

/// Set-up repetitions. The first `LiveCorpus::create` of a process runs
/// about half as long again as the later ones (1.2 s against 0.77 s in four
/// runs of six: fresh pages for the 130 MB encode buffer, a new file), so
/// with the usual three one more disturbed repetition moved the median by
/// a third; five leave it on an undisturbed one.
const LIVE_SETUP_REPS: usize = 5;

/// One read in this many is compared byte-for-byte with an in-process
/// search at the response's own corpus epoch.
const CHECK_EVERY: u64 = 64;

/// Queries behind the restart check and `ingest.read_delta_overhead`.
const PROBE_QUERIES: usize = 64;

/// A read slower than this from its due time counts as stalled.
const STALL_US: f64 = 20_000.0;

/// The writer's fixed script.
#[derive(Debug, Clone, Copy)]
struct Script {
    /// `tweet` ops per `POST /ingest` body.
    ops_per_body: usize,
    /// Bodies between two compactions.
    bodies_per_compaction: usize,
    /// `POST /compact` calls.
    compactions: usize,
}

impl Script {
    /// The script for a run of `seconds`: five compactions of 128 bodies
    /// of 256 ops from 14 s up, i.e. 640 bodies and 163,840 ops, which
    /// the seed code works through in 12-14 s. The script is fixed work,
    /// so it does not grow with longer runs (they are for the workloads
    /// whose requests repeat); shorter ones scale the compaction count
    /// down.
    fn for_run(seconds: u64, scale: Scale, held_out: usize) -> Script {
        let (ops_per_body, bodies_per_compaction) = match scale {
            Scale::Full => (256, 128),
            Scale::Smoke => (8, 4),
        };
        let fits = held_out / (ops_per_body * bodies_per_compaction);
        let wanted = (seconds * 5 / 14).clamp(1, 5) as usize;
        Script {
            ops_per_body,
            bodies_per_compaction,
            compactions: wanted.min(fits).max(1),
        }
    }

    fn bodies(&self) -> usize {
        self.bodies_per_compaction * self.compactions
    }

    /// Compaction follows body `i` (0-based) when it is the middle of its
    /// group of `bodies_per_compaction`: the script then ends with half a
    /// group in the WAL, so the restart has a tail to replay.
    fn compacts_after(&self, i: usize) -> bool {
        (i + 1) % self.bodies_per_compaction == self.bodies_per_compaction / 2
    }
}

fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One `POST /compact` as the server reported it.
#[derive(Debug, Clone, Copy, Default)]
struct Compaction {
    total_us: u64,
    pause_us: u64,
    bytes_written: u64,
    tail_ops_replayed: u64,
}

#[derive(Debug, Default)]
struct WriterOutcome {
    attempted: u64,
    failed: u64,
    acked_ops: u64,
    ack_us: Vec<f64>,
    compactions: Vec<Compaction>,
    /// Wall time of the whole script, compactions included.
    script_s: f64,
}

fn run_writer(
    addr: std::net::SocketAddr,
    script: Script,
    bodies: &[PreparedRequest],
) -> WriterOutcome {
    let mut out = WriterOutcome::default();
    let compact = PreparedRequest::post("/compact", "", 0);
    let mut response = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        out.attempted = bodies.len() as u64;
        out.failed = out.attempted;
        return out;
    };
    for (i, body) in bodies.iter().enumerate() {
        out.attempted += 1;
        let started = Instant::now();
        let status = conn.roundtrip(&body.raw, &mut response);
        let ack = started.elapsed();
        let applied = json_u64(&response, "applied");
        if matches!(status, Ok(200)) && applied == Some(script.ops_per_body as u64) {
            out.acked_ops += script.ops_per_body as u64;
            out.ack_us.push(ack.as_secs_f64() * 1e6);
        } else {
            out.failed += 1;
        }
        if script.compacts_after(i) {
            out.attempted += 1;
            let status = conn.roundtrip(&compact.raw, &mut response);
            let field = |key| json_u64(&response, key);
            match (status, field("total_us"), field("pause_us")) {
                (Ok(200), Some(total_us), Some(pause_us)) => out.compactions.push(Compaction {
                    total_us,
                    pause_us,
                    bytes_written: field("bytes_written").unwrap_or(0),
                    tail_ops_replayed: field("tail_ops_replayed").unwrap_or(0),
                }),
                _ => out.failed += 1,
            }
        }
    }
    out
}

/// What the restart must preserve: the tweet count, the checksum over
/// the probe queries' results, and the first probe query's body (rendered
/// at epoch 0, since a reopened corpus starts its epochs over).
#[derive(PartialEq)]
struct CorpusState {
    tweets: usize,
    checksum: u32,
    first_answer: Vec<u8>,
}

impl CorpusState {
    fn of(corpus: &Corpus, esharp: &esharp_core::Esharp, probe: &[String]) -> CorpusState {
        let online = Online {
            corpus,
            esharp,
            epoch: 0,
            corpus_epoch: 0,
        };
        let mut counts = replay::count_pass(online, probe);
        CorpusState {
            tweets: corpus.tweets().len(),
            checksum: counts.results_checksum,
            first_answer: counts.bodies.swap_remove(0),
        }
    }
}

/// What the in-process replay of the write path measured.
struct ReplayOutcome {
    tracer: Tracer,
    wal_bytes_per_op: f64,
    read_delta_overhead: f64,
    failed: u64,
    attempted: u64,
}

fn probe_p50_us(live: &LiveCorpus, esharp: &esharp_core::Esharp, probe: &[String]) -> f64 {
    let guard = live.read();
    let samples: Vec<f64> = probe
        .iter()
        .map(|query| {
            let started = Instant::now();
            std::hint::black_box(esharp.search(guard.corpus(), query));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// The write path in-process on one thread: parse and apply each body
/// under spans, compact where the script does, and compare reads over a
/// full group's delta with reads after folding it in.
fn replay_writes(
    base: Corpus,
    texts: &[String],
    script: Script,
    esharp: &esharp_core::Esharp,
    probe: &[String],
    dir: &Path,
) -> ReplayOutcome {
    std::fs::create_dir_all(dir).expect("replay directory");
    let oplog = dir.join("oplog");
    let live =
        LiveCorpus::create(base, dir.join("corpus.bin"), &oplog).expect("LiveCorpus::create");
    let wal_len = || std::fs::metadata(&oplog).map_or(0, |m| m.len());
    let mut out = ReplayOutcome {
        tracer: Tracer::new(true),
        wal_bytes_per_op: 0.0,
        read_delta_overhead: 0.0,
        failed: 0,
        attempted: 0,
    };
    let mut wal_per_op = Vec::new();
    // Up to the second compaction: the first one leaves an empty delta,
    // so the second sees exactly one group's worth of ops.
    let until = (script.bodies_per_compaction / 2 + script.bodies_per_compaction).min(texts.len());
    for (i, text) in texts.iter().take(until).enumerate() {
        out.attempted += 1;
        let before = wal_len();
        let root = out.tracer.enter("ingest_batch");
        let ops = out
            .tracer
            .call("ingest.parse_batch", || IngestOp::parse_batch(text));
        let applied = match ops {
            Ok(ops) => out
                .tracer
                .call("ingest.apply_batch", || live.apply_batch(&ops))
                .map_or(0, |applied| applied.len()),
            Err(_) => 0,
        };
        out.tracer.exit(root);
        if applied == script.ops_per_body {
            wal_per_op.push((wal_len() - before) as f64 / applied as f64);
        } else {
            out.failed += 1;
        }
        if script.compacts_after(i) {
            let with_delta = probe_p50_us(&live, esharp, probe);
            out.attempted += 1;
            let root = out.tracer.enter("compaction");
            let report = out.tracer.call("ingest.compact", || live.compact());
            out.tracer.exit(root);
            out.failed += u64::from(!matches!(report, Ok(Some(_))));
            // The last compaction replayed (the second, at full scale)
            // is the one that had a whole group in its delta.
            let compacted = probe_p50_us(&live, esharp, probe);
            out.read_delta_overhead = with_delta / compacted.max(f64::MIN_POSITIVE);
        }
    }
    out.wal_bytes_per_op = median(&wal_per_op).unwrap_or(0.0);
    out
}

/// Run the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new("ingest_mixed", opts);
    let workers = nproc();
    report.server_workers = workers;
    let dir = opts.out_dir.join("ingest_mixed");

    // ---- Fixture: 80% base, the script's bodies from the other 20%.
    let fixture = fixtures::corpus_1m(opts.scale);
    let split_started = Instant::now();
    let queries = fixtures::queries_uncached(&fixture.domains, opts.seed, QueryOrder::Independent);
    let tweets = fixture.corpus.tweets();
    let cut = tweets.len() * 8 / 10;
    let script = Script::for_run(opts.seconds, opts.scale, tweets.len() - cut);
    let texts: Vec<String> = tweets[cut..]
        .chunks(script.ops_per_body)
        .take(script.bodies())
        .map(|chunk| {
            chunk
                .iter()
                .map(|tweet| {
                    let op = IngestOp::Append {
                        author: fixture.corpus.user(tweet.author).handle.clone(),
                        text: tweet.text.clone(),
                    };
                    op.render() + "\n"
                })
                .collect()
        })
        .collect();
    let bodies: Vec<PreparedRequest> = texts
        .iter()
        .map(|text| PreparedRequest::post("/ingest", text, 0))
        .collect();
    let base = Corpus::new(fixture.corpus.users().to_vec(), tweets[..cut].to_vec());
    let base_tweets = base.tweets().len();
    report.fixture_generation_s = fixture.generation_s + split_started.elapsed().as_secs_f64();
    let (domains, config) = (fixture.domains, fixture.config);
    drop(fixture.corpus);

    // Set-up and restart are one thread's work and take the processors in
    // turns (see `affinity`); the mixed phase between them is reader,
    // writer and compaction side by side and gets them all.
    let turns = Turns::new();
    let (rig, samples) = rig::repeat_setup(LIVE_SETUP_REPS, &turns, || {
        rig::setup_live(base.clone(), &domains, &config, &dir, workers)
    })
    .expect("set-up: LiveCorpus::create, start server");
    turns.release();
    report.setup_samples_s = samples;
    // Only the traced run's replay needs a second base.
    let base = opts.trace.then_some(base);
    let (esharp, epoch) = rig.shared.snapshot();

    // ---- Reads: every CHECK_EVERY-th body is compared with an
    // in-process search, provided the corpus still is at the epoch the
    // response was computed at (the writer advances it every batch).
    let requests: Vec<PreparedRequest> =
        queries.iter().map(|q| PreparedRequest::search(q)).collect();
    let sequence: Vec<usize> = (0..requests.len()).collect();
    let cursor = AtomicUsize::new(0);
    let seen = AtomicU64::new(0);
    let live = std::sync::Arc::clone(&rig.live);
    let check = |index: usize, body: &[u8]| {
        if !seen.fetch_add(1, Relaxed).is_multiple_of(CHECK_EVERY) {
            return Verdict::Unchecked;
        }
        let guard = live.read();
        match json_u64(body, "corpus_epoch") {
            Some(at) if at == guard.epoch() => {
                let expected =
                    search_and_render(guard.corpus(), &esharp, &queries[index], epoch, at);
                if body == expected.as_slice() {
                    Verdict::Correct
                } else {
                    Verdict::Wrong
                }
            }
            Some(_) => Verdict::Unchecked,
            None => Verdict::Wrong,
        }
    };
    let load = Load {
        addr: rig.addr(),
        requests: &requests,
        sequence: &sequence,
        cursor: &cursor,
        check: &check,
        // Reader, writer and compaction run side by side here.
        turns: None,
    };
    let never = AtomicBool::new(false);
    let warm = run_phase(
        "warmup",
        &load,
        1,
        Pace::Closed,
        rig::warmup(opts.scale),
        &never,
    );
    report.check(
        "warmup_all_correct",
        warm.failed() == 0 && warm.ok > 0,
        format!("{} ok, {} failed", warm.ok, warm.failed()),
    );

    // ---- Measured phase: paced reader beside the scripted writer.
    let writer_done = AtomicBool::new(false);
    let addr = rig.addr();
    let (reads, writes): (PhaseOutcome, WriterOutcome) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let pace = Pace::Open {
                per_connection: READ_RATE,
            };
            // The writer ends the phase; the duration is only a backstop.
            run_phase(
                "reads_open",
                &load,
                1,
                pace,
                Duration::from_secs(170),
                &writer_done,
            )
        });
        let script_started = Instant::now();
        let mut writes = run_writer(addr, script, &bodies);
        writes.script_s = script_started.elapsed().as_secs_f64();
        writer_done.store(true, Relaxed);
        (reader.join().expect("reader thread panicked"), writes)
    });
    let stalled = reads
        .latencies_us()
        .iter()
        .filter(|&&us| us > STALL_US)
        .count();
    let read_stalled_share = stalled as f64 / reads.attempted.max(1) as f64;
    // Goodput: paced reads answered correctly within the limit, per second
    // of the phase.
    let reads_in_time_per_s = (reads.ok as usize - stalled) as f64 / reads.elapsed_s;
    report.check(
        "reads_checked_at_their_epoch",
        reads.checked + warm.checked > 0,
        format!(
            "{} of {} paced reads and {} warm-up reads compared byte-for-byte",
            reads.checked, reads.ok, warm.checked
        ),
    );
    let reads_summary = reads.latency_us.clone();
    let (read_p50, read_p95) = (reads.window_p50_us, reads.window_p95_us);
    let lag_p99 = reads.lag_us.p99_or_max();
    report.phase(reads);
    report.attempted += writes.attempted;
    report.failed += writes.failed;
    report.check(
        "script_ran_exactly",
        writes.acked_ops == (script.bodies() * script.ops_per_body) as u64
            && writes.compactions.len() == script.compactions,
        format!(
            "{} ops acked of {}, {} compactions of {}",
            writes.acked_ops,
            script.bodies() * script.ops_per_body,
            writes.compactions.len(),
            script.compactions
        ),
    );

    // ---- Restart: drop the server, reopen, answer.
    let probe: Vec<String> = queries.iter().take(PROBE_QUERIES).cloned().collect();
    let before = CorpusState::of(live.read().corpus(), &esharp, &probe);
    drop(live);
    drop(rig.shutdown());
    // `open` leaves a cleanly closed base + WAL as it found them, so the
    // restart is taken `SETUP_REPS` times, each on the next processor, and
    // reported at its best (see `stats::best`); every reopened corpus is
    // checked.
    let (mut reopen_samples, mut restart_samples) = (Vec::new(), Vec::new());
    let (mut answers_correct, mut states_equal) = (0, 0);
    let mut last = None;
    for _ in 0..rig::SETUP_REPS {
        turns.next();
        let restart_started = Instant::now();
        let reopened = match LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")) {
            Ok(reopened) => reopened,
            Err(error) => {
                report.check("reopen", false, error.to_string());
                break;
            }
        };
        reopen_samples.push(restart_started.elapsed().as_secs_f64());
        let guard = reopened.read();
        let answer = search_and_render(guard.corpus(), &esharp, &probe[0], 0, 0);
        restart_samples.push(restart_started.elapsed().as_secs_f64());
        let after = CorpusState::of(guard.corpus(), &esharp, &probe);
        answers_correct += usize::from(answer == before.first_answer);
        states_equal +=
            usize::from(after == before && after.tweets == base_tweets + writes.acked_ops as usize);
        last = Some((after, guard.pending_ops()));
    }
    let restarts = restart_samples.len();
    report.check(
        "first_answer_after_restart_is_byte_correct",
        answers_correct == rig::SETUP_REPS,
        format!("{answers_correct} of {restarts} restarts"),
    );
    let wal_tail = last.as_ref().map_or(0, |&(_, pending)| pending);
    report.check(
        "reopened_corpus_holds_exactly_the_acked_ops",
        states_equal == rig::SETUP_REPS,
        match &last {
            Some((after, _)) => format!(
                "{states_equal} of {restarts} restarts; {} tweets (base {base_tweets} + {} acked), checksum {:#010x} vs {:#010x}, {wal_tail} ops replayed from the WAL",
                after.tweets, writes.acked_ops, after.checksum, before.checksum,
            ),
            None => "never reopened".to_string(),
        },
    );
    turns.release();
    let reopen_s = best(&reopen_samples).unwrap_or(0.0);
    let restart_s = best(&restart_samples).unwrap_or(0.0);

    let ack = Summary::of(&writes.ack_us);
    let ingest_wall_s: f64 = writes.ack_us.iter().sum::<f64>() / 1e6;
    let ingest_ops_per_s = writes.acked_ops as f64 / ingest_wall_s.max(f64::MIN_POSITIVE);
    let script_ops_per_s = writes.acked_ops as f64 / writes.script_s.max(f64::MIN_POSITIVE);
    let compaction_median = |field: fn(&Compaction) -> u64| {
        let values: Vec<f64> = writes.compactions.iter().map(|c| field(c) as f64).collect();
        median(&values).unwrap_or(0.0)
    };
    report.name("search_open_p50_us", reads_summary.p50, "us");
    report.name("search_open_p95_us", reads_summary.p95_or_max(), "us");
    report.name("ingest_ops_per_s", ingest_ops_per_s, "1/s");
    report.name("ingest_ack_p50_us", ack.p50, "us");
    report.name("ingest_ack_us.q1", ack.q1, "us");
    report.name("ingest_ack_us.q3", ack.q3, "us");
    report.name("ingest_ack_us.count", ack.count as f64, "count");
    report.name("restart_s", restart_s, "s");
    report.name("ingest.acked_ops", writes.acked_ops as f64, "count");
    report.name(
        "ingest.compactions",
        writes.compactions.len() as f64,
        "count",
    );
    report.name(
        "ingest.compact_total_ms",
        compaction_median(|c| c.total_us) / 1e3,
        "ms",
    );
    report.name(
        "ingest.compact_pause_ms",
        compaction_median(|c| c.pause_us) / 1e3,
        "ms",
    );
    report.name("ingest.read_stalled_share", read_stalled_share, "ratio");
    report.name("ingest.wal_tail_ops_at_restart", wal_tail as f64, "count");
    report.name("core.results_checksum", f64::from(before.checksum), "count");
    report.name("ingest_script_ops_per_s", script_ops_per_s, "1/s");
    report.name("search_open_window_p95_us", read_p95, "us");
    report.name("reads_within_20ms_per_s", reads_in_time_per_s, "1/s");

    if !opts.trace {
        // Gated: reads served within 20 ms of their due time per second,
        // the median paced read, and the restart. The write path's own
        // pace is reported, not gated: it is fsync-bound, one compaction
        // takes anything from 1.6 to 4.0 s on this host, and the script's
        // ops per second spread 16% over ten runs of the same code.
        report.end_to_end(reads_in_time_per_s, read_p50, restart_s * 1e6);
        return report;
    }

    // ---- Traced run: the write path in-process.
    let base = base.expect("kept for the traced run");
    let replayed = replay_writes(base, &texts, script, &esharp, &probe, &dir.join("replay"));
    report.attempted += replayed.attempted;
    report.failed += replayed.failed;
    let times = spans::median_self_us(replayed.tracer.spans());
    for &(name, value) in &times {
        report.name(&format!("budget.{name}_us"), value, "us");
    }
    replayed
        .tracer
        .write(&opts.out_dir.join("trace-ingest_mixed.json"))
        .expect("writing the span file");
    report.per_layer(&[
        (
            "ingest.apply_batch_us",
            spans::row(&times, "ingest.apply_batch"),
        ),
        (
            "ingest.parse_batch_us",
            spans::row(&times, "ingest.parse_batch"),
        ),
        ("ingest.wal_bytes_per_op", replayed.wal_bytes_per_op),
        (
            "ingest.compact_total_ms",
            compaction_median(|c| c.total_us) / 1e3,
        ),
        (
            "ingest.compact_pause_ms",
            compaction_median(|c| c.pause_us) / 1e3,
        ),
        (
            "ingest.compact_bytes_written",
            compaction_median(|c| c.bytes_written),
        ),
        ("ingest.compactions", writes.compactions.len() as f64),
        ("ingest.acked_ops", writes.acked_ops as f64),
        (
            "ingest.tail_ops_replayed",
            writes
                .compactions
                .iter()
                .map(|c| c.tail_ops_replayed)
                .sum::<u64>() as f64,
        ),
        ("ingest.read_delta_overhead", replayed.read_delta_overhead),
        ("ingest.read_stalled_share", read_stalled_share),
        ("ingest.ack_p50_us", ack.p50),
        ("ingest.ops_per_s", ingest_ops_per_s),
        ("ingest.script_ops_per_s", script_ops_per_s),
        ("ingest.reopen_s", reopen_s),
        ("ingest.restart_s", restart_s),
        ("core.results_checksum", f64::from(before.checksum)),
        ("bench.open_p50_us", reads_summary.p50),
        ("bench.open_p95_us", reads_summary.p95_or_max()),
        ("bench.open_lag_p99_us", lag_p99),
        ("bench.spans", replayed.tracer.spans().len() as f64),
        ("bench.replayed_requests", replayed.attempted as f64),
    ]);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_script_is_640_bodies_and_5_compactions() {
        let script = Script::for_run(14, Scale::Full, 203_000);
        assert_eq!((script.bodies(), script.compactions), (640, 5));
        assert_eq!(script.bodies() * script.ops_per_body, 163_840);
        let compactions = (0..script.bodies())
            .filter(|&i| script.compacts_after(i))
            .count();
        assert_eq!(compactions, 5);
        // The last 64 bodies stay in the WAL for the restart to replay.
        let last = (0..script.bodies())
            .rfind(|&i| script.compacts_after(i))
            .unwrap();
        assert_eq!(script.bodies() - 1 - last, 64);
        // Longer runs keep the script; a small held-out set caps it.
        assert_eq!(Script::for_run(60, Scale::Full, 203_000).compactions, 5);
        assert_eq!(Script::for_run(60, Scale::Full, 100_000).compactions, 3);
        assert_eq!(Script::for_run(6, Scale::Full, 203_000).compactions, 2);
        assert_eq!(Script::for_run(1, Scale::Smoke, 100).compactions, 1);
    }

    #[test]
    fn json_fields_are_read_by_key() {
        let body = br#"{"ok":true,"applied":256,"corpus_epoch":17,"pending_ops":512}"#;
        assert_eq!(json_u64(body, "applied"), Some(256));
        assert_eq!(json_u64(body, "corpus_epoch"), Some(17));
        assert_eq!(json_u64(body, "missing"), None);
    }
}
