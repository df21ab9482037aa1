//! [`LiveCorpus`]: a corpus that serves queries while absorbing a
//! write-ahead op stream, with crash-safe zero-downtime compaction.
//!
//! ## Shape
//!
//! The corpus lives under an `RwLock`: searches run under the read lock
//! (many concurrently), mutations under the write lock. Appends and
//! deletes land in the corpus's LSM delta segment (see
//! `esharp_microblog::Corpus`), so a mutation is one tweet's tokenize +
//! delta-posting push — the write lock is held for microseconds.
//! Compaction does its O(corpus) work **off-lock** on a clone and takes
//! the write lock only to replay the ops that raced in and swap the
//! pointer; that swap is the only pause serving ever sees, and
//! [`CompactionReport::pause`] measures it.
//!
//! ## Durability
//!
//! With persistence configured, every acked batch is in the oplog before
//! it is applied (WAL rule), each line carrying its own CRC32. Compaction
//! publishes through a two-file commit — new base to `corpus.bin.next`
//! (verified by re-decode, so an injected bit flip can never shadow the
//! last known-good base), remapped tail to `oplog.pending`, then two
//! renames — and [`LiveCorpus::open`] rolls the pair forward or back by
//! comparing the pending header's base checksum against the actual base
//! bytes. Fault seams: [`APPEND_SITE`], [`COMPACT_SITE`], [`OPLOG_SITE`].
//!
//! ## Epoch
//!
//! Every published mutation (batch apply or compaction swap) advances the
//! corpus epoch. Anything keyed on it — the serving layer's result cache,
//! most importantly — is invalidated the moment query answers can change,
//! mirroring the `SharedEsharp` domains epoch.

use crate::ops::{Applied, BatchCheck, IngestOp};
use esharp_fault::{write_with_fault, Fault, FaultInjector, NoFaults, RetryPolicy, TRANSIENT_KIND};
use esharp_microblog::segio;
use esharp_microblog::{Corpus, TweetId};
use esharp_storage::atomic::{atomic_write, atomic_write_with, crc32};
use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, TryLockError};
use std::time::{Duration, Instant};

/// Fault site consulted once per WAL batch append (attempt axis: a
/// monotonic per-instance batch counter, so plans can target "the third
/// append" deterministically).
pub const APPEND_SITE: &str = "ingest:append";
/// Fault site for the compacted-base write (`corpus.bin.next`).
pub const COMPACT_SITE: &str = "compact:write";
/// Fault site for the remapped-tail oplog write (`oplog.pending`).
pub const OPLOG_SITE: &str = "compact:oplog";

/// Oplog format tag carried in the header line.
const OPLOG_VERSION: &str = "v1";

struct Inner {
    corpus: Corpus,
    /// Bumped on every published mutation (batch apply, compaction swap).
    epoch: u64,
    /// Ops applied since the persisted base — exactly what a crash replay
    /// of the oplog would re-apply.
    tail: Vec<IngestOp>,
}

struct Persistence {
    corpus_path: PathBuf,
    oplog_path: PathBuf,
}

impl Persistence {
    fn next_path(&self) -> PathBuf {
        sibling(&self.corpus_path, ".next")
    }

    fn pending_path(&self) -> PathBuf {
        sibling(&self.oplog_path, ".pending")
    }
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    name.push_str(suffix);
    path.with_file_name(name)
}

/// One compaction cycle's outcome.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Tweets (live + tombstoned) before compaction.
    pub before_tweets: usize,
    /// Tombstones reclaimed.
    pub before_tombstones: usize,
    /// Tweets in the published corpus (tail replays included).
    pub after_tweets: usize,
    /// Ops that raced in during the off-lock phase and were replayed
    /// under the write lock.
    pub tail_ops_replayed: usize,
    /// Bytes of the persisted base (0 without persistence).
    pub bytes_written: usize,
    /// Time the write lock was held — the only pause serving observes.
    pub pause: Duration,
    /// Whole-cycle wall time (clone, compact, encode, write, publish).
    pub total: Duration,
    /// The corpus epoch the compacted state was published at.
    pub epoch: u64,
}

/// A corpus serving queries while absorbing a durable op stream.
pub struct LiveCorpus {
    inner: RwLock<Inner>,
    persistence: Option<Persistence>,
    injector: Arc<dyn FaultInjector>,
    retry: RetryPolicy,
    /// Attempt axis of [`APPEND_SITE`]: one per WAL write try.
    append_attempts: AtomicU32,
    /// Serializes compaction cycles: a second caller's snapshot must not
    /// be taken before the first publishes (its `covered_ops` prefix
    /// would go stale when the tail is rewritten).
    compact_lock: Mutex<()>,
    /// Set when a compaction publish could not complete its final rename:
    /// disk state is recoverable (the pending file carries the commit)
    /// but no longer tracks memory, so further writes are refused until
    /// the process reopens.
    publish_incomplete: AtomicBool,
}

impl std::fmt::Debug for LiveCorpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.read();
        f.debug_struct("LiveCorpus")
            .field("tweets", &guard.corpus().tweet_count())
            .field("epoch", &guard.epoch())
            .field("pending_ops", &guard.pending_ops())
            .field("persistent", &self.persistence.is_some())
            .finish()
    }
}

/// A read snapshot: corpus and epoch as one consistent pair. Holds the
/// read lock — drop it before calling any `&self` mutator.
pub struct ReadGuard<'a>(RwLockReadGuard<'a, Inner>);

impl ReadGuard<'_> {
    /// The corpus (base + delta merged on every match).
    pub fn corpus(&self) -> &Corpus {
        &self.0.corpus
    }

    /// The corpus epoch this snapshot belongs to.
    pub fn epoch(&self) -> u64 {
        self.0.epoch
    }

    /// Ops applied since the persisted base (the compaction backlog).
    pub fn pending_ops(&self) -> usize {
        self.0.tail.len()
    }
}

impl LiveCorpus {
    /// An in-memory live corpus: no oplog, no persisted base. Appends and
    /// compaction work identically minus durability.
    pub fn new(corpus: Corpus) -> LiveCorpus {
        LiveCorpus {
            inner: RwLock::new(Inner {
                corpus,
                epoch: 0,
                tail: Vec::new(),
            }),
            persistence: None,
            injector: Arc::new(NoFaults),
            retry: RetryPolicy::default(),
            append_attempts: AtomicU32::new(0),
            compact_lock: Mutex::new(()),
            publish_incomplete: AtomicBool::new(false),
        }
    }

    /// Thread a fault injector (and retry policy) through the WAL and
    /// compaction writes. Production callers keep the [`NoFaults`]
    /// default.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>, retry: RetryPolicy) -> Self {
        self.injector = injector;
        self.retry = retry;
        self
    }

    /// Persist a (compacted) corpus as the base at `corpus_path`, start a
    /// fresh oplog at `oplog_path`, and serve from it. The bootstrap
    /// counterpart of [`LiveCorpus::open`].
    pub fn create(
        corpus: Corpus,
        corpus_path: impl Into<PathBuf>,
        oplog_path: impl Into<PathBuf>,
    ) -> io::Result<LiveCorpus> {
        let corpus_path = corpus_path.into();
        let oplog_path = oplog_path.into();
        let bytes = segio::encode(&corpus, 1)?;
        atomic_write(&corpus_path, &bytes)?;
        atomic_write(&oplog_path, oplog_header(crc32(&bytes)).as_bytes())?;
        let mut live = LiveCorpus::new(corpus);
        live.persistence = Some(Persistence {
            corpus_path,
            oplog_path,
        });
        Ok(live)
    }

    /// Open a persisted base + oplog pair, completing or rolling back any
    /// interrupted compaction commit, then replay the oplog tail. Acked
    /// ops always survive; a torn final line (a crash mid-append) is
    /// truncated away; corruption anywhere earlier is a hard error.
    pub fn open(
        corpus_path: impl Into<PathBuf>,
        oplog_path: impl Into<PathBuf>,
    ) -> io::Result<LiveCorpus> {
        let persistence = Persistence {
            corpus_path: corpus_path.into(),
            oplog_path: oplog_path.into(),
        };
        let base_bytes = fs::read(&persistence.corpus_path)?;
        let base_crc = crc32(&base_bytes);

        // Recovery of a half-committed compaction: the pending oplog
        // names the base it belongs to by checksum. Match ⇒ the base
        // rename landed, finish the commit; mismatch ⇒ it never did,
        // roll the pending file back. A stale `.next` base is always
        // discardable — it only becomes meaningful via the pending file.
        let pending = persistence.pending_path();
        if pending.exists() {
            let promote = fs::read(&pending)
                .ok()
                .and_then(|bytes| parse_oplog_header(&bytes).ok())
                .is_some_and(|header_crc| header_crc == base_crc);
            if promote {
                fs::rename(&pending, &persistence.oplog_path)?;
            } else {
                let _ = fs::remove_file(&pending);
            }
        }
        let _ = fs::remove_file(persistence.next_path());

        let mut corpus = segio::decode(&base_bytes)?;
        let tail = match fs::read(&persistence.oplog_path) {
            Ok(log_bytes) => replay_oplog(&persistence.oplog_path, &log_bytes, base_crc, &mut corpus)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // A base without an oplog: start one.
                atomic_write(
                    &persistence.oplog_path,
                    oplog_header(base_crc).as_bytes(),
                )?;
                Vec::new()
            }
            Err(e) => return Err(e),
        };

        let mut live = LiveCorpus::new(corpus);
        if let Ok(inner) = live.inner.get_mut() {
            inner.tail = tail;
        }
        live.persistence = Some(persistence);
        Ok(live)
    }

    fn read_inner(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a read snapshot (corpus + epoch, consistent). Many readers
    /// run concurrently; mutations wait for them.
    pub fn read(&self) -> ReadGuard<'_> {
        ReadGuard(self.read_inner())
    }

    /// The current corpus epoch.
    pub fn epoch(&self) -> u64 {
        self.read_inner().epoch
    }

    /// The current corpus epoch, or `None` when a mutation holds (or
    /// waits for) the write lock — for callers that must never wait (the
    /// serving event loop).
    pub fn try_epoch(&self) -> Option<u64> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard.epoch),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner().epoch),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Ops applied since the persisted base (the compaction backlog).
    pub fn pending_ops(&self) -> usize {
        self.read_inner().tail.len()
    }

    /// Apply one op — [`LiveCorpus::apply_batch`] of one.
    pub fn apply(&self, op: &IngestOp) -> io::Result<Applied> {
        let mut applied = self.apply_batch(std::slice::from_ref(op))?;
        applied
            .pop()
            .ok_or_else(|| io::Error::other("apply: empty batch result"))
    }

    /// Validate, durably log, then apply a batch of ops, bumping the
    /// corpus epoch once. All-or-nothing: a validation failure
    /// (`ErrorKind::InvalidInput`) or WAL failure applies nothing and
    /// leaves the oplog exactly as it was.
    pub fn apply_batch(&self, ops: &[IngestOp]) -> io::Result<Vec<Applied>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        if self.publish_incomplete.load(SeqCst) {
            return Err(io::Error::other(
                "a compaction publish could not complete; reopen the corpus to recover",
            ));
        }
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        // Validation first: once the batch is in the log, applying it
        // must be infallible (the WAL rule's other half).
        let mut check = BatchCheck::new(&guard.corpus);
        for op in ops {
            check
                .check(op)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        if let Some(p) = &self.persistence {
            let mut payload = String::new();
            for op in ops {
                push_oplog_line(&mut payload, &op.render());
            }
            self.wal_append(p, payload.as_bytes())?;
        }
        let mut applied = Vec::with_capacity(ops.len());
        for op in ops {
            applied.push(
                op.apply(&mut guard.corpus)
                    .map_err(|e| io::Error::other(format!("validated op failed to apply: {e}")))?,
            );
        }
        guard.tail.extend_from_slice(ops);
        guard.epoch += 1;
        Ok(applied)
    }

    /// Append `payload` (whole lines) to the oplog, consulting the
    /// injector at [`APPEND_SITE`] per try. Any failure truncates the log
    /// back to its pre-batch length, so unacked bytes never survive to a
    /// replay.
    fn wal_append(&self, p: &Persistence, payload: &[u8]) -> io::Result<()> {
        let old_len = fs::metadata(&p.oplog_path)?.len();
        let max_tries = self.retry.max_attempts.max(1);
        let mut last_err = None;
        for try_no in 0..max_tries {
            let attempt = self.append_attempts.fetch_add(1, SeqCst);
            let result = wal_append_attempt(
                &p.oplog_path,
                payload,
                self.injector.fault_at(APPEND_SITE, attempt),
            );
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // Roll the file back before deciding whether to retry.
                    if let Ok(f) = OpenOptions::new().write(true).open(&p.oplog_path) {
                        let _ = f.set_len(old_len);
                        let _ = f.sync_all();
                    }
                    if e.kind() == TRANSIENT_KIND && try_no + 1 < max_tries {
                        last_err = Some(e);
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("wal append ran zero attempts")))
    }

    /// Fold the delta segment into a fresh persisted base without pausing
    /// reads (beyond the publish swap). Returns `None` when there is
    /// nothing to compact. On any error the previous base, oplog, and
    /// in-memory state all keep serving unchanged.
    pub fn compact(&self) -> io::Result<Option<CompactionReport>> {
        let _cycle = self.compact_lock.lock().unwrap_or_else(|e| e.into_inner());
        let total_started = Instant::now();
        // Phase 1 — snapshot under the read lock: clone the corpus and
        // remember how much of the tail it covers.
        let (snapshot, covered_ops) = {
            let guard = self.read_inner();
            if !guard.corpus.has_delta() && guard.tail.is_empty() {
                return Ok(None);
            }
            (guard.corpus.clone(), guard.tail.len())
        };
        let before_tweets = snapshot.tweet_count();
        let before_tombstones = snapshot.tombstone_count();

        // Phase 2 — off-lock: compact, encode, persist the new base to a
        // side file and verify it by re-decode. Queries keep flowing.
        let (compacted, id_map) = snapshot.compact_with_map();
        let bytes = segio::encode(&compacted, 1)?;
        let base_crc = crc32(&bytes);
        if let Some(p) = &self.persistence {
            let next = p.next_path();
            atomic_write_with(&next, &bytes, self.injector.as_ref(), COMPACT_SITE, &self.retry)?;
            // Re-decode what actually hit the disk: a silent bit flip
            // (the write "succeeds") must be caught *before* the rename
            // can shadow the last known-good base.
            let written = fs::read(&next)?;
            if let Err(e) = segio::decode(&written) {
                let _ = fs::remove_file(&next);
                return Err(io::Error::other(format!(
                    "compacted base failed verification, keeping previous base: {e}"
                )));
            }
        }

        // Phase 3 — publish under the write lock: replay the ops that
        // raced in, commit the (base, oplog) pair, swap the corpus.
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let pause_started = Instant::now();
        let mut published = compacted;
        let mut new_tail: Vec<IngestOp> = Vec::with_capacity(guard.tail.len() - covered_ops);
        let mut raced_append_ids: Vec<TweetId> = Vec::new();
        for op in &guard.tail[covered_ops..] {
            let replayed = match op {
                IngestOp::Delete { id } => {
                    // Ids minted before the snapshot remap through the
                    // compaction map; ids minted during phase 2 are the
                    // k-th raced append.
                    let new_id = if (*id as usize) < id_map.len() {
                        id_map[*id as usize].ok_or_else(|| {
                            io::Error::other("compaction replay: delete targets a reclaimed tweet")
                        })?
                    } else {
                        raced_append_ids[*id as usize - id_map.len()]
                    };
                    IngestOp::Delete { id: new_id }
                }
                other => other.clone(),
            };
            match replayed.apply(&mut published) {
                Ok(Applied::Tweet(new_id)) => raced_append_ids.push(new_id),
                Ok(_) => {}
                Err(e) => {
                    return Err(io::Error::other(format!(
                        "compaction replay diverged (this is a bug): {e}"
                    )))
                }
            }
            new_tail.push(replayed);
        }

        if let Some(p) = &self.persistence {
            // Two-file commit: pending oplog (named by the new base's
            // checksum) first, then the base rename, then the oplog
            // rename. Every crash point is rolled forward or back by
            // `open` via the checksum comparison.
            let mut log = oplog_header(base_crc);
            for op in &new_tail {
                push_oplog_line(&mut log, &op.render());
            }
            let pending = p.pending_path();
            let next = p.next_path();
            if let Err(e) = atomic_write_with(
                &pending,
                log.as_bytes(),
                self.injector.as_ref(),
                OPLOG_SITE,
                &self.retry,
            ) {
                let _ = fs::remove_file(&next);
                return Err(e);
            }
            if let Err(e) = fs::rename(&next, &p.corpus_path) {
                let _ = fs::remove_file(&pending);
                let _ = fs::remove_file(&next);
                return Err(e);
            }
            if fs::rename(&pending, &p.oplog_path).is_err() {
                // The base rename landed but the oplog one did not: disk
                // is recoverable through the pending file, but the live
                // oplog no longer matches memory — refuse further writes
                // rather than append to a log `open` will discard.
                self.publish_incomplete.store(true, SeqCst);
            }
        }

        guard.corpus = published;
        guard.epoch += 1;
        guard.tail = new_tail;
        let epoch = guard.epoch;
        let after_tweets = guard.corpus.tweet_count();
        let tail_ops_replayed = guard.tail.len();
        let pause = pause_started.elapsed();
        drop(guard);

        Ok(Some(CompactionReport {
            before_tweets,
            before_tombstones,
            after_tweets,
            tail_ops_replayed,
            bytes_written: if self.persistence.is_some() {
                bytes.len()
            } else {
                0
            },
            pause,
            total: total_started.elapsed(),
            epoch,
        }))
    }
}

/// One WAL append try, optionally perturbed by an injected fault (a bit
/// flip is caught by the per-line CRC at replay).
fn wal_append_attempt(path: &Path, payload: &[u8], fault: Option<Fault>) -> io::Result<()> {
    let mut file = OpenOptions::new().append(true).open(path)?;
    write_with_fault(&mut file, payload, fault, APPEND_SITE)?;
    file.sync_all()
}

/// The oplog header line: names the base this log replays onto by the
/// CRC32 of its bytes (also line-CRC-framed like every other line).
fn oplog_header(base_crc: u32) -> String {
    let mut out = String::new();
    push_oplog_line(&mut out, &format!("esharp-oplog {OPLOG_VERSION} base {base_crc:08x}"));
    out
}

/// Frame one line as `crc32(payload):08x \t payload \n`.
fn push_oplog_line(out: &mut String, payload: &str) {
    out.push_str(&format!("{:08x}\t{payload}\n", crc32(payload.as_bytes())));
}

/// Split a CRC-framed line into its payload, verifying the checksum.
fn parse_oplog_line(line: &str) -> Result<&str, String> {
    let (crc_hex, payload) = line
        .split_once('\t')
        .ok_or_else(|| "missing crc frame".to_string())?;
    let crc = u32::from_str_radix(crc_hex, 16).map_err(|_| format!("bad crc {crc_hex:?}"))?;
    if crc32(payload.as_bytes()) != crc {
        return Err("line checksum mismatch".to_string());
    }
    Ok(payload)
}

/// Parse just the header of an oplog byte buffer, returning the base CRC
/// it names. `atomic_write` writes the header whole, so it must be one
/// complete UTF-8 line.
fn parse_oplog_header(bytes: &[u8]) -> io::Result<u32> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let first = bytes
        .split_inclusive(|&b| b == b'\n')
        .next()
        .filter(|line| line.ends_with(b"\n"))
        .ok_or_else(|| invalid("oplog header: missing or incomplete".to_string()))?;
    let first = std::str::from_utf8(first)
        .map_err(|_| invalid("oplog header is not UTF-8".to_string()))?;
    let payload = parse_oplog_line(first.trim_end_matches('\n').trim_end_matches('\r'))
        .map_err(|e| invalid(format!("oplog header: {e}")))?;
    let mut words = payload.split(' ');
    match (words.next(), words.next(), words.next(), words.next()) {
        (Some("esharp-oplog"), Some(OPLOG_VERSION), Some("base"), Some(hex)) => {
            u32::from_str_radix(hex, 16).map_err(|_| invalid("oplog header: bad base crc".into()))
        }
        _ => Err(invalid(format!("oplog header: unrecognized {payload:?}"))),
    }
}

/// Replay an oplog onto `corpus`, returning the replayed tail. An
/// incomplete final line (crash mid-append) is torn, whatever its bytes,
/// and truncated away; a complete line that is not UTF-8, fails its CRC
/// or does not parse is a hard error — acked history must not silently
/// shrink.
fn replay_oplog(
    path: &Path,
    bytes: &[u8],
    expected_base_crc: u32,
    corpus: &mut Corpus,
) -> io::Result<Vec<IngestOp>> {
    let header_crc = parse_oplog_header(bytes)?;
    if header_crc != expected_base_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oplog does not belong to this base (checksum mismatch)",
        ));
    }
    let mut tail = Vec::new();
    let mut good_len = 0usize;
    for (index, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        if !line.ends_with(b"\n") {
            // The torn tail: the crash window, drop it.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(good_len as u64)?;
            file.sync_all()?;
            break;
        }
        let invalid = |reason: String| {
            io::Error::new(io::ErrorKind::InvalidData, format!("oplog line {}: {reason}", index + 1))
        };
        let text = std::str::from_utf8(line).map_err(|_| invalid("not UTF-8".into()))?;
        let payload = parse_oplog_line(text.trim_end_matches('\n').trim_end_matches('\r'))
            .map_err(invalid)?;
        if index > 0 {
            // Line 0 is the header, already verified.
            let op = IngestOp::parse(payload).map_err(invalid)?;
            op.apply(corpus)
                .map_err(|e| invalid(format!("logged op no longer applies: {e}")))?;
            tail.push(op);
        }
        good_len += line.len();
    }
    Ok(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::corrupt::{for_each_damage, Damage};
    use esharp_fault::FaultPlan;
    use esharp_microblog::{Tweet, User};
    use std::io::Write;

    fn base_corpus() -> Corpus {
        let user = |id, handle: &str| User {
            id,
            handle: handle.to_string(),
            display_name: handle.to_uppercase(),
            description: String::new(),
            followers: 10,
            verified: false,
            expert_domains: vec![],
            spam: false,
        };
        let users = vec![user(0, "alice"), user(1, "bob")];
        let tweets = vec![
            Tweet::parse(0, 0, DRAFT, |_| None),
            Tweet::parse(1, 1, GAME, |_| None),
        ];
        Corpus::new(users, tweets)
    }

    const DRAFT: &str = "the 49ers draft was exciting";
    const GAME: &str = "niners game today";

    /// The id of the one tweet with this text in the live corpus now.
    fn id_of(live: &LiveCorpus, text: &str) -> TweetId {
        let ids = live.read().corpus().ids_of_texts(&[text]);
        assert_eq!(ids.len(), 1, "{text:?} names {} tweets", ids.len());
        ids[0]
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("esharp_ingest_live_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn append(text: &str) -> IngestOp {
        IngestOp::Append {
            author: "alice".into(),
            text: text.into(),
        }
    }

    #[test]
    fn try_epoch_gives_way_to_a_writer() {
        let live = LiveCorpus::new(base_corpus());
        live.apply(&append("niners draft steal")).unwrap();
        assert_eq!(live.try_epoch(), Some(1));
        let writer = live.inner.write().unwrap();
        assert_eq!(live.try_epoch(), None, "must not wait for the writer");
        drop(writer);
        assert_eq!(live.try_epoch(), Some(1));
    }

    #[test]
    fn apply_bumps_epoch_and_serves_immediately() {
        let live = LiveCorpus::new(base_corpus());
        assert_eq!(live.epoch(), 0);
        live.apply(&append("niners draft steal")).unwrap();
        assert_eq!(live.epoch(), 1);
        let guard = live.read();
        assert_eq!(
            guard.corpus().match_query("niners"),
            guard.corpus().ids_of_texts(&[GAME, "niners draft steal"])
        );
        assert_eq!(guard.pending_ops(), 1);
        drop(guard);
        // Validation failures apply nothing and do not bump the epoch.
        let err = live
            .apply(&IngestOp::Append {
                author: "nobody".into(),
                text: "x".into(),
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(live.epoch(), 1);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let live = LiveCorpus::new(base_corpus());
        let err = live
            .apply_batch(&[append("good one"), IngestOp::Delete { id: 99 }])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.read().corpus().tweet_count(), 2);
    }

    #[test]
    fn persistence_round_trips_through_open() {
        let dir = tmpdir("roundtrip");
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap();
        live.apply_batch(&[
            IngestOp::AddUser {
                handle: "carol".into(),
                display_name: "C".into(),
                description: String::new(),
                followers: 7,
                verified: true,
            },
            IngestOp::Append {
                author: "carol".into(),
                text: "pasta \t tab and \n newline".into(),
            },
        ])
        .unwrap();
        let draft = id_of(&live, DRAFT);
        live.apply(&IngestOp::Delete { id: draft }).unwrap();
        drop(live);

        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        let guard = back.read();
        assert_eq!(guard.corpus().tweet_count(), 3);
        assert!(guard.corpus().is_deleted(draft));
        assert_eq!(
            guard.corpus().match_query("pasta"),
            guard.corpus().ids_of_texts(&["pasta \t tab and \n newline"])
        );
        assert_eq!(guard.pending_ops(), 3, "acked ops replay");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_publishes_and_survives_reopen() {
        let dir = tmpdir("compact");
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap();
        live.apply(&append("niners deep dive")).unwrap();
        live.apply(&IngestOp::Delete {
            id: id_of(&live, GAME),
        })
        .unwrap();
        let report = live.compact().unwrap().unwrap();
        assert_eq!(report.before_tweets, 3);
        assert_eq!(report.before_tombstones, 1);
        assert_eq!(report.after_tweets, 2);
        assert_eq!(report.tail_ops_replayed, 0);
        assert!(report.bytes_written > 0);
        assert!(!live.read().corpus().has_delta());
        assert_eq!(live.pending_ops(), 0);
        // Nothing to compact now.
        assert!(live.compact().unwrap().is_none());
        drop(live);

        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        let guard = back.read();
        assert_eq!(guard.corpus().tweet_count(), 2);
        assert_eq!(guard.pending_ops(), 0, "oplog was reset by compaction");
        assert_eq!(
            guard.corpus().match_query("niners"),
            guard.corpus().ids_of_texts(&["niners deep dive"])
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_replays_raced_deletes_of_raced_appends() {
        // Exercise the tail-replay remap directly: ops land between the
        // snapshot and the publish. Simulate by applying to a non-
        // persistent LiveCorpus whose tail is partially covered — easiest
        // through the public API: append, snapshot happens inside
        // compact(), so race by deleting a pre-snapshot id… the genuinely
        // concurrent case is covered by the proptest; here we at least
        // pin the remap arithmetic via compact_with_map semantics.
        let live = LiveCorpus::new(base_corpus());
        live.apply(&append("one")).unwrap(); // id 2
        live.apply(&IngestOp::Delete {
            id: id_of(&live, DRAFT),
        })
        .unwrap();
        let report = live.compact().unwrap().unwrap();
        assert_eq!(report.after_tweets, 2);
        let guard = live.read();
        // Survivors renumbered densely, in topic order.
        assert_eq!(guard.corpus().match_query("niners"), guard.corpus().ids_of_texts(&[GAME]));
        assert_eq!(guard.corpus().match_query("one"), guard.corpus().ids_of_texts(&["one"]));
    }

    #[test]
    fn wal_fault_leaves_memory_and_log_untouched() {
        let dir = tmpdir("walfault");
        let plan = Arc::new(FaultPlan::new(3).trigger(
            APPEND_SITE,
            1,
            Fault::IoError { transient: false },
        ));
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap()
            .with_injector(plan, RetryPolicy::none());
        live.apply(&append("survives")).unwrap(); // attempt 0: clean
        let log_len = fs::metadata(dir.join("oplog")).unwrap().len();
        let err = live.apply(&append("lost")).unwrap_err(); // attempt 1: faulted
        assert!(err.to_string().contains("injected"));
        assert_eq!(live.epoch(), 1, "failed batch must not bump the epoch");
        assert_eq!(live.read().corpus().tweet_count(), 3);
        assert_eq!(
            fs::metadata(dir.join("oplog")).unwrap().len(),
            log_len,
            "failed batch must not grow the log"
        );
        // And the rolled-back log still replays cleanly.
        drop(live);
        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        assert_eq!(back.read().corpus().tweet_count(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = tmpdir("torntail");
        let plan = Arc::new(FaultPlan::new(5).trigger(
            APPEND_SITE,
            1,
            Fault::TornWrite {
                numerator: 1,
                denominator: 2,
            },
        ));
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap()
            .with_injector(plan, RetryPolicy::none());
        live.apply(&append("acked")).unwrap();
        // The torn batch: bytes reach the file, the rollback repairs it —
        // simulate the crash-before-rollback by writing the torn bytes
        // directly instead.
        assert!(live.apply(&append("torn away")).is_err());
        drop(live);
        // Inject a literally torn line (no newline, broken crc frame).
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("oplog"))
            .unwrap();
        f.write_all(b"deadbeef\ttweet\talice\thalf-writ").unwrap();
        drop(f);
        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        let guard = back.read();
        assert_eq!(guard.corpus().tweet_count(), 3, "acked op survives");
        assert_eq!(guard.pending_ops(), 1, "torn tail dropped");
        drop(guard);
        drop(back);
        // The truncation healed the file: reopen is clean.
        let again = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        assert_eq!(again.read().corpus().tweet_count(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn every_oplog_damage_fails_or_reopens_to_a_prefix() {
        // A tear is the crash window: it reopens to the ops before it,
        // even inside a multi-byte character. A flip before the last line
        // never costs history; on the last line a flipped terminator reads
        // as a tear. (A hex letter's case does not change its CRC.)
        let dir = tmpdir("oplog_damage");
        let (corpus, oplog) = (dir.join("corpus.bin"), dir.join("oplog"));
        let texts = ["first", "café ☕ last"];
        let live = LiveCorpus::create(base_corpus(), &corpus, &oplog).unwrap();
        for text in texts {
            live.apply(&append(text)).unwrap();
        }
        drop(live);
        let good = fs::read(&oplog).unwrap();
        let header_end = good.iter().position(|&b| b == b'\n').unwrap() + 1;
        let last_line = good[..good.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        for_each_damage(&good, |damage, image| {
            fs::write(&oplog, image).unwrap();
            let replayed = match LiveCorpus::open(&corpus, &oplog) {
                Ok(live) => {
                    let guard = live.read();
                    let corpus = guard.corpus();
                    let got: Vec<&str> =
                        (2..corpus.tweet_count() as u32).map(|id| corpus.text(id)).collect();
                    assert_eq!(got, texts[..got.len()], "{damage:?}");
                    assert_eq!(guard.pending_ops(), got.len(), "{damage:?}");
                    Some(got.len())
                }
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{damage:?}: {e}");
                    None
                }
            };
            match damage {
                Damage::Truncated(cut) if cut >= header_end => {
                    assert!(replayed.is_some(), "{damage:?} did not reopen")
                }
                Damage::Flipped { byte, .. } if byte < last_line => {
                    assert!(matches!(replayed, None | Some(2)), "{damage:?} lost history")
                }
                _ => {}
            }
        });
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn pending_commit_rolls_forward_and_back() {
        let dir = tmpdir("pending");
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap();
        live.apply(&append("to be compacted")).unwrap();
        drop(live);
        let corpus_path = dir.join("corpus.bin");
        let oplog_path = dir.join("oplog");
        let pending = sibling(&oplog_path, ".pending");

        // Roll back: a pending file naming a base that never landed.
        fs::write(&pending, oplog_header(0xdeadbeef)).unwrap();
        let back = LiveCorpus::open(&corpus_path, &oplog_path).unwrap();
        assert!(!pending.exists(), "stale pending discarded");
        assert_eq!(back.read().corpus().tweet_count(), 3, "old oplog replayed");
        drop(back);

        // Roll forward: pending names the *current* base → it replaces
        // the oplog (modelling a crash after the base rename).
        let base_crc = crc32(&fs::read(&corpus_path).unwrap());
        fs::write(&pending, oplog_header(base_crc)).unwrap();
        let fwd = LiveCorpus::open(&corpus_path, &oplog_path).unwrap();
        assert!(!pending.exists());
        assert_eq!(
            fwd.read().pending_ops(),
            0,
            "promoted (empty-tail) pending oplog replaced the old log"
        );
        assert_eq!(fwd.read().corpus().tweet_count(), 2, "base without tail");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn compact_write_fault_keeps_last_known_good_base() {
        let dir = tmpdir("compactfault");
        let plan = Arc::new(FaultPlan::new(9).trigger(
            COMPACT_SITE,
            0,
            Fault::TornWrite {
                numerator: 1,
                denominator: 3,
            },
        ));
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap()
            .with_injector(plan, RetryPolicy::none());
        let base_bytes = fs::read(dir.join("corpus.bin")).unwrap();
        live.apply(&append("delta tweet")).unwrap();
        assert!(live.compact().is_err());
        // Serving continues on base + delta; the persisted pair is the
        // pre-compaction one, still consistent.
        {
            let guard = live.read();
            let corpus = guard.corpus();
            assert_eq!(corpus.match_query("delta"), corpus.ids_of_texts(&["delta tweet"]));
        }
        assert_eq!(fs::read(dir.join("corpus.bin")).unwrap(), base_bytes);
        drop(live);
        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        assert_eq!(back.read().corpus().tweet_count(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn compact_bit_flip_is_caught_by_verification() {
        let dir = tmpdir("compactflip");
        let plan = Arc::new(FaultPlan::new(11).trigger(
            COMPACT_SITE,
            0,
            Fault::BitFlip {
                offset: 1234,
                bit: 2,
            },
        ));
        let live = LiveCorpus::create(base_corpus(), dir.join("corpus.bin"), dir.join("oplog"))
            .unwrap()
            .with_injector(plan, RetryPolicy::none());
        let base_bytes = fs::read(dir.join("corpus.bin")).unwrap();
        live.apply(&append("delta tweet")).unwrap();
        let err = live.compact().unwrap_err();
        assert!(err.to_string().contains("verification"), "{err}");
        assert_eq!(
            fs::read(dir.join("corpus.bin")).unwrap(),
            base_bytes,
            "corrupt candidate must never shadow the good base"
        );
        assert!(!sibling(&dir.join("corpus.bin"), ".next").exists());
        // The delta is still durable through the oplog.
        drop(live);
        let back = LiveCorpus::open(dir.join("corpus.bin"), dir.join("oplog")).unwrap();
        let guard = back.read();
        let corpus = guard.corpus();
        assert_eq!(corpus.match_query("delta"), corpus.ids_of_texts(&["delta tweet"]));
        drop(guard);
        let _ = fs::remove_dir_all(dir);
    }
}
