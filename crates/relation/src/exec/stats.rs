//! Per-stage resource accounting, in the shape of the paper's Table 9
//! (step, workers, runtime, bytes read, bytes written).

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Resource consumption of one named pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (e.g. "extraction", "clustering iteration 3").
    pub stage: String,
    /// Degree of parallelism used (the paper's "VMs" column).
    pub workers: usize,
    /// Wall-clock time.
    pub wall: Duration,
    /// Rows consumed.
    pub rows_read: u64,
    /// Rows produced.
    pub rows_written: u64,
    /// Payload bytes consumed.
    pub bytes_read: u64,
    /// Payload bytes produced.
    pub bytes_written: u64,
    /// Bytes written to spill files when the operator exceeded its memory
    /// grant (0 when the operator ran fully in memory).
    pub spill_bytes: u64,
    /// Number of spill partitions / sorted runs written.
    pub spill_parts: u64,
    /// Pages a paged scan fetched through its buffer pool (0 for every
    /// other operator).
    pub pages: u64,
    /// Of those fetches, the ones a resident frame served: the scan's
    /// delta of `PoolStats::hits`.
    pub pool_hits: u64,
    /// Of those fetches, the ones read from disk: the scan's delta of
    /// `PoolStats::misses`.
    pub pool_misses: u64,
    /// Physical plan node id this record belongs to, when the record was
    /// produced by [`crate::physical`] execution. Lets EXPLAIN ANALYZE
    /// correlate measurements with plan nodes; `None` for pipeline-level
    /// records.
    pub node: Option<usize>,
}

/// Per-operator execution statistics — the physical planner's name for
/// [`StageStats`]: every operator in a physical plan records one.
pub type ExecStats = StageStats;

impl StageStats {
    /// A zeroed stats record for a stage.
    pub fn new(stage: impl Into<String>, workers: usize) -> Self {
        StageStats {
            stage: stage.into(),
            workers,
            wall: Duration::ZERO,
            rows_read: 0,
            rows_written: 0,
            bytes_read: 0,
            bytes_written: 0,
            spill_bytes: 0,
            spill_parts: 0,
            pages: 0,
            pool_hits: 0,
            pool_misses: 0,
            node: None,
        }
    }
}

impl fmt::Display for StageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} workers={:<3} wall={:>10.3?} read={} rows/{} B written={} rows/{} B",
            self.stage,
            self.workers,
            self.wall,
            self.rows_read,
            self.bytes_read,
            self.rows_written,
            self.bytes_written
        )?;
        if self.spill_bytes > 0 {
            write!(
                f,
                " spilled={} B/{} parts",
                self.spill_bytes, self.spill_parts
            )?;
        }
        Ok(())
    }
}

/// Thread-safe collector of stage statistics.
///
/// Cloning shares the underlying registry, so operators deep in the
/// executor can record into the same log the pipeline driver reads.
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    inner: Arc<Mutex<Vec<StageStats>>>,
}

impl StatsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a finished stage record.
    pub fn record(&self, stats: StageStats) {
        self.inner.lock().push(stats);
    }

    /// Snapshot all records so far.
    pub fn snapshot(&self) -> Vec<StageStats> {
        self.inner.lock().clone()
    }

    /// How many records the log holds: a mark for [`StatsRegistry::since`].
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The records from `mark` on (`snapshot()[mark..]`), cloning only
    /// those; empty when `mark` is at or past the end.
    pub fn since(&self, mark: usize) -> Vec<StageStats> {
        let log = self.inner.lock();
        log[mark.min(log.len())..].to_vec()
    }

    /// Drop all records.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let reg = StatsRegistry::new();
        reg.record(StageStats::new("extraction", 4));
        let shared = reg.clone();
        shared.record(StageStats::new("clustering", 4));
        assert_eq!(reg.snapshot().len(), 2);
    }

    #[test]
    fn since_clones_the_tail_a_shared_clone_recorded() {
        let reg = StatsRegistry::new();
        assert!(reg.is_empty());
        reg.record(StageStats::new("extraction", 4));
        let mark = reg.len();
        let shared = reg.clone();
        shared.record(StageStats::new("clustering iteration 1", 2));
        shared.record(StageStats::new("clustering iteration 2", 2));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.since(mark), reg.snapshot()[mark..]);
        assert_eq!(reg.since(0), reg.snapshot());
        assert!(reg.since(reg.len()).is_empty());
        assert!(reg.since(reg.len() + 1).is_empty());
    }
}
