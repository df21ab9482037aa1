//! # esharp-par
//!
//! Deterministic data-parallel primitives for the e# offline pipeline.
//!
//! The paper's offline stage is an explicitly parallel map-reduce over
//! hundreds of machines (§4.2, Figure 3); this crate is the single-node
//! analog: a **persistent** thread pool (built once, reused across every
//! operator call — no per-call thread spawning) plus ordered chunk
//! map/reduce helpers that obey the repository's deterministic-parallel-
//! reduction rule (see `PERF.md`):
//!
//! 1. **Fixed chunking** — chunk boundaries depend only on the input
//!    length, never on the worker count ([`chunk_ranges`]).
//! 2. **Ordered merge** — per-chunk results are returned (and therefore
//!    reduced) in chunk-index order, so floating-point accumulation order
//!    is identical at any worker count.
//! 3. **No map-iteration-order dependence** — accumulators are flat
//!    vectors or dense arrays, never `HashMap`s whose iteration order
//!    could leak into results.
//!
//! The pool is intentionally rayon-shaped ([`ThreadPool::run`] ≈
//! `scope`+`spawn`, [`ThreadPool::map_chunks`] ≈ `par_chunks().map()`
//! with an ordered collect) so the implementation can be swapped for
//! rayon wholesale if the crate ever becomes available to the build; the
//! deterministic contracts above are the part that must survive such a
//! swap. It is std-only, which keeps the offline build hermetic.
//!
//! Worker accounting matches the paper's "number of machines" notion: a
//! pool of `workers = N` uses the calling thread plus `N - 1` pool
//! threads, so `workers = 1` is exactly the serial path (no queue, no
//! synchronization).
//!
//! The crate's one `unsafe` operation is the job-lifetime transmute in
//! [`ThreadPool::run`]; the root denies `unsafe_code` and `run` alone
//! allows it. Its invariant is written there.

#![deny(unsafe_code)]

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<std::collections::VecDeque<Job>>,
    ready: Condvar,
    shutdown: std::sync::atomic::AtomicBool,
}

/// A persistent pool of worker threads with a caller-runs submission
/// model: `run` enqueues tasks, then the calling thread helps drain the
/// queue until its own batch completes. Nested `run` calls from inside
/// pool tasks are safe (the nested caller also helps, so the pool cannot
/// deadlock on itself).
pub struct ThreadPool {
    workers: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ThreadPool {
    /// A pool with `workers` logical workers (minimum 1). `workers - 1`
    /// OS threads are spawned; the caller is the remaining worker.
    pub fn new(workers: usize) -> ThreadPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(std::collections::VecDeque::new()),
            ready: Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("esharp-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            workers,
            shared,
            handles,
        }
    }

    /// Logical worker count (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every task, returning results in **task order** regardless
    /// of completion order. Tasks may borrow from the caller's stack; all
    /// tasks are guaranteed to finish before `run` returns. A panicking
    /// task is resumed on the caller once the rest of the batch finishes.
    ///
    /// # Invariant
    ///
    /// Every job of the batch has run, and every borrow it captured has
    /// been dropped, before `run` returns, on the success path and the
    /// panic path alike. A job owns its task, its index and a sender of
    /// the result channel. The task, with all it captured, is consumed
    /// inside `catch_unwind`, so a panic drops it too, and only then does
    /// the job send its result; `run` returns only once it holds every
    /// result. What a worker may still drop after that is the job's index
    /// and sender: they borrow nothing of the caller's, and the channel
    /// is empty by then. That is what lets the queue hold jobs as
    /// `'static` (checked by
    /// `tests::tasks_and_their_captures_are_dropped_before_run_returns`).
    #[allow(unsafe_code)]
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers == 1 || n == 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }

        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for (index, task) in tasks.into_iter().enumerate() {
                let tx: Sender<(usize, std::thread::Result<T>)> = tx.clone();
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    let _ = tx.send((index, result));
                });
                // SAFETY: the invariant above: `run` waits until every job
                // of this batch has run and dropped all it captured, so no
                // borrow in `job` outlives this call even though the
                // queue's element type is 'static.
                let job: Job = unsafe { std::mem::transmute(job) };
                queue.push_back(job);
            }
        }
        drop(tx);
        self.shared.ready.notify_all();

        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        while received < n {
            // Caller-runs: prefer doing queued work over sleeping.
            let job = self.shared.queue.lock().unwrap().pop_front();
            let worked = job.is_some();
            if let Some(job) = job {
                job();
            }
            while let Ok((index, result)) = rx.try_recv() {
                slots[index] = Some(result);
                received += 1;
            }
            if !worked && received < n {
                // Queue empty: the outstanding tasks are running on pool
                // threads; block until one reports.
                match rx.recv() {
                    Ok((index, result)) => {
                        slots[index] = Some(result);
                        received += 1;
                    }
                    Err(_) => unreachable!("a task sender was dropped without sending"),
                }
            }
        }

        slots
            .into_iter()
            .map(|slot| match slot.expect("batch slot unfilled") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }

    /// Apply `f` to fixed-size chunks of `items` in parallel and return
    /// the per-chunk results in **chunk order**. Chunk boundaries come
    /// from [`chunk_ranges`], so they depend only on `items.len()` and
    /// `chunk` — reducing the returned vector left-to-right therefore
    /// yields bit-identical floats at any worker count.
    pub fn map_chunks<'data, T, R, F>(&self, items: &'data [T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'data [T]) -> R + Sync,
    {
        let f = &f;
        let tasks: Vec<_> = chunk_ranges(items.len(), chunk)
            .into_iter()
            .map(|range| {
                let slice = &items[range];
                move || f(slice)
            })
            .collect();
        self.run(tasks)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        // Task panics are captured inside the job (see `run`), so the
        // worker itself never unwinds.
        job();
    }
}

/// Split `0..len` into contiguous ranges of `chunk` elements (the last
/// range may be shorter). Boundaries are a pure function of `len` and
/// `chunk` — the foundation of the fixed-chunking determinism rule.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Default chunk size for parallelizing over `len` items: aims for enough
/// chunks to load-balance 8 workers with task overpartitioning, while
/// keeping chunks coarse enough that queue traffic stays negligible.
/// Depends only on `len` (never on the worker count), as the determinism
/// rule requires.
pub fn default_chunk(len: usize) -> usize {
    len.div_ceil(64).max(256)
}

/// The host's available hardware parallelism (1 when undetectable).
/// Default worker counts clamp to this so a 2-core container doesn't
/// spawn an 8-thread pool that only adds contention; explicit worker
/// settings are never clamped — determinism contracts key on the
/// requested count, and oversubscription is a legitimate test setup.
pub fn detected_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// The process-wide pool for a given worker count, built on first use and
/// reused for every subsequent request — callers at the same parallelism
/// level share one set of threads instead of respawning per operator.
pub fn shared_pool(workers: usize) -> Arc<ThreadPool> {
    let workers = workers.max(1);
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().unwrap();
    Arc::clone(
        pools
            .entry(workers)
            .or_insert_with(|| Arc::new(ThreadPool::new(workers))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_preserves_task_order() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<_> = (0..100u64)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    i * i
                }
            })
            .collect();
        let results = pool.run(tasks);
        assert_eq!(results, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_borrows_caller_data() {
        let pool = ThreadPool::new(3);
        let data: Vec<u64> = (0..10_000).collect();
        let chunks: Vec<&[u64]> = data.chunks(1000).collect();
        let sums = pool.run(
            chunks
                .iter()
                .map(|slice| move || slice.iter().sum::<u64>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn serial_pool_never_touches_the_queue() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 1);
        let out = pool.run(vec![|| 1, || 2]);
        assert_eq!(out, vec![1, 2]);
        assert!(pool.shared.queue.lock().unwrap().is_empty());
        assert!(pool.handles.is_empty());
    }

    #[test]
    fn map_chunks_matches_serial_fold_bitexact() {
        // Floating-point: parallel ordered reduction must equal the
        // serial left-to-right fold bit for bit.
        let data: Vec<f64> = (0..50_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let serial: f64 = data.iter().sum();
        for workers in [1, 2, 4, 8] {
            let pool = ThreadPool::new(workers);
            let partial = pool.map_chunks(&data, 1013, |chunk| chunk.iter().sum::<f64>());
            let total: f64 = partial.into_iter().sum();
            // Identical chunking + ordered merge => identical bits.
            let reference: f64 = chunk_ranges(data.len(), 1013)
                .into_iter()
                .map(|r| data[r].iter().sum::<f64>())
                .sum();
            assert_eq!(total.to_bits(), reference.to_bits(), "workers={workers}");
            let _ = serial; // serial differs in grouping; reference is the contract
        }
    }

    #[test]
    fn map_chunks_is_worker_count_invariant() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt()).collect();
        let chunk = default_chunk(data.len());
        let baseline: Vec<f64> = ThreadPool::new(1)
            .map_chunks(&data, chunk, |c| c.iter().sum::<f64>());
        for workers in [2, 3, 8] {
            let pool = ThreadPool::new(workers);
            let out = pool.map_chunks(&data, chunk, |c| c.iter().sum::<f64>());
            let same = baseline
                .iter()
                .zip(&out)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "workers={workers} diverged");
        }
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(4));
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner = pool.run((0..4).map(|j| move || i * 10 + j).collect::<Vec<_>>());
                    inner.into_iter().sum::<i32>()
                }
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out.len(), 8);
        for (i, total) in out.into_iter().enumerate() {
            assert_eq!(total, (0..4).map(|j| i as i32 * 10 + j).sum::<i32>());
        }
    }

    #[test]
    fn panicking_task_propagates_after_batch_completes() {
        let pool = ThreadPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let completed = Arc::clone(&completed);
            pool.run(
                (0..8)
                    .map(|i| {
                        let completed = Arc::clone(&completed);
                        move || {
                            if i == 3 {
                                panic!("boom");
                            }
                            completed.fetch_add(1, Ordering::SeqCst);
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "batch must finish");
    }

    /// `run`'s invariant, observed: each task captures a guard borrowing a
    /// local counter, and right after `run` returns (or its resumed panic
    /// is caught) every guard has been dropped. The sleep only widens the
    /// window a `run` that stopped waiting would be caught in.
    #[test]
    fn tasks_and_their_captures_are_dropped_before_run_returns() {
        struct Guard<'a>(&'a AtomicUsize);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for workers in [2, 4] {
            let pool = ThreadPool::new(workers);
            let tasks = 3 * workers + 1;
            for panicking in [None, Some(tasks / 2)] {
                let dropped = AtomicUsize::new(0);
                let batch: Vec<_> = (0..tasks)
                    .map(|i| {
                        let guard = Guard(&dropped);
                        move || {
                            let _guard = guard;
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            assert_ne!(Some(i), panicking, "task {i} panics");
                            i
                        }
                    })
                    .collect();
                let result = catch_unwind(AssertUnwindSafe(|| pool.run(batch)));
                let context = format!("workers={workers} panicking={panicking:?}");
                assert_eq!(dropped.load(Ordering::SeqCst), tasks, "{context}");
                assert_eq!(result.is_err(), panicking.is_some(), "{context}");
            }
        }
    }

    #[test]
    fn shared_pool_is_cached_per_worker_count() {
        let a = shared_pool(3);
        let b = shared_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_pool(5);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.workers(), 5);
        assert_eq!(shared_pool(0).workers(), 1);
    }

    #[test]
    fn chunk_ranges_tile_the_input() {
        assert_eq!(chunk_ranges(0, 10), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(10, 3), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(chunk_ranges(9, 3), vec![0..3, 3..6, 6..9]);
        assert_eq!(chunk_ranges(5, 100), vec![0..5]);
        // chunk=0 is clamped, not a panic.
        assert_eq!(chunk_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let pool = ThreadPool::new(4);
        for round in 0..50usize {
            let out = pool.run((0..16).map(|i| move || i + round).collect::<Vec<_>>());
            assert_eq!(out, (0..16).map(|i| i + round).collect::<Vec<_>>());
        }
    }
}
