//! Keeping a measured phase on one processor at a time.
//!
//! The serve workloads send one request at a time over one connection,
//! so exactly one of the client, the event loop and a worker can run at
//! any moment. Left to the scheduler they spread over the processors,
//! every hand-off wakes a halted virtual processor through the
//! hypervisor, and that wake-up, not the program, is what the client
//! then times: on the seed code a cached `GET /search` took 85-130 µs
//! that way, a different figure each run, and 16.3 µs in every run with
//! all threads on one processor (the "77 µs nothing accounts for" of the
//! ROADMAP). With every thread on the same processor a hand-off is a
//! context switch and the processor never halts inside a request.
//!
//! Which processor matters too: each virtual processor sits on a core it
//! shares with other guests, and one of them can run a third slower than
//! the other for a minute. [`Turns`] therefore moves the whole process
//! to the next allowed processor every [`TURN`], so every phase samples
//! them all and a request's best repetition (see `stats::best`) comes
//! from whichever was left alone.
//!
//! Linux only (`sched_setaffinity`, declared here: no `libc` crate is
//! vendored); elsewhere every call does nothing.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

/// How long a phase stays on one processor.
pub const TURN: Duration = Duration::from_secs(1);

/// Words of a `cpu_set_t` (1024 processors).
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// Processors the calling thread may run on.
    pub fn allowed() -> Option<Mask> {
        let mut mask: Mask = [0; super::MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restrict thread `tid` (0: the caller) to `mask`.
    pub fn restrict(tid: i32, mask: &Mask) {
        // SAFETY: `mask` is a live buffer of the size passed; a failure
        // (the thread just ended) leaves nothing behind.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn allowed() -> Option<Mask> {
        None
    }

    pub fn restrict(_tid: i32, _mask: &Mask) {}
}

/// Restrict every thread of this process to `mask`. Threads started
/// later inherit their creator's.
fn restrict_process(mask: &Mask) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return sys::restrict(0, mask);
    };
    for tid in tasks
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<i32>().ok())
    {
        sys::restrict(tid, mask);
    }
}

/// The processors this process may use, taken in turns.
pub struct Turns {
    /// What the process was allowed when the run began.
    all: Mask,
    cpus: Vec<usize>,
    taken: AtomicUsize,
}

impl Turns {
    /// Read the allowed processors; nothing is restricted yet.
    pub fn new() -> Turns {
        let all = sys::allowed().unwrap_or([0; MASK_WORDS]);
        let cpus = (0..MASK_WORDS * 64)
            .filter(|cpu| all[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        Turns {
            all,
            cpus,
            taken: AtomicUsize::new(0),
        }
    }

    /// Move every thread of the process to the next processor. Returns
    /// it (`None` where affinity is not available).
    pub fn next(&self) -> Option<usize> {
        let cpu = *self
            .cpus
            .get(self.taken.fetch_add(1, Relaxed) % self.cpus.len().max(1))?;
        let mut mask: Mask = [0; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        restrict_process(&mask);
        Some(cpu)
    }

    /// Give every thread of the process all its processors back.
    pub fn release(&self) {
        if !self.cpus.is_empty() {
            restrict_process(&self.all);
        }
    }
}

impl Drop for Turns {
    fn drop(&mut self) {
        self.release();
    }
}

/// Held by every test that moves the process: affinity is the whole
/// process's, and the test harness runs tests side by side.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turns_visit_every_allowed_processor_and_release_restores_them() {
        let _alone = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let turns = Turns::new();
        let before = sys::allowed();
        let visited: Vec<Option<usize>> = (0..turns.cpus.len().max(1) * 2)
            .map(|_| turns.next())
            .collect();
        if cfg!(target_os = "linux") {
            assert!(!turns.cpus.is_empty());
            // Each turn leaves exactly its processor allowed, also for a
            // thread started meanwhile.
            let cpu = visited.last().copied().flatten().expect("a processor");
            let seen = std::thread::spawn(sys::allowed).join().unwrap().unwrap();
            assert_eq!(seen[cpu / 64], 1 << (cpu % 64));
            assert_eq!(seen.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let mut distinct: Vec<usize> = visited.iter().flatten().copied().collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct, turns.cpus);
        } else {
            assert!(visited.iter().all(Option::is_none));
        }
        turns.release();
        assert_eq!(sys::allowed(), before);
    }
}
