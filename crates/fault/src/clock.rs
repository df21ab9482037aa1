//! Injectable time: the tick source behind every deadline, hedge delay
//! and breaker cool-down in the request-lifecycle hardening layer.
//!
//! Production code runs on [`WallClock`] (monotonic microseconds since
//! process start, waits are real sleeps). Tests run on [`VirtualClock`],
//! whose `now` only moves when a test advances it and whose waits return
//! *instantly* — injected latency is **charged to the waiting task's
//! budget, never slept** — so the chaos matrix is clock-free: a stalled
//! shard exhausts its budget in nanoseconds of real time, deterministic
//! at any thread interleaving, and a suite sweeping hundreds of
//! stall × deadline × hedge combinations finishes without a single
//! `sleep`.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic microsecond tick source plus a cancellable wait.
///
/// Implementations must be monotonic (ticks never decrease) and
/// `wait_us` must return the number of ticks the wait consumed **on this
/// clock** — a real clock sleeps and reports real elapsed time, a
/// virtual clock reports the requested ticks without sleeping, leaving
/// it to the caller to charge them against a [`crate::Budget`].
pub trait TickSource: Send + Sync + std::fmt::Debug {
    /// Monotonic ticks (microseconds) now.
    fn now_us(&self) -> u64;

    /// Wait up to `us` ticks, returning early as soon as `release()`
    /// turns true (checked at bounded intervals). Returns the ticks this
    /// wait consumed on this clock.
    fn wait_us(&self, us: u64, release: &(dyn Fn() -> bool + Sync)) -> u64;
}

/// Real time: microseconds since an epoch instant, real sleeps.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A fresh wall clock (epoch = now).
    pub fn new() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }

    /// The process-wide shared wall clock (built on first use).
    pub fn shared() -> Arc<WallClock> {
        static SHARED: OnceLock<Arc<WallClock>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(WallClock::new())))
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// How often a real wait re-checks its release condition.
const WAIT_SLICE: Duration = Duration::from_millis(1);

impl TickSource for WallClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn wait_us(&self, us: u64, release: &(dyn Fn() -> bool + Sync)) -> u64 {
        let started = self.now_us();
        let deadline = started.saturating_add(us);
        while self.now_us() < deadline && !release() {
            let remaining = deadline - self.now_us();
            std::thread::sleep(WAIT_SLICE.min(Duration::from_micros(remaining)));
        }
        self.now_us().saturating_sub(started)
    }
}

/// Simulated time for deterministic tests: `now` moves only via
/// [`VirtualClock::advance_us`], and waits return the requested ticks
/// immediately **without advancing the shared clock** — virtual latency
/// is a per-task charge, not a global side effect, so concurrent tasks
/// never race on simulated time and a chaos run's outcome is a pure
/// function of its plan.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at tick 0.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Advance simulated time by `us` ticks (test-driven; e.g. to expire
    /// a breaker's open window).
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, SeqCst);
    }
}

impl TickSource for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now.load(SeqCst)
    }

    fn wait_us(&self, us: u64, release: &(dyn Fn() -> bool + Sync)) -> u64 {
        if release() {
            return 0;
        }
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn wall_clock_is_monotonic_and_waits() {
        let clock = WallClock::new();
        let a = clock.now_us();
        let waited = clock.wait_us(2_000, &|| false);
        let b = clock.now_us();
        assert!(b >= a + waited.min(2_000) || waited >= 1_000);
        assert!(waited >= 1_000, "a 2ms wait must really wait, got {waited}µs");
    }

    #[test]
    fn wall_clock_wait_releases_early() {
        let clock = WallClock::new();
        let released = AtomicBool::new(true);
        let waited = clock.wait_us(1_000_000, &|| released.load(SeqCst));
        assert!(waited < 100_000, "released wait must not run its course");
    }

    #[test]
    fn virtual_clock_never_sleeps_and_never_self_advances() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_us(), 0);
        let started = Instant::now();
        let charged = clock.wait_us(10_000_000, &|| false);
        assert_eq!(charged, 10_000_000, "virtual waits charge in full");
        assert_eq!(clock.now_us(), 0, "waits must not move shared time");
        assert!(started.elapsed() < Duration::from_secs(1));
        clock.advance_us(500);
        assert_eq!(clock.now_us(), 500);
        assert_eq!(clock.wait_us(99, &|| true), 0, "released waits charge nothing");
    }

    #[test]
    fn shared_wall_clock_is_a_singleton() {
        assert!(Arc::ptr_eq(&WallClock::shared(), &WallClock::shared()));
    }
}
