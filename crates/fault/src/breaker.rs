//! Per-shard circuit breakers for the scatter-gather fan-out.
//!
//! A [`CircuitBreaker`] tracks consecutive failures (deadline misses,
//! stalls, panics) for one shard. After `threshold` consecutive
//! failures it **opens**: the fan-out skips the shard outright (an
//! immediate, honestly-marked partial answer beats burning the whole
//! budget on a shard that has missed its last N deadlines). After
//! `open_us` ticks of the injectable clock it becomes **half-open**: one
//! probe request is let through; success closes the breaker, failure
//! re-opens it for another window.
//!
//! [`ShardBreakers`] is the per-corpus collection. Every state
//! transition bumps a shared **health epoch**; the serve result cache
//! keys on it, so a cached body can never be served across a breaker
//! state change — the cache-coherence guarantee is structural, not a
//! TTL.

use crate::clock::TickSource;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Breaker tuning: how many consecutive failures open it, and how long
/// it stays open before probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker. `0` disables
    /// breaking entirely (the breaker never opens).
    pub threshold: u32,
    /// Ticks the breaker stays open before allowing a half-open probe.
    pub open_us: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            open_us: 5_000_000,
        }
    }
}

/// A breaker's externally visible state (surfaced on `/metrics` and
/// `/healthz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Sick: requests are skipped until the open window expires.
    Open,
    /// Probing: one request is let through to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// The lowercase name used in JSON surfaces.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    consecutive_failures: u32,
    state: BreakerState,
    opened_at_us: u64,
    /// Whether the half-open probe slot is taken.
    probing: bool,
}

/// One shard's breaker. Thread-safe; time comes from the injectable
/// clock passed at each decision point so tests drive it virtually.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

/// What a breaker decision or record changed, so callers can account
/// trips/recoveries and bump the health epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// No state change.
    None,
    /// Closed/half-open → open.
    Tripped,
    /// Open → half-open (probe admitted).
    Probing,
    /// Half-open → closed.
    Recovered,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                consecutive_failures: 0,
                state: BreakerState::Closed,
                opened_at_us: 0,
                probing: false,
            }),
        }
    }

    /// Whether a request may go to this shard now. Open breakers whose
    /// window has expired transition to half-open and admit exactly one
    /// probe; concurrent callers during the probe are refused.
    pub fn allow(&self, clock: &dyn TickSource) -> (bool, BreakerEvent) {
        let Ok(mut inner) = self.inner.lock() else {
            return (true, BreakerEvent::None);
        };
        match inner.state {
            BreakerState::Closed => (true, BreakerEvent::None),
            BreakerState::Open => {
                if clock.now_us().saturating_sub(inner.opened_at_us) >= self.config.open_us {
                    inner.state = BreakerState::HalfOpen;
                    inner.probing = true;
                    (true, BreakerEvent::Probing)
                } else {
                    (false, BreakerEvent::None)
                }
            }
            BreakerState::HalfOpen => {
                if inner.probing {
                    (false, BreakerEvent::None)
                } else {
                    inner.probing = true;
                    (true, BreakerEvent::None)
                }
            }
        }
    }

    /// Record a request outcome for this shard.
    pub fn record(&self, ok: bool, clock: &dyn TickSource) -> BreakerEvent {
        let Ok(mut inner) = self.inner.lock() else {
            return BreakerEvent::None;
        };
        if ok {
            inner.consecutive_failures = 0;
            inner.probing = false;
            if inner.state != BreakerState::Closed {
                inner.state = BreakerState::Closed;
                return BreakerEvent::Recovered;
            }
            return BreakerEvent::None;
        }
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        inner.probing = false;
        let threshold = self.config.threshold;
        let should_trip = match inner.state {
            BreakerState::Closed => threshold > 0 && inner.consecutive_failures >= threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if should_trip {
            inner.state = BreakerState::Open;
            inner.opened_at_us = clock.now_us();
            return BreakerEvent::Tripped;
        }
        BreakerEvent::None
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.inner
            .lock()
            .map(|i| i.state)
            .unwrap_or(BreakerState::Closed)
    }
}

/// The per-corpus breaker set: one [`CircuitBreaker`] per shard, plus
/// the shared health epoch and trip/recovery counters the serve layer
/// surfaces.
#[derive(Debug)]
pub struct ShardBreakers {
    config: BreakerConfig,
    breakers: Mutex<Vec<Arc<CircuitBreaker>>>,
    /// Bumped on every state transition anywhere in the set. Part of
    /// the serve result-cache key, so a cache hit can never cross a
    /// breaker state change.
    epoch: AtomicU64,
    trips: AtomicU64,
    recoveries: AtomicU64,
}

impl ShardBreakers {
    /// An empty set (breakers are created lazily per shard index).
    pub fn new(config: BreakerConfig) -> ShardBreakers {
        ShardBreakers {
            config,
            breakers: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    fn breaker(&self, shard: usize) -> Arc<CircuitBreaker> {
        let Ok(mut breakers) = self.breakers.lock() else {
            return Arc::new(CircuitBreaker::new(self.config));
        };
        while breakers.len() <= shard {
            breakers.push(Arc::new(CircuitBreaker::new(self.config)));
        }
        Arc::clone(&breakers[shard])
    }

    fn account(&self, event: BreakerEvent) {
        match event {
            BreakerEvent::None => {}
            BreakerEvent::Tripped => {
                self.trips.fetch_add(1, SeqCst);
                self.epoch.fetch_add(1, SeqCst);
            }
            BreakerEvent::Probing => {
                self.epoch.fetch_add(1, SeqCst);
            }
            BreakerEvent::Recovered => {
                self.recoveries.fetch_add(1, SeqCst);
                self.epoch.fetch_add(1, SeqCst);
            }
        }
    }

    /// Whether shard `shard` may be queried now.
    pub fn allow(&self, shard: usize, clock: &dyn TickSource) -> bool {
        let (allowed, event) = self.breaker(shard).allow(clock);
        self.account(event);
        allowed
    }

    /// Record shard `shard`'s request outcome.
    pub fn record(&self, shard: usize, ok: bool, clock: &dyn TickSource) {
        let event = self.breaker(shard).record(ok, clock);
        self.account(event);
    }

    /// Current state of every shard's breaker (index = shard).
    pub fn states(&self) -> Vec<BreakerState> {
        self.breakers
            .lock()
            .map(|bs| bs.iter().map(|b| b.state()).collect())
            .unwrap_or_default()
    }

    /// The health epoch: bumps on every breaker state transition.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Total closed/half-open → open transitions.
    pub fn trips(&self) -> u64 {
        self.trips.load(SeqCst)
    }

    /// Total half-open → closed transitions.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn config() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            open_us: 1_000,
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(config());
        assert_eq!(b.record(false, &clock), BreakerEvent::None);
        assert_eq!(b.record(false, &clock), BreakerEvent::None);
        assert_eq!(b.record(false, &clock), BreakerEvent::Tripped);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(&clock).0, "open breakers refuse traffic");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(config());
        for _ in 0..2 {
            b.record(false, &clock);
        }
        b.record(true, &clock);
        for _ in 0..2 {
            assert_eq!(b.record(false, &clock), BreakerEvent::None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_recovers_or_reopens() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(config());
        for _ in 0..3 {
            b.record(false, &clock);
        }
        clock.advance_us(1_000);
        let (allowed, event) = b.allow(&clock);
        assert!(allowed);
        assert_eq!(event, BreakerEvent::Probing);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(&clock).0, "only one probe at a time");
        assert_eq!(b.record(true, &clock), BreakerEvent::Recovered);
        assert_eq!(b.state(), BreakerState::Closed);

        // Re-trip, probe again, fail the probe: straight back to open.
        for _ in 0..3 {
            b.record(false, &clock);
        }
        clock.advance_us(1_000);
        assert!(b.allow(&clock).0);
        assert_eq!(b.record(false, &clock), BreakerEvent::Tripped);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn zero_threshold_disables_breaking() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(BreakerConfig {
            threshold: 0,
            open_us: 1,
        });
        for _ in 0..100 {
            b.record(false, &clock);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(&clock).0);
    }

    #[test]
    fn shard_set_bumps_epoch_on_every_transition() {
        let clock = VirtualClock::new();
        let set = ShardBreakers::new(config());
        assert_eq!(set.epoch(), 0);
        assert!(set.allow(1, &clock), "unknown shards start closed");
        for _ in 0..3 {
            set.record(1, false, &clock);
        }
        assert_eq!(set.trips(), 1);
        let after_trip = set.epoch();
        assert!(after_trip > 0, "trip must bump the health epoch");
        assert!(!set.allow(1, &clock));
        assert!(set.allow(0, &clock), "other shards unaffected");

        clock.advance_us(1_000);
        assert!(set.allow(1, &clock), "half-open probe admitted");
        assert!(set.epoch() > after_trip, "probe bumps the epoch");
        set.record(1, true, &clock);
        assert_eq!(set.recoveries(), 1);
        assert_eq!(
            set.states(),
            vec![BreakerState::Closed, BreakerState::Closed]
        );
    }
}
