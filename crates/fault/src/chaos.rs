//! Seed-driven chaos: latency, stalls, and panics at named seams.
//!
//! Where [`crate::FaultPlan`] injects *I/O failures* into persistence
//! writes, a [`ChaosPlan`] injects *misbehaviour in time and control
//! flow* into the online request path — a shard task that answers late
//! ([`ChaosFault::Delay`]), one that never answers within any budget
//! ([`ChaosFault::Stall`]), or one that dies mid-request
//! ([`ChaosFault::Panic`]). The same determinism contract applies:
//! whether chaos fires at a given `(site, attempt)` is a pure function
//! of `(seed, site, attempt)` plus explicit triggers, never of wall
//! time or interleaving, so every chaos run replays from its seed.
//!
//! ## Sites
//!
//! The online path consults three seam families (ROBUSTNESS.md):
//!
//! * `search:shard:<i>` — one shard's union task in the scatter-gather
//!   fan-out; `attempt` 0 is the primary task, 1 its hedged duplicate,
//! * `serve:worker` — inside a serve worker's request handler (under
//!   `catch_unwind`, so a panic here answers 500),
//! * `serve:conn` — a serve worker's connection loop *outside* the
//!   unwind guard (a panic here kills the thread and exercises
//!   supervision/resurrection).

use crate::{fnv64, splitmix64};
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Mutex;

/// One injected misbehaviour at a chaos seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The task is charged `us` extra ticks of latency before its work
    /// counts — on a wall clock this is a real sleep, on a virtual
    /// clock a pure budget charge.
    Delay {
        /// Injected latency in clock ticks (microseconds).
        us: u64,
    },
    /// The task never answers within any finite budget: it waits until
    /// cancelled/deadline and abandons. Models a wedged shard.
    Stall,
    /// The task panics. What happens next is the seam's contract:
    /// contained to a 500 at `serve:worker`, thread death + resurrection
    /// at `serve:conn`, a recorded shard miss at `search:shard:*`.
    Panic,
}

/// Decides, per `(site, attempt)`, whether chaos is injected.
///
/// Same determinism contract as [`crate::FaultInjector`]: decisions must
/// be pure in `(site, attempt)` and injector state, independent of call
/// order — the chaos matrix replays runs and compares response bodies
/// bit-for-bit.
pub trait ChaosInjector: Send + Sync {
    /// The chaos to inject at `site` on `attempt` (0-based), if any.
    fn chaos_at(&self, site: &str, attempt: u32) -> Option<ChaosFault>;
}

/// The production injector: never injects anything; every hook inlines
/// to `None` so the hardened request path costs nothing by default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoChaos;

impl ChaosInjector for NoChaos {
    #[inline(always)]
    fn chaos_at(&self, _site: &str, _attempt: u32) -> Option<ChaosFault> {
        None
    }
}

/// Per-consultation chaos probabilities for the randomized layer of a
/// [`ChaosPlan`], evaluated in the order `delay`, `stall`, `panic`
/// against independent seeded draws.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosRates {
    /// Probability of an injected delay.
    pub delay: f64,
    /// Injected delays are uniform in `[1, delay_max_us]` ticks.
    pub delay_max_us: u64,
    /// Probability of a stall.
    pub stall: f64,
    /// Probability of a panic.
    pub panic: f64,
}

/// A deterministic, seed-driven chaos schedule, mirroring
/// [`crate::FaultPlan`]:
///
/// 1. **Explicit triggers** (`trigger`, `trigger_limited`, `stall_at`,
///    `panic_at`) — fire a given chaos at an exact `(site, attempt)`;
///    sites ending in `*` match by prefix. `trigger_limited` caps how
///    many times a trigger fires in total, which is how a bench scripts
///    "shard 2 is sick for its first N requests, then recovers" to
///    exercise a breaker's trip → half-open → close arc.
/// 2. **Seeded rates** (`with_rates`) — every `(site, attempt)` draws
///    from `splitmix64(seed ⊕ fnv64(site) ⊕ attempt)`, stateless and
///    order-independent.
#[derive(Debug, Default)]
pub struct ChaosPlan {
    seed: u64,
    triggers: Vec<Trigger>,
    rates: ChaosRates,
    /// Sites consulted so far (site, attempt, injected) — lets tests
    /// assert which seams a request actually crossed.
    consulted: Mutex<Vec<(String, u32, bool)>>,
}

#[derive(Debug)]
struct Trigger {
    site: String,
    attempt: Option<u32>,
    fault: ChaosFault,
    /// Remaining firings; `u32::MAX` means unlimited.
    remaining: AtomicU32,
}

impl ChaosPlan {
    /// An empty plan (no chaos) with the given seed for the rate layer.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Add an explicit chaos at `(site, attempt)`. `site` may end in `*`
    /// for prefix matching.
    pub fn trigger(self, site: &str, attempt: u32, fault: ChaosFault) -> ChaosPlan {
        self.push(site, Some(attempt), fault, u32::MAX)
    }

    /// Like [`ChaosPlan::trigger`] but fires at **every** attempt of the
    /// site, at most `limit` times in total across all consultations.
    /// The count-down is the one piece of plan state that is not pure in
    /// `(site, attempt)`; it exists so benches and breaker tests can
    /// model a shard that is sick for a while and then heals.
    pub fn trigger_limited(self, site: &str, fault: ChaosFault, limit: u32) -> ChaosPlan {
        self.push(site, None, fault, limit)
    }

    /// Sugar: stall `site`'s primary attempt.
    pub fn stall_at(self, site: &str) -> ChaosPlan {
        self.trigger(site, 0, ChaosFault::Stall)
    }

    /// Sugar: panic `site`'s primary attempt.
    pub fn panic_at(self, site: &str) -> ChaosPlan {
        self.trigger(site, 0, ChaosFault::Panic)
    }

    fn push(
        mut self,
        site: &str,
        attempt: Option<u32>,
        fault: ChaosFault,
        limit: u32,
    ) -> ChaosPlan {
        self.triggers.push(Trigger {
            site: site.to_string(),
            attempt,
            fault,
            remaining: AtomicU32::new(limit),
        });
        self
    }

    /// Enable the seeded random layer with the given rates.
    pub fn with_rates(mut self, rates: ChaosRates) -> ChaosPlan {
        self.rates = rates;
        self
    }

    /// Every `(site, attempt, fired)` consultation so far, in order.
    pub fn consulted(&self) -> Vec<(String, u32, bool)> {
        self.consulted.lock().map(|g| g.clone()).unwrap_or_default()
    }

    fn decide(&self, site: &str, attempt: u32) -> Option<ChaosFault> {
        for t in &self.triggers {
            if let Some(at) = t.attempt {
                if at != attempt {
                    continue;
                }
            }
            let hit = match t.site.strip_suffix('*') {
                Some(prefix) => site.starts_with(prefix),
                None => t.site == site,
            };
            if !hit {
                continue;
            }
            // Claim one firing; a spent limited trigger falls through.
            let claimed = t
                .remaining
                .fetch_update(SeqCst, SeqCst, |n| match n {
                    0 => None,
                    u32::MAX => Some(u32::MAX),
                    n => Some(n - 1),
                })
                .is_ok();
            if claimed {
                return Some(t.fault);
            }
        }
        let rates = &self.rates;
        if rates.delay == 0.0 && rates.stall == 0.0 && rates.panic == 0.0 {
            return None;
        }
        let base = self.seed ^ fnv64(site.as_bytes()) ^ (attempt as u64).wrapping_mul(0x9e37);
        let unit =
            |salt: u64| -> f64 { (splitmix64(base ^ salt) >> 11) as f64 / (1u64 << 53) as f64 };
        if unit(11) < rates.delay {
            let span = rates.delay_max_us.max(1);
            return Some(ChaosFault::Delay {
                us: splitmix64(base ^ 12) % span + 1,
            });
        }
        if unit(13) < rates.stall {
            return Some(ChaosFault::Stall);
        }
        if unit(15) < rates.panic {
            return Some(ChaosFault::Panic);
        }
        None
    }
}

impl ChaosInjector for ChaosPlan {
    fn chaos_at(&self, site: &str, attempt: u32) -> Option<ChaosFault> {
        let fault = self.decide(site, attempt);
        if let Ok(mut log) = self.consulted.lock() {
            log.push((site.to_string(), attempt, fault.is_some()));
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_chaos_is_silent() {
        assert_eq!(NoChaos.chaos_at("search:shard:0", 0), None);
        assert_eq!(NoChaos.chaos_at("serve:worker", 3), None);
    }

    #[test]
    fn triggers_match_exactly_and_by_prefix() {
        let plan = ChaosPlan::new(1)
            .stall_at("search:shard:2")
            .trigger("serve:*", 1, ChaosFault::Panic);
        assert_eq!(plan.chaos_at("search:shard:2", 0), Some(ChaosFault::Stall));
        assert_eq!(plan.chaos_at("search:shard:2", 1), None, "hedge is clean");
        assert_eq!(plan.chaos_at("search:shard:1", 0), None);
        assert_eq!(plan.chaos_at("serve:worker", 1), Some(ChaosFault::Panic));
        assert_eq!(plan.chaos_at("serve:worker", 0), None);
    }

    #[test]
    fn limited_triggers_fire_exactly_limit_times_then_heal() {
        let plan = ChaosPlan::new(0).trigger_limited(
            "search:shard:1",
            ChaosFault::Delay { us: 500 },
            3,
        );
        let mut fired = 0;
        for attempt in 0..8u32 {
            if plan.chaos_at("search:shard:1", attempt).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "limited trigger must fire exactly `limit` times");
        assert_eq!(plan.chaos_at("search:shard:1", 99), None, "healed");
    }

    #[test]
    fn limited_trigger_fires_at_any_attempt() {
        let plan = ChaosPlan::new(0).trigger_limited("s", ChaosFault::Stall, 2);
        assert_eq!(plan.chaos_at("s", 7), Some(ChaosFault::Stall));
        assert_eq!(plan.chaos_at("s", 0), Some(ChaosFault::Stall));
        assert_eq!(plan.chaos_at("s", 1), None);
    }

    #[test]
    fn seeded_rates_are_deterministic_and_order_independent() {
        let rates = ChaosRates {
            delay: 0.3,
            delay_max_us: 10_000,
            stall: 0.1,
            panic: 0.1,
        };
        let sites = ["search:shard:0", "search:shard:1", "serve:worker"];
        let consult = |plan: &ChaosPlan, reversed: bool| -> Vec<Option<ChaosFault>> {
            let mut queries: Vec<(&str, u32)> = sites
                .iter()
                .flat_map(|&s| (0..6).map(move |at| (s, at)))
                .collect();
            if reversed {
                queries.reverse();
            }
            let mut out: Vec<_> = queries
                .into_iter()
                .map(|(s, at)| plan.chaos_at(s, at))
                .collect();
            if reversed {
                out.reverse();
            }
            out
        };
        let a = ChaosPlan::new(42).with_rates(rates);
        let b = ChaosPlan::new(42).with_rates(rates);
        let forward = consult(&a, false);
        assert_eq!(forward, consult(&b, true));
        assert!(forward.iter().any(|f| f.is_some()), "rates must fire somewhere");
        assert!(
            forward
                .iter()
                .all(|f| !matches!(f, Some(ChaosFault::Delay { us: 0 }))),
            "injected delays are non-zero"
        );
        let c = ChaosPlan::new(43).with_rates(rates);
        assert_ne!(forward, consult(&c, false));
    }

    #[test]
    fn consulted_log_records_seams_in_order() {
        let plan = ChaosPlan::new(0).stall_at("search:shard:1");
        let _ = plan.chaos_at("search:shard:0", 0);
        let _ = plan.chaos_at("search:shard:1", 0);
        assert_eq!(
            plan.consulted(),
            vec![
                ("search:shard:0".into(), 0, false),
                ("search:shard:1".into(), 0, true)
            ]
        );
    }
}
