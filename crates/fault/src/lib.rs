//! # esharp-fault
//!
//! Deterministic fault injection for the e# persistence and checkpoint
//! paths.
//!
//! The paper's offline stage is a weekly job over 65 VMs and 998 GB of
//! logs (§6, Table 9); at that scale partial failure is the normal case,
//! not the exception. This crate provides the testing substrate the
//! crash-safety layer (see `ROBUSTNESS.md`) is validated against:
//!
//! * a [`FaultInjector`] trait threaded through every persistence and
//!   checkpoint write in the pipeline,
//! * [`NoFaults`], the zero-cost production injector (every hook inlines
//!   to `None`, so default builds pay nothing),
//! * [`FaultPlan`], a **seed-driven deterministic** plan mirroring the
//!   `esharp-par` determinism contract: whether a fault fires at a given
//!   `(site, attempt)` is a pure function of `(seed, site, attempt)` —
//!   never of wall-clock time, thread interleaving or call order — so
//!   every injected failure is replayable from its seed alone,
//! * [`RetryPolicy`], a bounded deterministic retry loop for faults
//!   marked *transient*.
//!
//! ## Sites
//!
//! Injection points are named by string **sites**. The pipeline uses
//! three families (documented in `ROBUSTNESS.md`):
//!
//! * `write:<file>` — one atomic persistence operation (e.g.
//!   `write:graph.bin`),
//! * `stage:<name>` — an offline stage boundary, consulted after the
//!   stage's checkpoint is persisted (e.g. `stage:clustering`),
//! * `iter:<k>` — a clustering iteration boundary inside the parallel
//!   backend (e.g. `iter:4`).
//!
//! Plans match sites exactly, or by prefix when the trigger ends in `*`.
//!
//! ## Request-lifecycle hardening
//!
//! Beyond persistence faults, this crate carries the tail-tolerance
//! substrate for the online path (DESIGN.md §11):
//!
//! * [`clock`] — [`TickSource`], the injectable time behind deadlines,
//!   hedge delays and breaker windows ([`WallClock`] in production,
//!   [`VirtualClock`] in tests: clock-free chaos runs),
//! * [`budget`] — [`Budget`], the per-request deadline + cancellation
//!   token threaded through the scatter-gather fan-out,
//! * [`chaos`] — [`ChaosPlan`], seed-driven latency/stall/panic
//!   injection at named seams (`search:shard:<i>`, `serve:worker`,
//!   `serve:conn`),
//! * [`breaker`] — [`ShardBreakers`], per-shard circuit breakers with a
//!   health epoch the serve result cache keys on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod budget;
pub mod chaos;
pub mod clock;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, ShardBreakers};
pub use budget::Budget;
pub use chaos::{ChaosFault, ChaosInjector, ChaosPlan, ChaosRates, NoChaos};
pub use clock::{TickSource, VirtualClock, WallClock};

use std::io;
use std::sync::Mutex;

/// SplitMix64 — the same stateless mixing function the deterministic
/// generators elsewhere in the workspace build on. Pure, so a fault
/// decision derived from it is replayable from its inputs.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte slice — used to fold site names (and by the
/// checkpoint layer, configs and inputs) into the fault-decision hash.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One injected fault, applied to a single persistence operation or
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an I/O error. `transient: true` marks the
    /// fault as retryable (surfaced as [`io::ErrorKind::Interrupted`]);
    /// the same site's next attempt is consulted independently, so a
    /// bounded retry can clear it.
    IoError {
        /// Whether a retry may succeed.
        transient: bool,
    },
    /// A torn (short) write: only `numerator/denominator` of the payload
    /// reaches the temporary file before the simulated crash. The
    /// destination path must never be clobbered — that is exactly the
    /// property the atomic-write helper is tested for.
    TornWrite {
        /// Fraction numerator.
        numerator: u32,
        /// Fraction denominator (0 is treated as 1).
        denominator: u32,
    },
    /// Silent single-bit corruption: bit `bit % 8` of byte
    /// `offset % payload_len` is flipped before the write. The write
    /// itself *succeeds* — detection is the checksum layer's job.
    BitFlip {
        /// Byte offset (reduced modulo the payload length).
        offset: u64,
        /// Bit index within the byte (reduced modulo 8).
        bit: u8,
    },
    /// The process "dies" here: the operation returns an error without
    /// touching anything, modelling a stage-boundary or iteration kill.
    Kill,
}

/// Decides, per `(site, attempt)`, whether a fault is injected.
///
/// Implementations must be deterministic: the same `(site, attempt)` must
/// always yield the same answer for the same injector state, independent
/// of call order (the crash-consistency matrix replays runs and compares
/// artifacts bit-for-bit).
pub trait FaultInjector: Send + Sync {
    /// The fault to inject at `site` on `attempt` (0-based), if any.
    fn fault_at(&self, site: &str, attempt: u32) -> Option<Fault>;
}

/// The production injector: never injects anything. Every hook is an
/// inlined `None`, so threading it through the persistence paths
/// compiles to a no-op in default builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline(always)]
    fn fault_at(&self, _site: &str, _attempt: u32) -> Option<Fault> {
        None
    }
}

/// Per-operation fault probabilities for the randomized layer of a
/// [`FaultPlan`]. Rates are in `[0.0, 1.0]` and evaluated in the order
/// `io_error`, `torn_write`, `bit_flip` against independent seeded draws.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a write attempt fails with an I/O error.
    pub io_error: f64,
    /// Probability an injected I/O error is transient (retryable).
    pub transient: f64,
    /// Probability of a torn write.
    pub torn_write: f64,
    /// Probability of a silent bit flip.
    pub bit_flip: f64,
}

/// A deterministic, seed-driven fault schedule.
///
/// Two layers compose:
///
/// 1. **Explicit triggers** (`trigger`, `kill_at`) — fire a given fault at
///    an exact `(site, attempt)`; used by the kill/corruption matrix tests
///    to place one fault precisely.
/// 2. **Seeded rates** (`with_rates`) — every `(site, attempt)` draws from
///    `splitmix64(seed ⊕ fnv64(site) ⊕ attempt)`; used for randomized
///    soak-style tests. The draw is stateless, so decisions do not depend
///    on the order sites are consulted in.
///
/// Triggers are checked first; a site matches a trigger exactly, or by
/// prefix when the trigger's site ends in `*`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    triggers: Vec<(String, u32, Fault)>,
    rates: FaultRates,
    /// Sites consulted so far (site, attempt, injected) — lets tests
    /// assert *where* a resumed run actually did work.
    consulted: Mutex<Vec<(String, u32, bool)>>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed for the rate layer.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add an explicit fault at `(site, attempt)`. `site` may end in `*`
    /// for prefix matching.
    pub fn trigger(mut self, site: &str, attempt: u32, fault: Fault) -> FaultPlan {
        self.triggers.push((site.to_string(), attempt, fault));
        self
    }

    /// Sugar: kill the process the first time `site` is reached.
    pub fn kill_at(self, site: &str) -> FaultPlan {
        self.trigger(site, 0, Fault::Kill)
    }

    /// Enable the seeded random layer with the given rates.
    pub fn with_rates(mut self, rates: FaultRates) -> FaultPlan {
        self.rates = rates;
        self
    }

    /// Every `(site, attempt, fired)` consultation so far, in order. For
    /// test assertions ("the resumed run restarted at iteration 4, not
    /// 0"); the record itself does not influence decisions.
    pub fn consulted(&self) -> Vec<(String, u32, bool)> {
        self.consulted.lock().map(|g| g.clone()).unwrap_or_default()
    }

    fn decide(&self, site: &str, attempt: u32) -> Option<Fault> {
        for (pat, at, fault) in &self.triggers {
            if *at != attempt {
                continue;
            }
            let hit = match pat.strip_suffix('*') {
                Some(prefix) => site.starts_with(prefix),
                None => pat == site,
            };
            if hit {
                return Some(*fault);
            }
        }
        let rates = &self.rates;
        if rates.io_error == 0.0 && rates.torn_write == 0.0 && rates.bit_flip == 0.0 {
            return None;
        }
        // Independent unit draws, all pure functions of (seed, site, attempt).
        let base = self.seed ^ fnv64(site.as_bytes()) ^ (attempt as u64).wrapping_mul(0x9e37);
        let unit = |salt: u64| -> f64 {
            (splitmix64(base ^ salt) >> 11) as f64 / (1u64 << 53) as f64
        };
        if unit(1) < rates.io_error {
            return Some(Fault::IoError {
                transient: unit(2) < rates.transient,
            });
        }
        if unit(3) < rates.torn_write {
            return Some(Fault::TornWrite {
                numerator: (splitmix64(base ^ 4) % 97) as u32,
                denominator: 97,
            });
        }
        if unit(5) < rates.bit_flip {
            return Some(Fault::BitFlip {
                offset: splitmix64(base ^ 6),
                bit: (splitmix64(base ^ 7) % 8) as u8,
            });
        }
        None
    }
}

impl FaultInjector for FaultPlan {
    fn fault_at(&self, site: &str, attempt: u32) -> Option<Fault> {
        let fault = self.decide(site, attempt);
        if let Ok(mut log) = self.consulted.lock() {
            log.push((site.to_string(), attempt, fault.is_some()));
        }
        fault
    }
}

/// The error kind carrying "this fault is transient, retry me" across the
/// I/O boundary.
pub const TRANSIENT_KIND: io::ErrorKind = io::ErrorKind::Interrupted;

/// Convert a fault into the `io::Error` it surfaces as (for the
/// [`Fault::IoError`] and [`Fault::Kill`] variants).
pub fn fault_error(fault: Fault, site: &str) -> io::Error {
    match fault {
        Fault::IoError { transient: true } => io::Error::new(
            TRANSIENT_KIND,
            format!("injected transient i/o error at {site}"),
        ),
        Fault::IoError { transient: false } => io::Error::other(format!(
            "injected i/o error at {site}"
        )),
        Fault::TornWrite { .. } => io::Error::other(format!(
            "injected torn write (simulated crash) at {site}"
        )),
        Fault::Kill => io::Error::other(format!("injected kill at {site}")),
        Fault::BitFlip { .. } => io::Error::other(format!(
            "injected bit flip at {site} (should not surface as an error)"
        )),
    }
}

/// Bounded deterministic retry: an operation is re-attempted only while
/// it fails with [`TRANSIENT_KIND`], at most `max_attempts` times in
/// total. No backoff, no clocks — attempt numbers are the only state, so
/// a retried run is replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (initial try included). `0` is treated as `1`.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }

    /// Run `op` (which receives the 0-based attempt number) under this
    /// policy. Non-transient errors and exhausted retries propagate.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> io::Result<T>) -> io::Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == TRANSIENT_KIND && attempt + 1 < attempts => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::other("retry policy ran zero attempts")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_silent() {
        assert_eq!(NoFaults.fault_at("write:anything", 0), None);
        assert_eq!(NoFaults.fault_at("stage:graph", 7), None);
    }

    #[test]
    fn triggers_match_exactly_and_by_prefix() {
        let plan = FaultPlan::new(1)
            .kill_at("stage:graph")
            .trigger("write:*", 1, Fault::IoError { transient: true });
        assert_eq!(plan.fault_at("stage:graph", 0), Some(Fault::Kill));
        assert_eq!(plan.fault_at("stage:graph", 1), None);
        assert_eq!(plan.fault_at("stage:domains", 0), None);
        assert_eq!(
            plan.fault_at("write:graph.bin", 1),
            Some(Fault::IoError { transient: true })
        );
        assert_eq!(plan.fault_at("write:graph.bin", 0), None);
    }

    #[test]
    fn seeded_rates_are_deterministic_and_order_independent() {
        let rates = FaultRates {
            io_error: 0.3,
            transient: 0.5,
            torn_write: 0.2,
            bit_flip: 0.2,
        };
        let a = FaultPlan::new(42).with_rates(rates);
        let b = FaultPlan::new(42).with_rates(rates);
        let sites = ["write:graph.bin", "write:domains.bin", "stage:clustering"];
        let consult_all = |plan: &FaultPlan, reversed: bool| -> Vec<Option<Fault>> {
            let mut queries: Vec<(&str, u32)> = sites
                .iter()
                .flat_map(|&s| (0..4).map(move |at| (s, at)))
                .collect();
            if reversed {
                queries.reverse();
            }
            let mut out: Vec<_> = queries
                .into_iter()
                .map(|(s, at)| plan.fault_at(s, at))
                .collect();
            if reversed {
                out.reverse();
            }
            out
        };
        // Consult in opposite orders: decisions must agree pairwise.
        let forward = consult_all(&a, false);
        let backward = consult_all(&b, true);
        assert_eq!(forward, backward);
        // And a different seed disagrees somewhere (overwhelmingly likely).
        let c = FaultPlan::new(43).with_rates(rates);
        assert_ne!(forward, consult_all(&c, false));
    }

    #[test]
    fn retry_clears_transient_faults_within_budget() {
        let plan = FaultPlan::new(7)
            .trigger("write:x", 0, Fault::IoError { transient: true })
            .trigger("write:x", 1, Fault::IoError { transient: true });
        let policy = RetryPolicy { max_attempts: 3 };
        let result = policy.run(|attempt| match plan.fault_at("write:x", attempt) {
            Some(f) => Err(fault_error(f, "write:x")),
            None => Ok(attempt),
        });
        assert_eq!(result.unwrap(), 2);
    }

    #[test]
    fn retry_gives_up_after_budget_and_on_permanent_errors() {
        let policy = RetryPolicy { max_attempts: 2 };
        let exhausted = policy.run(|_| -> io::Result<()> {
            Err(fault_error(Fault::IoError { transient: true }, "s"))
        });
        assert_eq!(exhausted.unwrap_err().kind(), TRANSIENT_KIND);

        let mut calls = 0;
        let permanent = policy.run(|_| -> io::Result<()> {
            calls += 1;
            Err(fault_error(Fault::IoError { transient: false }, "s"))
        });
        assert!(permanent.is_err());
        assert_eq!(calls, 1, "permanent errors must not be retried");
    }

    #[test]
    fn consulted_log_records_sites_in_order() {
        let plan = FaultPlan::new(0).kill_at("iter:2");
        let _ = plan.fault_at("iter:1", 0);
        let _ = plan.fault_at("iter:2", 0);
        assert_eq!(
            plan.consulted(),
            vec![("iter:1".into(), 0, false), ("iter:2".into(), 0, true)]
        );
    }
}
