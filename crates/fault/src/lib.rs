//! # esharp-fault
//!
//! Deterministic fault injection for the e# persistence paths and the
//! online request path.
//!
//! The paper's offline stage is a weekly job over 65 VMs and 998 GB of
//! logs (§6, Table 9); at that scale partial failure is the normal case,
//! not the exception. Its online stage has a latency budget (expansion
//! < 100 ms, detection < 1 s) that a slow or dead shard must not break.
//! This crate provides the testing substrate both are validated against
//! (see `ROBUSTNESS.md`):
//!
//! * one [`FaultInjector`] trait threaded through every persistence
//!   write, checkpoint boundary and request seam,
//! * [`NoFaults`], the zero-cost production injector (every hook inlines
//!   to `None`, so default builds pay nothing),
//! * one [`Fault`] enum: the I/O variants (error, torn write, bit flip,
//!   kill) and the request-path variants (delay, stall, panic),
//! * [`FaultPlan`], a **seed-driven deterministic** plan mirroring the
//!   `esharp-par` determinism contract: whether a fault fires at a given
//!   `(site, attempt)` is a pure function of `(seed, site, attempt)` and
//!   the plan's triggers — never of wall-clock time or thread
//!   interleaving — so every injected failure is replayable from its
//!   seed alone. One plan drives every site, so one schedule can stall a
//!   shard, panic a worker and kill a compaction in the same run,
//! * [`write_with_fault`], the one place an I/O fault perturbs a
//!   persistence write (the atomic writer, heap page writeback, the WAL),
//! * [`RetryPolicy`], a bounded deterministic retry loop for faults
//!   marked *transient*,
//! * [`corrupt`], the one corruption matrix every persisted format's
//!   tests register with: every truncation, bit flip and trailing byte
//!   count of a good image.
//!
//! ## Sites
//!
//! Injection points are named by string **sites**; each handles the
//! variants it models and ignores the rest (the table is on [`Fault`]):
//!
//! * `write:<file>`, `compact:write`, `compact:oplog`, `<heap>:page<n>` —
//!   one persistence write,
//! * `ingest:append` — one WAL append,
//! * `stage:<name>`, `iter:<k>` — an offline stage or clustering
//!   iteration boundary,
//! * `reload:domains` — one serve-side domain reload,
//! * `search:shard:<i>` — one shard's task in the scatter-gather
//!   fan-out (`attempt` 0 is the primary, 1 its hedge),
//! * `serve:worker`, `serve:conn` — a serve worker inside and outside
//!   its request guard.
//!
//! Plans match sites exactly, or by prefix when the trigger ends in `*`.
//!
//! ## Request-lifecycle hardening
//!
//! Beyond injection, this crate carries the tail-tolerance substrate for
//! the online path (DESIGN.md §11):
//!
//! * [`clock`] — [`TickSource`], the injectable time behind deadlines,
//!   hedge delays and breaker windows ([`WallClock`] in production,
//!   [`VirtualClock`] in tests: clock-free chaos runs),
//! * [`budget`] — [`Budget`], the per-request deadline + cancellation
//!   token threaded through the scatter-gather fan-out,
//! * [`breaker`] — [`ShardBreakers`], per-shard circuit breakers with a
//!   health epoch the serve result cache keys on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod budget;
pub mod clock;
pub mod corrupt;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, ShardBreakers};
pub use budget::Budget;
pub use clock::{TickSource, VirtualClock, WallClock};

use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
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

/// One injected fault at one site.
///
/// Every site handles the variants it models and ignores the rest (an
/// ignored fault is still recorded as fired in [`FaultPlan::consulted`]):
///
/// | sites | handles |
/// |---|---|
/// | `write:*`, `compact:*`, `ingest:append`, heap pages | `IoError`, `TornWrite`, `BitFlip`, `Kill` |
/// | `stage:*`, `iter:*`, `reload:domains` | `IoError`, `TornWrite`, `BitFlip`, `Kill` — each fails the step |
/// | `search:shard:<i>` | `Delay`, `Stall`, `Panic` (a panic costs the shard) |
/// | `serve:worker` | `Delay`, `Stall` (up to the request deadline), `Panic` (a `500`) |
/// | `serve:conn` | `Delay`, `Stall` (a fixed 10 ms), `Panic` (the thread dies) |
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
    /// The task is charged `us` extra ticks of latency before its work
    /// counts — on a wall clock a real sleep, on a virtual clock a pure
    /// budget charge.
    Delay {
        /// Injected latency in clock ticks (microseconds).
        us: u64,
    },
    /// The task never answers within any finite budget: it waits until
    /// cancelled or out of time and abandons. Models a wedged shard.
    Stall,
    /// The task panics; what that costs is the seam's contract (see the
    /// table above).
    Panic,
}

impl Fault {
    /// Whether this is one of the I/O variants the persistence and
    /// boundary sites handle (`IoError`, `TornWrite`, `BitFlip`, `Kill`).
    pub fn is_io(self) -> bool {
        !matches!(self, Fault::Delay { .. } | Fault::Stall | Fault::Panic)
    }
}

/// Decides, per `(site, attempt)`, whether a fault is injected.
///
/// Implementations must be deterministic: the same `(site, attempt)` must
/// always yield the same answer for the same injector state, independent
/// of call order (the crash-consistency and chaos matrices replay runs
/// and compare artifacts and response bodies bit-for-bit).
pub trait FaultInjector: Send + Sync {
    /// The fault to inject at `site` on `attempt` (0-based), if any.
    fn fault_at(&self, site: &str, attempt: u32) -> Option<Fault>;
}

/// The production injector: never injects anything. Every hook is an
/// inlined `None`, so threading it through the persistence and request
/// paths compiles to a no-op in default builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline(always)]
    fn fault_at(&self, _site: &str, _attempt: u32) -> Option<Fault> {
        None
    }
}

/// Per-consultation fault probabilities for the randomized layer of a
/// [`FaultPlan`]. Rates are in `[0.0, 1.0]` and evaluated in the order
/// `io_error`, `torn_write`, `bit_flip`, `delay`, `stall`, `panic`
/// against independent seeded draws; the first that fires wins.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability an attempt fails with an I/O error.
    pub io_error: f64,
    /// Probability an injected I/O error is transient (retryable).
    pub transient: f64,
    /// Probability of a torn write.
    pub torn_write: f64,
    /// Probability of a silent bit flip.
    pub bit_flip: f64,
    /// Probability of an injected delay.
    pub delay: f64,
    /// Injected delays are uniform in `[1, delay_max_us]` ticks.
    pub delay_max_us: u64,
    /// Probability of a stall.
    pub stall: f64,
    /// Probability of a panic.
    pub panic: f64,
}

/// A deterministic, seed-driven fault schedule for every site.
///
/// Two layers compose:
///
/// 1. **Explicit triggers** (`trigger`, `trigger_limited` and the sugar
///    `kill_at`, `stall_at`, `panic_at`) — fire a given fault at an
///    exact `(site, attempt)`, or at every attempt up to a firing limit;
///    used by the matrix tests to place one fault precisely.
/// 2. **Seeded rates** (`with_rates`) — every `(site, attempt)` draws from
///    `splitmix64(seed ⊕ fnv64(site) ⊕ attempt)`; used for randomized
///    soak-style tests. The draw is stateless, so decisions do not depend
///    on the order sites are consulted in.
///
/// Triggers are checked first, in the order they were added; a site
/// matches a trigger exactly, or by prefix when the trigger's site ends
/// in `*`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    triggers: Vec<Trigger>,
    rates: FaultRates,
    /// Sites consulted so far (site, attempt, injected) — lets tests
    /// assert *where* a run actually did work and which seams a request
    /// crossed.
    consulted: Mutex<Vec<(String, u32, bool)>>,
}

#[derive(Debug)]
struct Trigger {
    site: String,
    /// `None` fires at every attempt.
    attempt: Option<u32>,
    fault: Fault,
    /// Remaining firings; `u32::MAX` means unlimited.
    remaining: AtomicU32,
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
    pub fn trigger(self, site: &str, attempt: u32, fault: Fault) -> FaultPlan {
        self.push(site, Some(attempt), fault, u32::MAX)
    }

    /// Like [`FaultPlan::trigger`] but fires at **every** attempt of the
    /// site, at most `limit` times in total across all consultations.
    /// The count-down is the one piece of plan state that is not pure in
    /// `(site, attempt)`; it exists so benches and breaker tests can
    /// model a shard that is sick for a while and then heals.
    pub fn trigger_limited(self, site: &str, fault: Fault, limit: u32) -> FaultPlan {
        self.push(site, None, fault, limit)
    }

    /// Sugar: kill the process the first time `site` is reached.
    pub fn kill_at(self, site: &str) -> FaultPlan {
        self.trigger(site, 0, Fault::Kill)
    }

    /// Sugar: stall `site`'s primary attempt.
    pub fn stall_at(self, site: &str) -> FaultPlan {
        self.trigger(site, 0, Fault::Stall)
    }

    /// Sugar: panic `site`'s primary attempt.
    pub fn panic_at(self, site: &str) -> FaultPlan {
        self.trigger(site, 0, Fault::Panic)
    }

    fn push(mut self, site: &str, attempt: Option<u32>, fault: Fault, limit: u32) -> FaultPlan {
        self.triggers.push(Trigger {
            site: site.to_string(),
            attempt,
            fault,
            remaining: AtomicU32::new(limit),
        });
        self
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
        for t in &self.triggers {
            if t.attempt.is_some_and(|at| at != attempt) {
                continue;
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
        if [rates.io_error, rates.torn_write, rates.bit_flip, rates.delay, rates.stall, rates.panic]
            .iter()
            .all(|&rate| rate == 0.0)
        {
            return None;
        }
        // Independent unit draws, all pure functions of (seed, site,
        // attempt). Salts 1–7 draw the I/O variants, 11–15 the
        // request-path ones.
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
        if unit(11) < rates.delay {
            return Some(Fault::Delay {
                us: splitmix64(base ^ 12) % rates.delay_max_us.max(1) + 1,
            });
        }
        if unit(13) < rates.stall {
            return Some(Fault::Stall);
        }
        if unit(15) < rates.panic {
            return Some(Fault::Panic);
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
/// [`Fault::IoError`] and [`Fault::Kill`] variants; the request-path
/// variants never reach an I/O site's error path).
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
        Fault::Delay { .. } | Fault::Stall | Fault::Panic => io::Error::other(format!(
            "injected {fault:?} at {site} (not an i/o fault)"
        )),
    }
}

/// Write `bytes` to `file` as one persistence write perturbed by
/// `fault`; the one place a torn write or a bit flip is applied:
///
/// * `IoError`, `Kill`: nothing is written and the write fails;
/// * `TornWrite`: the first `len · numerator / denominator` bytes reach
///   the file and are synced (the simulated crash), and the write fails;
/// * `BitFlip`: the bytes are written with bit `bit % 8` of byte
///   `offset % len` flipped, and the write succeeds (only a checksum can
///   catch it); an empty payload is written as is;
/// * `Delay`, `Stall`, `Panic` or no fault: the bytes are written.
///
/// The success path does not sync: each caller keeps its own durability
/// step.
pub fn write_with_fault(
    file: &mut File,
    bytes: &[u8],
    fault: Option<Fault>,
    site: &str,
) -> io::Result<()> {
    match fault {
        Some(f @ (Fault::IoError { .. } | Fault::Kill)) => Err(fault_error(f, site)),
        Some(
            f @ Fault::TornWrite {
                numerator,
                denominator,
            },
        ) => {
            let keep = bytes.len() as u64 * u64::from(numerator.min(denominator))
                / u64::from(denominator.max(1));
            file.write_all(&bytes[..keep as usize])?;
            let _ = file.sync_all();
            Err(fault_error(f, site))
        }
        Some(Fault::BitFlip { offset, bit }) if !bytes.is_empty() => {
            let mut corrupt = bytes.to_vec();
            corrupt[(offset % bytes.len() as u64) as usize] ^= 1 << (bit % 8);
            file.write_all(&corrupt)
        }
        _ => file.write_all(bytes),
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
            ..FaultRates::default()
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
    fn no_faults_is_silent_at_request_seams() {
        assert_eq!(NoFaults.fault_at("search:shard:0", 0), None);
        assert_eq!(NoFaults.fault_at("serve:worker", 3), None);
    }

    #[test]
    fn request_path_triggers_match_exactly_and_by_prefix() {
        let plan = FaultPlan::new(1)
            .stall_at("search:shard:2")
            .trigger("serve:*", 1, Fault::Panic);
        assert_eq!(plan.fault_at("search:shard:2", 0), Some(Fault::Stall));
        assert_eq!(plan.fault_at("search:shard:2", 1), None, "hedge is clean");
        assert_eq!(plan.fault_at("search:shard:1", 0), None);
        assert_eq!(plan.fault_at("serve:worker", 1), Some(Fault::Panic));
        assert_eq!(plan.fault_at("serve:worker", 0), None);
        assert_eq!(FaultPlan::new(1).panic_at("s").fault_at("s", 0), Some(Fault::Panic));
    }

    #[test]
    fn limited_triggers_fire_exactly_limit_times_then_heal() {
        let plan = FaultPlan::new(0).trigger_limited("search:shard:1", Fault::Delay { us: 500 }, 3);
        let mut fired = 0;
        for attempt in 0..8u32 {
            if plan.fault_at("search:shard:1", attempt).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "limited trigger must fire exactly `limit` times");
        assert_eq!(plan.fault_at("search:shard:1", 99), None, "healed");
    }

    #[test]
    fn limited_trigger_fires_at_any_attempt() {
        let plan = FaultPlan::new(0).trigger_limited("s", Fault::Stall, 2);
        assert_eq!(plan.fault_at("s", 7), Some(Fault::Stall));
        assert_eq!(plan.fault_at("s", 0), Some(Fault::Stall));
        assert_eq!(plan.fault_at("s", 1), None);
    }

    #[test]
    fn seeded_request_path_rates_are_deterministic_and_order_independent() {
        let rates = FaultRates {
            delay: 0.3,
            delay_max_us: 10_000,
            stall: 0.1,
            panic: 0.1,
            ..FaultRates::default()
        };
        let sites = ["search:shard:0", "search:shard:1", "serve:worker"];
        let consult = |plan: &FaultPlan, reversed: bool| -> Vec<Option<Fault>> {
            let mut queries: Vec<(&str, u32)> = sites
                .iter()
                .flat_map(|&s| (0..6).map(move |at| (s, at)))
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
        let a = FaultPlan::new(42).with_rates(rates);
        let b = FaultPlan::new(42).with_rates(rates);
        let forward = consult(&a, false);
        assert_eq!(forward, consult(&b, true));
        assert!(forward.iter().any(|f| f.is_some()), "rates must fire somewhere");
        assert!(
            forward
                .iter()
                .all(|f| f.is_none_or(|f| !f.is_io() && f != Fault::Delay { us: 0 })),
            "request-path rates draw only non-zero request-path faults"
        );
        let c = FaultPlan::new(43).with_rates(rates);
        assert_ne!(forward, consult(&c, false));
    }

    #[test]
    fn consulted_log_records_seams_in_order() {
        let plan = FaultPlan::new(0).stall_at("search:shard:1");
        let _ = plan.fault_at("search:shard:0", 0);
        let _ = plan.fault_at("search:shard:1", 0);
        assert_eq!(
            plan.consulted(),
            vec![
                ("search:shard:0".into(), 0, false),
                ("search:shard:1".into(), 0, true)
            ]
        );
    }

    /// One plan makes the seeded decisions the two per-family plans it
    /// replaced made: the digests were taken from those plans over the
    /// same grid.
    #[test]
    fn seeded_decisions_of_each_family_are_pinned() {
        let io = FaultRates {
            io_error: 0.3,
            transient: 0.5,
            torn_write: 0.2,
            bit_flip: 0.2,
            ..FaultRates::default()
        };
        let request_path = FaultRates {
            delay: 0.3,
            delay_max_us: 10_000,
            stall: 0.1,
            panic: 0.1,
            ..FaultRates::default()
        };
        let digest = |rates: FaultRates| {
            let mut out = String::new();
            for seed in 0..4u64 {
                let plan = FaultPlan::new(seed).with_rates(rates);
                for site in ["write:graph.bin", "stage:clustering", "search:shard:0", "serve:worker"] {
                    for attempt in 0..16 {
                        out += &format!("{:?};", plan.fault_at(site, attempt));
                    }
                }
            }
            fnv64(out.as_bytes())
        };
        assert_eq!(digest(io), 0x27c13cc37ba10ed8);
        assert_eq!(digest(request_path), 0x5a0c865199453e51);
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
    fn write_with_fault_applies_each_variant() {
        let dir = std::env::temp_dir().join(format!("esharp_fault_write_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.bin");
        let payload: Vec<u8> = (0..97u8).collect();
        let write = |bytes: &[u8], fault: Option<Fault>| {
            let mut file = File::create(&path).unwrap();
            let result = write_with_fault(&mut file, bytes, fault, "write:w");
            drop(file);
            (result, std::fs::read(&path).unwrap())
        };
        for fault in [
            Fault::IoError { transient: false },
            Fault::IoError { transient: true },
            Fault::Kill,
        ] {
            let (result, written) = write(&payload, Some(fault));
            assert!(result.is_err(), "{fault:?}");
            assert!(written.is_empty(), "{fault:?} wrote bytes");
        }
        // ⌊97 · n / d⌋ bytes, n capped at d and d = 0 read as 1.
        for (numerator, denominator, keep) in [
            (0, 4, 0),
            (1, 2, 48),
            (3, 4, 72),
            (4, 4, 97),
            (9, 4, 97),
            (1, 0, 0),
            (96, 97, 96),
        ] {
            let fault = Fault::TornWrite {
                numerator,
                denominator,
            };
            let (result, written) = write(&payload, Some(fault));
            assert!(result.is_err(), "{fault:?}");
            assert_eq!(written, payload[..keep], "{fault:?}");
        }
        for (offset, bit) in [(0, 0), (5, 3), (96, 7), (97 * 3 + 4, 9), (u64::MAX, 255)] {
            let fault = Fault::BitFlip { offset, bit };
            let (result, written) = write(&payload, Some(fault));
            result.unwrap();
            assert_eq!(written.len(), payload.len(), "{fault:?}");
            let differing: u32 = written
                .iter()
                .zip(&payload)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(differing, 1, "{fault:?}");
            let (result, written) = write(&[], Some(fault));
            result.unwrap();
            assert!(written.is_empty(), "{fault:?} on an empty payload");
        }
        for fault in [
            None,
            Some(Fault::Delay { us: 5 }),
            Some(Fault::Stall),
            Some(Fault::Panic),
        ] {
            let (result, written) = write(&payload, fault);
            result.unwrap();
            assert_eq!(written, payload, "{fault:?}");
        }
        let _ = std::fs::remove_dir_all(dir);
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
