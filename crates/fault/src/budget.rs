//! Request budgets: the deadline every admitted request carries through
//! the online path (ROBUSTNESS.md guarantee 9).
//!
//! A [`Budget`] is an absolute limit in ticks of an injectable
//! [`TickSource`] plus a shared cancellation flag. Work units (shard
//! tasks, response writers) check it at chunk boundaries and abandon
//! work past the deadline; injected *virtual* latency is charged through
//! the `charged` argument of [`Budget::expired_with`], so on a
//! [`crate::VirtualClock`] a stalled task deterministically exhausts its
//! budget without any thread ever sleeping.

use crate::clock::{TickSource, WallClock};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

/// A per-request deadline on an injectable clock, plus a cancellation
/// token shared by every task working on the request.
#[derive(Debug, Clone)]
pub struct Budget {
    clock: Arc<dyn TickSource>,
    start_us: u64,
    limit_us: u64,
    cancel: Arc<AtomicBool>,
}

impl Budget {
    /// A budget of `limit` real time on the shared wall clock.
    pub fn wall(limit: Duration) -> Budget {
        Budget::with_clock(
            WallClock::shared(),
            u64::try_from(limit.as_micros()).unwrap_or(u64::MAX),
        )
    }

    /// A budget of `limit_us` ticks on the given clock, starting now.
    pub fn with_clock(clock: Arc<dyn TickSource>, limit_us: u64) -> Budget {
        let start_us = clock.now_us();
        Budget {
            clock,
            start_us,
            limit_us,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The clock this budget ticks on.
    pub fn clock(&self) -> &Arc<dyn TickSource> {
        &self.clock
    }

    /// The total limit in ticks.
    pub fn limit_us(&self) -> u64 {
        self.limit_us
    }

    /// Ticks consumed on the clock since the budget started (excludes
    /// any per-task virtual charge).
    pub fn elapsed_us(&self) -> u64 {
        self.clock.now_us().saturating_sub(self.start_us)
    }

    /// Cancel the request: every task checking this budget abandons at
    /// its next chunk boundary.
    pub fn cancel(&self) {
        self.cancel.store(true, SeqCst);
    }

    /// Whether the request was cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(SeqCst)
    }

    /// Whether the deadline has passed (or the request was cancelled).
    pub fn expired(&self) -> bool {
        self.expired_with(0)
    }

    /// [`Budget::expired`] with `charged` extra ticks of task-local
    /// virtual latency counted against the limit — the seam that makes
    /// injected delays deterministic on a virtual clock.
    pub fn expired_with(&self, charged: u64) -> bool {
        self.cancelled() || self.elapsed_us().saturating_add(charged) >= self.limit_us
    }

    /// Ticks left before the deadline, after `charged` extra virtual
    /// ticks (0 when expired or cancelled).
    pub fn remaining_us_with(&self, charged: u64) -> u64 {
        if self.cancelled() {
            return 0;
        }
        self.limit_us
            .saturating_sub(self.elapsed_us().saturating_add(charged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn virtual_budget_expires_only_by_charge_or_advance() {
        let clock = Arc::new(VirtualClock::new());
        let budget = Budget::with_clock(clock.clone(), 1_000);
        assert!(!budget.expired());
        assert_eq!(budget.remaining_us_with(0), 1_000);
        assert!(!budget.expired_with(999));
        assert!(budget.expired_with(1_000), "charge counts against the limit");
        clock.advance_us(1_000);
        assert!(budget.expired(), "advanced clock expires the budget");
        assert_eq!(budget.remaining_us_with(0), 0);
    }

    #[test]
    fn cancellation_expires_immediately() {
        let budget = Budget::with_clock(Arc::new(VirtualClock::new()), u64::MAX);
        assert!(!budget.expired());
        budget.cancel();
        assert!(budget.cancelled());
        assert!(budget.expired());
        assert_eq!(budget.remaining_us_with(0), 0);
    }

    #[test]
    fn clones_share_the_cancellation_token() {
        let budget = Budget::with_clock(Arc::new(VirtualClock::new()), 100);
        let other = budget.clone();
        other.cancel();
        assert!(budget.cancelled());
    }

    #[test]
    fn wall_budget_tracks_real_time() {
        let budget = Budget::wall(Duration::from_millis(50));
        assert!(!budget.expired());
        assert!(budget.remaining_us_with(0) > 0);
    }
}
