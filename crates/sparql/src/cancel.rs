//! Cooperative query cancellation: a shared token the engine polls as it
//! works, a batch of scanned quads at a time.
//!
//! A [`CancellationToken`] is a cheap, cloneable handle over shared atomic
//! state plus an optional monotonic deadline. The evaluator checks it once
//! every [`CancellationToken::check_interval`] units of work (one relaxed
//! atomic load per batch), so a
//! pathological query stops within one batch of the cancel signal instead
//! of pinning its worker until the heat death of the join. There are three
//! poll sites: the start of the walk (an already-tripped token fails before
//! the first row), every BGP scan stage (every `check_interval` quads it
//! *examines* — a join whose rows a filter all rejects, or a repeated
//! variable no quad satisfies, hands nothing downstream and must still be
//! stoppable) and each group boundary of a grouped evaluation.
//!
//! Cancellation is **never silent truncation**: a tripped token surfaces as
//! a typed [`SparqlError::Cancelled`] / [`SparqlError::DeadlineExceeded`]
//! out of the walk, and the first error abandons every sink — a cancelled
//! query returns an error, not a prefix of its answer.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::SparqlError;

/// Default scanned quads between token checks — large enough that the check
/// disappears into the scan cost, small enough that cancellation latency
/// stays in the microseconds for any non-pathological row rate.
pub const DEFAULT_CHECK_INTERVAL: u32 = 1024;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// Sentinel for "no deterministic trip armed" in [`Inner::trip_after`].
const TRIP_DISARMED: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    /// `LIVE` until the first trip; terminal states are sticky, so the
    /// error a query reports is the *first* cause, not the last observed.
    state: AtomicU8,
    /// Monotonic deadline; evaluated lazily inside [`CancellationToken::check`].
    deadline: Option<Instant>,
    /// Deterministic test hook: remaining successful checks before the
    /// token trips itself ([`TRIP_DISARMED`] = off).
    trip_after: AtomicU64,
    /// Quads examined between checks by a scan stage polling this token.
    check_interval: u32,
}

/// A shared cancellation handle threaded through one evaluation (see the
/// module docs). Clones share state: cancelling any clone cancels them all.
#[derive(Debug, Clone)]
pub struct CancellationToken {
    inner: Arc<Inner>,
}

impl Default for CancellationToken {
    fn default() -> Self {
        CancellationToken::new()
    }
}

impl CancellationToken {
    fn with_parts(deadline: Option<Instant>, trip_after: u64, check_interval: u32) -> Self {
        CancellationToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline,
                trip_after: AtomicU64::new(trip_after),
                check_interval,
            }),
        }
    }

    /// A token with no deadline; trips only via [`CancellationToken::cancel`].
    pub fn new() -> Self {
        CancellationToken::with_parts(None, TRIP_DISARMED, DEFAULT_CHECK_INTERVAL)
    }

    /// A token that trips with [`SparqlError::DeadlineExceeded`] once the
    /// monotonic clock passes `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancellationToken::with_parts(Some(deadline), TRIP_DISARMED, DEFAULT_CHECK_INTERVAL)
    }

    /// [`CancellationToken::with_deadline`], `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancellationToken::with_deadline(Instant::now() + timeout)
    }

    /// Deterministic test/fault-injection constructor: the token passes
    /// exactly `checks` checks and trips (as [`SparqlError::Cancelled`]) on
    /// the next one, with the check interval forced to 1 so *every* row
    /// boundary is a check. This is how the cancellation-soundness suite
    /// cancels generated queries at each batch boundary reproducibly.
    pub fn cancel_after_checks(checks: u64) -> Self {
        CancellationToken::with_parts(None, checks, 1)
    }

    /// Quads a polling scan stage examines between checks (≥ 1).
    pub fn check_interval(&self) -> u32 {
        self.inner.check_interval.max(1)
    }

    /// Trips the token (idempotent; a deadline trip that already happened
    /// wins — the first cause is the one reported).
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the token has tripped (or its deadline has passed).
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) != LIVE
            || self
                .inner
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The batch-boundary poll: `Ok(())` while the query may continue, the
    /// typed error once it must stop. The fast path (live token, no
    /// deadline, no armed trip) is one relaxed load and two branches.
    pub fn check(&self) -> Result<(), SparqlError> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => return Err(SparqlError::Cancelled),
            DEADLINE => return Err(SparqlError::DeadlineExceeded),
            _ => {}
        }
        if self.inner.trip_after.load(Ordering::Relaxed) != TRIP_DISARMED {
            let tripped =
                self.inner
                    .trip_after
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n != TRIP_DISARMED).then(|| n.saturating_sub(1))
                    });
            if tripped == Ok(0) {
                self.cancel();
                return Err(SparqlError::Cancelled);
            }
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                let _ = self.inner.state.compare_exchange(
                    LIVE,
                    DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // Re-read rather than assume: a concurrent cancel() that won
                // the race is the cause to report.
                return match self.inner.state.load(Ordering::Relaxed) {
                    CANCELLED => Err(SparqlError::Cancelled),
                    _ => Err(SparqlError::DeadlineExceeded),
                };
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_token_passes_checks() {
        let token = CancellationToken::new();
        for _ in 0..1000 {
            assert_eq!(token.check(), Ok(()));
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancel_is_sticky_and_shared_across_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(SparqlError::Cancelled));
        // Idempotent.
        token.cancel();
        assert_eq!(clone.check(), Err(SparqlError::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let token = CancellationToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(SparqlError::DeadlineExceeded));
        // Sticky: the deadline verdict persists.
        assert_eq!(token.check(), Err(SparqlError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let token = CancellationToken::with_timeout(Duration::from_secs(3600));
        assert_eq!(token.check(), Ok(()));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn deterministic_trip_fires_after_exactly_n_checks() {
        let token = CancellationToken::cancel_after_checks(3);
        assert_eq!(token.check_interval(), 1);
        for _ in 0..3 {
            assert_eq!(token.check(), Ok(()));
        }
        assert_eq!(token.check(), Err(SparqlError::Cancelled));
        assert_eq!(token.check(), Err(SparqlError::Cancelled));
    }

    #[test]
    fn explicit_cancel_beats_a_later_deadline() {
        let token = CancellationToken::with_timeout(Duration::from_secs(3600));
        token.cancel();
        assert_eq!(token.check(), Err(SparqlError::Cancelled));
    }
}
