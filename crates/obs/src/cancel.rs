//! Cooperative cancellation for long-running pipeline stages.
//!
//! A [`CancelToken`] is a cheaply-clonable handle to a shared flag plus an
//! optional wall-clock deadline. The supervision layer in `vgen-core` arms
//! one token per check; the parser, elaborator and simulator poll it every
//! few thousand units of work and unwind cooperatively when it trips — so a
//! *legal-but-slow* candidate (one that stays inside every step/size
//! budget) still costs one bounded check, not a wedged worker.
//!
//! Polling is two-tier by design:
//!
//! * [`is_cancelled`](CancelToken::is_cancelled) is a single relaxed atomic
//!   load — safe to call on every iteration of a hot loop.
//! * [`poll`](CancelToken::poll) additionally compares [`Instant::now`]
//!   against the deadline (and latches the flag once passed). Hot loops
//!   call it every N iterations so the clock read amortises to nothing.
//!
//! This module lives in `vgen-obs` because it is the one crate every stage
//! of the pipeline already depends on; cancellation, like tracing, is
//! cross-cutting plumbing with zero dependencies of its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag with an optional wall-clock deadline.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same state.
/// Once cancelled — explicitly via [`cancel`](Self::cancel) or implicitly
/// by the deadline passing during a [`poll`](Self::poll) — a token never
/// un-cancels.
///
/// ```
/// use vgen_obs::cancel::CancelToken;
///
/// let t = CancelToken::unlimited();
/// assert!(!t.poll());
/// t.cancel();
/// assert!(t.poll() && t.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never trips on its own; only [`cancel`](Self::cancel)
    /// can fire it. This is the default for unsupervised checks, so the
    /// polling sites cost one relaxed load and no clock reads.
    pub fn unlimited() -> Self {
        CancelToken::default()
    }

    /// A token that trips once `timeout` has elapsed from now (observed at
    /// the next [`poll`](Self::poll)).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Trips the token explicitly. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has already tripped. A single relaxed atomic load;
    /// does **not** consult the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Whether the token has tripped, consulting (and latching) the
    /// deadline. Call this every N iterations from hot loops.
    pub fn poll(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.cancel();
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips_on_its_own() {
        let t = CancelToken::unlimited();
        assert!(!t.poll());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_latches_across_clones() {
        let t = CancelToken::unlimited();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(c.poll());
    }

    #[test]
    fn expired_deadline_trips_on_poll_and_latches() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        // The deadline is only observed via poll(); the cheap check alone
        // never reads the clock.
        assert!(!t.is_cancelled());
        assert!(t.poll());
        assert!(t.is_cancelled());
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.poll());
        assert!(!t.is_cancelled());
    }
}
