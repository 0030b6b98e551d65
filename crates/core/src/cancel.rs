//! Cooperative cancellation: a stop flag plus an optional deadline.
//!
//! A [`CancelToken`] travels with one unit of work — a served job, a
//! batch, an executor run — and is polled at natural checkpoints (the
//! solver checks once per period, the MWD executor once per tile
//! claim). Cancellation is always *cooperative*: nothing is killed,
//! the work observes the token and returns a halt error whose prefix
//! ([`CANCELLED_PREFIX`] / [`TIMEOUT_PREFIX`]) tells the layers above
//! which terminal state the job landed in.
//!
//! An explicit `cancel()` always wins over an elapsed deadline: a user
//! asking for a job to stop should see `cancelled`, not `timeout`,
//! even when both are true by the time anyone looks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error-string prefix carried by outcomes halted by an explicit
/// cancellation (stop flag, `POST /jobs/:id/cancel`, SIGTERM drain).
pub const CANCELLED_PREFIX: &str = "cancelled:";

/// Error-string prefix carried by outcomes halted by an expired
/// deadline.
pub const TIMEOUT_PREFIX: &str = "timeout:";

/// Why a token is no longer active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelState {
    /// Keep working.
    Active,
    /// The stop flag was set.
    Cancelled,
    /// The deadline elapsed (and the stop flag is not set).
    Expired,
}

/// A cheaply clonable cancellation handle: all clones share one stop
/// flag and carry the same deadline.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    stop: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (it can still be
    /// [`cancel`](Self::cancel)led).
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A token that expires `after` from now.
    pub fn with_deadline(after: Duration) -> CancelToken {
        CancelToken {
            stop: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + after),
        }
    }

    /// A token around an existing shared stop flag (e.g. the process
    /// SIGTERM flag), with an optional absolute deadline.
    pub fn with_flag(stop: Arc<AtomicBool>, deadline: Option<Instant>) -> CancelToken {
        CancelToken { stop, deadline }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Set the shared stop flag; every clone observes it.
    pub fn cancel(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Current state; an explicit cancel wins over an elapsed deadline.
    pub fn state(&self) -> CancelState {
        if self.stop.load(Ordering::SeqCst) {
            return CancelState::Cancelled;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => CancelState::Expired,
            _ => CancelState::Active,
        }
    }

    /// Whether work should halt (either cause).
    pub fn is_halted(&self) -> bool {
        self.state() != CancelState::Active
    }

    /// `None` while active; the prefixed halt error otherwise.
    pub fn halt_error(&self) -> Option<String> {
        match self.state() {
            CancelState::Active => None,
            CancelState::Cancelled => Some(format!("{CANCELLED_PREFIX} stop requested")),
            CancelState::Expired => Some(format!("{TIMEOUT_PREFIX} deadline expired")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_active() {
        let t = CancelToken::none();
        assert_eq!(t.state(), CancelState::Active);
        assert!(!t.is_halted());
        assert_eq!(t.halt_error(), None);
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::none();
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.state(), CancelState::Cancelled);
        let err = t.halt_error().unwrap();
        assert!(err.starts_with(CANCELLED_PREFIX), "{err}");
        assert!(!err.starts_with(TIMEOUT_PREFIX));
    }

    #[test]
    fn elapsed_deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert_eq!(t.state(), CancelState::Expired);
        let err = t.halt_error().unwrap();
        assert!(err.starts_with(TIMEOUT_PREFIX), "{err}");
    }

    #[test]
    fn future_deadline_stays_active() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.state(), CancelState::Active);
    }

    #[test]
    fn explicit_cancel_wins_over_expiry() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        t.cancel();
        assert_eq!(t.state(), CancelState::Cancelled);
    }

    #[test]
    fn external_flag_is_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(flag.clone(), None);
        assert!(!t.is_halted());
        flag.store(true, Ordering::SeqCst);
        assert_eq!(t.state(), CancelState::Cancelled);
    }
}
