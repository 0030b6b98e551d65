//! Cooperative cancellation: a stop flag plus an optional deadline.
//!
//! A [`CancelToken`] travels with one unit of work — a served job, a
//! batch, an executor run — and is polled at natural checkpoints (the
//! solver checks once per period, the MWD executor once per tile
//! claim). Cancellation is always *cooperative*: nothing is killed,
//! the work observes the token and returns a [`SolveError`] whose
//! variant tells the layers above which terminal state the job landed
//! in.
//!
//! An explicit `cancel()` always wins over an elapsed deadline: a user
//! asking for a job to stop should see `cancelled`, not `timeout`,
//! even when both are true by the time anyone looks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve ended without a result, from the executor's tile claim
/// up to a served job's state: every layer classifies by the variant.
/// `Display` renders `cancelled: {detail}`, `timeout: {detail}` or the
/// failure message as is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// Halted by the stop flag (a cancel request, a SIGTERM drain).
    Cancelled(String),
    /// Halted by an expired deadline.
    Timeout(String),
    /// Anything else: validation, I/O, a failed worker.
    Failed(String),
}

impl SolveError {
    /// The same outcome with its text rewritten by `f`.
    pub fn map(self, f: impl FnOnce(String) -> String) -> SolveError {
        match self {
            SolveError::Cancelled(d) => SolveError::Cancelled(f(d)),
            SolveError::Timeout(d) => SolveError::Timeout(f(d)),
            SolveError::Failed(m) => SolveError::Failed(f(m)),
        }
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Cancelled(d) => write!(f, "cancelled: {d}"),
            SolveError::Timeout(d) => write!(f, "timeout: {d}"),
            SolveError::Failed(m) => f.write_str(m),
        }
    }
}

/// A plain message inside a solve (validation, I/O) is a failure.
impl From<String> for SolveError {
    fn from(msg: String) -> SolveError {
        SolveError::Failed(msg)
    }
}

/// The rendered text, for callers that report rather than classify.
impl From<SolveError> for String {
    fn from(e: SolveError) -> String {
        e.to_string()
    }
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

    /// `None` while active; otherwise the halt, where an explicit
    /// cancel wins over an elapsed deadline.
    pub fn halt_error(&self) -> Option<SolveError> {
        if self.stop.load(Ordering::SeqCst) {
            Some(SolveError::Cancelled("stop requested".to_string()))
        } else {
            let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
            expired.then(|| SolveError::Timeout("deadline expired".to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_active() {
        let t = CancelToken::none();
        assert_eq!(t.halt_error(), None);
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::none();
        let clone = t.clone();
        clone.cancel();
        let err = t.halt_error().unwrap();
        assert_eq!(err, SolveError::Cancelled("stop requested".to_string()));
        assert_eq!(String::from(err), "cancelled: stop requested");
    }

    #[test]
    fn elapsed_deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        let err = t.halt_error().unwrap().map(|d| format!("{d} while queued"));
        assert_eq!(
            err,
            SolveError::Timeout("deadline expired while queued".into())
        );
        assert_eq!(err.to_string(), "timeout: deadline expired while queued");
        assert_eq!(SolveError::from("boom".to_string()).to_string(), "boom");
    }

    #[test]
    fn future_deadline_stays_active() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.halt_error(), None);
    }

    #[test]
    fn explicit_cancel_wins_over_expiry() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        t.cancel();
        assert!(matches!(t.halt_error(), Some(SolveError::Cancelled(_))));
    }

    #[test]
    fn external_flag_is_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(flag.clone(), None);
        assert_eq!(t.halt_error(), None);
        flag.store(true, Ordering::SeqCst);
        assert!(matches!(t.halt_error(), Some(SolveError::Cancelled(_))));
    }
}
