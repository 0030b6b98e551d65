//! SIGINT/SIGTERM → a cooperative stop flag.
//!
//! The workspace vendors no `libc` crate, but registering a handler
//! only needs the C `signal` symbol every Unix libc exports, declared
//! here directly. The handler does the one async-signal-safe thing a
//! drain needs: store `true` into an atomic. The accept loop, the
//! scheduler, and the batch runner all poll the same flag, so one
//! Ctrl-C (or a supervisor's SIGTERM) drains every layer: in-flight
//! jobs finish and summaries/artifacts are written.
//!
//! A *second* signal while the drain is pending restores the default
//! disposition and re-raises, so a hung or very long job can still be
//! force-interrupted by pressing Ctrl-C again (the usual convention)
//! instead of requiring SIGKILL from elsewhere.
//!
//! On non-Unix targets [`install`] registers nothing; the HTTP
//! `POST /shutdown` route (and process exit) remain available.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The flag the installed signal handler flips. A process installs at
/// most one.
static HOOKED: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
extern "C" {
    /// C89 `signal(2)`: `sighandler_t signal(int signum, sighandler_t
    /// handler)` with `sighandler_t` a plain function pointer.
    fn signal(signum: i32, handler: usize) -> usize;
    /// `raise(3)`: deliver a signal to the calling process/thread.
    fn raise(signum: i32) -> i32;
}

extern "C" fn on_signal(signum: i32) {
    if let Some(flag) = HOOKED.get() {
        if flag.swap(true, Ordering::SeqCst) {
            // Second signal: the drain is already pending, so the user
            // wants out *now*. Fall back to the default disposition
            // (terminate) and re-deliver — both calls are
            // async-signal-safe.
            #[cfg(unix)]
            unsafe {
                signal(signum, 0); // SIG_DFL
                raise(signum);
            }
            #[cfg(not(unix))]
            let _ = signum;
        }
    }
}

/// Route SIGINT and SIGTERM to `flag`. Returns whether this call's flag
/// is the one hooked (false if another flag was installed earlier; the
/// earlier one keeps working).
pub fn install(flag: Arc<AtomicBool>) -> bool {
    let installed = HOOKED.set(flag).is_ok();
    #[cfg(unix)]
    if installed {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` is async-signal-safe (one atomic store of
        // a pointer read from a OnceLock that was written before
        // installation) and has the C signature `signal` expects.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
    installed
}

/// A fresh flag, hooked to signals when possible.
pub fn hooked_flag() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    if install(flag.clone()) {
        flag
    } else {
        // A flag was installed earlier in this process: share it, so
        // every caller observes the same drain request.
        HOOKED.get().expect("set above or earlier").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_sets_the_hooked_flag() {
        let flag = hooked_flag();
        assert!(!flag.load(Ordering::SeqCst));
        // Call the handler directly (sending a real signal would race
        // other tests in this process).
        on_signal(15);
        assert!(flag.load(Ordering::SeqCst));
        flag.store(false, Ordering::SeqCst);
        // Repeat installs share the original flag.
        let again = hooked_flag();
        assert!(Arc::ptr_eq(&flag, &again));
        assert!(!install(Arc::new(AtomicBool::new(false))));
    }
}
