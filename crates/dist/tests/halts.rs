//! A decomposed solve halted mid-solve ends in the outcome its cause
//! names: an expired deadline is a timeout, a cancel from another
//! thread a cancellation. Either the coordinator's lockstep or a
//! worker's own token may notice first — a worker's halt crosses the
//! control stream as a tagged `WorkerErr` — and the class is the same
//! whichever does. Both end within a few wait slices of the event, far
//! inside the solve's undisturbed run.

use std::time::{Duration, Instant};

use em_dist::{run_dist, DistOptions};
use mwd_core::{CancelToken, SolveError};

/// vacuum-slab held away from convergence for 1000 periods: about
/// 7 ms a period over two workers on a 2-core x86-64 host, so
/// undisturbed it runs for about 7 s.
fn long_spec() -> em_scenarios::ScenarioSpec {
    let mut spec = em_scenarios::builtin("vacuum-slab").unwrap();
    spec.convergence.tol = f64::MIN_POSITIVE;
    spec.convergence.max_periods = 1000;
    spec
}

/// The one job's error and how long `run_dist` took.
fn solve(cancel: CancelToken) -> (Option<SolveError>, Duration) {
    let opts = DistOptions {
        workers: 2,
        threads: 2,
        cancel,
        ..DistOptions::default()
    };
    let t0 = Instant::now();
    let outcomes = run_dist(&long_spec(), &opts).unwrap();
    (outcomes[0].error.clone(), t0.elapsed())
}

/// Well past a few wait slices, well short of the undisturbed run.
const PROMPT: Duration = Duration::from_secs(3);

#[test]
fn a_deadline_passing_mid_solve_is_a_timeout() {
    for ms in [200, 450] {
        let (error, took) = solve(CancelToken::with_deadline(Duration::from_millis(ms)));
        assert!(matches!(error, Some(SolveError::Timeout(_))), "{error:?}");
        assert!(
            took < PROMPT,
            "a {ms} ms deadline ended the solve after {took:?}"
        );
    }
}

#[test]
fn a_cancel_from_another_thread_mid_solve_is_a_cancellation() {
    let token = CancelToken::none();
    let trip = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        trip.cancel();
    });
    let (error, took) = solve(token);
    canceller.join().unwrap();
    assert!(matches!(error, Some(SolveError::Cancelled(_))), "{error:?}");
    assert!(
        took < PROMPT,
        "a cancel at 300 ms ended the solve after {took:?}"
    );
}
