//! A dist solve leaves nothing behind: every thread it started —
//! workers, their control readers, the coordinator's control readers —
//! is joined before `run_dist` returns. Alone in its own test binary,
//! because the count is the process's.

#![cfg(target_os = "linux")]

use em_dist::{run_dist, DistOptions};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn consecutive_dist_solves_leave_the_thread_count_unchanged() {
    let mut spec = em_scenarios::builtin("vacuum-slab").unwrap();
    spec.convergence.max_periods = 2;
    let before = threads();
    for workers in [2, 3, 2, 3, 2, 3, 2, 3] {
        let outcomes = run_dist(
            &spec,
            &DistOptions {
                workers,
                threads: workers,
                ..DistOptions::default()
            },
        )
        .unwrap();
        assert!(outcomes[0].error.is_none(), "{:?}", outcomes[0].error);
        // `join` returns once a thread has signalled its exit, a moment
        // before the kernel drops it from the count; a leaked reader
        // never exits, so a short grace does not hide one.
        let t0 = std::time::Instant::now();
        while threads() != before && t0.elapsed().as_secs() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(threads(), before, "after a {workers}-worker solve");
    }
}
