//! Sense-reversing spin barrier for intra-thread-group synchronization.
//!
//! A thread group crosses a barrier after every diamond-row update —
//! hundreds of times per tile — so the barrier must be much cheaper than
//! `std::sync::Barrier`'s mutex round trip. This is the classic
//! sense-reversing centralized barrier: one shared atomic counter and a
//! phase flag; arriving threads spin on the phase with exponential-ish
//! backoff. The release/acquire pairing on `phase` publishes all writes
//! performed before the barrier to all threads leaving it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// An atomic on a cache line of its own, so stores to a neighbouring
/// field do not invalidate the line its readers poll.
#[repr(align(64))]
pub(crate) struct Padded(pub(crate) AtomicUsize);

pub struct SpinBarrier {
    n: usize,
    /// Written by every arrival.
    arrived: Padded,
    /// Polled by every spinner, written once per phase: kept off the
    /// line the arrivals' `fetch_add`s bounce between cores.
    phase: Padded,
}

impl SpinBarrier {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        SpinBarrier {
            n,
            arrived: Padded(AtomicUsize::new(0)),
            phase: Padded(AtomicUsize::new(0)),
        }
    }

    /// Wait for all `n` participants. Returns `true` for exactly one
    /// "leader" per phase (the last arriver).
    pub fn wait(&self) -> bool {
        if self.n == 1 {
            // Single-participant groups (1WD) skip synchronization.
            return true;
        }
        let phase = self.phase.0.load(Ordering::Relaxed);
        // AcqRel: acquire earlier arrivers' writes, release ours.
        if self.arrived.0.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            self.arrived.0.store(0, Ordering::Relaxed);
            // Release our (and transitively everyone's) writes to spinners.
            self.phase.0.store(phase.wrapping_add(1), Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            // Acquire pairs with the leader's release above.
            while self.phase.0.load(Ordering::Acquire) == phase {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed hosts (this reproduction machine has
                    // 2 cores) must yield or groups larger than the core
                    // count would livelock.
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_barrier_is_always_leader() {
        let b = SpinBarrier::new(1);
        for _ in 0..5 {
            assert!(b.wait());
        }
    }

    #[test]
    fn no_thread_passes_early() {
        // Each thread increments a counter before the barrier and checks
        // after the barrier that all increments are visible.
        const T: usize = 4;
        const ROUNDS: usize = 200;
        let b = SpinBarrier::new(T);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..T {
                s.spawn(|| {
                    for round in 1..=ROUNDS as u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        b.wait();
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(
                            seen >= round * T as u64,
                            "round {round}: saw {seen}, want >= {}",
                            round * T as u64
                        );
                        b.wait(); // second barrier so nobody races ahead
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (T * ROUNDS) as u64);
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        const T: usize = 3;
        const ROUNDS: usize = 100;
        let b = SpinBarrier::new(T);
        let leaders = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..T {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), ROUNDS as u64);
    }

    #[test]
    fn publishes_plain_writes() {
        // A non-atomic write before the barrier must be visible after it.
        const T: usize = 2;
        let b = SpinBarrier::new(T);
        let mut slot = [0u64; T];
        let slot_ptr = SendPtr(slot.as_mut_ptr());
        std::thread::scope(|s| {
            for tid in 0..T {
                let b = &b;
                s.spawn(move || {
                    let p = slot_ptr.get();
                    for round in 1..=100u64 {
                        // SAFETY: each thread writes only its own slot; the
                        // barrier orders the cross-thread reads.
                        unsafe { *p.add(tid) = round };
                        b.wait();
                        for other in 0..T {
                            let v = unsafe { *p.add(other) };
                            assert_eq!(v, round, "tid {tid} sees stale slot {other}");
                        }
                        b.wait();
                    }
                });
            }
        });
    }

    #[derive(Clone, Copy)]
    struct SendPtr(*mut u64);
    unsafe impl Send for SendPtr {}
    impl SendPtr {
        fn get(self) -> *mut u64 {
            self.0
        }
    }

    #[test]
    #[should_panic(expected = "barrier needs at least one participant")]
    fn zero_participants_rejected() {
        let _ = SpinBarrier::new(0);
    }
}
