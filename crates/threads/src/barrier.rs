//! A sense-reversing centralized spin barrier.
//!
//! This is the classic construction (see e.g. Mellor-Crummey & Scott): one
//! atomic arrival counter plus a global "sense" flag that flips each round.
//! Each thread keeps a thread-local sense; the last arriver resets the
//! counter and flips the global sense, releasing the spinners. Unlike
//! `std::sync::Barrier` this never takes a lock and never syscalls on the
//! fast path, which is the behaviour an OpenMP runtime's barrier has and
//! what the fork-join overhead model in `rvhpc-perfmodel` assumes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable spin barrier for a fixed-size team.
#[derive(Debug)]
pub struct SpinBarrier {
    n_threads: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    /// Create a barrier for `n_threads` participants.
    ///
    /// # Panics
    /// Panics if `n_threads` is zero.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "barrier needs at least one participant");
        SpinBarrier { n_threads, arrived: AtomicUsize::new(0), sense: AtomicBool::new(false) }
    }

    /// Number of participants.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Block until all `n_threads` participants have called `wait` with the
    /// same `local_sense` generation. Callers must thread their
    /// [`BarrierToken`] through successive waits.
    pub fn wait(&self, token: &mut BarrierToken) {
        rvhpc_obs::counter!("threads.barrier.waits", 1);
        // Flip the caller's sense for this round.
        token.sense = !token.sense;
        let my_sense = token.sense;

        // AcqRel on the arrival counter: the increment publishes this
        // thread's pre-barrier writes; the load half synchronises with the
        // other arrivers so the releaser sees all of them.
        if self.arrived.fetch_add(1, Ordering::AcqRel) == self.n_threads - 1 {
            // Last arriver: reset and release everyone.
            self.arrived.store(0, Ordering::Relaxed);
            // Release: spinners' subsequent Acquire loads see all writes
            // made by every thread before the barrier.
            self.sense.store(my_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins = spins.wrapping_add(1);
                if spins % 1024 == 0 {
                    // Be polite on oversubscribed hosts (CI machines):
                    // back off to the scheduler occasionally.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            rvhpc_obs::counter!("threads.barrier.spins", spins as u64);
        }
    }
}

/// Per-thread barrier state (the thread-local sense).
#[derive(Debug, Default, Clone)]
pub struct BarrierToken {
    sense: bool,
}

impl BarrierToken {
    /// A fresh token; one per participating thread.
    pub fn new() -> Self {
        BarrierToken::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_a_noop() {
        let b = SpinBarrier::new(1);
        let mut tok = BarrierToken::new();
        for _ in 0..1000 {
            b.wait(&mut tok);
        }
    }

    #[test]
    fn barrier_separates_phases() {
        // Each thread increments a phase counter, waits, then checks that
        // every thread's increment for the phase is visible.
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counter = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let mut tok = BarrierToken::new();
                    for round in 1..=ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut tok);
                        // All THREADS increments of this round must be in.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(
                            seen >= round * THREADS,
                            "round {round}: saw {seen}, expected >= {}",
                            round * THREADS
                        );
                        barrier.wait(&mut tok);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ROUNDS);
    }

    #[test]
    fn barrier_publishes_writes() {
        // Release/Acquire check: a non-atomic value written before the
        // barrier must be visible after it.
        const THREADS: usize = 4;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let slots: Arc<Vec<AtomicUsize>> =
            Arc::new((0..THREADS).map(|_| AtomicUsize::new(0)).collect());

        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let barrier = Arc::clone(&barrier);
                let slots = Arc::clone(&slots);
                s.spawn(move || {
                    let mut tok = BarrierToken::new();
                    slots[tid].store(tid + 1, Ordering::Relaxed);
                    barrier.wait(&mut tok);
                    for (i, slot) in slots.iter().enumerate() {
                        assert_eq!(slot.load(Ordering::Relaxed), i + 1);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_threads_rejected() {
        let _ = SpinBarrier::new(0);
    }
}
