//! Work-stealing handout for irregular fan-outs.
//!
//! The kernel paths keep OpenMP-faithful *static* chunks (contiguous blocks
//! are what make placement matter on the SG2042 — see [`crate::schedule`]).
//! Work of irregular per-item cost, such as estimates (a cache-resident
//! polybench kernel against a queueing-heavy stream kernel), leaves lanes
//! idle under a static split. This module provides the dynamic
//! alternative: each thread starts from its static chunk (preserving the
//! balanced fast path, which never locks a foreign queue) and, once
//! drained, steals the back half of the fullest remaining victim.
//!
//! The estimate cache does not use it: its misses are cheaper to estimate
//! on the calling thread. Two callers do: the `row-env` verify oracle fans
//! a shared row's kernels out through
//! [`Team::parallel_for_worksteal`](crate::Team::parallel_for_worksteal),
//! and the benchmark's `threads.fanout_us` probe times one handout.
//!
//! Every index is handed out exactly once; the handout *order* is not
//! deterministic, so callers must write results into per-index slots rather
//! than accumulate in arrival order.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// Per-thread iteration queues with half-range stealing.
pub struct WorkQueues {
    queues: Vec<Mutex<Range<usize>>>,
}

impl WorkQueues {
    /// Split `range` into one static chunk per thread (the steal-free fast
    /// path is then identical to a static schedule).
    pub fn new(range: Range<usize>, n_threads: usize) -> Self {
        WorkQueues {
            queues: crate::schedule::static_chunks(range, n_threads)
                .into_iter()
                .map(Mutex::new)
                .collect(),
        }
    }

    /// Number of per-thread queues.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// Next index for thread `tid`: pop the front of its own queue, or steal
    /// the back half of the fullest other queue. `None` once every queue is
    /// empty (every index has been handed out).
    ///
    /// # Panics
    /// Panics if `tid >= n_queues()`.
    pub fn next(&self, tid: usize) -> Option<usize> {
        {
            let mut own = self.lock(tid);
            if !own.is_empty() {
                let i = own.start;
                own.start += 1;
                return Some(i);
            }
        }
        let stolen = self.steal(tid)?;
        let first = stolen.start;
        // Deposit the remainder as the new own queue. Only `tid` itself ever
        // refills its queue, so the empty queue observed above cannot have
        // been refilled behind our back — overwriting is sound.
        *self.lock(tid) = (stolen.start + 1)..stolen.end;
        Some(first)
    }

    fn lock(&self, tid: usize) -> MutexGuard<'_, Range<usize>> {
        // A poisoned queue only means a worker panicked mid-region; the
        // range itself is still consistent, so keep handing out.
        match self.queues[tid].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Take the back half (rounded up, never less than one index) of the
    /// fullest victim queue. Only one lock is ever held at a time, so
    /// concurrent stealers cannot deadlock; a stealer that loses the race
    /// between scanning and locking simply rescans. Returns `None` only
    /// after a scan finds every other queue empty.
    fn steal(&self, tid: usize) -> Option<Range<usize>> {
        loop {
            let mut victim: Option<(usize, usize)> = None;
            for v in 0..self.queues.len() {
                if v == tid {
                    continue;
                }
                let len = self.lock(v).len();
                if len > 0 && victim.is_none_or(|(_, best)| len > best) {
                    victim = Some((v, len));
                }
            }
            let (v, _) = victim?;
            let mut q = self.lock(v);
            if q.is_empty() {
                // Lost the race to the victim's owner or another stealer —
                // their progress guarantees this loop terminates.
                continue;
            }
            let keep = q.len() - q.len().div_ceil(2);
            let stolen = (q.start + keep)..q.end;
            q.end = q.start + keep;
            rvhpc_obs::counter!("threads.worksteal.steals", 1);
            return Some(stolen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Team;
    use rvhpc_quickprop::run_cases;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_drains_in_order() {
        let q = WorkQueues::new(3..8, 1);
        let drained: Vec<usize> = std::iter::from_fn(|| q.next(0)).collect();
        assert_eq!(drained, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let q = WorkQueues::new(5..5, 4);
        for tid in 0..4 {
            assert_eq!(q.next(tid), None);
        }
    }

    #[test]
    fn starved_thread_steals_from_the_richest() {
        // Thread 1's static chunk of 0..10 over 2 threads is 5..10: after
        // draining it, thread 1 must steal from thread 0's untouched chunk.
        let q = WorkQueues::new(0..10, 2);
        for expect in 5..10 {
            assert_eq!(q.next(1), Some(expect));
        }
        let stolen = q.next(1).expect("steals from thread 0");
        assert!((0..5).contains(&stolen), "{stolen}");
    }

    #[test]
    fn steal_takes_the_back_half() {
        let q = WorkQueues::new(0..8, 2); // chunks 0..4 and 4..8
                                          // Drain thread 0, then it steals ceil(4/2) = 2 from the back: 6..8.
        for _ in 0..4 {
            q.next(0);
        }
        assert_eq!(q.next(0), Some(6));
        // Thread 1 still owns its front.
        assert_eq!(q.next(1), Some(4));
    }

    #[test]
    fn every_index_handed_out_exactly_once_under_contention() {
        let team = Team::new(8);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let q = WorkQueues::new(0..n, team.n_threads());
        team.run(|ctx| {
            while let Some(i) = q.next(ctx.tid()) {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    /// Any lane count and range: the handout is a partition of the range.
    #[test]
    fn handout_is_a_partition() {
        run_cases(64, |g| {
            let start = g.usize_in(0..=100);
            let len = g.usize_in(0..=500);
            let threads = g.usize_in(1..=9);
            let q = WorkQueues::new(start..start + len, threads);
            let mut seen = vec![0u8; len];
            // Drain round-robin across tids to exercise stealing from every
            // relative position.
            let mut active = true;
            while active {
                active = false;
                for tid in 0..threads {
                    if let Some(i) = q.next(tid) {
                        seen[i - start] += 1;
                        active = true;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        });
    }
}
