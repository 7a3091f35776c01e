//! The persistent worker team (the `parallel` region substrate).
//!
//! A [`Team`] owns `n` worker threads for its whole lifetime, mirroring an
//! OpenMP runtime's thread pool with `OMP_PROC_BIND=true`: the team shape
//! and the logical core binding of each thread never change. SPMD regions
//! are dispatched to the workers by reference — the closure is *not* boxed
//! per call and may borrow from the caller's stack, because [`Team::run`]
//! does not return until every worker has finished with it (the same
//! lifetime-erasure technique used by scoped thread pools).

use crate::barrier::{BarrierToken, SpinBarrier};
use crate::schedule::static_chunk;
use crate::worksteal::WorkQueues;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased SPMD job: a wide pointer to a `Fn(&mut ThreadCtx)`
/// living on the dispatcher's stack. Safe to use because the dispatcher
/// blocks until all workers acknowledge completion.
struct Job {
    f: *const (dyn Fn(&mut ThreadCtx<'_>) + Sync),
}
// SAFETY: the pointee is Sync, and the dispatch protocol guarantees the
// pointer outlives every use (Team::run joins all workers before returning).
unsafe impl Send for Job {}

enum Message {
    Run(Job),
    Shutdown,
}

/// Per-thread context handed to SPMD regions.
pub struct ThreadCtx<'a> {
    tid: usize,
    n_threads: usize,
    core: usize,
    barrier: &'a SpinBarrier,
    token: BarrierToken,
}

impl ThreadCtx<'_> {
    /// This thread's index within the team, `0..n_threads`.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Team size.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Logical core id this thread is bound to (placement-policy output).
    pub fn core(&self) -> usize {
        self.core
    }

    /// Team-wide barrier (`#pragma omp barrier`).
    pub fn barrier(&mut self) {
        self.barrier.wait(&mut self.token);
    }

    /// This thread's static chunk of an iteration range
    /// (`#pragma omp for schedule(static)`).
    pub fn chunk(&self, range: Range<usize>) -> Range<usize> {
        static_chunk(range, self.n_threads, self.tid)
    }
}

struct Worker {
    tx: SyncSender<Message>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed team of bound worker threads.
///
/// ```
/// use rvhpc_threads::Team;
///
/// let team = Team::with_cores(vec![0, 8, 32, 40]); // a placement policy's output
/// let sum = team
///     .parallel_reduce(0..1000, |chunk| chunk.sum::<usize>(), |a, b| a + b)
///     .unwrap();
/// assert_eq!(sum, 999 * 1000 / 2);
/// ```
pub struct Team {
    n_threads: usize,
    cores: Vec<usize>,
    workers: Vec<Worker>,
    // std's Receiver is !Sync; the mutex restores Sync for Team and
    // serialises concurrent dispatchers, which the completion-count
    // protocol requires anyway.
    done_rx: Mutex<Receiver<()>>,
    panicked: Arc<AtomicBool>,
    // First worker panic of the current region: (tid, payload message).
    panic_report: Arc<Mutex<Option<(usize, String)>>>,
}

/// The process-wide shared team, created lazily at first use and sized to
/// the host's available parallelism. Its callers (the `row-env` verify
/// oracle, the benchmark's fan-out probe) share this pool instead of
/// spawning and tearing down a private `Team` per call; `Team::run`
/// serialises concurrent dispatchers, so interleaved calls queue rather
/// than oversubscribe. The estimate cache does not use it: its misses are
/// cheaper to estimate on the calling thread.
pub fn global_team() -> &'static Team {
    static TEAM: OnceLock<Team> = OnceLock::new();
    TEAM.get_or_init(|| {
        let lanes = std::thread::available_parallelism().map_or(4, |n| n.get());
        Team::new(lanes)
    })
}

impl Team {
    /// A team of `n` threads bound to logical cores `0..n`.
    pub fn new(n: usize) -> Self {
        Team::with_cores((0..n).collect())
    }

    /// A team with one thread per entry of `cores`, thread `i` bound to
    /// logical core `cores[i]` (the output of a placement policy).
    ///
    /// # Panics
    /// Panics if `cores` is empty.
    pub fn with_cores(cores: Vec<usize>) -> Self {
        assert!(!cores.is_empty(), "team needs at least one thread");
        let n_threads = cores.len();
        let barrier = Arc::new(SpinBarrier::new(n_threads));
        let (done_tx, done_rx) = sync_channel::<()>(n_threads);
        let panicked = Arc::new(AtomicBool::new(false));
        let panic_report = Arc::new(Mutex::new(None));

        let workers = cores
            .iter()
            .enumerate()
            .map(|(tid, &core)| {
                let (tx, rx) = sync_channel::<Message>(1);
                let barrier = Arc::clone(&barrier);
                let done_tx = done_tx.clone();
                let panicked = Arc::clone(&panicked);
                let panic_report = Arc::clone(&panic_report);
                let handle = std::thread::Builder::new()
                    .name(format!("rvhpc-worker-{tid}"))
                    .spawn(move || {
                        worker_loop(
                            tid,
                            core,
                            n_threads,
                            barrier,
                            rx,
                            done_tx,
                            panicked,
                            panic_report,
                        )
                    })
                    .expect("failed to spawn worker thread");
                Worker { tx, handle: Some(handle) }
            })
            .collect();

        Team { n_threads, cores, workers, done_rx: Mutex::new(done_rx), panicked, panic_report }
    }

    /// Team size.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Logical core of each thread.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// Execute an SPMD region on every team thread and wait for completion.
    ///
    /// The closure may borrow from the caller; it runs once per thread with
    /// that thread's [`ThreadCtx`]. Panics in any worker are re-raised here
    /// after the region drains.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&mut ThreadCtx<'_>) + Sync,
    {
        let _region = rvhpc_trace::span!("threads.region", threads = self.n_threads);
        rvhpc_obs::counter!("threads.regions", 1);
        let done_rx = match self.done_rx.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let wide: &(dyn Fn(&mut ThreadCtx<'_>) + Sync) = &f;
        // SAFETY: we erase the lifetime of `wide` to send it to workers; the
        // loop below blocks until every worker has sent its completion
        // token, so the reference cannot dangle.
        let job_ptr: *const (dyn Fn(&mut ThreadCtx<'_>) + Sync) =
            unsafe { std::mem::transmute(wide) };
        for (tid, w) in self.workers.iter().enumerate() {
            if w.tx.send(Message::Run(Job { f: job_ptr })).is_err() {
                panic!(
                    "rvhpc-worker-{tid} is dead (its channel hung up before \
                     receiving the job); the team cannot dispatch"
                );
            }
        }
        for _ in 0..self.n_threads {
            if done_rx.recv().is_err() {
                panic!(
                    "the completion channel closed mid-region; dead worker thread(s): {}",
                    self.dead_workers()
                );
            }
        }
        if self.panicked.swap(false, Ordering::SeqCst) {
            let report = match self.panic_report.lock() {
                Ok(mut g) => g.take(),
                Err(p) => p.into_inner().take(),
            };
            match report {
                Some((tid, msg)) => {
                    panic!("worker rvhpc-worker-{tid} panicked inside Team::run: {msg}")
                }
                None => panic!("a worker thread panicked inside Team::run"),
            }
        }
    }

    /// Names of workers whose threads have terminated (diagnostic for the
    /// channel-failure paths above).
    fn dead_workers(&self) -> String {
        let dead: Vec<String> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.handle.as_ref().is_none_or(JoinHandle::is_finished))
            .map(|(tid, _)| format!("rvhpc-worker-{tid}"))
            .collect();
        if dead.is_empty() {
            "(none detected)".to_string()
        } else {
            dead.join(", ")
        }
    }

    /// Worksharing loop: apply `f(i)` for every `i` in `range`, split into
    /// static contiguous chunks (`#pragma omp parallel for schedule(static)`).
    pub fn parallel_for<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run(|ctx| {
            for i in ctx.chunk(range.clone()) {
                f(i);
            }
        });
    }

    /// Worksharing loop with a work-stealing handout: apply `f(i)` for
    /// every `i` in `range` exactly once, but let idle threads steal from
    /// busy ones instead of waiting at the join. Use for irregular
    /// fan-outs (the `row-env` verify oracle); kernel paths stay on the
    /// OpenMP-faithful [`Team::parallel_for`]. Handout order is not
    /// deterministic — write results into per-index slots.
    pub fn parallel_for_worksteal<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        // Publish the dispatch size as the pool's backlog gauge; the
        // guard zeroes it even if a body panic unwinds through `run`.
        struct BacklogGuard;
        impl Drop for BacklogGuard {
            fn drop(&mut self) {
                rvhpc_obs::gauge!("threads.worksteal.backlog", 0);
            }
        }
        rvhpc_obs::gauge!("threads.worksteal.backlog", range.len() as i64);
        let _backlog = BacklogGuard;
        let queues = WorkQueues::new(range, self.n_threads);
        self.run(|ctx| {
            while let Some(i) = queues.next(ctx.tid()) {
                f(i);
            }
        });
    }

    /// Worksharing loop over chunks: `f` receives each thread's contiguous
    /// chunk once. Useful when per-chunk setup matters.
    pub fn parallel_for_chunks<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.run(|ctx| f(ctx.chunk(range.clone())));
    }

    /// Parallel reduction: each thread maps its static chunk to a partial
    /// with `map`, partials are combined in thread order with `combine`
    /// (deterministic for a fixed team size).
    pub fn parallel_reduce<T, M, C>(&self, range: Range<usize>, map: M, combine: C) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        C: Fn(T, T) -> T,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..self.n_threads).map(|_| Mutex::new(None)).collect();
        self.run(|ctx| {
            let part = map(ctx.chunk(range.clone()));
            *slots[ctx.tid()].lock().expect("slot poisoned") = Some(part);
        });
        slots.into_iter().filter_map(|m| m.into_inner().expect("slot poisoned")).reduce(combine)
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        for w in &self.workers {
            // Ignore send errors: a worker that already died cannot receive.
            let _ = w.tx.send(Message::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` produces a
/// `&'static str` or a `String`; anything else is opaque).
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[allow(clippy::too_many_arguments)] // internal spawn plumbing, one call site
fn worker_loop(
    tid: usize,
    core: usize,
    n_threads: usize,
    barrier: Arc<SpinBarrier>,
    rx: Receiver<Message>,
    done_tx: SyncSender<()>,
    panicked: Arc<AtomicBool>,
    panic_report: Arc<Mutex<Option<(usize, String)>>>,
) {
    let mut ctx = ThreadCtx { tid, n_threads, core, barrier: &barrier, token: BarrierToken::new() };
    while let Ok(msg) = rx.recv() {
        match msg {
            Message::Run(job) => {
                // SAFETY: the dispatcher keeps the closure alive until we
                // send the completion token below.
                let f = unsafe { &*job.f };
                let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                if let Err(payload) = result {
                    // Keep the first payload of the region so the
                    // dispatcher can repanic with the real message.
                    let mut slot = match panic_report.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    slot.get_or_insert_with(|| (tid, payload_message(payload.as_ref())));
                    drop(slot);
                    panicked.store(true, Ordering::SeqCst);
                }
                // Always report completion, even on panic, so the
                // dispatcher can drain and re-raise instead of hanging.
                let _ = done_tx.send(());
            }
            Message::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_once_per_thread() {
        let team = Team::new(4);
        let count = AtomicUsize::new(0);
        team.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn ctx_reports_team_shape_and_cores() {
        let team = Team::with_cores(vec![0, 8, 32, 40]);
        let seen = Mutex::new(Vec::new());
        team.run(|ctx| {
            seen.lock().unwrap().push((ctx.tid(), ctx.core(), ctx.n_threads()));
        });
        let mut v = seen.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, vec![(0, 0, 4), (1, 8, 4), (2, 32, 4), (3, 40, 4)]);
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        let team = Team::new(5);
        let n = 1237;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        team.parallel_for(0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_reduce_sums_correctly() {
        let team = Team::new(7);
        let n = 10_000usize;
        let total = team.parallel_reduce(0..n, |chunk| chunk.sum::<usize>(), |a, b| a + b).unwrap();
        assert_eq!(total, n * (n - 1) / 2);
    }

    #[test]
    fn reduce_is_deterministic_in_thread_order() {
        // Subtraction is not commutative; determinism means repeated runs
        // agree because partials combine in tid order.
        let team = Team::new(3);
        let first = team
            .parallel_reduce(0..100, |c| c.map(|i| i as i64).sum::<i64>(), |a, b| a - b)
            .unwrap();
        for _ in 0..20 {
            let again = team
                .parallel_reduce(0..100, |c| c.map(|i| i as i64).sum::<i64>(), |a, b| a - b)
                .unwrap();
            assert_eq!(first, again);
        }
    }

    #[test]
    fn barrier_inside_region_synchronises_phases() {
        let team = Team::new(6);
        let phase1 = AtomicUsize::new(0);
        team.run(|ctx| {
            phase1.fetch_add(1, Ordering::Relaxed);
            ctx.barrier();
            assert_eq!(phase1.load(Ordering::Relaxed), 6);
        });
    }

    #[test]
    fn region_can_borrow_caller_stack() {
        let team = Team::new(4);
        let mut data = vec![0usize; 1000];
        let shared: Vec<AtomicUsize> = data.iter().map(|_| AtomicUsize::new(0)).collect();
        team.run(|ctx| {
            for i in ctx.chunk(0..shared.len()) {
                shared[i].store(i * 2, Ordering::Relaxed);
            }
        });
        for (i, s) in shared.iter().enumerate() {
            data[i] = s.load(Ordering::Relaxed);
        }
        assert_eq!(data[499], 998);
    }

    #[test]
    fn team_is_reusable_many_times() {
        let team = Team::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..500 {
            team.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 1500);
    }

    #[test]
    fn worker_panic_propagates() {
        let team = Team::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            team.run(|ctx| {
                if ctx.tid() == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Team remains usable after a panic.
        let count = AtomicUsize::new(0);
        team.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panic_repanics_with_payload_and_thread_id() {
        // Regression: the dispatcher used to re-raise a generic "a worker
        // thread panicked" that lost the payload; it must now name the
        // worker and carry the original message.
        let team = Team::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            team.run(|ctx| {
                if ctx.tid() == 1 {
                    panic!("deliberate kaboom {}", 41 + 1);
                }
            });
        }));
        let msg = payload_message(result.expect_err("must repanic").as_ref());
        assert!(msg.contains("rvhpc-worker-1"), "{msg}");
        assert!(msg.contains("deliberate kaboom 42"), "{msg}");
    }

    #[test]
    fn formatted_and_static_payloads_both_survive() {
        let team = Team::new(2);
        for (job_panic, expect) in
            [("static payload", "static payload"), ("formatted", "formatted")]
        {
            let result = catch_unwind(AssertUnwindSafe(|| {
                team.run(|ctx| {
                    if ctx.tid() == 0 {
                        // Both arms raise a &'static str or String payload.
                        if job_panic == "formatted" {
                            panic!("{job_panic}");
                        } else {
                            panic!("static payload");
                        }
                    }
                });
            }));
            let msg = payload_message(result.expect_err("must repanic").as_ref());
            assert!(msg.contains(expect), "{msg}");
        }
    }

    #[test]
    fn worksteal_panic_propagates_with_payload() {
        // A panic in one parallel_for_worksteal body function must reach
        // the caller with its payload intact, exactly as Team::run does.
        let team = Team::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            team.parallel_for_worksteal(0..64, |i| {
                if i == 17 {
                    panic!("worksteal item {i} exploded");
                }
            });
        }));
        let msg = payload_message(result.expect_err("must repanic").as_ref());
        assert!(msg.contains("worksteal item 17 exploded"), "{msg}");
        assert!(msg.contains("rvhpc-worker-"), "{msg}");
        // The team stays usable afterwards.
        let count = AtomicUsize::new(0);
        team.parallel_for_worksteal(0..100, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn parallel_for_worksteal_covers_range_exactly_once() {
        let team = Team::new(6);
        let n = 2311;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        team.parallel_for_worksteal(0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn worksteal_rebalances_skewed_work() {
        // All real work lands in the first eighth of the range; without
        // stealing, thread 0 would do it alone. With stealing, the other
        // threads must execute some of the heavy indices.
        let team = Team::new(8);
        let n = 512;
        let heavy_by: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let queues = WorkQueues::new(0..n, team.n_threads());
        team.run(|ctx| {
            while let Some(i) = queues.next(ctx.tid()) {
                if i < n / 8 {
                    // Simulated heavy item.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                heavy_by[i].store(ctx.tid(), Ordering::Relaxed);
            }
        });
        let owners: std::collections::BTreeSet<usize> =
            (0..n / 8).map(|i| heavy_by[i].load(Ordering::Relaxed)).collect();
        assert!(owners.len() > 1, "heavy items all ran on one thread: {owners:?}");
    }

    #[test]
    fn global_team_is_shared_and_usable() {
        let a = global_team() as *const Team;
        let b = global_team() as *const Team;
        assert_eq!(a, b, "global team must be a single instance");
        let count = AtomicUsize::new(0);
        global_team().run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), global_team().n_threads());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_team_rejected() {
        let _ = Team::with_cores(vec![]);
    }
}
