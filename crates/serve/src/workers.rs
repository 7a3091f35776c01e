//! A fixed set of worker threads for jobs that must not run on a
//! reactor's event loop, such as the fleet router's blocking forwards to
//! its shards. The set is sized once, when it starts, and each worker
//! keeps its own state (the router's: one pool of shard connections)
//! across the jobs it runs.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The worker set: jobs queue on one channel and the next free worker
/// takes each. Dropping the set lets its workers exit once the queued
/// jobs have run; [`Workers::join`] also waits for them.
pub struct Workers<J> {
    queue: Sender<J>,
    threads: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> Workers<J> {
    /// Start `count` workers. Each starts from `S::default()` and runs
    /// each job it takes as `run(&mut state, job)`.
    pub fn start<S: Default + 'static>(
        name: &str,
        count: usize,
        run: impl Fn(&mut S, J) + Send + Sync + 'static,
    ) -> std::io::Result<Workers<J>> {
        let (queue, jobs) = channel::<J>();
        let jobs = Arc::new(Mutex::new(jobs));
        let run = Arc::new(run);
        let mut threads = Vec::with_capacity(count);
        for i in 0..count {
            let (jobs, run) = (Arc::clone(&jobs), Arc::clone(&run));
            let worker = move || {
                let mut state = S::default();
                loop {
                    // A statement of its own, so the lock is released
                    // before the job runs.
                    let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(job) = job else { return };
                    run(&mut state, job);
                }
            };
            match std::thread::Builder::new().name(format!("{name}-{i}")).spawn(worker) {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    Workers { queue, threads }.join();
                    return Err(e);
                }
            }
        }
        Ok(Workers { queue, threads })
    }

    /// Queue `job` for the next free worker.
    pub fn submit(&self, job: J) {
        // The workers only stop once the queue is dropped, so this
        // fails only if every worker panicked.
        let _ = self.queue.send(job);
    }

    /// Take no more jobs, and wait for the workers to run the queued ones
    /// and exit.
    pub fn join(self) {
        drop(self.queue);
        for worker in self.threads {
            let _ = worker.join();
        }
    }
}
