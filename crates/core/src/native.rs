//! Native execution: really run the kernel suite on the host machine.
//!
//! The simulator reproduces the paper's machines; this module is the
//! ground-truth path — it executes the same 64 kernels on real threads via
//! the `rvhpc-threads` runtime. The `repro native` subcommand uses it, and it is how we know the kernel
//! implementations are real code rather than descriptor stubs.

use rvhpc_kernels::{make_kernel, KernelClass, KernelName};
use rvhpc_threads::Team;
use std::time::Instant;

/// One native measurement.
#[derive(Debug, Clone)]
pub struct NativeTime {
    /// Kernel.
    pub kernel: KernelName,
    /// Its class.
    pub class: KernelClass,
    /// Problem size used.
    pub size: usize,
    /// Repetitions timed.
    pub reps: u32,
    /// Wall seconds per repetition (best of the measured runs, the usual
    /// benchmarking convention for noisy hosts).
    pub seconds_per_rep: f64,
    /// Checksum after the measured repetitions (for cross-run validation).
    pub checksum: f64,
}

/// Run one kernel natively at a given size and thread count.
pub fn run_kernel(kernel: KernelName, size: usize, threads: usize, reps: u32) -> NativeTime {
    let team = Team::new(threads.max(1));
    let mut k = make_kernel::<f64>(kernel, size);
    // Warm-up repetition.
    k.run(&team);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        k.run(&team);
        best = best.min(start.elapsed().as_secs_f64());
    }
    NativeTime {
        kernel,
        class: kernel.class(),
        size,
        reps,
        seconds_per_rep: best,
        checksum: k.checksum(),
    }
}

/// Run the whole suite natively (small sizes by default so this stays
/// interactive).
pub fn run_suite(size_scale: f64, threads: usize, reps: u32) -> Vec<NativeTime> {
    KernelName::ALL
        .into_iter()
        .map(|kernel| {
            let size = ((kernel.default_size() as f64 * size_scale) as usize).max(64);
            run_kernel(kernel, size, threads, reps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_run_produces_times_and_checksums() {
        let t = run_kernel(KernelName::STREAM_TRIAD, 10_000, 2, 2);
        assert!(t.seconds_per_rep > 0.0);
        assert!(t.checksum.is_finite());
    }

    #[test]
    fn native_checksums_are_thread_count_invariant() {
        let a = run_kernel(KernelName::DAXPY, 5_000, 1, 1);
        let b = run_kernel(KernelName::DAXPY, 5_000, 4, 1);
        // DAXPY accumulates once per rep (warm-up + reps) — same count both
        // ways, so checksums must agree exactly.
        assert_eq!(a.checksum, b.checksum);
    }
}
