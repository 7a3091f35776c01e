//! What a paper pass allocates: every `EXPERIMENTS` entry run and its
//! artefact rendered to JSON, as the benchmark's sweeps do. Once the
//! estimate cache is warm, a pass holds its numbers in fixed arrays and
//! its cells as values until they are written, so what is left is one
//! answer `Vec` per `estimate_batch` call, the row and series `Vec`s of
//! the artefacts, and one output buffer per artefact. A counting global
//! allocator, counting per thread in a `const`-initialised thread-local
//! (so counting never allocates), holds the warm pass to a budget. The
//! cold pass, the first in the process, has a budget of its own: a cold
//! suite row goes into the cache as one row built at its final size, so
//! beside the warm pass's allocations it adds about a row, an answer and
//! a miss list per miss batch, and the first pass's growth of the cache's
//! map and queue. A test binary of its own, so the counting allocator serves
//! it alone and the estimate cache starts empty.

use rvhpc::experiments::driver::{Artefact, EXPERIMENTS};
use rvhpc::perfmodel::{cache, persist};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap allocations of one paper pass, experiment by experiment.
fn paper_pass() -> Vec<(&'static str, u64)> {
    let mut counts = Vec::with_capacity(EXPERIMENTS.len());
    for e in &EXPERIMENTS {
        let n = allocations(|| {
            let json = match e.run() {
                Artefact::Figure(f) => f.to_json(),
                Artefact::Table(t) => t.to_json(),
            };
            std::hint::black_box(json);
        });
        counts.push((e.name, n));
    }
    counts
}

/// The most heap allocations a warm paper pass may make.
const WARM_PASS_BUDGET: u64 = 120;

/// The most heap allocations the first paper pass into an empty cache may
/// make.
const COLD_PASS_BUDGET: u64 = 610;

/// The cold pass that warms the cache is held to its budget too.
#[test]
fn a_warm_paper_pass_stays_within_its_allocation_budget() {
    persist::set_cache_dir(None);
    cache::clear();
    let total = |counts: &[(&str, u64)]| counts.iter().map(|&(_, n)| n).sum::<u64>();
    let cold = paper_pass();
    let before = cache::stats();
    let warm = paper_pass();
    let delta = cache::stats().since(&before);
    assert_eq!(delta.misses, 0, "the second pass is served from the cache: {delta:?}");
    println!("paper pass heap allocations: cold {}, warm {}", total(&cold), total(&warm));
    for ((name, cold), (_, warm)) in cold.iter().zip(&warm) {
        println!("  {name:<8} cold {cold:>4}  warm {warm:>4}");
    }
    assert!(
        total(&cold) <= COLD_PASS_BUDGET,
        "a cold paper pass made {} heap allocations (budget {COLD_PASS_BUDGET}): {cold:?}",
        total(&cold)
    );
    assert!(
        total(&warm) <= WARM_PASS_BUDGET,
        "a warm paper pass made {} heap allocations (budget {WARM_PASS_BUDGET}): {warm:?}",
        total(&warm)
    );
}
