//! What a one-off estimate allocates before the model runs: reading the
//! request line and resolving the row's placement. A counting global
//! allocator, counting per thread, holds both at zero: neither an
//! escape-free `estimate` line nor a row's memory environment on any
//! catalog machine allocates.
//! A test binary of its own, so the counting allocator serves it alone.

use rvhpc_machines::{catalog, MachineId, PlacementPolicy};
use rvhpc_perfmodel::{Model, Precision, RowEnv, RunConfig};
use rvhpc_serve::protocol::{parse_request, Request};
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

#[test]
fn an_escape_free_estimate_line_allocates_nothing() {
    let mut lines = vec![
        r#"{"id":7,"op":"estimate","machine":"sg2042","kernel":"Stream_TRIAD","precision":"fp32","threads":32,"mode":"vla","placement":"block","vectorize":true,"deadline_ms":250}"#.to_string(),
        r#"{"op":"estimate","machine":"SG2042","kernel":"Basic_DAXPY"}"#.to_string(),
    ];
    for id in MachineId::CATALOG {
        for policy in PlacementPolicy::ALL {
            lines.push(format!(
                r#"{{"id":{n},"op":"estimate","machine":"{m}","kernel":"Polybench_GEMM","precision":"fp64","threads":{t},"placement":"{p}"}}"#,
                n = lines.len(),
                m = id.token(),
                t = catalog(id).n_cores(),
                p = policy.label(),
            ));
        }
    }
    for line in &lines {
        let mut parsed = None;
        let n = allocations(|| parsed = Some(parse_request(line)));
        let (_, request) = parsed.expect("parsed");
        assert!(matches!(request, Ok(Request::Estimate { .. })), "{line}: {request:?}");
        assert_eq!(n, 0, "allocations reading {line}");
    }
}

#[test]
fn resolving_a_row_placement_allocates_nothing_on_any_catalog_machine() {
    // The placement counter registers itself on its first use.
    let sg = catalog(MachineId::Sg2042);
    let _ = RowEnv::new(Model::paper(), sg, &RunConfig::sg2042_best(Precision::Fp32, 1)).memory();
    for id in MachineId::CATALOG {
        let m = catalog(id);
        let cores = m.n_cores();
        for placement in PlacementPolicy::ALL {
            for threads in [1, 2, cores / 2, cores] {
                let cfg =
                    RunConfig { placement, ..RunConfig::sg2042_best(Precision::Fp64, threads) };
                let row = RowEnv::new(Model::paper(), m, &cfg);
                let n = allocations(|| {
                    let _ = row.memory();
                });
                assert_eq!(n, 0, "{} {placement} x{threads}", id.token());
            }
        }
    }
}
