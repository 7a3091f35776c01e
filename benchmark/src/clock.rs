//! CPU time and CPU binding of this process.
//!
//! A sweep pass fans out over the pool's workers. On a shared 2-core host
//! two workers slow each other down (they share a core's caches, or its
//! hardware threads) by an amount that depends on how the scheduler
//! happens to overlap them, so both the wall time and the CPU time of a
//! pass swing by ±20% within one run. Bound to one CPU, the pool has one
//! worker and a pass does the same work the same way every time; its CPU
//! time leaves out the time other threads held that CPU.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `cpu_set_t`: a 1024-bit mask.
const CPU_SET_WORDS: usize = 1024 / 64;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// CPU time this process has used so far, in microseconds.
pub fn process_cpu_us() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, properly laid out `struct timespec` that the
    // call only writes; the clock id is a constant every Linux supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Bind the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on.
///
/// Bind before anything starts the process-wide worker pool: the pool
/// sizes itself from `available_parallelism`, which follows the binding.
pub fn bind_to_one_cpu() -> Result<(), String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live buffer of exactly `size` bytes, which the
    // call only writes; pid 0 means the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let mask = lowest_only(&mask).ok_or("the CPU mask is empty")?;
    // SAFETY: as above, except that the call only reads `mask`.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// `mask` with every bit but its lowest cleared; `None` when it is empty.
fn lowest_only(mask: &[u64; CPU_SET_WORDS]) -> Option<[u64; CPU_SET_WORDS]> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = mask[word] & mask[word].wrapping_neg();
    Some(one)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_us();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_us();
        assert!(before.is_finite() && after > before, "{before} -> {after}");
    }

    #[test]
    fn binding_keeps_the_lowest_cpu_of_the_mask() {
        let mut mask = [0u64; CPU_SET_WORDS];
        assert_eq!(lowest_only(&mask), None);
        mask[1] = 0b1100_0000;
        mask[3] = 1;
        let one = lowest_only(&mask).expect("non-empty");
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(one[1], 0b0100_0000, "CPU 70");
    }
}
