//! Waiting for a socket with a microsecond timeout.
//!
//! `TcpStream::set_read_timeout` is no use for an open-loop generator: the
//! kernel rounds `SO_RCVTIMEO` up to whole scheduler ticks (a 50 µs
//! timeout waited about 8 ms on the 2-core x86-64 Linux machine of the
//! README's numbers), so a send due in 300 µs would go out milliseconds
//! late. `ppoll` sleeps on a high-resolution timer
//! instead, and a timer slack of 1 µs keeps the wake-up close to the due
//! time without spinning.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Block until `stream` has bytes to read or `timeout` passes; true when
/// readable (or at end of stream / on error, which the next read reports).
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut pfd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as c_long, tv_nsec: timeout.subsec_nanos() as c_long };
    // SAFETY: `pfd` and `ts` are live, properly laid out `struct pollfd` /
    // `struct timespec` values for the duration of the call, `nfds` is 1
    // to match the single `pfd`, and a null sigmask means "keep the
    // current mask". The descriptor is owned by `stream`, which outlives
    // the call.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    n != 0
}

/// Let this thread's timed sleeps end within 1 µs of their deadline
/// (the default slack is 50 µs). Best effort: failure leaves the default.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
    // slack in nanoseconds) and touches only the calling thread's timer
    // slack; no pointers are passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as c_ulong);
    }
}
