//! Minimal audited epoll/eventfd FFI shim (Linux only).
//!
//! The workspace builds offline with no `libc` crate, so — following the
//! precedent of the SIGTERM `signal(2)` shim in [`crate::signal`] — this
//! module is the second tiny unsafe island that talks to the platform
//! directly. It binds exactly the calls the reactor needs and nothing
//! more:
//!
//! * `epoll_create1` / `epoll_ctl` / `epoll_wait` — readiness
//!   multiplexing over every connection from one thread,
//! * `eventfd(2)` — the batcher's cross-thread wakeup into the event
//!   loop (a reply enqueued from another thread must interrupt
//!   `epoll_wait` immediately, not on the next tick),
//! * `fcntl(2)` with `O_NONBLOCK` — switching accepted sockets to
//!   nonblocking mode,
//! * `listen(2)` — re-arming the bound listener with a deeper accept
//!   backlog than the 128 `std::net::TcpListener::bind` asks for,
//! * `close(2)` plus `read`/`write` on the eventfd.
//!
//! Audit notes (also summarised in the README's serving section):
//!
//! * Every return value is checked; failures surface as
//!   [`std::io::Error::last_os_error`], never ignored.
//! * File descriptors are owned by RAII wrappers ([`Epoll`], [`EventFd`])
//!   that close on drop, so no fd leaks on early-exit paths.
//! * `EINTR` from `epoll_wait` is mapped to "zero events" — the caller's
//!   loop re-evaluates its drain/SIGTERM flags and retries, which is the
//!   behaviour a signal arriving mid-wait should produce.
//! * The `epoll_event` struct is `repr(C, packed)` on x86 and `repr(C)`
//!   elsewhere, matching the kernel ABI.
//! * `fcntl` is declared with a fixed third argument; on the SysV ABIs
//!   this crate targets, a variadic int argument is passed identically.

#![allow(unsafe_code)]

use std::io;
use std::net::TcpListener;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, RawFd};

/// Readable readiness (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never requested).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`; always reported, never requested).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0x800;

/// One readiness notification, ABI-compatible with the kernel's
/// `struct epoll_event`: an event mask plus the caller's 64-bit token.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An empty slot for the `epoll_wait` output buffer.
    pub(crate) fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness mask of a filled-in event.
    pub(crate) fn events(&self) -> u32 {
        // A packed field cannot be borrowed, but returning it is a copy.
        self.events
    }

    /// The registration token of a filled-in event.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// An owned epoll instance; the fd closes on drop.
pub(crate) struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall with no pointers; the return value is
        // checked and a negative fd is surfaced as an error.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call (the kernel copies it before
        // returning) and `self.fd` is a live epoll fd owned by this struct.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` for `events`, tagging notifications with `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd` entirely.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness; fills `events` and returns
    /// how many entries are valid. A signal interrupting the wait is
    /// reported as zero events, not an error.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the output pointer and capacity come from one live
        // slice, so the kernel writes only into memory we own.
        let rc =
            unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing a fd this struct exclusively owns.
        unsafe {
            close(self.fd);
        }
    }
}

/// An owned nonblocking eventfd used as a cross-thread wakeup: any thread
/// may [`EventFd::signal`], the reactor [`EventFd::clear`]s on wake.
pub(crate) struct EventFd {
    fd: c_int,
}

impl EventFd {
    /// Create a nonblocking close-on-exec eventfd with counter zero.
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall with no pointers; return value checked.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub(crate) fn fd(&self) -> RawFd {
        self.fd
    }

    /// Add 1 to the counter, waking any `epoll_wait` on this fd. An
    /// `EAGAIN` (counter saturated) still leaves the fd readable, so the
    /// wakeup is never lost and the error is safely ignored.
    pub(crate) fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack variable to an fd this
        // struct owns; the result needs no handling (see doc comment).
        unsafe {
            write(self.fd, (&raw const one).cast::<c_void>(), 8);
        }
    }

    /// Reset the counter so the fd stops polling readable. `EAGAIN`
    /// (already clear) is expected and ignored.
    pub(crate) fn clear(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reads 8 bytes into a live stack variable from an fd
        // this struct owns.
        unsafe {
            read(self.fd, (&raw mut buf).cast::<c_void>(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: closing a fd this struct exclusively owns.
        unsafe {
            close(self.fd);
        }
    }
}

/// Switch `fd` to nonblocking mode via `fcntl(F_GETFL/F_SETFL)`.
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: two flag-word syscalls on a caller-supplied live fd; both
    // return values are checked.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Re-`listen(2)` a bound listener with a 4096-deep accept backlog.
/// `TcpListener::bind` asks for 128, and a cold server meeting a burst of
/// thousands of connects drops SYNs past that, stalling those clients on
/// retransmits. The kernel caps the value at `net.core.somaxconn`.
pub(crate) fn deepen_backlog(listener: &TcpListener) -> io::Result<()> {
    // SAFETY: a pointer-free syscall on the live fd `listener` owns; the
    // return value is checked.
    if unsafe { listen(listener.as_raw_fd(), 4096) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpStream;

    #[test]
    fn eventfd_signals_wake_epoll_and_clear_resets() {
        let ep = Epoll::new().expect("epoll");
        let ev = EventFd::new().expect("eventfd");
        ep.add(ev.fd(), EPOLLIN, 7).expect("register");

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing signalled yet: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        ev.signal();
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        // Clearing consumes the counter; the fd stops polling readable.
        ev.clear();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        // Signals coalesce: many signals, one readable event, one clear.
        for _ in 0..100 {
            ev.signal();
        }
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 1);
        ev.clear();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn sockets_register_and_report_readable_on_data() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        set_nonblocking(server_side.as_raw_fd()).expect("nonblocking");

        let ep = Epoll::new().expect("epoll");
        ep.add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42).expect("register");

        let mut events = [EpollEvent::zeroed(); 4];
        client.write_all(b"ping\n").expect("write");
        let n = ep.wait(&mut events, 2000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        // Interest can be modified and removed without error.
        ep.modify(server_side.as_raw_fd(), EPOLLIN | EPOLLOUT, 42).expect("modify");
        ep.delete(server_side.as_raw_fd()).expect("delete");
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }
}
