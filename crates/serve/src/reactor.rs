//! The epoll reactor: every connection on one nonblocking event loop.
//!
//! This is the server's only transport (Linux only). A thread per
//! connection caps out at a few hundred concurrent clients on this
//! machine class; the reactor multiplexes thousands of sockets over a
//! single thread using the audited [`crate::epoll`] shim:
//!
//! ```text
//!              ┌────────────── epoll_wait ──────────────┐
//!  listener ───┤ accept (nonblocking, --max-conns cap)  │
//!  sockets ────┤ read → FrameBuf → handle_line          │──▶ admission
//!  eventfd ◀───┤ batcher replies via Hub::post          │    queue /
//!              │ write → bounded per-conn outbox        │    batcher
//!              └────────────────────────────────────────┘
//! ```
//!
//! The reactor only moves bytes: [`crate::server::handle_line`] does
//! parsing, direct ops, admission and stats, and the batcher, deadline
//! cancellation, SIGTERM drain and obs stage instrumentation live in
//! [`crate::server`]. Replies reach a connection through a [`Hub`]
//! mailbox plus an eventfd wakeup rather than a blocking socket write,
//! which is what makes the batcher immune to slow clients. The
//! differential harness (`tests/serve_differential.rs`) holds every reply
//! bit-identical to the in-process model over the full op mix.
//!
//! Slow clients: replies buffer in a per-connection outbox flushed as the
//! socket accepts them (`EPOLLOUT`); a connection whose backlog exceeds
//! [`crate::ServeConfig::max_outbox_bytes`] is dropped. Idle clients: a
//! connection with no inbound traffic for
//! [`crate::ServeConfig::idle_timeout`] (and nothing in flight) is closed.

use crate::epoll::{
    self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::frame::{Frame, FrameBuf};
use crate::protocol::{error_response, ErrorKind, MAX_LINE_BYTES};
use crate::server::{handle_line, ConnWriter, Shared};
use crate::signal;
use rvhpc_trace::json::Json;
use std::collections::HashMap;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long the final drain flush keeps trying to hand buffered replies
/// to slow sockets before giving up and closing.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_secs(2);

/// The cross-thread reply mailbox: the batcher (or any thread holding a
/// [`ConnWriter`]) posts `(connection token, line)` pairs
/// and signals the eventfd; the reactor drains the mailbox into per-conn
/// outboxes on its next wakeup. Posting never blocks on socket I/O.
pub(crate) struct Hub {
    outbox: Mutex<Vec<(u64, String)>>,
    wake: EventFd,
}

impl Hub {
    fn new() -> std::io::Result<Hub> {
        Ok(Hub { outbox: Mutex::new(Vec::new()), wake: EventFd::new()? })
    }

    /// Queue one reply line for `conn` and wake the reactor.
    pub(crate) fn post(&self, conn: u64, line: &str) {
        match self.outbox.lock() {
            Ok(mut q) => q.push((conn, line.to_string())),
            Err(p) => p.into_inner().push((conn, line.to_string())),
        }
        self.wake.signal();
    }

    fn take(&self) -> Vec<(u64, String)> {
        match self.outbox.lock() {
            Ok(mut q) => std::mem::take(&mut *q),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        }
    }

    fn has_pending(&self, conn: u64) -> bool {
        match self.outbox.lock() {
            Ok(q) => q.iter().any(|(c, _)| *c == conn),
            Err(p) => p.into_inner().iter().any(|(c, _)| *c == conn),
        }
    }
}

/// A line longer than the protocol limit, used to replay an oversized
/// frame through `handle_line`: the framer discards the frame's bytes as
/// they arrive, so the limit check in `parse_request` has to see a stand-in
/// to produce the `bad_request` reply, the `bad_requests` count and the obs
/// stages (the oversize error message names only the limit, never the
/// offending length, so any over-limit line yields the same reply).
fn oversized_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| "x".repeat(MAX_LINE_BYTES + 1))
}

struct Conn {
    stream: TcpStream,
    frame: FrameBuf,
    /// Buffered unsent reply bytes; `out_cursor` marks how far the
    /// socket has accepted them.
    out: Vec<u8>,
    out_cursor: usize,
    writer: Arc<ConnWriter>,
    last_activity: Instant,
    /// Currently registered epoll interest mask.
    interest: u32,
    /// Peer closed its write half (EOF seen); no more reads.
    read_closed: bool,
    /// Connection hit a fatal condition (I/O error, invalid UTF-8,
    /// outbox overflow) and must be removed this iteration.
    fatal: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_cursor
    }

    /// True while the batcher may still produce replies for this
    /// connection: outstanding [`crate::server::WorkItem`]s each hold a
    /// clone of the writer, so a strong count above one means in-flight
    /// work. Reading the count *before* checking the mailbox makes the
    /// check sound: once the count is one, the final reply (posted
    /// before the item dropped) is visible to `Hub::has_pending`.
    fn in_flight(&self) -> bool {
        Arc::strong_count(&self.writer) > 1
    }
}

/// Entry point for the reactor thread. On setup failure (epoll or
/// eventfd creation) the server drains so `Server::join` cannot hang.
pub(crate) fn reactor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    if run(shared, listener).is_err() {
        shared.begin_drain();
    }
}

fn run(shared: &Arc<Shared>, listener: TcpListener) -> std::io::Result<()> {
    let ep = Epoll::new()?;
    let hub = Arc::new(Hub::new()?);
    ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    ep.add(hub.wake.fd(), EPOLLIN, TOKEN_WAKE)?;
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut last_full_sweep = Instant::now();

    loop {
        if signal::sigterm_received() {
            shared.begin_drain();
        }
        if shared.draining() {
            // Stop accepting: closing the listener refuses new connects,
            // so late clients learn of the drain at connect time.
            if let Some(l) = listener.take() {
                let _ = ep.delete(l.as_raw_fd());
            }
            if shared.batcher_done() {
                let _ = deliver_outbox(shared, &hub, &mut conns);
                drain_flush(&ep, &mut events, &mut conns);
                for (_, conn) in conns.drain() {
                    let _ = ep.delete(conn.stream.as_raw_fd());
                }
                return Ok(());
            }
        }

        let n = ep.wait(&mut events, 25)?;
        let mut accept_ready = false;
        let mut ready: Vec<(u64, u32)> = Vec::new();
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_LISTENER => accept_ready = true,
                TOKEN_WAKE => hub.wake.clear(),
                token => ready.push((token, ev.events())),
            }
        }

        // Only connections touched this iteration need the close/interest
        // pass; a full O(connections) sweep on every wakeup caps per-event
        // throughput at scale (it was measurable at ~1k connections).
        let mut dirty: Vec<u64> = Vec::with_capacity(ready.len());
        for (token, mask) in ready {
            let Some(conn) = conns.get_mut(&token) else { continue };
            dirty.push(token);
            if mask & (EPOLLERR | EPOLLHUP) != 0 {
                conn.fatal = true;
                continue;
            }
            if mask & EPOLLOUT != 0 {
                flush_conn(&ep, token, conn);
            }
            if mask & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.read_closed {
                read_conn(shared, &ep, token, conn);
            }
        }

        if accept_ready {
            accept_new(shared, &ep, &hub, listener.as_ref(), &mut conns, &mut next_token);
        }

        dirty.extend(deliver_outbox(shared, &hub, &mut conns));
        dirty.sort_unstable();
        dirty.dedup();
        sweep(shared, &ep, &hub, &mut conns, Some(&dirty));

        // The periodic full pass is what expires *idle* connections (no
        // event will ever mark them dirty) and backstops any conn whose
        // last reply raced the in-flight check; one epoll tick of delay
        // on a close is invisible to clients.
        if last_full_sweep.elapsed() >= Duration::from_millis(25) {
            last_full_sweep = Instant::now();
            sweep(shared, &ep, &hub, &mut conns, None);
        }
    }
}

/// Accept until the listener would block, rejecting over-cap connections
/// with a one-line `overloaded` error (same kind + `retry_after_ms` hint
/// as queue overload, so clients reuse their backoff path).
fn accept_new(
    shared: &Arc<Shared>,
    ep: &Epoll,
    hub: &Arc<Hub>,
    listener: Option<&TcpListener>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let Some(listener) = listener else { return };
    loop {
        let (mut stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
            Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if conns.len() >= shared.config.max_conns {
            shared.stats.rejected_conn_cap.fetch_add(1, Ordering::Relaxed);
            rvhpc_trace::counter!("serve.rejected_conn_cap", 1);
            // Best-effort: the socket is fresh (empty send buffer), so
            // this short line cannot block meaningfully.
            let reply = error_response(
                &Json::Null,
                ErrorKind::Overloaded,
                "connection limit reached",
                Some(shared.retry_after_ms()),
            );
            let _ = stream.write_all(reply.as_bytes()).and_then(|()| stream.write_all(b"\n"));
            continue;
        }
        let _ = stream.set_nodelay(true);
        if epoll::set_nonblocking(stream.as_raw_fd()).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        if ep.add(stream.as_raw_fd(), interest, token).is_err() {
            continue;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        rvhpc_trace::counter!("serve.connections", 1);
        conns.insert(
            token,
            Conn {
                stream,
                frame: FrameBuf::new(MAX_LINE_BYTES),
                out: Vec::new(),
                out_cursor: 0,
                writer: Arc::new(ConnWriter::new(token, Arc::clone(hub))),
                last_activity: Instant::now(),
                interest,
                read_closed: false,
                fatal: false,
            },
        );
    }
}

/// Drain the socket's receive buffer through the framer and handle every
/// completed line. EOF frames any pending partial line first: a client
/// that half-closes after an unterminated request still gets its answer.
fn read_conn(shared: &Arc<Shared>, ep: &Epoll, token: u64, conn: &mut Conn) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                conn.frame.finish_eof();
                // Stop watching for reads: level-triggered EPOLLIN would
                // otherwise fire on every tick of a half-closed socket.
                let keep = conn.interest & EPOLLOUT;
                conn.interest = keep;
                let _ = ep.modify(conn.stream.as_raw_fd(), keep, token);
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.frame.push(&buf[..n]);
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
            Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
            Err(_) => {
                conn.fatal = true;
                return;
            }
        }
    }
    let Conn { frame, writer, fatal, .. } = conn;
    while let Some(fr) = frame.next_line() {
        match fr {
            Frame::Oversized => handle_line(shared, writer, oversized_line()),
            Frame::Line(bytes) => match std::str::from_utf8(bytes) {
                Ok(line) => handle_line(shared, writer, line),
                Err(_) => {
                    // The protocol is UTF-8 JSON, and a client sending other
                    // bytes has lost framing sync: nothing after this point
                    // can be trusted to be a request, so close.
                    *fatal = true;
                    break;
                }
            },
        }
    }
}

/// Move mailbox replies into per-conn outboxes and flush. Replies for
/// already-closed connections are dropped: the client that asked is gone,
/// and nobody else may read them. Returns the tokens it touched so the caller can
/// limit its sweep to them.
fn deliver_outbox(
    shared: &Arc<Shared>,
    hub: &Arc<Hub>,
    conns: &mut HashMap<u64, Conn>,
) -> Vec<u64> {
    let batch = hub.take();
    if batch.is_empty() {
        return Vec::new();
    }
    let mut touched: Vec<u64> = Vec::new();
    for (token, line) in batch {
        if let Some(conn) = conns.get_mut(&token) {
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
            if touched.last() != Some(&token) {
                touched.push(token);
            }
        }
    }
    touched.sort_unstable();
    touched.dedup();
    for &token in &touched {
        if let Some(conn) = conns.get_mut(&token) {
            // Flush before the bound check so a responsive client's
            // backlog is measured after the socket took what it could.
            flush_inner(conn);
            if conn.pending_out() > shared.config.max_outbox_bytes {
                shared.stats.dropped_slow.fetch_add(1, Ordering::Relaxed);
                rvhpc_trace::counter!("serve.dropped_slow", 1);
                conn.fatal = true;
            }
        }
    }
    touched
}

/// Flush buffered output and keep the epoll interest mask in sync:
/// `EPOLLOUT` is registered only while bytes remain unsent.
fn flush_conn(ep: &Epoll, token: u64, conn: &mut Conn) {
    flush_inner(conn);
    sync_interest(ep, token, conn);
}

fn flush_inner(conn: &mut Conn) {
    while conn.out_cursor < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_cursor..]) {
            Ok(0) => {
                conn.fatal = true;
                return;
            }
            Ok(n) => conn.out_cursor += n,
            Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
            Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
            Err(_) => {
                conn.fatal = true;
                return;
            }
        }
    }
    if conn.out_cursor == conn.out.len() {
        conn.out.clear();
        conn.out_cursor = 0;
    }
}

fn sync_interest(ep: &Epoll, token: u64, conn: &mut Conn) {
    let read_bits = if conn.read_closed { 0 } else { EPOLLIN | EPOLLRDHUP };
    let want = read_bits | if conn.pending_out() > 0 { EPOLLOUT } else { 0 };
    if want != conn.interest {
        conn.interest = want;
        let _ = ep.modify(conn.stream.as_raw_fd(), want, token);
    }
}

/// Close everything that is finished: fatal connections, cleanly
/// half-closed connections with nothing left to deliver, and idle
/// connections past the timeout. `tokens: Some(..)` restricts the pass to
/// the connections touched this iteration; `None` visits every connection
/// (the periodic pass that expires idle sockets).
fn sweep(
    shared: &Arc<Shared>,
    ep: &Epoll,
    hub: &Arc<Hub>,
    conns: &mut HashMap<u64, Conn>,
    tokens: Option<&[u64]>,
) {
    let idle_timeout = shared.config.idle_timeout;
    let now = Instant::now();
    let candidates: Vec<u64> = match tokens {
        Some(ts) => ts.to_vec(),
        None => conns.keys().copied().collect(),
    };
    let mut closing: Vec<u64> = Vec::new();
    for token in candidates {
        let Some(conn) = conns.get_mut(&token) else { continue };
        if conn.fatal {
            closing.push(token);
            continue;
        }
        // Most connections are simply alive; decide that without touching
        // the hub mutex so the periodic full pass stays a short stall
        // (it runs with the event loop paused).
        let idle_candidate = idle_timeout > Duration::ZERO
            && now.saturating_duration_since(conn.last_activity) >= idle_timeout;
        if !conn.read_closed && !idle_candidate {
            sync_interest(ep, token, conn);
            continue;
        }
        let quiescent = conn.pending_out() == 0 && !conn.in_flight() && !hub.has_pending(token);
        if conn.read_closed && quiescent {
            closing.push(token);
            continue;
        }
        if idle_candidate && quiescent {
            shared.stats.idle_disconnects.fetch_add(1, Ordering::Relaxed);
            rvhpc_trace::counter!("serve.idle_disconnects", 1);
            closing.push(token);
            continue;
        }
        sync_interest(ep, token, conn);
    }
    for token in closing {
        if let Some(conn) = conns.remove(&token) {
            let _ = ep.delete(conn.stream.as_raw_fd());
        }
    }
}

/// Final drain flush: give sockets a bounded window to accept whatever
/// replies are still buffered, then let the caller close everything.
fn drain_flush(ep: &Epoll, events: &mut [EpollEvent], conns: &mut HashMap<u64, Conn>) {
    let deadline = Instant::now() + DRAIN_FLUSH_BUDGET;
    loop {
        let mut pending = false;
        for (&token, conn) in conns.iter_mut() {
            if conn.fatal {
                continue;
            }
            flush_conn(ep, token, conn);
            pending |= !conn.fatal && conn.pending_out() > 0;
        }
        if !pending || Instant::now() >= deadline {
            return;
        }
        let _ = ep.wait(events, 10);
    }
}
