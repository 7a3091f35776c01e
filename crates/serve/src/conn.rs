//! The connection model both faces of the fleet share. One epoll reactor
//! ([`spawn_reactor`]) accepts, frames every connection's lines, enforces
//! a [`ConnPolicy`] and writes; a [`LineHandler`] answers each framed
//! line, at once or later, through the connection's [`ConnWriter`]. A
//! shard's handler admits estimates to its batcher
//! ([`crate::Server`]); the fleet router's forwards lines to shards on a
//! [`crate::Workers`] set, one line of a connection at a time.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The connection policies the reactor enforces: the same three fields
/// on a shard (from [`crate::ServeConfig`]) and on the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnPolicy {
    /// Connection cap: accepts beyond this many concurrently open
    /// connections are answered with a one-line `overloaded` error and
    /// closed.
    pub max_conns: usize,
    /// Connections with no inbound traffic for this long (and nothing in
    /// flight) are closed. `Duration::ZERO` disables.
    pub idle_timeout: Duration,
    /// A connection whose buffered unsent replies exceed this many bytes
    /// (a slow or stalled reader) is dropped so one client can never
    /// balloon server memory or block the event loop.
    pub max_outbox_bytes: usize,
}

impl Default for ConnPolicy {
    fn default() -> ConnPolicy {
        ConnPolicy { max_conns: 4096, idle_timeout: Duration::ZERO, max_outbox_bytes: 256 * 1024 }
    }
}

/// What the reactor did to a connection, for the handler's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    /// A connection was accepted.
    Accepted,
    /// A connection was refused at [`ConnPolicy::max_conns`].
    RefusedAtCap,
    /// A connection idle for [`ConnPolicy::idle_timeout`] was closed.
    IdleClosed,
    /// A reader past [`ConnPolicy::max_outbox_bytes`] was dropped.
    DroppedSlow,
}

/// The server behind a reactor.
pub trait LineHandler: Send + Sync + 'static {
    /// Answer one framed request line of the connection `reply` writes
    /// to: send the reply now, or keep a clone of `reply` and send it
    /// later from any thread. While a clone is held the reactor counts the
    /// connection busy, so it is neither closed as finished nor as idle.
    fn handle_line(&self, reply: &Arc<ConnWriter>, line: &str);
    /// Count one connection event.
    fn count(&self, event: ConnEvent);
    /// The `retry_after_ms` hint of the `overloaded` refusal at the cap.
    fn retry_after_ms(&self) -> u64;
    /// Whether a drain has begun; the reactor then stops accepting.
    fn draining(&self) -> bool;
    /// Begin a drain; the reactor calls this if its event loop fails.
    fn begin_drain(&self);
    /// Whether, once draining, every accepted line has been answered; the
    /// reactor then flushes what is buffered, closes every connection and
    /// exits.
    fn drained(&self) -> bool;
    /// Whether a connection's lines come one at a time: the next only once
    /// the last is answered (no clone of its writer is held), with nothing
    /// read from the socket meanwhile, so a client pipelining requests
    /// is held back by TCP flow control instead of being buffered. A
    /// shard takes every line as it arrives, since its admission queue
    /// bounds them.
    fn one_line_at_a_time(&self) -> bool {
        false
    }
}

/// One connection's write half: the reactor's token for the connection
/// and the reactor's cross-thread reply mailbox. Sending is a mutex push
/// plus an eventfd wakeup, so no sender ever blocks on a slow client's
/// socket.
#[cfg(target_os = "linux")]
pub struct ConnWriter {
    conn: u64,
    hub: Arc<crate::reactor::Hub>,
}

#[cfg(target_os = "linux")]
impl ConnWriter {
    pub(crate) fn new(conn: u64, hub: Arc<crate::reactor::Hub>) -> ConnWriter {
        ConnWriter { conn, hub }
    }

    /// Queue `line` (without its `\n`) as the connection's next reply.
    pub fn send_line(&self, line: &str) {
        self.hub.post(self.conn, line);
    }

    /// Queue `line` as the connection's next reply and release this
    /// handle before the reactor can see the reply, so a connection
    /// served [one line at a time](LineHandler::one_line_at_a_time) is
    /// handed its next line as soon as this one is answered.
    pub fn finish(self: Arc<Self>, line: &str) {
        let (conn, hub) = (self.conn, Arc::clone(&self.hub));
        drop(self);
        hub.post(conn, line);
    }
}

/// Without epoll there is no transport, so no connection can exist.
#[cfg(not(target_os = "linux"))]
pub enum ConnWriter {}

#[cfg(not(target_os = "linux"))]
impl ConnWriter {
    /// Queue `line` (without its `\n`) as the connection's next reply.
    pub fn send_line(&self, _line: &str) {
        match *self {}
    }

    /// Queue `line` as the connection's next reply and release this
    /// handle.
    pub fn finish(self: Arc<Self>, _line: &str) {
        match *self {}
    }
}

/// Serve `listener` under `policy` from a reactor thread named `name`,
/// handing every framed line to `handler`. The thread exits once the
/// handler is drained. The reactor is Linux-only; elsewhere this returns
/// [`std::io::ErrorKind::Unsupported`].
#[cfg(target_os = "linux")]
pub fn spawn_reactor<H: LineHandler>(
    name: &str,
    handler: Arc<H>,
    listener: TcpListener,
    policy: ConnPolicy,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    crate::epoll::deepen_backlog(&listener)?;
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || crate::reactor::reactor_loop(&*handler, listener, &policy))
}

/// Serve `listener` under `policy` from a reactor thread named `name`,
/// handing every framed line to `handler`. The reactor is Linux-only;
/// here this returns [`std::io::ErrorKind::Unsupported`].
#[cfg(not(target_os = "linux"))]
pub fn spawn_reactor<H: LineHandler>(
    _name: &str,
    _handler: Arc<H>,
    _listener: TcpListener,
    _policy: ConnPolicy,
) -> std::io::Result<JoinHandle<()>> {
    Err(std::io::Error::new(std::io::ErrorKind::Unsupported, "serving requires Linux (epoll)"))
}
