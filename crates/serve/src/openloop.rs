//! The open-loop load engine: thousands of connections, one epoll loop.
//!
//! Closed-loop clients (one blocking request/reply loop per thread) stop
//! sending the moment the server slows down, which hides tail latency and
//! caps concurrency at the OS thread limit. This engine decouples the
//! arrival process from the service process: sends are paced purely by
//! the wall clock at the aggregate `--rps` target, round-robined across
//! `--connections` sockets, while replies are collected whenever they
//! arrive — the standard open-loop methodology for measuring p99 under
//! real concurrency. It reuses the [`crate::epoll`] shim and the
//! [`crate::frame`] line framer from the server side (replies framed
//! under [`crate::MAX_REPLY_BYTES`], like every blocking client's), and
//! produces the same per-connection [`ClientOutcome`]s the closed-loop
//! path does, so report folding, SLO gating and bit-identity verification
//! in [`crate::loadgen`] are common code.
//!
//! Connection establishment is *staggered* ([`stagger_offsets`]): the old
//! eager pattern — every client thread calling `connect` at t=0 — is a
//! self-inflicted SYN flood at high connection counts, overflowing the
//! accept backlog before the first request is sent.

use crate::epoll::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::frame::{Frame, FrameBuf};
use crate::loadgen::{lcg_next, reply_bits, ClientOutcome, LoadgenConfig, Triple};
use rvhpc_trace::json::Json;
use std::collections::HashMap;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// How long the engine waits for straggler replies after the last send.
const REPLY_GRACE: Duration = Duration::from_secs(5);

/// Per-connection connect times relative to ramp start: 50µs apart, but
/// never stretching the total ramp past 2 s even at 10k+ connections.
/// Strictly increasing offsets are the regression guard against the old
/// eager connect-all-at-once behaviour.
pub(crate) fn stagger_offsets(n: usize) -> Vec<Duration> {
    let n = n.max(1);
    let step = Duration::from_micros(50).min(Duration::from_secs(2) / n as u32);
    // A zero step (n > 2s/1ns is impossible, but guard the math anyway)
    // would recreate the eager pattern; keep at least one microsecond.
    let step = step.max(Duration::from_micros(1));
    (0..n).map(|i| step * i as u32).collect()
}

struct OpenConn {
    stream: TcpStream,
    frame: FrameBuf,
    /// Request bytes accepted by the pacing schedule but not yet by the
    /// socket (a send buffer full under pressure must not stall pacing).
    sendbuf: Vec<u8>,
    send_cursor: usize,
    /// In-flight request id → (send instant, query-pool index).
    outstanding: HashMap<u64, (Instant, usize)>,
    interest: u32,
    /// Socket failed or closed; no further sends or reads.
    dead: bool,
    /// Server answered `shutting_down`; stop sending, keep reading.
    stopped: bool,
}

impl OpenConn {
    fn pending_send(&self) -> usize {
        self.sendbuf.len() - self.send_cursor
    }
}

/// Drive the full open-loop run, one request every `interval`, and return
/// one [`ClientOutcome`] per connection. Never panics on I/O trouble:
/// failures are folded into `protocol_errors` so a misbehaving server
/// produces a report.
pub(crate) fn run_clients(
    cfg: &LoadgenConfig,
    pool: &[Triple],
    interval: Duration,
) -> Vec<ClientOutcome> {
    let n = cfg.connections.max(1);
    let mut outs: Vec<ClientOutcome> = (0..n).map(|_| ClientOutcome::default()).collect();
    let Ok(ep) = Epoll::new() else {
        outs[0].protocol_errors += 1;
        return outs;
    };

    // Phase 1: staggered establishment. Loopback connects are quick, so
    // blocking connects on this one thread still hit their offsets.
    let offsets = stagger_offsets(n);
    let ramp_start = Instant::now();
    let mut conns: Vec<Option<OpenConn>> = Vec::with_capacity(n);
    for (i, &offset) in offsets.iter().enumerate() {
        let due = ramp_start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match TcpStream::connect(&cfg.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                if epoll::set_nonblocking(stream.as_raw_fd()).is_err()
                    || ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, i as u64).is_err()
                {
                    outs[i].protocol_errors += 1;
                    conns.push(None);
                    continue;
                }
                conns.push(Some(OpenConn {
                    stream,
                    frame: FrameBuf::new(crate::protocol::MAX_REPLY_BYTES),
                    sendbuf: Vec::new(),
                    send_cursor: 0,
                    outstanding: HashMap::new(),
                    interest: EPOLLIN | EPOLLRDHUP,
                    dead: false,
                    stopped: false,
                }));
            }
            Err(_) => {
                outs[i].protocol_errors += 1;
                conns.push(None);
            }
        }
    }

    // Phase 2: wall-clock-paced sends, reply collection as it happens.
    let budget: Option<u64> = cfg.requests_per_client.map(|r| r as u64 * n as u64);
    let mut rng = cfg.seed;
    let mut seqs = vec![0u64; n];
    let mut sent_total = 0u64;
    let mut rr = 0usize;
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let run_start = Instant::now();
    let mut next_send = run_start;
    let mut iterations = 0u32;
    loop {
        let now = Instant::now();
        let out_of_budget = budget.is_some_and(|b| sent_total >= b)
            || cfg.duration.is_some_and(|d| now - run_start >= d);
        // The everyone-dead check is an O(connections) scan, so amortize
        // it: a few spare 25ms waits before noticing a dead server are
        // cheaper than scanning thousands of sockets every iteration.
        iterations = iterations.wrapping_add(1);
        let all_silent = iterations % 16 == 0
            && conns.iter().all(|c| c.as_ref().is_none_or(|c| c.dead || c.stopped));
        if out_of_budget || all_silent {
            break;
        }

        // Fire every send whose scheduled instant has passed. Round-robin
        // skips dead/stopped sockets but keeps the aggregate rate.
        while next_send <= now {
            if budget.is_some_and(|b| sent_total >= b) {
                break;
            }
            let Some(idx) = pick_conn(&conns, &mut rr) else { break };
            let conn = conns[idx].as_mut().expect("picked live conn");
            let pool_idx = (lcg_next(&mut rng) as usize) % pool.len();
            let id = (idx as u64) * 1_000_000 + seqs[idx];
            seqs[idx] += 1;
            let line = pool[pool_idx].request_line(id);
            conn.sendbuf.extend_from_slice(line.as_bytes());
            conn.sendbuf.push(b'\n');
            conn.outstanding.insert(id, (Instant::now(), pool_idx));
            outs[idx].sent += 1;
            sent_total += 1;
            flush_send(&ep, idx as u64, conn);
            next_send += interval;
        }

        // Sleep in epoll until the next send is due (capped so the loop
        // stays responsive), servicing whatever readiness arrives. The
        // wait is rounded *up* to epoll's millisecond resolution:
        // truncating a sub-ms wait to zero turns this loop into a busy
        // spin that eats the CPU the server needs, while waking ≤1ms late
        // costs nothing — `next_send` is an absolute schedule, so the
        // aggregate rate is preserved.
        let until_due = next_send.saturating_duration_since(Instant::now());
        let timeout_ms = (until_due.as_micros().div_ceil(1000) as i32).clamp(1, 25);
        let Ok(nev) = ep.wait(&mut events, timeout_ms) else { break };
        for ev in &events[..nev] {
            let idx = ev.token() as usize;
            let mask = ev.events();
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else { continue };
            if mask & (EPOLLERR | EPOLLHUP) != 0 {
                kill_conn(&ep, idx as u64, conn);
                continue;
            }
            if mask & EPOLLOUT != 0 {
                flush_send(&ep, idx as u64, conn);
            }
            if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                read_replies(&ep, idx as u64, conn, &mut outs[idx]);
            }
        }
    }

    // Phase 3: grace period for in-flight replies, then account leftovers.
    let grace_end = Instant::now() + REPLY_GRACE;
    loop {
        let in_flight: usize = conns
            .iter()
            .map(|c| c.as_ref().map_or(0, |c| if c.dead { 0 } else { c.outstanding.len() }))
            .sum();
        if in_flight == 0 || Instant::now() >= grace_end {
            break;
        }
        let Ok(nev) = ep.wait(&mut events, 25) else { break };
        for ev in &events[..nev] {
            let idx = ev.token() as usize;
            let mask = ev.events();
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else { continue };
            if mask & EPOLLOUT != 0 {
                flush_send(&ep, idx as u64, conn);
            }
            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                read_replies(&ep, idx as u64, conn, &mut outs[idx]);
            }
        }
    }
    for (i, conn) in conns.iter().enumerate() {
        if let Some(conn) = conn {
            // A request the server never answered (socket died or the
            // grace period ran out) is a protocol failure.
            outs[i].protocol_errors += conn.outstanding.len() as u64;
        }
    }
    outs
}

/// Next live sendable connection at or after the round-robin cursor.
fn pick_conn(conns: &[Option<OpenConn>], rr: &mut usize) -> Option<usize> {
    let n = conns.len();
    for step in 0..n {
        let idx = (*rr + step) % n;
        if conns[idx].as_ref().is_some_and(|c| !c.dead && !c.stopped) {
            *rr = (idx + 1) % n;
            return Some(idx);
        }
    }
    None
}

fn kill_conn(ep: &Epoll, token: u64, conn: &mut OpenConn) {
    if !conn.dead {
        conn.dead = true;
        let _ = ep.delete(conn.stream.as_raw_fd());
        let _ = token;
    }
}

/// Push buffered request bytes into the socket; keep `EPOLLOUT` armed
/// only while a backlog remains.
fn flush_send(ep: &Epoll, token: u64, conn: &mut OpenConn) {
    if conn.dead {
        return;
    }
    while conn.send_cursor < conn.sendbuf.len() {
        match conn.stream.write(&conn.sendbuf[conn.send_cursor..]) {
            Ok(0) => {
                kill_conn(ep, token, conn);
                return;
            }
            Ok(n) => conn.send_cursor += n,
            Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
            Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
            Err(_) => {
                kill_conn(ep, token, conn);
                return;
            }
        }
    }
    if conn.send_cursor == conn.sendbuf.len() {
        conn.sendbuf.clear();
        conn.send_cursor = 0;
    }
    let want = EPOLLIN | EPOLLRDHUP | if conn.pending_send() > 0 { EPOLLOUT } else { 0 };
    if want != conn.interest {
        conn.interest = want;
        let _ = ep.modify(conn.stream.as_raw_fd(), want, token);
    }
}

/// Drain the socket and classify every complete reply line, mirroring
/// the closed-loop client's taxonomy exactly.
fn read_replies(ep: &Epoll, token: u64, conn: &mut OpenConn, out: &mut ClientOutcome) {
    if conn.dead {
        return;
    }
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.frame.finish_eof();
                kill_conn(ep, token, conn);
                break;
            }
            Ok(n) => conn.frame.push(&buf[..n]),
            Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
            Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
            Err(_) => {
                kill_conn(ep, token, conn);
                break;
            }
        }
    }
    loop {
        let parsed = match conn.frame.next_line() {
            None => break,
            Some(Frame::Oversized) => None,
            Some(Frame::Line(bytes)) => {
                std::str::from_utf8(bytes).ok().and_then(|l| Json::parse(l).ok())
            }
        };
        let Some(doc) = parsed else {
            out.protocol_errors += 1;
            continue;
        };
        let matched = doc
            .get("id")
            .and_then(Json::as_f64)
            .and_then(|id| conn.outstanding.remove(&(id as u64)));
        let Some((sent_at, pool_idx)) = matched else {
            out.protocol_errors += 1;
            continue;
        };
        let latency_us = sent_at.elapsed().as_secs_f64() * 1e6;
        match doc.get("ok") {
            Some(Json::Bool(true)) => match doc.get("result").and_then(reply_bits) {
                Some(bits) => {
                    let prior = out.replies.entry(pool_idx).or_insert(bits);
                    if *prior != bits {
                        out.divergent_replies = true;
                    }
                    out.ok += 1;
                    out.latencies_us.push(latency_us);
                }
                None => out.protocol_errors += 1,
            },
            Some(Json::Bool(false)) => {
                let kind = doc.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
                match kind {
                    Some("overloaded") => out.overloaded += 1,
                    Some("deadline_exceeded") => out.deadline_exceeded += 1,
                    Some("shutting_down") => {
                        out.shutting_down += 1;
                        conn.stopped = true;
                    }
                    _ => out.protocol_errors += 1,
                }
            }
            _ => out.protocol_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagger_offsets_are_strictly_increasing_and_bounded() {
        // The regression guard for the eager-connect fix: establishment
        // times must be spread out, not all zero.
        for n in [1usize, 2, 16, 256, 10_000, 100_000] {
            let offsets = stagger_offsets(n);
            assert_eq!(offsets.len(), n);
            assert_eq!(offsets[0], Duration::ZERO);
            for pair in offsets.windows(2) {
                assert!(pair[0] < pair[1], "offsets must strictly increase (n={n})");
            }
            assert!(
                *offsets.last().expect("nonempty") <= Duration::from_secs(2),
                "ramp must stay under 2s (n={n})"
            );
        }
    }

    #[test]
    fn stagger_step_shrinks_at_scale_but_never_to_zero() {
        let small = stagger_offsets(4);
        let large = stagger_offsets(100_000);
        let small_step = small[1] - small[0];
        let large_step = large[1] - large[0];
        assert_eq!(small_step, Duration::from_micros(50));
        assert!(large_step < small_step);
        assert!(large_step >= Duration::from_micros(1));
    }
}
