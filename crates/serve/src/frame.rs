//! Incremental zero-copy line framing, and the one blocking connection
//! that frames through it.
//!
//! Every reader of the line protocol splits its byte stream here: the
//! reactor (a shard's, and the fleet router's client face) and the
//! open-loop engine feed [`FrameBuf`] the chunks their nonblocking reads
//! return, and every blocking peer (the fleet router's shard connections
//! and prober, loadgen's closed-loop and control connections,
//! fleet-bench and `repro`'s client commands) reads through a
//! [`LineConn`]. Chunked reassembly must give the line stream a
//! one-shot split of the whole byte stream would give, so it is fuzzed
//! against that split in isolation (see the quickprop test in this file).
//!
//! Semantics:
//!
//! * A line is everything up to (not including) a `\n`; trailing `\r`
//!   bytes are trimmed after the split, so `"x\r\r\n"` frames as `"x"`.
//! * The oversize check applies to the *trimmed* length: a line whose
//!   trimmed body exceeds the limit is reported as [`Frame::Oversized`]
//!   (a server replies `bad_request` exactly like
//!   `protocol::parse_request` does for a too-long line).
//! * Bytes of an oversized line beyond `limit + 1` are discarded on
//!   arrival rather than buffered, so a hostile peer streaming an
//!   unbounded no-newline blob costs O(limit) memory, not O(stream).
//! * Lines that trim to empty are *not* reported — a server skips them
//!   without replying.
//! * At EOF a pending unterminated line is framed as if a final `\n`
//!   had arrived.
//!
//! Zero-copy: completed lines are handed out as `&[u8]` slices into the
//! internal buffer; nothing is copied out per line. The buffer compacts
//! only when fully consumed.

use crate::protocol::MAX_REPLY_BYTES;
use rvhpc_trace::json::Json;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One framed item from the byte stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete line, already trimmed of trailing `\r` (never empty).
    Line(&'a [u8]),
    /// A line whose trimmed length exceeded the configured limit; its
    /// bytes were discarded beyond `limit + 1`.
    Oversized,
}

/// Reassembles `\n`-delimited lines from arbitrary read chunks.
pub(crate) struct FrameBuf {
    /// Trimmed-length limit above which a line is Oversized.
    max_line: usize,
    /// Retained bytes: completed unconsumed lines, then the partial tail.
    buf: Vec<u8>,
    /// Completed lines as (start, trimmed_len, oversized) into `buf`.
    lines: VecDeque<(usize, usize, bool)>,
    /// Where the current partial line starts in `buf`.
    partial_start: usize,
    /// True bytes received for the partial line (may exceed what's kept).
    cur_total: usize,
    /// Trailing-`\r` run length at the end of the partial line so far.
    cur_trailing_cr: usize,
}

impl FrameBuf {
    /// A framer that reports lines trimming longer than `max_line` as
    /// [`Frame::Oversized`].
    pub(crate) fn new(max_line: usize) -> FrameBuf {
        FrameBuf {
            max_line,
            buf: Vec::new(),
            lines: VecDeque::new(),
            partial_start: 0,
            cur_total: 0,
            cur_trailing_cr: 0,
        }
    }

    /// Bytes currently buffered (for bounding checks in tests).
    #[cfg(test)]
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Feed one read chunk into the framer.
    pub(crate) fn push(&mut self, chunk: &[u8]) {
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (seg, after) = rest.split_at(nl);
            self.append_partial(seg);
            self.finish_line();
            rest = &after[1..];
        }
        self.append_partial(rest);
    }

    fn append_partial(&mut self, seg: &[u8]) {
        if seg.is_empty() {
            return;
        }
        self.cur_total += seg.len();
        // Trailing-CR run: continues from the previous chunk only if the
        // whole new segment is CRs and the previous tail ended in CRs.
        let seg_trailing = seg.iter().rev().take_while(|&&b| b == b'\r').count();
        if seg_trailing == seg.len() {
            self.cur_trailing_cr += seg_trailing;
        } else {
            self.cur_trailing_cr = seg_trailing;
        }
        // Keep at most max_line + 1 bytes of the line body; the +1 lets a
        // line that is exactly at the limit plus trimmed CRs stay intact
        // while anything longer is provably oversized without buffering.
        let kept = self.buf.len() - self.partial_start;
        let room = (self.max_line + 1).saturating_sub(kept);
        let take = seg.len().min(room);
        self.buf.extend_from_slice(&seg[..take]);
    }

    fn finish_line(&mut self) {
        let trimmed_total = self.cur_total - self.cur_trailing_cr;
        let kept = self.buf.len() - self.partial_start;
        if trimmed_total == 0 {
            // Blank line (possibly just CRs): skip silently; a keep-alive
            // newline deserves no reply.
            self.buf.truncate(self.partial_start);
        } else if trimmed_total > self.max_line {
            // Oversized: drop whatever bytes we kept.
            self.buf.truncate(self.partial_start);
            self.lines.push_back((self.partial_start, 0, true));
        } else {
            // Within limit: the trimmed body is a prefix of the kept
            // bytes (only trailing CRs beyond `max_line + 1` can have
            // been discarded, and those trim away regardless).
            debug_assert!(kept >= trimmed_total);
            let keep_len = trimmed_total;
            self.buf.truncate(self.partial_start + keep_len);
            self.lines.push_back((self.partial_start, keep_len, false));
            self.partial_start += keep_len;
        }
        self.cur_total = 0;
        self.cur_trailing_cr = 0;
    }

    /// Whether a completed frame is waiting. When none is, everything
    /// framed has been consumed, so the partial tail moves to the front.
    fn ready(&mut self) -> bool {
        if self.lines.is_empty() && self.partial_start > 0 {
            self.buf.drain(..self.partial_start);
            self.partial_start = 0;
        }
        !self.lines.is_empty()
    }

    /// Pop the next completed frame, if any. Returned slices borrow the
    /// internal buffer; interleave calls with [`FrameBuf::push`] freely —
    /// each call re-borrows.
    pub(crate) fn next_line(&mut self) -> Option<Frame<'_>> {
        if !self.ready() {
            return None;
        }
        let (start, len, oversized) = self.lines.pop_front().expect("non-empty");
        if oversized {
            Some(Frame::Oversized)
        } else {
            Some(Frame::Line(&self.buf[start..start + len]))
        }
    }

    /// Whether a partial (unterminated) line is pending.
    #[cfg(test)]
    pub(crate) fn has_partial(&self) -> bool {
        self.cur_total > 0
    }

    /// Close the stream: frame any pending partial line as if a final
    /// `\n` arrived, so a client that half-closes after an unterminated
    /// final request still gets its answer.
    pub(crate) fn finish_eof(&mut self) {
        if self.cur_total > 0 {
            self.finish_line();
        }
    }
}

/// How long [`LineConn::connect`] waits for each resolved address.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// A blocking line-JSON connection: one `TcpStream` read through the
/// reactor's `FrameBuf`, so a blocking peer splits, trims, bounds and
/// ends lines exactly as the reactor does, and keeps a partial line
/// across read timeouts.
pub struct LineConn {
    stream: TcpStream,
    frame: FrameBuf,
    eof: bool,
}

impl LineConn {
    /// Connect to a server at `addr`, waiting at most a second for each
    /// address it resolves to. Reads time out after `read_timeout`, and
    /// replies are framed under [`MAX_REPLY_BYTES`].
    pub fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<LineConn> {
        let mut last = io::Error::new(ErrorKind::InvalidInput, "address resolves to nothing");
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(read_timeout))?;
                    let frame = FrameBuf::new(MAX_REPLY_BYTES);
                    return Ok(LineConn { stream, frame, eof: false });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Write `line` and its terminating `\n` in one write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// The next framed line, reading as needed; `None` once the peer has
    /// closed and every line before the close was returned. A read
    /// timeout is returned as an error and loses nothing: the partial
    /// line stays buffered for the next call.
    pub fn recv(&mut self) -> io::Result<Option<Frame<'_>>> {
        let mut chunk = [0u8; 16 * 1024];
        while !self.frame.ready() {
            if self.eof {
                return Ok(None);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    self.frame.finish_eof();
                }
                Ok(n) => self.frame.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.frame.next_line())
    }

    /// Send `line` and return its one reply line. A close before the
    /// reply is `UnexpectedEof`; a reply over the bound or not UTF-8 is
    /// `InvalidData`.
    pub fn exchange(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        let limit = self.frame.max_line;
        match self.recv()? {
            Some(Frame::Line(bytes)) => String::from_utf8(bytes.to_vec())
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "reply is not UTF-8")),
            Some(Frame::Oversized) => {
                Err(io::Error::new(ErrorKind::InvalidData, format!("reply exceeds {limit} bytes")))
            }
            None => Err(io::Error::new(ErrorKind::UnexpectedEof, "connection closed")),
        }
    }

    /// [`LineConn::exchange`], with the reply parsed as JSON; a reply that
    /// does not parse is `InvalidData`.
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        let reply = self.exchange(line)?;
        Json::parse(&reply)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("unparseable reply: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain every available frame into owned strings, tagging oversized.
    fn drain(fb: &mut FrameBuf) -> Vec<Result<String, ()>> {
        let mut out = Vec::new();
        loop {
            // Borrow ends before the next iteration, so collect eagerly.
            let item = match fb.next_line() {
                None => break,
                Some(Frame::Oversized) => Err(()),
                Some(Frame::Line(l)) => Ok(String::from_utf8(l.to_vec()).expect("utf8")),
            };
            out.push(item);
        }
        out
    }

    /// The one-shot oracle: what splitting the full byte stream on `\n`
    /// and trimming each line produces.
    fn oneshot(stream: &[u8], max_line: usize) -> Vec<Result<String, ()>> {
        let mut out = Vec::new();
        for line in stream.split(|&b| b == b'\n') {
            let mut end = line.len();
            while end > 0 && line[end - 1] == b'\r' {
                end -= 1;
            }
            let trimmed = &line[..end];
            if trimmed.is_empty() {
                continue;
            }
            if trimmed.len() > max_line {
                out.push(Err(()));
            } else {
                out.push(Ok(String::from_utf8(trimmed.to_vec()).expect("utf8")));
            }
        }
        out
    }

    #[test]
    fn whole_lines_in_one_chunk() {
        let mut fb = FrameBuf::new(64);
        fb.push(b"alpha\nbeta\r\n\ngamma\r\r\n");
        assert_eq!(
            drain(&mut fb),
            vec![Ok("alpha".to_string()), Ok("beta".to_string()), Ok("gamma".to_string())]
        );
        assert!(!fb.has_partial());
        assert_eq!(fb.buffered_bytes(), 0);
    }

    #[test]
    fn split_across_every_boundary() {
        let stream = b"hello world\r\nsecond\n";
        for cut in 0..stream.len() {
            let mut fb = FrameBuf::new(64);
            fb.push(&stream[..cut]);
            fb.push(&stream[cut..]);
            assert_eq!(
                drain(&mut fb),
                vec![Ok("hello world".to_string()), Ok("second".to_string())],
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn byte_at_a_time() {
        let mut fb = FrameBuf::new(8);
        let mut got = Vec::new();
        for &b in b"ab\rc\r\n\r\nlongerline\nx\n".iter() {
            fb.push(&[b]);
            got.extend(drain(&mut fb));
        }
        assert_eq!(got, vec![Ok("ab\rc".to_string()), Err(()), Ok("x".to_string())]);
    }

    #[test]
    fn oversized_line_is_reported_and_memory_bounded() {
        let limit = 16;
        let mut fb = FrameBuf::new(limit);
        // Stream far more than the limit with no newline: memory stays
        // O(limit), not O(stream).
        for _ in 0..100 {
            fb.push(&[b'x'; 64]);
            assert!(fb.buffered_bytes() <= limit + 1);
        }
        fb.push(b"\nok\n");
        assert_eq!(drain(&mut fb), vec![Err(()), Ok("ok".to_string())]);
    }

    #[test]
    fn exactly_at_limit_is_fine_and_crs_do_not_count() {
        let limit = 8;
        let mut fb = FrameBuf::new(limit);
        let body = "a".repeat(limit);
        // Body exactly at the limit, plus trailing CRs that trim away.
        fb.push(format!("{body}\r\r\n").as_bytes());
        assert_eq!(drain(&mut fb), vec![Ok(body)]);
        // One byte over trims to limit+1: oversized.
        let over = "b".repeat(limit + 1);
        fb.push(format!("{over}\n").as_bytes());
        assert_eq!(drain(&mut fb), vec![Err(())]);
    }

    #[test]
    fn interior_crs_are_preserved() {
        let mut fb = FrameBuf::new(64);
        // CRs followed by more data are body bytes, not trailing.
        fb.push(b"a\r");
        fb.push(b"\rb\r");
        fb.push(b"\n");
        assert_eq!(drain(&mut fb), vec![Ok("a\r\rb".to_string())]);
    }

    #[test]
    fn eof_frames_the_pending_partial_line() {
        let mut fb = FrameBuf::new(8);
        fb.push(b"done\nhalf\r");
        assert_eq!(drain(&mut fb), vec![Ok("done".to_string())]);
        assert!(fb.has_partial());
        fb.finish_eof();
        assert_eq!(drain(&mut fb), vec![Ok("half".to_string())]);
        assert!(!fb.has_partial());
        // EOF with nothing pending frames nothing.
        fb.finish_eof();
        assert_eq!(drain(&mut fb), Vec::<Result<String, ()>>::new());
    }

    #[test]
    fn line_conn_keeps_a_partial_line_across_read_timeouts_and_frames_it_at_eof() {
        use std::net::{Shutdown, TcpListener};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut conn = LineConn::connect(addr, Duration::from_millis(20)).expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        peer.write_all(b"{\"op\":").expect("write");
        let err = conn.recv().map(|_| ()).expect_err("no line is complete yet");
        assert!(matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut), "{err}");
        peer.write_all(b"\"ping\"}\r\n\r\n \n{\"op\"").expect("write");
        assert_eq!(conn.recv().expect("read"), Some(Frame::Line(b"{\"op\":\"ping\"}")));
        assert_eq!(conn.recv().expect("read"), Some(Frame::Line(b" ")));
        peer.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(conn.recv().expect("read"), Some(Frame::Line(b"{\"op\"")));
        assert_eq!(conn.recv().expect("read"), None);
    }

    #[test]
    fn quickprop_random_chunking_matches_oneshot_parser() {
        // Satellite: random chunk boundaries over valid / invalid /
        // oversized / CR-ful lines must yield the same frame stream as
        // the one-shot parser. Seed-reproducible via RVHPC_SEED.
        rvhpc_quickprop::run_cases(200, |g| {
            let max_line = g.usize_in(1..=48);
            let nlines = g.usize_in(0..=8);
            let mut stream: Vec<u8> = Vec::new();
            for _ in 0..nlines {
                let len = g.usize_in(0..=2 * max_line);
                for _ in 0..len {
                    // Printable-ish bytes plus interior CRs; never \n.
                    let b = *g.choose(b"az0{ \r");
                    stream.push(b);
                }
                let crs = g.usize_in(0..=3);
                stream.extend(std::iter::repeat_n(b'\r', crs));
                stream.push(b'\n');
            }
            if g.bool_with(0.3) {
                // Unterminated tail: must simply never be framed.
                let len = g.usize_in(1..=max_line);
                stream.extend(std::iter::repeat_n(b'q', len));
            }
            let expect = {
                // Without EOF an unterminated tail is never framed (only
                // `finish_eof` frames it), so frame-level equivalence is
                // over complete lines only; the oracle ignores the tail.
                let upto = match stream.iter().rposition(|&b| b == b'\n') {
                    Some(p) => &stream[..p + 1],
                    None => &stream[..0],
                };
                oneshot(upto, max_line)
            };

            let mut fb = FrameBuf::new(max_line);
            let mut got = Vec::new();
            let mut rest: &[u8] = &stream;
            while !rest.is_empty() {
                let take = g.usize_in(1..=rest.len());
                let (chunk, after) = rest.split_at(take);
                fb.push(chunk);
                got.extend(drain(&mut fb));
                rest = after;
            }
            got.extend(drain(&mut fb));
            assert_eq!(got, expect, "chunked framing diverged from one-shot");
            // Memory bound holds regardless of input shape.
            assert!(fb.buffered_bytes() <= max_line + 1);
        });
    }
}
