//! The socket driver: one thread, a few keep-alive connections, a fixed
//! number of pipelined requests in flight on each (a closed loop).
//!
//! A window of one request measures the host's cross-thread wake-up path,
//! not the program, and that path's cost moves by a factor of four between
//! runs on a shared machine. With several requests in flight the single
//! server worker never sleeps, so what is timed is the program's own work.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ogsa_core::serve::epoll::{
    Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// What the front of a receive buffer holds.
#[derive(Debug, PartialEq, Eq)]
pub enum Framed {
    /// Not a whole response yet: read more.
    Incomplete,
    /// One whole response of `len` bytes whose body starts at `body_start`.
    Response {
        len: usize,
        status: u16,
        body_start: usize,
    },
    /// Not an HTTP/1.x response, or one without a usable Content-Length.
    Malformed,
}

/// Frame one `Content-Length`-delimited HTTP/1.1 response at the front of
/// `buf`. Pipelined responses arrive back to back and split anywhere, so the
/// caller keeps the unconsumed tail and calls again after the next read.
pub fn frame_response(buf: &[u8]) -> Framed {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Framed::Incomplete;
    };
    let body_start = head_end + 4;
    let head = &buf[..head_end];
    if head.len() < 12
        || !head.starts_with(b"HTTP/1.")
        || !head[9..12].iter().all(u8::is_ascii_digit)
    {
        return Framed::Malformed;
    }
    let status = head[9..12]
        .iter()
        .fold(0u16, |acc, d| acc * 10 + u16::from(d - b'0'));
    let mut content_length = None;
    for line in head.split(|&b| b == b'\n') {
        let name = b"content-length:";
        if line.len() > name.len() && line[..name.len()].eq_ignore_ascii_case(name) {
            content_length = std::str::from_utf8(&line[name.len()..])
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok());
        }
    }
    let Some(content_length) = content_length else {
        return Framed::Malformed;
    };
    match body_start.checked_add(content_length) {
        Some(len) if buf.len() >= len => Framed::Response {
            len,
            status,
            body_start,
        },
        Some(_) => Framed::Incomplete,
        None => Framed::Malformed,
    }
}

/// One completed request, handed to the caller's observer.
pub struct Completion<'a> {
    pub lane: usize,
    /// Index of the request template that was sent.
    pub template: usize,
    pub sent: Instant,
    pub done: Instant,
    pub status: u16,
    pub body: &'a [u8],
    /// Request plus response bytes on the socket.
    pub wire_bytes: u64,
}

/// When [`ClosedLoop::run`] stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many requests have been sent in this call.
    Sent(u64),
    Deadline(Instant),
}

/// What one connection sends: whole HTTP requests, and the indices into them
/// in sending order (cycled).
pub type LanePlan = (Arc<Vec<Vec<u8>>>, Vec<u32>);

struct Lane {
    stream: TcpStream,
    /// Whole HTTP requests (head and body), sent verbatim.
    templates: Arc<Vec<Vec<u8>>>,
    /// Template indices in the order they are sent, cycled.
    order: Vec<u32>,
    cursor: usize,
    inflight: VecDeque<(Instant, usize)>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wants_write: bool,
    /// A template sent every so often besides the ordered ones, and when it
    /// is next due.
    periodic: Option<(usize, Duration, Instant)>,
}

/// The closed-loop driver over its lanes.
pub struct ClosedLoop {
    ep: Epoll,
    lanes: Vec<Lane>,
    window: usize,
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ClosedLoop {
    /// Connect one keep-alive connection per `(templates, order)` pair.
    pub fn connect(
        addr: SocketAddr,
        lanes: Vec<LanePlan>,
        window: usize,
    ) -> io::Result<ClosedLoop> {
        let ep = Epoll::new()?;
        let mut out = Vec::with_capacity(lanes.len());
        for (i, (templates, order)) in lanes.into_iter().enumerate() {
            assert!(!templates.is_empty() && !order.is_empty());
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, i as u64)?;
            out.push(Lane {
                stream,
                templates,
                order,
                cursor: 0,
                inflight: VecDeque::with_capacity(window),
                rbuf: Vec::with_capacity(64 * 1024),
                wbuf: Vec::with_capacity(16 * 1024),
                wants_write: false,
                periodic: None,
            });
        }
        Ok(ClosedLoop {
            ep,
            lanes: out,
            window,
        })
    }

    /// Besides its ordered requests, send `template` on `lane` every `every`.
    /// It takes a place in the window but is not counted as sent.
    pub fn send_periodically(&mut self, lane: usize, template: usize, every: Duration) {
        assert!(template < self.lanes[lane].templates.len());
        self.lanes[lane].periodic = Some((template, every, Instant::now()));
    }

    /// Keep `window` requests in flight on every lane until `until`, then
    /// send nothing more and wait for what is in flight. Every response goes
    /// to `observe`. Returns the number of requests sent.
    pub fn run(
        &mut self,
        until: Until,
        observe: &mut dyn FnMut(Completion<'_>),
    ) -> io::Result<u64> {
        let mut sent = 0u64;
        let mut events = [EpollEvent::zeroed(); 8];
        let stopped = |sent: u64| match until {
            Until::Sent(n) => sent >= n,
            Until::Deadline(t) => Instant::now() >= t,
        };
        for i in 0..self.lanes.len() {
            self.refill(i, &mut sent, &stopped)?;
        }
        while self.lanes.iter().any(|l| !l.inflight.is_empty()) {
            let n = self.ep.wait(&mut events, 10_000)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no response within 10 s",
                ));
            }
            for ev in &events[..n] {
                let (token, bits) = ev.parts();
                let i = token as usize;
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    return Err(bad_data(format!("connection {i} closed by the server")));
                }
                if bits & EPOLLOUT != 0 {
                    self.flush(i)?;
                }
                if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                    self.read_responses(i, observe)?;
                    self.refill(i, &mut sent, &stopped)?;
                }
            }
        }
        Ok(sent)
    }

    fn refill(
        &mut self,
        i: usize,
        sent: &mut u64,
        stopped: &dyn Fn(u64) -> bool,
    ) -> io::Result<()> {
        let lane = &mut self.lanes[i];
        let before = lane.wbuf.len();
        while lane.inflight.len() < self.window && !stopped(*sent) {
            let now = Instant::now();
            let template = match &mut lane.periodic {
                Some((template, every, due)) if now >= *due => {
                    *due = now + *every;
                    *template
                }
                _ => {
                    lane.cursor += 1;
                    *sent += 1;
                    lane.order[(lane.cursor - 1) % lane.order.len()] as usize
                }
            };
            lane.wbuf.extend_from_slice(&lane.templates[template]);
            lane.inflight.push_back((now, template));
        }
        if lane.wbuf.len() > before {
            self.flush(i)?;
        }
        Ok(())
    }

    fn flush(&mut self, i: usize) -> io::Result<()> {
        let lane = &mut self.lanes[i];
        let mut written = 0;
        while written < lane.wbuf.len() {
            match lane.stream.write(&lane.wbuf[written..]) {
                Ok(0) => return Err(bad_data("socket accepted no bytes")),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        lane.wbuf.drain(..written);
        let wants_write = !lane.wbuf.is_empty();
        if wants_write != lane.wants_write {
            lane.wants_write = wants_write;
            let mut interest = EPOLLIN | EPOLLRDHUP;
            if wants_write {
                interest |= EPOLLOUT;
            }
            self.ep
                .modify(lane.stream.as_raw_fd(), interest, i as u64)?;
        }
        Ok(())
    }

    fn read_responses(
        &mut self,
        i: usize,
        observe: &mut dyn FnMut(Completion<'_>),
    ) -> io::Result<()> {
        let lane = &mut self.lanes[i];
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match lane.stream.read(&mut chunk) {
                Ok(0) => return Err(bad_data(format!("connection {i} closed mid-run"))),
                Ok(n) => lane.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut consumed = 0;
        loop {
            match frame_response(&lane.rbuf[consumed..]) {
                Framed::Incomplete => break,
                Framed::Malformed => return Err(bad_data("unframable response")),
                Framed::Response {
                    len,
                    status,
                    body_start,
                } => {
                    let (sent, template) = lane
                        .inflight
                        .pop_front()
                        .ok_or_else(|| bad_data("response without a request"))?;
                    observe(Completion {
                        lane: i,
                        template,
                        sent,
                        done: Instant::now(),
                        status,
                        body: &lane.rbuf[consumed + body_start..consumed + len],
                        wire_bytes: (lane.templates[template].len() + len) as u64,
                    });
                    consumed += len;
                }
            }
        }
        lane.rbuf.drain(..consumed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_core::serve::http;

    fn three_responses() -> (Vec<u8>, Vec<usize>) {
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for body in [
            "<a/>",
            "",
            "<soap>a longer body with \r\n\r\n inside</soap>",
        ] {
            http::write_response(&mut wire, 200, "OK", true, body);
            ends.push(wire.len());
        }
        (wire, ends)
    }

    #[test]
    fn frames_pipelined_responses_across_every_split() {
        let (wire, ends) = three_responses();
        // Deliver the stream in two reads split at every possible offset: a
        // response is framed exactly when its last byte has arrived.
        for cut in 0..=wire.len() {
            let mut buf: Vec<u8> = Vec::new();
            let mut framed = 0;
            for (part, arrived) in [(&wire[..cut], cut), (&wire[cut..], wire.len())] {
                buf.extend_from_slice(part);
                while let Framed::Response { len, status, .. } = frame_response(&buf) {
                    assert_eq!(status, 200);
                    framed += 1;
                    buf.drain(..len);
                }
                let whole = ends.iter().filter(|&&e| e <= arrived).count();
                assert_eq!(framed, whole, "cut at {cut}");
            }
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn body_bytes_are_exactly_the_content_length() {
        let mut wire = Vec::new();
        http::write_response(&mut wire, 500, "Internal Server Error", false, "boom");
        wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        match frame_response(&wire) {
            Framed::Response {
                len,
                status,
                body_start,
            } => {
                assert_eq!(status, 500);
                assert_eq!(&wire[body_start..len], b"boom");
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed_not_a_hang() {
        assert_eq!(frame_response(b"SMTP ready\r\n\r\n"), Framed::Malformed);
        assert_eq!(
            frame_response(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n"),
            Framed::Malformed
        );
        assert_eq!(frame_response(b"HTTP/1.1 2"), Framed::Incomplete);
    }
}
