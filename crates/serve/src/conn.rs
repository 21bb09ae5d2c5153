//! Per-connection state machine: buffered nonblocking reads, pipelined
//! request parsing, and buffered nonblocking writes.
//!
//! The read buffer is the zero-copy hand-off point: a complete request's
//! body is passed to the dispatcher as a borrowed slice of `rbuf`, the
//! dispatcher appends the full HTTP response into `wbuf`, and only then
//! are the consumed bytes drained. Pipelined requests (several queued in
//! one read) are answered back-to-back in arrival order, which HTTP/1.1
//! requires.
//!
//! Error policy: any malformed request gets a precise status answer with
//! `Connection: close`, then the connection is torn down after the write
//! buffer drains. Re-synchronising a stream after a framing error is
//! guesswork; closing is the only answer that can't amplify the damage.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::http::{self, HeadParse, HttpError, Method};

/// How much to grow the read buffer by per read call.
const READ_CHUNK: usize = 16 * 1024;

/// A request borrowed out of the connection's read buffer.
pub struct Request<'a> {
    pub method: Method,
    /// Request target, e.g. `/services/counter`.
    pub target: &'a [u8],
    /// `Host` header value, if the client sent one.
    pub host: Option<&'a [u8]>,
    /// The raw body bytes (the SOAP envelope on the happy path).
    pub body: &'a [u8],
    /// True for the first request on this connection — the serving-tier
    /// analogue of a TLS handshake (subsequent requests are "resumptions"
    /// in the paper's socket-caching sense).
    pub first_on_connection: bool,
}

/// Something that turns a request into a full HTTP response appended to
/// `out`. Implemented by the server's container dispatcher; tests plug in
/// closures via the blanket impl.
pub trait Dispatch {
    fn dispatch(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>);
}

impl<F: FnMut(Request<'_>, bool, &mut Vec<u8>)> Dispatch for F {
    fn dispatch(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        self(req, keep_alive, out)
    }
}

/// What the event loop should do with the connection after an advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Keep it registered; `wants_write` says whether EPOLLOUT interest
    /// is needed (the write buffer did not fully drain).
    Open { wants_write: bool },
    /// Done — deregister and drop.
    Closed,
}

pub struct Conn {
    stream: TcpStream,
    /// Received bytes in `rbuf[..rlen]`; the rest is initialised room the
    /// next read lands in, so a read never zero-fills its chunk again.
    rbuf: Vec<u8>,
    rlen: usize,
    wbuf: Vec<u8>,
    /// How much of `wbuf` has already been written to the socket.
    wpos: usize,
    /// Set once a close-worthy condition is seen (error answered, client
    /// sent `Connection: close`, or EOF); the connection closes as soon
    /// as `wbuf` drains.
    closing: bool,
    /// Whether the first request has been seen (drives the
    /// handshake-vs-resumption accounting).
    handshaken: bool,
    /// Requests fully answered on this connection.
    requests: u64,
}

impl Conn {
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            handshaken: false,
            requests: 0,
        })
    }

    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Drive the connection forward after a readiness event: read what's
    /// available, answer every complete request, flush what fits.
    pub fn advance(&mut self, dispatch: &mut impl Dispatch) -> Advance {
        if !self.closing {
            match self.fill() {
                Ok(eof) => {
                    self.process(dispatch);
                    if eof {
                        // Clean only if no partial request was buffered;
                        // either way there is nothing more to answer
                        // beyond what's already in wbuf.
                        self.closing = true;
                    }
                }
                Err(_) => return Advance::Closed,
            }
        }
        match self.flush() {
            Ok(()) => {
                if self.pending_write() == 0 && self.closing {
                    Advance::Closed
                } else {
                    Advance::Open {
                        wants_write: self.pending_write() > 0,
                    }
                }
            }
            Err(_) => Advance::Closed,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Read until WouldBlock or EOF. Returns whether EOF was seen.
    fn fill(&mut self) -> io::Result<bool> {
        loop {
            let end = self.rlen + READ_CHUNK;
            if self.rbuf.len() < end {
                self.rbuf.resize(end, 0);
            }
            match self.stream.read(&mut self.rbuf[self.rlen..end]) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.rlen += n;
                    // A short read usually means the socket is drained;
                    // loop once more to be sure only if it was full.
                    if n < READ_CHUNK {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Parse and answer every complete request sitting in `rbuf`.
    fn process(&mut self, dispatch: &mut impl Dispatch) {
        let mut consumed = 0;
        while !self.closing {
            match http::parse_head(&self.rbuf[consumed..self.rlen]) {
                HeadParse::Incomplete => break,
                HeadParse::Parsed(head) => {
                    let body_start = consumed + head.head_len;
                    let body_end = body_start + head.content_length;
                    if self.rlen < body_end {
                        break; // body still in flight
                    }
                    let first = !self.handshaken;
                    self.handshaken = true;
                    let keep_alive = head.keep_alive;
                    let base = consumed;
                    let req = Request {
                        method: head.method,
                        target: &self.rbuf[base + head.target.0..base + head.target.1],
                        host: head.host.map(|(lo, hi)| &self.rbuf[base + lo..base + hi]),
                        body: &self.rbuf[body_start..body_end],
                        first_on_connection: first,
                    };
                    dispatch.dispatch(req, keep_alive, &mut self.wbuf);
                    self.requests += 1;
                    consumed = body_end;
                    if !keep_alive {
                        self.closing = true;
                    }
                }
                HeadParse::Invalid { error, .. } => {
                    self.answer_error(error);
                    self.closing = true;
                }
            }
        }
        if consumed > 0 {
            self.rbuf.copy_within(consumed..self.rlen, 0);
            self.rlen -= consumed;
        }
    }

    fn answer_error(&mut self, error: HttpError) {
        http::write_response(&mut self.wbuf, error.status(), error.reason(), false, "");
    }

    /// Write as much of `wbuf` as the socket accepts.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Conn::new(server).unwrap())
    }

    fn echo(req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        let body = String::from_utf8(req.body.to_vec()).unwrap();
        http::write_response(out, 200, "OK", keep_alive, &body);
    }

    #[test]
    fn answers_two_pipelined_requests_in_order() {
        let (mut client, mut conn) = pair();
        let mut wire = Vec::new();
        http::write_request(&mut wire, "/a", "h", true, "<one/>");
        http::write_request(&mut wire, "/b", "h", true, "<two/>");
        client.write_all(&wire).unwrap();

        let mut firsts = Vec::new();
        let mut d = |req: Request<'_>, ka: bool, out: &mut Vec<u8>| {
            firsts.push(req.first_on_connection);
            echo(req, ka, out)
        };
        // Poll until both responses are out (loopback may need a retry).
        for _ in 0..100 {
            match conn.advance(&mut d) {
                Advance::Open { .. } => {}
                Advance::Closed => panic!("closed early"),
            }
            if conn.requests() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(conn.requests(), 2);
        assert_eq!(firsts, vec![true, false]);

        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        while !String::from_utf8_lossy(&got).contains("<two/>") {
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8(got).unwrap();
        let one = text.find("<one/>").unwrap();
        let two = text.find("<two/>").unwrap();
        assert!(one < two, "pipelined responses out of order");
    }

    #[test]
    fn malformed_request_answers_and_closes() {
        let (mut client, mut conn) = pair();
        client.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut d = echo;
        let mut state = Advance::Open { wants_write: false };
        for _ in 0..100 {
            state = conn.advance(&mut d);
            if state == Advance::Closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(state, Advance::Closed);
        drop(conn);
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(_) => break,
            }
        }
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 400 "), "got: {text}");
        assert!(text.contains("Connection: close"));
    }

    #[test]
    fn eof_mid_body_closes_without_response() {
        let (mut client, mut conn) = pair();
        // Head promises 100 bytes; send only 3 then disconnect.
        client
            .write_all(b"POST /s HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc")
            .unwrap();
        drop(client);
        let mut calls = 0usize;
        let mut d = |req: Request<'_>, ka: bool, out: &mut Vec<u8>| {
            calls += 1;
            echo(req, ka, out)
        };
        let mut state = Advance::Open { wants_write: false };
        for _ in 0..100 {
            state = conn.advance(&mut d);
            if state == Advance::Closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(state, Advance::Closed);
        assert_eq!(calls, 0, "partial request must never reach dispatch");
    }
}
