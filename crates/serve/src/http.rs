//! Zero-copy HTTP/1.1 request-head parsing and response writing.
//!
//! The parser works over the connection's read buffer in place: a parsed
//! [`Head`] holds byte *ranges* into that buffer, never owned strings, so
//! the only per-request allocation on the happy path is the response body
//! (which comes from the SOAP string pool anyway). Only the subset the
//! serving tier needs is implemented: POST with `Content-Length` framing
//! (the SOAP path), bodyless GET (the admin plane), `Host`, `Connection`,
//! and tolerant skipping of everything else. No chunked encoding — the
//! grid clients (and the serving-tier tests' load client) never send it,
//! and a `Transfer-Encoding` header is rejected up front rather than
//! mis-framed. Whether a given listener *accepts* a method is the
//! dispatcher's decision, not the parser's: the service port answers 405
//! to GET, the admin port to POST.

/// Hard cap on the request head (start line + headers + blank line).
pub const DEFAULT_MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body; the biggest signed envelope in the
/// benches is ~4 KB, so 1 MiB is generous without letting a hostile
/// Content-Length pin the worker's buffer.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// The request methods the serving tier understands. Anything else is
/// refused at parse time with 405.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Bodyless reads — the admin plane (`/metrics`, `/healthz`, ...).
    Get,
    /// SOAP request dispatch (Content-Length framed).
    Post,
}

/// A parsed request head. All ranges index into the buffer that was
/// passed to [`parse_head`]; nothing is copied out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    pub method: Method,
    /// Byte range of the request target (`/services/counter`).
    pub target: (usize, usize),
    /// Byte range of the `Host` header value, if present.
    pub host: Option<(usize, usize)>,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// False when the client sent `Connection: close`.
    pub keep_alive: bool,
    /// Total head length in bytes, including the terminating blank line;
    /// the body starts at this offset.
    pub head_len: usize,
}

/// Why a request was rejected before dispatch. Each variant maps to one
/// HTTP status so the connection can answer precisely and (except for
/// `BodyTooLarge`/`HeadTooLarge`, where the rest of the stream is
/// unframed garbage) keep the connection alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed start line or header syntax.
    BadRequest,
    /// A method the parser does not understand, or one the answering
    /// dispatcher does not serve on its port.
    MethodNotAllowed,
    /// Head grew past [`DEFAULT_MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge,
    /// Declared Content-Length above the body cap.
    BodyTooLarge,
    /// Missing or unparsable Content-Length, or chunked encoding.
    LengthRequired,
}

impl HttpError {
    pub fn status(self) -> u16 {
        match self {
            HttpError::BadRequest => 400,
            HttpError::MethodNotAllowed => 405,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::LengthRequired => 411,
        }
    }

    pub fn reason(self) -> &'static str {
        match self {
            HttpError::BadRequest => "Bad Request",
            HttpError::MethodNotAllowed => "Method Not Allowed",
            HttpError::HeadTooLarge => "Request Header Fields Too Large",
            HttpError::BodyTooLarge => "Payload Too Large",
            HttpError::LengthRequired => "Length Required",
        }
    }

    /// Whether the connection can survive this error. Oversized or
    /// unterminated heads leave the stream unframed, so the only safe
    /// move is to answer and close.
    pub fn recoverable(self) -> bool {
        !matches!(self, HttpError::HeadTooLarge | HttpError::BodyTooLarge)
    }
}

/// Outcome of a parse attempt over the bytes buffered so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadParse {
    /// Not enough bytes yet; read more.
    Incomplete,
    /// A complete head was parsed.
    Parsed(Head),
    /// The request is invalid; `consumed` bytes (the head, if it could be
    /// delimited) should be discarded before answering.
    Invalid { error: HttpError, consumed: usize },
}

/// Find `\r\n\r\n` in `buf`, returning the offset just past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn trim(buf: &[u8], mut lo: usize, mut hi: usize) -> (usize, usize) {
    while lo < hi && (buf[lo] == b' ' || buf[lo] == b'\t') {
        lo += 1;
    }
    while hi > lo && (buf[hi - 1] == b' ' || buf[hi - 1] == b'\t') {
        hi -= 1;
    }
    (lo, hi)
}

/// Try to parse one request head from the front of `buf`.
pub fn parse_head(buf: &[u8]) -> HeadParse {
    let head_len = match find_head_end(buf) {
        Some(n) => n,
        None => {
            if buf.len() >= DEFAULT_MAX_HEAD_BYTES {
                return HeadParse::Invalid {
                    error: HttpError::HeadTooLarge,
                    consumed: 0,
                };
            }
            return HeadParse::Incomplete;
        }
    };
    if head_len > DEFAULT_MAX_HEAD_BYTES {
        return HeadParse::Invalid {
            error: HttpError::HeadTooLarge,
            consumed: 0,
        };
    }
    let invalid = |error| HeadParse::Invalid {
        error,
        consumed: head_len,
    };

    // Start line: METHOD SP TARGET SP VERSION CRLF
    let line_end = match buf[..head_len].windows(2).position(|w| w == b"\r\n") {
        Some(n) => n,
        None => return invalid(HttpError::BadRequest),
    };
    let line = &buf[..line_end];
    let sp1 = match line.iter().position(|&b| b == b' ') {
        Some(n) => n,
        None => return invalid(HttpError::BadRequest),
    };
    let sp2 = match line[sp1 + 1..].iter().position(|&b| b == b' ') {
        Some(n) => sp1 + 1 + n,
        None => return invalid(HttpError::BadRequest),
    };
    let method = &line[..sp1];
    let target = (sp1 + 1, sp2);
    let version = &line[sp2 + 1..];
    if target.0 == target.1 {
        return invalid(HttpError::BadRequest);
    }
    if version != b"HTTP/1.1" && version != b"HTTP/1.0" {
        return invalid(HttpError::BadRequest);
    }
    let method = match method {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        _ => return invalid(HttpError::MethodNotAllowed),
    };

    // Headers.
    let mut host = None;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == b"HTTP/1.1";
    let mut pos = line_end + 2;
    while pos + 2 <= head_len {
        let rest = &buf[pos..head_len];
        let eol = match rest.windows(2).position(|w| w == b"\r\n") {
            Some(n) => n,
            None => return invalid(HttpError::BadRequest),
        };
        if eol == 0 {
            break; // blank line: end of headers
        }
        let line = &rest[..eol];
        let colon = match line.iter().position(|&b| b == b':') {
            Some(n) => n,
            None => return invalid(HttpError::BadRequest),
        };
        let name = &line[..colon];
        let (vlo, vhi) = trim(buf, pos + colon + 1, pos + eol);
        if name.eq_ignore_ascii_case(b"host") {
            host = Some((vlo, vhi));
        } else if name.eq_ignore_ascii_case(b"content-length") {
            // RFC 7230 §3.3.2: a message with more than one Content-Length
            // is malformed — repeated headers (even with identical values)
            // are how request-smuggling splits a body between two parsers,
            // so the answer is 400, not last-wins.
            if content_length.is_some() {
                return invalid(HttpError::BadRequest);
            }
            let digits = &buf[vlo..vhi];
            if digits.is_empty() || !digits.iter().all(|b| b.is_ascii_digit()) {
                return invalid(HttpError::LengthRequired);
            }
            let mut n: usize = 0;
            for &d in digits {
                n = match n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add((d - b'0') as usize))
                {
                    Some(n) => n,
                    None => return invalid(HttpError::BodyTooLarge),
                };
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case(b"connection") {
            let v = &buf[vlo..vhi];
            if v.eq_ignore_ascii_case(b"close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case(b"keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            // Chunked framing is out of scope; refuse rather than mis-frame.
            return invalid(HttpError::LengthRequired);
        }
        pos += eol + 2;
    }

    // GET is bodyless: a missing Content-Length means zero. POST without
    // one is unframed and must be refused.
    let content_length = match (content_length, method) {
        (Some(n), _) => n,
        (None, Method::Get) => 0,
        (None, Method::Post) => return invalid(HttpError::LengthRequired),
    };
    if content_length > DEFAULT_MAX_BODY_BYTES {
        return invalid(HttpError::BodyTooLarge);
    }

    HeadParse::Parsed(Head {
        method,
        target,
        host,
        content_length,
        keep_alive,
        head_len,
    })
}

/// Append a response head + body to `out`. `body` is written verbatim;
/// the head is composed without `format!` so the hot path stays off the
/// allocator once `out` has warmed up.
pub fn write_response(out: &mut Vec<u8>, status: u16, reason: &str, keep_alive: bool, body: &str) {
    write_response_typed(
        out,
        status,
        reason,
        keep_alive,
        "text/xml; charset=utf-8",
        body,
    );
}

/// [`write_response`] with an explicit Content-Type — the admin plane
/// serves `text/plain` (Prometheus exposition) and `application/json`
/// next to the SOAP port's `text/xml`.
pub fn write_response_typed(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    keep_alive: bool,
    content_type: &str,
    body: &str,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    let mut digits = [0u8; 3];
    digits[0] = b'0' + (status / 100) as u8;
    digits[1] = b'0' + (status / 10 % 10) as u8;
    digits[2] = b'0' + (status % 10) as u8;
    out.extend_from_slice(&digits);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(itoa(body.len()).as_bytes());
    if keep_alive {
        out.extend_from_slice(b"\r\nConnection: keep-alive\r\n\r\n");
    } else {
        out.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    }
    out.extend_from_slice(body.as_bytes());
}

/// Append a minimal request (what the serving-tier tests send) to `out`.
pub fn write_request(out: &mut Vec<u8>, target: &str, host: &str, keep_alive: bool, body: &str) {
    out.extend_from_slice(b"POST ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: ");
    out.extend_from_slice(itoa(body.len()).as_bytes());
    if keep_alive {
        out.extend_from_slice(b"\r\n\r\n");
    } else {
        out.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    }
    out.extend_from_slice(body.as_bytes());
}

/// Append a bodyless GET request (what the admin scraper sends) to `out`.
pub fn write_get_request(out: &mut Vec<u8>, target: &str, host: &str, keep_alive: bool) {
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    if keep_alive {
        out.extend_from_slice(b"\r\n\r\n");
    } else {
        out.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    }
}

/// Tiny stack-allocated integer formatter.
struct Itoa {
    buf: [u8; 20],
    start: usize,
}

impl Itoa {
    fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

fn itoa(mut n: usize) -> Itoa {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    Itoa { buf, start: i }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_request(&mut out, "/services/counter", "host-a", true, body);
        out
    }

    #[test]
    fn parses_roundtripped_request() {
        let wire = req("<x/>");
        match parse_head(&wire) {
            HeadParse::Parsed(h) => {
                assert_eq!(&wire[h.target.0..h.target.1], b"/services/counter");
                let (lo, hi) = h.host.unwrap();
                assert_eq!(&wire[lo..hi], b"host-a");
                assert_eq!(h.content_length, 4);
                assert!(h.keep_alive);
                assert_eq!(&wire[h.head_len..], b"<x/>");
            }
            other => panic!("expected parse, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_until_blank_line() {
        let wire = req("<x/>");
        for cut in 1..20 {
            assert_eq!(parse_head(&wire[..cut]), HeadParse::Incomplete);
        }
    }

    #[test]
    fn connection_close_clears_keep_alive() {
        let mut out = Vec::new();
        write_request(&mut out, "/s", "h", false, "<x/>");
        match parse_head(&out) {
            HeadParse::Parsed(h) => assert!(!h.keep_alive),
            other => panic!("expected parse, got {other:?}"),
        }
    }

    #[test]
    fn get_parses_without_content_length() {
        let mut wire = Vec::new();
        write_get_request(&mut wire, "/metrics", "h", true);
        match parse_head(&wire) {
            HeadParse::Parsed(h) => {
                assert_eq!(h.method, Method::Get);
                assert_eq!(&wire[h.target.0..h.target.1], b"/metrics");
                assert_eq!(h.content_length, 0);
                assert_eq!(h.head_len, wire.len());
                assert!(h.keep_alive);
            }
            other => panic!("expected parse, got {other:?}"),
        }
    }

    #[test]
    fn unknown_method_is_method_not_allowed() {
        let wire = b"DELETE /s HTTP/1.1\r\nHost: h\r\n\r\n";
        match parse_head(wire) {
            HeadParse::Invalid { error, consumed } => {
                assert_eq!(error, HttpError::MethodNotAllowed);
                assert_eq!(consumed, wire.len());
                assert!(error.recoverable());
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn missing_content_length_is_411() {
        let wire = b"POST /s HTTP/1.1\r\nHost: h\r\n\r\n";
        match parse_head(wire) {
            HeadParse::Invalid { error, .. } => assert_eq!(error, HttpError::LengthRequired),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn oversized_content_length_is_413() {
        let wire = format!(
            "POST /s HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        match parse_head(wire.as_bytes()) {
            HeadParse::Invalid { error, .. } => {
                assert_eq!(error, HttpError::BodyTooLarge);
                assert!(!error.recoverable());
            }
            other => panic!("expected invalid, got {other:?}"),
        }
        // Absurd overflow-scale lengths too.
        let wire = b"POST /s HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        match parse_head(wire) {
            HeadParse::Invalid { error, .. } => assert_eq!(error, HttpError::BodyTooLarge),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_giant_head_is_431() {
        let mut wire = b"POST /s HTTP/1.1\r\n".to_vec();
        wire.resize(DEFAULT_MAX_HEAD_BYTES + 1, b'a');
        match parse_head(&wire) {
            HeadParse::Invalid { error, .. } => {
                assert_eq!(error, HttpError::HeadTooLarge);
                assert!(!error.recoverable());
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn chunked_is_refused() {
        let wire = b"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        match parse_head(wire) {
            HeadParse::Invalid { error, .. } => assert_eq!(error, HttpError::LengthRequired),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_content_length_is_400_never_last_wins() {
        // RFC 7230 §3.3.2: conflicting values, repeated identical values,
        // and a valid length shadowed by garbage are all malformed — the
        // smuggling-prone "last value wins" answer is exactly the bug.
        let cases: &[&[u8]] = &[
            b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
            b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
            b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: zzz\r\n\r\n",
        ];
        for case in cases {
            match parse_head(case) {
                HeadParse::Invalid { error, .. } => {
                    assert_eq!(
                        error,
                        HttpError::BadRequest,
                        "{}",
                        String::from_utf8_lossy(case)
                    );
                }
                other => panic!("expected invalid, got {other:?}"),
            }
        }
        // A single Content-Length still frames normally.
        let ok = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(parse_head(ok), HeadParse::Parsed(_)));
    }

    #[test]
    fn garbage_start_line_is_400() {
        match parse_head(b"nonsense\r\n\r\n") {
            HeadParse::Invalid { error, .. } => assert_eq!(error, HttpError::BadRequest),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn response_writer_formats_statuses() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", true, "<ok/>");
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 5\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n<ok/>"));

        let mut out = Vec::new();
        write_response(&mut out, 431, "Request Header Fields Too Large", false, "");
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 431 "));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.contains("Content-Length: 0\r\n"));
    }
}
