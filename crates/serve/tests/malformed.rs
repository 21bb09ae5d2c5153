//! Malformed-HTTP robustness: truncated heads, oversized Content-Length,
//! mid-body disconnects, and the PR-1 fault-plan garble corpus as
//! payloads. Every case must produce a clean error answer or a clean
//! close — never a panicked worker — and the server must keep serving
//! well-formed traffic afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ogsa_serve::{ServeConfig, Server};
use ogsa_soap::Envelope;
use ogsa_transport::{FaultPlan, Network};
use ogsa_xml::Element;

fn echo_network() -> Network {
    let net = Network::free();
    net.bind(
        "http://host-a/services/echo",
        std::sync::Arc::new(|req: Envelope| Envelope::new(req.body)),
    );
    net
}

fn well_formed_request() -> Vec<u8> {
    let env = Envelope::new(Element::text_element("Ping", "ok"));
    let mut wire = Vec::new();
    ogsa_serve::http::write_request(&mut wire, "/services/echo", "host-a", false, &env.to_wire());
    wire
}

/// Send raw bytes, read whatever comes back until close.
fn exchange(server: &Server, bytes: &[u8], half_close: bool) -> String {
    let mut c = TcpStream::connect(server.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(bytes).expect("write");
    if half_close {
        let _ = c.shutdown(std::net::Shutdown::Write);
    }
    let mut out = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match c.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The server must still answer a well-formed request (i.e. no worker
/// died handling the garbage before it).
fn assert_still_serving(server: &Server) {
    let text = exchange(server, &well_formed_request(), true);
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "server no longer serving: {text}"
    );
}

#[test]
fn truncated_heads_get_answers_or_clean_closes() {
    let net = echo_network();
    let server = Server::bind(&net, ServeConfig::default()).expect("bind");
    let full = well_formed_request();
    // Cut the request off at various points inside the head: the server
    // must close cleanly (half-close signals no more bytes are coming).
    for cut in [1usize, 5, 17, 40] {
        let text = exchange(&server, &full[..cut.min(full.len())], true);
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 4"),
            "cut at {cut}: unexpected reply {text}"
        );
    }
    assert_still_serving(&server);
}

#[test]
fn oversized_content_length_is_rejected_not_buffered() {
    let net = echo_network();
    let server = Server::bind(&net, ServeConfig::default()).expect("bind");
    let huge = format!(
        "POST /services/echo HTTP/1.1\r\nHost: host-a\r\nContent-Length: {}\r\n\r\n",
        usize::MAX
    );
    let text = exchange(&server, huge.as_bytes(), false);
    assert!(text.starts_with("HTTP/1.1 413 "), "got: {text}");
    assert!(text.contains("Connection: close"));
    assert_still_serving(&server);
}

#[test]
fn unterminated_giant_head_is_431() {
    let net = echo_network();
    let server = Server::bind(&net, ServeConfig::default()).expect("bind");
    let mut junk = b"POST /services/echo HTTP/1.1\r\n".to_vec();
    junk.resize(64 * 1024, b'x');
    let text = exchange(&server, &junk, false);
    assert!(text.starts_with("HTTP/1.1 431 "), "got: {text}");
    assert_still_serving(&server);
}

#[test]
fn mid_body_disconnect_is_a_clean_close() {
    let net = echo_network();
    let server = Server::bind(&net, ServeConfig::default()).expect("bind");
    let full = well_formed_request();
    let head_end = full.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    // Head plus half the body, then disconnect.
    let cut = head_end + (full.len() - head_end) / 2;
    let text = exchange(&server, &full[..cut], true);
    assert!(
        text.is_empty(),
        "partial request must not be answered: {text}"
    );
    assert_eq!(server.stats().dispatch_panics(), 0);
    assert_still_serving(&server);
}

#[test]
fn garbled_envelope_corpus_yields_400s_not_panics() {
    let net = echo_network();
    let server = Server::bind(&net, ServeConfig::default()).expect("bind");
    let env = Envelope::new(Element::text_element("Ping", "ok"));
    let clean = env.to_wire();
    // PR-1's deterministic garble corpus: truncate at a seeded point and
    // append bytes that cannot parse as XML.
    let plan = FaultPlan::seeded(0xC0FFEE).with_garbles(1.0);
    for seq in 0..24u64 {
        let garbled = plan.garble_wire(&clean, seq);
        let mut wire = Vec::new();
        ogsa_serve::http::write_request(&mut wire, "/services/echo", "host-a", false, &garbled);
        let text = exchange(&server, &wire, false);
        assert!(
            text.starts_with("HTTP/1.1 400 "),
            "garble #{seq} should be a 400: {text}"
        );
    }
    assert_eq!(server.stats().dispatch_panics(), 0);
    assert_eq!(server.stats().http_errors(), 24);
    assert_still_serving(&server);
}

/// A well-formed envelope under the body limit whose Body nests 140 000
/// elements deep. Unbounded, its tree overflowed the worker's stack when it
/// was dropped and aborted the whole process; the reader now refuses it.
#[test]
fn a_deeply_nested_body_is_refused_not_fatal() {
    let net = echo_network();
    // One worker, so the follow-up request lands on the worker that read it.
    let server = Server::bind(
        &net,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let depth = 140_000;
    let abyss = format!(">{}{}<", "<a>".repeat(depth), "</a>".repeat(depth));
    let deep = Envelope::new(Element::text_element("Ping", "ok"))
        .to_wire()
        .replacen(">ok<", &abyss, 1);
    assert!(deep.len() > 980_000 && deep.len() < 1 << 20);
    let mut wire = Vec::new();
    ogsa_serve::http::write_request(&mut wire, "/services/echo", "host-a", false, &deep);
    let text = exchange(&server, &wire, false);
    assert!(
        text.starts_with("HTTP/1.1 4") || text.contains("Fault>"),
        "expected a fault or a 4xx: {}",
        &text[..text.len().min(200)]
    );
    assert_eq!(server.stats().dispatch_panics(), 0);
    assert_still_serving(&server);
}

#[test]
fn duplicate_content_length_is_400_on_the_wire() {
    let net = echo_network();
    let server = Server::bind(&net, ServeConfig::default()).expect("bind");
    // RFC 7230 §3.3.2: two differing values, two identical values, and a
    // real value followed by garbage are all 400 — never last-wins framing
    // (the request-smuggling shape).
    let cases: &[&[u8]] = &[
        b"POST /services/echo HTTP/1.1\r\nHost: host-a\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\n<a/>",
        b"POST /services/echo HTTP/1.1\r\nHost: host-a\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n<a/>",
        b"POST /services/echo HTTP/1.1\r\nHost: host-a\r\nContent-Length: 4\r\nContent-Length: gar\r\n\r\n<a/>",
    ];
    for (i, case) in cases.iter().enumerate() {
        let text = exchange(&server, case, true);
        assert!(
            text.starts_with("HTTP/1.1 400 "),
            "case {i}: expected 400, got {text}"
        );
        assert_still_serving(&server);
    }
}

#[test]
fn garbage_bytes_on_the_wire_never_kill_workers() {
    let net = echo_network();
    // One worker, so every piece of garbage lands on the same event loop.
    let server = Server::bind(
        &net,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let cases: &[&[u8]] = &[
        b"\x00\x01\x02\x03\x04\xff\xfe\xfd",
        b"GET / HTTP/1.1\r\nHost: host-a\r\n\r\n",
        b"POST /services/echo HTTP/1.1\r\nContent-Length: nonsense\r\n\r\n",
        b"POST /services/echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        b"completely unframed text with no CRLFCRLF terminator",
        b"\r\n\r\n",
    ];
    for (i, case) in cases.iter().enumerate() {
        let text = exchange(&server, case, true);
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 4"),
            "case {i}: unexpected reply {text}"
        );
        assert_still_serving(&server);
    }
    assert_eq!(server.stats().dispatch_panics(), 0);
}
