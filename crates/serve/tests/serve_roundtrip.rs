//! Socket-level round-trip: a signed WSRF `GetResourceProperty` and a
//! WS-Transfer `Get` over one real loopback keep-alive connection. Two
//! requests, one connection — exactly one serving-tier handshake charged
//! in telemetry, the second request a resumption, mirroring the paper's
//! socket-caching semantics.
//!
//! Then the tier with many requests in flight, driven from the test thread
//! alone: every request is written before any answer is read, so what is
//! checked never waits on a wall-clock threshold. A thousand and
//! twenty-four connections open at once are all served, and the
//! observability plane scrapes consistently while requests are in flight.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_security::SecurityPolicy;
use ogsa_serve::{ObsConfig, ServeConfig, Server};
use ogsa_sim::CostModel;
use ogsa_telemetry::prometheus::parse_exposition;
use ogsa_xmldb::BackendKind;

/// Split a bound address like `http://host-a/services/X` into
/// (`host-a`, `/services/X`).
fn split_address(address: &str) -> (&str, &str) {
    let rest = address
        .strip_prefix("http://")
        .expect("serving tier test uses http addresses");
    let slash = rest.find('/').expect("address has a path");
    (&rest[..slash], &rest[slash..])
}

/// Read exactly one HTTP response off the stream; returns (status, body).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let status: u16 = head[9..12].parse().expect("status code");
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::trim)
                        .map(String::from)
                })
                .and_then(|v| v.parse().ok())
                .expect("Content-Length header");
            let body_start = head_end + 4;
            while buf.len() < body_start + content_length {
                let n = stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "peer closed mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body =
                String::from_utf8(buf[body_start..body_start + content_length].to_vec()).unwrap();
            buf.drain(..body_start + content_length);
            assert!(buf.is_empty(), "unexpected pipelined bytes");
            return (status, body);
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "peer closed mid-head");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn signed_wsrf_and_transfer_round_trip_one_keep_alive_connection() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::X509Sign);
    let wsrf = WsrfCounter::deploy(&container);
    let wxf = TransferCounter::deploy(&container);
    let agent = tb.client("host-b", "CN=socket-client,O=VO", SecurityPolicy::X509Sign);

    // Create one resource per stack over the simulated wire, then talk to
    // both through the real socket.
    let wsrf_counter = wsrf.client(agent.clone()).create().expect("wsrf create");
    let wxf_counter = wxf.client(agent.clone()).create().expect("wxf create");
    wsrf.client(agent.clone()).set(&wsrf_counter, 7).unwrap();
    wxf.client(agent.clone()).set(&wxf_counter, 9).unwrap();

    let (wsrf_addr, wsrf_wire) = agent.prepare_wire(
        &wsrf_counter,
        ogsa_wsrf::proxy::actions::GET_RP,
        ogsa_wsrf::properties::get_property_request("cv"),
    );
    let (wxf_addr, wxf_wire) = agent.prepare_wire(
        &wxf_counter,
        ogsa_transfer::messages::actions::GET,
        ogsa_transfer::messages::get_request(),
    );

    let server = Server::bind(tb.network(), ServeConfig::default()).expect("bind serving tier");
    let mut stream = connect(server.addr());

    // Request 1: WSRF GetResourceProperty.
    let (host, target) = split_address(&wsrf_addr);
    let mut req = Vec::new();
    ogsa_serve::http::write_request(&mut req, target, host, true, &wsrf_wire);
    stream.write_all(&req).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "wsrf response: {body}");
    let resp = agent
        .decode_response(&body)
        .expect("verified wsrf response");
    let value = resp.child_elements().next().expect("property value");
    assert_eq!(value.text().trim(), "7");

    // Request 2: WS-Transfer Get, same connection.
    let (host, target) = split_address(&wxf_addr);
    let mut req = Vec::new();
    ogsa_serve::http::write_request(&mut req, target, host, true, &wxf_wire);
    stream.write_all(&req).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "wxf response: {body}");
    let resp = agent.decode_response(&body).expect("verified wxf response");
    let representation =
        ogsa_transfer::messages::parse_get_response(&resp).expect("GetResponse representation");
    assert_eq!(representation.child_text("value"), Some("9"));

    // One connection, two requests: exactly one handshake, one resumption.
    let metrics = tb.telemetry().metrics().snapshot();
    assert_eq!(metrics.counter("serve.handshakes"), 1);
    assert_eq!(metrics.counter("serve.resumptions"), 1);
    assert_eq!(metrics.counter("serve.requests"), 2);
    assert_eq!(metrics.counter("serve.accepted"), 1);
    assert_eq!(server.stats().accepted(), 1);
    assert_eq!(server.stats().requests(), 2);
    assert_eq!(server.stats().http_errors(), 0);

    // The serving tier nests the container pipeline under its own span.
    let spans = tb.telemetry().finished_spans();
    let serve_spans: Vec<_> = spans.iter().filter(|s| s.name == "serve:request").collect();
    assert_eq!(serve_spans.len(), 2);
    assert!(spans.iter().any(|s| {
        s.name == "container:pipeline" && serve_spans.iter().any(|p| s.parent == Some(p.id))
    }));
}

/// Deploy a signed WS-Transfer counter on `tb`'s `host-a` and return a
/// signed `Get` of it as an HTTP request. Replayed verbatim, it is still
/// verified, and its answer signed, on every dispatch.
fn signed_get(tb: &Testbed, keep_alive: bool) -> Vec<u8> {
    let container = tb.container("host-a", SecurityPolicy::X509Sign);
    let wxf = TransferCounter::deploy(&container);
    let agent = tb.client("host-b", "CN=socket-client,O=VO", SecurityPolicy::X509Sign);
    let counter = wxf.client(agent.clone()).create().expect("create");
    let (addr, wire) = agent.prepare_wire(
        &counter,
        ogsa_transfer::messages::actions::GET,
        ogsa_transfer::messages::get_request(),
    );
    let (host, target) = split_address(&addr);
    let mut req = Vec::new();
    ogsa_serve::http::write_request(&mut req, target, host, keep_alive, &wire);
    req
}

/// A testbed that keeps no spans: the serving tier still captures each
/// request for its flight recorder, and metrics still count.
fn quiet_testbed() -> Testbed {
    Testbed::new_quiet(CostModel::free(), BackendKind::Memory)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

#[test]
fn closing_connection_and_reconnecting_charges_a_second_handshake() {
    let tb = Testbed::free();
    let req = signed_get(&tb, false);
    let server = Server::bind(tb.network(), ServeConfig::default()).expect("bind");
    for _ in 0..2 {
        let mut stream = connect(server.addr());
        stream.write_all(&req).unwrap();
        let (status, _) = read_response(&mut stream);
        assert_eq!(status, 200);
    }
    let metrics = tb.telemetry().metrics().snapshot();
    assert_eq!(metrics.counter("serve.handshakes"), 2);
    assert_eq!(metrics.counter("serve.resumptions"), 0);
}

/// Raise the soft open-file limit toward `want` (capped at the hard
/// limit): the test below holds both ends of 1 024 connections, more than
/// the 1 024 descriptors stock CI runners allow by default. Best effort —
/// a connect that still runs out of descriptors fails with its own error.
fn raise_nofile_limit(want: u64) {
    use std::os::raw::c_ulong;
    /// Linux's `struct rlimit`: two `rlim_t`, which is `unsigned long`.
    #[repr(C)]
    struct Rlimit {
        cur: c_ulong,
        max: c_ulong,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    let want = c_ulong::try_from(want).unwrap_or(c_ulong::MAX);
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: both calls take a pointer to a live, aligned `Rlimit` laid out
    // as the C struct; `getrlimit` writes only that struct and `setrlimit`
    // only reads it.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < want {
            let raised = Rlimit {
                cur: want.min(lim.max),
                max: lim.max,
            };
            setrlimit(RLIMIT_NOFILE, &raised);
        }
    }
}

/// Keep-alive connections held open at once by the test below.
const CONNECTIONS: usize = 1024;

/// All 1 024 connections are opened before any request, as a burst of
/// clients would, on a default two-worker server. Each round writes one
/// request on every connection before reading any answer, so all 1 024
/// are in flight together; the second round reuses every connection.
#[test]
fn a_thousand_and_twenty_four_open_connections_are_all_served() {
    let tb = quiet_testbed();
    let req = signed_get(&tb, true);
    raise_nofile_limit(2 * CONNECTIONS as u64 + 512);
    let server = Server::bind(tb.network(), ServeConfig::default()).expect("bind");
    let mut streams: Vec<_> = (0..CONNECTIONS).map(|_| connect(server.addr())).collect();
    for round in 0..2 {
        for stream in &mut streams {
            stream.write_all(&req).expect("write request");
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let (status, body) = read_response(stream);
            assert_eq!(status, 200, "round {round}, connection {i}: {body}");
        }
    }
    assert_eq!(server.stats().http_errors(), 0);
    assert_eq!(server.stats().dispatch_panics(), 0);
}

/// `serve_requests` from one `GET /metrics` on the admin port, after
/// checking that the exposition parses and its histograms are consistent.
fn scrape_requests(admin: SocketAddr) -> u64 {
    let mut stream = connect(admin);
    let mut req = Vec::new();
    ogsa_serve::http::write_get_request(&mut req, "/metrics", "scraper", false);
    stream.write_all(&req).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    let exp = parse_exposition(&body).expect("strict exposition parse");
    exp.check_histograms().expect("consistent histograms");
    exp.get("serve_requests", &[])
        .expect("serve_requests")
        .value as u64
}

/// With a slow threshold of 0 every request is retained and becomes an
/// exemplar. Each of three rounds writes a request on each of 16
/// connections, scrapes `/metrics` while they are in flight, then reads
/// the answers: 48 requests, fewer than the slow ring holds, so none is
/// evicted and every exemplar must resolve to its trace.
#[test]
fn scrapes_with_requests_in_flight_agree_and_every_exemplar_resolves() {
    let tb = quiet_testbed();
    let req = signed_get(&tb, true);
    let config = ServeConfig {
        observe: ObsConfig {
            slow_threshold_us: 0,
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::bind(tb.network(), config).expect("bind");
    let mut streams: Vec<_> = (0..16).map(|_| connect(server.addr())).collect();
    let (mut scraped, mut answered) = (Vec::new(), 0);
    for _ in 0..3 {
        for stream in &mut streams {
            stream.write_all(&req).expect("write request");
        }
        scraped.push(scrape_requests(server.admin_addr()));
        for stream in &mut streams {
            let (status, body) = read_response(stream);
            assert_eq!(status, 200, "{body}");
            answered += 1;
        }
    }
    scraped.push(scrape_requests(server.admin_addr()));
    assert!(scraped.windows(2).all(|w| w[0] <= w[1]), "{scraped:?}");
    assert!(scraped[3] >= answered, "{scraped:?} < {answered}");

    let plane = server.plane();
    let exemplars: Vec<_> = plane.exemplars().snapshot().into_iter().flatten().collect();
    assert!(!exemplars.is_empty());
    let traces = plane.recorder().dump();
    for e in &exemplars {
        assert!(
            traces.iter().any(|t| t.seq == e.seq
                && t.slow
                && t.latency_us == e.latency_us
                && t.spans.iter().any(|s| s.name == "serve:request")),
            "exemplar {e:?} resolves to no retained slow trace"
        );
    }
}
